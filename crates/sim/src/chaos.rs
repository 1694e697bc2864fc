//! Deterministic fault-injection: seed-derived fault schedules compiled
//! into timed actions applied through the public [`Simulation`] API.
//!
//! A [`ChaosSpec`] describes *what kinds* of faults to inject (correlated
//! crash waves, flapping links, asymmetric partitions, loss/latency storms,
//! duplication/reordering); [`ChaosSpec::compile`] expands it — using a
//! dedicated [`SimRng`] stream so the main simulation stream is never
//! perturbed — into a [`ChaosSchedule`] of concrete [`ChaosFault`]s at
//! concrete offsets. A [`ChaosController`] then interleaves the schedule
//! with normal event processing: `controller.run_for(sim, d)` is a
//! drop-in replacement for `sim.run_for(d)` that applies each fault at its
//! exact simulated instant.
//!
//! Determinism contract: the schedule is a pure function of
//! `(spec, seed, nodes, horizon)`, every fault lands at a deterministic
//! simulated time, and all in-schedule randomness (victim selection, flap
//! placement) comes from the compile-time RNG — so chaos runs are
//! byte-identical across harness thread counts like everything else.
//!
//! Victim selection uses a *prefix-of-permutation* rule: one seeded
//! shuffle of the node list is drawn per compile, and a fault of fraction
//! `f` targets the first `round(f·n)` entries. Escalating the fraction
//! therefore targets a superset of the previous victims, which makes
//! degradation curves monotone by construction rather than by luck.

use crate::engine::{NodeId, Protocol, Simulation};
use crate::rng::SimRng;
use crate::time::{SimDuration, SimTime};

/// Correlated crash waves: kill a fraction of nodes in a burst, revive
/// them after a hold, repeat.
#[derive(Clone, Copy, Debug)]
pub struct CrashWaves {
    /// Number of waves, spread evenly across the horizon.
    pub waves: u32,
    /// Fraction of the node list killed per wave (prefix rule).
    pub fraction: f64,
    /// How long victims stay down before the paired revive; a revived
    /// node keeps its protocol state.
    pub hold: SimDuration,
}

/// Flapping links: individual nodes whose chaos link drops and recovers,
/// while the node itself keeps running.
#[derive(Clone, Copy, Debug)]
pub struct LinkFlaps {
    /// Number of flap episodes, placed at seed-derived offsets.
    pub count: u32,
    /// Duration of each episode.
    pub down_for: SimDuration,
}

/// An asymmetric partition: victims' outbound traffic is dropped while
/// inbound traffic still reaches them (A→B delivered, B→A dropped).
#[derive(Clone, Copy, Debug)]
pub struct AsymPartition {
    /// Fraction of the node list on the muted side (prefix rule).
    pub fraction: f64,
    /// Onset as a fraction of the horizon (0.0–1.0).
    pub start_frac: f64,
    /// How long the partition lasts.
    pub duration: SimDuration,
}

/// A loss/latency storm that ramps up in steps to a peak and decays back.
#[derive(Clone, Copy, Debug)]
pub struct Storm {
    /// Random-loss rate at the storm's peak.
    pub peak_loss: f64,
    /// Propagation-latency multiplier at the storm's peak.
    pub latency_factor: f64,
    /// Steps on each side of the peak (ramp-up and decay).
    pub steps: u32,
}

/// What kinds of faults to inject. All fields default to "off"; a default
/// spec compiles to an empty schedule.
#[derive(Clone, Copy, Debug, Default)]
pub struct ChaosSpec {
    /// Correlated crash waves.
    pub crash: Option<CrashWaves>,
    /// Flapping links.
    pub flaps: Option<LinkFlaps>,
    /// One asymmetric partition episode.
    pub asym: Option<AsymPartition>,
    /// One loss/latency storm.
    pub storm: Option<Storm>,
    /// Message duplication probability for the whole run (0.0 = off).
    pub dup_rate: f64,
    /// Bounded-reorder delay ceiling for the whole run (ZERO = off).
    pub reorder: SimDuration,
}

/// A concrete fault to apply at a schedule offset.
#[derive(Clone, Debug)]
pub enum ChaosFault {
    /// Kill each victim (idempotent per node).
    Kill {
        /// Nodes to take down.
        victims: Vec<NodeId>,
    },
    /// Revive each victim with its state intact.
    Revive {
        /// Nodes to bring back.
        victims: Vec<NodeId>,
    },
    /// Drop one node's chaos link.
    LinkDown {
        /// The flapping node.
        node: NodeId,
    },
    /// Restore one node's chaos link.
    LinkUp {
        /// The flapping node.
        node: NodeId,
    },
    /// Start an asymmetric partition: victims' outbound traffic drops.
    AsymOn {
        /// The muted side.
        victims: Vec<NodeId>,
    },
    /// End the asymmetric partition.
    AsymOff {
        /// The previously muted side (groups reset to 0).
        victims: Vec<NodeId>,
    },
    /// Set the global random-loss rate (storm step).
    SetLoss {
        /// New loss rate.
        rate: f64,
    },
    /// Set the chaos latency multiplier (storm step).
    SetLatencyFactor {
        /// New multiplier.
        factor: f64,
    },
    /// Enable message duplication at this rate.
    SetDupRate {
        /// Duplication probability.
        rate: f64,
    },
    /// Enable bounded reordering up to this delay.
    SetReorder {
        /// Delay ceiling.
        bound: SimDuration,
    },
}

/// One scheduled fault.
#[derive(Clone, Debug)]
pub struct ChaosAction {
    /// Offset from the controller's install instant.
    pub at: SimDuration,
    /// The fault to apply.
    pub fault: ChaosFault,
}

/// A compiled, time-sorted fault schedule.
#[derive(Clone, Debug, Default)]
pub struct ChaosSchedule {
    actions: Vec<ChaosAction>,
}

impl ChaosSchedule {
    /// The scheduled actions, sorted by offset.
    pub fn actions(&self) -> &[ChaosAction] {
        &self.actions
    }

    /// Number of scheduled actions.
    pub fn len(&self) -> usize {
        self.actions.len()
    }

    /// Whether the schedule is empty.
    pub fn is_empty(&self) -> bool {
        self.actions.is_empty()
    }
}

impl ChaosSpec {
    /// Expand this spec into a concrete schedule for `nodes` over
    /// `horizon`, drawing all randomness from a fresh RNG seeded with
    /// `seed`. Pure: same inputs, same schedule.
    pub fn compile(&self, seed: u64, nodes: &[NodeId], horizon: SimDuration) -> ChaosSchedule {
        let mut rng = SimRng::new(seed);
        let mut actions: Vec<ChaosAction> = Vec::new();
        let n = nodes.len();

        // One victim-preference permutation per compile: a fault of
        // fraction f targets order[..round(f*n)], so escalating f targets
        // a superset (monotone degradation by construction).
        let mut order: Vec<NodeId> = nodes.to_vec();
        rng.shuffle(&mut order);
        let prefix = |fraction: f64| -> Vec<NodeId> {
            let k = ((fraction * n as f64).round() as usize).min(n);
            order[..k].to_vec()
        };

        if let Some(c) = self.crash {
            let victims = prefix(c.fraction);
            if !victims.is_empty() && c.waves > 0 {
                for w in 0..c.waves {
                    let at = SimDuration(horizon.micros() * (w as u64 + 1) / (c.waves as u64 + 1));
                    actions.push(ChaosAction {
                        at,
                        fault: ChaosFault::Kill {
                            victims: victims.clone(),
                        },
                    });
                    actions.push(ChaosAction {
                        at: at + c.hold,
                        fault: ChaosFault::Revive {
                            victims: victims.clone(),
                        },
                    });
                }
            }
        }

        if let Some(f) = self.flaps {
            for _ in 0..f.count {
                let node = *rng.pick(nodes);
                let latest = horizon.micros().saturating_sub(f.down_for.micros()).max(1);
                let at = SimDuration(rng.below(latest));
                actions.push(ChaosAction {
                    at,
                    fault: ChaosFault::LinkDown { node },
                });
                actions.push(ChaosAction {
                    at: at + f.down_for,
                    fault: ChaosFault::LinkUp { node },
                });
            }
        }

        if let Some(a) = self.asym {
            let victims = prefix(a.fraction);
            if !victims.is_empty() {
                let start =
                    SimDuration::from_secs_f64(horizon.secs_f64() * a.start_frac.clamp(0.0, 1.0));
                actions.push(ChaosAction {
                    at: start,
                    fault: ChaosFault::AsymOn {
                        victims: victims.clone(),
                    },
                });
                actions.push(ChaosAction {
                    at: start + a.duration,
                    fault: ChaosFault::AsymOff { victims },
                });
            }
        }

        if let Some(s) = self.storm {
            // Ramp between horizon/4 and horizon/2, decay back by 3/4.
            let steps = s.steps.max(1) as u64;
            let quarter = horizon.micros() / 4;
            for i in 1..=steps {
                let frac = i as f64 / steps as f64;
                actions.push(ChaosAction {
                    at: SimDuration(quarter + quarter * (i - 1) / steps),
                    fault: ChaosFault::SetLoss {
                        rate: s.peak_loss * frac,
                    },
                });
                actions.push(ChaosAction {
                    at: SimDuration(quarter + quarter * (i - 1) / steps),
                    fault: ChaosFault::SetLatencyFactor {
                        factor: 1.0 + (s.latency_factor - 1.0) * frac,
                    },
                });
            }
            for i in 1..=steps {
                let frac = 1.0 - i as f64 / steps as f64;
                actions.push(ChaosAction {
                    at: SimDuration(2 * quarter + quarter * i / steps),
                    fault: ChaosFault::SetLoss {
                        rate: s.peak_loss * frac,
                    },
                });
                actions.push(ChaosAction {
                    at: SimDuration(2 * quarter + quarter * i / steps),
                    fault: ChaosFault::SetLatencyFactor {
                        factor: 1.0 + (s.latency_factor - 1.0) * frac,
                    },
                });
            }
        }

        if self.dup_rate > 0.0 {
            actions.push(ChaosAction {
                at: SimDuration::ZERO,
                fault: ChaosFault::SetDupRate {
                    rate: self.dup_rate,
                },
            });
        }
        if self.reorder > SimDuration::ZERO {
            actions.push(ChaosAction {
                at: SimDuration::ZERO,
                fault: ChaosFault::SetReorder {
                    bound: self.reorder,
                },
            });
        }

        actions.sort_by_key(|a| a.at);
        ChaosSchedule { actions }
    }
}

/// Applies a [`ChaosSchedule`] to a running simulation, interleaving fault
/// application with normal event processing. Every applied fault is
/// counted under `chaos.*` metrics and noted as a `chaos.*` trace point so
/// the flight recorder grows a chaos span family.
pub struct ChaosController {
    schedule: ChaosSchedule,
    base: SimTime,
    next: usize,
}

impl ChaosController {
    /// Install a schedule on `sim`: enables the chaos layer with
    /// `chaos_seed` and anchors all offsets at the current simulated time.
    pub fn install<P: Protocol>(
        sim: &mut Simulation<P>,
        schedule: ChaosSchedule,
        chaos_seed: u64,
    ) -> ChaosController {
        sim.enable_chaos(chaos_seed);
        ChaosController {
            schedule,
            base: sim.now(),
            next: 0,
        }
    }

    /// Faults applied so far.
    pub fn applied(&self) -> usize {
        self.next
    }

    /// Drop-in replacement for `sim.run_for(d)` that applies scheduled
    /// faults at their exact instants.
    pub fn run_for<P: Protocol>(&mut self, sim: &mut Simulation<P>, d: SimDuration) {
        let limit = sim.now() + d;
        self.run_until(sim, limit);
    }

    /// As [`ChaosController::run_for`], but to an absolute deadline.
    pub fn run_until<P: Protocol>(&mut self, sim: &mut Simulation<P>, limit: SimTime) {
        while let Some(action) = self.schedule.actions.get(self.next) {
            let at = self.base + action.at;
            if at > limit {
                break;
            }
            sim.run_until(at);
            let fault = self.schedule.actions[self.next].fault.clone();
            self.next += 1;
            self.apply(sim, &fault);
        }
        sim.run_until(limit);
    }

    fn apply<P: Protocol>(&mut self, sim: &mut Simulation<P>, fault: &ChaosFault) {
        match fault {
            ChaosFault::Kill { victims } => {
                for &v in victims {
                    sim.kill(v);
                }
                sim.metrics_mut().incr("chaos.killed", victims.len() as u64);
                sim.trace_note("chaos.kill", victims.len() as f64);
            }
            ChaosFault::Revive { victims } => {
                for &v in victims {
                    sim.revive(v);
                }
                sim.metrics_mut()
                    .incr("chaos.revived", victims.len() as u64);
                sim.trace_note("chaos.revive", victims.len() as f64);
            }
            ChaosFault::LinkDown { node } => {
                sim.set_chaos_link(*node, false);
                sim.metrics_mut().incr("chaos.link_flaps", 1);
                sim.trace_note("chaos.flap", node.0 as f64);
            }
            ChaosFault::LinkUp { node } => {
                sim.set_chaos_link(*node, true);
                sim.trace_note("chaos.flap_heal", node.0 as f64);
            }
            ChaosFault::AsymOn { victims } => {
                for &v in victims {
                    sim.set_chaos_group(v, 1);
                }
                sim.chaos_block_directed(1, 0);
                sim.metrics_mut().incr("chaos.asym_partitions", 1);
                sim.trace_note("chaos.asym", victims.len() as f64);
            }
            ChaosFault::AsymOff { victims } => {
                sim.chaos_clear_directed();
                for &v in victims {
                    sim.set_chaos_group(v, 0);
                }
                sim.trace_note("chaos.asym_heal", victims.len() as f64);
            }
            ChaosFault::SetLoss { rate } => {
                sim.set_loss_rate(*rate);
                sim.metrics_mut().incr("chaos.storm_steps", 1);
                sim.trace_note("chaos.storm_loss", *rate);
            }
            ChaosFault::SetLatencyFactor { factor } => {
                sim.set_chaos_latency_factor(*factor);
                sim.trace_note("chaos.storm_latency", *factor);
            }
            ChaosFault::SetDupRate { rate } => {
                sim.set_chaos_dup_rate(*rate);
                sim.trace_note("chaos.dup_on", *rate);
            }
            ChaosFault::SetReorder { bound } => {
                sim.set_chaos_reorder(*bound);
                sim.trace_note("chaos.reorder_on", bound.secs_f64());
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ids(n: u32) -> Vec<NodeId> {
        (0..n).map(NodeId).collect()
    }

    #[test]
    fn default_spec_compiles_empty() {
        let s = ChaosSpec::default().compile(1, &ids(10), SimDuration::from_secs(100));
        assert!(s.is_empty());
    }

    #[test]
    fn compile_is_deterministic() {
        let spec = ChaosSpec {
            crash: Some(CrashWaves {
                waves: 3,
                fraction: 0.4,
                hold: SimDuration::from_secs(5),
            }),
            flaps: Some(LinkFlaps {
                count: 4,
                down_for: SimDuration::from_secs(2),
            }),
            storm: Some(Storm {
                peak_loss: 0.3,
                latency_factor: 4.0,
                steps: 3,
            }),
            ..Default::default()
        };
        let a = spec.compile(9, &ids(10), SimDuration::from_secs(300));
        let b = spec.compile(9, &ids(10), SimDuration::from_secs(300));
        assert_eq!(a.len(), b.len());
        for (x, y) in a.actions().iter().zip(b.actions()) {
            assert_eq!(x.at, y.at);
            assert_eq!(format!("{:?}", x.fault), format!("{:?}", y.fault));
        }
        let c = spec.compile(10, &ids(10), SimDuration::from_secs(300));
        assert_ne!(
            format!("{:?}", a.actions()),
            format!("{:?}", c.actions()),
            "different seed, different schedule"
        );
    }

    #[test]
    fn escalating_fraction_targets_a_superset() {
        let horizon = SimDuration::from_secs(100);
        let nodes = ids(10);
        let victims_at = |f: f64| -> Vec<NodeId> {
            let spec = ChaosSpec {
                crash: Some(CrashWaves {
                    waves: 1,
                    fraction: f,
                    hold: SimDuration::from_secs(1),
                }),
                ..Default::default()
            };
            let sched = spec.compile(5, &nodes, horizon);
            match &sched.actions()[0].fault {
                ChaosFault::Kill { victims } => victims.clone(),
                other => panic!("expected Kill, got {other:?}"),
            }
        };
        let small = victims_at(0.2);
        let big = victims_at(0.6);
        assert_eq!(small.len(), 2);
        assert_eq!(big.len(), 6);
        assert_eq!(&big[..2], &small[..], "prefix rule: superset of victims");
    }

    #[test]
    fn waves_pair_kills_with_revives_inside_horizon() {
        let spec = ChaosSpec {
            crash: Some(CrashWaves {
                waves: 2,
                fraction: 0.5,
                hold: SimDuration::from_secs(3),
            }),
            ..Default::default()
        };
        let sched = spec.compile(2, &ids(8), SimDuration::from_secs(60));
        let kills = sched
            .actions()
            .iter()
            .filter(|a| matches!(a.fault, ChaosFault::Kill { .. }))
            .count();
        let revives = sched
            .actions()
            .iter()
            .filter(|a| matches!(a.fault, ChaosFault::Revive { .. }))
            .count();
        assert_eq!(kills, 2);
        assert_eq!(revives, 2);
        for w in sched.actions().windows(2) {
            assert!(w[0].at <= w[1].at, "schedule must be time-sorted");
        }
    }
}
