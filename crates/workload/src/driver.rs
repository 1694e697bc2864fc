//! Cohort-scaled workload compilation and the [`WorkloadDriver`] that
//! replays a compiled schedule against a running simulation.
//!
//! The design mirrors `agora_sim::chaos`: a [`WorkloadSpec`] is *compiled*
//! — with a dedicated `SimRng` so the engine stream is never perturbed —
//! into a time-sorted [`WorkloadSchedule`] of concrete actions, and a
//! [`WorkloadDriver`] interleaves those actions with normal event
//! processing at their exact simulated instants. The schedule is a pure
//! function of `(spec, seed, churnable, horizon)`, so workload runs are
//! byte-identical across harness thread counts like everything else.
//!
//! ## Cohorts
//!
//! A population of P users is split into C homogeneous cohorts
//! (`P/C` users each, remainder spread over the first cohorts). Because a
//! sum of independent Poisson processes is a Poisson process of the summed
//! rate, per-tick demand for a whole cohort is one draw from
//! `Poisson(users × rate × ∫multiplier)` — aggregation is *exact in
//! distribution*, not an approximation (the only approximation is the
//! normal tail used for means ≥ 64; see `samplers::poisson_scaled`). The
//! engine therefore processes O(C) events per tick regardless of P: a
//! million users cost the same event budget as ten. Each scheduled
//! [`Demand`] is a *representative* request carrying `weight =
//! count/representatives`, so load accounting still sums to the full
//! population's demand.
//!
//! Setting `cohorts == population` collapses the layer: every cohort is
//! one user drawing from its own forked stream — per-user generation,
//! pinned by the `cohort_of_one_is_per_user_generation` test.

use std::iter::Peekable;

use agora_sim::{CounterHandle, NodeId, Protocol, SimDuration, SimRng, SimTime, Simulation};

use crate::arrivals::DemandModel;
use crate::samplers::{poisson_scaled, BoundedPareto, LogNormalSessions, ZipfAlias};

/// Diurnal churn targets: what fraction of the churnable node set is
/// offline when activity is at its daily peak vs its trough. Victims are
/// a prefix of one seeded permutation (the chaos rule), so the offline set
/// at any instant is a superset of the offline set at any
/// higher-activity instant — churn composes monotonically.
#[derive(Clone, Copy, Debug)]
pub struct ChurnCurve {
    /// Offline fraction at peak activity (most users online).
    pub offline_at_peak: f64,
    /// Offline fraction at trough activity (most users asleep).
    pub offline_at_trough: f64,
}

/// What workload to generate. Compile with [`WorkloadSpec::compile`].
#[derive(Clone, Debug)]
pub struct WorkloadSpec {
    /// Total simulated users.
    pub population: u64,
    /// Number of cohorts the population is aggregated into. Clamped to at
    /// least 1; `cohorts == population` is exact per-user generation.
    pub cohorts: u32,
    /// Mean actions per user per simulated day (before diurnal shaping).
    pub actions_per_user_day: f64,
    /// Arrival-rate shape (diurnal × flash).
    pub model: DemandModel,
    /// Content catalogue size (Zipf ranks).
    pub ranks: usize,
    /// Zipf popularity exponent.
    pub zipf_alpha: f64,
    /// Object-size distribution.
    pub sizes: BoundedPareto,
    /// Session-length distribution (attached to each demand).
    pub sessions: LogNormalSessions,
    /// Scheduling tick: demand is integrated per tick and representatives
    /// are placed inside it by thinning.
    pub tick: SimDuration,
    /// Max representative demands per cohort per tick (weights absorb the
    /// rest). Clamped to at least 1.
    pub rep_cap: u32,
    /// Optional diurnal churn over the churnable node set.
    pub churn: Option<ChurnCurve>,
}

/// One weighted representative request.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Demand {
    /// Cohort that generated it.
    pub cohort: u32,
    /// Zipf content rank (0 = most popular).
    pub rank: u32,
    /// Object size in bytes.
    pub bytes: u64,
    /// How many real requests this representative stands for.
    pub weight: f64,
    /// Session length of the requesting user.
    pub session: SimDuration,
}

/// A scheduled workload action.
#[derive(Clone, Debug)]
pub enum WorkloadAction {
    /// Per-cohort tick summary: `count` aggregate requests this tick
    /// (including those absorbed into representative weights).
    Tick {
        /// Tick index.
        tick: u32,
        /// Cohort index.
        cohort: u32,
        /// Aggregate request count.
        count: u64,
    },
    /// A representative request to issue against the substrate.
    Demand(Demand),
    /// Diurnal churn: take these nodes offline.
    Kill {
        /// Nodes going offline.
        victims: Vec<NodeId>,
    },
    /// Diurnal churn: bring these nodes back.
    Revive {
        /// Nodes coming back online.
        victims: Vec<NodeId>,
    },
    /// Flash-crowd window edge (for traces and dashboards).
    FlashEdge {
        /// True at onset, false at the end of the decay.
        on: bool,
    },
}

/// One scheduled action at an offset from the driver's install instant.
#[derive(Clone, Debug)]
pub struct WorkloadEvent {
    /// Offset from install.
    pub at: SimDuration,
    /// The action.
    pub action: WorkloadAction,
}

/// A compiled, time-sorted workload schedule.
#[derive(Clone, Debug, Default)]
pub struct WorkloadSchedule {
    events: Vec<WorkloadEvent>,
}

impl WorkloadSchedule {
    /// The scheduled events, sorted by offset.
    pub fn events(&self) -> &[WorkloadEvent] {
        &self.events
    }

    /// Number of scheduled events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the schedule is empty.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Sum of aggregate request counts across all ticks (the full
    /// population's demand, not just representatives).
    pub fn total_requests(&self) -> u64 {
        self.events
            .iter()
            .map(|e| match e.action {
                WorkloadAction::Tick { count, .. } => count,
                _ => 0,
            })
            .sum()
    }

    /// The representative demands, in schedule order.
    pub fn demands(&self) -> impl Iterator<Item = &Demand> {
        self.events.iter().filter_map(|e| match &e.action {
            WorkloadAction::Demand(d) => Some(d),
            _ => None,
        })
    }
}

impl WorkloadSpec {
    /// Expand this spec into a concrete schedule over `horizon`, drawing
    /// all randomness from a fresh RNG seeded with `seed`. `churnable` is
    /// the node set diurnal churn may take offline (empty disables churn
    /// regardless of the spec). Pure: same inputs, same schedule. This is
    /// [`WorkloadSpec::stream`] collected; a replay that does not need the
    /// whole day in memory hands the stream to
    /// [`WorkloadDriver::install_stream`] instead.
    pub fn compile(
        &self,
        seed: u64,
        churnable: &[NodeId],
        horizon: SimDuration,
    ) -> WorkloadSchedule {
        let stream = self.stream(seed, churnable, horizon);
        let mut events = Vec::with_capacity(stream.expected_len());
        events.extend(stream);
        WorkloadSchedule { events }
    }

    /// The schedule [`WorkloadSpec::compile`] returns, generated one tick at
    /// a time: same events, same order, O(cohorts) memory.
    pub fn stream(
        &self,
        seed: u64,
        churnable: &[NodeId],
        horizon: SimDuration,
    ) -> ScheduleStream<'_> {
        let mut root = SimRng::new(seed);
        // Churn permutation first (prefix-of-permutation victim rule),
        // before any cohort stream forks — the derivation order is part of
        // the determinism contract pinned by the cohort-1 test.
        let mut order: Vec<NodeId> = churnable.to_vec();
        root.shuffle(&mut order);

        let tick_us = self.tick.micros().max(1);
        let ticks = horizon.micros().div_ceil(tick_us);

        let mut flash_edges = Vec::new();
        if let Some(f) = &self.model.flash {
            if f.start < horizon {
                flash_edges.push((f.start, true));
                let end = f.end();
                if end < horizon {
                    flash_edges.push((end, false));
                }
            }
        }

        // Diurnal churn at tick boundaries: the offline fraction tracks
        // inverse activity between the configured peak/trough targets.
        let mut offline_targets = Vec::new();
        if let Some(churn) = self.churn.filter(|_| !order.is_empty()) {
            let acts: Vec<f64> = (0..ticks)
                .map(|k| self.model.multiplier((k * tick_us) as f64 / 1e6))
                .collect();
            let lo = acts.iter().cloned().fold(f64::MAX, f64::min);
            let hi = acts.iter().cloned().fold(f64::MIN, f64::max);
            let span = (hi - lo).max(1e-12);
            offline_targets = acts
                .iter()
                .map(|a| {
                    let a_norm = (a - lo) / span;
                    let target_frac = churn.offline_at_trough
                        + (churn.offline_at_peak - churn.offline_at_trough) * a_norm;
                    ((target_frac.clamp(0.0, 1.0) * order.len() as f64).round() as usize)
                        .min(order.len())
                })
                .collect();
        }

        // Per-cohort demand: one independent stream per cohort, forked in
        // cohort order. Cohorts past the population hold no users and draw
        // nothing, so only the populated prefix keeps a stream.
        let n_cohorts = self.cohorts.max(1) as u64;
        let base = self.population / n_cohorts;
        let extra = self.population % n_cohorts;
        let populated = if base == 0 { extra } else { n_cohorts };
        let cohorts = (0..populated)
            .map(|c| (root.fork(c), base + u64::from(c < extra)))
            .collect();

        // Per-tick quantities are computed per tick, not per cohort-tick.
        let tick_rates = (0..ticks)
            .map(|k| {
                let (t0, t1) = tick_secs(k, tick_us, horizon.micros());
                (self.model.mean_over(t0, t1), self.model.peak_over(t0, t1))
            })
            .collect();

        ScheduleStream {
            spec: self,
            zipf: ZipfAlias::new(self.ranks, self.zipf_alpha),
            horizon_us: horizon.micros(),
            tick_us,
            ticks,
            tick_rates,
            flash_edges,
            order,
            offline_targets,
            down: 0,
            cohorts,
            next_tick: 0,
            ready: Vec::new(),
            carried: Vec::new(),
        }
    }
}

/// Tick `k`'s span in seconds, the last one cut at the horizon.
fn tick_secs(k: u64, tick_us: u64, horizon_us: u64) -> (f64, f64) {
    let t0_us = k * tick_us;
    let t1_us = (t0_us + tick_us).min(horizon_us);
    (t0_us as f64 / 1e6, t1_us as f64 / 1e6)
}

/// A [`WorkloadSpec`]'s schedule, generated tick by tick (see
/// [`WorkloadSpec::stream`]).
///
/// Order is produced by construction, not by a day-long sort. The day-long
/// order is "by instant; equal instants keep generation order: flash edges,
/// churn, then cohort by cohort, each cohort tick by tick". Every event of
/// tick `k` lies in `[k·tick, (k+1)·tick]`, so it is enough to lay one
/// tick's events out in that generation order and stable-sort them by
/// instant — except for a representative whose instant rounds up to
/// exactly `(k+1)·tick`: it belongs among tick `k+1`'s events, ahead of its
/// own cohort's (an earlier tick of the same cohort) and behind every
/// lower cohort's, and is carried there.
pub struct ScheduleStream<'a> {
    spec: &'a WorkloadSpec,
    zipf: ZipfAlias,
    horizon_us: u64,
    tick_us: u64,
    ticks: u64,
    /// Per tick: the mean rate multiplier over it and the thinning envelope.
    tick_rates: Vec<(f64, f64)>,
    /// Flash-window edges inside the horizon: `(offset, onset?)`.
    flash_edges: Vec<(SimDuration, bool)>,
    /// The churn permutation; the offline set is always a prefix of it.
    order: Vec<NodeId>,
    /// Per tick, how many of `order` are offline (empty: no churn).
    offline_targets: Vec<usize>,
    down: usize,
    /// One stream and user count per populated cohort, in cohort order.
    cohorts: Vec<(SimRng, u64)>,
    next_tick: u64,
    /// The current tick's events, last first.
    ready: Vec<WorkloadEvent>,
    /// Representatives carried into the next tick, in cohort order.
    carried: Vec<(SimDuration, Demand)>,
}

impl ScheduleStream<'_> {
    /// About how many events the whole stream yields: every cohort-tick
    /// summary, the expected number of representatives plus four standard
    /// deviations, and the edges.
    fn expected_len(&self) -> usize {
        let spec = self.spec;
        let n = self.cohorts.len().max(1) as f64;
        let rate_per_sec = spec.actions_per_user_day / crate::arrivals::DAY_SECS;
        let rep_cap = f64::from(spec.rep_cap.max(1));
        let reps: f64 = self
            .tick_rates
            .iter()
            .enumerate()
            .map(|(k, &(tick_mean, _))| {
                let (t0, t1) = tick_secs(k as u64, self.tick_us, self.horizon_us);
                let per_cohort = spec.population as f64 / n * rate_per_sec * (t1 - t0) * tick_mean;
                n * per_cohort.min(rep_cap)
            })
            .sum();
        let edges = self.flash_edges.len() + self.offline_targets.len();
        (self.ticks as f64 * n + reps + 4.0 * reps.sqrt()) as usize + edges
    }

    /// Generate tick `self.next_tick` into `self.ready`.
    fn fill(&mut self) {
        let spec = self.spec;
        let k = self.next_tick;
        self.next_tick += 1;
        let t0_us = k * self.tick_us;
        // The last tick keeps everything up to the horizon itself.
        let carry_from = if self.next_tick < self.ticks {
            t0_us + self.tick_us
        } else {
            u64::MAX
        };
        let (t0, t1) = tick_secs(k, self.tick_us, self.horizon_us);
        let (tick_mean, bound) = self.tick_rates[k as usize];
        let out = &mut self.ready;

        for &(at, on) in &self.flash_edges {
            if at.micros() / self.tick_us == k {
                out.push(WorkloadEvent {
                    at,
                    action: WorkloadAction::FlashEdge { on },
                });
            }
        }
        if let Some(&target) = self.offline_targets.get(k as usize) {
            let at = SimDuration(t0_us);
            if target > self.down {
                out.push(WorkloadEvent {
                    at,
                    action: WorkloadAction::Kill {
                        victims: self.order[self.down..target].to_vec(),
                    },
                });
            } else if target < self.down {
                // Offline set is always a prefix of `order`, so reviving
                // the suffix restores exactly the most recently killed
                // nodes.
                out.push(WorkloadEvent {
                    at,
                    action: WorkloadAction::Revive {
                        victims: self.order[target..self.down].to_vec(),
                    },
                });
            }
            self.down = target;
        }

        let rate_per_sec = spec.actions_per_user_day / crate::arrivals::DAY_SECS;
        let rep_cap = spec.rep_cap.max(1) as u64;
        let mut incoming = std::mem::take(&mut self.carried).into_iter().peekable();
        for (c, (rng, users)) in self.cohorts.iter_mut().enumerate() {
            let c = c as u32;
            while let Some((at, d)) = incoming.next_if(|(_, d)| d.cohort == c) {
                out.push(WorkloadEvent {
                    at,
                    action: WorkloadAction::Demand(d),
                });
            }
            let mean = *users as f64 * rate_per_sec * (t1 - t0) * tick_mean;
            let count = poisson_scaled(rng, mean);
            out.push(WorkloadEvent {
                at: SimDuration(t0_us),
                action: WorkloadAction::Tick {
                    tick: k as u32,
                    cohort: c,
                    count,
                },
            });
            if count == 0 {
                continue;
            }
            let reps = count.min(rep_cap);
            let weight = count as f64 / reps as f64;
            for _ in 0..reps {
                // Thinning: place the representative inside the tick
                // with density proportional to the rate multiplier.
                let mut offset = (t0 + t1) / 2.0;
                for _ in 0..64 {
                    let cand = t0 + rng.f64() * (t1 - t0);
                    if rng.f64() * bound <= spec.model.multiplier(cand) {
                        offset = cand;
                        break;
                    }
                }
                let demand = Demand {
                    cohort: c,
                    rank: self.zipf.sample(rng) as u32,
                    bytes: spec.sizes.sample(rng),
                    weight,
                    session: spec.sessions.sample(rng),
                };
                let at = SimDuration::from_secs_f64(offset);
                if at.micros() >= carry_from {
                    self.carried.push((at, demand));
                } else {
                    out.push(WorkloadEvent {
                        at,
                        action: WorkloadAction::Demand(demand),
                    });
                }
            }
        }
        debug_assert!(incoming.next().is_none(), "carried past its cohort");

        // Stable: equal instants keep the generation order laid out above.
        out.sort_by_key(|e| e.at);
        out.reverse();
    }
}

impl Iterator for ScheduleStream<'_> {
    type Item = WorkloadEvent;

    fn next(&mut self) -> Option<WorkloadEvent> {
        loop {
            if let Some(e) = self.ready.pop() {
                return Some(e);
            }
            if self.next_tick == self.ticks {
                return None;
            }
            self.fill();
        }
    }
}

/// The `workload.*` counters bumped once per tick summary or
/// representative, resolved once per driver.
#[derive(Clone, Copy)]
struct HotCounters {
    requests: CounterHandle,
    ticks: CounterHandle,
    reps: CounterHandle,
}

/// Replays a workload schedule — a compiled [`WorkloadSchedule`] or a
/// [`ScheduleStream`] — against a running simulation, interleaving demand
/// issuance and churn with normal event processing. Every applied action
/// is counted under `workload.*` metrics and noted as a `workload.*` trace
/// point. A driver stays with the simulation it first ran against.
pub struct WorkloadDriver<I = std::vec::IntoIter<WorkloadEvent>>
where
    I: Iterator<Item = WorkloadEvent>,
{
    events: Peekable<I>,
    base: SimTime,
    applied: usize,
    counters: Option<HotCounters>,
}

impl WorkloadDriver {
    /// Install a schedule, anchoring all offsets at the current simulated
    /// time.
    pub fn install<P: Protocol>(sim: &Simulation<P>, schedule: WorkloadSchedule) -> WorkloadDriver {
        WorkloadDriver::install_stream(sim, schedule.events.into_iter())
    }
}

impl<I: Iterator<Item = WorkloadEvent>> WorkloadDriver<I> {
    /// As [`WorkloadDriver::install`], for events produced while they are
    /// replayed (time-sorted, as [`WorkloadSpec::stream`] yields them).
    pub fn install_stream<P: Protocol>(sim: &Simulation<P>, events: I) -> WorkloadDriver<I> {
        WorkloadDriver {
            events: events.peekable(),
            base: sim.now(),
            applied: 0,
            counters: None,
        }
    }

    /// Actions applied so far.
    pub fn applied(&self) -> usize {
        self.applied
    }

    /// Drop-in replacement for `sim.run_for(d)` that issues scheduled
    /// demand at its exact instants. `issue` is called for every
    /// representative [`Demand`]; translate it into a substrate operation
    /// there.
    pub fn run_for<P: Protocol>(
        &mut self,
        sim: &mut Simulation<P>,
        d: SimDuration,
        issue: &mut dyn FnMut(&mut Simulation<P>, &Demand),
    ) {
        let limit = sim.now() + d;
        self.run_until(sim, limit, issue);
    }

    /// As [`WorkloadDriver::run_for`], but to an absolute deadline.
    pub fn run_until<P: Protocol>(
        &mut self,
        sim: &mut Simulation<P>,
        limit: SimTime,
        issue: &mut dyn FnMut(&mut Simulation<P>, &Demand),
    ) {
        self.run_until_with(sim, limit, &mut |sim, t| sim.run_until(t), issue);
    }

    /// As [`WorkloadDriver::run_until`], but advancing the simulation
    /// through `advance` — pass a closure that delegates to a
    /// `ChaosController` to compose workload with a chaos schedule (both
    /// drive the same idempotent kill/revive path, so overlapping faults
    /// and churn are safe).
    pub fn run_until_with<P: Protocol>(
        &mut self,
        sim: &mut Simulation<P>,
        limit: SimTime,
        advance: &mut dyn FnMut(&mut Simulation<P>, SimTime),
        issue: &mut dyn FnMut(&mut Simulation<P>, &Demand),
    ) {
        let base = self.base;
        while let Some(event) = self.events.next_if(|e| base + e.at <= limit) {
            advance(sim, base + event.at);
            self.applied += 1;
            self.apply(sim, &event.action, issue);
        }
        advance(sim, limit);
    }

    fn apply<P: Protocol>(
        &mut self,
        sim: &mut Simulation<P>,
        action: &WorkloadAction,
        issue: &mut dyn FnMut(&mut Simulation<P>, &Demand),
    ) {
        let m = sim.metrics_mut();
        let hot = *self.counters.get_or_insert_with(|| HotCounters {
            requests: m.counter_handle("workload.requests"),
            ticks: m.counter_handle("workload.ticks"),
            reps: m.counter_handle("workload.reps"),
        });
        match action {
            WorkloadAction::Tick { count, .. } => {
                m.incr_handle(hot.requests, *count);
                m.incr_handle(hot.ticks, 1);
                sim.trace_note("workload.tick", *count as f64);
            }
            WorkloadAction::Demand(d) => {
                m.incr_handle(hot.reps, 1);
                m.sample("workload.session_secs", d.session.secs_f64());
                sim.trace_note("workload.demand", d.rank as f64);
                issue(sim, d);
            }
            WorkloadAction::Kill { victims } => {
                for &v in victims {
                    sim.kill(v);
                }
                sim.metrics_mut()
                    .incr("workload.churn_kills", victims.len() as u64);
                sim.trace_note("workload.churn_kill", victims.len() as f64);
            }
            WorkloadAction::Revive { victims } => {
                for &v in victims {
                    sim.revive(v);
                }
                sim.metrics_mut()
                    .incr("workload.churn_revives", victims.len() as u64);
                sim.trace_note("workload.churn_revive", victims.len() as f64);
            }
            WorkloadAction::FlashEdge { on } => {
                sim.metrics_mut().incr("workload.flash_edges", 1);
                sim.trace_note("workload.flash", u64::from(*on) as f64);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arrivals::{DiurnalCurve, FlashCrowd, ZoneMix};
    use agora_sim::{Ctx, DeviceClass};

    fn spec(population: u64, cohorts: u32) -> WorkloadSpec {
        WorkloadSpec {
            population,
            cohorts,
            actions_per_user_day: 20.0,
            model: DemandModel {
                zones: ZoneMix::single(DiurnalCurve::residential()),
                flash: Some(FlashCrowd {
                    start: SimDuration::from_secs(43_200),
                    ramp: SimDuration::from_secs(1800),
                    plateau: SimDuration::from_secs(3600),
                    decay: SimDuration::from_secs(1800),
                    peak: 8.0,
                }),
            },
            ranks: 64,
            zipf_alpha: 0.9,
            sizes: BoundedPareto::new(2_000, 2_000_000, 1.2),
            sessions: LogNormalSessions::new(300.0, 1.0),
            tick: SimDuration::from_mins(15),
            rep_cap: 2,
            churn: Some(ChurnCurve {
                offline_at_peak: 0.1,
                offline_at_trough: 0.5,
            }),
        }
    }

    fn ids(n: u32) -> Vec<NodeId> {
        (0..n).map(NodeId).collect()
    }

    #[test]
    fn compile_is_deterministic() {
        let s = spec(100_000, 8);
        let a = s.compile(7, &ids(20), SimDuration::from_days(1));
        let b = s.compile(7, &ids(20), SimDuration::from_days(1));
        assert_eq!(a.len(), b.len());
        for (x, y) in a.events().iter().zip(b.events()) {
            assert_eq!(x.at, y.at);
            assert_eq!(format!("{:?}", x.action), format!("{:?}", y.action));
        }
        let c = s.compile(8, &ids(20), SimDuration::from_days(1));
        assert_ne!(a.total_requests(), c.total_requests());
    }

    #[test]
    fn event_count_is_population_independent() {
        // The cohort claim: 100x the users, same engine event budget.
        let small = spec(10_000, 8).compile(7, &ids(20), SimDuration::from_days(1));
        let large = spec(1_000_000, 8).compile(7, &ids(20), SimDuration::from_days(1));
        // Demands are capped at rep_cap per cohort-tick; tick/churn/flash
        // actions are identical in number. Allow the small run fewer (a
        // low-rate tick can draw 0).
        assert!(
            large.len() <= small.len() + 200,
            "{} vs {}",
            large.len(),
            small.len()
        );
        assert!(
            large.total_requests() > small.total_requests() * 50,
            "population must scale aggregate demand"
        );
        // Weights absorb the difference.
        let wsum: f64 = large.demands().map(|d| d.weight).sum();
        let total = large.total_requests() as f64;
        assert!(
            wsum / total > 0.99 && wsum / total < 1.01,
            "weights {wsum} vs requests {total}"
        );
    }

    #[test]
    fn daily_volume_matches_population_rate() {
        let s = spec(1_000_000, 8);
        let sched = s.compile(3, &[], SimDuration::from_days(1));
        let expected_base = 1_000_000.0 * 20.0;
        let got = sched.total_requests() as f64;
        // The flash crowd adds volume on top of the diurnal-normalized
        // baseline: with an 8x peak over ~2h the overhead is ~10-40%.
        assert!(
            got > expected_base * 1.02 && got < expected_base * 1.6,
            "total {got} vs baseline {expected_base}"
        );
    }

    #[test]
    fn churn_tracks_activity_and_stays_prefix() {
        let s = spec(100_000, 4);
        let nodes = ids(30);
        let sched = s.compile(11, &nodes, SimDuration::from_days(1));
        let mut down: Vec<NodeId> = Vec::new();
        let mut max_down = 0usize;
        let mut min_down = usize::MAX;
        for e in sched.events() {
            match &e.action {
                WorkloadAction::Kill { victims } => {
                    for v in victims {
                        assert!(!down.contains(v), "double kill of {v:?}");
                        down.push(*v);
                    }
                }
                WorkloadAction::Revive { victims } => {
                    // LIFO: revives must be the tail of the down stack.
                    for v in victims.iter().rev() {
                        assert_eq!(down.pop().as_ref(), Some(v), "non-LIFO revive");
                    }
                }
                _ => {}
            }
            max_down = max_down.max(down.len());
            min_down = min_down.min(down.len());
        }
        // Trough takes ~half offline, peak only ~10%.
        assert!(max_down >= 12, "max down {max_down}");
        assert!(min_down <= 4, "min down {min_down}");
    }

    #[test]
    fn cohort_of_one_is_per_user_generation() {
        // Pin the derivation contract: with cohorts == population, compile
        // must behave exactly like a hand-rolled per-user generator that
        // forks one stream per user off the root and draws
        // Poisson/zipf/pareto/log-normal per tick. A refactor of the
        // cohort layer that changes per-user streams breaks this test.
        let population = 16u64;
        let mut s = spec(population, population as u32);
        s.rep_cap = u32::MAX; // every request is its own representative
        let horizon = SimDuration::from_hours(6);
        let churnable = ids(5);
        let sched = s.compile(99, &churnable, horizon);

        // Reference: the documented stream derivation, written out by hand.
        let mut root = SimRng::new(99);
        let mut order = churnable.clone();
        root.shuffle(&mut order);
        let zipf = ZipfAlias::new(s.ranks, s.zipf_alpha);
        let tick_us = s.tick.micros();
        let ticks = horizon.micros().div_ceil(tick_us);
        let rate = s.actions_per_user_day / crate::arrivals::DAY_SECS;
        let mut expected: Vec<Demand> = Vec::new();
        let mut expected_total = 0u64;
        for user in 0..population {
            let mut rng = root.fork(user);
            for k in 0..ticks {
                let t0 = (k * tick_us) as f64 / 1e6;
                let t1 = ((k * tick_us + tick_us).min(horizon.micros())) as f64 / 1e6;
                let mean = 1.0 * rate * (t1 - t0) * s.model.mean_over(t0, t1);
                let count = poisson_scaled(&mut rng, mean);
                expected_total += count;
                let bound = s.model.peak_over(t0, t1);
                for _ in 0..count {
                    for _ in 0..64 {
                        let cand = t0 + rng.f64() * (t1 - t0);
                        if rng.f64() * bound <= s.model.multiplier(cand) {
                            break;
                        }
                    }
                    expected.push(Demand {
                        cohort: user as u32,
                        rank: zipf.sample(&mut rng) as u32,
                        bytes: s.sizes.sample(&mut rng),
                        weight: 1.0,
                        session: s.sessions.sample(&mut rng),
                    });
                }
            }
        }
        assert_eq!(sched.total_requests(), expected_total);
        let mut got: Vec<Demand> = sched.demands().copied().collect();
        let keyfn = |d: &Demand| (d.cohort, d.rank, d.bytes, d.session);
        got.sort_by_key(keyfn);
        expected.sort_by_key(keyfn);
        assert_eq!(got.len(), expected.len());
        for (g, e) in got.iter().zip(&expected) {
            assert_eq!(g, e);
        }
    }

    // A trivial protocol for driver integration tests.
    struct Null;
    impl Protocol for Null {
        type Msg = ();
        fn on_message(&mut self, _ctx: &mut Ctx<'_, ()>, _from: NodeId, _msg: ()) {}
    }

    #[test]
    fn driver_applies_schedule_and_counts() {
        let s = spec(50_000, 4);
        let mut sim: Simulation<Null> = Simulation::new(1);
        let nodes: Vec<NodeId> = (0..10)
            .map(|_| sim.add_node(Null, DeviceClass::PersonalComputer))
            .collect();
        let horizon = SimDuration::from_days(1);
        let sched = s.compile(5, &nodes, horizon);
        let total = sched.total_requests();
        let n_events = sched.len();
        let mut driver = WorkloadDriver::install(&sim, sched);
        let mut issued = 0u64;
        let mut weighted = 0.0f64;
        driver.run_for(&mut sim, horizon, &mut |_sim, d| {
            issued += 1;
            weighted += d.weight;
        });
        assert_eq!(driver.applied(), n_events);
        assert_eq!(sim.metrics().counter("workload.requests"), total);
        assert_eq!(sim.metrics().counter("workload.reps"), issued);
        assert!((weighted - total as f64).abs() / (total as f64) < 0.01);
        assert_eq!(sim.metrics().counter("workload.flash_edges"), 2);
        assert!(sim.metrics().counter("workload.churn_kills") > 0);
        assert!(sim.metrics().counter("workload.churn_revives") > 0);
        // Diurnal churn ends where it started (same activity at t=0 and
        // t=24h), so kills and revives nearly balance; the last tick's
        // state may leave a prefix down.
        let kills = sim.metrics().counter("workload.churn_kills");
        let revives = sim.metrics().counter("workload.churn_revives");
        assert!(
            kills >= revives && kills - revives <= 10,
            "{kills} vs {revives}"
        );
    }

    #[test]
    fn driver_churn_composes_with_manual_kill_revive() {
        // The idempotence contract: a node killed by chaos and again by
        // workload churn, then revived by both, ends up up exactly once.
        let s = spec(10_000, 2);
        let mut sim: Simulation<Null> = Simulation::new(2);
        let nodes: Vec<NodeId> = (0..6)
            .map(|_| sim.add_node(Null, DeviceClass::PersonalComputer))
            .collect();
        let sched = s.compile(3, &nodes, SimDuration::from_days(1));
        let mut driver = WorkloadDriver::install(&sim, sched);
        let mut step = 0u32;
        driver.run_until_with(
            &mut sim,
            SimTime::ZERO + SimDuration::from_days(1),
            &mut |sim, t| {
                // An interfering "chaos" layer that randomly kills and
                // revives the same nodes between workload actions.
                step += 1;
                if step.is_multiple_of(7) {
                    sim.kill(nodes[0]);
                }
                if step.is_multiple_of(11) {
                    sim.revive(nodes[0]);
                }
                sim.run_until(t);
            },
            &mut |_, _| {},
        );
        // No panic, and every node can be revived to a clean up state.
        for &n in &nodes {
            sim.revive(n);
            assert!(sim.is_up(n));
        }
    }
}
