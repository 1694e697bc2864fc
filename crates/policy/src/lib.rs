//! Deterministic reactive control: overload policies that close the
//! sense→act loop over the probe plane.
//!
//! A [`PolicyHub`] is a probe sink that senses the workload layer's modeled
//! uplink utilization (`net.uplink_util`) directly, applies an
//! engage/escalate/release hysteresis state machine to its per-interval
//! max, and exposes the resulting *policy level* through a shared
//! [`PolicyHandle`] that substrate runners poll at deterministic sim times.
//! It engages at [`agora_sim::probe::OVERLOAD_UTIL`], the threshold at
//! which the harness's OBS detectors fire `anomaly.overload`, so the two
//! planes agree on what overload is without one wrapping the other.
//!
//! # Determinism
//!
//! Policies subscribe to probe frames and the utilization signal — never
//! to artifact metrics, wall clock, or scheduling order. Probe frames are
//! sampled at dispatch points in the canonical event order, substrate
//! signals arrive in that same order, and the hysteresis machine is a pure
//! function of the frame/signal stream, so the policy level at any sim
//! time — and therefore every action a runner derives from it — is
//! byte-identical at any harness thread count. The within-interval state
//! kept is a running max, which is commutative and associative, so even
//! signal interleaving *within* one cadence interval cannot change a
//! decision (pinned by the proptest in `tests/proptests.rs`).
//!
//! # Hysteresis
//!
//! Disengaged → engaged when the interval utilization max reaches
//! [`OVERLOAD_UTIL`]. While engaged, each saturated interval escalates the
//! level up to [`MAX_LEVEL`]; the policy releases only after
//! [`RELEASE_FRAMES`] observed intervals below [`RELEASE_UTIL`] (intervals
//! with no utilization signal hold the count — they neither advance nor
//! reset it), so policies disengage cleanly after the crowd passes instead
//! of flapping at the threshold.
//!
//! # Accounting
//!
//! Runners report concrete actions via [`PolicyHandle::record`]
//! (`policy.shed`, `policy.replicate`, `policy.seed`, …). The sink flushes
//! pending action kinds with the next frame as `ProbeAnomaly` values, so
//! the engine mints `policy.*` counters and causally-parented trace points
//! (`--explain policy.shed` walks into the request being shed), while
//! exact totals stay available from the handle for artifact gauges.

#![forbid(unsafe_code)]

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;

use agora_sim::probe::{ProbeAnomaly, ProbeFrame, ProbeSink, OVERLOAD_UTIL, SIG_UPLINK_UTIL};
use agora_sim::{NodeId, SimTime};

/// Count an interval toward release only when its utilization max is
/// strictly below this (the hysteresis band is `[RELEASE_UTIL,
/// OVERLOAD_UTIL)`).
pub const RELEASE_UTIL: f64 = 0.5;

/// Consecutive calm intervals required to release.
pub const RELEASE_FRAMES: u32 = 2;

/// Escalation cap for the policy level.
pub const MAX_LEVEL: u32 = 8;

/// Counter/trace key minted when a policy engages (value = level).
pub const POLICY_ENGAGE: &str = "policy.engage";

/// Counter/trace key minted when a policy releases (value = 0).
pub const POLICY_RELEASE: &str = "policy.release";

/// Shared hub state: the hysteresis machine plus action accounting.
#[derive(Default)]
struct HubState {
    level: u32,
    engaged: bool,
    calm_frames: u32,
    engages: u64,
    releases: u64,
    /// Actions recorded since the last frame, flushed as `ProbeAnomaly`
    /// values (one per kind, value = batch count) at the next frame.
    pending: BTreeMap<&'static str, u64>,
    /// Cumulative action counts by kind.
    totals: BTreeMap<&'static str, u64>,
}

/// The policy control loop for one simulation: a hysteresis machine over
/// the utilization signal. Install via [`PolicyHub::into_sink`] and keep a
/// [`PolicyHandle`] to poll.
#[derive(Default)]
pub struct PolicyHub {
    state: Rc<RefCell<HubState>>,
}

impl PolicyHub {
    /// A shared handle for runners to poll the level and record actions.
    pub fn handle(&self) -> PolicyHandle {
        PolicyHandle {
            state: Rc::clone(&self.state),
        }
    }

    /// The probe sink to install with
    /// [`Simulation::set_probe_sink`](agora_sim::Simulation::set_probe_sink)
    /// at [`DEFAULT_CADENCE`](agora_sim::probe::DEFAULT_CADENCE). One hub
    /// drives one simulation's control loop.
    pub fn into_sink(self) -> Box<dyn ProbeSink> {
        Box::new(PolicySink {
            state: self.state,
            util_max: None,
        })
    }
}

/// Cheap shared handle onto a [`PolicyHub`]'s state.
#[derive(Clone)]
pub struct PolicyHandle {
    state: Rc<RefCell<HubState>>,
}

impl PolicyHandle {
    /// Current policy level: 0 when disengaged, 1..=[`MAX_LEVEL`] while
    /// engaged. Runners scale their response to this.
    pub fn level(&self) -> u32 {
        self.state.borrow().level
    }

    /// Whether the policy is currently engaged.
    pub fn engaged(&self) -> bool {
        self.state.borrow().engaged
    }

    /// How many times the policy has engaged.
    pub fn engages(&self) -> u64 {
        self.state.borrow().engages
    }

    /// How many times the policy has released.
    pub fn releases(&self) -> u64 {
        self.state.borrow().releases
    }

    /// Record `n` concrete actions of `kind` (e.g. `policy.shed`). Totals
    /// accumulate immediately; the batch is flushed to the engine as a
    /// `ProbeAnomaly` with the next frame.
    pub fn record(&self, kind: &'static str, n: u64) {
        let mut s = self.state.borrow_mut();
        *s.pending.entry(kind).or_insert(0) += n;
        *s.totals.entry(kind).or_insert(0) += n;
    }

    /// All cumulative action counts, key order.
    pub fn totals(&self) -> BTreeMap<&'static str, u64> {
        self.state.borrow().totals.clone()
    }
}

/// The installed sink: tracks the per-interval utilization max and steps
/// the hysteresis machine on each frame.
struct PolicySink {
    state: Rc<RefCell<HubState>>,
    util_max: Option<f64>,
}

impl ProbeSink for PolicySink {
    fn on_signal(&mut self, _now: SimTime, _node: NodeId, name: &'static str, value: f64) {
        if name == SIG_UPLINK_UTIL {
            // Running max: commutative + associative, so within-interval
            // signal interleaving cannot change the decision.
            let cur = self.util_max.get_or_insert(f64::NEG_INFINITY);
            if value > *cur {
                *cur = value;
            }
        }
    }

    fn on_frame(&mut self, _frame: &ProbeFrame<'_>) -> Vec<ProbeAnomaly> {
        let mut out = Vec::new();
        let util = self.util_max.take();
        let mut s = self.state.borrow_mut();
        if s.engaged {
            match util {
                Some(u) if u >= OVERLOAD_UTIL => {
                    s.level = (s.level + 1).min(MAX_LEVEL);
                    s.calm_frames = 0;
                }
                Some(u) if u < RELEASE_UTIL => {
                    s.calm_frames += 1;
                    if s.calm_frames >= RELEASE_FRAMES {
                        s.engaged = false;
                        s.level = 0;
                        s.calm_frames = 0;
                        s.releases += 1;
                        out.push(ProbeAnomaly {
                            kind: POLICY_RELEASE,
                            value: 0.0,
                        });
                    }
                }
                // In the hysteresis band: hold the level, restart the calm
                // count. No signal this interval: hold everything.
                Some(_) => s.calm_frames = 0,
                None => {}
            }
        } else if util.is_some_and(|u| u >= OVERLOAD_UTIL) {
            s.engaged = true;
            s.level = 1;
            s.calm_frames = 0;
            s.engages += 1;
            out.push(ProbeAnomaly {
                kind: POLICY_ENGAGE,
                value: f64::from(s.level),
            });
        }
        // Flush recorded actions, key order: one counter bump + one
        // causally-parented trace point per kind per frame.
        let pending = std::mem::take(&mut s.pending);
        for (kind, n) in pending {
            out.push(ProbeAnomaly {
                kind,
                value: n as f64,
            });
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use agora_sim::{Metrics, SimDuration};

    fn frame(metrics: &Metrics, t_secs: u64, uplink_backlog: f64) -> ProbeFrame<'_> {
        ProbeFrame {
            now: SimTime::ZERO + SimDuration::from_secs(t_secs),
            events: t_secs,
            pending: 0,
            queue_max_depth: 0,
            queue_max_node: NodeId(0),
            queue_nonzero: 0,
            uplink_max_backlog_secs: uplink_backlog,
            uplink_busy_nodes: u32::from(uplink_backlog > 0.0),
            downlink_max_backlog_secs: 0.0,
            downlink_busy_nodes: 0,
            metrics,
        }
    }

    fn hub() -> (PolicyHandle, Box<dyn ProbeSink>) {
        let hub = PolicyHub::default();
        let handle = hub.handle();
        let mut sink = hub.into_sink();
        sink.on_sim_start(7);
        (handle, sink)
    }

    fn note_util(sink: &mut Box<dyn ProbeSink>, util: f64) {
        sink.on_signal(SimTime::ZERO, NodeId(0), SIG_UPLINK_UTIL, util);
    }

    fn kinds(out: &[ProbeAnomaly]) -> Vec<&'static str> {
        out.iter().map(|a| a.kind).collect()
    }

    /// Engage with one saturated interval.
    fn engage(sink: &mut Box<dyn ProbeSink>, m: &Metrics, t: u64) -> Vec<ProbeAnomaly> {
        note_util(sink, 1.5);
        sink.on_frame(&frame(m, t, 0.0))
    }

    #[test]
    fn stays_dormant_below_thresholds() {
        let (handle, mut sink) = hub();
        let m = Metrics::new();
        for t in 0..20 {
            note_util(&mut sink, 0.4);
            let out = sink.on_frame(&frame(&m, t, 1.0));
            assert!(out.is_empty(), "frame {t}: {:?}", kinds(&out));
        }
        assert_eq!(handle.level(), 0);
        assert!(!handle.engaged());
        assert_eq!(handle.engages(), 0);
    }

    #[test]
    fn engages_on_overload_verdict_and_escalates_to_cap() {
        let (handle, mut sink) = hub();
        let m = Metrics::new();
        // The interval max reaching the overload threshold is the
        // verdict: the policy engages on that frame.
        note_util(&mut sink, 0.3);
        note_util(&mut sink, OVERLOAD_UTIL);
        let out = sink.on_frame(&frame(&m, 0, 0.0));
        assert_eq!(kinds(&out), vec![POLICY_ENGAGE]);
        assert_eq!(handle.level(), 1);
        assert!(handle.engaged());
        // Saturated intervals escalate up to the cap.
        for t in 1..=(MAX_LEVEL + 3) as u64 {
            note_util(&mut sink, 1.5);
            sink.on_frame(&frame(&m, t, 0.0));
        }
        assert_eq!(handle.level(), MAX_LEVEL);
        assert_eq!(handle.engages(), 1, "no re-engage while engaged");
    }

    #[test]
    fn engages_on_utilization_alone() {
        let (handle, mut sink) = hub();
        let m = Metrics::new();
        // Engine backlog is not a sense: minutes of it, with no
        // utilization signal, leave the policy dormant.
        for t in 0..4 {
            assert!(sink.on_frame(&frame(&m, t, 600.0)).is_empty());
        }
        assert!(!handle.engaged());
        note_util(&mut sink, 1.2);
        let out = sink.on_frame(&frame(&m, 4, 0.0));
        assert_eq!(kinds(&out), vec![POLICY_ENGAGE]);
        assert_eq!(handle.level(), 1);
    }

    #[test]
    fn releases_only_after_sustained_calm() {
        let (handle, mut sink) = hub();
        let m = Metrics::new();
        engage(&mut sink, &m, 0);
        assert!(handle.engaged());
        // Calm interval, then a band interval (between release and engage
        // thresholds): the calm count restarts, no release.
        note_util(&mut sink, 0.2);
        assert!(kinds(&sink.on_frame(&frame(&m, 1, 1.0))).is_empty());
        note_util(&mut sink, 0.7);
        assert!(kinds(&sink.on_frame(&frame(&m, 2, 1.0))).is_empty());
        assert!(handle.engaged(), "band interval must not release");
        // Two calm intervals with a signal-free frame between them: the
        // quiet frame holds the count, the second calm interval releases.
        note_util(&mut sink, 0.2);
        assert!(kinds(&sink.on_frame(&frame(&m, 3, 1.0))).is_empty());
        assert!(kinds(&sink.on_frame(&frame(&m, 4, 1.0))).is_empty());
        note_util(&mut sink, 0.3);
        let out = sink.on_frame(&frame(&m, 5, 1.0));
        assert_eq!(kinds(&out), vec![POLICY_RELEASE]);
        assert_eq!(handle.level(), 0);
        assert!(!handle.engaged());
        assert_eq!(handle.releases(), 1);
    }

    #[test]
    fn reengages_after_release() {
        let (handle, mut sink) = hub();
        let m = Metrics::new();
        engage(&mut sink, &m, 0);
        for t in 1..=2 {
            note_util(&mut sink, 0.1);
            sink.on_frame(&frame(&m, t, 1.0));
        }
        assert!(!handle.engaged());
        // A fresh saturated interval re-engages at level 1.
        let out = engage(&mut sink, &m, 3);
        assert_eq!(kinds(&out), vec![POLICY_ENGAGE]);
        assert_eq!(handle.engages(), 2);
        assert_eq!(handle.level(), 1);
    }

    #[test]
    fn recorded_actions_flush_once_per_frame_in_key_order() {
        let (handle, mut sink) = hub();
        let m = Metrics::new();
        handle.record("policy.shed", 3);
        handle.record("policy.replicate", 1);
        handle.record("policy.shed", 2);
        let out = sink.on_frame(&frame(&m, 0, 1.0));
        assert_eq!(kinds(&out), vec!["policy.replicate", "policy.shed"]);
        assert_eq!(out[0].value, 1.0);
        assert_eq!(out[1].value, 5.0, "batched since last frame");
        // Flushed: the next frame carries nothing.
        assert!(sink.on_frame(&frame(&m, 1, 1.0)).is_empty());
        // Totals survive the flush.
        let totals = handle.totals();
        assert_eq!(totals.len(), 2);
        assert_eq!((totals["policy.shed"], totals["policy.replicate"]), (5, 1));
    }
}
