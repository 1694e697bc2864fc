//! # agora-observer — deterministic observability over sim probes
//!
//! Consumes the `agora-sim` [`probe`](agora_sim::probe) feed — cadence
//! frames of engine state plus named substrate health signals — and turns
//! it into a typed, deterministic record stream: per-interval signal
//! summaries and counter deltas, and `anomaly.overload` records from two
//! detectors over the workload layer's signals: a utilization threshold
//! with hysteresis, and a demand surge against a saturated uplink. The
//! harness renders the stream as the `OBS_<target>.jsonl` artifact;
//! `agora-policy` reads the same utilization signal directly, at the same
//! threshold.
//!
//! Everything here is a pure function of the probe feed, which is itself a
//! pure function of the canonical event order — no wall clock, no
//! thread-dependent state — so observer output is byte-identical at any
//! harness thread count.
//!
//! Detector verdicts are returned to the engine as
//! [`ProbeAnomaly`](agora_sim::ProbeAnomaly) values, which the engine turns
//! into `anomaly.overload` metrics counters and (when tracing) trace points
//! causally parented to the event that triggered the sample — that is what
//! makes `--explain anomaly.overload` walk back to the overloading traffic.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::cell::RefCell;
use std::collections::{BTreeMap, VecDeque};
use std::rc::Rc;

use agora_sim::probe::{ProbeAnomaly, ProbeFrame, ProbeSink};
use agora_sim::{NodeId, SimDuration, SimTime};

/// Default sim-time sampling cadence for frames (`--observe-cadence`
/// overrides it for one observed run).
pub const DEFAULT_CADENCE: SimDuration = SimDuration::from_secs(300);

/// The workload layer's modeled demand-over-uplink factor, reported per
/// tick. Both overload detectors read it, and so does `agora-policy`.
pub const SIG_UPLINK_UTIL: &str = "net.uplink_util";

/// The workload layer's per-tick demand total, which the surge detector
/// reads.
pub const SIG_DEMAND: &str = "workload.demand";

/// The anomaly kind both detectors fire.
pub const ANOMALY_OVERLOAD: &str = "anomaly.overload";

/// Overload threshold on the interval max of [`SIG_UPLINK_UTIL`]: 1.0 =
/// some serving uplink cannot carry its attributed demand. The threshold
/// detector fires at the upward crossing and re-arms below half of it.
pub const OVERLOAD_UTIL: f64 = 1.0;

/// Surge detector: fire when the interval's [`SIG_DEMAND`] total reaches
/// this multiple of its EWMA baseline *while* utilization is at or above
/// [`OVERLOAD_UTIL`]. Demand is schedule-driven and smooth, so the ratio
/// times the onset of a flash crowd; the saturation gate keeps substrates
/// with headroom (the centralized server) clean through the same surge.
pub const OVERLOAD_JUMP: f64 = 2.0;

/// Demand-bearing frames of EWMA warmup before the surge detector may fire.
pub const JUMP_WARMUP: u32 = 8;

/// How many recent values of the triggering signal an anomaly record
/// carries.
pub const WINDOW: usize = 8;

/// EWMA smoothing factor for the surge detector's demand baseline.
const EWMA_ALPHA: f64 = 0.1;

/// Per-interval summary of one named substrate signal.
#[derive(Clone, Debug, PartialEq)]
pub struct SignalSummary {
    /// Signal name (the metric key it annotates, by convention).
    pub name: &'static str,
    /// Samples in the interval.
    pub count: u64,
    /// Mean sample value.
    pub mean: f64,
    /// Largest sample value.
    pub max: f64,
}

/// One rendered probe frame: engine state at a cadence boundary plus
/// everything that accumulated since the previous frame.
#[derive(Clone, Debug)]
pub struct FrameRecord {
    /// Ordinal of the simulation within the observed trial (assigned in
    /// construction order: 0 for the first `Simulation::new`, and so on).
    pub sim: u32,
    /// Simulated time of the frame.
    pub t: SimTime,
    /// Events dispatched so far in this simulation.
    pub events: u64,
    /// Undispatched events currently queued.
    pub pending: u64,
    /// Deepest per-node event queue.
    pub queue_max_depth: u32,
    /// Node holding the deepest queue.
    pub queue_max_node: NodeId,
    /// Nodes with any pending events.
    pub queue_nonzero: u32,
    /// Largest per-node uplink backlog in seconds.
    pub uplink_max_backlog_secs: f64,
    /// Nodes with uplink backlog.
    pub uplink_busy_nodes: u32,
    /// Largest per-node downlink backlog in seconds.
    pub downlink_max_backlog_secs: f64,
    /// Nodes with downlink backlog.
    pub downlink_busy_nodes: u32,
    /// Counter increments since the previous frame, key order, non-zero
    /// deltas only — the per-interval delivery/drop/retry/hedge rates.
    pub deltas: Vec<(String, u64)>,
    /// Substrate signal summaries for the interval, name order.
    pub signals: Vec<SignalSummary>,
}

/// One detector firing.
#[derive(Clone, Debug)]
pub struct AnomalyRecord {
    /// Simulation ordinal (see [`FrameRecord::sim`]).
    pub sim: u32,
    /// Simulated time of the frame that tripped the detector.
    pub t: SimTime,
    /// Anomaly kind — the `anomaly.*` counter/trace key.
    pub kind: &'static str,
    /// The signal the detector watches.
    pub signal: &'static str,
    /// Detector family.
    pub detector: &'static str,
    /// The value that tripped the detector.
    pub value: f64,
    /// Recent values of the watched signal, oldest first, ending with the
    /// triggering value.
    pub window: Vec<f64>,
}

/// The observer's typed output stream, in emission order.
#[derive(Clone, Debug)]
pub enum ObsRecord {
    /// A simulation was constructed under the observed trial.
    SimStart {
        /// Construction-order ordinal.
        ordinal: u32,
        /// The simulation's RNG seed.
        seed: u64,
    },
    /// A cadence frame.
    Frame(FrameRecord),
    /// A detector firing.
    Anomaly(AnomalyRecord),
}

/// End-of-run totals, for the artifact's summary line.
#[derive(Clone, Debug, Default)]
pub struct ObserverSummary {
    /// Simulations observed.
    pub sims: u32,
    /// Frames emitted.
    pub frames: u64,
    /// Detector firings by anomaly kind, key order.
    pub anomalies: BTreeMap<&'static str, u64>,
}

struct Core {
    emit: Box<dyn FnMut(ObsRecord)>,
    next_ordinal: u32,
    frames: u64,
    anomalies: BTreeMap<&'static str, u64>,
}

/// The observer: hands out per-simulation probe sinks that share one
/// record stream and one summary. Cheap to clone (shared handle).
#[derive(Clone)]
pub struct Observer {
    core: Rc<RefCell<Core>>,
}

impl Observer {
    /// Create an observer delivering records to `emit` as they happen (the
    /// harness flushes each one to the `OBS_*` artifact immediately, which
    /// is what makes long runs observable mid-flight). The cadence is the
    /// installer's: it goes beside each [`Observer::make_sink`].
    pub fn new(emit: Box<dyn FnMut(ObsRecord)>) -> Observer {
        Observer {
            core: Rc::new(RefCell::new(Core {
                emit,
                next_ordinal: 0,
                frames: 0,
                anomalies: BTreeMap::new(),
            })),
        }
    }

    /// A fresh probe sink for one simulation: detector state starts clean
    /// per sim, the record stream and summary are shared.
    pub fn make_sink(&self) -> Box<dyn ProbeSink> {
        Box::new(SimProbe {
            core: Rc::clone(&self.core),
            ordinal: 0,
            last_counters: Vec::new(),
            signals: BTreeMap::new(),
            util_armed: true,
            util_window: VecDeque::new(),
            jump_armed: true,
            demand_ewma: 0.0,
            demand_frames: 0,
            demand_window: VecDeque::new(),
        })
    }

    /// Totals so far.
    pub fn summary(&self) -> ObserverSummary {
        let core = self.core.borrow();
        ObserverSummary {
            sims: core.next_ordinal,
            frames: core.frames,
            anomalies: core.anomalies.clone(),
        }
    }
}

struct SigAgg {
    count: u64,
    sum: f64,
    max: f64,
}

/// One simulation's probe sink: interval aggregation plus detector state.
struct SimProbe {
    core: Rc<RefCell<Core>>,
    ordinal: u32,
    /// Counter snapshot at the previous frame, for delta computation.
    last_counters: Vec<(String, u64)>,
    /// Signal aggregates accumulating toward the next frame.
    signals: BTreeMap<&'static str, SigAgg>,
    util_armed: bool,
    util_window: VecDeque<f64>,
    jump_armed: bool,
    demand_ewma: f64,
    demand_frames: u32,
    demand_window: VecDeque<f64>,
}

impl SimProbe {
    fn push_window(window: &mut VecDeque<f64>, v: f64) {
        if window.len() == WINDOW {
            window.pop_front();
        }
        window.push_back(v);
    }

    /// Counter deltas between two key-ordered snapshots (counters are
    /// monotonic, so new-minus-old is the interval's increment). Keys new
    /// in `now` count from zero.
    fn deltas(prev: &[(String, u64)], now: &[(String, u64)]) -> Vec<(String, u64)> {
        let mut out = Vec::new();
        let mut pi = 0;
        for (k, v) in now {
            while pi < prev.len() && prev[pi].0.as_str() < k.as_str() {
                pi += 1;
            }
            let before = if pi < prev.len() && prev[pi].0 == *k {
                prev[pi].1
            } else {
                0
            };
            if *v > before {
                out.push((k.clone(), v - before));
            }
        }
        out
    }

    /// Record one `anomaly.overload` firing on `signal`, carrying that
    /// signal's recent `window`.
    fn fire(
        &self,
        t: SimTime,
        (signal, detector): (&'static str, &'static str),
        value: f64,
        window: &VecDeque<f64>,
        out: &mut Vec<ProbeAnomaly>,
    ) {
        let mut core = self.core.borrow_mut();
        *core.anomalies.entry(ANOMALY_OVERLOAD).or_insert(0) += 1;
        (core.emit)(ObsRecord::Anomaly(AnomalyRecord {
            sim: self.ordinal,
            t,
            kind: ANOMALY_OVERLOAD,
            signal,
            detector,
            value,
            window: window.iter().copied().collect(),
        }));
        out.push(ProbeAnomaly {
            kind: ANOMALY_OVERLOAD,
            value,
        });
    }
}

impl ProbeSink for SimProbe {
    fn on_sim_start(&mut self, seed: u64) {
        let mut core = self.core.borrow_mut();
        self.ordinal = core.next_ordinal;
        core.next_ordinal += 1;
        let ordinal = self.ordinal;
        (core.emit)(ObsRecord::SimStart { ordinal, seed });
    }

    fn on_signal(&mut self, _now: SimTime, _node: NodeId, name: &'static str, value: f64) {
        let agg = self.signals.entry(name).or_insert(SigAgg {
            count: 0,
            sum: 0.0,
            max: f64::NEG_INFINITY,
        });
        agg.count += 1;
        agg.sum += value;
        agg.max = agg.max.max(value);
    }

    fn on_frame(&mut self, frame: &ProbeFrame<'_>) -> Vec<ProbeAnomaly> {
        let snapshot = frame.metrics.snapshot();
        let deltas = Self::deltas(&self.last_counters, &snapshot);
        self.last_counters = snapshot;
        let uplink_util = self.signals.get(SIG_UPLINK_UTIL).map(|agg| agg.max);
        let demand = self.signals.get(SIG_DEMAND).map(|agg| agg.sum);
        let signals: Vec<SignalSummary> = self
            .signals
            .iter()
            .map(|(name, agg)| SignalSummary {
                name,
                count: agg.count,
                mean: agg.sum / agg.count as f64,
                max: agg.max,
            })
            .collect();
        self.signals.clear();
        {
            let mut core = self.core.borrow_mut();
            core.frames += 1;
            (core.emit)(ObsRecord::Frame(FrameRecord {
                sim: self.ordinal,
                t: frame.now,
                events: frame.events,
                pending: frame.pending,
                queue_max_depth: frame.queue_max_depth,
                queue_max_node: frame.queue_max_node,
                queue_nonzero: frame.queue_nonzero,
                uplink_max_backlog_secs: frame.uplink_max_backlog_secs,
                uplink_busy_nodes: frame.uplink_busy_nodes,
                downlink_max_backlog_secs: frame.downlink_max_backlog_secs,
                downlink_busy_nodes: frame.downlink_busy_nodes,
                deltas,
                signals,
            }));
        }

        let mut out = Vec::new();
        let t = frame.now;

        // Threshold detector with hysteresis on the interval max of the
        // modeled demand-over-uplink factor: it fires once at the upward
        // crossing and re-arms only after utilization falls below half the
        // threshold — onset detection, not a per-frame alarm. Crossing 1.0
        // is flash-crowd onset on substrates whose serving uplinks are
        // consumer-grade. Intervals without the signal leave the detector
        // state untouched.
        if let Some(util) = uplink_util {
            Self::push_window(&mut self.util_window, util);
            if self.util_armed && util >= OVERLOAD_UTIL {
                self.util_armed = false;
                self.fire(
                    t,
                    (SIG_UPLINK_UTIL, "threshold"),
                    util,
                    &self.util_window,
                    &mut out,
                );
            } else if !self.util_armed && util < OVERLOAD_UTIL * 0.5 {
                self.util_armed = true;
            }
        }

        // Surge detector: the interval's demand total against its own EWMA
        // baseline, gated on utilization saturation. The demand series is
        // the workload schedule itself — smooth where per-node utilization
        // is Zipf-noisy — so the ratio crossing lands on the flash-crowd
        // ramp, and the saturation gate keeps substrates with capacity
        // headroom quiet through the same surge.
        if let Some(demand) = demand {
            Self::push_window(&mut self.demand_window, demand);
            if self.demand_frames >= JUMP_WARMUP {
                let surge = demand >= OVERLOAD_JUMP * self.demand_ewma;
                let saturated = uplink_util.is_some_and(|u| u >= OVERLOAD_UTIL);
                if self.jump_armed && surge && saturated {
                    self.jump_armed = false;
                    self.fire(
                        t,
                        (SIG_DEMAND, "jump"),
                        demand,
                        &self.demand_window,
                        &mut out,
                    );
                } else if !self.jump_armed && !surge {
                    self.jump_armed = true;
                }
            }
            if self.demand_frames == 0 {
                self.demand_ewma = demand;
            } else {
                self.demand_ewma += EWMA_ALPHA * (demand - self.demand_ewma);
            }
            self.demand_frames += 1;
        }

        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use agora_sim::Metrics;

    fn observer_with_log() -> (Observer, Rc<RefCell<Vec<ObsRecord>>>) {
        let log: Rc<RefCell<Vec<ObsRecord>>> = Rc::new(RefCell::new(Vec::new()));
        let sink_log = Rc::clone(&log);
        let obs = Observer::new(Box::new(move |rec| sink_log.borrow_mut().push(rec)));
        (obs, log)
    }

    fn frame(metrics: &Metrics, t_secs: u64, pending: u64, uplink: f64) -> ProbeFrame<'_> {
        ProbeFrame {
            now: SimTime::ZERO + SimDuration::from_secs(t_secs),
            events: t_secs,
            pending,
            queue_max_depth: pending.min(u32::MAX as u64) as u32,
            queue_max_node: NodeId(0),
            queue_nonzero: u32::from(pending > 0),
            uplink_max_backlog_secs: uplink,
            uplink_busy_nodes: u32::from(uplink > 0.0),
            downlink_max_backlog_secs: 0.0,
            downlink_busy_nodes: 0,
            metrics,
        }
    }

    /// One interval: the utilization samples noted since the last frame,
    /// then the frame itself (no backlog, nothing pending).
    fn util_frame(
        sink: &mut Box<dyn ProbeSink>,
        m: &Metrics,
        t: u64,
        utils: &[f64],
    ) -> Vec<ProbeAnomaly> {
        for &u in utils {
            sink.on_signal(SimTime::ZERO, NodeId(0), SIG_UPLINK_UTIL, u);
        }
        sink.on_frame(&frame(m, t, 0, 0.0))
    }

    #[test]
    fn overload_fires_once_at_crossing_and_rearms_after_hysteresis() {
        let (obs, _log) = observer_with_log();
        let mut sink = obs.make_sink();
        sink.on_sim_start(7);
        let m = Metrics::new();
        // Ramp up through the threshold: exactly one firing at the
        // crossing frame, none while it stays saturated. The interval max
        // is what counts.
        let mut fired = Vec::new();
        for (i, v) in [0.1, 0.4, 1.2, 3.0, 3.0].iter().enumerate() {
            for a in util_frame(&mut sink, &m, i as u64, &[0.05, *v]) {
                fired.push((i, a.kind));
            }
        }
        assert_eq!(fired, vec![(2, ANOMALY_OVERLOAD)]);
        // Still above half-threshold: not re-armed.
        assert!(util_frame(&mut sink, &m, 5, &[0.6]).is_empty());
        // A frame without the signal holds the state.
        assert!(util_frame(&mut sink, &m, 6, &[]).is_empty());
        // Drop below half-threshold, then cross again: fires again.
        assert!(util_frame(&mut sink, &m, 7, &[0.2]).is_empty());
        let again = util_frame(&mut sink, &m, 8, &[1.0]);
        assert_eq!(again.len(), 1);
        assert_eq!(again[0].kind, ANOMALY_OVERLOAD);
        assert_eq!(obs.summary().anomalies[ANOMALY_OVERLOAD], 2);
    }

    #[test]
    fn anomaly_record_carries_the_signal_window() {
        let (obs, log) = observer_with_log();
        let mut sink = obs.make_sink();
        sink.on_sim_start(1);
        let m = Metrics::new();
        for (i, v) in [0.1, 0.2, 9.9].iter().enumerate() {
            util_frame(&mut sink, &m, i as u64, &[*v]);
        }
        let log = log.borrow();
        let rec = log
            .iter()
            .find_map(|rec| match rec {
                ObsRecord::Anomaly(a) => Some(a),
                _ => None,
            })
            .expect("overload fired");
        assert_eq!((rec.signal, rec.detector), (SIG_UPLINK_UTIL, "threshold"));
        assert_eq!(
            rec.window,
            vec![0.1, 0.2, 9.9],
            "oldest first, trigger last"
        );
    }

    /// Engine state alone never fires: a backlog of minutes and a pending
    /// count that climbs every frame are rendered, not judged. Only the
    /// workload signals drive a detector.
    #[test]
    fn engine_state_alone_never_fires() {
        let (obs, _log) = observer_with_log();
        let mut sink = obs.make_sink();
        sink.on_sim_start(1);
        let m = Metrics::new();
        for t in 0..64u64 {
            let pending = if t == 40 { 1_000_000 } else { 100 + t };
            assert!(sink.on_frame(&frame(&m, t, pending, 600.0)).is_empty());
        }
        assert!(obs.summary().anomalies.is_empty());
    }

    #[test]
    fn surge_fires_only_when_demand_jumps_on_a_saturated_uplink() {
        let (obs, log) = observer_with_log();
        let mut sink = obs.make_sink();
        sink.on_sim_start(1);
        let m = Metrics::new();
        let mut t = 0u64;
        let mut note = |sink: &mut Box<dyn ProbeSink>, demand: f64, util: f64| {
            sink.on_signal(SimTime::ZERO, NodeId(0), SIG_DEMAND, demand);
            sink.on_signal(SimTime::ZERO, NodeId(0), SIG_UPLINK_UTIL, util);
            let fired = sink.on_frame(&frame(&m, t, 0, 0.0));
            t += 1;
            fired
        };
        // Steady saturated baseline through warmup: no firing — saturation
        // alone is the absolute detector's business (util stays below its
        // threshold here), the surge detector wants a demand jump.
        for _ in 0..=JUMP_WARMUP {
            assert!(note(&mut sink, 100.0, 0.9).is_empty());
        }
        // Demand doubles but the uplink has headroom: clean (this is the
        // centralized server riding out a flash crowd).
        assert!(note(&mut sink, 250.0, 0.9).is_empty());
        // Same jump against a saturated uplink: the surge detector fires
        // (and the absolute util threshold trips on the same crossing).
        let fired = note(&mut sink, 260.0, 1.4);
        assert_eq!(fired.len(), 2);
        assert!(fired.iter().all(|a| a.kind == ANOMALY_OVERLOAD));
        let log = log.borrow();
        let rec = log
            .iter()
            .filter_map(|rec| match rec {
                ObsRecord::Anomaly(a) => Some(a),
                _ => None,
            })
            .next_back()
            .expect("anomaly recorded");
        assert_eq!(rec.signal, SIG_DEMAND);
        assert_eq!(rec.detector, "jump");
    }

    #[test]
    fn frames_carry_counter_deltas_and_signal_summaries() {
        let (obs, log) = observer_with_log();
        let mut sink = obs.make_sink();
        sink.on_sim_start(1);
        let mut m = Metrics::new();
        m.incr("net.delivered", 10);
        sink.on_signal(SimTime::ZERO, NodeId(3), "dht.lookup_secs", 2.0);
        sink.on_signal(SimTime::ZERO, NodeId(4), "dht.lookup_secs", 4.0);
        sink.on_frame(&frame(&m, 1, 0, 0.0));
        m.incr("net.delivered", 5);
        m.incr("net.dropped", 2);
        sink.on_frame(&frame(&m, 2, 0, 0.0));
        let log = log.borrow();
        let frames: Vec<&FrameRecord> = log
            .iter()
            .filter_map(|rec| match rec {
                ObsRecord::Frame(f) => Some(f),
                _ => None,
            })
            .collect();
        assert_eq!(frames.len(), 2);
        assert_eq!(frames[0].deltas, vec![("net.delivered".to_owned(), 10)]);
        assert_eq!(frames[0].signals.len(), 1);
        assert_eq!(frames[0].signals[0].name, "dht.lookup_secs");
        assert_eq!(frames[0].signals[0].count, 2);
        assert_eq!(frames[0].signals[0].mean, 3.0);
        assert_eq!(frames[0].signals[0].max, 4.0);
        // Second frame: deltas only (the interval's increments), signals
        // drained by the first frame.
        assert_eq!(
            frames[1].deltas,
            vec![
                ("net.delivered".to_owned(), 5),
                ("net.dropped".to_owned(), 2)
            ]
        );
        assert!(frames[1].signals.is_empty());
    }

    #[test]
    fn ordinals_follow_construction_order_and_share_the_summary() {
        let (obs, log) = observer_with_log();
        let mut first = obs.make_sink();
        let mut second = obs.make_sink();
        first.on_sim_start(11);
        second.on_sim_start(22);
        let m = Metrics::new();
        first.on_frame(&frame(&m, 1, 0, 0.0));
        second.on_frame(&frame(&m, 1, 0, 0.0));
        let summary = obs.summary();
        assert_eq!(summary.sims, 2);
        assert_eq!(summary.frames, 2);
        let starts: Vec<(u32, u64)> = log
            .borrow()
            .iter()
            .filter_map(|rec| match rec {
                ObsRecord::SimStart { ordinal, seed } => Some((*ordinal, *seed)),
                _ => None,
            })
            .collect();
        assert_eq!(starts, vec![(0, 11), (1, 22)]);
    }

    #[test]
    fn detector_state_is_per_sim() {
        // Saturating sim 0 must not consume sim 1's overload arming.
        let (obs, _log) = observer_with_log();
        let mut a = obs.make_sink();
        let mut b = obs.make_sink();
        a.on_sim_start(1);
        b.on_sim_start(2);
        let m = Metrics::new();
        assert_eq!(util_frame(&mut a, &m, 1, &[2.0]).len(), 1);
        assert_eq!(util_frame(&mut b, &m, 1, &[2.0]).len(), 1);
    }
}
