//! # agora-observer — deterministic observability over sim probes
//!
//! Consumes the `agora-sim` [`probe`](agora_sim::probe) feed — cadence
//! frames of engine state plus named substrate health signals — and turns
//! it into a typed, deterministic record stream: per-interval signal
//! summaries and counter deltas, and anomaly records from four detector
//! families (absolute threshold with hysteresis, demand-surge against a
//! saturated uplink, EWMA z-score, sustained trend). The harness renders
//! the stream as the `OBS_<target>.jsonl` artifact; reactive in-sim
//! policies can subscribe to the same records.
//!
//! Everything here is a pure function of the probe feed, which is itself a
//! pure function of the canonical event order — no wall clock, no
//! thread-dependent state — so observer output is byte-identical at any
//! harness thread count.
//!
//! Detector verdicts are returned to the engine as
//! [`ProbeAnomaly`](agora_sim::ProbeAnomaly) values, which the engine turns
//! into `anomaly.*` metrics counters and (when tracing) trace points
//! causally parented to the event that triggered the sample — that is what
//! makes `--explain anomaly.overload` walk back to the overloading traffic.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::cell::RefCell;
use std::collections::{BTreeMap, VecDeque};
use std::rc::Rc;

use agora_sim::probe::{ProbeAnomaly, ProbeFrame, ProbeSink};
use agora_sim::{NodeId, SimDuration, SimTime};

/// EWMA smoothing factor for the z-score detector's running mean/variance.
const EWMA_ALPHA: f64 = 0.1;

/// Observer tuning. Every field participates in artifact bytes, so changes
/// here are artifact-schema changes.
#[derive(Clone, Debug)]
pub struct ObserverConfig {
    /// Sim-time sampling cadence for frames.
    pub cadence: SimDuration,
    /// Absolute-threshold detector: fire `anomaly.overload` when the
    /// largest per-node uplink backlog reaches this many seconds.
    pub overload_backlog_secs: f64,
    /// Absolute-threshold detector on the `net.uplink_util` signal (the
    /// workload layer's modeled demand-over-uplink factor, reported per
    /// tick): fire `anomaly.overload` when the interval max reaches this.
    /// 1.0 = some serving uplink cannot carry its attributed demand.
    pub overload_util: f64,
    /// Surge detector: fire `anomaly.overload` when the interval's
    /// `workload.demand` total reaches this multiple of its EWMA baseline
    /// *while* `net.uplink_util` is at or above [`overload_util`]. Demand
    /// is schedule-driven and smooth, so the ratio times the onset of a
    /// flash crowd; the saturation gate keeps substrates with headroom
    /// (the centralized server) clean through the same surge.
    ///
    /// [`overload_util`]: ObserverConfig::overload_util
    pub overload_jump: f64,
    /// Demand-bearing frames of EWMA warmup before the surge detector may
    /// fire.
    pub jump_warmup: u32,
    /// Z-score detector: fire `anomaly.zscore` when pending-event count
    /// deviates from its EWMA by at least this many (EWMA) standard
    /// deviations.
    pub zscore_k: f64,
    /// Frames of EWMA warmup before the z-score detector may fire.
    pub zscore_warmup: u32,
    /// Trend detector: fire `anomaly.trend` after this many consecutive
    /// frames of strictly increasing pending-event count.
    pub trend_len: u32,
    /// How many recent values of the triggering signal an anomaly record
    /// carries.
    pub window: usize,
}

impl Default for ObserverConfig {
    fn default() -> ObserverConfig {
        ObserverConfig {
            cadence: SimDuration::from_secs(300),
            overload_backlog_secs: 30.0,
            overload_util: 1.0,
            overload_jump: 2.0,
            jump_warmup: 8,
            zscore_k: 6.0,
            zscore_warmup: 32,
            trend_len: 12,
            window: 8,
        }
    }
}

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
    config: ObserverConfig,
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
    /// is what makes long runs observable mid-flight).
    pub fn new(config: ObserverConfig, emit: Box<dyn FnMut(ObsRecord)>) -> Observer {
        Observer {
            core: Rc::new(RefCell::new(Core {
                config,
                emit,
                next_ordinal: 0,
                frames: 0,
                anomalies: BTreeMap::new(),
            })),
        }
    }

    /// The configured sampling cadence (what the probe factory should
    /// install alongside each sink).
    pub fn cadence(&self) -> SimDuration {
        self.core.borrow().config.cadence
    }

    /// A fresh probe sink for one simulation: detector state starts clean
    /// per sim, the record stream and summary are shared.
    pub fn make_sink(&self) -> Box<dyn ProbeSink> {
        let config = self.core.borrow().config.clone();
        Box::new(SimProbe {
            core: Rc::clone(&self.core),
            config,
            ordinal: 0,
            last_counters: Vec::new(),
            signals: BTreeMap::new(),
            overload_armed: true,
            uplink_window: VecDeque::new(),
            util_armed: true,
            util_window: VecDeque::new(),
            jump_armed: true,
            demand_ewma: 0.0,
            demand_frames: 0,
            demand_window: VecDeque::new(),
            pending_window: VecDeque::new(),
            ewma_mean: 0.0,
            ewma_var: 0.0,
            ewma_frames: 0,
            zscore_armed: true,
            trend_run: 0,
            last_pending: 0,
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
    config: ObserverConfig,
    ordinal: u32,
    /// Counter snapshot at the previous frame, for delta computation.
    last_counters: Vec<(String, u64)>,
    /// Signal aggregates accumulating toward the next frame.
    signals: BTreeMap<&'static str, SigAgg>,
    overload_armed: bool,
    uplink_window: VecDeque<f64>,
    util_armed: bool,
    util_window: VecDeque<f64>,
    jump_armed: bool,
    demand_ewma: f64,
    demand_frames: u32,
    demand_window: VecDeque<f64>,
    pending_window: VecDeque<f64>,
    ewma_mean: f64,
    ewma_var: f64,
    ewma_frames: u32,
    zscore_armed: bool,
    trend_run: u32,
    last_pending: u64,
}

impl SimProbe {
    fn push_window(window: &mut VecDeque<f64>, cap: usize, v: f64) {
        if window.len() == cap.max(1) {
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

    fn fire(
        &mut self,
        t: SimTime,
        (kind, signal, detector): (&'static str, &'static str, &'static str),
        value: f64,
        window: &VecDeque<f64>,
        out: &mut Vec<ProbeAnomaly>,
    ) {
        let mut core = self.core.borrow_mut();
        *core.anomalies.entry(kind).or_insert(0) += 1;
        (core.emit)(ObsRecord::Anomaly(AnomalyRecord {
            sim: self.ordinal,
            t,
            kind,
            signal,
            detector,
            value,
            window: window.iter().copied().collect(),
        }));
        out.push(ProbeAnomaly { kind, value });
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
        let uplink_util = self.signals.get("net.uplink_util").map(|agg| agg.max);
        let demand = self.signals.get("workload.demand").map(|agg| agg.sum);
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
        let win = self.config.window;

        // Threshold detector with hysteresis: fires once at the upward
        // crossing, re-arms only after the backlog falls to half the
        // threshold — onset detection, not a per-frame alarm.
        let uplink = frame.uplink_max_backlog_secs;
        Self::push_window(&mut self.uplink_window, win, uplink);
        if self.overload_armed && uplink >= self.config.overload_backlog_secs {
            self.overload_armed = false;
            let window = std::mem::take(&mut self.uplink_window);
            self.fire(
                t,
                ("anomaly.overload", "net.uplink_backlog_secs", "threshold"),
                uplink,
                &window,
                &mut out,
            );
            self.uplink_window = window;
        } else if !self.overload_armed && uplink < self.config.overload_backlog_secs * 0.5 {
            self.overload_armed = true;
        }

        // Same detector family over the workload layer's modeled
        // demand-over-uplink factor (`net.uplink_util` signal): the
        // interval max crossing 1.0 is flash-crowd onset on substrates
        // whose serving uplinks are consumer-grade. Intervals without the
        // signal leave the detector state untouched.
        if let Some(util) = uplink_util {
            Self::push_window(&mut self.util_window, win, util);
            if self.util_armed && util >= self.config.overload_util {
                self.util_armed = false;
                let window = std::mem::take(&mut self.util_window);
                self.fire(
                    t,
                    ("anomaly.overload", "net.uplink_util", "threshold"),
                    util,
                    &window,
                    &mut out,
                );
                self.util_window = window;
            } else if !self.util_armed && util < self.config.overload_util * 0.5 {
                self.util_armed = true;
            }
        }

        // Surge detector: the interval's `workload.demand` total against
        // its own EWMA baseline, gated on `net.uplink_util` saturation.
        // The demand series is the workload schedule itself — smooth where
        // per-node utilization is Zipf-noisy — so the ratio crossing lands
        // on the flash-crowd ramp, and the saturation gate keeps substrates
        // with capacity headroom quiet through the same surge.
        if let Some(demand) = demand {
            Self::push_window(&mut self.demand_window, win, demand);
            if self.demand_frames >= self.config.jump_warmup {
                let surge = demand >= self.config.overload_jump * self.demand_ewma;
                let saturated = uplink_util.is_some_and(|u| u >= self.config.overload_util);
                if self.jump_armed && surge && saturated {
                    self.jump_armed = false;
                    let window = std::mem::take(&mut self.demand_window);
                    self.fire(
                        t,
                        ("anomaly.overload", "workload.demand", "jump"),
                        demand,
                        &window,
                        &mut out,
                    );
                    self.demand_window = window;
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

        // EWMA z-score on pending-event count: deviation from the smoothed
        // baseline, after warmup, with the same crossing/re-arm shape.
        let pending = frame.pending as f64;
        Self::push_window(&mut self.pending_window, win, pending);
        if self.ewma_frames >= self.config.zscore_warmup {
            let std = self.ewma_var.sqrt().max(1e-9);
            let z = (pending - self.ewma_mean) / std;
            if self.zscore_armed && z.abs() >= self.config.zscore_k {
                self.zscore_armed = false;
                let window = std::mem::take(&mut self.pending_window);
                self.fire(
                    t,
                    ("anomaly.zscore", "engine.pending", "zscore"),
                    pending,
                    &window,
                    &mut out,
                );
                self.pending_window = window;
            } else if !self.zscore_armed && z.abs() < self.config.zscore_k * 0.5 {
                self.zscore_armed = true;
            }
        }
        let dev = pending - self.ewma_mean;
        self.ewma_mean += EWMA_ALPHA * dev;
        self.ewma_var = (1.0 - EWMA_ALPHA) * (self.ewma_var + EWMA_ALPHA * dev * dev);
        self.ewma_frames += 1;

        // Sustained-trend detector: N consecutive strictly-increasing
        // frames of pending count, then reset so it re-fires only after
        // another full run.
        if frame.pending > self.last_pending {
            self.trend_run += 1;
            if self.trend_run >= self.config.trend_len.max(1) {
                self.trend_run = 0;
                let window = std::mem::take(&mut self.pending_window);
                self.fire(
                    t,
                    ("anomaly.trend", "engine.pending", "trend"),
                    pending,
                    &window,
                    &mut out,
                );
                self.pending_window = window;
            }
        } else {
            self.trend_run = 0;
        }
        self.last_pending = frame.pending;

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
        let obs = Observer::new(
            ObserverConfig::default(),
            Box::new(move |rec| sink_log.borrow_mut().push(rec)),
        );
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

    #[test]
    fn overload_fires_once_at_crossing_and_rearms_after_hysteresis() {
        let (obs, _log) = observer_with_log();
        let mut sink = obs.make_sink();
        sink.on_sim_start(7);
        let m = Metrics::new();
        // Ramp up through the threshold: exactly one firing at the
        // crossing frame, none while it stays saturated.
        let mut fired = Vec::new();
        for (i, v) in [1.0, 10.0, 35.0, 80.0, 80.0].iter().enumerate() {
            for a in sink.on_frame(&frame(&m, i as u64, 0, *v)) {
                fired.push((i, a.kind));
            }
        }
        assert_eq!(fired, vec![(2, "anomaly.overload")]);
        // Still above half-threshold: not re-armed.
        assert!(sink.on_frame(&frame(&m, 5, 0, 40.0)).is_empty());
        // Drop below half-threshold, then cross again: fires again.
        assert!(sink.on_frame(&frame(&m, 6, 0, 2.0)).is_empty());
        let again = sink.on_frame(&frame(&m, 7, 0, 50.0));
        assert_eq!(again.len(), 1);
        assert_eq!(again[0].kind, "anomaly.overload");
        assert_eq!(obs.summary().anomalies["anomaly.overload"], 2);
    }

    #[test]
    fn anomaly_record_carries_the_signal_window() {
        let (obs, log) = observer_with_log();
        let mut sink = obs.make_sink();
        sink.on_sim_start(1);
        let m = Metrics::new();
        for (i, v) in [1.0, 2.0, 99.0].iter().enumerate() {
            sink.on_frame(&frame(&m, i as u64, 0, *v));
        }
        let log = log.borrow();
        let window = log
            .iter()
            .find_map(|rec| match rec {
                ObsRecord::Anomaly(a) => Some(a.window.clone()),
                _ => None,
            })
            .expect("overload fired");
        assert_eq!(window, vec![1.0, 2.0, 99.0], "oldest first, trigger last");
    }

    #[test]
    fn zscore_needs_warmup_then_flags_deviation() {
        let (obs, _log) = observer_with_log();
        let mut sink = obs.make_sink();
        sink.on_sim_start(1);
        let m = Metrics::new();
        // A noiseless baseline would make any step infinite-z; alternate
        // two values so the EWMA variance is realistic but small.
        for i in 0..40u64 {
            let pending = 100 + (i % 2) * 4;
            assert!(
                sink.on_frame(&frame(&m, i, pending, 0.0)).is_empty(),
                "no firing during baseline (frame {i})"
            );
        }
        let fired = sink.on_frame(&frame(&m, 40, 100_000, 0.0));
        assert_eq!(fired.len(), 1);
        assert_eq!(fired[0].kind, "anomaly.zscore");
    }

    #[test]
    fn trend_fires_after_sustained_increase_only() {
        let (obs, _log) = observer_with_log();
        let mut sink = obs.make_sink();
        sink.on_sim_start(1);
        let m = Metrics::new();
        let trend_len = ObserverConfig::default().trend_len as u64;
        // Sawtooth: runs shorter than `trend_len` never fire.
        let mut t = 0u64;
        for _ in 0..4 {
            for step in 0..(trend_len - 1) {
                assert!(sink.on_frame(&frame(&m, t, 10 + step, 0.0)).is_empty());
                t += 1;
            }
            assert!(sink.on_frame(&frame(&m, t, 1, 0.0)).is_empty());
            t += 1;
        }
        // A full run fires exactly once, on its final frame. Values stay in
        // the sawtooth's range so the z-score detector has nothing to say.
        let mut kinds = Vec::new();
        for step in 0..trend_len {
            for a in sink.on_frame(&frame(&m, t, 10 + step, 0.0)) {
                kinds.push(a.kind);
            }
            t += 1;
        }
        assert_eq!(kinds, vec!["anomaly.trend"]);
    }

    #[test]
    fn surge_fires_only_when_demand_jumps_on_a_saturated_uplink() {
        let (obs, log) = observer_with_log();
        let mut sink = obs.make_sink();
        sink.on_sim_start(1);
        let m = Metrics::new();
        let cfg = ObserverConfig::default();
        let mut t = 0u64;
        let mut note = |sink: &mut Box<dyn ProbeSink>, demand: f64, util: f64| {
            sink.on_signal(SimTime::ZERO, NodeId(0), "workload.demand", demand);
            sink.on_signal(SimTime::ZERO, NodeId(0), "net.uplink_util", util);
            let fired = sink.on_frame(&frame(&m, t, 0, 0.0));
            t += 1;
            fired
        };
        // Steady saturated baseline through warmup: no firing — saturation
        // alone is the absolute detector's business (util stays below its
        // threshold here), the surge detector wants a demand jump.
        for _ in 0..=cfg.jump_warmup {
            assert!(note(&mut sink, 100.0, 0.9).is_empty());
        }
        // Demand doubles but the uplink has headroom: clean (this is the
        // centralized server riding out a flash crowd).
        assert!(note(&mut sink, 250.0, 0.9).is_empty());
        // Same jump against a saturated uplink: the surge detector fires
        // (and the absolute util threshold trips on the same crossing).
        let fired = note(&mut sink, 260.0, 1.4);
        assert_eq!(fired.len(), 2);
        assert!(fired.iter().all(|a| a.kind == "anomaly.overload"));
        let log = log.borrow();
        let rec = log
            .iter()
            .filter_map(|rec| match rec {
                ObsRecord::Anomaly(a) => Some(a),
                _ => None,
            })
            .next_back()
            .expect("anomaly recorded");
        assert_eq!(rec.signal, "workload.demand");
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
        assert_eq!(a.on_frame(&frame(&m, 1, 0, 100.0)).len(), 1);
        assert_eq!(b.on_frame(&frame(&m, 1, 0, 100.0)).len(), 1);
    }
}
