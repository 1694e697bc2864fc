//! The observe plane's artifact: the OBS probe a replay
//! ([`crate::replay`]) puts on every simulation it builds, which writes
//! `OBS_<target>.jsonl` (header, sim starts, cadence frames, anomaly lines,
//! final summary) a line at a time; and validation of such artifacts.
//!
//! Each simulation's probe sums its substrate signals and counter deltas
//! per cadence interval, and runs two detectors over the workload layer's
//! signals (`agora_sim::probe::SIG_UPLINK_UTIL` and `SIG_DEMAND`): a
//! utilization threshold with hysteresis, and a demand surge against a
//! saturated uplink. Both fire `anomaly.overload`. The verdicts go back to
//! the engine as [`ProbeAnomaly`] values, which it turns into
//! `anomaly.overload` counters and (when tracing) trace points causally
//! parented to the event that triggered the sample — that is what makes
//! `--explain anomaly.overload` walk back to the overloading traffic.
//! `agora-policy` reads the same utilization signal at the same threshold.
//!
//! Like `TRACE_*.jsonl`, OBS artifacts are **wall-clock-free**: every byte
//! is a pure function of `(target, seed, cadence)`, so repeated runs — at
//! any thread count, with or without a flight recorder nested alongside —
//! are byte-identical and the files are CI-diffable. Lines are
//! handed to the caller one at a time as they are produced, so the harness
//! can flush each to disk immediately and multi-hour runs are observable
//! mid-flight (`tail -f`). Wall-clock progress belongs to `--watch` on
//! stderr, never in here.

use agora_sim::probe::{
    with_thread_probe, ProbeAnomaly, ProbeFrame, ProbeSink, OVERLOAD_UTIL, SIG_DEMAND,
    SIG_UPLINK_UTIL,
};
use agora_sim::{NodeId, SimDuration, SimTime};
use std::cell::RefCell;
use std::collections::{BTreeMap, VecDeque};
use std::rc::Rc;

use crate::json::Json;
use crate::trace::node_json;

/// JSONL schema version for `OBS_*.jsonl`.
pub const OBS_SCHEMA: u32 = 2;

/// The anomaly kind both detectors fire.
const ANOMALY_OVERLOAD: &str = "anomaly.overload";

/// Surge detector: fire when the interval's `SIG_DEMAND` total reaches
/// this multiple of its EWMA baseline *while* utilization is at or above
/// `OVERLOAD_UTIL`. Demand is schedule-driven and smooth, so the ratio
/// times the onset of a flash crowd; the saturation gate keeps substrates
/// with headroom (the centralized server) clean through the same surge.
const OVERLOAD_JUMP: f64 = 2.0;

/// Demand-bearing frames of EWMA warmup before the surge detector may fire.
const JUMP_WARMUP: u32 = 8;

/// How many recent values of the triggering signal an anomaly line
/// carries.
const WINDOW: usize = 8;

/// EWMA smoothing factor for the surge detector's demand baseline.
const EWMA_ALPHA: f64 = 0.1;

/// Where artifact lines go, one call per line, no trailing newline.
pub type ObsLineSink = Box<dyn FnMut(&str)>;

pub(crate) fn header_json(target: &str, variant: &str, seed: u64, cadence: SimDuration) -> Json {
    let mut header = Json::obj();
    header.set("type", Json::Str("header".to_owned()));
    header.set("schema", Json::Num(OBS_SCHEMA as f64));
    header.set("target", Json::Str(target.to_owned()));
    header.set("variant", Json::Str(variant.to_owned()));
    // Seeds are full-range u64; `Json::Num` is an f64 and would collapse
    // nearby seeds above 2^53, so they render as exact decimal strings.
    header.set("seed", Json::Str(seed.to_string()));
    header.set("cadence_secs", Json::Num(cadence.secs_f64()));
    // The detectors' constants go into the artifact so a reader can
    // interpret the anomaly lines without chasing the binary.
    header.set("overload_util", Json::Num(OVERLOAD_UTIL));
    header.set("overload_jump", Json::Num(OVERLOAD_JUMP));
    header.set("jump_warmup", Json::Num(JUMP_WARMUP as f64));
    header.set("window", Json::Num(WINDOW as f64));
    header
}

/// Run `f` with an OBS probe on every simulation it builds, sampling a
/// frame every `cadence`. Each simulation takes the next sim ordinal and
/// starts with clean detector state; all of them write their body lines
/// to `out` as they happen. The probe factory is thread-local and removed
/// on return, so simulations built however deep inside `f` are observed
/// and nothing leaks to later work on the thread.
pub(crate) fn with_obs_probe<R>(
    out: &Rc<RefCell<ObsOut>>,
    cadence: SimDuration,
    f: impl FnOnce() -> R,
) -> R {
    let out = Rc::clone(out);
    with_thread_probe(move || (SimProbe::boxed(&out), cadence), f)
}

/// Where every simulation's lines go, and the body's totals so far.
pub(crate) struct ObsOut {
    sink: ObsLineSink,
    pub(crate) summary: ObsFileSummary,
}

impl ObsOut {
    pub(crate) fn shared(sink: ObsLineSink) -> Rc<RefCell<ObsOut>> {
        Rc::new(RefCell::new(ObsOut {
            sink,
            summary: ObsFileSummary::default(),
        }))
    }

    pub(crate) fn write(&mut self, line: &Json) {
        (self.sink)(&line.render_compact());
    }
}

struct SigAgg {
    count: u64,
    sum: f64,
    max: f64,
}

/// One simulation's probe: interval aggregation plus detector state.
struct SimProbe {
    out: Rc<RefCell<ObsOut>>,
    ordinal: usize,
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
    fn boxed(out: &Rc<RefCell<ObsOut>>) -> Box<dyn ProbeSink> {
        Box::new(SimProbe {
            out: Rc::clone(out),
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

    fn push_window(window: &mut VecDeque<f64>, v: f64) {
        if window.len() == WINDOW {
            window.pop_front();
        }
        window.push_back(v);
    }

    /// Write one `anomaly.overload` line on `signal`, carrying that
    /// signal's recent `window`, and hand the verdict to the engine.
    fn fire(
        &self,
        t: SimTime,
        (signal, detector): (&'static str, &'static str),
        value: f64,
        window: &VecDeque<f64>,
        verdicts: &mut Vec<ProbeAnomaly>,
    ) {
        let mut line = Json::obj();
        line.set("type", Json::Str("anomaly".to_owned()));
        line.set("sim", Json::Num(self.ordinal as f64));
        line.set("t", Json::Num(t.secs_f64()));
        line.set("kind", Json::Str(ANOMALY_OVERLOAD.to_owned()));
        line.set("signal", Json::Str(signal.to_owned()));
        line.set("detector", Json::Str(detector.to_owned()));
        line.set("value", Json::Num(value));
        line.set(
            "window",
            Json::Arr(window.iter().map(|&v| Json::Num(v)).collect()),
        );
        let mut out = self.out.borrow_mut();
        out.summary.anomalies += 1;
        out.write(&line);
        verdicts.push(ProbeAnomaly {
            kind: ANOMALY_OVERLOAD,
            value,
        });
    }
}

/// Counter deltas between two key-ordered snapshots, as a JSON object in
/// key order with non-zero deltas only (counters are monotonic, so
/// new-minus-old is the interval's increment). Keys new in `now` count
/// from zero.
fn counter_deltas(prev: &[(String, u64)], now: &[(String, u64)]) -> Json {
    let mut out = Json::obj();
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
            out.set(k, Json::Num((v - before) as f64));
        }
    }
    out
}

impl ProbeSink for SimProbe {
    fn on_sim_start(&mut self, seed: u64) {
        let mut out = self.out.borrow_mut();
        self.ordinal = out.summary.sims;
        out.summary.sims += 1;
        let mut line = Json::obj();
        line.set("type", Json::Str("sim".to_owned()));
        line.set("ordinal", Json::Num(self.ordinal as f64));
        line.set("seed", Json::Str(seed.to_string()));
        out.write(&line);
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
        let deltas = counter_deltas(&self.last_counters, &snapshot);
        self.last_counters = snapshot;
        let uplink_util = self.signals.get(SIG_UPLINK_UTIL).map(|agg| agg.max);
        let demand = self.signals.get(SIG_DEMAND).map(|agg| agg.sum);

        let mut line = Json::obj();
        line.set("type", Json::Str("frame".to_owned()));
        line.set("sim", Json::Num(self.ordinal as f64));
        line.set("t", Json::Num(frame.now.secs_f64()));
        line.set("events", Json::Num(frame.events as f64));
        line.set("pending", Json::Num(frame.pending as f64));
        let mut queue = Json::obj();
        queue.set("max", Json::Num(frame.queue_max_depth as f64));
        queue.set("node", node_json(frame.queue_max_node));
        queue.set("nonzero", Json::Num(frame.queue_nonzero as f64));
        line.set("queue", queue);
        let mut up = Json::obj();
        up.set("max_secs", Json::Num(frame.uplink_max_backlog_secs));
        up.set("busy", Json::Num(frame.uplink_busy_nodes as f64));
        line.set("uplink", up);
        let mut down = Json::obj();
        down.set("max_secs", Json::Num(frame.downlink_max_backlog_secs));
        down.set("busy", Json::Num(frame.downlink_busy_nodes as f64));
        line.set("downlink", down);
        line.set("deltas", deltas);
        let mut signals = Json::obj();
        for (name, agg) in std::mem::take(&mut self.signals) {
            let mut s = Json::obj();
            s.set("count", Json::Num(agg.count as f64));
            s.set("mean", Json::Num(agg.sum / agg.count as f64));
            s.set("max", Json::Num(agg.max));
            signals.set(name, s);
        }
        line.set("signals", signals);
        {
            let mut out = self.out.borrow_mut();
            out.summary.frames += 1;
            out.write(&line);
        }

        let mut verdicts = Vec::new();
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
                    &mut verdicts,
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
                        &mut verdicts,
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

        verdicts
    }
}

/// The line totals of an OBS artifact's body: what a run's summary line
/// carries, and what [`validate_obs_jsonl`] counts in a file.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ObsFileSummary {
    /// Sim-start lines.
    pub sims: usize,
    /// Frame lines.
    pub frames: usize,
    /// Anomaly lines (every one is `anomaly.overload`).
    pub anomalies: usize,
}

pub(crate) fn summary_json(s: &ObsFileSummary) -> Json {
    let mut line = Json::obj();
    line.set("type", Json::Str("summary".to_owned()));
    line.set("sims", Json::Num(s.sims as f64));
    line.set("frames", Json::Num(s.frames as f64));
    let mut anomalies = Json::obj();
    if s.anomalies > 0 {
        anomalies.set(ANOMALY_OVERLOAD, Json::Num(s.anomalies as f64));
    }
    line.set("anomalies", anomalies);
    line
}

/// The first field `line` lacks or holds in another shape: `strings`, then
/// `numbers`, then `objects`.
pub(crate) fn missing_field<'a>(
    line: &Json,
    strings: &[&'a str],
    numbers: &[&'a str],
    objects: &[&'a str],
) -> Option<&'a str> {
    let absent = |fields: &[&'a str], shape: fn(&Json) -> bool| {
        fields
            .iter()
            .copied()
            .find(|f| !line.get(f).is_some_and(shape))
    };
    absent(strings, |v| v.as_str().is_some())
        .or_else(|| absent(numbers, |v| v.as_f64().is_some()))
        .or_else(|| absent(objects, |v| matches!(v, Json::Obj(_))))
}

/// Parse the first line of `text` as an artifact header: type `header`,
/// this `schema`, and the `strings` and `numbers` fields. Returns it with
/// the numbered lines after it.
pub(crate) fn read_header<'a>(
    text: &'a str,
    schema: u32,
    strings: &[&str],
    numbers: &[&str],
) -> Result<(Json, std::iter::Enumerate<std::str::Lines<'a>>), String> {
    let mut lines = text.lines().enumerate();
    let (_, first) = lines.next().ok_or("empty artifact")?;
    let header = Json::parse(first).map_err(|e| format!("line 1: {e}"))?;
    if header.get("type").and_then(Json::as_str) != Some("header") {
        return Err("line 1: first line must be the header".to_owned());
    }
    if header.get("schema").and_then(Json::as_f64) != Some(schema as f64) {
        return Err(format!("line 1: unsupported schema (want {schema})"));
    }
    if let Some(field) = missing_field(&header, strings, numbers, &[]) {
        return Err(format!("line 1: header missing field '{field}'"));
    }
    Ok((header, lines))
}

/// The tiny in-repo `OBS_*.jsonl` schema checker CI runs: every line must
/// parse as JSON; the first line must be a schema-2 header; body lines must
/// be known types with their required fields, sim lines numbering the sims
/// `0, 1, 2, …` in order and every frame and anomaly line naming a sim
/// already started at a finite, non-negative `t`; the final line must be
/// the summary the body's totals render to. Returns the body counts on
/// success.
pub fn validate_obs_jsonl(text: &str) -> Result<ObsFileSummary, String> {
    let numbers = [
        "cadence_secs",
        "overload_util",
        "overload_jump",
        "jump_warmup",
        "window",
    ];
    let (_, lines) = read_header(text, OBS_SCHEMA, &["target", "variant", "seed"], &numbers)?;

    let mut counted = ObsFileSummary::default();
    let mut summary: Option<(usize, Json)> = None;
    for (ix, line) in lines {
        let lineno = ix + 1;
        if summary.is_some() {
            return Err(format!("line {lineno}: lines after the summary"));
        }
        let v = Json::parse(line).map_err(|e| format!("line {lineno}: {e}"))?;
        if v.get("type").and_then(Json::as_str) == Some("summary") {
            summary = Some((lineno, v));
        } else {
            count_body_line(&v, &mut counted).map_err(|e| format!("line {lineno}: {e}"))?;
        }
    }
    let (lineno, summary) = summary.ok_or("missing summary line")?;
    let want = summary_json(&counted);
    if summary != want {
        return Err(format!(
            "line {lineno}: summary {} disagrees with the body's {}",
            summary.render_compact(),
            want.render_compact()
        ));
    }
    Ok(counted)
}

/// Check one sim, frame or anomaly line and count it.
fn count_body_line(v: &Json, counted: &mut ObsFileSummary) -> Result<(), String> {
    let ty = v.get("type").and_then(Json::as_str);
    let missing = match ty {
        Some("sim") => missing_field(v, &["seed"], &["ordinal"], &[]),
        Some("frame") => missing_field(
            v,
            &[],
            &["sim", "t", "events", "pending"],
            &["queue", "uplink", "downlink", "deltas", "signals"],
        ),
        Some("anomaly") => missing_field(
            v,
            &["kind", "signal", "detector"],
            &["sim", "t", "value"],
            &[],
        ),
        other => return Err(format!("unknown line type {other:?}")),
    };
    let ty = ty.unwrap_or_default();
    if let Some(field) = missing {
        return Err(format!("{ty} line missing '{field}'"));
    }
    let number = |field| v.get(field).and_then(Json::as_f64).unwrap_or(f64::NAN);
    if ty == "sim" {
        if number("ordinal") != counted.sims as f64 {
            return Err(format!("sim line's ordinal must be {}", counted.sims));
        }
        counted.sims += 1;
        return Ok(());
    }
    let sim = number("sim");
    if !(sim >= 0.0 && sim.fract() == 0.0 && sim < counted.sims as f64) {
        return Err(format!("{ty} line's sim {sim} was never started"));
    }
    let t = number("t");
    if !(t.is_finite() && t >= 0.0) {
        return Err(format!("{ty} line's 't' must be finite and non-negative"));
    }
    if ty == "frame" {
        counted.frames += 1;
        return Ok(());
    }
    if v.get("kind").and_then(Json::as_str) != Some(ANOMALY_OVERLOAD) {
        return Err(format!("anomaly line's kind must be {ANOMALY_OVERLOAD}"));
    }
    if !matches!(v.get("window"), Some(Json::Arr(_))) {
        return Err("anomaly line missing array 'window'".to_owned());
    }
    counted.anomalies += 1;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix::MatrixConfig;
    use crate::registry::registry;
    use crate::replay::replay;
    use agora_sim::probe::DEFAULT_CADENCE;
    use agora_sim::Metrics;

    fn light_cfg() -> MatrixConfig {
        MatrixConfig {
            threads: 1,
            ..MatrixConfig::default()
        }
    }

    /// Replay `target` under the OBS probe alone; the artifact's lines,
    /// newline-terminated, come back with the run.
    fn observe_to_string(target: &str) -> (String, ObsFileSummary, Metrics, u64) {
        let lines: Rc<RefCell<String>> = Rc::new(RefCell::new(String::new()));
        let out = Rc::clone(&lines);
        let sink: ObsLineSink = Box::new(move |line| {
            let mut buf = out.borrow_mut();
            buf.push_str(line);
            buf.push('\n');
        });
        let run = replay(
            &registry(),
            &light_cfg(),
            target,
            None,
            Some((DEFAULT_CADENCE, sink)),
        )
        .expect("observe target runs");
        let text = lines.borrow().clone();
        let summary = run.obs.expect("the OBS probe was installed");
        (text, summary, run.metrics, run.seed)
    }

    #[test]
    fn observe_jsonl_is_deterministic_and_valid() {
        let (a, summary, _, _) = observe_to_string("e16/p10k");
        let (b, _, _, _) = observe_to_string("e16/p10k");
        assert_eq!(a, b, "OBS jsonl must be byte-identical across runs");
        let counted = validate_obs_jsonl(&a).expect("artifact validates");
        assert_eq!(counted, summary);
        assert!(counted.frames > 0, "cadence frames were emitted");
    }

    #[test]
    fn observed_metrics_match_unobserved_run_modulo_anomaly_counters() {
        let (_, _, metrics, seed) = observe_to_string("e15/i1.00");
        let plain = agora::experiments::e15_metrics(seed, 1.0);
        let observed: Vec<_> = metrics
            .counters()
            .filter(|(k, _)| !k.starts_with("anomaly."))
            .collect();
        let unobserved: Vec<_> = plain.counters().collect();
        assert_eq!(
            observed, unobserved,
            "probing must not perturb the simulated outcome"
        );
    }

    #[test]
    fn unknown_targets_are_rejected() {
        let obs: Option<(_, ObsLineSink)> = Some((DEFAULT_CADENCE, Box::new(|_| {})));
        let cfg = MatrixConfig::default();
        assert!(replay(&registry(), &cfg, "e99", None, obs).is_err());
    }

    #[test]
    fn validator_rejects_malformed_artifacts() {
        assert!(validate_obs_jsonl("").is_err());
        let sim = r#"{"type":"sim","ordinal":0,"seed":"1"}"#;
        assert!(validate_obs_jsonl(sim).is_err(), "no header");
        let header = r#"{"type":"header","schema":2,"target":"e16","variant":"p10k","seed":"1","cadence_secs":300,"overload_util":1,"overload_jump":2,"jump_warmup":8,"window":8}"#;
        assert!(validate_obs_jsonl(header).is_err(), "no summary line");
        let empty = r#"{"type":"summary","sims":0,"frames":0,"anomalies":{}}"#;
        assert!(validate_obs_jsonl(&[header, empty].join("\n")).is_ok());
        let anomaly = r#"{"type":"anomaly","sim":0,"t":1,"kind":"anomaly.overload","signal":"s","detector":"threshold","value":1,"window":[1]}"#;
        let orphan = [
            header,
            &anomaly.replace(r#""sim":0"#, r#""sim":7"#),
            r#"{"type":"summary","sims":0,"frames":0,"anomalies":{"anomaly.overload":1}}"#,
        ];
        assert!(
            validate_obs_jsonl(&orphan.join("\n")).is_err(),
            "an anomaly of a sim that never started"
        );

        // A well-formed body, then one defect at a time.
        let frame = r#"{"type":"frame","sim":0,"t":300,"events":1,"pending":0,"queue":{},"uplink":{},"downlink":{},"deltas":{},"signals":{}}"#;
        let summary =
            r#"{"type":"summary","sims":1,"frames":1,"anomalies":{"anomaly.overload":1}}"#;
        let good = [header, sim, frame, anomaly, summary].join("\n");
        let counted = validate_obs_jsonl(&good).expect("well-formed");
        assert_eq!((counted.sims, counted.frames, counted.anomalies), (1, 1, 1));
        for (from, to) in [
            (r#""schema":2"#, r#""schema":1"#),
            (r#""sims":1"#, r#""sims":2"#),
            (r#""anomalies":{"anomaly.overload":1}"#, r#""anomalies":{}"#),
            (r#""anomaly.overload":1}"#, r#""anomaly.overload":1.5}"#),
            (r#""ordinal":0"#, r#""ordinal":3"#),
            (r#""frame","sim":0"#, r#""frame","sim":9"#),
            (r#""anomaly","sim":0"#, r#""anomaly","sim":0.5"#),
            (r#""t":300"#, r#""t":-5"#),
            (r#""t":1,"#, r#""t":-1,"#),
        ] {
            let bad = good.replace(from, to);
            assert_ne!(bad, good, "{to}: the defect was planted");
            assert!(validate_obs_jsonl(&bad).is_err(), "{to} was accepted");
        }
    }

    /// A line sink shared by every probe made from it, whose lines land,
    /// parsed, in the returned log.
    fn out_with_log() -> (Rc<RefCell<ObsOut>>, Rc<RefCell<Vec<Json>>>) {
        let log: Rc<RefCell<Vec<Json>>> = Rc::new(RefCell::new(Vec::new()));
        let lines = Rc::clone(&log);
        let out = ObsOut::shared(Box::new(move |line| {
            lines
                .borrow_mut()
                .push(Json::parse(line).expect("OBS lines parse"));
        }));
        (out, log)
    }

    /// The logged lines of one `type`.
    fn of_type<'a>(log: &'a [Json], ty: &'a str) -> impl DoubleEndedIterator<Item = &'a Json> {
        log.iter()
            .filter(move |line| line.get("type").and_then(Json::as_str) == Some(ty))
    }

    fn str_field<'a>(line: &'a Json, key: &str) -> &'a str {
        line.get(key).and_then(Json::as_str).expect(key)
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
        let (out, _log) = out_with_log();
        let mut sink = SimProbe::boxed(&out);
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
        assert_eq!(out.borrow().summary.anomalies, 2);
    }

    #[test]
    fn anomaly_record_carries_the_signal_window() {
        let (out, log) = out_with_log();
        let mut sink = SimProbe::boxed(&out);
        sink.on_sim_start(1);
        let m = Metrics::new();
        for (i, v) in [0.1, 0.2, 9.9].iter().enumerate() {
            util_frame(&mut sink, &m, i as u64, &[*v]);
        }
        let log = log.borrow();
        let line = of_type(&log, "anomaly").next().expect("overload fired");
        assert_eq!(
            (str_field(line, "signal"), str_field(line, "detector")),
            (SIG_UPLINK_UTIL, "threshold")
        );
        assert_eq!(
            line.get("window"),
            Some(&Json::Arr(vec![
                Json::Num(0.1),
                Json::Num(0.2),
                Json::Num(9.9)
            ])),
            "oldest first, trigger last"
        );
    }

    /// Engine state alone never fires: a backlog of minutes and a pending
    /// count that climbs every frame are rendered, not judged. Only the
    /// workload signals drive a detector.
    #[test]
    fn engine_state_alone_never_fires() {
        let (out, _log) = out_with_log();
        let mut sink = SimProbe::boxed(&out);
        sink.on_sim_start(1);
        let m = Metrics::new();
        for t in 0..64u64 {
            let pending = if t == 40 { 1_000_000 } else { 100 + t };
            assert!(sink.on_frame(&frame(&m, t, pending, 600.0)).is_empty());
        }
        assert_eq!(out.borrow().summary.anomalies, 0);
    }

    #[test]
    fn surge_fires_only_when_demand_jumps_on_a_saturated_uplink() {
        let (out, log) = out_with_log();
        let mut sink = SimProbe::boxed(&out);
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
        let line = of_type(&log, "anomaly")
            .next_back()
            .expect("anomaly written");
        assert_eq!(str_field(line, "signal"), SIG_DEMAND);
        assert_eq!(str_field(line, "detector"), "jump");
    }

    #[test]
    fn frames_carry_counter_deltas_and_signal_summaries() {
        let (out, log) = out_with_log();
        let mut sink = SimProbe::boxed(&out);
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
        let rendered: Vec<(String, String)> = of_type(&log, "frame")
            .map(|line| {
                let field = |key| line.get(key).expect(key).render_compact();
                (field("deltas"), field("signals"))
            })
            .collect();
        // Second frame: deltas only (the interval's increments), signals
        // drained by the first frame.
        assert_eq!(
            rendered,
            [
                (
                    r#"{"net.delivered":10}"#,
                    r#"{"dht.lookup_secs":{"count":2,"mean":3,"max":4}}"#
                ),
                (r#"{"net.delivered":5,"net.dropped":2}"#, "{}"),
            ]
            .map(|(d, s)| (d.to_owned(), s.to_owned()))
        );
    }

    #[test]
    fn ordinals_follow_construction_order_and_share_the_summary() {
        let (out, log) = out_with_log();
        let mut first = SimProbe::boxed(&out);
        let mut second = SimProbe::boxed(&out);
        first.on_sim_start(11);
        second.on_sim_start(22);
        let m = Metrics::new();
        first.on_frame(&frame(&m, 1, 0, 0.0));
        second.on_frame(&frame(&m, 1, 0, 0.0));
        let summary = out.borrow().summary;
        assert_eq!((summary.sims, summary.frames), (2, 2));
        let log = log.borrow();
        let starts: Vec<(f64, &str)> = of_type(&log, "sim")
            .map(|line| {
                let ordinal = line.get("ordinal").and_then(Json::as_f64);
                (ordinal.expect("ordinal"), str_field(line, "seed"))
            })
            .collect();
        assert_eq!(starts, vec![(0.0, "11"), (1.0, "22")]);
        let frame_sims: Vec<_> = of_type(&log, "frame")
            .map(|line| line.get("sim").and_then(Json::as_f64))
            .collect();
        assert_eq!(frame_sims, vec![Some(0.0), Some(1.0)]);
    }

    #[test]
    fn detector_state_is_per_sim() {
        // Saturating sim 0 must not consume sim 1's overload arming.
        let (out, _log) = out_with_log();
        let mut a = SimProbe::boxed(&out);
        let mut b = SimProbe::boxed(&out);
        a.on_sim_start(1);
        b.on_sim_start(2);
        let m = Metrics::new();
        assert_eq!(util_frame(&mut a, &m, 1, &[2.0]).len(), 1);
        assert_eq!(util_frame(&mut b, &m, 1, &[2.0]).len(), 1);
    }
}
