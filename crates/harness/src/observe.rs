//! Harness surface of the `agora-observer` ops plane: run one registry
//! trial with deterministic signal probes installed, stream the observer's
//! record stream as `OBS_<target>.jsonl` lines (header, sim starts, cadence
//! frames, anomaly records, final summary), and validate such artifacts.
//!
//! Like `TRACE_*.jsonl`, OBS artifacts are **wall-clock-free**: every byte
//! is a pure function of `(target, seed, observer config)`, so repeated
//! runs — at any thread count, with or without a flight recorder nested
//! alongside — are byte-identical and the files are CI-diffable. Lines are
//! handed to the caller one at a time as they are produced, so the harness
//! can flush each to disk immediately and multi-hour runs are observable
//! mid-flight (`tail -f`). Wall-clock progress belongs to `--watch` on
//! stderr, never in here.

use agora_observer::{
    AnomalyRecord, FrameRecord, ObsRecord, Observer, ObserverConfig, ObserverSummary,
};
use agora_sim::probe::with_thread_probe;
use agora_sim::trace::{with_thread_sink, FlightRecorder, SharedRecorder, TraceFilter};
use agora_sim::Metrics;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;

use crate::json::Json;
use crate::matrix::{find_trial, MatrixConfig};
use crate::registry::ExperimentDef;
use crate::trace::node_json;

/// JSONL schema version for `OBS_*.jsonl`.
pub const OBS_SCHEMA: u32 = 1;

/// Where artifact lines go, one call per line, no trailing newline.
pub type ObsLineSink = Box<dyn FnMut(&str)>;

/// One completed observed trial.
pub struct ObserveRun {
    /// Target id (an experiment id from the registry).
    pub target: String,
    /// Variant label within the target.
    pub variant: String,
    /// The seed the trial ran with.
    pub seed: u64,
    /// Metrics the trial reported. Identical to an unobserved run except
    /// for `anomaly.*` counters, which exist only when detectors fired.
    pub metrics: Metrics,
    /// Observer totals (what the artifact's summary line carries).
    pub summary: ObserverSummary,
    /// Flight recording taken alongside the probes (present when a trace
    /// ring was requested) — this is what `--explain anomaly.*` walks.
    pub recorder: Option<FlightRecorder>,
}

/// Replay one registry trial of `target` with the observer installed,
/// streaming artifact lines to `sink` in emission order.
///
/// Targets use the trace grammar minus the `dht` special case: an
/// experiment id (`e16` — first variant) or `id/variant` (`e16/p10k`),
/// replaying the exact first matching trial of the default matrix — same
/// derived seed, same metrics. `trace_ring` additionally installs a flight
/// recorder of that capacity so anomaly trace points can be explained.
pub fn run_observe_target(
    registry: &[ExperimentDef],
    cfg: &MatrixConfig,
    target: &str,
    obs_cfg: ObserverConfig,
    trace_ring: Option<usize>,
    sink: ObsLineSink,
) -> Result<ObserveRun, String> {
    let (spec, run) = find_trial(registry, cfg, target).ok_or_else(|| {
        format!("unknown observe target '{target}' (try an experiment id like 'e16' or 'e16/p10k')")
    })?;
    let (target_id, variant, seed) = (
        spec.experiment.to_owned(),
        spec.variant.to_owned(),
        spec.seed,
    );

    let sink: Rc<RefCell<ObsLineSink>> = Rc::new(RefCell::new(sink));
    (sink.borrow_mut())(&header_json(&target_id, &variant, seed, &obs_cfg).render_compact());

    let record_sink = Rc::clone(&sink);
    let observer = Observer::new(
        obs_cfg,
        Box::new(move |rec| {
            (record_sink.borrow_mut())(&record_to_json(&rec).render_compact());
        }),
    );

    // The probe factory is thread-local and removed on return, so every
    // `Simulation` the trial constructs — however deep — reports to this
    // observer and nothing leaks to later work on the thread. A flight
    // recorder, when asked for, nests around the probe scope: tracing and
    // probing are independent taps on the same event stream.
    let probe_handle = observer.clone();
    let cadence = observer.cadence();
    let probed = move |run: fn(u64) -> Metrics, seed: u64| {
        with_thread_probe(
            move || (probe_handle.make_sink(), cadence),
            move || run(seed),
        )
    };
    let (metrics, recorder) = match trace_ring {
        Some(cap) => {
            // Points-only ring: an anomaly fires once at onset, then a
            // day of net/timer records would evict it long before the
            // run ends. Protocol and anomaly points are what observe-
            // mode `--explain` queries, so only they occupy ring slots;
            // span aggregation still sees every record class. Causal
            // chains degrade gracefully where parents were filtered.
            let filter = TraceFilter {
                net: false,
                timers: false,
                churn: false,
                points: true,
            };
            let shared = SharedRecorder::from_recorder(FlightRecorder::with_filter(cap, filter));
            let handle = shared.clone();
            let metrics = with_thread_sink(move || Box::new(handle.clone()), || probed(run, seed));
            (metrics, Some(shared.snapshot()))
        }
        None => (probed(run, seed), None),
    };

    let summary = observer.summary();
    (sink.borrow_mut())(&summary_json(&summary).render_compact());
    Ok(ObserveRun {
        target: target_id,
        variant,
        seed,
        metrics,
        summary,
        recorder,
    })
}

fn header_json(target: &str, variant: &str, seed: u64, obs_cfg: &ObserverConfig) -> Json {
    let mut header = Json::obj();
    header.set("type", Json::Str("header".to_owned()));
    header.set("schema", Json::Num(OBS_SCHEMA as f64));
    header.set("target", Json::Str(target.to_owned()));
    header.set("variant", Json::Str(variant.to_owned()));
    // Seeds are full-range u64; `Json::Num` is an f64 and would collapse
    // nearby seeds above 2^53, so they render as exact decimal strings.
    header.set("seed", Json::Str(seed.to_string()));
    header.set("cadence_secs", Json::Num(obs_cfg.cadence.secs_f64()));
    // Detector tuning goes into the artifact so a reader can interpret the
    // anomaly records without chasing the binary's defaults.
    header.set(
        "overload_backlog_secs",
        Json::Num(obs_cfg.overload_backlog_secs),
    );
    header.set("overload_util", Json::Num(obs_cfg.overload_util));
    header.set("overload_jump", Json::Num(obs_cfg.overload_jump));
    header.set("jump_warmup", Json::Num(obs_cfg.jump_warmup as f64));
    header.set("zscore_k", Json::Num(obs_cfg.zscore_k));
    header.set("zscore_warmup", Json::Num(obs_cfg.zscore_warmup as f64));
    header.set("trend_len", Json::Num(obs_cfg.trend_len as f64));
    header.set("window", Json::Num(obs_cfg.window as f64));
    header
}

fn frame_json(f: &FrameRecord) -> Json {
    let mut line = Json::obj();
    line.set("type", Json::Str("frame".to_owned()));
    line.set("sim", Json::Num(f.sim as f64));
    line.set("t", Json::Num(f.t.secs_f64()));
    line.set("events", Json::Num(f.events as f64));
    line.set("pending", Json::Num(f.pending as f64));
    let mut queue = Json::obj();
    queue.set("max", Json::Num(f.queue_max_depth as f64));
    queue.set("node", node_json(f.queue_max_node));
    queue.set("nonzero", Json::Num(f.queue_nonzero as f64));
    line.set("queue", queue);
    let mut up = Json::obj();
    up.set("max_secs", Json::Num(f.uplink_max_backlog_secs));
    up.set("busy", Json::Num(f.uplink_busy_nodes as f64));
    line.set("uplink", up);
    let mut down = Json::obj();
    down.set("max_secs", Json::Num(f.downlink_max_backlog_secs));
    down.set("busy", Json::Num(f.downlink_busy_nodes as f64));
    line.set("downlink", down);
    let mut deltas = Json::obj();
    for (key, v) in &f.deltas {
        deltas.set(key, Json::Num(*v as f64));
    }
    line.set("deltas", deltas);
    let mut signals = Json::obj();
    for sig in &f.signals {
        let mut s = Json::obj();
        s.set("count", Json::Num(sig.count as f64));
        s.set("mean", Json::Num(sig.mean));
        s.set("max", Json::Num(sig.max));
        signals.set(sig.name, s);
    }
    line.set("signals", signals);
    line
}

fn anomaly_json(a: &AnomalyRecord) -> Json {
    let mut line = Json::obj();
    line.set("type", Json::Str("anomaly".to_owned()));
    line.set("sim", Json::Num(a.sim as f64));
    line.set("t", Json::Num(a.t.secs_f64()));
    line.set("kind", Json::Str(a.kind.to_owned()));
    line.set("signal", Json::Str(a.signal.to_owned()));
    line.set("detector", Json::Str(a.detector.to_owned()));
    line.set("value", Json::Num(a.value));
    line.set(
        "window",
        Json::Arr(a.window.iter().map(|&v| Json::Num(v)).collect()),
    );
    line
}

fn record_to_json(rec: &ObsRecord) -> Json {
    match rec {
        ObsRecord::SimStart { ordinal, seed } => {
            let mut line = Json::obj();
            line.set("type", Json::Str("sim".to_owned()));
            line.set("ordinal", Json::Num(*ordinal as f64));
            line.set("seed", Json::Str(seed.to_string()));
            line
        }
        ObsRecord::Frame(f) => frame_json(f),
        ObsRecord::Anomaly(a) => anomaly_json(a),
    }
}

fn summary_json(s: &ObserverSummary) -> Json {
    let mut line = Json::obj();
    line.set("type", Json::Str("summary".to_owned()));
    line.set("sims", Json::Num(s.sims as f64));
    line.set("frames", Json::Num(s.frames as f64));
    let mut anomalies = Json::obj();
    for (kind, n) in &s.anomalies {
        anomalies.set(kind, Json::Num(*n as f64));
    }
    line.set("anomalies", anomalies);
    line
}

/// Summary returned by [`validate_obs_jsonl`].
#[derive(Debug, PartialEq, Eq)]
pub struct ObsFileSummary {
    /// Sim-start lines seen.
    pub sims: usize,
    /// Frame lines seen.
    pub frames: usize,
    /// Anomaly lines seen.
    pub anomalies: usize,
}

/// The tiny in-repo `OBS_*.jsonl` schema checker CI runs: every line must
/// parse as JSON; the first line must be a schema-1 header; body lines must
/// be known types with their required fields; the final line must be a
/// summary whose sim/frame/anomaly totals match the body. Returns the body
/// counts on success.
pub fn validate_obs_jsonl(text: &str) -> Result<ObsFileSummary, String> {
    let mut lines = text.lines().enumerate();
    let (_, first) = lines.next().ok_or("empty observe file")?;
    let header = Json::parse(first).map_err(|e| format!("line 1: {e}"))?;
    if header.get("type").and_then(Json::as_str) != Some("header") {
        return Err("line 1: first line must be the header".to_owned());
    }
    if header.get("schema").and_then(Json::as_f64) != Some(OBS_SCHEMA as f64) {
        return Err(format!("line 1: unsupported schema (want {OBS_SCHEMA})"));
    }
    for field in ["target", "variant", "seed"] {
        if header.get(field).and_then(Json::as_str).is_none() {
            return Err(format!("line 1: header missing string field '{field}'"));
        }
    }
    for field in [
        "cadence_secs",
        "overload_backlog_secs",
        "overload_util",
        "overload_jump",
        "jump_warmup",
        "zscore_k",
        "zscore_warmup",
        "trend_len",
        "window",
    ] {
        if header.get(field).and_then(Json::as_f64).is_none() {
            return Err(format!("line 1: header missing numeric field '{field}'"));
        }
    }

    let mut counted = ObsFileSummary {
        sims: 0,
        frames: 0,
        anomalies: 0,
    };
    let mut anomaly_kinds: BTreeMap<String, u64> = BTreeMap::new();
    let mut summary: Option<(usize, Json)> = None;
    for (ix, line) in lines {
        let lineno = ix + 1;
        if summary.is_some() {
            return Err(format!("line {lineno}: lines after the summary"));
        }
        let v = Json::parse(line).map_err(|e| format!("line {lineno}: {e}"))?;
        match v.get("type").and_then(Json::as_str) {
            Some("sim") => {
                if v.get("ordinal").and_then(Json::as_f64).is_none()
                    || v.get("seed").and_then(Json::as_str).is_none()
                {
                    return Err(format!("line {lineno}: sim line missing ordinal/seed"));
                }
                counted.sims += 1;
            }
            Some("frame") => {
                for field in ["sim", "t", "events", "pending"] {
                    if v.get(field).and_then(Json::as_f64).is_none() {
                        return Err(format!("line {lineno}: frame line missing '{field}'"));
                    }
                }
                for field in ["queue", "uplink", "downlink", "deltas", "signals"] {
                    if !matches!(v.get(field), Some(Json::Obj(_))) {
                        return Err(format!(
                            "line {lineno}: frame line missing object '{field}'"
                        ));
                    }
                }
                counted.frames += 1;
            }
            Some("anomaly") => {
                let kind = v
                    .get("kind")
                    .and_then(Json::as_str)
                    .ok_or_else(|| format!("line {lineno}: anomaly line missing 'kind'"))?;
                for field in ["signal", "detector"] {
                    if v.get(field).and_then(Json::as_str).is_none() {
                        return Err(format!("line {lineno}: anomaly line missing '{field}'"));
                    }
                }
                for field in ["sim", "t", "value"] {
                    if v.get(field).and_then(Json::as_f64).is_none() {
                        return Err(format!("line {lineno}: anomaly line missing '{field}'"));
                    }
                }
                if !matches!(v.get("window"), Some(Json::Arr(_))) {
                    return Err(format!(
                        "line {lineno}: anomaly line missing array 'window'"
                    ));
                }
                *anomaly_kinds.entry(kind.to_owned()).or_insert(0) += 1;
                counted.anomalies += 1;
            }
            Some("summary") => summary = Some((lineno, v)),
            other => return Err(format!("line {lineno}: unknown line type {other:?}")),
        }
    }
    let (lineno, summary) = summary.ok_or("missing summary line")?;
    for (field, want) in [("sims", counted.sims), ("frames", counted.frames)] {
        let claimed = summary.get(field).and_then(Json::as_f64);
        if claimed != Some(want as f64) {
            return Err(format!(
                "line {lineno}: summary claims {field}={claimed:?}, body has {want}"
            ));
        }
    }
    let claimed_anoms = match summary.get("anomalies") {
        Some(Json::Obj(entries)) => entries
            .iter()
            .map(|(k, v)| (k.clone(), v.as_f64().unwrap_or(-1.0) as u64))
            .collect::<BTreeMap<_, _>>(),
        _ => return Err(format!("line {lineno}: summary missing object 'anomalies'")),
    };
    if claimed_anoms != anomaly_kinds {
        return Err(format!(
            "line {lineno}: summary anomaly counts {claimed_anoms:?} disagree with body {anomaly_kinds:?}"
        ));
    }
    Ok(counted)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::registry;

    fn light_cfg() -> MatrixConfig {
        MatrixConfig {
            threads: 1,
            ..MatrixConfig::default()
        }
    }

    fn observe_to_string(
        target: &str,
        cfg: &MatrixConfig,
        obs_cfg: ObserverConfig,
    ) -> (String, ObserveRun) {
        let lines: Rc<RefCell<String>> = Rc::new(RefCell::new(String::new()));
        let out = Rc::clone(&lines);
        let run = run_observe_target(
            &registry(),
            cfg,
            target,
            obs_cfg,
            None,
            Box::new(move |line| {
                let mut buf = out.borrow_mut();
                buf.push_str(line);
                buf.push('\n');
            }),
        )
        .expect("observe target runs");
        let text = lines.borrow().clone();
        (text, run)
    }

    #[test]
    fn observe_jsonl_is_deterministic_and_valid() {
        let cfg = light_cfg();
        let (a, run) = observe_to_string("e16/p10k", &cfg, ObserverConfig::default());
        let (b, _) = observe_to_string("e16/p10k", &cfg, ObserverConfig::default());
        assert_eq!(a, b, "OBS jsonl must be byte-identical across runs");
        let counted = validate_obs_jsonl(&a).expect("artifact validates");
        assert_eq!(counted.sims as u32, run.summary.sims);
        assert_eq!(counted.frames as u64, run.summary.frames);
        assert!(counted.frames > 0, "cadence frames were emitted");
    }

    #[test]
    fn observed_metrics_match_unobserved_run_modulo_anomaly_counters() {
        let cfg = light_cfg();
        let (_, run) = observe_to_string("e15/i1.00", &cfg, ObserverConfig::default());
        let plain = agora::experiments::e15_metrics(run.seed, 1.0);
        let observed: Vec<_> = run
            .metrics
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
        let reg = registry();
        let cfg = light_cfg();
        let err = run_observe_target(
            &reg,
            &cfg,
            "e99",
            ObserverConfig::default(),
            None,
            Box::new(|_| {}),
        );
        assert!(err.is_err());
    }

    #[test]
    fn validator_rejects_malformed_artifacts() {
        assert!(validate_obs_jsonl("").is_err());
        assert!(
            validate_obs_jsonl("{\"type\":\"sim\",\"ordinal\":0,\"seed\":\"1\"}").is_err(),
            "no header"
        );
        let header = "{\"type\":\"header\",\"schema\":1,\"target\":\"e16\",\"variant\":\"p10k\",\"seed\":\"1\",\"cadence_secs\":300,\"overload_backlog_secs\":30,\"overload_util\":1,\"overload_jump\":2,\"jump_warmup\":8,\"zscore_k\":6,\"zscore_warmup\":32,\"trend_len\":12,\"window\":8}";
        assert!(
            validate_obs_jsonl(header).is_err(),
            "summary line is mandatory"
        );
        let no_frames_ok = format!(
            "{header}\n{}",
            "{\"type\":\"summary\",\"sims\":0,\"frames\":0,\"anomalies\":{}}"
        );
        assert!(validate_obs_jsonl(&no_frames_ok).is_ok());
        let miscounted = format!(
            "{header}\n{}\n{}",
            "{\"type\":\"sim\",\"ordinal\":0,\"seed\":\"1\"}",
            "{\"type\":\"summary\",\"sims\":2,\"frames\":0,\"anomalies\":{}}"
        );
        assert!(
            validate_obs_jsonl(&miscounted).is_err(),
            "sim count mismatch"
        );
        let anomaly_mismatch = format!(
            "{header}\n{}\n{}",
            "{\"type\":\"anomaly\",\"sim\":0,\"t\":1,\"kind\":\"anomaly.overload\",\"signal\":\"s\",\"detector\":\"threshold\",\"value\":1,\"window\":[1]}",
            "{\"type\":\"summary\",\"sims\":0,\"frames\":0,\"anomalies\":{}}"
        );
        assert!(
            validate_obs_jsonl(&anomaly_mismatch).is_err(),
            "anomaly tally mismatch"
        );
    }
}
