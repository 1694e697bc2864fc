//! The observe-plane contract, end to end through the public harness API:
//!
//! 1. `OBS_*.jsonl` bytes are a pure function of `(target, seed, cadence)`
//!    — harness thread count and whether a flight recorder is nested
//!    alongside the probes must both be invisible in the artifact.
//! 2. The anomaly layer actually catches the phenomenon the repo is about:
//!    E16's flash crowd overloads the consumer-uplink substrates (DHT,
//!    storage market, swarm) within the ramp window, while the centralized
//!    and federated servers — same surge, datacenter-class uplinks — stay
//!    clean. This pins the acceptance story for `anomaly.overload`.

use std::cell::RefCell;
use std::rc::Rc;

use agora_harness::observe::{run_observe_target, validate_obs_jsonl, ObserveRun};
use agora_harness::{registry, Json, MatrixConfig};
use agora_observer::DEFAULT_CADENCE;

/// E16's flash-crowd schedule (see `exp_workload.rs`): onset at 12:45 UTC,
/// a 30-minute ramp to peak demand.
const FLASH_START_SECS: f64 = 45_900.0;
const RAMP_END_SECS: f64 = 47_700.0;

fn observe_to_string(
    target: &str,
    cfg: &MatrixConfig,
    trace_ring: Option<usize>,
) -> (String, ObserveRun) {
    let lines: Rc<RefCell<String>> = Rc::new(RefCell::new(String::new()));
    let out = Rc::clone(&lines);
    let run = run_observe_target(
        &registry(),
        cfg,
        target,
        DEFAULT_CADENCE,
        trace_ring,
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

/// Anomaly lines of one kind, as `(sim ordinal, sim time, detector)`.
fn anomalies(text: &str, kind: &str) -> Vec<(u32, f64, String)> {
    text.lines()
        .filter_map(|line| {
            let v = Json::parse(line).expect("artifact lines parse");
            if v.get("type").and_then(Json::as_str) != Some("anomaly")
                || v.get("kind").and_then(Json::as_str) != Some(kind)
            {
                return None;
            }
            Some((
                v.get("sim").and_then(Json::as_f64).expect("sim") as u32,
                v.get("t").and_then(Json::as_f64).expect("t"),
                v.get("detector")
                    .and_then(Json::as_str)
                    .expect("detector")
                    .to_owned(),
            ))
        })
        .collect()
}

/// The acceptance pin: at population 1M, `anomaly.overload` flags the flash
/// crowd's onset — a surge-detector record inside the 30-minute ramp window
/// — on every consumer-uplink substrate (sim ordinals 2=DHT, 3=storage,
/// 4=swarm), and never fires at all for the centralized (0) or federated
/// (1) deployments, whose provisioned uplinks ride out the same 12x surge.
#[test]
fn flash_crowd_onset_is_flagged_on_consumer_uplinks_only() {
    let (text, _) = observe_to_string("e16/p1m", &MatrixConfig::default(), None);
    validate_obs_jsonl(&text).expect("artifact validates");
    let overloads = anomalies(&text, "anomaly.overload");
    assert!(
        !overloads.iter().any(|(sim, _, _)| *sim <= 1),
        "centralized/federated must stay clean, got {overloads:?}"
    );
    for consumer in [2u32, 3, 4] {
        assert!(
            overloads.iter().any(|(sim, t, detector)| *sim == consumer
                && detector == "jump"
                && (FLASH_START_SECS..=RAMP_END_SECS).contains(t)),
            "sim {consumer}: no surge-detector overload inside the ramp window \
             [{FLASH_START_SECS}, {RAMP_END_SECS}], got {overloads:?}"
        );
    }
}

/// Thread count is a matrix-level performance knob and the observed trial
/// is a single replayed trial — but the contract is worth pinning: the
/// artifact must not know how many workers the surrounding harness was
/// configured with.
#[test]
fn obs_artifact_is_byte_identical_at_1_and_8_threads() {
    let one = {
        let cfg = MatrixConfig {
            threads: 1,
            ..MatrixConfig::default()
        };
        observe_to_string("e16/p10k", &cfg, None).0
    };
    let eight = {
        let cfg = MatrixConfig {
            threads: 8,
            ..MatrixConfig::default()
        };
        observe_to_string("e16/p10k", &cfg, None).0
    };
    assert_eq!(one, eight, "1-thread vs 8-thread OBS artifacts differ");
}

/// Tracing and probing are independent taps on the same canonical event
/// stream: nesting a flight recorder under the probe scope (what
/// `--observe X --explain M` does) must not move a single OBS byte, and
/// the recording it takes must resolve `anomaly.overload` to a causal
/// chain — the `--explain` face of the acceptance story.
#[test]
fn obs_bytes_ignore_the_flight_recorder_and_anomalies_explain() {
    let cfg = MatrixConfig::default();
    let (untraced, _) = observe_to_string("e16/p10k", &cfg, None);
    let (traced, run) = observe_to_string("e16/p10k", &cfg, Some(1 << 16));
    assert_eq!(
        untraced, traced,
        "nested flight recorder changed OBS artifact bytes"
    );
    assert!(
        run.summary.anomalies.get("anomaly.overload").copied() > Some(0),
        "p10k flash crowd should trip the overload detector"
    );
    let recorder = run.recorder.as_ref().expect("recorder was requested");
    let explanation = agora_harness::trace::explain_metric(recorder, "anomaly.overload")
        .expect("anomaly.overload resolves to a trace point");
    assert!(
        explanation.text.contains("anomaly.overload"),
        "explanation names the metric: {}",
        explanation.text
    );
}
