//! Replay one trial with the taps a run asks for: the one path behind
//! `--trace` and `--observe`.

use agora_sim::trace::{with_thread_sink, FlightRecorder, SharedRecorder, TraceFilter};
use agora_sim::{Metrics, SimDuration};

use crate::matrix::{find_trial, MatrixConfig, TrialRunner};
use crate::observe::ObsOut;
use crate::observe::{header_json, summary_json, with_obs_probe, ObsFileSummary, ObsLineSink};
use crate::registry::ExperimentDef;
use crate::trace::dht_scenario;

/// The ring `--observe … --explain` records into: points only. An anomaly
/// fires once at onset, and a day of net and timer records would evict it
/// long before the run ends; spans still see every record.
pub fn points_ring(capacity: usize) -> FlightRecorder {
    let points = TraceFilter {
        net: false,
        timers: false,
        churn: false,
        points: true,
    };
    FlightRecorder::with_filter(capacity, points)
}

/// One completed replay.
pub struct Replay {
    /// Target id (`dht`, or an experiment id from the registry).
    pub target: String,
    /// Variant label within the target.
    pub variant: String,
    /// The seed the trial ran with.
    pub seed: u64,
    /// Metrics the trial reported: an untapped run's, plus one count per
    /// OBS detector firing.
    pub metrics: Metrics,
    /// The flight recording, when a ring was installed.
    pub recorder: Option<FlightRecorder>,
    /// The OBS body's totals, when the probe was installed.
    pub obs: Option<ObsFileSummary>,
}

/// Replay one trial of `target` with the taps asked for: `ring`, a flight
/// recorder every simulation appends to, and `obs`, the OBS probe's
/// cadence and where its lines go. Each tap is a thread-local factory
/// removed on return, so every `Simulation` the trial builds, however deep,
/// is tapped and nothing leaks to later work on the thread.
///
/// A target is `dht` (the harness-local Kademlia provenance scenario,
/// seeded from the config's root seed), an experiment id (`e7`, its first
/// variant) or `id/variant` (`e3/f0.20`), which replays the first matching
/// trial of the default matrix — same derived seed, same metrics. A target
/// that names no trial writes nothing.
pub fn replay(
    registry: &[ExperimentDef],
    cfg: &MatrixConfig,
    target: &str,
    ring: Option<FlightRecorder>,
    obs: Option<(SimDuration, ObsLineSink)>,
) -> Result<Replay, String> {
    let (target_id, variant, seed, run): (&str, &str, u64, TrialRunner) = if target == "dht" {
        ("dht", "default", cfg.root_seed, dht_scenario)
    } else {
        let (spec, run) = find_trial(registry, cfg, target).ok_or_else(|| {
            format!("unknown replay target '{target}' (try 'dht' or an experiment id like 'e7' or 'e3/f0.20')")
        })?;
        (spec.experiment, spec.variant, spec.seed, run)
    };

    let obs = obs.map(|(cadence, sink)| {
        let out = ObsOut::shared(sink);
        out.borrow_mut()
            .write(&header_json(target_id, variant, seed, cadence));
        (out, cadence)
    });
    // The ring nests around the probe scope: tracing and probing are
    // independent taps on the same event stream.
    let probed = || match &obs {
        Some((out, cadence)) => with_obs_probe(out, *cadence, || run(seed)),
        None => run(seed),
    };
    let (metrics, recorder) = match ring {
        Some(ring) => {
            let shared = SharedRecorder::from_recorder(ring);
            let handle = shared.clone();
            let metrics = with_thread_sink(move || Box::new(handle.clone()), probed);
            // The factory and every simulation are gone: `shared` is the
            // last handle, so the ring is moved out, not copied.
            (metrics, Some(shared.into_inner()))
        }
        None => (probed(), None),
    };
    let obs = obs.map(|(out, _)| {
        let summary = out.borrow().summary;
        out.borrow_mut().write(&summary_json(&summary));
        summary
    });
    Ok(Replay {
        target: target_id.to_owned(),
        variant: variant.to_owned(),
        seed,
        metrics,
        recorder,
        obs,
    })
}
