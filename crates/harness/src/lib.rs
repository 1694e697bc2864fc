//! `agora-harness` — parallel, deterministic experiment orchestration.
//!
//! The experiment suite in `agora::experiments` runs one trial at a time.
//! This crate turns it into a **trial matrix** — experiment × variant ×
//! seed — executed across OS threads by a small in-repo work-stealing pool
//! ([`pool`]), with:
//!
//! * **Deterministic seed derivation** ([`matrix::trial_seed`]): every trial
//!   gets an independent RNG stream derived from the root seed and its trial
//!   index via the xoshiro/splitmix implementation in `agora-sim`, so the
//!   schedule (thread count, steal order) never changes any result.
//! * **Panic isolation**: each trial runs under `catch_unwind`; a panicking
//!   experiment becomes a recorded failure, not a lost run.
//! * **Structured telemetry**: trials report `agora_sim::Metrics` (counters,
//!   gauges, histograms); trial wall-clock times stream into a
//!   `P2Quantile` sketch for the human report.
//! * **Order-independent aggregation**: outcomes are merged by trial index,
//!   serialized to JSON by the in-repo serializer ([`json`]), and are
//!   byte-identical regardless of worker count.
//! * **Regression baselines** ([`baseline`]): the JSON artifact diffs
//!   against a checked-in `BENCH_harness.json` with a relative tolerance,
//!   so perf/behaviour drift fails loudly in CI.
//! * **Tracing & provenance** ([`trace`]):
//!   `--trace <target>` replays one trial with the engine flight recorder
//!   installed and writes a deterministic, CI-diffable `TRACE_*.jsonl`;
//!   `--explain <metric>` walks a recorded sample's causal chain back to
//!   the external injection that started it.
//! * **Ops plane** ([`observe`]):
//!   `--observe <target>` replays one trial with the `agora-observer`
//!   signal probes installed and streams a deterministic, CI-diffable
//!   `OBS_*.jsonl` of cadence frames and anomaly-detector firings;
//!   `--watch` adds a wall-clock heartbeat on stderr (never in artifacts).
//!
//! The `agora-harness` binary (src/main.rs) drives all of this from the
//! command line; `agora-harness --reports` regenerates the classic
//! `experiments_output.txt` report stream.

#![forbid(unsafe_code)]

pub mod baseline;
pub mod json;
pub mod matrix;
pub mod observe;
pub mod perf;
pub mod pool;
pub mod registry;
pub mod report;
pub mod trace;
pub mod watch;

pub use baseline::{diff_json, DiffEntry, BASELINE_TOLERANCE};
pub use json::{read_json_file, Json};
pub use matrix::{
    run_matrix, run_to_json, trial_seed, MatrixConfig, MatrixRun, TrialOutcome, TrialSpec,
    TrialStatus,
};
pub use perf::{perf_to_json, PhaseProfiler, COHORT_ERROR_POPULATION};
pub use registry::{registry, ExperimentDef, Variant};
