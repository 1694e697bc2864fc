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
//!   gauges, histograms); the human summary adds trial wall-clock
//!   percentiles.
//! * **Order-independent aggregation**: outcomes are merged by trial index
//!   and aggregated once per `experiment/variant`
//!   ([`matrix::aggregate`]); the aggregates are serialized to JSON by the
//!   in-repo serializer ([`json`]) and rendered as the experiments'
//!   reports ([`report::render_reports`]), byte-identical regardless of
//!   worker count.
//! * **Regression baselines** ([`baseline`]): the JSON artifact diffs
//!   against a checked-in `BENCH_harness.json` with a relative tolerance,
//!   so perf/behaviour drift fails loudly in CI.
//! * **Replay** ([`replay`]): one trial, re-run with the taps a run asks
//!   for. `--trace <target>` installs the flight recorder and writes a
//!   deterministic, CI-diffable `TRACE_*.jsonl` ([`trace`]); `--observe
//!   <target>` installs the OBS probe and streams `OBS_*.jsonl` of cadence
//!   frames and anomaly firings ([`observe`]). `--explain <metric>` walks a
//!   recorded sample's causal chain back to the injection that started it;
//!   `--watch` adds a wall-clock heartbeat on stderr (never in artifacts).
//!
//! The `agora-harness` binary (src/main.rs) drives all of this from the
//! command line; `agora-harness --reports` runs the matrix and prints
//! `experiments_output.txt`, every experiment's report rendered from the
//! run's aggregates.

#![forbid(unsafe_code)]

pub mod baseline;
pub mod json;
pub mod matrix;
pub mod observe;
pub mod perf;
pub mod pool;
pub mod registry;
pub mod replay;
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
