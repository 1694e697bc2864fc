//! The four workloads: each is a fixed list of ops, and one pass runs the
//! list once. An op is one call into the program that returns `Metrics`.
//!
//! The work of a pass does not depend on `--seed`. Registry trials and the
//! class-day runners always run at the seeds of the default matrix layout:
//! one simulated day costs up to twice as much at one root seed as at
//! another (`exact_users` took 2.5-5.3 s over ten root seeds), which no
//! bound could hold. The seed moves what can vary without changing the
//! amount of work: the ring order, timer delays, relay targets and link
//! jitter of the engine scenarios.

use agora::experiments::{e16_cohort_runners, ClassOutcome, CohortRunner};
use agora_harness::matrix::build_trials;
use agora_harness::{registry, MatrixConfig};
use agora_sim::Metrics;

use crate::engine_core as ec;

pub const WORKLOADS: [&str; 4] = ["flash_day", "classic_suite", "engine_core", "exact_users"];

/// `MatrixConfig::default().root_seed`: the seed `BENCH_harness.json` and
/// `BENCH_perf.json` were recorded at.
pub const DEFAULT_SEED: u64 = 20171130;

/// Registry trials per workload, as `(experiment, variant)`; each is taken
/// at seed ordinal 0 out of the default matrix layout, so it keeps its
/// positional seed and its `BENCH_harness.json` row.
const FLASH_DAY: &[(&str, &str)] = &[("e16", "p1m"), ("e18", "p1m"), ("e17", "workload")];
const CLASSIC_SUITE: &[(&str, &str)] = &[
    ("e1", "default"),
    ("e2", "default"),
    ("e3", "f0.20"),
    ("e4", "default"),
    ("e5", "default"),
    ("e6", "default"),
    ("e7", "default"),
    ("e8", "default"),
    ("e9", "default"),
    ("e10", "default"),
    ("e11", "default"),
    ("e12", "default"),
    ("e13", "default"),
    ("e14", "default"),
    ("e15", "i1.00"),
    ("e17", "i1.00"),
];

/// Registry trials a traced run adds, once and baseline-checked: too long
/// for the timed passes (`e16p/p10k` takes 5.4 s), or the same code as a
/// timed op (`e17/i0.00` is `e17/i1.00` without the chaos).
const FLASH_DAY_TRACED_ONLY: &[(&str, &str)] = &[("e16p", "p10k")];
const CLASSIC_SUITE_TRACED_ONLY: &[(&str, &str)] = &[("e17", "i0.00")];

pub type OpFn = Box<dyn Fn() -> Metrics + Send + Sync>;

/// Metric values an op must report.
pub type Pins = &'static [(&'static str, f64)];

pub struct Op {
    /// Registry experiment id, or `engine` / `exact` for the benchmark's
    /// own scenarios.
    pub experiment: &'static str,
    pub variant: &'static str,
    /// Row of `BENCH_harness.json` this op reproduces.
    pub baseline_index: Option<usize>,
    pub pins: Pins,
    pub seed: u64,
    pub run: OpFn,
}

impl Op {
    pub fn name(&self) -> String {
        format!("{}/{}", self.experiment, self.variant)
    }
}

fn own(experiment: &'static str, variant: &'static str, seed: u64, pins: Pins, run: OpFn) -> Op {
    Op {
        experiment,
        variant,
        baseline_index: None,
        pins,
        seed,
        run,
    }
}

/// A class outcome as metrics under `prefix`, so every op is checked the
/// same way.
fn record_outcome(m: &mut Metrics, prefix: &str, c: &ClassOutcome) {
    m.gauge_set(&format!("{prefix}availability"), c.availability);
    m.gauge_set(&format!("{prefix}op_p50_secs"), c.op_p50);
    m.gauge_set(&format!("{prefix}op_p99_secs"), c.op_p99);
    m.gauge_set(&format!("{prefix}busiest_share"), c.busiest_share);
    m.gauge_set(&format!("{prefix}peak_overload"), c.peak_overload);
    m.incr(&format!("{prefix}requests"), c.requests);
}

fn outcome_metrics(c: &ClassOutcome) -> Metrics {
    let mut m = Metrics::new();
    record_outcome(&mut m, "", c);
    m
}

pub fn cohort_runner(name: &str) -> CohortRunner {
    e16_cohort_runners()
        .into_iter()
        .find(|(n, _)| *n == name)
        .unwrap_or_else(|| panic!("no cohort runner named {name}"))
        .1
}

/// Engine scenario sizes: each is 0.3-0.6 s of host time per pass.
const RING_ROUNDS: u32 = 600;
const STORM_TIMERS: u64 = 20_000;
const BULK_HOPS: u64 = 8_000;
/// Kademlia days per pass; one day is under 0.1 s.
pub const KAD_DAYS: u64 = 6;
/// The population of the `p1m` variants.
pub const E16_POPULATION: u64 = 1_000_000;
pub const COHORTS: u32 = 8;
pub const DHT_EXACT_USERS: u64 = 10_000;
pub const STORAGE_EXACT_USERS: u64 = 2_000;

/// Shards for the sharded scenarios: what the host has, up to four.
pub fn shard_count() -> u32 {
    std::thread::available_parallelism().map_or(1, |n| n.get().min(4) as u32)
}

fn registry_ops(picks: &[(&str, &str)]) -> Vec<Op> {
    let cfg = MatrixConfig::default();
    assert_eq!(cfg.root_seed, DEFAULT_SEED);
    let trials = build_trials(&registry(), &cfg);
    picks
        .iter()
        .map(|&(experiment, variant)| {
            let (spec, run) = trials
                .iter()
                .find(|(s, _)| {
                    s.experiment == experiment && s.variant == variant && s.seed_ordinal == 0
                })
                .unwrap_or_else(|| panic!("{experiment}/{variant} is not in the registry"));
            let (seed, run) = (spec.seed, *run);
            Op {
                experiment: spec.experiment,
                variant: spec.variant,
                baseline_index: Some(spec.index),
                pins: &[],
                seed,
                run: Box::new(move || run(seed)),
            }
        })
        .collect()
}

const RING_PINS: Pins = &[(
    ec::EVENTS,
    (RING_ROUNDS as u64 * ec::RING_EVENTS_PER_ROUND) as f64,
)];
const STORM_PINS: Pins = &[(ec::EVENTS, ec::storm_events(STORM_TIMERS) as f64)];
const BULK_PINS: Pins = &[(ec::EVENTS, ec::bulk_events(BULK_HOPS) as f64)];
// The 10k / 2k points are the `exact_peak_overload` and
// `approx_peak_overload` of `cohort_error` in `BENCH_perf.json`.
const KAD_PINS: Pins = &[
    ("day0.peak_overload", 157.8301238711111),
    ("day0.availability", 1.0),
];
const DHT_EXACT_PINS: Pins = &[
    ("peak_overload", 0.4780566533333333),
    ("availability", 0.9999900401807565),
];
const DHT_COHORT_PINS: Pins = &[("peak_overload", 1.5853424444444444), ("availability", 1.0)];
const STORAGE_EXACT_PINS: Pins = &[
    ("peak_overload", 0.054500322222222224),
    ("availability", 0.4555387186313941),
];
const STORAGE_COHORT_PINS: Pins = &[
    ("peak_overload", 0.09547911888888888),
    ("availability", 0.468972799818571),
];

fn engine_core_ops(seed: u64) -> Vec<Op> {
    let kad = cohort_runner("dht.off");
    vec![
        own(
            "engine",
            "ring_flood",
            seed,
            RING_PINS,
            Box::new(move || ec::ring_flood(seed, RING_ROUNDS)),
        ),
        own(
            "engine",
            "timer_storm",
            seed,
            STORM_PINS,
            Box::new(move || ec::timer_storm(seed, STORM_TIMERS)),
        ),
        own(
            "engine",
            "bulk_backlog",
            seed,
            BULK_PINS,
            Box::new(move || ec::bulk_backlog(seed, BULK_HOPS)),
        ),
        own(
            "engine",
            "kad_day",
            DEFAULT_SEED,
            KAD_PINS,
            Box::new(move || {
                let mut all = Metrics::new();
                for day in 0..KAD_DAYS {
                    let outcome = kad(DEFAULT_SEED + day, E16_POPULATION, COHORTS);
                    record_outcome(&mut all, &format!("day{day}."), &outcome);
                }
                all
            }),
        ),
    ]
}

fn exact_users_ops() -> Vec<Op> {
    let point = |variant, runner, users: u64, cohorts: u32, pins| {
        let run = cohort_runner(runner);
        own(
            "exact",
            variant,
            DEFAULT_SEED,
            pins,
            Box::new(move || outcome_metrics(&run(DEFAULT_SEED, users, cohorts))),
        )
    };
    vec![
        point(
            "dht.exact",
            "dht.off",
            DHT_EXACT_USERS,
            DHT_EXACT_USERS as u32,
            DHT_EXACT_PINS,
        ),
        point(
            "dht.cohorts",
            "dht.off",
            DHT_EXACT_USERS,
            COHORTS,
            DHT_COHORT_PINS,
        ),
        point(
            "storage.exact",
            "storage.off",
            STORAGE_EXACT_USERS,
            STORAGE_EXACT_USERS as u32,
            STORAGE_EXACT_PINS,
        ),
        point(
            "storage.cohorts",
            "storage.off",
            STORAGE_EXACT_USERS,
            COHORTS,
            STORAGE_COHORT_PINS,
        ),
    ]
}

/// The ops only a traced run of `workload` adds.
pub fn traced_only_ops(workload: &str) -> Vec<Op> {
    match workload {
        "flash_day" => registry_ops(FLASH_DAY_TRACED_ONLY),
        "classic_suite" => registry_ops(CLASSIC_SUITE_TRACED_ONLY),
        _ => Vec::new(),
    }
}

/// The op list of `workload`; `seed` seeds the engine scenarios.
pub fn ops(workload: &str, seed: u64) -> Vec<Op> {
    match workload {
        "flash_day" => registry_ops(FLASH_DAY),
        "classic_suite" => registry_ops(CLASSIC_SUITE),
        "engine_core" => engine_core_ops(seed),
        "exact_users" => exact_users_ops(),
        other => panic!("unknown workload {other}"),
    }
}
