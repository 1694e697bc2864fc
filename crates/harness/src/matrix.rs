//! The trial matrix: experiment × variant × seed, executed in parallel with
//! per-trial panic isolation, then aggregated order-independently.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

use agora::experiments::{Stat, VariantStats};
use agora_sim::{Metrics, SimRng};

use crate::json::Json;
use crate::pool;
use crate::registry::ExperimentDef;

/// Per-trial wall-clock budget. Exceeding it cannot abort a running trial
/// (threads are not preemptible) but flags it in the human report so
/// runaway experiments are visible.
pub const TRIAL_BUDGET: Duration = Duration::from_secs(120);

/// Matrix run configuration.
#[derive(Clone, Debug)]
pub struct MatrixConfig {
    /// Root seed; every trial seed derives from this and the trial index.
    pub root_seed: u64,
    /// Trials per variant (distinct derived seeds).
    pub seeds_per_variant: u32,
    /// Worker threads. Never changes any output, only wall-clock time.
    pub threads: usize,
    /// When set, run only experiments whose id is listed.
    pub filter: Option<Vec<String>>,
}

impl Default for MatrixConfig {
    fn default() -> MatrixConfig {
        MatrixConfig {
            root_seed: 20171130, // HotNets-XVI, day one
            seeds_per_variant: 3,
            threads: std::thread::available_parallelism().map_or(1, |n| n.get()),
            filter: None,
        }
    }
}

/// Identity of one trial in the matrix.
#[derive(Clone, Debug)]
pub struct TrialSpec {
    /// Position in the matrix (also the aggregation merge key).
    pub index: usize,
    /// Experiment id.
    pub experiment: &'static str,
    /// Variant label.
    pub variant: &'static str,
    /// Seed ordinal within the variant.
    pub seed_ordinal: u32,
    /// The derived seed the trial ran with.
    pub seed: u64,
}

/// How a trial ended.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TrialStatus {
    /// Completed and reported metrics.
    Ok,
    /// Panicked; the payload message is retained.
    Panicked(String),
}

/// One completed trial.
#[derive(Clone, Debug)]
pub struct TrialOutcome {
    /// Which trial this was.
    pub spec: TrialSpec,
    /// Completion status.
    pub status: TrialStatus,
    /// Reported metrics (empty when panicked).
    pub metrics: Metrics,
    /// Measured wall-clock time (excluded from the JSON artifact — it is
    /// the one non-deterministic field).
    pub elapsed: Duration,
}

/// A completed matrix run.
pub struct MatrixRun {
    /// Configuration it ran under.
    pub config: MatrixConfig,
    /// Outcomes in trial-index order, regardless of scheduling.
    pub outcomes: Vec<TrialOutcome>,
    /// Total wall-clock time of the parallel section.
    pub wall: Duration,
}

/// Derive the seed for trial `index` from the root seed using the xoshiro /
/// splitmix streams in `agora-sim`. Each trial's stream is independent of
/// every other's, and the derivation depends only on `(root, index)` — not
/// on scheduling — which is what makes thread count output-invariant.
pub fn trial_seed(root: u64, index: u64) -> u64 {
    SimRng::new(root).fork(index).next_u64()
}

/// Uniform seeded entry point of one trial (same shape as
/// [`crate::registry::Variant::run`]).
pub type TrialRunner = fn(u64) -> Metrics;

/// Whether one filter entry selects `(experiment, variant)`: a bare
/// experiment id ("e16") selects every variant; "e16p/p10k"
/// selects exactly one.
pub fn filter_selects(entry: &str, experiment: &str, variant: &str) -> bool {
    match entry.split_once('/') {
        Some((id, label)) => id == experiment && label == variant,
        None => entry == experiment,
    }
}

/// Expand the registry into the trial list for a config.
pub fn build_trials(
    registry: &[ExperimentDef],
    cfg: &MatrixConfig,
) -> Vec<(TrialSpec, TrialRunner)> {
    let mut trials = Vec::new();
    for def in registry {
        for variant in &def.variants {
            if let Some(filter) = &cfg.filter {
                if !filter
                    .iter()
                    .any(|f| filter_selects(f, def.id, variant.label))
                {
                    continue;
                }
            }
            for ordinal in 0..cfg.seeds_per_variant {
                let index = trials.len();
                trials.push((
                    TrialSpec {
                        index,
                        experiment: def.id,
                        variant: variant.label,
                        seed_ordinal: ordinal,
                        seed: trial_seed(cfg.root_seed, index as u64),
                    },
                    variant.run,
                ));
            }
        }
    }
    trials
}

/// The trial a `--trace` or `--observe` target names: `id/variant`, or a
/// bare experiment id for its first variant — always the first seed, with
/// the seed and runner the full matrix gives it. `None` when nothing
/// matches.
pub fn find_trial(
    registry: &[ExperimentDef],
    cfg: &MatrixConfig,
    target: &str,
) -> Option<(TrialSpec, TrialRunner)> {
    let (id, variant) = match target.split_once('/') {
        Some((id, v)) => (id, Some(v)),
        None => (target, None),
    };
    build_trials(registry, cfg).into_iter().find(|(spec, _)| {
        spec.experiment == id && variant.is_none_or(|v| spec.variant == v) && spec.seed_ordinal == 0
    })
}

/// Run the full matrix for a registry under `cfg`.
pub fn run_matrix(registry: &[ExperimentDef], cfg: &MatrixConfig) -> MatrixRun {
    let trials = build_trials(registry, cfg);
    let started = Instant::now();
    let outcomes = pool::run_indexed(trials.len(), cfg.threads, |i| {
        let (spec, run) = &trials[i];
        let seed = spec.seed;
        let trial_started = Instant::now();
        let caught = catch_unwind(AssertUnwindSafe(|| run(seed)));
        let elapsed = trial_started.elapsed();
        let (status, metrics) = match caught {
            Ok(metrics) => (TrialStatus::Ok, metrics),
            // `&*payload`: deref the box so we downcast its contents, not
            // the `Box<dyn Any>` itself (which also implements `Any`).
            Err(payload) => (
                TrialStatus::Panicked(panic_message(&*payload)),
                Metrics::new(),
            ),
        };
        crate::watch::trial_finished();
        TrialOutcome {
            spec: spec.clone(),
            status,
            metrics,
            elapsed,
        }
    });
    MatrixRun {
        config: cfg.clone(),
        outcomes,
        wall: started.elapsed(),
    }
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_owned()
    }
}

impl MatrixRun {
    /// Panicked trial count.
    pub fn failures(&self) -> usize {
        self.outcomes
            .iter()
            .filter(|o| o.status != TrialStatus::Ok)
            .count()
    }

    /// Trials that blew [`TRIAL_BUDGET`].
    pub fn over_budget(&self) -> Vec<&TrialOutcome> {
        self.outcomes
            .iter()
            .filter(|o| o.elapsed > TRIAL_BUDGET)
            .collect()
    }
}

/// Serialize a run to the deterministic JSON artifact.
///
/// Everything in the artifact is a pure function of `(registry, config)` —
/// timings stay out — so two runs with the same config produce identical
/// bytes no matter how many worker threads executed them.
pub fn run_to_json(run: &MatrixRun) -> Json {
    artifact_json(run, &aggregate(run))
}

/// [`run_to_json`] with the run's [`aggregate`] already in hand, so a
/// caller that also renders the reports aggregates once.
pub fn artifact_json(run: &MatrixRun, aggregates: &[VariantStats]) -> Json {
    let mut root = Json::obj();
    root.set("schema", Json::Num(1.0));
    root.set("root_seed", Json::Num(run.config.root_seed as f64));
    root.set(
        "seeds_per_variant",
        Json::Num(run.config.seeds_per_variant as f64),
    );

    let mut trials = Vec::with_capacity(run.outcomes.len());
    for outcome in &run.outcomes {
        let mut t = Json::obj();
        t.set("index", Json::Num(outcome.spec.index as f64));
        t.set("experiment", Json::Str(outcome.spec.experiment.to_owned()));
        t.set("variant", Json::Str(outcome.spec.variant.to_owned()));
        t.set("seed_ordinal", Json::Num(outcome.spec.seed_ordinal as f64));
        t.set("seed", Json::Num(outcome.spec.seed as f64));
        t.set(
            "status",
            Json::Str(match &outcome.status {
                TrialStatus::Ok => "ok".to_owned(),
                TrialStatus::Panicked(msg) => format!("panicked: {msg}"),
            }),
        );
        t.set("metrics", metrics_to_json(&outcome.metrics));
        trials.push(t);
    }
    root.set("trials", Json::Arr(trials));
    root.set("aggregates", aggregates_to_json(aggregates));
    root
}

/// Flatten a metrics registry: counters and gauges as flat objects,
/// histograms as summary objects (exact percentiles — trial metrics are
/// bounded; the streaming P² sketch serves the unbounded telemetry paths).
pub(crate) fn metrics_to_json(m: &Metrics) -> Json {
    let mut out = Json::obj();
    let mut counters = Json::obj();
    for (k, v) in m.counters() {
        counters.set(k, Json::Num(v as f64));
    }
    out.set("counters", counters);
    let mut gauges = Json::obj();
    for (k, v) in m.gauges() {
        gauges.set(k, Json::Num(v));
    }
    out.set("gauges", gauges);
    let mut hists = Json::obj();
    for (k, h) in m.histograms() {
        let mut h = h.clone();
        let mut s = Json::obj();
        s.set("count", Json::Num(h.count() as f64));
        s.set("mean", Json::Num(h.mean()));
        s.set("min", Json::Num(h.try_min().unwrap_or(0.0)));
        s.set("max", Json::Num(h.try_max().unwrap_or(0.0)));
        s.set("p50", Json::Num(h.percentile(50.0)));
        s.set("p99", Json::Num(h.percentile(99.0)));
        hists.set(k, s);
    }
    out.set("histograms", hists);
    out
}

/// Cross-seed aggregates per `experiment/variant`, in matrix order: for
/// every metric key, mean/min/max across the variant's completed seeds.
/// The baseline diff walks them (as the artifact's `aggregates`) and the
/// experiments' render fns read them (`--reports`).
pub fn aggregate(run: &MatrixRun) -> Vec<VariantStats> {
    // Group outcomes by (experiment, variant), preserving matrix order.
    let mut groups: Vec<((&str, &str), Vec<&TrialOutcome>)> = Vec::new();
    for o in &run.outcomes {
        let key = (o.spec.experiment, o.spec.variant);
        match groups.iter_mut().find(|(k, _)| *k == key) {
            Some((_, v)) => v.push(o),
            None => groups.push((key, vec![o])),
        }
    }
    groups
        .into_iter()
        .map(|((experiment, label), outcomes)| {
            let ok: Vec<&TrialOutcome> = outcomes
                .iter()
                .copied()
                .filter(|o| o.status == TrialStatus::Ok)
                .collect();
            // Metric keys in BTreeMap order from the first ok outcome; all
            // seeds of a variant emit the same key set.
            let mut metrics = Vec::new();
            if let Some(first) = ok.first() {
                let keys: Vec<(&str, bool)> = first
                    .metrics
                    .counters()
                    .map(|(k, _)| (k, true))
                    .chain(first.metrics.gauges().map(|(k, _)| (k, false)))
                    .collect();
                for (key, is_counter) in keys {
                    let values: Vec<f64> = ok
                        .iter()
                        .map(|o| {
                            if is_counter {
                                o.metrics.counter(key) as f64
                            } else {
                                o.metrics.gauge(key)
                            }
                        })
                        .collect();
                    let stat = Stat {
                        mean: values.iter().sum::<f64>() / values.len() as f64,
                        min: values.iter().copied().fold(f64::INFINITY, f64::min),
                        max: values.iter().copied().fold(f64::NEG_INFINITY, f64::max),
                    };
                    metrics.push((key.to_owned(), stat));
                }
            }
            VariantStats {
                experiment: experiment.to_owned(),
                label: label.to_owned(),
                trials: outcomes.len(),
                ok: ok.len(),
                metrics,
            }
        })
        .collect()
}

fn aggregates_to_json(aggregates: &[VariantStats]) -> Json {
    let mut out = Json::obj();
    for v in aggregates {
        let mut agg = Json::obj();
        agg.set("trials", Json::Num(v.trials as f64));
        agg.set("ok", Json::Num(v.ok as f64));
        let mut stats = Json::obj();
        for (key, stat) in &v.metrics {
            let mut s = Json::obj();
            s.set("mean", Json::Num(stat.mean));
            s.set("min", Json::Num(stat.min));
            s.set("max", Json::Num(stat.max));
            stats.set(key, s);
        }
        agg.set("metrics", stats);
        out.set(&format!("{}/{}", v.experiment, v.label), agg);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::Variant;

    fn toy_registry() -> Vec<ExperimentDef> {
        fn ok_run(seed: u64) -> Metrics {
            let mut m = Metrics::new();
            m.gauge_set("toy.seed_mod", (seed % 97) as f64);
            m.incr("toy.runs", 1);
            m
        }
        fn panicky(seed: u64) -> Metrics {
            panic!("trial seed {seed} exploded");
        }
        vec![
            ExperimentDef {
                id: "toy",
                variants: vec![Variant {
                    label: "default",
                    run: ok_run,
                }],
                report: |_| unreachable!("toy experiments are never rendered"),
            },
            ExperimentDef {
                id: "panicky",
                variants: vec![Variant {
                    label: "default",
                    run: panicky,
                }],
                report: |_| unreachable!("toy experiments are never rendered"),
            },
        ]
    }

    #[test]
    fn trial_seeds_are_independent_and_reproducible() {
        let a = trial_seed(42, 0);
        let b = trial_seed(42, 1);
        assert_ne!(a, b);
        assert_eq!(a, trial_seed(42, 0));
        assert_ne!(a, trial_seed(43, 0));
    }

    #[test]
    fn panics_are_isolated_and_recorded() {
        let cfg = MatrixConfig {
            seeds_per_variant: 4,
            threads: 2,
            ..MatrixConfig::default()
        };
        let run = run_matrix(&toy_registry(), &cfg);
        assert_eq!(run.outcomes.len(), 8);
        let panicked = run
            .outcomes
            .iter()
            .filter(|o| matches!(&o.status, TrialStatus::Panicked(m) if m.contains("exploded")))
            .count();
        assert_eq!(panicked, 4, "every panicky trial is recorded as failed");
        assert_eq!(run.failures(), panicked);
        let ok = run
            .outcomes
            .iter()
            .filter(|o| o.status == TrialStatus::Ok)
            .count();
        assert_eq!(ok, 4, "toy trials are unaffected by panicking neighbours");
        // Trials are ordered by index regardless of scheduling.
        for (i, o) in run.outcomes.iter().enumerate() {
            assert_eq!(o.spec.index, i);
        }
    }

    #[test]
    fn json_is_thread_count_invariant() {
        let registry = toy_registry();
        let mut renders = Vec::new();
        for threads in [1, 3, 8] {
            let cfg = MatrixConfig {
                seeds_per_variant: 5,
                threads,
                ..MatrixConfig::default()
            };
            renders.push(run_to_json(&run_matrix(&registry, &cfg)).render());
        }
        assert_eq!(renders[0], renders[1]);
        assert_eq!(renders[1], renders[2]);
    }

    #[test]
    fn filter_restricts_experiments() {
        let cfg = MatrixConfig {
            seeds_per_variant: 2,
            filter: Some(vec!["toy".to_owned()]),
            ..MatrixConfig::default()
        };
        let run = run_matrix(&toy_registry(), &cfg);
        assert_eq!(run.outcomes.len(), 2);
        assert!(run.outcomes.iter().all(|o| o.spec.experiment == "toy"));
    }

    #[test]
    fn filter_selects_single_variants() {
        fn ok_run(_seed: u64) -> Metrics {
            Metrics::new()
        }
        let reg = vec![ExperimentDef {
            id: "multi",
            report: |_| unreachable!("toy experiments are never rendered"),
            variants: vec![
                Variant {
                    label: "a",
                    run: ok_run,
                },
                Variant {
                    label: "b",
                    run: ok_run,
                },
            ],
        }];
        let cfg = MatrixConfig {
            seeds_per_variant: 2,
            filter: Some(vec!["multi/b".to_owned()]),
            ..MatrixConfig::default()
        };
        let trials = build_trials(&reg, &cfg);
        assert_eq!(trials.len(), 2);
        assert!(trials.iter().all(|(s, _)| s.variant == "b"));
        // Trial seeds are positional within the filtered list, so the
        // variant-filtered run derives them from indices 0..n like any
        // other filter.
        assert_eq!(trials[0].0.seed, trial_seed(cfg.root_seed, 0));
        // A bare id still selects every variant.
        let cfg_all = MatrixConfig {
            seeds_per_variant: 1,
            filter: Some(vec!["multi".to_owned()]),
            ..MatrixConfig::default()
        };
        assert_eq!(build_trials(&reg, &cfg_all).len(), 2);
    }

    #[test]
    fn aggregates_report_cross_seed_stats() {
        let cfg = MatrixConfig {
            seeds_per_variant: 3,
            filter: Some(vec!["toy".to_owned()]),
            ..MatrixConfig::default()
        };
        let json = run_to_json(&run_matrix(&toy_registry(), &cfg));
        let agg = json
            .get("aggregates")
            .and_then(|a| a.get("toy/default"))
            .expect("toy aggregate");
        assert_eq!(agg.get("trials").and_then(Json::as_f64), Some(3.0));
        let runs = agg
            .get("metrics")
            .and_then(|m| m.get("toy.runs"))
            .expect("counter stat");
        assert_eq!(runs.get("mean").and_then(Json::as_f64), Some(1.0));
    }
}
