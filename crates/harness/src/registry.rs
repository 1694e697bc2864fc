//! The experiment registry: every experiment of `agora::experiments` as
//! its run path — one uniform signature (`fn(seed) -> Metrics`) per sweep
//! point, so the matrix can drive them interchangeably — and its render
//! path, which turns the matrix's aggregates of those same keys into the
//! experiment's report.
//!
//! Parameter sweeps are expressed as **variants**: E3 runs once per failure
//! fraction, each as its own variant with its own trials. Adding an
//! experiment (or a new sweep point) here automatically adds it to the
//! matrix, the JSON artifact, the baseline diff and `--reports`.

use agora::experiments::VariantStats;
use agora::Report;
use agora_sim::Metrics;

/// One sweep point of an experiment: a label plus a seeded runner.
#[derive(Clone, Copy)]
pub struct Variant {
    /// Stable label, part of the metric/baseline key (`e3/f0.20`).
    pub label: &'static str,
    /// Seeded entry point.
    pub run: fn(u64) -> Metrics,
}

/// A registered experiment with its sweep variants.
pub struct ExperimentDef {
    /// Experiment id (`e1` .. `e18`, `e16p`).
    pub id: &'static str,
    /// Sweep variants (at least one).
    pub variants: Vec<Variant>,
    /// Renders the experiment's report from the aggregates of its
    /// variants, in registry order.
    pub report: fn(&[VariantStats]) -> Report,
}

/// One sweep point. A parameterized entry point is bound to its point by a
/// non-capturing closure, which coerces to `fn(u64) -> Metrics`.
fn variant(label: &'static str, run: fn(u64) -> Metrics) -> Variant {
    Variant { label, run }
}

fn single(
    id: &'static str,
    run: fn(u64) -> Metrics,
    report: fn(&[VariantStats]) -> Report,
) -> ExperimentDef {
    ExperimentDef {
        id,
        variants: vec![variant("default", run)],
        report,
    }
}

/// The full experiment matrix, in report order.
pub fn registry() -> Vec<ExperimentDef> {
    use agora::experiments as exp;
    vec![
        single("e1", exp::e1_metrics, exp::e1_report),
        single("e2", exp::e2_metrics, exp::e2_report),
        ExperimentDef {
            id: "e3",
            variants: vec![
                variant("f0.00", |s| exp::e3_metrics(s, 0.0)),
                variant("f0.20", |s| exp::e3_metrics(s, 0.2)),
                variant("f0.40", |s| exp::e3_metrics(s, 0.4)),
            ],
            report: exp::e3_report,
        },
        single("e4", exp::e4_metrics, exp::e4_report),
        single("e5", exp::e5_metrics, exp::e5_report),
        single("e6", exp::e6_metrics, exp::e6_report),
        single("e7", exp::e7_metrics, exp::e7_report),
        single("e8", exp::e8_metrics, exp::e8_report),
        single("e9", exp::e9_metrics, exp::e9_report),
        single("e10", exp::e10_metrics, exp::e10_report),
        single("e11", exp::e11_metrics, exp::e11_report),
        single("e12", exp::e12_metrics, exp::e12_report),
        single("e13", exp::e13_metrics, exp::e13_report),
        single("e14", exp::e14_metrics, exp::e14_report),
        ExperimentDef {
            id: "e15",
            variants: vec![
                variant("i0.00", |s| exp::e15_metrics(s, 0.0)),
                variant("i0.25", |s| exp::e15_metrics(s, 0.25)),
                variant("i0.50", |s| exp::e15_metrics(s, 0.5)),
                variant("i0.75", |s| exp::e15_metrics(s, 0.75)),
                variant("i1.00", |s| exp::e15_metrics(s, 1.0)),
            ],
            report: exp::e15_report,
        },
        ExperimentDef {
            id: "e16",
            variants: vec![
                variant("p10k", |s| exp::e16_metrics(s, 10_000)),
                variant("p100k", |s| exp::e16_metrics(s, 100_000)),
                variant("p1m", |s| exp::e16_metrics(s, 1_000_000)),
            ],
            report: exp::e16_report,
        },
        ExperimentDef {
            id: "e17",
            variants: vec![
                variant("i0.00", |s| exp::e17_metrics(s, 0.0)),
                variant("i0.50", |s| exp::e17_metrics(s, 0.5)),
                variant("i1.00", |s| exp::e17_metrics(s, 1.0)),
                variant("workload", exp::e17_workload_metrics),
            ],
            report: exp::e17_report,
        },
        // Appended after e17 (not folded into the e16 def) so every
        // pre-policy trial keeps its positional index — and therefore its
        // derived seed and its exact bytes in BENCH_harness.json. The
        // policy-off dormancy proof rests on that: adding the reactive
        // plane changed nothing upstream.
        ExperimentDef {
            id: "e16p",
            variants: vec![
                variant("p10k", |s| exp::e16_policy_metrics(s, 10_000)),
                variant("p100k", |s| exp::e16_policy_metrics(s, 100_000)),
                variant("p1m", |s| exp::e16_policy_metrics(s, 1_000_000)),
            ],
            report: exp::e16_policy_report,
        },
        // Same rule as e16p: appended last so every earlier trial keeps
        // its positional index, derived seed, and exact baseline bytes.
        ExperimentDef {
            id: "e18",
            variants: vec![
                variant("p10k", |s| exp::e18_metrics(s, 10_000)),
                variant("p100k", |s| exp::e18_metrics(s, 100_000)),
                variant("p1m", |s| exp::e18_metrics(s, 1_000_000)),
            ],
            report: exp::e18_report,
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_covers_all_nineteen_experiments() {
        let reg = registry();
        assert_eq!(reg.len(), 19);
        for (i, def) in reg.iter().take(17).enumerate() {
            assert_eq!(def.id, format!("e{}", i + 1));
        }
        assert_eq!(reg[17].id, "e16p", "policy def rides after e17");
        assert_eq!(reg[18].id, "e18", "app def rides after e16p");
        for def in &reg {
            assert!(!def.variants.is_empty());
        }
    }

    /// Every registered experiment, and each of the paper's three tables,
    /// has an EXPERIMENTS.md section headed `## <ID> —` (`e16p` → `E16p`).
    #[test]
    fn every_experiment_is_documented() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../EXPERIMENTS.md");
        let doc = std::fs::read_to_string(path).expect("EXPERIMENTS.md at the workspace root");
        let ids = registry()
            .iter()
            .map(|def| format!("E{}", &def.id[1..]))
            .chain(["T1", "T2", "T3"].map(String::from))
            .collect::<Vec<_>>();
        assert_eq!(ids.len(), 22);
        for id in ids {
            assert!(
                doc.lines().any(|l| l.starts_with(&format!("## {id} — "))),
                "EXPERIMENTS.md missing section for {id}"
            );
        }
    }

    #[test]
    fn labels_are_unique_per_experiment() {
        for def in registry() {
            let mut labels: Vec<_> = def.variants.iter().map(|v| v.label).collect();
            labels.sort_unstable();
            labels.dedup();
            assert_eq!(labels.len(), def.variants.len(), "{}", def.id);
        }
    }

    #[test]
    fn a_cheap_variant_produces_metrics() {
        let reg = registry();
        let e13 = reg.iter().find(|d| d.id == "e13").unwrap();
        let m = (e13.variants[0].run)(7);
        assert!(m.gauges().count() > 0);
    }
}
