//! The experiment registry: every `exp_*` entry point of
//! `agora::experiments`, wrapped behind one uniform signature
//! (`fn(seed) -> Metrics`) so the matrix can drive them interchangeably.
//!
//! Parameter sweeps are expressed as **variants**: E3 runs once per failure
//! fraction, each as its own variant with its own trials. Adding an
//! experiment (or a new sweep point) here automatically adds it to the
//! matrix, the JSON artifact, and the baseline diff.

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
    /// Experiment id (`e1` .. `e14`).
    pub id: &'static str,
    /// Human title for reports.
    pub title: &'static str,
    /// Sweep variants (at least one).
    pub variants: Vec<Variant>,
}

fn e3_f00(seed: u64) -> Metrics {
    agora::experiments::e3_metrics(seed, 0.0)
}

fn e3_f20(seed: u64) -> Metrics {
    agora::experiments::e3_metrics(seed, 0.2)
}

fn e3_f40(seed: u64) -> Metrics {
    agora::experiments::e3_metrics(seed, 0.4)
}

fn e15_i000(seed: u64) -> Metrics {
    agora::experiments::e15_metrics(seed, 0.0)
}

fn e15_i025(seed: u64) -> Metrics {
    agora::experiments::e15_metrics(seed, 0.25)
}

fn e15_i050(seed: u64) -> Metrics {
    agora::experiments::e15_metrics(seed, 0.5)
}

fn e15_i075(seed: u64) -> Metrics {
    agora::experiments::e15_metrics(seed, 0.75)
}

fn e15_i100(seed: u64) -> Metrics {
    agora::experiments::e15_metrics(seed, 1.0)
}

fn e16_p10k(seed: u64) -> Metrics {
    agora::experiments::e16_metrics(seed, 10_000)
}

fn e16_p100k(seed: u64) -> Metrics {
    agora::experiments::e16_metrics(seed, 100_000)
}

fn e16_p1m(seed: u64) -> Metrics {
    agora::experiments::e16_metrics(seed, 1_000_000)
}

fn e16p_p10k(seed: u64) -> Metrics {
    agora::experiments::e16_policy_metrics(seed, 10_000)
}

fn e16p_p100k(seed: u64) -> Metrics {
    agora::experiments::e16_policy_metrics(seed, 100_000)
}

fn e16p_p1m(seed: u64) -> Metrics {
    agora::experiments::e16_policy_metrics(seed, 1_000_000)
}

fn e18_p10k(seed: u64) -> Metrics {
    agora::experiments::e18_metrics(seed, 10_000)
}

fn e18_p100k(seed: u64) -> Metrics {
    agora::experiments::e18_metrics(seed, 100_000)
}

fn e18_p1m(seed: u64) -> Metrics {
    agora::experiments::e18_metrics(seed, 1_000_000)
}

fn e17_i000(seed: u64) -> Metrics {
    agora::experiments::e17_metrics(seed, 0.0)
}

fn e17_i050(seed: u64) -> Metrics {
    agora::experiments::e17_metrics(seed, 0.5)
}

fn e17_i100(seed: u64) -> Metrics {
    agora::experiments::e17_metrics(seed, 1.0)
}

fn single(id: &'static str, title: &'static str, run: fn(u64) -> Metrics) -> ExperimentDef {
    ExperimentDef {
        id,
        title,
        variants: vec![Variant {
            label: "default",
            run,
        }],
    }
}

/// The full experiment matrix, in report order.
pub fn registry() -> Vec<ExperimentDef> {
    use agora::experiments as exp;
    vec![
        single(
            "e1",
            "Naming: consensus vs registrar tradeoff",
            exp::e1_metrics,
        ),
        single("e2", "Naming: attack suite", exp::e2_metrics),
        ExperimentDef {
            id: "e3",
            title: "Group communication availability under failures",
            variants: vec![
                Variant {
                    label: "f0.00",
                    run: e3_f00,
                },
                Variant {
                    label: "f0.20",
                    run: e3_f20,
                },
                Variant {
                    label: "f0.40",
                    run: e3_f40,
                },
            ],
        },
        single(
            "e4",
            "Group communication metadata privacy",
            exp::e4_metrics,
        ),
        single(
            "e5",
            "Storage proofs vs cheating strategies",
            exp::e5_metrics,
        ),
        single("e6", "Storage durability design space", exp::e6_metrics),
        single("e7", "Hostless web availability", exp::e7_metrics),
        single("e8", "Storage quality vs quantity", exp::e8_metrics),
        single("e9", "Blockchain operating costs", exp::e9_metrics),
        single("e10", "Federated failover", exp::e10_metrics),
        single("e11", "Guerrilla relay", exp::e11_metrics),
        single("e12", "Moderation vs freedom tension", exp::e12_metrics),
        single("e13", "The financing gap", exp::e13_metrics),
        single("e14", "Usenet collapse economics", exp::e14_metrics),
        ExperimentDef {
            id: "e15",
            title: "Graceful degradation under fault injection",
            variants: vec![
                Variant {
                    label: "i0.00",
                    run: e15_i000,
                },
                Variant {
                    label: "i0.25",
                    run: e15_i025,
                },
                Variant {
                    label: "i0.50",
                    run: e15_i050,
                },
                Variant {
                    label: "i0.75",
                    run: e15_i075,
                },
                Variant {
                    label: "i1.00",
                    run: e15_i100,
                },
            ],
        },
        ExperimentDef {
            id: "e16",
            title: "Population-scale flash crowd (diurnal day, cohorted)",
            variants: vec![
                Variant {
                    label: "p10k",
                    run: e16_p10k,
                },
                Variant {
                    label: "p100k",
                    run: e16_p100k,
                },
                Variant {
                    label: "p1m",
                    run: e16_p1m,
                },
            ],
        },
        ExperimentDef {
            id: "e17",
            title: "Storage market: audit/slashing/repair under chaos",
            variants: vec![
                Variant {
                    label: "i0.00",
                    run: e17_i000,
                },
                Variant {
                    label: "i0.50",
                    run: e17_i050,
                },
                Variant {
                    label: "i1.00",
                    run: e17_i100,
                },
                Variant {
                    label: "workload",
                    run: agora::experiments::e17_workload_metrics,
                },
            ],
        },
        // Appended after e17 (not folded into the e16 def) so every
        // pre-policy trial keeps its positional index — and therefore its
        // derived seed and its exact bytes in BENCH_harness.json. The
        // policy-off dormancy proof rests on that: adding the reactive
        // plane changed nothing upstream.
        ExperimentDef {
            id: "e16p",
            title: "Demand-adaptive policies under the E16 flash crowd",
            variants: vec![
                Variant {
                    label: "p10k",
                    run: e16p_p10k,
                },
                Variant {
                    label: "p100k",
                    run: e16p_p100k,
                },
                Variant {
                    label: "p1m",
                    run: e16p_p1m,
                },
            ],
        },
        // Same rule as e16p: appended last so every earlier trial keeps
        // its positional index, derived seed, and exact baseline bytes.
        ExperimentDef {
            id: "e18",
            title: "Typed-contract apps: delta sync vs centralized hosting",
            variants: vec![
                Variant {
                    label: "p10k",
                    run: e18_p10k,
                },
                Variant {
                    label: "p100k",
                    run: e18_p100k,
                },
                Variant {
                    label: "p1m",
                    run: e18_p1m,
                },
            ],
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_covers_all_seventeen_experiments() {
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
