//! Human-readable renderings of a matrix run: the run summary (per-variant
//! status and timing, trial-duration percentiles) and `--reports`, every
//! experiment's report rendered from the run's aggregates.

use std::time::Duration;

use agora::experiments::VariantStats;

use crate::matrix::{MatrixRun, TrialStatus, TRIAL_BUDGET};
use crate::perf::percentile_secs;
use crate::registry::ExperimentDef;

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Render the run summary table.
pub fn render(run: &MatrixRun) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "agora-harness matrix: {} trials ({} experiments x seeds), {} threads, root seed {}\n\n",
        run.outcomes.len(),
        {
            let mut ids: Vec<&str> = run.outcomes.iter().map(|o| o.spec.experiment).collect();
            ids.dedup();
            ids.len()
        },
        run.config.threads,
        run.config.root_seed,
    ));
    out.push_str(&format!(
        "{:<16} {:>6} {:>5} {:>10} {:>10} {:>10}\n",
        "experiment", "trials", "ok", "mean ms", "min ms", "max ms"
    ));

    // Group by (experiment, variant) in matrix order.
    let mut groups: Vec<(&str, &str)> = Vec::new();
    for o in &run.outcomes {
        let key = (o.spec.experiment, o.spec.variant);
        if !groups.contains(&key) {
            groups.push(key);
        }
    }
    let mut durations: Vec<Duration> = run.outcomes.iter().map(|o| o.elapsed).collect();
    for (exp, variant) in groups {
        let outcomes: Vec<_> = run
            .outcomes
            .iter()
            .filter(|o| o.spec.experiment == exp && o.spec.variant == variant)
            .collect();
        let ok = outcomes
            .iter()
            .filter(|o| o.status == TrialStatus::Ok)
            .count();
        let times: Vec<f64> = outcomes.iter().map(|o| ms(o.elapsed)).collect();
        let mean = times.iter().sum::<f64>() / times.len() as f64;
        let min = times.iter().copied().fold(f64::INFINITY, f64::min);
        let max = times.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        let label = if variant == "default" {
            exp.to_owned()
        } else {
            format!("{exp}/{variant}")
        };
        out.push_str(&format!(
            "{label:<16} {:>6} {:>5} {mean:>10.1} {min:>10.1} {max:>10.1}\n",
            outcomes.len(),
            ok,
        ));
    }

    out.push_str(&format!(
        "\ntrial duration p50 {:.1} ms, p95 {:.1} ms (over {} trials)\n",
        percentile_secs(&mut durations, 50.0) * 1e3,
        percentile_secs(&mut durations, 95.0) * 1e3,
        durations.len(),
    ));
    out.push_str(&format!(
        "wall clock {:.2} s on {} threads\n",
        run.wall.as_secs_f64(),
        run.config.threads
    ));

    let over = run.over_budget();
    if !over.is_empty() {
        out.push_str(&format!(
            "\nWARNING: {} trial(s) exceeded the {:.0} s per-trial budget:\n",
            over.len(),
            TRIAL_BUDGET.as_secs_f64()
        ));
        for o in over {
            out.push_str(&format!(
                "  {}/{} seed#{} took {:.2} s\n",
                o.spec.experiment,
                o.spec.variant,
                o.spec.seed_ordinal,
                o.elapsed.as_secs_f64()
            ));
        }
    }
    for o in &run.outcomes {
        if let TrialStatus::Panicked(msg) = &o.status {
            out.push_str(&format!(
                "\nFAILED: {}/{} seed#{} panicked: {msg}\n",
                o.spec.experiment, o.spec.variant, o.spec.seed_ordinal
            ));
        }
    }
    out
}

/// The variants of experiment `id`: a contiguous run of `aggregates`,
/// which are in matrix order.
fn variants_of<'a>(aggregates: &'a [VariantStats], id: &str) -> &'a [VariantStats] {
    let start = aggregates
        .iter()
        .position(|v| v.experiment == id)
        .unwrap_or(aggregates.len());
    let len = aggregates[start..]
        .iter()
        .take_while(|v| v.experiment == id)
        .count();
    &aggregates[start..start + len]
}

/// The `--reports` stream (`experiments_output.txt`): the seedless tables
/// T1–T3, every registered experiment's report rendered from `aggregates`
/// (the matrix's, in registry order), the property matrix and the Zooko
/// table. A pure function of the aggregates: no experiment code runs.
pub fn render_reports(registry: &[ExperimentDef], aggregates: &[VariantStats]) -> String {
    let mut out = String::new();
    let tables = [
        agora::t1_taxonomy(),
        agora::t2_storage_systems(),
        agora::t3_feasibility(),
    ];
    let experiments = registry
        .iter()
        .map(|def| (def.report)(variants_of(aggregates, def.id)));
    for report in tables.into_iter().chain(experiments) {
        out.push_str(&format!("{report}\n\n"));
    }
    out.push_str(&format!("{}\n", agora::render_property_matrix()));
    out.push_str(&format!("{}\n", agora::naming_zooko_table()));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{read_json_file, Json};
    use crate::matrix::{run_matrix, MatrixConfig};
    use crate::registry::{registry, Variant};
    use agora::experiments::Stat;
    use agora_sim::Metrics;

    /// The artifact's `aggregates` object read back into `VariantStats`
    /// (a `null` statistic is a non-finite value the writer could not
    /// spell).
    fn aggregates_from_json(aggregates: &Json) -> Vec<VariantStats> {
        let Json::Obj(groups) = aggregates else {
            panic!("aggregates is an object")
        };
        let num = |v: &Json, key: &str| v.get(key).and_then(Json::as_f64).unwrap_or(f64::NAN);
        groups
            .iter()
            .map(|(name, group)| {
                let (experiment, label) = name.split_once('/').expect("experiment/variant");
                let Some(Json::Obj(metrics)) = group.get("metrics") else {
                    panic!("{name}: metrics is an object")
                };
                VariantStats {
                    experiment: experiment.to_owned(),
                    label: label.to_owned(),
                    trials: num(group, "trials") as usize,
                    ok: num(group, "ok") as usize,
                    metrics: metrics
                        .iter()
                        .map(|(key, s)| {
                            let stat = Stat {
                                mean: num(s, "mean"),
                                min: num(s, "min"),
                                max: num(s, "max"),
                            };
                            (key.clone(), stat)
                        })
                        .collect(),
                }
            })
            .collect()
    }

    /// Every E-section of `experiments_output.txt` is its experiment's
    /// render fn applied to the checked-in `BENCH_harness.json`
    /// aggregates: each printed number walks back to a baseline value
    /// without running anything.
    #[test]
    fn reports_are_a_pure_function_of_the_pinned_aggregates() {
        let root = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");
        let baseline = read_json_file(&format!("{root}/BENCH_harness.json")).expect("baseline");
        let aggregates = aggregates_from_json(baseline.get("aggregates").expect("aggregates"));
        let output = std::fs::read_to_string(format!("{root}/experiments_output.txt"))
            .expect("experiments_output.txt");
        // Sections are separated by two blank lines.
        let sections: Vec<&str> = output.split("\n\n\n").collect();
        for def in registry() {
            let report = (def.report)(variants_of(&aggregates, def.id));
            let header = format!("=== {} — ", report.id);
            let rendered = report.to_string();
            let expected = sections
                .iter()
                .find(|s| s.starts_with(&header))
                .unwrap_or_else(|| panic!("experiments_output.txt has no {header}section"));
            assert_eq!(rendered.trim_end_matches('\n'), *expected, "{}", def.id);
        }
    }

    #[test]
    fn report_mentions_each_group_and_telemetry() {
        fn quick(_: u64) -> Metrics {
            Metrics::new()
        }
        let reg = vec![ExperimentDef {
            id: "quick",
            report: |_| unreachable!("toy experiments are never rendered"),
            variants: vec![
                Variant {
                    label: "default",
                    run: quick,
                },
                Variant {
                    label: "alt",
                    run: quick,
                },
            ],
        }];
        let cfg = MatrixConfig {
            seeds_per_variant: 2,
            threads: 2,
            ..MatrixConfig::default()
        };
        let text = render(&run_matrix(&reg, &cfg));
        assert!(text.contains("quick/alt"));
        assert!(text.contains("trial duration p50"));
        assert!(text.contains("wall clock"));
        assert!(!text.contains("FAILED"));
    }
}
