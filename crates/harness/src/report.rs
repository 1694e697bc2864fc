//! Human-readable matrix report: per-variant status and timing plus
//! streaming percentile telemetry over trial durations (the P² sketch's
//! production use — it never buffers the full duration stream).

use std::time::Duration;

use agora_sim::P2Quantile;

use crate::matrix::{MatrixRun, TrialStatus, TRIAL_BUDGET};

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
    let mut p50 = P2Quantile::p50();
    let mut p95 = P2Quantile::p95();
    for o in &run.outcomes {
        p50.record(ms(o.elapsed));
        p95.record(ms(o.elapsed));
    }
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
        "\ntrial duration p50 {:.1} ms, p95 {:.1} ms (P2 streaming sketch over {} trials)\n",
        p50.value(),
        p95.value(),
        p50.count(),
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix::{run_matrix, MatrixConfig};
    use crate::registry::{ExperimentDef, Variant};
    use agora_sim::Metrics;

    #[test]
    fn report_mentions_each_group_and_telemetry() {
        fn quick(_: u64) -> Metrics {
            Metrics::new()
        }
        let reg = vec![ExperimentDef {
            id: "quick",
            title: "quick",
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
        assert!(text.contains("P2 streaming sketch"));
        assert!(text.contains("wall clock"));
        assert!(!text.contains("FAILED"));
    }
}
