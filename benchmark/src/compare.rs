//! `agora-benchmark compare A.jsonl B.jsonl`: two sets of runs (each a
//! `runs.jsonl` the benchmark wrote), metric by metric. This is the tool
//! the "two sets of the same commit agree" criterion is checked with.

use std::collections::BTreeMap;
use std::fs;

use agora_harness::Json;

use crate::names::{END_TO_END, LOWER, PER_LAYER};
use crate::ops::WORKLOADS;
use crate::stats;

/// `(workload, metric) -> one value per run`, and for count metrics
/// `(workload, seed, metric) -> value`.
#[derive(Default)]
struct RunSet {
    timings: BTreeMap<(String, String), Vec<f64>>,
    counts: BTreeMap<(String, String, String), f64>,
    attempted: u64,
    failed: u64,
}

fn is_count(metric: &str) -> bool {
    PER_LAYER
        .iter()
        .any(|m| m.0 == metric && matches!(m.1, "count" | "bytes"))
        || metric.contains("cohort_")
}

fn load(path: &str) -> Result<RunSet, String> {
    let text = fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let mut set = RunSet::default();
    for (n, line) in text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
    {
        let bad = |what: &str| format!("{path}:{}: {what}", n + 1);
        let record = Json::parse(line).map_err(|e| bad(&e))?;
        let text_of = |key: &str| {
            let value = record.get(key).and_then(Json::as_str);
            value.map(str::to_owned).ok_or_else(|| bad(key))
        };
        let (workload, seed) = (text_of("workload")?, text_of("seed")?);
        let result = record.get("result").ok_or_else(|| bad("result"))?;
        let number = |key: &str| {
            result
                .get(key)
                .and_then(Json::as_f64)
                .ok_or_else(|| bad(key))
        };
        set.attempted += number("attempted")? as u64;
        set.failed += number("failed")? as u64;
        let Some(Json::Obj(metrics)) = result.get("metrics") else {
            return Err(bad("metrics"));
        };
        for (name, entry) in metrics {
            let value = entry
                .get("value")
                .and_then(Json::as_f64)
                .ok_or_else(|| bad(name))?;
            if is_count(name) {
                set.counts
                    .insert((workload.clone(), seed.clone(), name.clone()), value);
            } else {
                set.timings
                    .entry((workload.clone(), name.clone()))
                    .or_default()
                    .push(value);
            }
        }
    }
    Ok(set)
}

/// `same`, `worse` or `unresolved` for one end-to-end metric: `a` is the
/// base, `b` the candidate.
pub fn verdict(a: &[f64], b: &[f64], bound: f64, better: &str) -> (&'static str, f64, f64) {
    let (base, candidate) = (stats::median(a), stats::median(b));
    let ratio = candidate / base;
    let worse_by = if better == LOWER {
        ratio - 1.0
    } else {
        1.0 - ratio
    };
    let spread = stats::spread(a).max(stats::spread(b));
    let verdict = if spread > bound {
        "unresolved"
    } else if worse_by > bound {
        "worse"
    } else {
        "same"
    };
    (verdict, ratio, spread)
}

/// Print the comparison; `Ok(true)` when nothing is worse, no count
/// differs and no op failed.
pub fn compare(path_a: &str, path_b: &str) -> Result<bool, String> {
    let (a, b) = (load(path_a)?, load(path_b)?);
    let mut agree = true;
    println!("A = {path_a} (base), B = {path_b}");
    for workload in WORKLOADS {
        println!("{workload}");
        for m in END_TO_END {
            let key = (workload.to_owned(), m.name.to_owned());
            let (Some(va), Some(vb)) = (a.timings.get(&key), b.timings.get(&key)) else {
                println!("  {:<13} missing from a set", m.name);
                agree = false;
                continue;
            };
            let (verdict, ratio, spread) = verdict(va, vb, m.bound, m.better);
            agree &= verdict != "worse";
            println!(
                "  {:<13} A {:>10.4} {unit} (n={})  B {:>10.4} {unit} (n={})  B/A {ratio:.4} \
                 of {:.4} {unit}  spread {spread:.4}  bound {:.2}  {verdict}",
                m.name,
                stats::median(va),
                va.len(),
                stats::median(vb),
                vb.len(),
                stats::median(va),
                m.bound,
                unit = m.unit,
            );
        }
    }
    let mut compared = 0;
    for (key, va) in &a.counts {
        if let Some(vb) = b.counts.get(key) {
            compared += 1;
            if va.to_bits() != vb.to_bits() {
                agree = false;
                println!(
                    "count differs: {} seed {} {}: A {va} B {vb}",
                    key.0, key.1, key.2
                );
            }
        }
    }
    println!("counts and accuracy metrics compared at equal seeds: {compared}, all must be equal");
    for (name, set) in [("A", &a), ("B", &b)] {
        println!("{name}: ops_failed {} of ops {}", set.failed, set.attempted);
        agree &= set.failed == 0;
    }
    Ok(agree)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_follow_the_bound_and_the_spread() {
        let steady = [10.0, 10.1, 9.9, 10.0, 10.05];
        let slower = [11.5, 11.6, 11.4, 11.5, 11.55];
        let noisy = [8.0, 12.0, 10.0, 9.0, 11.0];
        assert_eq!(verdict(&steady, &steady, 0.10, LOWER).0, "same");
        assert_eq!(verdict(&steady, &slower, 0.10, LOWER).0, "worse");
        // A faster candidate is not a regression.
        assert_eq!(verdict(&slower, &steady, 0.10, LOWER).0, "same");
        assert_eq!(verdict(&slower, &steady, 0.10, "higher").0, "worse");
        assert_eq!(verdict(&steady, &noisy, 0.10, LOWER).0, "unresolved");
        let (_, ratio, _) = verdict(&steady, &slower, 0.10, LOWER);
        assert!((ratio - 1.15).abs() < 1e-9);
    }

    #[test]
    fn counts_are_told_from_timings() {
        assert!(is_count("sim.dispatched_events"));
        assert!(is_count("sim.send_bytes"));
        assert!(is_count("cohort_peak_err"));
        assert!(is_count("workload.cohort_avail_err_dht"));
        assert!(!is_count("wall_s"));
        assert!(!is_count("sim.events_per_s"));
    }
}
