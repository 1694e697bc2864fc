//! The harness determinism contract: thread count is a pure performance
//! knob. The JSON artifact — trials, metrics, aggregates — must be
//! byte-identical at 1, 2, and 8 worker threads, and re-runs with the same
//! root seed must reproduce it exactly.

use agora_harness::{registry, run_matrix, run_to_json, trial_seed, MatrixConfig};

/// A light sub-matrix (the sim-heavy e5/e6/e8/e9 are covered by the full
/// binary run; the contract is the same either way).
fn light_config(threads: usize) -> MatrixConfig {
    MatrixConfig {
        root_seed: 99,
        seeds_per_variant: 2,
        threads,
        filter: Some(
            [
                "e1", "e2", "e3", "e4", "e7", "e10", "e11", "e12", "e13", "e14",
            ]
            .iter()
            .map(|s| (*s).to_owned())
            .collect(),
        ),
    }
}

#[test]
fn artifact_is_byte_identical_at_1_2_and_8_threads() {
    let reg = registry();
    let one = run_to_json(&run_matrix(&reg, &light_config(1))).render();
    let two = run_to_json(&run_matrix(&reg, &light_config(2))).render();
    let eight = run_to_json(&run_matrix(&reg, &light_config(8))).render();
    assert_eq!(one, two, "1-thread vs 2-thread artifacts differ");
    assert_eq!(two, eight, "2-thread vs 8-thread artifacts differ");
}

/// The policy-on E16 variants extend the contract to the reactive-control
/// plane: every policy decision (shed, cache toggle, replication, seeder
/// activation) happens at a drain boundary off probe-frame state, so the
/// artifact — including the `policy.*` action counters — must not know how
/// many harness threads ran it.
fn policy_config(threads: usize) -> MatrixConfig {
    MatrixConfig {
        root_seed: 99,
        seeds_per_variant: 2,
        threads,
        filter: Some(vec!["e16p/p10k".to_owned()]),
    }
}

#[test]
fn policy_artifact_is_byte_identical_at_1_and_8_threads() {
    let reg = registry();
    let one = run_to_json(&run_matrix(&reg, &policy_config(1))).render();
    let eight = run_to_json(&run_matrix(&reg, &policy_config(8))).render();
    assert_eq!(
        one, eight,
        "policy-on artifact differs across thread counts"
    );
    assert!(
        one.contains("e16.policy.dht_shed.shed") && one.contains("e16.policy.storage_replicate"),
        "policy variant artifact should carry policy action counters"
    );
}

/// The E18 app variants extend the contract to the delta-sync substrate:
/// subscriber sets, push fan-out, and merge order all iterate sorted
/// structures, so the artifact — delta-lag staleness included — must not
/// know how many harness threads ran it.
fn app_config(threads: usize) -> MatrixConfig {
    MatrixConfig {
        root_seed: 99,
        seeds_per_variant: 2,
        threads,
        filter: Some(vec!["e18/p10k".to_owned()]),
    }
}

#[test]
fn app_artifact_is_byte_identical_at_1_and_8_threads() {
    let reg = registry();
    let one = run_to_json(&run_matrix(&reg, &app_config(1))).render();
    let eight = run_to_json(&run_matrix(&reg, &app_config(8))).render();
    assert_eq!(one, eight, "app artifact differs across thread counts");
    assert!(
        one.contains("e18.guestbook.contract.stale_p99_secs")
            && one.contains("e18.kv.central.peak_overload"),
        "app variant artifact should carry both modes' gauges"
    );
}

#[test]
fn all_trials_complete_and_keep_matrix_order() {
    let run = run_matrix(&registry(), &light_config(4));
    assert_eq!(run.failures(), 0, "no experiment should panic");
    for (i, o) in run.outcomes.iter().enumerate() {
        assert_eq!(o.spec.index, i);
        assert_eq!(o.spec.seed, trial_seed(99, i as u64));
    }
}

#[test]
fn derived_trial_seeds_are_unique() {
    let run = run_matrix(&registry(), &light_config(2));
    let mut seeds: Vec<u64> = run.outcomes.iter().map(|o| o.spec.seed).collect();
    let n = seeds.len();
    seeds.sort_unstable();
    seeds.dedup();
    assert_eq!(seeds.len(), n, "trial seed collision");
}

#[test]
fn different_root_seeds_change_results() {
    let reg = registry();
    let mut cfg_a = light_config(2);
    cfg_a.filter = Some(vec!["e2".to_owned()]);
    let mut cfg_b = cfg_a.clone();
    cfg_b.root_seed = 100;
    let a = run_to_json(&run_matrix(&reg, &cfg_a)).render();
    let b = run_to_json(&run_matrix(&reg, &cfg_b)).render();
    assert_ne!(a, b, "root seed must flow into trial results");
}

/// The checked-in artifact guard: a default-config run — at one worker
/// thread AND at eight — must reproduce `BENCH_harness.json` byte for byte.
/// This is the regression fence for every hot-path optimization (midstate
/// mining, packed event keys, multicast fan-out, cached link rates): any
/// change that perturbs even one RNG draw or one f64 rounding shows up here
/// as a diff against the committed bytes, not just as self-consistency.
#[test]
fn default_matrix_matches_checked_in_baseline_at_1_and_8_threads() {
    let checked_in = std::fs::read_to_string(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../BENCH_harness.json"
    ))
    .expect("checked-in BENCH_harness.json must exist at the repo root");
    let reg = registry();
    for threads in [1, 8] {
        let cfg = MatrixConfig {
            threads,
            ..MatrixConfig::default()
        };
        let rendered = run_to_json(&run_matrix(&reg, &cfg)).render();
        assert_eq!(
            rendered, checked_in,
            "{threads}-thread default run diverged from the committed baseline"
        );
    }
}
