//! Fast Monte-Carlo durability model for the §3.3 design space (experiment
//! E6): replication factor vs erasure-code parameters vs repair cadence,
//! under independent and correlated provider failures.
//!
//! This deliberately abstracts away the message layer (the full protocol
//! lives in [`crate::node`]) so parameter sweeps over thousands of
//! object-years run in milliseconds.

use agora_sim::{Bernoulli, SimRng};

/// Parameters of one durability scenario.
#[derive(Clone, Copy, Debug)]
pub struct DurabilityParams {
    /// Data shards (k). Replication r is `k = 1, m = r − 1`.
    pub k: u32,
    /// Parity shards (m). Object is lost if more than `m` shards are dead at
    /// once.
    pub m: u32,
    /// Mean time to failure of one shard's provider, in days.
    pub provider_mttf_days: f64,
    /// Repair check interval in days (lost shards found & re-placed then).
    pub repair_interval_days: f64,
    /// Probability per repair interval of a *correlated* event killing each
    /// shard independently with `correlated_severity`.
    pub correlated_event_prob: f64,
    /// Per-shard death probability during a correlated event.
    pub correlated_severity: f64,
    /// Simulated horizon in days.
    pub horizon_days: f64,
}

impl Default for DurabilityParams {
    fn default() -> DurabilityParams {
        DurabilityParams {
            k: 4,
            m: 2,
            provider_mttf_days: 60.0,
            repair_interval_days: 1.0,
            correlated_event_prob: 0.0,
            correlated_severity: 0.0,
            horizon_days: 365.0,
        }
    }
}

/// Outcome of a durability sweep.
#[derive(Clone, Copy, Debug)]
pub struct DurabilityResult {
    /// Fraction of objects surviving the horizon.
    pub survival_rate: f64,
    /// Mean repairs per object over the horizon.
    pub repairs_per_object: f64,
    /// Repair traffic in shard-transfers per object-year.
    pub repair_transfers_per_object_year: f64,
    /// Storage overhead factor of the chosen code.
    pub storage_overhead: f64,
}

/// Simulate `objects` independent objects under the given parameters.
///
/// Discrete time in repair intervals: shards die by exponential failure
/// (rate = interval / mttf) plus correlated events; at each interval's end,
/// dead shards are repaired *if* at least `k` shards survive. An object is
/// lost permanently once fewer than `k` shards remain simultaneously.
///
/// Every shard is alive at the top of an interval — new, or repaired at the
/// end of the last one — so an interval's whole state is how many died in
/// it: `k + m` failure draws, one event draw, one severity draw per shard
/// still standing, in that order.
pub fn simulate_durability(
    params: &DurabilityParams,
    objects: u32,
    rng: &mut SimRng,
) -> DurabilityResult {
    let n = params.k + params.m;
    let steps = (params.horizon_days / params.repair_interval_days).ceil() as u64;
    let p_fail = 1.0 - (-params.repair_interval_days / params.provider_mttf_days).exp();
    let fail = Bernoulli::new(p_fail);
    let event = Bernoulli::new(params.correlated_event_prob);
    let severity = Bernoulli::new(params.correlated_severity);

    let mut survived = 0u32;
    let mut total_repairs = 0u64;
    'objects: for _ in 0..objects {
        for _ in 0..steps {
            let mut dead = deaths(fail, n, rng);
            // The `> 0.0` is the per-shard loop's own guard, kept so that a
            // NaN event probability still draws nothing.
            if params.correlated_event_prob > 0.0 && event.sample(rng) {
                dead += deaths(severity, n - dead, rng);
            }
            if n - dead < params.k {
                continue 'objects; // lost for good
            }
            // Repair everything dead (reconstruction possible: live ≥ k).
            total_repairs += dead as u64;
        }
        survived += 1;
    }
    let years = params.horizon_days / 365.0;
    DurabilityResult {
        survival_rate: survived as f64 / objects as f64,
        repairs_per_object: total_repairs as f64 / objects as f64,
        repair_transfers_per_object_year: total_repairs as f64 / objects as f64 / years,
        storage_overhead: (params.k + params.m) as f64 / params.k as f64,
    }
}

/// How many of `shards` die, one draw of `death` each.
fn deaths(death: Bernoulli, shards: u32, rng: &mut SimRng) -> u32 {
    (0..shards).map(|_| death.sample(rng) as u32).sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The model one shard at a time, as it was first written: the oracle
    /// the dead-count kernel is held to, draw for draw.
    fn simulate_per_shard(
        params: &DurabilityParams,
        objects: u32,
        rng: &mut SimRng,
    ) -> DurabilityResult {
        let n = (params.k + params.m) as usize;
        let steps = (params.horizon_days / params.repair_interval_days).ceil() as u64;
        let p_fail = 1.0 - (-params.repair_interval_days / params.provider_mttf_days).exp();
        let mut survived = 0u32;
        let mut total_repairs = 0u64;
        for _ in 0..objects {
            let mut alive = vec![true; n];
            let mut lost = false;
            for _ in 0..steps {
                for a in alive.iter_mut() {
                    if *a && rng.chance(p_fail) {
                        *a = false;
                    }
                }
                if params.correlated_event_prob > 0.0 && rng.chance(params.correlated_event_prob) {
                    for a in alive.iter_mut() {
                        if *a && rng.chance(params.correlated_severity) {
                            *a = false;
                        }
                    }
                }
                let live = alive.iter().filter(|&&a| a).count() as u32;
                if live < params.k {
                    lost = true;
                    break;
                }
                let dead = n as u32 - live;
                if dead > 0 {
                    total_repairs += dead as u64;
                    for a in alive.iter_mut() {
                        *a = true;
                    }
                }
            }
            if !lost {
                survived += 1;
            }
        }
        let years = params.horizon_days / 365.0;
        DurabilityResult {
            survival_rate: survived as f64 / objects as f64,
            repairs_per_object: total_repairs as f64 / objects as f64,
            repair_transfers_per_object_year: total_repairs as f64 / objects as f64 / years,
            storage_overhead: (params.k + params.m) as f64 / params.k as f64,
        }
    }

    #[test]
    fn dead_count_kernel_is_the_per_shard_loop_draw_for_draw() {
        let mut cells = 0;
        for (k, m) in [(1, 0), (1, 2), (4, 2), (10, 20)] {
            for repair_interval_days in [0.5, 1.0, 14.0, 365.0] {
                for correlated_event_prob in [0.0, 0.01, 1.0] {
                    for correlated_severity in [0.0, 0.3, 1.0] {
                        // At an mttf of 0.01 days `p_fail` rounds to 1.
                        for provider_mttf_days in [60.0, 0.01] {
                            for objects in [0, 1, 500] {
                                let params = DurabilityParams {
                                    k,
                                    m,
                                    provider_mttf_days,
                                    repair_interval_days,
                                    correlated_event_prob,
                                    correlated_severity,
                                    horizon_days: 365.0,
                                };
                                let mut rng = SimRng::new(cells);
                                let mut oracle_rng = rng.clone();
                                let got = simulate_durability(&params, objects, &mut rng);
                                let want = simulate_per_shard(&params, objects, &mut oracle_rng);
                                let at = format!("{params:?} objects {objects}");
                                for (g, w) in [
                                    (got.survival_rate, want.survival_rate),
                                    (got.repairs_per_object, want.repairs_per_object),
                                    (
                                        got.repair_transfers_per_object_year,
                                        want.repair_transfers_per_object_year,
                                    ),
                                    (got.storage_overhead, want.storage_overhead),
                                ] {
                                    assert_eq!(g.to_bits(), w.to_bits(), "{at}");
                                }
                                assert_eq!(rng.next_u64(), oracle_rng.next_u64(), "{at}");
                                cells += 1;
                            }
                        }
                    }
                }
            }
        }
        assert_eq!(cells, 4 * 4 * 3 * 3 * 2 * 3);
    }

    #[test]
    fn frequent_repair_yields_high_durability() {
        let mut rng = SimRng::new(1);
        let params = DurabilityParams {
            repair_interval_days: 0.5,
            ..DurabilityParams::default()
        };
        let r = simulate_durability(&params, 3000, &mut rng);
        assert!(r.survival_rate > 0.98, "rate {}", r.survival_rate);
    }

    #[test]
    fn no_repair_loses_data() {
        let mut rng = SimRng::new(2);
        let params = DurabilityParams {
            repair_interval_days: 365.0, // one check at the very end
            ..DurabilityParams::default()
        };
        let r = simulate_durability(&params, 2000, &mut rng);
        assert!(r.survival_rate < 0.5, "rate {}", r.survival_rate);
    }

    #[test]
    fn more_parity_more_durable() {
        let mut rng = SimRng::new(3);
        let weak = simulate_durability(
            &DurabilityParams {
                k: 4,
                m: 1,
                repair_interval_days: 20.0,
                ..Default::default()
            },
            3000,
            &mut rng,
        );
        let strong = simulate_durability(
            &DurabilityParams {
                k: 4,
                m: 4,
                repair_interval_days: 20.0,
                ..Default::default()
            },
            3000,
            &mut rng,
        );
        assert!(strong.survival_rate > weak.survival_rate);
        assert!(strong.storage_overhead > weak.storage_overhead);
    }

    #[test]
    fn erasure_beats_replication_at_equal_overhead() {
        // 3× replication (k=1, m=2) vs RS(4, 8): same 3× overhead, but the
        // code tolerates 8 concurrent losses instead of 2.
        let mut rng = SimRng::new(4);
        let repl = simulate_durability(
            &DurabilityParams {
                k: 1,
                m: 2,
                repair_interval_days: 30.0,
                provider_mttf_days: 45.0,
                ..Default::default()
            },
            4000,
            &mut rng,
        );
        let ec = simulate_durability(
            &DurabilityParams {
                k: 4,
                m: 8,
                repair_interval_days: 30.0,
                provider_mttf_days: 45.0,
                ..Default::default()
            },
            4000,
            &mut rng,
        );
        assert_eq!(repl.storage_overhead, ec.storage_overhead);
        assert!(
            ec.survival_rate > repl.survival_rate,
            "ec {} vs repl {}",
            ec.survival_rate,
            repl.survival_rate
        );
    }

    #[test]
    fn correlated_failures_hurt() {
        let mut rng = SimRng::new(5);
        let base = DurabilityParams {
            k: 4,
            m: 2,
            repair_interval_days: 7.0,
            ..Default::default()
        };
        let indep = simulate_durability(&base, 3000, &mut rng);
        let correlated = simulate_durability(
            &DurabilityParams {
                correlated_event_prob: 0.02,
                correlated_severity: 0.5,
                ..base
            },
            3000,
            &mut rng,
        );
        assert!(
            correlated.survival_rate < indep.survival_rate,
            "correlated {} vs indep {}",
            correlated.survival_rate,
            indep.survival_rate
        );
    }

    #[test]
    fn repair_traffic_reported() {
        let mut rng = SimRng::new(6);
        let r = simulate_durability(&DurabilityParams::default(), 500, &mut rng);
        assert!(r.repairs_per_object > 0.0);
        assert!(r.repair_transfers_per_object_year >= r.repairs_per_object);
    }
}
