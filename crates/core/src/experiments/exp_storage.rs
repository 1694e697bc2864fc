//! E5 (storage proofs vs cheaters), E6 (durability design space) and
//! E8 (quality vs quantity of infrastructure).

use agora_sim::{DeviceClass, Metrics, NodeId, SimDuration, SimRng, Simulation};
use agora_storage::{
    discard_detection_probability, play_porep_game, simulate_durability, AttackEnv, CheatStrategy,
    DurabilityParams, ProviderStrategy, SealedReplicas, StorageNode, StorageResult,
};
use agora_workload::StorageLoad;

use super::{metric_key_segment, Report, VariantStats};

/// The pinned paper-default storage load (values are part of the
/// checked-in baseline contract — see `agora_workload::load`).
const LOAD: StorageLoad = StorageLoad::paper_default();

/// Kept-shard fractions of the ack-then-discard detection curve.
const KEEP_FRACTIONS: [f64; 5] = [1.0, 0.9, 0.5, 0.1, 0.0];

/// E5's key segment for a cheating strategy.
fn porep_key(s: CheatStrategy) -> String {
    format!("e5.porep_pass.{}", metric_key_segment(&format!("{s:?}")))
}

/// E5: play every §3.3 cheating strategy against the proof schemes, then
/// confirm the full network protocol detects and repairs a real cheater.
/// Keys `e5.*`.
pub fn e5_metrics(seed: u64) -> Metrics {
    let mut m = Metrics::new();
    let mut rng = SimRng::new(seed);
    // Scaled sealing environment (same deadline-to-seal ratio as a 64 MB
    // production sector; see agora-storage::attacks tests).
    let mut env = AttackEnv::default();
    env.seal.seal_throughput_bps = 50_000;
    env.seal.response_deadline = SimDuration::from_secs(1);
    // The three claimed replicas are sealed and chunked once; every strategy
    // plays against the same published commitments.
    let replicas = SealedReplicas::new(&vec![0xabu8; LOAD.seal_probe_bytes], 3, &env.seal);

    for s in CheatStrategy::all() {
        let r = play_porep_game(s, &replicas, 120, &env, &mut rng);
        m.gauge_set(&porep_key(s), r.pass_rate);
    }
    for keep in KEEP_FRACTIONS {
        m.gauge_set(
            &format!("e5.discard_detect.k{keep:.2}"),
            discard_detection_probability(keep, 20),
        );
    }

    // Live protocol: 6 providers, one discards; audits + repair.
    let mut sim = Simulation::new(seed);
    let mut providers = Vec::new();
    for i in 0..6 {
        let strategy = if i == 0 {
            ProviderStrategy::DiscardAfterAck
        } else {
            ProviderStrategy::Honest
        };
        providers.push(sim.add_node(
            StorageNode::provider(strategy),
            DeviceClass::PersonalComputer,
        ));
    }
    let client = sim.add_node(
        StorageNode::client(providers.clone(), SimDuration::from_secs(30)),
        DeviceClass::PersonalComputer,
    );
    let data2 = vec![7u8; LOAD.audit_object_bytes];
    sim.with_ctx(client, |n, ctx| n.start_put(ctx, &data2, 4, 2));
    sim.run_for(SimDuration::from_mins(20));

    m.incr(
        "e5.protocol_audit_failures",
        sim.metrics().counter("storage.audit_fail")
            + sim.metrics().counter("storage.audit_timeout"),
    );
    m.incr(
        "e5.protocol_repairs",
        sim.metrics().counter("storage.repairs_completed"),
    );
    m
}

/// E5's report from its one variant.
pub fn e5_report(variants: &[VariantStats]) -> Report {
    let v = &variants[0];
    let mut body = String::from("Proof-of-replication challenge game (3 claimed replicas):\n");
    for s in CheatStrategy::all() {
        body.push_str(&format!(
            "  {:<34} pass rate {:>5.1}%\n",
            s.label(),
            v.mean(&porep_key(s)) * 100.0
        ));
    }
    body.push_str("\nAck-then-discard detection after 20 retrievability audits:\n");
    for keep in KEEP_FRACTIONS {
        body.push_str(&format!(
            "  keeps {:>4.0}% of shards → detected with p = {:.4}\n",
            keep * 100.0,
            v.mean(&format!("e5.discard_detect.k{keep:.2}"))
        ));
    }
    body.push_str(&format!(
        "\nLive protocol (1 discarding provider of 6): {:.1} audit failures, {:.1} repairs completed\n",
        v.mean("e5.protocol_audit_failures"),
        v.mean("e5.protocol_repairs")
    ));
    Report {
        id: "E5",
        title: "Storage proofs vs Sybil / outsourcing / generation attacks",
        claim: "proof-of-replication defeats storing-once-under-many-\
                identities, fetching-from-others and generating-on-demand \
                (§3.3); audits catch discarders and incentives keep nodes \
                honest",
        body,
    }
}

/// E6's codes: label, data shards k, parity shards m.
const E6_CODES: [(&str, u32, u32); 5] = [
    ("replication x2 (k=1,m=1)", 1, 1),
    ("replication x3 (k=1,m=2)", 1, 2),
    ("RS(4,2)  1.5x overhead", 4, 2),
    ("RS(4,8)  3.0x overhead", 4, 8),
    ("RS(10,20) 3.0x overhead", 10, 20),
];
/// E6's repair cadences in days.
const E6_REPAIR_DAYS: [f64; 2] = [1.0, 14.0];

/// E6's row label for a code at a repair cadence, and its key prefix.
fn e6_row(label: &str, repair_days: f64) -> (String, String) {
    let row = format!("{label}, repair every {repair_days:>4.0} d");
    let key = format!("e6.{}", metric_key_segment(&row));
    (row, key)
}

/// E6: the §3.3 design space — replica counts vs erasure codes vs repair
/// cadence, under correlated failures. Keys `e6.<row>.*`.
pub fn e6_metrics(seed: u64) -> Metrics {
    let mut rng = SimRng::new(seed);
    let mut m = Metrics::new();
    for (label, k, parity) in E6_CODES {
        for repair_days in E6_REPAIR_DAYS {
            let params = DurabilityParams {
                k,
                m: parity,
                provider_mttf_days: 60.0,
                repair_interval_days: repair_days,
                correlated_event_prob: 0.01,
                correlated_severity: 0.3,
                horizon_days: 365.0,
            };
            let r = simulate_durability(&params, 4000, &mut rng);
            let (_, key) = e6_row(label, repair_days);
            m.gauge_set(&format!("{key}.overhead"), r.storage_overhead);
            m.gauge_set(&format!("{key}.survival"), r.survival_rate);
            m.gauge_set(
                &format!("{key}.repair_per_object_year"),
                r.repair_transfers_per_object_year,
            );
        }
    }
    m
}

/// E6's report from its one variant.
pub fn e6_report(variants: &[VariantStats]) -> Report {
    let v = &variants[0];
    let mut body = format!(
        "{:<40} {:>9} {:>10} {:>12}\n",
        "configuration", "overhead", "survival", "repairs/obj-yr"
    );
    for (label, _, _) in E6_CODES {
        for repair_days in E6_REPAIR_DAYS {
            let (row, key) = e6_row(label, repair_days);
            body.push_str(&format!(
                "{:<40} {:>8.1}x {:>9.4} {:>12.1}\n",
                row,
                v.mean(&format!("{key}.overhead")),
                v.mean(&format!("{key}.survival")),
                v.mean(&format!("{key}.repair_per_object_year"))
            ));
        }
    }
    Report {
        id: "E6",
        title: "Durability design space (replication vs erasure, repair cadence)",
        claim: "storage design decisions involve inherent trade-offs among \
                durability, availability, consistency, and performance \
                (§3.3)",
        body,
    }
}

fn run_storage_quality(
    seed: u64,
    class: DeviceClass,
    churn: bool,
    k: usize,
    m: usize,
    gets: usize,
) -> (f64, f64) {
    let n_providers = (k + m) * 2;
    let mut sim = Simulation::new(seed);
    let mut providers: Vec<NodeId> = Vec::new();
    for _ in 0..n_providers {
        let id = sim.add_node(StorageNode::provider(ProviderStrategy::Honest), class);
        if churn {
            sim.enable_churn(id);
        }
        providers.push(id);
    }
    let client = sim.add_node(
        StorageNode::client(providers, SimDuration::from_secs(60)),
        DeviceClass::PersonalComputer,
    );
    let data = vec![5u8; LOAD.object_bytes];
    let (_, object) = sim
        .with_ctx(client, |n, ctx| n.start_put(ctx, &data, k, m))
        .expect("client up");
    sim.run_for(SimDuration::from_mins(5));
    let mut ok = 0usize;
    let mut latencies = Vec::new();
    for _ in 0..gets {
        let started = sim.now();
        let Some(op) = sim.with_ctx(client, |n, ctx| n.start_get(ctx, object)) else {
            continue;
        };
        // Step in 100 ms increments so the completion time is observed at
        // event granularity rather than at a fixed polling horizon.
        for _ in 0..3600 {
            sim.run_for(SimDuration::from_millis(100));
            match sim.node_mut(client).take_result(op) {
                Some(StorageResult::Retrieved(_)) => {
                    ok += 1;
                    latencies.push(sim.now().since(started).secs_f64());
                    break;
                }
                Some(_) => break,
                None => {}
            }
        }
        sim.run_for(SimDuration::from_mins(10)); // let churn move between gets
    }
    latencies.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    let p50 = latencies
        .get(latencies.len() / 2)
        .copied()
        .unwrap_or(f64::NAN);
    (ok as f64 / gets as f64, p50)
}

/// E8: the same storage workload on datacenter-class infrastructure vs
/// churning consumer devices, and the redundancy needed to compensate.
/// Keys `e8.*`.
pub fn e8_metrics(seed: u64) -> Metrics {
    let gets = LOAD.gets;
    let (dc_ok, dc_p50) =
        run_storage_quality(seed, DeviceClass::DatacenterServer, false, 4, 2, gets);
    let (dev_lo, _) =
        run_storage_quality(seed + 1, DeviceClass::PersonalComputer, true, 4, 2, gets);
    let (dev_hi, dev_p50) =
        run_storage_quality(seed + 2, DeviceClass::PersonalComputer, true, 4, 8, gets);
    let mut m = Metrics::new();
    m.gauge_set("e8.datacenter_success", dc_ok);
    m.gauge_set("e8.device_success_low", dev_lo);
    m.gauge_set("e8.device_success_high", dev_hi);
    m.gauge_set("e8.datacenter_p50_secs", dc_p50);
    m.gauge_set("e8.device_p50_secs", dev_p50);
    m
}

/// E8's report from its one variant.
pub fn e8_report(variants: &[VariantStats]) -> Report {
    let v = &variants[0];
    let body = format!(
        "Same 1 MB object, RS-coded, audited & repaired; get success over a churning day:\n\
         \x20 datacenter providers, RS(4,2)      : {:>5.1}% success, p50 {:>7.3} s\n\
         \x20 consumer devices,    RS(4,2)       : {:>5.1}% success\n\
         \x20 consumer devices,    RS(4,8)       : {:>5.1}% success, p50 {:>7.3} s\n\
         Quantity can substitute for quality only by spending redundancy \
         (and the paper's 'intermittency, higher failure rates, variable \
         performance' shows up as the latency gap).\n",
        v.mean("e8.datacenter_success") * 100.0,
        v.mean("e8.datacenter_p50_secs"),
        v.mean("e8.device_success_low") * 100.0,
        v.mean("e8.device_success_high") * 100.0,
        v.mean("e8.device_p50_secs"),
    );
    Report {
        id: "E8",
        title: "Infrastructure quality vs quantity",
        claim: "user-device capacity is plentiful but much poorer than a \
                datacenter's; systems must cope with intermittency, \
                failures and variable performance (§4, §5.2)",
        body,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e5_detection_matrix() {
        let m = e5_metrics(41);
        let get = |s: CheatStrategy| m.gauge(&porep_key(s));
        assert_eq!(get(CheatStrategy::Honest), 1.0);
        assert_eq!(get(CheatStrategy::Outsource), 0.0);
        assert_eq!(get(CheatStrategy::Generation), 0.0);
        let sybil = get(CheatStrategy::Sybil);
        assert!(sybil > 0.2 && sybil < 0.5, "sybil {sybil}");
        assert!(m.counter("e5.protocol_audit_failures") >= 1);
        assert!(m.counter("e5.protocol_repairs") >= 1);
    }

    #[test]
    fn e6_shapes() {
        let m = e6_metrics(43);
        let survival = |label: &str, days: f64| {
            let (_, key) = e6_row(label, days);
            m.gauge(&format!("{key}.survival"))
        };
        // Fast repair always beats slow repair at the same code.
        for (label, _, _) in E6_CODES {
            assert!(
                survival(label, 1.0) >= survival(label, 14.0),
                "daily repair should not lose to fortnightly: {label}"
            );
        }
        // RS(4,8) with daily repair is highly durable and beats 3x
        // replication at the same overhead.
        let rs48 = survival(E6_CODES[3].0, 1.0);
        let repl3 = survival(E6_CODES[1].0, 1.0);
        assert!(rs48 > 0.98, "{rs48}");
        assert!(rs48 >= repl3, "rs48 {rs48} vs repl3 {repl3}");
    }

    #[test]
    fn e8_quality_gap() {
        let m = e8_metrics(47);
        assert!(m.gauge("e8.datacenter_success") >= 0.99, "{m}");
        // Extra redundancy must not hurt.
        assert!(
            m.gauge("e8.device_success_high") >= m.gauge("e8.device_success_low"),
            "{m}"
        );
        // Devices are slower than datacenters (1 Mbps uplinks moving 50 KB
        // shards vs 10 Gbps pipes).
        assert!(
            m.gauge("e8.device_p50_secs") > m.gauge("e8.datacenter_p50_secs"),
            "{m}"
        );
    }
}
