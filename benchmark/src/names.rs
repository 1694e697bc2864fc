//! Every metric the benchmark can print, with its unit and direction.
//! `BENCHMARK.json` lists the same rows; a unit test holds the two equal.

pub const LOWER: &str = "lower";
pub const HIGHER: &str = "higher";

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
}

/// What a user of the simulator sees of one run; printed with `--trace 0`.
pub const END_TO_END: &[EndToEnd] = &[
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: LOWER,
        bound: 0.25,
    },
    EndToEnd {
        name: "wall_s",
        unit: "s",
        better: LOWER,
        bound: 0.25,
    },
    EndToEnd {
        name: "cpu_s",
        unit: "s",
        better: LOWER,
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mib",
        unit: "MiB",
        better: LOWER,
        bound: 0.15,
    },
];

/// `(name, unit, better)`; printed with `--trace 1`. A metric of a layer
/// the workload never enters reads 0.
pub const PER_LAYER: &[(&str, &str, &str)] = &[
    // Accuracy of the cohort shortcut against the exact per-user model
    // (`exact_users` only).
    ("cohort_peak_err", "ratio", LOWER),
    ("cohort_avail_err", "ratio", LOWER),
    // sim
    ("sim.engine.ring_flood_events_per_s", "1/s", HIGHER),
    ("sim.engine.timer_storm_events_per_s", "1/s", HIGHER),
    ("sim.net.bulk_backlog_events_per_s", "1/s", HIGHER),
    ("sim.engine.kad_day_events_per_s", "1/s", HIGHER),
    ("sim.shard.kad_day_speedup", "ratio", HIGHER),
    ("sim.shard.cores", "count", HIGHER),
    ("sim.shard.barrier_stalls", "count", LOWER),
    ("sim.shard.absorbed_events", "count", LOWER),
    ("sim.dispatched_events", "count", LOWER),
    ("sim.events_per_s", "1/s", HIGHER),
    ("sim.sends", "count", LOWER),
    ("sim.send_bytes", "bytes", LOWER),
    ("sim.drops", "count", LOWER),
    ("sim.timer_fires", "count", LOWER),
    ("sim.sims_built", "count", LOWER),
    ("sim.trace.overhead_ratio", "ratio", LOWER),
    ("sim.metrics.hist_record_per_s", "1/s", HIGHER),
    // web
    ("web.swarm_day_s", "s", LOWER),
    ("web.pieces_served", "count", LOWER),
    ("web.visits_ok", "count", HIGHER),
    // dht
    ("dht.day_s", "s", LOWER),
    ("dht.exact_10k_s", "s", LOWER),
    ("dht.lookups", "count", LOWER),
    ("dht.stores_received", "count", LOWER),
    // storage
    ("storage.e8_s", "s", LOWER),
    ("storage.market_i0_s", "s", LOWER),
    ("storage.market_i1_s", "s", LOWER),
    ("storage.proofs_e5_s", "s", LOWER),
    ("storage.rs42_encode_mib_s", "MiB/s", HIGHER),
    ("storage.rs42_reconstruct_mib_s", "MiB/s", HIGHER),
    ("storage.day_s", "s", LOWER),
    ("storage.exact_2k_s", "s", LOWER),
    ("storage.audits_sent", "count", LOWER),
    ("storage.market_challenges", "count", LOWER),
    // crypto
    ("crypto.sha256_mib_s", "MiB/s", HIGHER),
    ("crypto.merkle_build_leaves_per_s", "1/s", HIGHER),
    // chain
    ("chain.e9_s", "s", LOWER),
    ("chain.mine_hashes_per_s", "1/s", HIGHER),
    // naming
    ("naming.e1_s", "s", LOWER),
    // comm
    ("comm.e3_s", "s", LOWER),
    ("comm.deliveries", "count", LOWER),
    // app
    ("app.e18_s", "s", LOWER),
    ("app.merge_1024_ops_per_s", "1/s", HIGHER),
    ("app.deltas", "count", LOWER),
    // workload
    ("workload.compile_1m_s", "s", LOWER),
    ("workload.compile_exact_10k_s", "s", LOWER),
    ("workload.schedule_events", "count", LOWER),
    ("workload.demands", "count", LOWER),
    ("workload.cohort_peak_err_dht", "ratio", LOWER),
    ("workload.cohort_peak_err_storage", "ratio", LOWER),
    ("workload.cohort_avail_err_dht", "ratio", LOWER),
    ("workload.cohort_avail_err_storage", "ratio", LOWER),
    ("workload.cohort_busiest_err_dht", "ratio", LOWER),
    // policy / observer
    ("policy.on_ratio_swarm", "ratio", LOWER),
    ("policy.on_ratio_dht", "ratio", LOWER),
    ("policy.engages", "count", HIGHER),
    ("observer.anomalies", "count", LOWER),
    // core
    ("core.e16_s", "s", LOWER),
    ("core.e16p_s", "s", LOWER),
    ("core.pass_self_s", "s", LOWER),
    // harness
    ("harness.baseline_parse_s", "s", LOWER),
    ("harness.build_trials_s", "s", LOWER),
    ("harness.run_to_json_s", "s", LOWER),
    ("harness.diff_s", "s", LOWER),
    ("harness.pool_speedup_2t", "ratio", HIGHER),
];

/// Per-layer time metric fed by the span of the op with this name.
pub const OP_TIME_METRICS: &[(&str, &str)] = &[
    ("e16/p1m", "core.e16_s"),
    ("e16p/p10k", "core.e16p_s"),
    ("e18/p1m", "app.e18_s"),
    ("e8/default", "storage.e8_s"),
    ("e17/i0.00", "storage.market_i0_s"),
    ("e17/i1.00", "storage.market_i1_s"),
    ("e5/default", "storage.proofs_e5_s"),
    ("e9/default", "chain.e9_s"),
    ("e1/default", "naming.e1_s"),
    ("e3/f0.20", "comm.e3_s"),
    ("exact/dht.exact", "dht.exact_10k_s"),
    ("exact/storage.exact", "storage.exact_2k_s"),
];

#[cfg(test)]
mod tests {
    use super::*;
    use agora_harness::Json;

    fn well_formed(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name.as_bytes()[0].is_ascii_alphanumeric()
            && name
                .bytes()
                .all(|b| b.is_ascii_alphanumeric() || b"_.-".contains(&b))
    }

    fn field<'a>(row: &'a Json, key: &str) -> &'a str {
        row.get(key)
            .and_then(Json::as_str)
            .unwrap_or_else(|| panic!("{key} missing in {row}"))
    }

    fn rows<'a>(doc: &'a Json, key: &str) -> &'a [Json] {
        match doc.get(key) {
            Some(Json::Arr(rows)) => rows,
            _ => panic!("BENCHMARK.json has no {key} array"),
        }
    }

    #[test]
    fn names_are_well_formed_and_used_once() {
        let mut all: Vec<&str> = END_TO_END.iter().map(|m| m.name).collect();
        all.extend(PER_LAYER.iter().map(|m| m.0));
        all.extend(crate::ops::WORKLOADS);
        for name in &all {
            assert!(well_formed(name), "{name}");
        }
        let n = all.len();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), n, "a name is used twice");
        for (_, metric) in OP_TIME_METRICS {
            assert!(PER_LAYER.iter().any(|m| m.0 == *metric), "{metric}");
        }
    }

    #[test]
    fn benchmark_json_lists_exactly_these_names() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = agora_harness::read_json_file(path).expect("BENCHMARK.json parses");

        let listed: Vec<&str> = rows(&doc, "workloads")
            .iter()
            .map(|w| field(w, "name"))
            .collect();
        assert_eq!(listed, crate::ops::WORKLOADS);

        let e2e = rows(&doc, "end_to_end");
        assert_eq!(e2e.len(), END_TO_END.len());
        for (row, m) in e2e.iter().zip(END_TO_END) {
            assert_eq!(field(row, "name"), m.name);
            assert_eq!(field(row, "unit"), m.unit, "{}", m.name);
            assert_eq!(field(row, "better"), m.better, "{}", m.name);
            assert_eq!(row.get("bound").and_then(Json::as_f64), Some(m.bound));
        }

        let layers = rows(&doc, "per_layer");
        assert_eq!(layers.len(), PER_LAYER.len());
        for (row, m) in layers.iter().zip(PER_LAYER) {
            assert_eq!(field(row, "name"), m.0);
            assert_eq!(field(row, "unit"), m.1, "{}", m.0);
            assert_eq!(field(row, "better"), m.2, "{}", m.0);
        }
    }
}
