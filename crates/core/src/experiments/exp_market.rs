//! E17: the storage market under fire — durability and repair traffic for
//! erasure coding vs plain replication across escalating chaos.
//!
//! §5's financing argument says decentralized storage dies because nobody
//! pays for durable capacity: providers churn, shards rot, and without an
//! audit/slashing loop the honest majority subsidizes the cheaters. E17
//! runs the live `agora-storage::market` subsystem — staked contracts, a
//! deterministic challenge oracle, slashing, reputation-ranked repair —
//! over a provider fleet containing discarding and partially-keeping
//! cheaters, under the same chaos intensities as E15. Three codecs
//! compete: RS(4, 2), RS(8, 4), and RS(1, 2) (replication as the k = 1
//! special case). The output is durability and repair-traffic curves; the
//! paper-facing claim is that erasure coding holds durability at a
//! fraction of replication's repair bytes, because each repair moves a
//! shard (object/k bytes), not a whole copy.
//!
//! A fourth, `agora-workload`-driven variant routes population-scale
//! demand at the market and answers requests only from *funded* contracts
//! (live stake, live provider, bytes in hand): availability then measures
//! the financing loop itself, not just the bytes.

use agora_sim::{
    AsymPartition, ChaosController, ChaosSpec, CrashWaves, DeviceClass, LinkFlaps, Metrics, NodeId,
    SimDuration, Simulation, Storm,
};
use agora_storage::{MarketSpec, ProviderStrategy, StorageMarket, StorageNode};
use agora_workload::{
    BoundedPareto, ChurnCurve, DemandModel, DiurnalCurve, LogNormalSessions, WorkloadDriver,
    WorkloadSpec, ZoneMix,
};

use super::{by_label, Report, VariantStats};

/// Provider fleet size: 4 of every 16 are cheaters (two discard after
/// ack, two keep ~70% of shards), so the audit loop has work to do even
/// at intensity 0.
const N_PROVIDERS: usize = 16;

/// One codec's point on the durability / repair-traffic curve.
#[derive(Clone, Copy, Debug)]
pub struct CodecPoint {
    /// Fraction of objects still reconstructible at the end of the run.
    pub durability: f64,
    /// Bytes re-uploaded by the repair actor (the write side).
    pub repair_bytes: u64,
    /// Bytes read from survivors to reconstruct (erasure amplification).
    pub repair_read_bytes: u64,
    /// Challenges the oracle opened.
    pub challenges: u64,
    /// Challenges that expired (slash events).
    pub slashes: u64,
    /// Total stake slashed to the auditor.
    pub stake_lost: u64,
    /// Objects declared unrecoverable.
    pub objects_lost: u64,
}

/// The three codecs, in seed, key and report order: key segment, label,
/// data shards k, parity shards m.
const CODECS: [(&str, &str, usize, usize); 3] = [
    ("rs42", "RS(4,2)", 4, 2),
    ("rs84", "RS(8,4)", 8, 4),
    ("rep", "RS(1,2)", 1, 2),
];

/// The E15 chaos schedule shape at a given intensity (same knobs, scaled
/// together; kept local so the two experiments can evolve independently).
fn spec_for(intensity: f64) -> ChaosSpec {
    if intensity <= 0.0 {
        return ChaosSpec::default();
    }
    ChaosSpec {
        crash: Some(CrashWaves {
            waves: 2,
            fraction: 0.6 * intensity,
            hold: SimDuration::from_secs(60),
        }),
        flaps: Some(LinkFlaps {
            count: (4.0 * intensity).round() as u32,
            down_for: SimDuration::from_secs(10),
        }),
        asym: (intensity >= 0.5).then_some(AsymPartition {
            fraction: 0.3,
            start_frac: 0.55,
            duration: SimDuration::from_secs(45),
        }),
        storm: Some(Storm {
            peak_loss: 0.25 * intensity,
            latency_factor: 1.0 + 2.0 * intensity,
            steps: 4,
        }),
        dup_rate: 0.05 * intensity,
        reorder: SimDuration::from_millis((50.0 * intensity) as u64),
    }
}

/// The provider fleet: mostly honest, seasoned with both cheating modes.
fn strategy_for(i: usize) -> ProviderStrategy {
    match i % 8 {
        3 => ProviderStrategy::DiscardAfterAck,
        6 => ProviderStrategy::PartialKeep(70),
        _ => ProviderStrategy::Honest,
    }
}

fn market_spec(k: usize, m: usize) -> MarketSpec {
    MarketSpec {
        k,
        m,
        ..MarketSpec::default()
    }
}

fn build_fleet(seed: u64) -> (Simulation<StorageNode>, Vec<NodeId>) {
    let mut sim = Simulation::new(seed);
    let providers: Vec<NodeId> = (0..N_PROVIDERS)
        .map(|i| {
            sim.add_node(
                StorageNode::provider(strategy_for(i)),
                DeviceClass::PersonalComputer,
            )
        })
        .collect();
    (sim, providers)
}

/// Run one codec at one intensity: install the market, install the chaos
/// schedule over the same horizon, and drive both to the horizon (plus a
/// settle window so the last challenges resolve).
fn run_codec(seed: u64, intensity: f64, k: usize, m: usize) -> CodecPoint {
    let spec = market_spec(k, m);
    let (mut sim, providers) = build_fleet(seed);
    let mut market = StorageMarket::install(&mut sim, spec, seed, providers.clone());
    let schedule = spec_for(intensity).compile(seed, &providers, spec.horizon);
    let mut chaos = ChaosController::install(&mut sim, schedule, seed ^ 0x5EED);
    let end = sim.now() + spec.horizon + spec.challenge_ttl;
    market.run_until_with(&mut sim, end, &mut |sim, t| {
        chaos.run_until(sim, t);
    });
    CodecPoint {
        durability: market.durability(&sim),
        repair_bytes: market.repair_bytes(),
        repair_read_bytes: market.repair_read_bytes(),
        challenges: market.challenges(),
        slashes: market.slashes(),
        stake_lost: market.stake_lost(),
        objects_lost: market.objects_lost(),
    }
}

/// E17 at one intensity: the same fleet and chaos for all codecs. Keys
/// `e17.<codec>.*`; the intensity is the harness sweep parameter.
pub fn e17_metrics(seed: u64, intensity: f64) -> Metrics {
    let mut m = Metrics::new();
    for (i, (codec, _, k, parity)) in CODECS.into_iter().enumerate() {
        let p = run_codec(seed + i as u64, intensity, k, parity);
        let prefix = format!("e17.{codec}");
        m.gauge_set(&format!("{prefix}.durability"), p.durability);
        m.gauge_set(&format!("{prefix}.repair_bytes"), p.repair_bytes as f64);
        m.gauge_set(
            &format!("{prefix}.repair_read_bytes"),
            p.repair_read_bytes as f64,
        );
        m.gauge_set(&format!("{prefix}.challenges"), p.challenges as f64);
        m.gauge_set(&format!("{prefix}.slashes"), p.slashes as f64);
        m.gauge_set(&format!("{prefix}.stake_lost"), p.stake_lost as f64);
        m.gauge_set(&format!("{prefix}.objects_lost"), p.objects_lost as f64);
    }
    m
}

fn e17_workload_spec(objects: usize) -> WorkloadSpec {
    WorkloadSpec {
        population: 10_000,
        cohorts: 4,
        actions_per_user_day: 40.0,
        model: DemandModel {
            zones: ZoneMix::single(DiurnalCurve::residential()),
            flash: None,
        },
        ranks: objects,
        zipf_alpha: 0.9,
        sizes: BoundedPareto::new(2_000, 200_000, 1.2),
        sessions: LogNormalSessions::new(300.0, 1.0),
        tick: SimDuration::from_mins(2),
        rep_cap: 2,
        churn: Some(ChurnCurve {
            offline_at_peak: 0.1,
            offline_at_trough: 0.4,
        }),
    }
}

/// The workload-driven variant: population-scale demand routed at an
/// RS(4, 2) market, answered only by funded contracts. Diurnal churn
/// takes providers offline through the same kill/revive path chaos uses,
/// so churn costs stake exactly as §5 predicts. Keys `e17.workload.*`.
pub fn e17_workload_metrics(seed: u64) -> Metrics {
    let spec = market_spec(4, 2);
    let (mut sim, providers) = build_fleet(seed);
    let mut market = StorageMarket::install(&mut sim, spec, seed, providers.clone());
    let wspec = e17_workload_spec(spec.objects);
    let sched = wspec.compile(seed ^ 0x3017, &providers, spec.horizon);
    let mut driver = WorkloadDriver::install(&sim, sched);
    // Coarse interleave: within each step the market settles first, then
    // the step's demand is issued against the settled placement. Both
    // sides are event-exact internally; only the market-vs-demand
    // ordering is at step granularity.
    let step = SimDuration::from_mins(1);
    let end = sim.now() + spec.horizon + spec.challenge_ttl;
    let mut served = 0.0f64;
    let mut requests = 0.0f64;
    let mut t = sim.now();
    while t < end {
        t = (t + step).min(end);
        market.run_until(&mut sim, t);
        let m = &market;
        driver.run_until(&mut sim, t, &mut |sim, d| {
            requests += d.weight;
            let object = d.rank as usize % spec.objects;
            if m.serviceable(sim, object) {
                served += d.weight;
            }
        });
    }
    let mut m = Metrics::new();
    m.gauge_set("e17.workload.availability", served / requests.max(1.0));
    m.gauge_set("e17.workload.slashes", market.slashes() as f64);
    m.gauge_set("e17.workload.repair_bytes", market.repair_bytes() as f64);
    m.gauge_set("e17.workload.durability", market.durability(&sim));
    m.gauge_set("e17.workload.requests", requests);
    m
}

/// E17's report: the codec curves over the intensity variants, then the
/// `workload` variant.
pub fn e17_report(variants: &[VariantStats]) -> Report {
    let w = by_label(variants, "workload");
    let codec_variants = || variants.iter().filter(|v| v.label != w.label);
    let mut body = String::from(
        "Durability (fraction of objects reconstructible at end of run) and\n\
         repair traffic (bytes re-uploaded by the repair actor) as chaos\n\
         escalates, per codec. The fleet is 16 providers of which 2 discard\n\
         shards after acking and 2 keep only ~70% — the audit/slash loop\n\
         has cheaters to catch even before chaos starts:\n\n\
         \x20 intensity   codec     durability   repair_KiB   slashes   stake_lost\n",
    );
    for v in codec_variants() {
        for (codec, label, _, _) in CODECS {
            let mean = |key: &str| v.mean(&format!("e17.{codec}.{key}"));
            body.push_str(&format!(
                "  {:>6}      {:<8}  {:>7.3}      {:>8.1}   {:>6.1}    {:>7.0}\n",
                v.point(),
                label,
                mean("durability"),
                mean("repair_bytes") / 1024.0,
                mean("slashes"),
                mean("stake_lost"),
            ));
        }
    }
    let last = by_label(variants, "i1.00");
    let erasure_wins = codec_variants().any(|v| {
        v.mean("e17.rs42.durability") >= v.mean("e17.rep.durability")
            && v.mean("e17.rs42.repair_bytes") < v.mean("e17.rep.repair_bytes")
    });
    body.push_str(&format!(
        "\nAt max intensity the repair traffic (KiB) of replication was\n\
         \x20 {}\n\
         and that of RS(4,2)\n\
         \x20 {}\n\
         at mean durability {:.3} vs {:.3}:\n\
         {}.\n",
        last.spread("e17.rep.repair_bytes", 1.0 / 1024.0, 0),
        last.spread("e17.rs42.repair_bytes", 1.0 / 1024.0, 0),
        last.mean("e17.rep.durability"),
        last.mean("e17.rs42.durability"),
        if erasure_wins {
            "erasure coding holds durability at a fraction of the repair cost"
        } else {
            "UNEXPECTED: erasure coding did not beat replication"
        },
    ));
    body.push_str(&format!(
        "\nWorkload variant (RS(4,2) + diurnal provider churn, demand served\n\
         only from funded contracts): availability\n\
         \x20 {}\n\
         over {:.0} weighted requests; churn cost {:.1} slashes and {:.1} KiB\n\
         of repair — the financing loop, not the bytes, is what users\n\
         experience (§5).\n",
        w.spread("e17.workload.availability", 1.0, 3),
        w.mean("e17.workload.requests"),
        w.mean("e17.workload.slashes"),
        w.mean("e17.workload.repair_bytes") / 1024.0,
    ));
    Report {
        id: "E17",
        title: "Storage market: audit/slashing/repair under chaos",
        claim: "an audited, staked storage market keeps erasure-coded \
                data durable at a fraction of replication's repair \
                traffic — the financing loop §5 says decentralized \
                storage is missing",
        body,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e17_audit_loop_catches_cheaters_without_chaos() {
        let m = e17_metrics(51, 0.0);
        // 4 of 16 providers cheat, so slashing happens even at intensity 0.
        for (codec, _, _, _) in CODECS {
            let get = |key: &str| m.gauge(&format!("e17.{codec}.{key}"));
            assert!(get("challenges") > 0.0);
            assert!(get("slashes") > 0.0, "cheaters must be caught: {m}");
            assert!(get("stake_lost") > 0.0);
        }
        // And repair keeps everything durable anyway.
        assert_eq!(m.gauge("e17.rs42.durability"), 1.0, "{m}");
        assert_eq!(m.gauge("e17.rep.durability"), 1.0, "{m}");
    }

    #[test]
    fn e17_erasure_beats_replication_on_repair_traffic() {
        // The acceptance criterion: equal-or-better durability at strictly
        // lower repair bytes for at least one (k, m) point and intensity.
        // The points are the registry's three intensity variants.
        let wins = [0.0, 0.5, 1.0].into_iter().any(|i| {
            let m = e17_metrics(51, i);
            m.gauge("e17.rs42.durability") >= m.gauge("e17.rep.durability")
                && m.gauge("e17.rs42.repair_bytes") < m.gauge("e17.rep.repair_bytes")
        });
        assert!(wins, "RS(4,2) must beat RS(1,2) replication somewhere");
    }

    #[test]
    fn e17_chaos_increases_repair_traffic() {
        // Crash waves take providers across challenge deadlines, so chaos
        // must cost extra slashes and repair on top of the cheater baseline.
        let slashes = |intensity| {
            let m = e17_metrics(52, intensity);
            CODECS
                .iter()
                .map(|(codec, _, _, _)| m.gauge(&format!("e17.{codec}.slashes")))
                .sum::<f64>()
        };
        let (calm_total, storm_total) = (slashes(0.0), slashes(1.0));
        assert!(
            storm_total > calm_total,
            "storm {storm_total} vs calm {calm_total}"
        );
    }

    #[test]
    fn e17_workload_is_served_by_funded_contracts() {
        let m = e17_workload_metrics(53);
        let availability = m.gauge("e17.workload.availability");
        assert!(m.gauge("e17.workload.requests") > 100.0, "{m}");
        assert!(availability > 0.5 && availability <= 1.0, "{m}");
        assert_eq!(m.gauge("e17.workload.durability"), 1.0, "{m}");
    }

    #[test]
    fn e17_runs_are_deterministic() {
        let values = |m| crate::experiments::values(&m);
        assert_eq!(values(e17_metrics(54, 0.5)), values(e17_metrics(54, 0.5)));
        assert_eq!(
            values(e17_workload_metrics(54)),
            values(e17_workload_metrics(54))
        );
    }
}
