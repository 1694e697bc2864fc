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

use super::Report;

/// The chaos intensity grid swept by the report and the harness matrix.
pub const E17_INTENSITIES: [f64; 3] = [0.0, 0.5, 1.0];

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

/// E17 results at one chaos intensity.
#[derive(Clone, Debug)]
pub struct E17Result {
    /// Fault intensity in [0, 1] scaling the whole chaos schedule.
    pub intensity: f64,
    /// RS(4, 2): 1.5x overhead, repairs move object/4 bytes.
    pub rs42: CodecPoint,
    /// RS(8, 4): same overhead, finer shards, repairs move object/8 bytes.
    pub rs84: CodecPoint,
    /// RS(1, 2): plain 3x replication; repairs move whole objects.
    pub rep: CodecPoint,
}

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

/// E17 at a single intensity: the same fleet and chaos for all codecs.
pub fn e17_market_point(seed: u64, intensity: f64) -> E17Result {
    E17Result {
        intensity,
        rs42: run_codec(seed, intensity, 4, 2),
        rs84: run_codec(seed + 1, intensity, 8, 4),
        rep: run_codec(seed + 2, intensity, 1, 2),
    }
}

/// The workload-driven variant: population-scale demand routed at the
/// market, answered only by funded contracts. Diurnal churn takes
/// providers offline through the same kill/revive path chaos uses, so
/// churn costs stake exactly as §5 predicts.
#[derive(Clone, Copy, Debug)]
pub struct E17Workload {
    /// Weighted fraction of demand served from funded contracts.
    pub availability: f64,
    /// Slash events over the horizon.
    pub slashes: u64,
    /// Repair bytes moved to keep contracts serviceable.
    pub repair_bytes: u64,
    /// End-of-run durability.
    pub durability: f64,
    /// Aggregate (weighted) requests issued.
    pub requests: f64,
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

/// Run the workload variant: RS(4, 2) market + diurnal provider churn.
pub fn e17_workload_point(seed: u64) -> E17Workload {
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
    E17Workload {
        availability: served / requests.max(1.0),
        slashes: market.slashes(),
        repair_bytes: market.repair_bytes(),
        durability: market.durability(&sim),
        requests,
    }
}

/// E17: sweep the intensity grid and render the codec curves.
pub fn e17_market_sweep(seed: u64) -> (Vec<E17Result>, Report) {
    let results: Vec<E17Result> = E17_INTENSITIES
        .iter()
        .map(|&i| e17_market_point(seed, i))
        .collect();
    let w = e17_workload_point(seed);
    let mut body = String::from(
        "Durability (fraction of objects reconstructible at end of run) and\n\
         repair traffic (bytes re-uploaded by the repair actor) as chaos\n\
         escalates, per codec. The fleet is 16 providers of which 2 discard\n\
         shards after acking and 2 keep only ~70% — the audit/slash loop\n\
         has cheaters to catch even before chaos starts:\n\n\
         \x20 intensity   codec     durability   repair_KiB   slashes   stake_lost\n",
    );
    for r in &results {
        for (name, p) in [
            ("RS(4,2)", &r.rs42),
            ("RS(8,4)", &r.rs84),
            ("RS(1,2)", &r.rep),
        ] {
            body.push_str(&format!(
                "  {:>6.2}      {:<8}  {:>7.3}      {:>8.1}   {:>6}    {:>7}\n",
                r.intensity,
                name,
                p.durability,
                p.repair_bytes as f64 / 1024.0,
                p.slashes,
                p.stake_lost,
            ));
        }
    }
    let last = &results[results.len() - 1];
    let erasure_wins = results
        .iter()
        .any(|r| r.rs42.durability >= r.rep.durability && r.rs42.repair_bytes < r.rep.repair_bytes);
    body.push_str(&format!(
        "\nAt max intensity replication moved {:.0} KiB of repair traffic vs\n\
         {:.0} KiB for RS(4,2) at durability {:.3} vs {:.3} — {}\n",
        last.rep.repair_bytes as f64 / 1024.0,
        last.rs42.repair_bytes as f64 / 1024.0,
        last.rep.durability,
        last.rs42.durability,
        if erasure_wins {
            "erasure coding holds durability at a fraction of the repair cost"
        } else {
            "UNEXPECTED: erasure coding did not beat replication"
        },
    ));
    body.push_str(&format!(
        "\nWorkload variant (RS(4,2) + diurnal provider churn, demand served\n\
         only from funded contracts): availability {:.3} over {:.0} weighted\n\
         requests; churn cost {} slashes and {:.1} KiB of repair — the\n\
         financing loop, not the bytes, is what users experience (§5).\n",
        w.availability,
        w.requests,
        w.slashes,
        w.repair_bytes as f64 / 1024.0,
    ));
    (
        results,
        Report {
            id: "E17",
            title: "Storage market: audit/slashing/repair under chaos",
            claim: "an audited, staked storage market keeps erasure-coded \
                    data durable at a fraction of replication's repair \
                    traffic — the financing loop §5 says decentralized \
                    storage is missing",
            body,
        },
    )
}

fn codec_metrics(m: &mut Metrics, prefix: &str, p: &CodecPoint) {
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

/// Flatten an E17 run at one intensity into harness metrics (keys
/// `e17.<codec>.*`). The intensity is the harness sweep parameter.
pub fn e17_metrics(seed: u64, intensity: f64) -> Metrics {
    let r = e17_market_point(seed, intensity);
    let mut m = Metrics::new();
    codec_metrics(&mut m, "e17.rs42", &r.rs42);
    codec_metrics(&mut m, "e17.rs84", &r.rs84);
    codec_metrics(&mut m, "e17.rep", &r.rep);
    m
}

/// Flatten the workload-driven variant into harness metrics
/// (keys `e17.workload.*`).
pub fn e17_workload_metrics(seed: u64) -> Metrics {
    let w = e17_workload_point(seed);
    let mut m = Metrics::new();
    m.gauge_set("e17.workload.availability", w.availability);
    m.gauge_set("e17.workload.slashes", w.slashes as f64);
    m.gauge_set("e17.workload.repair_bytes", w.repair_bytes as f64);
    m.gauge_set("e17.workload.durability", w.durability);
    m.gauge_set("e17.workload.requests", w.requests);
    m
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e17_audit_loop_catches_cheaters_without_chaos() {
        let r = e17_market_point(51, 0.0);
        // 4 of 16 providers cheat, so slashing happens even at intensity 0.
        for p in [&r.rs42, &r.rs84, &r.rep] {
            assert!(p.challenges > 0);
            assert!(p.slashes > 0, "cheaters must be caught: {p:?}");
            assert!(p.stake_lost > 0);
        }
        // And repair keeps everything durable anyway.
        assert_eq!(r.rs42.durability, 1.0, "{:?}", r.rs42);
        assert_eq!(r.rep.durability, 1.0, "{:?}", r.rep);
    }

    #[test]
    fn e17_erasure_beats_replication_on_repair_traffic() {
        // The acceptance criterion: equal-or-better durability at strictly
        // lower repair bytes for at least one (k, m) point and intensity.
        let wins = E17_INTENSITIES.iter().any(|&i| {
            let r = e17_market_point(51, i);
            r.rs42.durability >= r.rep.durability && r.rs42.repair_bytes < r.rep.repair_bytes
        });
        assert!(wins, "RS(4,2) must beat RS(1,2) replication somewhere");
    }

    #[test]
    fn e17_chaos_increases_repair_traffic() {
        let calm = e17_market_point(52, 0.0);
        let storm = e17_market_point(52, 1.0);
        // Crash waves take providers across challenge deadlines, so chaos
        // must cost extra slashes and repair on top of the cheater baseline.
        let calm_total = calm.rs42.slashes + calm.rs84.slashes + calm.rep.slashes;
        let storm_total = storm.rs42.slashes + storm.rs84.slashes + storm.rep.slashes;
        assert!(
            storm_total > calm_total,
            "storm {storm_total} vs calm {calm_total}"
        );
    }

    #[test]
    fn e17_workload_is_served_by_funded_contracts() {
        let w = e17_workload_point(53);
        assert!(w.requests > 100.0, "{w:?}");
        assert!(
            w.availability > 0.5 && w.availability <= 1.0,
            "availability {w:?}"
        );
        assert_eq!(w.durability, 1.0, "{w:?}");
    }

    #[test]
    fn e17_runs_are_deterministic() {
        let a = e17_market_point(54, 0.5);
        let b = e17_market_point(54, 0.5);
        assert_eq!(a.rs42.durability, b.rs42.durability);
        assert_eq!(a.rs42.repair_bytes, b.rs42.repair_bytes);
        assert_eq!(a.rs84.slashes, b.rs84.slashes);
        assert_eq!(a.rep.stake_lost, b.rep.stake_lost);
        let wa = e17_workload_point(54);
        let wb = e17_workload_point(54);
        assert_eq!(wa.availability, wb.availability);
        assert_eq!(wa.repair_bytes, wb.repair_bytes);
    }
}
