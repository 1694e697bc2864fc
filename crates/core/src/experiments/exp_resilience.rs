//! E15: graceful degradation under escalating, deterministic fault
//! injection — the same client workload on each architecture class
//! (centralized, federated, P2P, chain-backed) while a seed-derived chaos
//! schedule kills nodes in correlated waves, flaps links, opens asymmetric
//! partitions, and ramps loss/latency storms. The output is an
//! availability-vs-intensity and latency-vs-intensity curve per class.
//!
//! Fault intensity scales every knob of the schedule together, and victim
//! selection is a prefix of one seeded permutation, so a higher intensity
//! always faults a superset of a lower one: the measured curves are
//! monotone by construction, not by luck.

use agora_chain::{ChainNode, ChainParams, MinerConfig, Transaction, TxPayload};
use agora_comm::{CentralNode, FedNode, ModerationPolicy, PostLabel, ReplicationMode, SocialNode};
use agora_crypto::{sha256, Hash256, SimKeyPair};
use agora_sim::{
    AsymPartition, ChaosController, ChaosSpec, CrashWaves, DeviceClass, LinkFlaps, Metrics, NodeId,
    RetryPolicy, SimDuration, Simulation, Storm,
};

use super::{by_label, Report, VariantStats};

/// One architecture's point on the degradation curve.
#[derive(Clone, Copy, Debug)]
pub struct DegradationPoint {
    /// Fraction of issued reads (or submitted transactions) that succeeded.
    pub availability: f64,
    /// Mean observed delivery/confirmation latency in seconds.
    pub mean_latency_secs: f64,
    /// Scheduled faults actually applied during the run.
    pub faults_injected: usize,
}

/// E15's architecture classes, in key and report order.
const CLASSES: [&str; 4] = ["centralized", "federated", "p2p", "chain"];

const ROUNDS: usize = 6;
const STEP: SimDuration = SimDuration::from_secs(90);
const SETTLE: SimDuration = SimDuration::from_secs(120);

fn horizon() -> SimDuration {
    SimDuration::from_secs(STEP.micros() / 1_000_000 * ROUNDS as u64)
}

/// The chaos schedule at a given intensity: every knob scales together.
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

/// Retry policy for centralized clients.
fn client_retry() -> RetryPolicy {
    RetryPolicy::standard()
}

/// Federated clients hedge reads to a backup instance as well as retrying.
fn fed_retry() -> RetryPolicy {
    RetryPolicy {
        hedge_after: Some(SimDuration::from_secs(2)),
        ..RetryPolicy::standard()
    }
}

fn comm_point(m: &Metrics, faults: usize) -> DegradationPoint {
    let ok = m.counter("comm.reads_ok");
    let failed = m.counter("comm.reads_failed");
    let denied = m.counter("comm.reads_denied");
    let total = (ok + failed + denied).max(1);
    let latency = m
        .histogram("comm.delivery_secs")
        .filter(|h| h.count() > 0)
        .map_or(0.0, |h| h.mean());
    DegradationPoint {
        availability: ok as f64 / total as f64,
        mean_latency_secs: latency,
        faults_injected: faults,
    }
}

fn run_centralized(seed: u64, intensity: f64) -> DegradationPoint {
    const N_CLIENTS: usize = 12;
    let mut sim = Simulation::new(seed);
    let server = sim.add_node(
        CentralNode::server(ModerationPolicy::none()),
        DeviceClass::DatacenterServer,
    );
    let clients: Vec<NodeId> = (0..N_CLIENTS)
        .map(|_| {
            sim.add_node(
                CentralNode::client_with_retry(server, client_retry()),
                DeviceClass::PersonalComputer,
            )
        })
        .collect();
    for &c in &clients {
        sim.with_ctx(c, |n, ctx| n.join(ctx, 1));
    }
    sim.run_for(SimDuration::from_secs(5));
    // Faults target the serving infrastructure: the one server.
    let schedule = spec_for(intensity).compile(seed, &[server], horizon());
    let mut chaos = ChaosController::install(&mut sim, schedule, seed ^ 0x5EED);
    let mut reads = Vec::new();
    for _ in 0..ROUNDS {
        for &c in &clients {
            sim.with_ctx(c, |n, ctx| {
                n.post(ctx, 1, 200, PostLabel::Legit);
            });
            if let Some(op) = sim.with_ctx(c, |n, ctx| n.read(ctx, 1)) {
                reads.push((c, op));
            }
        }
        chaos.run_for(&mut sim, STEP);
    }
    sim.run_for(SETTLE);
    for (c, op) in reads {
        let _ = sim.node_mut(c).take_read(op);
    }
    comm_point(sim.metrics(), chaos.applied())
}

fn run_federated(seed: u64, intensity: f64) -> DegradationPoint {
    const N_INSTANCES: usize = 5;
    const CLIENTS_PER_INSTANCE: usize = 2;
    let mut sim = Simulation::new(seed);
    let instance_ids: Vec<NodeId> = (0..N_INSTANCES as u32).map(NodeId).collect();
    for i in 0..N_INSTANCES {
        let peers: Vec<NodeId> = instance_ids
            .iter()
            .copied()
            .filter(|&p| p != instance_ids[i])
            .collect();
        sim.add_node(
            FedNode::instance(
                peers,
                ReplicationMode::FullReplication,
                ModerationPolicy::none(),
            ),
            DeviceClass::DatacenterServer,
        );
    }
    let mut clients = Vec::new();
    for (i, &instance) in instance_ids.iter().enumerate() {
        let backups: Vec<NodeId> = (1..N_INSTANCES)
            .take(2)
            .map(|d| instance_ids[(i + d) % N_INSTANCES])
            .collect();
        for _ in 0..CLIENTS_PER_INSTANCE {
            clients.push(sim.add_node(
                FedNode::client_with_retry(instance, backups.clone(), fed_retry()),
                DeviceClass::PersonalComputer,
            ));
        }
    }
    for &c in &clients {
        sim.with_ctx(c, |n, ctx| n.join(ctx, 1));
        sim.run_for(SimDuration::from_millis(100));
    }
    sim.run_for(SimDuration::from_secs(5));
    // Faults target the serving infrastructure: the five instances.
    let schedule = spec_for(intensity).compile(seed, &instance_ids, horizon());
    let mut chaos = ChaosController::install(&mut sim, schedule, seed ^ 0x5EED);
    let mut reads = Vec::new();
    for _ in 0..ROUNDS {
        for &c in &clients {
            sim.with_ctx(c, |n, ctx| {
                n.post(ctx, 1, 200, PostLabel::Legit);
            });
            if let Some(op) = sim.with_ctx(c, |n, ctx| n.read(ctx, 1)) {
                reads.push((c, op));
            }
        }
        chaos.run_for(&mut sim, STEP);
    }
    sim.run_for(SETTLE);
    for (c, op) in reads {
        let _ = sim.node_mut(c).take_read(op);
    }
    comm_point(sim.metrics(), chaos.applied())
}

fn run_p2p(seed: u64, intensity: f64) -> DegradationPoint {
    const N_PEERS: usize = 16;
    let mut sim = Simulation::new(seed);
    let ids: Vec<NodeId> = (0..N_PEERS as u32).map(NodeId).collect();
    for i in 0..N_PEERS {
        let mut friends: Vec<NodeId> = (1..=4).map(|d| ids[(i + d) % N_PEERS]).collect();
        for d in 1..=4 {
            friends.push(ids[(i + N_PEERS - d) % N_PEERS]);
        }
        sim.add_node(
            SocialNode::new(friends, true),
            DeviceClass::PersonalComputer,
        );
    }
    sim.run_for(SimDuration::from_secs(2));
    // No infrastructure: every peer is a fault target.
    let schedule = spec_for(intensity).compile(seed, &ids, horizon());
    let mut chaos = ChaosController::install(&mut sim, schedule, seed ^ 0x5EED);
    let mut reads = Vec::new();
    for round in 0..ROUNDS {
        for (i, &id) in ids.iter().enumerate() {
            sim.with_ctx(id, |n, ctx| n.post(ctx, 200, PostLabel::Legit));
            // Stay inside the ±4 friend set: strangers' feeds are trust-gated.
            let owner = ids[(i + 1 + (round % 4)) % N_PEERS];
            if let Some(op) = sim.with_ctx(id, |n, ctx| n.read_feed(ctx, owner)) {
                reads.push((id, op));
            }
        }
        chaos.run_for(&mut sim, STEP);
    }
    sim.run_for(SETTLE);
    for (c, op) in reads {
        let _ = sim.node_mut(c).take_read(op);
    }
    comm_point(sim.metrics(), chaos.applied())
}

fn run_chain(seed: u64, intensity: f64) -> DegradationPoint {
    const N_NODES: usize = 5;
    let params = ChainParams {
        target_block_interval: SimDuration::from_secs(60),
        initial_difficulty_bits: 8,
        ..ChainParams::default()
    };
    let user = SimKeyPair::from_seed(b"e15-user");
    let premine: Vec<(Hash256, u64)> = vec![(user.public().id(), 1_000_000)];
    let mut sim: Simulation<ChainNode> = Simulation::new(seed);
    let mut ids: Vec<NodeId> = Vec::new();
    for i in 0..N_NODES {
        let miner = (i < 2).then(|| MinerConfig {
            account: sha256(format!("e15-miner-{i}").as_bytes()),
            // Two equal miners sharing the 60 s target at 8 difficulty bits.
            hashrate: 256.0 / 120.0,
        });
        ids.push(sim.add_node(
            ChainNode::new("e15", params.clone(), &premine, miner),
            DeviceClass::DatacenterServer,
        ));
    }
    for &id in &ids {
        sim.node_mut(id).set_peers(ids.clone());
    }
    sim.run_for(SimDuration::from_secs(5));
    let schedule = spec_for(intensity).compile(seed, &ids, horizon());
    let mut chaos = ChaosController::install(&mut sim, schedule, seed ^ 0x5EED);
    let bob = sha256(b"e15-bob");
    // The chain client retries like every other workload in E15: each round
    // it re-submits every still-unconfirmed transaction to every node.
    // `seen_txs` dedup makes the retry a no-op everywhere except the exact
    // failure it repairs — a node (typically a revived miner) whose copy of
    // the original flood was lost to chaos. Without this, one lost gossip
    // blocks every later nonce and availability collapses on gossip luck
    // instead of degrading with fault intensity.
    let mut outstanding: Vec<(Transaction, f64)> = Vec::new();
    let mut nonce = 0u64;
    let mut submitted = 0u64;
    let mut confirmed = 0u64;
    let mut latency_sum = 0.0f64;
    let observer = ids[N_NODES - 1];
    for _ in 0..ROUNDS {
        for _ in 0..2 {
            let tx =
                Transaction::create(&user, nonce, 1, TxPayload::Transfer { to: bob, amount: 1 });
            outstanding.push((tx, sim.now().secs_f64()));
            nonce += 1;
            submitted += 1;
        }
        // (Re-)broadcast everything unconfirmed to every live node.
        for (tx, _) in &outstanding {
            for &id in &ids {
                let tx = tx.clone();
                sim.with_ctx(id, |n, ctx| {
                    n.submit_tx(ctx, tx);
                });
            }
        }
        chaos.run_for(&mut sim, STEP);
        // Transfers confirm in nonce order, so the k-th unit of balance is
        // the k-th submitted transaction: attribute confirmation latency.
        let balance = sim.node(observer).ledger().state().balance(&bob);
        while confirmed < balance {
            let (_, sent_at) = outstanding.remove(0);
            latency_sum += sim.now().secs_f64() - sent_at;
            confirmed += 1;
        }
    }
    // Final retry pass, then let the mempool drain.
    for (tx, _) in &outstanding {
        for &id in &ids {
            let tx = tx.clone();
            sim.with_ctx(id, |n, ctx| {
                n.submit_tx(ctx, tx);
            });
        }
    }
    sim.run_for(SETTLE + SimDuration::from_secs(120));
    let balance = sim.node(observer).ledger().state().balance(&bob);
    while confirmed < balance {
        let (_, sent_at) = outstanding.remove(0);
        latency_sum += sim.now().secs_f64() - sent_at;
        confirmed += 1;
    }
    DegradationPoint {
        availability: confirmed as f64 / submitted.max(1) as f64,
        mean_latency_secs: latency_sum / confirmed.max(1) as f64,
        faults_injected: chaos.applied(),
    }
}

/// E15 at one intensity: the same workload shape on all four classes.
/// Keys `e15.<class>.*`; the intensity is the harness sweep parameter.
pub fn e15_metrics(seed: u64, intensity: f64) -> Metrics {
    let points = [
        run_centralized(seed, intensity),
        run_federated(seed + 1, intensity),
        run_p2p(seed + 2, intensity),
        run_chain(seed + 3, intensity),
    ];
    let mut m = Metrics::new();
    for (class, p) in CLASSES.iter().zip(&points) {
        m.gauge_set(&format!("e15.{class}.availability"), p.availability);
        m.gauge_set(&format!("e15.{class}.latency_secs"), p.mean_latency_secs);
    }
    let faults: usize = points.iter().map(|p| p.faults_injected).sum();
    m.incr("e15.faults_injected", faults as u64);
    m
}

/// E15's report: availability and latency curves over the intensity
/// variants.
pub fn e15_report(variants: &[VariantStats]) -> Report {
    let mut body = String::from(
        "Availability (fraction of reads/confirmations that succeeded) as\n\
         fault intensity escalates (crash waves, link flaps, asymmetric\n\
         partitions, loss/latency storms — all scaled together):\n\n\
         \x20 intensity   centralized   federated   p2p     chain\n",
    );
    for v in variants {
        let [c, f, p, ch] = CLASSES.map(|class| v.mean(&format!("e15.{class}.availability")));
        body.push_str(&format!(
            "  {:>6}      {c:>6.3}        {f:>6.3}      {p:>6.3}  {ch:>6.3}\n",
            v.point(),
        ));
    }
    body.push_str("\nMean delivery / confirmation latency (seconds):\n\n");
    body.push_str("  intensity   centralized   federated   p2p       chain\n");
    for v in variants {
        let [c, f, p, ch] = CLASSES.map(|class| v.mean(&format!("e15.{class}.latency_secs")));
        body.push_str(&format!(
            "  {:>6}      {c:>8.2}      {f:>8.2}    {p:>6.2}  {ch:>8.1}\n",
            v.point(),
        ));
    }
    let (first, last) = (by_label(variants, "i0.00"), by_label(variants, "i1.00"));
    let drop = |class: &str| {
        let key = format!("e15.{class}.availability");
        first.mean(&key) - last.mean(&key)
    };
    let (central_drop, p2p_drop) = (drop("centralized"), drop("p2p"));
    body.push_str(&format!(
        "\nVerdict: at max intensity centralized availability fell {:.1}%, to\n\
         \x20 {},\n\
         vs {:.1}% for P2P, to\n\
         \x20 {}:\n\
         {}.\n",
        central_drop * 100.0,
        last.spread("e15.centralized.availability", 1.0, 3),
        p2p_drop * 100.0,
        last.spread("e15.p2p.availability", 1.0, 3),
        if central_drop > p2p_drop {
            "the single point of failure degrades steepest, as §3.2 predicts"
        } else {
            "UNEXPECTED: centralized did not degrade steepest"
        },
    ));
    Report {
        id: "E15",
        title: "Graceful degradation under escalating fault injection",
        claim: "centralized platforms fail abruptly when their single \
                server is faulted, while decentralized architectures \
                degrade gracefully — at the price of higher latency \
                (§3.2, §4)",
        body,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e15_no_chaos_everyone_works() {
        let m = e15_metrics(41, 0.0);
        assert!(m.gauge("e15.centralized.availability") > 0.95, "{m}");
        assert!(m.gauge("e15.federated.availability") > 0.95, "{m}");
        assert!(m.gauge("e15.p2p.availability") > 0.9, "{m}");
        assert!(m.gauge("e15.chain.availability") > 0.9, "{m}");
        assert_eq!(m.counter("e15.faults_injected"), 0);
    }

    #[test]
    fn e15_max_intensity_separates_the_architectures() {
        let calm = e15_metrics(41, 0.0);
        let storm = e15_metrics(41, 1.0);
        assert!(storm.counter("e15.faults_injected") > 0);
        let drop = |class: &str| {
            let key = format!("e15.{class}.availability");
            calm.gauge(&key) - storm.gauge(&key)
        };
        let (central_drop, p2p_drop) = (drop("centralized"), drop("p2p"));
        assert!(
            central_drop > p2p_drop,
            "centralized should degrade steepest: centralized {central_drop:.3} \
             vs p2p {p2p_drop:.3}"
        );
        // Replication + hedging keeps the federation usable.
        assert!(
            storm.gauge("e15.federated.availability") > storm.gauge("e15.centralized.availability"),
            "{storm}"
        );
    }

    #[test]
    fn e15_runs_are_deterministic() {
        let values = |seed| crate::experiments::values(&e15_metrics(seed, 0.75));
        assert_eq!(values(43), values(43));
    }
}
