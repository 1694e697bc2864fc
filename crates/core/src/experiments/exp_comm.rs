//! E3 (connectedness under failure) and E4 (privacy/metadata exposure)
//! across the four group-communication architectures.

use agora_comm::{
    CentralNode, FedNode, ModerationPolicy, PostLabel, ReadResult, ReplicationMode, SocialNode,
};
use agora_sim::{DeviceClass, Metrics, NodeId, SimDuration, Simulation};
use agora_workload::CommLoad;

use super::{Report, VariantStats};

/// Per-architecture outcome of the availability workload.
#[derive(Clone, Copy, Debug)]
struct CommOutcome {
    /// Fraction of posts that reached their audience.
    delivery_rate: f64,
    /// Fraction of history reads that succeeded.
    read_success: f64,
    /// Server/instance-side metadata observations per delivered post.
    metadata_per_post: f64,
}

/// E3's architectures: key segment and report label.
const ARCHITECTURES: [(&str, &str); 4] = [
    ("centralized", "centralized"),
    ("single_home", "federated single-home"),
    ("replicated", "federated replicated"),
    ("social", "socially-aware P2P"),
];

/// The pinned paper-default load shape (values are part of the checked-in
/// baseline contract — see `agora_workload::load`).
const LOAD: CommLoad = CommLoad::paper_default();
const N_INSTANCES: usize = LOAD.instances;
const CLIENTS_PER_INSTANCE: usize = LOAD.clients_per_instance;
const POSTS_PER_CLIENT: usize = LOAD.posts_per_client;
const READS_PER_CLIENT: usize = LOAD.reads_per_client;

fn outcome_from(metrics: &Metrics, posts_sent: u64, audience: u64) -> CommOutcome {
    let delivered = metrics.counter("comm.posts_delivered");
    let reads_ok = metrics.counter("comm.reads_ok");
    let reads_failed = metrics.counter("comm.reads_failed");
    let denied = metrics.counter("comm.reads_denied");
    let observed = metrics.counter("comm.metadata_observed");
    let total_reads = (reads_ok + reads_failed + denied).max(1);
    CommOutcome {
        delivery_rate: delivered as f64 / (posts_sent * audience).max(1) as f64,
        read_success: reads_ok as f64 / total_reads as f64,
        metadata_per_post: observed as f64 / delivered.max(1) as f64,
    }
}

fn run_centralized(seed: u64, failure_fraction: f64) -> CommOutcome {
    let n_clients = N_INSTANCES * CLIENTS_PER_INSTANCE;
    let mut sim = Simulation::new(seed);
    let server = sim.add_node(
        CentralNode::server(ModerationPolicy::none()),
        DeviceClass::DatacenterServer,
    );
    let clients: Vec<NodeId> = (0..n_clients)
        .map(|_| sim.add_node(CentralNode::client(server), DeviceClass::PersonalComputer))
        .collect();
    for &c in &clients {
        sim.with_ctx(c, |n, ctx| n.join(ctx, 1));
    }
    sim.run_for(SimDuration::from_secs(5));
    // The "failure fraction" applies to infrastructure: with one server,
    // any fraction ≥ the threshold where we'd kill ≥ 1 of 1 servers.
    let kill_server = failure_fraction >= 1.0 / N_INSTANCES as f64;
    let mut posts_sent = 0u64;
    for round in 0..POSTS_PER_CLIENT {
        if round == 1 && kill_server {
            sim.kill(server);
        }
        for &c in &clients {
            if sim
                .with_ctx(c, |n, ctx| {
                    n.post(ctx, 1, LOAD.post_bytes, PostLabel::Legit)
                })
                .is_some()
            {
                posts_sent += 1;
            }
        }
        sim.run_for(SimDuration::from_secs(10));
    }
    let mut reads = Vec::new();
    for &c in &clients {
        for _ in 0..READS_PER_CLIENT {
            if let Some(op) = sim.with_ctx(c, |n, ctx| n.read(ctx, 1)) {
                reads.push((c, op));
            }
        }
    }
    sim.run_for(SimDuration::from_secs(60));
    for (c, op) in reads {
        // Drain so unanswered reads count via comm.reads_failed (timer).
        let _ = sim.node_mut(c).take_read(op);
    }
    outcome_from(sim.metrics(), posts_sent, (n_clients - 1) as u64)
}

fn run_federated(seed: u64, failure_fraction: f64, mode: ReplicationMode) -> CommOutcome {
    let mut sim = Simulation::new(seed);
    let instance_ids =
        FedNode::federation(&mut sim, mode, vec![ModerationPolicy::none(); N_INSTANCES]);
    let mut clients = Vec::new();
    for &instance in &instance_ids {
        for _ in 0..CLIENTS_PER_INSTANCE {
            clients.push(sim.add_node(FedNode::client(instance), DeviceClass::PersonalComputer));
        }
    }
    for &c in &clients {
        sim.with_ctx(c, |n, ctx| n.join(ctx, 1));
        sim.run_for(SimDuration::from_millis(100));
    }
    sim.run_for(SimDuration::from_secs(5));
    let n_kill = (failure_fraction * N_INSTANCES as f64).round() as usize;
    let mut posts_sent = 0u64;
    for round in 0..POSTS_PER_CLIENT {
        if round == 1 {
            // Kill instances *including the room origin* (instance 0) first —
            // the single-home worst case the paper describes.
            for &inst in instance_ids.iter().take(n_kill) {
                sim.kill(inst);
            }
        }
        for &c in &clients {
            if sim
                .with_ctx(c, |n, ctx| {
                    n.post(ctx, 1, LOAD.post_bytes, PostLabel::Legit)
                })
                .is_some()
            {
                posts_sent += 1;
            }
        }
        sim.run_for(SimDuration::from_secs(10));
    }
    let mut reads = Vec::new();
    for &c in &clients {
        for _ in 0..READS_PER_CLIENT {
            if let Some(op) = sim.with_ctx(c, |n, ctx| n.read(ctx, 1)) {
                reads.push((c, op));
            }
        }
    }
    sim.run_for(SimDuration::from_secs(60));
    for (c, op) in reads {
        let _ = sim.node_mut(c).take_read(op);
    }
    // Audience: clients of live instances only get deliveries; use the full
    // audience for a comparable delivery-rate basis.
    outcome_from(sim.metrics(), posts_sent, (clients.len() - 1) as u64)
}

fn run_social(seed: u64, failure_fraction: f64) -> (CommOutcome, u64) {
    let n = N_INSTANCES * CLIENTS_PER_INSTANCE;
    let mut sim = Simulation::new(seed);
    // Friend graph: ring with chords — each peer befriends the next 4.
    let ids: Vec<NodeId> = (0..n as u32).map(NodeId).collect();
    for i in 0..n {
        let friends: Vec<NodeId> = (1..=4).map(|d| ids[(i + d) % n]).collect();
        // Make friendship symmetric by also adding the previous 4.
        let mut all = friends;
        for d in 1..=4 {
            all.push(ids[(i + n - d) % n]);
        }
        sim.add_node(SocialNode::new(all, true), DeviceClass::PersonalComputer);
    }
    sim.run_for(SimDuration::from_secs(2));
    let n_kill = (failure_fraction * n as f64).round() as usize;
    let mut posts_sent = 0u64;
    for round in 0..POSTS_PER_CLIENT {
        if round == 1 {
            for &id in ids.iter().take(n_kill) {
                sim.kill(id);
            }
        }
        for &id in &ids {
            if sim
                .with_ctx(id, |node, ctx| {
                    node.post(ctx, LOAD.post_bytes, PostLabel::Legit)
                })
                .is_some()
            {
                posts_sent += 1;
            }
        }
        sim.run_for(SimDuration::from_secs(10));
    }
    let mut reads = Vec::new();
    for (i, &id) in ids.iter().enumerate() {
        for r in 0..READS_PER_CLIENT {
            // Read a friend's feed (friends are the ±4 neighbours).
            let owner = ids[(i + 1 + r) % n];
            if let Some(op) = sim.with_ctx(id, |node, ctx| node.read_feed(ctx, owner)) {
                reads.push((id, op));
            }
        }
    }
    sim.run_for(SimDuration::from_mins(2));
    let mut denied = 0u64;
    for (c, op) in reads {
        if sim.node_mut(c).take_read(op) == Some(ReadResult::Denied) {
            denied += 1;
        }
    }
    // Audience per post = 8 friends.
    (outcome_from(sim.metrics(), posts_sent, 8), denied)
}

/// E3: the same workload on all four architectures while a fraction of the
/// serving infrastructure fails. Keys `e3.<architecture>.*`; the failure
/// fraction is the harness sweep parameter.
pub fn e3_metrics(seed: u64, failure_fraction: f64) -> Metrics {
    let outcomes = [
        run_centralized(seed, failure_fraction),
        run_federated(seed + 1, failure_fraction, ReplicationMode::SingleHome),
        run_federated(seed + 2, failure_fraction, ReplicationMode::FullReplication),
        run_social(seed + 3, failure_fraction).0,
    ];
    let mut m = Metrics::new();
    for ((key, _), o) in ARCHITECTURES.iter().zip(&outcomes) {
        m.gauge_set(&format!("e3.{key}.delivery_rate"), o.delivery_rate);
        m.gauge_set(&format!("e3.{key}.read_success"), o.read_success);
        m.gauge_set(&format!("e3.{key}.metadata_per_post"), o.metadata_per_post);
    }
    m
}

/// E3's report: one block per failure fraction.
pub fn e3_report(variants: &[VariantStats]) -> Report {
    let mut body = String::new();
    for v in variants {
        body.push_str(&format!(
            "Failure fraction {} of serving infrastructure killed mid-run:\n",
            v.point()
        ));
        for (key, label) in ARCHITECTURES {
            body.push_str(&format!(
                "  {:<24} delivery {:>5.1}%   reads {:>5.1}%\n",
                label,
                v.mean(&format!("e3.{key}.delivery_rate")) * 100.0,
                v.mean(&format!("e3.{key}.read_success")) * 100.0
            ));
        }
        body.push('\n');
    }
    body.pop();
    Report {
        id: "E3",
        title: "Group communication: connectedness under failures",
        claim: "OStatus-style instances are single points of failure; \
                Matrix-style replication provides high availability; \
                socially-aware P2P trades availability away (§3.2)",
        body,
    }
}

/// E4: who sees the metadata? Keys `e4.*`.
pub fn e4_metrics(seed: u64) -> Metrics {
    let centralized = run_centralized(seed, 0.0);
    let single_home = run_federated(seed + 1, 0.0, ReplicationMode::SingleHome);
    let replicated = run_federated(seed + 2, 0.0, ReplicationMode::FullReplication);
    let (social, denied) = run_social(seed + 3, 0.0);
    let mut m = Metrics::new();
    m.gauge_set("e4.centralized_metadata", centralized.metadata_per_post);
    m.gauge_set("e4.single_home_metadata", single_home.metadata_per_post);
    m.gauge_set("e4.replicated_metadata", replicated.metadata_per_post);
    m.gauge_set("e4.social_server_metadata", social.metadata_per_post);
    m.incr("e4.social_denied_reads", denied);
    m
}

/// E4's report from its one variant.
pub fn e4_report(variants: &[VariantStats]) -> Report {
    let v = &variants[0];
    let body = format!(
        "Server/instance metadata observations per delivered post:\n\
         \x20 centralized           : {:.3} (ONE observer — but it sees 100% of posts)\n\
         \x20 federated single-home : {:.3} (home + member instances each observe)\n\
         \x20 federated replicated  : {:.3} (every relaying instance observes)\n\
         \x20 socially-aware P2P    : {:.3} (no server-class observer exists)\n\
         Trust gating: {:.1} stranger reads denied in the social run\n",
        v.mean("e4.centralized_metadata"),
        v.mean("e4.single_home_metadata"),
        v.mean("e4.replicated_metadata"),
        v.mean("e4.social_server_metadata"),
        v.mean("e4.social_denied_reads"),
    );
    Report {
        id: "E4",
        title: "Group communication: metadata exposure",
        claim: "even with E2E encryption, metadata is readable by the \
                servers that store it (§3.2, Matrix); socially-aware P2P \
                confines exposure to chosen friends",
        body,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e3_no_failures_everyone_works() {
        let m = e3_metrics(21, 0.0);
        assert!(m.gauge("e3.centralized.delivery_rate") > 0.95, "{m}");
        assert!(m.gauge("e3.centralized.read_success") > 0.95, "{m}");
        assert!(m.gauge("e3.replicated.read_success") > 0.95, "{m}");
        assert!(m.gauge("e3.single_home.read_success") > 0.95, "{m}");
        assert!(m.gauge("e3.social.read_success") > 0.9, "{m}");
    }

    #[test]
    fn e3_failures_separate_the_architectures() {
        // Kill 20% of infrastructure (= the only server for centralized,
        // one instance of five for federated, 20% of peers for social).
        let m = e3_metrics(23, 0.2);
        // Centralized collapses entirely.
        assert!(m.gauge("e3.centralized.read_success") < 0.1, "{m}");
        // Replicated federation barely notices for reads.
        assert!(m.gauge("e3.replicated.read_success") > 0.7, "{m}");
        // Single-home: the origin died, so remote-history reads fail —
        // strictly worse than replicated.
        assert!(
            m.gauge("e3.single_home.read_success") < m.gauge("e3.replicated.read_success"),
            "{m}"
        );
    }

    #[test]
    fn e4_privacy_ordering() {
        let m = e4_metrics(29);
        // Social P2P: no server-class observations at all.
        assert_eq!(m.gauge("e4.social_server_metadata"), 0.0);
        // Every other architecture observes at least once per post.
        assert!(m.gauge("e4.centralized_metadata") > 0.0);
        assert!(m.gauge("e4.single_home_metadata") > 0.0);
        assert!(m.gauge("e4.replicated_metadata") > 0.0);
        assert_eq!(
            m.counter("e4.social_denied_reads"),
            0,
            "friends-only reads in this workload"
        );
    }
}
