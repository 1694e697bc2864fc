//! E10/E11: the paper's §5 research agenda, implemented and measured.
//!
//! * E10 — §5.1 "eliminating single points of failure in federated
//!   approaches": client read-failover across replicated instances.
//! * E11 — §5.3 "guerrilla tactics such as running encrypted services on
//!   the cloud" / "decoupling authority from infrastructure": the
//!   capability-gated encrypted relay.

use agora_comm::{
    CentralNode, FedNode, ModerationPolicy, PostLabel, ReadResult, RelayNode, RelayResult,
    ReplicationMode, SocialNode,
};
use agora_sim::{DeviceClass, Metrics, NodeId, SimDuration, Simulation};

use super::{Report, VariantStats};

fn failover_run(seed: u64, mode: ReplicationMode, backups: bool) -> (f64, u64) {
    const N: usize = 4;
    let mut sim = Simulation::new(seed);
    let instance_ids = FedNode::federation(&mut sim, mode, vec![ModerationPolicy::none(); N]);
    let mut clients = Vec::new();
    for i in 0..N {
        let home = instance_ids[i];
        let backup_list: Vec<NodeId> = if backups {
            instance_ids
                .iter()
                .copied()
                .filter(|&p| p != home)
                .collect()
        } else {
            Vec::new()
        };
        for _ in 0..2 {
            clients.push(sim.add_node(
                FedNode::client_with_backups(home, backup_list.clone()),
                DeviceClass::PersonalComputer,
            ));
        }
    }
    for &c in &clients {
        sim.with_ctx(c, |n, ctx| n.join(ctx, 1));
        sim.run_for(SimDuration::from_millis(100));
    }
    // Some history.
    for &c in &clients {
        sim.with_ctx(c, |n, ctx| n.post(ctx, 1, 150, PostLabel::Legit));
    }
    sim.run_for(SimDuration::from_secs(10));
    // Half the instances die — including the room origin.
    sim.kill(instance_ids[0]);
    sim.kill(instance_ids[1]);
    // Everyone reads.
    let mut reads = Vec::new();
    for &c in &clients {
        if let Some(op) = sim.with_ctx(c, |n, ctx| n.read(ctx, 1)) {
            reads.push((c, op));
        }
    }
    sim.run_for(SimDuration::from_mins(3));
    let mut ok = 0usize;
    let total = reads.len();
    for (c, op) in reads {
        if matches!(sim.node_mut(c).take_read(op), Some(ReadResult::Ok(_))) {
            ok += 1;
        }
    }
    (
        ok as f64 / total.max(1) as f64,
        sim.metrics().counter("comm.read_failovers"),
    )
}

/// E10: measure how far client failover closes the federated availability
/// gap (and where it cannot help). Keys `e10.*`.
pub fn e10_metrics(seed: u64) -> Metrics {
    let (no_fo, _) = failover_run(seed, ReplicationMode::FullReplication, false);
    let (with_fo, failovers) = failover_run(seed + 1, ReplicationMode::FullReplication, true);
    let (single_fo, _) = failover_run(seed + 2, ReplicationMode::SingleHome, true);
    let mut m = Metrics::new();
    m.gauge_set("e10.replicated_no_failover", no_fo);
    m.gauge_set("e10.replicated_with_failover", with_fo);
    m.gauge_set("e10.single_home_with_failover", single_fo);
    m.incr("e10.failovers", failovers);
    m
}

/// E10's report from its one variant.
pub fn e10_report(variants: &[VariantStats]) -> Report {
    let v = &variants[0];
    let body = format!(
        "Half the federation (including the room origin) dies; every client reads:\n\
         \x20 replicated, no failover   : {:>5.1}% reads succeed (clients of dead homes stranded)\n\
         \x20 replicated, with failover : {:>5.1}% reads succeed ({:.1} failovers exercised)\n\
         \x20 single-home, with failover: {:>5.1}% reads succeed — failover cannot resurrect\n\
         \x20   history whose only copy died with its origin\n\
         Canonical-systems-goals engineering (§5.1) closes the replicated gap;\n\
         the single-home architecture needs replication first.\n",
        v.mean("e10.replicated_no_failover") * 100.0,
        v.mean("e10.replicated_with_failover") * 100.0,
        v.mean("e10.failovers"),
        v.mean("e10.single_home_with_failover") * 100.0,
    );
    Report {
        id: "E10",
        title: "§5.1 implemented: federated failover",
        claim: "federated approaches ... have not been architected with \
                canonical systems goals in mind, such as fault tolerance \
                (§5.1, an 'easy problem')",
        body,
    }
}

/// E11: the encrypted-relay pattern vs pure social P2P under owner churn.
/// Keys `e11.*`.
pub fn e11_metrics(seed: u64) -> Metrics {
    // -- pure social P2P (no caching: the worst case the relay fixes) -----
    let mut sim = Simulation::new(seed);
    let ids: Vec<NodeId> = (0..4u32).map(NodeId).collect();
    for &id in &ids {
        let friends: Vec<NodeId> = (0..4u32).map(NodeId).filter(|&f| f != id).collect();
        sim.add_node(
            SocialNode::new(friends, false),
            DeviceClass::PersonalComputer,
        );
    }
    sim.with_ctx(ids[0], |n, ctx| n.post(ctx, 200, PostLabel::Legit));
    sim.run_for(SimDuration::from_secs(3));
    sim.kill(ids[0]);
    let mut p2p_ok = 0usize;
    let mut reads = Vec::new();
    for &r in &ids[1..] {
        if let Some(op) = sim.with_ctx(r, |n, ctx| n.read_feed(ctx, ids[0])) {
            reads.push((r, op));
        }
    }
    sim.run_for(SimDuration::from_mins(2));
    let p2p_total = reads.len();
    for (r, op) in reads {
        if matches!(sim.node_mut(r).take_read(op), Some(ReadResult::Ok(_))) {
            p2p_ok += 1;
        }
    }

    // -- relay-backed --------------------------------------------------------
    let mut sim = Simulation::new(seed + 1);
    let relay = sim.add_node(RelayNode::relay(), DeviceClass::DatacenterServer);
    let owner = sim.add_node(
        RelayNode::user(relay, b"e11-owner"),
        DeviceClass::PersonalComputer,
    );
    let mut friends = Vec::new();
    for i in 0..3 {
        let f = sim.add_node(
            RelayNode::user(relay, format!("e11-friend-{i}").as_bytes()),
            DeviceClass::PersonalComputer,
        );
        sim.node_mut(f).subscribe(owner, b"e11-owner");
        friends.push(f);
    }
    let stranger = sim.add_node(
        RelayNode::user(relay, b"e11-stranger"),
        DeviceClass::PersonalComputer,
    );
    sim.with_ctx(owner, |n, ctx| n.register(ctx));
    sim.run_for(SimDuration::from_secs(2));
    sim.with_ctx(owner, |n, ctx| n.push_update(ctx, b"post one"));
    sim.run_for(SimDuration::from_secs(3));
    sim.kill(owner);
    let mut relay_ok = 0usize;
    let mut ops = Vec::new();
    for &f in &friends {
        if let Some(op) = sim.with_ctx(f, |n, ctx| n.fetch(ctx, owner)) {
            ops.push((f, op));
        }
    }
    let s_op = sim.with_ctx(stranger, |n, ctx| n.fetch(ctx, owner));
    sim.run_for(SimDuration::from_mins(2));
    let relay_total = ops.len();
    for (f, op) in ops {
        if matches!(
            sim.node_mut(f).take_result(op),
            Some(RelayResult::Decrypted(n)) if n > 0
        ) {
            relay_ok += 1;
        }
    }
    if let Some(op) = s_op {
        let _ = sim.node_mut(stranger).take_result(op);
    }

    let mut m = Metrics::new();
    m.gauge_set(
        "e11.p2p_owner_offline",
        p2p_ok as f64 / p2p_total.max(1) as f64,
    );
    m.gauge_set(
        "e11.relay_owner_offline",
        relay_ok as f64 / relay_total.max(1) as f64,
    );
    m.incr(
        "e11.relay_metadata",
        sim.metrics().counter("comm.metadata_observed_relay"),
    );
    m.incr(
        "e11.stranger_refusals",
        sim.metrics().counter("comm.relay_refusals"),
    );
    m
}

/// E11's report from its one variant.
pub fn e11_report(variants: &[VariantStats]) -> Report {
    let v = &variants[0];
    let body = format!(
        "Owner posts once, then goes offline; friends read the feed:\n\
         \x20 pure social P2P (no caches)      : {:>5.1}% reads succeed\n\
         \x20 encrypted relay on untrusted cloud: {:>5.1}% reads succeed\n\
         The relay held only sealed envelopes (E2E ratchet) behind a \
         capability check:\n\
         \x20 stranger fetches refused          : {:.1}\n\
         \x20 relay metadata observations       : {:.1} (pushes + fetches — the \
         residual cost)\n\
         Authority stays with the keyholder; the cloud is a commodity (§5.3).\n",
        v.mean("e11.p2p_owner_offline") * 100.0,
        v.mean("e11.relay_owner_offline") * 100.0,
        v.mean("e11.stranger_refusals"),
        v.mean("e11.relay_metadata"),
    );
    Report {
        id: "E11",
        title: "§5.3 implemented: encrypted services on untrusted clouds",
        claim: "decoupling authority from infrastructure: ... 'guerrilla' \
                tactics such as running encrypted services on the cloud \
                (§5.3, a 'hard problem')",
        body,
    }
}

/// The centralized ceiling E10/E11 aim at (for context in reports).
pub fn centralized_read_ceiling(seed: u64) -> f64 {
    let mut sim = Simulation::new(seed);
    let server = sim.add_node(
        CentralNode::server(ModerationPolicy::none()),
        DeviceClass::DatacenterServer,
    );
    let c = sim.add_node(CentralNode::client(server), DeviceClass::PersonalComputer);
    sim.with_ctx(c, |n, ctx| n.join(ctx, 1));
    sim.run_for(SimDuration::from_secs(1));
    sim.with_ctx(c, |n, ctx| {
        n.post(ctx, 1, 100, PostLabel::Legit);
    });
    sim.run_for(SimDuration::from_secs(2));
    let op = sim.with_ctx(c, |n, ctx| n.read(ctx, 1)).unwrap();
    sim.run_for(SimDuration::from_secs(10));
    match sim.node_mut(c).take_read(op) {
        Some(ReadResult::Ok(_)) => 1.0,
        _ => 0.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e10_failover_closes_the_gap() {
        let m = e10_metrics(81);
        let with_fo = m.gauge("e10.replicated_with_failover");
        assert!(with_fo > m.gauge("e10.replicated_no_failover"), "{m}");
        assert!(with_fo >= 0.95, "{m}");
        assert!(m.counter("e10.failovers") >= 1);
        // The limit case: single-home origin loss is beyond failover.
        assert!(m.gauge("e10.single_home_with_failover") < with_fo, "{m}");
    }

    #[test]
    fn e11_relay_restores_availability_privately() {
        let m = e11_metrics(91);
        assert_eq!(m.gauge("e11.p2p_owner_offline"), 0.0, "{m}");
        assert_eq!(m.gauge("e11.relay_owner_offline"), 1.0, "{m}");
        assert!(m.counter("e11.stranger_refusals") >= 1);
        assert!(
            m.counter("e11.relay_metadata") > 0,
            "the honest cost is visible"
        );
    }

    #[test]
    fn centralized_ceiling_is_one() {
        assert_eq!(centralized_read_ceiling(99), 1.0);
    }
}
