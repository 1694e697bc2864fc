//! Scenario: a community gets deplatformed and flees to the architectures
//! the paper surveys — the §1/§3.2 motivation, dramatized with real runs.
//!
//! Act I   — life under the feudal lord: great delivery, total surveillance,
//!           then the operator bans the community.
//! Act II  — exodus to a federation: per-instance rules, but the OStatus-
//!           style instance is a single point of failure.
//! Act III — Matrix-style replication keeps the history alive.
//! Act IV  — the privacy purists go socially-aware P2P and pay in
//!           availability.
//!
//! Run with: `cargo run --release --example community_exodus`

use agora::comm::{
    CentralNode, FedNode, ModerationPolicy, PostLabel, ReadResult, ReplicationMode, SocialNode,
};
use agora::sim::{DeviceClass, NodeId, SimDuration, Simulation};

fn main() {
    act1_centralized();
    act2_single_home();
    act3_replicated();
    act4_social();
    println!("\nMoral (§2): every architecture buys some properties by selling others.");
}

fn act1_centralized() {
    println!("— Act I: the feudal platform —");
    let mut sim = Simulation::new(1);
    let server = sim.add_node(
        CentralNode::server(ModerationPolicy::platform_default()),
        DeviceClass::DatacenterServer,
    );
    let members: Vec<NodeId> = (0..8)
        .map(|_| sim.add_node(CentralNode::client(server), DeviceClass::PersonalComputer))
        .collect();
    for &m in &members {
        sim.with_ctx(m, |n, ctx| n.join(ctx, 1));
    }
    sim.run_for(SimDuration::from_secs(2));
    for &m in &members {
        sim.with_ctx(m, |n, ctx| {
            n.post(ctx, 1, 300, PostLabel::Legit);
        });
    }
    sim.run_for(SimDuration::from_secs(10));
    let delivered = sim.metrics().counter("comm.posts_delivered");
    let observed = sim.metrics().counter("comm.metadata_observed");
    println!("  8 members post once: {delivered} deliveries, operator observed {observed} posts");

    // The operator decides the community "misbehaves".
    for &m in &members {
        sim.node_mut(server).ban(m);
    }
    for &m in &members {
        sim.with_ctx(m, |n, ctx| {
            n.post(ctx, 1, 300, PostLabel::Legit);
        });
    }
    sim.run_for(SimDuration::from_secs(10));
    let after = sim.metrics().counter("comm.posts_delivered");
    println!(
        "  after the ban: {} further deliveries — \"access can be unequivocally revoked\" (§3.2)\n",
        after - delivered
    );
}

fn act2_single_home() {
    println!("— Act II: OStatus-style federation —");
    let mut sim = Simulation::new(2);
    let ids = FedNode::federation(
        &mut sim,
        ReplicationMode::SingleHome,
        vec![ModerationPolicy::spam_only(); 2],
    );
    let (i0, i1) = (ids[0], ids[1]);
    let home0: Vec<NodeId> = (0..4)
        .map(|_| sim.add_node(FedNode::client(i0), DeviceClass::PersonalComputer))
        .collect();
    let remote = sim.add_node(FedNode::client(i1), DeviceClass::PersonalComputer);
    for &c in home0.iter().chain([remote].iter()) {
        sim.with_ctx(c, |n, ctx| n.join(ctx, 1));
        sim.run_for(SimDuration::from_millis(100));
    }
    for &c in &home0 {
        sim.with_ctx(c, |n, ctx| n.post(ctx, 1, 300, PostLabel::Legit));
    }
    sim.run_for(SimDuration::from_secs(10));
    println!(
        "  community rebuilt on its own instance; {} deliveries, nobody can ban them globally",
        sim.metrics().counter("comm.posts_delivered")
    );
    sim.kill(i0);
    let op = sim.with_ctx(remote, |n, ctx| n.read(ctx, 1)).unwrap();
    sim.run_for(SimDuration::from_secs(30));
    let read = sim.node_mut(remote).take_read(op);
    println!(
        "  ...but the origin instance dies and remote reads return {:?} — \"entire instances \
         inaccessible if they fail\" (§3.2)\n",
        read.unwrap_or(ReadResult::Unavailable)
    );
}

fn act3_replicated() {
    println!("— Act III: Matrix-style replication —");
    let mut sim = Simulation::new(3);
    let ids = FedNode::federation(
        &mut sim,
        ReplicationMode::FullReplication,
        vec![ModerationPolicy::spam_only(); 2],
    );
    let (i0, i1) = (ids[0], ids[1]);
    let author = sim.add_node(FedNode::client(i0), DeviceClass::PersonalComputer);
    let remote = sim.add_node(FedNode::client(i1), DeviceClass::PersonalComputer);
    for &c in &[author, remote] {
        sim.with_ctx(c, |n, ctx| n.join(ctx, 1));
        sim.run_for(SimDuration::from_millis(100));
    }
    sim.with_ctx(author, |n, ctx| n.post(ctx, 1, 300, PostLabel::Legit));
    sim.run_for(SimDuration::from_secs(5));
    sim.kill(i0);
    let op = sim.with_ctx(remote, |n, ctx| n.read(ctx, 1)).unwrap();
    sim.run_for(SimDuration::from_secs(30));
    println!(
        "  origin dies again, but the remote instance replicated the room: read = {:?}",
        sim.node_mut(remote).take_read(op).unwrap()
    );
    println!(
        "  cost: every relaying instance observed the metadata ({} observations)\n",
        sim.metrics().counter("comm.metadata_observed")
    );
}

fn act4_social() {
    println!("— Act IV: socially-aware P2P —");
    let mut sim = Simulation::new(4);
    let ids: Vec<NodeId> = (0..3u32).map(NodeId).collect();
    sim.add_node(
        SocialNode::new(vec![ids[1], ids[2]], false),
        DeviceClass::PersonalComputer,
    );
    sim.add_node(
        SocialNode::new(vec![ids[0], ids[2]], false),
        DeviceClass::PersonalComputer,
    );
    sim.add_node(
        SocialNode::new(vec![ids[0], ids[1]], false),
        DeviceClass::PersonalComputer,
    );
    sim.with_ctx(ids[0], |n, ctx| n.post(ctx, 300, PostLabel::Legit));
    sim.run_for(SimDuration::from_secs(5));
    println!(
        "  posts flow only to chosen friends ({} deliveries, {} server observations)",
        sim.metrics().counter("comm.posts_delivered"),
        sim.metrics().counter("comm.metadata_observed"),
    );
    sim.kill(ids[0]);
    let op = sim
        .with_ctx(ids[1], |n, ctx| n.read_feed(ctx, ids[0]))
        .unwrap();
    sim.run_for(SimDuration::from_mins(1));
    println!(
        "  owner goes offline: friend's read = {:?} — privacy bought with availability (§3.2)",
        sim.node_mut(ids[1]).take_read(op).unwrap()
    );
}
