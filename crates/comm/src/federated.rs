//! Federated group communication, in both §3.2 flavours:
//!
//! * [`ReplicationMode::SingleHome`] — OStatus/Mastodon-style: a post's
//!   history lives only on its origin instance; other instances receive
//!   pushes for their local members but do not replicate history. "OStatus-
//!   based applications are bottlenecked by single servers that can cause
//!   entire instances to be inaccessible if they fail."
//! * [`ReplicationMode::FullReplication`] — Matrix-style: every instance
//!   with a member in the room stores the full room history, so any
//!   member's home can serve reads. "Matrix provides high availability by
//!   replicating data over the entire network."
//!
//! Each instance sets its *own* moderation policy (the paper's point about
//! federated abuse handling), and instances observe metadata for traffic
//! they relay — even when bodies are end-to-end encrypted.

use agora_sim::retry::{CTR_HEDGE_SENT, CTR_HEDGE_WON, CTR_RETRY_ATTEMPTS, CTR_RETRY_GAVE_UP};
use agora_sim::{
    Ctx, DeviceClass, FastMap, NodeId, Protocol, Retrier, RetryPolicy, SimDuration, Simulation,
};

use crate::moderation::{ModerationPolicy, ModerationStats, PostLabel};
use crate::posts::{Post, ReadResult};

/// History replication strategy.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ReplicationMode {
    /// History lives only at the origin instance (OStatus-like).
    SingleHome,
    /// Every participating instance stores full history (Matrix-like).
    FullReplication,
}

/// Wire messages.
#[derive(Clone, Debug)]
pub enum FedMsg {
    /// Client → home: join a room.
    Join {
        /// Room id.
        room: u32,
    },
    /// Server → all servers: membership gossip.
    Membership {
        /// Room id.
        room: u32,
        /// The member client.
        client: NodeId,
        /// That client's home server.
        home: NodeId,
    },
    /// Client → home: submit a post.
    Submit(Post),
    /// Server → server: federate a post.
    Federate(Post),
    /// Server → local client: deliver a post.
    Deliver(Post),
    /// Client → home: read room history.
    Read {
        /// Room id.
        room: u32,
        /// Client op id.
        op: u64,
    },
    /// Home → origin: forwarded read (single-home mode).
    RemoteRead {
        /// Room id.
        room: u32,
        /// Originating client.
        client: NodeId,
        /// Client op id.
        op: u64,
    },
    /// Read response (server → client, possibly across instances).
    ReadResp {
        /// Echoed op id.
        op: u64,
        /// History length if served.
        count: Option<usize>,
    },
}

impl FedMsg {
    fn wire_size(&self) -> u64 {
        match self {
            FedMsg::Join { .. } => 8,
            FedMsg::Membership { .. } => 20,
            FedMsg::Submit(p) | FedMsg::Federate(p) | FedMsg::Deliver(p) => p.wire_size(),
            FedMsg::Read { .. } => 16,
            FedMsg::RemoteRead { .. } => 24,
            FedMsg::ReadResp { .. } => 24,
        }
    }
}

#[derive(Default)]
struct RoomState {
    /// Full history (origin always; others only under FullReplication).
    posts: Vec<Post>,
    /// (client, home) pairs, gossiped across the federation.
    members: Vec<(NodeId, NodeId)>,
    /// Room origin: the instance where the room was first joined.
    origin: Option<NodeId>,
}

/// Instance (server) state.
pub struct InstanceState {
    peers: Vec<NodeId>,
    mode: ReplicationMode,
    policy: ModerationPolicy,
    stats: ModerationStats,
    rooms: FastMap<u32, RoomState>,
}

/// A read still awaiting an answer.
struct PendingRead {
    room: u32,
    /// Next backup index to fail over to.
    attempt: usize,
    /// Backoff cursor for retrying the *home* before failing over.
    retrier: Retrier,
    /// Whether a hedged duplicate has been sent to `backups[0]`.
    hedged: bool,
}

/// Client state.
pub struct FedClientState {
    home: NodeId,
    /// Fallback instances tried in order when a read goes unanswered
    /// (§5.1: "eliminating single points of failure in federated
    /// approaches"). Useful only under FullReplication, where any instance
    /// can serve history.
    backups: Vec<NodeId>,
    next_seq: u64,
    next_op: u64,
    reads: FastMap<u64, ReadResult>,
    /// Reads still awaiting an answer, by op.
    pending_reads: FastMap<u64, PendingRead>,
    delivered: u64,
    /// Read retry/hedge policy. [`RetryPolicy::none`] (the default)
    /// reproduces the pre-hardening timeout-then-failover path
    /// byte-for-byte.
    retry: RetryPolicy,
}

/// Timer-tag bit marking a hedge deadline rather than a read timeout. Ops
/// are small sequential integers, so the high bit can never collide.
const HEDGE_TAG: u64 = 1 << 63;

enum Role {
    Instance(InstanceState),
    Client(FedClientState),
}

/// A participant in the federated architecture.
pub struct FedNode {
    role: Role,
}

const READ_TIMEOUT: SimDuration = SimDuration::from_secs(10);

impl FedNode {
    /// An instance with its own policy. `peers` = the other instances.
    pub fn instance(
        peers: Vec<NodeId>,
        mode: ReplicationMode,
        policy: ModerationPolicy,
    ) -> FedNode {
        FedNode {
            role: Role::Instance(InstanceState {
                peers,
                mode,
                policy,
                stats: ModerationStats::default(),
                rooms: FastMap::default(),
            }),
        }
    }

    /// A federation: one data-center instance per policy, each peered
    /// with every other in id order. Returns the instance ids, which start
    /// at `sim`'s next id.
    pub fn federation(
        sim: &mut Simulation<FedNode>,
        mode: ReplicationMode,
        policies: Vec<ModerationPolicy>,
    ) -> Vec<NodeId> {
        let first = sim.node_count() as u32;
        let ids: Vec<NodeId> = (first..first + policies.len() as u32).map(NodeId).collect();
        for (&me, policy) in ids.iter().zip(policies) {
            let peers = ids.iter().copied().filter(|&p| p != me).collect();
            sim.add_node(
                FedNode::instance(peers, mode, policy),
                DeviceClass::DatacenterServer,
            );
        }
        ids
    }

    /// A client homed on `home`.
    pub fn client(home: NodeId) -> FedNode {
        FedNode::client_with_backups(home, Vec::new())
    }

    /// A client that fails reads over to backup instances when its home
    /// does not answer — the §5.1 fix, implemented. Only helps when the
    /// federation replicates history (FullReplication); a single-home
    /// origin that died is gone no matter whom you ask, which experiment
    /// E10 demonstrates.
    pub fn client_with_backups(home: NodeId, backups: Vec<NodeId>) -> FedNode {
        FedNode::client_with_retry(home, backups, RetryPolicy::none())
    }

    /// A client with backups *and* a retry/hedge policy: unanswered reads
    /// retry the home with jittered backoff before failing over, and (if
    /// `retry.hedge_after` is set) a hedged duplicate read races the slow
    /// home against `backups[0]`.
    pub fn client_with_retry(home: NodeId, backups: Vec<NodeId>, retry: RetryPolicy) -> FedNode {
        FedNode {
            role: Role::Client(FedClientState {
                home,
                backups,
                next_seq: 0,
                next_op: 0,
                reads: FastMap::default(),
                pending_reads: FastMap::default(),
                delivered: 0,
                retry,
            }),
        }
    }

    /// Instance moderation stats.
    pub fn moderation_stats(&self) -> Option<ModerationStats> {
        match &self.role {
            Role::Instance(s) => Some(s.stats),
            Role::Client(_) => None,
        }
    }

    /// Posts delivered to this client.
    pub fn delivered_count(&self) -> u64 {
        match &self.role {
            Role::Client(c) => c.delivered,
            Role::Instance(_) => 0,
        }
    }

    /// History length an instance holds for a room (diagnostics).
    pub fn room_history_len(&self, room: u32) -> usize {
        match &self.role {
            Role::Instance(s) => s.rooms.get(&room).map_or(0, |r| r.posts.len()),
            Role::Client(_) => 0,
        }
    }

    /// Client action: join a room (via the home instance).
    pub fn join(&mut self, ctx: &mut Ctx<'_, FedMsg>, room: u32) {
        let Role::Client(c) = &self.role else { return };
        ctx.send(c.home, FedMsg::Join { room }, 8);
    }

    /// Client action: post to a room.
    pub fn post(&mut self, ctx: &mut Ctx<'_, FedMsg>, room: u32, bytes: u64, label: PostLabel) {
        let Role::Client(c) = &mut self.role else {
            panic!("post on instance")
        };
        let post = Post {
            author: ctx.id(),
            room,
            seq: c.next_seq,
            bytes,
            label,
            sent_at_micros: ctx.now().micros(),
        };
        c.next_seq += 1;
        let size = post.wire_size();
        ctx.send(c.home, FedMsg::Submit(post), size);
    }

    /// Client action: read history via the home instance.
    pub fn read(&mut self, ctx: &mut Ctx<'_, FedMsg>, room: u32) -> u64 {
        let Role::Client(c) = &mut self.role else {
            panic!("read on instance")
        };
        let op = c.next_op;
        c.next_op += 1;
        ctx.send(c.home, FedMsg::Read { room, op }, 16);
        c.pending_reads.insert(
            op,
            PendingRead {
                room,
                attempt: 0,
                retrier: Retrier::new(c.retry),
                hedged: false,
            },
        );
        ctx.set_timer(READ_TIMEOUT, op);
        if let Some(hedge_after) = c.retry.hedge_after {
            if !c.backups.is_empty() {
                ctx.set_timer(hedge_after, HEDGE_TAG | op);
            }
        }
        op
    }

    /// Collect a read outcome.
    pub fn take_read(&mut self, op: u64) -> Option<ReadResult> {
        match &mut self.role {
            Role::Client(c) => c.reads.remove(&op),
            Role::Instance(_) => None,
        }
    }

    fn instance_store_and_deliver(
        s: &mut InstanceState,
        ctx: &mut Ctx<'_, FedMsg>,
        post: Post,
        is_origin: bool,
    ) {
        let me = ctx.id();
        let Some(r) = s.rooms.get_mut(&post.room) else {
            return;
        };
        if is_origin || s.mode == ReplicationMode::FullReplication {
            r.posts.push(post);
        }
        // Deliver to local members.
        let locals: Vec<NodeId> = r
            .members
            .iter()
            .filter(|(client, home)| *home == me && *client != post.author)
            .map(|(client, _)| *client)
            .collect();
        let msg = FedMsg::Deliver(post);
        let size = msg.wire_size();
        ctx.multicast(&locals, msg, size);
    }
}

impl Protocol for FedNode {
    type Msg = FedMsg;

    fn on_message(&mut self, ctx: &mut Ctx<'_, FedMsg>, from: NodeId, msg: FedMsg) {
        match (&mut self.role, msg) {
            (Role::Instance(s), FedMsg::Join { room }) => {
                let me = ctx.id();
                let r = s.rooms.entry(room).or_default();
                if r.origin.is_none() {
                    r.origin = Some(me);
                }
                if !r.members.iter().any(|(c, _)| *c == from) {
                    r.members.push((from, me));
                }
                let origin = r.origin.expect("set above");
                for &p in &s.peers {
                    ctx.send(
                        p,
                        FedMsg::Membership {
                            room,
                            client: from,
                            home: me,
                        },
                        20,
                    );
                    // First-joiner also gossips origin via membership order;
                    // peers learn origin from the first membership they see.
                    let _ = origin;
                }
            }
            (Role::Instance(s), FedMsg::Membership { room, client, home }) => {
                let r = s.rooms.entry(room).or_default();
                if r.origin.is_none() {
                    r.origin = Some(home);
                }
                if !r.members.iter().any(|(c, _)| *c == client) {
                    r.members.push((client, home));
                }
            }
            (Role::Instance(s), FedMsg::Submit(post)) => {
                // The home instance observes the sender's metadata even when
                // bodies are E2E-encrypted (the paper's Matrix caveat).
                ctx.metrics().incr("comm.metadata_observed", 1);
                let blocked = s.policy.blocks(post.label, ctx.rng());
                s.stats.record(post.label, blocked);
                if blocked {
                    ctx.metrics().incr("comm.posts_blocked", 1);
                    return;
                }
                // Federate to every instance with members in the room.
                let targets: Vec<NodeId> = {
                    let Some(r) = s.rooms.get(&post.room) else {
                        return;
                    };
                    let me = ctx.id();
                    let mut t: Vec<NodeId> = r
                        .members
                        .iter()
                        .map(|(_, home)| *home)
                        .filter(|h| *h != me)
                        .collect();
                    t.sort();
                    t.dedup();
                    t
                };
                let msg = FedMsg::Federate(post);
                let size = msg.wire_size();
                ctx.multicast(&targets, msg, size);
                Self::instance_store_and_deliver(s, ctx, post, true);
            }
            (Role::Instance(s), FedMsg::Federate(post)) => {
                // Relaying instances also see metadata.
                ctx.metrics().incr("comm.metadata_observed", 1);
                Self::instance_store_and_deliver(s, ctx, post, false);
            }
            (Role::Instance(s), FedMsg::Read { room, op }) => {
                let me = ctx.id();
                match s.mode {
                    ReplicationMode::FullReplication => {
                        let count = s.rooms.get(&room).map(|r| r.posts.len());
                        ctx.send(from, FedMsg::ReadResp { op, count }, 24);
                    }
                    ReplicationMode::SingleHome => {
                        let origin = s.rooms.get(&room).and_then(|r| r.origin);
                        match origin {
                            Some(o) if o == me => {
                                let count = s.rooms.get(&room).map(|r| r.posts.len());
                                ctx.send(from, FedMsg::ReadResp { op, count }, 24);
                            }
                            Some(o) => {
                                // Forward to the origin; it answers the client
                                // directly.
                                ctx.send(
                                    o,
                                    FedMsg::RemoteRead {
                                        room,
                                        client: from,
                                        op,
                                    },
                                    24,
                                );
                            }
                            None => {
                                ctx.send(from, FedMsg::ReadResp { op, count: None }, 24);
                            }
                        }
                    }
                }
            }
            (Role::Instance(s), FedMsg::RemoteRead { room, client, op }) => {
                let count = s.rooms.get(&room).map(|r| r.posts.len());
                ctx.send(client, FedMsg::ReadResp { op, count }, 24);
            }
            (Role::Client(c), FedMsg::Deliver(post)) => {
                c.delivered += 1;
                ctx.metrics().incr("comm.posts_delivered", 1);
                if matches!(post.label, PostLabel::Abuse(_)) {
                    ctx.metrics().incr("comm.abuse_delivered", 1);
                }
                let latency = (ctx.now().micros() - post.sent_at_micros) as f64 / 1e6;
                ctx.metrics().sample("comm.delivery_secs", latency);
                ctx.trace_point("comm.delivery_secs", latency);
                ctx.probe_signal("comm.delivery_secs", latency);
            }
            (Role::Client(c), FedMsg::ReadResp { op, count }) => {
                if let Some(pending) = c.pending_reads.remove(&op) {
                    // Hedge attribution: the answer that completed the op
                    // came from somewhere other than the home after a
                    // hedged duplicate was issued.
                    if pending.hedged && from != c.home {
                        ctx.metrics().incr(CTR_HEDGE_WON, 1);
                        ctx.trace_point("hedge.won", op as f64);
                    }
                }
                // With retries/hedges (or chaos duplication) the same op
                // can be answered more than once; count it once. The
                // dormant path keeps the historical unconditional
                // increment.
                let duplicate = c.retry.is_active() && c.reads.contains_key(&op);
                c.reads.entry(op).or_insert(match count {
                    Some(n) => ReadResult::Ok(n),
                    None => ReadResult::Unavailable,
                });
                if !duplicate {
                    ctx.metrics().incr("comm.reads_ok", 1);
                }
            }
            _ => {}
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, FedMsg>, tag: u64) {
        let Role::Client(c) = &mut self.role else {
            return;
        };
        // Hedge deadline: if the read is still unanswered, race a
        // duplicate against backups[0]. Only ever armed by an active
        // policy with `hedge_after` set.
        if tag & HEDGE_TAG != 0 {
            let op = tag & !HEDGE_TAG;
            if let Some(pending) = c.pending_reads.get_mut(&op) {
                if !pending.hedged && !c.backups.is_empty() {
                    pending.hedged = true;
                    let room = pending.room;
                    let target = c.backups[0];
                    ctx.metrics().incr(CTR_HEDGE_SENT, 1);
                    ctx.trace_point("hedge.sent", op as f64);
                    ctx.send(target, FedMsg::Read { room, op }, 16);
                }
            }
            return;
        }
        let op = tag;
        if c.reads.contains_key(&op) {
            c.pending_reads.remove(&op);
            return;
        }
        if op >= c.next_op {
            return;
        }
        if let Some(pending) = c.pending_reads.get_mut(&op) {
            // Retry the home with jittered backoff first (no-draw no-op
            // under the dormant policy) ...
            if let Some(backoff) = pending.retrier.next_backoff(ctx.rng()) {
                let room = pending.room;
                ctx.metrics().incr(CTR_RETRY_ATTEMPTS, 1);
                ctx.trace_point("retry.attempt", op as f64);
                ctx.send(c.home, FedMsg::Read { room, op }, 16);
                ctx.set_timer(READ_TIMEOUT + backoff, op);
                return;
            }
            // ... then fail over to the next backup instance, if any.
            if pending.attempt < c.backups.len() {
                let target = c.backups[pending.attempt];
                let room = pending.room;
                ctx.trace_point("comm.read_failovers", pending.attempt as f64);
                pending.attempt += 1;
                ctx.metrics().incr("comm.read_failovers", 1);
                ctx.send(target, FedMsg::Read { room, op }, 16);
                ctx.set_timer(READ_TIMEOUT, op);
                return;
            }
            c.pending_reads.remove(&op);
            if c.retry.is_active() {
                ctx.metrics().incr(CTR_RETRY_GAVE_UP, 1);
                ctx.trace_point("retry.gave_up", op as f64);
            }
        }
        c.reads.insert(op, ReadResult::Unavailable);
        ctx.metrics().incr("comm.reads_failed", 1);
        ctx.trace_point("comm.reads_failed", 1.0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Two instances, two clients each, one shared room (room 1). The room's
    /// origin is instance 0 (its client joins first).
    fn build(mode: ReplicationMode, seed: u64) -> (Simulation<FedNode>, Vec<NodeId>, Vec<NodeId>) {
        let mut sim = Simulation::new(seed);
        let instances = FedNode::federation(&mut sim, mode, vec![ModerationPolicy::none(); 2]);
        let (i0, i1) = (instances[0], instances[1]);
        let c0 = sim.add_node(FedNode::client(i0), DeviceClass::PersonalComputer);
        let c1 = sim.add_node(FedNode::client(i0), DeviceClass::PersonalComputer);
        let c2 = sim.add_node(FedNode::client(i1), DeviceClass::PersonalComputer);
        let c3 = sim.add_node(FedNode::client(i1), DeviceClass::PersonalComputer);
        for &c in &[c0, c1, c2, c3] {
            sim.with_ctx(c, |n, ctx| n.join(ctx, 1)).unwrap();
            sim.run_for(SimDuration::from_millis(200)); // deterministic join order
        }
        sim.run_for(SimDuration::from_secs(2));
        (sim, instances, vec![c0, c1, c2, c3])
    }

    #[test]
    fn cross_instance_delivery() {
        for mode in [
            ReplicationMode::SingleHome,
            ReplicationMode::FullReplication,
        ] {
            let (mut sim, _instances, clients) = build(mode, 1);
            sim.with_ctx(clients[0], |n, ctx| n.post(ctx, 1, 150, PostLabel::Legit))
                .unwrap();
            sim.run_for(SimDuration::from_secs(5));
            for &c in &clients[1..] {
                assert_eq!(sim.node(c).delivered_count(), 1, "mode {mode:?}");
            }
        }
    }

    #[test]
    fn full_replication_stores_history_everywhere() {
        let (mut sim, instances, clients) = build(ReplicationMode::FullReplication, 2);
        sim.with_ctx(clients[0], |n, ctx| n.post(ctx, 1, 100, PostLabel::Legit))
            .unwrap();
        sim.with_ctx(clients[2], |n, ctx| n.post(ctx, 1, 100, PostLabel::Legit))
            .unwrap();
        sim.run_for(SimDuration::from_secs(5));
        assert_eq!(sim.node(instances[0]).room_history_len(1), 2);
        assert_eq!(sim.node(instances[1]).room_history_len(1), 2);
    }

    #[test]
    fn single_home_stores_history_only_at_origin() {
        let (mut sim, instances, clients) = build(ReplicationMode::SingleHome, 3);
        sim.with_ctx(clients[0], |n, ctx| n.post(ctx, 1, 100, PostLabel::Legit))
            .unwrap();
        sim.run_for(SimDuration::from_secs(5));
        assert_eq!(sim.node(instances[0]).room_history_len(1), 1);
        assert_eq!(sim.node(instances[1]).room_history_len(1), 0);
    }

    #[test]
    fn origin_failure_kills_single_home_reads_but_not_full_replication() {
        // Single-home: remote client's read fails once the origin is down.
        let (mut sim, instances, clients) = build(ReplicationMode::SingleHome, 4);
        sim.with_ctx(clients[0], |n, ctx| n.post(ctx, 1, 100, PostLabel::Legit))
            .unwrap();
        sim.run_for(SimDuration::from_secs(3));
        sim.kill(instances[0]);
        let op = sim.with_ctx(clients[2], |n, ctx| n.read(ctx, 1)).unwrap();
        sim.run_for(SimDuration::from_secs(30));
        assert_eq!(
            sim.node_mut(clients[2]).take_read(op),
            Some(ReadResult::Unavailable),
            "single-home read must fail with origin down"
        );

        // Full replication: same scenario succeeds from the surviving home.
        let (mut sim, instances, clients) = build(ReplicationMode::FullReplication, 5);
        sim.with_ctx(clients[0], |n, ctx| n.post(ctx, 1, 100, PostLabel::Legit))
            .unwrap();
        sim.run_for(SimDuration::from_secs(3));
        sim.kill(instances[0]);
        let op = sim.with_ctx(clients[2], |n, ctx| n.read(ctx, 1)).unwrap();
        sim.run_for(SimDuration::from_secs(30));
        assert_eq!(
            sim.node_mut(clients[2]).take_read(op),
            Some(ReadResult::Ok(1)),
            "replicated read must survive origin failure"
        );
    }

    #[test]
    fn per_instance_policies_differ() {
        use crate::moderation::AbuseKind;
        // Instance 0 tolerant, instance 1 strict about brigading.
        let mut sim = Simulation::new(6);
        let ids = FedNode::federation(
            &mut sim,
            ReplicationMode::FullReplication,
            vec![
                ModerationPolicy::spam_only(),
                ModerationPolicy::platform_default(),
            ],
        );
        let (i0, i1) = (ids[0], ids[1]);
        let c0 = sim.add_node(FedNode::client(i0), DeviceClass::PersonalComputer);
        let c1 = sim.add_node(FedNode::client(i1), DeviceClass::PersonalComputer);
        for &c in &[c0, c1] {
            sim.with_ctx(c, |n, ctx| n.join(ctx, 1)).unwrap();
            sim.run_for(SimDuration::from_millis(200));
        }
        // Brigading from c0 (tolerant home) goes through; from c1 (strict
        // home) is mostly blocked at submission.
        for _ in 0..30 {
            sim.with_ctx(c0, |n, ctx| {
                n.post(ctx, 1, 50, PostLabel::Abuse(AbuseKind::Brigading))
            })
            .unwrap();
            sim.with_ctx(c1, |n, ctx| {
                n.post(ctx, 1, 50, PostLabel::Abuse(AbuseKind::Brigading))
            })
            .unwrap();
        }
        sim.run_for(SimDuration::from_secs(10));
        let tolerant = sim.node(i0).moderation_stats().unwrap();
        let strict = sim.node(i1).moderation_stats().unwrap();
        assert_eq!(tolerant.abuse_blocked, 0);
        assert!(
            strict.abuse_blocked > 20,
            "blocked {}",
            strict.abuse_blocked
        );
    }

    #[test]
    fn backup_failover_rescues_replicated_reads() {
        // FullReplication + backups: home dies, the read fails over and
        // succeeds from the surviving instance (§5.1 implemented).
        let mut sim = Simulation::new(8);
        let ids = FedNode::federation(
            &mut sim,
            ReplicationMode::FullReplication,
            vec![ModerationPolicy::none(); 2],
        );
        let (i0, i1) = (ids[0], ids[1]);
        let author = sim.add_node(FedNode::client(i1), DeviceClass::PersonalComputer);
        let reader = sim.add_node(
            FedNode::client_with_backups(i0, vec![i1]),
            DeviceClass::PersonalComputer,
        );
        for &c in &[author, reader] {
            sim.with_ctx(c, |n, ctx| n.join(ctx, 1)).unwrap();
            sim.run_for(SimDuration::from_millis(200));
        }
        sim.with_ctx(author, |n, ctx| n.post(ctx, 1, 100, PostLabel::Legit))
            .unwrap();
        sim.run_for(SimDuration::from_secs(3));
        // Reader's home dies; without backups this read would fail.
        sim.kill(i0);
        let op = sim.with_ctx(reader, |n, ctx| n.read(ctx, 1)).unwrap();
        sim.run_for(SimDuration::from_secs(60));
        assert_eq!(
            sim.node_mut(reader).take_read(op),
            Some(ReadResult::Ok(1)),
            "failover should rescue the read"
        );
        assert!(sim.metrics().counter("comm.read_failovers") >= 1);
    }

    #[test]
    fn hedged_read_beats_dead_home_without_waiting_for_timeout() {
        let mut sim = Simulation::new(21);
        let ids = FedNode::federation(
            &mut sim,
            ReplicationMode::FullReplication,
            vec![ModerationPolicy::none(); 2],
        );
        let (i0, i1) = (ids[0], ids[1]);
        let author = sim.add_node(FedNode::client(i1), DeviceClass::PersonalComputer);
        let policy = RetryPolicy {
            hedge_after: Some(SimDuration::from_secs(2)),
            ..RetryPolicy::none()
        };
        let reader = sim.add_node(
            FedNode::client_with_retry(i0, vec![i1], policy),
            DeviceClass::PersonalComputer,
        );
        for &c in &[author, reader] {
            sim.with_ctx(c, |n, ctx| n.join(ctx, 1)).unwrap();
            sim.run_for(SimDuration::from_millis(200));
        }
        sim.with_ctx(author, |n, ctx| n.post(ctx, 1, 100, PostLabel::Legit))
            .unwrap();
        sim.run_for(SimDuration::from_secs(3));
        sim.kill(i0);
        let op = sim.with_ctx(reader, |n, ctx| n.read(ctx, 1)).unwrap();
        // The hedge fires at +2s and the backup answers long before the
        // 10s read timeout would even start a failover.
        sim.run_for(SimDuration::from_secs(5));
        assert_eq!(
            sim.node_mut(reader).take_read(op),
            Some(ReadResult::Ok(1)),
            "hedged read should complete from the backup"
        );
        assert_eq!(sim.metrics().counter("hedge.sent"), 1);
        assert_eq!(sim.metrics().counter("hedge.won"), 1);
        assert_eq!(sim.metrics().counter("comm.read_failovers"), 0);
    }

    #[test]
    fn failover_cannot_rescue_single_home_origin_loss() {
        // §5.1's limit: failover routes around dead *serving* instances,
        // but a single-home origin that died took the only copy with it.
        let mut sim = Simulation::new(9);
        let ids = FedNode::federation(
            &mut sim,
            ReplicationMode::SingleHome,
            vec![ModerationPolicy::none(); 2],
        );
        let (i0, i1) = (ids[0], ids[1]);
        let author = sim.add_node(FedNode::client(i0), DeviceClass::PersonalComputer);
        let reader = sim.add_node(
            FedNode::client_with_backups(i1, vec![i1]),
            DeviceClass::PersonalComputer,
        );
        for &c in &[author, reader] {
            sim.with_ctx(c, |n, ctx| n.join(ctx, 1)).unwrap();
            sim.run_for(SimDuration::from_millis(200));
        }
        sim.with_ctx(author, |n, ctx| n.post(ctx, 1, 100, PostLabel::Legit))
            .unwrap();
        sim.run_for(SimDuration::from_secs(3));
        sim.kill(i0); // the origin holding the only history copy
        let op = sim.with_ctx(reader, |n, ctx| n.read(ctx, 1)).unwrap();
        sim.run_for(SimDuration::from_secs(90));
        assert_eq!(
            sim.node_mut(reader).take_read(op),
            Some(ReadResult::Unavailable),
            "no backup holds single-home history"
        );
    }

    #[test]
    fn metadata_observed_by_relaying_instances() {
        let (mut sim, _instances, clients) = build(ReplicationMode::FullReplication, 7);
        sim.with_ctx(clients[0], |n, ctx| n.post(ctx, 1, 100, PostLabel::Legit))
            .unwrap();
        sim.run_for(SimDuration::from_secs(5));
        // Home observes the submit, the peer instance observes the federate.
        assert_eq!(sim.metrics().counter("comm.metadata_observed"), 2);
    }

    #[test]
    fn federation_peers_its_own_ids_on_a_sim_that_holds_nodes() {
        let mut sim = Simulation::new(10);
        let first = FedNode::federation(
            &mut sim,
            ReplicationMode::SingleHome,
            vec![ModerationPolicy::none(); 2],
        );
        sim.add_node(FedNode::client(first[0]), DeviceClass::PersonalComputer);
        let ids = FedNode::federation(
            &mut sim,
            ReplicationMode::FullReplication,
            vec![ModerationPolicy::none(); 3],
        );
        assert_eq!(ids, [NodeId(3), NodeId(4), NodeId(5)]);
        for &me in &ids {
            let Role::Instance(s) = &sim.node(me).role else {
                panic!("{me:?} is not an instance")
            };
            let others: Vec<NodeId> = ids.iter().copied().filter(|&p| p != me).collect();
            assert_eq!(s.peers, others, "{me:?}");
            assert_eq!(s.mode, ReplicationMode::FullReplication);
        }
    }
}
