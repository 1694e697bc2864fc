//! The centralized OSN/messaging baseline: one operator, one policy, one
//! point of control — the "feudal" architecture of §2.
//!
//! The operator's server sees every post and all its metadata
//! (`comm.metadata_observed`), applies the single platform-wide moderation
//! policy, and can unilaterally deplatform users — all of which the paper
//! identifies as the price of the architecture's excellent availability and
//! abuse handling.

use agora_sim::retry::{CTR_RETRY_ATTEMPTS, CTR_RETRY_GAVE_UP};
use agora_sim::{Ctx, FastMap, NodeId, Protocol, Retrier, RetryPolicy, SimDuration};

use crate::moderation::{ModerationPolicy, ModerationStats, PostLabel};
use crate::posts::{Post, ReadResult};

/// Wire messages.
#[derive(Clone, Debug)]
pub enum CentralMsg {
    /// Client joins a room.
    Join {
        /// Room id.
        room: u32,
    },
    /// Client submits a post.
    Submit(Post),
    /// Server pushes a post to a member.
    Deliver(Post),
    /// Client asks for a room's history length.
    Read {
        /// Room id.
        room: u32,
        /// Client op id.
        op: u64,
    },
    /// Server's read response.
    ReadResp {
        /// Echoed op id.
        op: u64,
        /// Number of posts, or None if the room is unknown.
        count: Option<usize>,
    },
}

impl CentralMsg {
    fn wire_size(&self) -> u64 {
        match self {
            CentralMsg::Join { .. } => 8,
            CentralMsg::Submit(p) | CentralMsg::Deliver(p) => p.wire_size(),
            CentralMsg::Read { .. } => 16,
            CentralMsg::ReadResp { .. } => 24,
        }
    }
}

struct Room {
    posts: Vec<Post>,
    members: Vec<NodeId>,
}

/// Server-side state.
pub struct ServerState {
    rooms: FastMap<u32, Room>,
    policy: ModerationPolicy,
    stats: ModerationStats,
    banned: Vec<NodeId>,
}

/// Client-side state.
pub struct ClientState {
    server: NodeId,
    next_seq: u64,
    next_op: u64,
    reads: FastMap<u64, ReadResult>,
    delivered: u64,
    /// Read retry policy. [`RetryPolicy::none`] (the default) reproduces
    /// the pre-hardening one-shot read byte-for-byte.
    retry: RetryPolicy,
    /// In-flight reads eligible for retry: op → (room, backoff cursor).
    /// Only populated when `retry` is active, so the dormant path does no
    /// bookkeeping at all.
    pending_reads: FastMap<u64, (u32, Retrier)>,
}

enum Role {
    Server(ServerState),
    Client(ClientState),
}

/// A participant in the centralized architecture.
pub struct CentralNode {
    role: Role,
}

const READ_TIMEOUT: SimDuration = SimDuration::from_secs(10);

impl CentralNode {
    /// The operator's server with its platform-wide policy.
    pub fn server(policy: ModerationPolicy) -> CentralNode {
        CentralNode {
            role: Role::Server(ServerState {
                rooms: FastMap::default(),
                policy,
                stats: ModerationStats::default(),
                banned: Vec::new(),
            }),
        }
    }

    /// A client of the platform.
    pub fn client(server: NodeId) -> CentralNode {
        CentralNode::client_with_retry(server, RetryPolicy::none())
    }

    /// A client whose reads are retried under `retry` (exponential backoff
    /// with deterministic jitter; no hedging — there is only one server).
    pub fn client_with_retry(server: NodeId, retry: RetryPolicy) -> CentralNode {
        CentralNode {
            role: Role::Client(ClientState {
                server,
                next_seq: 0,
                next_op: 0,
                reads: FastMap::default(),
                delivered: 0,
                retry,
                pending_reads: FastMap::default(),
            }),
        }
    }

    /// Operator action: deplatform a user ("access to the platform can be
    /// unequivocally revoked"). Their submissions are dropped from now on.
    pub fn ban(&mut self, user: NodeId) {
        if let Role::Server(s) = &mut self.role {
            if !s.banned.contains(&user) {
                s.banned.push(user);
            }
        }
    }

    /// Server moderation statistics.
    pub fn moderation_stats(&self) -> Option<ModerationStats> {
        match &self.role {
            Role::Server(s) => Some(s.stats),
            Role::Client(_) => None,
        }
    }

    /// Posts delivered to this client so far.
    pub fn delivered_count(&self) -> u64 {
        match &self.role {
            Role::Client(c) => c.delivered,
            Role::Server(_) => 0,
        }
    }

    /// Client action: join a room.
    pub fn join(&mut self, ctx: &mut Ctx<'_, CentralMsg>, room: u32) {
        let Role::Client(c) = &self.role else { return };
        ctx.send(c.server, CentralMsg::Join { room }, 8);
    }

    /// Client action: post to a room. Returns the post's sequence number.
    pub fn post(
        &mut self,
        ctx: &mut Ctx<'_, CentralMsg>,
        room: u32,
        bytes: u64,
        label: PostLabel,
    ) -> u64 {
        let Role::Client(c) = &mut self.role else {
            panic!("post on server")
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
        ctx.send(c.server, CentralMsg::Submit(post), size);
        post.seq
    }

    /// Client action: read a room's history. Poll [`CentralNode::take_read`].
    pub fn read(&mut self, ctx: &mut Ctx<'_, CentralMsg>, room: u32) -> u64 {
        let Role::Client(c) = &mut self.role else {
            panic!("read on server")
        };
        let op = c.next_op;
        c.next_op += 1;
        if c.retry.is_active() {
            c.pending_reads.insert(op, (room, Retrier::new(c.retry)));
        }
        ctx.send(c.server, CentralMsg::Read { room, op }, 16);
        ctx.set_timer(READ_TIMEOUT, op);
        op
    }

    /// Collect a read outcome.
    pub fn take_read(&mut self, op: u64) -> Option<ReadResult> {
        match &mut self.role {
            Role::Client(c) => c.reads.remove(&op),
            Role::Server(_) => None,
        }
    }
}

impl Protocol for CentralNode {
    type Msg = CentralMsg;

    fn on_message(&mut self, ctx: &mut Ctx<'_, CentralMsg>, from: NodeId, msg: CentralMsg) {
        match (&mut self.role, msg) {
            (Role::Server(s), CentralMsg::Join { room }) => {
                let r = s.rooms.entry(room).or_insert(Room {
                    posts: Vec::new(),
                    members: Vec::new(),
                });
                if !r.members.contains(&from) {
                    r.members.push(from);
                }
            }
            (Role::Server(s), CentralMsg::Submit(post)) => {
                // The operator observes everything: full metadata exposure.
                ctx.metrics().incr("comm.metadata_observed", 1);
                if s.banned.contains(&from) {
                    ctx.metrics().incr("comm.banned_drops", 1);
                    return;
                }
                let blocked = s.policy.blocks(post.label, ctx.rng());
                s.stats.record(post.label, blocked);
                if blocked {
                    ctx.metrics().incr("comm.posts_blocked", 1);
                    return;
                }
                let Some(r) = s.rooms.get_mut(&post.room) else {
                    return;
                };
                r.posts.push(post);
                let recipients: Vec<NodeId> = r
                    .members
                    .iter()
                    .copied()
                    .filter(|&m| m != post.author)
                    .collect();
                let msg = CentralMsg::Deliver(post);
                let size = msg.wire_size();
                ctx.multicast(&recipients, msg, size);
            }
            (Role::Server(s), CentralMsg::Read { room, op }) => {
                let count = s.rooms.get(&room).map(|r| r.posts.len());
                ctx.send(from, CentralMsg::ReadResp { op, count }, 24);
            }
            (Role::Client(c), CentralMsg::Deliver(post)) => {
                c.delivered += 1;
                ctx.metrics().incr("comm.posts_delivered", 1);
                if matches!(post.label, PostLabel::Abuse(_)) {
                    ctx.metrics().incr("comm.abuse_delivered", 1);
                }
                let latency = (ctx.now().micros() - post.sent_at_micros) as f64 / 1e6;
                ctx.metrics().sample("comm.delivery_secs", latency);
            }
            (Role::Client(c), CentralMsg::ReadResp { op, count }) => {
                c.pending_reads.remove(&op);
                // With retries (or chaos duplication) the same op can be
                // answered more than once; count it once. The dormant path
                // keeps the historical unconditional increment.
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

    fn on_timer(&mut self, ctx: &mut Ctx<'_, CentralMsg>, op: u64) {
        let Role::Client(c) = &mut self.role else {
            return;
        };
        if c.reads.contains_key(&op) || op >= c.next_op {
            return;
        }
        // Retry path (only reachable with an active policy): resend the
        // read and stretch the next timeout by the jittered backoff.
        if let Some((room, retrier)) = c.pending_reads.get_mut(&op) {
            let room = *room;
            if let Some(backoff) = retrier.next_backoff(ctx.rng()) {
                ctx.metrics().incr(CTR_RETRY_ATTEMPTS, 1);
                ctx.trace_point("retry.attempt", op as f64);
                ctx.send(c.server, CentralMsg::Read { room, op }, 16);
                ctx.set_timer(READ_TIMEOUT + backoff, op);
                return;
            }
            c.pending_reads.remove(&op);
            ctx.metrics().incr(CTR_RETRY_GAVE_UP, 1);
            ctx.trace_point("retry.gave_up", op as f64);
        }
        c.reads.insert(op, ReadResult::Unavailable);
        ctx.metrics().incr("comm.reads_failed", 1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::moderation::AbuseKind;
    use agora_sim::{DeviceClass, Simulation};

    fn build(
        n_clients: usize,
        policy: ModerationPolicy,
        seed: u64,
    ) -> (Simulation<CentralNode>, NodeId, Vec<NodeId>) {
        let mut sim = Simulation::new(seed);
        let server = sim.add_node(CentralNode::server(policy), DeviceClass::DatacenterServer);
        let mut clients = Vec::new();
        for _ in 0..n_clients {
            clients.push(sim.add_node(CentralNode::client(server), DeviceClass::PersonalComputer));
        }
        for &c in &clients {
            sim.with_ctx(c, |n, ctx| n.join(ctx, 1)).unwrap();
        }
        sim.run_for(SimDuration::from_secs(2));
        (sim, server, clients)
    }

    #[test]
    fn post_reaches_all_members() {
        let (mut sim, _server, clients) = build(5, ModerationPolicy::none(), 1);
        sim.with_ctx(clients[0], |n, ctx| {
            n.post(ctx, 1, 200, PostLabel::Legit);
        })
        .unwrap();
        sim.run_for(SimDuration::from_secs(5));
        for &c in &clients[1..] {
            assert_eq!(sim.node(c).delivered_count(), 1);
        }
        assert_eq!(sim.node(clients[0]).delivered_count(), 0, "no self-echo");
        assert_eq!(sim.metrics().counter("comm.metadata_observed"), 1);
    }

    #[test]
    fn read_returns_history_length() {
        let (mut sim, _server, clients) = build(3, ModerationPolicy::none(), 2);
        for i in 0..4 {
            sim.with_ctx(clients[i % 3], |n, ctx| {
                n.post(ctx, 1, 100, PostLabel::Legit);
            })
            .unwrap();
        }
        sim.run_for(SimDuration::from_secs(5));
        let op = sim.with_ctx(clients[0], |n, ctx| n.read(ctx, 1)).unwrap();
        sim.run_for(SimDuration::from_secs(5));
        assert_eq!(
            sim.node_mut(clients[0]).take_read(op),
            Some(ReadResult::Ok(4))
        );
    }

    #[test]
    fn server_down_means_total_outage() {
        let (mut sim, server, clients) = build(3, ModerationPolicy::none(), 3);
        sim.kill(server);
        let op = sim.with_ctx(clients[0], |n, ctx| n.read(ctx, 1)).unwrap();
        sim.run_for(SimDuration::from_secs(30));
        assert_eq!(
            sim.node_mut(clients[0]).take_read(op),
            Some(ReadResult::Unavailable)
        );
        // Posts during the outage vanish too.
        sim.with_ctx(clients[1], |n, ctx| {
            n.post(ctx, 1, 100, PostLabel::Legit);
        })
        .unwrap();
        sim.run_for(SimDuration::from_secs(5));
        assert_eq!(sim.metrics().counter("comm.posts_delivered"), 0);
    }

    #[test]
    fn retrying_client_survives_transient_outage() {
        use agora_sim::RetryPolicy;
        let mut sim = Simulation::new(11);
        let server = sim.add_node(
            CentralNode::server(ModerationPolicy::none()),
            DeviceClass::DatacenterServer,
        );
        let client = sim.add_node(
            CentralNode::client_with_retry(server, RetryPolicy::standard()),
            DeviceClass::PersonalComputer,
        );
        sim.with_ctx(client, |n, ctx| n.join(ctx, 1)).unwrap();
        sim.run_for(SimDuration::from_secs(2));
        // Server briefly down: the first read attempt is lost, a later
        // retry lands after the revive.
        sim.kill(server);
        let op = sim.with_ctx(client, |n, ctx| n.read(ctx, 1)).unwrap();
        sim.run_for(SimDuration::from_secs(15));
        sim.revive(server);
        sim.run_for(SimDuration::from_secs(60));
        assert_eq!(
            sim.node_mut(client).take_read(op),
            Some(ReadResult::Ok(0)),
            "retry must recover the read after the outage"
        );
        assert!(sim.metrics().counter("retry.attempts") >= 1);
        assert_eq!(sim.metrics().counter("comm.reads_failed"), 0);

        // Same scenario without a retry policy: the read fails outright.
        let mut sim = Simulation::new(11);
        let server = sim.add_node(
            CentralNode::server(ModerationPolicy::none()),
            DeviceClass::DatacenterServer,
        );
        let client = sim.add_node(CentralNode::client(server), DeviceClass::PersonalComputer);
        sim.with_ctx(client, |n, ctx| n.join(ctx, 1)).unwrap();
        sim.run_for(SimDuration::from_secs(2));
        sim.kill(server);
        let op = sim.with_ctx(client, |n, ctx| n.read(ctx, 1)).unwrap();
        sim.run_for(SimDuration::from_secs(15));
        sim.revive(server);
        sim.run_for(SimDuration::from_secs(60));
        assert_eq!(
            sim.node_mut(client).take_read(op),
            Some(ReadResult::Unavailable)
        );
        assert_eq!(sim.metrics().counter("retry.attempts"), 0);
    }

    #[test]
    fn platform_policy_blocks_abuse() {
        let (mut sim, server, clients) = build(3, ModerationPolicy::platform_default(), 4);
        for _ in 0..50 {
            sim.with_ctx(clients[0], |n, ctx| {
                n.post(ctx, 1, 100, PostLabel::Abuse(AbuseKind::Spam));
            })
            .unwrap();
        }
        sim.run_for(SimDuration::from_secs(10));
        let stats = sim.node(server).moderation_stats().unwrap();
        assert!(stats.abuse_blocked > 35, "blocked {}", stats.abuse_blocked);
        assert!(stats.abuse_leak_rate() < 0.3);
    }

    #[test]
    fn banned_user_is_silenced() {
        let (mut sim, server, clients) = build(3, ModerationPolicy::none(), 5);
        sim.node_mut(server).ban(clients[0]);
        sim.with_ctx(clients[0], |n, ctx| {
            n.post(ctx, 1, 100, PostLabel::Legit);
        })
        .unwrap();
        sim.run_for(SimDuration::from_secs(5));
        assert_eq!(sim.metrics().counter("comm.banned_drops"), 1);
        assert_eq!(sim.metrics().counter("comm.posts_delivered"), 0);
    }
}
