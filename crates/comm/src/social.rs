//! Socially-aware peer-to-peer communication (PrPl / Persona / Lockr class).
//!
//! §3.2: users "retain ownership over their data by storing it on home
//! servers", define trust relationships, and "nodes accept connections only
//! from socially-trusted peers" — which buys privacy "at a price of reduced
//! availability". Each user is a peer holding their own feed; only friends
//! may fetch it; optional friend-caching (Persona-style) trades a little
//! privacy for availability when the owner is offline.

use agora_sim::{Ctx, FastMap, NodeId, Protocol, SimDuration};

use crate::moderation::PostLabel;
use crate::posts::{Post, ReadResult};

/// Wire messages.
#[derive(Clone, Debug)]
pub enum SocialMsg {
    /// Push a new post to a friend (feed update).
    Push(Post),
    /// Ask a peer for the length of `owner`'s feed (from their store/cache).
    Fetch {
        /// Whose feed.
        owner: NodeId,
        /// Requester op id.
        op: u64,
    },
    /// Fetch response.
    FetchResp {
        /// Echoed op id.
        op: u64,
        /// Feed length if served; None = refused or not cached.
        count: Option<usize>,
        /// Whether the response came from a cache rather than the owner.
        from_cache: bool,
    },
}

impl SocialMsg {
    fn wire_size(&self) -> u64 {
        match self {
            SocialMsg::Push(p) => p.wire_size(),
            SocialMsg::Fetch { .. } => 16,
            SocialMsg::FetchResp { .. } => 24,
        }
    }
}

struct PendingRead {
    owner: NodeId,
    tried_cache: bool,
}

/// A socially-aware peer.
pub struct SocialNode {
    friends: Vec<NodeId>,
    my_posts: Vec<Post>,
    /// Friend feeds we cache (friend → their posts we've seen).
    cached: FastMap<NodeId, Vec<Post>>,
    cache_for_friends: bool,
    next_seq: u64,
    next_op: u64,
    pending: FastMap<u64, PendingRead>,
    reads: FastMap<u64, ReadResult>,
    delivered: u64,
}

const FETCH_TIMEOUT: SimDuration = SimDuration::from_secs(8);

impl SocialNode {
    /// A peer with the given friend list. `cache_for_friends` enables
    /// Persona-style availability caching.
    pub fn new(friends: Vec<NodeId>, cache_for_friends: bool) -> SocialNode {
        SocialNode {
            friends,
            my_posts: Vec::new(),
            cached: FastMap::default(),
            cache_for_friends,
            next_seq: 0,
            next_op: 0,
            pending: FastMap::default(),
            reads: FastMap::default(),
            delivered: 0,
        }
    }

    /// Posts pushed to us so far.
    pub fn delivered_count(&self) -> u64 {
        self.delivered
    }

    /// Post to one's own feed and push to friends.
    pub fn post(&mut self, ctx: &mut Ctx<'_, SocialMsg>, bytes: u64, label: PostLabel) {
        let post = Post {
            author: ctx.id(),
            room: 0,
            seq: self.next_seq,
            bytes,
            label,
            sent_at_micros: ctx.now().micros(),
        };
        self.next_seq += 1;
        self.my_posts.push(post);
        for &f in &self.friends {
            let msg = SocialMsg::Push(post);
            let size = msg.wire_size();
            ctx.send(f, msg, size);
        }
    }

    /// Read a friend's feed. Falls back to mutual-friend caches if the owner
    /// is unreachable and caching is on. Poll [`SocialNode::take_read`].
    pub fn read_feed(&mut self, ctx: &mut Ctx<'_, SocialMsg>, owner: NodeId) -> u64 {
        let op = self.next_op;
        self.next_op += 1;
        ctx.send(owner, SocialMsg::Fetch { owner, op }, 16);
        self.pending.insert(
            op,
            PendingRead {
                owner,
                tried_cache: false,
            },
        );
        ctx.set_timer(FETCH_TIMEOUT, op);
        op
    }

    /// Collect a read outcome.
    pub fn take_read(&mut self, op: u64) -> Option<ReadResult> {
        self.reads.remove(&op)
    }

    fn fallback_to_caches(&mut self, ctx: &mut Ctx<'_, SocialMsg>, op: u64) {
        let Some(p) = self.pending.get_mut(&op) else {
            return;
        };
        if p.tried_cache {
            self.pending.remove(&op);
            self.reads.insert(op, ReadResult::Unavailable);
            ctx.metrics().incr("comm.reads_failed", 1);
            return;
        }
        p.tried_cache = true;
        let owner = p.owner;
        // Ask every friend whether they cache the owner's feed.
        for &f in &self.friends {
            if f != owner {
                ctx.send(f, SocialMsg::Fetch { owner, op }, 16);
            }
        }
        ctx.set_timer(FETCH_TIMEOUT, op);
    }
}

impl Protocol for SocialNode {
    type Msg = SocialMsg;

    fn on_message(&mut self, ctx: &mut Ctx<'_, SocialMsg>, from: NodeId, msg: SocialMsg) {
        match msg {
            SocialMsg::Push(post) => {
                // Only accept pushes from friends (trust-gated connections).
                if !self.friends.contains(&from) {
                    ctx.metrics().incr("comm.untrusted_rejected", 1);
                    return;
                }
                self.delivered += 1;
                ctx.metrics().incr("comm.posts_delivered", 1);
                if matches!(post.label, PostLabel::Abuse(_)) {
                    ctx.metrics().incr("comm.abuse_delivered", 1);
                }
                let latency = (ctx.now().micros() - post.sent_at_micros) as f64 / 1e6;
                ctx.metrics().sample("comm.delivery_secs", latency);
                // Only the friend sees the post — count the (small) exposure.
                ctx.metrics().incr("comm.metadata_observed_friends", 1);
                if self.cache_for_friends {
                    self.cached.entry(from).or_default().push(post);
                }
            }
            SocialMsg::Fetch { owner, op } => {
                let me = ctx.id();
                if owner == me {
                    // Serving our own feed: friends only.
                    let count = if self.friends.contains(&from) {
                        Some(self.my_posts.len())
                    } else {
                        ctx.metrics().incr("comm.untrusted_rejected", 1);
                        None
                    };
                    let resp = SocialMsg::FetchResp {
                        op,
                        count,
                        from_cache: false,
                    };
                    let size = resp.wire_size();
                    ctx.send(from, resp, size);
                } else {
                    // Cache query: serve only to friends, only if caching.
                    let count = if self.friends.contains(&from) && self.cache_for_friends {
                        self.cached.get(&owner).map(|v| v.len())
                    } else {
                        None
                    };
                    let resp = SocialMsg::FetchResp {
                        op,
                        count,
                        from_cache: true,
                    };
                    let size = resp.wire_size();
                    ctx.send(from, resp, size);
                }
            }
            SocialMsg::FetchResp {
                op,
                count,
                from_cache,
            } => {
                let Some(p) = self.pending.get(&op) else {
                    return;
                };
                match count {
                    Some(n) => {
                        self.pending.remove(&op);
                        self.reads.insert(op, ReadResult::Ok(n));
                        ctx.metrics().incr("comm.reads_ok", 1);
                        if from_cache {
                            ctx.metrics().incr("comm.reads_from_cache", 1);
                        }
                    }
                    None if !from_cache && !p.tried_cache => {
                        // Owner explicitly refused (we're not their friend).
                        self.pending.remove(&op);
                        self.reads.insert(op, ReadResult::Denied);
                        ctx.metrics().incr("comm.reads_denied", 1);
                    }
                    None => {
                        // A cache miss from one friend; others may still
                        // answer, or the timeout will conclude Unavailable.
                    }
                }
            }
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, SocialMsg>, op: u64) {
        if self.pending.contains_key(&op) {
            self.fallback_to_caches(ctx, op);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use agora_sim::{DeviceClass, Simulation};

    /// A triangle of friends (0-1-2 all mutual) plus a stranger (3).
    fn build(caching: bool, seed: u64) -> (Simulation<SocialNode>, Vec<NodeId>) {
        let mut sim = Simulation::new(seed);
        let n0 = NodeId(0);
        let n1 = NodeId(1);
        let n2 = NodeId(2);
        let n3 = NodeId(3);
        sim.add_node(
            SocialNode::new(vec![n1, n2], caching),
            DeviceClass::PersonalComputer,
        );
        sim.add_node(
            SocialNode::new(vec![n0, n2], caching),
            DeviceClass::PersonalComputer,
        );
        sim.add_node(
            SocialNode::new(vec![n0, n1], caching),
            DeviceClass::PersonalComputer,
        );
        sim.add_node(
            SocialNode::new(vec![], caching),
            DeviceClass::PersonalComputer,
        );
        (sim, vec![n0, n1, n2, n3])
    }

    #[test]
    fn friends_receive_pushes() {
        let (mut sim, n) = build(false, 1);
        sim.with_ctx(n[0], |node, ctx| node.post(ctx, 100, PostLabel::Legit))
            .unwrap();
        sim.run_for(SimDuration::from_secs(5));
        assert_eq!(sim.node(n[1]).delivered_count(), 1);
        assert_eq!(sim.node(n[2]).delivered_count(), 1);
        assert_eq!(sim.node(n[3]).delivered_count(), 0);
    }

    #[test]
    fn stranger_fetch_denied() {
        let (mut sim, n) = build(false, 2);
        sim.with_ctx(n[0], |node, ctx| node.post(ctx, 100, PostLabel::Legit))
            .unwrap();
        sim.run_for(SimDuration::from_secs(2));
        let op = sim
            .with_ctx(n[3], |node, ctx| node.read_feed(ctx, n[0]))
            .unwrap();
        sim.run_for(SimDuration::from_secs(30));
        assert_eq!(sim.node_mut(n[3]).take_read(op), Some(ReadResult::Denied));
        assert!(sim.metrics().counter("comm.untrusted_rejected") >= 1);
    }

    #[test]
    fn friend_fetch_succeeds() {
        let (mut sim, n) = build(false, 3);
        sim.with_ctx(n[0], |node, ctx| node.post(ctx, 100, PostLabel::Legit))
            .unwrap();
        sim.run_for(SimDuration::from_secs(2));
        let op = sim
            .with_ctx(n[1], |node, ctx| node.read_feed(ctx, n[0]))
            .unwrap();
        sim.run_for(SimDuration::from_secs(5));
        assert_eq!(sim.node_mut(n[1]).take_read(op), Some(ReadResult::Ok(1)));
    }

    #[test]
    fn owner_offline_without_caching_is_unavailable() {
        let (mut sim, n) = build(false, 4);
        sim.with_ctx(n[0], |node, ctx| node.post(ctx, 100, PostLabel::Legit))
            .unwrap();
        sim.run_for(SimDuration::from_secs(2));
        sim.kill(n[0]);
        let op = sim
            .with_ctx(n[1], |node, ctx| node.read_feed(ctx, n[0]))
            .unwrap();
        sim.run_for(SimDuration::from_secs(60));
        assert_eq!(
            sim.node_mut(n[1]).take_read(op),
            Some(ReadResult::Unavailable)
        );
    }

    #[test]
    fn friend_cache_rescues_offline_owner() {
        let (mut sim, n) = build(true, 5);
        sim.with_ctx(n[0], |node, ctx| node.post(ctx, 100, PostLabel::Legit))
            .unwrap();
        sim.run_for(SimDuration::from_secs(2));
        sim.kill(n[0]);
        // n1 reads n0's feed; owner is down, but mutual friend n2 caches it.
        let op = sim
            .with_ctx(n[1], |node, ctx| node.read_feed(ctx, n[0]))
            .unwrap();
        sim.run_for(SimDuration::from_secs(60));
        assert_eq!(sim.node_mut(n[1]).take_read(op), Some(ReadResult::Ok(1)));
        assert_eq!(sim.metrics().counter("comm.reads_from_cache"), 1);
    }

    #[test]
    fn untrusted_pushes_rejected() {
        let (mut sim, n) = build(false, 6);
        // Stranger n3 pushes spam directly at n0.
        sim.with_ctx(n[3], |node, ctx| node.post(ctx, 100, PostLabel::Legit))
            .unwrap();
        sim.run_for(SimDuration::from_secs(5));
        assert_eq!(sim.node(n[0]).delivered_count(), 0);
    }

    #[test]
    fn metadata_exposure_limited_to_friends() {
        let (mut sim, n) = build(false, 7);
        sim.with_ctx(n[0], |node, ctx| node.post(ctx, 100, PostLabel::Legit))
            .unwrap();
        sim.run_for(SimDuration::from_secs(5));
        // Exactly the two friends observed it; no server-class observer.
        assert_eq!(sim.metrics().counter("comm.metadata_observed_friends"), 2);
        assert_eq!(sim.metrics().counter("comm.metadata_observed"), 0);
    }
}
