//! A Kademlia node as a simulated protocol: iterative lookups, STORE /
//! FIND_VALUE, replication to the k closest, origin republish, TTL expiry.
//!
//! Lookups are asynchronous: the harness calls [`DhtNode::start_get`] /
//! [`DhtNode::start_put`] / [`DhtNode::start_find_node`] inside
//! `Simulation::with_ctx`, receives an operation id, runs the simulation,
//! and collects the outcome with [`DhtNode::take_result`].

use std::rc::Rc;

use agora_crypto::Hash256;
use agora_sim::{Ctx, DeviceClass, FastMap, NodeId, Protocol, SimDuration, SimTime, Simulation};

use crate::routing::{Contact, Distance, RoutingTable};

/// Protocol configuration.
#[derive(Clone, Debug)]
pub struct DhtConfig {
    /// Bucket size / replication factor.
    pub k: usize,
    /// Lookup parallelism.
    pub alpha: usize,
    /// Per-RPC timeout before a contact is considered failed; a contact
    /// that times out is never re-asked within the same lookup.
    pub rpc_timeout: SimDuration,
    /// Lookup progress tick.
    pub tick: SimDuration,
    /// Abort a lookup after this many ticks.
    pub max_ticks: u32,
    /// How often the origin republishes its values.
    pub republish_interval: SimDuration,
    /// How long replicas hold a value without hearing from the origin.
    pub value_ttl: SimDuration,
    /// How long a hot-key cache entry stays servable once caching is
    /// switched on (see [`DhtNode::set_cache`]). Decay, not refresh: a
    /// cached value is never republished, it just expires.
    pub cache_ttl: SimDuration,
}

impl Default for DhtConfig {
    fn default() -> DhtConfig {
        DhtConfig {
            k: 8,
            alpha: 3,
            rpc_timeout: SimDuration::from_millis(1500),
            tick: SimDuration::from_millis(500),
            max_ticks: 60,
            republish_interval: SimDuration::from_mins(30),
            value_ttl: SimDuration::from_mins(75),
            cache_ttl: SimDuration::from_mins(5),
        }
    }
}

/// Wire messages.
#[derive(Clone, Debug)]
pub enum DhtMsg {
    /// Find the k closest contacts to a target key.
    FindNode {
        /// Operation id at the initiator.
        op: u64,
        /// Key being located.
        target: Hash256,
        /// Sender's overlay key (for the receiver's routing table).
        sender_key: Hash256,
    },
    /// Reply to `FindNode` / value-less reply to `FindValue`.
    Nodes {
        /// Initiator's operation id, echoed.
        op: u64,
        /// Responder's overlay key.
        sender_key: Hash256,
        /// The closest contacts the responder knows.
        closer: Vec<Contact>,
    },
    /// Find a value; falls back to `Nodes` when the responder lacks it.
    FindValue {
        /// Operation id at the initiator.
        op: u64,
        /// Key being fetched.
        target: Hash256,
        /// Sender's overlay key.
        sender_key: Hash256,
    },
    /// Value reply.
    Value {
        /// Initiator's operation id, echoed.
        op: u64,
        /// Responder's overlay key.
        sender_key: Hash256,
        /// The value bytes, shared so fan-out clones are refcount bumps.
        data: Rc<[u8]>,
    },
    /// Store a value at the receiver.
    Store {
        /// Key under which to store.
        key: Hash256,
        /// Value bytes, shared: replicating to k closest clones the `Rc`,
        /// not the payload.
        data: Rc<[u8]>,
        /// Sender's overlay key.
        sender_key: Hash256,
    },
}

impl DhtMsg {
    fn wire_size(&self) -> u64 {
        match self {
            DhtMsg::FindNode { .. } | DhtMsg::FindValue { .. } => 8 + 32 + 32 + 16,
            DhtMsg::Nodes { closer, .. } => 8 + 32 + 16 + closer.len() as u64 * 36,
            DhtMsg::Value { data, .. } => 8 + 32 + 16 + data.len() as u64,
            DhtMsg::Store { data, .. } => 32 + 32 + 16 + data.len() as u64,
        }
    }
}

/// Outcome of a completed operation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum DhtResult {
    /// FIND_VALUE succeeded.
    Found {
        /// The fetched bytes (shared with the responder's reply message).
        data: Rc<[u8]>,
        /// Lookup hop count (RPC rounds consumed).
        hops: u32,
    },
    /// FIND_VALUE exhausted the search without locating the value.
    NotFound,
    /// PUT stored the value at this many replicas.
    Stored {
        /// Number of replicas that received a STORE.
        replicas: usize,
    },
    /// FIND_NODE completed with these closest contacts.
    Closest(Vec<Contact>),
    /// The operation timed out entirely.
    TimedOut,
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum PeerState {
    Unqueried,
    /// Queried, awaiting a reply since the instant.
    Pending(SimTime),
    Responded,
    Failed,
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum OpKind {
    FindNode,
    Get,
    Put,
}

/// One shortlist entry: a contact, its distance to the lookup's target
/// (computed once, on entry) and how far the lookup got with it.
struct Candidate {
    dist: Distance,
    contact: Contact,
    state: PeerState,
}

struct Lookup {
    kind: OpKind,
    /// Started through a `start_*` call, so its outcome waits in `results`
    /// for [`DhtNode::take_result`]. A join or republish is the node's own
    /// and leaves no result: nobody holds its op id.
    user: bool,
    target: Hash256,
    put_data: Option<Rc<[u8]>>,
    /// Strictly ascending in `dist` — so duplicate-free, and "the k
    /// closest" is always a prefix. Distances to one target are unique per
    /// key, which makes this order the only one.
    shortlist: Vec<Candidate>,
    started: SimTime,
    ticks: u32,
    hops: u32,
}

impl Lookup {
    /// Place a newly learned contact; a key already listed is left as is.
    fn learn(&mut self, contact: Contact) {
        let dist = Distance::between(&contact.key, &self.target);
        if let Err(at) = self.shortlist.binary_search_by(|e| e.dist.cmp(&dist)) {
            self.shortlist.insert(
                at,
                Candidate {
                    dist,
                    contact,
                    state: PeerState::Unqueried,
                },
            );
        }
    }
}

struct StoredValue {
    data: Rc<[u8]>,
    refreshed_at: SimTime,
}

const TAG_MAINT: u64 = u64::MAX;

/// A Kademlia node.
pub struct DhtNode {
    key: Hash256,
    cfg: DhtConfig,
    table: RoutingTable,
    store: FastMap<Hash256, StoredValue>,
    origin_values: FastMap<Hash256, Rc<[u8]>>,
    /// Hot-key cache: values seen in GET replies, servable to our own
    /// lookups and to FindValue queries while `cache_on`. Empty (and
    /// dormant, byte-for-byte) until [`DhtNode::set_cache`] enables it.
    cache: FastMap<Hash256, StoredValue>,
    cache_on: bool,
    lookups: FastMap<u64, Lookup>,
    results: FastMap<u64, DhtResult>,
    next_op: u64,
    bootstrap: Vec<Contact>,
}

impl DhtNode {
    /// Create a node with the given overlay key and bootstrap contacts.
    pub fn new(key: Hash256, cfg: DhtConfig, bootstrap: Vec<Contact>) -> DhtNode {
        let table = RoutingTable::new(key, cfg.k);
        DhtNode {
            key,
            cfg,
            table,
            store: FastMap::default(),
            origin_values: FastMap::default(),
            cache: FastMap::default(),
            cache_on: false,
            lookups: FastMap::default(),
            results: FastMap::default(),
            next_op: 0,
            bootstrap,
        }
    }

    /// A Kademlia overlay of `n` consumer PCs with the default config,
    /// node `i` keyed `key(i)`; every node after the first bootstraps off
    /// the first. Returns the keys and ids, index-aligned; the ids start at
    /// `sim`'s next id.
    pub fn overlay(
        sim: &mut Simulation<DhtNode>,
        n: usize,
        key: impl FnMut(usize) -> Hash256,
    ) -> (Vec<Hash256>, Vec<NodeId>) {
        let keys: Vec<Hash256> = (0..n).map(key).collect();
        let first = NodeId(sim.node_count() as u32);
        let ids = keys
            .iter()
            .enumerate()
            .map(|(i, &key)| {
                let bootstrap = if i == 0 {
                    vec![]
                } else {
                    vec![Contact {
                        key: keys[0],
                        addr: first,
                    }]
                };
                sim.add_node(
                    DhtNode::new(key, DhtConfig::default(), bootstrap),
                    DeviceClass::PersonalComputer,
                )
            })
            .collect();
        (keys, ids)
    }

    /// This node's overlay key.
    pub fn key(&self) -> Hash256 {
        self.key
    }

    /// Routing-table size (diagnostics).
    pub fn table_len(&self) -> usize {
        self.table.len()
    }

    /// Whether this node currently stores `key` locally.
    pub fn holds(&self, key: &Hash256) -> bool {
        self.store.contains_key(key)
    }

    /// Switch hot-key caching on or off. Off (the default) is fully
    /// dormant — no lookups change, no extra state accrues. Switching off
    /// drops the cache so disengaging a policy reverts the node cleanly.
    pub fn set_cache(&mut self, on: bool) {
        self.cache_on = on;
        if !on {
            self.cache.clear();
        }
    }

    /// Unexpired entries currently cached (diagnostics).
    pub fn cache_len(&self) -> usize {
        self.cache.len()
    }

    /// Whether `key` currently has a cache entry. Freshness is enforced
    /// at lookup time; expired entries linger only until the next lookup
    /// or maintenance pass prunes them.
    pub fn cached(&self, key: &Hash256) -> bool {
        self.cache.contains_key(key)
    }

    /// Begin an iterative FIND_NODE. Returns the operation id.
    pub fn start_find_node(&mut self, ctx: &mut Ctx<'_, DhtMsg>, target: Hash256) -> u64 {
        self.begin(ctx, OpKind::FindNode, target, None, true)
    }

    /// Begin a GET (iterative FIND_VALUE). With caching enabled, an
    /// unexpired cache entry answers immediately — zero hops, zero RPCs —
    /// and the lookup never reaches the network.
    pub fn start_get(&mut self, ctx: &mut Ctx<'_, DhtMsg>, key: Hash256) -> u64 {
        if self.cache_on {
            let fresh = self
                .cache
                .get(&key)
                .is_some_and(|v| ctx.now().since(v.refreshed_at) <= self.cfg.cache_ttl);
            if fresh {
                let data = self.cache[&key].data.clone();
                let op = self.next_op;
                self.next_op += 1;
                ctx.metrics().incr("dht.cache_hit", 1);
                ctx.metrics().incr("dht.get_found", 1);
                ctx.metrics().sample("dht.lookup_secs", 0.0);
                ctx.trace_point("dht.cache_hit", 1.0);
                ctx.probe_signal("dht.lookup_secs", 0.0);
                ctx.probe_signal("dht.lookup_hops", 0.0);
                self.results.insert(op, DhtResult::Found { data, hops: 0 });
                return op;
            }
            // Expired entries decay lazily at the point of use.
            self.cache.remove(&key);
        }
        self.begin(ctx, OpKind::Get, key, None, true)
    }

    /// Begin a PUT: locate the k closest nodes, then STORE at each. The
    /// origin keeps the value and republishes it periodically.
    pub fn start_put(
        &mut self,
        ctx: &mut Ctx<'_, DhtMsg>,
        key: Hash256,
        data: impl Into<Rc<[u8]>>,
    ) -> u64 {
        let data: Rc<[u8]> = data.into();
        self.origin_values.insert(key, data.clone());
        self.begin(ctx, OpKind::Put, key, Some(data), true)
    }

    /// Collect the outcome of a finished operation, if any.
    pub fn take_result(&mut self, op: u64) -> Option<DhtResult> {
        self.results.remove(&op)
    }

    fn begin(
        &mut self,
        ctx: &mut Ctx<'_, DhtMsg>,
        kind: OpKind,
        target: Hash256,
        put_data: Option<Rc<[u8]>>,
        user: bool,
    ) -> u64 {
        let op = self.next_op;
        self.next_op += 1;
        // The table never holds our own key and hands its contacts over
        // already ranked; the bootstrap list is as configured.
        let shortlist = self
            .table
            .nearest(&target, self.cfg.k)
            .iter()
            .map(|&(dist, contact)| Candidate {
                dist,
                contact,
                state: PeerState::Unqueried,
            })
            .collect();
        let mut lk = Lookup {
            kind,
            user,
            target,
            put_data,
            shortlist,
            started: ctx.now(),
            ticks: 0,
            hops: 0,
        };
        if lk.shortlist.is_empty() {
            for c in self.bootstrap.iter().filter(|c| c.key != self.key) {
                lk.learn(*c);
            }
        }
        self.lookups.insert(op, lk);
        self.drive(ctx, op);
        ctx.set_timer(self.cfg.tick, op);
        op
    }

    /// Issue queries / check termination for one lookup.
    fn drive(&mut self, ctx: &mut Ctx<'_, DhtMsg>, op: u64) {
        let Some(lk) = self.lookups.get_mut(&op) else {
            return;
        };
        let now = ctx.now();

        // Expire stale pending queries: a timed-out contact fails and is
        // pruned from the table.
        let timeout = self.cfg.rpc_timeout;
        let mut failed_keys = Vec::new();
        for e in lk.shortlist.iter_mut() {
            if let PeerState::Pending(since) = e.state {
                if now.since(since) > timeout {
                    e.state = PeerState::Failed;
                    failed_keys.push(e.contact.key);
                }
            }
        }

        // Termination: the k closest entries (a prefix: the shortlist is
        // kept in distance order) have all resolved — responded or failed —
        // and none is pending/unqueried.
        let k = self.cfg.k;
        let alpha = self.cfg.alpha;
        let head = lk.shortlist.iter().take(k);
        let done = head
            .clone()
            .all(|e| matches!(e.state, PeerState::Responded | PeerState::Failed))
            && head.clone().any(|e| e.state == PeerState::Responded)
            || lk.shortlist.is_empty();

        if done {
            self.finish(ctx, op);
            for k in failed_keys {
                self.table.remove(&k);
            }
            return;
        }

        // Issue up to alpha concurrent queries to the closest unqueried.
        let in_flight = lk
            .shortlist
            .iter()
            .filter(|e| matches!(e.state, PeerState::Pending(..)))
            .count();
        let mut queried = 0;
        if in_flight < alpha {
            let (kind, target, sender_key) = (lk.kind, lk.target, self.key);
            for e in lk.shortlist.iter_mut().take(k + alpha) {
                if e.state == PeerState::Unqueried && queried + in_flight < alpha {
                    e.state = PeerState::Pending(now);
                    let msg = match kind {
                        OpKind::Get => DhtMsg::FindValue {
                            op,
                            target,
                            sender_key,
                        },
                        _ => DhtMsg::FindNode {
                            op,
                            target,
                            sender_key,
                        },
                    };
                    let size = msg.wire_size();
                    ctx.send(e.contact.addr, msg, size);
                    ctx.metrics().incr("dht.rpc_sent", 1);
                    queried += 1;
                }
            }
        }
        if queried > 0 {
            lk.hops += 1;
        }
        for k in failed_keys {
            self.table.remove(&k);
        }
    }

    fn finish(&mut self, ctx: &mut Ctx<'_, DhtMsg>, op: u64) {
        let Some(lk) = self.lookups.remove(&op) else {
            return;
        };
        let k = self.cfg.k;
        let responded: Vec<Contact> = lk
            .shortlist
            .iter()
            .filter(|e| e.state == PeerState::Responded)
            .map(|e| e.contact)
            .take(k)
            .collect();
        let result = match lk.kind {
            OpKind::FindNode => {
                if responded.is_empty() {
                    DhtResult::TimedOut
                } else {
                    DhtResult::Closest(responded)
                }
            }
            OpKind::Get => {
                ctx.metrics().incr("dht.get_notfound", 1);
                if responded.is_empty() {
                    DhtResult::TimedOut
                } else {
                    DhtResult::NotFound
                }
            }
            OpKind::Put => {
                let data = lk.put_data.clone().unwrap_or_else(|| Rc::from(Vec::new()));
                // Store at the k closest responders — and locally if we are
                // among the k closest overall. One message, multicast: each
                // replica's copy is an `Rc` clone of the same payload.
                let replicas: Vec<NodeId> = responded.iter().map(|c| c.addr).collect();
                let msg = DhtMsg::Store {
                    key: lk.target,
                    data: data.clone(),
                    sender_key: self.key,
                };
                let size = msg.wire_size();
                ctx.multicast(&replicas, msg, size);
                ctx.metrics().incr("dht.puts", 1);
                self.store.insert(
                    lk.target,
                    StoredValue {
                        data,
                        refreshed_at: ctx.now(),
                    },
                );
                DhtResult::Stored {
                    replicas: responded.len(),
                }
            }
        };
        let elapsed = ctx.now().since(lk.started).secs_f64();
        ctx.metrics().sample("dht.lookup_secs", elapsed);
        ctx.trace_point("dht.lookup_secs", elapsed);
        ctx.trace_point("dht.lookup_hops", lk.hops as f64);
        ctx.probe_signal("dht.lookup_secs", elapsed);
        ctx.probe_signal("dht.lookup_hops", lk.hops as f64);
        if lk.user {
            self.results.insert(op, result);
        }
    }

    fn handle_reply(
        &mut self,
        ctx: &mut Ctx<'_, DhtMsg>,
        op: u64,
        sender_key: Hash256,
        closer: Vec<Contact>,
        value: Option<Rc<[u8]>>,
    ) {
        let my_key = self.key;
        let Some(lk) = self.lookups.get_mut(&op) else {
            return;
        };
        // Mark the responder.
        let sender = Distance::between(&sender_key, &lk.target);
        if let Ok(at) = lk.shortlist.binary_search_by(|e| e.dist.cmp(&sender)) {
            lk.shortlist[at].state = PeerState::Responded;
        }
        if let Some(data) = value {
            if lk.kind == OpKind::Get {
                let hops = lk.hops;
                let started = lk.started;
                let target = lk.target;
                self.lookups.remove(&op);
                if self.cache_on {
                    self.cache.insert(
                        target,
                        StoredValue {
                            data: data.clone(),
                            refreshed_at: ctx.now(),
                        },
                    );
                }
                ctx.metrics().incr("dht.get_found", 1);
                let elapsed = ctx.now().since(started).secs_f64();
                ctx.metrics().sample("dht.lookup_secs", elapsed);
                ctx.trace_point("dht.lookup_secs", elapsed);
                ctx.trace_point("dht.lookup_hops", hops as f64);
                ctx.probe_signal("dht.lookup_secs", elapsed);
                ctx.probe_signal("dht.lookup_hops", hops as f64);
                self.results.insert(op, DhtResult::Found { data, hops });
                return;
            }
        }
        // Merge new contacts.
        for c in closer {
            if c.key != my_key {
                lk.learn(c);
            }
        }
        self.drive(ctx, op);
    }

    fn maintenance(&mut self, ctx: &mut Ctx<'_, DhtMsg>) {
        let now = ctx.now();
        // Expire replicas the origin stopped refreshing.
        let ttl = self.cfg.value_ttl;
        self.store
            .retain(|k, v| now.since(v.refreshed_at) <= ttl || self.origin_values.contains_key(k));
        // Decay the hot-key cache (a no-op on the empty map when caching
        // has never been on).
        let cache_ttl = self.cfg.cache_ttl;
        self.cache
            .retain(|_, v| now.since(v.refreshed_at) <= cache_ttl);
        // Republish everything we originated, in key order: the op-id and
        // message sequence must not depend on the table's bucket layout
        // (fixed per hasher, but a model property it is not).
        let mut originals: Vec<(Hash256, Rc<[u8]>)> = self
            .origin_values
            .iter()
            .map(|(k, v)| (*k, v.clone()))
            .collect();
        originals.sort_unstable_by_key(|(k, _)| *k);
        for (key, data) in originals {
            self.begin(ctx, OpKind::Put, key, Some(data), false);
        }
        ctx.set_timer(self.cfg.republish_interval, TAG_MAINT);
    }
}

impl Protocol for DhtNode {
    type Msg = DhtMsg;

    fn on_start(&mut self, ctx: &mut Ctx<'_, DhtMsg>) {
        // Join: learn bootstrap contacts and look up our own key.
        for c in self.bootstrap.clone() {
            if c.key != self.key {
                self.table.observe(c);
            }
        }
        if !self.table.is_empty() {
            let target = self.key;
            self.begin(ctx, OpKind::FindNode, target, None, false);
        }
        ctx.set_timer(self.cfg.republish_interval, TAG_MAINT);
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_, DhtMsg>, from: NodeId, msg: DhtMsg) {
        match msg {
            DhtMsg::FindNode {
                op,
                target,
                sender_key,
            } => {
                self.table.observe(Contact {
                    key: sender_key,
                    addr: from,
                });
                let mut closer = self.table.closest(&target, self.cfg.k);
                closer.retain(|c| c.key != sender_key);
                let reply = DhtMsg::Nodes {
                    op,
                    sender_key: self.key,
                    closer,
                };
                let size = reply.wire_size();
                ctx.send(from, reply, size);
            }
            DhtMsg::FindValue {
                op,
                target,
                sender_key,
            } => {
                self.table.observe(Contact {
                    key: sender_key,
                    addr: from,
                });
                // Authoritative replicas first; then, with caching on, a
                // fresh cache entry — this is what shortens lookup paths
                // for everyone else once a hot key has been fetched once.
                let mut hit = self.store.get(&target).map(|v| (v.data.clone(), false));
                if hit.is_none() && self.cache_on {
                    if let Some(v) = self.cache.get(&target) {
                        if ctx.now().since(v.refreshed_at) <= self.cfg.cache_ttl {
                            hit = Some((v.data.clone(), true));
                        }
                    }
                }
                if let Some((data, from_cache)) = hit {
                    let reply = DhtMsg::Value {
                        op,
                        sender_key: self.key,
                        data,
                    };
                    let size = reply.wire_size();
                    ctx.send(from, reply, size);
                    if from_cache {
                        ctx.metrics().incr("dht.cache_serve", 1);
                    }
                } else {
                    let mut closer = self.table.closest(&target, self.cfg.k);
                    closer.retain(|c| c.key != sender_key);
                    let reply = DhtMsg::Nodes {
                        op,
                        sender_key: self.key,
                        closer,
                    };
                    let size = reply.wire_size();
                    ctx.send(from, reply, size);
                }
            }
            DhtMsg::Nodes {
                op,
                sender_key,
                mut closer,
            } => {
                self.table.observe(Contact {
                    key: sender_key,
                    addr: from,
                });
                // An honest reply is `closest(target, k)` less the asker:
                // anything past k is not Kademlia, and merging it would let
                // one peer grow this lookup's shortlist without bound.
                if closer.len() > self.cfg.k {
                    closer.truncate(self.cfg.k);
                    ctx.metrics().incr("dht.nodes_oversized", 1);
                }
                for c in &closer {
                    if c.key != self.key {
                        self.table.observe(*c);
                    }
                }
                self.handle_reply(ctx, op, sender_key, closer, None);
            }
            DhtMsg::Value {
                op,
                sender_key,
                data,
            } => {
                self.table.observe(Contact {
                    key: sender_key,
                    addr: from,
                });
                self.handle_reply(ctx, op, sender_key, Vec::new(), Some(data));
            }
            DhtMsg::Store {
                key,
                data,
                sender_key,
            } => {
                self.table.observe(Contact {
                    key: sender_key,
                    addr: from,
                });
                ctx.metrics().incr("dht.stores_received", 1);
                ctx.trace_point("dht.stores_received", 1.0);
                self.store.insert(
                    key,
                    StoredValue {
                        data,
                        refreshed_at: ctx.now(),
                    },
                );
            }
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, DhtMsg>, tag: u64) {
        if tag == TAG_MAINT {
            self.maintenance(ctx);
            return;
        }
        // Lookup tick.
        let op = tag;
        let Some(lk) = self.lookups.get_mut(&op) else {
            return;
        };
        lk.ticks += 1;
        if lk.ticks > self.cfg.max_ticks {
            self.finish(ctx, op);
            return;
        }
        self.drive(ctx, op);
        if self.lookups.contains_key(&op) {
            ctx.set_timer(self.cfg.tick, op);
        }
    }

    fn on_up(&mut self, ctx: &mut Ctx<'_, DhtMsg>) {
        // Rejoin after an outage: refresh our neighbourhood.
        if !self.table.is_empty() || !self.bootstrap.is_empty() {
            for c in self.bootstrap.clone() {
                if c.key != self.key {
                    self.table.observe(c);
                }
            }
            let target = self.key;
            self.begin(ctx, OpKind::FindNode, target, None, false);
        }
        ctx.set_timer(self.cfg.republish_interval, TAG_MAINT);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use agora_crypto::sha256;

    /// Build an n-node DHT where every node bootstraps off node 0.
    fn build(n: usize, seed: u64) -> (Simulation<DhtNode>, Vec<NodeId>, Vec<Hash256>) {
        let mut sim = Simulation::new(seed);
        let (keys, ids) = DhtNode::overlay(&mut sim, n, |i| sha256(format!("node-{i}").as_bytes()));
        // Let joins settle.
        sim.run_for(SimDuration::from_secs(30));
        (sim, ids, keys)
    }

    #[test]
    fn overlay_bootstraps_off_its_own_first_node_on_a_sim_that_holds_nodes() {
        let (mut sim, _, _) = build(3, 12);
        let (keys, ids) = DhtNode::overlay(&mut sim, 4, |i| sha256(format!("late-{i}").as_bytes()));
        assert_eq!(ids, [NodeId(3), NodeId(4), NodeId(5), NodeId(6)]);
        for (&id, &key) in ids.iter().zip(&keys) {
            assert_eq!(sim.node(id).key(), key);
        }
        assert!(sim.node(ids[0]).bootstrap.is_empty());
        let boot = Contact {
            key: keys[0],
            addr: ids[0],
        };
        for &id in &ids[1..] {
            assert_eq!(sim.node(id).bootstrap, [boot], "{id:?}");
        }
    }

    #[test]
    fn lookup_under_loss_terminates_without_resending() {
        // A timed-out contact fails on its first timeout: under 50% loss
        // the lookup still ends with a result, and nothing is re-sent.
        let (mut sim, ids, _) = build(12, 33);
        sim.set_loss_rate(0.5);
        let target = sha256(b"lossy-target");
        let op = sim
            .with_ctx(ids[3], |n, ctx| n.start_find_node(ctx, target))
            .unwrap();
        sim.run_for(SimDuration::from_secs(60));
        assert!(sim.node_mut(ids[3]).take_result(op).is_some());
        assert!(sim.metrics().counter("dht.rpc_sent") > 0);
        for key in ["retry.attempts", "retry.gave_up"] {
            assert_eq!(sim.metrics().counter(key), 0, "{key}");
        }
    }

    #[test]
    fn join_populates_routing_tables() {
        let (sim, ids, _) = build(20, 1);
        for &id in &ids {
            assert!(
                sim.node(id).table_len() >= 3,
                "node {id} has {} contacts",
                sim.node(id).table_len()
            );
        }
    }

    #[test]
    fn put_then_get_from_another_node() {
        let (mut sim, ids, _) = build(20, 2);
        let key = sha256(b"the-key");
        let put_op = sim
            .with_ctx(ids[3], |n, ctx| {
                n.start_put(ctx, key, b"hello dht".to_vec())
            })
            .unwrap();
        sim.run_for(SimDuration::from_secs(30));
        match sim.node_mut(ids[3]).take_result(put_op) {
            Some(DhtResult::Stored { replicas }) => assert!(replicas >= 2, "replicas {replicas}"),
            other => panic!("put failed: {other:?}"),
        }
        let get_op = sim
            .with_ctx(ids[15], |n, ctx| n.start_get(ctx, key))
            .unwrap();
        sim.run_for(SimDuration::from_secs(30));
        match sim.node_mut(ids[15]).take_result(get_op) {
            Some(DhtResult::Found { data, .. }) => assert_eq!(&data[..], b"hello dht"),
            other => panic!("get failed: {other:?}"),
        }
    }

    #[test]
    fn get_missing_value_is_notfound() {
        let (mut sim, ids, _) = build(15, 3);
        let op = sim
            .with_ctx(ids[5], |n, ctx| n.start_get(ctx, sha256(b"missing")))
            .unwrap();
        sim.run_for(SimDuration::from_secs(40));
        assert_eq!(
            sim.node_mut(ids[5]).take_result(op),
            Some(DhtResult::NotFound)
        );
    }

    #[test]
    fn find_node_returns_closest() {
        let (mut sim, ids, keys) = build(25, 4);
        let target = sha256(b"somewhere");
        let op = sim
            .with_ctx(ids[2], |n, ctx| n.start_find_node(ctx, target))
            .unwrap();
        sim.run_for(SimDuration::from_secs(30));
        match sim.node_mut(ids[2]).take_result(op) {
            Some(DhtResult::Closest(contacts)) => {
                assert!(!contacts.is_empty());
                // The returned head should be the globally closest live key
                // (all nodes are up in this test).
                let mut all = keys.clone();
                all.sort_by_key(|k| k.xor(&target));
                let returned_best = contacts[0].key.xor(&target);
                let global_best = all[0].xor(&target);
                // Initiator excludes itself; allow the second-best too.
                let global_second = all[1].xor(&target);
                assert!(
                    returned_best == global_best || returned_best == global_second,
                    "lookup converged to a non-closest node"
                );
            }
            other => panic!("find_node failed: {other:?}"),
        }
    }

    #[test]
    fn value_survives_churn_with_republish() {
        let (mut sim, ids, _) = build(25, 5);
        let key = sha256(b"durable");
        sim.with_ctx(ids[1], |n, ctx| n.start_put(ctx, key, b"v".to_vec()))
            .unwrap();
        sim.run_for(SimDuration::from_secs(30));
        // Kill half the network (not the origin).
        for &id in ids.iter().skip(13) {
            sim.kill(id);
        }
        // Run past a republish interval so the origin re-replicates.
        sim.run_for(SimDuration::from_mins(35));
        let get_op = sim
            .with_ctx(ids[2], |n, ctx| n.start_get(ctx, key))
            .unwrap();
        sim.run_for(SimDuration::from_secs(60));
        match sim.node_mut(ids[2]).take_result(get_op) {
            Some(DhtResult::Found { data, .. }) => assert_eq!(&data[..], b"v"),
            other => panic!("value lost under churn: {other:?}"),
        }
    }

    #[test]
    fn replicas_expire_without_republish() {
        let cfg = DhtConfig {
            value_ttl: SimDuration::from_secs(10),
            republish_interval: SimDuration::from_hours(100), // effectively never
            ..DhtConfig::default()
        };
        let mut sim: Simulation<DhtNode> = Simulation::new(6);
        let boot_key = sha256(b"node-0");
        let mut ids = Vec::new();
        for i in 0..10 {
            let key = sha256(format!("node-{i}").as_bytes());
            let bootstrap = if i == 0 {
                vec![]
            } else {
                vec![Contact {
                    key: boot_key,
                    addr: NodeId(0),
                }]
            };
            ids.push(sim.add_node(
                DhtNode::new(key, cfg.clone(), bootstrap),
                DeviceClass::PersonalComputer,
            ));
        }
        sim.run_for(SimDuration::from_secs(20));
        let key = sha256(b"ephemeral");
        sim.with_ctx(ids[1], |n, ctx| n.start_put(ctx, key, b"v".to_vec()))
            .unwrap();
        sim.run_for(SimDuration::from_secs(10));
        let holders_before: usize = ids.iter().filter(|&&id| sim.node(id).holds(&key)).count();
        assert!(holders_before >= 2);
        // Kill the origin so it cannot refresh, then outlive the TTL.
        sim.kill(ids[1]);
        sim.run_for(SimDuration::from_hours(99));
        // TTL pruning happens lazily at maintenance; force it by waiting
        // beyond the republish interval of the *other* nodes.
        sim.run_for(SimDuration::from_hours(2));
        let holders_after: usize = ids
            .iter()
            .filter(|&&id| id != ids[1] && sim.node(id).holds(&key))
            .count();
        assert_eq!(holders_after, 0, "replicas should expire");
    }

    #[test]
    fn hot_key_cache_serves_repeats_and_stays_dormant_by_default() {
        // Same topology, seed, and GET sequence, once with the gateway
        // caching and once without: the caching run answers repeat GETs
        // locally (cache_hit > 0, fewer RPCs) while the default run never
        // touches the cache counters — the dormancy contract.
        let run = |cache: bool| {
            let (mut sim, ids, _) = build(20, 8);
            let key = sha256(b"hot-key");
            sim.with_ctx(ids[0], |n, ctx| n.start_put(ctx, key, b"v".to_vec()))
                .unwrap();
            sim.run_for(SimDuration::from_secs(30));
            if cache {
                sim.node_mut(ids[9]).set_cache(true);
            }
            let mut found = 0;
            for _ in 0..5 {
                let op = sim
                    .with_ctx(ids[9], |n, ctx| n.start_get(ctx, key))
                    .unwrap();
                sim.run_for(SimDuration::from_secs(20));
                if let Some(DhtResult::Found { .. }) = sim.node_mut(ids[9]).take_result(op) {
                    found += 1;
                }
            }
            (
                found,
                sim.metrics().counter("dht.cache_hit"),
                sim.metrics().counter("dht.rpc_sent"),
            )
        };
        let (found_off, hits_off, sent_off) = run(false);
        assert_eq!(found_off, 5);
        assert_eq!(hits_off, 0, "dormant config must not cache");
        let (found_on, hits_on, sent_on) = run(true);
        assert_eq!(found_on, 5);
        assert_eq!(hits_on, 4, "repeat GETs within TTL hit the cache");
        assert!(sent_on < sent_off, "cache hits save RPCs");
    }

    #[test]
    fn cache_entries_decay_after_ttl_and_clear_on_disable() {
        let (mut sim, ids, _) = build(20, 9);
        let key = sha256(b"decaying");
        sim.with_ctx(ids[0], |n, ctx| n.start_put(ctx, key, b"v".to_vec()))
            .unwrap();
        sim.run_for(SimDuration::from_secs(30));
        sim.node_mut(ids[9]).set_cache(true);
        let op = sim
            .with_ctx(ids[9], |n, ctx| n.start_get(ctx, key))
            .unwrap();
        sim.run_for(SimDuration::from_secs(20));
        assert!(sim.node_mut(ids[9]).take_result(op).is_some());
        assert_eq!(sim.node(ids[9]).cache_len(), 1);
        // Outlive the cache TTL (default 5 min): the next GET misses the
        // cache and goes back to the network.
        sim.run_for(SimDuration::from_mins(6));
        let op = sim
            .with_ctx(ids[9], |n, ctx| n.start_get(ctx, key))
            .unwrap();
        sim.run_for(SimDuration::from_secs(20));
        match sim.node_mut(ids[9]).take_result(op) {
            Some(DhtResult::Found { hops, .. }) => assert!(hops > 0, "expired entry must re-fetch"),
            other => panic!("get failed: {other:?}"),
        }
        // Disengage: the cache drops with the switch.
        assert_eq!(sim.node(ids[9]).cache_len(), 1);
        sim.node_mut(ids[9]).set_cache(false);
        assert_eq!(sim.node(ids[9]).cache_len(), 0);
    }

    #[test]
    fn joins_and_republishes_leave_no_result_behind() {
        // Only a `start_*` caller can take a result, so only its ops may
        // leave one: a day of joins and 30-minute republishes of 16 values
        // must leave every node's `results` empty once the puts are taken.
        let (mut sim, ids, _) = build(28, 13);
        let puts: Vec<(NodeId, u64)> = (0..16)
            .map(|i| {
                let origin = ids[i % 4];
                let key = sha256(format!("republished-{i}").as_bytes());
                let op = sim
                    .with_ctx(origin, |n, ctx| n.start_put(ctx, key, b"v".to_vec()))
                    .unwrap();
                (origin, op)
            })
            .collect();
        sim.run_for(SimDuration::from_secs(60));
        for (origin, op) in puts {
            assert!(matches!(
                sim.node_mut(origin).take_result(op),
                Some(DhtResult::Stored { .. })
            ));
        }
        let lookups_before = sim.metrics().histogram("dht.lookup_secs").unwrap().count();
        sim.run_for(SimDuration::from_days(1));
        // The internal ops ran and kept their metrics ...
        let lookups = sim.metrics().histogram("dht.lookup_secs").unwrap().count();
        assert!(lookups >= lookups_before + 16 * 47, "{lookups}");
        // ... and recorded no result.
        for &id in &ids {
            assert!(sim.node(id).results.is_empty(), "{id}: {:?}", {
                let mut ops: Vec<_> = sim.node(id).results.keys().copied().collect();
                ops.sort_unstable();
                ops
            });
        }
    }

    #[test]
    fn lookup_metrics_recorded() {
        let (mut sim, ids, _) = build(20, 7);
        let key = sha256(b"metric-key");
        sim.with_ctx(ids[0], |n, ctx| n.start_put(ctx, key, vec![1]))
            .unwrap();
        sim.run_for(SimDuration::from_secs(20));
        let op = sim
            .with_ctx(ids[9], |n, ctx| n.start_get(ctx, key))
            .unwrap();
        sim.run_for(SimDuration::from_secs(20));
        assert!(sim.node_mut(ids[9]).take_result(op).is_some());
        assert!(sim.metrics().histogram("dht.lookup_secs").is_some());
        assert!(sim.metrics().histogram("dht.lookup_hops").is_none());
        assert!(sim.metrics().counter("dht.rpc_sent") > 0);
    }

    /// Hand `msg` straight to `to`'s handler as if `from` had sent it.
    fn deliver(sim: &mut Simulation<DhtNode>, to: NodeId, from: NodeId, msg: DhtMsg) {
        sim.with_ctx(to, |n, ctx| n.on_message(ctx, from, msg))
            .unwrap();
    }

    /// Every live lookup's shortlist on `id`: strictly ascending in distance
    /// to its own target (so duplicate-free), each distance the contact's
    /// own, and never the node itself.
    fn assert_shortlists_ordered(sim: &Simulation<DhtNode>, id: NodeId) {
        let node = sim.node(id);
        for (op, lk) in &node.lookups {
            for e in &lk.shortlist {
                assert_eq!(e.dist, Distance::between(&e.contact.key, &lk.target));
                assert_ne!(e.contact.key, node.key, "op {op} lists its own node");
            }
            assert!(
                lk.shortlist.windows(2).all(|w| w[0].dist < w[1].dist),
                "op {op} on {id}: shortlist out of order"
            );
        }
    }

    /// A made-up overlay key at the address of one of `build(20, _)`'s
    /// nodes (the simulator has no route to addresses it never created).
    fn stranger(i: u32) -> Contact {
        Contact {
            key: sha256(format!("stranger-{i}").as_bytes()),
            addr: NodeId(i % 20),
        }
    }

    #[test]
    fn shortlists_stay_in_distance_order_through_every_reply() {
        // Joins, a put and gets under loss (so failures and late replies
        // interleave), stopped every 20 ms to look at every shortlist.
        let (mut sim, ids, _) = build(20, 11);
        sim.set_loss_rate(0.2);
        let key = sha256(b"ordered");
        sim.with_ctx(ids[4], |n, ctx| n.start_put(ctx, key, b"v".to_vec()))
            .unwrap();
        let mut seen = 0;
        for step in 0..1_500 {
            if step % 100 == 0 {
                let from = ids[(step / 100) % ids.len()];
                sim.with_ctx(from, |n, ctx| n.start_get(ctx, key)).unwrap();
            }
            sim.run_for(SimDuration::from_millis(20));
            for &id in &ids {
                assert_shortlists_ordered(&sim, id);
                seen += sim.node(id).lookups.len();
            }
        }
        assert!(seen > 100, "the check saw live lookups ({seen})");
    }

    #[test]
    fn hostile_replies_leave_a_lookup_bounded_and_unfooled() {
        let (mut sim, ids, keys) = build(20, 12);
        let (asker, mallory) = (ids[2], ids[5]);
        let target = sha256(b"contested");
        let k = DhtConfig::default().k;
        let op = sim
            .with_ctx(asker, |n, ctx| n.start_find_node(ctx, target))
            .unwrap();
        let listed = |sim: &Simulation<DhtNode>| sim.node(asker).lookups[&op].shortlist.len();
        let nodes = |op: u64, closer: Vec<Contact>| DhtMsg::Nodes {
            op,
            sender_key: keys[5],
            closer,
        };
        let seeded = listed(&sim);
        assert!((1..=k).contains(&seeded));

        // (1) One peer answers with 50 000 contacts: the reply is cut to k
        // on receipt, so the shortlist and the table grow by at most k.
        let table_before = sim.node(asker).table_len();
        deliver(
            &mut sim,
            asker,
            mallory,
            nodes(op, (0..50_000).map(stranger).collect()),
        );
        assert!(listed(&sim) <= seeded + k, "{} listed", listed(&sim));
        assert!(sim.node(asker).table_len() <= table_before + k + 1);
        assert_eq!(sim.metrics().counter("dht.nodes_oversized"), 1);
        assert_shortlists_ordered(&sim, asker);

        // (2) A reply for an op that never existed, and later for one that
        // has finished, reaches no lookup and leaves no result behind.
        let unknown = op + 999;
        deliver(
            &mut sim,
            asker,
            mallory,
            nodes(unknown, vec![stranger(60_000)]),
        );
        assert!(!sim.node(asker).lookups.contains_key(&unknown));
        assert!(sim.node_mut(asker).take_result(unknown).is_none());

        // (3) The receiver's own key and repeated contacts are not listed.
        let me = Contact {
            key: keys[2],
            addr: asker,
        };
        let twice = stranger(60_001);
        let before = listed(&sim);
        deliver(
            &mut sim,
            asker,
            mallory,
            nodes(op, vec![me, twice, twice, me]),
        );
        assert_eq!(listed(&sim), before + 1);
        assert_shortlists_ordered(&sim, asker);

        // (4) A value pushed at a FIND_NODE is not a find.
        let value = DhtMsg::Value {
            op,
            sender_key: keys[5],
            data: Rc::from(b"poison".to_vec()),
        };
        deliver(&mut sim, asker, mallory, value);
        assert_eq!(sim.metrics().counter("dht.get_found"), 0);

        // (5) The closest contact there could be, at an address the
        // simulation never created: the lookup queries it, the send is a
        // drop (not a simulator panic) and the RPC times out like any other.
        let nowhere = Contact {
            key: target,
            addr: NodeId(10_000),
        };
        assert_eq!(sim.metrics().counter("net.lost"), 0);
        deliver(&mut sim, asker, mallory, nodes(op, vec![nowhere]));

        // The lookup still ends, with contacts or a timeout, and a reply
        // that trails in after it is dropped.
        sim.run_for(SimDuration::from_mins(2));
        assert!(sim.metrics().counter("net.lost") >= 1);
        assert!(matches!(
            sim.node_mut(asker).take_result(op),
            Some(DhtResult::Closest(_) | DhtResult::TimedOut)
        ));
        deliver(&mut sim, asker, mallory, nodes(op, vec![stranger(60_002)]));
        assert!(sim.node(asker).lookups.is_empty());
        assert!(sim.node_mut(asker).take_result(op).is_none());
        assert_eq!(sim.metrics().counter("dht.nodes_oversized"), 1);
    }
}
