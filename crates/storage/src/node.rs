//! The decentralized storage network as a simulated protocol.
//!
//! Clients erasure-code objects across provider nodes, audit shards with
//! proof-of-retrievability challenges, and repair lost redundancy by
//! reconstructing from surviving shards — the §3.3 design space (replica
//! counts, repair strategies, audit cadence) made executable. Providers can
//! run cheating strategies (ack-then-discard, partial keep) to exercise the
//! incentive/audit machinery.

use std::rc::Rc;

use agora_crypto::{sha256, Hash256};
use agora_sim::{Ctx, FastMap, NodeId, Protocol, SimDuration, SimTime};

use crate::erasure::ReedSolomon;
use crate::proofs::{por_verify, Audit, AuditBook, Shard};

/// Wire messages.
#[derive(Clone, Debug)]
pub enum StorageMsg {
    /// Store a shard.
    PutShard {
        /// Object id.
        object: Hash256,
        /// Shard index.
        index: u32,
        /// Shard bytes, shared so provider storage is a refcount bump, not
        /// a copy.
        data: Rc<Shard>,
    },
    /// Acknowledge a stored shard.
    AckPut {
        /// Object id.
        object: Hash256,
        /// Shard index.
        index: u32,
    },
    /// Fetch a shard.
    GetShard {
        /// Object id.
        object: Hash256,
        /// Shard index.
        index: u32,
        /// Client request id.
        req: u64,
    },
    /// Shard fetch response (None = not held).
    ShardData {
        /// Echoed request id.
        req: u64,
        /// Shard index.
        index: u32,
        /// The bytes, if held (shared with the provider's store).
        data: Option<Rc<Shard>>,
    },
    /// Proof-of-retrievability challenge.
    AuditChallenge {
        /// Object id.
        object: Hash256,
        /// Shard index.
        index: u32,
        /// Audit nonce.
        nonce: u64,
        /// Client request id.
        req: u64,
    },
    /// Audit response (None = shard not held).
    AuditResponse {
        /// Echoed request id.
        req: u64,
        /// `H(nonce ‖ shard)` if held.
        digest: Option<Hash256>,
    },
}

impl StorageMsg {
    fn wire_size(&self) -> u64 {
        match self {
            StorageMsg::PutShard { data, .. } => 40 + data.data().len() as u64,
            StorageMsg::AckPut { .. } => 40,
            StorageMsg::GetShard { .. } => 48,
            StorageMsg::ShardData { data, .. } => {
                16 + data.as_ref().map_or(0, |d| d.data().len() as u64)
            }
            StorageMsg::AuditChallenge { .. } => 56,
            StorageMsg::AuditResponse { .. } => 48,
        }
    }
}

/// How a provider (mis)behaves.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ProviderStrategy {
    /// Stores and serves faithfully.
    Honest,
    /// Acknowledges PUTs but discards the bytes (classic freeloader).
    DiscardAfterAck,
    /// Keeps shards with the given percent probability, discards the rest.
    PartialKeep(u8),
}

/// Outcome of a client operation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum StorageResult {
    /// Object placed; all shards acknowledged.
    Stored {
        /// Object id.
        object: Hash256,
        /// Shards acknowledged.
        shards: u32,
    },
    /// Object fetched and reconstructed.
    Retrieved(Vec<u8>),
    /// Retrieval failed (too few live shards).
    Unavailable,
    /// Put failed (not enough providers acknowledged in time).
    PutFailed,
}

struct ShardPlace {
    index: u32,
    provider: NodeId,
    audits: AuditBook,
    alive: bool,
    acked: bool,
}

struct ObjectRecord {
    data_len: usize,
    /// The object's code, built once at put and reused by every get and
    /// repair (the matrix build and inversion are not per-shard work).
    rs: ReedSolomon,
    shards: Vec<ShardPlace>,
    audit_pos: usize,
}

enum OpState {
    Put {
        object: Hash256,
        deadline_ticks: u32,
    },
    Get {
        object: Hash256,
        collected: Vec<(usize, Rc<Shard>)>,
        deadline_ticks: u32,
        repair_index: Option<u32>,
        /// Op issue time for the `storage.get_secs` latency histogram.
        started: SimTime,
    },
    AuditWait {
        object: Hash256,
        index: u32,
        /// The provider challenged: the only node whose answer counts.
        provider: NodeId,
        expected: Audit,
    },
}

/// Client-side state.
pub struct ClientState {
    providers: Vec<NodeId>,
    objects: FastMap<Hash256, ObjectRecord>,
    ops: FastMap<u64, OpState>,
    results: FastMap<u64, StorageResult>,
    next_op: u64,
    audit_interval: SimDuration,
    repair_enabled: bool,
}

/// Provider-side state.
pub struct ProviderState {
    shards: FastMap<(Hash256, u32), Rc<Shard>>,
    strategy: ProviderStrategy,
}

enum Role {
    Client(Box<ClientState>),
    Provider(ProviderState),
}

/// A storage-network participant (client or provider).
pub struct StorageNode {
    role: Role,
}

const TAG_AUDIT_TICK: u64 = u64::MAX;
const OP_TICK: SimDuration = SimDuration::from_secs(2);
const MAX_OP_TICKS: u32 = 60;
/// Audits pre-drawn per placed shard; a shard whose book runs out is no
/// longer audited.
const AUDITS_PER_SHARD: usize = 64;

impl StorageNode {
    /// A storage client that places objects on `providers`. Each shard is
    /// sent once; a put or get that is still short when its deadline
    /// passes reports what it got.
    pub fn client(providers: Vec<NodeId>, audit_interval: SimDuration) -> StorageNode {
        StorageNode {
            role: Role::Client(Box::new(ClientState {
                providers,
                objects: FastMap::default(),
                ops: FastMap::default(),
                results: FastMap::default(),
                next_op: 0,
                audit_interval,
                repair_enabled: true,
            })),
        }
    }

    /// A storage provider with the given strategy.
    pub fn provider(strategy: ProviderStrategy) -> StorageNode {
        StorageNode {
            role: Role::Provider(ProviderState {
                shards: FastMap::default(),
                strategy,
            }),
        }
    }

    /// Disable automatic repair (for ablation experiments).
    pub fn set_repair(&mut self, enabled: bool) {
        if let Role::Client(c) = &mut self.role {
            c.repair_enabled = enabled;
        }
    }

    /// Store a shard directly into a provider (the market's placement /
    /// repair path), applying the provider's strategy exactly as a
    /// `PutShard` message would. Returns whether the provider kept the
    /// bytes — which the market deliberately ignores: cheaters are
    /// discovered by audits, not by trusting the store path.
    pub fn provider_store(
        &mut self,
        ctx: &mut Ctx<'_, StorageMsg>,
        object: Hash256,
        index: u32,
        data: Rc<Shard>,
    ) -> bool {
        let Role::Provider(p) = &mut self.role else {
            panic!("provider_store on a client");
        };
        let keep = match p.strategy {
            ProviderStrategy::Honest => true,
            ProviderStrategy::DiscardAfterAck => false,
            ProviderStrategy::PartialKeep(pct) => ctx.rng().chance(pct as f64 / 100.0),
        };
        if keep {
            p.shards.insert((object, index), data);
        }
        keep
    }

    /// Answer a retrievability challenge from local state (providers only;
    /// `None` = shard not held).
    pub fn provider_digest(&self, object: &Hash256, index: u32, nonce: u64) -> Option<Hash256> {
        match &self.role {
            Role::Provider(p) => p.shards.get(&(*object, index)).map(|d| d.por(nonce)),
            Role::Client(_) => None,
        }
    }

    /// Borrow a held shard (providers only) — the market repair actor's
    /// read path.
    pub fn provider_shard(&self, object: &Hash256, index: u32) -> Option<Rc<Shard>> {
        match &self.role {
            Role::Provider(p) => p.shards.get(&(*object, index)).cloned(),
            Role::Client(_) => None,
        }
    }

    /// Live-shard count the client believes an object has.
    pub fn live_shards(&self, object: &Hash256) -> usize {
        match &self.role {
            Role::Client(c) => c
                .objects
                .get(object)
                .map_or(0, |o| o.shards.iter().filter(|s| s.alive).count()),
            Role::Provider(_) => 0,
        }
    }

    /// Store an object with RS(k, m). Returns the operation id; the object id
    /// is `sha256(data)`.
    pub fn start_put(
        &mut self,
        ctx: &mut Ctx<'_, StorageMsg>,
        data: &[u8],
        k: usize,
        m: usize,
    ) -> (u64, Hash256) {
        let Role::Client(c) = &mut self.role else {
            panic!("start_put on a provider");
        };
        let object = sha256(data);
        let rs = ReedSolomon::new(k, m).expect("valid k/m");
        let shards = rs.encode(data);
        // Pick distinct providers round-robin from a shuffled order.
        let mut order: Vec<NodeId> = c.providers.clone();
        ctx.rng().shuffle(&mut order);
        let mut places = Vec::new();
        for (i, shard) in shards.into_iter().enumerate() {
            let provider = order[i % order.len()];
            let shard = Shard::new(shard);
            let audits = AuditBook::new(Rc::clone(&shard), AUDITS_PER_SHARD, ctx.rng());
            let shard_len = shard.data().len() as u64;
            let msg = StorageMsg::PutShard {
                object,
                index: i as u32,
                data: shard,
            };
            let size = msg.wire_size();
            ctx.send(provider, msg, size);
            ctx.metrics().incr("storage.shard_bytes_up", shard_len);
            ctx.trace_point("storage.shard_bytes_up", shard_len as f64);
            places.push(ShardPlace {
                index: i as u32,
                provider,
                audits,
                alive: true,
                acked: false,
            });
        }
        c.objects.insert(
            object,
            ObjectRecord {
                data_len: data.len(),
                rs,
                shards: places,
                audit_pos: 0,
            },
        );
        let op = c.next_op;
        c.next_op += 1;
        c.ops.insert(
            op,
            OpState::Put {
                object,
                deadline_ticks: MAX_OP_TICKS,
            },
        );
        ctx.set_timer(OP_TICK, op);
        (op, object)
    }

    /// Retrieve an object previously stored by this client.
    pub fn start_get(&mut self, ctx: &mut Ctx<'_, StorageMsg>, object: Hash256) -> u64 {
        let Role::Client(c) = &mut self.role else {
            panic!("start_get on a provider");
        };
        let op = c.next_op;
        c.next_op += 1;
        let Some(rec) = c.objects.get(&object) else {
            c.results.insert(op, StorageResult::Unavailable);
            return op;
        };
        for s in rec.shards.iter().filter(|s| s.alive) {
            let msg = StorageMsg::GetShard {
                object,
                index: s.index,
                req: op,
            };
            let size = msg.wire_size();
            ctx.send(s.provider, msg, size);
        }
        c.ops.insert(
            op,
            OpState::Get {
                object,
                collected: Vec::new(),
                deadline_ticks: MAX_OP_TICKS,
                repair_index: None,
                started: ctx.now(),
            },
        );
        ctx.set_timer(OP_TICK, op);
        op
    }

    /// Collect a finished operation's result.
    pub fn take_result(&mut self, op: u64) -> Option<StorageResult> {
        match &mut self.role {
            Role::Client(c) => c.results.remove(&op),
            Role::Provider(_) => None,
        }
    }

    // -- client internals ---------------------------------------------------

    fn client_audit_round(&mut self, ctx: &mut Ctx<'_, StorageMsg>) {
        let Role::Client(c) = &mut self.role else {
            return;
        };
        let mut challenges = Vec::new();
        // Audit objects in key order: the op-id/challenge sequence must not
        // depend on the table's bucket layout.
        let mut audit_order: Vec<Hash256> = c.objects.keys().copied().collect();
        audit_order.sort_unstable();
        for object in audit_order {
            let Some(rec) = c.objects.get_mut(&object) else {
                continue;
            };
            // Audit one live shard per object per round, rotating.
            let live: Vec<usize> = (0..rec.shards.len())
                .filter(|&i| rec.shards[i].alive)
                .collect();
            if live.is_empty() {
                continue;
            }
            let pick = live[rec.audit_pos % live.len()];
            rec.audit_pos += 1;
            let place = &mut rec.shards[pick];
            let Some(audit) = place.audits.pop() else {
                continue; // audits exhausted; stop auditing this shard
            };
            let op = c.next_op;
            c.next_op += 1;
            challenges.push((op, object, place.index, place.provider, audit));
        }
        for (op, object, index, provider, audit) in challenges {
            let msg = StorageMsg::AuditChallenge {
                object,
                index,
                nonce: audit.nonce,
                req: op,
            };
            let size = msg.wire_size();
            ctx.send(provider, msg, size);
            ctx.metrics().incr("storage.audits_sent", 1);
            ctx.trace_point("storage.audits_sent", index as f64);
            c.ops.insert(
                op,
                OpState::AuditWait {
                    object,
                    index,
                    provider,
                    expected: audit,
                },
            );
            ctx.set_timer(OP_TICK * 3, op);
        }
        let interval = c.audit_interval;
        ctx.set_timer(interval, TAG_AUDIT_TICK);
    }

    fn mark_shard_dead(&mut self, ctx: &mut Ctx<'_, StorageMsg>, object: Hash256, index: u32) {
        let Role::Client(c) = &mut self.role else {
            return;
        };
        let Some(rec) = c.objects.get_mut(&object) else {
            return;
        };
        let Some(place) = rec.shards.iter_mut().find(|s| s.index == index) else {
            return;
        };
        if !place.alive {
            return;
        }
        place.alive = false;
        ctx.metrics().incr("storage.shards_lost_detected", 1);
        if !c.repair_enabled {
            return;
        }
        // Repair: fetch enough shards to reconstruct, then re-place `index`.
        let op = c.next_op;
        c.next_op += 1;
        for s in rec.shards.iter().filter(|s| s.alive) {
            let msg = StorageMsg::GetShard {
                object,
                index: s.index,
                req: op,
            };
            let size = msg.wire_size();
            ctx.send(s.provider, msg, size);
        }
        c.ops.insert(
            op,
            OpState::Get {
                object,
                collected: Vec::new(),
                deadline_ticks: MAX_OP_TICKS,
                repair_index: Some(index),
                started: ctx.now(),
            },
        );
        ctx.set_timer(OP_TICK, op);
        ctx.metrics().incr("storage.repairs_started", 1);
        ctx.trace_point("storage.repairs_started", index as f64);
    }

    fn try_complete_get(&mut self, ctx: &mut Ctx<'_, StorageMsg>, op: u64) {
        let Role::Client(c) = &mut self.role else {
            return;
        };
        let Some(OpState::Get {
            object,
            collected,
            repair_index,
            started,
            ..
        }) = c.ops.get(&op)
        else {
            return;
        };
        let object = *object;
        let repair_index = *repair_index;
        let started = *started;
        let rec = c.objects.get(&object).expect("record exists");
        if collected.len() < rec.rs.data_shards() {
            return;
        }
        match rec.rs.reconstruct(collected, rec.data_len) {
            Ok(data) => {
                c.ops.remove(&op);
                match repair_index {
                    None => {
                        ctx.metrics().incr("storage.get_ok", 1);
                        let took = ctx.now().since(started).secs_f64();
                        ctx.metrics().sample("storage.get_secs", took);
                        c.results.insert(op, StorageResult::Retrieved(data));
                    }
                    Some(index) => {
                        // Regenerate the lost shard and place it on a fresh
                        // provider.
                        let shard = Shard::new(rec.rs.encode_shard(&data, index as usize));
                        let rec = c.objects.get_mut(&object).expect("record");
                        let used: Vec<NodeId> = rec
                            .shards
                            .iter()
                            .filter(|s| s.alive)
                            .map(|s| s.provider)
                            .collect();
                        let mut candidates: Vec<NodeId> = c
                            .providers
                            .iter()
                            .copied()
                            .filter(|p| !used.contains(p))
                            .collect();
                        let provider = if candidates.is_empty() {
                            *ctx.rng().pick(&c.providers)
                        } else {
                            ctx.rng().shuffle(&mut candidates);
                            candidates[0]
                        };
                        let audits = AuditBook::new(Rc::clone(&shard), AUDITS_PER_SHARD, ctx.rng());
                        let msg = StorageMsg::PutShard {
                            object,
                            index,
                            data: shard,
                        };
                        let size = msg.wire_size();
                        ctx.send(provider, msg, size);
                        ctx.metrics().incr("storage.repair_bytes_up", size);
                        ctx.metrics().incr("storage.repairs_completed", 1);
                        if let Some(place) = rec.shards.iter_mut().find(|s| s.index == index) {
                            place.provider = provider;
                            place.audits = audits;
                            place.alive = true;
                            place.acked = false;
                        }
                    }
                }
            }
            Err(_) => {
                // Wait for more shards (corrupt metadata handled at timeout).
            }
        }
    }
}

impl Protocol for StorageNode {
    type Msg = StorageMsg;

    fn on_start(&mut self, ctx: &mut Ctx<'_, StorageMsg>) {
        if let Role::Client(c) = &self.role {
            let interval = c.audit_interval;
            ctx.set_timer(interval, TAG_AUDIT_TICK);
        }
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_, StorageMsg>, from: NodeId, msg: StorageMsg) {
        match (&mut self.role, msg) {
            (
                Role::Provider(p),
                StorageMsg::PutShard {
                    object,
                    index,
                    data,
                },
            ) => {
                let keep = match p.strategy {
                    ProviderStrategy::Honest => true,
                    ProviderStrategy::DiscardAfterAck => false,
                    ProviderStrategy::PartialKeep(pct) => ctx.rng().chance(pct as f64 / 100.0),
                };
                if keep {
                    p.shards.insert((object, index), data);
                }
                let reply = StorageMsg::AckPut { object, index };
                let size = reply.wire_size();
                ctx.send(from, reply, size);
            }
            (Role::Provider(p), StorageMsg::GetShard { object, index, req }) => {
                let data = p.shards.get(&(object, index)).cloned();
                if let Some(d) = &data {
                    ctx.metrics()
                        .incr("storage.shard_bytes_served", d.data().len() as u64);
                }
                let reply = StorageMsg::ShardData { req, index, data };
                let size = reply.wire_size();
                ctx.send(from, reply, size);
            }
            (
                Role::Provider(p),
                StorageMsg::AuditChallenge {
                    object,
                    index,
                    nonce,
                    req,
                },
            ) => {
                let digest = p.shards.get(&(object, index)).map(|d| d.por(nonce));
                let reply = StorageMsg::AuditResponse { req, digest };
                let size = reply.wire_size();
                ctx.send(from, reply, size);
            }
            (Role::Client(c), StorageMsg::AckPut { object, index }) => {
                // An ack says a provider holds the shard, so it counts only
                // from the node the shard was sent to.
                let Some(rec) = c.objects.get_mut(&object) else {
                    ctx.metrics().incr("storage.ack_stray", 1);
                    return;
                };
                let Some(p) = rec
                    .shards
                    .iter_mut()
                    .find(|s| s.index == index && s.provider == from)
                else {
                    ctx.metrics().incr("storage.ack_stray", 1);
                    return;
                };
                p.acked = true;
                // Complete any pending Put op once all acks are in.
                if rec.shards.iter().all(|s| s.acked) {
                    let done: Vec<u64> = c
                        .ops
                        .iter()
                        .filter_map(|(op, st)| match st {
                            OpState::Put { object: o, .. } if *o == object => Some(*op),
                            _ => None,
                        })
                        .collect();
                    let n = rec.shards.len() as u32;
                    for op in done {
                        c.ops.remove(&op);
                        ctx.metrics().incr("storage.put_ok", 1);
                        c.results
                            .insert(op, StorageResult::Stored { object, shards: n });
                    }
                }
            }
            (Role::Client(c), StorageMsg::ShardData { req, index, data }) => {
                if let Some(OpState::Get {
                    object, collected, ..
                }) = c.ops.get_mut(&req)
                {
                    if let Some(d) = data {
                        // Op ids are guessable and `from` proves nothing (a
                        // repair can re-home a shard under a reply in
                        // flight), so a reply is judged by its shape: one
                        // shard that cannot belong to the object would
                        // otherwise fail every later reconstruction.
                        let rec = c.objects.get(object).expect("record exists");
                        let index = index as usize;
                        if index >= rec.rs.total_shards()
                            || d.data().len() != rec.rs.shard_len(rec.data_len)
                        {
                            ctx.metrics().incr("storage.bad_shards", 1);
                            return;
                        }
                        if !collected.iter().any(|(i, _)| *i == index) {
                            collected.push((index, d));
                        }
                    }
                    self.try_complete_get(ctx, req);
                }
            }
            (Role::Client(c), StorageMsg::AuditResponse { req, digest }) => {
                if let Some(OpState::AuditWait {
                    object,
                    index,
                    provider,
                    expected,
                }) = c.ops.get(&req)
                {
                    // Op ids are guessable, and a `None` here condemns the
                    // shard's holder: only the provider that was challenged
                    // may answer. The wait stays open for it, or its timeout.
                    if *provider != from {
                        ctx.metrics().incr("storage.audit_stray", 1);
                        return;
                    }
                    let (object, index, expected) = (*object, *index, *expected);
                    let pass = digest.is_some_and(|d| por_verify(&expected, &d));
                    c.ops.remove(&req);
                    if pass {
                        ctx.metrics().incr("storage.audit_pass", 1);
                    } else {
                        ctx.metrics().incr("storage.audit_fail", 1);
                        self.mark_shard_dead(ctx, object, index);
                    }
                }
            }
            _ => {}
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, StorageMsg>, tag: u64) {
        if tag == TAG_AUDIT_TICK {
            self.client_audit_round(ctx);
            return;
        }
        let Role::Client(c) = &mut self.role else {
            return;
        };
        match c.ops.get_mut(&tag) {
            Some(OpState::Put {
                object,
                deadline_ticks,
                ..
            }) => {
                let object = *object;
                *deadline_ticks -= 1;
                if *deadline_ticks == 0 {
                    c.ops.remove(&tag);
                    ctx.metrics().incr("storage.put_timeout", 1);
                    let acked = c
                        .objects
                        .get(&object)
                        .map_or(0, |r| r.shards.iter().filter(|s| s.acked).count() as u32);
                    // Partial placement can still be durable; report what we got.
                    let result = if acked > 0 {
                        StorageResult::Stored {
                            object,
                            shards: acked,
                        }
                    } else {
                        StorageResult::PutFailed
                    };
                    c.results.insert(tag, result);
                } else {
                    ctx.set_timer(OP_TICK, tag);
                }
            }
            Some(OpState::Get { deadline_ticks, .. }) => {
                *deadline_ticks -= 1;
                if *deadline_ticks == 0 {
                    if let Some(OpState::Get { repair_index, .. }) = c.ops.remove(&tag) {
                        ctx.metrics().incr("storage.get_timeout", 1);
                        if repair_index.is_none() {
                            c.results.insert(tag, StorageResult::Unavailable);
                        }
                    }
                } else {
                    ctx.set_timer(OP_TICK, tag);
                }
            }
            Some(OpState::AuditWait { object, index, .. }) => {
                // Timer fired before a response arrived (an answered audit
                // is removed on the spot): audit timed out.
                let (object, index) = (*object, *index);
                c.ops.remove(&tag);
                ctx.metrics().incr("storage.audit_timeout", 1);
                self.mark_shard_dead(ctx, object, index);
            }
            None => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use agora_sim::{DeviceClass, Simulation};

    fn build(
        n_providers: usize,
        strategy: impl Fn(usize) -> ProviderStrategy,
        seed: u64,
    ) -> (Simulation<StorageNode>, NodeId, Vec<NodeId>) {
        let mut sim = Simulation::new(seed);
        let mut providers = Vec::new();
        for i in 0..n_providers {
            providers.push(sim.add_node(
                StorageNode::provider(strategy(i)),
                DeviceClass::PersonalComputer,
            ));
        }
        let client = sim.add_node(
            StorageNode::client(providers.clone(), SimDuration::from_secs(30)),
            DeviceClass::PersonalComputer,
        );
        (sim, client, providers)
    }

    #[test]
    fn put_get_round_trip() {
        let (mut sim, client, _) = build(8, |_| ProviderStrategy::Honest, 1);
        let data: Vec<u8> = (0..50_000u32).map(|i| (i % 251) as u8).collect();
        let (put_op, object) = sim
            .with_ctx(client, |n, ctx| n.start_put(ctx, &data, 4, 2))
            .unwrap();
        sim.run_for(SimDuration::from_secs(60));
        assert_eq!(
            sim.node_mut(client).take_result(put_op),
            Some(StorageResult::Stored { object, shards: 6 })
        );
        let get_op = sim
            .with_ctx(client, |n, ctx| n.start_get(ctx, object))
            .unwrap();
        sim.run_for(SimDuration::from_secs(120));
        match sim.node_mut(client).take_result(get_op) {
            Some(StorageResult::Retrieved(got)) => assert_eq!(got, data),
            other => panic!("get failed: {other:?}"),
        }
    }

    #[test]
    fn survives_m_provider_failures() {
        let (mut sim, client, providers) = build(6, |_| ProviderStrategy::Honest, 2);
        let data = vec![7u8; 30_000];
        let (_, object) = sim
            .with_ctx(client, |n, ctx| n.start_put(ctx, &data, 4, 2))
            .unwrap();
        sim.run_for(SimDuration::from_secs(60));
        // Kill two providers (up to m=2 shard losses tolerated) and disable
        // repair so this tests pure redundancy.
        sim.node_mut(client).set_repair(false);
        sim.kill(providers[0]);
        sim.kill(providers[1]);
        let get_op = sim
            .with_ctx(client, |n, ctx| n.start_get(ctx, object))
            .unwrap();
        sim.run_for(SimDuration::from_secs(200));
        match sim.node_mut(client).take_result(get_op) {
            Some(StorageResult::Retrieved(got)) => assert_eq!(got, data),
            other => panic!("should survive m failures: {other:?}"),
        }
    }

    #[test]
    fn audits_detect_discarding_provider() {
        // One dishonest provider among honest ones.
        let (mut sim, client, _) = build(
            6,
            |i| {
                if i == 0 {
                    ProviderStrategy::DiscardAfterAck
                } else {
                    ProviderStrategy::Honest
                }
            },
            3,
        );
        let data = vec![9u8; 20_000];
        sim.with_ctx(client, |n, ctx| n.start_put(ctx, &data, 4, 2))
            .unwrap();
        // Run long enough for several audit rounds.
        sim.run_for(SimDuration::from_mins(10));
        assert!(
            sim.metrics().counter("storage.audit_fail") >= 1,
            "discarder should fail an audit"
        );
        assert!(sim.metrics().counter("storage.audit_pass") >= 1);
    }

    #[test]
    fn repair_restores_redundancy_after_failure() {
        let (mut sim, client, providers) = build(8, |_| ProviderStrategy::Honest, 4);
        let data = vec![3u8; 40_000];
        let (_, object) = sim
            .with_ctx(client, |n, ctx| n.start_put(ctx, &data, 4, 2))
            .unwrap();
        sim.run_for(SimDuration::from_secs(60));
        assert_eq!(sim.node(client).live_shards(&object), 6);
        sim.kill(providers[0]);
        // Audits mark dead shards; repair re-encodes and re-places.
        sim.run_for(SimDuration::from_mins(20));
        assert!(
            sim.metrics().counter("storage.repairs_completed") >= 1,
            "repair should run"
        );
        assert_eq!(
            sim.node(client).live_shards(&object),
            6,
            "redundancy restored"
        );
        // The full object is still retrievable.
        let get_op = sim
            .with_ctx(client, |n, ctx| n.start_get(ctx, object))
            .unwrap();
        sim.run_for(SimDuration::from_secs(200));
        match sim.node_mut(client).take_result(get_op) {
            Some(StorageResult::Retrieved(got)) => assert_eq!(got, data),
            other => panic!("post-repair get failed: {other:?}"),
        }
    }

    #[test]
    fn malformed_shard_replies_are_dropped_and_the_get_completes() {
        // Anyone can name an open get (op ids count up from zero). A reply
        // whose shard cannot belong to the object used to be collected like
        // any other; arriving first it sat among the `k` shards every
        // reconstruction attempt used, so the get ran to its timeout.
        let (mut sim, client, providers) = build(8, |_| ProviderStrategy::Honest, 7);
        let data: Vec<u8> = (0..50_000u32).map(|i| (i % 251) as u8).collect();
        let (_, object) = sim
            .with_ctx(client, |n, ctx| n.start_put(ctx, &data, 4, 2))
            .unwrap();
        sim.run_for(SimDuration::from_secs(60));
        let shard_len = data.len().div_ceil(4);
        let bogus = [
            (6, shard_len), // index past k + m
            (u32::MAX, shard_len),
            (0, shard_len + 1), // a real index, bytes of the wrong length
            (1, shard_len - 1),
            (2, 0),
        ];
        let get_op = sim
            .with_ctx(client, |n, ctx| n.start_get(ctx, object))
            .unwrap();
        // Ahead of every honest reply, straight into the handler.
        for (index, len) in bogus {
            let reply = StorageMsg::ShardData {
                req: get_op,
                index,
                data: Some(Shard::new(vec![0x66u8; len])),
            };
            sim.with_ctx(client, |n, ctx| n.on_message(ctx, providers[0], reply))
                .unwrap();
        }
        assert_eq!(
            sim.metrics().counter("storage.bad_shards"),
            bogus.len() as u64
        );
        sim.run_for(SimDuration::from_secs(120));
        match sim.node_mut(client).take_result(get_op) {
            Some(StorageResult::Retrieved(got)) => assert_eq!(got, data),
            other => panic!("get wedged by a malformed shard: {other:?}"),
        }
        assert_eq!(sim.metrics().counter("storage.get_timeout"), 0);
    }

    #[test]
    fn stray_audit_responses_condemn_nobody() {
        // Anyone can name an open audit (op ids count up from zero). An
        // `AuditResponse` used to be matched by `req` alone, so a third
        // node's `None` failed the audit for a provider that did nothing:
        // its shard marked dead, a repair started, the honest answer ignored.
        let (mut sim, client, _) = build(8, |_| ProviderStrategy::Honest, 8);
        let outsider = sim.add_node(
            StorageNode::provider(ProviderStrategy::Honest),
            DeviceClass::PersonalComputer,
        );
        let data: Vec<u8> = (0..50_000u32).map(|i| (i % 251) as u8).collect();
        let (_, object) = sim
            .with_ctx(client, |n, ctx| n.start_put(ctx, &data, 4, 2))
            .unwrap();
        // Up to the first audit round (30 s), then stop with its challenge
        // in flight: a link is tens of milliseconds each way.
        sim.run_for(SimDuration::from_secs(29));
        while sim.metrics().counter("storage.audits_sent") == 0 {
            sim.run_for(SimDuration::from_millis(1));
        }
        // Ahead of the honest reply, straight into the handler, at every op
        // id so far: "not held", then a digest of the wrong bytes.
        for digest in [None, Some(sha256(b"not the shard"))] {
            for req in 0..8 {
                let reply = StorageMsg::AuditResponse { req, digest };
                sim.with_ctx(client, |n, ctx| n.on_message(ctx, outsider, reply))
                    .unwrap();
            }
        }
        assert_eq!(sim.metrics().counter("storage.audit_fail"), 0);
        assert_eq!(sim.metrics().counter("storage.audit_stray"), 2);
        sim.run_for(SimDuration::from_secs(20));
        assert_eq!(sim.metrics().counter("storage.audit_pass"), 1);
        assert_eq!(sim.metrics().counter("storage.audit_timeout"), 0);
        assert_eq!(sim.metrics().counter("storage.shards_lost_detected"), 0);
        assert_eq!(sim.metrics().counter("storage.repairs_started"), 0);
        assert_eq!(sim.node(client).live_shards(&object), 6);
    }

    /// Put one object RS(4, 2) on eight honest providers, repair off, and
    /// run until it is acked, short of the first audit round (30 s).
    fn placed(seed: u64) -> (Simulation<StorageNode>, NodeId, Vec<NodeId>, Hash256) {
        let (mut sim, client, providers) = build(8, |_| ProviderStrategy::Honest, seed);
        sim.node_mut(client).set_repair(false);
        let data: Vec<u8> = (0..50_000u32).map(|i| (i % 251) as u8).collect();
        sim.with_ctx(client, |n, ctx| n.start_put(ctx, &data, 4, 2));
        sim.run_for(SimDuration::from_secs(20));
        let object = sha256(&data);
        assert_eq!(sim.node(client).live_shards(&object), 6);
        (sim, client, providers, object)
    }

    /// Replace every shard of `object` a provider holds with a new `Shard`
    /// of its bytes after `edit`: a distinct allocation either way.
    fn restore(
        sim: &mut Simulation<StorageNode>,
        providers: &[NodeId],
        object: Hash256,
        edit: impl Fn(&mut Vec<u8>),
    ) {
        let mut restored = 0;
        for &p in providers {
            for index in 0..6 {
                let Some(held) = sim.node(p).provider_shard(&object, index) else {
                    continue;
                };
                let mut bytes = held.data().to_vec();
                edit(&mut bytes);
                let copy = Shard::new(bytes);
                assert!(!Rc::ptr_eq(&copy, &held));
                sim.with_ctx(p, |n, ctx| n.provider_store(ctx, object, index, copy));
                restored += 1;
            }
        }
        assert_eq!(restored, 6);
    }

    #[test]
    fn the_challenged_provider_answering_under_another_nonce_fails() {
        // The right shard's digest, from the provider that was challenged,
        // but under a nonce other than the one revealed: a replayed or
        // precomputed answer, not a proof of holding the bytes now.
        let (mut sim, client, _, object) = placed(10);
        sim.run_for(SimDuration::from_secs(9));
        while sim.metrics().counter("storage.audits_sent") == 0 {
            sim.run_for(SimDuration::from_millis(1));
        }
        let open: Vec<(u64, u32, NodeId, u64)> = match &sim.node(client).role {
            Role::Client(c) => c
                .ops
                .iter()
                .filter_map(|(&req, op)| match op {
                    OpState::AuditWait {
                        index,
                        provider,
                        expected,
                        ..
                    } => Some((req, *index, *provider, expected.nonce)),
                    _ => None,
                })
                .collect(),
            Role::Provider(_) => Vec::new(),
        };
        assert_eq!(open.len(), 1);
        for (req, index, provider, nonce) in open {
            let held = sim.node(provider).provider_shard(&object, index);
            let digest = held.map(|shard| shard.por(nonce.wrapping_add(1)));
            assert!(digest.is_some());
            let reply = StorageMsg::AuditResponse { req, digest };
            sim.with_ctx(client, |n, ctx| n.on_message(ctx, provider, reply));
        }
        assert_eq!(sim.metrics().counter("storage.audit_fail"), 1);
        assert_eq!(sim.metrics().counter("storage.shards_lost_detected"), 1);
        assert_eq!(sim.node(client).live_shards(&object), 5);
        // The provider's own answer arrives after the verdict and is dropped.
        sim.run_for(SimDuration::from_secs(5));
        assert_eq!(sim.metrics().counter("storage.audit_pass"), 0);
    }

    #[test]
    fn an_equal_copy_of_the_shard_passes() {
        // Byte-equal, but not the allocation the owner hashed: the provider
        // hashes its own copy and the answer still matches.
        let (mut sim, client, providers, object) = placed(11);
        restore(&mut sim, &providers, object, |_| {});
        sim.run_for(SimDuration::from_mins(5));
        let sent = sim.metrics().counter("storage.audits_sent");
        assert!(sent >= 9, "{sent} audits");
        assert_eq!(sim.metrics().counter("storage.audit_pass"), sent);
        assert_eq!(sim.metrics().counter("storage.audit_fail"), 0);
        assert_eq!(sim.node(client).live_shards(&object), 6);
    }

    #[test]
    fn different_bytes_of_the_same_length_fail() {
        // One byte off in every held shard: each audit round fails the
        // shard it picks, whatever the owner's memo holds.
        let (mut sim, client, providers, object) = placed(12);
        restore(&mut sim, &providers, object, |bytes| bytes[0] ^= 1);
        sim.run_for(SimDuration::from_secs(25));
        assert_eq!(sim.metrics().counter("storage.audits_sent"), 1);
        assert_eq!(sim.metrics().counter("storage.audit_fail"), 1);
        assert_eq!(sim.metrics().counter("storage.audit_pass"), 0);
        assert_eq!(sim.node(client).live_shards(&object), 5);
    }

    #[test]
    fn get_unknown_object_is_unavailable() {
        let (mut sim, client, _) = build(3, |_| ProviderStrategy::Honest, 5);
        let op = sim
            .with_ctx(client, |n, ctx| n.start_get(ctx, sha256(b"nope")))
            .unwrap();
        sim.run_for(SimDuration::from_secs(5));
        assert_eq!(
            sim.node_mut(client).take_result(op),
            Some(StorageResult::Unavailable)
        );
    }

    #[test]
    fn all_providers_dead_get_times_out() {
        let (mut sim, client, providers) = build(4, |_| ProviderStrategy::Honest, 6);
        let data = vec![1u8; 10_000];
        let (_, object) = sim
            .with_ctx(client, |n, ctx| n.start_put(ctx, &data, 2, 1))
            .unwrap();
        sim.run_for(SimDuration::from_secs(30));
        sim.node_mut(client).set_repair(false);
        for p in providers {
            sim.kill(p);
        }
        let op = sim
            .with_ctx(client, |n, ctx| n.start_get(ctx, object))
            .unwrap();
        sim.run_for(SimDuration::from_mins(5));
        assert_eq!(
            sim.node_mut(client).take_result(op),
            Some(StorageResult::Unavailable)
        );
    }

    #[test]
    fn one_shot_put_under_loss_reports_partial_placement() {
        // Each shard is sent once: under 25% loss some puts or their acks
        // are lost, and the deadline reports the shards that were acked.
        let (mut sim, client, _) = build(8, |_| ProviderStrategy::Honest, 77);
        sim.set_loss_rate(0.25);
        let data = vec![9u8; 20_000];
        let (put_op, object) = sim
            .with_ctx(client, |n, ctx| n.start_put(ctx, &data, 4, 2))
            .unwrap();
        sim.run_for(SimDuration::from_secs(150));
        match sim.node_mut(client).take_result(put_op) {
            Some(StorageResult::Stored { object: o, shards }) => {
                assert_eq!(o, object);
                assert!(0 < shards && shards < 6, "{shards} shards acked");
            }
            other => panic!("expected a partial placement: {other:?}"),
        }
        assert_eq!(sim.metrics().counter("storage.put_timeout"), 1);
        for key in ["retry.attempts", "retry.gave_up"] {
            assert_eq!(sim.metrics().counter(key), 0, "{key}");
        }
    }

    #[test]
    fn stray_acks_store_nothing() {
        // Anyone can name an object being put (its id is the data's hash).
        // An `AckPut` used to mark its shard acked whoever sent it, so an
        // outsider could complete a put no provider holds any of.
        let (mut sim, client, providers) = build(8, |_| ProviderStrategy::Honest, 9);
        let outsider = sim.add_node(
            StorageNode::provider(ProviderStrategy::Honest),
            DeviceClass::PersonalComputer,
        );
        let data: Vec<u8> = (0..50_000u32).map(|i| (i % 251) as u8).collect();
        let (put_op, object) = sim
            .with_ctx(client, |n, ctx| n.start_put(ctx, &data, 4, 2))
            .unwrap();
        // Every shard is in flight to a provider that is about to die.
        for &p in &providers {
            sim.kill(p);
        }
        let strays = (0..6).map(|index| (object, index)).chain([
            (sha256(b"never put"), 0),
            (object, 6),
            (object, u32::MAX),
        ]);
        let mut sent = 0;
        for (object, index) in strays {
            let ack = StorageMsg::AckPut { object, index };
            sim.with_ctx(client, |n, ctx| n.on_message(ctx, outsider, ack))
                .unwrap();
            sent += 1;
        }
        assert_eq!(sim.node_mut(client).take_result(put_op), None);
        assert_eq!(sim.metrics().counter("storage.put_ok"), 0);
        assert_eq!(sim.metrics().counter("storage.ack_stray"), sent);
        sim.run_for(SimDuration::from_secs(150));
        assert_eq!(
            sim.node_mut(client).take_result(put_op),
            Some(StorageResult::PutFailed)
        );
        assert_eq!(sim.metrics().counter("storage.put_ok"), 0);
        assert_eq!(sim.metrics().counter("storage.put_timeout"), 1);
    }
}
