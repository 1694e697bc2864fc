//! The delta-sync substrate: contract hosting as poll-style `agora-sim`
//! state machines.
//!
//! Four roles share one protocol. A **publisher** holds the authoritative
//! op log, accepts writer submissions, and pushes signed deltas to its
//! subscriber set. A **subscriber** holds a full replica plus its
//! summary; when a push reveals a gap (the publisher's sequence ran ahead
//! of what it holds) it sends its summary and receives *exactly* the
//! missing suffix back. A **server** is the centralized comparison: same
//! contract, same writers, but readers pull the full state over the wire
//! per read and nothing is pushed. A **client** is the centralized
//! reader/writer endpoint.
//!
//! Health signals: subscribers emit `app.delta_lag` (publish-to-apply
//! seconds, also a trace point for `--explain`) and publishers emit
//! `app.state_bytes`; `app.delta` / `app.merge` trace points mark every
//! delta receipt and merge for the trace plane. Everything
//! artifact-visible iterates sorted structures (`BTreeMap`/`BTreeSet`):
//! push fan-out is NodeId-ordered, never hash-ordered.

use std::collections::{BTreeMap, BTreeSet};
use std::rc::Rc;

use agora_crypto::Hash256;
use agora_sim::{Ctx, NodeId, Protocol, SimDuration};

use crate::contract::{Contract, OpLog, VersionVector};
use crate::manifest::{AppPublisher, DeltaCert, SignedContract};

/// Fixed per-message envelope overhead (addresses, tags, lengths).
const MSG_HEADER: u64 = 40;

/// Subscriber anti-entropy cadence: re-subscribe or pull if behind.
pub const ANTI_ENTROPY: SimDuration = SimDuration::from_mins(5);

/// Timer tag for the anti-entropy loop.
const TAG_ANTI_ENTROPY: u64 = 1;

/// Wire messages of the app substrate.
#[derive(Clone, Debug)]
pub enum AppMsg {
    /// Subscriber → publisher: register and request a full bootstrap.
    Subscribe,
    /// Publisher → subscriber: the signed contract plus current state.
    SubAck {
        /// Authorship proof (verified in-memory; see `manifest`).
        contract: Box<SignedContract>,
        /// Canonical state bytes.
        state: Rc<[u8]>,
        /// Publisher log length.
        pub_seq: u64,
        /// Publish time of the newest op (sim micros).
        published_us: u64,
    },
    /// Writer → authority: one encoded op.
    Submit {
        /// Writer-side poll op id (echoed in the ack).
        op: u64,
        /// Encoded op payload.
        body: Rc<[u8]>,
    },
    /// Authority → writer: the op landed at `pub_seq`.
    SubmitAck {
        /// Echoed poll op id.
        op: u64,
        /// Publisher log length after the append.
        pub_seq: u64,
    },
    /// Publisher → subscribers: one signed delta.
    Push {
        /// Publisher log length after this delta.
        pub_seq: u64,
        /// Publish time (sim micros).
        published_us: u64,
        /// Encoded delta bytes.
        delta: Rc<[u8]>,
        /// Publisher's certificate over the delta.
        cert: Box<DeltaCert>,
    },
    /// Subscriber → publisher: "here is my summary, send what I lack".
    PullReq {
        /// Encoded summary (version vector).
        summary: Rc<[u8]>,
    },
    /// Publisher → subscriber: exactly the missing suffix.
    PullResp {
        /// Publisher log length the suffix brings the holder to.
        pub_seq: u64,
        /// Publish time of the newest op (sim micros).
        published_us: u64,
        /// Encoded delta bytes.
        delta: Rc<[u8]>,
        /// Publisher's certificate over the delta.
        cert: Box<DeltaCert>,
    },
    /// Client → server: read the full state.
    ReadReq {
        /// Client-side poll op id.
        op: u64,
    },
    /// Server → client: the full state bytes.
    ReadResp {
        /// Echoed poll op id.
        op: u64,
        /// Canonical state bytes.
        state: Rc<[u8]>,
        /// Server log length.
        pub_seq: u64,
    },
}

impl AppMsg {
    /// Modeled wire size in bytes.
    pub fn wire_size(&self) -> u64 {
        MSG_HEADER
            + match self {
                AppMsg::Subscribe => 0,
                AppMsg::SubAck {
                    contract, state, ..
                } => contract.wire_size() + state.len() as u64 + 16,
                AppMsg::Submit { body, .. } => 8 + body.len() as u64,
                AppMsg::SubmitAck { .. } => 16,
                AppMsg::Push { delta, cert, .. } | AppMsg::PullResp { delta, cert, .. } => {
                    16 + delta.len() as u64 + cert.wire_size()
                }
                AppMsg::PullReq { summary } => summary.len() as u64,
                AppMsg::ReadReq { .. } => 8,
                AppMsg::ReadResp { state, .. } => 16 + state.len() as u64,
            }
    }
}

/// A completed poll-style operation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum AppResult {
    /// A submit was accepted at this publisher sequence.
    Submitted {
        /// Publisher log length after the append.
        pub_seq: u64,
    },
    /// A centralized read returned this many state bytes.
    Read {
        /// Server log length at read time.
        pub_seq: u64,
        /// State bytes transferred.
        bytes: u64,
    },
}

/// Authoritative side (publisher or centralized server).
struct Authority<C: Contract> {
    identity: AppPublisher,
    contract: SignedContract,
    state: OpLog<C::Op>,
    /// Exact length of `state.encode(C::encode_op)`, maintained
    /// incrementally.
    state_bytes: u64,
    /// `state.encode(C::encode_op)`, memoized from the first read after a
    /// write until the next write. Only `encoded_state` fills it, from
    /// `state`; nothing takes bytes from outside.
    encoded: Option<Rc<[u8]>>,
    writers: BTreeMap<NodeId, u32>,
    subscribers: BTreeSet<NodeId>,
    pub_seq: u64,
    last_published_us: u64,
    /// Every byte this authority put on the wire (pushes, bootstraps,
    /// pull responses, reads) — the modeled uplink cost of hosting.
    sent_bytes: u64,
    /// Publishers push deltas; servers only answer reads.
    push: bool,
}

impl<C: Contract> Authority<C> {
    /// The canonical state encoding every read and bootstrap carries.
    fn encoded_state(&mut self) -> Rc<[u8]> {
        let bytes = self
            .encoded
            .get_or_insert_with(|| self.state.encode(C::encode_op).into());
        Rc::clone(bytes)
    }

    /// Append one op if the contract accepts it (`app.bad_ops` and `None`
    /// otherwise): assign the writer id and sequence, maintain the exact
    /// encoded-state size, and push the signed delta to subscribers when
    /// publishing. Returns the new log length.
    fn accept_op(&mut self, ctx: &mut Ctx<'_, AppMsg>, from: NodeId, op: C::Op) -> Option<u64> {
        let next_writer = self.writers.len() as u32 + 1;
        let writer = self.writers.get(&from).copied().unwrap_or(next_writer);
        let seq = self.state.writer_max(writer) + 1;
        let delta = C::singleton_delta(writer, seq, op);
        if !C::try_apply(&mut self.state, &delta) {
            ctx.metrics().incr("app.bad_ops", 1);
            return None;
        }
        self.writers.insert(from, writer);
        self.encoded = None;
        self.pub_seq += 1;
        self.last_published_us = ctx.now().micros();
        let delta_bytes = delta.encode(C::encode_op);
        // The canonical state encoding grows by exactly the delta's op
        // records (both carry one 4-byte count header).
        self.state_bytes += delta_bytes.len() as u64 - 4;
        ctx.trace_point("app.submit", 1.0);
        ctx.probe_signal("app.state_bytes", self.state_bytes as f64);
        if self.push && !self.subscribers.is_empty() {
            let cert = self.identity.sign_delta(self.pub_seq, &delta_bytes);
            let msg = AppMsg::Push {
                pub_seq: self.pub_seq,
                published_us: self.last_published_us,
                delta: delta_bytes.into(),
                cert: Box::new(cert),
            };
            let bytes = msg.wire_size();
            // BTreeSet iteration: pushes fan out in NodeId order.
            let targets: Vec<NodeId> = self.subscribers.iter().copied().collect();
            self.sent_bytes += bytes * targets.len() as u64;
            ctx.multicast(&targets, msg, bytes);
        }
        Some(self.pub_seq)
    }
}

/// Replica side (delta-sync subscriber).
struct Replica<C: Contract> {
    origin: NodeId,
    app: Hash256,
    contract: Option<SignedContract>,
    state: OpLog<C::Op>,
    /// Highest publisher sequence heard of.
    known_seq: u64,
    /// `known_seq` when a pull response last left us behind it: the
    /// authority had no more to give, so pulling waits for a push that
    /// raises `known_seq` past this.
    unanswerable_seq: u64,
    /// Publish time of the newest applied op (sim micros).
    applied_published_us: u64,
    pull_inflight: bool,
    last_lag_secs: f64,
}

impl<C: Contract> Replica<C> {
    fn send_subscribe(&self, ctx: &mut Ctx<'_, AppMsg>) {
        let msg = AppMsg::Subscribe;
        let bytes = msg.wire_size();
        ctx.send(self.origin, msg, bytes);
    }

    /// Pull exactly the missing suffix if behind, not already pulling, and
    /// not behind only what an earlier pull could not fetch.
    fn pull_if_behind(&mut self, ctx: &mut Ctx<'_, AppMsg>) {
        if self.state.len() < self.known_seq
            && self.unanswerable_seq < self.known_seq
            && !self.pull_inflight
        {
            self.pull_inflight = true;
            let summary: Rc<[u8]> = self.state.summarize().encode().into();
            let msg = AppMsg::PullReq { summary };
            let bytes = msg.wire_size();
            ctx.send(self.origin, msg, bytes);
        }
    }

    /// Apply a verified delta, emitting trace points and health signals.
    fn ingest(
        &mut self,
        ctx: &mut Ctx<'_, AppMsg>,
        pub_seq: u64,
        published_us: u64,
        delta_buf: &[u8],
        cert: &DeltaCert,
        from_pull: bool,
    ) {
        if from_pull {
            self.pull_inflight = false;
        }
        let Some(contract) = &self.contract else {
            // No verified contract yet: we cannot authenticate the delta.
            ctx.metrics().incr("app.delta_unverified", 1);
            return;
        };
        if cert.pub_seq != pub_seq || !cert.verify(&contract.author, &self.app, delta_buf) {
            ctx.metrics().incr("app.delta_rejected", 1);
            return;
        }
        let Ok(delta) = OpLog::decode(delta_buf, C::decode_op) else {
            ctx.metrics().incr("app.delta_rejected", 1);
            return;
        };
        let held = self.state.len();
        if !C::try_apply(&mut self.state, &delta) {
            // A gap: the delta ran ahead of our contiguous prefix. Hold
            // our state and ask for exactly what we lack.
            ctx.metrics().incr("app.delta_gap", 1);
        } else if self.state.len() == held {
            // A replay: the cert binds author, app, sequence and bytes,
            // not freshness, so a delta that adds nothing says nothing
            // about staleness.
            ctx.metrics().incr("app.delta_replayed", 1);
        } else {
            self.last_lag_secs =
                (ctx.now().micros().saturating_sub(published_us)) as f64 / 1_000_000.0;
            ctx.trace_point("app.delta", delta_buf.len() as f64);
            ctx.trace_point("app.merge", delta.len() as f64);
            ctx.trace_point("app.delta_lag", self.last_lag_secs);
            ctx.probe_signal("app.delta_lag", self.last_lag_secs);
            ctx.metrics().sample("app.delta_lag", self.last_lag_secs);
            ctx.metrics().incr("app.deltas_applied", 1);
            if published_us > self.applied_published_us {
                self.applied_published_us = published_us;
            }
        }
        self.known_seq = self.known_seq.max(pub_seq);
        if from_pull && self.state.len() < self.known_seq {
            // The authority answered and we are still behind what some
            // certified push announced: either that push claimed more than
            // the log holds, and asking again would get the same answer, or
            // an honest push overtook this answer, and the next push shows
            // the gap again.
            ctx.metrics().incr("app.pull_unanswerable", 1);
            self.unanswerable_seq = self.known_seq;
        }
        self.pull_if_behind(ctx);
    }
}

/// Centralized reader/writer endpoint.
struct Endpoint {
    server: NodeId,
}

enum Role<C: Contract> {
    /// A publisher or, with `push` off, the centralized server.
    Authority(Authority<C>),
    Subscriber(Replica<C>),
    Client(Endpoint),
}

/// One node of the app substrate, generic over the governing contract.
pub struct AppNode<C: Contract> {
    role: Role<C>,
    next_op: u64,
    results: BTreeMap<u64, AppResult>,
}

impl<C: Contract> AppNode<C> {
    fn new(role: Role<C>) -> AppNode<C> {
        AppNode {
            role,
            next_op: 0,
            results: BTreeMap::new(),
        }
    }

    fn authority(identity_seed: &[u8], name: &str, push: bool) -> AppNode<C> {
        let identity = AppPublisher::new(identity_seed);
        let contract = identity.sign_manifest(C::KIND, name, 1);
        let state = C::empty();
        let state_bytes = state.encode(C::encode_op).len() as u64;
        AppNode::new(Role::Authority(Authority {
            identity,
            contract,
            state,
            state_bytes,
            encoded: None,
            writers: BTreeMap::new(),
            subscribers: BTreeSet::new(),
            pub_seq: 0,
            last_published_us: 0,
            sent_bytes: 0,
            push,
        }))
    }

    /// A delta-pushing publisher holding the authoritative log.
    pub fn publisher(identity_seed: &[u8], name: &str) -> AppNode<C> {
        Self::authority(identity_seed, name, true)
    }

    /// The centralized comparison server: same contract, reads pull the
    /// full state, nothing is pushed.
    pub fn server(identity_seed: &[u8], name: &str) -> AppNode<C> {
        Self::authority(identity_seed, name, false)
    }

    /// A delta-sync subscriber of `app` hosted at `origin`.
    pub fn subscriber(origin: NodeId, app: Hash256) -> AppNode<C> {
        AppNode::new(Role::Subscriber(Replica {
            origin,
            app,
            contract: None,
            state: C::empty(),
            known_seq: 0,
            unanswerable_seq: 0,
            applied_published_us: 0,
            pull_inflight: false,
            last_lag_secs: 0.0,
        }))
    }

    /// A centralized client of `server`.
    pub fn client(server: NodeId) -> AppNode<C> {
        AppNode::new(Role::Client(Endpoint { server }))
    }

    /// Submit an op toward the authority; poll with
    /// [`take_result`](AppNode::take_result).
    pub fn start_submit(&mut self, ctx: &mut Ctx<'_, AppMsg>, op: &C::Op) -> u64 {
        let id = self.next_op;
        self.next_op += 1;
        let to = match &mut self.role {
            Role::Client(e) => e.server,
            Role::Subscriber(r) => r.origin,
            // Authorities apply locally (the publisher is its own writer).
            Role::Authority(a) => {
                let me = ctx.id();
                if let Some(pub_seq) = a.accept_op(ctx, me, op.clone()) {
                    self.results.insert(id, AppResult::Submitted { pub_seq });
                }
                return id;
            }
        };
        let body: Rc<[u8]> = C::encode_op(op).into();
        let msg = AppMsg::Submit { op: id, body };
        let bytes = msg.wire_size();
        ctx.send(to, msg, bytes);
        id
    }

    /// Read the full state from the centralized server; poll with
    /// [`take_result`](AppNode::take_result). Only meaningful for clients.
    pub fn start_read(&mut self, ctx: &mut Ctx<'_, AppMsg>) -> u64 {
        let id = self.next_op;
        self.next_op += 1;
        if let Role::Client(e) = &self.role {
            let msg = AppMsg::ReadReq { op: id };
            let bytes = msg.wire_size();
            ctx.send(e.server, msg, bytes);
        }
        id
    }

    /// Take a completed operation's result, if ready.
    pub fn take_result(&mut self, op: u64) -> Option<AppResult> {
        self.results.remove(&op)
    }

    /// The app address this node hosts or follows (zero for clients).
    pub fn app_id(&self) -> Hash256 {
        match &self.role {
            Role::Authority(a) => a.contract.manifest.app,
            Role::Subscriber(r) => r.app,
            Role::Client(_) => Hash256([0; 32]),
        }
    }

    /// Authoritative log length (0 for non-authorities).
    pub fn pub_seq(&self) -> u64 {
        match &self.role {
            Role::Authority(a) => a.pub_seq,
            _ => 0,
        }
    }

    /// Ops applied locally (state size in ops).
    pub fn applied_ops(&self) -> u64 {
        match &self.role {
            Role::Authority(a) => a.state.len(),
            Role::Subscriber(r) => r.state.len(),
            Role::Client(_) => 0,
        }
    }

    /// Highest publisher sequence this node has heard of.
    pub fn known_seq(&self) -> u64 {
        match &self.role {
            Role::Subscriber(r) => r.known_seq,
            Role::Authority(a) => a.pub_seq,
            Role::Client(_) => 0,
        }
    }

    /// The local state (authorities and subscribers).
    pub fn state(&self) -> Option<&OpLog<C::Op>> {
        match &self.role {
            Role::Authority(a) => Some(&a.state),
            Role::Subscriber(r) => Some(&r.state),
            Role::Client(_) => None,
        }
    }

    /// Canonical encoded-state size in bytes (authorities only; exact).
    pub fn state_bytes(&self) -> u64 {
        match &self.role {
            Role::Authority(a) => a.state_bytes,
            _ => 0,
        }
    }

    /// Total bytes this authority has sent (pushes, bootstraps, pulls,
    /// reads) — its modeled hosting uplink cost. Zero for non-authorities.
    pub fn sent_app_bytes(&self) -> u64 {
        match &self.role {
            Role::Authority(a) => a.sent_bytes,
            _ => 0,
        }
    }

    /// Last observed publish-to-apply lag in seconds (subscribers).
    pub fn last_lag_secs(&self) -> f64 {
        match &self.role {
            Role::Subscriber(r) => r.last_lag_secs,
            _ => 0.0,
        }
    }
}

impl<C: Contract> Protocol for AppNode<C> {
    type Msg = AppMsg;

    fn on_start(&mut self, ctx: &mut Ctx<'_, AppMsg>) {
        if let Role::Subscriber(r) = &self.role {
            r.send_subscribe(ctx);
            ctx.set_timer(ANTI_ENTROPY, TAG_ANTI_ENTROPY);
        }
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_, AppMsg>, from: NodeId, msg: AppMsg) {
        match msg {
            AppMsg::Subscribe => {
                let Role::Authority(a) = &mut self.role else {
                    return;
                };
                a.subscribers.insert(from);
                let reply = AppMsg::SubAck {
                    contract: Box::new(a.contract.clone()),
                    state: a.encoded_state(),
                    pub_seq: a.pub_seq,
                    published_us: a.last_published_us,
                };
                let bytes = reply.wire_size();
                a.sent_bytes += bytes;
                ctx.send(from, reply, bytes);
            }
            AppMsg::SubAck {
                contract,
                state,
                pub_seq,
                published_us,
            } => {
                let Role::Subscriber(r) = &mut self.role else {
                    return;
                };
                if from != r.origin
                    || !contract.manifest.addressed_to(&r.app)
                    || contract.manifest.kind != C::KIND
                    || !contract.verify()
                {
                    ctx.metrics().incr("app.bad_contracts", 1);
                    return;
                }
                let Ok(full) = OpLog::decode(&state, C::decode_op) else {
                    ctx.metrics().incr("app.bad_contracts", 1);
                    return;
                };
                // Bootstrap (or re-bootstrap after churn): adopt the union
                // of what we hold and the authority's copy — idempotent.
                if !full.is_valid(C::validate_op) || !C::try_apply(&mut r.state, &full) {
                    ctx.metrics().incr("app.bad_contracts", 1);
                    return;
                }
                r.contract = Some(*contract);
                r.known_seq = r.known_seq.max(pub_seq);
                if published_us > r.applied_published_us {
                    r.applied_published_us = published_us;
                    r.last_lag_secs =
                        (ctx.now().micros().saturating_sub(published_us)) as f64 / 1_000_000.0;
                }
                ctx.metrics().incr("app.bootstraps", 1);
            }
            AppMsg::Submit { op, body } => {
                let Role::Authority(a) = &mut self.role else {
                    return;
                };
                let Ok(parsed) = C::decode_op(&body) else {
                    ctx.metrics().incr("app.bad_ops", 1);
                    return;
                };
                let Some(pub_seq) = a.accept_op(ctx, from, parsed) else {
                    return;
                };
                let reply = AppMsg::SubmitAck { op, pub_seq };
                let bytes = reply.wire_size();
                a.sent_bytes += bytes;
                ctx.send(from, reply, bytes);
            }
            AppMsg::SubmitAck { op, pub_seq } => {
                self.results.insert(op, AppResult::Submitted { pub_seq });
            }
            AppMsg::Push {
                pub_seq,
                published_us,
                delta,
                cert,
            } => {
                if let Role::Subscriber(r) = &mut self.role {
                    r.ingest(ctx, pub_seq, published_us, &delta, &cert, false);
                }
            }
            AppMsg::PullReq { summary } => {
                let Role::Authority(a) = &mut self.role else {
                    return;
                };
                let Ok(their) = VersionVector::decode(&summary) else {
                    return;
                };
                let suffix = a.state.suffix_from(&their);
                let delta_bytes = suffix.encode(C::encode_op);
                let cert = a.identity.sign_delta(a.pub_seq, &delta_bytes);
                ctx.trace_point("app.pull_served", suffix.len() as f64);
                let reply = AppMsg::PullResp {
                    pub_seq: a.pub_seq,
                    published_us: a.last_published_us,
                    delta: delta_bytes.into(),
                    cert: Box::new(cert),
                };
                let bytes = reply.wire_size();
                a.sent_bytes += bytes;
                ctx.send(from, reply, bytes);
            }
            AppMsg::PullResp {
                pub_seq,
                published_us,
                delta,
                cert,
            } => {
                if let Role::Subscriber(r) = &mut self.role {
                    r.ingest(ctx, pub_seq, published_us, &delta, &cert, true);
                }
            }
            AppMsg::ReadReq { op } => {
                let Role::Authority(a) = &mut self.role else {
                    return;
                };
                ctx.trace_point("app.read", a.state_bytes as f64);
                let reply = AppMsg::ReadResp {
                    op,
                    state: a.encoded_state(),
                    pub_seq: a.pub_seq,
                };
                let bytes = reply.wire_size();
                a.sent_bytes += bytes;
                ctx.send(from, reply, bytes);
            }
            AppMsg::ReadResp { op, state, pub_seq } => {
                self.results.insert(
                    op,
                    AppResult::Read {
                        pub_seq,
                        bytes: state.len() as u64,
                    },
                );
            }
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, AppMsg>, tag: u64) {
        if tag != TAG_ANTI_ENTROPY {
            return;
        }
        let Role::Subscriber(r) = &mut self.role else {
            return;
        };
        if r.contract.is_none() {
            r.send_subscribe(ctx);
        } else {
            r.pull_if_behind(ctx);
        }
        ctx.set_timer(ANTI_ENTROPY, TAG_ANTI_ENTROPY);
    }

    fn on_down(&mut self, _ctx: &mut Ctx<'_, AppMsg>) {
        if let Role::Subscriber(r) = &mut self.role {
            r.pull_inflight = false;
        }
    }

    fn on_up(&mut self, ctx: &mut Ctx<'_, AppMsg>) {
        if let Role::Subscriber(r) = &mut self.role {
            // Missed pushes while asleep: re-subscribe (idempotent) and
            // restart the anti-entropy loop.
            r.pull_inflight = false;
            r.send_subscribe(ctx);
            ctx.set_timer(ANTI_ENTROPY, TAG_ANTI_ENTROPY);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::contract::{Contract, GuestEntry, Guestbook, KvDoc, KvWrite};
    use agora_sim::{DeviceClass, SimDuration, Simulation};

    fn entry(s: &str) -> GuestEntry {
        GuestEntry {
            body: s.as_bytes().to_vec(),
        }
    }

    #[test]
    fn publisher_pushes_deltas_and_subscribers_converge() {
        let mut sim: Simulation<AppNode<Guestbook>> = Simulation::new(7);
        let p = sim.add_node(
            AppNode::publisher(b"gb-pub", "guestbook"),
            DeviceClass::PersonalComputer,
        );
        let app = sim.node(p).app_id();
        let subs: Vec<_> = (0..3)
            .map(|_| sim.add_node(AppNode::subscriber(p, app), DeviceClass::PersonalComputer))
            .collect();
        let w = sim.add_node(AppNode::client(p), DeviceClass::PersonalComputer);
        sim.run_for(SimDuration::from_secs(5));

        let mut ops = Vec::new();
        for i in 0..4 {
            let text = format!("hello-{i}");
            if let Some(op) = sim.with_ctx(w, |n, ctx| n.start_submit(ctx, &entry(&text))) {
                ops.push(op);
            }
            sim.run_for(SimDuration::from_secs(2));
        }
        sim.run_for(SimDuration::from_secs(10));
        for op in ops {
            assert!(matches!(
                sim.node_mut(w).take_result(op),
                Some(AppResult::Submitted { .. })
            ));
        }
        assert_eq!(sim.node(p).pub_seq(), 4);
        for &s in &subs {
            assert_eq!(sim.node(s).applied_ops(), 4, "subscriber converged");
            assert_eq!(
                sim.node(s).state().unwrap(),
                sim.node(p).state().unwrap(),
                "replica state matches the authority"
            );
        }
        assert!(sim.metrics().histogram("app.delta_lag").is_some());
    }

    #[test]
    fn late_subscriber_bootstraps_full_state() {
        let mut sim: Simulation<AppNode<Guestbook>> = Simulation::new(8);
        let p = sim.add_node(
            AppNode::publisher(b"gb-pub2", "guestbook"),
            DeviceClass::PersonalComputer,
        );
        let app = sim.node(p).app_id();
        let w = sim.add_node(AppNode::client(p), DeviceClass::PersonalComputer);
        sim.run_for(SimDuration::from_secs(1));
        for i in 0..5 {
            let text = format!("early-{i}");
            sim.with_ctx(w, |n, ctx| n.start_submit(ctx, &entry(&text)));
            sim.run_for(SimDuration::from_secs(1));
        }
        let late = sim.add_node(AppNode::subscriber(p, app), DeviceClass::PersonalComputer);
        sim.run_for(SimDuration::from_secs(10));
        assert_eq!(sim.node(late).applied_ops(), 5);
    }

    #[test]
    fn centralized_reads_return_growing_state() {
        let mut sim: Simulation<AppNode<KvDoc>> = Simulation::new(9);
        let srv = sim.add_node(
            AppNode::server(b"kv-srv", "docs"),
            DeviceClass::DatacenterServer,
        );
        let c = sim.add_node(AppNode::client(srv), DeviceClass::PersonalComputer);
        sim.run_for(SimDuration::from_secs(1));
        let op = KvWrite {
            path: "index.html".into(),
            stamp: 1,
            value_hash: crate::contract::kv_value_hash(b"v"),
            len: 1,
            delete: false,
        };
        sim.with_ctx(c, |n, ctx| n.start_submit(ctx, &op));
        sim.run_for(SimDuration::from_secs(5));
        let read = sim.with_ctx(c, |n, ctx| n.start_read(ctx)).unwrap();
        sim.run_for(SimDuration::from_secs(5));
        let Some(AppResult::Read { pub_seq, bytes }) = sim.node_mut(c).take_result(read) else {
            panic!("read did not complete");
        };
        assert_eq!(pub_seq, 1);
        assert_eq!(bytes, sim.node(srv).state_bytes(), "exact encoded size");
    }

    #[test]
    fn incremental_state_bytes_matches_encoding() {
        let mut sim: Simulation<AppNode<Guestbook>> = Simulation::new(10);
        let p = sim.add_node(
            AppNode::publisher(b"gb-pub3", "guestbook"),
            DeviceClass::PersonalComputer,
        );
        let w = sim.add_node(AppNode::client(p), DeviceClass::PersonalComputer);
        sim.run_for(SimDuration::from_secs(1));
        for i in 0..6 {
            let text = format!("entry-number-{i}");
            sim.with_ctx(w, |n, ctx| n.start_submit(ctx, &entry(&text)));
            sim.run_for(SimDuration::from_secs(1));
            // Right after the write (the memo was cleared) and again
            // between writes (the memo answers): what a `ReadResp` or
            // `SubAck` carries is the encoding of the state as it is now.
            for _ in 0..2 {
                let read = sim.with_ctx(w, |n, ctx| n.start_read(ctx)).unwrap();
                sim.run_for(SimDuration::from_secs(1));
                let Role::Authority(a) = &mut sim.node_mut(p).role else {
                    panic!("p is the publisher");
                };
                let carried = a.encoded_state();
                assert_eq!(carried[..], a.state.encode(Guestbook::encode_op)[..]);
                assert_eq!(a.state_bytes, carried.len() as u64);
                assert_eq!(
                    sim.node_mut(w).take_result(read),
                    Some(AppResult::Read {
                        pub_seq: i + 1,
                        bytes: carried.len() as u64
                    })
                );
            }
        }
    }

    /// An app node that keeps every message it receives before handling
    /// it, so a test can count `PullReq`s and read a `PullResp`'s bytes.
    struct Spy {
        node: AppNode<Guestbook>,
        inbox: Vec<AppMsg>,
    }

    impl Protocol for Spy {
        type Msg = AppMsg;
        fn on_start(&mut self, ctx: &mut Ctx<'_, AppMsg>) {
            self.node.on_start(ctx);
        }
        fn on_message(&mut self, ctx: &mut Ctx<'_, AppMsg>, from: NodeId, msg: AppMsg) {
            self.inbox.push(msg.clone());
            self.node.on_message(ctx, from, msg);
        }
        fn on_timer(&mut self, ctx: &mut Ctx<'_, AppMsg>, tag: u64) {
            self.node.on_timer(ctx, tag);
        }
        fn on_down(&mut self, ctx: &mut Ctx<'_, AppMsg>) {
            self.node.on_down(ctx);
        }
        fn on_up(&mut self, ctx: &mut Ctx<'_, AppMsg>) {
            self.node.on_up(ctx);
        }
    }

    /// A bootstrapped publisher/replica pair with one op already applied.
    fn catch_up_fixture(seed: u64) -> (Simulation<Spy>, NodeId, NodeId) {
        let mut sim: Simulation<Spy> = Simulation::new(seed);
        let spy = |node| Spy {
            node,
            inbox: Vec::new(),
        };
        let pc = DeviceClass::PersonalComputer;
        let p = sim.add_node(spy(AppNode::publisher(b"catch-up", "guestbook")), pc);
        let app = sim.node(p).node.app_id();
        let r = sim.add_node(spy(AppNode::subscriber(p, app)), pc);
        sim.run_for(SimDuration::from_secs(5));
        publish(&mut sim, p, "first");
        assert_eq!(sim.node(r).node.applied_ops(), 1);
        (sim, p, r)
    }

    fn publish(sim: &mut Simulation<Spy>, p: NodeId, text: &str) {
        sim.with_ctx(p, |s, ctx| s.node.start_submit(ctx, &entry(text)));
        sim.run_for(SimDuration::from_secs(5));
    }

    fn pull_reqs(sim: &Simulation<Spy>, p: NodeId) -> usize {
        let inbox = &sim.node(p).inbox;
        inbox
            .iter()
            .filter(|m| matches!(m, AppMsg::PullReq { .. }))
            .count()
    }

    /// How a replica catches up after each way of missing pushes. Churn is
    /// the only way E18's replicas miss one (no loss, no partitions), and a
    /// revived replica re-subscribes, so an E18 day sends no `PullReq`.
    #[test]
    fn a_revived_replica_resubscribes_and_a_partitioned_one_pulls_on_the_next_push() {
        // (i) Down across two pushes, then revived: `on_up` re-subscribes
        // and one full-state `SubAck` brings it level, with no pull.
        let (mut sim, p, r) = catch_up_fixture(31);
        sim.kill(r);
        publish(&mut sim, p, "second");
        publish(&mut sim, p, "third");
        sim.node_mut(r).inbox.clear();
        sim.revive(r);
        sim.run_for(SimDuration::from_secs(10));
        let full = sim
            .node(p)
            .node
            .state()
            .unwrap()
            .encode(Guestbook::encode_op);
        match &sim.node(r).inbox[..] {
            [AppMsg::SubAck { state, .. }] => assert_eq!(state[..], full[..]),
            other => panic!("revival should bring exactly one SubAck: {other:?}"),
        }
        assert_eq!(sim.node(r).node.state(), sim.node(p).node.state());
        assert_eq!(pull_reqs(&sim, p), 0);

        // (ii) Up but partitioned across one push: nothing tells it that it
        // is behind, so not even the anti-entropy timer pulls; the next
        // push shows the gap and one pull fetches exactly the missing op
        // and the one that showed it.
        let (mut sim, p, r) = catch_up_fixture(32);
        sim.set_partition(r, 1);
        publish(&mut sim, p, "missed");
        sim.heal_partitions();
        sim.run_for(ANTI_ENTROPY + SimDuration::from_mins(1));
        assert_eq!(sim.node(r).node.applied_ops(), 1);
        assert_eq!(pull_reqs(&sim, p), 0);
        let before = sim.node(r).node.state().unwrap().clone();
        sim.node_mut(r).inbox.clear();
        publish(&mut sim, p, "next");
        assert_eq!(pull_reqs(&sim, p), 1);
        let authority = sim.node(p).node.state().unwrap();
        let missing = OpLog {
            ops: (authority.ops.iter())
                .filter(|(k, _)| !before.ops.contains_key(k))
                .map(|(k, op)| (*k, op.clone()))
                .collect(),
        };
        assert_eq!(missing.len(), 2);
        let pulled: Vec<_> = (sim.node(r).inbox.iter())
            .filter_map(|m| match m {
                AppMsg::PullResp { delta, .. } => Some(delta.to_vec()),
                _ => None,
            })
            .collect();
        assert_eq!(pulled, [missing.encode(Guestbook::encode_op)]);
        assert_eq!(sim.node(r).node.state(), Some(authority));
    }
}
