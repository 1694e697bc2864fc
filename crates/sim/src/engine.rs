//! The discrete-event simulation engine.
//!
//! Protocols are written as poll-free, event-driven state machines (the
//! smoltcp idiom): the engine delivers messages and timer expirations, and the
//! protocol reacts through a [`Ctx`] handle that can send messages, arm
//! timers, draw randomness and record metrics. There is no async runtime and
//! no real I/O; everything is deterministic given the seed.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::device::{DeviceClass, DeviceProfile};
use crate::metrics::{CounterHandle, Metrics};
use crate::net::Network;
use crate::net::SendFailure;
use crate::probe::{NoopProbe, ProbeFrame, ProbeSink};
use crate::rng::SimRng;
use crate::time::{SimDuration, SimTime};
use crate::trace::{DropReason, NoopSink, TraceEvent, TraceKind, TraceSink};

/// The engine's trace state: the installed sink, a cached enabled flag (the
/// only thing the hot path reads), and the packed key of the event currently
/// being dispatched — the causal parent stamped onto every record emitted
/// from inside its handler.
struct Tracer {
    sink: Box<dyn TraceSink>,
    on: bool,
    /// Key of the event whose handler is running; 0 between dispatches
    /// (external injections like `with_ctx`, `kill`, `revive`).
    cur: u128,
    seed: u64,
}

impl Tracer {
    #[inline]
    fn emit(&mut self, key: u128, at: SimTime, node: NodeId, kind: TraceKind) {
        if self.on {
            self.sink.record(&TraceEvent {
                key,
                parent: self.cur,
                at,
                node,
                kind,
            });
        }
    }
}

/// Pseudo-node stamped on records that concern the whole simulation.
const TRACE_SIM_NODE: NodeId = NodeId(u32::MAX);

/// The engine's probe state (see [`crate::probe`]): the installed sink, a
/// cached enabled flag (the only thing the hot path reads when no sink is
/// installed), the sampling cadence, and the engine-side bookkeeping —
/// total and per-node pending-event counts maintained at the two scheduler
/// push funnels and the dispatch decrement, so frame queue statistics are a
/// pure function of the event order and never consult the heap's layout.
struct Prober {
    sink: Box<dyn ProbeSink>,
    on: bool,
    /// Sampling cadence in micros (`u64::MAX` when no sink is installed).
    every: u64,
    /// Next cadence boundary in micros; a frame fires at the first
    /// dispatched event whose time reaches it.
    next_at: u64,
    /// Undispatched events across all nodes.
    pending: u64,
    /// Per-node pending-event depth, indexed by `NodeId`.
    depth: Vec<u32>,
    seed: u64,
}

impl Prober {
    fn target<M>(kind: &EventKind<M>) -> NodeId {
        match kind {
            EventKind::Deliver { to, .. } => *to,
            EventKind::Timer { node, .. } => *node,
            EventKind::ChurnDown(id) | EventKind::ChurnUp(id) => *id,
        }
    }

    /// An event entered the scheduler. Saturating arithmetic so a sink
    /// installed mid-run (after events were already queued) degrades to
    /// approximate counts instead of underflowing; the factory path
    /// (installation at `Simulation::new`) is always exact.
    #[inline]
    fn note_push<M>(&mut self, kind: &EventKind<M>) {
        if !self.on {
            return;
        }
        self.pending += 1;
        let ix = Self::target(kind).index();
        if ix >= self.depth.len() {
            self.depth.resize(ix + 1, 0);
        }
        self.depth[ix] += 1;
    }

    /// An event left the scheduler for dispatch.
    #[inline]
    fn note_dispatch<M>(&mut self, kind: &EventKind<M>) {
        if !self.on {
            return;
        }
        self.pending = self.pending.saturating_sub(1);
        let ix = Self::target(kind).index();
        if let Some(d) = self.depth.get_mut(ix) {
            *d = d.saturating_sub(1);
        }
    }
}

/// Identifier of a simulated node. Dense indices into the engine's tables.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct NodeId(pub u32);

impl NodeId {
    /// Dense index into engine tables.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl std::fmt::Display for NodeId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// A protocol instance hosted on one simulated node.
///
/// All methods are invoked only while the node is up, except [`Protocol::on_down`],
/// which fires at the instant the node goes down (sends from it are dropped).
pub trait Protocol {
    /// The wire message type exchanged between nodes running this protocol.
    type Msg: Clone;

    /// Called once when the node first starts (it starts up).
    fn on_start(&mut self, _ctx: &mut Ctx<'_, Self::Msg>) {}

    /// A message from `from` has arrived.
    fn on_message(&mut self, ctx: &mut Ctx<'_, Self::Msg>, from: NodeId, msg: Self::Msg);

    /// A timer armed with [`Ctx::set_timer`] has fired. Stale timers are the
    /// protocol's responsibility to ignore (there is no cancellation).
    fn on_timer(&mut self, _ctx: &mut Ctx<'_, Self::Msg>, _tag: u64) {}

    /// The node just went down (churn or injected failure).
    fn on_down(&mut self, _ctx: &mut Ctx<'_, Self::Msg>) {}

    /// The node just came back up. Protocols should re-arm timers here.
    fn on_up(&mut self, _ctx: &mut Ctx<'_, Self::Msg>) {}
}

enum EventKind<M> {
    Deliver { to: NodeId, from: NodeId, msg: M },
    Timer { node: NodeId, tag: u64 },
    ChurnDown(NodeId),
    ChurnUp(NodeId),
}

struct Event<M> {
    /// `(at, seq)` packed big-endian into one word: micros in the high 64
    /// bits, insertion sequence in the low 64. A single `u128` comparison
    /// orders events by time with deterministic insertion-order tie-breaks —
    /// one branch in the heap's sift loops instead of two chained `cmp`s,
    /// and an 8-byte-smaller header than the unpacked `(SimTime, u64)` pair.
    key: u128,
    kind: EventKind<M>,
}

impl<M> Event<M> {
    fn pack(at: SimTime, seq: u64) -> u128 {
        ((at.micros() as u128) << 64) | seq as u128
    }

    fn at(&self) -> SimTime {
        SimTime((self.key >> 64) as u64)
    }
}

impl<M> PartialEq for Event<M> {
    fn eq(&self, other: &Self) -> bool {
        self.key == other.key
    }
}
impl<M> Eq for Event<M> {}
impl<M> PartialOrd for Event<M> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<M> Ord for Event<M> {
    // Reverse ordering so BinaryHeap pops the earliest event; the packed key
    // already breaks time ties by insertion sequence for determinism.
    fn cmp(&self, other: &Self) -> Ordering {
        other.key.cmp(&self.key)
    }
}

/// The event queue: one min-heap on the packed key, plus the insertion
/// counter that makes every key unique.
struct Scheduler<M> {
    heap: BinaryHeap<Event<M>>,
    seq: u64,
}

impl<M> Scheduler<M> {
    fn push(&mut self, at: SimTime, kind: EventKind<M>) -> u128 {
        self.seq += 1;
        let key = Event::<M>::pack(at, self.seq);
        self.heap.push(Event { key, kind });
        key
    }
}

/// Pre-resolved handles for the counters the engine bumps on every event, so
/// the dispatch loop pays an array index instead of a `BTreeMap` string
/// lookup per increment. Registration is invisible in artifacts until a
/// counter actually fires (see [`Metrics::counter_handle`]).
#[derive(Clone, Copy)]
struct HotCounters {
    sent: CounterHandle,
    sent_bytes: CounterHandle,
    lost: CounterHandle,
    delivered: CounterHandle,
    /// Uniform message-drop counter: loss + partition + receiver-down, so
    /// every experiment reports total message loss under one key (timer
    /// drops stay separate — no message was on the wire).
    dropped: CounterHandle,
    dropped_receiver_down: CounterHandle,
    timer_dropped_node_down: CounterHandle,
    /// Timer drops under the `net.*` family so network-facing dashboards
    /// see them next to `net.dropped` without changing its semantics (a
    /// dropped timer never had a message on the wire). Same value as
    /// `timer.dropped_node_down`; registered invisibly like every handle.
    timer_dropped: CounterHandle,
    churn_up: CounterHandle,
    churn_down: CounterHandle,
    /// Messages duplicated / reorder-delayed by the chaos layer. Registered
    /// like every other handle but invisible in artifacts until chaos
    /// actually fires one.
    chaos_duplicated: CounterHandle,
    chaos_reordered: CounterHandle,
}

impl HotCounters {
    fn new(metrics: &mut Metrics) -> HotCounters {
        HotCounters {
            sent: metrics.counter_handle("net.sent"),
            sent_bytes: metrics.counter_handle("net.sent_bytes"),
            lost: metrics.counter_handle("net.lost"),
            delivered: metrics.counter_handle("net.delivered"),
            dropped: metrics.counter_handle("net.dropped"),
            dropped_receiver_down: metrics.counter_handle("net.dropped_receiver_down"),
            timer_dropped_node_down: metrics.counter_handle("timer.dropped_node_down"),
            timer_dropped: metrics.counter_handle("net.timer_dropped"),
            churn_up: metrics.counter_handle("churn.up"),
            churn_down: metrics.counter_handle("churn.down"),
            chaos_duplicated: metrics.counter_handle("chaos.duplicated"),
            chaos_reordered: metrics.counter_handle("chaos.reordered"),
        }
    }
}

/// Handle through which a protocol interacts with the simulated world.
pub struct Ctx<'a, M> {
    now: SimTime,
    id: NodeId,
    net: &'a mut Network,
    sched: &'a mut Scheduler<M>,
    rng: &'a mut SimRng,
    metrics: &'a mut Metrics,
    hot: HotCounters,
    tracer: &'a mut Tracer,
    prober: &'a mut Prober,
}

impl<'a, M: Clone> Ctx<'a, M> {
    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The node this protocol instance runs on.
    pub fn id(&self) -> NodeId {
        self.id
    }

    /// Number of nodes in the simulation (global knowledge is fine for
    /// bootstrap lists; protocols should not otherwise rely on it).
    pub fn node_count(&self) -> usize {
        self.net.len()
    }

    /// Send `msg` of `bytes` wire size to `to`. Delivery is asynchronous and
    /// unreliable: the message is silently dropped if the receiver is down on
    /// arrival, if the link loses it, if a partition separates the nodes, or
    /// if `to` names no node (addresses learned from peers are untrusted).
    pub fn send(&mut self, to: NodeId, msg: M, bytes: u64) {
        self.metrics.incr_handle(self.hot.sent, 1);
        self.metrics.incr_handle(self.hot.sent_bytes, bytes);
        if to == self.id {
            // Loopback: deliver after a negligible delay, never lost.
            let at = self.now + SimDuration::from_micros(1);
            let key = self.push(
                at,
                EventKind::Deliver {
                    to,
                    from: self.id,
                    msg,
                },
            );
            self.tracer
                .emit(key, self.now, self.id, TraceKind::Send { to, bytes });
            return;
        }
        match self.net.transmit(self.now, self.id, to, bytes, self.rng) {
            Ok(at) => {
                // Chaos duplication/reordering: identity (one untaken
                // branch, no draws) unless the chaos layer is enabled.
                let verdict = self.net.chaos_delivery(at);
                if verdict.reordered {
                    self.metrics.incr_handle(self.hot.chaos_reordered, 1);
                }
                match verdict.duplicate {
                    None => {
                        let key = self.push(
                            verdict.at,
                            EventKind::Deliver {
                                to,
                                from: self.id,
                                msg,
                            },
                        );
                        self.tracer
                            .emit(key, self.now, self.id, TraceKind::Send { to, bytes });
                    }
                    Some(dup_at) => {
                        self.metrics.incr_handle(self.hot.chaos_duplicated, 1);
                        let key = self.push(
                            verdict.at,
                            EventKind::Deliver {
                                to,
                                from: self.id,
                                msg: msg.clone(),
                            },
                        );
                        self.tracer
                            .emit(key, self.now, self.id, TraceKind::Send { to, bytes });
                        let dup_key = self.push(
                            dup_at,
                            EventKind::Deliver {
                                to,
                                from: self.id,
                                msg,
                            },
                        );
                        self.tracer
                            .emit(dup_key, self.now, self.id, TraceKind::Send { to, bytes });
                    }
                }
            }
            Err(failure) => {
                self.metrics.incr_handle(self.hot.lost, 1);
                self.metrics.incr_handle(self.hot.dropped, 1);
                self.tracer.emit(
                    0,
                    self.now,
                    self.id,
                    TraceKind::DropSend {
                        to,
                        bytes,
                        reason: match failure {
                            SendFailure::Partitioned => DropReason::Partition,
                            SendFailure::NoSuchNode => DropReason::NoSuchNode,
                            SendFailure::Lost => DropReason::Loss,
                            SendFailure::ChaosLink => DropReason::ChaosLink,
                        },
                    },
                );
            }
        }
    }

    /// Send the same message to every node in `to`, in order. Semantically
    /// identical to calling [`Ctx::send`] once per recipient — same metrics,
    /// same link charging, same delivery ordering — but the payload is cloned
    /// only `to.len() - 1` times: the final recipient takes ownership. With
    /// `Rc`-shared payloads inside `M` (the pattern the protocol crates use
    /// for fan-out), every clone is a refcount bump rather than a deep copy.
    pub fn multicast(&mut self, to: &[NodeId], msg: M, bytes: u64) {
        if let Some((&last, rest)) = to.split_last() {
            for &t in rest {
                self.send(t, msg.clone(), bytes);
            }
            self.send(last, msg, bytes);
        }
    }

    /// Arm a timer that fires after `delay` with the given tag. There is no
    /// cancellation; use fresh tags and ignore stale ones.
    pub fn set_timer(&mut self, delay: SimDuration, tag: u64) {
        let at = self.now + delay;
        let node = self.id;
        let key = self.push(at, EventKind::Timer { node, tag });
        self.tracer
            .emit(key, self.now, self.id, TraceKind::TimerSet { tag });
    }

    /// Emit a named protocol trace point — the hook that ties a metric
    /// sample (a lookup latency, a hop count) to the event whose handler
    /// produced it. The record's key and causal parent are both the packed
    /// key of the currently dispatching event, so a provenance query can
    /// walk from the sample back through the message/timer chain that led
    /// to it. Conventionally `name` is the metric key being annotated.
    pub fn trace_point(&mut self, name: &'static str, value: f64) {
        let key = self.tracer.cur;
        self.tracer
            .emit(key, self.now, self.id, TraceKind::Point { name, value });
    }

    /// Emit a named probe signal — a substrate health sample (a lookup
    /// latency, a seeder count) delivered to the installed probe sink in
    /// canonical event order, stamped with this node and the current
    /// simulated time. One untaken branch when no sink is installed.
    /// Conventionally `name` is the metric key the sample annotates.
    pub fn probe_signal(&mut self, name: &'static str, value: f64) {
        if self.prober.on {
            self.prober.sink.on_signal(self.now, self.id, name, value);
        }
    }

    /// The deterministic RNG (shared engine-wide).
    pub fn rng(&mut self) -> &mut SimRng {
        self.rng
    }

    /// The run's metrics registry.
    pub fn metrics(&mut self) -> &mut Metrics {
        self.metrics
    }

    /// This node's device profile (protocols may adapt to their own class).
    pub fn profile(&self) -> &DeviceProfile {
        self.net.profile(self.id)
    }

    fn push(&mut self, at: SimTime, kind: EventKind<M>) -> u128 {
        self.prober.note_push(&kind);
        self.sched.push(at, kind)
    }
}

/// The simulation: a set of nodes each hosting one `P` instance, a network
/// model, an event queue, and shared RNG + metrics.
pub struct Simulation<P: Protocol> {
    protocols: Vec<P>,
    net: Network,
    sched: Scheduler<P::Msg>,
    time: SimTime,
    rng: SimRng,
    metrics: Metrics,
    hot: HotCounters,
    events: u64,
    churn_enabled: Vec<bool>,
    started: Vec<bool>,
    tracer: Tracer,
    prober: Prober,
}

impl<P: Protocol> Simulation<P> {
    /// Create an empty simulation with the given RNG seed.
    ///
    /// A sink factory installed via
    /// [`crate::trace::with_thread_sink`] is consulted here — that is how a
    /// harness wires a flight recorder into simulations constructed deep
    /// inside `fn(seed) -> Metrics` experiment entry points without
    /// changing their signatures. Absent a factory, the no-op sink is used
    /// and every tap site reduces to one untaken branch.
    pub fn new(seed: u64) -> Simulation<P> {
        let mut metrics = Metrics::new();
        let hot = HotCounters::new(&mut metrics);
        let tracer = {
            let (sink, on): (Box<dyn TraceSink>, bool) = match crate::trace::make_thread_sink() {
                Some(sink) => (sink, true),
                None => (Box::new(NoopSink), false),
            };
            Tracer {
                sink,
                on,
                cur: 0,
                seed,
            }
        };
        // The probe factory (`crate::probe::with_thread_probe`) is consulted
        // the same way as the trace factory: that is how a harness samples
        // simulations constructed deep inside experiment entry points.
        let prober = {
            let (sink, on, every): (Box<dyn ProbeSink>, bool, u64) =
                match crate::probe::make_thread_probe() {
                    Some((sink, cadence)) => (sink, true, cadence.micros().max(1)),
                    None => (Box::new(NoopProbe), false, u64::MAX),
                };
            Prober {
                sink,
                on,
                every,
                next_at: every,
                pending: 0,
                depth: Vec::new(),
                seed,
            }
        };
        let mut sim = Simulation {
            protocols: Vec::new(),
            net: Network::new(),
            sched: Scheduler {
                heap: BinaryHeap::new(),
                seq: 0,
            },
            time: SimTime::ZERO,
            rng: SimRng::new(seed),
            metrics,
            hot,
            events: 0,
            churn_enabled: Vec::new(),
            started: Vec::new(),
            tracer,
            prober,
        };
        sim.tracer.emit(
            0,
            SimTime::ZERO,
            TRACE_SIM_NODE,
            TraceKind::SimStart { seed },
        );
        if sim.prober.on {
            sim.prober.sink.on_sim_start(seed);
        }
        sim
    }

    /// Install a trace sink on an already-constructed simulation and enable
    /// recording. Emits a `SimStart` record so the sink sees the seed.
    /// Tracing never touches the RNG or metrics, so the simulated outcome
    /// is identical with or without a sink.
    pub fn set_trace_sink(&mut self, sink: Box<dyn TraceSink>) {
        self.tracer.sink = sink;
        self.tracer.on = true;
        let seed = self.tracer.seed;
        self.tracer
            .emit(0, self.time, TRACE_SIM_NODE, TraceKind::SimStart { seed });
    }

    /// Install a probe sink with the given sampling cadence on an
    /// already-constructed simulation. Probing never touches the RNG or
    /// metrics counters the simulation would otherwise produce, so the
    /// simulated outcome is identical with or without a sink (`anomaly.*`
    /// counters fire only when a sink returns anomalies). For exact queue
    /// accounting install the sink before events are scheduled; installed
    /// later, queue statistics start approximate and converge as the
    /// pre-existing events drain.
    pub fn set_probe_sink(&mut self, mut sink: Box<dyn ProbeSink>, cadence: SimDuration) {
        sink.on_sim_start(self.prober.seed);
        let every = cadence.micros().max(1);
        self.prober.sink = sink;
        self.prober.on = true;
        self.prober.every = every;
        self.prober.next_at = (self.time.micros() / every + 1).saturating_mul(every);
        self.prober.pending = self.sched.heap.len() as u64;
    }

    /// Add a node of the given device class. Its `on_start` runs at the time
    /// of the first `run_*` call (or immediately if the sim already ran).
    pub fn add_node(&mut self, proto: P, class: DeviceClass) -> NodeId {
        self.add_node_with_profile(proto, class.profile())
    }

    /// Add a node with an explicit (possibly customized) profile.
    pub fn add_node_with_profile(&mut self, proto: P, profile: DeviceProfile) -> NodeId {
        let id = NodeId(self.protocols.len() as u32);
        self.protocols.push(proto);
        self.net.add_node(profile);
        self.churn_enabled.push(false);
        self.started.push(false);
        id
    }

    /// Enable the class-calibrated churn process for a node: alternating
    /// exponentially-distributed up/down periods matching its duty cycle.
    pub fn enable_churn(&mut self, id: NodeId) {
        self.churn_enabled[id.index()] = true;
        // Schedule the first transition out of the initial "up" period.
        let mean_up = self.net.profile(id).mean_session.secs_f64();
        let delay = SimDuration::from_secs_f64(self.rng.exp(mean_up));
        self.push(self.time + delay, EventKind::ChurnDown(id));
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.time
    }

    /// Whether a node is currently up.
    pub fn is_up(&self, id: NodeId) -> bool {
        self.net.is_up(id)
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.protocols.len()
    }

    /// Inspect a node's protocol state.
    pub fn node(&self, id: NodeId) -> &P {
        &self.protocols[id.index()]
    }

    /// Mutate a node's protocol state *without* a context (pure state poking;
    /// prefer [`Simulation::with_ctx`] for anything that must interact).
    pub fn node_mut(&mut self, id: NodeId) -> &mut P {
        &mut self.protocols[id.index()]
    }

    /// Run a closure against a node's protocol with a live [`Ctx`] — this is
    /// how the experiment harness injects user actions ("post a message",
    /// "store a file") into a running simulation. Returns `None` without
    /// running the closure if the node is down.
    pub fn with_ctx<R>(
        &mut self,
        id: NodeId,
        f: impl FnOnce(&mut P, &mut Ctx<'_, P::Msg>) -> R,
    ) -> Option<R> {
        self.ensure_started();
        if !self.net.is_up(id) {
            return None;
        }
        // External injection: records emitted under this closure have no
        // causal parent inside the simulation.
        self.tracer.cur = 0;
        let mut ctx = Ctx {
            now: self.time,
            id,
            net: &mut self.net,
            sched: &mut self.sched,
            rng: &mut self.rng,
            metrics: &mut self.metrics,
            hot: self.hot,
            tracer: &mut self.tracer,
            prober: &mut self.prober,
        };
        Some(f(&mut self.protocols[id.index()], &mut ctx))
    }

    /// Force a node down (failure injection). Triggers `on_down`. Killing an
    /// already-down node is an idempotent no-op: `churn.down` is not
    /// double-counted and `on_down` does not re-fire.
    pub fn kill(&mut self, id: NodeId) {
        self.ensure_started();
        if self.net.is_up(id) {
            self.tracer.cur = 0;
            self.transition(id, false);
        }
    }

    /// Force a node back up (repair). Triggers `on_up`. Reviving a live node
    /// is an idempotent no-op: `churn.up` is not double-counted and `on_up`
    /// does not re-fire.
    pub fn revive(&mut self, id: NodeId) {
        self.ensure_started();
        if !self.net.is_up(id) {
            self.tracer.cur = 0;
            self.transition(id, true);
        }
    }

    /// Assign a node to a partition group; messages only flow within a group.
    pub fn set_partition(&mut self, id: NodeId, group: u32) {
        self.net.set_partition(id, group);
        self.tracer.cur = 0;
        self.tracer
            .emit(0, self.time, id, TraceKind::Partition { group });
    }

    /// Heal all partitions.
    pub fn heal_partitions(&mut self) {
        self.net.heal_partitions();
    }

    /// Set the global random-loss rate for all links.
    pub fn set_loss_rate(&mut self, p: f64) {
        self.net.set_loss_rate(p);
    }

    /// Enable the chaos fault-injection layer with its own RNG stream
    /// (seeded independently of the main simulation stream so enabling
    /// chaos never perturbs the main draw sequence). Idempotent: calling
    /// again resets chaos fault state.
    pub fn enable_chaos(&mut self, seed: u64) {
        self.net.enable_chaos(seed);
    }

    /// Whether the chaos layer is enabled.
    pub fn chaos_enabled(&self) -> bool {
        self.net.chaos_enabled()
    }

    /// Bring a node's chaos link down/up (flapping links). Unlike
    /// [`Simulation::kill`], the node itself keeps running — only its
    /// traffic is dropped. Requires [`Simulation::enable_chaos`].
    pub fn set_chaos_link(&mut self, id: NodeId, up: bool) {
        self.net.set_chaos_link(id, up);
    }

    /// Assign a node to a chaos group for *directed* blocks (asymmetric
    /// partitions). Requires [`Simulation::enable_chaos`].
    pub fn set_chaos_group(&mut self, id: NodeId, group: u32) {
        self.net.set_chaos_group(id, group);
    }

    /// Block messages from `from_group` to `to_group` (one direction only:
    /// the reverse keeps flowing unless blocked separately). Requires
    /// [`Simulation::enable_chaos`].
    pub fn chaos_block_directed(&mut self, from_group: u32, to_group: u32) {
        self.net.chaos_block_directed(from_group, to_group);
    }

    /// Remove all directed chaos blocks. Requires
    /// [`Simulation::enable_chaos`].
    pub fn chaos_clear_directed(&mut self) {
        self.net.chaos_clear_directed();
    }

    /// Scale all propagation latency by `f` (latency storms); 1.0 = off.
    /// Requires [`Simulation::enable_chaos`].
    pub fn set_chaos_latency_factor(&mut self, f: f64) {
        self.net.set_chaos_latency_factor(f);
    }

    /// Duplicate delivered messages with probability `p`. Requires
    /// [`Simulation::enable_chaos`].
    pub fn set_chaos_dup_rate(&mut self, p: f64) {
        self.net.set_chaos_dup_rate(p);
    }

    /// Add a uniform extra delivery delay in `[0, bound]` per message
    /// (bounded reordering). Requires [`Simulation::enable_chaos`].
    pub fn set_chaos_reorder(&mut self, bound: SimDuration) {
        self.net.set_chaos_reorder(bound);
    }

    /// Record a named trace point from outside any protocol handler (the
    /// chaos controller uses this for the `chaos.*` span family).
    pub fn trace_note(&mut self, name: &'static str, value: f64) {
        self.tracer.cur = 0;
        self.tracer.emit(
            0,
            self.time,
            TRACE_SIM_NODE,
            TraceKind::Point { name, value },
        );
    }

    /// Emit a named probe signal from outside any protocol handler (market
    /// audits, harness-level controllers); stamped with
    /// [`crate::probe::PROBE_SIM_NODE`]. One untaken branch when no sink is
    /// installed.
    pub fn probe_note(&mut self, name: &'static str, value: f64) {
        if self.prober.on {
            self.prober
                .sink
                .on_signal(self.time, crate::probe::PROBE_SIM_NODE, name, value);
        }
    }

    /// Whether a probe sink is installed. Callers with a non-trivial signal
    /// to compute (rollups over collections) should gate on this so the
    /// computation disappears along with the probes.
    pub fn probe_active(&self) -> bool {
        self.prober.on
    }

    /// Metrics collected so far.
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// Mutable metrics (for harness-level annotations).
    pub fn metrics_mut(&mut self) -> &mut Metrics {
        &mut self.metrics
    }

    /// The engine RNG (for harness-level decisions that must stay on the same
    /// deterministic stream).
    pub fn rng_mut(&mut self) -> &mut SimRng {
        &mut self.rng
    }

    /// Process events until the queue is empty or `limit` is reached; the
    /// clock ends at `limit` (or the last event, whichever is later-capped).
    pub fn run_until(&mut self, limit: SimTime) {
        self.ensure_started();
        while let Some(ev) = self.sched.heap.peek() {
            if ev.at() > limit {
                break;
            }
            let ev = self.sched.heap.pop().expect("peeked");
            debug_assert!(ev.at() >= self.time, "time went backwards");
            self.step(ev);
        }
        if self.time < limit {
            self.time = limit;
        }
    }

    /// Run for a further duration of simulated time.
    pub fn run_for(&mut self, d: SimDuration) {
        let limit = self.time + d;
        self.run_until(limit);
    }

    /// Run until no events remain (guard: panics after `max_events` to catch
    /// livelocked protocols in tests).
    pub fn run_idle(&mut self, max_events: u64) {
        self.ensure_started();
        let mut n = 0u64;
        while let Some(ev) = self.sched.heap.pop() {
            self.step(ev);
            n += 1;
            assert!(n < max_events, "run_idle exceeded {max_events} events");
        }
    }

    /// Advance the clock to a popped event and run its handler.
    #[inline]
    fn step(&mut self, ev: Event<P::Msg>) {
        self.time = ev.at();
        self.events += 1;
        self.tracer.cur = ev.key;
        self.probe_tick(&ev.kind);
        self.dispatch(ev.kind);
    }

    /// Number of pending events (diagnostics).
    pub fn pending_events(&self) -> usize {
        self.sched.heap.len()
    }

    /// Total events dispatched so far (throughput accounting for benchmarks;
    /// not part of the metrics artifact).
    pub fn events_processed(&self) -> u64 {
        self.events
    }

    fn ensure_started(&mut self) {
        for i in 0..self.protocols.len() {
            if !self.started[i] {
                self.started[i] = true;
                let id = NodeId(i as u32);
                // `on_start` runs outside any event handler.
                self.tracer.cur = 0;
                let mut ctx = Ctx {
                    now: self.time,
                    id,
                    net: &mut self.net,
                    sched: &mut self.sched,
                    rng: &mut self.rng,
                    metrics: &mut self.metrics,
                    hot: self.hot,
                    tracer: &mut self.tracer,
                    prober: &mut self.prober,
                };
                self.protocols[i].on_start(&mut ctx);
            }
        }
    }

    fn push(&mut self, at: SimTime, kind: EventKind<P::Msg>) -> u128 {
        self.prober.note_push(&kind);
        self.sched.push(at, kind)
    }

    /// Per-dispatch probe bookkeeping: maintain queue counts, and sample a
    /// frame when the clock reaches the next cadence boundary. Called with
    /// the event already popped, after the tracer's causal cursor is set, so
    /// anomaly trace points parent to the event that triggered the sample.
    #[inline]
    fn probe_tick(&mut self, kind: &EventKind<P::Msg>) {
        self.prober.note_dispatch(kind);
        if self.prober.on && self.time.micros() >= self.prober.next_at {
            self.probe_frame();
        }
    }

    /// Build and deliver one probe frame; cold — runs once per cadence
    /// boundary, never on the per-event path.
    #[cold]
    fn probe_frame(&mut self) {
        let every = self.prober.every;
        self.prober.next_at = (self.time.micros() / every + 1).saturating_mul(every);
        let mut queue_max_depth = 0u32;
        let mut queue_max_node = 0u32;
        let mut queue_nonzero = 0u32;
        for (ix, &d) in self.prober.depth.iter().enumerate() {
            if d > 0 {
                queue_nonzero += 1;
                if d > queue_max_depth {
                    queue_max_depth = d;
                    queue_max_node = ix as u32;
                }
            }
        }
        let (
            uplink_max_backlog_secs,
            uplink_busy_nodes,
            downlink_max_backlog_secs,
            downlink_busy_nodes,
        ) = self.net.backlog_stats(self.time);
        let frame = ProbeFrame {
            now: self.time,
            events: self.events,
            pending: self.prober.pending,
            queue_max_depth,
            queue_max_node: NodeId(queue_max_node),
            queue_nonzero,
            uplink_max_backlog_secs,
            uplink_busy_nodes,
            downlink_max_backlog_secs,
            downlink_busy_nodes,
            metrics: &self.metrics,
        };
        let anomalies = self.prober.sink.on_frame(&frame);
        for a in anomalies {
            self.metrics.incr(a.kind, 1);
            self.tracer.emit(
                self.tracer.cur,
                self.time,
                TRACE_SIM_NODE,
                TraceKind::Point {
                    name: a.kind,
                    value: a.value,
                },
            );
        }
    }

    fn transition(&mut self, id: NodeId, up: bool) {
        // `kill`/`revive` guard with `is_up` so repeated calls are
        // idempotent no-ops; a transition that does not actually change
        // state would double-count `churn.up`/`churn.down`.
        debug_assert_ne!(
            self.net.is_up(id),
            up,
            "transition({id:?}, {up}) must change node state"
        );
        self.net.set_up(id, up);
        let h = if up {
            self.hot.churn_up
        } else {
            self.hot.churn_down
        };
        self.metrics.incr_handle(h, 1);
        self.tracer.emit(
            self.tracer.cur,
            self.time,
            id,
            if up {
                TraceKind::ChurnUp
            } else {
                TraceKind::ChurnDown
            },
        );
        let mut ctx = Ctx {
            now: self.time,
            id,
            net: &mut self.net,
            sched: &mut self.sched,
            rng: &mut self.rng,
            metrics: &mut self.metrics,
            hot: self.hot,
            tracer: &mut self.tracer,
            prober: &mut self.prober,
        };
        if up {
            self.protocols[id.index()].on_up(&mut ctx);
        } else {
            self.protocols[id.index()].on_down(&mut ctx);
        }
    }

    fn dispatch(&mut self, kind: EventKind<P::Msg>) {
        match kind {
            EventKind::Deliver { to, from, msg } => {
                if !self.net.is_up(to) {
                    self.metrics.incr_handle(self.hot.dropped_receiver_down, 1);
                    self.metrics.incr_handle(self.hot.dropped, 1);
                    self.tracer.emit(
                        self.tracer.cur,
                        self.time,
                        to,
                        TraceKind::DropDeliver {
                            from,
                            reason: DropReason::ReceiverDown,
                        },
                    );
                    return;
                }
                self.metrics.incr_handle(self.hot.delivered, 1);
                self.tracer
                    .emit(self.tracer.cur, self.time, to, TraceKind::Deliver { from });
                let mut ctx = Ctx {
                    now: self.time,
                    id: to,
                    net: &mut self.net,
                    sched: &mut self.sched,
                    rng: &mut self.rng,
                    metrics: &mut self.metrics,
                    hot: self.hot,
                    tracer: &mut self.tracer,
                    prober: &mut self.prober,
                };
                self.protocols[to.index()].on_message(&mut ctx, from, msg);
            }
            EventKind::Timer { node, tag } => {
                if !self.net.is_up(node) {
                    self.metrics
                        .incr_handle(self.hot.timer_dropped_node_down, 1);
                    self.metrics.incr_handle(self.hot.timer_dropped, 1);
                    self.tracer.emit(
                        self.tracer.cur,
                        self.time,
                        node,
                        TraceKind::TimerDrop { tag },
                    );
                    return;
                }
                self.tracer.emit(
                    self.tracer.cur,
                    self.time,
                    node,
                    TraceKind::TimerFire { tag },
                );
                let mut ctx = Ctx {
                    now: self.time,
                    id: node,
                    net: &mut self.net,
                    sched: &mut self.sched,
                    rng: &mut self.rng,
                    metrics: &mut self.metrics,
                    hot: self.hot,
                    tracer: &mut self.tracer,
                    prober: &mut self.prober,
                };
                self.protocols[node.index()].on_timer(&mut ctx, tag);
            }
            EventKind::ChurnDown(id) => {
                if !self.churn_enabled[id.index()] {
                    return;
                }
                if self.net.is_up(id) {
                    self.transition(id, false);
                }
                let mean_down = self.net.profile(id).mean_offtime().secs_f64();
                let delay = SimDuration::from_secs_f64(self.rng.exp(mean_down.max(1.0)));
                self.push(self.time + delay, EventKind::ChurnUp(id));
            }
            EventKind::ChurnUp(id) => {
                if !self.churn_enabled[id.index()] {
                    return;
                }
                if !self.net.is_up(id) {
                    self.transition(id, true);
                }
                let mean_up = self.net.profile(id).mean_session.secs_f64();
                let delay = SimDuration::from_secs_f64(self.rng.exp(mean_up.max(1.0)));
                self.push(self.time + delay, EventKind::ChurnDown(id));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A ping-pong protocol used to exercise the engine.
    #[derive(Default)]
    struct PingPong {
        pings_received: u32,
        pongs_received: u32,
        timer_fires: u32,
        ups: u32,
        downs: u32,
    }

    #[derive(Clone)]
    enum PpMsg {
        Ping,
        Pong,
    }

    impl Protocol for PingPong {
        type Msg = PpMsg;

        fn on_message(&mut self, ctx: &mut Ctx<'_, PpMsg>, from: NodeId, msg: PpMsg) {
            match msg {
                PpMsg::Ping => {
                    self.pings_received += 1;
                    ctx.send(from, PpMsg::Pong, 64);
                }
                PpMsg::Pong => self.pongs_received += 1,
            }
        }

        fn on_timer(&mut self, _ctx: &mut Ctx<'_, PpMsg>, _tag: u64) {
            self.timer_fires += 1;
        }

        fn on_down(&mut self, _ctx: &mut Ctx<'_, PpMsg>) {
            self.downs += 1;
        }

        fn on_up(&mut self, _ctx: &mut Ctx<'_, PpMsg>) {
            self.ups += 1;
        }
    }

    fn two_node_sim() -> (Simulation<PingPong>, NodeId, NodeId) {
        let mut sim = Simulation::new(1);
        let a = sim.add_node(PingPong::default(), DeviceClass::DatacenterServer);
        let b = sim.add_node(PingPong::default(), DeviceClass::DatacenterServer);
        (sim, a, b)
    }

    #[test]
    fn ping_pong_round_trip() {
        let (mut sim, a, b) = two_node_sim();
        sim.with_ctx(a, |_, ctx| ctx.send(b, PpMsg::Ping, 64));
        sim.run_for(SimDuration::from_secs(1));
        assert_eq!(sim.node(b).pings_received, 1);
        assert_eq!(sim.node(a).pongs_received, 1);
        assert_eq!(sim.metrics().counter("net.delivered"), 2);
    }

    #[test]
    fn messages_to_down_node_dropped() {
        let (mut sim, a, b) = two_node_sim();
        sim.kill(b);
        sim.with_ctx(a, |_, ctx| ctx.send(b, PpMsg::Ping, 64));
        sim.run_for(SimDuration::from_secs(1));
        assert_eq!(sim.node(b).pings_received, 0);
        assert_eq!(sim.metrics().counter("net.dropped_receiver_down"), 1);
        assert_eq!(sim.metrics().counter("net.dropped"), 1);
        assert_eq!(sim.node(b).downs, 1);
        sim.revive(b);
        assert_eq!(sim.node(b).ups, 1);
    }

    #[test]
    fn kill_and_revive_are_idempotent_and_pin_churn_counters() {
        let (mut sim, _a, b) = two_node_sim();
        sim.kill(b);
        sim.kill(b); // no-op: already down
        assert_eq!(sim.metrics().counter("churn.down"), 1);
        assert_eq!(sim.node(b).downs, 1);
        sim.revive(b);
        sim.revive(b); // no-op: already up
        assert_eq!(sim.metrics().counter("churn.up"), 1);
        assert_eq!(sim.node(b).ups, 1);
        // A second full cycle counts exactly once more.
        sim.kill(b);
        sim.revive(b);
        assert_eq!(sim.metrics().counter("churn.down"), 2);
        assert_eq!(sim.metrics().counter("churn.up"), 2);
    }

    #[test]
    fn chaos_duplication_delivers_twice_and_counts() {
        let (mut sim, a, b) = two_node_sim();
        sim.enable_chaos(77);
        sim.set_chaos_dup_rate(1.0);
        sim.with_ctx(a, |_, ctx| ctx.send(b, PpMsg::Ping, 64));
        sim.run_for(SimDuration::from_secs(1));
        assert_eq!(sim.node(b).pings_received, 2, "dup must deliver twice");
        assert!(sim.metrics().counter("chaos.duplicated") >= 1);
    }

    #[test]
    fn chaos_link_down_drops_and_counts() {
        let (mut sim, a, b) = two_node_sim();
        sim.enable_chaos(77);
        sim.set_chaos_link(b, false);
        sim.with_ctx(a, |_, ctx| ctx.send(b, PpMsg::Ping, 64));
        sim.run_for(SimDuration::from_secs(1));
        assert_eq!(sim.node(b).pings_received, 0);
        assert_eq!(sim.metrics().counter("net.dropped"), 1);
        // The node itself is still up — only its traffic was dropped.
        assert_eq!(sim.node(b).downs, 0);
        sim.set_chaos_link(b, true);
        sim.with_ctx(a, |_, ctx| ctx.send(b, PpMsg::Ping, 64));
        sim.run_for(SimDuration::from_secs(1));
        assert_eq!(sim.node(b).pings_received, 1);
    }

    #[test]
    fn chaos_runs_are_deterministic_for_fixed_seeds() {
        let run = || {
            let (mut sim, a, b) = two_node_sim();
            sim.enable_chaos(13);
            sim.set_chaos_dup_rate(0.5);
            sim.set_chaos_reorder(SimDuration::from_millis(20));
            for _ in 0..50 {
                sim.with_ctx(a, |_, ctx| ctx.send(b, PpMsg::Ping, 64));
                sim.run_for(SimDuration::from_millis(100));
            }
            (
                sim.node(b).pings_received,
                sim.metrics().counter("chaos.duplicated"),
                sim.metrics().counter("chaos.reordered"),
            )
        };
        let (a1, d1, r1) = run();
        let (a2, d2, r2) = run();
        assert_eq!((a1, d1, r1), (a2, d2, r2));
        assert!(d1 > 0 && r1 > 0, "chaos must actually fire in this run");
    }

    #[test]
    fn with_ctx_on_down_node_returns_none() {
        let (mut sim, _a, b) = two_node_sim();
        sim.kill(b);
        assert!(sim.with_ctx(b, |_, _| ()).is_none());
    }

    #[test]
    fn timers_fire_in_order_and_advance_clock() {
        let (mut sim, a, _b) = two_node_sim();
        sim.with_ctx(a, |_, ctx| {
            ctx.set_timer(SimDuration::from_secs(5), 1);
            ctx.set_timer(SimDuration::from_secs(2), 2);
        });
        sim.run_for(SimDuration::from_secs(3));
        assert_eq!(sim.node(a).timer_fires, 1);
        assert_eq!(sim.now(), SimTime::ZERO + SimDuration::from_secs(3));
        sim.run_for(SimDuration::from_secs(3));
        assert_eq!(sim.node(a).timer_fires, 2);
    }

    #[test]
    fn timer_on_down_node_is_dropped() {
        let (mut sim, a, _b) = two_node_sim();
        sim.with_ctx(a, |_, ctx| ctx.set_timer(SimDuration::from_secs(1), 7));
        sim.kill(a);
        sim.run_for(SimDuration::from_secs(2));
        assert_eq!(sim.node(a).timer_fires, 0);
        assert_eq!(sim.metrics().counter("timer.dropped_node_down"), 1);
    }

    #[test]
    fn partitions_block_traffic() {
        let (mut sim, a, b) = two_node_sim();
        sim.set_partition(a, 0);
        sim.set_partition(b, 1);
        sim.with_ctx(a, |_, ctx| ctx.send(b, PpMsg::Ping, 64));
        sim.run_for(SimDuration::from_secs(1));
        assert_eq!(sim.node(b).pings_received, 0);
        assert_eq!(sim.metrics().counter("net.dropped"), 1);
        sim.heal_partitions();
        sim.with_ctx(a, |_, ctx| ctx.send(b, PpMsg::Ping, 64));
        sim.run_for(SimDuration::from_secs(1));
        assert_eq!(sim.node(b).pings_received, 1);
    }

    #[test]
    fn loss_rate_one_drops_everything() {
        let (mut sim, a, b) = two_node_sim();
        sim.set_loss_rate(1.0);
        for _ in 0..10 {
            sim.with_ctx(a, |_, ctx| ctx.send(b, PpMsg::Ping, 64));
        }
        sim.run_for(SimDuration::from_secs(1));
        assert_eq!(sim.node(b).pings_received, 0);
        assert_eq!(sim.metrics().counter("net.lost"), 10);
        assert_eq!(sim.metrics().counter("net.dropped"), 10);
    }

    #[test]
    fn timer_drops_not_counted_as_message_drops() {
        let (mut sim, a, _b) = two_node_sim();
        sim.with_ctx(a, |_, ctx| ctx.set_timer(SimDuration::from_secs(1), 7));
        sim.kill(a);
        sim.run_for(SimDuration::from_secs(2));
        assert_eq!(sim.metrics().counter("timer.dropped_node_down"), 1);
        assert_eq!(sim.metrics().counter("net.dropped"), 0);
    }

    #[test]
    fn timer_drops_surface_under_net_timer_dropped() {
        // `net.timer_dropped` mirrors `timer.dropped_node_down` so timer
        // drops sit next to the `net.*` family in dashboards, while
        // `net.dropped` stays message-only (pinned above).
        let (mut sim, a, _b) = two_node_sim();
        sim.with_ctx(a, |_, ctx| {
            ctx.set_timer(SimDuration::from_secs(1), 7);
            ctx.set_timer(SimDuration::from_secs(1), 8);
        });
        sim.kill(a);
        sim.run_for(SimDuration::from_secs(2));
        assert_eq!(sim.metrics().counter("net.timer_dropped"), 2);
        assert_eq!(sim.metrics().counter("timer.dropped_node_down"), 2);
        assert_eq!(sim.metrics().counter("net.dropped"), 0);
        // And it stays invisible in artifacts when no timer was dropped.
        let (mut clean, c, d) = two_node_sim();
        clean.with_ctx(c, |_, ctx| ctx.send(d, PpMsg::Ping, 64));
        clean.run_for(SimDuration::from_secs(1));
        assert!(!clean
            .metrics()
            .counters()
            .any(|(k, _)| k == "net.timer_dropped"));
    }

    #[test]
    fn loopback_delivery_works() {
        let (mut sim, a, _b) = two_node_sim();
        sim.with_ctx(a, |_, ctx| {
            let me = ctx.id();
            ctx.send(me, PpMsg::Pong, 8);
        });
        sim.run_for(SimDuration::from_secs(1));
        assert_eq!(sim.node(a).pongs_received, 1);
    }

    #[test]
    fn churn_produces_transitions() {
        let mut sim: Simulation<PingPong> = Simulation::new(3);
        let mut profile = DeviceClass::PersonalComputer.profile();
        profile.mean_session = SimDuration::from_secs(10);
        profile.duty_cycle = 0.5;
        let n = sim.add_node_with_profile(PingPong::default(), profile);
        sim.enable_churn(n);
        sim.run_for(SimDuration::from_mins(30));
        assert!(sim.node(n).downs >= 10, "downs = {}", sim.node(n).downs);
        assert!(sim.node(n).ups >= 10, "ups = {}", sim.node(n).ups);
        // Transitions alternate, so counts differ by at most one.
        let (u, d) = (sim.node(n).ups, sim.node(n).downs);
        assert!(u.abs_diff(d) <= 1);
    }

    /// Every engine feature in one run: mixed device classes, churn, loss,
    /// chaos duplication + reordering, partitions, kill/revive, loopback
    /// sends, microsecond timers and a mid-run latency storm.
    fn rich_scenario(mut sim: Simulation<PingPong>) -> Simulation<PingPong> {
        let classes = [
            DeviceClass::DatacenterServer,
            DeviceClass::PersonalComputer,
            DeviceClass::Smartphone,
            DeviceClass::Tablet,
        ];
        let nodes: Vec<NodeId> = (0..12)
            .map(|i| sim.add_node(PingPong::default(), classes[i % classes.len()]))
            .collect();
        for &n in &nodes[..6] {
            sim.enable_churn(n);
        }
        sim.enable_chaos(17);
        sim.set_chaos_dup_rate(0.2);
        sim.set_chaos_reorder(SimDuration::from_millis(50));
        sim.set_loss_rate(0.05);
        for round in 0..20 {
            for (i, &src) in nodes.iter().enumerate() {
                let dst = nodes[(i + 1 + round) % nodes.len()];
                sim.with_ctx(src, |_, ctx| ctx.send(dst, PpMsg::Ping, 256));
            }
            sim.with_ctx(nodes[round % nodes.len()], |_, ctx| {
                let me = ctx.id();
                ctx.send(me, PpMsg::Pong, 8);
                ctx.set_timer(SimDuration::from_micros(3), round as u64);
            });
            sim.run_for(SimDuration::from_millis(250));
        }
        sim.set_partition(nodes[0], 1);
        sim.set_partition(nodes[1], 1);
        sim.kill(nodes[2]);
        for _ in 0..5 {
            for (i, &src) in nodes.iter().enumerate() {
                let dst = nodes[(i + 3) % nodes.len()];
                sim.with_ctx(src, |_, ctx| ctx.send(dst, PpMsg::Ping, 512));
            }
            sim.run_for(SimDuration::from_millis(200));
        }
        sim.revive(nodes[2]);
        sim.heal_partitions();
        sim.set_chaos_latency_factor(4.0);
        sim.run_for(SimDuration::from_secs(2));
        sim.set_chaos_latency_factor(0.5);
        sim.run_for(SimDuration::from_secs(1));
        sim.set_chaos_latency_factor(1.0);
        sim.run_for(SimDuration::from_secs(5));
        sim
    }

    #[test]
    fn determinism_same_seed_same_outcome() {
        let run = |seed: u64| -> (u32, u64, u64, SimTime) {
            let mut sim: Simulation<PingPong> = Simulation::new(seed);
            let mut nodes = Vec::new();
            for _ in 0..10 {
                let n = sim.add_node(PingPong::default(), DeviceClass::PersonalComputer);
                sim.enable_churn(n);
                nodes.push(n);
            }
            for i in 0..10 {
                let (src, dst) = (nodes[i], nodes[(i + 1) % 10]);
                sim.with_ctx(src, |_, ctx| ctx.send(dst, PpMsg::Ping, 100));
            }
            sim.run_for(SimDuration::from_hours(1));
            let pings: u32 = nodes.iter().map(|&n| sim.node(n).pings_received).sum();
            (
                pings,
                sim.metrics().counter("net.delivered"),
                sim.metrics().counter("churn.down"),
                sim.now(),
            )
        };
        assert_eq!(run(99), run(99));
        // Different seeds should (with overwhelming probability) diverge in
        // churn transition counts over an hour.
        assert_ne!(run(99).2, run(100).2);

        // Second input: the rich scenario, compared on everything a run
        // leaves behind — the metrics `Display` string covers every counter,
        // gauge and histogram byte-for-byte.
        let rich = |seed: u64| {
            let sim = rich_scenario(Simulation::new(seed));
            (
                format!("{}", sim.metrics()),
                sim.events_processed(),
                sim.now(),
            )
        };
        let first = rich(4242);
        assert!(first.1 > 500, "scenario must be nontrivial: {}", first.1);
        assert_eq!(first, rich(4242));
        assert_ne!(first.0, rich(4243).0);
    }

    #[test]
    fn run_idle_drains_a_finite_run_and_its_guard_catches_livelock() {
        let (mut sim, a, b) = two_node_sim();
        for _ in 0..10 {
            sim.with_ctx(a, |_, ctx| ctx.send(b, PpMsg::Ping, 64));
        }
        sim.run_idle(100_000);
        assert_eq!(sim.pending_events(), 0);
        assert_eq!(sim.node(a).pongs_received, 10);

        struct Storm;
        impl Protocol for Storm {
            type Msg = ();
            fn on_message(&mut self, ctx: &mut Ctx<'_, ()>, from: NodeId, _msg: ()) {
                ctx.send(from, (), 8);
            }
        }
        let result = std::panic::catch_unwind(|| {
            let mut sim: Simulation<Storm> = Simulation::new(1);
            let a = sim.add_node(Storm, DeviceClass::DatacenterServer);
            let b = sim.add_node(Storm, DeviceClass::DatacenterServer);
            sim.with_ctx(a, |_, ctx| ctx.send(b, (), 8));
            sim.run_idle(500);
        });
        assert!(result.is_err(), "guard must fire on an endless echo loop");
    }

    #[test]
    fn send_to_a_node_that_was_never_created_is_a_drop() {
        /// Answers a ping with a pong; when `stray`, first fires a message
        /// at the address one past the last node (what a hostile peer's
        /// reply can make a protocol do).
        struct Stray {
            stray: bool,
            pongs: u32,
        }
        impl Protocol for Stray {
            type Msg = PpMsg;
            fn on_message(&mut self, ctx: &mut Ctx<'_, PpMsg>, from: NodeId, msg: PpMsg) {
                match msg {
                    PpMsg::Ping => {
                        if self.stray {
                            let nowhere = NodeId(ctx.node_count() as u32);
                            ctx.send(nowhere, PpMsg::Ping, 64);
                        }
                        ctx.send(from, PpMsg::Pong, 64);
                    }
                    PpMsg::Pong => self.pongs += 1,
                }
            }
        }
        let run = |stray: bool| {
            let mut sim: Simulation<Stray> = Simulation::new(5);
            let a = sim.add_node(Stray { stray, pongs: 0 }, DeviceClass::PersonalComputer);
            let b = sim.add_node(Stray { stray, pongs: 0 }, DeviceClass::Smartphone);
            sim.set_loss_rate(0.1);
            for _ in 0..40 {
                sim.with_ctx(a, |_, ctx| ctx.send(b, PpMsg::Ping, 64));
            }
            sim.run_for(SimDuration::from_secs(10));
            let m = sim.metrics();
            (
                (
                    m.counter("net.sent"),
                    m.counter("net.lost"),
                    m.counter("net.dropped"),
                ),
                (sim.node(a).pongs, m.counter("net.delivered")),
                sim.rng_mut().next_u64(),
            )
        };
        let (clean_drops, clean_outcome, clean_next_draw) = run(false);
        let (drops, outcome, next_draw) = run(true);
        // Each ping that reached `b` cost one extra send, counted as lost
        // and dropped under the existing keys.
        let strays = drops.0 - clean_drops.0;
        assert!(strays > 0, "some ping must get through at 10 % loss");
        assert_eq!(drops.1 - clean_drops.1, strays);
        assert_eq!(drops.2 - clean_drops.2, strays);
        // The stray sends drew nothing: the loss and jitter draws of every
        // send after them, and the stream's next value, are the clean run's.
        assert_eq!(outcome, clean_outcome);
        assert_eq!(next_draw, clean_next_draw);
    }

    mod trace_tests {
        use super::*;
        use crate::trace::{DropReason, SharedRecorder, TraceKind};

        fn recorded<R>(
            f: impl FnOnce(&mut Simulation<PingPong>) -> R,
        ) -> (SharedRecorder, Simulation<PingPong>, R) {
            let rec = SharedRecorder::new(1024);
            let mut sim: Simulation<PingPong> = Simulation::new(1);
            sim.set_trace_sink(Box::new(rec.clone()));
            let r = f(&mut sim);
            (rec, sim, r)
        }

        #[test]
        fn send_and_deliver_records_share_the_event_key() {
            let (rec, _sim, ()) = recorded(|sim| {
                let a = sim.add_node(PingPong::default(), DeviceClass::DatacenterServer);
                let b = sim.add_node(PingPong::default(), DeviceClass::DatacenterServer);
                sim.with_ctx(a, |_, ctx| ctx.send(b, PpMsg::Ping, 64));
                sim.run_for(SimDuration::from_secs(1));
            });
            let snap = rec.snapshot();
            let sends: Vec<_> = snap
                .events()
                .filter(|e| matches!(e.kind, TraceKind::Send { .. }))
                .collect();
            // Ping out plus pong back.
            assert_eq!(sends.len(), 2);
            let ping_key = sends[0].key;
            assert_ne!(ping_key, 0);
            assert_eq!(sends[0].parent, 0, "injected via with_ctx");
            let deliver = snap
                .events()
                .find(|e| matches!(e.kind, TraceKind::Deliver { .. }))
                .expect("delivery recorded");
            assert_eq!(deliver.key, ping_key);
            // The pong was sent from inside the ping's delivery handler:
            // causal parent is the ping's delivery event.
            assert_eq!(sends[1].parent, ping_key);
            assert_eq!(snap.span("net.deliver").unwrap().count, 2);
            assert_eq!(snap.span("net.deliver").unwrap().latency.samples().len(), 2);
        }

        #[test]
        fn drop_reasons_distinguish_loss_partition_receiver_down() {
            let (rec, _sim, ()) = recorded(|sim| {
                let a = sim.add_node(PingPong::default(), DeviceClass::DatacenterServer);
                let b = sim.add_node(PingPong::default(), DeviceClass::DatacenterServer);
                sim.set_partition(b, 5);
                sim.with_ctx(a, |_, ctx| ctx.send(b, PpMsg::Ping, 64));
                sim.heal_partitions();
                sim.with_ctx(a, |_, ctx| ctx.send(NodeId(2), PpMsg::Ping, 64));
                sim.set_loss_rate(1.0);
                sim.with_ctx(a, |_, ctx| ctx.send(b, PpMsg::Ping, 64));
                sim.set_loss_rate(0.0);
                sim.with_ctx(a, |_, ctx| ctx.send(b, PpMsg::Ping, 64));
                sim.kill(b);
                sim.run_for(SimDuration::from_secs(1));
            });
            let snap = rec.snapshot();
            assert_eq!(snap.span("net.drop.partition").unwrap().count, 1);
            assert_eq!(snap.span("net.drop.no_such_node").unwrap().count, 1);
            assert_eq!(snap.span("net.drop.loss").unwrap().count, 1);
            assert_eq!(snap.span("net.drop.receiver_down").unwrap().count, 1);
            let down_drop = snap
                .events()
                .find(|e| {
                    matches!(
                        e.kind,
                        TraceKind::DropDeliver {
                            reason: DropReason::ReceiverDown,
                            ..
                        }
                    )
                })
                .expect("receiver-down drop recorded");
            assert_ne!(down_drop.key, 0, "delivery event existed");
        }

        #[test]
        fn timer_fire_links_back_to_setting_handler() {
            let (rec, _sim, ()) = recorded(|sim| {
                let a = sim.add_node(PingPong::default(), DeviceClass::DatacenterServer);
                sim.with_ctx(a, |_, ctx| ctx.set_timer(SimDuration::from_secs(2), 9));
                sim.run_for(SimDuration::from_secs(3));
            });
            let snap = rec.snapshot();
            let set = snap
                .events()
                .find(|e| matches!(e.kind, TraceKind::TimerSet { tag: 9 }))
                .expect("timer set recorded");
            let fire = snap
                .events()
                .find(|e| matches!(e.kind, TraceKind::TimerFire { tag: 9 }))
                .expect("timer fire recorded");
            assert_eq!(fire.key, set.key);
            assert_eq!(snap.span("timer.fire").unwrap().latency.samples(), &[2.0]);
        }

        #[test]
        fn tracing_does_not_perturb_simulation_results() {
            let run = |traced: bool| {
                let mut sim: Simulation<PingPong> = Simulation::new(42);
                if traced {
                    sim.set_trace_sink(Box::new(SharedRecorder::new(64)));
                }
                let mut nodes = Vec::new();
                for _ in 0..8 {
                    let n = sim.add_node(PingPong::default(), DeviceClass::PersonalComputer);
                    sim.enable_churn(n);
                    nodes.push(n);
                }
                for i in 0..8 {
                    let (src, dst) = (nodes[i], nodes[(i + 1) % 8]);
                    sim.with_ctx(src, |_, ctx| ctx.send(dst, PpMsg::Ping, 100));
                }
                sim.run_for(SimDuration::from_hours(1));
                (
                    sim.metrics().counter("net.delivered"),
                    sim.metrics().counter("net.dropped"),
                    sim.metrics().counter("churn.down"),
                    sim.events_processed(),
                )
            };
            assert_eq!(run(false), run(true));
        }

        #[test]
        fn thread_sink_factory_reaches_internally_constructed_sims() {
            let rec = SharedRecorder::new(64);
            let handle = rec.clone();
            crate::trace::with_thread_sink(
                move || Box::new(handle.clone()),
                || {
                    let mut sim: Simulation<PingPong> = Simulation::new(7);
                    let a = sim.add_node(PingPong::default(), DeviceClass::DatacenterServer);
                    let b = sim.add_node(PingPong::default(), DeviceClass::DatacenterServer);
                    sim.with_ctx(a, |_, ctx| ctx.send(b, PpMsg::Ping, 64));
                    sim.run_for(SimDuration::from_secs(1));
                },
            );
            let snap = rec.snapshot();
            assert_eq!(snap.span("sim.start").unwrap().count, 1);
            assert!(snap.span("net.deliver").unwrap().count >= 1);
        }
    }

    #[test]
    fn bandwidth_serializes_large_transfers() {
        // A 1 Mbps uplink should take ~8 s to push 1 MB.
        let mut sim: Simulation<PingPong> = Simulation::new(5);
        let a = sim.add_node(PingPong::default(), DeviceClass::PersonalComputer);
        let b = sim.add_node(PingPong::default(), DeviceClass::DatacenterServer);
        sim.with_ctx(a, |_, ctx| ctx.send(b, PpMsg::Ping, 1_000_000));
        sim.run_for(SimDuration::from_secs(4));
        assert_eq!(sim.node(b).pings_received, 0, "too early");
        sim.run_for(SimDuration::from_secs(10));
        assert_eq!(sim.node(b).pings_received, 1);
    }
}
