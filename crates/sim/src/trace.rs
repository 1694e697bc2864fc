//! `agora-trace` — deterministic tracing and causal provenance for the
//! simulation engine.
//!
//! The engine's aggregate metrics say *what* an experiment measured; this
//! module records *why*. The
//! engine taps every scheduling decision — sends, deliveries, drops (with
//! reason), timer arms/fires, churn and partition transitions — and hands a
//! [`TraceEvent`] to the installed [`TraceSink`]. Each record carries:
//!
//! * the **subject key**: the packed `u128` event key (`micros << 64 | seq`)
//!   of the queue entry the record describes (`0` for records with no queue
//!   entry, e.g. drops at send time and protocol points), and
//! * the **causal parent**: the packed key of the event whose handler was
//!   running when the record was emitted (`0` for external injections such
//!   as `Simulation::with_ctx`).
//!
//! Walking parent links reconstructs the full causal chain from any metric
//! sample back to the event that originated it — the provenance layer the
//! paper's comparative claims need to be auditable.
//!
//! Costs: the layer is always compiled in (DESIGN.md §11). With no sink
//! installed (the default [`NoopSink`]), every tap is one predictable
//! `if !on` branch. Tracing
//! never touches the RNG or the metrics registry, so enabling it can never
//! change simulation results; `TRACE_*.jsonl` artifacts are wall-clock-free
//! and byte-identical across repeated runs.

use std::cell::RefCell;
use std::collections::{BTreeMap, HashMap};
use std::rc::Rc;

use crate::engine::NodeId;
use crate::metrics::Histogram;
use crate::time::SimTime;

/// Why a message or timer never reached its protocol handler.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DropReason {
    /// Random link loss at transmission time.
    Loss,
    /// Sender and receiver were in different partition groups.
    Partition,
    /// The receiver address named no node of the simulation.
    NoSuchNode,
    /// The receiver was down when the message arrived.
    ReceiverDown,
    /// The timer's node was down when the timer fired.
    NodeDown,
    /// Dropped by the chaos fault-injection layer (downed link or
    /// directed/asymmetric chaos block).
    ChaosLink,
}

impl DropReason {
    /// Stable lowercase label (used in trace artifacts and span keys).
    pub fn label(self) -> &'static str {
        match self {
            DropReason::Loss => "loss",
            DropReason::Partition => "partition",
            DropReason::NoSuchNode => "no_such_node",
            DropReason::ReceiverDown => "receiver_down",
            DropReason::NodeDown => "node_down",
            DropReason::ChaosLink => "chaos_link",
        }
    }
}

/// What a trace record describes.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum TraceKind {
    /// A `Simulation` was created (delimits runs inside one trial).
    SimStart {
        /// The RNG seed the simulation was built with.
        seed: u64,
    },
    /// A message was enqueued for delivery; the record's key is the future
    /// delivery event's key.
    Send {
        /// Receiver.
        to: NodeId,
        /// Wire size.
        bytes: u64,
    },
    /// A message reached its receiver's handler (key = the delivery event).
    Deliver {
        /// Sender.
        from: NodeId,
    },
    /// A message was dropped at send time (no delivery event exists; key 0).
    DropSend {
        /// Intended receiver.
        to: NodeId,
        /// Wire size (the sender's uplink was still charged).
        bytes: u64,
        /// Why it was dropped.
        reason: DropReason,
    },
    /// A message was dropped at delivery time (key = the delivery event).
    DropDeliver {
        /// Sender.
        from: NodeId,
        /// Why it was dropped.
        reason: DropReason,
    },
    /// A timer was armed; the record's key is the future timer event's key.
    TimerSet {
        /// Protocol tag.
        tag: u64,
    },
    /// A timer fired into its protocol handler (key = the timer event).
    TimerFire {
        /// Protocol tag.
        tag: u64,
    },
    /// A timer fired while its node was down (key = the timer event).
    TimerDrop {
        /// Protocol tag.
        tag: u64,
    },
    /// The node came up (churn, or `Simulation::revive`).
    ChurnUp,
    /// The node went down (churn, or `Simulation::kill`).
    ChurnDown,
    /// The node was assigned to a partition group.
    Partition {
        /// The new group.
        group: u32,
    },
    /// A named protocol trace point ([`crate::Ctx::trace_point`]) — the hook
    /// that ties metric samples to the event that produced them.
    Point {
        /// Stable point name (conventionally the metric key it annotates).
        name: &'static str,
        /// The sample value (hop count, latency, …).
        value: f64,
    },
}

impl TraceKind {
    /// Stable lowercase label for artifacts.
    pub fn label(&self) -> &'static str {
        match self {
            TraceKind::SimStart { .. } => "sim_start",
            TraceKind::Send { .. } => "send",
            TraceKind::Deliver { .. } => "deliver",
            TraceKind::DropSend { .. } => "drop_send",
            TraceKind::DropDeliver { .. } => "drop_deliver",
            TraceKind::TimerSet { .. } => "timer_set",
            TraceKind::TimerFire { .. } => "timer_fire",
            TraceKind::TimerDrop { .. } => "timer_drop",
            TraceKind::ChurnUp => "churn_up",
            TraceKind::ChurnDown => "churn_down",
            TraceKind::Partition { .. } => "partition",
            TraceKind::Point { .. } => "point",
        }
    }
}

/// One trace record.
#[derive(Clone, Debug, PartialEq)]
pub struct TraceEvent {
    /// Packed event key of the queue entry this record describes
    /// (`micros << 64 | seq`), or `0` when no queue entry exists.
    pub key: u128,
    /// Packed key of the event whose handler emitted this record; `0` for
    /// external injections. For dispatch-side records (`Deliver`,
    /// `TimerFire`, `DropDeliver`, `TimerDrop`) the parent equals `key` —
    /// the record *is* that event; its cause lives on the matching
    /// enqueue-side record (`Send` / `TimerSet`) under the same key.
    pub parent: u128,
    /// Simulated time the record was emitted.
    pub at: SimTime,
    /// The node the record concerns (sender for sends, receiver for
    /// deliveries, `NodeId(u32::MAX)` for `SimStart`).
    pub node: NodeId,
    /// What happened.
    pub kind: TraceKind,
}

/// Where engine trace records go. Implementations must be deterministic:
/// no wall clock, no global mutable state outside the sink itself.
pub trait TraceSink {
    /// Record one event. Only called while tracing is enabled.
    fn record(&mut self, ev: &TraceEvent);
}

/// The default sink: drops everything. The engine pairs it with a cached
/// `enabled = false` flag, so the untraced hot path pays one predictable
/// branch per tap site and the optimizer erases the call entirely.
#[derive(Clone, Copy, Debug, Default)]
pub struct NoopSink;

impl TraceSink for NoopSink {
    #[inline(always)]
    fn record(&mut self, _ev: &TraceEvent) {}
}

/// Runtime filter: which record classes enter the flight-recorder **ring**.
/// Span aggregation always sees every record — breakdowns stay cheap and
/// complete even when the ring is narrowed to, say, protocol points only.
#[derive(Clone, Copy, Debug)]
pub struct TraceFilter {
    /// Ring-record sends, deliveries and drops.
    pub net: bool,
    /// Ring-record timer arms, fires and drops.
    pub timers: bool,
    /// Ring-record churn and partition transitions.
    pub churn: bool,
    /// Ring-record protocol points.
    pub points: bool,
}

impl Default for TraceFilter {
    fn default() -> TraceFilter {
        TraceFilter {
            net: true,
            timers: true,
            churn: true,
            points: true,
        }
    }
}

impl TraceFilter {
    fn admits(&self, kind: &TraceKind) -> bool {
        match kind {
            TraceKind::SimStart { .. } => true,
            TraceKind::Send { .. }
            | TraceKind::Deliver { .. }
            | TraceKind::DropSend { .. }
            | TraceKind::DropDeliver { .. } => self.net,
            TraceKind::TimerSet { .. }
            | TraceKind::TimerFire { .. }
            | TraceKind::TimerDrop { .. } => self.timers,
            TraceKind::ChurnUp | TraceKind::ChurnDown | TraceKind::Partition { .. } => self.churn,
            TraceKind::Point { .. } => self.points,
        }
    }
}

/// Per-key aggregate over all records of one span (one record class, or one
/// named protocol point). Histograms reuse [`crate::metrics::Histogram`].
#[derive(Clone, Debug, Default)]
pub struct SpanAgg {
    /// Records aggregated.
    pub count: u64,
    /// Total wire bytes (net spans only).
    pub bytes: u64,
    /// Sim-time latency samples in seconds (enqueue → dispatch), where a
    /// matching enqueue record was still tracked.
    pub latency: Histogram,
    /// Point values (hop counts, per-sample latencies, …).
    pub values: Histogram,
}

/// Bounded flight recorder: a ring buffer of full [`TraceEvent`]s (capacity
/// `cap`; the oldest records are evicted first) plus always-on per-span
/// aggregation. Deterministic: iteration orders are arrival order (ring) and
/// key order (spans); the internal in-flight maps are only ever probed by
/// key, never iterated.
#[derive(Clone, Debug)]
pub struct FlightRecorder {
    cap: usize,
    ring: Vec<TraceEvent>,
    /// Next slot to overwrite once `ring.len() == cap`.
    head: usize,
    evicted: u64,
    filter: TraceFilter,
    spans: BTreeMap<String, SpanAgg>,
    /// Delivery-event key → (send time, bytes) for messages in flight.
    msg_sent: HashMap<u128, (SimTime, u64)>,
    /// Timer-event key → arm time for timers in flight.
    timer_set: HashMap<u128, SimTime>,
}

/// Default ring capacity: enough for a full causal window of a mid-size
/// experiment without unbounded memory (~64 B/record → a few MiB).
pub const DEFAULT_RING_CAPACITY: usize = 65_536;

impl FlightRecorder {
    /// Recorder with the given ring capacity and the record-everything
    /// filter. Capacity 0 is clamped to 1.
    pub fn new(cap: usize) -> FlightRecorder {
        FlightRecorder::with_filter(cap, TraceFilter::default())
    }

    /// Recorder with an explicit ring filter (spans still see everything).
    pub fn with_filter(cap: usize, filter: TraceFilter) -> FlightRecorder {
        FlightRecorder {
            cap: cap.max(1),
            ring: Vec::new(),
            head: 0,
            evicted: 0,
            filter,
            spans: BTreeMap::new(),
            msg_sent: HashMap::new(),
            timer_set: HashMap::new(),
        }
    }

    /// Ring capacity.
    pub fn capacity(&self) -> usize {
        self.cap
    }

    /// Records currently held in the ring.
    pub fn len(&self) -> usize {
        self.ring.len()
    }

    /// True when the ring holds no records.
    pub fn is_empty(&self) -> bool {
        self.ring.is_empty()
    }

    /// Records evicted from the ring so far (they still fed the spans).
    pub fn evicted(&self) -> u64 {
        self.evicted
    }

    /// Ring contents in arrival order (oldest retained record first).
    pub fn events(&self) -> impl Iterator<Item = &TraceEvent> {
        let (tail, head) = self.ring.split_at(self.head.min(self.ring.len()));
        head.iter().chain(tail.iter())
    }

    /// Spans in key order.
    pub fn spans(&self) -> impl Iterator<Item = (&str, &SpanAgg)> {
        self.spans.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// Look up one span.
    pub fn span(&self, key: &str) -> Option<&SpanAgg> {
        self.spans.get(key)
    }

    /// Find the retained **enqueue-side** record (`Send` / `TimerSet`) for a
    /// packed event key — the step function for causal-chain walks. Linear
    /// in the ring; provenance queries are offline.
    pub fn find_enqueue(&self, key: u128) -> Option<&TraceEvent> {
        if key == 0 {
            return None;
        }
        self.events().find(|e| {
            e.key == key && matches!(e.kind, TraceKind::Send { .. } | TraceKind::TimerSet { .. })
        })
    }

    fn span_mut(&mut self, key: &str) -> &mut SpanAgg {
        // Entry-API with String keys only on miss: probe first.
        if !self.spans.contains_key(key) {
            self.spans.insert(key.to_owned(), SpanAgg::default());
        }
        self.spans.get_mut(key).expect("just inserted")
    }

    fn aggregate(&mut self, ev: &TraceEvent) {
        match ev.kind {
            TraceKind::SimStart { .. } => {
                self.span_mut("sim.start").count += 1;
            }
            TraceKind::Send { bytes, .. } => {
                self.msg_sent.insert(ev.key, (ev.at, bytes));
                let s = self.span_mut("net.send");
                s.count += 1;
                s.bytes += bytes;
            }
            TraceKind::Deliver { .. } => {
                let sent = self.msg_sent.remove(&ev.key);
                let s = self.span_mut("net.deliver");
                s.count += 1;
                if let Some((at, bytes)) = sent {
                    s.bytes += bytes;
                    s.latency.record(ev.at.since(at).secs_f64());
                }
            }
            TraceKind::DropSend { bytes, reason, .. } => {
                let s = self.span_mut(&format!("net.drop.{}", reason.label()));
                s.count += 1;
                s.bytes += bytes;
            }
            TraceKind::DropDeliver { reason, .. } => {
                let sent = self.msg_sent.remove(&ev.key);
                let s = self.span_mut(&format!("net.drop.{}", reason.label()));
                s.count += 1;
                if let Some((_, bytes)) = sent {
                    s.bytes += bytes;
                }
            }
            TraceKind::TimerSet { .. } => {
                self.timer_set.insert(ev.key, ev.at);
                self.span_mut("timer.set").count += 1;
            }
            TraceKind::TimerFire { .. } => {
                let set = self.timer_set.remove(&ev.key);
                let s = self.span_mut("timer.fire");
                s.count += 1;
                if let Some(at) = set {
                    s.latency.record(ev.at.since(at).secs_f64());
                }
            }
            TraceKind::TimerDrop { .. } => {
                self.timer_set.remove(&ev.key);
                self.span_mut("timer.drop").count += 1;
            }
            TraceKind::ChurnUp => self.span_mut("churn.up").count += 1,
            TraceKind::ChurnDown => self.span_mut("churn.down").count += 1,
            TraceKind::Partition { .. } => self.span_mut("net.partition").count += 1,
            TraceKind::Point { name, value } => {
                let s = self.span_mut(name);
                s.count += 1;
                s.values.record(value);
            }
        }
    }
}

impl TraceSink for FlightRecorder {
    fn record(&mut self, ev: &TraceEvent) {
        self.aggregate(ev);
        if !self.filter.admits(&ev.kind) {
            return;
        }
        if self.ring.len() < self.cap {
            self.ring.push(ev.clone());
        } else {
            self.ring[self.head] = ev.clone();
            self.head = (self.head + 1) % self.cap;
            self.evicted += 1;
            // Surface overflow in the span table so a capped run's artifact
            // says how much of the ring was lost instead of truncating
            // silently (`evicted()` is only reachable from code, not from
            // the serialized trace).
            self.spans
                .entry("trace.ring_evicted".to_owned())
                .or_default()
                .count += 1;
        }
    }
}

/// A [`FlightRecorder`] behind `Rc<RefCell<…>>`, so a harness can keep a
/// handle while one or more `Simulation`s (each given a clone as sink)
/// append to it. Simulations are single-threaded, so `Rc` suffices.
#[derive(Clone, Debug)]
pub struct SharedRecorder(Rc<RefCell<FlightRecorder>>);

impl SharedRecorder {
    /// Shared recorder with the given ring capacity.
    pub fn new(cap: usize) -> SharedRecorder {
        SharedRecorder::from_recorder(FlightRecorder::new(cap))
    }

    /// Wrap an explicitly configured recorder.
    pub fn from_recorder(rec: FlightRecorder) -> SharedRecorder {
        SharedRecorder(Rc::new(RefCell::new(rec)))
    }

    /// Clone out the current recorder state.
    pub fn snapshot(&self) -> FlightRecorder {
        self.0.borrow().clone()
    }

    /// Run a closure against the live recorder.
    pub fn with<R>(&self, f: impl FnOnce(&FlightRecorder) -> R) -> R {
        f(&self.0.borrow())
    }
}

impl TraceSink for SharedRecorder {
    fn record(&mut self, ev: &TraceEvent) {
        self.0.borrow_mut().record(ev);
    }
}

/// Factory producing one boxed sink per `Simulation` (see
/// [`with_thread_sink`]).
type SinkFactory = Box<dyn Fn() -> Box<dyn TraceSink>>;

thread_local! {
    /// Pending sink factory: consulted by `Simulation::new` so tracing can
    /// be injected under experiment entry points (`fn(seed) -> Metrics`)
    /// without changing their signatures. Thread-local because every trial
    /// is single-threaded — the factory never leaks across workers.
    static SINK_FACTORY: RefCell<Option<SinkFactory>> = const { RefCell::new(None) };
}

/// Run `f` with every `Simulation` created **on this thread** wired to a
/// sink from `factory` (one fresh sink per simulation — share state via
/// [`SharedRecorder`] clones). The factory is uninstalled when `f` returns
/// or panics.
pub fn with_thread_sink<R>(
    factory: impl Fn() -> Box<dyn TraceSink> + 'static,
    f: impl FnOnce() -> R,
) -> R {
    struct Reset;
    impl Drop for Reset {
        fn drop(&mut self) {
            SINK_FACTORY.with(|s| *s.borrow_mut() = None);
        }
    }
    SINK_FACTORY.with(|s| *s.borrow_mut() = Some(Box::new(factory)));
    let _reset = Reset;
    f()
}

/// Build a sink from the thread's installed factory, if any.
pub(crate) fn make_thread_sink() -> Option<Box<dyn TraceSink>> {
    SINK_FACTORY.with(|s| s.borrow().as_ref().map(|f| f()))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(key: u128, parent: u128, at: u64, kind: TraceKind) -> TraceEvent {
        TraceEvent {
            key,
            parent,
            at: SimTime(at),
            node: NodeId(0),
            kind,
        }
    }

    #[test]
    fn ring_evicts_oldest_and_keeps_arrival_order() {
        let mut rec = FlightRecorder::new(3);
        for i in 0..5u64 {
            rec.record(&ev(i as u128 + 1, 0, i, TraceKind::ChurnUp));
        }
        assert_eq!(rec.len(), 3);
        assert_eq!(rec.evicted(), 2);
        let keys: Vec<u128> = rec.events().map(|e| e.key).collect();
        assert_eq!(keys, vec![3, 4, 5], "oldest evicted first");
        // Spans saw all five records regardless of eviction.
        assert_eq!(rec.span("churn.up").unwrap().count, 5);
    }

    #[test]
    fn ring_eviction_is_counted_in_the_span_table() {
        let mut rec = FlightRecorder::new(3);
        for i in 0..3u64 {
            rec.record(&ev(i as u128 + 1, 0, i, TraceKind::ChurnUp));
        }
        // Ring exactly full: nothing evicted, nothing surfaced.
        assert!(rec.span("trace.ring_evicted").is_none());
        for i in 3..5u64 {
            rec.record(&ev(i as u128 + 1, 0, i, TraceKind::ChurnUp));
        }
        // Two overflows: the span count matches `evicted()`, so serialized
        // traces carry the overflow tally without a side channel.
        assert_eq!(rec.evicted(), 2);
        assert_eq!(rec.span("trace.ring_evicted").unwrap().count, 2);
    }

    #[test]
    fn deliver_latency_matches_send_to_dispatch_gap() {
        let mut rec = FlightRecorder::new(16);
        rec.record(&ev(
            7,
            0,
            1_000_000,
            TraceKind::Send {
                to: NodeId(1),
                bytes: 100,
            },
        ));
        rec.record(&ev(7, 7, 3_500_000, TraceKind::Deliver { from: NodeId(0) }));
        let s = rec.span("net.deliver").unwrap();
        assert_eq!(s.count, 1);
        assert_eq!(s.bytes, 100);
        assert_eq!(s.latency.samples(), &[2.5]);
    }

    #[test]
    fn drop_spans_key_by_reason() {
        let mut rec = FlightRecorder::new(16);
        rec.record(&ev(
            0,
            0,
            0,
            TraceKind::DropSend {
                to: NodeId(1),
                bytes: 10,
                reason: DropReason::Partition,
            },
        ));
        rec.record(&ev(
            9,
            9,
            0,
            TraceKind::DropDeliver {
                from: NodeId(0),
                reason: DropReason::ReceiverDown,
            },
        ));
        assert_eq!(rec.span("net.drop.partition").unwrap().count, 1);
        assert_eq!(rec.span("net.drop.receiver_down").unwrap().count, 1);
        assert!(rec.span("net.drop.loss").is_none());
    }

    #[test]
    fn point_values_histogram() {
        let mut rec = FlightRecorder::new(4);
        for v in [3.0, 5.0] {
            rec.record(&ev(
                0,
                1,
                0,
                TraceKind::Point {
                    name: "dht.lookup_hops",
                    value: v,
                },
            ));
        }
        let s = rec.span("dht.lookup_hops").unwrap();
        assert_eq!(s.count, 2);
        assert_eq!(s.values.mean(), 4.0);
    }

    #[test]
    fn filter_narrows_ring_but_not_spans() {
        let mut rec = FlightRecorder::with_filter(
            16,
            TraceFilter {
                net: false,
                timers: false,
                churn: false,
                points: true,
            },
        );
        rec.record(&ev(
            1,
            0,
            0,
            TraceKind::Send {
                to: NodeId(1),
                bytes: 8,
            },
        ));
        rec.record(&ev(
            0,
            1,
            0,
            TraceKind::Point {
                name: "p",
                value: 1.0,
            },
        ));
        assert_eq!(rec.len(), 1, "send filtered out of the ring");
        assert_eq!(rec.span("net.send").unwrap().count, 1, "span still fed");
    }

    #[test]
    fn find_enqueue_resolves_send_and_timer_records() {
        let mut rec = FlightRecorder::new(16);
        rec.record(&ev(
            11,
            0,
            0,
            TraceKind::Send {
                to: NodeId(1),
                bytes: 8,
            },
        ));
        rec.record(&ev(12, 11, 1, TraceKind::TimerSet { tag: 9 }));
        rec.record(&ev(11, 11, 2, TraceKind::Deliver { from: NodeId(0) }));
        assert!(matches!(
            rec.find_enqueue(11).unwrap().kind,
            TraceKind::Send { .. }
        ));
        assert_eq!(rec.find_enqueue(12).unwrap().parent, 11);
        assert!(rec.find_enqueue(0).is_none());
        assert!(rec.find_enqueue(999).is_none());
    }

    #[test]
    fn shared_recorder_accumulates_across_clones() {
        let shared = SharedRecorder::new(8);
        let mut a = shared.clone();
        let mut b = shared.clone();
        a.record(&ev(1, 0, 0, TraceKind::ChurnDown));
        b.record(&ev(2, 0, 1, TraceKind::ChurnUp));
        let snap = shared.snapshot();
        assert_eq!(snap.len(), 2);
        assert_eq!(snap.span("churn.up").unwrap().count, 1);
    }

    #[test]
    fn thread_sink_factory_installs_and_uninstalls() {
        assert!(make_thread_sink().is_none());
        let shared = SharedRecorder::new(8);
        let for_factory = shared.clone();
        with_thread_sink(
            move || Box::new(for_factory.clone()),
            || {
                let mut sink = make_thread_sink().expect("factory installed");
                sink.record(&ev(1, 0, 0, TraceKind::SimStart { seed: 42 }));
            },
        );
        assert!(make_thread_sink().is_none(), "factory reset on exit");
        assert_eq!(shared.snapshot().span("sim.start").unwrap().count, 1);
    }
}
