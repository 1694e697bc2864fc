//! Deterministic signal probes: a sampled, sim-time-cadenced view of engine
//! state and substrate signals for the observer (`agora-observer`) and the
//! reactive policy plane (`agora-policy`).
//!
//! The layer is always compiled in, but every tap site reduces to one
//! predictable branch until a sink is actually installed — either directly
//! via [`crate::Simulation::set_probe_sink`] or through the thread-local
//! factory ([`with_thread_probe`]) that reaches simulations constructed
//! deep inside `fn(seed) -> Metrics` experiment entry points.
//!
//! Determinism: frames are sampled *at dispatch points* — immediately before
//! the first event whose timestamp reaches the next cadence boundary — and
//! every value in a frame is a pure function of engine state at that point
//! in the event order, which the seed alone fixes, so probe frames, signals
//! and anomaly effects are byte-identical at any harness thread count.

use std::cell::RefCell;

use crate::engine::NodeId;
use crate::metrics::Metrics;
use crate::time::{SimDuration, SimTime};

/// Pseudo-node stamped on signals emitted from outside any protocol handler
/// (market audits, sim-level controllers).
pub const PROBE_SIM_NODE: NodeId = NodeId(u32::MAX);

/// One sampled engine frame: everything an observer may read at a cadence
/// boundary. All fields derive from engine state only — no wall clock, no
/// scheduling artifacts — so frames are reproducible byte-for-byte.
pub struct ProbeFrame<'a> {
    /// Simulated time of the event that triggered the sample.
    pub now: SimTime,
    /// Events dispatched so far.
    pub events: u64,
    /// Undispatched events currently queued (all nodes).
    pub pending: u64,
    /// Deepest per-node pending-event queue.
    pub queue_max_depth: u32,
    /// The node holding that queue.
    pub queue_max_node: NodeId,
    /// Nodes with at least one pending event.
    pub queue_nonzero: u32,
    /// Largest per-node uplink backlog, in seconds of serialized sends
    /// already committed beyond `now`.
    pub uplink_max_backlog_secs: f64,
    /// Nodes whose uplink is busy past `now`.
    pub uplink_busy_nodes: u32,
    /// Largest per-node downlink backlog in seconds.
    pub downlink_max_backlog_secs: f64,
    /// Nodes whose downlink is busy past `now`.
    pub downlink_busy_nodes: u32,
    /// The run's metrics registry (counters snapshot via
    /// [`Metrics::snapshot`] for delta-rate computation).
    pub metrics: &'a Metrics,
}

/// An anomaly verdict returned by a sink's frame handler. The engine turns
/// each into a metrics counter bump under `kind` and — when tracing is also
/// compiled in and enabled — a trace point named `kind`, causally parented
/// to the event whose dispatch triggered the sample (so `--explain
/// anomaly.*` can walk back to the overloading traffic).
pub struct ProbeAnomaly {
    /// Counter / trace-point key: `anomaly.overload` from the observer,
    /// `policy.*` from a policy hub.
    pub kind: &'static str,
    /// The signal value that tripped the detector.
    pub value: f64,
}

/// Receiver for probe samples. All methods are called on the dispatch
/// thread in canonical event order.
pub trait ProbeSink {
    /// A simulation started with `seed`. Called once per [`crate::Simulation`].
    fn on_sim_start(&mut self, _seed: u64) {}

    /// A named substrate signal ([`crate::Ctx::probe_signal`] /
    /// [`crate::Simulation::probe_note`]): a lookup latency, a funded-slot
    /// ratio, a seeder count.
    fn on_signal(&mut self, _now: SimTime, _node: NodeId, _name: &'static str, _value: f64) {}

    /// A cadence frame. Returned anomalies are applied by the engine (see
    /// [`ProbeAnomaly`]).
    fn on_frame(&mut self, frame: &ProbeFrame<'_>) -> Vec<ProbeAnomaly>;
}

/// Sink used while nothing is installed.
pub struct NoopProbe;

impl ProbeSink for NoopProbe {
    fn on_frame(&mut self, _frame: &ProbeFrame<'_>) -> Vec<ProbeAnomaly> {
        Vec::new()
    }
}

/// What a probe factory produces: the sink plus the sampling cadence.
pub type ProbeInstall = (Box<dyn ProbeSink>, SimDuration);

type ProbeFactory = Box<dyn Fn() -> ProbeInstall>;

thread_local! {
    static PROBE_FACTORY: RefCell<Option<ProbeFactory>> = const { RefCell::new(None) };
}

/// Run `f` with a probe factory installed for this thread: every
/// [`crate::Simulation::new`] under `f` asks the factory for a fresh sink
/// and cadence. This is how a harness observes simulations built inside
/// experiment entry points without changing their signatures. The previous
/// factory (usually none) is restored on exit, including on panic.
pub fn with_thread_probe<R>(
    factory: impl Fn() -> ProbeInstall + 'static,
    f: impl FnOnce() -> R,
) -> R {
    struct Reset(Option<ProbeFactory>);
    impl Drop for Reset {
        fn drop(&mut self) {
            PROBE_FACTORY.with(|slot| *slot.borrow_mut() = self.0.take());
        }
    }
    let prev = PROBE_FACTORY.with(|slot| slot.borrow_mut().replace(Box::new(factory)));
    let _reset = Reset(prev);
    f()
}

/// Consult the thread's probe factory (called by [`crate::Simulation::new`]).
pub(crate) fn make_thread_probe() -> Option<ProbeInstall> {
    PROBE_FACTORY.with(|slot| slot.borrow().as_ref().map(|factory| factory()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn factory_is_scoped_and_restored() {
        assert!(make_thread_probe().is_none());
        with_thread_probe(
            || (Box::new(NoopProbe), SimDuration::from_secs(60)),
            || {
                let (_, cadence) = make_thread_probe().expect("factory installed");
                assert_eq!(cadence, SimDuration::from_secs(60));
            },
        );
        assert!(make_thread_probe().is_none());
    }

    #[test]
    fn factory_restored_on_panic() {
        let caught = std::panic::catch_unwind(|| {
            with_thread_probe(
                || (Box::new(NoopProbe), SimDuration::from_secs(1)),
                || panic!("boom"),
            )
        });
        assert!(caught.is_err());
        assert!(make_thread_probe().is_none());
    }
}
