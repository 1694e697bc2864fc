//! # agora-sim — deterministic discrete-event network simulator
//!
//! The substrate under every system in the `agora` workspace. It provides:
//!
//! * virtual [`time`](crate::time) (microsecond-resolution [`SimTime`] /
//!   [`SimDuration`]),
//! * a seeded, portable [`SimRng`] (xoshiro256\*\*, implemented in-repo so the
//!   stream never changes under us),
//! * [`DeviceClass`] profiles calibrated to the paper's §4 assumptions
//!   (datacenter servers vs PCs vs phones vs tablets),
//! * a [`Network`] model of access links with bandwidth serialization,
//!   heavy-tailed latency jitter, loss and partitions,
//! * the event [`Simulation`] engine itself, driving [`Protocol`]
//!   state machines with messages, timers and churn, and
//! * a [`Metrics`] registry for counters and latency histograms,
//! * [`FastMap`] / [`FastSet`], the workspace's hash tables: one seedless
//!   [`hash::FastHasher`], so map iteration order is the same in every
//!   process, and
//! * the [`trace`](crate::trace) observability layer: a
//!   [`trace::TraceSink`] tap in the engine with a bounded flight recorder
//!   and causal provenance keys. Always compiled in; one untaken branch
//!   per tap site until a sink is installed (DESIGN.md §11).
//! * the [`probe`](crate::probe) signals layer: a [`probe::ProbeSink`] tap
//!   that samples engine state (queue depths, link backlogs, counters) on
//!   a sim-time cadence and carries named substrate health signals — the
//!   deterministic feed for `agora-observer` and `agora-policy`. Always
//!   compiled in; one untaken branch per tap site until a sink is
//!   installed.
//!
//! ## Design
//!
//! Protocols are event-driven state machines in the smoltcp idiom — no async
//! runtime, no real I/O, fully deterministic given a seed. A protocol
//! implements [`Protocol`] and reacts to `on_message` / `on_timer` /
//! `on_up` / `on_down` callbacks through a [`Ctx`] handle.
//!
//! ```
//! use agora_sim::{Simulation, Protocol, Ctx, NodeId, DeviceClass, SimDuration};
//!
//! struct Echo;
//! impl Protocol for Echo {
//!     type Msg = String;
//!     fn on_message(&mut self, ctx: &mut Ctx<'_, String>, from: NodeId, msg: String) {
//!         if msg == "hello" {
//!             ctx.send(from, "world".to_owned(), 5);
//!         }
//!     }
//! }
//!
//! let mut sim = Simulation::new(42);
//! let a = sim.add_node(Echo, DeviceClass::DatacenterServer);
//! let b = sim.add_node(Echo, DeviceClass::PersonalComputer);
//! sim.with_ctx(b, |_, ctx| ctx.send(a, "hello".to_owned(), 5));
//! sim.run_for(SimDuration::from_secs(1));
//! assert_eq!(sim.metrics().counter("net.delivered"), 2);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod chaos;
pub mod device;
pub mod engine;
pub mod hash;
pub mod metrics;
pub mod net;
pub mod probe;
pub mod retry;
pub mod rng;
pub mod time;
pub mod trace;

pub use chaos::{
    AsymPartition, ChaosController, ChaosFault, ChaosSchedule, ChaosSpec, CrashWaves, LinkFlaps,
    Storm,
};
pub use device::{DeviceClass, DeviceProfile};
pub use engine::{Ctx, NodeId, Protocol, Simulation};
pub use hash::{FastMap, FastSet};
pub use metrics::{CounterHandle, Histogram, Metrics, P2Quantile};
pub use net::Network;
pub use probe::{with_thread_probe, ProbeAnomaly, ProbeFrame, ProbeSink, PROBE_SIM_NODE};
pub use retry::{Retrier, RetryPolicy};
pub use rng::{Bernoulli, Poisson, SimRng, ZipfTable};
pub use time::{SimDuration, SimTime};

// One-shard shim. The engine is serial (DESIGN.md §15); the frozen
// `benchmark/` (`engine_core.rs::ring_flood_sharded`, `run.rs`) still names
// these four items, so they stay as no-ops returning what one shard always
// returned. Nothing under `crates/` calls them. The benchmark catch-up PR
// (ROADMAP, "(c)") deletes its callers and then this block.
#[doc(hidden)]
#[derive(Clone, Copy, Default, Debug)]
pub struct ShardStats {
    pub windows: u64,
    pub barrier_stalls: u64,
    pub cross_events: u64,
    pub local_events: u64,
    pub absorbed_events: u64,
}
#[doc(hidden)]
pub fn with_shards<R>(_shards: u32, f: impl FnOnce() -> R) -> R {
    f()
}
#[doc(hidden)]
impl<P: Protocol> Simulation<P> {
    pub fn set_shards(&mut self, _shards: u32) {}
    pub fn shard_stats(&self) -> ShardStats {
        ShardStats::default()
    }
}
