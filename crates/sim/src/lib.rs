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
//! * a [`Metrics`] registry for counters and latency histograms, and
//! * (behind the `trace` cargo feature) the [`trace`](crate::trace)
//!   observability layer: a [`trace::TraceSink`] tap in the engine with a
//!   bounded flight recorder and causal provenance keys. Compiled out by
//!   default — the untraced engine is byte-for-byte the pre-trace engine.
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
pub mod metrics;
pub mod net;
pub mod probe;
pub mod retry;
pub mod rng;
pub mod shard;
pub mod time;
#[cfg(feature = "trace")]
pub mod trace;

pub use chaos::{
    AsymPartition, ChaosController, ChaosFault, ChaosSchedule, ChaosSpec, CrashWaves, LinkFlaps,
    Storm,
};
pub use device::{DeviceClass, DeviceProfile};
pub use engine::{Ctx, NodeId, Protocol, Simulation};
pub use metrics::{CounterHandle, Histogram, Metrics, P2Quantile};
pub use net::Network;
pub use probe::{with_thread_probe, ProbeAnomaly, ProbeFrame, ProbeSink, PROBE_SIM_NODE};
pub use retry::{Jitter, Retrier, RetryPolicy};
pub use rng::{SimRng, ZipfTable};
pub use shard::{
    shard_of, watch_counters as shard_watch_counters, with_shards, ShardStats, ShardWorkers,
};
pub use time::{SimDuration, SimTime};
