//! The `engine_core` scenarios: trivial handlers over `agora_sim`'s public
//! API, so queue, net-model and shard cost is most of the time.
//!
//! Every synthetic scenario runs to idle and dispatches a number of events
//! that is fixed by its shape alone: the seed moves the ring order, timer
//! delays, relay targets and link jitter, never the count. That is what
//! lets the count be pinned at any seed.

use agora_sim::{Ctx, DeviceClass, Metrics, NodeId, Protocol, SimDuration, SimRng, Simulation};

/// Counter each scenario adds to its metrics: events the engine dispatched.
pub const EVENTS: &str = "bench.events";
/// Gauge each scenario adds: simulated seconds until the queue ran dry.
pub const SIM_SECS: &str = "bench.sim_secs";

/// Livelock guard for `run_idle`; far above any scenario's event count.
const MAX_EVENTS: u64 = 1 << 32;

fn finish<P: Protocol>(sim: Simulation<P>) -> Metrics {
    let mut m = sim.metrics().clone();
    m.incr(EVENTS, sim.events_processed());
    m.gauge_set(SIM_SECS, sim.now().secs_f64());
    m
}

const RING_NODES: u32 = 64;
const RING_TTL: u64 = 64;
pub const RING_MSG_BYTES: u64 = 128;

/// Events one keepalive round of [`ring_flood`] dispatches: per node one
/// timer and a token delivered `RING_TTL + 1` times.
pub const RING_EVENTS_PER_ROUND: u64 = RING_NODES as u64 * (RING_TTL + 2);

/// The 64-node relay ring of `crates/bench/benches/hotpath.rs`, bounded by
/// rounds instead of simulated time.
struct RingFlood {
    next: NodeId,
    rounds_left: u32,
}

impl Protocol for RingFlood {
    type Msg = u64;

    fn on_start(&mut self, ctx: &mut Ctx<'_, u64>) {
        ctx.set_timer(SimDuration::from_millis(100), 0);
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_, u64>, _from: NodeId, ttl: u64) {
        if ttl > 0 {
            ctx.send(self.next, ttl - 1, RING_MSG_BYTES);
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, u64>, _tag: u64) {
        ctx.send(self.next, RING_TTL, RING_MSG_BYTES);
        self.rounds_left -= 1;
        if self.rounds_left > 0 {
            ctx.set_timer(SimDuration::from_millis(100), 0);
        }
    }
}

fn ring_sim(seed: u64, rounds: u32) -> Simulation<RingFlood> {
    let mut order: Vec<u32> = (0..RING_NODES).collect();
    SimRng::new(seed).shuffle(&mut order);
    let mut next = vec![0u32; RING_NODES as usize];
    for (i, &node) in order.iter().enumerate() {
        next[node as usize] = order[(i + 1) % order.len()];
    }
    let mut sim = Simulation::new(seed);
    for n in next {
        sim.add_node(
            RingFlood {
                next: NodeId(n),
                rounds_left: rounds,
            },
            DeviceClass::DatacenterServer,
        );
    }
    sim
}

/// Small messages on fast links: queue push/pop and dispatch dominate.
pub fn ring_flood(seed: u64, rounds: u32) -> Metrics {
    let mut sim = ring_sim(seed, rounds);
    sim.run_idle(MAX_EVENTS);
    finish(sim)
}

/// [`ring_flood`] on the sharded engine; returns its shard statistics.
pub fn ring_flood_sharded(seed: u64, rounds: u32, shards: u32) -> agora_sim::ShardStats {
    let mut sim = ring_sim(seed, rounds);
    sim.set_shards(shards);
    sim.run_idle(MAX_EVENTS);
    sim.shard_stats()
}

const STORM_NODES: u32 = 256;
const STORM_TIMERS_PER_NODE: u64 = 16;

/// Every node keeps 16 timers in flight and re-arms each one at a random
/// delay until its budget is spent. No message is ever sent.
struct TimerStorm {
    budget: u64,
}

impl TimerStorm {
    fn arm(&mut self, ctx: &mut Ctx<'_, ()>) {
        if self.budget > 0 {
            self.budget -= 1;
            let delay = SimDuration::from_micros(1 + ctx.rng().below(1_000_000));
            ctx.set_timer(delay, 0);
        }
    }
}

impl Protocol for TimerStorm {
    type Msg = ();

    fn on_start(&mut self, ctx: &mut Ctx<'_, ()>) {
        for _ in 0..STORM_TIMERS_PER_NODE {
            self.arm(ctx);
        }
    }

    fn on_message(&mut self, _ctx: &mut Ctx<'_, ()>, _from: NodeId, _msg: ()) {}

    fn on_timer(&mut self, ctx: &mut Ctx<'_, ()>, _tag: u64) {
        self.arm(ctx);
    }
}

/// Timers only: a 4096-deep heap churned at random keys, no net model.
/// Dispatches `256 * timers_per_node` events.
pub fn timer_storm(seed: u64, timers_per_node: u64) -> Metrics {
    let mut sim = Simulation::new(seed);
    for _ in 0..STORM_NODES {
        sim.add_node(
            TimerStorm {
                budget: timers_per_node,
            },
            DeviceClass::DatacenterServer,
        );
    }
    sim.run_idle(MAX_EVENTS);
    finish(sim)
}

const BULK_NODES: u32 = 32;
const BULK_BURST: u64 = 8;
const BULK_MSG_BYTES: u64 = 256 * 1024;

/// Every home PC opens with a burst of 256 KiB messages to random peers,
/// and each message is relayed to another random peer until its hop
/// budget is spent, so uplinks and downlinks carry a standing backlog.
struct BulkRelay {
    hops: u64,
}

fn relay(ctx: &mut Ctx<'_, u64>, hops_left: u64) {
    let me = ctx.id().0;
    let pick = ctx.rng().below(u64::from(BULK_NODES - 1)) as u32;
    // Skip over self so every message crosses two access links.
    let to = NodeId(if pick >= me { pick + 1 } else { pick });
    ctx.send(to, hops_left, BULK_MSG_BYTES);
}

impl Protocol for BulkRelay {
    type Msg = u64;

    fn on_start(&mut self, ctx: &mut Ctx<'_, u64>) {
        for _ in 0..BULK_BURST {
            relay(ctx, self.hops);
        }
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_, u64>, _from: NodeId, hops_left: u64) {
        if hops_left > 0 {
            relay(ctx, hops_left - 1);
        }
    }
}

/// Large messages on consumer links: the serialization and backlog
/// arithmetic of `net.rs` runs on every send. Dispatches
/// `32 * 8 * (hops + 1)` events.
pub fn bulk_backlog(seed: u64, hops: u64) -> Metrics {
    let mut sim = Simulation::new(seed);
    for _ in 0..BULK_NODES {
        sim.add_node(BulkRelay { hops }, DeviceClass::PersonalComputer);
    }
    sim.run_idle(MAX_EVENTS);
    finish(sim)
}

/// Events [`bulk_backlog`] dispatches for a hop budget.
pub const fn bulk_events(hops: u64) -> u64 {
    BULK_NODES as u64 * BULK_BURST * (hops + 1)
}

/// Events [`timer_storm`] dispatches for a per-node timer budget.
pub const fn storm_events(timers_per_node: u64) -> u64 {
    STORM_NODES as u64 * timers_per_node
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn event_counts_follow_from_shape_at_any_seed() {
        for seed in [1, 20171130, u64::MAX] {
            assert_eq!(
                ring_flood(seed, 3).counter(EVENTS),
                3 * RING_EVENTS_PER_ROUND
            );
            assert_eq!(timer_storm(seed, 40).counter(EVENTS), storm_events(40));
            assert_eq!(bulk_backlog(seed, 5).counter(EVENTS), bulk_events(5));
        }
    }

    #[test]
    fn the_seed_changes_what_runs_but_not_how_much() {
        let (a, b) = (bulk_backlog(1, 5), bulk_backlog(2, 5));
        assert_eq!(a.counter("net.sent"), b.counter("net.sent"));
        assert_ne!(a.gauge(SIM_SECS), b.gauge(SIM_SECS));
    }

    #[test]
    fn sharded_ring_reports_windows() {
        let stats = ring_flood_sharded(7, 2, 2);
        assert!(stats.windows > 0);
        assert!(stats.local_events + stats.cross_events + stats.absorbed_events > 0);
    }
}
