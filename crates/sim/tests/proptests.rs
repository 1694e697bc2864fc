//! Property tests for the simulator substrate: RNG, time arithmetic, the
//! retry cursor and seed replay of a randomized engine workload. Always on,
//! seeded `SimRng` cases, no registry dependency.

use agora_sim::{
    Ctx, DeviceClass, NodeId, Protocol, Retrier, RetryPolicy, SimDuration, SimRng, SimTime,
    Simulation,
};

const CASES: u64 = 256;

/// A message-relaying protocol for randomized engine workloads: each hop
/// forwards to the next node in the ring (decrementing a TTL) and acks the
/// sender, so one injected message fans out into a burst of traffic.
#[derive(Clone)]
struct Hop(u32);

struct Relay;

impl Protocol for Relay {
    type Msg = Hop;

    fn on_message(&mut self, ctx: &mut Ctx<'_, Hop>, from: NodeId, msg: Hop) {
        if msg.0 > 0 {
            let n = ctx.node_count() as u32;
            let next = NodeId((ctx.id().0 + 1) % n);
            ctx.send(next, Hop(msg.0 - 1), 64);
            ctx.send(from, Hop(0), 32);
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, Hop>, tag: u64) {
        // Timers re-inject a short relay, so churn/chaos interleave with
        // fresh traffic mid-run.
        let n = ctx.node_count() as u32;
        let next = NodeId((ctx.id().0 + tag as u32 % n.max(1)) % n);
        ctx.send(next, Hop(2), 48);
    }
}

/// One randomized topology/workload.
#[derive(Clone, Copy, Debug)]
struct RelayCase {
    seed: u64,
    nodes: usize,
    churn_every: usize,
    loss: f64,
    dup: f64,
    reorder_ms: u64,
    rounds: usize,
}

impl RelayCase {
    fn draw(rng: &mut SimRng) -> RelayCase {
        RelayCase {
            seed: rng.next_u64(),
            nodes: rng.range(2, 24) as usize,
            churn_every: rng.below(5) as usize,
            loss: rng.f64() * 0.3,
            dup: rng.f64() * 0.5,
            reorder_ms: rng.below(80),
            rounds: rng.range(1, 8) as usize,
        }
    }

    /// Build and run the case; return everything observable (the full
    /// metrics artifact string, the dispatched-event count and the final
    /// clock).
    fn run(self) -> (String, u64, SimTime) {
        let classes = [
            DeviceClass::DatacenterServer,
            DeviceClass::PersonalComputer,
            DeviceClass::Smartphone,
            DeviceClass::Tablet,
        ];
        let mut sim: Simulation<Relay> = Simulation::new(self.seed);
        let ids: Vec<NodeId> = (0..self.nodes)
            .map(|i| sim.add_node(Relay, classes[i % classes.len()]))
            .collect();
        for (i, &id) in ids.iter().enumerate() {
            if self.churn_every > 0 && i % self.churn_every == 0 {
                sim.enable_churn(id);
            }
        }
        sim.set_loss_rate(self.loss);
        if self.dup > 0.0 || self.reorder_ms > 0 {
            sim.enable_chaos(self.seed ^ 0x5eed);
            sim.set_chaos_dup_rate(self.dup);
            sim.set_chaos_reorder(SimDuration::from_millis(self.reorder_ms));
        }
        for round in 0..self.rounds {
            let src = ids[round % ids.len()];
            sim.with_ctx(src, |_, ctx| {
                ctx.send(ids[(round + 1) % ids.len()], Hop(self.nodes as u32), 128);
                ctx.set_timer(SimDuration::from_millis(7), round as u64);
            });
            sim.run_for(SimDuration::from_millis(400));
        }
        sim.run_for(SimDuration::from_secs(3));
        (
            format!("{}", sim.metrics()),
            sim.events_processed(),
            sim.now(),
        )
    }
}

/// RNG streams are deterministic per seed and distinct across seeds.
#[test]
fn rng_seed_determinism() {
    let mut cases = SimRng::new(0x7369_6d31);
    let stream = |seed: u64| -> Vec<u64> {
        let mut r = SimRng::new(seed);
        (0..32).map(|_| r.next_u64()).collect()
    };
    for _ in 0..CASES {
        let seed = cases.next_u64();
        assert_eq!(stream(seed), stream(seed), "seed {seed}");
        assert_ne!(stream(seed), stream(seed ^ 1), "seed {seed}");
    }
}

/// below(n) is always in range, for any n and any seed.
#[test]
fn rng_below_in_range() {
    let mut cases = SimRng::new(0x7369_6d32);
    for case in 0..CASES {
        let seed = cases.next_u64();
        // Half the cases near the top of the range, where rejection bites.
        let n = if case % 2 == 0 {
            cases.range(1, u64::MAX)
        } else {
            u64::MAX - cases.below(1 << 20)
        };
        let mut r = SimRng::new(seed);
        for _ in 0..16 {
            assert!(r.below(n) < n, "seed {seed} n {n}");
        }
    }
}

/// sample_indices returns distinct, in-range indices of the right count.
#[test]
fn rng_sample_indices_sound() {
    let mut cases = SimRng::new(0x7369_6d33);
    for _ in 0..CASES {
        let (seed, n, k) = (
            cases.next_u64(),
            cases.below_usize(200),
            cases.below_usize(220),
        );
        let picks = SimRng::new(seed).sample_indices(n, k);
        assert_eq!(picks.len(), k.min(n), "n {n} k {k}");
        let mut sorted = picks.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), picks.len(), "duplicates: n {n} k {k}");
        assert!(picks.iter().all(|&i| i < n), "n {n} k {k}");
    }
}

/// Time arithmetic: associativity of duration addition and consistency
/// of since/add.
#[test]
fn time_arithmetic() {
    let mut cases = SimRng::new(0x7369_6d34);
    for _ in 0..CASES {
        let t = SimTime(cases.below(1 << 40));
        let (d1, d2) = (
            SimDuration(cases.below(1 << 30)),
            SimDuration(cases.below(1 << 30)),
        );
        let x = t + d1 + d2;
        let y = t + (d1 + d2);
        assert_eq!(x, y);
        assert_eq!(x.since(t), SimDuration(d1.0 + d2.0));
        assert_eq!(t.since(x), SimDuration::ZERO, "saturating");
    }
}

/// Duration unit constructors agree for arbitrary values.
#[test]
fn duration_units() {
    let mut cases = SimRng::new(0x7369_6d35);
    for _ in 0..CASES {
        let s = cases.below(1 << 18);
        assert_eq!(
            SimDuration::from_secs(s),
            SimDuration::from_millis(s * 1000)
        );
        assert_eq!(
            SimDuration::from_secs_f64(s as f64),
            SimDuration::from_secs(s)
        );
    }
}

/// Backoff sequences are identical for a fixed seed, bounded by
/// [base, cap], and exactly exhaust the attempt budget.
#[test]
fn retry_jitter_deterministic_per_seed() {
    let mut cases = SimRng::new(0x7369_6d36);
    for _ in 0..CASES {
        let (seed, base_ms) = (cases.next_u64(), cases.range(1, 5_000));
        let attempts = cases.range(1, 16) as u32;
        let p = RetryPolicy {
            base: SimDuration::from_millis(base_ms),
            cap: SimDuration::from_millis(base_ms * 64),
            max_attempts: attempts,
            hedge_after: None,
        };
        let run = || {
            let mut rng = SimRng::new(seed);
            let mut r = Retrier::new(p);
            let mut out = Vec::new();
            while let Some(d) = r.next_backoff(&mut rng) {
                assert!(d >= p.base && d <= p.cap, "{p:?}: {d:?}");
                out.push(d.micros());
            }
            assert_eq!(out.len() as u32, attempts - 1, "budget mismatch");
            out
        };
        assert_eq!(run(), run(), "seed {seed} {p:?}");
    }
}

/// Replaying a seed on a randomized topology and workload reproduces
/// the metrics artifact, the event count and the final clock exactly.
#[test]
fn same_seed_replays_byte_identically() {
    let mut cases = SimRng::new(0x7369_6d37);
    for _ in 0..CASES {
        let case = RelayCase::draw(&mut cases);
        assert_eq!(case.run(), case.run(), "{case:?}");
    }
}

/// Exponential samples are non-negative with roughly the right mean.
#[test]
fn rng_exp_sane() {
    let mut cases = SimRng::new(0x7369_6d38);
    for _ in 0..CASES {
        let (seed, mean) = (cases.next_u64(), 0.01 + cases.f64() * 99.99);
        let mut r = SimRng::new(seed);
        let n = 3000;
        let mut sum = 0.0;
        for _ in 0..n {
            let v = r.exp(mean);
            assert!(v >= 0.0);
            sum += v;
        }
        let observed = sum / n as f64;
        assert!(
            (observed - mean).abs() < mean * 0.25,
            "seed {seed}: mean {mean} observed {observed}"
        );
    }
}

#[test]
fn device_profiles_internally_consistent() {
    for class in DeviceClass::all() {
        let p = class.profile();
        assert!(p.uplink_bps > 0);
        assert!(
            p.downlink_bps >= p.uplink_bps,
            "{class:?}: asymmetric down < up"
        );
        assert!((0.0..=1.0).contains(&p.duty_cycle));
        assert!(p.mean_session.micros() > 0);
    }
}
