// Property tests need the external `proptest` crate, which hermetic
// (offline) builds cannot fetch. To run them: re-add `proptest = "1"` to this
// crate's [dev-dependencies] and build with RUSTFLAGS="--cfg agora_proptest".
#![cfg(agora_proptest)]

//! Property-based tests for the simulator substrate.

use agora_sim::{
    Ctx, DeviceClass, Jitter, NodeId, Protocol, Retrier, RetryPolicy, SimDuration, SimRng, SimTime,
    Simulation,
};
use proptest::prelude::*;

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

/// Build and run one randomized topology/workload; return everything
/// observable (the full metrics artifact string, the dispatched-event count
/// and the final clock).
fn relay_run(
    seed: u64,
    nodes: usize,
    churn_every: usize,
    loss: f64,
    dup: f64,
    reorder_ms: u64,
    rounds: usize,
) -> (String, u64, SimTime) {
    let classes = [
        DeviceClass::DatacenterServer,
        DeviceClass::PersonalComputer,
        DeviceClass::Smartphone,
        DeviceClass::Tablet,
    ];
    let mut sim: Simulation<Relay> = Simulation::new(seed);
    let ids: Vec<NodeId> = (0..nodes)
        .map(|i| sim.add_node(Relay, classes[i % classes.len()]))
        .collect();
    for (i, &id) in ids.iter().enumerate() {
        if churn_every > 0 && i % churn_every == 0 {
            sim.enable_churn(id);
        }
    }
    sim.set_loss_rate(loss);
    if dup > 0.0 || reorder_ms > 0 {
        sim.enable_chaos(seed ^ 0x5eed);
        sim.set_chaos_dup_rate(dup);
        sim.set_chaos_reorder(SimDuration::from_millis(reorder_ms));
    }
    for round in 0..rounds {
        let src = ids[round % ids.len()];
        sim.with_ctx(src, |_, ctx| {
            ctx.send(ids[(round + 1) % ids.len()], Hop(nodes as u32), 128);
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

proptest! {
    /// RNG streams are deterministic per seed and distinct across seeds.
    #[test]
    fn rng_seed_determinism(seed in any::<u64>()) {
        let a: Vec<u64> = {
            let mut r = SimRng::new(seed);
            (0..32).map(|_| r.next_u64()).collect()
        };
        let b: Vec<u64> = {
            let mut r = SimRng::new(seed);
            (0..32).map(|_| r.next_u64()).collect()
        };
        prop_assert_eq!(a, b);
    }

    /// below(n) is always in range, for any n and any seed.
    #[test]
    fn rng_below_in_range(seed in any::<u64>(), n in 1u64..u64::MAX) {
        let mut r = SimRng::new(seed);
        for _ in 0..16 {
            prop_assert!(r.below(n) < n);
        }
    }

    /// sample_indices returns distinct, in-range indices of the right count.
    #[test]
    fn rng_sample_indices_sound(seed in any::<u64>(), n in 0usize..200, k in 0usize..220) {
        let mut r = SimRng::new(seed);
        let picks = r.sample_indices(n, k);
        prop_assert_eq!(picks.len(), k.min(n));
        let mut sorted = picks.clone();
        sorted.sort_unstable();
        sorted.dedup();
        prop_assert_eq!(sorted.len(), picks.len(), "duplicates");
        prop_assert!(picks.iter().all(|&i| i < n));
    }

    /// Time arithmetic: associativity of duration addition and consistency
    /// of since/add.
    #[test]
    fn time_arithmetic(a in 0u64..1u64 << 40, d1 in 0u64..1u64 << 30, d2 in 0u64..1u64 << 30) {
        let t = SimTime(a);
        let x = t + SimDuration(d1) + SimDuration(d2);
        let y = t + (SimDuration(d1) + SimDuration(d2));
        prop_assert_eq!(x, y);
        prop_assert_eq!(x.since(t), SimDuration(d1 + d2));
        prop_assert_eq!(t.since(x), SimDuration::ZERO, "saturating");
    }

    /// Duration unit constructors agree for arbitrary values.
    #[test]
    fn duration_units(s in 0u64..1u64 << 18) {
        prop_assert_eq!(SimDuration::from_secs(s), SimDuration::from_millis(s * 1000));
        prop_assert_eq!(
            SimDuration::from_secs_f64(s as f64),
            SimDuration::from_secs(s)
        );
    }

    /// The pre-jitter backoff curve is monotone non-decreasing and never
    /// exceeds its cap, for arbitrary policies.
    #[test]
    fn retry_backoff_monotone_and_capped(
        base_ms in 1u64..10_000,
        factor in 1.0f64..8.0,
        cap_ms in 1u64..1_000_000,
        attempts in 2u32..64,
    ) {
        let p = RetryPolicy {
            base: SimDuration::from_millis(base_ms),
            factor,
            cap: SimDuration::from_millis(cap_ms.max(base_ms)),
            max_attempts: attempts,
            jitter: Jitter::None,
            hedge_after: None,
        };
        let mut prev = SimDuration::ZERO;
        for a in 0..attempts {
            let d = p.backoff_pre_jitter(a);
            prop_assert!(d >= prev, "regressed at attempt {}", a);
            prop_assert!(d <= p.cap, "exceeded cap at attempt {}", a);
            prev = d;
        }
    }

    /// Jittered backoff sequences are byte-identical for a fixed seed,
    /// bounded by [base, cap], and exactly exhaust the attempt budget.
    #[test]
    fn retry_jitter_deterministic_per_seed(
        seed in any::<u64>(),
        base_ms in 1u64..5_000,
        attempts in 1u32..16,
    ) {
        let p = RetryPolicy {
            base: SimDuration::from_millis(base_ms),
            factor: 2.0,
            cap: SimDuration::from_millis(base_ms * 64),
            max_attempts: attempts,
            jitter: Jitter::Decorrelated,
            hedge_after: None,
        };
        let run = || {
            let mut rng = SimRng::new(seed);
            let mut r = Retrier::new(p);
            let mut out = Vec::new();
            while let Some(d) = r.next_backoff(&mut rng) {
                prop_assert!(d >= p.base && d <= p.cap);
                out.push(d.micros());
            }
            prop_assert_eq!(out.len() as u32, attempts - 1, "budget mismatch");
            Ok(out)
        };
        prop_assert_eq!(run()?, run()?);
    }

    /// Replaying a seed on a randomized topology and workload reproduces
    /// the metrics artifact, the event count and the final clock exactly.
    #[test]
    fn same_seed_replays_byte_identically(
        seed in any::<u64>(),
        nodes in 2usize..24,
        churn_every in 0usize..5,
        loss in 0.0f64..0.3,
        dup in 0.0f64..0.5,
        reorder_ms in 0u64..80,
        rounds in 1usize..8,
    ) {
        let run = || relay_run(seed, nodes, churn_every, loss, dup, reorder_ms, rounds);
        prop_assert_eq!(run(), run());
    }

    /// Exponential samples are non-negative with roughly the right mean.
    #[test]
    fn rng_exp_sane(seed in any::<u64>(), mean in 0.01f64..100.0) {
        let mut r = SimRng::new(seed);
        let n = 3000;
        let mut sum = 0.0;
        for _ in 0..n {
            let v = r.exp(mean);
            prop_assert!(v >= 0.0);
            sum += v;
        }
        let observed = sum / n as f64;
        prop_assert!((observed - mean).abs() < mean * 0.25,
            "mean {mean} observed {observed}");
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
        if p.battery_constrained {
            assert_eq!(p.server_equivalent_cores(), 0.0, "{class:?}");
        }
    }
}
