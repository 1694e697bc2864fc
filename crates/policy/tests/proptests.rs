// Property tests need the external `proptest` crate, which hermetic
// (offline) builds cannot fetch. To run them: re-add `proptest = "1"` to this
// crate's [dev-dependencies] and build with RUSTFLAGS="--cfg agora_proptest".
#![cfg(agora_proptest)]

//! Property-based tests for the policy hysteresis machine.

use agora_policy::{PolicyConfig, PolicyHandle, SIG_UPLINK_UTIL};
use agora_sim::probe::{ProbeFrame, ProbeSink};
use agora_sim::{Metrics, NodeId, SimDuration, SimTime};
use proptest::prelude::*;

fn frame(metrics: &Metrics, t_secs: u64, uplink_backlog: f64) -> ProbeFrame<'_> {
    ProbeFrame {
        now: SimTime::ZERO + SimDuration::from_secs(t_secs),
        events: t_secs,
        pending: 0,
        queue_max_depth: 0,
        queue_max_node: NodeId(0),
        queue_nonzero: 0,
        uplink_max_backlog_secs: uplink_backlog,
        uplink_busy_nodes: u32::from(uplink_backlog > 0.0),
        downlink_max_backlog_secs: 0.0,
        downlink_busy_nodes: 0,
        metrics,
    }
}

/// Drive one sink through `intervals` (each a bag of utilization signals
/// plus a frame backlog), returning the level trajectory.
fn run(intervals: &[(Vec<f64>, f64)]) -> Vec<u32> {
    let hub = agora_policy::PolicyHub::new(PolicyConfig::default());
    let handle: PolicyHandle = hub.handle();
    let mut sink = hub.into_sink();
    sink.on_sim_start(1);
    let m = Metrics::new();
    let mut levels = Vec::new();
    for (t, (signals, backlog)) in intervals.iter().enumerate() {
        for v in signals {
            sink.on_signal(SimTime::ZERO, NodeId(0), SIG_UPLINK_UTIL, *v);
        }
        sink.on_frame(&frame(&m, t as u64, *backlog));
        levels.push(handle.level());
    }
    levels
}

proptest! {
    /// Interleave idempotence: within one cadence interval only the signal
    /// *max* matters, so any permutation of the interval's signals yields
    /// the identical level trajectory.
    #[test]
    fn within_interval_signal_order_is_irrelevant(
        intervals in proptest::collection::vec(
            (
                proptest::collection::vec(0.0f64..3.0, 0..6),
                prop_oneof![Just(0.0f64), 0.0f64..50.0],
            ),
            1..20,
        ),
        seed in any::<u64>(),
    ) {
        let baseline = run(&intervals);
        // Deterministic LCG shuffle of each interval's signal bag.
        let mut state = seed | 1;
        let mut rng = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            state >> 33
        };
        let mut shuffled = intervals.clone();
        for (signals, _) in &mut shuffled {
            for i in (1..signals.len()).rev() {
                let j = (rng() % (i as u64 + 1)) as usize;
                signals.swap(i, j);
            }
        }
        prop_assert_eq!(baseline, run(&shuffled));
    }

    /// The level is always within bounds and zero exactly when disengaged.
    #[test]
    fn level_is_bounded(
        intervals in proptest::collection::vec(
            (
                proptest::collection::vec(0.0f64..3.0, 0..4),
                prop_oneof![Just(0.0f64), 0.0f64..50.0],
            ),
            1..30,
        ),
    ) {
        let max = PolicyConfig::default().max_level;
        for level in run(&intervals) {
            prop_assert!(level <= max);
        }
    }
}
