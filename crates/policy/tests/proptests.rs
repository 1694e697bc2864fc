//! Property tests for the policy hysteresis machine: always on, 256 seeded
//! `SimRng` cases per property, no registry dependency.

use agora_policy::{PolicyHub, MAX_LEVEL};
use agora_sim::probe::{ProbeFrame, SIG_UPLINK_UTIL};
use agora_sim::{Metrics, NodeId, SimDuration, SimRng, SimTime};

const CASES: u64 = 256;

/// One cadence interval: the utilization signals noted before its frame.
type Interval = Vec<f64>;

fn frame(metrics: &Metrics, t_secs: u64) -> ProbeFrame<'_> {
    ProbeFrame {
        now: SimTime::ZERO + SimDuration::from_secs(t_secs),
        events: t_secs,
        pending: 0,
        queue_max_depth: 0,
        queue_max_node: NodeId(0),
        queue_nonzero: 0,
        uplink_max_backlog_secs: 0.0,
        uplink_busy_nodes: 0,
        downlink_max_backlog_secs: 0.0,
        downlink_busy_nodes: 0,
        metrics,
    }
}

/// Fewer than `max_intervals` intervals (at least one), each with fewer than
/// `max_signals` utilizations in `[0, 3)`.
fn intervals(rng: &mut SimRng, max_intervals: u64, max_signals: u64) -> Vec<Interval> {
    (0..rng.range(1, max_intervals))
        .map(|_| {
            (0..rng.below(max_signals))
                .map(|_| rng.f64() * 3.0)
                .collect()
        })
        .collect()
}

/// Drive one sink through `intervals`, returning the `(level, engaged)`
/// trajectory.
fn run(intervals: &[Interval]) -> Vec<(u32, bool)> {
    let hub = PolicyHub::default();
    let handle = hub.handle();
    let mut sink = hub.into_sink();
    sink.on_sim_start(1);
    let m = Metrics::new();
    let mut trajectory = Vec::new();
    for (t, signals) in intervals.iter().enumerate() {
        for v in signals {
            sink.on_signal(SimTime::ZERO, NodeId(0), SIG_UPLINK_UTIL, *v);
        }
        sink.on_frame(&frame(&m, t as u64));
        trajectory.push((handle.level(), handle.engaged()));
    }
    trajectory
}

/// Interleave idempotence: within one cadence interval only the signal
/// *max* matters, so any permutation of the interval's signals yields the
/// identical trajectory.
#[test]
fn within_interval_signal_order_is_irrelevant() {
    let mut rng = SimRng::new(0x706f_6c31);
    let mut permuted = 0;
    for case in 0..CASES {
        let original = intervals(&mut rng, 20, 6);
        let mut shuffled = original.clone();
        for signals in &mut shuffled {
            rng.shuffle(signals);
        }
        permuted += u64::from(shuffled != original);
        assert_eq!(run(&original), run(&shuffled), "case {case}: {original:?}");
    }
    assert!(permuted > CASES / 2, "only {permuted} cases were permuted");
}

/// The level is always within bounds and zero exactly when disengaged.
#[test]
fn level_is_bounded() {
    let mut rng = SimRng::new(0x706f_6c32);
    let mut engaged_somewhere = 0;
    for case in 0..CASES {
        let input = intervals(&mut rng, 30, 4);
        let trajectory = run(&input);
        for &(level, engaged) in &trajectory {
            assert!(
                level <= MAX_LEVEL,
                "case {case}: level {level} > {MAX_LEVEL}: {input:?}"
            );
            assert_eq!(level == 0, !engaged, "case {case}: {input:?}");
        }
        engaged_somewhere += u64::from(trajectory.iter().any(|&(_, e)| e));
    }
    assert!(
        engaged_somewhere > CASES / 4,
        "only {engaged_somewhere} cases ever engaged"
    );
}
