//! The tick-streamed schedule is the day-sorted schedule: `stream()` yields
//! `compile()`'s events one for one, and `compile()` still produces the
//! events the sort-the-whole-day compiler produced (digests taken from the
//! commit before the generator became per-tick).

use agora_sim::{NodeId, SimDuration};
use agora_workload::{
    BoundedPareto, ChurnCurve, DemandModel, DiurnalCurve, FlashCrowd, LogNormalSessions,
    WorkloadAction, WorkloadEvent, WorkloadSpec, ZoneMix,
};

struct Case {
    population: u64,
    cohorts: u32,
    seed: u64,
    rep_cap: u32,
    churn: bool,
    flash: bool,
    /// FNV-1a digest of the parent commit's `compile()` output.
    digest: u64,
}

const fn case(
    population: u64,
    cohorts: u32,
    seed: u64,
    rep_cap: u32,
    churn: bool,
    flash: bool,
    digest: u64,
) -> Case {
    Case {
        population,
        cohorts,
        seed,
        rep_cap,
        churn,
        flash,
        digest,
    }
}

const GRID: [Case; 10] = [
    case(2_000, 2_000, 7, 2, true, true, 0x4f56_8367_ea86_b200),
    case(2_000, 2_000, 8, 1, false, true, 0x7128_6e10_c529_4a49),
    case(2_000, 2_000, 9, 4, true, false, 0xe825_2e92_a65f_4ca3),
    case(1_000_000, 8, 20171130, 2, true, true, 0x1014_8dc7_56d6_bbf4),
    case(
        1_000_000,
        8,
        20171131,
        1,
        false,
        false,
        0x9dfb_00b3_930c_382b,
    ),
    case(1_000_000, 8, 3, 4, true, true, 0xf437_86ff_d710_42b8),
    case(10_000, 64, 5, 2, true, true, 0x035f_d1b8_7ba0_6b6d),
    case(50_000, 4, 11, 4, false, true, 0x1a56_c3b3_2d6a_3e2f),
    // More cohorts than users: the unpopulated tail draws nothing.
    case(5, 16, 13, 2, true, false, 0x4f28_7c75_a4f9_2be6),
    case(300, 300, 17, u32::MAX, true, true, 0xddb4_5bf0_e66e_d19a),
];

fn spec(c: &Case) -> WorkloadSpec {
    WorkloadSpec {
        population: c.population,
        cohorts: c.cohorts,
        actions_per_user_day: 20.0,
        model: DemandModel {
            zones: ZoneMix::global_three_region(DiurnalCurve::residential()),
            flash: c.flash.then_some(FlashCrowd {
                start: SimDuration::from_secs(45_900),
                ramp: SimDuration::from_mins(30),
                plateau: SimDuration::from_mins(60),
                decay: SimDuration::from_mins(30),
                peak: 12.0,
            }),
        },
        ranks: 64,
        zipf_alpha: 0.9,
        sizes: BoundedPareto::new(2_000, 1_000_000, 1.3),
        sessions: LogNormalSessions::new(300.0, 1.0),
        tick: SimDuration::from_mins(15),
        rep_cap: c.rep_cap,
        churn: c.churn.then_some(ChurnCurve {
            offline_at_peak: 0.1,
            offline_at_trough: 0.5,
        }),
    }
}

/// A day so finely ticked (2 µs) that a quarter of all representatives
/// round up onto the next tick's first microsecond.
fn boundary_spec() -> WorkloadSpec {
    WorkloadSpec {
        population: 4_000_000_000,
        cohorts: 4,
        actions_per_user_day: 20_000.0,
        tick: SimDuration(2),
        rep_cap: 4,
        ..spec(&case(0, 0, 0, 0, false, false, 0))
    }
}
const BOUNDARY_HORIZON: SimDuration = SimDuration(199);
const BOUNDARY_DIGEST: u64 = 0x6767_b019_db50_18ef;

fn churnable() -> Vec<NodeId> {
    (0..48).map(NodeId).collect()
}

/// Every field of one event as words, in declaration order.
fn words(e: &WorkloadEvent) -> Vec<u64> {
    let mut w = vec![e.at.micros()];
    match &e.action {
        WorkloadAction::Tick {
            tick,
            cohort,
            count,
        } => w.extend([0, u64::from(*tick), u64::from(*cohort), *count]),
        WorkloadAction::Demand(d) => w.extend([
            1,
            u64::from(d.cohort),
            u64::from(d.rank),
            d.bytes,
            d.weight.to_bits(),
            d.session.micros(),
        ]),
        WorkloadAction::Kill { victims } => {
            w.push(2);
            w.extend(victims.iter().map(|v| u64::from(v.0)));
        }
        WorkloadAction::Revive { victims } => {
            w.push(3);
            w.extend(victims.iter().map(|v| u64::from(v.0)));
        }
        WorkloadAction::FlashEdge { on } => w.extend([4, u64::from(*on)]),
    }
    w
}

fn digest<'a>(events: impl IntoIterator<Item = &'a WorkloadEvent>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for e in events {
        for word in words(e) {
            for b in word.to_le_bytes() {
                h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
        // Event separator, so variable-length victim lists cannot alias.
        h = (h ^ 0xff).wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

#[test]
fn compile_matches_the_day_sorted_compiler() {
    let day = SimDuration::from_days(1);
    for (i, c) in GRID.iter().enumerate() {
        let sched = spec(c).compile(c.seed, &churnable(), day);
        assert!(!sched.is_empty(), "case {i}");
        assert_eq!(
            digest(sched.events()),
            c.digest,
            "case {i}: {:#018x}",
            digest(sched.events())
        );
    }
    let sched = boundary_spec().compile(23, &churnable(), BOUNDARY_HORIZON);
    assert_eq!(
        digest(sched.events()),
        BOUNDARY_DIGEST,
        "boundary: {:#018x}",
        digest(sched.events())
    );
}

fn assert_same(streamed: &[WorkloadEvent], compiled: &[WorkloadEvent], what: &str) {
    assert_eq!(streamed.len(), compiled.len(), "{what}");
    for (n, (s, c)) in streamed.iter().zip(compiled).enumerate() {
        assert_eq!(words(s), words(c), "{what}: event {n}");
    }
}

#[test]
fn stream_yields_compile_event_for_event() {
    let day = SimDuration::from_days(1);
    for (i, c) in GRID.iter().enumerate() {
        let spec = spec(c);
        let streamed: Vec<WorkloadEvent> = spec.stream(c.seed, &churnable(), day).collect();
        let compiled = spec.compile(c.seed, &churnable(), day);
        assert_same(&streamed, compiled.events(), &format!("case {i}"));
        assert!(
            streamed.windows(2).all(|w| w[0].at <= w[1].at),
            "case {i}: not time-sorted"
        );
    }
}

#[test]
fn a_representative_on_the_next_tick_boundary_is_carried_into_it() {
    let spec = boundary_spec();
    let tick = spec.tick.micros();
    let streamed: Vec<WorkloadEvent> = spec.stream(23, &churnable(), BOUNDARY_HORIZON).collect();
    assert_same(
        &streamed,
        spec.compile(23, &churnable(), BOUNDARY_HORIZON).events(),
        "boundary",
    );
    // The case is what it claims to be: representatives sit on tick
    // boundaries, some of them placed there by the tick before (they come
    // ahead of their own cohort's summary for the tick they landed in), and
    // the last tick keeps the ones that round onto the horizon.
    let mut carried = 0;
    let mut summarized: Vec<(u32, u32)> = Vec::new();
    for e in &streamed {
        match &e.action {
            WorkloadAction::Tick { tick, cohort, .. } => summarized.push((*cohort, *tick)),
            WorkloadAction::Demand(d) if e.at.micros() % tick == 0 => {
                let landed_in = (e.at.micros() / tick) as u32;
                if !summarized.contains(&(d.cohort, landed_in)) {
                    carried += 1;
                }
            }
            _ => {}
        }
    }
    assert!(carried > 100, "{carried} carried");
    let at_horizon = streamed.iter().filter(|e| e.at == BOUNDARY_HORIZON).count();
    assert!(at_horizon > 0);
}
