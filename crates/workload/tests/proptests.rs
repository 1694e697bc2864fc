//! Statistical properties of the workload engine: Zipf slope, diurnal
//! volume conservation, cohort-1 exactness, and churn/chaos idempotence.
//! Always on, 64 seeded `SimRng` cases per property (a case compiles a
//! whole simulated day), no registry dependency.

use agora_sim::{Ctx, DeviceClass, NodeId, Protocol, SimDuration, SimRng, Simulation};
use agora_workload::{
    BoundedPareto, ChurnCurve, DemandModel, DiurnalCurve, LogNormalSessions, WorkloadAction,
    WorkloadDriver, WorkloadSpec, ZipfAlias, ZoneMix,
};

const CASES: u64 = 64;

struct Null;

impl Protocol for Null {
    type Msg = ();
    fn on_message(&mut self, _ctx: &mut Ctx<'_, ()>, _from: NodeId, _msg: ()) {}
}

fn spec(population: u64, cohorts: u32, rep_cap: u32, flash: bool) -> WorkloadSpec {
    WorkloadSpec {
        population,
        cohorts,
        actions_per_user_day: 20.0,
        model: DemandModel {
            zones: ZoneMix::global_three_region(DiurnalCurve::residential()),
            flash: None,
        },
        ranks: 64,
        zipf_alpha: 0.9,
        sizes: BoundedPareto::new(2_000, 1_000_000, 1.3),
        sessions: LogNormalSessions::new(300.0, 1.0),
        tick: SimDuration::from_mins(15),
        rep_cap,
        churn: if flash {
            Some(ChurnCurve {
                offline_at_peak: 0.1,
                offline_at_trough: 0.5,
            })
        } else {
            None
        },
    }
}

/// Log-log rank-frequency slope of alias-table Zipf samples tracks -α.
#[test]
fn zipf_rank_frequency_slope_matches_alpha() {
    const RANKS: usize = 512;
    const SAMPLES: usize = 200_000;
    let mut cases = SimRng::new(0x776b_6c31);
    for _ in 0..CASES {
        let (seed, alpha) = (cases.next_u64(), 0.7 + cases.f64() * 0.6);
        let zipf = ZipfAlias::new(RANKS, alpha);
        let mut rng = SimRng::new(seed);
        let mut counts = vec![0u64; RANKS];
        for _ in 0..SAMPLES {
            counts[zipf.sample(&mut rng)] += 1;
        }
        // Least-squares fit of ln(freq) vs ln(rank+1) over the well-sampled
        // head (tail ranks are too noisy at this sample size). At 200 000
        // samples every head rank is drawn, so the fit always has 64 points.
        let head: Vec<(f64, f64)> = counts
            .iter()
            .take(64)
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| (((i + 1) as f64).ln(), (c as f64).ln()))
            .collect();
        assert_eq!(head.len(), 64, "seed {seed} alpha {alpha}");
        let n = head.len() as f64;
        let (sx, sy): (f64, f64) = head
            .iter()
            .fold((0.0, 0.0), |(a, b), (x, y)| (a + x, b + y));
        let (sxx, sxy): (f64, f64) = head
            .iter()
            .fold((0.0, 0.0), |(a, b), (x, y)| (a + x * x, b + x * y));
        let slope = (n * sxy - sx * sy) / (n * sxx - sx * sx);
        assert!(
            (slope + alpha).abs() < 0.08,
            "seed {seed}: fitted slope {slope} vs -α = {}",
            -alpha
        );
    }
}

/// The diurnal zone mix conserves volume: a compiled day represents
/// population · actions_per_user_day requests (Poisson noise aside),
/// and the per-demand weights sum back to exactly that request count.
#[test]
fn diurnal_day_integrates_to_daily_volume() {
    let mut cases = SimRng::new(0x776b_6c32);
    let s = spec(200_000, 8, 2, false);
    for _ in 0..CASES {
        let seed = cases.next_u64();
        let sched = s.compile(seed, &[], SimDuration::from_days(1));
        let total = sched.total_requests();
        let expected = 200_000.0 * 20.0;
        assert!(
            (total as f64 - expected).abs() < 0.02 * expected,
            "seed {seed}: total {total} vs expected {expected}"
        );
        let weighted: f64 = sched
            .events()
            .iter()
            .filter_map(|e| match &e.action {
                WorkloadAction::Demand(d) => Some(d.weight),
                _ => None,
            })
            .sum();
        assert!(
            (weighted - total as f64).abs() / (total as f64) < 1e-9,
            "seed {seed}: weights {weighted} vs requests {total}"
        );
    }
}

/// Cohort size 1 is the exact per-node escape hatch: every demand is a
/// single user's action with weight exactly 1, and the demand count
/// equals the represented request count.
#[test]
fn cohort_of_one_is_exact() {
    let mut cases = SimRng::new(0x776b_6c33);
    for _ in 0..CASES {
        let (seed, population) = (cases.next_u64(), cases.range(4, 32));
        let s = spec(population, population as u32, u32::MAX, false);
        let sched = s.compile(seed, &[], SimDuration::from_days(1));
        assert_eq!(sched.demands().count() as u64, sched.total_requests());
        for d in sched.demands() {
            assert_eq!(d.weight, 1.0, "seed {seed} population {population}");
        }
    }
}

/// Workload churn composes with chaos-style manual kill/revive: the
/// kill/revive path is idempotent, so arbitrary interleaving leaves
/// every node revivable and never double-counts a transition.
#[test]
fn churn_and_chaos_interleaving_is_idempotent() {
    let mut cases = SimRng::new(0x776b_6c34);
    for _ in 0..CASES {
        let (seed, chaos_mask) = (cases.next_u64(), cases.next_u64() as u32);
        let mut sim: Simulation<Null> = Simulation::new(seed);
        let nodes: Vec<NodeId> = (0..16)
            .map(|_| sim.add_node(Null, DeviceClass::PersonalComputer))
            .collect();
        sim.run_for(SimDuration::from_secs(1));
        let sched = spec(20_000, 4, 2, true).compile(seed, &nodes, SimDuration::from_days(1));
        let mut driver = WorkloadDriver::install(&sim, sched);
        let base = sim.now();
        for hour in 0..24u64 {
            // Chaos interference: redundantly kill or revive a mask-chosen
            // node between workload steps.
            let victim = nodes[(hour % 16) as usize];
            if chaos_mask & (1 << hour) != 0 {
                sim.kill(victim);
                sim.kill(victim); // idempotent double-kill
            } else {
                sim.revive(victim);
                sim.revive(victim);
            }
            // No substrate: demands are dropped, only churn acts.
            driver.run_until(
                &mut sim,
                base + SimDuration::from_hours(hour + 1),
                &mut |_, _| {},
            );
        }
        for &n in &nodes {
            sim.revive(n);
            assert!(sim.is_up(n), "seed {seed}");
        }
        let m = sim.metrics();
        let down = m.counter("churn.down");
        let up = m.counter("churn.up");
        assert!(up <= down + 16, "seed {seed}: up {up} down {down}");
    }
}
