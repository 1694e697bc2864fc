//! Wall-clock performance artifact (`BENCH_perf.json`).
//!
//! The deterministic artifact (`BENCH_harness.json`) deliberately excludes
//! timings — they are the one non-reproducible field. This module is their
//! home for what no other harness measures: per-experiment wall-clock
//! percentiles from a matrix run, per-phase breakdowns, the E6 durability
//! sweep and warm-swarm visit rates, app merge throughput and summary sizes,
//! the observer's cadence overhead, and the cohort approximation's error.
//! Every other wall-clock number comes from `benchmark/` (DESIGN.md §10,
//! "Where a wall-clock number comes from"). The output is machine-readable
//! but **never** diffed in CI; it is a recorded observation, not a contract.
//! All of it is a snapshot of the last run except `trajectory`, which each
//! run appends one row to ([`trajectory_row`], [`append_trajectory`]).

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use agora::storage::erasure;
use agora_crypto::sha256_backend;
use agora_sim::{DeviceClass, NodeId, SimDuration, Simulation};

use crate::json::Json;
use crate::matrix::{MatrixRun, TrialStatus};

/// Accumulates named per-phase timings — wall clock always, simulated
/// seconds where the caller knows them — and renders the `breakdowns`
/// section of `BENCH_perf.json`. Wall-clock only, so it lives here with the
/// rest of the non-deterministic artifact and is never CI-diffed.
pub struct PhaseProfiler {
    started: Instant,
    phases: Vec<PhaseSample>,
}

struct PhaseSample {
    name: String,
    wall: Duration,
    sim_secs: Option<f64>,
}

impl Default for PhaseProfiler {
    fn default() -> Self {
        PhaseProfiler::new()
    }
}

impl PhaseProfiler {
    /// Start an empty profile; elapsed time counts from here.
    pub fn new() -> PhaseProfiler {
        PhaseProfiler {
            started: Instant::now(),
            phases: Vec::new(),
        }
    }

    /// Record a phase measured externally.
    pub fn record(&mut self, name: &str, wall: Duration, sim_secs: Option<f64>) {
        self.phases.push(PhaseSample {
            name: name.to_owned(),
            wall,
            sim_secs,
        });
    }

    /// Run `f` as a named phase, recording its wall time.
    pub fn time<R>(&mut self, name: &str, f: impl FnOnce() -> R) -> R {
        let started = Instant::now();
        let out = f();
        self.record(name, started.elapsed(), None);
        out
    }

    /// Run `f` as a named phase; the closure also reports how many
    /// simulated seconds the phase advanced, so the breakdown can show
    /// sim-time-per-wall-second for engine-bound phases.
    pub fn time_with_sim<R>(&mut self, name: &str, f: impl FnOnce() -> (R, f64)) -> R {
        let started = Instant::now();
        let (out, sim_secs) = f();
        self.record(name, started.elapsed(), Some(sim_secs));
        out
    }

    /// Render the `breakdowns` section: per-phase wall seconds (and sim
    /// seconds where known), plus the profiled total and the wall time
    /// elapsed since the profiler started (the gap is unprofiled overhead).
    pub fn to_json(&self) -> Json {
        let mut out = Json::obj();
        let mut phases = Vec::new();
        for p in &self.phases {
            let mut e = Json::obj();
            e.set("name", Json::Str(p.name.clone()));
            e.set("wall_secs", Json::Num(p.wall.as_secs_f64()));
            e.set("sim_secs", p.sim_secs.map_or(Json::Null, Json::Num));
            phases.push(e);
        }
        out.set("phases", Json::Arr(phases));
        out.set(
            "profiled_wall_secs",
            Json::Num(self.phases.iter().map(|p| p.wall.as_secs_f64()).sum()),
        );
        out.set(
            "elapsed_wall_secs",
            Json::Num(self.started.elapsed().as_secs_f64()),
        );
        out
    }
}

/// Nearest-rank percentile of an unsorted sample, in seconds.
pub(crate) fn percentile_secs(samples: &mut [Duration], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.sort_unstable();
    let rank = ((p / 100.0) * samples.len() as f64).ceil() as usize;
    samples[rank.clamp(1, samples.len()) - 1].as_secs_f64()
}

/// Per-`experiment/variant` wall-clock summary of a completed matrix run.
fn matrix_to_json(run: &MatrixRun) -> Json {
    let mut groups: BTreeMap<String, Vec<Duration>> = BTreeMap::new();
    for o in &run.outcomes {
        if o.status != TrialStatus::Ok {
            continue;
        }
        groups
            .entry(format!("{}/{}", o.spec.experiment, o.spec.variant))
            .or_default()
            .push(o.elapsed);
    }
    let mut out = Json::obj();
    out.set("wall_secs", Json::Num(run.wall.as_secs_f64()));
    out.set("threads", Json::Num(run.config.threads as f64));
    out.set("trials", Json::Num(run.outcomes.len() as f64));
    let mut experiments = Json::obj();
    for (key, mut samples) in groups {
        let mut e = Json::obj();
        e.set("trials", Json::Num(samples.len() as f64));
        e.set("p50_secs", Json::Num(percentile_secs(&mut samples, 50.0)));
        e.set("p95_secs", Json::Num(percentile_secs(&mut samples, 95.0)));
        e.set(
            "total_secs",
            Json::Num(samples.iter().map(Duration::as_secs_f64).sum()),
        );
        experiments.set(&key, e);
    }
    out.set("experiments", experiments);
    out
}

/// The E6 durability sweep, in simulated object-years per wall second: its
/// ten `(k, m, cadence)` cells of 4 000 objects over one year each.
fn durability_object_years_per_sec() -> f64 {
    const CELLS: usize = 10;
    const OBJECTS_PER_CELL: u64 = 4_000;
    median_rate(3, CELLS as u64 * OBJECTS_PER_CELL, |_| {
        let started = Instant::now();
        let m = agora::experiments::e6_metrics(std::hint::black_box(6));
        assert_eq!(std::hint::black_box(m).gauges().count(), 3 * CELLS);
        started.elapsed()
    })
}

/// Visits per wall-clock second on a warm swarm of E16's shape: 27 peers
/// behind one tracker (origin, 20 seeders, 6 gateways), the 200 000-byte
/// site (13 pieces), every seeder holding it before the clock starts; the
/// gateways then re-visit in waves, each visit a full tracker → manifest →
/// pieces → verify → announce session.
fn swarm_visits_per_sec() -> f64 {
    use agora::web::{SitePublisher, SwarmNode, VisitResult};
    const SEEDERS: usize = 20;
    const GATEWAYS: usize = 6;
    const WAVES: usize = 100;
    let mut sim = Simulation::new(16);
    let tracker = sim.add_node(SwarmNode::tracker(), DeviceClass::DatacenterServer);
    let peers: Vec<NodeId> = (0..1 + SEEDERS + GATEWAYS)
        .map(|_| sim.add_node(SwarmNode::peer(tracker), DeviceClass::PersonalComputer))
        .collect();
    let mut publisher = SitePublisher::new(b"e16-site");
    let bundle = publisher.publish(&[("index.html", vec![42u8; 200_000].as_slice())]);
    let site = publisher.site_id();
    sim.with_ctx(peers[0], |n, ctx| n.host_site(ctx, &bundle));
    sim.run_for(SimDuration::from_secs(5));
    let wave = |sim: &mut Simulation<SwarmNode>, visitors: &[NodeId]| -> usize {
        let ops: Vec<(NodeId, u64)> = visitors
            .iter()
            .filter_map(|&v| Some((v, sim.with_ctx(v, |n, ctx| n.start_visit(ctx, site))?)))
            .collect();
        sim.run_for(SimDuration::from_mins(5));
        ops.into_iter()
            .filter(|&(v, op)| {
                matches!(
                    sim.node_mut(v).take_result(op),
                    Some(VisitResult::Ok { .. })
                )
            })
            .count()
    };
    wave(&mut sim, &peers[1..=SEEDERS]);
    let gateways = &peers[1 + SEEDERS..];
    let started = Instant::now();
    let ok: usize = (0..WAVES).map(|_| wave(&mut sim, gateways)).sum();
    std::hint::black_box(ok) as f64 / started.elapsed().as_secs_f64().max(1e-9)
}

/// Median over `batches` timed batches of `iters` calls each — the median
/// absorbs scheduler preemption spikes that a single long window would
/// average in.
fn median_rate(batches: usize, iters: u64, mut batch: impl FnMut(u64) -> Duration) -> f64 {
    let mut rates: Vec<f64> = (0..batches.max(1))
        .map(|_| iters as f64 / batch(iters).as_secs_f64().max(1e-9))
        .collect();
    rates.sort_by(f64::total_cmp);
    rates[rates.len() / 2]
}

/// An E16-class trial through the real engine: one flash-crowd day of
/// population-scale demand (three-zone diurnal mix, 12× flash peak, churn
/// curve) replayed against a 48-node Kademlia overlay issuing real
/// iterative lookups under 2% loss, the full protocol stack — routing
/// tables, retries, timers — on the hot path. Returns (events dispatched,
/// wall seconds) for the day replay.
fn e16_class_run() -> (u64, f64) {
    use agora_crypto::sha256;
    use agora_dht::DhtNode;
    use agora_workload::{
        BoundedPareto, ChurnCurve, DemandModel, DiurnalCurve, FlashCrowd, LogNormalSessions,
        WorkloadDriver, WorkloadSpec, ZoneMix,
    };
    use std::rc::Rc;

    const NODES: usize = 48;
    const KEYS: usize = 32;
    let mut sim: Simulation<DhtNode> = Simulation::new(29);
    let (_, ids) = DhtNode::overlay(&mut sim, NODES, |i| {
        sha256(format!("perf-e16-{i}").as_bytes())
    });
    sim.set_loss_rate(0.02);
    // Warm routing tables, then publish the catalogue the day will fetch.
    for (i, &id) in ids.iter().enumerate() {
        let target = sha256(format!("perf-warm-{i}").as_bytes());
        sim.with_ctx(id, |n, ctx| n.start_find_node(ctx, target));
    }
    sim.run_for(SimDuration::from_secs(120));
    let payload: Rc<[u8]> = Rc::from(&b"e16-class perf payload"[..]);
    let keys: Vec<_> = (0..KEYS)
        .map(|i| sha256(format!("perf-obj-{i}").as_bytes()))
        .collect();
    for (i, &key) in keys.iter().enumerate() {
        sim.with_ctx(ids[i % NODES], |n, ctx| {
            n.start_put(ctx, key, payload.clone())
        });
    }
    sim.run_for(SimDuration::from_secs(120));

    let spec = WorkloadSpec {
        population: 100_000,
        cohorts: NODES as u32,
        actions_per_user_day: 20.0,
        model: DemandModel {
            zones: ZoneMix::global_three_region(DiurnalCurve::residential()),
            flash: Some(FlashCrowd {
                start: SimDuration::from_secs(45_900),
                ramp: SimDuration::from_mins(30),
                plateau: SimDuration::from_mins(60),
                decay: SimDuration::from_mins(30),
                peak: 12.0,
            }),
        },
        ranks: 256,
        zipf_alpha: 0.9,
        sizes: BoundedPareto::new(2_000, 1_000_000, 1.3),
        sessions: LogNormalSessions::new(300.0, 1.0),
        tick: SimDuration::from_mins(15),
        rep_cap: 2,
        churn: Some(ChurnCurve {
            offline_at_peak: 0.1,
            offline_at_trough: 0.5,
        }),
    };
    let day = SimDuration::from_days(1);
    let sched = spec.compile(31, &ids, day);
    let mut driver = WorkloadDriver::install(&sim, sched);
    let before = sim.events_processed();
    let mut rr = 0usize;
    let started = Instant::now();
    driver.run_for(&mut sim, day, &mut |sim, d| {
        let g = ids[rr % NODES];
        rr += 1;
        let key = keys[d.rank as usize % KEYS];
        sim.with_ctx(g, |n, ctx| n.start_get(ctx, key));
    });
    let wall = started.elapsed().as_secs_f64().max(1e-9);
    (sim.events_processed() - before, wall)
}

/// The `observer` section: the E16-class flash-crowd day of
/// [`e16_class_run`], unobserved (probes compiled in but dormant — the
/// per-dispatch cost is one predicted branch) and then with the OBS probe
/// installed at coarse and fine sampling cadences, its lines dropped. The
/// overhead ratio is the price of the observe plane on a real protocol
/// day.
fn observer_to_json(prof: &mut PhaseProfiler) -> Json {
    use crate::observe::{with_obs_probe, ObsOut};

    let mut out = Json::obj();
    out.set(
        "note",
        Json::Str(
            "E16-class day: dormant prober vs observer at each cadence; \
             frame counts are deterministic, wall-clock is not"
                .to_owned(),
        ),
    );
    let (_, unobserved_wall) = prof.time("microbench/observer_unobserved", e16_class_run);
    out.set("unobserved_wall_secs", Json::Num(unobserved_wall));
    for cadence_secs in [300u64, 60] {
        let cadence = SimDuration::from_secs(cadence_secs);
        let lines = ObsOut::shared(Box::new(|_| {}));
        let (events, wall) = prof.time(
            &format!("microbench/observer_cadence{cadence_secs}s"),
            || with_obs_probe(&lines, cadence, e16_class_run),
        );
        let summary = lines.borrow().summary;
        let mut point = Json::obj();
        point.set("events", Json::Num(events as f64));
        point.set("wall_secs", Json::Num(wall));
        point.set(
            "overhead_vs_unobserved",
            Json::Num(wall / unobserved_wall.max(1e-9)),
        );
        point.set("frames", Json::Num(summary.frames as f64));
        point.set("anomalies", Json::Num(summary.anomalies as f64));
        out.set(&format!("cadence{cadence_secs}s"), point);
    }
    out
}

/// Contract-merge throughput: singleton deltas folded one at a time into
/// a growing guestbook state (the subscriber's per-push hot path), in
/// ops merged per second.
fn contract_merge_ops_per_sec(deltas: u64) -> f64 {
    use agora::app::{Contract, GuestEntry, Guestbook};
    const WRITERS: u64 = 4;
    let pushes: Vec<_> = (0..deltas)
        .map(|i| {
            Guestbook::singleton_delta(
                (i % WRITERS) as u32,
                i / WRITERS + 1,
                GuestEntry {
                    body: format!("entry {i}: merge benchmark payload").into_bytes(),
                },
            )
        })
        .collect();
    let started = Instant::now();
    let mut state = Guestbook::empty();
    for d in &pushes {
        assert!(
            Guestbook::try_apply(&mut state, d),
            "each push is the next op"
        );
    }
    let secs = started.elapsed().as_secs_f64().max(1e-9);
    std::hint::black_box(&state);
    deltas as f64 / secs
}

/// Summary (version vector) bytes vs canonical state bytes for a KV doc
/// of `ops` writes from eight writers: the constant-size handshake a
/// subscriber ships to fetch exactly its missing suffix.
fn contract_summary_sizes(ops: u64) -> (u64, u64) {
    use agora::app::{kv_value_hash, Contract, KvDoc, KvWrite};
    const WRITERS: u64 = 8;
    let mut state = KvDoc::empty();
    for i in 0..ops {
        let d = KvDoc::singleton_delta(
            (i % WRITERS) as u32,
            i / WRITERS + 1,
            KvWrite {
                path: format!("page-{}.html", i % 16),
                stamp: i,
                value_hash: kv_value_hash(&i.to_le_bytes()),
                len: 1_000 + i,
                delete: false,
            },
        );
        state = KvDoc::apply(&state, &d);
    }
    (
        state.summarize().encode().len() as u64,
        state.encode(KvDoc::encode_op).len() as u64,
    )
}

/// Cohort-approximation error per policy runner: the same E16 class day
/// generated exactly — one cohort per user, the ground truth the
/// O(cohorts) aggregation approximates — and with the standard 8-cohort
/// aggregation, seed-paired at two seeds. Exact cost is wildly
/// class-dependent (a swarm visit is a whole piece-exchange session, a DHT
/// lookup is a few RPCs), so the DHT runners take a 5× larger exact
/// population — the 10k-user per-user ground-truth run — while the rest
/// stay at the base.
fn cohort_error_to_json(prof: &mut PhaseProfiler, population: u64) -> Json {
    const SEED: u64 = 20171130;
    let rel = |a: f64, b: f64| {
        if b.abs() <= f64::EPSILON {
            a - b
        } else {
            (a - b) / b
        }
    };
    let mut out = Json::obj();
    out.set("population", Json::Num(population as f64));
    out.set("cohorts_approx", Json::Num(8.0));
    for (name, run) in agora::experiments::e16_cohort_runners() {
        let pop = if name.starts_with("dht.") {
            population * 5
        } else {
            population
        };
        let label = format!("cohort_error/{name}");
        let pairs = prof.time_with_sim(&label, || {
            let pairs: Vec<_> = (0..2u64)
                .map(|s| (run(SEED + s, pop, 8), run(SEED + s, pop, pop as u32)))
                .collect();
            // Two simulated days per seed, two seeds.
            (pairs, 4.0 * 86_400.0)
        });
        let mut e = Json::obj();
        e.set("population", Json::Num(pop as f64));
        e.set("exact_peak_overload", Json::Num(pairs[0].1.peak_overload));
        e.set("approx_peak_overload", Json::Num(pairs[0].0.peak_overload));
        type OutcomeField = fn(&agora::experiments::ClassOutcome) -> f64;
        let fields: [(&str, OutcomeField); 3] = [
            ("peak_overload", |c| c.peak_overload),
            ("availability", |c| c.availability),
            ("busiest_share", |c| c.busiest_share),
        ];
        for (key, get) in fields {
            let errs: Vec<f64> = pairs.iter().map(|(a, x)| rel(get(a), get(x))).collect();
            let mean = errs.iter().sum::<f64>() / errs.len() as f64;
            let max_abs = errs.iter().map(|e| e.abs()).fold(0.0, f64::max);
            e.set(&format!("{key}_rel_err_mean"), Json::Num(mean));
            e.set(&format!("{key}_rel_err_max_abs"), Json::Num(max_abs));
        }
        out.set(name, e);
    }
    out
}

/// How many of the costliest trials a `trajectory` row names.
const TRAJECTORY_TOP_TRIALS: usize = 5;

/// One `trajectory` row: what a contributor feels of this checkout, in
/// numbers a later row can be compared with — the `commit` it was built
/// from and whether `crates/` was `dirty` (uncommitted changes: a change
/// measured against its clean parent's row; both `None` without git), the
/// host's `cores`, the matrix wall at one and at two threads, the tier-1
/// wall (`None` when it could not be taken) and the costliest trials of the
/// one-thread run, where no neighbour shares the cores.
pub fn trajectory_row(
    serial: &MatrixRun,
    two_threads: &MatrixRun,
    tier1: Option<Duration>,
    commit: Option<&str>,
    dirty: Option<bool>,
) -> Json {
    let mut row = Json::obj();
    row.set(
        "commit",
        commit.map_or(Json::Null, |c| Json::Str(c.to_owned())),
    );
    row.set("dirty", dirty.map_or(Json::Null, Json::Bool));
    row.set("cores", Json::Num(available_cores() as f64));
    row.set("matrix_wall_secs_1t", Json::Num(serial.wall.as_secs_f64()));
    row.set(
        "matrix_wall_secs_2t",
        Json::Num(two_threads.wall.as_secs_f64()),
    );
    row.set(
        "tier1_wall_secs",
        tier1.map_or(Json::Null, |d| Json::Num(d.as_secs_f64())),
    );
    let mut costliest: Vec<_> = serial.outcomes.iter().collect();
    costliest.sort_by_key(|o| std::cmp::Reverse(o.elapsed));
    let top = costliest
        .iter()
        .take(TRAJECTORY_TOP_TRIALS)
        .map(|o| {
            let mut t = Json::obj();
            let spec = &o.spec;
            let trial = format!("{}/{}#{}", spec.experiment, spec.variant, spec.seed_ordinal);
            t.set("trial", Json::Str(trial));
            t.set("secs", Json::Num(o.elapsed.as_secs_f64()));
            t
        })
        .collect();
    row.set("top_trials", Json::Arr(top));
    row
}

/// Give `artifact` the `trajectory` of the file it replaces plus `row`:
/// history is appended to, never overwritten. A previous file without a
/// `trajectory` (one written before rows existed) starts the history; one
/// whose `trajectory` is not an array is refused.
pub fn append_trajectory(
    artifact: &mut Json,
    previous: Option<&Json>,
    row: Json,
) -> Result<(), String> {
    let mut rows = match previous.and_then(|p| p.get("trajectory")) {
        None => Vec::new(),
        Some(Json::Arr(rows)) => rows.clone(),
        Some(_) => return Err("its \"trajectory\" is not an array".to_owned()),
    };
    rows.push(row);
    artifact.set("trajectory", Json::Arr(rows));
    Ok(())
}

/// Cores this process could use: every wall number depends on it.
fn available_cores() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// The base population the artifact's `cohort_error` section replays
/// exactly (one cohort per user; the DHT runners take 5× this — a
/// 10,000-user per-user ground truth). Sized so the seven exact
/// class-days stay in wall-clock budget; tests pass a smaller one to
/// [`perf_to_json`].
pub const COHORT_ERROR_POPULATION: u64 = 2_000;

/// Build the performance artifact from a completed matrix run. `prof`
/// carries the phases the caller already timed (matrix execution, report
/// rendering, …), merged with the phases measured here into the
/// `breakdowns` section; `cohort_population` is the base population of
/// `cohort_error` (the binary passes [`COHORT_ERROR_POPULATION`]).
pub fn perf_to_json(run: &MatrixRun, mut prof: PhaseProfiler, cohort_population: u64) -> Json {
    let mut root = Json::obj();
    root.set("schema", Json::Num(1.0));
    root.set(
        "note",
        Json::Str(
            "wall-clock observations; non-deterministic, never diffed in CI \
             (BENCH_harness.json is the deterministic artifact)"
                .to_owned(),
        ),
    );
    root.set("cores", Json::Num(available_cores() as f64));
    root.set("matrix", matrix_to_json(run));

    let mut micro = Json::obj();
    // Which SHA-256 and which GF(2^8) kernel every e5/e8/e9/e17 trial wall
    // above ran on, so two ledgers from different hosts are not compared
    // blind.
    micro.set("sha256_backend", Json::Str(sha256_backend().to_owned()));
    micro.set("erasure_backend", Json::Str(erasure::backend().to_owned()));
    micro.set(
        "durability_object_years_per_sec",
        Json::Num(prof.time("microbench/durability_e6", durability_object_years_per_sec)),
    );
    micro.set(
        "swarm_visits_200k_per_s",
        Json::Num(prof.time("microbench/swarm_visits_200k", swarm_visits_per_sec)),
    );

    // The app substrate's hot path: per-push delta merges into contract
    // state, and the summary a subscriber ships vs the state it spares.
    // The merge rows stay while the frozen `bm:app.merge_1024_ops_per_s`
    // still folds through the reference `apply`, not the shipped
    // `try_apply` timed here.
    let mut app = Json::obj();
    let merges = prof.time("microbench/contract_merge", || {
        [256u64, 1024, 4096]
            .iter()
            .map(|&n| {
                let mut v: Vec<f64> = (0..3).map(|_| contract_merge_ops_per_sec(n)).collect();
                v.sort_by(f64::total_cmp);
                (n, v[1])
            })
            .collect::<Vec<_>>()
    });
    for (n, ops_s) in merges {
        app.set(&format!("merge_{n}_ops_per_sec"), Json::Num(ops_s));
    }
    for ops in [128u64, 2048] {
        let (summary, state) = contract_summary_sizes(ops);
        let mut e = Json::obj();
        e.set("summary_bytes", Json::Num(summary as f64));
        e.set("state_bytes", Json::Num(state as f64));
        app.set(&format!("kv_{ops}_ops"), e);
    }
    micro.set("app", app);

    root.set(
        "cohort_error",
        cohort_error_to_json(&mut prof, cohort_population),
    );
    root.set("microbench", micro);
    root.set("observer", observer_to_json(&mut prof));
    root.set("breakdowns", prof.to_json());
    root
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix::{run_matrix, MatrixConfig};
    use crate::registry::{ExperimentDef, Variant};
    use agora_sim::Metrics;
    use std::collections::BTreeSet;

    fn tiny_run() -> MatrixRun {
        fn ok_run(seed: u64) -> Metrics {
            let mut m = Metrics::new();
            m.gauge_set("x", seed as f64);
            m
        }
        let registry = vec![ExperimentDef {
            id: "toy",
            variants: vec![Variant {
                label: "default",
                run: ok_run,
            }],
            report: |_| unreachable!("toy experiments are never rendered"),
        }];
        let cfg = MatrixConfig {
            seeds_per_variant: 3,
            threads: 1,
            ..MatrixConfig::default()
        };
        run_matrix(&registry, &cfg)
    }

    #[test]
    fn percentiles_nearest_rank() {
        let mut s: Vec<Duration> = (1..=10).map(Duration::from_secs).collect();
        assert_eq!(percentile_secs(&mut s, 50.0), 5.0);
        assert_eq!(percentile_secs(&mut s, 95.0), 10.0);
        assert_eq!(percentile_secs(&mut s, 100.0), 10.0);
        let mut empty: Vec<Duration> = Vec::new();
        assert_eq!(percentile_secs(&mut empty, 50.0), 0.0);
    }

    /// One artifact for every test that inspects it: building it runs each
    /// microbenchmark once. Toy cohort-error population — the exact (one
    /// cohort per user) runs are the expensive part.
    fn tiny_artifact() -> &'static Json {
        static ARTIFACT: std::sync::OnceLock<Json> = std::sync::OnceLock::new();
        ARTIFACT.get_or_init(|| {
            let run = tiny_run();
            let mut prof = PhaseProfiler::new();
            prof.record("matrix", run.wall, None);
            perf_to_json(&run, prof, 200)
        })
    }

    fn keys(j: &Json) -> BTreeSet<&str> {
        match j {
            Json::Obj(pairs) => pairs.iter().map(|(k, _)| k.as_str()).collect(),
            other => panic!("expected an object, got {other:?}"),
        }
    }

    #[test]
    fn perf_artifact_has_expected_shape() {
        let perf = tiny_artifact();
        // The exact key set: a row that another harness already times
        // (DESIGN.md §10) has to change this test to come back.
        assert_eq!(
            keys(perf),
            BTreeSet::from([
                "schema",
                "note",
                "cores",
                "matrix",
                "cohort_error",
                "microbench",
                "observer",
                "breakdowns",
            ])
        );
        let micro = perf.get("microbench").expect("microbench section");
        assert_eq!(
            keys(micro),
            BTreeSet::from([
                "sha256_backend",
                "erasure_backend",
                "durability_object_years_per_sec",
                "swarm_visits_200k_per_s",
                "app",
            ])
        );
        assert!(matches!(
            micro.get("sha256_backend").and_then(Json::as_str),
            Some("sha-ni" | "portable")
        ));
        assert_eq!(
            micro.get("erasure_backend").and_then(Json::as_str),
            Some(erasure::backend())
        );
        assert!(
            micro
                .get("durability_object_years_per_sec")
                .and_then(Json::as_f64)
                .expect("durability sweep rate")
                > 0.0
        );
        assert!(
            micro
                .get("swarm_visits_200k_per_s")
                .and_then(Json::as_f64)
                .expect("swarm visit rate")
                > 0.0
        );
        let app = micro.get("app").expect("app section");
        assert!(
            app.get("merge_256_ops_per_sec")
                .and_then(Json::as_f64)
                .expect("merge throughput")
                > 0.0
        );
        let kv = app.get("kv_2048_ops").expect("kv size point");
        let summary = kv
            .get("summary_bytes")
            .and_then(Json::as_f64)
            .expect("summary bytes");
        let state = kv
            .get("state_bytes")
            .and_then(Json::as_f64)
            .expect("state bytes");
        assert!(
            summary * 10.0 < state,
            "the summary must be tiny next to the state: {summary} vs {state}"
        );
        let exp = perf
            .get("matrix")
            .and_then(|m| m.get("experiments"))
            .and_then(|e| e.get("toy/default"))
            .expect("per-experiment summary");
        assert_eq!(exp.get("trials").and_then(Json::as_f64), Some(3.0));

        assert!(perf.get("cores").and_then(Json::as_f64).expect("cores") >= 1.0);
        // The E16-class day must push real traffic through the engine.
        let events = perf
            .get("observer")
            .and_then(|o| o.get("cadence300s"))
            .and_then(|c| c.get("events"))
            .and_then(Json::as_f64)
            .expect("observed e16-class day");
        assert!(events > 10_000.0, "{events}");

        // The cohort-error section covers every policy runner, with the
        // exact-mode ground truth recorded alongside the relative errors.
        let cohort = perf.get("cohort_error").expect("cohort_error section");
        assert_eq!(cohort.get("population").and_then(Json::as_f64), Some(200.0));
        for runner in [
            "dht.off",
            "dht.cache",
            "dht.shed",
            "storage.off",
            "storage.rebalance",
            "swarm.off",
            "swarm.seeders",
        ] {
            let e = cohort.get(runner).unwrap_or_else(|| panic!("{runner}"));
            assert!(
                e.get("exact_peak_overload")
                    .and_then(Json::as_f64)
                    .is_some(),
                "{runner}"
            );
            let err = e
                .get("peak_overload_rel_err_mean")
                .and_then(Json::as_f64)
                .expect("rel err");
            assert!(err.is_finite(), "{runner}: {err}");
        }
    }

    #[test]
    fn trajectory_rows_append_to_the_history_they_replace() {
        let (serial, two) = (tiny_run(), tiny_run());
        let row = trajectory_row(
            &serial,
            &two,
            Some(Duration::from_millis(1500)),
            Some("e4e78af"),
            Some(true),
        );
        assert_eq!(
            keys(&row),
            BTreeSet::from([
                "commit",
                "dirty",
                "cores",
                "matrix_wall_secs_1t",
                "matrix_wall_secs_2t",
                "tier1_wall_secs",
                "top_trials",
            ])
        );
        assert_eq!(row.get("tier1_wall_secs").and_then(Json::as_f64), Some(1.5));
        assert_eq!(row.get("commit").and_then(Json::as_str), Some("e4e78af"));
        assert_eq!(row.get("dirty"), Some(&Json::Bool(true)));
        let Some(Json::Arr(top)) = row.get("top_trials") else {
            panic!("top_trials must be an array");
        };
        assert_eq!(top.len(), 3, "the toy matrix has three trials");
        let secs: Vec<f64> = top.iter().filter_map(|t| t.get("secs")?.as_f64()).collect();
        assert!(secs.windows(2).all(|w| w[0] >= w[1]), "costliest first");
        assert!(top.iter().all(|t| t
            .get("trial")
            .and_then(Json::as_str)
            .is_some_and(|s| s.starts_with("toy/default#"))));
        let unmeasured = trajectory_row(&serial, &two, None, None, None);
        for key in ["tier1_wall_secs", "commit", "dirty"] {
            assert_eq!(unmeasured.get(key), Some(&Json::Null), "{key}");
        }

        // A file from before rows existed starts the history; a later run
        // keeps every earlier row, in order, and adds its own last.
        let rows = |j: &Json| match j.get("trajectory") {
            Some(Json::Arr(v)) => v.clone(),
            other => panic!("trajectory must be an array, got {other:?}"),
        };
        let old = Json::obj();
        let mut first = Json::obj();
        append_trajectory(&mut first, Some(&old), row.clone()).expect("appends");
        append_trajectory(&mut Json::obj(), None, row.clone()).expect("no file yet");
        let mut second = Json::obj();
        append_trajectory(&mut second, Some(&first), unmeasured.clone()).expect("appends");
        assert_eq!(rows(&first), vec![row.clone()]);
        assert_eq!(rows(&second), vec![row, unmeasured]);
        let mut bad = Json::obj();
        bad.set("trajectory", Json::Num(1.0));
        assert!(append_trajectory(&mut Json::obj(), Some(&bad), Json::obj()).is_err());
    }

    #[test]
    fn breakdowns_merge_caller_and_microbench_phases() {
        let mut prof = PhaseProfiler::new();
        prof.record("matrix", Duration::from_millis(5), None);
        prof.time_with_sim("replay", || ((), 12.5));
        let rendered = prof.to_json();
        let phases = match rendered.get("phases") {
            Some(Json::Arr(v)) => v,
            other => panic!("phases must be an array, got {other:?}"),
        };
        assert_eq!(phases.len(), 2);
        assert_eq!(phases[0].get("name").and_then(Json::as_str), Some("matrix"));
        assert_eq!(phases[0].get("sim_secs"), Some(&Json::Null));
        assert_eq!(phases[1].get("sim_secs").and_then(Json::as_f64), Some(12.5));
        assert!(
            rendered
                .get("profiled_wall_secs")
                .and_then(Json::as_f64)
                .expect("total")
                >= 0.005
        );
    }

    #[test]
    fn perf_artifact_includes_breakdowns_section() {
        let perf = tiny_artifact();
        let phases = match perf.get("breakdowns").and_then(|b| b.get("phases")) {
            Some(Json::Arr(v)) => v,
            other => panic!("breakdowns.phases must be an array, got {other:?}"),
        };
        let names: Vec<_> = phases
            .iter()
            .filter_map(|p| p.get("name").and_then(Json::as_str))
            .collect();
        assert!(names.contains(&"matrix"));
        assert!(names.contains(&"microbench/durability_e6"));
        assert!(names.contains(&"microbench/observer_unobserved"));
        assert!(names.contains(&"cohort_error/dht.off"));
    }
}
