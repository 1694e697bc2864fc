//! Wall-clock performance artifact (`BENCH_perf.json`).
//!
//! The deterministic artifact (`BENCH_harness.json`) deliberately excludes
//! timings — they are the one non-reproducible field. This module is their
//! home: per-experiment wall-clock percentiles from a matrix run, plus
//! hot-path microbenchmarks (SHA-256 throughput, mining hash rate with and
//! without the midstate optimization, engine event throughput against a
//! reference event core). The output is machine-readable but **never**
//! diffed in CI; it is a recorded observation, not a contract.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use agora_chain::BlockHeader;
use agora_crypto::{sha256, sha256_backend, sha256_into};
use agora_sim::{
    Ctx, DeviceClass, Metrics, NodeId, Protocol, SimDuration, SimRng, SimTime, Simulation,
};

use crate::json::Json;
use crate::matrix::{run_to_json, MatrixRun, TrialStatus};

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
fn percentile_secs(samples: &mut [Duration], p: f64) -> f64 {
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

/// SHA-256 single-shot throughput over a 64 KiB buffer, in MiB/s.
fn sha256_throughput_mib_s() -> f64 {
    const LEN: usize = 64 * 1024;
    const ITERS: u64 = 256;
    let data: Vec<u8> = (0..LEN).map(|i| (i % 251) as u8).collect();
    let mut out = [0u8; 32];
    // Warm-up, and keep the result live so the work cannot be elided.
    sha256_into(&data, &mut out);
    let started = Instant::now();
    let mut acc = 0u64;
    for _ in 0..ITERS {
        sha256_into(&data, &mut out);
        acc = acc.wrapping_add(out[0] as u64);
    }
    let secs = started.elapsed().as_secs_f64().max(1e-9);
    std::hint::black_box(acc);
    (LEN as u64 * ITERS) as f64 / secs / (1024.0 * 1024.0)
}

/// The E6 durability sweep, in simulated object-years per wall second: its
/// ten `(k, m, cadence)` cells of 4 000 objects over one year each.
fn durability_object_years_per_sec() -> f64 {
    const CELLS: usize = 10;
    const OBJECTS_PER_CELL: u64 = 4_000;
    median_rate(3, CELLS as u64 * OBJECTS_PER_CELL, |_| {
        let started = Instant::now();
        let (result, _) = agora::experiments::e6_durability(std::hint::black_box(6));
        assert_eq!(std::hint::black_box(result).rows.len(), CELLS);
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

fn bench_header() -> BlockHeader {
    BlockHeader {
        height: 42,
        prev: sha256(b"bench-parent"),
        merkle_root: sha256(b"bench-merkle"),
        time_micros: 1_234_567,
        difficulty_bits: 64, // unreachable: grind never terminates early
        nonce: 0,
    }
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

/// `Json::parse` over this run's rendered deterministic artifact, in MiB/s:
/// for the default matrix that is the ≈200 KB document every baseline check
/// reads back from `BENCH_harness.json`.
fn json_parse_mib_s(run: &MatrixRun) -> f64 {
    let text = run_to_json(run).render();
    let parses_per_sec = median_rate(5, 1, |_| {
        let started = Instant::now();
        std::hint::black_box(Json::parse(std::hint::black_box(&text)))
            .expect("own artifact parses");
        started.elapsed()
    });
    parses_per_sec * text.len() as f64 / (1024.0 * 1024.0)
}

/// Hashes/sec grinding nonces through the pre-frozen midstate (the path
/// `mine_block` uses).
fn mining_midstate_hashes_per_sec(iters: u64) -> f64 {
    let header = bench_header();
    let mid = header.pow_midstate();
    median_rate(5, iters, |n| {
        let mut best = u32::MIN;
        let started = Instant::now();
        for nonce in 0..n {
            best = best.max(mid.hash_nonce(nonce).leading_zero_bits());
        }
        let elapsed = started.elapsed();
        std::hint::black_box(best);
        elapsed
    })
}

/// Hashes/sec re-encoding and re-hashing the whole header per nonce (the
/// pre-midstate behaviour, kept as the comparison baseline).
fn mining_naive_hashes_per_sec(iters: u64) -> f64 {
    let mut header = bench_header();
    median_rate(5, iters, |n| {
        let mut best = u32::MIN;
        let started = Instant::now();
        for nonce in 0..n {
            header.nonce = nonce;
            best = best.max(header.hash().leading_zero_bits());
        }
        let elapsed = started.elapsed();
        std::hint::black_box(best);
        elapsed
    })
}

/// A deliberately message-heavy protocol: every node relays each received
/// token to the next node in the ring and re-arms a keepalive timer, so the
/// run is dominated by the engine's queue + dispatch + metrics hot path.
struct RingFlood {
    next: NodeId,
    received: u64,
}

impl Protocol for RingFlood {
    type Msg = u64;

    fn on_start(&mut self, ctx: &mut Ctx<'_, u64>) {
        ctx.set_timer(SimDuration::from_millis(100), 0);
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_, u64>, _from: NodeId, msg: u64) {
        self.received += 1;
        if msg > 0 {
            ctx.send(self.next, msg - 1, 128);
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, u64>, _tag: u64) {
        ctx.send(self.next, 64, 128);
        ctx.set_timer(SimDuration::from_millis(100), 0);
    }
}

/// Events/sec through the real engine under the ring-flood workload.
fn engine_events_per_sec() -> f64 {
    const NODES: u32 = 64;
    let mut sim: Simulation<RingFlood> = Simulation::new(7);
    for i in 0..NODES {
        sim.add_node(
            RingFlood {
                next: NodeId((i + 1) % NODES),
                received: 0,
            },
            DeviceClass::DatacenterServer,
        );
    }
    // Warm-up outside the timed window.
    sim.run_for(SimDuration::from_secs(1));
    let before = sim.events_processed();
    let started = Instant::now();
    sim.run_for(SimDuration::from_secs(20));
    let secs = started.elapsed().as_secs_f64().max(1e-9);
    (sim.events_processed() - before) as f64 / secs
}

/// An E16-class trial through the real engine: one flash-crowd day of
/// population-scale demand (three-zone diurnal mix, 12× flash peak, churn
/// curve) replayed against a 48-node Kademlia overlay issuing real
/// iterative lookups under 2% loss. Unlike the synthetic ring flood, the
/// full protocol stack — routing tables, retries, timers — sits on the hot
/// path. Returns (events/s, events dispatched, wall seconds) for the day
/// replay.
fn e16_class_run() -> (f64, u64, f64) {
    use agora_crypto::sha256;
    use agora_dht::{Contact, DhtConfig, DhtNode};
    use agora_workload::{
        BoundedPareto, ChurnCurve, DemandModel, DiurnalCurve, FlashCrowd, LogNormalSessions,
        WorkloadDriver, WorkloadSpec, ZoneMix,
    };
    use std::rc::Rc;

    const NODES: usize = 48;
    const KEYS: usize = 32;
    let mut sim: Simulation<DhtNode> = Simulation::new(29);
    let boot_key = sha256(b"perf-e16-0");
    let ids: Vec<NodeId> = (0..NODES)
        .map(|i| {
            let key = sha256(format!("perf-e16-{i}").as_bytes());
            let bootstrap = if i == 0 {
                vec![]
            } else {
                vec![Contact {
                    key: boot_key,
                    addr: NodeId(0),
                }]
            };
            sim.add_node(
                DhtNode::new(key, DhtConfig::default(), bootstrap),
                DeviceClass::PersonalComputer,
            )
        })
        .collect();
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
    let events = sim.events_processed() - before;
    (events as f64 / wall, events, wall)
}

/// The `observer` section: the E16-class flash-crowd day of
/// [`e16_class_run`], unobserved (probes compiled in but dormant — the
/// per-dispatch cost is one predicted branch) and then with a full
/// observer installed at coarse and fine sampling cadences. The overhead
/// ratio is the price of the observe plane on a real protocol day.
fn observer_to_json(prof: &mut PhaseProfiler) -> Json {
    use agora_observer::{Observer, ObserverConfig};

    let mut out = Json::obj();
    out.set(
        "note",
        Json::Str(
            "E16-class day: dormant prober vs observer at each cadence; \
             frame counts are deterministic, wall-clock is not"
                .to_owned(),
        ),
    );
    let (_, _, unobserved_wall) = prof.time("microbench/observer_unobserved", e16_class_run);
    out.set("unobserved_wall_secs", Json::Num(unobserved_wall));
    for cadence_secs in [300u64, 60] {
        let obs = Observer::new(
            ObserverConfig {
                cadence: SimDuration::from_secs(cadence_secs),
                ..ObserverConfig::default()
            },
            Box::new(drop),
        );
        let handle = obs.clone();
        let cadence = handle.cadence();
        let (_, events, wall) = prof.time(
            &format!("microbench/observer_cadence{cadence_secs}s"),
            || {
                agora_sim::probe::with_thread_probe(
                    move || (handle.make_sink(), cadence),
                    e16_class_run,
                )
            },
        );
        let summary = obs.summary();
        let mut point = Json::obj();
        point.set("events", Json::Num(events as f64));
        point.set("wall_secs", Json::Num(wall));
        point.set(
            "overhead_vs_unobserved",
            Json::Num(wall / unobserved_wall.max(1e-9)),
        );
        point.set("frames", Json::Num(summary.frames as f64));
        point.set(
            "anomalies",
            Json::Num(summary.anomalies.values().sum::<u64>() as f64),
        );
        out.set(&format!("cadence{cadence_secs}s"), point);
    }
    out
}

/// Reference event core modeling the pre-optimization engine layout: the
/// queue entry keeps `(SimTime, u64)` as separate fields compared with a
/// two-step `Ord`, and every dispatched event bumps counters through
/// string-keyed `BTreeMap` lookups. The synthetic workload (one pop, one
/// push, three counter bumps per event) matches the per-event overhead the
/// real dispatch loop pays around protocol code.
fn reference_events_per_sec(events: u64) -> f64 {
    use std::cmp::Ordering;
    use std::collections::BinaryHeap;

    struct RefEvent {
        at: SimTime,
        seq: u64,
        payload: u64,
    }
    impl PartialEq for RefEvent {
        fn eq(&self, other: &Self) -> bool {
            self.at == other.at && self.seq == other.seq
        }
    }
    impl Eq for RefEvent {}
    impl PartialOrd for RefEvent {
        fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
            Some(self.cmp(other))
        }
    }
    impl Ord for RefEvent {
        fn cmp(&self, other: &Self) -> Ordering {
            other
                .at
                .cmp(&self.at)
                .then_with(|| other.seq.cmp(&self.seq))
        }
    }

    let mut queue: BinaryHeap<RefEvent> = BinaryHeap::new();
    let mut counters: BTreeMap<String, u64> = BTreeMap::new();
    let mut seq = 0u64;
    for i in 0..64u64 {
        queue.push(RefEvent {
            at: SimTime(i),
            seq: i,
            payload: i,
        });
        seq = seq.max(i);
    }
    let started = Instant::now();
    for _ in 0..events {
        let ev = queue.pop().expect("queue never drains");
        *counters.entry("net.delivered".to_owned()).or_insert(0) += 1;
        *counters.entry("net.sent".to_owned()).or_insert(0) += 1;
        *counters.entry("net.sent_bytes".to_owned()).or_insert(0) += 128;
        seq += 1;
        queue.push(RefEvent {
            at: ev.at + SimDuration::from_micros(1 + (ev.payload & 7)),
            seq,
            payload: ev.payload.wrapping_mul(6364136223846793005).wrapping_add(1),
        });
    }
    let secs = started.elapsed().as_secs_f64().max(1e-9);
    std::hint::black_box(counters.len());
    events as f64 / secs
}

/// Packed-key + handle-based counterpart of [`reference_events_per_sec`]:
/// the same synthetic workload driven through the optimized layout (one
/// `u128` key comparison, slot-indexed counters), isolating the event-core
/// data-structure change from protocol logic.
fn packed_events_per_sec(events: u64) -> f64 {
    use std::cmp::Ordering;
    use std::collections::BinaryHeap;

    struct PackedEvent {
        key: u128,
        payload: u64,
    }
    impl PartialEq for PackedEvent {
        fn eq(&self, other: &Self) -> bool {
            self.key == other.key
        }
    }
    impl Eq for PackedEvent {}
    impl PartialOrd for PackedEvent {
        fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
            Some(self.cmp(other))
        }
    }
    impl Ord for PackedEvent {
        fn cmp(&self, other: &Self) -> Ordering {
            other.key.cmp(&self.key)
        }
    }
    fn pack(at: SimTime, seq: u64) -> u128 {
        ((at.micros() as u128) << 64) | seq as u128
    }

    let mut queue: BinaryHeap<PackedEvent> = BinaryHeap::new();
    let mut counters = [0u64; 3];
    let mut seq = 0u64;
    for i in 0..64u64 {
        queue.push(PackedEvent {
            key: pack(SimTime(i), i),
            payload: i,
        });
        seq = seq.max(i);
    }
    let started = Instant::now();
    for _ in 0..events {
        let ev = queue.pop().expect("queue never drains");
        counters[0] += 1;
        counters[1] += 1;
        counters[2] += 128;
        seq += 1;
        let at = SimTime((ev.key >> 64) as u64) + SimDuration::from_micros(1 + (ev.payload & 7));
        queue.push(PackedEvent {
            key: pack(at, seq),
            payload: ev.payload.wrapping_mul(6364136223846793005).wrapping_add(1),
        });
    }
    let secs = started.elapsed().as_secs_f64().max(1e-9);
    std::hint::black_box(counters);
    events as f64 / secs
}

/// Reed–Solomon encode throughput for one (k, m) point, in MiB of source
/// data per second.
fn erasure_encode_mib_s(k: usize, m: usize) -> f64 {
    const LEN: usize = 256 * 1024;
    const ITERS: u64 = 16;
    let rs = agora::storage::ReedSolomon::new(k, m).expect("valid (k, m)");
    let data: Vec<u8> = (0..LEN).map(|i| (i % 249) as u8).collect();
    // Warm-up and keep the result live.
    std::hint::black_box(rs.encode(&data));
    let started = Instant::now();
    let mut acc = 0usize;
    for _ in 0..ITERS {
        let shards = rs.encode(&data);
        acc = acc.wrapping_add(shards[k + m - 1][0] as usize);
    }
    let secs = started.elapsed().as_secs_f64().max(1e-9);
    std::hint::black_box(acc);
    (LEN as u64 * ITERS) as f64 / secs / (1024.0 * 1024.0)
}

/// Reed–Solomon reconstruction throughput with `erasures` data shards lost
/// (forcing the matrix-inversion path when `erasures > 0`), in MiB of
/// recovered source data per second.
fn erasure_reconstruct_mib_s(k: usize, m: usize, erasures: usize) -> f64 {
    const LEN: usize = 256 * 1024;
    const ITERS: u64 = 16;
    assert!(erasures <= m);
    let rs = agora::storage::ReedSolomon::new(k, m).expect("valid (k, m)");
    let data: Vec<u8> = (0..LEN).map(|i| (i % 249) as u8).collect();
    let shards = rs.encode(&data);
    // Drop the first `erasures` data shards, substitute parity.
    let survivors: Vec<(usize, &[u8])> = (erasures..k + m)
        .take(k)
        .map(|i| (i, shards[i].as_slice()))
        .collect();
    std::hint::black_box(rs.reconstruct(&survivors, LEN).expect("reconstructs"));
    let started = Instant::now();
    let mut acc = 0usize;
    for _ in 0..ITERS {
        let out = rs.reconstruct(&survivors, LEN).expect("reconstructs");
        acc = acc.wrapping_add(out[LEN - 1] as usize);
    }
    let secs = started.elapsed().as_secs_f64().max(1e-9);
    std::hint::black_box(acc);
    (LEN as u64 * ITERS) as f64 / secs / (1024.0 * 1024.0)
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
        KvDoc::summarize(&state).encode().len() as u64,
        KvDoc::encode_state(&state).len() as u64,
    )
}

/// Zipf sampling throughput through the O(1) Vose alias table.
fn zipf_alias_samples_per_sec(samples: u64) -> f64 {
    let zipf = agora_workload::ZipfAlias::new(10_000, 0.9);
    let mut rng = SimRng::new(11);
    let mut acc = 0usize;
    let started = Instant::now();
    for _ in 0..samples {
        acc = acc.wrapping_add(zipf.sample(&mut rng));
    }
    let secs = started.elapsed().as_secs_f64().max(1e-9);
    std::hint::black_box(acc);
    samples as f64 / secs
}

/// The O(log n) cumulative-table reference for the same distribution.
fn zipf_cdf_samples_per_sec(samples: u64) -> f64 {
    let table = agora_workload::zipf_reference(10_000, 0.9);
    let mut rng = SimRng::new(11);
    let mut acc = 0usize;
    let started = Instant::now();
    for _ in 0..samples {
        acc = acc.wrapping_add(table.sample(&mut rng));
    }
    let secs = started.elapsed().as_secs_f64().max(1e-9);
    std::hint::black_box(acc);
    samples as f64 / secs
}

/// Idle protocol for replaying a workload schedule with no substrate cost:
/// what's left is the engine + driver overhead the cohort layer must keep
/// population-independent.
struct Idle;

impl Protocol for Idle {
    type Msg = ();
    fn on_message(&mut self, _ctx: &mut Ctx<'_, ()>, _from: NodeId, _msg: ()) {}
}

/// Compile one diurnal day for `population` users aggregated into 64
/// cohorts and replay it against an idle 64-node simulation. Returns
/// (schedule events per wall second, schedule event count, represented
/// population-scale requests) — the last two are the O(cohorts) claim in
/// numbers: requests grow with population, events do not.
fn workload_day_throughput(population: u64) -> (f64, u64, u64) {
    use agora_workload::{
        BoundedPareto, ChurnCurve, DemandModel, DiurnalCurve, LogNormalSessions, WorkloadDriver,
        WorkloadSpec, ZoneMix,
    };
    let spec = WorkloadSpec {
        population,
        cohorts: 64,
        actions_per_user_day: 20.0,
        model: DemandModel {
            zones: ZoneMix::global_three_region(DiurnalCurve::residential()),
            flash: None,
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
    let mut sim: Simulation<Idle> = Simulation::new(17);
    let nodes: Vec<NodeId> = (0..64)
        .map(|_| sim.add_node(Idle, DeviceClass::PersonalComputer))
        .collect();
    let day = SimDuration::from_days(1);
    let started = Instant::now();
    let sched = spec.compile(17, &nodes, day);
    let events = sched.len() as u64;
    let requests = sched.total_requests();
    let mut driver = WorkloadDriver::install(&sim, sched);
    driver.run_for(&mut sim, day, &mut |_, d| {
        std::hint::black_box(d.bytes);
    });
    let secs = started.elapsed().as_secs_f64().max(1e-9);
    (events as f64 / secs, events, requests)
}

/// Throughput of the policy decision kernel: a synthetic frame stream
/// with a sinusoidal utilization signal sweeping through the engage and
/// release bands, driven through a full `PolicyHub` sink — the per-frame
/// cost every policy-on simulation pays at probe cadence.
fn policy_frames_per_sec(frames: u64) -> f64 {
    use agora_policy::{PolicyConfig, PolicyHub, SIG_UPLINK_UTIL};
    use agora_sim::probe::ProbeFrame;
    let hub = PolicyHub::new(PolicyConfig::default());
    let handle = hub.handle();
    let mut sink = hub.into_sink();
    sink.on_sim_start(7);
    let metrics = Metrics::new();
    let started = Instant::now();
    for i in 0..frames {
        let now = SimTime::ZERO + SimDuration::from_secs(300 * i);
        let util = 0.75 + 0.75 * ((i as f64) * 0.05).sin();
        sink.on_signal(now, NodeId(0), SIG_UPLINK_UTIL, util);
        let frame = ProbeFrame {
            now,
            events: i,
            pending: 0,
            queue_max_depth: 0,
            queue_max_node: NodeId(0),
            queue_nonzero: 0,
            uplink_max_backlog_secs: 0.0,
            uplink_busy_nodes: 0,
            downlink_max_backlog_secs: 0.0,
            downlink_busy_nodes: 0,
            metrics: &metrics,
        };
        std::hint::black_box(sink.on_frame(&frame));
    }
    std::hint::black_box(handle.level());
    frames as f64 / started.elapsed().as_secs_f64().max(1e-9)
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

/// One of `e16_cohort_runners` by name.
fn cohort_runner(name: &str) -> agora::experiments::CohortRunner {
    agora::experiments::e16_cohort_runners()
        .into_iter()
        .find(|(n, _)| *n == name)
        .expect("known runner")
        .1
}

/// The exact per-user day (`cohorts == population`) on its own: the
/// expensive half of every `cohort_error` pair and what the benchmark's
/// `exact_users` workload times. One serial day per class — the DHT day at
/// 5× the base population, as in `cohort_error` — with the wall of
/// generating that day's schedule (`compile`) split out, since at one
/// cohort per user generation is itself O(users).
fn exact_day_to_json(prof: &mut PhaseProfiler, population: u64) -> Json {
    const SEED: u64 = 20171130;
    let churnable: Vec<NodeId> = (0..48).map(NodeId).collect();
    let mut out = Json::obj();
    for (name, pop) in [("dht.off", population * 5), ("storage.off", population)] {
        let run = cohort_runner(name);
        let (wall, compile) = prof.time_with_sim(&format!("exact_day/{name}"), || {
            let t0 = Instant::now();
            std::hint::black_box(run(SEED, pop, pop as u32));
            let wall = t0.elapsed().as_secs_f64();
            let spec = agora::experiments::exp_workload::e16_spec_cohorts(pop, pop as u32);
            let t1 = Instant::now();
            std::hint::black_box(
                spec.compile(SEED, &churnable, SimDuration::from_days(1))
                    .len(),
            );
            ((wall, t1.elapsed().as_secs_f64()), 86_400.0)
        });
        let mut e = Json::obj();
        e.set("population", Json::Num(pop as f64));
        e.set("wall_secs", Json::Num(wall));
        e.set("compile_wall_secs", Json::Num(compile));
        out.set(name, e);
    }
    out
}

/// The base population the artifact's `cohort_error` section replays
/// exactly (one cohort per user; the DHT runners take 5× this — a
/// 10,000-user per-user ground truth). Sized so the seven exact
/// class-days stay in wall-clock budget; tests use a smaller population
/// through [`perf_to_json_scaled`].
pub const COHORT_ERROR_POPULATION: u64 = 2_000;

/// Build the full performance artifact from a completed matrix run.
pub fn perf_to_json(run: &MatrixRun) -> Json {
    perf_to_json_with(run, PhaseProfiler::new())
}

/// [`perf_to_json`] with a caller-provided profiler: phases the caller
/// already timed (matrix execution, report rendering, …) are merged with
/// the microbenchmark phases measured here into the `breakdowns` section.
pub fn perf_to_json_with(run: &MatrixRun, prof: PhaseProfiler) -> Json {
    perf_to_json_scaled(run, prof, COHORT_ERROR_POPULATION)
}

/// [`perf_to_json_with`] with the cohort-error population as a knob, so
/// the artifact shape can be exercised at toy scale in tests.
pub fn perf_to_json_scaled(
    run: &MatrixRun,
    mut prof: PhaseProfiler,
    cohort_population: u64,
) -> Json {
    const MINING_ITERS: u64 = 200_000;
    const CORE_EVENTS: u64 = 2_000_000;

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
    // Cores this process could use: every wall number below depends on it.
    root.set(
        "cores",
        Json::Num(
            std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get) as f64,
        ),
    );
    root.set("matrix", matrix_to_json(run));

    let mut micro = Json::obj();
    // Which SHA-256 the hash-bound rows below (and every e5/e8/e9/e17 trial
    // wall) ran on, so two ledgers from different hosts are not compared
    // blind.
    micro.set("sha256_backend", Json::Str(sha256_backend().to_owned()));
    micro.set(
        "sha256_throughput_mib_s",
        Json::Num(prof.time("microbench/sha256", sha256_throughput_mib_s)),
    );
    micro.set(
        "durability_object_years_per_sec",
        Json::Num(prof.time("microbench/durability_e6", durability_object_years_per_sec)),
    );
    micro.set(
        "swarm_visits_200k_per_s",
        Json::Num(prof.time("microbench/swarm_visits_200k", swarm_visits_per_sec)),
    );

    micro.set(
        "json_parse_mib_s",
        Json::Num(prof.time("microbench/json_parse", || json_parse_mib_s(run))),
    );

    let mut mining = Json::obj();
    let (midstate, naive) = prof.time("microbench/mining", || {
        (
            mining_midstate_hashes_per_sec(MINING_ITERS),
            mining_naive_hashes_per_sec(MINING_ITERS),
        )
    });
    mining.set("midstate_hashes_per_sec", Json::Num(midstate));
    mining.set("naive_hashes_per_sec", Json::Num(naive));
    mining.set("speedup", Json::Num(midstate / naive.max(1e-9)));
    micro.set("mining", mining);

    let mut engine = Json::obj();
    let median_of = |f: &dyn Fn() -> f64| {
        let mut v: Vec<f64> = (0..3).map(|_| f()).collect();
        v.sort_by(f64::total_cmp);
        v[1]
    };
    let (packed, reference) = prof.time("microbench/event_core", || {
        (
            median_of(&|| packed_events_per_sec(CORE_EVENTS)),
            median_of(&|| reference_events_per_sec(CORE_EVENTS)),
        )
    });
    // The ring-flood run advances 1 s warm-up + 20 s timed of simulated
    // time, so this phase gets a meaningful sim_secs in the breakdown.
    let ring = prof.time_with_sim("microbench/engine_ring_flood", || {
        (engine_events_per_sec(), 21.0)
    });
    engine.set("events_per_sec", Json::Num(ring));
    // The same engine under a full protocol stack: the E16-class day.
    let (e16_eps, e16_events, _) = prof.time_with_sim("microbench/engine_e16_class", || {
        (e16_class_run(), 86_400.0)
    });
    engine.set("e16_class_events_per_sec", Json::Num(e16_eps));
    engine.set("e16_class_events", Json::Num(e16_events as f64));
    engine.set("core_packed_events_per_sec", Json::Num(packed));
    engine.set("core_reference_events_per_sec", Json::Num(reference));
    engine.set("core_speedup", Json::Num(packed / reference.max(1e-9)));
    micro.set("engine", engine);

    const ZIPF_SAMPLES: u64 = 2_000_000;
    let mut workload = Json::obj();
    let (alias, cdf) = prof.time("microbench/zipf_sampling", || {
        (
            median_of(&|| zipf_alias_samples_per_sec(ZIPF_SAMPLES)),
            median_of(&|| zipf_cdf_samples_per_sec(ZIPF_SAMPLES)),
        )
    });
    workload.set("zipf_alias_samples_per_sec", Json::Num(alias));
    workload.set("zipf_cdf_samples_per_sec", Json::Num(cdf));
    workload.set("zipf_alias_speedup", Json::Num(alias / cdf.max(1e-9)));
    // One simulated day at 1M users, cohorted: the driver replays the whole
    // population's demand as O(cohorts) events (86 400 sim-seconds).
    let (day_eps, day_events, day_requests) = prof
        .time_with_sim("microbench/workload_day_1m", || {
            (workload_day_throughput(1_000_000), 86_400.0)
        });
    workload.set("day_1m_events_per_sec", Json::Num(day_eps));
    workload.set("day_1m_schedule_events", Json::Num(day_events as f64));
    workload.set(
        "day_1m_represented_requests",
        Json::Num(day_requests as f64),
    );
    micro.set("workload", workload);

    // The storage market's hot path: RS encode on placement, reconstruct on
    // repair. One entry per codec point E17 sweeps, plus the replication
    // special case for scale.
    let mut market = Json::obj();
    let points: Vec<(usize, usize)> = vec![(4, 2), (8, 4), (1, 2)];
    let codecs = prof.time("microbench/erasure", || {
        points
            .iter()
            .map(|&(k, m)| {
                (
                    k,
                    m,
                    erasure_encode_mib_s(k, m),
                    erasure_reconstruct_mib_s(k, m, m.min(k)),
                )
            })
            .collect::<Vec<_>>()
    });
    for (k, m, enc, rec) in codecs {
        let mut e = Json::obj();
        e.set("encode_mib_s", Json::Num(enc));
        e.set("reconstruct_mib_s", Json::Num(rec));
        e.set("overhead", Json::Num((k + m) as f64 / k as f64));
        market.set(&format!("rs{k}_{m}"), e);
    }
    micro.set("market", market);

    // The app substrate's hot path: per-push delta merges into contract
    // state, and the summary a subscriber ships vs the state it spares.
    let mut app = Json::obj();
    let merges = prof.time("microbench/contract_merge", || {
        [256u64, 1024, 4096]
            .iter()
            .map(|&n| (n, median_of(&|| contract_merge_ops_per_sec(n))))
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

    // The reactive-control plane: decision-kernel throughput plus the
    // wall-clock overhead a policy-on class day pays over policy-off.
    const POLICY_FRAMES: u64 = 1_000_000;
    let mut policy = Json::obj();
    let pol_fps = prof.time("microbench/policy_kernel", || {
        median_of(&|| policy_frames_per_sec(POLICY_FRAMES))
    });
    policy.set("frames_per_sec", Json::Num(pol_fps));
    let (off_wall, on_wall) = prof.time_with_sim("microbench/policy_day_overhead", || {
        let t0 = Instant::now();
        std::hint::black_box(cohort_runner("dht.off")(20171130, 1_000_000, 8));
        let off_wall = t0.elapsed().as_secs_f64();
        let t1 = Instant::now();
        std::hint::black_box(cohort_runner("dht.shed")(20171130, 1_000_000, 8));
        ((off_wall, t1.elapsed().as_secs_f64()), 2.0 * 86_400.0)
    });
    policy.set("e16_dht_day_off_secs", Json::Num(off_wall));
    policy.set("e16_dht_day_shed_secs", Json::Num(on_wall));
    policy.set(
        "policy_on_overhead",
        Json::Num(on_wall / off_wall.max(1e-9)),
    );
    root.set("policy", policy);

    root.set(
        "cohort_error",
        cohort_error_to_json(&mut prof, cohort_population),
    );
    root.set("exact_day", exact_day_to_json(&mut prof, cohort_population));

    root.set("microbench", micro);
    root.set("observer", observer_to_json(&mut prof));
    root.set("breakdowns", prof.to_json());
    root
}

/// The smoke-test hash doubles as a determinism anchor for the midstate path.
#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix::{run_matrix, MatrixConfig};
    use crate::registry::{ExperimentDef, Variant};
    use agora_sim::Metrics;

    fn tiny_run() -> MatrixRun {
        fn ok_run(seed: u64) -> Metrics {
            let mut m = Metrics::new();
            m.gauge_set("x", seed as f64);
            m
        }
        let registry = vec![ExperimentDef {
            id: "toy",
            title: "toy",
            variants: vec![Variant {
                label: "default",
                run: ok_run,
            }],
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
            perf_to_json_scaled(&run, prof, 200)
        })
    }

    #[test]
    fn perf_artifact_has_expected_shape() {
        let perf = tiny_artifact();
        assert!(perf.get("matrix").is_some());
        let micro = perf.get("microbench").expect("microbench section");
        assert!(matches!(
            micro.get("sha256_backend").and_then(Json::as_str),
            Some("sha-ni" | "portable")
        ));
        assert!(
            micro
                .get("sha256_throughput_mib_s")
                .and_then(Json::as_f64)
                .expect("throughput")
                > 0.0
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
        assert!(
            micro
                .get("json_parse_mib_s")
                .and_then(Json::as_f64)
                .expect("artifact parse throughput")
                > 0.0
        );
        let mining = micro.get("mining").expect("mining section");
        let speedup = mining
            .get("speedup")
            .and_then(Json::as_f64)
            .expect("speedup");
        assert!(speedup > 0.0);
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
        let workload = micro.get("workload").expect("workload section");
        assert!(
            workload
                .get("zipf_alias_samples_per_sec")
                .and_then(Json::as_f64)
                .expect("alias throughput")
                > 0.0
        );
        // The 1M-user day must be cohort-priced: far fewer schedule events
        // than represented requests.
        let events = workload
            .get("day_1m_schedule_events")
            .and_then(Json::as_f64)
            .expect("schedule events");
        let requests = workload
            .get("day_1m_represented_requests")
            .and_then(Json::as_f64)
            .expect("requests");
        assert!(
            events > 0.0 && requests > 100.0 * events,
            "{events} {requests}"
        );
        let market = micro.get("market").expect("market section");
        for codec in ["rs4_2", "rs8_4", "rs1_2"] {
            let point = market.get(codec).expect(codec);
            assert!(
                point
                    .get("encode_mib_s")
                    .and_then(Json::as_f64)
                    .expect("encode throughput")
                    > 0.0,
                "{codec}"
            );
            assert!(
                point
                    .get("reconstruct_mib_s")
                    .and_then(Json::as_f64)
                    .expect("reconstruct throughput")
                    > 0.0,
                "{codec}"
            );
        }
        let exp = perf
            .get("matrix")
            .and_then(|m| m.get("experiments"))
            .and_then(|e| e.get("toy/default"))
            .expect("per-experiment summary");
        assert_eq!(exp.get("trials").and_then(Json::as_f64), Some(3.0));

        assert!(perf.get("cores").and_then(Json::as_f64).expect("cores") >= 1.0);
        // The E16-class day must push real traffic through the engine.
        let engine = micro.get("engine").expect("engine section");
        let e16 = |key: &str| {
            engine
                .get(key)
                .and_then(Json::as_f64)
                .expect("e16-class day")
        };
        assert!(e16("e16_class_events_per_sec") > 0.0);
        assert!(e16("e16_class_events") > 10_000.0);

        // The policy section reports the control plane's costs.
        let policy = perf.get("policy").expect("policy section");
        assert!(
            policy
                .get("frames_per_sec")
                .and_then(Json::as_f64)
                .expect("kernel throughput")
                > 0.0
        );
        assert!(
            policy
                .get("policy_on_overhead")
                .and_then(Json::as_f64)
                .expect("day overhead")
                > 0.0
        );

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

        // The exact per-user day rows: one per class, compile split out.
        let exact = perf.get("exact_day").expect("exact_day section");
        for (runner, pop) in [("dht.off", 1_000.0), ("storage.off", 200.0)] {
            let e = exact.get(runner).unwrap_or_else(|| panic!("{runner}"));
            assert_eq!(e.get("population").and_then(Json::as_f64), Some(pop));
            let wall = e.get("wall_secs").and_then(Json::as_f64).expect("wall");
            let compile = e
                .get("compile_wall_secs")
                .and_then(Json::as_f64)
                .expect("compile wall");
            assert!(
                compile > 0.0 && compile < wall,
                "{runner}: {compile} of {wall}"
            );
        }
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
        assert!(names.contains(&"microbench/event_core"));
        assert!(names.contains(&"microbench/engine_ring_flood"));
    }

    #[test]
    fn midstate_and_naive_grind_agree() {
        // The two mining benches must measure the *same* function of nonce.
        let header = bench_header();
        let mid = header.pow_midstate();
        let mut h = header.clone();
        for nonce in [0u64, 1, 1000, u64::MAX] {
            h.nonce = nonce;
            assert_eq!(mid.hash_nonce(nonce), h.hash());
        }
    }

    #[test]
    fn engine_microbench_reports_positive_rate() {
        // Tiny event counts — this is a correctness smoke test, not a timing.
        assert!(reference_events_per_sec(10_000) > 0.0);
        assert!(packed_events_per_sec(10_000) > 0.0);
    }
}
