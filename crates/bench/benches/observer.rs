//! Observe-plane kernels: (1) engine event throughput with a probe sink
//! installed as the sampling cadence sweeps — the per-event cost of the
//! probes layer on a saturated queue — and (2) the observer core itself,
//! fed synthetic frames directly, measuring signal aggregation + all four
//! detector families with no engine in the loop. These are the criterion
//! counterparts of the `observer` section of BENCH_perf.json
//! (crates/harness/src/perf.rs), which measures whole observed trials and
//! the no-sink baseline.

use agora_observer::{Observer, ObserverConfig};
use agora_sim::probe::ProbeFrame;
use agora_sim::{Ctx, DeviceClass, Metrics, NodeId, Protocol, SimDuration, SimTime, Simulation};
use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use std::hint::black_box;

const NODES: u32 = 64;

/// Token-passing flood: every node launches a 64-hop token every 100 ms,
/// keeping the event queue saturated.
struct RingFlood {
    next: NodeId,
    hops: u64,
}

#[derive(Clone)]
struct Token(u32);

impl Protocol for RingFlood {
    type Msg = Token;

    fn on_message(&mut self, ctx: &mut Ctx<'_, Token>, _from: NodeId, msg: Token) {
        self.hops += 1;
        if msg.0 > 0 {
            ctx.send(self.next, Token(msg.0 - 1), 128);
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, Token>, tag: u64) {
        ctx.send(self.next, Token(64), 128);
        ctx.set_timer(SimDuration::from_millis(100), tag);
    }
}

fn flood_sim() -> Simulation<RingFlood> {
    let mut sim: Simulation<RingFlood> = Simulation::new(7);
    for i in 0..NODES {
        let id = sim.add_node(
            RingFlood {
                next: NodeId((i + 1) % NODES),
                hops: 0,
            },
            DeviceClass::DatacenterServer,
        );
        sim.with_ctx(id, |_, ctx| ctx.set_timer(SimDuration::from_millis(100), 0));
    }
    sim
}

/// Run the flood for 3 simulated seconds, optionally observed at `cadence`.
fn run_flood(cadence: Option<SimDuration>) -> u64 {
    let mut sim = flood_sim();
    let observer = cadence.map(|cadence| {
        let obs = Observer::new(
            ObserverConfig::default(),
            Box::new(|rec| drop(black_box(rec))),
        );
        sim.set_probe_sink(obs.make_sink(), cadence);
        obs
    });
    sim.run_for(SimDuration::from_secs(3));
    if let Some(obs) = observer {
        black_box(obs.summary().frames);
    }
    black_box(sim.events_processed())
}

/// Per-event probe overhead: the dormant prober (no sink installed) vs a
/// full observer at coarse-to-absurd cadences. At 100 ms the flood takes
/// 30 frames; at 1 ms, 3 000 — the gap is pure frame-sampling cost (queue
/// scan + detector step), the unprobed row is the branch-only floor.
fn bench_probe_overhead(c: &mut Criterion) {
    let mut g = c.benchmark_group("observer_ring_flood");
    g.sample_size(10);
    g.throughput(Throughput::Elements(1));
    g.bench_function("unprobed", |b| b.iter(|| run_flood(None)));
    for (label, millis) in [
        ("cadence100ms", 100u64),
        ("cadence10ms", 10),
        ("cadence1ms", 1),
    ] {
        g.bench_function(label, |b| {
            b.iter(|| run_flood(Some(SimDuration::from_millis(millis))))
        });
    }
    g.finish();
}

const KERNEL_FRAMES: u64 = 10_000;

/// The observer core alone: per-frame cost of signal aggregation, counter
/// deltas and all four detector families, with no engine in the loop. The
/// synthetic series keeps every detector active but sub-threshold (demand
/// wobbles, utilization hovers near saturation, pending drifts).
fn bench_detector_kernel(c: &mut Criterion) {
    let mut g = c.benchmark_group("observer_frames");
    g.sample_size(10);
    g.throughput(Throughput::Elements(KERNEL_FRAMES));
    g.bench_function("aggregate_and_detect", |b| {
        b.iter(|| {
            let observer = Observer::new(
                ObserverConfig::default(),
                Box::new(|rec| drop(black_box(rec))),
            );
            let mut sink = observer.make_sink();
            sink.on_sim_start(7);
            let mut metrics = Metrics::new();
            for i in 0..KERNEL_FRAMES {
                let t = SimTime::ZERO + SimDuration::from_secs(i);
                metrics.incr("net.delivered", 3);
                sink.on_signal(t, NodeId(0), "workload.demand", 100.0 + (i % 7) as f64);
                sink.on_signal(t, NodeId(0), "net.uplink_util", 0.8 + (i % 3) as f64 * 0.05);
                sink.on_signal(t, NodeId(1), "dht.lookup_secs", 0.2 + (i % 5) as f64 * 0.01);
                sink.on_signal(t, NodeId(2), "swarm.seeders", (4 + i % 4) as f64);
                let frame = ProbeFrame {
                    now: t,
                    events: i * 10,
                    pending: 100 + i % 11,
                    queue_max_depth: 4,
                    queue_max_node: NodeId(1),
                    queue_nonzero: 32,
                    uplink_max_backlog_secs: 0.5,
                    uplink_busy_nodes: 8,
                    downlink_max_backlog_secs: 0.1,
                    downlink_busy_nodes: 2,
                    metrics: &metrics,
                };
                black_box(sink.on_frame(&frame));
            }
            black_box(observer.summary().frames)
        })
    });
    g.finish();
}

criterion_group!(observer, bench_probe_overhead, bench_detector_kernel);
criterion_main!(observer);
