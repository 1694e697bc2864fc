//! One benchmark run: set-up and a gated warm-up pass, then timed passes
//! (`--trace 0`) or one timed and one traced pass plus the layer probes
//! (`--trace 1`). Closed loop, one client: the next op starts when the
//! previous one returns.
//!
//! Every time reported is in reference seconds (`reference.rs`): the wall
//! time of a measured span over the reference kernel's slowdown beside it.

use std::collections::BTreeMap;
use std::fs;
use std::hint::black_box;
use std::io::Write as _;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

use agora_harness::{
    diff_json, pool, read_json_file, run_to_json, Json, MatrixConfig, MatrixRun, TrialOutcome,
    TrialSpec, TrialStatus,
};
use agora_sim::trace::with_thread_sink;

use crate::engine_core as ec;
use crate::names::{END_TO_END, OP_TIME_METRICS, PER_LAYER};
use crate::ops::{self, Op};
use crate::sink::{CountingSink, Counts};
use crate::spans::Spans;
use crate::{probes, procfs, stats};

/// Tolerance of the harness's own baseline gate.
const BASELINE_TOLERANCE: f64 = 1e-9;
const BASELINE_PATH: &str = "BENCH_harness.json";
const OUT_DIR: &str = "benchmark/out";
/// Timed passes per run, however short `--seconds` is.
const MIN_PASSES: usize = 5;
/// Repetitions of the cheap part of set-up; `setup_s` takes their median.
const SETUPS: usize = 3;
/// Keepalive rounds of the sharded ring that yields the shard statistics.
const SHARDED_RING_ROUNDS: u32 = 40;

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// Ops run and ops that failed a check, over the whole run.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
}

/// One pass over an op list.
struct Pass {
    span: usize,
    /// Per op: its measured span.
    op_spans: Vec<usize>,
    /// User + system CPU seconds of the whole pass.
    cpu: f64,
    /// Per op: its row of the harness artifact (`run_to_json`).
    rows: Vec<Json>,
    /// Per op: the panic message, if it panicked.
    panics: Vec<Option<String>>,
    /// Per op: events dispatched, when a counting sink was installed.
    dispatched: Vec<u64>,
    /// The span that rendered `rows`.
    render_span: usize,
}

impl Pass {
    /// Reference seconds of op `i`.
    fn op_secs(&self, spans: &Spans, i: usize) -> f64 {
        spans.ref_secs(self.op_spans[i])
    }

    /// Reference seconds of all ops.
    fn ops_secs(&self, spans: &Spans) -> f64 {
        self.op_spans.iter().map(|&id| spans.ref_secs(id)).sum()
    }
}

/// The `trials` rows of a harness artifact (the baseline, or a pass's).
fn trials(artifact: Json) -> Option<Vec<Json>> {
    let Json::Obj(pairs) = artifact else {
        return None;
    };
    pairs.into_iter().find_map(|(key, value)| match value {
        Json::Arr(rows) if key == "trials" => Some(rows),
        _ => None,
    })
}

/// The harness artifact's `trials` rows for a pass's outcomes.
fn artifact_rows(outcomes: Vec<TrialOutcome>) -> Vec<Json> {
    let run = MatrixRun {
        config: MatrixConfig::default(),
        outcomes,
        wall: Duration::ZERO,
    };
    trials(run_to_json(&run)).expect("run_to_json always emits a trials array")
}

fn run_pass(spans: &mut Spans, label: &str, ops: &[Op], sink: Option<&CountingSink>) -> Pass {
    spans.next_run();
    let mut op_spans = Vec::with_capacity(ops.len());
    let mut dispatched = Vec::with_capacity(ops.len());
    let cpu_before = procfs::cpu_seconds();
    let (span, outcomes) = spans.time(label, |spans| {
        let mut outcomes = Vec::with_capacity(ops.len());
        for (position, op) in ops.iter().enumerate() {
            let before = sink.map_or(0, CountingSink::dispatched);
            let (id, caught) = spans.measure(&op.name(), |_| {
                catch_unwind(AssertUnwindSafe(|| (op.run)()))
            });
            op_spans.push(id);
            dispatched.push(sink.map_or(0, CountingSink::dispatched) - before);
            let (status, metrics) = match caught {
                Ok(metrics) => (TrialStatus::Ok, metrics),
                Err(payload) => {
                    let msg = payload
                        .downcast_ref::<&str>()
                        .map(|s| (*s).to_owned())
                        .or_else(|| payload.downcast_ref::<String>().cloned())
                        .unwrap_or_else(|| "non-string panic payload".to_owned());
                    (TrialStatus::Panicked(msg), agora_sim::Metrics::new())
                }
            };
            outcomes.push(TrialOutcome {
                spec: TrialSpec {
                    index: op.baseline_index.unwrap_or(position),
                    experiment: op.experiment,
                    variant: op.variant,
                    seed_ordinal: 0,
                    seed: op.seed,
                },
                status,
                metrics,
                elapsed: Duration::from_secs_f64(spans.secs(id)),
            });
        }
        outcomes
    });
    let cpu = procfs::cpu_seconds() - cpu_before;
    let panics = outcomes
        .iter()
        .map(|o| match &o.status {
            TrialStatus::Ok => None,
            TrialStatus::Panicked(msg) => Some(msg.clone()),
        })
        .collect();
    let (render_span, rows) = spans.measure("harness.run_to_json", |_| artifact_rows(outcomes));
    Pass {
        span,
        op_spans,
        cpu,
        rows,
        panics,
        dispatched,
        render_span,
    }
}

/// A counter or gauge of one artifact row.
fn row_value(row: &Json, key: &str) -> Option<f64> {
    let metrics = row.get("metrics")?;
    ["counters", "gauges"]
        .iter()
        .find_map(|kind| metrics.get(kind)?.get(key)?.as_f64())
}

/// What a pass is checked against.
struct Against<'a> {
    what: &'a str,
    /// Per op: the row it must reproduce, where there is one.
    rows: Vec<Option<&'a Json>>,
    tolerance: f64,
    /// Also check the ops' pinned values.
    pins: bool,
}

impl<'a> Against<'a> {
    /// Bit-equality with an earlier pass.
    fn pass(what: &'a str, pass: &'a Pass) -> Against<'a> {
        Against {
            what,
            rows: pass.rows.iter().map(Some).collect(),
            tolerance: 0.0,
            pins: false,
        }
    }

    /// The harness's own gate, restricted to `ops`: artifact row `index`
    /// against row `index` of `BENCH_harness.json`, plus the pinned values.
    fn baseline(ops: &[Op], baseline_rows: &'a [Json]) -> Against<'a> {
        Against {
            what: BASELINE_PATH,
            rows: ops
                .iter()
                .map(|op| op.baseline_index.and_then(|i| baseline_rows.get(i)))
                .collect(),
            tolerance: BASELINE_TOLERANCE,
            pins: true,
        }
    }
}

/// Count every op of `pass` as attempted, and as failed when it panicked,
/// differs from its reference row, or misses a pinned value. Returns the
/// span of the check.
fn gate(
    spans: &mut Spans,
    tally: &mut Tally,
    ops: &[Op],
    pass: &Pass,
    against: &Against<'_>,
) -> usize {
    let (span, ()) = spans.measure("harness.diff", |_| {
        for (i, op) in ops.iter().enumerate() {
            let mut problems = Vec::new();
            if let Some(msg) = &pass.panics[i] {
                problems.push(format!("panicked: {msg}"));
            } else {
                if let Some(want) = against.rows[i] {
                    let diffs = diff_json(want, &pass.rows[i], against.tolerance);
                    problems.extend(diffs.iter().map(|d| format!("vs {}: {d}", against.what)));
                }
                for (key, want) in op.pins.iter().filter(|_| against.pins) {
                    let got = row_value(&pass.rows[i], key);
                    let close =
                        |g: f64| (g - want).abs() <= BASELINE_TOLERANCE * want.abs().max(1.0);
                    if !got.is_some_and(close) {
                        problems.push(format!("pinned {key} = {want}, got {got:?}"));
                    }
                }
            }
            tally.attempted += 1;
            if !problems.is_empty() {
                tally.failed += 1;
                for p in problems.iter().take(8) {
                    eprintln!("FAILED {}: {p}", op.name());
                }
            }
        }
    });
    span
}

struct Setup {
    ops: Vec<Op>,
    baseline_rows: Vec<Json>,
    warmup: Pass,
    /// Median cheap set-up + warm-up pass + its gate, reference seconds.
    secs: f64,
}

/// Set-up: parse the baseline and lay out the op list (three times, for a
/// median), run one warm-up pass, and gate that pass against
/// `BENCH_harness.json` and the pinned values.
fn set_up(spans: &mut Spans, args: &Args, tally: &mut Tally) -> Result<Setup, String> {
    let mut cheap_secs = Vec::new();
    let mut last = None;
    for _ in 0..SETUPS {
        spans.next_run();
        let (_, (parse, layout, built)) = spans.time("setup", |spans| {
            let (parse, baseline) =
                spans.measure("harness.baseline_parse", |_| read_json_file(BASELINE_PATH));
            let (layout, ops) = spans.measure("harness.build_trials", |_| {
                ops::ops(&args.workload, args.seed)
            });
            (parse, layout, baseline.map(|b| (b, ops)))
        });
        cheap_secs.push(spans.ref_secs(parse) + spans.ref_secs(layout));
        last = Some(built.map_err(|e| format!("{e} (run from the repository root)"))?);
    }
    let (baseline, ops) = last.expect("SETUPS > 0");
    let baseline_rows =
        trials(baseline).ok_or_else(|| format!("{BASELINE_PATH} has no trials array"))?;

    let warmup = run_pass(spans, "warmup_pass", &ops, None);
    let against = Against::baseline(&ops, &baseline_rows);
    let check = gate(spans, tally, &ops, &warmup, &against);
    let secs = stats::median(&cheap_secs)
        + warmup.ops_secs(spans)
        + spans.ref_secs(warmup.render_span)
        + spans.ref_secs(check);
    Ok(Setup {
        ops,
        baseline_rows,
        warmup,
        secs,
    })
}

/// The `--trace 0` metrics: what a user of the simulator sees of a run.
///
/// `wall_s` is one pass: the sum over the op list of each op's median
/// reference seconds over the timed passes. `cpu_s` is `wall_s` times the
/// CPU seconds per wall second of all timed passes, because `/proc` counts
/// CPU in 10 ms ticks, too coarse for one op.
fn end_to_end(
    spans: &Spans,
    ops: &[Op],
    setup_secs: f64,
    passes: &[Pass],
) -> BTreeMap<&'static str, f64> {
    let mut wall = 0.0;
    for (i, op) in ops.iter().enumerate() {
        let secs: Vec<f64> = passes.iter().map(|p| p.op_secs(spans, i)).collect();
        let raw: Vec<f64> = passes.iter().map(|p| spans.secs(p.op_spans[i])).collect();
        let (q1, q3) = stats::quartiles(&secs);
        wall += stats::median(&secs);
        println!(
            "# op {}: median {:.4} s quartiles [{q1:.4}, {q3:.4}] n={}; as the host ran it, \
             median {:.4} s",
            op.name(),
            stats::median(&secs),
            secs.len(),
            stats::median(&raw),
        );
    }
    let slowdowns: Vec<f64> = passes
        .iter()
        .map(|p| p.op_spans.iter().map(|&id| spans.secs(id)).sum::<f64>() / p.ops_secs(spans))
        .collect();
    println!("# host slowdown against the quiet reference host, by pass: {slowdowns:.3?}");
    let cpu: f64 = passes.iter().map(|p| p.cpu).sum();
    let elapsed: f64 = passes.iter().map(|p| spans.secs(p.span)).sum();
    BTreeMap::from([
        ("setup_s", setup_secs),
        ("wall_s", wall),
        ("cpu_s", wall * cpu / elapsed),
        ("peak_rss_mib", procfs::peak_rss_mib()),
    ])
}

fn op_index(ops: &[Op], name: &str) -> Option<usize> {
    ops.iter().position(|op| op.name() == name)
}

/// The `--trace 1` metrics, every one of `PER_LAYER`; a metric of a layer
/// the workload never enters stays 0.
struct Layers(BTreeMap<&'static str, f64>);

impl Layers {
    fn new() -> Layers {
        Layers(PER_LAYER.iter().map(|row| (row.0, 0.0)).collect())
    }

    fn set(&mut self, name: &str, value: f64) {
        let slot = self.0.get_mut(name);
        *slot.unwrap_or_else(|| panic!("{name} is not in PER_LAYER")) = value;
    }
}

/// An op list and one pass over it.
struct Ran<'a> {
    ops: &'a [Op],
    pass: &'a Pass,
}

impl Ran<'_> {
    /// Reference seconds of the op named `name`.
    fn secs(&self, spans: &Spans, name: &str) -> Option<f64> {
        op_index(self.ops, name).map(|i| self.pass.op_secs(spans, i))
    }
}

/// One timed pass's op spans, the traced pass's engine counts, and the
/// probes, as per-layer metrics. `extra` is the pass over the ops only a
/// traced run has.
fn per_layer(
    spans: &mut Spans,
    args: &Args,
    timed: &Ran<'_>,
    extra: &Ran<'_>,
    traced: &Pass,
    counts: &Counts,
) -> Layers {
    let mut m = Layers::new();
    let seed = args.seed;
    let ops = timed.ops;

    for (op, metric) in OP_TIME_METRICS {
        if let Some(secs) = timed.secs(spans, op).or_else(|| extra.secs(spans, op)) {
            m.set(metric, secs);
        }
    }
    m.set("core.pass_self_s", spans.self_secs(timed.pass.span));

    let pass_secs = timed.pass.ops_secs(spans);
    m.set("sim.dispatched_events", counts.dispatched() as f64);
    m.set("sim.events_per_s", counts.dispatched() as f64 / pass_secs);
    m.set("sim.sends", counts.sends as f64);
    m.set("sim.send_bytes", counts.send_bytes as f64);
    m.set("sim.drops", counts.drops() as f64);
    m.set("sim.timer_fires", counts.timer_fires as f64);
    m.set("sim.sims_built", counts.sims_built as f64);
    m.set(
        "sim.trace.overhead_ratio",
        traced.ops_secs(spans) / pass_secs,
    );
    for (metric, point) in [
        ("web.pieces_served", "web.pieces_served"),
        ("web.visits_ok", "web.visits_ok"),
        ("dht.lookups", "dht.lookup_secs"),
        ("dht.stores_received", "dht.stores_received"),
        ("storage.audits_sent", "storage.audits_sent"),
        ("storage.market_challenges", "market.challenge"),
        ("comm.deliveries", "comm.delivery_secs"),
        ("app.deltas", "app.delta"),
        ("workload.demands", "workload.demand"),
    ] {
        m.set(metric, counts.point(point) as f64);
    }
    m.set(
        "workload.schedule_events",
        counts.points_with_prefix("workload.") as f64,
    );

    for (metric, span) in [
        ("harness.baseline_parse_s", "harness.baseline_parse"),
        ("harness.build_trials_s", "harness.build_trials"),
        ("harness.run_to_json_s", "harness.run_to_json"),
        ("harness.diff_s", "harness.diff"),
    ] {
        m.set(metric, stats::median(&spans.named_ref_secs(span)));
    }

    // Microprobes: the same for every workload.
    spans.time("probes", |spans| {
        let mut time = |name: &str, work: &mut dyn FnMut()| {
            let (id, ()) = spans.measure(name, |_| work());
            spans.ref_secs(id)
        };
        m.set(
            "sim.metrics.hist_record_per_s",
            probes::hist_record_per_s(seed, &mut time),
        );
        m.set("crypto.sha256_mib_s", probes::sha256_mib_s(seed, &mut time));
        m.set(
            "crypto.merkle_build_leaves_per_s",
            probes::merkle_build_leaves_per_s(seed, &mut time),
        );
        m.set(
            "chain.mine_hashes_per_s",
            probes::mine_hashes_per_s(seed, &mut time),
        );
        m.set(
            "storage.rs42_encode_mib_s",
            probes::rs42_encode_mib_s(seed, &mut time),
        );
        m.set(
            "storage.rs42_reconstruct_mib_s",
            probes::rs42_reconstruct_mib_s(seed, &mut time),
        );
        m.set(
            "app.merge_1024_ops_per_s",
            probes::merge_1024_ops_per_s(&mut time),
        );
        m.set(
            "workload.compile_1m_s",
            probes::compile_day_s(seed, ops::E16_POPULATION, ops::COHORTS, &mut time),
        );
        let exact = ops::DHT_EXACT_USERS;
        m.set(
            "workload.compile_exact_10k_s",
            probes::compile_day_s(seed, exact, exact as u32, &mut time),
        );
        let shards = ops::shard_count();
        let stats = ec::ring_flood_sharded(seed, SHARDED_RING_ROUNDS, shards);
        m.set("sim.shard.cores", f64::from(shards));
        m.set("sim.shard.barrier_stalls", stats.barrier_stalls as f64);
        m.set("sim.shard.absorbed_events", stats.absorbed_events as f64);
    });

    // Probes of the layers only this workload enters.
    match args.workload.as_str() {
        "flash_day" => flash_day_layers(spans, ops, &mut m),
        "classic_suite" => {
            let mut pooled = |threads: usize| {
                let (id, _) = spans.measure(&format!("pool_{threads}t"), |_| {
                    pool::run_indexed(ops.len(), threads, |i| (ops[i].run)())
                });
                spans.ref_secs(id)
            };
            let serial = pooled(1);
            let threads = ops::shard_count().min(2) as usize;
            m.set("harness.pool_speedup_2t", serial / pooled(threads));
        }
        "engine_core" => {
            let secs = |scenario: &str| timed.secs(spans, scenario).expect("engine scenario");
            let rate = |scenario: &str| {
                let i = op_index(ops, scenario).expect("engine scenario");
                // The synthetic scenarios count their own events; a
                // Kademlia day's come from the traced pass.
                let events = row_value(&timed.pass.rows[i], ec::EVENTS)
                    .unwrap_or(traced.dispatched[i] as f64);
                events / secs(scenario)
            };
            m.set(
                "sim.engine.ring_flood_events_per_s",
                rate("engine/ring_flood"),
            );
            m.set(
                "sim.engine.timer_storm_events_per_s",
                rate("engine/timer_storm"),
            );
            m.set(
                "sim.net.bulk_backlog_events_per_s",
                rate("engine/bulk_backlog"),
            );
            m.set("sim.engine.kad_day_events_per_s", rate("engine/kad_day"));
            // The same day on the sharded engine. Its lanes run on threads
            // of their own, so it stays out of the timed passes.
            let serial_day = secs("engine/kad_day") / ops::KAD_DAYS as f64;
            let kad = ops::cohort_runner("dht.off");
            let (sharded, _) = spans.measure("engine/kad_day_sharded", |_| {
                agora_sim::with_shards(ops::shard_count(), || {
                    black_box(kad(seed, ops::E16_POPULATION, ops::COHORTS))
                })
            });
            m.set(
                "sim.shard.kad_day_speedup",
                serial_day / spans.ref_secs(sharded),
            );
        }
        "exact_users" => {
            let value = |op: String, key: &str| {
                let i = op_index(ops, &op).expect("exact op");
                row_value(&timed.pass.rows[i], key).expect("outcome gauge")
            };
            let err = |class: &str, key: &str| {
                let approx = value(format!("exact/{class}.cohorts"), key);
                let exact = value(format!("exact/{class}.exact"), key);
                if exact.abs() <= f64::EPSILON {
                    (approx - exact).abs()
                } else {
                    ((approx - exact) / exact).abs()
                }
            };
            let peak = (err("dht", "peak_overload"), err("storage", "peak_overload"));
            let avail = (err("dht", "availability"), err("storage", "availability"));
            m.set("workload.cohort_peak_err_dht", peak.0);
            m.set("workload.cohort_peak_err_storage", peak.1);
            m.set("workload.cohort_avail_err_dht", avail.0);
            m.set("workload.cohort_avail_err_storage", avail.1);
            m.set(
                "workload.cohort_busiest_err_dht",
                err("dht", "busiest_share"),
            );
            m.set("cohort_peak_err", peak.0);
            m.set("cohort_avail_err", avail.0.max(avail.1));
        }
        other => unreachable!("ops() accepted workload {other}"),
    }
    m
}

/// The class days inside the `e16/p1m` op, each run alone, and the policy
/// pairs of E16p at the same seeds. `e16_population_point` runs the DHT at
/// `seed + 2`, storage at `seed + 3` and the swarm at `seed + 4`.
fn flash_day_layers(spans: &mut Spans, ops: &[Op], m: &mut Layers) {
    let seed = ops[op_index(ops, "e16/p1m").expect("e16/p1m op")].seed;
    let mut day = |runner: &str, seed: u64| {
        let run = ops::cohort_runner(runner);
        let (id, _) = spans.measure(&format!("day/{runner}"), |_| {
            black_box(run(seed, ops::E16_POPULATION, ops::COHORTS))
        });
        spans.ref_secs(id)
    };
    let (dht, storage, swarm) = (
        day("dht.off", seed + 2),
        day("storage.off", seed + 3),
        day("swarm.off", seed + 4),
    );
    m.set("dht.day_s", dht);
    m.set("storage.day_s", storage);
    m.set("web.swarm_day_s", swarm);
    m.set("policy.on_ratio_dht", day("dht.shed", seed + 2) / dht);
    m.set(
        "policy.on_ratio_swarm",
        day("swarm.seeders", seed + 4) / swarm,
    );

    // What the policy plane did, from one more (traced) shedding day.
    let sink = CountingSink::default();
    let factory = sink.clone();
    with_thread_sink(
        move || Box::new(factory.clone()),
        || day("dht.shed", seed + 2),
    );
    let counts = sink.snapshot();
    m.set("policy.engages", counts.point("policy.engage") as f64);
    m.set(
        "observer.anomalies",
        counts.points_with_prefix("anomaly.") as f64,
    );
}

fn unit_of(name: &str) -> &'static str {
    let e2e = END_TO_END.iter().find(|m| m.name == name).map(|m| m.unit);
    e2e.or_else(|| PER_LAYER.iter().find(|m| m.0 == name).map(|m| m.1))
        .unwrap_or_else(|| panic!("{name} has no unit"))
}

fn result_json(tally: &Tally, metrics: &BTreeMap<&'static str, f64>) -> Json {
    let mut values = Json::obj();
    for (name, value) in metrics {
        assert!(value.is_finite(), "{name} = {value}");
        let mut entry = Json::obj();
        entry.set("value", Json::Num(*value));
        entry.set("unit", Json::Str(unit_of(name).to_owned()));
        values.set(name, entry);
    }
    let mut out = Json::obj();
    out.set("correct", Json::Bool(tally.failed == 0));
    out.set("attempted", Json::Num(tally.attempted as f64));
    out.set("failed", Json::Num(tally.failed as f64));
    out.set("metrics", values);
    out
}

/// Run one workload as `args` say. Prints every metric by name with its
/// unit, then the result object as the last line. `Ok(true)` when no op
/// failed.
pub fn run(args: &Args, origin: Instant) -> Result<bool, String> {
    if !ops::WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "unknown workload {}; one of {:?}",
            args.workload,
            ops::WORKLOADS
        ));
    }
    let mut spans = Spans::new(origin);
    let mut tally = Tally::default();
    let (_, metrics) = spans.time(&args.workload, |spans| {
        let setup = set_up(spans, args, &mut tally)?;
        let ops = &setup.ops;

        // Every pass must reproduce the gated warm-up pass bit for bit.
        let mut passes: Vec<Pass> = Vec::new();
        let started = Instant::now();
        while passes.len() < if args.trace { 1 } else { MIN_PASSES }
            || (!args.trace && started.elapsed().as_secs_f64() < args.seconds)
        {
            let pass = run_pass(spans, "pass", ops, None);
            let against = Against::pass("the warm-up pass", &setup.warmup);
            gate(spans, &mut tally, ops, &pass, &against);
            passes.push(pass);
        }
        if !args.trace {
            return Ok(end_to_end(spans, ops, setup.secs, &passes));
        }

        let sink = CountingSink::default();
        let factory = sink.clone();
        let traced = with_thread_sink(
            move || Box::new(factory.clone()),
            || run_pass(spans, "traced_pass", ops, Some(&sink)),
        );
        // Sink neutrality: tracing must not change what an op computes.
        let against = Against::pass("the untraced passes", &setup.warmup);
        gate(spans, &mut tally, ops, &traced, &against);

        // Registry trials too long for the timed passes: once, gated like
        // the warm-up pass.
        let extra_ops = ops::traced_only_ops(&args.workload);
        let extra = run_pass(spans, "extra_pass", &extra_ops, None);
        let against = Against::baseline(&extra_ops, &setup.baseline_rows);
        gate(spans, &mut tally, &extra_ops, &extra, &against);

        let timed = Ran {
            ops,
            pass: &passes[0],
        };
        let extra = Ran {
            ops: &extra_ops,
            pass: &extra,
        };
        let layers = per_layer(spans, args, &timed, &extra, &traced, &sink.snapshot());
        Ok::<_, String>(layers.0)
    });
    let metrics = metrics?;

    let result = result_json(&tally, &metrics);
    fs::create_dir_all(OUT_DIR).map_err(|e| format!("{OUT_DIR}: {e}"))?;
    if args.trace {
        let path = format!("{OUT_DIR}/trace_{}.jsonl", args.workload);
        fs::write(&path, spans.to_jsonl()).map_err(|e| format!("{path}: {e}"))?;
    }
    // One record per run, for `compare`.
    let mut record = Json::obj();
    record.set("workload", Json::Str(args.workload.clone()));
    record.set("seed", Json::Str(args.seed.to_string()));
    record.set("trace", Json::Bool(args.trace));
    record.set("result", result.clone());
    let path = format!("{OUT_DIR}/runs.jsonl");
    let mut log = fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(&path)
        .map_err(|e| format!("{path}: {e}"))?;
    writeln!(log, "{}", record.render_compact()).map_err(|e| format!("{path}: {e}"))?;

    for (name, value) in &metrics {
        println!("{name} {value} {}", unit_of(name));
    }
    println!("{}", result.render_compact());
    Ok(tally.failed == 0)
}
