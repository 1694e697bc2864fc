//! Harness surface of the `agora-trace` layer: the `dht` replay target,
//! serialization of a replay's flight recording (see [`crate::replay`]) to
//! a deterministic `TRACE_<target>.jsonl` artifact, validation of such
//! artifacts, and `--explain` provenance queries (walk a recorded metric
//! sample back through its causal chain of deliveries and timer fires).
//!
//! Trace artifacts are **wall-clock-free**: every field is a pure function
//! of `(target, seed)`, so repeated runs are byte-identical and the files
//! are CI-diffable — unlike `BENCH_perf.json`, which exists to carry
//! wall-clock numbers and is never diffed.

use std::fmt::Write as _;
use std::rc::Rc;

use agora_crypto::sha256;
use agora_dht::{DhtNode, DhtResult};
use agora_sim::trace::{FlightRecorder, SpanAgg, TraceEvent, TraceKind};
use agora_sim::{Metrics, NodeId, SimDuration, Simulation};

use crate::json::Json;
use crate::observe::{missing_field, read_header};
use crate::replay::Replay;

/// JSONL schema version for `TRACE_*.jsonl`.
pub const TRACE_SCHEMA: u32 = 2;

/// The harness-local DHT provenance scenario: a 24-node Kademlia overlay
/// under 2 % loss, driven op by op rather than by a population day as in
/// E16's DHT class and E18's discovery. It performs warm-up lookups,
/// several PUTs, a replica failure, and GETs — producing
/// `dht.lookup_secs` / `dht.lookup_hops` trace points with multi-hop causal
/// chains, plus loss and receiver-down drop records. Deterministic in
/// `seed`; returns the engine metrics like any registry experiment.
pub fn dht_scenario(seed: u64) -> Metrics {
    const N: usize = 24;
    let mut sim: Simulation<DhtNode> = Simulation::new(seed);
    let (_, ids) = DhtNode::overlay(&mut sim, N, |i| sha256(format!("trace-dht-{i}").as_bytes()));
    sim.set_loss_rate(0.02);

    // Warm routing tables: every node locates its own neighbourhood.
    for (i, &id) in ids.iter().enumerate() {
        let target = sha256(format!("warm-{i}").as_bytes());
        sim.with_ctx(id, |n, ctx| n.start_find_node(ctx, target));
    }
    sim.run_for(SimDuration::from_secs(60));

    // Publish a handful of values from one corner of the overlay.
    let payload: Rc<[u8]> = Rc::from(&b"the barriers to overthrowing internet feudalism"[..]);
    let keys: Vec<_> = (0..4)
        .map(|i| sha256(format!("value-{i}").as_bytes()))
        .collect();
    for (i, &key) in keys.iter().enumerate() {
        sim.with_ctx(ids[1 + i], |n, ctx| n.start_put(ctx, key, payload.clone()));
    }
    sim.run_for(SimDuration::from_secs(60));

    // Fail one node so deliveries to it surface receiver-down drops.
    sim.kill(ids[2]);

    // Distant nodes fetch every value: iterative FIND_VALUE with real hop
    // chains — the records `--explain dht.lookup_secs` walks.
    let mut gets = Vec::new();
    for (i, &key) in keys.iter().enumerate() {
        let getter = ids[N - 1 - i];
        let op = sim
            .with_ctx(getter, |n, ctx| n.start_get(ctx, key))
            .expect("getter is up");
        gets.push((getter, op));
    }
    sim.run_for(SimDuration::from_secs(60));
    sim.revive(ids[2]);
    sim.run_for(SimDuration::from_secs(30));

    let mut metrics = sim.metrics().clone();
    let found = gets
        .iter()
        .filter(|&&(getter, op)| {
            matches!(
                sim.node_mut(getter).take_result(op),
                Some(DhtResult::Found { .. })
            )
        })
        .count();
    metrics.incr("trace_dht.gets_found", found as u64);
    metrics
}

fn hex_key(key: u128) -> String {
    format!("0x{key:032x}")
}

fn parse_hex_key(s: &str) -> Option<u128> {
    u128::from_str_radix(s.strip_prefix("0x")?, 16).ok()
}

/// A node id as TRACE and OBS lines carry it: its number, or `"sim"` for
/// the engine itself.
pub(crate) fn node_json(node: NodeId) -> Json {
    if node == NodeId(u32::MAX) {
        Json::Str("sim".to_owned())
    } else {
        Json::Num(node.0 as f64)
    }
}

fn event_to_json(ev: &TraceEvent) -> Json {
    let mut line = Json::obj();
    line.set("type", Json::Str("event".to_owned()));
    line.set("key", Json::Str(hex_key(ev.key)));
    line.set("parent", Json::Str(hex_key(ev.parent)));
    line.set("at_micros", Json::Num(ev.at.micros() as f64));
    line.set("node", node_json(ev.node));
    line.set("kind", Json::Str(ev.kind.label().to_owned()));
    match ev.kind {
        TraceKind::SimStart { seed } => line.set("seed", Json::Str(seed.to_string())),
        TraceKind::Send { to, bytes } => {
            line.set("to", Json::Num(to.0 as f64));
            line.set("bytes", Json::Num(bytes as f64));
        }
        TraceKind::Deliver { from } => line.set("from", Json::Num(from.0 as f64)),
        TraceKind::DropSend { to, bytes, reason } => {
            line.set("to", Json::Num(to.0 as f64));
            line.set("bytes", Json::Num(bytes as f64));
            line.set("reason", Json::Str(reason.label().to_owned()));
        }
        TraceKind::DropDeliver { from, reason } => {
            line.set("from", Json::Num(from.0 as f64));
            line.set("reason", Json::Str(reason.label().to_owned()));
        }
        TraceKind::TimerSet { tag }
        | TraceKind::TimerFire { tag }
        | TraceKind::TimerDrop { tag } => line.set("tag", Json::Num(tag as f64)),
        TraceKind::ChurnUp | TraceKind::ChurnDown => {}
        TraceKind::Partition { group } => line.set("group", Json::Num(group as f64)),
        TraceKind::Point { name, value } => {
            line.set("name", Json::Str(name.to_owned()));
            line.set("value", Json::Num(value));
        }
    }
    line
}

fn span_to_json(key: &str, span: &SpanAgg) -> Json {
    let mut line = Json::obj();
    line.set("type", Json::Str("span".to_owned()));
    line.set("key", Json::Str(key.to_owned()));
    line.set("count", Json::Num(span.count as f64));
    line.set("bytes", Json::Num(span.bytes as f64));
    line.set("latency", hist_summary(&span.latency));
    line.set("values", hist_summary(&span.values));
    line
}

fn hist_summary(h: &agora_sim::Histogram) -> Json {
    if h.is_empty() {
        return Json::Null;
    }
    let mut h = h.clone();
    let mut s = Json::obj();
    s.set("count", Json::Num(h.count() as f64));
    s.set("mean", Json::Num(h.mean()));
    // `try_min`/`try_max`: the empty case is handled above, but the checked
    // form keeps infinite sentinels out of artifacts by construction.
    s.set("min", Json::Num(h.try_min().unwrap_or(0.0)));
    s.set("max", Json::Num(h.try_max().unwrap_or(0.0)));
    s.set("p50", Json::Num(h.percentile(50.0)));
    s.set("p99", Json::Num(h.percentile(99.0)));
    s
}

/// Serialize a replay's recording `rec` to the JSONL artifact: a header
/// line, one line per retained ring event (arrival order), one line per
/// span (key order). Byte-identical across repeated runs of the same target
/// and seed.
pub fn trace_to_jsonl(run: &Replay, rec: &FlightRecorder) -> String {
    let mut out = String::new();
    let mut header = Json::obj();
    header.set("type", Json::Str("header".to_owned()));
    header.set("schema", Json::Num(TRACE_SCHEMA as f64));
    header.set("target", Json::Str(run.target.clone()));
    header.set("variant", Json::Str(run.variant.clone()));
    // Seeds are full-range u64 and matrix-derived ones sit above 2^53, where
    // an f64 `Json::Num` would round them, so they render as decimal
    // strings (as in OBS).
    header.set("seed", Json::Str(run.seed.to_string()));
    header.set("ring_capacity", Json::Num(rec.capacity() as f64));
    header.set("events", Json::Num(rec.len() as f64));
    header.set("evicted", Json::Num(rec.evicted() as f64));
    header.set("spans", Json::Num(rec.spans().count() as f64));
    out.push_str(&header.render_compact());
    out.push('\n');
    for ev in rec.events() {
        out.push_str(&event_to_json(ev).render_compact());
        out.push('\n');
    }
    for (key, span) in rec.spans() {
        out.push_str(&span_to_json(key, span).render_compact());
        out.push('\n');
    }
    out
}

/// Summary returned by [`validate_jsonl`].
#[derive(Debug, Default, PartialEq, Eq)]
pub struct TraceFileSummary {
    /// Event lines seen.
    pub events: usize,
    /// Span lines seen.
    pub spans: usize,
}

/// The tiny in-repo `TRACE_*.jsonl` schema checker CI runs: every line must
/// parse as JSON; the first line must be a [`TRACE_SCHEMA`] header whose
/// `events`/`spans` counts match the body; event lines need well-formed hex
/// keys, a known kind label, and that kind's fields; span lines need
/// key/count. Seeds (header and `sim_start`) are decimal strings. Returns
/// the body counts on success.
pub fn validate_jsonl(text: &str) -> Result<TraceFileSummary, String> {
    let numbers = ["ring_capacity", "events", "evicted", "spans"];
    let (header, lines) = read_header(text, TRACE_SCHEMA, &["target", "variant"], &numbers)?;
    if decimal_seed(&header).is_none() {
        return Err("line 1: header 'seed' must be a decimal u64 string".to_owned());
    }

    let mut summary = TraceFileSummary::default();
    for (ix, line) in lines {
        let lineno = ix + 1;
        let v = Json::parse(line).map_err(|e| format!("line {lineno}: {e}"))?;
        match v.get("type").and_then(Json::as_str) {
            Some("event") => {
                validate_event_line(&v).map_err(|e| format!("line {lineno}: {e}"))?;
                summary.events += 1;
            }
            Some("span") => {
                if missing_field(&v, &["key"], &["count"], &[]).is_some() {
                    return Err(format!("line {lineno}: span line needs key and count"));
                }
                if summary.events == 0 && header.get("events").and_then(Json::as_f64) != Some(0.0) {
                    return Err(format!("line {lineno}: span lines before event lines"));
                }
                summary.spans += 1;
            }
            other => return Err(format!("line {lineno}: unknown line type {other:?}")),
        }
    }
    for (field, body) in [("events", summary.events), ("spans", summary.spans)] {
        let claimed = header.get(field).and_then(Json::as_f64).unwrap_or(-1.0);
        if claimed != body as f64 {
            return Err(format!("header claims {claimed} {field}, body has {body}"));
        }
    }
    Ok(summary)
}

/// A `seed` field in its one accepted form: a string holding a decimal u64.
fn decimal_seed(v: &Json) -> Option<u64> {
    v.get("seed")?.as_str()?.parse().ok()
}

fn validate_event_line(v: &Json) -> Result<(), String> {
    for field in ["key", "parent"] {
        let s = v
            .get(field)
            .and_then(Json::as_str)
            .ok_or_else(|| format!("event missing '{field}'"))?;
        parse_hex_key(s).ok_or_else(|| format!("'{field}' is not a 0x-prefixed hex key: {s}"))?;
    }
    if v.get("at_micros").and_then(Json::as_f64).is_none() {
        return Err("event missing 'at_micros'".to_owned());
    }
    let node_ok = matches!(v.get("node"), Some(Json::Num(_)))
        || v.get("node").and_then(Json::as_str) == Some("sim");
    if !node_ok {
        return Err("event 'node' must be a number or \"sim\"".to_owned());
    }
    let kind = v
        .get("kind")
        .and_then(Json::as_str)
        .ok_or("event missing 'kind'")?;
    let required: &[&str] = match kind {
        "sim_start" => &["seed"],
        "send" => &["to", "bytes"],
        "deliver" => &["from"],
        "drop_send" => &["to", "bytes", "reason"],
        "drop_deliver" => &["from", "reason"],
        "timer_set" | "timer_fire" | "timer_drop" => &["tag"],
        "churn_up" | "churn_down" => &[],
        "partition" => &["group"],
        "point" => &["name", "value"],
        other => return Err(format!("unknown event kind '{other}'")),
    };
    for field in required {
        if v.get(field).is_none() {
            return Err(format!("'{kind}' event missing '{field}'"));
        }
    }
    if kind == "sim_start" && decimal_seed(v).is_none() {
        return Err("'sim_start' seed must be a decimal u64 string".to_owned());
    }
    Ok(())
}

/// A resolved `--explain` query: the rendered chain plus its depth (number
/// of enqueue links resolved — deliveries and timer fires walked through).
pub struct Explanation {
    /// Human-readable chain, one step per line.
    pub text: String,
    /// Resolved causal links (≥ 1 whenever the sample fired inside an event
    /// handler whose enqueue record is still in the ring).
    pub depth: usize,
}

fn node_label(node: NodeId) -> String {
    if node == NodeId(u32::MAX) {
        "sim".to_owned()
    } else {
        format!("n{}", node.0)
    }
}

/// Walk the causal chain of the most recent `Point` record named `metric`:
/// point → the event whose handler emitted it → the send/arm that enqueued
/// that event → its parent, and so on until an external injection (parent
/// 0) or a record evicted from the ring. Returns `None` if no such sample
/// was recorded.
pub fn explain_metric(rec: &FlightRecorder, metric: &str) -> Option<Explanation> {
    let point = rec
        .events()
        .filter(|e| matches!(e.kind, TraceKind::Point { name, .. } if name == metric))
        .last()?;
    let TraceKind::Point { value, .. } = point.kind else {
        unreachable!("filtered to points");
    };
    let mut text = String::new();
    let _ = writeln!(
        text,
        "causal chain for '{metric}' = {value} (recorded at {:.6}s on {}):",
        point.at.secs_f64(),
        node_label(point.node)
    );
    let _ = writeln!(
        text,
        "  [0] sample emitted during event {}",
        hex_key(point.key)
    );
    let mut depth = 0usize;
    let mut step = 1usize;
    let mut key = point.parent;
    while key != 0 && step <= 64 {
        let Some(enq) = rec.find_enqueue(key) else {
            let _ = writeln!(
                text,
                "  [{step}] event {} — enqueue record not in ring (evicted, or an engine-internal event)",
                hex_key(key)
            );
            break;
        };
        match enq.kind {
            TraceKind::Send { to, bytes } => {
                let _ = writeln!(
                    text,
                    "  [{step}] delivery {}: message sent by {} to {} at {:.6}s ({bytes} bytes)",
                    hex_key(key),
                    node_label(enq.node),
                    node_label(to),
                    enq.at.secs_f64(),
                );
            }
            TraceKind::TimerSet { tag } => {
                let _ = writeln!(
                    text,
                    "  [{step}] timer fire {}: armed by {} at {:.6}s (tag {tag})",
                    hex_key(key),
                    node_label(enq.node),
                    enq.at.secs_f64(),
                );
            }
            _ => unreachable!("find_enqueue returns only Send/TimerSet"),
        }
        depth += 1;
        key = enq.parent;
        step += 1;
        if key == 0 {
            let _ = writeln!(text, "  [{step}] external injection (experiment driver)");
        }
    }
    Some(Explanation { text, depth })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix::{find_trial, metrics_to_json, MatrixConfig};
    use crate::observe::ObsLineSink;
    use crate::registry::registry;
    use crate::replay::replay;
    use agora_sim::probe::DEFAULT_CADENCE;

    fn light_cfg() -> MatrixConfig {
        MatrixConfig {
            threads: 1,
            ..MatrixConfig::default()
        }
    }

    /// Replay `target` under a flight recorder of `cap` events.
    fn traced(target: &str, cap: usize) -> Result<(Replay, FlightRecorder), String> {
        let ring = Some(FlightRecorder::new(cap));
        let mut run = replay(&registry(), &light_cfg(), target, ring, None)?;
        let rec = run.recorder.take().expect("a ring was installed");
        Ok((run, rec))
    }

    #[test]
    fn dht_scenario_emits_points_and_multi_hop_chains() {
        let (run, rec) = traced("dht", 1 << 20).expect("dht target");
        assert_eq!(run.target, "dht");
        assert_eq!(rec.evicted(), 0, "ring sized to hold the full scenario");
        assert!(
            rec.span("dht.lookup_secs").is_some(),
            "trace points recorded"
        );
        assert!(rec.span("net.drop.loss").is_some(), "loss drops recorded");
        assert!(
            rec.span("net.drop.receiver_down").is_some(),
            "receiver-down drops recorded"
        );
        assert!(run.metrics.counter("trace_dht.gets_found") >= 1);
        let explained = explain_metric(&rec, "dht.lookup_secs").expect("sample exists");
        assert!(
            explained.depth >= 3,
            "chain depth {} < 3:\n{}",
            explained.depth,
            explained.text
        );
    }

    #[test]
    fn trace_jsonl_is_deterministic_and_valid() {
        let jsonl = || {
            let (run, rec) = traced("dht", 4096).unwrap();
            trace_to_jsonl(&run, &rec)
        };
        let (a, b) = (jsonl(), jsonl());
        assert_eq!(a, b, "TRACE jsonl must be byte-identical across runs");
        let summary = validate_jsonl(&a).expect("artifact validates");
        assert!(summary.events > 0 && summary.spans > 0);
    }

    /// A sink never changes what a trial reports, whether it is dormant (the
    /// registry runner as the matrix calls it), a flight recorder, or the
    /// OBS probes — the property the deleted `trace`/`observe` build
    /// matrix re-diffed the baseline for. One variant per engine-driving
    /// family; compared on everything `run_to_json` renders of a trial.
    #[test]
    fn registry_target_replays_matrix_trial_with_identical_metrics() {
        let reg = registry();
        let cfg = light_cfg();
        let rendered = |m: &Metrics| metrics_to_json(m).render();
        for (id, variant) in [
            ("e3", "f0.20"),
            ("e7", "default"),
            ("e15", "i1.00"),
            ("e16", "p10k"),
            ("e17", "i1.00"),
            ("e16p", "p10k"),
            ("e18", "p10k"),
        ] {
            let target = format!("{id}/{variant}");
            let (run, _) = traced(&target, 1024).expect("registry target");
            assert_eq!((run.target.as_str(), run.variant.as_str()), (id, variant));
            let (spec, runner) = find_trial(&reg, &cfg, &target).expect("the matrix holds it");
            assert_eq!(run.seed, spec.seed, "{target}: replay uses the matrix seed");
            let plain = runner(spec.seed);
            assert_eq!(
                rendered(&run.metrics),
                rendered(&plain),
                "{target}: the flight recorder moved a metric"
            );

            let obs: Option<(_, ObsLineSink)> = Some((DEFAULT_CADENCE, Box::new(|_| {})));
            let observed = replay(&reg, &cfg, &target, None, obs).expect("registry target");
            // The OBS probe's whole footprint: one `anomaly.overload` count
            // per detector firing (E16's flash crowd trips it).
            let mut expected = plain.clone();
            for (key, n) in observed.metrics.counters() {
                if key.starts_with("anomaly.") {
                    expected.incr(key, n);
                }
            }
            assert_eq!(
                rendered(&observed.metrics),
                rendered(&expected),
                "{target}: the OBS probe moved a metric"
            );
        }
    }

    /// Matrix-derived seeds sit above 2^53, where an f64 rounds them: the
    /// header must carry the exact seed, or it cannot reproduce the trial.
    #[test]
    fn registry_target_header_seed_reproduces_the_trial() {
        let (run, rec) = traced("e3/f0.20", 16).expect("target");
        assert!(run.seed > 1 << 53, "seed {} is f64-exact", run.seed);
        let jsonl = trace_to_jsonl(&run, &rec);
        let header = Json::parse(jsonl.lines().next().expect("header")).expect("json");
        assert_eq!(decimal_seed(&header), Some(run.seed));
    }

    /// Both taps refuse an unknown target with one message.
    #[test]
    fn unknown_targets_are_rejected() {
        let (reg, cfg) = (registry(), light_cfg());
        for target in ["e99", "e3/f9.99"] {
            let err = traced(target, 16).err().expect("refused");
            assert!(err.contains(&format!("'{target}'")), "{err}");
            let obs: Option<(_, ObsLineSink)> = Some((DEFAULT_CADENCE, Box::new(|_| {})));
            assert_eq!(replay(&reg, &cfg, target, None, obs).err(), Some(err));
        }
    }

    #[test]
    fn validator_rejects_malformed_artifacts() {
        assert!(validate_jsonl("").is_err());
        assert!(validate_jsonl("{\"type\":\"event\"}").is_err(), "no header");
        let bad_schema = "{\"type\":\"header\",\"schema\":99,\"target\":\"x\",\"variant\":\"d\",\"seed\":\"1\",\"ring_capacity\":4,\"events\":0,\"evicted\":0,\"spans\":0}";
        assert!(validate_jsonl(bad_schema).is_err());
        let miscounted = "{\"type\":\"header\",\"schema\":2,\"target\":\"x\",\"variant\":\"d\",\"seed\":\"1\",\"ring_capacity\":4,\"events\":3,\"evicted\":0,\"spans\":0}";
        assert!(validate_jsonl(miscounted).is_err(), "event count mismatch");
        let bad_key = "{\"type\":\"header\",\"schema\":2,\"target\":\"x\",\"variant\":\"d\",\"seed\":\"1\",\"ring_capacity\":4,\"events\":1,\"evicted\":0,\"spans\":0}\n{\"type\":\"event\",\"key\":\"zzz\",\"parent\":\"0x0\",\"at_micros\":0,\"node\":0,\"kind\":\"churn_up\"}";
        assert!(validate_jsonl(bad_key).is_err(), "malformed hex key");
        let numeric_seed = "{\"type\":\"header\",\"schema\":2,\"target\":\"x\",\"variant\":\"d\",\"seed\":1,\"ring_capacity\":4,\"events\":0,\"evicted\":0,\"spans\":0}";
        assert!(
            validate_jsonl(numeric_seed).is_err(),
            "schema-1 numeric seed"
        );
        let ok = "{\"type\":\"header\",\"schema\":2,\"target\":\"x\",\"variant\":\"d\",\"seed\":\"1\",\"ring_capacity\":4,\"events\":1,\"evicted\":0,\"spans\":0}";
        let start = |seed: &str| {
            format!("{ok}\n{{\"type\":\"event\",\"key\":\"0x1\",\"parent\":\"0x0\",\"at_micros\":0,\"node\":\"sim\",\"kind\":\"sim_start\",\"seed\":{seed}}}")
        };
        assert!(validate_jsonl(&start("\"18446744073709551615\"")).is_ok());
        assert!(
            validate_jsonl(&start("7")).is_err(),
            "numeric sim_start seed"
        );
    }

    #[test]
    fn explain_handles_missing_metric() {
        let rec = FlightRecorder::new(4);
        assert!(explain_metric(&rec, "no.such.metric").is_none());
    }
}
