//! `agora-harness` — run the experiment trial matrix in parallel, emit the
//! JSON telemetry artifact, and diff it against the checked-in baseline.
//!
//! Usage (from the repo root):
//!   agora-harness                         # run matrix, diff BENCH_harness.json
//!   agora-harness --update-baseline       # run matrix, rewrite the baseline
//!   agora-harness --threads 1 --json out.json
//!   agora-harness --filter e1,e3 --seeds 5
//!   agora-harness --filter e16p/p10k  # one variant of one experiment
//!   agora-harness --perf BENCH_perf.json   # also write wall-clock artifact + trajectory row
//!   agora-harness --speedup               # measure serial vs parallel wall clock
//!   agora-harness --reports               # classic experiments_output.txt stream
//!   agora-harness --trace dht             # replay one trial, write TRACE_dht.jsonl
//!   agora-harness --trace e3/f0.20 --explain e3.downtime_secs
//!   agora-harness --validate-trace TRACE_dht.jsonl
//!   agora-harness --observe e16/p10k      # replay one trial, write OBS_e16_p10k.jsonl
//!   agora-harness --observe e16/p1m --explain anomaly.overload
//!   agora-harness --validate-obs OBS_e16_p10k.jsonl
//!   agora-harness --watch                 # wall-clock heartbeat on stderr
//!
//! Exit codes: 0 ok; 1 usage error; 2 baseline regression; 3 trial panics.

#![forbid(unsafe_code)]

use std::process::ExitCode;
use std::time::Duration;

use agora_harness::matrix::filter_selects;
use agora_harness::perf::{append_trajectory, trajectory_row};
use agora_harness::{
    diff_json, perf_to_json, read_json_file, registry, report, run_matrix, run_to_json,
    ExperimentDef, MatrixConfig, PhaseProfiler, BASELINE_TOLERANCE, COHORT_ERROR_POPULATION,
};

struct Options {
    cfg: MatrixConfig,
    baseline: String,
    json_out: Option<String>,
    perf_out: Option<String>,
    update_baseline: bool,
    speedup: bool,
    reports: bool,
    trace: Option<String>,
    trace_out: Option<String>,
    trace_cap: Option<usize>,
    explain: Option<String>,
    validate_trace: Option<String>,
    observe: Option<String>,
    observe_out: Option<String>,
    observe_cadence_secs: Option<u64>,
    validate_obs: Option<String>,
    watch: bool,
}

/// Handle `--trace`, `--explain`, and `--validate-trace`.
fn run_trace_mode(opts: &Options) -> ExitCode {
    use agora_harness::trace;

    if let Some(path) = &opts.validate_trace {
        let text = match std::fs::read_to_string(path) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("agora-harness: reading {path}: {e}");
                return ExitCode::from(1);
            }
        };
        return match trace::validate_jsonl(&text) {
            Ok(s) => {
                println!("{path}: OK ({} event(s), {} span(s))", s.events, s.spans);
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("agora-harness: {path}: {e}");
                ExitCode::from(2)
            }
        };
    }

    // `--explain` without `--trace` explains the DHT provenance scenario.
    let target = opts.trace.clone().unwrap_or_else(|| "dht".to_owned());
    let cap = opts
        .trace_cap
        .unwrap_or(agora_sim::trace::DEFAULT_RING_CAPACITY);
    let run = match trace::run_trace_target(&registry(), &opts.cfg, &target, cap) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("agora-harness: {e}");
            return ExitCode::from(1);
        }
    };
    println!(
        "traced {}/{} (seed {}): {} event(s) retained, {} evicted, {} span(s)",
        run.target,
        run.variant,
        run.seed,
        run.recorder.len(),
        run.recorder.evicted(),
        run.recorder.spans().count()
    );
    let out_path = opts
        .trace_out
        .clone()
        .unwrap_or_else(|| format!("TRACE_{}.jsonl", target.replace('/', "_")));
    if let Err(e) = std::fs::write(&out_path, trace::trace_to_jsonl(&run)) {
        eprintln!("agora-harness: writing {out_path}: {e}");
        return ExitCode::from(1);
    }
    println!("wrote trace artifact to {out_path} (deterministic; safe to diff in CI)");

    if let Some(metric) = &opts.explain {
        match trace::explain_metric(&run.recorder, metric) {
            Some(ex) => {
                print!("{}", ex.text);
                println!("(resolved causal depth: {})", ex.depth);
            }
            None => {
                eprintln!("agora-harness: no recorded sample for metric '{metric}' in this trace");
                return ExitCode::from(1);
            }
        }
    }
    ExitCode::SUCCESS
}

/// Handle `--observe` and `--validate-obs`.
fn run_observe_mode(opts: &Options) -> ExitCode {
    use agora_harness::observe;
    use std::cell::{Cell, RefCell};
    use std::io::Write;
    use std::rc::Rc;

    if let Some(path) = &opts.validate_obs {
        let text = match std::fs::read_to_string(path) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("agora-harness: reading {path}: {e}");
                return ExitCode::from(1);
            }
        };
        return match observe::validate_obs_jsonl(&text) {
            Ok(s) => {
                println!(
                    "{path}: OK ({} sim(s), {} frame(s), {} anomaly record(s))",
                    s.sims, s.frames, s.anomalies
                );
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("agora-harness: {path}: {e}");
                ExitCode::from(2)
            }
        };
    }

    let target = opts
        .observe
        .clone()
        .expect("observe dispatch needs a target");
    let trace_ring = opts.explain.as_ref().map(|_| {
        opts.trace_cap
            .unwrap_or(agora_sim::trace::DEFAULT_RING_CAPACITY)
    });

    let cadence = match opts.observe_cadence_secs {
        None => agora_observer::DEFAULT_CADENCE,
        Some(0) => {
            eprintln!("agora-harness: --observe-cadence must be >= 1 (seconds)");
            return ExitCode::from(1);
        }
        Some(secs) => agora_sim::SimDuration::from_secs(secs),
    };

    let out_path = opts
        .observe_out
        .clone()
        .unwrap_or_else(|| format!("OBS_{}.jsonl", target.replace('/', "_")));
    let file = match std::fs::File::create(&out_path) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("agora-harness: creating {out_path}: {e}");
            return ExitCode::from(1);
        }
    };
    let writer = Rc::new(RefCell::new(std::io::BufWriter::new(file)));
    let write_failed = Rc::new(Cell::new(false));
    let sink_writer = Rc::clone(&writer);
    let sink_failed = Rc::clone(&write_failed);
    // Each record is flushed as soon as the observer emits it, so a long
    // run's artifact is `tail -f`-able and survives a mid-run interrupt.
    let sink = Box::new(move |line: &str| {
        let mut w = sink_writer.borrow_mut();
        if writeln!(w, "{line}").and_then(|_| w.flush()).is_err() {
            sink_failed.set(true);
        }
    });

    let _watch = opts
        .watch
        .then(|| agora_harness::watch::start(1, Duration::from_secs(2)));
    let run = match observe::run_observe_target(
        &registry(),
        &opts.cfg,
        &target,
        cadence,
        trace_ring,
        sink,
    ) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("agora-harness: {e}");
            return ExitCode::from(1);
        }
    };
    agora_harness::watch::trial_finished();
    drop(writer);
    if write_failed.get() {
        eprintln!("agora-harness: writing {out_path} failed mid-stream");
        return ExitCode::from(1);
    }
    println!(
        "observed {}/{} (seed {}): {} sim(s), {} frame(s), {} anomaly record(s)",
        run.target,
        run.variant,
        run.seed,
        run.summary.sims,
        run.summary.frames,
        run.summary.anomalies.values().sum::<u64>()
    );
    println!("wrote observe artifact to {out_path} (deterministic; safe to diff in CI)");

    if let Some(metric) = &opts.explain {
        let rec = run.recorder.as_ref().expect("ring installed for --explain");
        match agora_harness::trace::explain_metric(rec, metric) {
            Some(ex) => {
                print!("{}", ex.text);
                println!("(resolved causal depth: {})", ex.depth);
            }
            None => {
                eprintln!("agora-harness: no recorded sample for metric '{metric}' in this run");
                return ExitCode::from(1);
            }
        }
    }
    ExitCode::SUCCESS
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Options, String> {
    let mut opts = Options {
        cfg: MatrixConfig::default(),
        baseline: "BENCH_harness.json".to_owned(),
        json_out: None,
        perf_out: None,
        update_baseline: false,
        speedup: false,
        reports: false,
        trace: None,
        trace_out: None,
        trace_cap: None,
        explain: None,
        validate_trace: None,
        observe: None,
        observe_out: None,
        observe_cadence_secs: None,
        validate_obs: None,
        watch: false,
    };
    while let Some(arg) = args.next() {
        let mut value = |name: &str| args.next().ok_or_else(|| format!("{name} needs a value"));
        match arg.as_str() {
            "--threads" => {
                opts.cfg.threads = value("--threads")?
                    .parse()
                    .map_err(|e| format!("--threads: {e}"))?
            }
            "--seeds" => {
                opts.cfg.seeds_per_variant = value("--seeds")?
                    .parse()
                    .map_err(|e| format!("--seeds: {e}"))?
            }
            "--root-seed" => {
                opts.cfg.root_seed = value("--root-seed")?
                    .parse()
                    .map_err(|e| format!("--root-seed: {e}"))?
            }
            "--filter" => {
                opts.cfg.filter = Some(
                    value("--filter")?
                        .split(',')
                        .map(|s| s.trim().to_owned())
                        .filter(|s| !s.is_empty())
                        .collect(),
                )
            }
            "--baseline" => opts.baseline = value("--baseline")?,
            "--json" => opts.json_out = Some(value("--json")?),
            "--perf" => opts.perf_out = Some(value("--perf")?),
            "--trace" => opts.trace = Some(value("--trace")?),
            "--trace-out" => opts.trace_out = Some(value("--trace-out")?),
            "--trace-cap" => {
                opts.trace_cap = Some(
                    value("--trace-cap")?
                        .parse()
                        .map_err(|e| format!("--trace-cap: {e}"))?,
                )
            }
            "--explain" => opts.explain = Some(value("--explain")?),
            "--validate-trace" => opts.validate_trace = Some(value("--validate-trace")?),
            "--observe" => opts.observe = Some(value("--observe")?),
            "--observe-out" => opts.observe_out = Some(value("--observe-out")?),
            "--observe-cadence" => {
                opts.observe_cadence_secs = Some(
                    value("--observe-cadence")?
                        .parse()
                        .map_err(|e| format!("--observe-cadence: {e}"))?,
                )
            }
            "--validate-obs" => opts.validate_obs = Some(value("--validate-obs")?),
            "--watch" => opts.watch = true,
            "--update-baseline" => opts.update_baseline = true,
            "--speedup" => opts.speedup = true,
            "--reports" => opts.reports = true,
            "--help" | "-h" => {
                return Err("see crate docs / README for usage".to_owned());
            }
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    if let Some(filter) = &opts.cfg.filter {
        let reg = registry();
        if let Some(entry) = unmatched_filter_entry(&reg, filter) {
            let ids: Vec<&str> = reg.iter().map(|def| def.id).collect();
            return Err(format!(
                "--filter entry '{entry}' selects no experiment or variant \
                 (ids: {}; one variant is id/label, e.g. e16p/p10k)",
                ids.join(", ")
            ));
        }
    }
    if let Some((mode, output)) = ignored_output_flag(&opts) {
        return Err(format!(
            "{output} is never written under {mode}, which returns before the \
             matrix run; run them separately"
        ));
    }
    Ok(opts)
}

/// The first `(mode, output)` pair where `mode` is a flag `main` returns on
/// before the matrix run and `output` one that only the matrix run reads.
/// Taken together, the output flag would be dropped and the exit still 0.
fn ignored_output_flag(opts: &Options) -> Option<(&'static str, &'static str)> {
    let modes = [
        ("--reports", opts.reports),
        ("--observe", opts.observe.is_some()),
        ("--validate-obs", opts.validate_obs.is_some()),
        ("--trace", opts.trace.is_some()),
        ("--explain", opts.explain.is_some()),
        ("--validate-trace", opts.validate_trace.is_some()),
        ("--speedup", opts.speedup),
    ];
    let outputs = [
        ("--perf", opts.perf_out.is_some()),
        ("--json", opts.json_out.is_some()),
        ("--update-baseline", opts.update_baseline),
    ];
    let mode = modes.into_iter().find(|&(_, set)| set)?.0;
    let output = outputs.into_iter().find(|&(_, set)| set)?.0;
    Some((mode, output))
}

/// The first `--filter` entry that selects no `(experiment, variant)` of the
/// registry. Such an entry is a typo: run as given it would build an empty or
/// short matrix and report the missing rows as a baseline regression.
fn unmatched_filter_entry<'a>(reg: &[ExperimentDef], filter: &'a [String]) -> Option<&'a str> {
    filter.iter().map(String::as_str).find(|entry| {
        !reg.iter().any(|def| {
            def.variants
                .iter()
                .any(|v| filter_selects(entry, def.id, v.label))
        })
    })
}

/// Print the classic report stream (the contents of experiments_output.txt)
/// through the harness binary.
fn print_reports() {
    use agora::experiments::{
        e10_federated_failover, e11_guerrilla_relay, e12_moderation_tension, e13_financing_gap,
        e14_usenet_collapse, e15_degradation_sweep, e16_flash_crowd_sweep, e16_policy_sweep,
        e17_market_sweep, e18_app_sweep, e1_naming_tradeoff, e2_naming_attacks,
        e3_groupcomm_availability, e4_privacy, e5_storage_proofs, e6_durability,
        e7_web_availability, e8_quality_vs_quantity, e9_chain_costs, t1_taxonomy,
        t2_storage_systems, t3_feasibility,
    };
    const SEED: u64 = 20171130; // HotNets-XVI, day one
    println!("{}\n", t1_taxonomy());
    println!("{}\n", t2_storage_systems());
    println!("{}\n", t3_feasibility());
    println!("{}\n", e1_naming_tradeoff(SEED).1);
    println!("{}\n", e2_naming_attacks(SEED).1);
    for f in [0.0, 0.2, 0.4] {
        println!("{}\n", e3_groupcomm_availability(SEED, f).1);
    }
    println!("{}\n", e4_privacy(SEED).1);
    println!("{}\n", e5_storage_proofs(SEED).1);
    println!("{}\n", e6_durability(SEED).1);
    println!("{}\n", e7_web_availability(SEED).1);
    println!("{}\n", e8_quality_vs_quantity(SEED).1);
    println!("{}\n", e9_chain_costs(SEED).1);
    println!("{}\n", e10_federated_failover(SEED).1);
    println!("{}\n", e11_guerrilla_relay(SEED).1);
    println!("{}\n", e12_moderation_tension(SEED).1);
    println!("{}\n", e13_financing_gap(SEED).1);
    println!("{}\n", e14_usenet_collapse(SEED).1);
    println!("{}\n", e15_degradation_sweep(SEED).1);
    println!("{}\n", e16_flash_crowd_sweep(SEED).1);
    println!("{}\n", e16_policy_sweep(SEED).1);
    println!("{}\n", e17_market_sweep(SEED).1);
    println!("{}\n", e18_app_sweep(SEED).1);
    println!("{}", agora::render_property_matrix());
    println!("{}", agora::naming_zooko_table());
}

/// Wall time of tier-1's test run (`cargo test -q`) on the checkout in
/// the working directory, warm: the test binaries are built first,
/// untimed. `None` when cargo cannot run there or a test fails.
fn tier1_wall() -> Option<Duration> {
    let cargo = |args: &[&str]| {
        std::process::Command::new("cargo")
            .args(args)
            .stdout(std::process::Stdio::null())
            .stderr(std::process::Stdio::null())
            .status()
            .is_ok_and(|status| status.success())
    };
    if !cargo(&["test", "-q", "--offline", "--no-run"]) {
        return None;
    }
    let started = std::time::Instant::now();
    cargo(&["test", "-q", "--offline"]).then(|| started.elapsed())
}

fn main() -> ExitCode {
    let opts = match parse_args(std::env::args().skip(1)) {
        Ok(o) => o,
        Err(msg) => {
            eprintln!("agora-harness: {msg}");
            return ExitCode::from(1);
        }
    };

    if opts.reports {
        print_reports();
        return ExitCode::SUCCESS;
    }

    // Observe mode wins when both could apply: `--observe X --explain M`
    // explains M against the observed run's recording, not a trace replay.
    if opts.observe.is_some() || opts.validate_obs.is_some() {
        return run_observe_mode(&opts);
    }

    if opts.trace.is_some() || opts.explain.is_some() || opts.validate_trace.is_some() {
        return run_trace_mode(&opts);
    }

    let reg = registry();

    let _watch = opts.watch.then(|| {
        let trials = agora_harness::matrix::build_trials(&reg, &opts.cfg).len();
        let total = if opts.speedup { trials * 2 } else { trials };
        agora_harness::watch::start(total, Duration::from_secs(2))
    });

    if opts.speedup {
        let serial_cfg = MatrixConfig {
            threads: 1,
            ..opts.cfg.clone()
        };
        let serial = run_matrix(&reg, &serial_cfg);
        let parallel = run_matrix(&reg, &opts.cfg);
        let speedup = serial.wall.as_secs_f64() / parallel.wall.as_secs_f64().max(1e-9);
        println!(
            "serial   ({} thread):  {:>7.2} s",
            1,
            serial.wall.as_secs_f64()
        );
        println!(
            "parallel ({} threads): {:>7.2} s",
            parallel.config.threads,
            parallel.wall.as_secs_f64()
        );
        println!("speedup: {speedup:.2}x");
        let identical = run_to_json(&serial).render() == run_to_json(&parallel).render();
        println!(
            "artifacts byte-identical across thread counts: {}",
            if identical {
                "yes"
            } else {
                "NO — determinism bug"
            }
        );
        return if identical {
            ExitCode::SUCCESS
        } else {
            ExitCode::from(2)
        };
    }

    let mut prof = PhaseProfiler::new();
    let run = prof.time("matrix", || run_matrix(&reg, &opts.cfg));
    print!("{}", prof.time("report_render", || report::render(&run)));
    let (artifact, rendered) = prof.time("artifact_render", || {
        let artifact = run_to_json(&run);
        let rendered = artifact.render();
        (artifact, rendered)
    });

    if let Some(path) = &opts.json_out {
        if let Err(e) = std::fs::write(path, &rendered) {
            eprintln!("agora-harness: writing {path}: {e}");
            return ExitCode::from(1);
        }
        println!("wrote artifact to {path}");
    }

    if let Some(path) = &opts.perf_out {
        // The file's `trajectory` is history this run appends to: a file
        // that exists but does not read is refused, not overwritten.
        let previous = std::path::Path::new(path)
            .exists()
            .then(|| read_json_file(path));
        let previous = match previous.transpose() {
            Ok(previous) => previous,
            Err(e) => {
                eprintln!("agora-harness: {path} is not overwritten: {e}");
                return ExitCode::from(1);
            }
        };
        let mut perf = perf_to_json(&run, prof, COHORT_ERROR_POPULATION);
        println!("trajectory row: matrix at 1 and 2 threads, then tier-1 (cargo test -q)");
        let at = |threads| {
            run_matrix(
                &reg,
                &MatrixConfig {
                    threads,
                    ..opts.cfg.clone()
                },
            )
        };
        let row = trajectory_row(&at(1), &at(2), tier1_wall());
        if let Err(e) = append_trajectory(&mut perf, previous.as_ref(), row) {
            eprintln!("agora-harness: {path} is not overwritten: {e}");
            return ExitCode::from(1);
        }
        if let Err(e) = std::fs::write(path, perf.render()) {
            eprintln!("agora-harness: writing {path}: {e}");
            return ExitCode::from(1);
        }
        println!("wrote wall-clock perf artifact to {path} (not diffed in CI)");
    }

    if run.failures() > 0 {
        eprintln!("agora-harness: {} trial(s) panicked", run.failures());
        return ExitCode::from(3);
    }

    if opts.update_baseline {
        if let Err(e) = std::fs::write(&opts.baseline, &rendered) {
            eprintln!("agora-harness: writing {}: {e}", opts.baseline);
            return ExitCode::from(1);
        }
        println!("baseline updated: {}", opts.baseline);
        return ExitCode::SUCCESS;
    }

    if std::path::Path::new(&opts.baseline).exists() {
        let baseline = match read_json_file(&opts.baseline) {
            Ok(b) => b,
            Err(e) => {
                eprintln!("agora-harness: invalid baseline: {e}");
                return ExitCode::from(1);
            }
        };
        let diffs = diff_json(&baseline, &artifact, BASELINE_TOLERANCE);
        if diffs.is_empty() {
            println!(
                "baseline check: OK ({} within tolerance {})",
                opts.baseline, BASELINE_TOLERANCE
            );
            ExitCode::SUCCESS
        } else {
            eprintln!(
                "baseline REGRESSION vs {} ({} difference(s), tolerance {}):",
                opts.baseline,
                diffs.len(),
                BASELINE_TOLERANCE
            );
            for d in diffs.iter().take(50) {
                eprintln!("  {d}");
            }
            if diffs.len() > 50 {
                eprintln!("  ... and {} more", diffs.len() - 50);
            }
            eprintln!("(intentional change? re-run with --update-baseline)");
            ExitCode::from(2)
        }
    } else {
        println!(
            "no baseline at {}; run with --update-baseline to create one",
            opts.baseline
        );
        ExitCode::SUCCESS
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_filter_entry_must_select_a_registered_variant() {
        let reg = registry();
        let filter =
            |entries: &[&str]| -> Vec<String> { entries.iter().map(|&e| e.to_owned()).collect() };
        for ok in [&["e1"][..], &["e16p/p10k"], &["e1", "e3/f0.20", "e18"]] {
            assert_eq!(unmatched_filter_entry(&reg, &filter(ok)), None, "{ok:?}");
        }
        // An unknown id, a label in the wrong case, a label of another
        // experiment, a trailing slash: each is named, wherever it sits.
        for (entries, bad) in [
            (&["nosuch"][..], "nosuch"),
            (&["e16/p10K"], "e16/p10K"),
            (&["e1", "e3/p10k"], "e3/p10k"),
            (&["e1/", "e2"], "e1/"),
            (&["e1", "E2"], "E2"),
        ] {
            assert_eq!(
                unmatched_filter_entry(&reg, &filter(entries)),
                Some(bad),
                "{entries:?}"
            );
        }
    }

    #[test]
    fn an_output_flag_under_an_early_returning_mode_is_a_usage_error() {
        let parse = |args: &[&str]| parse_args(args.iter().map(|&a| a.to_owned()));
        for mode in [
            &["--speedup"][..],
            &["--reports"],
            &["--trace", "dht"],
            &["--explain", "dht.lookup_secs"],
            &["--validate-trace", "t.jsonl"],
            &["--observe", "e16/p10k"],
            &["--validate-obs", "o.jsonl"],
        ] {
            for output in [
                &["--perf", "p.json"][..],
                &["--json", "a.json"],
                &["--update-baseline"],
            ] {
                let err = match parse(&[mode, output].concat()) {
                    Err(e) => e,
                    Ok(_) => panic!("{mode:?} {output:?} must be refused"),
                };
                assert!(
                    err.contains(mode[0]) && err.contains(output[0]),
                    "{mode:?} {output:?}: {err}"
                );
            }
            assert!(parse(mode).is_ok(), "{mode:?} alone");
        }
        // The matrix run reads all three, together or alone.
        assert!(parse(&["--perf", "p.json", "--json", "a.json", "--update-baseline"]).is_ok());
        assert!(parse(&["--trace", "dht", "--trace-out", "t.jsonl"]).is_ok());
    }
}
