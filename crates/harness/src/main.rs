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
//!   agora-harness --reports               # run matrix, print experiments_output.txt
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

use agora_harness::matrix::{aggregate, artifact_json, filter_selects};
use agora_harness::perf::{append_trajectory, trajectory_row};
use agora_harness::{
    diff_json, perf_to_json, read_json_file, registry, report, run_matrix, ExperimentDef,
    MatrixConfig, PhaseProfiler, BASELINE_TOLERANCE, COHORT_ERROR_POPULATION,
};
use agora_sim::probe::DEFAULT_CADENCE;
use agora_sim::trace::{FlightRecorder, DEFAULT_RING_CAPACITY};
use agora_sim::SimDuration;

#[derive(Default)]
struct Options {
    cfg: MatrixConfig,
    baseline: String,
    json_out: Option<String>,
    perf_out: Option<String>,
    update_baseline: bool,
    reports: bool,
    trace: Option<String>,
    trace_out: Option<String>,
    trace_cap: Option<usize>,
    explain: Option<String>,
    validate_trace: Option<String>,
    observe: Option<String>,
    observe_out: Option<String>,
    observe_cadence: Option<SimDuration>,
    validate_obs: Option<String>,
    watch: bool,
}

/// A replay's artifact, created at its first write (an unknown target
/// leaves no file) and written straight through: OBS lines land as the
/// probe writes them, so a long run's file is `tail -f`-able.
struct Artifact {
    path: String,
    file: Option<std::io::Result<std::fs::File>>,
}

impl Artifact {
    fn write(&mut self, text: &str) {
        use std::io::Write;
        let file = self
            .file
            .get_or_insert_with(|| std::fs::File::create(&self.path));
        if let Ok(Err(e)) = file.as_mut().map(|f| f.write_all(text.as_bytes())) {
            self.file = Some(Err(e));
        }
    }
}

/// Check one artifact (`--validate-trace`, `--validate-obs`) or replay one
/// trial (`--trace`, `--observe`, either with `--explain`). `parse_args`
/// has refused every flag the chosen mode does not read.
fn run_replay_mode(opts: &Options) -> ExitCode {
    use agora_harness::observe::ObsLineSink;
    use agora_harness::replay::{points_ring, replay};
    use agora_harness::{observe, trace};
    use std::cell::RefCell;
    use std::rc::Rc;

    type Validator = fn(&str) -> Result<String, String>;
    let validators: [(&Option<String>, Validator); 2] = [
        (&opts.validate_trace, |text| {
            let s = trace::validate_jsonl(text)?;
            Ok(format!("{} event(s), {} span(s)", s.events, s.spans))
        }),
        (&opts.validate_obs, |text| {
            let s = observe::validate_obs_jsonl(text)?;
            let (sims, frames, anomalies) = (s.sims, s.frames, s.anomalies);
            Ok(format!(
                "{sims} sim(s), {frames} frame(s), {anomalies} anomaly record(s)"
            ))
        }),
    ];
    for (path, validate) in validators {
        let Some(path) = path else { continue };
        let checked = std::fs::read_to_string(path)
            .map_err(|e| (1, format!("reading {path}: {e}")))
            .and_then(|text| validate(&text).map_err(|e| (2, format!("{path}: {e}"))));
        return match checked {
            Ok(counts) => {
                println!("{path}: OK ({counts})");
                ExitCode::SUCCESS
            }
            Err((code, e)) => {
                eprintln!("agora-harness: {e}");
                ExitCode::from(code)
            }
        };
    }

    let (kind, prefix, target, out) = match (&opts.observe, &opts.trace) {
        (Some(target), _) => ("observe", "OBS", target, &opts.observe_out),
        (None, Some(target)) => ("trace", "TRACE", target, &opts.trace_out),
        (None, None) => unreachable!("main replays only under --trace or --observe"),
    };
    let path = out
        .clone()
        .unwrap_or_else(|| format!("{prefix}_{}.jsonl", target.replace('/', "_")));
    let artifact = Rc::new(RefCell::new(Artifact { path, file: None }));
    let lines = Rc::clone(&artifact);
    let cap = opts.trace_cap.unwrap_or(DEFAULT_RING_CAPACITY);
    let (ring, obs) = match opts.observe {
        Some(_) => {
            let cadence = opts.observe_cadence.unwrap_or(DEFAULT_CADENCE);
            let sink: ObsLineSink =
                Box::new(move |line| lines.borrow_mut().write(&format!("{line}\n")));
            (
                opts.explain.as_ref().map(|_| points_ring(cap)),
                Some((cadence, sink)),
            )
        }
        None => (Some(FlightRecorder::new(cap)), None),
    };
    let _watch = opts
        .watch
        .then(|| agora_harness::watch::start(1, Duration::from_secs(2)));
    let run = match replay(&registry(), &opts.cfg, target, ring, obs) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("agora-harness: {e}");
            return ExitCode::from(1);
        }
    };
    agora_harness::watch::trial_finished();
    let (name, variant, seed) = (&run.target, &run.variant, run.seed);
    if let Some(s) = run.obs {
        let (sims, frames, anomalies) = (s.sims, s.frames, s.anomalies);
        println!("observed {name}/{variant} (seed {seed}): {sims} sim(s), {frames} frame(s), {anomalies} anomaly record(s)");
    } else if let Some(rec) = &run.recorder {
        let (len, evicted, spans) = (rec.len(), rec.evicted(), rec.spans().count());
        println!("traced {name}/{variant} (seed {seed}): {len} event(s) retained, {evicted} evicted, {spans} span(s)");
        artifact
            .borrow_mut()
            .write(&trace::trace_to_jsonl(&run, rec));
    }
    let artifact = artifact.borrow();
    if let Some(Err(e)) = &artifact.file {
        eprintln!("agora-harness: writing {}: {e}", artifact.path);
        return ExitCode::from(1);
    }
    let path = &artifact.path;
    println!("wrote {kind} artifact to {path} (deterministic; safe to diff in CI)");

    let Some(metric) = &opts.explain else {
        return ExitCode::SUCCESS;
    };
    let rec = run.recorder.as_ref().expect("--explain installs a ring");
    let Some(ex) = trace::explain_metric(rec, metric) else {
        eprintln!("agora-harness: no recorded sample for metric '{metric}' in this run");
        return ExitCode::from(1);
    };
    print!("{}", ex.text);
    println!("(resolved causal depth: {})", ex.depth);
    ExitCode::SUCCESS
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Options, String> {
    let mut opts = Options {
        baseline: "BENCH_harness.json".to_owned(),
        ..Options::default()
    };
    while let Some(arg) = args.next() {
        let mut value = || args.next().ok_or_else(|| format!("{arg} needs a value"));
        match arg.as_str() {
            "--threads" => opts.cfg.threads = parsed(&arg, value())?,
            "--seeds" => opts.cfg.seeds_per_variant = parsed(&arg, value())?,
            "--root-seed" => opts.cfg.root_seed = parsed(&arg, value())?,
            "--filter" => {
                opts.cfg.filter = Some(
                    value()?
                        .split(',')
                        .map(|s| s.trim().to_owned())
                        .filter(|s| !s.is_empty())
                        .collect(),
                )
            }
            "--baseline" => opts.baseline = value()?,
            "--json" => opts.json_out = Some(value()?),
            "--perf" => opts.perf_out = Some(value()?),
            "--trace" => opts.trace = Some(value()?),
            "--trace-out" => opts.trace_out = Some(value()?),
            "--trace-cap" => opts.trace_cap = Some(parsed(&arg, value())?),
            "--explain" => opts.explain = Some(value()?),
            "--validate-trace" => opts.validate_trace = Some(value()?),
            "--observe" => opts.observe = Some(value()?),
            "--observe-out" => opts.observe_out = Some(value()?),
            "--observe-cadence" => match parsed(&arg, value())? {
                0 => return Err("--observe-cadence must be >= 1 (seconds)".to_owned()),
                secs => opts.observe_cadence = Some(SimDuration::from_secs(secs)),
            },
            "--validate-obs" => opts.validate_obs = Some(value()?),
            "--watch" => opts.watch = true,
            "--update-baseline" => opts.update_baseline = true,
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
    if let Some(conflict) = ignored_output_flag(&opts) {
        return Err(conflict);
    }
    Ok(opts)
}

/// A flag's `value` as a number.
fn parsed<T: std::str::FromStr>(flag: &str, value: Result<String, String>) -> Result<T, String>
where
    T::Err: std::fmt::Display,
{
    value?.parse().map_err(|e| format!("{flag}: {e}"))
}

/// The first pair of flags that cannot be taken together, as a usage
/// message. A mode `main` returns on before the matrix run would drop a
/// second mode, or an output only the matrix run writes, and exit 0 all the
/// same; so would a replay flag the chosen replay does not read.
/// `--reports` renders every variant of the default matrix layout, which
/// `--filter` and `--seeds` change.
fn ignored_output_flag(opts: &Options) -> Option<String> {
    // The modes, then the outputs only the matrix run writes.
    let flags = [
        ("--observe", opts.observe.is_some()),
        ("--validate-obs", opts.validate_obs.is_some()),
        ("--trace", opts.trace.is_some()),
        ("--validate-trace", opts.validate_trace.is_some()),
        ("--perf", opts.perf_out.is_some()),
        ("--json", opts.json_out.is_some()),
        ("--update-baseline", opts.update_baseline),
        ("--reports", opts.reports),
    ];
    let mut given = flags.iter().filter(|&&(_, set)| set).map(|f| f.0);
    if let (Some(mode), Some(other)) = (given.next(), given.next()) {
        let modes = &flags[..4];
        if modes.iter().any(|&(flag, _)| flag == mode) {
            return Some(format!(
                "{other} is never read under {mode}, which returns before the \
                 matrix run; run them separately"
            ));
        }
    }
    let (trace, observe) = (opts.trace.is_some(), opts.observe.is_some());
    let ring = trace || (observe && opts.explain.is_some());
    let unread = [
        (
            "--trace-out",
            opts.trace_out.is_some() && !trace,
            "without --trace",
        ),
        (
            "--observe-out",
            opts.observe_out.is_some() && !observe,
            "without --observe",
        ),
        (
            "--observe-cadence",
            opts.observe_cadence.is_some() && !observe,
            "without --observe",
        ),
        (
            "--trace-cap",
            opts.trace_cap.is_some() && !ring,
            "without a ring: --trace, or --observe with --explain",
        ),
        (
            "--explain",
            opts.explain.is_some() && !trace && !observe,
            "without --trace or --observe",
        ),
    ];
    if let Some((flag, _, when)) = unread.iter().find(|&&(_, set, _)| set) {
        return Some(format!("{flag} is never read {when}"));
    }
    if !opts.reports {
        return None;
    }
    let layout = [
        ("--filter", opts.cfg.filter.is_some()),
        (
            "--seeds",
            opts.cfg.seeds_per_variant != MatrixConfig::default().seeds_per_variant,
        ),
    ];
    let flag = layout.iter().find(|&&(_, set)| set)?.0;
    Some(format!(
        "{flag} is refused under --reports, which renders every variant of \
         the default matrix layout"
    ))
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

/// Which source the checkout in the working directory is: `git rev-parse
/// HEAD`, and whether `git status` lists anything under `crates/` (a change
/// measured before it is committed). `(None, None)` without git.
fn checkout() -> (Option<String>, Option<bool>) {
    let git = |args: &[&str]| {
        std::process::Command::new("git")
            .args(args)
            .stderr(std::process::Stdio::null())
            .output()
            .ok()
            .filter(|out| out.status.success())
            .map(|out| String::from_utf8_lossy(&out.stdout).trim().to_owned())
    };
    let Some(commit) = git(&["rev-parse", "HEAD"]) else {
        return (None, None);
    };
    let dirty = git(&["status", "--porcelain", "--", "crates/"]).map(|s| !s.is_empty());
    (Some(commit), dirty)
}

fn main() -> ExitCode {
    let opts = match parse_args(std::env::args().skip(1)) {
        Ok(o) => o,
        Err(msg) => {
            eprintln!("agora-harness: {msg}");
            return ExitCode::from(1);
        }
    };

    if [
        &opts.trace,
        &opts.observe,
        &opts.validate_trace,
        &opts.validate_obs,
    ]
    .iter()
    .any(|mode| mode.is_some())
    {
        return run_replay_mode(&opts);
    }

    let reg = registry();

    let _watch = opts.watch.then(|| {
        let trials = agora_harness::matrix::build_trials(&reg, &opts.cfg).len();
        agora_harness::watch::start(trials, Duration::from_secs(2))
    });

    // Under --reports stdout is the report stream alone; the run summary
    // and every status line go to stderr.
    let say = |line: &str| {
        if opts.reports {
            eprintln!("{line}");
        } else {
            println!("{line}");
        }
    };
    let mut prof = PhaseProfiler::new();
    let run = prof.time("matrix", || run_matrix(&reg, &opts.cfg));
    let summary = prof.time("report_render", || report::render(&run));
    say(summary.trim_end_matches('\n'));
    let (aggregates, artifact, rendered) = prof.time("artifact_render", || {
        let aggregates = aggregate(&run);
        let artifact = artifact_json(&run, &aggregates);
        let rendered = artifact.render();
        (aggregates, artifact, rendered)
    });
    if opts.reports && run.failures() == 0 {
        print!("{}", report::render_reports(&reg, &aggregates));
    }

    if let Some(path) = &opts.json_out {
        if let Err(e) = std::fs::write(path, &rendered) {
            eprintln!("agora-harness: writing {path}: {e}");
            return ExitCode::from(1);
        }
        say(&format!("wrote artifact to {path}"));
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
        say("trajectory row: matrix at 1 and 2 threads, then tier-1 (cargo test -q)");
        let at = |threads| {
            run_matrix(
                &reg,
                &MatrixConfig {
                    threads,
                    ..opts.cfg.clone()
                },
            )
        };
        let (commit, dirty) = checkout();
        let row = trajectory_row(&at(1), &at(2), tier1_wall(), commit.as_deref(), dirty);
        if let Err(e) = append_trajectory(&mut perf, previous.as_ref(), row) {
            eprintln!("agora-harness: {path} is not overwritten: {e}");
            return ExitCode::from(1);
        }
        if let Err(e) = std::fs::write(path, perf.render()) {
            eprintln!("agora-harness: writing {path}: {e}");
            return ExitCode::from(1);
        }
        say(&format!(
            "wrote wall-clock perf artifact to {path} (not diffed in CI)"
        ));
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
        say(&format!("baseline updated: {}", opts.baseline));
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
            say(&format!(
                "baseline check: OK ({} within tolerance {})",
                opts.baseline, BASELINE_TOLERANCE
            ));
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
        say(&format!(
            "no baseline at {}; run with --update-baseline to create one",
            opts.baseline
        ));
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
            &["--trace", "dht"][..],
            &["--trace", "dht", "--explain", "dht.lookup_secs"],
            &["--validate-trace", "t.jsonl"],
            &["--observe", "e16/p10k"],
            &["--validate-obs", "o.jsonl"],
        ] {
            for output in [
                &["--perf", "p.json"][..],
                &["--json", "a.json"],
                &["--update-baseline"],
                &["--reports"],
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
        // The matrix run reads all four, together or alone.
        assert!(parse(&[
            "--perf",
            "p.json",
            "--json",
            "a.json",
            "--update-baseline",
            "--reports",
            "--threads",
            "8"
        ])
        .is_ok());
        assert!(parse(&["--trace", "dht", "--trace-out", "t.jsonl"]).is_ok());
        // --reports renders the default layout: no --filter, no --seeds
        // other than the default count.
        assert!(parse(&["--reports", "--seeds", "3"]).is_ok());
        for layout in [&["--filter", "e1"][..], &["--seeds", "2"]] {
            let err = parse(&[&["--reports"][..], layout].concat())
                .err()
                .unwrap_or_else(|| panic!("--reports {layout:?} must be refused"));
            assert!(
                err.contains("--reports") && err.contains(layout[0]),
                "{err}"
            );
            assert!(parse(layout).is_ok(), "{layout:?} alone");
        }
    }

    #[test]
    fn a_replay_flag_the_chosen_replay_does_not_read_is_a_usage_error() {
        let parse = |args: &str| parse_args(args.split_whitespace().map(str::to_owned));
        // Each command line, with the flags its message must name.
        for (args, named) in [
            ("--observe e1 --trace e3", "--trace --observe"),
            ("--trace e3 --validate-obs o", "--validate-obs --trace"),
            (
                "--validate-trace t --validate-obs o",
                "--validate-obs --validate-trace",
            ),
            ("--trace-out t", "--trace-out --trace"),
            ("--observe e1 --trace-out t", "--trace-out --trace"),
            ("--observe-out o", "--observe-out --observe"),
            ("--trace e3 --observe-out o", "--observe-out --observe"),
            (
                "--trace e3 --observe-cadence 60",
                "--observe-cadence --observe",
            ),
            ("--trace-cap 64", "--trace-cap --trace"),
            ("--observe e1 --trace-cap 64", "--trace-cap --explain"),
            ("--explain m", "--explain --trace"),
            ("--observe e1 --observe-cadence 0", "--observe-cadence"),
        ] {
            let err = parse(args)
                .err()
                .unwrap_or_else(|| panic!("{args} must be refused"));
            assert!(
                named.split(' ').all(|flag| err.contains(flag)),
                "{args}: {err}"
            );
        }
        for ok in [
            "--trace e3 --trace-out t --trace-cap 64 --watch",
            "--trace dht --explain dht.lookup_secs",
            "--observe e1 --observe-out o --observe-cadence 60 --watch",
            "--observe e1 --explain m --trace-cap 64",
        ] {
            assert!(parse(ok).is_ok(), "{ok}");
        }
    }
}
