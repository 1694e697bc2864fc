//! `agora-benchmark`: the benchmark `BENCHMARK.json` at the repository root
//! names. See `README.md` beside this crate.
//!
//! ```text
//! agora-benchmark --workload <name> [--seed <u64>] [--seconds <n>] [--trace <0|1>]
//! agora-benchmark compare <A.jsonl> <B.jsonl>
//! ```
//! Run it from the repository root: it reads `BENCH_harness.json` there and
//! writes under `benchmark/out/`.

mod compare;
mod engine_core;
mod names;
mod ops;
mod probes;
mod procfs;
mod reference;
mod run;
mod sink;
mod spans;
mod stats;

use std::process::ExitCode;
use std::time::Instant;

const USAGE: &str = "usage: agora-benchmark --workload <flash_day|classic_suite|engine_core|\
exact_users> [--seed <u64>] [--seconds <n>] [--trace <0|1>]\n       \
agora-benchmark compare <A.jsonl> <B.jsonl>";

/// `run_seconds` of `BENCHMARK.json`.
const DEFAULT_SECONDS: f64 = 18.0;

fn parse_args(args: &[String]) -> Result<run::Args, String> {
    let mut parsed = run::Args {
        workload: String::new(),
        seed: ops::DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => parsed.workload = value.clone(),
            "--seed" => parsed.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => parsed.seconds = value.parse().map_err(|_| bad())?,
            "--trace" => {
                parsed.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    if parsed.workload.is_empty() {
        return Err("--workload is required".to_owned());
    }
    if !(parsed.seconds >= 0.0 && parsed.seconds <= 600.0) {
        return Err(format!("--seconds {} is out of range", parsed.seconds));
    }
    Ok(parsed)
}

fn main() -> ExitCode {
    let origin = Instant::now();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("compare") if args.len() == 3 => compare::compare(&args[1], &args[2]),
        Some("compare") => Err("compare takes two files".to_owned()),
        _ => parse_args(&args).and_then(|parsed| run::run(&parsed, origin)),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        // An op failed its check, or the compared sets disagree.
        Ok(false) => ExitCode::from(2),
        Err(msg) => {
            eprintln!("agora-benchmark: {msg}\n{USAGE}");
            ExitCode::from(1)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(words: &[&str]) -> Vec<String> {
        words.iter().map(|w| (*w).to_owned()).collect()
    }

    #[test]
    fn the_drivers_invocation_parses() {
        let a = parse_args(&args(&[
            "--workload",
            "flash_day",
            "--seed",
            "7",
            "--seconds",
            "12",
            "--trace",
            "1",
        ]))
        .expect("parses");
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("flash_day", 7, 12.0, true)
        );
        let d = parse_args(&args(&["--workload", "engine_core"])).expect("parses");
        assert_eq!(
            (d.seed, d.seconds, d.trace),
            (ops::DEFAULT_SEED, DEFAULT_SECONDS, false)
        );
    }

    #[test]
    fn bad_invocations_are_refused() {
        for bad in [
            &["--seed", "7"][..],
            &["--workload"],
            &["--workload", "x", "--seed", "-1"],
            &["--workload", "x", "--trace", "2"],
            &["--workload", "x", "--seconds", "nan"],
            &["--workload", "x", "--bogus", "1"],
        ] {
            assert!(parse_args(&args(bad)).is_err(), "{bad:?}");
        }
    }
}
