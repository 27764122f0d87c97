//! `e2ebench` — the repository's layered end-to-end benchmark.
//!
//! ```text
//! e2ebench run --workload W --seed N --seconds S --trace 0|1   one workload, one process
//! e2ebench all [--seed N] [--seconds S] [--runs R] [--trace] [FILE]   every workload, a process per run
//! e2ebench compare BASE.json NEW.json                          verdict per (workload, metric)
//! e2ebench manifest                                            print BENCHMARK.json
//! ```
//!
//! See `README.md` next to this package for the metric and workload
//! glossary and the layer ladder.

mod agent;
mod bench;
mod check;
mod fixture;
mod ladder;
mod load;
mod metrics;
mod paper;
mod probes;
mod report;
mod stats;
mod sys;
mod workloads;
mod writer;

use std::path::PathBuf;
use std::process::ExitCode;

/// Default `--seconds`, also `run_seconds` in `BENCHMARK.json`.
pub const RUN_SECONDS: u64 = 10;
/// Default `--seed`.
pub const DEFAULT_SEED: u64 = 42;
/// Where results, traces and scratch directories go, relative to the
/// directory the benchmark is started from (the checkout root).
pub const OUT_DIR: &str = "e2ebench/out";

/// Parsed command-line options.
pub struct Options {
    /// Workload name.
    pub workload: Option<String>,
    /// Seed for every generator.
    pub seed: u64,
    /// Seconds of frozen work to measure.
    pub seconds: f64,
    /// Traced (per-layer) run instead of the end-to-end run.
    pub trace: bool,
    /// Runs of each workload that `all` makes and takes the median of.
    pub runs: usize,
    /// Output directory.
    pub out: PathBuf,
    /// Where `run` writes its detailed report, if asked.
    pub detail: Option<PathBuf>,
    /// Positional arguments.
    pub files: Vec<String>,
}

fn parse(args: &[String]) -> Result<Options, String> {
    let mut o = Options {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: RUN_SECONDS as f64,
        trace: false,
        runs: 1,
        out: PathBuf::from(OUT_DIR),
        detail: None,
        files: Vec::new(),
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{arg} needs {what}"))
        };
        match arg.as_str() {
            "--workload" => o.workload = Some(value("a workload name")?),
            "--seed" => {
                o.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                o.seconds = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(o.seconds >= 1.0 && o.seconds <= 60.0) {
                    return Err("--seconds must be between 1 and 60".into());
                }
            }
            // `--trace 0|1` from the driver, bare `--trace` from a person.
            "--trace" => {
                o.trace = match it.clone().next().map(String::as_str) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                }
            }
            "--runs" => {
                o.runs = value("a number")?
                    .parse()
                    .map_err(|e| format!("--runs: {e}"))?;
                if o.runs == 0 {
                    return Err("--runs must be at least 1".into());
                }
            }
            "--out" => o.out = PathBuf::from(value("a directory")?),
            "--detail" => o.detail = Some(PathBuf::from(value("a file")?)),
            flag if flag.starts_with("--") => return Err(format!("unknown flag {flag}")),
            file => o.files.push(file.to_owned()),
        }
    }
    Ok(o)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((command, rest)) = args.split_first() else {
        eprintln!("usage: e2ebench run|all|compare|manifest ...  (see e2ebench/README.md)");
        return ExitCode::from(2);
    };
    let options = match parse(rest) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("e2ebench: {e}");
            return ExitCode::from(2);
        }
    };
    let outcome = match command.as_str() {
        "run" => report::run_one(&options),
        "all" => report::run_all(&options),
        "compare" => report::compare(&options),
        "manifest" => {
            println!("{}", report::manifest());
            Ok(true)
        }
        other => Err(format!("unknown command {other}")),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("e2ebench: {e}");
            ExitCode::from(2)
        }
    }
}
