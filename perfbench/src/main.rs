//! The repository benchmark.
//!
//! ```text
//! perfbench --workload <kg-read|road-shard|kg-write|build> [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! Runs one named workload, checks the program's outputs, and prints as
//! its last line one JSON object: `correct`, `attempted`, `failed` and
//! `metrics`. With `--trace 0` the metrics are the end-to-end metrics,
//! measured untraced; with `--trace 1` they are the per-layer metrics of
//! a traced run, whose spans are written to `.perfbench/`. See
//! `README.md` beside this package for the workloads and metrics.

mod build;
mod check;
mod kg_read;
mod kg_write;
mod load;
mod metrics;
mod road_shard;
mod serving;
mod trace;
mod util;

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Duration;
use util::Metrics;

/// A workload: its name, default seed and held-out seed.
pub struct Workload {
    /// Name given to `--workload`.
    pub name: &'static str,
    /// Seed used when `--seed` is absent.
    pub default_seed: u64,
    /// Seed kept back for confirming a claim on unseen inputs.
    pub held_out_seed: u64,
}

/// Every workload the benchmark runs.
pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "kg-read",
        default_seed: 11,
        held_out_seed: 1011,
    },
    Workload {
        name: "road-shard",
        default_seed: 12,
        held_out_seed: 1012,
    },
    Workload {
        name: "kg-write",
        default_seed: 13,
        held_out_seed: 1013,
    },
    Workload {
        name: "build",
        default_seed: 14,
        held_out_seed: 1014,
    },
];

/// What the command line asked for.
pub struct Args {
    /// The workload to run.
    pub workload: &'static Workload,
    /// Seed every generated input derives from.
    pub seed: u64,
    /// How long the timed phase runs.
    pub duration: Duration,
    /// Run the traced variant.
    pub trace: bool,
    /// Where stores and span files go.
    pub work_dir: PathBuf,
}

/// What a workload run produced.
#[derive(Default)]
pub struct Outcome {
    /// Operations attempted (reads, commits, builds).
    pub attempted: u64,
    /// Operations that failed, were refused, or failed a check.
    pub failed: u64,
    /// Every violation found, one line each.
    pub violations: Vec<String>,
    /// The metrics to print.
    pub metrics: Metrics,
}

impl Outcome {
    /// Records a failed check; the run is then incorrect.
    pub fn violation(&mut self, what: String) {
        self.violations.push(what);
    }
}

fn usage() -> String {
    let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
    let seeds: Vec<String> = WORKLOADS
        .iter()
        .map(|w| {
            format!(
                "  {}: default seed {}, held-out seed {}",
                w.name, w.default_seed, w.held_out_seed
            )
        })
        .collect();
    format!(
        "usage: perfbench --workload <{}> [--seed N] [--seconds S] [--trace 0|1]\n{}",
        names.join("|"),
        seeds.join("\n")
    )
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = 10.0f64;
    let mut trace = false;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value\n{}", usage()))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    WORKLOADS
                        .iter()
                        .find(|w| w.name == value)
                        .ok_or_else(|| format!("unknown workload {value}\n{}", usage()))?,
                );
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds > 0.0 && seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            _ => return Err(format!("unknown flag {flag}\n{}", usage())),
        }
    }
    let workload = workload.ok_or_else(usage)?;
    Ok(Args {
        workload,
        seed: seed.unwrap_or(workload.default_seed),
        duration: Duration::from_secs_f64(seconds),
        trace,
        work_dir: Path::new(".perfbench").to_path_buf(),
    })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(&args.work_dir) {
        eprintln!("cannot create {}: {e}", args.work_dir.display());
        return ExitCode::from(2);
    }
    eprintln!(
        "workload {} seed {} ({}s, trace {}, {} cores)",
        args.workload.name,
        args.seed,
        args.duration.as_secs_f64(),
        u8::from(args.trace),
        metrics::cores()
    );
    let mut outcome = match args.workload.name {
        "kg-read" => kg_read::run(&args),
        "road-shard" => road_shard::run(&args),
        "kg-write" => kg_write::run(&args),
        _ => build::run(&args),
    };
    if outcome.attempted == 0 {
        outcome.violation("no operation was attempted".into());
    }
    if let Err(e) = metrics::complete(&mut outcome.metrics, args.trace) {
        outcome.violation(e);
    }
    for v in &outcome.violations {
        eprintln!("CHECK FAILED: {v}");
    }
    let correct = outcome.violations.is_empty() && outcome.failed == 0;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        outcome.attempted.max(1),
        outcome.failed,
        outcome.metrics.to_json()
    );
    ExitCode::SUCCESS
}
