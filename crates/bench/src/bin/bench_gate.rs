//! CI performance-regression gate.
//!
//! ```text
//! bench_gate ci/bench_baseline.json BENCH_build.json BENCH_throughput.json
//! ```
//!
//! Every numeric key ending in `_ms`, `_us`, or `_regret` (lower is
//! better) or in `_per_s` — or containing `_qps` anywhere, as in
//! `sharded_qps_4shards` (higher is better) — that appears in both the
//! baseline and a current artifact is compared. The gate fails (exit 1)
//! when a lower-is-better metric exceeds `baseline * factor`, or a
//! higher-is-better metric drops below `baseline / factor`. The factor
//! defaults to 1.3 (the 30% budget from CONTRIBUTING.md) and can be
//! overridden with `BGI_BENCH_GATE_FACTOR`. A gated baseline key
//! missing from every current artifact also fails — a metric cannot
//! silently stop being measured.
//!
//! `BGI_BENCH_GATE_INJECT=<x>` simulates an `x`-fold slowdown before
//! comparing: it multiplies lower-is-better values and *divides*
//! higher-is-better ones (a slow system takes more microseconds and
//! sustains fewer ops per second). CI runs the gate a second time with
//! `2.0` and asserts it exits non-zero, so every green run also proves
//! the gate still trips on a 2x slowdown — in both directions.
//!
//! When `GITHUB_STEP_SUMMARY` names a file, the per-metric
//! baseline-vs-measured delta table is also appended there as GitHub
//! markdown, so the comparison shows up on the workflow run page
//! without digging through logs.
use bgi_bench::json::{self, Value};
use std::collections::BTreeMap;
use std::io::Write as _;
use std::process::ExitCode;

/// Direction of a gated metric: which way is a regression?
#[derive(Clone, Copy, PartialEq, Eq)]
enum Direction {
    /// `_ms` / `_us` / `_regret`: regression when current grows.
    LowerIsBetter,
    /// `_per_s` / `_qps`: regression when current shrinks.
    HigherIsBetter,
}

fn direction(key: &str) -> Option<Direction> {
    if key.ends_with("_ms") || key.ends_with("_us") || key.ends_with("_regret") {
        Some(Direction::LowerIsBetter)
    } else if key.ends_with("_per_s") || key.contains("_qps") {
        // `_qps` is matched anywhere in the key: the sharded sweep
        // names its points `sharded_qps_<n>shards`.
        Some(Direction::HigherIsBetter)
    } else {
        None
    }
}

/// One compared metric, shared by the console table, the exit code and
/// the step-summary markdown.
struct Row {
    key: String,
    base: f64,
    /// Inject-adjusted current value; `None` when not measured.
    cur: Option<f64>,
    /// `current / baseline` (so >1 is slower for `_us`, faster for
    /// `_per_s`); `None` when not measured.
    ratio: Option<f64>,
    ok: bool,
}

fn load(path: &str) -> BTreeMap<String, Value> {
    let text = std::fs::read_to_string(path)
        .unwrap_or_else(|e| panic!("bench_gate: cannot read {path}: {e}"));
    json::parse_flat(&text).unwrap_or_else(|e| panic!("bench_gate: cannot parse {path}: {e}"))
}

fn env_factor(name: &str, default: f64) -> f64 {
    match std::env::var(name) {
        Ok(s) => s
            .trim()
            .parse::<f64>()
            .unwrap_or_else(|e| panic!("bench_gate: bad {name}={s:?}: {e}")),
        Err(_) => default,
    }
}

/// Append the delta table to `$GITHUB_STEP_SUMMARY` when it names a
/// file. Best-effort: a summary write failure must not flip the gate.
fn write_step_summary(rows: &[Row], factor: f64, inject: f64, failures: usize) {
    let Ok(path) = std::env::var("GITHUB_STEP_SUMMARY") else {
        return;
    };
    if path.trim().is_empty() {
        return;
    }
    let mut md = String::new();
    md.push_str("### Bench gate\n\n");
    if inject != 1.0 {
        md.push_str(&format!(
            "_Injected {inject}x slowdown (`BGI_BENCH_GATE_INJECT`) — self-test run._\n\n"
        ));
    }
    md.push_str("| metric | baseline | measured | ratio | status |\n");
    md.push_str("|---|---:|---:|---:|---|\n");
    for row in rows {
        let (cur, ratio) = match (row.cur, row.ratio) {
            (Some(c), Some(r)) => (format!("{c:.1}"), format!("{r:.2}x")),
            _ => ("—".to_string(), "—".to_string()),
        };
        let status = match (row.ok, row.cur.is_some()) {
            (true, _) => "✅ ok",
            (false, true) => "❌ regressed",
            (false, false) => "❌ not measured",
        };
        md.push_str(&format!(
            "| `{}` | {:.1} | {} | {} | {} |\n",
            row.key, row.base, cur, ratio, status
        ));
    }
    md.push_str(&format!(
        "\n{} metric(s) checked against a {factor:.2}x budget; {failures} regression(s).\n",
        rows.len()
    ));
    let written = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(&path)
        .and_then(|mut f| f.write_all(md.as_bytes()));
    if let Err(e) = written {
        eprintln!("bench_gate: cannot append step summary to {path}: {e}");
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.len() < 2 {
        eprintln!("usage: bench_gate <baseline.json> <current.json>...");
        return ExitCode::from(2);
    }
    let factor = env_factor("BGI_BENCH_GATE_FACTOR", 1.3);
    let inject = env_factor("BGI_BENCH_GATE_INJECT", 1.0);
    if inject != 1.0 {
        println!("bench_gate: BGI_BENCH_GATE_INJECT={inject} (simulating a slowdown)");
    }
    let baseline = load(&args[0]);
    let mut current: BTreeMap<String, f64> = BTreeMap::new();
    for path in &args[1..] {
        for (k, v) in load(path) {
            if let Some(x) = v.as_num() {
                current.insert(k, x);
            }
        }
    }

    let mut rows: Vec<Row> = Vec::new();
    println!(
        "{:<28} {:>12} {:>12} {:>8}  status (budget {factor:.2}x)",
        "metric", "baseline", "current", "ratio"
    );
    for (key, value) in &baseline {
        let Some(base) = value.as_num() else { continue };
        let Some(dir) = direction(key) else { continue };
        if base <= 0.0 {
            continue;
        }
        match current.get(key) {
            None => {
                println!(
                    "{key:<28} {base:>12.1} {:>12} {:>8}  FAIL (not measured)",
                    "-", "-"
                );
                rows.push(Row {
                    key: key.clone(),
                    base,
                    cur: None,
                    ratio: None,
                    ok: false,
                });
            }
            Some(&raw) => {
                // A simulated slowdown inflates latencies and deflates
                // throughputs — the injection must trip both kinds.
                let cur = match dir {
                    Direction::LowerIsBetter => raw * inject,
                    Direction::HigherIsBetter => raw / inject,
                };
                let ratio = cur / base;
                let ok = match dir {
                    Direction::LowerIsBetter => ratio <= factor,
                    Direction::HigherIsBetter => ratio >= 1.0 / factor,
                };
                println!(
                    "{key:<28} {base:>12.1} {cur:>12.1} {ratio:>7.2}x  {}",
                    if ok { "ok" } else { "FAIL" }
                );
                rows.push(Row {
                    key: key.clone(),
                    base,
                    cur: Some(cur),
                    ratio: Some(ratio),
                    ok,
                });
            }
        }
    }
    for key in current
        .keys()
        .filter(|k| direction(k).is_some() && !baseline.contains_key(*k))
    {
        println!("{key:<28} (informational: no baseline in ci/bench_baseline.json)");
    }
    let failures = rows.iter().filter(|r| !r.ok).count();
    write_step_summary(&rows, factor, inject, failures);
    if rows.is_empty() {
        eprintln!("bench_gate: baseline has no gated (_ms/_us/_regret/_per_s) metrics");
        return ExitCode::from(2);
    }
    if failures > 0 {
        eprintln!(
            "bench_gate: {failures} metric(s) regressed beyond {factor:.2}x \
             (override: see CONTRIBUTING.md, label `skip-perf-gate`)"
        );
        return ExitCode::FAILURE;
    }
    println!("bench_gate: {} metric(s) within budget", rows.len());
    ExitCode::SUCCESS
}
