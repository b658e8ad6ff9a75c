//! Bench regression gate: compares a freshly measured `BENCH_*.json`
//! against a committed baseline and fails on any workload that got more
//! than 25% slower, silently changed its mapping count, or is missing from
//! the fresh run.
//!
//! ```text
//! bench_gate <baseline.json> <fresh.json> [tolerance]
//! ```
//!
//! CI snapshots the committed summary before regenerating it, reruns the
//! experiment, and runs this gate over the pair — so a perf regression
//! fails the build the same way a broken test does. The experiment
//! binaries measure medians of repeated runs, and the default 25%
//! tolerance absorbs the remaining run-to-run noise of shared runners.

use spanner_bench::{gate_regressions, parse_bench_json};
use std::process::ExitCode;

const DEFAULT_TOLERANCE: f64 = 0.25;

fn load(path: &str) -> Result<Vec<spanner_bench::BenchEntry>, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("bench_gate: cannot read {path}: {e}"))?;
    let entries = parse_bench_json(&text);
    if entries.is_empty() {
        return Err(format!("bench_gate: no bench entries in {path}"));
    }
    Ok(entries)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (baseline_path, fresh_path) = match args.as_slice() {
        [b, f] | [b, f, _] => (b, f),
        _ => {
            eprintln!("usage: bench_gate <baseline.json> <fresh.json> [tolerance]");
            return ExitCode::FAILURE;
        }
    };
    let tolerance = match args.get(2) {
        None => DEFAULT_TOLERANCE,
        Some(raw) => match raw.parse::<f64>() {
            Ok(t) if t >= 0.0 => t,
            _ => {
                eprintln!("bench_gate: tolerance must be a non-negative number, got `{raw}`");
                return ExitCode::FAILURE;
            }
        },
    };

    let (baseline, fresh) = match (load(baseline_path), load(fresh_path)) {
        (Ok(b), Ok(f)) => (b, f),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };

    let compared = baseline.len();
    let regressions = gate_regressions(&baseline, &fresh, tolerance);
    if regressions.is_empty() {
        println!(
            "bench_gate: {compared} workloads within {:.0}% of {baseline_path}",
            tolerance * 100.0
        );
        return ExitCode::SUCCESS;
    }
    eprintln!(
        "bench_gate: {} of {compared} workloads regressed past {:.0}% vs {baseline_path}:",
        regressions.len(),
        tolerance * 100.0
    );
    for regression in &regressions {
        eprintln!("  {regression}");
    }
    ExitCode::FAILURE
}
