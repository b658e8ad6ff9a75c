//! Shared helpers for the benchmark harness and the `exp_*` experiment
//! binaries (see EXPERIMENTS.md for the experiment index).

use std::path::Path;
use std::time::{Duration, Instant};

/// Times a closure, returning its result and the elapsed wall-clock time.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let start = Instant::now();
    let value = f();
    (value, start.elapsed())
}

/// Formats a duration in milliseconds with three decimals.
pub fn ms(d: Duration) -> String {
    format!("{:.3}", d.as_secs_f64() * 1e3)
}

/// Throughput in MiB/s (0 when nothing was timed).
pub fn mib_per_second(bytes: usize, elapsed: Duration) -> f64 {
    let secs = elapsed.as_secs_f64();
    if secs > 0.0 {
        bytes as f64 / secs / (1024.0 * 1024.0)
    } else {
        0.0
    }
}

/// Prints a Markdown-style table row.
pub fn row(cells: &[String]) {
    println!("| {} |", cells.join(" | "));
}

/// Prints a Markdown-style table header (with the separator line).
pub fn header(cells: &[&str]) {
    println!("| {} |", cells.join(" | "));
    println!(
        "|{}|",
        cells.iter().map(|_| "---").collect::<Vec<_>>().join("|")
    );
}

/// One machine-readable measurement in the `BENCH_ql.json` summary: a
/// workload name, the median wall-clock time, and the mapping count (so a
/// perf regression that silently changes the result is visible too).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BenchEntry {
    /// Hierarchical workload name, e.g. `"ql/join-chain/120"`.
    pub workload: String,
    /// Median wall-clock nanoseconds.
    pub median_ns: u128,
    /// Number of mappings the workload produced.
    pub mappings: usize,
}

impl BenchEntry {
    /// Builds an entry from a [`median_of`]-style measurement.
    pub fn new(workload: impl Into<String>, median: Duration, mappings: usize) -> BenchEntry {
        BenchEntry {
            workload: workload.into(),
            median_ns: median.as_nanos(),
            mappings,
        }
    }
}

/// Runs `f` `runs` times and returns the last value with the median
/// wall-clock time.
pub fn median_of<T>(runs: usize, mut f: impl FnMut() -> T) -> (T, Duration) {
    let mut times = Vec::with_capacity(runs);
    let mut out = None;
    for _ in 0..runs {
        let (value, elapsed) = timed(&mut f);
        times.push(elapsed);
        out = Some(value);
    }
    times.sort();
    (out.expect("runs > 0"), times[times.len() / 2])
}

/// Merges entries into a `BENCH_ql.json`-style summary file: existing
/// entries with other workload names are kept (so `exp_planner` and
/// `exp_ql` can both contribute to one file), same-named ones are replaced,
/// and the result is written sorted by workload name — one entry per line,
/// so diffs across PRs stay readable.
pub fn merge_bench_json(path: impl AsRef<Path>, new_entries: &[BenchEntry]) -> std::io::Result<()> {
    let path = path.as_ref();
    let mut entries: Vec<BenchEntry> = std::fs::read_to_string(path)
        .map(|existing| parse_bench_json(&existing))
        .unwrap_or_default();
    entries.retain(|e| !new_entries.iter().any(|n| n.workload == e.workload));
    entries.extend_from_slice(new_entries);
    entries.sort_by(|a, b| a.workload.cmp(&b.workload));
    let mut out = String::from("{\n  \"entries\": [\n");
    for (i, e) in entries.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"workload\": \"{}\", \"median_ns\": {}, \"mappings\": {}}}{}\n",
            e.workload,
            e.median_ns,
            e.mappings,
            if i + 1 < entries.len() { "," } else { "" }
        ));
    }
    out.push_str("  ]\n}\n");
    std::fs::write(path, out)
}

/// Parses the summary format written by [`merge_bench_json`] (one entry per
/// line); lines that do not look like entries are ignored, so a corrupted
/// file degrades to a rewrite instead of an error.
pub fn parse_bench_json(text: &str) -> Vec<BenchEntry> {
    let field = |line: &str, key: &str| -> Option<String> {
        let at = line.find(&format!("\"{key}\":"))? + key.len() + 3;
        let rest = line[at..].trim_start();
        let rest = rest.strip_prefix('"').unwrap_or(rest);
        let end = rest.find(['"', ',', '}']).unwrap_or(rest.len());
        Some(rest[..end].trim().to_string())
    };
    text.lines()
        .filter_map(|line| {
            Some(BenchEntry {
                workload: field(line, "workload")?,
                median_ns: field(line, "median_ns")?.parse().ok()?,
                mappings: field(line, "mappings")?.parse().ok()?,
            })
        })
        .collect()
}

/// One violation found by [`gate_regressions`]: a slowdown past the
/// tolerance, a silent change in a workload's mapping count, or a baseline
/// workload the fresh run no longer reports.
#[derive(Debug, Clone, PartialEq)]
pub struct Regression {
    /// The workload that regressed.
    pub workload: String,
    /// Committed baseline median, nanoseconds.
    pub baseline_ns: u128,
    /// Freshly measured median, nanoseconds (`0` when missing).
    pub fresh_ns: u128,
    /// What tripped the gate.
    pub kind: RegressionKind,
}

/// Why [`gate_regressions`] flagged a workload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum RegressionKind {
    /// `fresh > baseline * (1 + tolerance)`.
    Slower {
        /// `fresh / baseline` as a ratio (e.g. `1.4` = 40% slower).
        ratio: f64,
    },
    /// The workload produced a different number of mappings — a perf
    /// "win" that changes the answer is a correctness bug, not a win.
    MappingsChanged {
        /// Mapping count in the committed baseline.
        baseline: usize,
        /// Freshly measured mapping count.
        fresh: usize,
    },
    /// The baseline workload is absent from the fresh run — a renamed or
    /// dropped benchmark would otherwise pass the gate silently.
    Missing,
}

impl std::fmt::Display for Regression {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.kind {
            RegressionKind::Slower { ratio } => write!(
                f,
                "{}: {} ns -> {} ns ({:.2}x slower)",
                self.workload, self.baseline_ns, self.fresh_ns, ratio
            ),
            RegressionKind::MappingsChanged { baseline, fresh } => write!(
                f,
                "{}: mapping count changed {} -> {}",
                self.workload, baseline, fresh
            ),
            RegressionKind::Missing => {
                write!(f, "{}: missing from the fresh run", self.workload)
            }
        }
    }
}

/// Compares freshly measured entries against a committed baseline.
///
/// A workload regresses when its fresh median exceeds
/// `baseline * (1 + tolerance)` — with `tolerance = 0.25` a >25%
/// slowdown trips the gate while run-to-run noise (the experiment
/// binaries already take medians of repeated runs) passes. A changed
/// mapping count always trips it, whatever the timing, and so does a
/// baseline workload missing from the fresh run. A workload only the fresh
/// run has is a new benchmark, not a regression.
pub fn gate_regressions(
    baseline: &[BenchEntry],
    fresh: &[BenchEntry],
    tolerance: f64,
) -> Vec<Regression> {
    let mut out = Vec::new();
    for base in baseline {
        let Some(new) = fresh.iter().find(|e| e.workload == base.workload) else {
            out.push(Regression {
                workload: base.workload.clone(),
                baseline_ns: base.median_ns,
                fresh_ns: 0,
                kind: RegressionKind::Missing,
            });
            continue;
        };
        if new.mappings != base.mappings {
            out.push(Regression {
                workload: base.workload.clone(),
                baseline_ns: base.median_ns,
                fresh_ns: new.median_ns,
                kind: RegressionKind::MappingsChanged {
                    baseline: base.mappings,
                    fresh: new.mappings,
                },
            });
            continue;
        }
        let limit = base.median_ns as f64 * (1.0 + tolerance);
        if new.median_ns as f64 > limit && base.median_ns > 0 {
            out.push(Regression {
                workload: base.workload.clone(),
                baseline_ns: base.median_ns,
                fresh_ns: new.median_ns,
                kind: RegressionKind::Slower {
                    ratio: new.median_ns as f64 / base.median_ns as f64,
                },
            });
        }
    }
    out
}

/// Least-squares slope of `log(y)` against `log(x)` — the empirical
/// polynomial degree of a scaling series. Points with non-positive values
/// are skipped.
pub fn log_log_slope(points: &[(f64, f64)]) -> f64 {
    let filtered: Vec<(f64, f64)> = points
        .iter()
        .filter(|(x, y)| *x > 0.0 && *y > 0.0)
        .map(|(x, y)| (x.ln(), y.ln()))
        .collect();
    let n = filtered.len() as f64;
    if filtered.len() < 2 {
        return f64::NAN;
    }
    let sx: f64 = filtered.iter().map(|(x, _)| x).sum();
    let sy: f64 = filtered.iter().map(|(_, y)| y).sum();
    let sxx: f64 = filtered.iter().map(|(x, _)| x * x).sum();
    let sxy: f64 = filtered.iter().map(|(x, y)| x * y).sum();
    (n * sxy - sx * sy) / (n * sxx - sx * sx)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slope_of_quadratic_series_is_two() {
        let points: Vec<(f64, f64)> = (1..=10).map(|i| (i as f64, (i * i) as f64)).collect();
        let slope = log_log_slope(&points);
        assert!((slope - 2.0).abs() < 1e-9, "slope {slope}");
    }

    #[test]
    fn slope_handles_degenerate_input() {
        assert!(log_log_slope(&[]).is_nan());
        assert!(log_log_slope(&[(1.0, 1.0)]).is_nan());
    }

    #[test]
    fn timing_and_formatting() {
        let (value, d) = timed(|| 40 + 2);
        assert_eq!(value, 42);
        assert!(!ms(d).is_empty());
    }

    #[test]
    fn bench_json_round_trips_and_merges() {
        let path = std::env::temp_dir().join(format!("bench-json-{}.json", std::process::id()));
        let _ = std::fs::remove_file(&path);
        merge_bench_json(
            &path,
            &[
                BenchEntry::new("b/two", Duration::from_nanos(200), 2),
                BenchEntry::new("a/one", Duration::from_nanos(100), 1),
            ],
        )
        .unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        let parsed = parse_bench_json(&text);
        assert_eq!(parsed.len(), 2);
        // Sorted by workload.
        assert_eq!(parsed[0].workload, "a/one");
        assert_eq!(parsed[0].median_ns, 100);
        assert_eq!(parsed[1].mappings, 2);

        // A second merge replaces same-named entries and keeps the rest.
        merge_bench_json(
            &path,
            &[BenchEntry::new("a/one", Duration::from_nanos(150), 3)],
        )
        .unwrap();
        let parsed = parse_bench_json(&std::fs::read_to_string(&path).unwrap());
        assert_eq!(parsed.len(), 2);
        assert_eq!(parsed[0].median_ns, 150);
        assert_eq!(parsed[0].mappings, 3);
        assert_eq!(parsed[1].workload, "b/two");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn parse_bench_json_ignores_garbage() {
        assert!(parse_bench_json("not json at all").is_empty());
        assert!(parse_bench_json("{\"workload\": \"x\"}").is_empty());
    }

    #[test]
    fn gate_passes_within_tolerance_and_flags_past_it() {
        let entry = |w: &str, ns: u64, m: usize| BenchEntry::new(w, Duration::from_nanos(ns), m);
        let baseline = [
            entry("a", 1_000, 5),
            entry("b", 1_000, 5),
            entry("c", 1_000, 5),
        ];
        let fresh = [
            entry("a", 1_240, 5),   // +24%: within the 25% tolerance
            entry("b", 1_300, 5),   // +30%: regression
            entry("c", 500, 5),     // faster: fine
            entry("new", 9_999, 1), // no baseline: ignored
        ];
        let regressions = gate_regressions(&baseline, &fresh, 0.25);
        assert_eq!(regressions.len(), 1);
        assert_eq!(regressions[0].workload, "b");
        assert_eq!(
            regressions[0].kind,
            RegressionKind::Slower { ratio: 1.3 },
            "{}",
            regressions[0]
        );
        assert!(regressions[0].to_string().contains("1.30x slower"));
    }

    #[test]
    fn gate_flags_changed_mapping_counts_even_when_faster() {
        let baseline = [BenchEntry::new("a", Duration::from_nanos(1_000), 5)];
        let fresh = [BenchEntry::new("a", Duration::from_nanos(100), 4)];
        let regressions = gate_regressions(&baseline, &fresh, 0.25);
        assert_eq!(regressions.len(), 1);
        assert_eq!(
            regressions[0].kind,
            RegressionKind::MappingsChanged {
                baseline: 5,
                fresh: 4
            }
        );
        assert!(regressions[0].to_string().contains("5 -> 4"));
    }

    #[test]
    fn gate_flags_a_workload_missing_from_the_fresh_run() {
        let baseline = [
            BenchEntry::new("kept", Duration::from_nanos(1_000), 5),
            BenchEntry::new("gone", Duration::from_nanos(1_000), 5),
        ];
        let fresh = [BenchEntry::new("kept", Duration::from_nanos(1_000), 5)];
        let regressions = gate_regressions(&baseline, &fresh, 0.25);
        assert_eq!(regressions.len(), 1);
        assert_eq!(regressions[0].workload, "gone");
        assert_eq!(regressions[0].kind, RegressionKind::Missing);
        assert!(regressions[0].to_string().contains("missing"));
    }

    #[test]
    fn gate_is_empty_on_identical_measurements() {
        let entries = [BenchEntry::new("a", Duration::from_nanos(1_000), 5)];
        assert!(gate_regressions(&entries, &entries, 0.25).is_empty());
    }
}
