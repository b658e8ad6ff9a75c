//! The closed-loop load generator and latency statistics.
//!
//! Each client thread sends its next request only after the previous
//! response has been read in full: first untimed warm-up reads, then the
//! fixed wall-clock window. Every response is checked against the oracle;
//! only accepted responses inside the window are timed, and any other
//! outcome counts as a failure.

use crate::daemon::Conn;
use crate::workload::{Expect, Inputs, Job, Oracle};
use spanner_serve::Json;
use std::sync::Barrier;
use std::time::{Duration, Instant};

/// Failure messages kept for the report (the count is always exact).
const KEPT_FAILURES: usize = 5;

/// Untimed reads each client sends before the timed window.
const WARMUP: Duration = Duration::from_secs(2);

/// What one timed window produced.
#[derive(Debug, Default)]
pub struct Window {
    /// Every accepted response.
    pub samples: Vec<Sample>,
    /// Requests sent, the untimed warm-up reads included.
    pub attempted: usize,
    /// Requests that failed: transport error, non-`ok` response, or an
    /// answer that differs from the oracle.
    pub failed: usize,
    /// The first few failure messages.
    pub failures: Vec<String>,
    /// Total response bytes of accepted read responses.
    pub read_bytes: usize,
    /// Write batches sent.
    pub writes: usize,
    /// From the start barrier to the last response.
    pub wall: Duration,
    /// Generator CPU time (all threads) over the window.
    pub cpu: Duration,
    /// Share of the machine's CPU time the hypervisor stole, in percent,
    /// in each sub-window.
    pub steal_percent: Vec<f64>,
}

/// One accepted response.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    /// Request class.
    pub class: usize,
    /// Round trip.
    pub latency: Duration,
    /// When the request was sent, from the start of the window.
    pub sent: Duration,
}

/// Drives every client connection through its plan for `seconds`,
/// sampling the machine's steal time at each of `subwindows` boundaries.
pub fn drive(conns: &mut [Conn], inputs: &Inputs, seconds: f64, subwindows: usize) -> Window {
    let barrier = Barrier::new(conns.len() + 1);
    let duration = Duration::from_secs_f64(seconds);
    let (cpu_before, mut parts, start, steal_percent) = std::thread::scope(|scope| {
        let handles: Vec<_> = conns
            .iter_mut()
            .zip(&inputs.plans)
            .map(|(conn, plan)| {
                let barrier = &barrier;
                let classes = &inputs.classes;
                let oracle = &inputs.oracle;
                scope.spawn(move || {
                    let mut out = Window::default();
                    let (mut reads, mut writes) = (0usize, 0usize);
                    // Sends one job; a timed one's accepted response becomes a
                    // sample. `false` means the connection is broken.
                    let mut exchange = |out: &mut Window, job: &Job, begin: Option<Instant>| {
                        out.attempted += 1;
                        let started = Instant::now();
                        let result = conn.send(&job.request);
                        let latency = started.elapsed();
                        let transport_failed = result.is_err();
                        let verdict = result
                            .map_err(|e| e.to_string())
                            .and_then(|raw| check(oracle, &job.expect, &raw).map(|()| raw.len()));
                        match (verdict, begin) {
                            (Ok(_), None) => {}
                            (Ok(bytes), Some(begin)) => {
                                if !classes[job.class].write {
                                    out.read_bytes += bytes;
                                }
                                out.samples.push(Sample {
                                    class: job.class,
                                    latency,
                                    sent: started - begin,
                                });
                            }
                            (Err(message), _) => {
                                conn.count_error();
                                out.failed += 1;
                                if out.failures.len() < KEPT_FAILURES {
                                    out.failures.push(message);
                                }
                            }
                        }
                        !transport_failed
                    };
                    // Untimed reads first, so the window starts warm.
                    let warm_until = Instant::now() + WARMUP;
                    let mut alive = true;
                    while alive && Instant::now() < warm_until {
                        let (job, _) = plan.job(0, reads, writes);
                        reads += 1;
                        alive = exchange(&mut out, job, None);
                    }
                    barrier.wait();
                    let begin = Instant::now();
                    let deadline = begin + duration;
                    while alive && Instant::now() < deadline {
                        let due = (plan.write_rate * begin.elapsed().as_secs_f64()) as usize;
                        let (job, write) = plan.job(due, reads, writes);
                        if write {
                            writes += 1;
                        } else {
                            reads += 1;
                        }
                        alive = exchange(&mut out, job, Some(begin));
                    }
                    out.writes = writes;
                    (out, Instant::now())
                })
            })
            .collect();
        let cpu_before = process_cpu();
        barrier.wait();
        let start = Instant::now();
        let mut ticks = cpu_ticks();
        let mut steal_percent = Vec::new();
        for k in 1..=subwindows {
            let boundary = start + duration.mul_f64(k as f64 / subwindows as f64);
            std::thread::sleep(boundary.saturating_duration_since(Instant::now()));
            let now = cpu_ticks();
            steal_percent.push(
                100.0 * now.0.saturating_sub(ticks.0) as f64
                    / now.1.saturating_sub(ticks.1).max(1) as f64,
            );
            ticks = now;
        }
        let parts: Vec<(Window, Instant)> = handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect();
        (cpu_before, parts, start, steal_percent)
    });
    let cpu = process_cpu().saturating_sub(cpu_before);
    let end = parts.iter().map(|(_, end)| *end).max().unwrap_or(start);
    let mut window = Window {
        wall: end.duration_since(start),
        cpu,
        steal_percent,
        ..Window::default()
    };
    for (part, _) in parts.iter_mut() {
        window.samples.append(&mut part.samples);
        window.attempted += part.attempted;
        window.failed += part.failed;
        window.read_bytes += part.read_bytes;
        window.writes += part.writes;
        window
            .failures
            .extend(part.failures.drain(..).take(KEPT_FAILURES));
    }
    window.failures.truncate(KEPT_FAILURES);
    window
}

/// Parses a raw response and checks it against the oracle.
fn check(oracle: &Oracle, expect: &Expect, raw: &str) -> Result<(), String> {
    let response = Json::parse(raw).map_err(|e| format!("unparsable response: {e}"))?;
    oracle
        .check(expect, &response)
        .map_err(|e| format!("{e}: {raw:.200}"))
}

/// CPU time of this process so far (user + system, all threads), from
/// `/proc/self/stat` (clock ticks of 10 ms).
pub fn process_cpu() -> Duration {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised command name; utime and stime are the
    // 14th and 15th fields of the whole line.
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks: u64 = [11, 12]
        .iter()
        .filter_map(|&i| fields.get(i).and_then(|f| f.parse::<u64>().ok()))
        .sum();
    Duration::from_millis(ticks * 10)
}

/// Latency percentiles of one group of samples.
#[derive(Debug, Clone, Copy)]
pub struct Percentiles {
    /// Samples.
    pub count: usize,
    /// Median, µs.
    pub p50_us: f64,
    /// 99th percentile, µs.
    pub p99_us: f64,
    /// Samples strictly beyond the 99th percentile.
    pub beyond_p99: usize,
}

/// Nearest-rank percentiles of `latencies` (sorted in place).
pub fn percentiles(latencies: &mut [Duration]) -> Percentiles {
    latencies.sort_unstable();
    let n = latencies.len();
    let p99 = quantile_us(latencies, 0.99);
    Percentiles {
        count: n,
        p50_us: quantile_us(latencies, 0.5),
        p99_us: p99,
        beyond_p99: latencies
            .iter()
            .filter(|l| l.as_secs_f64() * 1e6 > p99)
            .count(),
    }
}

/// The `q`-quantile (nearest rank) of sorted latencies, in µs.
pub fn quantile_us(sorted: &[Duration], q: f64) -> f64 {
    let n = sorted.len();
    if n == 0 {
        return 0.0;
    }
    sorted[((q * n as f64).ceil() as usize).clamp(1, n) - 1].as_secs_f64() * 1e6
}

/// Machine-wide `(steal, total)` CPU ticks from `/proc/stat`: time the
/// hypervisor ran something else while this machine's CPUs wanted to run.
pub fn cpu_ticks() -> (u64, u64) {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let fields: Vec<u64> = stat
        .lines()
        .next()
        .unwrap_or("")
        .split_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    (fields.get(7).copied().unwrap_or(0), fields.iter().sum())
}

/// Median of a non-empty list.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::daemon::{Tally, WireRequest};
    use crate::workload::{Class, ClientPlan, Workload};
    use spanner_serve::{ServeOptions, Server};
    use std::sync::Arc;

    /// Drives a real daemon with one repeated request and its expectation.
    fn drive_one(program: &str, expect: Expect) -> Window {
        let server = Server::bind("127.0.0.1:0", ServeOptions::default()).unwrap();
        let (addr, handle) = server.spawn();
        let job = Job {
            request: WireRequest::new(
                "query",
                vec![
                    ("program", Json::string(program)),
                    ("doc", Json::string("aab")),
                ],
            ),
            class: 0,
            expect,
        };
        let inputs = Inputs {
            workload: Workload::DocQuery,
            classes: vec![Class {
                name: "q",
                write: false,
            }],
            plans: vec![ClientPlan {
                reads: vec![job],
                ..ClientPlan::default()
            }],
            oracle: Oracle::default(),
            corpus_chunks: Vec::new(),
            warm_programs: Vec::new(),
            specs: Vec::new(),
            compactions: Vec::new(),
        };
        let tally = Arc::new(Tally::default());
        let mut conns = vec![Conn::connect(addr, false, Arc::clone(&tally)).unwrap()];
        let window = drive(&mut conns, &inputs, 0.2, 2);
        conns[0].call("shutdown", Json::Null).unwrap();
        handle.join().unwrap().unwrap();
        window
    }

    #[test]
    fn correct_answers_are_timed() {
        let window = drive_one("/{x:a+}b/", Expect::Count(1));
        assert_eq!(window.failed, 0);
        assert!(!window.samples.is_empty());
    }

    #[test]
    fn a_wrong_mapping_count_fails_the_run_and_is_never_timed() {
        let window = drive_one("/{x:a+}b/", Expect::Count(2));
        assert!(window.attempted > 0);
        assert_eq!(window.failed, window.attempted);
        assert!(window.samples.is_empty());
        assert!(
            window.failures[0].contains("count 1, oracle 2"),
            "{:?}",
            window.failures
        );
    }

    #[test]
    fn an_error_response_fails_the_run_and_is_never_timed() {
        let window = drive_one("/{x:(/", Expect::Count(0));
        assert!(window.attempted > 0);
        assert_eq!(window.failed, window.attempted);
        assert!(window.samples.is_empty());
        assert!(
            window.failures[0].contains("not ok"),
            "{:?}",
            window.failures
        );
    }

    #[test]
    fn percentiles_use_nearest_rank_and_count_the_tail() {
        let mut l: Vec<Duration> = (1..=1000).rev().map(Duration::from_micros).collect();
        let p = percentiles(&mut l);
        assert_eq!(p.count, 1000);
        assert_eq!(p.p50_us, 500.0);
        assert_eq!(p.p99_us, 990.0);
        assert_eq!(p.beyond_p99, 10);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
