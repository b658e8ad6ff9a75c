//! `ladder-bench` — the end-to-end benchmark of the serving stack, with an
//! outside-in layer ladder. See `ladder/README.md` for the workloads and
//! metrics.
//!
//! ```text
//! ladder-bench --workload <doc-query|store-rw|routed-http> --seed <n>
//!              --seconds <s> --trace <0|1>
//! ladder-bench compare <set-a> <set-b>
//! ```
//!
//! A run prints a `{"meta": …}` line and then, as its last line, the
//! result object `{"correct", "attempted", "failed", "metrics"}`: the
//! end-to-end metrics with `--trace 0`, the per-layer metrics with
//! `--trace 1`.

mod compare;
mod daemon;
mod load;
mod trace;
mod workload;

use daemon::{exposition_value, Daemon, DaemonSpec, WireRequest};
use load::{median, percentiles, Window};
use spanner_serve::Json;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};
use workload::{Deployment, Expect, Inputs, Workload, READ_PROGRAMS};

/// Set-ups per end-to-end run; `setup_s` is their median.
const SETUPS: usize = 5;

/// Equal sub-windows of the timed window; the read percentiles and the
/// throughput are medians over them.
const SUBWINDOWS: usize = 4;

/// Requests replayed in-process by the traced run, per workload.
fn replay_steps(workload: Workload) -> usize {
    match workload {
        Workload::DocQuery => 8192,
        Workload::StoreRw | Workload::RoutedHttp => 400,
    }
}

/// Rounds of the wire ladder (each round sends every read program once
/// to every rung).
const LADDER_ROUNDS: usize = 40;

/// The end-to-end metrics, with their units (reported with `--trace 0`).
const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("read_p50_us", "us"),
    ("read_p99_us", "us"),
    ("throughput_rps", "1/s"),
    ("rss_mib", "MiB"),
];

/// The per-layer metrics, with their units (reported with `--trace 1`). A
/// layer that makes no call on a workload reports 0.
const PER_LAYER: &[(&str, &str)] = &[
    ("protocol.decode_us", "us"),
    ("protocol.encode_us", "us"),
    ("protocol.response_bytes", "bytes"),
    ("cache.lookup_us", "us"),
    ("cache.hit_ratio", "ratio"),
    ("cache.hits", "count"),
    ("cache.misses", "count"),
    ("cache.evictions", "count"),
    ("ql.prepare_us", "us"),
    ("ql.evaluate_us", "us"),
    ("enum.first_mapping_us", "us"),
    ("enum.max_delay_us", "us"),
    ("enum.delay_slope", "ratio"),
    ("store.candidates_us", "us"),
    ("store.candidate_ratio", "ratio"),
    ("store.query_us", "us"),
    ("corpus.view_query_us", "us"),
    ("corpus.view_hit_ratio", "ratio"),
    ("corpus.delta_docs", "count"),
    ("corpus.view_hits", "count"),
    ("corpus.view_misses", "count"),
    ("corpus.view_invalidations", "count"),
    ("corpus.docs_evaluated", "count"),
    ("corpus.docs_skipped", "count"),
    ("corpus.scan_us", "us"),
    ("store.apply_us", "us"),
    ("store.compactions", "count"),
    ("store.bytes_per_doc_byte", "ratio"),
    ("serve.server_us", "us"),
    ("serve.wire_us", "us"),
    ("http.overhead_us", "us"),
    ("router.overhead_us", "us"),
    ("router.retries", "count"),
    ("loadgen.busy_ratio", "ratio"),
    ("trace.coverage", "ratio"),
    ("trace.overhead_ratio", "ratio"),
    ("write_p50_us", "us"),
    ("write_p99_us", "us"),
    ("failed_ratio", "ratio"),
];

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = match args.first().map(String::as_str) {
        Some("daemon") => daemon::host(&args[1..]),
        Some("compare") => compare::main(&args[1..]),
        _ => match parse_args(&args).and_then(|options| run(&options)) {
            Ok(code) => code,
            Err(e) => {
                eprintln!("ladder-bench: {e}");
                2
            }
        },
    };
    std::process::exit(code);
}

/// Command-line options of a run.
struct Options {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Options, String> {
    let mut values: BTreeMap<&str, &str> = BTreeMap::new();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let name = flag
            .strip_prefix("--")
            .ok_or_else(|| format!("unexpected argument `{flag}`"))?;
        let value = it.next().ok_or_else(|| format!("`{flag}` needs a value"))?;
        values.insert(name, value);
    }
    let get = |name: &str| {
        values
            .get(name)
            .copied()
            .ok_or_else(|| format!("missing --{name}"))
    };
    let workload = get("workload")?;
    Ok(Options {
        workload: Workload::parse(workload)
            .ok_or_else(|| format!("unknown workload `{workload}`"))?,
        seed: get("seed")?.parse().map_err(|_| "--seed needs a number")?,
        seconds: get("seconds")?
            .parse()
            .ok()
            .filter(|s: &f64| *s > 0.0)
            .ok_or("--seconds needs a positive number")?,
        trace: match values.get("trace").copied().unwrap_or("0") {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
        },
    })
}

/// One daemon's counters at one instant.
struct Scrape {
    stats: Json,
    metrics: String,
}

fn scrape(daemons: &[Daemon]) -> Result<Vec<Scrape>, String> {
    daemons
        .iter()
        .map(|d| {
            let mut conn = d.connect().map_err(|e| format!("scrape: {e}"))?;
            Ok(Scrape {
                stats: conn.stats().map_err(|e| format!("scrape stats: {e}"))?,
                metrics: conn.metrics().map_err(|e| format!("scrape metrics: {e}"))?,
            })
        })
        .collect()
}

/// Summed change over the window of a `stats` counter at `path`.
fn stats_delta(before: &[Scrape], after: &[Scrape], path: &[&str]) -> f64 {
    let read = |s: &Scrape| {
        path.iter()
            .try_fold(&s.stats, |v, key| v.get(key))
            .and_then(Json::as_f64)
            .unwrap_or(0.0)
    };
    before
        .iter()
        .zip(after)
        .map(|(b, a)| read(a) - read(b))
        .sum()
}

/// Summed change over the window of an exposition series.
fn series_delta(before: &[Scrape], after: &[Scrape], series: &str) -> f64 {
    before
        .iter()
        .zip(after)
        .map(|(b, a)| exposition_value(&a.metrics, series) - exposition_value(&b.metrics, series))
        .sum()
}

/// Router retries over the window: the sum over backends of the router's
/// per-backend retry counters.
fn router_retries(scrape: &Scrape) -> f64 {
    scrape
        .stats
        .get("router")
        .and_then(|r| r.get("backends"))
        .and_then(Json::as_array)
        .map_or(0.0, |backends| {
            backends
                .iter()
                .filter_map(|b| b.get("retries").and_then(Json::as_f64))
                .sum()
        })
}

/// The commit of the checkout, read from `.git` when there is one.
fn commit() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        None if !head.is_empty() => head.to_string(),
        None => "unknown".to_string(),
        Some(reference) => std::fs::read_to_string(format!(".git/{reference}"))
            .ok()
            .or_else(|| {
                std::fs::read_to_string(".git/packed-refs")
                    .ok()
                    .and_then(|packed| {
                        packed
                            .lines()
                            .find(|l| l.ends_with(reference))
                            .map(|l| l.split(' ').next().unwrap_or("").to_string())
                    })
            })
            .map_or("unknown".to_string(), |c| c.trim().to_string()),
    }
}

/// Runs one workload and prints its metadata and result lines; returns
/// the exit code.
fn run(options: &Options) -> Result<i32, String> {
    let inputs = workload::generate(options.workload, options.seed)?;
    let setups = if options.trace { 1 } else { SETUPS };
    let mut setup_s = Vec::new();
    let mut deployment: Option<Deployment> = None;
    for _ in 0..setups {
        if let Some(previous) = deployment.take() {
            previous.teardown().map_err(|e| format!("teardown: {e}"))?;
        }
        let started = Instant::now();
        let fresh = inputs.deploy()?;
        setup_s.push(started.elapsed().as_secs_f64());
        deployment = Some(fresh);
    }
    let mut deployment = deployment.expect("at least one set-up");

    let before = scrape(&deployment.daemons)?;
    let window = load::drive(&mut deployment.conns, &inputs, options.seconds, SUBWINDOWS);
    let after = scrape(&deployment.daemons)?;
    let ladder = if options.trace && options.workload == Workload::RoutedHttp {
        Some(wire_ladder(&inputs, &deployment)?)
    } else {
        None
    };

    // The daemon's own totals must match the generator's tally.
    let front = deployment.front();
    let stats = front
        .connect()
        .and_then(|mut c| c.stats())
        .map_err(|e| format!("final stats: {e}"))?;
    let total = |key: &str| {
        stats
            .get("server")
            .and_then(|s| s.get(key))
            .and_then(Json::as_f64)
            .unwrap_or(-1.0) as i64
    };
    let tally = (
        front
            .tally
            .requests
            .load(std::sync::atomic::Ordering::Relaxed) as i64,
        front
            .tally
            .errors
            .load(std::sync::atomic::Ordering::Relaxed) as i64,
    );
    let tally_error = (total("requests_total"), total("errors_total")) != tally;
    if tally_error {
        eprintln!(
            "ladder-bench: daemon totals (requests {}, errors {}) disagree with the \
             generator's tally {tally:?}",
            total("requests_total"),
            total("errors_total")
        );
    }
    let rss_kib: u64 = deployment
        .daemons
        .iter()
        .map(Daemon::peak_rss_kib)
        .sum::<std::io::Result<u64>>()
        .map_err(|e| format!("peak RSS: {e}"))?;
    let specs: Vec<Json> = inputs.specs.iter().map(DaemonSpec::describe).collect();
    deployment
        .teardown()
        .map_err(|e| format!("teardown: {e}"))?;

    let latencies = |keep: &dyn Fn(&load::Sample) -> bool| -> Vec<Duration> {
        window
            .samples
            .iter()
            .filter(|s| keep(s))
            .map(|s| s.latency)
            .collect()
    };
    let is_write = |s: &load::Sample| inputs.classes[s.class].write;
    let reads = percentiles(&mut latencies(&|s| !is_write(s)));
    let writes = percentiles(&mut latencies(&is_write));
    // The end-to-end figures are medians over equal sub-windows of the
    // timed window, so a burst of interference from outside the machine
    // (see each sub-window's steal time in the metadata) that covers less
    // than half the window does not move them.
    let span = options.seconds / SUBWINDOWS as f64;
    let subs: Vec<(load::Percentiles, f64)> = (0..SUBWINDOWS)
        .map(|k| {
            let inside = |s: &load::Sample| (s.sent.as_secs_f64() / span) as usize == k;
            let done = window.samples.iter().filter(|s| inside(s)).count();
            let p = percentiles(&mut latencies(&|s| inside(s) && !is_write(s)));
            (p, done as f64 / span)
        })
        .collect();
    let sub_median = |f: &dyn Fn(&(load::Percentiles, f64)) -> f64| {
        median(&subs.iter().map(f).collect::<Vec<f64>>())
    };

    let mut metrics: BTreeMap<&str, f64> = BTreeMap::new();
    if options.trace {
        let layers = per_layer(&inputs, options, &window, &before, &after, ladder)?;
        metrics.extend(layers);
        metrics.insert("write_p50_us", writes.p50_us);
        metrics.insert("write_p99_us", writes.p99_us);
        metrics.insert(
            "failed_ratio",
            window.failed as f64 / window.attempted.max(1) as f64,
        );
    } else {
        metrics.insert("setup_s", median(&setup_s));
        metrics.insert("read_p50_us", sub_median(&|(p, _)| p.p50_us));
        // A sub-window's p99 counts only with ten samples beyond it; with
        // none such (a very slow run), the whole window's p99 stands in.
        let tails: Vec<f64> = subs
            .iter()
            .filter(|(p, _)| p.beyond_p99 >= 10)
            .map(|(p, _)| p.p99_us)
            .collect();
        let p99 = if tails.is_empty() {
            reads.p99_us
        } else {
            median(&tails)
        };
        metrics.insert("read_p99_us", p99);
        metrics.insert("throughput_rps", sub_median(&|(_, rps)| *rps));
        metrics.insert("rss_mib", rss_kib as f64 / 1024.0);
    }

    let by_class: Vec<(&str, Json)> = inputs
        .classes
        .iter()
        .enumerate()
        .map(|(i, c)| {
            let p = percentiles(&mut latencies(&|s| s.class == i));
            (
                c.name,
                Json::object([
                    ("count", Json::number(p.count)),
                    (
                        "share_percent",
                        Json::Number(100.0 * p.count as f64 / window.samples.len().max(1) as f64),
                    ),
                    ("p50_us", Json::Number(p.p50_us)),
                    ("p99_us", Json::Number(p.p99_us)),
                ]),
            )
        })
        .collect();
    let meta = Json::object([
        ("workload", Json::string(options.workload.name())),
        ("seed", Json::Number(options.seed as f64)),
        ("seconds", Json::Number(options.seconds)),
        ("trace", Json::Bool(options.trace)),
        (
            "nproc",
            Json::number(std::thread::available_parallelism().map_or(0, |n| n.get())),
        ),
        ("commit", Json::string(commit())),
        ("clients", Json::number(inputs.plans.len())),
        ("daemons", Json::Array(specs)),
        ("read_shares_planned_percent", inputs.planned_shares()),
        ("latency_by_class", Json::object(by_class)),
        (
            "samples",
            Json::object([
                ("read", Json::number(reads.count)),
                ("read_beyond_p99", Json::number(reads.beyond_p99)),
                ("write", Json::number(writes.count)),
                ("write_beyond_p99", Json::number(writes.beyond_p99)),
            ]),
        ),
        (
            "subwindows",
            Json::Array(
                subs.iter()
                    .zip(&window.steal_percent)
                    .map(|((p, rps), steal)| {
                        Json::object([
                            ("reads", Json::number(p.count)),
                            ("reads_beyond_p99", Json::number(p.beyond_p99)),
                            ("read_p50_us", Json::Number(p.p50_us)),
                            ("read_p99_us", Json::Number(p.p99_us)),
                            ("throughput_rps", Json::Number(*rps)),
                            ("steal_percent", Json::Number(*steal)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "setup_runs_s",
            Json::Array(setup_s.iter().map(|&s| Json::Number(s)).collect()),
        ),
        ("writes_sent", Json::number(window.writes)),
        (
            "compactions_at_write",
            Json::Array(
                inputs
                    .compactions
                    .iter()
                    .map(|&i| Json::number(i))
                    .collect(),
            ),
        ),
        ("window_s", Json::Number(window.wall.as_secs_f64())),
        (
            "failures",
            Json::Array(window.failures.iter().map(Json::string).collect()),
        ),
    ]);
    println!("{}", Json::object([("meta", meta)]));

    // A percentile with fewer than ten samples beyond it is not reported:
    // the run fails instead.
    let thin_tail = reads.beyond_p99 < 10;
    if thin_tail {
        eprintln!("ladder-bench: fewer than 10 read samples beyond p99");
    }
    let table = if options.trace { PER_LAYER } else { END_TO_END };
    let reported: Vec<(&str, Json)> = table
        .iter()
        .map(|&(name, unit)| {
            let value = metrics.get(name).copied().unwrap_or(0.0);
            let value = if value.is_finite() { value } else { 0.0 };
            (
                name,
                Json::object([("value", Json::Number(value)), ("unit", Json::string(unit))]),
            )
        })
        .collect();
    let correct = window.failed == 0 && !tally_error && !thin_tail;
    println!(
        "{}",
        Json::object([
            ("correct", Json::Bool(correct)),
            ("attempted", Json::number(window.attempted)),
            ("failed", Json::number(window.failed)),
            ("metrics", Json::object(reported)),
        ])
    );
    if !window.failures.is_empty() {
        eprintln!("ladder-bench: failures: {:?}", window.failures);
    }
    Ok(if correct { 0 } else { 1 })
}

/// Median round trips, in µs, of one read program at each rung of the
/// wire ladder: line protocol and HTTP to one daemon holding the whole
/// corpus, each router backend directly over the line protocol, and the
/// router's HTTP front end.
struct Rungs {
    line_us: f64,
    http_us: f64,
    /// The slowest backend's direct round trip (the router waits for all).
    backend_us: f64,
    router_us: f64,
}

/// Times the same read at adjacent rungs of the ladder. The single
/// daemons' and the router's answers must all match the oracle and each
/// other; a backend's (one shard's) answer must be `ok`.
fn wire_ladder(inputs: &Inputs, deployment: &Deployment) -> Result<Vec<Rungs>, String> {
    let err = |what: &'static str| move |e: std::io::Error| format!("ladder {what}: {e}");
    let single = |http: bool| {
        Daemon::spawn(
            &DaemonSpec {
                http,
                threads: 2,
                corpus_threads: 1,
                big_requests: true,
                router: false,
            },
            &[],
        )
    };
    let line = single(false).map_err(err("start"))?;
    let http = single(true).map_err(err("start"))?;
    // Rung order: single line, single HTTP, each backend, router.
    let mut conns = Vec::new();
    for daemon in [&line, &http] {
        let mut conn = daemon.connect().map_err(err("connect"))?;
        conn.call(
            "load_corpus",
            Json::object([("text", Json::string(inputs.corpus_chunks[0].as_str()))]),
        )
        .map_err(err("load"))?;
        conns.push(conn);
    }
    for daemon in &deployment.daemons {
        conns.push(daemon.connect().map_err(err("connect"))?);
    }
    let router = conns.len() - 1;
    let mut rungs = Vec::new();
    for (i, (_, program, _)) in READ_PROGRAMS.iter().enumerate() {
        let request = WireRequest::new("query_corpus", vec![("program", Json::string(*program))]);
        let mut times: Vec<Vec<f64>> = vec![Vec::new(); conns.len()];
        for round in 0..=LADDER_ROUNDS {
            let mut answers = Vec::new();
            for (rung, conn) in conns.iter_mut().enumerate() {
                let started = Instant::now();
                let raw = conn.send(&request).map_err(err("request"))?;
                let elapsed = started.elapsed();
                let response = Json::parse(&raw).map_err(|e| format!("ladder: {e}"))?;
                let whole_corpus = rung < 2 || rung == router;
                let verdict = if whole_corpus {
                    answers.push(response.get("results").map(Json::to_string));
                    inputs.oracle.check(&Expect::Read(i), &response)
                } else if response.get("ok").and_then(Json::as_bool) == Some(true) {
                    Ok(())
                } else {
                    Err("backend response is not ok".to_string())
                };
                verdict.map_err(|e| format!("ladder rung {rung}: {e}"))?;
                // Round 0 builds the single daemons' views; it is not timed.
                if round > 0 {
                    times[rung].push(elapsed.as_secs_f64() * 1e6);
                }
            }
            if answers.iter().any(|a| a != &answers[0]) {
                return Err(format!(
                    "ladder: the router's answer to {program} differs from a single daemon's"
                ));
            }
        }
        let medians: Vec<f64> = times.iter().map(|t| median(t)).collect();
        rungs.push(Rungs {
            line_us: medians[0],
            http_us: medians[1],
            backend_us: medians[2..router].iter().copied().fold(0.0, f64::max),
            router_us: medians[router],
        });
    }
    drop(conns);
    line.shutdown().map_err(err("shutdown"))?;
    http.shutdown().map_err(err("shutdown"))?;
    Ok(rungs)
}

/// The per-layer metrics of a traced run.
fn per_layer(
    inputs: &Inputs,
    options: &Options,
    window: &Window,
    before: &[Scrape],
    after: &[Scrape],
    ladder: Option<Vec<Rungs>>,
) -> Result<BTreeMap<&'static str, f64>, String> {
    let mut m: BTreeMap<&'static str, f64> = BTreeMap::new();
    let front = |s: &[Scrape]| s.len() - 1;
    let read_op = match options.workload {
        Workload::DocQuery => "query",
        Workload::StoreRw | Workload::RoutedHttp => "query_corpus",
    };
    let series = |kind: &str| format!("spanner_request_seconds_{kind}{{op=\"{read_op}\"}}");
    let f = front(before);
    let sum = series_delta(&before[f..], &after[f..], &series("sum"));
    let count = series_delta(&before[f..], &after[f..], &series("count"));
    let server_us = 1e6 * sum / count.max(1.0);
    m.insert("serve.server_us", server_us);

    let read_samples: Vec<Duration> = window
        .samples
        .iter()
        .filter(|s| !inputs.classes[s.class].write)
        .map(|s| s.latency)
        .collect();
    let read_mean_us = read_samples
        .iter()
        .map(|l| l.as_secs_f64() * 1e6)
        .sum::<f64>()
        / read_samples.len().max(1) as f64;
    m.insert("serve.wire_us", read_mean_us - server_us);
    m.insert(
        "protocol.response_bytes",
        window.read_bytes as f64 / read_samples.len().max(1) as f64,
    );
    m.insert(
        "loadgen.busy_ratio",
        window.cpu.as_secs_f64() / window.wall.as_secs_f64(),
    );

    let hits = stats_delta(before, after, &["cache", "hits"]);
    let misses = stats_delta(before, after, &["cache", "misses"]);
    m.insert("cache.hits", hits);
    m.insert("cache.misses", misses);
    m.insert(
        "cache.evictions",
        stats_delta(before, after, &["cache", "evictions"]),
    );
    m.insert("cache.hit_ratio", hits / (hits + misses).max(1.0));
    m.insert(
        "corpus.view_hits",
        series_delta(before, after, "spanner_view_docs_total{outcome=\"hit\"}"),
    );
    m.insert(
        "corpus.view_misses",
        series_delta(before, after, "spanner_view_docs_total{outcome=\"miss\"}"),
    );
    m.insert(
        "corpus.view_invalidations",
        series_delta(before, after, "spanner_view_invalidations_total"),
    );
    m.insert(
        "corpus.docs_evaluated",
        stats_delta(before, after, &["server", "docs_evaluated"]),
    );
    m.insert(
        "corpus.docs_skipped",
        stats_delta(before, after, &["server", "docs_skipped"]),
    );
    m.insert(
        "store.compactions",
        stats_delta(before, after, &["store", "compactions"]),
    );
    m.insert(
        "router.retries",
        router_retries(&after[f]) - router_retries(&before[f]),
    );

    // In-process replay: spans off, then on, from identical fresh state.
    let steps = replay_steps(options.workload);
    let plain = trace::replay(inputs, steps, false)?;
    let traced = trace::replay(inputs, steps, true)?;
    m.insert(
        "trace.overhead_ratio",
        traced.request_wall.as_secs_f64() / plain.request_wall.as_secs_f64(),
    );
    let layers = traced.recorder.layer_means();
    for (metric, span) in [
        ("protocol.decode_us", "protocol.decode"),
        ("protocol.encode_us", "protocol.encode"),
        ("cache.lookup_us", "cache.lookup"),
        ("ql.prepare_us", "ql.prepare"),
        ("ql.evaluate_us", "ql.evaluate"),
        ("corpus.view_query_us", "corpus.view_query"),
    ] {
        m.insert(metric, layers.get(span).copied().unwrap_or(0.0));
    }
    let batch = traced.means.mean("store.apply_batch");
    if batch > 0.0 {
        m.insert(
            "store.apply_us",
            layers.get("store.apply").copied().unwrap_or(0.0) / batch,
        );
    }
    for name in ["corpus.view_hit_ratio", "corpus.delta_docs"] {
        m.insert(name, traced.means.mean(name));
    }
    for name in [
        "store.candidates_us",
        "store.candidate_ratio",
        "store.query_us",
        "corpus.scan_us",
    ] {
        m.insert(name, traced.baseline(name));
    }
    m.insert("store.bytes_per_doc_byte", traced.bytes_per_doc_byte);
    let per_read_us =
        traced.recorder.request_self_us(&traced.reads) / traced.reads.len().max(1) as f64;
    m.insert("trace.coverage", per_read_us / server_us);
    let path = std::path::Path::new(".ladder_trace").join(format!(
        "{}-seed{}.jsonl",
        options.workload.name(),
        options.seed
    ));
    traced
        .recorder
        .write_jsonl(&path)
        .map_err(|e| format!("write {}: {e}", path.display()))?;

    if options.workload == Workload::DocQuery {
        let hot: Vec<String> = inputs.plans[0]
            .reads
            .iter()
            .filter(|j| inputs.classes[j.class].name.starts_with("hot"))
            .take(200)
            .filter_map(|j| {
                j.request
                    .body
                    .get("doc")
                    .and_then(Json::as_str)
                    .map(str::to_string)
            })
            .collect();
        let (first, gap, slope) = trace::delay_sweep(&hot, options.seed)?;
        m.insert("enum.first_mapping_us", first);
        m.insert("enum.max_delay_us", gap);
        m.insert("enum.delay_slope", slope);
    }

    if let Some(rungs) = ladder {
        let weight = |i: usize| READ_PROGRAMS[i].2 as f64 / 100.0;
        let weighted = |f: &dyn Fn(&Rungs) -> f64| {
            rungs
                .iter()
                .enumerate()
                .map(|(i, r)| weight(i) * f(r))
                .sum::<f64>()
        };
        m.insert("http.overhead_us", weighted(&|r| r.http_us - r.line_us));
        m.insert(
            "router.overhead_us",
            weighted(&|r| r.router_us - r.backend_us),
        );
    }
    Ok(m)
}
