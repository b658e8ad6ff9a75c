//! The traced run's in-process side: a span recorder, the replay of a
//! workload's requests through the same public calls the daemon's
//! dispatch makes, and the polynomial-delay sweep.
//!
//! The replay mirrors `dispatch` for the ops the workloads send: decode
//! (`Request::parse`), then the query cache (`QueryCache::get_or_prepare`,
//! which prepares on a miss), then `PreparedQuery::evaluate` for a
//! document or `Store::query_view` for the resident corpus (or
//! `Store::apply` for a mutation), then encode (`mappings_to_json` and the
//! response's `Json` rendering). Each call is one span; a request's root
//! span covers them all. The side measurements (`Store::candidates`, the
//! cold `Store::query`, the pool scan) are baselines outside the request
//! tree, so they never count toward `trace.coverage`.

use crate::workload::{ingest_store, Expect, Inputs, Workload, READ_PROGRAMS};
use spanner_algebra::RaOptions;
use spanner_bench::log_log_slope;
use spanner_core::{Document, MappingSet};
use spanner_corpus::{QueryView, WorkerPool};
use spanner_ql::PreparedQuery;
use spanner_serve::protocol::{mappings_to_json, Request};
use spanner_serve::{Json, QueryCache, ServeOptions};
use spanner_store::{Mutation, Store};
use spanner_workloads::{needle_padding, program_library};
use std::collections::{BTreeMap, HashMap};
use std::io::Write;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The request id of spans recorded while warming up, before any request.
const WARMUP: u64 = u64::MAX;

/// Per-program cap on the side baselines (a full scan of the corpus per
/// sample is the costly one).
const SIDE_LIMIT: usize = 8;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer name (the metric prefix).
    pub name: &'static str,
    /// Start.
    pub start: Instant,
    /// End.
    pub end: Instant,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// The replayed request this span belongs to.
    pub request: u64,
}

/// Spans kept in memory; written out only at the end.
pub struct Recorder {
    on: bool,
    spans: Vec<Span>,
    open: Vec<usize>,
    request: u64,
}

impl Recorder {
    /// A recorder; with `on` false every span is a plain call.
    pub fn new(on: bool) -> Recorder {
        Recorder {
            on,
            spans: Vec::new(),
            open: Vec::new(),
            request: WARMUP,
        }
    }

    /// Sets the request id of the spans that follow.
    pub fn request(&mut self, id: u64) {
        self.request = id;
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Recorder) -> T) -> T {
        if !self.on {
            return f(self);
        }
        let index = self.spans.len();
        let now = Instant::now();
        self.spans.push(Span {
            name,
            start: now,
            end: now,
            parent: self.open.last().copied(),
            request: self.request,
        });
        self.open.push(index);
        let out = f(self);
        self.open.pop();
        self.spans[index].end = Instant::now();
        out
    }

    /// Each span's self time: its duration minus its children's.
    pub fn self_times(&self) -> Vec<Duration> {
        let mut child = vec![Duration::ZERO; self.spans.len()];
        for span in &self.spans {
            if let Some(p) = span.parent {
                child[p] += span.end - span.start;
            }
        }
        self.spans
            .iter()
            .zip(child)
            .map(|(s, c)| (s.end - s.start).saturating_sub(c))
            .collect()
    }

    /// Mean self time per span, in µs, by layer name.
    pub fn layer_means(&self) -> BTreeMap<&'static str, f64> {
        let mut acc: BTreeMap<&'static str, (f64, usize)> = BTreeMap::new();
        for (span, own) in self.spans.iter().zip(self.self_times()) {
            let e = acc.entry(span.name).or_default();
            e.0 += own.as_secs_f64() * 1e6;
            e.1 += 1;
        }
        acc.into_iter()
            .map(|(k, (s, n))| (k, s / n as f64))
            .collect()
    }

    /// Total self time, in µs, of the spans of the given requests.
    pub fn request_self_us(&self, requests: &[u64]) -> f64 {
        let wanted: std::collections::HashSet<u64> = requests.iter().copied().collect();
        self.spans
            .iter()
            .zip(self.self_times())
            .filter(|(s, _)| wanted.contains(&s.request))
            .map(|(_, own)| own.as_secs_f64() * 1e6)
            .sum()
    }

    /// Writes the spans as JSON lines (times in ns from the first span).
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        let origin = self.spans.first().map(|s| s.start);
        for (i, span) in self.spans.iter().enumerate() {
            let ns = |t: Instant| origin.map_or(0, |o| (t - o).as_nanos());
            let request = if span.request == WARMUP {
                Json::Null
            } else {
                Json::number(span.request as usize)
            };
            let parent = span.parent.map_or(Json::Null, Json::number);
            writeln!(
                out,
                "{}",
                Json::object([
                    ("id", Json::number(i)),
                    ("name", Json::string(span.name)),
                    ("start_ns", Json::Number(ns(span.start) as f64)),
                    ("end_ns", Json::Number(ns(span.end) as f64)),
                    ("parent", parent),
                    ("request", request),
                ])
            )?;
        }
        out.flush()
    }
}

/// Running means of the replay's counted quantities.
#[derive(Debug, Default)]
pub struct Means(BTreeMap<&'static str, (f64, usize)>);

impl Means {
    /// Adds one observation.
    pub fn add(&mut self, name: &'static str, value: f64) {
        let e = self.0.entry(name).or_default();
        e.0 += value;
        e.1 += 1;
    }

    /// The mean of `name`, 0 when never observed.
    pub fn mean(&self, name: &str) -> f64 {
        self.0.get(name).map_or(0.0, |(s, n)| s / *n as f64)
    }
}

impl Replay {
    /// A side baseline weighted by the read shares of the programs that
    /// measured it, so it compares with the share-weighted replay means.
    pub fn baseline(&self, name: &str) -> f64 {
        let (mut sum, mut weight) = (0.0, 0.0);
        for (means, (_, _, share)) in self.baselines.iter().zip(READ_PROGRAMS) {
            if means.0.contains_key(name) {
                sum += share as f64 * means.mean(name);
                weight += share as f64;
            }
        }
        if weight > 0.0 {
            sum / weight
        } else {
            0.0
        }
    }
}

/// What one replay produced.
pub struct Replay {
    /// The spans (empty when recording was off).
    pub recorder: Recorder,
    /// Counted quantities of the replayed requests.
    pub means: Means,
    /// The side baselines, per read program (indexed like
    /// [`READ_PROGRAMS`]).
    pub baselines: Vec<Means>,
    /// Request ids of the replayed reads.
    pub reads: Vec<u64>,
    /// Wall time of the request paths (side baselines excluded).
    pub request_wall: Duration,
    /// Saved segment bytes per document byte at the end (0 without a
    /// store).
    pub bytes_per_doc_byte: f64,
}

/// Replays `steps` requests of client 0's plan in-process, with spans on
/// or off.
pub fn replay(inputs: &Inputs, steps: usize, traced: bool) -> Result<Replay, String> {
    let mut run = Replay {
        recorder: Recorder::new(traced),
        means: Means::default(),
        baselines: READ_PROGRAMS.iter().map(|_| Means::default()).collect(),
        reads: Vec::new(),
        request_wall: Duration::ZERO,
        bytes_per_doc_byte: 0.0,
    };
    let options = ServeOptions::default();
    let cache = QueryCache::new(options.cache_capacity);
    let ra = options.ra_options;
    for program in &inputs.warm_programs {
        run.recorder
            .span("ql.prepare", |_| cache.get_or_prepare(program, ra))
            .map_err(|e| e.pretty(program))?;
    }
    let mut store = match inputs.workload {
        Workload::DocQuery => None,
        Workload::StoreRw | Workload::RoutedHttp => Some(ingest_store(&inputs.corpus_chunks)?),
    };
    let mut views: HashMap<String, QueryView> = HashMap::new();
    if let Some(store) = &store {
        for program in &inputs.warm_programs {
            let (query, _) = cache
                .get_or_prepare(program, ra)
                .map_err(|e| e.pretty(program))?;
            let mut view = QueryView::new(options.view_budget);
            store
                .query_view(query.engine(), &mut view, 1)
                .map_err(|e| e.to_string())?;
            views.insert(program.clone(), view);
        }
    }
    let pool = WorkerPool::new(1);
    let mut side_samples = [0usize; READ_PROGRAMS.len()];
    let plan = &inputs.plans[0];
    let (mut reads, mut writes) = (0usize, 0usize);
    for step in 0..steps {
        // Every tenth replayed request is a write, when the plan has any.
        let (job, write) = plan.job((step + 1) / 10, reads, writes);
        if write {
            writes += 1;
        } else {
            reads += 1;
            run.reads.push(step as u64);
        }
        run.recorder.request(step as u64);
        let started = Instant::now();
        let rec = &mut run.recorder;
        let means = &mut run.means;
        let line = &job.request.line;
        let response = rec.span("request", |rec| -> Result<Json, String> {
            let request = rec.span("protocol.decode", |_| Request::parse(line))?;
            match request {
                Request::Query { program, doc } => {
                    let query = lookup(rec, &cache, &program, ra)?;
                    let (doc, set) = rec.span("ql.evaluate", |_| {
                        let doc = Document::new(doc);
                        let set = query.evaluate(&doc);
                        (doc, set)
                    });
                    let set = set.map_err(|e| e.to_string())?;
                    Ok(encode(rec, || {
                        Json::object([
                            ("ok", Json::Bool(true)),
                            ("cached", Json::Bool(true)),
                            ("count", Json::number(set.len())),
                            ("mappings", mappings_to_json(&doc, &set)),
                        ])
                    }))
                }
                Request::QueryCorpus {
                    program,
                    text: None,
                } => {
                    let store = store.as_ref().ok_or("corpus read without a store")?;
                    let query = lookup(rec, &cache, &program, ra)?;
                    let view = views
                        .get_mut(&program)
                        .ok_or("read of an unwarmed program")?;
                    let outcome = rec
                        .span("corpus.view_query", |_| {
                            store.query_view(query.engine(), view, 1)
                        })
                        .map_err(|e| e.to_string())?;
                    let documents = outcome.output.stats.documents.max(1) as f64;
                    means.add(
                        "corpus.view_hit_ratio",
                        outcome.view_hits as f64 / documents,
                    );
                    means.add("corpus.delta_docs", outcome.delta_docs as f64);
                    let docs = store.documents();
                    let results = &outcome.output.results;
                    let stats = &outcome.output.stats;
                    Ok(encode(rec, || {
                        corpus_response(docs, results, stats.mappings, store.generation())
                    }))
                }
                Request::AppendDocs { .. }
                | Request::UpdateDoc { .. }
                | Request::DeleteDocs { .. } => {
                    let store = store.as_mut().ok_or("mutation without a store")?;
                    let mutations = to_mutations(request);
                    rec.span("store.apply", |_| {
                        mutations.iter().try_for_each(|m| store.apply(m).map(drop))
                    })
                    .map_err(|e| e.to_string())?;
                    means.add("store.apply_batch", mutations.len() as f64);
                    let (generation, documents) = (store.generation(), store.len());
                    Ok(encode(rec, || {
                        Json::object([
                            ("ok", Json::Bool(true)),
                            ("documents", Json::number(documents)),
                            ("generation", Json::number(generation as usize)),
                        ])
                    }))
                }
                other => Err(format!("replay of unexpected op `{}`", other.op_name())),
            }
        })?;
        run.request_wall += started.elapsed();
        inputs
            .oracle
            .check(&job.expect, &response)
            .map_err(|e| format!("replay step {step}: {e}"))?;
        if let (Expect::Read(p), Some(store)) = (&job.expect, &store) {
            if side_samples[*p] < SIDE_LIMIT {
                side_samples[*p] += 1;
                let program = READ_PROGRAMS[*p].1;
                let (query, _) = cache
                    .get_or_prepare(program, ra)
                    .map_err(|e| e.pretty(program))?;
                side_baselines(&mut run.baselines[*p], store, &query, &pool)?;
            }
        }
    }
    if let Some(store) = &store {
        run.bytes_per_doc_byte = segment_bytes_per_doc_byte(store)?;
    }
    Ok(run)
}

/// The store's size per byte of live documents, measured as its saved
/// segment (documents plus trigram postings; `Store::bytes` counts the
/// documents alone).
fn segment_bytes_per_doc_byte(store: &Store) -> Result<f64, String> {
    let dir = std::path::Path::new(".ladder_trace");
    std::fs::create_dir_all(dir).map_err(|e| e.to_string())?;
    let path = dir.join(format!("segment-{}.bin", std::process::id()));
    store.save(&path).map_err(|e| e.to_string())?;
    let size = std::fs::metadata(&path).map(|m| m.len());
    let _ = std::fs::remove_file(&path);
    let size = size.map_err(|e| e.to_string())?;
    Ok(size as f64 / store.bytes().max(1) as f64)
}

/// The cache step: a hit is `cache.lookup`; a miss prepares, so it is
/// `ql.prepare`.
fn lookup(
    rec: &mut Recorder,
    cache: &QueryCache,
    program: &str,
    ra: RaOptions,
) -> Result<Arc<PreparedQuery>, String> {
    let name = if cache.contains(program, ra) {
        "cache.lookup"
    } else {
        "ql.prepare"
    };
    rec.span(name, |_| cache.get_or_prepare(program, ra))
        .map(|(query, _)| query)
        .map_err(|e| e.pretty(program))
}

/// The encode step: build the response tree and render it.
fn encode(rec: &mut Recorder, build: impl FnOnce() -> Json) -> Json {
    rec.span("protocol.encode", |_| {
        let response = build();
        std::hint::black_box(response.to_string());
        response
    })
}

/// A resident `query_corpus` response in the daemon's shape: per matched
/// document its line, count and mappings.
fn corpus_response(
    docs: &[Document],
    results: &[MappingSet],
    mappings: usize,
    generation: u64,
) -> Json {
    let matched: Vec<Json> = docs
        .iter()
        .zip(results)
        .enumerate()
        .filter(|(_, (_, set))| !set.is_empty())
        .map(|(line, (doc, set))| {
            Json::object([
                ("line", Json::number(line)),
                ("count", Json::number(set.len())),
                ("mappings", mappings_to_json(doc, set)),
            ])
        })
        .collect();
    Json::object([
        ("ok", Json::Bool(true)),
        ("cached", Json::Bool(true)),
        ("documents", Json::number(docs.len())),
        ("mappings", Json::number(mappings)),
        ("generation", Json::number(generation as usize)),
        ("results", Json::Array(matched)),
    ])
}

/// A decoded mutation request as the store mutations it applies.
fn to_mutations(request: Request) -> Vec<Mutation> {
    match request {
        Request::AppendDocs { text } => text
            .lines()
            .map(|t| Mutation::Append {
                text: t.to_string(),
            })
            .collect(),
        Request::UpdateDoc { line, text } => vec![Mutation::Update { id: line, text }],
        Request::DeleteDocs { lines } => lines
            .into_iter()
            .map(|id| Mutation::Delete { id })
            .collect(),
        _ => Vec::new(),
    }
}

/// The baselines a resident read is compared against: the trigram
/// candidate set, the cold indexed query, and (for a program with no
/// usable literal) the pool scan of the whole corpus.
fn side_baselines(
    means: &mut Means,
    store: &Store,
    query: &PreparedQuery,
    pool: &WorkerPool,
) -> Result<(), String> {
    let us = |d: Duration| d.as_secs_f64() * 1e6;
    let literals = query.engine().plan().required_literals();
    let started = Instant::now();
    let candidates = store.candidates(&literals);
    means.add("store.candidates_us", us(started.elapsed()));
    let live = (store.len() - store.deleted_count()).max(1) as f64;
    means.add(
        "store.candidate_ratio",
        candidates.as_ref().map_or(1.0, |c| c.len() as f64 / live),
    );
    let started = Instant::now();
    let cold = store.query(query.engine(), 1).map_err(|e| e.to_string())?;
    means.add("store.query_us", us(started.elapsed()));
    if candidates.is_none() {
        let docs = Arc::new(store.documents().to_vec());
        let started = Instant::now();
        let scanned = query
            .evaluate_corpus_on_pool(&docs, pool)
            .map_err(|e| e.to_string())?;
        means.add("corpus.scan_us", us(started.elapsed()));
        if scanned.stats.mappings != cold.output.stats.mappings {
            return Err("pool scan and indexed query disagree".to_string());
        }
    }
    Ok(())
}

/// The paper layer: time to the first mapping and the largest gap between
/// consecutive mappings (the last gap runs to the end of the stream), as
/// `PreparedQuery::stream` enumerates the hot program.
pub fn delay(query: &PreparedQuery, doc: &Document) -> Result<(Duration, Duration), String> {
    let started = Instant::now();
    let mut stream = query.stream(doc).map_err(|e| e.to_string())?;
    let mut first = None;
    let mut last = started;
    let mut max_gap = Duration::ZERO;
    loop {
        let next = stream.next();
        let now = Instant::now();
        first.get_or_insert(now - started);
        max_gap = max_gap.max(now - last);
        last = now;
        match next {
            None => break,
            Some(m) => {
                m.map_err(|e| e.to_string())?;
            }
        }
    }
    Ok((first.unwrap_or_default(), max_gap))
}

/// The polynomial-delay record for the hot program: mean first-mapping
/// time and mean largest gap over the workload's own hot documents, and
/// the log-log slope of the largest gap against document length over a
/// sweep of lengths.
pub fn delay_sweep(hot_docs: &[String], seed: u64) -> Result<(f64, f64, f64), String> {
    let hot = &program_library()[0];
    let query = PreparedQuery::prepare(hot).map_err(|e| e.pretty(hot))?;
    let us = |d: Duration| d.as_secs_f64() * 1e6;
    let (mut first_sum, mut gap_sum) = (0.0, 0.0);
    for doc in hot_docs {
        let (first, gap) = delay(&query, &Document::new(doc.as_str()))?;
        first_sum += us(first);
        gap_sum += us(gap);
    }
    let n = hot_docs.len().max(1) as f64;
    let mut points = Vec::new();
    for len in [1usize << 10, 1 << 12, 1 << 14, 1 << 16] {
        let doc = Document::new(format!("bob@mail.co.uk msg {}", needle_padding(len, seed)));
        let gaps: Vec<f64> = (0..5)
            .map(|_| delay(&query, &doc).map(|(_, gap)| us(gap)))
            .collect::<Result<_, _>>()?;
        points.push((doc.len() as f64, crate::load::median(&gaps)));
    }
    Ok((first_sum / n, gap_sum / n, log_log_slope(&points)))
}
