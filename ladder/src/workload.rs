//! The three workloads: seeded inputs, their oracles, and the daemons
//! they run against.
//!
//! * `doc-query` — single-document `query` requests from the
//!   `request_mix` generator to one line-protocol daemon. 5% use a
//!   rotating set of 128 literal variants of the hot program, more than
//!   the daemon's 64-entry query cache holds, so each of those misses.
//! * `store-rw` — resident `query_corpus` reads over a 50 000-document
//!   needle corpus on one line-protocol daemon, plus mutation batches
//!   from `random_mutations`.
//! * `routed-http` — the same corpus and reads, read-only, through the
//!   HTTP front end of a shard router over two backend daemons.

use crate::daemon::{Conn, Daemon, DaemonSpec, WireRequest};
use spanner_core::Document;
use spanner_corpus::split_lines;
use spanner_ql::PreparedQuery;
use spanner_serve::Json;
use spanner_store::{Mutation, Store};
use spanner_workloads::{
    needle_corpus, program_library, random_mutations, request_mix, RequestMixConfig,
};
use std::collections::HashMap;
use std::io;

/// Load-generating client connections (closed loop) of the single-daemon
/// workloads: two requests in flight keep the daemon's two workers — and
/// the box's two CPUs — busy.
const CLIENTS: usize = 2;

/// Client connections of `routed-http`: one request in flight already
/// runs on two backends at once (the router fans out), and a second would
/// queue behind the router's one pooled connection per backend.
const ROUTED_CLIENTS: usize = 1;

/// Documents in the resident corpus of the store workloads.
const CORPUS_DOCS: usize = 50_000;

/// Requests in each client's read pool (cycled).
const POOL: usize = 4096;

/// Cold-program variants; more than twice the daemon's 64-entry cache, and
/// split between the clients so no variant repeats within 64 misses.
const COLD_VARIANTS: usize = 128;

/// The `doc-query` request classes — program (the hot join chain, the
/// library's tail, or a cold variant) by document shape (the mix draws
/// email-shaped and access-log lines) — and their shares in percent.
/// Cached requests cost about 20 µs on email lines with a tail program
/// and on log lines with the hot program, 50 µs on log lines with a tail
/// program, 250 µs on email lines with the hot program, and a cold
/// variant's prepare several milliseconds. The shares put `read_p50_us`
/// well inside the 20 µs mode (cumulative 0–70%) and `read_p99_us` inside
/// the cold mode (95–100%).
const DOC_CLASSES: [(&str, u64); 5] = [
    ("tail/email", 25),
    ("hot/log", 45),
    ("tail/log", 8),
    ("hot/email", 17),
    ("cold", 5),
];

/// Index of the cold class in [`DOC_CLASSES`].
const COLD: usize = 4;

/// Largest request line the line protocol accepts by default, minus room
/// for the request envelope.
const CHUNK_BYTES: usize = (1 << 20) - 4096;

/// The resident-corpus read programs, with their read shares (percent):
/// a selective needle extraction and a needle difference (both pruned
/// through the trigram index, about 50 matching documents each), and a
/// token scan with no usable literal (a one-byte literal makes no
/// trigram, so it falls back to a full scan) that extracts the first
/// token of the ~3.6% of documents starting with `q`. Its ~1 800-document
/// answer makes it the slow class (encoding, and the router's merge), so
/// the shares put `read_p50_us` inside the index-pruned classes and
/// `read_p99_us` well inside the scan class.
pub const READ_PROGRAMS: [(&str, &str, u64); 3] = [
    ("needle", "/.*needle {x:\\l+}.*/", 72),
    ("diff", "/.*{x:needle}.*/ minus /.*{x:needle} q.*/", 25),
    ("scan", "/{x:q[a-z]*} .*/", 3),
];

/// Mutation requests per second of `store-rw`'s timed window (about one
/// request in eighteen), all sent by client 0 so the store's generations
/// follow one script. The rate is fixed rather than a share of requests so every
/// run applies the same mutations whatever the machine's speed: the
/// store's compactions then fall at the same points (the metadata lists
/// the write indices where the oracle's store compacted).
pub const WRITE_RATE: f64 = 50.0;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Single-document queries, one daemon.
    DocQuery,
    /// Resident corpus reads and writes, one daemon.
    StoreRw,
    /// Resident corpus reads through an HTTP shard router.
    RoutedHttp,
}

impl Workload {
    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        match name {
            "doc-query" => Some(Workload::DocQuery),
            "store-rw" => Some(Workload::StoreRw),
            "routed-http" => Some(Workload::RoutedHttp),
            _ => None,
        }
    }

    /// The workload's name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::DocQuery => "doc-query",
            Workload::StoreRw => "store-rw",
            Workload::RoutedHttp => "routed-http",
        }
    }
}

/// What a response must say.
#[derive(Debug, Clone)]
pub enum Expect {
    /// A single-document query: `count` mappings.
    Count(usize),
    /// A resident-corpus read of `READ_PROGRAMS[i]`: as many `mappings`
    /// as the oracle holds at the response's `generation`.
    Read(usize),
    /// The `i`-th mutation batch: the oracle's generation and document
    /// count after it.
    Write(usize),
}

/// One request of a client's plan.
#[derive(Debug, Clone)]
pub struct Job {
    /// The request, rendered for the wire.
    pub request: WireRequest,
    /// Index into [`Inputs::classes`].
    pub class: usize,
    /// The oracle's expectation.
    pub expect: Expect,
}

/// A request class: a name and whether it mutates.
#[derive(Debug, Clone)]
pub struct Class {
    /// Class name (recorded with its share in the run metadata).
    pub name: &'static str,
    /// Mutations count as writes; everything else as reads.
    pub write: bool,
}

/// One client's request plan: reads cycle; writes are consumed in order
/// and never repeat.
#[derive(Debug, Clone, Default)]
pub struct ClientPlan {
    /// The read pool.
    pub reads: Vec<Job>,
    /// The mutation batches, in script order.
    pub writes: Vec<Job>,
    /// Writes per second of the timed window (0 for a read-only client).
    pub write_rate: f64,
}

impl ClientPlan {
    /// The next job, given the writes due so far and the reads and writes
    /// done: a write while fewer than `due_writes` have been sent, else
    /// the next read. Returns the job and whether it is a write.
    pub fn job(&self, due_writes: usize, reads_done: usize, writes_done: usize) -> (&Job, bool) {
        if writes_done < due_writes.min(self.writes.len()) {
            (&self.writes[writes_done], true)
        } else {
            (&self.reads[reads_done % self.reads.len()], false)
        }
    }
}

/// Expected corpus-read answers: per-program mapping totals at every
/// store generation the write script passes through, plus the generation
/// and document count after each write batch.
#[derive(Debug, Clone, Default)]
pub struct Oracle {
    /// `(generation, mapping total per read program)`, by generation.
    pub snapshots: Vec<(u64, Vec<usize>)>,
    /// `(generation, documents)` after each write batch.
    pub writes: Vec<(u64, usize)>,
}

impl Oracle {
    /// Checks one response against the expectation; `Err` names the
    /// mismatch.
    pub fn check(&self, expect: &Expect, response: &Json) -> Result<(), String> {
        if response.get("ok").and_then(Json::as_bool) != Some(true) {
            return Err("response is not ok".to_string());
        }
        let field = |name: &str| {
            response
                .get(name)
                .and_then(Json::as_f64)
                .map(|v| v as u64)
                .ok_or_else(|| format!("response lacks `{name}`"))
        };
        match expect {
            Expect::Count(n) => {
                let got = field("count")?;
                (got == *n as u64)
                    .then_some(())
                    .ok_or_else(|| format!("count {got}, oracle {n}"))
            }
            Expect::Read(program) => {
                let totals = match (field("generation"), self.snapshots.as_slice()) {
                    (Ok(generation), _) => self
                        .snapshots
                        .binary_search_by_key(&generation, |(g, _)| *g)
                        .map(|i| &self.snapshots[i].1)
                        .map_err(|_| format!("no oracle state at generation {generation}"))?,
                    (Err(_), [(_, only)]) => only,
                    (Err(e), _) => return Err(e),
                };
                let got = field("mappings")?;
                let want = totals[*program];
                (got == want as u64)
                    .then_some(())
                    .ok_or_else(|| format!("{got} mappings, oracle {want}"))
            }
            Expect::Write(i) => {
                let (generation, documents) = self.writes[*i];
                let got = (field("generation")?, field("documents")?);
                (got == (generation, documents as u64))
                    .then_some(())
                    .ok_or_else(|| {
                        format!(
                            "(generation, documents) {got:?}, oracle ({generation}, {documents})"
                        )
                    })
            }
        }
    }
}

/// Everything a run needs, generated from the seed before any daemon
/// starts.
pub struct Inputs {
    /// The workload.
    pub workload: Workload,
    /// Request classes.
    pub classes: Vec<Class>,
    /// One plan per client.
    pub plans: Vec<ClientPlan>,
    /// The corpus-read oracle (empty for `doc-query`).
    pub oracle: Oracle,
    /// The resident corpus, as the ingest requests send it.
    pub corpus_chunks: Vec<String>,
    /// Programs prepared during warm-up.
    pub warm_programs: Vec<String>,
    /// The daemons to start; the last one is the front end the clients
    /// talk to, and the others are its backends.
    pub specs: Vec<DaemonSpec>,
    /// Indices of the write batches after which the oracle's store
    /// compacted (the daemon's compacts at the same points).
    pub compactions: Vec<usize>,
}

/// Generates a workload's inputs and oracle from `seed`.
pub fn generate(workload: Workload, seed: u64) -> Result<Inputs, String> {
    match workload {
        Workload::DocQuery => doc_query(seed),
        Workload::StoreRw | Workload::RoutedHttp => store_inputs(workload, seed),
    }
}

/// A small deterministic generator for the benchmark's own choices.
pub struct XorShift(u64);

impl XorShift {
    /// Seeds the generator (any seed, zero included).
    pub fn new(seed: u64) -> XorShift {
        XorShift(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1)
    }

    /// A value in `0..bound`.
    pub fn below(&mut self, bound: u64) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0 % bound
    }
}

/// A shuffled sequence of `n` class indices holding each class exactly its
/// share (percent) of the slots, so every seed runs the same mix.
pub fn class_sequence(shares: &[u64], n: usize, rng: &mut XorShift) -> Vec<usize> {
    let mut slots: Vec<usize> = shares
        .iter()
        .enumerate()
        .flat_map(|(class, &share)| std::iter::repeat_n(class, n * share as usize / 100))
        .collect();
    slots.resize(n, 0);
    for i in (1..n).rev() {
        slots.swap(i, rng.below(i as u64 + 1) as usize);
    }
    slots
}

/// The `i`-th cold variant of the hot program: its `admin` literal grows
/// a two-letter suffix, which changes the cache key and little else.
pub fn cold_variant(hot: &str, i: usize) -> String {
    let suffix: String = [b'a' + (i / 26) as u8, b'a' + (i % 26) as u8]
        .iter()
        .map(|&b| b as char)
        .collect();
    hot.replace("{user:admin", &format!("{{user:admin{suffix}"))
}

fn doc_query(seed: u64) -> Result<Inputs, String> {
    let library = program_library();
    let hot = library[0].clone();
    let classes = DOC_CLASSES
        .iter()
        .map(|&(name, _)| Class { name, write: false })
        .collect();
    let config = RequestMixConfig {
        hot_percent: 70,
        corpus_percent: 0,
        introspection_percent: 0,
        corpus_lines: 0,
    };
    let mut prepared: HashMap<String, PreparedQuery> = HashMap::new();
    let mut plans = Vec::new();
    for client in 0..CLIENTS {
        let client_seed = seed.wrapping_mul(31).wrapping_add(client as u64);
        let mut rng = XorShift::new(client_seed ^ 0xc01d);
        // The generated mix, bucketed by class (program × document shape);
        // the pool then draws each slot's class by its share.
        let mix = request_mix(4 * POOL, config, client_seed);
        let mut buckets: Vec<Vec<(String, String)>> = vec![Vec::new(); DOC_CLASSES.len()];
        for request in &mix {
            let shape = usize::from(!request.doc.contains('@'));
            let class = match (request.program == hot, shape) {
                (true, 0) => 3,
                (true, _) => 1,
                (false, 0) => 0,
                (false, _) => 2,
            };
            buckets[class].push((request.program.clone(), request.doc.clone()));
        }
        let mut cursors = vec![0usize; DOC_CLASSES.len()];
        let mut cold = 0usize;
        let mut reads = Vec::with_capacity(POOL);
        let shares: Vec<u64> = DOC_CLASSES.iter().map(|&(_, share)| share).collect();
        for class in class_sequence(&shares, POOL, &mut rng) {
            let (program, doc) = if class == COLD {
                let variant = client * (COLD_VARIANTS / CLIENTS) + cold % (COLD_VARIANTS / CLIENTS);
                let doc = mix[cold % mix.len()].doc.clone();
                cold += 1;
                (cold_variant(&hot, variant), doc)
            } else {
                let bucket = &buckets[class];
                if bucket.is_empty() {
                    return Err(format!(
                        "the mix drew no `{}` request",
                        DOC_CLASSES[class].0
                    ));
                }
                cursors[class] += 1;
                bucket[(cursors[class] - 1) % bucket.len()].clone()
            };
            if !prepared.contains_key(&program) {
                let query = PreparedQuery::prepare(&program).map_err(|e| e.pretty(&program))?;
                prepared.insert(program.clone(), query);
            }
            let count = prepared[&program]
                .evaluate(&Document::new(doc.as_str()))
                .map_err(|e| e.to_string())?
                .len();
            reads.push(Job {
                request: WireRequest::new(
                    "query",
                    vec![
                        ("program", Json::string(program)),
                        ("doc", Json::string(doc)),
                    ],
                ),
                class,
                expect: Expect::Count(count),
            });
        }
        plans.push(ClientPlan {
            reads,
            ..ClientPlan::default()
        });
    }
    Ok(Inputs {
        workload: Workload::DocQuery,
        classes,
        plans,
        oracle: Oracle::default(),
        corpus_chunks: Vec::new(),
        warm_programs: library,
        specs: vec![DaemonSpec {
            http: false,
            threads: CLIENTS + 1,
            corpus_threads: 1,
            big_requests: false,
            router: false,
        }],
        compactions: Vec::new(),
    })
}

/// The needle corpus as ingest chunks: each chunk's request line, as
/// JSON-escaped on the wire, stays under the line protocol's 1 MiB cap.
fn corpus_chunks(docs: &[Document]) -> Vec<String> {
    let mut chunks = vec![String::new()];
    let mut escaped = 0;
    for doc in docs {
        // The quoted, escaped text plus an escaped newline, minus the quotes.
        let cost = Json::string(doc.text()).to_string().len();
        if escaped + cost > CHUNK_BYTES {
            chunks.push(String::new());
            escaped = 0;
        }
        escaped += cost;
        let current = chunks.last_mut().expect("at least one chunk");
        current.push_str(doc.text());
        current.push('\n');
    }
    chunks
}

/// Builds a store exactly as the daemon's ingest does: the first chunk
/// through `Store::build`, the rest appended line by line (so document
/// ids and generations agree with the daemon's).
pub fn ingest_store(chunks: &[String]) -> Result<Store, String> {
    let mut store = Store::build(split_lines(&chunks[0])).map_err(|e| e.to_string())?;
    for chunk in &chunks[1..] {
        for line in chunk.lines() {
            store.append(line).map_err(|e| e.to_string())?;
        }
    }
    Ok(store)
}

/// Groups a mutation script into wire batches: runs of appends or deletes
/// (up to ten documents each), and single updates.
pub fn batches(script: &[Mutation]) -> Vec<&[Mutation]> {
    let same_kind = |a: &Mutation, b: &Mutation| {
        matches!(
            (a, b),
            (Mutation::Append { .. }, Mutation::Append { .. })
                | (Mutation::Delete { .. }, Mutation::Delete { .. })
        )
    };
    let mut out = Vec::new();
    let mut start = 0;
    while start < script.len() {
        let mut end = start + 1;
        while end < script.len() && end - start < 10 && same_kind(&script[start], &script[end]) {
            end += 1;
        }
        out.push(&script[start..end]);
        start = end;
    }
    out
}

/// The mutations that undo `batch` once it is applied to `store` (in its
/// state before the batch): appended documents are deleted, updated and
/// deleted documents get their old text back, and a document that was
/// deleted before an update is deleted again.
pub fn inverse(store: &Store, batch: &[Mutation]) -> Vec<Mutation> {
    let old = |id: u32| -> Mutation {
        if store.is_deleted(id) {
            Mutation::Delete { id }
        } else {
            Mutation::Update {
                id,
                text: store.documents()[id as usize].text().to_string(),
            }
        }
    };
    let mut next_id = store.len() as u32;
    let mut undo: Vec<Mutation> = batch
        .iter()
        .filter_map(|m| match m {
            Mutation::Append { .. } => {
                next_id += 1;
                Some(Mutation::Delete { id: next_id - 1 })
            }
            Mutation::Update { id, .. } => Some(old(*id)),
            Mutation::Delete { id } => (!store.is_deleted(*id)).then(|| old(*id)),
        })
        .collect();
    // Undo in reverse order, so a document touched twice ends at its
    // first pre-image.
    undo.reverse();
    undo
}

/// The wire request of one mutation batch. Every appended line is
/// newline-terminated, so an empty document survives `str::lines`.
pub fn batch_request(batch: &[Mutation]) -> WireRequest {
    match &batch[0] {
        Mutation::Append { .. } => {
            let mut text = String::new();
            for m in batch {
                if let Mutation::Append { text: t } = m {
                    text.push_str(t);
                    text.push('\n');
                }
            }
            WireRequest::new("append_docs", vec![("text", Json::string(text))])
        }
        Mutation::Update { id, text } => WireRequest::new(
            "update_doc",
            vec![
                ("line", Json::number(*id as usize)),
                ("text", Json::string(text.clone())),
            ],
        ),
        Mutation::Delete { .. } => {
            let ids = batch.iter().filter_map(|m| match m {
                Mutation::Delete { id } => Some(Json::number(*id as usize)),
                _ => None,
            });
            WireRequest::new("delete_docs", vec![("lines", Json::Array(ids.collect()))])
        }
    }
}

/// Mutations generated for `store-rw`: with their undo requests, about
/// twenty times what a 20-second window sends at [`WRITE_RATE`] (a run
/// that exhausts them sends reads in their place; the metadata says how
/// many writes it sent).
const WRITE_SCRIPT: usize = 12_000;

fn store_inputs(workload: Workload, seed: u64) -> Result<Inputs, String> {
    let docs = needle_corpus(CORPUS_DOCS, 10, seed);
    let routed = workload == Workload::RoutedHttp;
    // The router gets the whole corpus in one `load_corpus`, which it
    // partitions evenly across its backends.
    let corpus_chunks = if routed {
        let mut text = String::new();
        for doc in &docs {
            text.push_str(doc.text());
            text.push('\n');
        }
        vec![text]
    } else {
        corpus_chunks(&docs)
    };
    let mut shadow = ingest_store(&corpus_chunks)?;
    let queries = READ_PROGRAMS
        .iter()
        .map(|(_, program, _)| PreparedQuery::prepare(program).map_err(|e| e.pretty(program)))
        .collect::<Result<Vec<_>, _>>()?;
    let mut per_doc: Vec<Vec<usize>> = Vec::new();
    for query in &queries {
        let out = shadow.query(query.engine(), 1).map_err(|e| e.to_string())?;
        per_doc.push(out.output.results.iter().map(|r| r.len()).collect());
    }
    let mut totals: Vec<usize> = per_doc.iter().map(|c| c.iter().sum()).collect();
    let mut oracle = Oracle {
        snapshots: vec![(shadow.generation(), totals.clone())],
        writes: Vec::new(),
    };

    let mut classes: Vec<Class> = READ_PROGRAMS
        .iter()
        .map(|(name, _, _)| Class { name, write: false })
        .collect();
    let mut writes = Vec::new();
    let mut compactions = Vec::new();
    if !routed {
        classes.push(Class {
            name: "write",
            write: true,
        });
        let write_class = classes.len() - 1;
        let start = shadow.compactions();
        let script = random_mutations(shadow.len(), WRITE_SCRIPT, seed ^ 0x5717e);
        for batch in batches(&script) {
            // Each batch is followed by the batches that undo it, so the
            // corpus keeps its content (and every read its cost) however
            // long the window runs; only tombstones of undone appends
            // accumulate.
            let undo = inverse(&shadow, batch);
            for step in
                std::iter::once(batch.to_vec()).chain(batches(&undo).iter().map(|b| b.to_vec()))
            {
                for mutation in &step {
                    let id = shadow.apply(mutation).map_err(|e| e.to_string())? as usize;
                    let doc = &shadow.documents()[id];
                    for (p, query) in queries.iter().enumerate() {
                        let count = query.evaluate(doc).map_err(|e| e.to_string())?.len();
                        if id == per_doc[p].len() {
                            per_doc[p].push(0);
                        }
                        totals[p] = totals[p] - per_doc[p][id] + count;
                        per_doc[p][id] = count;
                    }
                }
                let generation = shadow.generation();
                if oracle.snapshots.last().map(|(g, _)| *g) != Some(generation) {
                    oracle.snapshots.push((generation, totals.clone()));
                }
                if shadow.compactions() - start > compactions.len() as u64 {
                    compactions.push(writes.len());
                }
                writes.push(Job {
                    request: batch_request(&step),
                    class: write_class,
                    expect: Expect::Write(oracle.writes.len()),
                });
                oracle.writes.push((generation, shadow.len()));
            }
        }
    }

    let clients = if routed { ROUTED_CLIENTS } else { CLIENTS };
    let mut plans = Vec::new();
    for client in 0..clients {
        let mut rng = XorShift::new(seed.wrapping_mul(131).wrapping_add(client as u64));
        let shares: Vec<u64> = READ_PROGRAMS.iter().map(|&(_, _, share)| share).collect();
        let reads = class_sequence(&shares, POOL, &mut rng)
            .into_iter()
            .map(|program| Job {
                request: WireRequest::new(
                    "query_corpus",
                    vec![("program", Json::string(READ_PROGRAMS[program].1))],
                ),
                class: program,
                expect: Expect::Read(program),
            })
            .collect();
        let (writes, write_rate) = if client == 0 && !routed {
            (std::mem::take(&mut writes), WRITE_RATE)
        } else {
            (Vec::new(), 0.0)
        };
        plans.push(ClientPlan {
            reads,
            writes,
            write_rate,
        });
    }

    let backend = DaemonSpec {
        http: false,
        threads: 2,
        corpus_threads: 1,
        big_requests: true,
        router: false,
    };
    let specs = if routed {
        // Each backend serves the router's pooled connection plus one for
        // scrapes; the router serves the client plus one.
        vec![
            backend.clone(),
            backend,
            DaemonSpec {
                http: true,
                threads: clients + 1,
                corpus_threads: 1,
                big_requests: true,
                router: true,
            },
        ]
    } else {
        vec![DaemonSpec {
            http: false,
            threads: CLIENTS + 1,
            corpus_threads: 1,
            big_requests: false,
            router: false,
        }]
    };
    Ok(Inputs {
        workload,
        classes,
        plans,
        oracle,
        corpus_chunks,
        warm_programs: READ_PROGRAMS
            .iter()
            .map(|(_, p, _)| p.to_string())
            .collect(),
        specs,
        compactions,
    })
}

/// A running deployment: the daemons (front end last) and the clients'
/// connections to the front end.
pub struct Deployment {
    /// Every daemon; the last is the front end.
    pub daemons: Vec<Daemon>,
    /// The load-generating connections.
    pub conns: Vec<Conn>,
}

impl Deployment {
    /// The daemon the clients talk to.
    pub fn front(&self) -> &Daemon {
        self.daemons.last().expect("a deployment has a front end")
    }

    /// Shuts every daemon down, front end first.
    pub fn teardown(self) -> io::Result<()> {
        drop(self.conns);
        let mut result = Ok(());
        for daemon in self.daemons.into_iter().rev() {
            result = result.and(daemon.shutdown());
        }
        result
    }
}

impl Inputs {
    /// Starts the daemons, ingests the corpus, warms every fixed program
    /// (and, for the store workloads, builds every view, checking each
    /// answer), and opens the client connections. This is what `setup_s`
    /// times.
    pub fn deploy(&self) -> Result<Deployment, String> {
        let err = |what: &'static str| move |e: io::Error| format!("{what}: {e}");
        let mut daemons: Vec<Daemon> = Vec::new();
        for spec in &self.specs {
            let backends: Vec<_> = daemons.iter().map(|d| d.addr).collect();
            daemons.push(Daemon::spawn(spec, &backends).map_err(err("start daemon"))?);
        }
        let front = daemons.last().expect("at least one daemon");
        let mut control = front.connect().map_err(err("connect"))?;
        for (i, chunk) in self.corpus_chunks.iter().enumerate() {
            let op = if i == 0 { "load_corpus" } else { "append_docs" };
            control
                .call(op, Json::object([("text", Json::string(chunk.as_str()))]))
                .map_err(err("ingest"))?;
        }
        for program in &self.warm_programs {
            control
                .call(
                    "prepare",
                    Json::object([("program", Json::string(program.as_str()))]),
                )
                .map_err(err("warm-up prepare"))?;
        }
        if !self.corpus_chunks.is_empty() {
            for (i, (_, program, _)) in READ_PROGRAMS.iter().enumerate() {
                let response = control
                    .call(
                        "query_corpus",
                        Json::object([("program", Json::string(*program))]),
                    )
                    .map_err(err("warm-up query"))?;
                self.oracle
                    .check(&Expect::Read(i), &response)
                    .map_err(|e| format!("warm-up query {program}: {e}"))?;
            }
        }
        drop(control);
        let conns = (0..self.plans.len())
            .map(|_| front.connect())
            .collect::<io::Result<Vec<_>>>()
            .map_err(err("connect clients"))?;
        Ok(Deployment { daemons, conns })
    }

    /// The planned share of each read class among reads, in percent
    /// (writes, where there are any, run at [`WRITE_RATE`]).
    pub fn planned_shares(&self) -> Json {
        let shares: Vec<(&str, f64)> = match self.workload {
            Workload::DocQuery => DOC_CLASSES
                .iter()
                .map(|&(name, share)| (name, share as f64))
                .collect(),
            Workload::StoreRw | Workload::RoutedHttp => READ_PROGRAMS
                .iter()
                .map(|&(name, _, share)| (name, share as f64))
                .collect(),
        };
        Json::object(shares.into_iter().map(|(k, v)| (k, Json::Number(v))))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn oracle_rejects_error_responses_and_wrong_counts() {
        let oracle = Oracle {
            snapshots: vec![(5, vec![3, 0, 7]), (6, vec![4, 0, 7])],
            writes: vec![(6, 100)],
        };
        let parse = |s: &str| Json::parse(s).unwrap();
        assert!(oracle
            .check(&Expect::Count(2), &parse(r#"{"ok":true,"count":2}"#))
            .is_ok());
        assert!(oracle
            .check(&Expect::Count(2), &parse(r#"{"ok":true,"count":3}"#))
            .is_err());
        assert!(oracle
            .check(&Expect::Count(2), &parse(r#"{"ok":false,"error":"boom"}"#))
            .is_err());
        let read =
            |g: u64, m: usize| parse(&format!(r#"{{"ok":true,"generation":{g},"mappings":{m}}}"#));
        assert!(oracle.check(&Expect::Read(0), &read(5, 3)).is_ok());
        assert!(oracle.check(&Expect::Read(0), &read(6, 4)).is_ok());
        assert!(oracle.check(&Expect::Read(0), &read(6, 3)).is_err());
        assert!(oracle.check(&Expect::Read(0), &read(9, 3)).is_err());
        let write = |g: u64, d: usize| {
            parse(&format!(
                r#"{{"ok":true,"generation":{g},"documents":{d}}}"#
            ))
        };
        assert!(oracle.check(&Expect::Write(0), &write(6, 100)).is_ok());
        assert!(oracle.check(&Expect::Write(0), &write(6, 99)).is_err());
    }

    #[test]
    fn inverse_batches_restore_every_document() {
        let docs: Vec<Document> = (0..30).map(|i| Document::new(format!("doc {i}"))).collect();
        let mut store = Store::build(docs).unwrap();
        store.delete(3).unwrap();
        let before: Vec<String> = store
            .documents()
            .iter()
            .map(|d| d.text().to_string())
            .collect();
        let script = random_mutations(store.len(), 400, 5);
        for batch in batches(&script) {
            let undo = inverse(&store, batch);
            let len = store.len();
            for m in batch.iter().chain(&undo) {
                store.apply(m).unwrap();
            }
            for (id, text) in before.iter().enumerate() {
                assert_eq!(store.documents()[id].text(), text, "document {id}");
            }
            assert!(store.documents()[len..].iter().all(|d| d.text().is_empty()));
            assert!(store.is_deleted(3));
        }
    }

    #[test]
    fn class_sequences_hold_exact_shares() {
        let mut rng = XorShift::new(9);
        let seq = class_sequence(&[70, 25, 5], 4000, &mut rng);
        let count = |c| seq.iter().filter(|&&x| x == c).count();
        assert_eq!((count(0), count(1), count(2)), (2800, 1000, 200));
        assert_ne!(seq, class_sequence(&[70, 25, 5], 4000, &mut rng));
    }

    #[test]
    fn cold_variants_are_distinct_programs_that_compile() {
        let hot = &program_library()[0];
        let variants: std::collections::HashSet<String> =
            (0..COLD_VARIANTS).map(|i| cold_variant(hot, i)).collect();
        assert_eq!(variants.len(), COLD_VARIANTS);
        assert!(!variants.contains(hot));
        PreparedQuery::prepare(&cold_variant(hot, COLD_VARIANTS - 1)).unwrap();
    }

    #[test]
    fn batches_keep_kinds_apart_and_preserve_empty_appends() {
        let script = random_mutations(20, 300, 3);
        let grouped = batches(&script);
        assert_eq!(grouped.iter().map(|b| b.len()).sum::<usize>(), script.len());
        for batch in &grouped {
            assert!(batch.len() <= 10);
            if let Mutation::Update { .. } = batch[0] {
                assert_eq!(batch.len(), 1);
            }
            if let Mutation::Append { .. } = batch[0] {
                let request = batch_request(batch);
                let text = request.body.get("text").and_then(Json::as_str).unwrap();
                assert_eq!(text.lines().count(), batch.len());
            }
        }
    }

    #[test]
    fn corpus_chunks_fit_the_line_cap_and_keep_every_document() {
        let docs = needle_corpus(20_000, 10, 1);
        let chunks = corpus_chunks(&docs);
        assert!(chunks.len() > 1);
        assert!(chunks
            .iter()
            .all(|c| Json::string(c.as_str()).to_string().len() <= CHUNK_BYTES));
        let store = ingest_store(&chunks).unwrap();
        assert_eq!(store.len(), docs.len());
    }
}
