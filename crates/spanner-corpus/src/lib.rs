//! Parallel multi-document evaluation of compiled RA plans.
//!
//! The paper treats a spanner as a function from one document to a relation;
//! production workloads apply the same query to a *corpus*. This crate adds
//! that batch layer on top of `spanner-algebra`:
//!
//! * [`CorpusEngine`] compiles an instantiated RA tree **once** into a
//!   [`CompiledPlan`] (optimized by the `spanner-algebra::plan` rewriter by
//!   default, lowered onto the physical operator executor of
//!   `spanner-algebra::exec`) and then evaluates it over any number of
//!   documents — every worker runs the same operator pipeline as
//!   single-document evaluation and SpannerQL;
//! * every corpus entry point is a thin caller of one private driver. It
//!   evaluates a *selection* — every document, or a sorted id list — in
//!   contiguous shards through one per-shard kernel (the plan's prescan
//!   verdict, then evaluation) and tallies one [`CorpusStats`]. The entry
//!   points differ only in which ids they pass
//!   ([`CorpusEngine::evaluate_with_threads`]: all;
//!   [`CorpusEngine::evaluate_candidates_with_threads`]: an index's
//!   candidates; [`CorpusEngine::evaluate_delta`]: the documents changed
//!   since a view's last synchronization), in
//!   what they count as pruned without reading it, and in where the shards
//!   run: inline on the calling thread when one worker suffices, otherwise
//!   on scoped threads ([`CorpusEngine::evaluate_with_threads`]) or on a
//!   persistent [`WorkerPool`] ([`CorpusEngine::evaluate_on_pool`]).
//!   Tracing ([`CorpusEngine::evaluate_traced_with_threads`]) is a
//!   parameter of the same pass: a per-shard [`ExecTrace`] accumulator
//!   when it is on, nothing when it is off. The lowered plan is read-only
//!   after compilation (`CompiledPlan: Sync`), so every worker evaluates
//!   against the *same* shared operator tree and compiled automata — no
//!   per-thread compilation, no locking on the hot path. Results are
//!   returned **in corpus order** and are bit-identical for every thread
//!   count (each document is evaluated independently);
//! * [`CorpusResult`] carries the per-document relations plus aggregate
//!   [`CorpusStats`].
//!
//! ```
//! use spanner_algebra::{Instantiation, RaOptions, RaTree};
//! use spanner_core::Document;
//! use spanner_corpus::CorpusEngine;
//!
//! let tree = RaTree::leaf(0);
//! let inst = Instantiation::new().with(0, spanner_rgx::parse("{x:a+}").unwrap());
//! let engine = CorpusEngine::compile(&tree, &inst, RaOptions::default()).unwrap();
//! let docs = vec![Document::new("aaa"), Document::new("b"), Document::new("a")];
//! let out = engine.evaluate_with_threads(&docs, 2).unwrap();
//! assert_eq!(out.results.len(), 3);
//! assert_eq!(out.stats.documents, 3);
//! assert!(out.results[1].is_empty());
//! ```

use spanner_algebra::{CompiledPlan, ExecTrace, Instantiation, PreScan, RaOptions, RaTree};
use spanner_core::{Document, MappingSet, SpannerResult};
use std::ops::Range;
use std::sync::Arc;
use std::time::{Duration, Instant};

pub mod pool;
pub mod view;

pub use pool::{resolve_pool_threads, WorkerPool};
pub use view::{DeltaOutcome, QueryView, Relations, SyncPoint};

/// Aggregate statistics of one corpus evaluation.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CorpusStats {
    /// Number of documents evaluated.
    pub documents: usize,
    /// Total corpus size in bytes.
    pub bytes: usize,
    /// Total number of extracted mappings, over all documents.
    pub mappings: usize,
    /// Number of documents with at least one mapping.
    pub matched_documents: usize,
    /// Number of worker threads actually used.
    pub threads: usize,
    /// Documents skipped by the scan fast path's static prefilters
    /// (length / prefix-class / required-factor checks) without touching
    /// the match automaton. Always `0` when
    /// [`RaOptions::scan_fast_path`] is disabled.
    pub docs_skipped: usize,
    /// Documents rejected by the boolean match pre-pass (lazy DFA or NFA
    /// frontier stepping) after the static prefilters passed. Always `0`
    /// when [`RaOptions::scan_fast_path`] is disabled.
    pub docs_rejected: usize,
    /// Wall-clock time of the evaluation (excluding plan compilation).
    pub elapsed: Duration,
}

impl CorpusStats {
    /// Corpus throughput in bytes per second (0 when nothing was timed).
    pub fn bytes_per_second(&self) -> f64 {
        let secs = self.elapsed.as_secs_f64();
        if secs > 0.0 {
            self.bytes as f64 / secs
        } else {
            0.0
        }
    }
}

/// The outcome of evaluating a corpus: one relation per document, in corpus
/// order, plus aggregate statistics.
#[derive(Debug)]
pub struct CorpusResult {
    /// Per-document results, indexed like the input corpus.
    pub results: Vec<MappingSet>,
    /// Aggregate statistics.
    pub stats: CorpusStats,
}

/// A compiled RA query ready to be evaluated over many documents.
pub struct CorpusEngine {
    plan: CompiledPlan,
}

/// Which documents one corpus pass evaluates. Every other document keeps
/// the result its caller already holds (empty, or a retained view
/// relation) and is never read.
#[derive(Debug, Clone, Copy)]
enum Selection<'a> {
    /// Every document, in corpus order.
    All,
    /// Sorted, duplicate-free, in-bounds document ids (a duplicate would be
    /// evaluated twice and double-counted in the stats).
    Ids(&'a [u32]),
}

impl Selection<'_> {
    /// Number of selected documents in a corpus of `docs`.
    fn len(self, docs: usize) -> usize {
        match self {
            Selection::All => docs,
            Selection::Ids(ids) => ids.len(),
        }
    }

    /// The document id at selection position `k`.
    fn id(self, k: usize) -> usize {
        match self {
            Selection::All => k,
            Selection::Ids(ids) => ids[k] as usize,
        }
    }
}

/// What one driver pass produced.
struct PassOutput {
    /// One relation per selected document, in selection order (corpus
    /// order for [`Selection::All`]).
    results: Vec<MappingSet>,
    /// The whole corpus's tally: the pass's documents on top of the
    /// caller's `outside` share.
    stats: CorpusStats,
    /// The merged trace, when tracing was on.
    trace: Option<ExecTrace>,
}

impl PassOutput {
    /// The corpus result of a whole-corpus ([`Selection::All`]) pass.
    fn into_result(self) -> CorpusResult {
        CorpusResult {
            results: self.results,
            stats: self.stats,
        }
    }
}

/// Where a pass runs its shards. A pass that resolves to one worker runs
/// inline on the calling thread on either substrate.
#[derive(Clone, Copy)]
enum Substrate<'a> {
    /// Scoped threads borrowing the documents; `0` = one per CPU.
    Scoped(usize),
    /// A persistent pool. Its jobs are `'static`, so they share the engine
    /// and the documents through `Arc`; only whole-corpus passes
    /// ([`Selection::All`]) run here.
    Pool(
        &'a WorkerPool,
        &'a Arc<CorpusEngine>,
        &'a Arc<Vec<Document>>,
    ),
}

/// One shard's output, in selection order.
struct Shard {
    results: Vec<SpannerResult<MappingSet>>,
    /// Documents the pre-pass skipped by a static prefilter.
    skipped: usize,
    /// Documents the pre-pass rejected by a boolean scan.
    rejected: usize,
    /// The shard's trace accumulator, when tracing is on.
    trace: Option<ExecTrace>,
}

/// The per-shard kernel: evaluates selection positions `range`, consulting
/// the plan's document-level pre-pass first. A `Skip`/`Reject` verdict is a
/// proof the result is empty, so the returned relation is bit-identical to
/// a full evaluation.
///
/// With a trace accumulator, documents the pre-pass proves empty never
/// reach the executor, so they surface as corpus-level counters on the
/// root trace node (`corpus_docs_skipped` / `corpus_docs_rejected`);
/// evaluated documents merge their full per-operator trace into it.
fn run_shard(
    plan: &CompiledPlan,
    docs: &[Document],
    sel: Selection<'_>,
    range: Range<usize>,
    trace: Option<ExecTrace>,
) -> Shard {
    let mut shard = Shard {
        results: Vec::with_capacity(range.len()),
        skipped: 0,
        rejected: 0,
        trace,
    };
    for k in range {
        let doc = &docs[sel.id(k)];
        let (result, counter) = match plan.prescan_reject(doc) {
            Some(PreScan::Skip) => {
                shard.skipped += 1;
                (Ok(MappingSet::new()), "corpus_docs_skipped")
            }
            Some(PreScan::Reject) => {
                shard.rejected += 1;
                (Ok(MappingSet::new()), "corpus_docs_rejected")
            }
            _ => match &mut shard.trace {
                Some(trace) => {
                    let (result, doc_trace) = plan.evaluate_traced(doc);
                    trace.merge(&doc_trace);
                    (result, "corpus_docs_evaluated")
                }
                None => (plan.evaluate(doc), "corpus_docs_evaluated"),
            },
        };
        if let Some(trace) = &mut shard.trace {
            trace.add(counter, 1);
        }
        shard.results.push(result);
    }
    shard
}

/// Contiguous per-worker shards of `0..len`: disjoint, in order, and
/// covering every index exactly once — the per-shard document counts sum
/// exactly to the corpus size (unit-tested below).
fn shard_ranges(len: usize, threads: usize) -> Vec<std::ops::Range<usize>> {
    if len == 0 {
        return Vec::new();
    }
    let chunk = len.div_ceil(threads.max(1)).max(1);
    (0..len)
        .step_by(chunk)
        .map(|lo| lo..(lo + chunk).min(len))
        .collect()
}

/// Partitions `0..len` into **exactly** `shards` contiguous, in-order
/// ranges whose sizes differ by at most one (the first `len % shards`
/// ranges carry the extra document). Unlike the internal per-worker split
/// above, trailing ranges may be empty — a shard topology is fixed while
/// a corpus can be arbitrarily small — and the range count always equals
/// `shards`, which is what the serve-layer router needs to address
/// backends positionally. `shards == 0` is treated as one shard.
pub fn partition_ranges(len: usize, shards: usize) -> Vec<std::ops::Range<usize>> {
    let shards = shards.max(1);
    let base = len / shards;
    let extra = len % shards;
    let mut start = 0;
    (0..shards)
        .map(|shard| {
            let size = base + usize::from(shard < extra);
            let range = start..start + size;
            start += size;
            range
        })
        .collect()
}

/// The document partition of a sharded corpus: which shard owns which
/// contiguous slice of global document ids.
///
/// Global ids are corpus-order line numbers; each shard holds one
/// contiguous slice, so locating a document is a prefix-sum walk and
/// merging per-shard results back into corpus order is pure
/// concatenation — the property the serve-layer router's bit-identity
/// guarantee rests on. Appends always grow the **last** shard, keeping
/// every earlier slice (and therefore every existing id) stable.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardMap {
    /// Documents per shard, in shard order.
    sizes: Vec<usize>,
}

impl ShardMap {
    /// A map over explicit per-shard document counts (one entry per
    /// shard; entries may be zero). An empty `sizes` means one empty
    /// shard, so the invariant "at least one shard" always holds.
    pub fn new(sizes: Vec<usize>) -> ShardMap {
        ShardMap {
            sizes: if sizes.is_empty() { vec![0] } else { sizes },
        }
    }

    /// The balanced contiguous partition of `len` documents over
    /// `shards`, mirroring [`partition_ranges`].
    pub fn partition(len: usize, shards: usize) -> ShardMap {
        ShardMap::new(
            partition_ranges(len, shards)
                .iter()
                .map(|r| r.len())
                .collect(),
        )
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.sizes.len()
    }

    /// Total documents across every shard.
    pub fn len(&self) -> usize {
        self.sizes.iter().sum()
    }

    /// Whether the corpus is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Documents on `shard`.
    pub fn size(&self, shard: usize) -> usize {
        self.sizes[shard]
    }

    /// The global id of `shard`'s first document (its corpus-order base
    /// offset — the prefix sum of every earlier shard).
    pub fn base(&self, shard: usize) -> usize {
        self.sizes[..shard].iter().sum()
    }

    /// Locates a global document id: `(shard, local id)` — or `None`
    /// when `id` is past the corpus.
    pub fn locate(&self, id: usize) -> Option<(usize, usize)> {
        let mut offset = id;
        for (shard, &size) in self.sizes.iter().enumerate() {
            if offset < size {
                return Some((shard, offset));
            }
            offset -= size;
        }
        None
    }

    /// Records `count` documents appended to the last shard.
    pub fn append(&mut self, count: usize) {
        *self.sizes.last_mut().expect("at least one shard") += count;
    }
}

/// `CompiledPlan` is read-only after compilation; the engine shares it with
/// every worker thread by reference.
const _: fn() = || {
    fn assert_sync<T: Send + Sync>() {}
    assert_sync::<CorpusEngine>();
};

impl CorpusEngine {
    /// Optimizes and compiles an instantiated RA tree into an engine.
    pub fn compile(
        tree: &RaTree,
        inst: &Instantiation,
        options: RaOptions,
    ) -> SpannerResult<CorpusEngine> {
        Ok(CorpusEngine {
            plan: CompiledPlan::compile(tree, inst, options)?,
        })
    }

    /// Wraps an already-compiled plan.
    pub fn from_plan(plan: CompiledPlan) -> CorpusEngine {
        CorpusEngine { plan }
    }

    /// The underlying compiled plan.
    pub fn plan(&self) -> &CompiledPlan {
        &self.plan
    }

    /// Evaluates the corpus with an explicit worker count (`0` = one worker
    /// per available CPU). The per-document results are identical for every
    /// `threads` value; only the wall-clock time changes.
    pub fn evaluate_with_threads(
        &self,
        docs: &[Document],
        threads: usize,
    ) -> SpannerResult<CorpusResult> {
        let on = Substrate::Scoped(threads);
        let pass = self.drive(docs, Selection::All, CorpusStats::default(), on, None)?;
        Ok(pass.into_result())
    }

    /// [`CorpusEngine::evaluate_with_threads`] with per-operator
    /// instrumentation: returns the corpus result together with one
    /// [`ExecTrace`] aggregated over every document — per-document traces
    /// merge into per-shard accumulators (all seeded from the same
    /// [`PhysicalPlan::trace_skeleton`](spanner_algebra::PhysicalPlan),
    /// so shapes always agree) and the shards' traces merge at the end.
    /// The relations and stats are bit-identical to the untraced path for
    /// every thread count; only wall time differs. Both run the same
    /// driver; the untraced path passes no accumulator and so evaluates
    /// through the executor's no-op observer.
    pub fn evaluate_traced_with_threads(
        &self,
        docs: &[Document],
        threads: usize,
    ) -> SpannerResult<(CorpusResult, ExecTrace)> {
        let on = Substrate::Scoped(threads);
        let skeleton = Some(self.plan.physical().trace_skeleton());
        let mut pass = self.drive(docs, Selection::All, CorpusStats::default(), on, skeleton)?;
        let trace = pass.trace.take().expect("a traced pass returns its trace");
        Ok((pass.into_result(), trace))
    }

    /// Evaluates only the `candidates` subset of the corpus — the
    /// index-aware path: a corpus-level index (e.g. the trigram index of
    /// `spanner-store`) has already proven every other document's result
    /// empty, so non-candidates are counted as `docs_skipped` **without
    /// being visited** (no byte of theirs is read; each costs one empty
    /// relation, which does not allocate). The work, and the shards, track
    /// the candidate count. Results are returned for the whole corpus, in
    /// corpus order, and are bit-identical to
    /// [`CorpusEngine::evaluate_with_threads`] whenever the candidate set
    /// is sound (it contains every document with a non-empty result).
    ///
    /// `candidates` must be sorted, duplicate-free, in-bounds document
    /// indexes — the shape a posting-list intersection produces (a
    /// duplicate would be evaluated twice and double-counted in the
    /// stats).
    pub fn evaluate_candidates_with_threads(
        &self,
        docs: &[Document],
        candidates: &[u32],
        threads: usize,
    ) -> SpannerResult<CorpusResult> {
        let outside = CorpusStats {
            docs_skipped: docs.len() - candidates.len(),
            ..CorpusStats::default()
        };
        let on = Substrate::Scoped(threads);
        let pass = self.drive(docs, Selection::Ids(candidates), outside, on, None)?;
        let mut results = empty_results(docs.len());
        for (&id, set) in candidates.iter().zip(pass.results) {
            results[id as usize] = set;
        }
        Ok(CorpusResult {
            results,
            stats: pass.stats,
        })
    }

    /// Evaluates the corpus by sharding it across a persistent
    /// [`WorkerPool`] instead of spawning scoped threads per call — the
    /// shape a long-running query service wants, where one pool serves
    /// thousands of corpus requests and thread spawn cost is paid once at
    /// startup. A one-worker pool (or a one-document corpus) runs inline
    /// on the calling thread.
    ///
    /// The engine and the documents are shared with the workers through
    /// `Arc` (jobs on a persistent pool are `'static`). Results are in
    /// corpus order and bit-identical to [`CorpusEngine::evaluate_with_threads`]
    /// for every pool size.
    pub fn evaluate_on_pool(
        self: &Arc<CorpusEngine>,
        docs: &Arc<Vec<Document>>,
        pool: &WorkerPool,
    ) -> SpannerResult<CorpusResult> {
        let on = Substrate::Pool(pool, self, docs);
        let pass = self.drive(docs, Selection::All, CorpusStats::default(), on, None)?;
        Ok(pass.into_result())
    }

    /// The one corpus driver behind every entry point.
    ///
    /// Evaluates the selection `sel` in contiguous shards of the selection
    /// (the work is proportional to the selection, so that is what
    /// balances) through [`run_shard`], on `on`, and tallies one
    /// [`CorpusStats`] on top of `outside`, the unselected documents'
    /// share (`docs_skipped` for documents pruned without being read,
    /// `mappings` and `matched_documents` for results the caller already
    /// holds). Unselected documents are never read. `trace`, when given,
    /// is a plan skeleton that seeds every shard's accumulator; the
    /// shards' traces merge, in order, into the returned one. The first
    /// error in corpus order is returned.
    fn drive(
        &self,
        docs: &[Document],
        sel: Selection<'_>,
        outside: CorpusStats,
        on: Substrate<'_>,
        trace: Option<ExecTrace>,
    ) -> SpannerResult<PassOutput> {
        let start = Instant::now();
        let len = sel.len(docs.len());
        let requested = match on {
            Substrate::Scoped(threads) => threads,
            Substrate::Pool(pool, ..) => pool.threads(),
        };
        let threads = effective_threads(requested, len);
        let mut shards: Vec<Shard> = if threads <= 1 {
            vec![run_shard(&self.plan, docs, sel, 0..len, trace)]
        } else {
            let ranges = shard_ranges(len, threads);
            match on {
                Substrate::Scoped(_) => std::thread::scope(|scope| {
                    let handles: Vec<_> = ranges
                        .into_iter()
                        .map(|range| {
                            let trace = trace.clone();
                            scope.spawn(move || run_shard(&self.plan, docs, sel, range, trace))
                        })
                        .collect();
                    handles
                        .into_iter()
                        .map(|h| h.join().expect("corpus worker panicked"))
                        .collect()
                }),
                Substrate::Pool(pool, engine, all) => {
                    debug_assert!(
                        matches!(sel, Selection::All),
                        "pool passes are whole-corpus"
                    );
                    let (send, recv) = std::sync::mpsc::channel();
                    let count = ranges.len();
                    for (index, range) in ranges.into_iter().enumerate() {
                        let (engine, all, send) =
                            (Arc::clone(engine), Arc::clone(all), send.clone());
                        let trace = trace.clone();
                        pool.execute(move || {
                            let shard = run_shard(&engine.plan, &all, Selection::All, range, trace);
                            // Fails only when the caller has already unwound.
                            let _ = send.send((index, shard));
                        });
                    }
                    drop(send);
                    let mut shards: Vec<Option<Shard>> =
                        std::iter::repeat_with(|| None).take(count).collect();
                    for (index, shard) in recv {
                        shards[index] = Some(shard);
                    }
                    shards
                        .into_iter()
                        .map(|shard| shard.expect("every pool job reports its shard"))
                        .collect()
                }
            }
        };
        let mut stats = CorpusStats {
            documents: docs.len(),
            bytes: docs.iter().map(Document::len).sum(),
            // The shards that ran, not the clamped request: rounding in
            // `shard_ranges` can make fewer (10 documents at 8 threads → 5).
            threads: shards.len(),
            ..outside
        };
        let trace = shards
            .iter_mut()
            .filter_map(|shard| shard.trace.take())
            .reduce(|mut merged, trace| {
                merged.merge(&trace);
                merged
            });
        let mut results = Vec::with_capacity(len);
        for shard in shards {
            stats.docs_skipped += shard.skipped;
            stats.docs_rejected += shard.rejected;
            for result in shard.results {
                let set = result?;
                stats.mappings += set.len();
                stats.matched_documents += usize::from(!set.is_empty());
                results.push(set);
            }
        }
        stats.elapsed = start.elapsed();
        Ok(PassOutput {
            results,
            stats,
            trace,
        })
    }
}

impl std::fmt::Debug for CorpusEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "CorpusEngine({:?})", self.plan)
    }
}

/// Hard ceiling on spawned workers: corpora can be arbitrarily large, and a
/// requested count far past the CPU count would only pay thread-spawn cost
/// (or abort the process when the OS refuses to spawn). Public so other
/// thread-pool layers (the serve daemon) clamp to the same bound.
pub const MAX_THREADS: usize = 256;

/// Resolves the requested worker count for a pass over `selected`
/// documents: [`resolve_pool_threads`], then never more workers than
/// documents.
fn effective_threads(requested: usize, selected: usize) -> usize {
    resolve_pool_threads(requested).min(selected.max(1))
}

/// One empty relation per document (an empty `MappingSet` does not
/// allocate).
fn empty_results(len: usize) -> Vec<MappingSet> {
    std::iter::repeat_with(MappingSet::new).take(len).collect()
}

/// Intersection of two sorted, duplicate-free id lists — the shape of
/// posting lists, candidate sets and changed-document lists.
pub fn intersect_sorted(a: &[u32], b: &[u32]) -> Vec<u32> {
    let mut out = Vec::with_capacity(a.len().min(b.len()));
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                out.push(a[i]);
                i += 1;
                j += 1;
            }
        }
    }
    out
}

/// Splits a document into one [`Document`] per line — the shape of the
/// log-scanning and record-extraction workloads, where each line is an
/// independent record.
pub fn split_lines(text: &str) -> Vec<Document> {
    text.lines().map(Document::new).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn partition_ranges_are_exact_and_balanced() {
        for len in 0..40usize {
            for shards in 1..7usize {
                let ranges = partition_ranges(len, shards);
                assert_eq!(ranges.len(), shards, "len={len} shards={shards}");
                // Contiguous, in order, covering 0..len exactly once.
                let mut next = 0;
                for r in &ranges {
                    assert_eq!(r.start, next);
                    next = r.end;
                }
                assert_eq!(next, len);
                // Balanced: sizes differ by at most one.
                let sizes: Vec<usize> = ranges.iter().map(|r| r.len()).collect();
                let min = sizes.iter().min().unwrap();
                let max = sizes.iter().max().unwrap();
                assert!(max - min <= 1, "len={len} shards={shards}: {sizes:?}");
            }
        }
        // Zero shards degrades to one.
        assert_eq!(partition_ranges(5, 0), vec![0..5]);
    }

    #[test]
    fn shard_map_locates_every_document() {
        let map = ShardMap::partition(10, 3);
        assert_eq!(map.shards(), 3);
        assert_eq!(map.len(), 10);
        assert_eq!((map.size(0), map.size(1), map.size(2)), (4, 3, 3));
        assert_eq!((map.base(0), map.base(1), map.base(2)), (0, 4, 7));
        // locate agrees with base + local for every id; past-the-end is None.
        for id in 0..10 {
            let (shard, local) = map.locate(id).unwrap();
            assert_eq!(map.base(shard) + local, id, "id={id}");
            assert!(local < map.size(shard));
        }
        assert_eq!(map.locate(10), None);
        // Appends grow the last shard only, keeping earlier ids stable.
        let mut map = map;
        map.append(2);
        assert_eq!(map.len(), 12);
        assert_eq!(map.locate(4), Some((1, 0)));
        assert_eq!(map.locate(10), Some((2, 3)));
        // An empty corpus still has one (empty) shard to address.
        let empty = ShardMap::partition(0, 2);
        assert_eq!(empty.shards(), 2);
        assert!(empty.is_empty());
        assert_eq!(empty.locate(0), None);
        assert_eq!(ShardMap::new(Vec::new()).shards(), 1);
    }

    fn engine(pattern: &str) -> CorpusEngine {
        let inst = Instantiation::new().with(0, spanner_rgx::parse(pattern).unwrap());
        CorpusEngine::compile(&RaTree::leaf(0), &inst, RaOptions::default()).unwrap()
    }

    #[test]
    fn results_are_in_corpus_order() {
        let e = engine("{x:a+}");
        let docs = vec![
            Document::new("aa"),
            Document::new("b"),
            Document::new("a"),
            Document::new(""),
        ];
        let out = e.evaluate_with_threads(&docs, 2).unwrap();
        assert_eq!(out.results.len(), 4);
        assert_eq!(out.results[0].len(), 1); // x = [1,3⟩ (formulas are anchored)
        assert!(out.results[1].is_empty());
        assert_eq!(out.results[2].len(), 1);
        assert!(out.results[3].is_empty());
        assert_eq!(out.stats.matched_documents, 2);
        assert_eq!(out.stats.mappings, 2);
        assert_eq!(out.stats.bytes, 4);
    }

    #[test]
    fn empty_corpus_is_fine() {
        let e = engine("{x:a}");
        let out = e.evaluate_with_threads(&[], 4).unwrap();
        assert!(out.results.is_empty());
        assert_eq!(out.stats.documents, 0);
        assert_eq!(out.stats.mappings, 0);
    }

    #[test]
    fn errors_propagate_from_workers() {
        // A plan over more variables than the enumerator supports errors at
        // evaluation time; the engine must surface that error.
        let mut parts = Vec::new();
        for i in 0..=spanner_enum::MAX_VARS {
            parts.push(format!("{{v{i:02}:a?}}"));
        }
        let e = engine(&parts.concat());
        let docs = vec![Document::new("aaa")];
        assert!(e.evaluate_with_threads(&docs, 2).is_err());
    }

    #[test]
    fn pool_evaluation_is_bit_identical_to_scoped() {
        let e = Arc::new(engine("{x:a+}"));
        let docs: Arc<Vec<Document>> = Arc::new(
            ["aa", "b", "a", "", "aaa", "ba"]
                .iter()
                .map(|t| Document::new(*t))
                .collect(),
        );
        let scoped = e.evaluate_with_threads(&docs, 2).unwrap();
        for pool_size in [1, 2, 4] {
            let pool = WorkerPool::new(pool_size);
            let pooled = e.evaluate_on_pool(&docs, &pool).unwrap();
            assert_eq!(pooled.results, scoped.results, "pool size {pool_size}");
            assert_eq!(pooled.stats.mappings, scoped.stats.mappings);
        }
    }

    #[test]
    fn pool_evaluation_propagates_errors_and_handles_empty() {
        let pool = WorkerPool::new(2);
        let e = Arc::new(engine("{x:a}"));
        let empty: Arc<Vec<Document>> = Arc::new(Vec::new());
        let out = e.evaluate_on_pool(&empty, &pool).unwrap();
        assert!(out.results.is_empty());

        let mut parts = Vec::new();
        for i in 0..=spanner_enum::MAX_VARS {
            parts.push(format!("{{v{i:02}:a?}}"));
        }
        let failing = Arc::new(engine(&parts.concat()));
        let docs = Arc::new(vec![Document::new("aaa"), Document::new("a")]);
        assert!(failing.evaluate_on_pool(&docs, &pool).is_err());
    }

    #[test]
    fn shard_document_counts_sum_to_corpus_size() {
        for len in [0usize, 1, 2, 3, 5, 7, 16, 100, 101, 255, 256, 257] {
            for threads in [1usize, 2, 3, 4, 7, 8, 16, 64, 256] {
                let ranges = shard_ranges(len, threads);
                let total: usize = ranges.iter().map(|r| r.len()).sum();
                assert_eq!(total, len, "len={len} threads={threads}");
                // Disjoint, in order, and gap-free.
                let mut next = 0;
                for r in &ranges {
                    assert_eq!(r.start, next, "len={len} threads={threads}");
                    assert!(r.end > r.start, "empty shard len={len} threads={threads}");
                    next = r.end;
                }
                assert_eq!(next, len);
                // Never more shards than requested workers.
                assert!(ranges.len() <= threads, "len={len} threads={threads}");
            }
        }

        // `stats.threads` reports the shards actually run, not the clamped
        // request: 10 docs / 8 threads rounds to chunks of 2 → 5 shards.
        assert_eq!(shard_ranges(10, 8).len(), 5);
        let e = engine("{x:a+}");
        let docs: Vec<Document> = (0..10).map(|i| Document::new("a".repeat(i % 3))).collect();
        let out = e.evaluate_with_threads(&docs, 8).unwrap();
        assert_eq!(out.stats.threads, 5);
        let e = Arc::new(e);
        let docs = Arc::new(docs);
        let pool = WorkerPool::new(8);
        let pooled = e.evaluate_on_pool(&docs, &pool).unwrap();
        assert_eq!(pooled.stats.threads, 5);
        // Single-worker and empty-corpus paths report the calling thread.
        assert_eq!(e.evaluate_with_threads(&docs, 1).unwrap().stats.threads, 1);
        let empty: Arc<Vec<Document>> = Arc::new(Vec::new());
        assert_eq!(e.evaluate_on_pool(&empty, &pool).unwrap().stats.threads, 1);
    }

    #[test]
    fn fast_path_counters_track_skipped_and_rejected_documents() {
        // ".*{x:a+}@.*" has required factors {a} and {@}: a document missing
        // either is skipped by the static prefilters; "@@@" carries the
        // factors' bytes only partially... use a doc with both factor bytes
        // present but no match to exercise the boolean reject tier.
        let e = engine(".*{x:a+}@.*");
        let docs = vec![
            Document::new("xxa@yy"), // match: evaluated
            Document::new("bbbb"),   // no '@', no 'a': skipped by factors
            Document::new("@aaa"),   // factors present, '@' before 'a': rejected
        ];
        for threads in [1, 2, 3] {
            let out = e.evaluate_with_threads(&docs, threads).unwrap();
            assert_eq!(out.stats.docs_skipped, 1, "threads={threads}");
            assert_eq!(out.stats.docs_rejected, 1, "threads={threads}");
            assert_eq!(out.stats.matched_documents, 1);
            assert!(out.results[1].is_empty() && out.results[2].is_empty());
        }
    }

    #[test]
    fn counters_are_zero_when_fast_path_is_disabled() {
        let inst = Instantiation::new().with(0, spanner_rgx::parse(".*{x:a+}@.*").unwrap());
        let options = RaOptions {
            scan_fast_path: false,
            ..RaOptions::default()
        };
        let e = CorpusEngine::compile(&RaTree::leaf(0), &inst, options).unwrap();
        let docs = vec![
            Document::new("xxa@yy"),
            Document::new("bbbb"),
            Document::new("@aaa"),
        ];
        let out = e.evaluate_with_threads(&docs, 2).unwrap();
        assert_eq!(out.stats.docs_skipped, 0);
        assert_eq!(out.stats.docs_rejected, 0);
        assert_eq!(out.stats.matched_documents, 1);
    }

    #[test]
    fn candidate_evaluation_skips_non_candidates_and_keeps_order() {
        let e = engine("{x:a+}");
        let docs: Vec<Document> = ["aa", "b", "a", "", "aaa", "ba", "aa"]
            .iter()
            .map(|t| Document::new(*t))
            .collect();
        let full = e.evaluate_with_threads(&docs, 2).unwrap();
        // A sound candidate set: every doc with a non-empty result.
        let candidates: Vec<u32> = docs
            .iter()
            .enumerate()
            .filter(|(_, d)| d.text().chars().all(|c| c == 'a') && !d.is_empty())
            .map(|(i, _)| i as u32)
            .collect();
        for threads in [1, 2, 4] {
            let out = e
                .evaluate_candidates_with_threads(&docs, &candidates, threads)
                .unwrap();
            assert_eq!(out.results, full.results, "threads={threads}");
            assert_eq!(out.stats.documents, docs.len());
            // Non-candidates count as skipped without being visited.
            assert!(
                out.stats.docs_skipped >= docs.len() - candidates.len(),
                "{:?}",
                out.stats
            );
        }
        // An empty candidate set touches nothing.
        let out = e.evaluate_candidates_with_threads(&docs, &[], 4).unwrap();
        assert!(out.results.iter().all(MappingSet::is_empty));
        assert_eq!(out.stats.docs_skipped, docs.len());
        assert_eq!(out.stats.threads, 1);
    }

    #[test]
    fn traced_corpus_evaluation_matches_untraced_for_every_thread_count() {
        let e = engine(".*{x:a+}@.*");
        let docs = vec![
            Document::new("xxa@yy"), // evaluated, matches
            Document::new("bbbb"),   // skipped by static prefilters
            Document::new("@aaa"),   // rejected by the boolean scan
            Document::new("a@"),     // evaluated, matches
        ];
        let untraced = e.evaluate_with_threads(&docs, 2).unwrap();
        let mut baseline: Option<ExecTrace> = None;
        for threads in [1, 2, 4] {
            let (out, trace) = e.evaluate_traced_with_threads(&docs, threads).unwrap();
            assert_eq!(out.results, untraced.results, "threads={threads}");
            // The trace's corpus tallies agree with the stats counters.
            assert_eq!(
                trace.counter("corpus_docs_skipped") as usize,
                out.stats.docs_skipped,
                "threads={threads}"
            );
            assert_eq!(
                trace.counter("corpus_docs_rejected") as usize,
                out.stats.docs_rejected,
                "threads={threads}"
            );
            assert_eq!(trace.counter("corpus_docs_evaluated"), 2);
            assert_eq!(trace.total_rows(), out.stats.mappings as u64);
            // Deterministic modulo wall time: rows and counters are
            // identical for every thread count (merge order commutes).
            let mut timeless = trace.clone();
            fn zero_nanos(node: &mut ExecTrace) {
                node.nanos = 0;
                node.children.iter_mut().for_each(zero_nanos);
            }
            zero_nanos(&mut timeless);
            match &baseline {
                None => baseline = Some(timeless),
                Some(b) => assert_eq!(b, &timeless, "threads={threads}"),
            }
        }
    }

    #[test]
    fn every_entry_point_returns_identical_results_and_stats() {
        // Matched ("xxa@yy"), prescan-skipped ("bbbb": no factor byte) and
        // prescan-rejected ("@aaa": factors present, no match) documents,
        // interleaved so every shard boundary sees a mix.
        let e = Arc::new(engine(".*{x:a+}@.*"));
        let texts = ["xxa@yy", "bbbb", "@aaa", "a@", "", "aa@a@", "zz@", "b"];
        let docs: Arc<Vec<Document>> = Arc::new(
            (0..23)
                .map(|i| Document::new(texts[i % texts.len()]))
                .collect(),
        );
        let all_ids: Vec<u32> = (0..docs.len() as u32).collect();
        let timeless = |out: CorpusResult| {
            let stats = CorpusStats {
                elapsed: Duration::ZERO,
                ..out.stats
            };
            (out.results, stats)
        };
        for threads in [1, 2, 3, 8] {
            let reference = timeless(e.evaluate_with_threads(&docs, threads).unwrap());
            assert!(reference.1.matched_documents > 0, "{:?}", reference.1);
            assert!(reference.1.docs_skipped > 0, "{:?}", reference.1);
            assert!(reference.1.docs_rejected > 0, "{:?}", reference.1);
            let (traced, _) = e.evaluate_traced_with_threads(&docs, threads).unwrap();
            let candidates = e
                .evaluate_candidates_with_threads(&docs, &all_ids, threads)
                .unwrap();
            let pool = WorkerPool::new(threads);
            let pooled = e.evaluate_on_pool(&docs, &pool).unwrap();
            let mut view = QueryView::unbounded();
            let at = SyncPoint {
                store: 1,
                generation: 0,
            };
            let delta = e
                .evaluate_delta(&docs, &all_ids, None, &mut view, at, threads)
                .unwrap();
            for (name, out) in [
                ("traced", traced),
                ("candidates", candidates),
                ("pool", pooled),
                ("delta", delta.output()),
            ] {
                assert_eq!(timeless(out), reference, "{name} at {threads} threads");
            }
        }
    }

    #[test]
    fn intersect_sorted_keeps_common_ids() {
        assert_eq!(
            intersect_sorted(&[1, 3, 5, 9], &[0, 3, 4, 9, 11]),
            vec![3, 9]
        );
        assert!(intersect_sorted(&[], &[1]).is_empty());
        assert!(intersect_sorted(&[2, 4], &[]).is_empty());
    }

    #[test]
    fn split_lines_shape() {
        let docs = split_lines("a\nbb\n\nc");
        assert_eq!(docs.len(), 4);
        assert_eq!(docs[1].text(), "bb");
        assert!(docs[2].is_empty());
    }
}
