//! Maintained per-query result views with delta propagation.
//!
//! A [`QueryView`] memoizes one prepared query's per-document relations,
//! keyed by each document's content hash. Re-running the query through
//! [`CorpusEngine::evaluate_delta`] then touches only the documents whose
//! hash differs from the retained entry (appended, updated, deleted, or
//! evicted ones) and merges the retained relations for everything else —
//! the semi-naive shape: after `k` mutations a repeat query costs `O(k)`
//! document evaluations, not `O(n)`. The delta pass is the crate's one
//! corpus driver run over the view's misses: view hits and index-pruned
//! misses sit outside its selection and are never read.
//!
//! **Soundness.** An entry is reused only when the stored hash equals the
//! document's current content hash, and a spanner's result is a pure
//! function of document content — so every reused relation is exactly what
//! re-evaluation would produce (up to hash collisions, which the store's
//! 64-bit FNV-1a makes vanishingly unlikely; see DESIGN.md §11). Every
//! other document — absent entry, hash mismatch, or budget-evicted — is
//! re-evaluated from scratch. No generation bookkeeping or changed-list is
//! needed for correctness; the hash comparison alone decides.
//!
//! The view is bounded: retained relations are charged `mappings + 1`
//! against a byte-free cost budget, entries that would exceed it are simply
//! not retained (and re-evaluated next time). Budget `0` therefore retains
//! nothing — every evaluation is cold — which the differential oracle uses
//! to pin the delta path against the full scan.

use crate::{empty_results, CorpusEngine, CorpusResult, CorpusStats, Pass, Selection, Substrate};
use spanner_core::{Document, MappingSet, SpannerResult};
use std::time::Instant;

/// One retained entry: the document's content hash at evaluation time and
/// the relation it produced.
type ViewEntry = Option<(u64, MappingSet)>;

/// A maintained result view for one prepared query over one corpus:
/// per-document memoized relations keyed by content hash, behind a bounded
/// retention budget.
#[derive(Debug, Clone, Default)]
pub struct QueryView {
    /// Indexed like the corpus; `None` = not retained (never evaluated,
    /// or evicted by the budget).
    entries: Vec<ViewEntry>,
    /// Retention budget in cost units ([`QueryView::cost`] per entry).
    budget: usize,
    /// Cost of the currently retained entries.
    retained_cost: usize,
    /// Store generation the view was last synchronized against — advisory
    /// (freshness is decided per document by hash), surfaced for
    /// observability.
    generation: u64,
}

impl QueryView {
    /// An empty view with the given retention budget. Budget `0` retains
    /// nothing (every evaluation is cold).
    pub fn new(budget: usize) -> QueryView {
        QueryView {
            entries: Vec::new(),
            budget,
            retained_cost: 0,
            generation: 0,
        }
    }

    /// An empty view with an effectively unlimited budget.
    pub fn unbounded() -> QueryView {
        QueryView::new(usize::MAX)
    }

    /// The retention budget.
    pub fn budget(&self) -> usize {
        self.budget
    }

    /// Cost of the currently retained entries (≤ budget).
    pub fn retained_cost(&self) -> usize {
        self.retained_cost
    }

    /// Number of retained (hash, relation) entries.
    pub fn retained_entries(&self) -> usize {
        self.entries.iter().filter(|e| e.is_some()).count()
    }

    /// The store generation recorded at the last synchronization
    /// ([`QueryView::set_generation`]); purely informational.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Records the store generation this view now reflects.
    pub fn set_generation(&mut self, generation: u64) {
        self.generation = generation;
    }

    /// Drops every retained entry (the budget is kept).
    pub fn clear(&mut self) {
        self.entries.clear();
        self.retained_cost = 0;
    }

    /// Retention cost of one relation. `+1` so even empty relations have
    /// non-zero cost: a zero budget retains nothing at all.
    fn cost(set: &MappingSet) -> usize {
        set.len() + 1
    }

    /// Resizes the entry table to the corpus: new slots start unretained,
    /// entries past the end (the corpus shrank) are released.
    fn resize(&mut self, len: usize) {
        while self.entries.len() > len {
            if let Some(Some((_, set))) = self.entries.pop() {
                self.retained_cost -= Self::cost(&set);
            }
        }
        if self.entries.len() < len {
            self.entries.resize_with(len, || None);
        }
    }

    /// Retains `set` for document `idx` under `hash` if the budget allows;
    /// a previously retained entry for the slot is released either way.
    fn store(&mut self, idx: usize, hash: u64, set: &MappingSet) {
        let slot = &mut self.entries[idx];
        if let Some((_, old)) = slot.take() {
            self.retained_cost -= Self::cost(&old);
        }
        let cost = Self::cost(set);
        // Subtraction form: `retained_cost + cost` could overflow near a
        // `usize::MAX` budget; `retained_cost <= budget` is an invariant.
        if cost <= self.budget - self.retained_cost {
            *slot = Some((hash, set.clone()));
            self.retained_cost += cost;
        }
    }
}

/// The outcome of one delta evaluation: the full-corpus result (identical
/// to a cold evaluation) plus how much of it was served from the view.
#[derive(Debug)]
pub struct DeltaOutcome {
    /// Per-document relations for the whole corpus, in corpus order, plus
    /// aggregate stats — bit-identical to
    /// [`CorpusEngine::evaluate_with_threads`].
    pub output: CorpusResult,
    /// Documents *not* served from the view (absent, hash-changed, or
    /// evicted entries) — the documents the delta pass had to look at.
    pub delta_docs: usize,
    /// Documents whose retained relation was reused.
    pub view_hits: usize,
    /// Retained entries discarded because the document's hash changed —
    /// a subset of `delta_docs`.
    pub invalidated: usize,
}

/// Splits the sorted id list `items` by membership in the sorted id list
/// `set`: `(members, non_members)`.
fn split_by_membership(items: &[u32], set: &[u32]) -> (Vec<u32>, Vec<u32>) {
    let mut members = Vec::new();
    let mut non_members = Vec::new();
    let mut j = 0;
    for &i in items {
        while j < set.len() && set[j] < i {
            j += 1;
        }
        if j < set.len() && set[j] == i {
            members.push(i);
        } else {
            non_members.push(i);
        }
    }
    (members, non_members)
}

impl CorpusEngine {
    /// Evaluates the corpus *incrementally* against a maintained
    /// [`QueryView`]: documents whose content hash matches their retained
    /// entry reuse the memoized relation; every other document (the
    /// *delta*) is re-evaluated and its entry refreshed. Results cover the
    /// whole corpus in order and are bit-identical to
    /// [`CorpusEngine::evaluate_with_threads`] for every thread count and
    /// budget.
    ///
    /// `hashes` must hold one content hash per document (the store
    /// maintains them; `spanner_store::fnv1a64` is the reference
    /// implementation). `candidates`, when given, must be a *sound*
    /// sorted candidate set for this query over the current corpus (every
    /// document with a non-empty result is in it — the shape
    /// `spanner_store::Store::candidates` produces): delta documents
    /// outside it are recorded as empty without being read (and counted in
    /// `docs_skipped`), so a cold view over an indexed store stays as cheap
    /// as the indexed scan. Evaluated entries are refreshed only when the
    /// pass succeeds; after an error the next pass re-evaluates them.
    pub fn evaluate_delta(
        &self,
        docs: &[Document],
        hashes: &[u64],
        candidates: Option<&[u32]>,
        view: &mut QueryView,
        threads: usize,
    ) -> SpannerResult<DeltaOutcome> {
        let start = Instant::now();
        assert_eq!(docs.len(), hashes.len(), "one content hash per document");
        view.resize(docs.len());
        let mut results = empty_results(docs.len());
        // The view hits' share of the tally; the driver counts the rest.
        let mut hits = CorpusStats::default();
        let mut invalidated = 0;
        let mut misses: Vec<u32> = Vec::new();
        for (i, result) in results.iter_mut().enumerate() {
            match &view.entries[i] {
                Some((hash, set)) if *hash == hashes[i] => {
                    *result = set.clone();
                    hits.mappings += set.len();
                    hits.matched_documents += usize::from(!set.is_empty());
                }
                Some(_) => {
                    invalidated += 1;
                    misses.push(i as u32);
                }
                None => misses.push(i as u32),
            }
        }
        let delta_docs = misses.len();
        // Index pruning applies to the delta only: a missed document
        // outside a sound candidate set is provably result-free.
        let (to_eval, pruned) = match candidates {
            Some(set) => split_by_membership(&misses, set),
            None => (misses, Vec::new()),
        };
        for &i in &pruned {
            view.store(i as usize, hashes[i as usize], &MappingSet::new());
        }
        let pass = Pass {
            sel: Selection::Ids(&to_eval),
            results,
            outside: CorpusStats {
                docs_skipped: pruned.len(),
                ..hits
            },
        };
        let (mut output, _) = self.drive(docs, pass, Substrate::Scoped(threads), None)?;
        for &i in &to_eval {
            let i = i as usize;
            view.store(i, hashes[i], &output.results[i]);
        }
        output.stats.elapsed = start.elapsed();
        Ok(DeltaOutcome {
            output,
            delta_docs,
            view_hits: docs.len() - delta_docs,
            invalidated,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spanner_algebra::{Instantiation, RaOptions, RaTree};

    fn engine(pattern: &str) -> CorpusEngine {
        let inst = Instantiation::new().with(0, spanner_rgx::parse(pattern).unwrap());
        CorpusEngine::compile(&RaTree::leaf(0), &inst, RaOptions::default()).unwrap()
    }

    fn hash(doc: &Document) -> u64 {
        // Local FNV-1a 64 mirror of `spanner_store::fnv1a64` (this crate
        // sits below the store and cannot depend on it).
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for &b in doc.bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x100_0000_01b3);
        }
        h
    }

    fn hashes(docs: &[Document]) -> Vec<u64> {
        docs.iter().map(hash).collect()
    }

    #[test]
    fn warm_view_serves_everything_from_retained_entries() {
        let e = engine("{x:a+}");
        let docs: Vec<Document> = ["aa", "b", "a", "", "aaa"]
            .iter()
            .map(|t| Document::new(*t))
            .collect();
        let h = hashes(&docs);
        let full = e.evaluate_with_threads(&docs, 2).unwrap();
        let mut view = QueryView::unbounded();
        let cold = e.evaluate_delta(&docs, &h, None, &mut view, 2).unwrap();
        assert_eq!(cold.output.results, full.results);
        assert_eq!(cold.delta_docs, docs.len());
        assert_eq!(cold.view_hits, 0);
        assert_eq!(view.retained_entries(), docs.len());
        let warm = e.evaluate_delta(&docs, &h, None, &mut view, 2).unwrap();
        assert_eq!(warm.output.results, full.results);
        assert_eq!(warm.delta_docs, 0);
        assert_eq!(warm.view_hits, docs.len());
        assert_eq!(warm.invalidated, 0);
    }

    #[test]
    fn changed_documents_are_invalidated_and_reevaluated() {
        let e = engine("{x:a+}");
        let mut docs: Vec<Document> = ["aa", "b", "a"].iter().map(|t| Document::new(*t)).collect();
        let mut view = QueryView::unbounded();
        let h = hashes(&docs);
        e.evaluate_delta(&docs, &h, None, &mut view, 1).unwrap();
        // Mutate one document, append another.
        docs[1] = Document::new("aaaa");
        docs.push(Document::new("a"));
        let h = hashes(&docs);
        let out = e.evaluate_delta(&docs, &h, None, &mut view, 1).unwrap();
        let full = e.evaluate_with_threads(&docs, 1).unwrap();
        assert_eq!(out.output.results, full.results);
        assert_eq!(out.delta_docs, 2); // the update and the append
        assert_eq!(out.invalidated, 1); // only the update had an entry
        assert_eq!(out.view_hits, 2);
    }

    #[test]
    fn zero_budget_view_is_always_cold() {
        let e = engine("{x:a+}");
        let docs: Vec<Document> = ["aa", "b"].iter().map(|t| Document::new(*t)).collect();
        let h = hashes(&docs);
        let mut view = QueryView::new(0);
        for _ in 0..2 {
            let out = e.evaluate_delta(&docs, &h, None, &mut view, 1).unwrap();
            assert_eq!(out.view_hits, 0);
            assert_eq!(out.delta_docs, docs.len());
            assert_eq!(view.retained_entries(), 0);
            assert_eq!(view.retained_cost(), 0);
        }
    }

    #[test]
    fn budget_bounds_retained_cost() {
        let e = engine("{x:a+}");
        let docs: Vec<Document> = (0..10).map(|_| Document::new("aa")).collect();
        let h = hashes(&docs);
        // Each entry costs 1 mapping + 1 = 2; a budget of 5 retains 2.
        let mut view = QueryView::new(5);
        e.evaluate_delta(&docs, &h, None, &mut view, 1).unwrap();
        assert!(view.retained_cost() <= 5);
        assert_eq!(view.retained_entries(), 2);
        let out = e.evaluate_delta(&docs, &h, None, &mut view, 1).unwrap();
        assert_eq!(out.view_hits, 2);
        assert_eq!(out.delta_docs, 8);
        let full = e.evaluate_with_threads(&docs, 1).unwrap();
        assert_eq!(out.output.results, full.results);
    }

    #[test]
    fn shrinking_corpus_releases_tail_entries() {
        let e = engine("{x:a+}");
        let docs: Vec<Document> = (0..5).map(|_| Document::new("a")).collect();
        let h = hashes(&docs);
        let mut view = QueryView::unbounded();
        e.evaluate_delta(&docs, &h, None, &mut view, 1).unwrap();
        let cost_before = view.retained_cost();
        let short = &docs[..2];
        let out = e
            .evaluate_delta(short, &h[..2], None, &mut view, 1)
            .unwrap();
        assert_eq!(out.view_hits, 2);
        assert_eq!(out.output.results.len(), 2);
        assert_eq!(view.retained_entries(), 2);
        assert!(view.retained_cost() < cost_before);
    }

    #[test]
    fn candidate_pruning_applies_to_cold_misses() {
        let e = engine(".*needle{x: .*}.*");
        let docs: Vec<Document> = (0..20)
            .map(|i| {
                if i % 5 == 0 {
                    Document::new(format!("needle {i}"))
                } else {
                    Document::new(format!("hay {i}"))
                }
            })
            .collect();
        let h = hashes(&docs);
        let candidates: Vec<u32> = (0..20).step_by(5).collect();
        let mut view = QueryView::unbounded();
        let out = e
            .evaluate_delta(&docs, &h, Some(&candidates), &mut view, 2)
            .unwrap();
        let full = e.evaluate_with_threads(&docs, 2).unwrap();
        assert_eq!(out.output.results, full.results);
        // Pruned misses are skipped without being read — and still cached,
        // so the next pass serves them as hits.
        assert!(out.output.stats.docs_skipped >= 16);
        let warm = e
            .evaluate_delta(&docs, &h, Some(&candidates), &mut view, 2)
            .unwrap();
        assert_eq!(warm.view_hits, docs.len());
        assert_eq!(warm.delta_docs, 0);
    }

    #[test]
    fn split_by_membership_partitions() {
        let (m, n) = split_by_membership(&[1, 3, 5, 9], &[0, 3, 4, 9, 11]);
        assert_eq!(m, vec![3, 9]);
        assert_eq!(n, vec![1, 5]);
        let (m, n) = split_by_membership(&[], &[1]);
        assert!(m.is_empty() && n.is_empty());
        let (m, n) = split_by_membership(&[2, 4], &[]);
        assert!(m.is_empty());
        assert_eq!(n, vec![2, 4]);
    }

    #[test]
    fn errors_propagate_and_poison_nothing() {
        let mut parts = Vec::new();
        for i in 0..=spanner_enum::MAX_VARS {
            parts.push(format!("{{v{i:02}:a?}}"));
        }
        let e = engine(&parts.concat());
        let docs = vec![Document::new("aaa")];
        let h = hashes(&docs);
        let mut view = QueryView::unbounded();
        assert!(e.evaluate_delta(&docs, &h, None, &mut view, 1).is_err());
    }
}
