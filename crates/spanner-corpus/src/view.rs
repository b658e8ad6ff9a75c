//! Maintained per-query result views, kept current by change stamps.
//!
//! A [`QueryView`] holds one prepared query's non-empty per-document
//! relations, sorted by document id, and the point they were computed
//! at: a store's process-unique id and its mutation generation. The store
//! stamps every document with the generation of its last change, so
//! [`CorpusEngine::evaluate_delta`] re-evaluates exactly the documents
//! stamped since — after `k` mutations a repeat query costs `k` document
//! evaluations, the semi-naive shape — as one corpus-driver pass over the
//! changed ids in the index's candidate set.
//!
//! **Soundness.** A spanner's result is a pure function of the document,
//! and a document changes only through a mutation that stamps it, so
//! every kept relation is what re-evaluation would produce — no hashing,
//! no collision argument. Against another store (a rebuilt or reloaded
//! one, whose generations restart) every document counts as changed. The
//! new state is committed in one assignment after the pass succeeds: an
//! error or a panic mid-pass leaves the view at its old, still correct,
//! generation.
//!
//! **Budget.** Retention is all-or-nothing: a view whose answer costs
//! more than its budget — mappings plus non-empty documents — retains
//! nothing and stays cold. Budget `0` never retains, which the
//! differential oracle uses to pin the delta path against the full scan.

use crate::{
    empty_results, intersect_sorted, CorpusEngine, CorpusResult, CorpusStats, Selection, Substrate,
};
use spanner_core::{Document, MappingSet, SpannerResult};
use std::sync::Arc;
use std::time::Instant;

/// A corpus answer in sparse form: the non-empty relations, sorted by
/// document id. Every other document's relation is empty.
pub type Relations = Arc<Vec<(u32, MappingSet)>>;

/// A point in one store's history: the store's process-unique id and its
/// mutation generation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SyncPoint {
    /// The store's process-unique id.
    pub store: u64,
    /// The store's generation.
    pub generation: u64,
}

/// A maintained result view for one prepared query over one store: the
/// query's sparse answer as of one synchronization point, behind an
/// all-or-nothing retention budget.
#[derive(Debug, Clone, Default)]
pub struct QueryView {
    /// The answer at `synced`; empty while cold.
    relations: Relations,
    /// Retention budget in cost units ([`QueryView::retained_cost`]).
    budget: usize,
    /// `None` while cold: nothing retained, every document re-evaluated.
    synced: Option<SyncPoint>,
    /// Corpus size at `synced`: changed ids below it are updates or
    /// deletes, the rest appends.
    documents: usize,
}

impl QueryView {
    /// A cold view with the given retention budget. Budget `0` never
    /// retains (every evaluation is cold).
    pub fn new(budget: usize) -> QueryView {
        QueryView {
            budget,
            ..QueryView::default()
        }
    }

    /// A cold view with an effectively unlimited budget.
    pub fn unbounded() -> QueryView {
        QueryView::new(usize::MAX)
    }

    /// What the view retains, in budget units: mappings plus non-empty
    /// documents (`0` while cold).
    pub fn retained_cost(&self) -> usize {
        cost(&self.relations)
    }

    /// Number of retained relations (the non-empty documents).
    pub fn retained_entries(&self) -> usize {
        self.relations.len()
    }

    /// The store generation the view last synchronized at (`0` while
    /// cold).
    pub fn generation(&self) -> u64 {
        self.synced.map_or(0, |at| at.generation)
    }

    /// The generation the view last synchronized at against `store`;
    /// `None` while cold or when it was synchronized against another
    /// store — then every document counts as changed.
    pub fn synced_generation(&self, store: u64) -> Option<u64> {
        self.synced
            .filter(|at| at.store == store)
            .map(|at| at.generation)
    }
}

/// Retention cost of an answer: `+1` per relation, so a view that retains
/// anything costs more than `0`.
fn cost(relations: &[(u32, MappingSet)]) -> usize {
    relations.iter().map(|(_, set)| set.len() + 1).sum()
}

/// The outcome of one delta evaluation: the whole corpus's answer
/// (identical to a cold evaluation) plus how much of it the view served.
#[derive(Debug)]
pub struct DeltaOutcome {
    /// The whole corpus's answer in sparse form — shared with the view
    /// when it retains it.
    pub relations: Relations,
    /// Aggregate stats over the whole corpus: `mappings` and
    /// `matched_documents` count every relation, the fast-path counters
    /// this pass's documents.
    pub stats: CorpusStats,
    /// Documents changed since the view's last synchronization — every
    /// document when it was cold or synchronized against another store.
    pub delta_docs: usize,
    /// Documents served from the view: `documents - delta_docs`.
    pub view_hits: usize,
    /// Changed documents that already existed at the last synchronization
    /// (updates and deletes, not appends).
    pub invalidated: usize,
}

impl DeltaOutcome {
    /// The dense corpus-order result — bit-identical to
    /// [`CorpusEngine::evaluate_with_threads`].
    pub fn output(&self) -> CorpusResult {
        let mut results = empty_results(self.stats.documents);
        for (id, set) in self.relations.iter() {
            results[*id as usize] = set.clone();
        }
        CorpusResult {
            results,
            stats: self.stats,
        }
    }
}

/// The relations of `old` whose documents are not in `changed`, plus
/// `fresh` (whose ids are all in `changed`), sorted by id. `old` is moved
/// from when no reader still shares it, copied otherwise.
fn merge(
    old: Relations,
    changed: &[u32],
    fresh: impl Iterator<Item = (u32, MappingSet)>,
) -> Relations {
    let old = Arc::try_unwrap(old).unwrap_or_else(|shared| shared.as_ref().clone());
    let mut merged: Vec<(u32, MappingSet)> = old
        .into_iter()
        .filter(|(id, _)| changed.binary_search(id).is_err())
        .chain(fresh)
        .collect();
    // Two sorted runs: the stable sort merges them in linear time.
    merged.sort_by_key(|(id, _)| *id);
    Arc::new(merged)
}

impl CorpusEngine {
    /// Evaluates the corpus *incrementally* against a maintained
    /// [`QueryView`] and synchronizes the view to `at`: only the `changed`
    /// documents are re-evaluated; every other document keeps the relation
    /// the view holds. The answer covers the whole corpus and is
    /// bit-identical to [`CorpusEngine::evaluate_with_threads`] for every
    /// thread count and budget.
    ///
    /// `changed` must be the sorted, duplicate-free ids of every document
    /// whose content may differ from what it was at
    /// `view.synced_generation(at.store)` — every id when that is `None`.
    /// `candidates`, when given, must be a *sound* sorted candidate set for
    /// this query over the current corpus (every document with a non-empty
    /// result is in it — the shape `spanner_store::Store::candidates`
    /// produces): changed documents outside it are recorded as empty
    /// without being read (and counted in `docs_skipped`). The view is
    /// updated only when the pass succeeds.
    pub fn evaluate_delta(
        &self,
        docs: &[Document],
        changed: &[u32],
        candidates: Option<&[u32]>,
        view: &mut QueryView,
        at: SyncPoint,
        threads: usize,
    ) -> SpannerResult<DeltaOutcome> {
        let start = Instant::now();
        let since = view.synced_generation(at.store);
        debug_assert!(
            since.is_some() || changed.len() == docs.len(),
            "a view without a sync point against this store re-evaluates every document"
        );
        let pruned = candidates.map(|set| intersect_sorted(changed, set));
        let to_eval = pruned.as_deref().unwrap_or(changed);
        let outside = CorpusStats {
            docs_skipped: changed.len() - to_eval.len(),
            ..CorpusStats::default()
        };
        let on = Substrate::Scoped(threads);
        let pass = self.drive(docs, Selection::Ids(to_eval), outside, on, None)?;
        let fresh = to_eval.iter().copied().zip(pass.results);
        let fresh = fresh.filter(|(_, set)| !set.is_empty());
        // Commit point: the view is cold until the assignment below.
        let budget = view.budget;
        let old = std::mem::replace(view, QueryView::new(budget));
        let relations = match since {
            Some(_) if changed.is_empty() => old.relations,
            Some(_) => merge(old.relations, changed, fresh),
            None => Arc::new(fresh.collect()),
        };
        let retained = cost(&relations);
        if budget > 0 && retained <= budget {
            *view = QueryView {
                relations: Arc::clone(&relations),
                budget,
                synced: Some(at),
                documents: docs.len(),
            };
        }
        let mut stats = pass.stats;
        // The cost is the mappings plus one per relation.
        stats.mappings = retained - relations.len();
        stats.matched_documents = relations.len();
        stats.elapsed = start.elapsed();
        let existed = since.map_or(0, |_| old.documents);
        Ok(DeltaOutcome {
            relations,
            stats,
            delta_docs: changed.len(),
            view_hits: docs.len() - changed.len(),
            invalidated: changed.partition_point(|&id| (id as usize) < existed),
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

    fn docs(texts: &[&str]) -> Vec<Document> {
        texts.iter().map(|t| Document::new(*t)).collect()
    }

    fn all(docs: &[Document]) -> Vec<u32> {
        (0..docs.len() as u32).collect()
    }

    fn at(generation: u64) -> SyncPoint {
        SyncPoint {
            store: 7,
            generation,
        }
    }

    #[test]
    fn warm_view_serves_everything_from_retained_entries() {
        let e = engine("{x:a+}");
        let docs = docs(&["aa", "b", "a", "", "aaa"]);
        let full = e.evaluate_with_threads(&docs, 2).unwrap();
        let mut view = QueryView::unbounded();
        let cold = e
            .evaluate_delta(&docs, &all(&docs), None, &mut view, at(0), 2)
            .unwrap();
        assert_eq!(cold.output().results, full.results);
        assert_eq!(cold.delta_docs, docs.len());
        assert_eq!(cold.view_hits, 0);
        // Only the non-empty relations are retained.
        assert_eq!(view.retained_entries(), 3);
        assert_eq!(view.retained_cost(), 6);
        assert_eq!(view.synced_generation(7), Some(0));
        assert_eq!(view.synced_generation(8), None);
        let warm = e
            .evaluate_delta(&docs, &[], None, &mut view, at(0), 2)
            .unwrap();
        assert_eq!(warm.output().results, full.results);
        assert_eq!(warm.output().stats.mappings, full.stats.mappings);
        assert_eq!(warm.delta_docs, 0);
        assert_eq!(warm.view_hits, docs.len());
        assert_eq!(warm.invalidated, 0);
    }

    #[test]
    fn changed_documents_are_invalidated_and_reevaluated() {
        let e = engine("{x:a+}");
        let mut docs = docs(&["aa", "b", "a"]);
        let mut view = QueryView::unbounded();
        e.evaluate_delta(&docs, &all(&docs), None, &mut view, at(0), 1)
            .unwrap();
        // Rewrite one document, empty another, append a third.
        docs[1] = Document::new("aaaa");
        docs[2] = Document::new("");
        docs.push(Document::new("a"));
        let out = e
            .evaluate_delta(&docs, &[1, 2, 3], None, &mut view, at(3), 1)
            .unwrap();
        let full = e.evaluate_with_threads(&docs, 1).unwrap();
        assert_eq!(out.output().results, full.results);
        assert_eq!(out.delta_docs, 3);
        assert_eq!(out.invalidated, 2); // the append did not exist before
        assert_eq!(out.view_hits, 1);
        assert_eq!(view.generation(), 3);
        assert_eq!(view.retained_entries(), 3);
    }

    #[test]
    fn zero_budget_view_is_always_cold() {
        let e = engine("{x:a+}");
        let docs = docs(&["aa", "b"]);
        let mut view = QueryView::new(0);
        for _ in 0..2 {
            let out = e
                .evaluate_delta(&docs, &all(&docs), None, &mut view, at(0), 1)
                .unwrap();
            assert_eq!(out.view_hits, 0);
            assert_eq!(out.delta_docs, docs.len());
            assert_eq!(view.retained_entries(), 0);
            assert_eq!(view.retained_cost(), 0);
            assert_eq!(view.synced_generation(7), None);
        }
    }

    #[test]
    fn budget_is_all_or_nothing() {
        let e = engine("{x:a+}");
        let docs: Vec<Document> = (0..10).map(|_| Document::new("aa")).collect();
        let full = e.evaluate_with_threads(&docs, 1).unwrap();
        // Each relation costs 1 mapping + 1 = 2; the whole answer 20.
        let mut tight = QueryView::new(19);
        let out = e
            .evaluate_delta(&docs, &all(&docs), None, &mut tight, at(0), 1)
            .unwrap();
        assert_eq!(out.output().results, full.results);
        assert_eq!(tight.retained_entries(), 0);
        assert_eq!(tight.synced_generation(7), None);
        let mut exact = QueryView::new(20);
        e.evaluate_delta(&docs, &all(&docs), None, &mut exact, at(0), 1)
            .unwrap();
        assert_eq!(exact.retained_cost(), 20);
        // An answer that outgrows the budget drops the whole view.
        let mut grown = docs.clone();
        grown.push(Document::new("a"));
        let out = e
            .evaluate_delta(&grown, &[10], None, &mut exact, at(1), 1)
            .unwrap();
        assert_eq!(out.view_hits, 10);
        assert_eq!(out.output().results.len(), 11);
        assert_eq!(exact.retained_entries(), 0);
        assert_eq!(exact.generation(), 0);
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
        let candidates: Vec<u32> = (0..20).step_by(5).collect();
        let mut view = QueryView::unbounded();
        let out = e
            .evaluate_delta(&docs, &all(&docs), Some(&candidates), &mut view, at(0), 2)
            .unwrap();
        let full = e.evaluate_with_threads(&docs, 2).unwrap();
        assert_eq!(out.output().results, full.results);
        // Pruned documents are skipped without being read.
        assert!(out.stats.docs_skipped >= 16);
        let warm = e
            .evaluate_delta(&docs, &[], Some(&candidates), &mut view, at(0), 2)
            .unwrap();
        assert_eq!(warm.view_hits, docs.len());
        assert_eq!(warm.delta_docs, 0);
    }

    #[test]
    fn a_shared_answer_is_copied_not_moved() {
        let e = engine("{x:a+}");
        let mut docs = docs(&["a", "aa", "b"]);
        let mut view = QueryView::unbounded();
        let first = e
            .evaluate_delta(&docs, &all(&docs), None, &mut view, at(0), 1)
            .unwrap();
        // A reader still holds the old answer while the view moves on.
        docs[0] = Document::new("b");
        let second = e
            .evaluate_delta(&docs, &[0], None, &mut view, at(1), 1)
            .unwrap();
        assert_eq!(first.relations.len(), 2);
        assert_eq!(second.relations.len(), 1);
        assert_eq!(second.relations[0].0, 1);
    }

    #[test]
    fn errors_propagate_and_poison_nothing() {
        let mut parts = Vec::new();
        for i in 0..=spanner_enum::MAX_VARS {
            parts.push(format!("{{v{i:02}:a?}}"));
        }
        let e = engine(&parts.concat());
        let docs = vec![Document::new("aaa")];
        let mut view = QueryView::unbounded();
        assert!(e
            .evaluate_delta(&docs, &[0], None, &mut view, at(0), 1)
            .is_err());
        assert_eq!(view.synced_generation(7), None);
    }
}
