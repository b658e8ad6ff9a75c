//! E16 — incremental evaluation: maintained query views under mutation
//! batches.
//!
//! One literal-bearing extractor over the needle corpus: a maintained
//! [`QueryView`] answers the hot re-query after a small mutation batch by
//! re-evaluating only the changed documents (plus the view bookkeeping),
//! while the cold baselines re-evaluate the whole corpus from scratch —
//! the unindexed full scan, and the cold *indexed* query, which is the
//! cheapest honest baseline: the trigram index already skips most of the
//! corpus. Every hot result is asserted bit-identical to the full pass and
//! to a from-scratch store rebuild. Medians land in `BENCH_incr.json`.
//! Two bars are asserted in-binary so CI fails loudly if delta
//! propagation stops paying: on the 100k-line corpus, the ≤10-document
//! batches run ≥10x faster than the cold full pass, and every batch is no
//! slower than the cold indexed query.

use spanner_algebra::{Instantiation, RaOptions, RaTree};
use spanner_bench::{header, median_of, merge_bench_json, ms, row, BenchEntry};
use spanner_corpus::{CorpusEngine, QueryView};
use spanner_rgx::parse;
use spanner_store::{Mutation, Store};
use spanner_workloads::{needle_corpus, needle_line};

fn main() {
    println!("## E16 — incremental evaluation: corpus size x mutation batch\n");
    println!("needle extractor; hot = mutate batch + re-query through the view\n");

    let tree = RaTree::leaf(0);
    let inst = Instantiation::new().with(0, parse(".*needle {x:\\l+}.*").unwrap());
    let engine = CorpusEngine::compile(&tree, &inst, RaOptions::default()).unwrap();

    let mut entries = Vec::new();
    header(&[
        "lines",
        "batch",
        "hot ms",
        "cold full ms",
        "cold indexed ms",
        "speedup vs full",
        "hot / cold indexed",
        "delta docs",
    ]);
    for (lines, batch) in [
        (10_000usize, 1usize),
        (10_000, 10),
        (100_000, 1),
        (100_000, 10),
        (100_000, 100),
    ] {
        let docs = needle_corpus(lines, 10, 42);
        let mut store = Store::build(docs).expect("corpus fits u32 ids");
        let mut view = QueryView::unbounded();
        // Warm the view once (untimed): the steady state of a served
        // query is warm-with-mutations, which is what the sweep measures.
        store.query_view(&engine, &mut view, 1).unwrap();

        // Hot re-query: apply a batch of `batch` scattered updates, then
        // re-evaluate through the maintained view. The batch application
        // is inside the timing — incremental upkeep is part of the cost.
        let mut tick = 0u64;
        let (hot, t_hot) = median_of(3, || {
            for i in 0..batch as u64 {
                let id = ((tick * batch as u64 + i) * 37) % lines as u64;
                let text = needle_line((tick + i).is_multiple_of(2), 1_000 + tick * 131 + i);
                store
                    .apply(&Mutation::Update {
                        id: id as u32,
                        text: text.text().to_string(),
                    })
                    .unwrap();
            }
            tick += 1;
            store.query_view(&engine, &mut view, 1).unwrap()
        });
        assert_eq!(
            hot.delta_docs, batch,
            "a {batch}-doc batch must touch exactly {batch} documents"
        );

        let (full, t_full) = median_of(3, || {
            engine.evaluate_with_threads(store.documents(), 1).unwrap()
        });
        let (indexed, t_indexed) = median_of(3, || store.query(&engine, 1).unwrap());

        // Bit-identical: view-backed == full pass == from-scratch rebuild.
        assert_eq!(
            hot.output.results, full.results,
            "the view changed the answer at {lines} lines, batch {batch}"
        );
        let rebuilt = Store::build(store.documents().to_vec()).unwrap();
        let scratch = rebuilt.query(&engine, 1).unwrap();
        assert_eq!(
            hot.output.results, scratch.output.results,
            "mutated store diverged from a scratch rebuild at {lines} lines"
        );

        let speedup = t_full.as_secs_f64() / t_hot.as_secs_f64();
        let vs_indexed = t_hot.as_secs_f64() / t_indexed.as_secs_f64();
        row(&[
            lines.to_string(),
            batch.to_string(),
            ms(t_hot),
            ms(t_full),
            ms(t_indexed),
            format!("{speedup:.1}x"),
            format!("{vs_indexed:.2}"),
            format!("{} of {lines}", hot.delta_docs),
        ]);
        entries.push(BenchEntry::new(
            format!("incr/lines-{lines}/batch-{batch}/hot"),
            t_hot,
            hot.output.stats.mappings,
        ));
        entries.push(BenchEntry::new(
            format!("incr/lines-{lines}/batch-{batch}/coldfull"),
            t_full,
            full.stats.mappings,
        ));
        entries.push(BenchEntry::new(
            format!("incr/lines-{lines}/batch-{batch}/coldindexed"),
            t_indexed,
            indexed.output.stats.mappings,
        ));

        if lines >= 100_000 && batch <= 10 {
            // The acceptance bar: on the 100k-line corpus, the hot
            // re-query after a ≤10-doc batch beats cold full evaluation
            // by an order of magnitude.
            assert!(
                speedup >= 10.0,
                "hot re-query at {lines} lines, batch {batch} is only \
                 {speedup:.1}x over the cold full pass (bar: 10x)"
            );
        }
        if lines >= 100_000 {
            // The honest bar: a maintained view must not lose to simply
            // re-running the indexed query.
            assert!(
                t_hot <= t_indexed,
                "hot re-query at {lines} lines, batch {batch} takes \
                 {vs_indexed:.2}x the cold indexed query (bar: <= 1)"
            );
        }
    }

    merge_bench_json("BENCH_incr.json", &entries).expect("write BENCH_incr.json");
    println!("\nwrote {} entries to BENCH_incr.json", entries.len());
}
