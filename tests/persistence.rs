//! Persistence round-trips at the evaluation level: a reloaded index
//! must be *behaviorally* identical — same rankings, same disk reads,
//! same BAF processing order — not merely structurally equal.

use buffir::core::eval::{evaluate, EvalOptions};
use buffir::core::Query;
use buffir::index::{load_index, save_index};
use buffir::{Algorithm, PolicyKind};
use proptest::prelude::*;

mod common;

fn tmpdir() -> std::path::PathBuf {
    let dir = std::env::temp_dir().join("buffir-persistence-it");
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn reloaded_index_evaluates_identically_across_algorithms_and_policies() {
    let (corpus, index) = common::tiny_indexed();
    let path = tmpdir().join("behavioral.idx");
    save_index(&index, &path).unwrap();
    let loaded = load_index(&path).unwrap();

    for q in corpus.queries().iter().take(4) {
        for alg in [Algorithm::Full, Algorithm::Df, Algorithm::Baf] {
            for policy in [PolicyKind::Lru, PolicyKind::Rap] {
                let run = |index: &buffir::index::InvertedIndex| {
                    let query = Query::from_named(index, &q.terms);
                    let mut buffer = index.make_buffer(16, policy).unwrap();
                    evaluate(alg, index, &mut buffer, &query, EvalOptions::default()).unwrap()
                };
                let a = run(&index);
                let b = run(&loaded);
                assert_eq!(
                    a.stats.disk_reads, b.stats.disk_reads,
                    "topic {} {alg}/{policy}",
                    q.topic
                );
                assert_eq!(a.stats.entries_processed, b.stats.entries_processed);
                assert_eq!(a.processing_order(), b.processing_order());
                assert_eq!(a.hits.len(), b.hits.len());
                for (x, y) in a.hits.iter().zip(&b.hits) {
                    assert_eq!(x.doc, y.doc);
                    assert!((x.score - y.score).abs() < 1e-12);
                }
            }
        }
    }
}

#[test]
fn double_round_trip_is_stable() {
    // save → load → save again: byte-identical files (the format is
    // canonical, so a second generation introduces no drift).
    let (_, index) = common::tiny_indexed();
    let p1 = tmpdir().join("gen1.idx");
    let p2 = tmpdir().join("gen2.idx");
    save_index(&index, &p1).unwrap();
    let loaded = load_index(&p1).unwrap();
    save_index(&loaded, &p2).unwrap();
    let a = std::fs::read(&p1).unwrap();
    let b = std::fs::read(&p2).unwrap();
    assert_eq!(a, b, "persistence must be canonical");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Random small collections round-trip through the binary format.
    #[test]
    fn random_indexes_round_trip(seed in 0u64..10_000) {
        use buffir::index::{BuildOptions, IndexBuilder};
        use ir_types::IndexParams;
        use rand::{rngs::SmallRng, Rng, SeedableRng};

        let mut rng = SmallRng::seed_from_u64(seed);
        let mut b = IndexBuilder::new();
        let vocab: Vec<String> = (0..30).map(|i| format!("w{i}")).collect();
        let n_docs = rng.gen_range(1..40);
        for _ in 0..n_docs {
            let n_terms = rng.gen_range(1..10usize);
            let tokens: Vec<&str> = (0..n_terms)
                .map(|_| vocab[rng.gen_range(0..vocab.len())].as_str())
                .collect();
            b.add_document(tokens);
        }
        let index = b
            .build(BuildOptions {
                params: IndexParams::with_page_size(rng.gen_range(1..7)),
                ..BuildOptions::default()
            })
            .unwrap();
        let path = tmpdir().join(format!("prop_{seed}.idx"));
        save_index(&index, &path).unwrap();
        let loaded = load_index(&path).unwrap();
        prop_assert_eq!(loaded.n_docs(), index.n_docs());
        prop_assert_eq!(loaded.total_postings(), index.total_postings());
        prop_assert_eq!(loaded.total_pages(), index.total_pages());
        for (term, e) in index.lexicon().iter() {
            let l = loaded.lexicon().entry(term).unwrap();
            prop_assert_eq!(loaded.lexicon().name(term), index.lexicon().name(term));
            prop_assert_eq!(l.doc_freq, e.doc_freq);
            prop_assert_eq!(l.f_max, e.f_max);
        }
        std::fs::remove_file(&path).ok();
    }
}
