//! Building the testbed a workload runs on, timed part by part.

use crate::Workload;
use ir_core::{contribution_ranking, make_sequence, Query, RefinementKind};
use ir_corpus::{Corpus, CorpusConfig};
use ir_index::{save_page_file, InvertedIndex};
use ir_storage::{FileMode, FilePageStore};
use ir_types::{DocId, TermId};
use std::collections::HashSet;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

/// Collection scale of every workload: the repository default, and the
/// scale of every golden CSV.
pub const SCALE: f64 = 1.0 / 16.0;

/// One user's refinement session over one topic.
pub struct Session {
    /// Index of the topic query the session refines.
    pub topic: usize,
    /// The queries the user submits, in order.
    pub steps: Vec<Vec<(TermId, u32)>>,
    /// Distinct pages over all of the session's inverted lists.
    pub distinct_pages: u64,
}

/// Everything a workload runs on.
pub struct TestBed {
    pub index: InvertedIndex,
    /// Relevant documents per topic index.
    pub relevant: Vec<HashSet<DocId>>,
    /// Refinement sessions in seeded order (`refine`, `sessions-2`).
    pub sessions: Vec<Session>,
    /// Full topic queries in seeded topic order, as `(topic, terms)`
    /// (`adhoc-disk`).
    pub adhoc: Vec<(usize, Vec<(TermId, u32)>)>,
    /// The exported page file (`adhoc-disk`).
    pub page_file: Option<Arc<FilePageStore>>,
}

/// Wall time of each set-up step, seconds.
#[derive(Clone, Copy, Debug, Default)]
pub struct SetupTimes {
    pub corpus_s: f64,
    pub index_s: f64,
    pub sequences_s: f64,
    pub export_s: f64,
}

impl SetupTimes {
    pub fn total(&self) -> f64 {
        self.corpus_s + self.index_s + self.sequences_s + self.export_s
    }
}

/// SplitMix64: a small seeded generator for the query and session
/// order, so the inputs depend on the seed alone.
pub struct SplitMix(u64);

impl SplitMix {
    pub fn new(seed: u64) -> Self {
        SplitMix(seed)
    }

    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// `0..n` in a seeded order (Fisher–Yates).
    pub fn permutation(&mut self, n: usize) -> Vec<usize> {
        let mut v: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            let j = (self.next() % (i as u64 + 1)) as usize;
            v.swap(i, j);
        }
        v
    }
}

/// Both refinement patterns: every topic is refined once with each.
const KINDS: [RefinementKind; 2] = [RefinementKind::AddOnly, RefinementKind::AddDrop];

/// Where `adhoc-disk` exports its page file: inside the working
/// directory, which is the only place the benchmark writes to.
pub fn page_file_path() -> PathBuf {
    Path::new(crate::OUT_DIR).join(format!("pages-{}.bfpg", std::process::id()))
}

/// Builds the testbed for `workload`. `seed` drives the order of the
/// topic queries (`adhoc-disk`) or of the refinement sessions, one
/// AddOnly and one AddDrop session per topic (`refine`, `sessions-2`).
/// The corpus is always the paper preset's: across corpus seeds the
/// per-query reads and tail latency differ by far more than any bound
/// could absorb, so a seed that changed the corpus would make runs with
/// different seeds incomparable.
pub fn build(workload: Workload, seed: u64) -> Result<(TestBed, SetupTimes), String> {
    let mut times = SetupTimes::default();

    let t = Instant::now();
    let corpus = Corpus::generate(CorpusConfig::paper_scaled(SCALE));
    times.corpus_s = t.elapsed().as_secs_f64();

    let t = Instant::now();
    let index = ir_engine::index_corpus(&corpus, false).map_err(|e| format!("indexing: {e}"))?;
    times.index_s = t.elapsed().as_secs_f64();

    let t = Instant::now();
    let topics = corpus.queries();
    let mut rng = SplitMix::new(seed);
    let mut bed = TestBed {
        relevant: topics
            .iter()
            .map(|q| {
                let docs = corpus.relevant_docs(q.topic);
                docs.iter().map(|&d| DocId(d)).collect()
            })
            .collect(),
        index,
        sessions: Vec::new(),
        adhoc: Vec::new(),
        page_file: None,
    };
    let queries: Vec<Query> = topics
        .iter()
        .map(|t| Query::from_named(&bed.index, &t.terms))
        .collect();
    if workload == Workload::AdhocDisk {
        for topic in rng.permutation(topics.len()) {
            let terms = queries[topic]
                .terms()
                .iter()
                .map(|t| (t.term, t.query_freq))
                .collect();
            bed.adhoc.push((topic, terms));
        }
    } else {
        let mut ranked = Vec::with_capacity(topics.len());
        for (topic, query) in queries.iter().enumerate() {
            let r = contribution_ranking(&bed.index, query, 20)
                .map_err(|e| format!("ranking topic {topic}: {e}"))?;
            ranked.push(r);
        }
        // Construction reads are not workload reads.
        bed.index.disk().reset_stats();
        for i in rng.permutation(2 * topics.len()) {
            let (topic, kind) = (i / 2, KINDS[i % 2]);
            bed.sessions.push(Session {
                topic,
                steps: make_sequence(&ranked[topic], kind, 3, topic).steps,
                distinct_pages: queries[topic].total_pages(),
            });
        }
    }
    times.sequences_s = t.elapsed().as_secs_f64();

    if workload == Workload::AdhocDisk {
        let t = Instant::now();
        let path = page_file_path();
        save_page_file(&bed.index, &path).map_err(|e| format!("exporting page file: {e}"))?;
        let store = FilePageStore::open(&path, FileMode::Buffered)
            .map_err(|e| format!("opening page file: {e}"))?;
        bed.page_file = Some(Arc::new(store));
        times.export_s = t.elapsed().as_secs_f64();
    }
    Ok((bed, times))
}
