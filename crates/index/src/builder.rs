//! Index construction (§4.2's procedure, generalized).
//!
//! The paper builds its index by summing term occurrences per document
//! into `(d, f_{d,t})` entries, grouping them into inverted lists, and
//! sorting each list with `f_{d,t}` as primary and `d` as secondary key.
//! [`IndexBuilder`] does exactly that, from either analyzed token
//! streams ([`IndexBuilder::add_document`]) or pre-counted term
//! frequencies ([`IndexBuilder::add_document_counts`], used by the
//! synthetic corpus generator).
//!
//! The collection-derived stop list (the 100 terms with highest `f_t`,
//! §4.2 footnote 11) is applied at build time via
//! [`BuildOptions::derive_stop_words`]: stopped terms keep their lexicon
//! slot but lose their inverted list and contribute nothing to `W_d`.

use crate::compress::{
    self, Codec, CompressionStats, GoldenCodec, ListCodec, RePairCodec, RePairGrammar,
};
use crate::conversion::ConversionTable;
use crate::docstats::DocStats;
use crate::forward::ForwardIndex;
use crate::index::InvertedIndex;
use crate::lexicon::Lexicon;
use bytes::Bytes;
use ir_storage::{DiskSim, Page};
use ir_types::{
    doc_order, frequency_order, DocId, IndexParams, IrError, IrResult, ListOrdering, PageId,
    Posting, TermId,
};
use std::borrow::Cow;
use std::collections::HashMap;
use std::sync::Arc;

/// Build-time configuration.
#[derive(Clone, Copy, Debug)]
pub struct BuildOptions {
    /// Physical parameters (page capacity).
    pub params: IndexParams,
    /// If nonzero, mark this many highest-`f_t` terms as stop words at
    /// build time (the paper uses 100).
    pub derive_stop_words: usize,
    /// Measure [PZSD96]-style compression during the build (adds one
    /// encode pass; reported via
    /// [`InvertedIndex::compression_stats`]).
    pub measure_compression: bool,
    /// Sort (and measure) inverted lists on multiple threads; the
    /// index is identical either way.
    pub parallel: bool,
    /// Retain a document → term-vector forward index (needed for
    /// relevance feedback; costs about as much memory as the postings).
    pub keep_forward: bool,
    /// The list codec the index persists its postings with
    /// ([`Codec::Golden`] unless overridden). [`Codec::RePair`] adds a
    /// grammar-training pass over the sorted lists at the end of the
    /// build; the in-memory pages are decoded postings regardless.
    pub codec: Codec,
}

impl Default for BuildOptions {
    fn default() -> Self {
        BuildOptions {
            params: IndexParams::paper(),
            derive_stop_words: 0,
            measure_compression: false,
            parallel: true,
            keep_forward: false,
            codec: Codec::Golden,
        }
    }
}

impl BuildOptions {
    /// The paper's §4.2 configuration: `PageSize = 404` and a
    /// collection-derived 100-term stop list.
    pub fn paper() -> Self {
        BuildOptions {
            derive_stop_words: 100,
            ..BuildOptions::default()
        }
    }
}

/// Accumulates documents, then produces an [`InvertedIndex`].
///
/// ```
/// use ir_index::{BuildOptions, IndexBuilder};
///
/// let mut builder = IndexBuilder::new();
/// builder.add_document(["stock", "price", "stock"]);
/// builder.add_document(["bond", "price"]);
/// let index = builder.build(BuildOptions::default())?;
/// assert_eq!(index.n_docs(), 2);
/// let stock = index.lexicon().lookup("stock").unwrap();
/// assert_eq!(index.f_max(stock)?, 2); // stock appears twice in doc 0
/// # Ok::<(), ir_types::IrError>(())
/// ```
#[derive(Debug, Default)]
pub struct IndexBuilder {
    lexicon: Lexicon,
    postings: Vec<Vec<Posting>>,
    n_docs: u32,
}

impl IndexBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        IndexBuilder::default()
    }

    /// Interns a term ahead of time (for the counts-based path).
    pub fn intern(&mut self, name: &str) -> TermId {
        let id = self.lexicon.intern(name);
        if id.index() >= self.postings.len() {
            self.postings.resize_with(id.index() + 1, Vec::new);
        }
        id
    }

    /// Adds one document given its token stream (already analyzed:
    /// stop-word-free, stemmed). Occurrences are summed into
    /// `(d, f_{d,t})` entries. Returns the new document's id.
    pub fn add_document<I>(&mut self, tokens: I) -> DocId
    where
        I: IntoIterator,
        I::Item: AsRef<str>,
    {
        let mut counts: HashMap<TermId, u32> = HashMap::new();
        for tok in tokens {
            let id = self.intern(tok.as_ref());
            *counts.entry(id).or_insert(0) += 1;
        }
        self.add_counts_internal(counts.into_iter())
    }

    /// Adds one document from pre-counted `(term, f_{d,t})` pairs.
    /// Terms must have been interned; frequencies must be ≥ 1 and terms
    /// distinct.
    ///
    /// # Errors
    /// [`IrError::UnknownTerm`] for an uninterned term,
    /// [`IrError::InvalidConfig`] for a zero frequency.
    pub fn add_document_counts(
        &mut self,
        counts: impl IntoIterator<Item = (TermId, u32)>,
    ) -> IrResult<DocId> {
        let counts: Vec<(TermId, u32)> = counts.into_iter().collect();
        for &(t, f) in &counts {
            if t.index() >= self.postings.len() {
                return Err(IrError::UnknownTerm(t));
            }
            if f == 0 {
                return Err(IrError::InvalidConfig(format!(
                    "zero frequency for term {t} in document {}",
                    self.n_docs
                )));
            }
        }
        Ok(self.add_counts_internal(counts.into_iter()))
    }

    fn add_counts_internal(&mut self, counts: impl Iterator<Item = (TermId, u32)>) -> DocId {
        let doc = DocId(self.n_docs);
        self.n_docs += 1;
        for (t, f) in counts {
            self.postings[t.index()].push(Posting { doc, freq: f });
        }
        doc
    }

    /// Documents added so far.
    pub fn n_docs(&self) -> u32 {
        self.n_docs
    }

    /// Terms interned so far.
    pub fn n_terms(&self) -> usize {
        self.lexicon.len()
    }

    /// Finalizes the index.
    ///
    /// # Errors
    /// [`IrError::InvalidConfig`] if no documents were added.
    pub fn build(self, options: BuildOptions) -> IrResult<InvertedIndex> {
        let IndexBuilder {
            mut lexicon,
            mut postings,
            n_docs,
        } = self;
        if n_docs == 0 {
            return Err(IrError::InvalidConfig(
                "cannot build an index over zero documents".into(),
            ));
        }
        let page_size = options.params.page_size;

        // 1. Collection-derived stop words: top-k by document frequency.
        if options.derive_stop_words > 0 {
            let mut by_df: Vec<(usize, usize)> = postings
                .iter()
                .enumerate()
                .map(|(t, l)| (t, l.len()))
                .collect();
            by_df.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
            for &(t, _) in by_df.iter().take(options.derive_stop_words) {
                lexicon.entry_mut(TermId(t as u32)).stopped = true;
                postings[t].clear();
                postings[t].shrink_to_fit();
            }
        }

        // Optional forward index, inverted back out of the (not yet
        // sorted) postings; stopped terms were already cleared.
        let forward = options.keep_forward.then(|| {
            let mut docs: Vec<Vec<(TermId, u32)>> = vec![Vec::new(); n_docs as usize];
            for (t, list) in postings.iter().enumerate() {
                for p in list {
                    docs[p.doc.index()].push((TermId(t as u32), p.freq));
                }
            }
            for d in docs.iter_mut() {
                d.sort_unstable_by_key(|&(t, _)| t);
            }
            ForwardIndex::new(docs)
        });

        // 2. Sort every list, measuring compression and keeping the
        // golden encodings a Re-Pair grammar trains on (parallelizable:
        // terms are independent, and these steps allocate nothing that
        // outlives the build).
        let ordering = options.params.ordering;
        let encode = Encode {
            measure: options.measure_compression,
            train_repair: options.codec == Codec::RePair,
        };
        let threads = if options.parallel {
            std::thread::available_parallelism().map_or(1, |n| n.get())
        } else {
            1
        };
        let mut compression = CompressionStats::default();
        let mut golden: Vec<Bytes> = Vec::new();
        for (c, g) in sort_lists(&mut postings, ordering, encode, threads) {
            compression.add(c);
            golden.extend(g);
        }

        // 3-5. Per term, in term-id order: stats, pages, conversion row
        // and W_d terms; each list is freed as soon as its pages exist.
        let n_terms = postings.len();
        let mut lists: Vec<Vec<Page>> = Vec::with_capacity(n_terms);
        let mut conversion = ConversionTable::new(page_size, ordering);
        let mut wd_sq = vec![0.0f64; n_docs as usize];
        for (t, slot) in postings.iter_mut().enumerate() {
            let term = TermId(t as u32);
            let list = std::mem::take(slot);
            conversion.push(&list);
            if list.is_empty() {
                lists.push(Vec::new());
                continue;
            }
            let doc_freq = list.len() as u32;
            let idf = ir_types::weights::idf(n_docs, doc_freq);
            for p in &list {
                let w = ir_types::weights::term_weight(p.freq, idf);
                wd_sq[p.doc.index()] += w * w;
            }
            let pages: Vec<Page> = list
                .chunks(page_size)
                .enumerate()
                .map(|(i, chunk)| Page::new(PageId::new(term, i as u32), Arc::from(chunk), idf))
                .collect();
            let e = lexicon.entry_mut(term);
            e.doc_freq = doc_freq;
            e.idf = idf;
            e.f_max = list.iter().map(|p| p.freq).max().unwrap_or(0);
            e.n_postings = list.len() as u64;
            e.n_pages = pages.len() as u32;
            lists.push(pages);
        }
        drop(postings);
        lexicon.shrink_to_fit();
        let vector_lengths: Vec<f64> = wd_sq.into_iter().map(f64::sqrt).collect();

        // 6. The persistence codec. Re-Pair trains its grammar on the
        // golden encodings of the sorted lists.
        let codec: Arc<dyn ListCodec> = match options.codec {
            Codec::Golden => Arc::new(GoldenCodec),
            Codec::RePair => Arc::new(RePairCodec::new(RePairGrammar::train(
                golden.iter().map(|b| b.as_ref()),
            ))),
        };

        Ok(InvertedIndex::from_parts(
            lexicon,
            DocStats::new(vector_lengths),
            conversion,
            options.params,
            Arc::new(DiskSim::new(lists)),
            codec,
            options.measure_compression.then_some(compression),
            forward,
        ))
    }
}

/// What the sort pass encodes besides sorting.
#[derive(Clone, Copy)]
struct Encode {
    /// Measure golden compression ([`BuildOptions::measure_compression`]).
    measure: bool,
    /// Keep each list's golden encoding for Re-Pair training.
    train_repair: bool,
}

/// Sorts every list under `ordering` on up to `threads` threads, each
/// taking a contiguous run of term ids holding about an equal share of
/// the postings. Returns, per run in term-id order, the compression
/// measured and the golden encodings kept (see [`Encode`]).
fn sort_lists(
    lists: &mut [Vec<Posting>],
    ordering: ListOrdering,
    encode: Encode,
    threads: usize,
) -> Vec<(CompressionStats, Vec<Bytes>)> {
    let total: usize = lists.iter().map(Vec::len).sum();
    let share = total.div_ceil(threads.max(1)).max(1);
    let mut runs: Vec<&mut [Vec<Posting>]> = Vec::with_capacity(threads);
    let mut rest = lists;
    while !rest.is_empty() {
        let mut len = 0;
        let mut n = 0;
        while n < rest.len() && (len < share || runs.len() + 1 == threads) {
            len += rest[n].len();
            n += 1;
        }
        let (run, tail) = std::mem::take(&mut rest).split_at_mut(n);
        runs.push(run);
        rest = tail;
    }
    if runs.len() <= 1 {
        return runs
            .into_iter()
            .map(|r| sort_run(r, ordering, encode))
            .collect();
    }
    crossbeam::thread::scope(|scope| {
        let handles: Vec<_> = runs
            .into_iter()
            .map(|run| scope.spawn(move |_| sort_run(run, ordering, encode)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("index build worker panicked"))
            .collect()
    })
    .expect("index build scope failed")
}

fn sort_run(
    lists: &mut [Vec<Posting>],
    ordering: ListOrdering,
    encode: Encode,
) -> (CompressionStats, Vec<Bytes>) {
    let mut compression = CompressionStats::default();
    let mut golden = Vec::new();
    for list in lists {
        match ordering {
            ListOrdering::FrequencySorted => list.sort_unstable_by(frequency_order),
            ListOrdering::DocIdSorted => list.sort_unstable_by(doc_order),
        }
        if !(encode.measure || encode.train_repair) {
            continue;
        }
        // The codec requires frequency order; doc-ordered lists are
        // encoded from a sorted copy.
        let freq_sorted: Cow<'_, [Posting]> = match ordering {
            ListOrdering::FrequencySorted => Cow::Borrowed(list),
            ListOrdering::DocIdSorted => {
                let mut copy = list.clone();
                copy.sort_unstable_by(frequency_order);
                Cow::Owned(copy)
            }
        };
        if encode.measure && !list.is_empty() {
            compression.add(compress::measure(&freq_sorted));
        }
        if encode.train_repair {
            golden.push(compress::encode_postings(&freq_sorted));
        }
    }
    (compression, golden)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Three tiny documents with known statistics.
    fn small_index(options: BuildOptions) -> InvertedIndex {
        let mut b = IndexBuilder::new();
        b.add_document(["stock", "price", "stock"]); // d0: stock×2, price×1
        b.add_document(["price", "bond"]); // d1
        b.add_document(["stock"]); // d2
        b.build(options).unwrap()
    }

    #[test]
    fn term_stats_are_correct() {
        let idx = small_index(BuildOptions {
            params: IndexParams::with_page_size(2),
            ..BuildOptions::default()
        });
        let lex = idx.lexicon();
        let stock = lex.lookup("stock").unwrap();
        let price = lex.lookup("price").unwrap();
        let bond = lex.lookup("bond").unwrap();
        assert_eq!(lex.entry(stock).unwrap().doc_freq, 2);
        assert_eq!(lex.entry(price).unwrap().doc_freq, 2);
        assert_eq!(lex.entry(bond).unwrap().doc_freq, 1);
        assert_eq!(lex.entry(stock).unwrap().f_max, 2);
        // idf = log2(3/2) for stock/price, log2(3) for bond.
        assert!((lex.entry(bond).unwrap().idf - 3f64.log2()).abs() < 1e-12);
        assert!((lex.entry(stock).unwrap().idf - (3f64 / 2.0).log2()).abs() < 1e-12);
    }

    #[test]
    fn lists_are_frequency_sorted_and_paged() {
        let idx = small_index(BuildOptions {
            params: IndexParams::with_page_size(1),
            ..BuildOptions::default()
        });
        let stock = idx.lexicon().lookup("stock").unwrap();
        // stock: (d0, 2), (d2, 1) → freq-sorted, one entry per page.
        assert_eq!(idx.lexicon().entry(stock).unwrap().n_pages, 2);
        let disk = idx.disk();
        use ir_storage::PageStore;
        let p0 = disk.read_page(PageId::new(stock, 0)).unwrap();
        let p1 = disk.read_page(PageId::new(stock, 1)).unwrap();
        assert_eq!(p0.postings()[0], Posting::new(0, 2));
        assert_eq!(p1.postings()[0], Posting::new(2, 1));
    }

    #[test]
    fn vector_lengths_match_hand_computation() {
        let idx = small_index(BuildOptions::default());
        let lex = idx.lexicon();
        let idf_stock = lex.entry(lex.lookup("stock").unwrap()).unwrap().idf;
        let idf_price = lex.entry(lex.lookup("price").unwrap()).unwrap().idf;
        // d0: stock×2, price×1 → sqrt((2·idf_s)² + (1·idf_p)²)
        let expected = ((2.0 * idf_stock).powi(2) + idf_price.powi(2)).sqrt();
        let got = idx.doc_stats().vector_length(DocId(0)).unwrap();
        assert!((got - expected).abs() < 1e-12);
    }

    #[test]
    fn stop_word_derivation_drops_top_terms() {
        let mut b = IndexBuilder::new();
        for _ in 0..5 {
            b.add_document(["the", "market"]);
        }
        b.add_document(["the", "rare"]);
        let idx = b
            .build(BuildOptions {
                derive_stop_words: 1,
                ..BuildOptions::default()
            })
            .unwrap();
        let lex = idx.lexicon();
        let the = lex.lookup("the").unwrap();
        assert!(lex.entry(the).unwrap().stopped);
        assert_eq!(lex.entry(the).unwrap().n_pages, 0);
        // Stopped terms contribute nothing to W_d: doc 5 = {the, rare},
        // so W_d = idf_rare.
        let rare = lex.lookup("rare").unwrap();
        let idf_rare = lex.entry(rare).unwrap().idf;
        let wd = idx.doc_stats().vector_length(DocId(5)).unwrap();
        assert!((wd - idf_rare).abs() < 1e-12);
    }

    #[test]
    fn counts_path_matches_token_path() {
        let mut b1 = IndexBuilder::new();
        b1.add_document(["a", "a", "b"]);
        b1.add_document(["b", "c"]);
        let i1 = b1.build(BuildOptions::default()).unwrap();

        let mut b2 = IndexBuilder::new();
        let a = b2.intern("a");
        let b = b2.intern("b");
        let c = b2.intern("c");
        b2.add_document_counts([(a, 2), (b, 1)]).unwrap();
        b2.add_document_counts([(b, 1), (c, 1)]).unwrap();
        let i2 = b2.build(BuildOptions::default()).unwrap();

        assert_eq!(i1.n_docs(), i2.n_docs());
        for name in ["a", "b", "c"] {
            let e1 = i1
                .lexicon()
                .entry(i1.lexicon().lookup(name).unwrap())
                .unwrap();
            let e2 = i2
                .lexicon()
                .entry(i2.lexicon().lookup(name).unwrap())
                .unwrap();
            assert_eq!(e1.doc_freq, e2.doc_freq, "{name}");
            assert_eq!(e1.f_max, e2.f_max, "{name}");
        }
    }

    #[test]
    fn counts_path_validates_input() {
        let mut b = IndexBuilder::new();
        let a = b.intern("a");
        assert!(b.add_document_counts([(TermId(9), 1)]).is_err());
        assert!(b.add_document_counts([(a, 0)]).is_err());
        assert_eq!(b.n_docs(), 0, "failed adds must not consume a doc id");
    }

    #[test]
    fn empty_build_rejected() {
        let b = IndexBuilder::new();
        assert!(matches!(
            b.build(BuildOptions::default()),
            Err(IrError::InvalidConfig(_))
        ));
    }

    #[test]
    fn sort_runs_cover_every_list_for_any_thread_count() {
        use rand::{rngs::SmallRng, Rng, SeedableRng};
        let mut rng = SmallRng::seed_from_u64(5);
        let lists: Vec<Vec<Posting>> = (0..40)
            .map(|t| {
                let n = if t % 7 == 0 { 0 } else { rng.gen_range(1..60) };
                (0..n)
                    .map(|d| Posting::new(d, rng.gen_range(1..9)))
                    .collect()
            })
            .collect();
        let encode = Encode {
            measure: true,
            train_repair: true,
        };
        let run = |threads: usize| {
            let mut sorted = lists.clone();
            let runs = sort_lists(&mut sorted, ListOrdering::FrequencySorted, encode, threads);
            assert!(runs.len() <= threads, "{threads} threads");
            let mut compression = CompressionStats::default();
            let mut golden = Vec::new();
            for (c, g) in runs {
                compression.add(c);
                golden.extend(g);
            }
            (sorted, compression.compressed_bytes, golden)
        };
        let serial = run(1);
        assert!(serial
            .0
            .iter()
            .all(|l| l.is_sorted_by(|a, b| frequency_order(a, b).is_le())));
        assert_eq!(serial.2.len(), lists.len());
        for threads in 2..=9 {
            assert!(run(threads) == serial, "{threads} threads");
        }
    }

    #[test]
    fn parallel_and_serial_builds_agree() {
        use rand::{rngs::SmallRng, Rng, SeedableRng};
        let mut rng = SmallRng::seed_from_u64(11);
        let docs: Vec<Vec<(u32, u32)>> = (0..200)
            .map(|_| {
                let n = rng.gen_range(1..20);
                (0..n)
                    .map(|_| (rng.gen_range(0..50), rng.gen_range(1..6)))
                    .collect()
            })
            .collect();
        let build = |parallel: bool| {
            let mut b = IndexBuilder::new();
            let ids: Vec<TermId> = (0..50).map(|t| b.intern(&format!("t{t}"))).collect();
            for d in &docs {
                let mut seen = std::collections::HashMap::new();
                for &(t, f) in d {
                    *seen.entry(ids[t as usize]).or_insert(0) += f;
                }
                b.add_document_counts(seen).unwrap();
            }
            b.build(BuildOptions {
                parallel,
                measure_compression: true,
                params: IndexParams::with_page_size(3),
                ..BuildOptions::default()
            })
            .unwrap()
        };
        let serial = build(false);
        let parallel = build(true);
        assert_eq!(serial.total_pages(), parallel.total_pages());
        for t in 0..50u32 {
            let e1 = serial.lexicon().entry(TermId(t)).unwrap();
            let e2 = parallel.lexicon().entry(TermId(t)).unwrap();
            assert_eq!(e1.doc_freq, e2.doc_freq);
            assert_eq!(e1.n_pages, e2.n_pages);
            assert!((e1.idf - e2.idf).abs() < 1e-12);
        }
        for d in 0..serial.n_docs() {
            let w1 = serial.doc_stats().vector_length(DocId(d)).unwrap();
            let w2 = parallel.doc_stats().vector_length(DocId(d)).unwrap();
            assert_eq!(w1.to_bits(), w2.to_bits(), "W_d of doc {d}");
        }
        assert_eq!(
            serial.compression_stats().unwrap().n_postings,
            parallel.compression_stats().unwrap().n_postings
        );
    }
}
