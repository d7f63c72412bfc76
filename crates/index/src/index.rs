//! The assembled inverted index.

use crate::compress::{Codec, CodecStats, CompressionStats, ListCodec, RePairCodec};
use crate::conversion::ConversionTable;
use crate::docstats::DocStats;
use crate::forward::ForwardIndex;
use crate::lexicon::Lexicon;
use ir_storage::{BufferManager, DiskSim, PageStore, PolicyKind};
use ir_types::{frequency_order, IndexParams, IrResult, ListOrdering, PageId, Posting, TermId};
use std::sync::Arc;

/// A complete frequency-sorted inverted index: pages on the simulated
/// disk plus the memory-resident structures (lexicon with `idf_t` /
/// `f_max`, document vector lengths, BAF conversion table).
#[derive(Debug)]
pub struct InvertedIndex {
    lexicon: Lexicon,
    doc_stats: DocStats,
    conversion: ConversionTable,
    params: IndexParams,
    disk: Arc<DiskSim>,
    codec: Arc<dyn ListCodec>,
    compression: Option<CompressionStats>,
    forward: Option<ForwardIndex>,
}

impl InvertedIndex {
    /// Assembles an index from its parts (normally called by
    /// [`IndexBuilder::build`](crate::builder::IndexBuilder::build)).
    /// `codec` is the list codec the index persists its postings with
    /// ([`save_index`](crate::persist::save_index) blobs and
    /// [`save_page_file`](crate::persist::save_page_file) pages); the
    /// in-memory pages on `disk` are always decoded postings.
    #[allow(clippy::too_many_arguments)] // constructor mirrors the struct
    pub fn from_parts(
        lexicon: Lexicon,
        doc_stats: DocStats,
        conversion: ConversionTable,
        params: IndexParams,
        disk: Arc<DiskSim>,
        codec: Arc<dyn ListCodec>,
        compression: Option<CompressionStats>,
        forward: Option<ForwardIndex>,
    ) -> Self {
        InvertedIndex {
            lexicon,
            doc_stats,
            conversion,
            params,
            disk,
            codec,
            compression,
            forward,
        }
    }

    /// The lexicon (term metadata).
    pub fn lexicon(&self) -> &Lexicon {
        &self.lexicon
    }

    /// Per-document statistics (`W_d`).
    pub fn doc_stats(&self) -> &DocStats {
        &self.doc_stats
    }

    /// The BAF conversion table.
    pub fn conversion(&self) -> &ConversionTable {
        &self.conversion
    }

    /// Physical parameters the index was built with.
    pub fn params(&self) -> IndexParams {
        self.params
    }

    /// The simulated disk holding the inverted lists.
    pub fn disk(&self) -> &Arc<DiskSim> {
        &self.disk
    }

    /// Collection size `N`.
    pub fn n_docs(&self) -> u32 {
        self.doc_stats.n_docs()
    }

    /// Number of terms in the lexicon (including stopped ones).
    pub fn n_terms(&self) -> usize {
        self.lexicon.len()
    }

    /// Total inverted-list pages on disk.
    pub fn total_pages(&self) -> usize {
        self.disk.total_pages()
    }

    /// Total postings across all lists.
    pub fn total_postings(&self) -> u64 {
        self.lexicon.iter().map(|(_, e)| e.n_postings).sum()
    }

    /// Compression statistics, if measured at build time.
    pub fn compression_stats(&self) -> Option<CompressionStats> {
        self.compression
    }

    /// The id of the codec this index persists its postings with.
    pub fn codec(&self) -> Codec {
        self.codec.id()
    }

    /// The codec instance (carries the trained Re-Pair grammar when
    /// [`codec`](InvertedIndex::codec) is [`Codec::RePair`]).
    pub fn codec_impl(&self) -> &Arc<dyn ListCodec> {
        &self.codec
    }

    /// Measures every codec over this index's lists: encodes each
    /// term's full list under the golden and (freshly trained)
    /// Re-Pair codecs and returns the per-codec aggregates. The
    /// Re-Pair figure includes its serialized grammar, so the two
    /// `compressed_bytes` are directly comparable on-disk
    /// footprints. Census reads are wiped from the simulator's
    /// counters; nothing about the index changes.
    pub fn codec_census(&self) -> IrResult<CodecStats> {
        let mut lists: Vec<Vec<Posting>> = Vec::with_capacity(self.n_terms());
        for (term, e) in self.lexicon.iter() {
            let mut list: Vec<Posting> = Vec::with_capacity(e.n_postings as usize);
            for p in 0..e.n_pages {
                let page = self.disk.read_page(PageId::new(term, p))?;
                list.extend_from_slice(page.postings());
            }
            if self.params.ordering == ListOrdering::DocIdSorted {
                list.sort_unstable_by(frequency_order);
            }
            lists.push(list);
        }
        self.disk.reset_stats(); // census reads are not query reads

        let repair = RePairCodec::train(lists.iter().map(|l| l.as_slice()));
        let mut stats = CodecStats::default();
        for codec in Codec::ALL {
            let imp: &dyn ListCodec = match codec {
                Codec::Golden => &crate::compress::GoldenCodec,
                Codec::RePair => &repair,
            };
            for list in &lists {
                stats.add(codec, imp.measure(list));
            }
            let dict = imp.dictionary();
            stats.add(
                codec,
                CompressionStats {
                    n_postings: 0,
                    raw_bytes: 0,
                    compressed_bytes: dict.len() as u64,
                },
            );
        }
        Ok(stats)
    }

    /// The forward index, if retained at build time
    /// ([`BuildOptions::keep_forward`](crate::BuildOptions)).
    pub fn forward(&self) -> Option<&ForwardIndex> {
        self.forward.as_ref()
    }

    /// Convenience: `idf_t` for a term.
    pub fn idf(&self, term: TermId) -> IrResult<f64> {
        Ok(self.lexicon.entry(term)?.idf)
    }

    /// Convenience: `f_max` for a term.
    pub fn f_max(&self, term: TermId) -> IrResult<u32> {
        Ok(self.lexicon.entry(term)?.f_max)
    }

    /// Convenience: pages in a term's list.
    pub fn n_pages(&self, term: TermId) -> IrResult<u32> {
        Ok(self.lexicon.entry(term)?.n_pages)
    }

    /// Creates a buffer pool of `capacity` pages with `policy` over this
    /// index's disk (the `BufferSize` knob of Table 3).
    pub fn make_buffer(
        &self,
        capacity: usize,
        policy: PolicyKind,
    ) -> IrResult<BufferManager<Arc<DiskSim>>> {
        BufferManager::new(Arc::clone(&self.disk), capacity, policy)
    }
}

#[cfg(test)]
mod tests {
    use crate::builder::{BuildOptions, IndexBuilder};
    use ir_storage::{PolicyKind, QueryBuffer};
    use ir_types::IndexParams;

    fn index() -> super::InvertedIndex {
        let mut b = IndexBuilder::new();
        b.add_document(["alpha", "beta", "alpha"]);
        b.add_document(["beta", "gamma"]);
        b.build(BuildOptions {
            params: IndexParams::with_page_size(1),
            measure_compression: true,
            ..BuildOptions::default()
        })
        .unwrap()
    }

    #[test]
    fn facade_exposes_consistent_counts() {
        let idx = index();
        assert_eq!(idx.n_docs(), 2);
        assert_eq!(idx.n_terms(), 3);
        assert_eq!(idx.total_postings(), 4);
        // page_size 1 → one page per posting.
        assert_eq!(idx.total_pages(), 4);
        assert!(idx.compression_stats().is_some());
        assert_eq!(idx.conversion().len(), 3);
    }

    #[test]
    fn make_buffer_wires_to_disk() {
        let idx = index();
        let mut buf = idx.make_buffer(2, PolicyKind::Lru).unwrap();
        let alpha = idx.lexicon().lookup("alpha").unwrap();
        let page = buf.fetch(ir_types::PageId::new(alpha, 0)).unwrap();
        assert_eq!(page.max_freq(), 2);
        assert_eq!(idx.disk().stats().reads, 1);
    }

    #[test]
    fn codec_census_measures_every_codec() {
        use crate::compress::Codec;
        let idx = index();
        let census = idx.codec_census().unwrap();
        for codec in Codec::ALL {
            let s = census.get(codec);
            assert_eq!(s.n_postings, idx.total_postings(), "{codec}");
            assert!(s.compressed_bytes > 0, "{codec}");
        }
        // The census's golden aggregate (sans dictionary, which golden
        // doesn't have) must equal the build-time measurement.
        assert_eq!(
            census.get(Codec::Golden).compressed_bytes,
            idx.compression_stats().unwrap().compressed_bytes
        );
        assert_eq!(idx.disk().stats().reads, 0, "census reads must be wiped");
    }

    #[test]
    fn convenience_lookups() {
        let idx = index();
        let gamma = idx.lexicon().lookup("gamma").unwrap();
        assert_eq!(idx.f_max(gamma).unwrap(), 1);
        assert_eq!(idx.n_pages(gamma).unwrap(), 1);
        assert!((idx.idf(gamma).unwrap() - 1.0).abs() < 1e-12); // log2(2/1)
    }
}
