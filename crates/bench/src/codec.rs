//! The `bench codec` sweep: the list codecs measured over the
//! same collection, each rebuilt at its own derived entries-per-page
//! (the byte budget of the paper's `PageSize = 404` held fixed), then
//! BAF and DF driven over the four representative topic queries.
//!
//! Output contract (shared with `throughput` and `storage`): stdout
//! carries only deterministic numbers — census bytes, derived page
//! sizes, read counts — so CI diffs two runs byte for byte and the
//! JSON artifact against the checked-in `results/BENCH_codec.json`.
//! Decode timings are machine-dependent and go to stderr, where the
//! size gate ([`gate`]) also reports.

use crate::setup::{pick_representatives, profile_queries, TestBed};
use ir_core::eval::{evaluate, EvalOptions};
use ir_core::{Algorithm, Query};
use ir_engine::{index_corpus_opts, IndexCorpusOptions};
use ir_index::scan_geometry::codec_page_size;
use ir_index::{Codec, GoldenCodec, InvertedIndex, ListCodec, RePairCodec};
use ir_observe::DECODE_NS_BOUNDS;
use ir_storage::{PageStore, PolicyKind};
use ir_types::{frequency_order, FilterParams, ListOrdering, PageId, Posting};
use serde::{Deserialize, Serialize};

/// Bumped whenever the report shape changes incompatibly.
pub const SCHEMA_VERSION: u32 = 1;

/// One codec's sweep row. Every field is deterministic: integer census
/// arithmetic, derived geometry, and virtual read counts.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct CodecCell {
    /// Codec name ("golden", "re-pair").
    pub codec: String,
    /// Derived entries-per-page under the fixed byte budget.
    pub page_size: u64,
    /// Postings measured by the census.
    pub n_postings: u64,
    /// Census bytes for the whole collection, dictionary included.
    pub compressed_bytes: u64,
    /// Serialized shared-dictionary bytes (0 for dictionary-free
    /// codecs).
    pub dict_bytes: u64,
    /// `compressed_bytes / n_postings`.
    pub bytes_per_entry: f64,
    /// Total pages of the index rebuilt at `page_size`.
    pub total_pages: u64,
    /// BAF disk reads over the four representative queries, cold.
    pub baf_reads: u64,
    /// DF disk reads over the four representative queries, cold.
    pub df_reads: u64,
}

/// The whole `bench codec` artifact (`BENCH_codec.json`). Contains
/// only deterministic fields — CI regenerates it and diffs against the
/// checked-in copy byte for byte.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct CodecBenchReport {
    /// Report shape version (see [`SCHEMA_VERSION`]).
    pub schema_version: u32,
    /// Collection scale the sweep ran at.
    pub scale: f64,
    /// The baseline entries-per-page (the paper's `PageSize`).
    pub baseline_page_size: u64,
    /// Representative topics driven per codec (query1..query4).
    pub topics: Vec<u64>,
    /// One row per codec, in [`Codec::ALL`] order.
    pub cells: Vec<CodecCell>,
}

/// One codec's instrumented decode pass: wall-clock nanoseconds from
/// the `index.decode_ns.<codec>` histogram, entries from
/// `index.decoded_entries.<codec>`. Machine-dependent — never printed
/// to stdout or serialized into the artifact.
#[derive(Clone, Copy, Debug)]
pub struct DecodeTiming {
    /// Which codec.
    pub codec: Codec,
    /// Entries decoded per pass.
    pub entries: u64,
    /// Total decode nanoseconds of the best (fastest) pass.
    pub best_ns: u64,
    /// Best-of-repeats microseconds per decoded entry.
    pub best_us_per_entry: f64,
}

/// Reassembles every term's full posting list from `index`'s pages
/// (frequency-sorted, re-sorting when the index is doc-ordered, since
/// the codecs encode frequency runs), wiping the gather reads from the
/// simulator's counters.
fn gather_lists(index: &InvertedIndex) -> Result<Vec<Vec<Posting>>, String> {
    let mut lists: Vec<Vec<Posting>> = Vec::with_capacity(index.n_terms());
    for (term, e) in index.lexicon().iter() {
        let mut list: Vec<Posting> = Vec::with_capacity(e.n_postings as usize);
        for p in 0..e.n_pages {
            let page = index
                .disk()
                .read_page(PageId::new(term, p))
                .map_err(|e| e.to_string())?;
            list.extend_from_slice(page.postings());
        }
        if index.params().ordering == ListOrdering::DocIdSorted {
            list.sort_unstable_by(frequency_order);
        }
        lists.push(list);
    }
    index.disk().reset_stats();
    Ok(lists)
}

/// Runs `repeats` instrumented decode passes per codec over `index`'s
/// lists: each pass encodes nothing (encodings are prepared up front)
/// and decodes every list into one scratch buffer through
/// [`ListCodec::decode_into`], so the pass lands in the per-codec
/// `ir-observe` decode meters. Returns best-of-repeats timings in
/// [`Codec::ALL`] order.
pub fn decode_pass(index: &InvertedIndex, repeats: usize) -> Result<Vec<DecodeTiming>, String> {
    let lists = gather_lists(index)?;
    let repair = RePairCodec::train(lists.iter().map(|l| l.as_slice()));
    let registry = ir_observe::global();
    let mut timings = Vec::with_capacity(Codec::ALL.len());
    for codec in Codec::ALL {
        let imp: &dyn ListCodec = match codec {
            Codec::Golden => &GoldenCodec,
            Codec::RePair => &repair,
        };
        let encoded: Vec<_> = lists.iter().map(|l| imp.encode(l)).collect();
        let hist = registry.histogram(
            &format!("index.decode_ns.{}", codec.name()),
            &DECODE_NS_BOUNDS,
        );
        let entries_ctr = registry.counter(&format!("index.decoded_entries.{}", codec.name()));
        let mut best_ns = u64::MAX;
        let mut entries = 0u64;
        let mut scratch: Vec<Posting> = Vec::new();
        for _ in 0..repeats.max(1) {
            let ns_before = hist.sum();
            let entries_before = entries_ctr.get();
            for bytes in &encoded {
                if !imp.decode_into(bytes.clone(), &mut scratch) {
                    return Err(format!("{codec} failed to decode its own encoding"));
                }
            }
            best_ns = best_ns.min(hist.sum() - ns_before);
            entries = entries_ctr.get() - entries_before;
        }
        timings.push(DecodeTiming {
            codec,
            entries,
            best_ns,
            best_us_per_entry: if entries == 0 {
                0.0
            } else {
                best_ns as f64 / 1_000.0 / entries as f64
            },
        });
    }
    Ok(timings)
}

/// Runs the sweep at `scale`. Returns the deterministic stdout block,
/// the artifact, and the machine-dependent decode timings
/// (`repeats` instrumented passes per codec, best kept).
pub fn run(
    scale: f64,
    repeats: usize,
) -> Result<(String, CodecBenchReport, Vec<DecodeTiming>), String> {
    use std::fmt::Write as _;

    let bed = TestBed::at_scale(scale).map_err(|e| e.to_string())?;
    let profiles = profile_queries(&bed).map_err(|e| e.to_string())?;
    let reps = pick_representatives(&profiles);
    let users = [reps.query1, reps.query2, reps.query3, reps.query4];

    let census = bed.index.codec_census().map_err(|e| e.to_string())?;
    let baseline_page = bed.corpus.config.page_size;
    let golden_bpe = census.get(Codec::Golden).bytes_per_entry();

    let mut cells = Vec::with_capacity(Codec::ALL.len());
    for codec in Codec::ALL {
        let stats = census.get(codec);
        let page_size = codec_page_size(baseline_page, golden_bpe, stats.bytes_per_entry());
        // The same collection, re-paged at this codec's density: every
        // `p_t` (and so `d_t = max(p_t − b_t, 0)`) shifts with it.
        let index = index_corpus_opts(
            &bed.corpus,
            IndexCorpusOptions {
                codec,
                page_size: Some(page_size),
                ..IndexCorpusOptions::default()
            },
        )
        .map_err(|e| e.to_string())?;
        let mut baf_reads = 0u64;
        let mut df_reads = 0u64;
        for &topic in &users {
            let query = Query::from_named(&index, &bed.queries[topic].terms);
            let pool = (query.total_pages() as usize).max(1);
            for (alg, reads) in [
                (Algorithm::Baf, &mut baf_reads),
                (Algorithm::Df, &mut df_reads),
            ] {
                let mut buffer = index
                    .make_buffer(pool, PolicyKind::Lru)
                    .map_err(|e| e.to_string())?;
                index.disk().reset_stats();
                let out = evaluate(
                    alg,
                    &index,
                    &mut buffer,
                    &query,
                    EvalOptions {
                        params: FilterParams::PERSIN,
                        top_n: 20,
                        baf_force_first_page: false,
                        announce_query: true,
                        overlap_io: false,
                    },
                )
                .map_err(|e| e.to_string())?;
                *reads += out.stats.disk_reads;
            }
        }
        cells.push(CodecCell {
            codec: codec.name().to_string(),
            page_size: page_size as u64,
            n_postings: stats.n_postings,
            compressed_bytes: stats.compressed_bytes,
            dict_bytes: index.codec_impl().dictionary().len() as u64,
            bytes_per_entry: stats.bytes_per_entry(),
            total_pages: index.total_pages() as u64,
            baf_reads,
            df_reads,
        });
    }

    let report = CodecBenchReport {
        schema_version: SCHEMA_VERSION,
        scale,
        baseline_page_size: baseline_page as u64,
        topics: users.iter().map(|&t| t as u64).collect(),
        cells,
    };

    let mut text = String::new();
    let _ = writeln!(
        text,
        "== bench codec: list codecs x BAF/DF at scale {scale} =="
    );
    let _ = writeln!(
        text,
        "collection: {} docs, {} postings, baseline PageSize {} ({:.4} B/entry golden)",
        bed.index.n_docs(),
        bed.index.total_postings(),
        baseline_page,
        golden_bpe
    );
    let _ = writeln!(
        text,
        "representative topics: {} {} {} {}",
        users[0], users[1], users[2], users[3]
    );
    let mut table = crate::output::TextTable::new(&[
        "codec",
        "B/entry",
        "bytes",
        "dict B",
        "entries/page",
        "pages",
        "BAF reads",
        "DF reads",
    ]);
    for cell in &report.cells {
        table.row(vec![
            cell.codec.clone(),
            format!("{:.4}", cell.bytes_per_entry),
            cell.compressed_bytes.to_string(),
            cell.dict_bytes.to_string(),
            cell.page_size.to_string(),
            cell.total_pages.to_string(),
            cell.baf_reads.to_string(),
            cell.df_reads.to_string(),
        ]);
    }
    text.push_str(&table.render());

    // Instrumented decode passes over the baseline index's lists —
    // machine-dependent, so they never touch `text` or the artifact.
    let timings = decode_pass(&bed.index, repeats)?;

    Ok((text, report, timings))
}

/// The `bench codec` gate (deterministic): Re-Pair's census
/// bytes/entry — dictionary included — must be *strictly* below
/// golden's, since a denser codec is what shrinks `p_t`.
///
/// Returns a summary on pass, the violation on failure.
pub fn gate(report: &CodecBenchReport) -> Result<String, String> {
    let cell = |name: &str| report.cells.iter().find(|c| c.codec == name);
    let (Some(golden), Some(repair)) = (cell("golden"), cell("re-pair")) else {
        return Err("report is missing the golden or re-pair cell".to_string());
    };
    if repair.bytes_per_entry < golden.bytes_per_entry {
        Ok(format!(
            "re-pair {:.4} B/entry < golden {:.4} B/entry (dictionary included)\n",
            repair.bytes_per_entry, golden.bytes_per_entry
        ))
    } else {
        Err(format!(
            "re-pair must beat golden on size: {:.4} B/entry vs {:.4} B/entry",
            repair.bytes_per_entry, golden.bytes_per_entry
        ))
    }
}

/// Serializes a report as JSON.
pub fn to_json(report: &CodecBenchReport) -> String {
    serde_json::to_string(report).expect("report serialization cannot fail")
}

/// Parses a report from JSON.
pub fn from_json(text: &str) -> Result<CodecBenchReport, String> {
    serde_json::from_str(text).map_err(|e| format!("{e:?}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    const SCALE: f64 = 1.0 / 32.0;

    #[test]
    fn sweep_is_deterministic_and_exhaustive() {
        let (text1, report1, _) = run(SCALE, 1).unwrap();
        let (text2, report2, _) = run(SCALE, 1).unwrap();
        assert_eq!(text1, text2, "stdout block must be byte-identical");
        assert_eq!(to_json(&report1), to_json(&report2));
        assert_eq!(report1.cells.len(), Codec::ALL.len());
        for (cell, codec) in report1.cells.iter().zip(Codec::ALL) {
            assert_eq!(cell.codec, codec.name());
            assert!(cell.baf_reads > 0, "{codec}: BAF read nothing");
            assert!(cell.df_reads > 0, "{codec}: DF read nothing");
            assert!(cell.total_pages > 0);
            // Only Re-Pair carries a dictionary.
            assert_eq!(cell.dict_bytes > 0, codec == Codec::RePair, "{codec}");
        }
        // The baseline codec keeps exactly the baseline geometry.
        assert_eq!(report1.cells[0].page_size, report1.baseline_page_size);
    }

    #[test]
    fn denser_codecs_read_fewer_pages() {
        let (_, report, timings) = run(SCALE, 1).unwrap();
        let golden = &report.cells[0];
        let repair = &report.cells[1];
        assert!(
            repair.bytes_per_entry < golden.bytes_per_entry,
            "re-pair must compress below golden ({} vs {})",
            repair.bytes_per_entry,
            golden.bytes_per_entry
        );
        // At tiny scales the few-percent density gain can round to the
        // same entries-per-page (13 × 1.03 still floors to 13); the
        // strict full-scale geometry shift is what the checked-in
        // scale-1.0 artifact records.
        assert!(
            repair.page_size >= golden.page_size,
            "a denser codec never gets fewer entries per page"
        );
        assert!(
            repair.total_pages <= golden.total_pages,
            "a denser codec never needs more pages"
        );
        // Reads shrink (or at worst tie) when pages hold more entries.
        assert!(repair.df_reads <= golden.df_reads);
        assert!(repair.baf_reads <= golden.baf_reads);
        assert_eq!(timings.len(), Codec::ALL.len());
        for t in &timings {
            assert!(t.entries > 0, "{}: decode pass decoded nothing", t.codec);
            assert!(t.best_ns > 0, "{}: decode pass took no time", t.codec);
        }
    }

    #[test]
    fn report_round_trips_through_json() {
        let (_, report, _) = run(SCALE, 1).unwrap();
        let back = from_json(&to_json(&report)).unwrap();
        assert_eq!(back.schema_version, report.schema_version);
        assert_eq!(back.baseline_page_size, report.baseline_page_size);
        assert_eq!(back.topics, report.topics);
        assert_eq!(back.cells.len(), report.cells.len());
        for (b, r) in back.cells.iter().zip(&report.cells) {
            assert_eq!(b.codec, r.codec);
            assert_eq!(b.page_size, r.page_size);
            assert_eq!(b.compressed_bytes, r.compressed_bytes);
            assert_eq!(b.baf_reads, r.baf_reads);
            assert_eq!(b.df_reads, r.df_reads);
        }
    }

    #[test]
    fn gate_judges_size() {
        let cellify = |codec: &str, bpe: f64| CodecCell {
            codec: codec.into(),
            page_size: 404,
            n_postings: 1000,
            compressed_bytes: (bpe * 1000.0) as u64,
            dict_bytes: 0,
            bytes_per_entry: bpe,
            total_pages: 10,
            baf_reads: 5,
            df_reads: 7,
        };
        let report = CodecBenchReport {
            schema_version: SCHEMA_VERSION,
            scale: 1.0,
            baseline_page_size: 404,
            topics: vec![0, 1, 2, 3],
            cells: vec![cellify("golden", 1.0), cellify("re-pair", 0.8)],
        };
        assert!(gate(&report).is_ok());

        let mut fat_repair = report.clone();
        fat_repair.cells[1].bytes_per_entry = 1.0; // ties are a failure
        let problem = gate(&fat_repair).unwrap_err();
        assert!(problem.contains("re-pair must beat golden"), "{problem}");

        let mut missing = report.clone();
        missing.cells.pop();
        assert!(gate(&missing).unwrap_err().contains("missing"));
    }
}
