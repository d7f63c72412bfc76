//! Answer checks, answer fingerprints and the per-query tally every
//! workload keeps.

use ir_core::effectiveness::average_precision;
use ir_core::{EvalStats, Hit};
use ir_types::DocId;
use std::collections::HashSet;

/// Answer-set size of every query.
pub const TOP_N: usize = 20;

/// Checks one answer: at most [`TOP_N`] hits, scores descending and
/// finite, no document twice, and every page examined either read or
/// hit.
pub fn check_answer(hits: &[Hit], stats: &EvalStats) -> Result<(), String> {
    if hits.len() > TOP_N {
        return Err(format!("{} hits, more than top-{TOP_N}", hits.len()));
    }
    if hits.iter().any(|h| !h.score.is_finite()) {
        return Err("a score is not finite".into());
    }
    if hits.windows(2).any(|w| w[0].score < w[1].score) {
        return Err("hits are not sorted by descending score".into());
    }
    for (i, h) in hits.iter().enumerate() {
        if hits[..i].iter().any(|g| g.doc == h.doc) {
            return Err(format!("document {} answered twice", h.doc.0));
        }
    }
    if stats.disk_reads + stats.buffer_hits != stats.pages_processed {
        return Err(format!(
            "disk_reads {} + buffer_hits {} != pages_processed {}",
            stats.disk_reads, stats.buffer_hits, stats.pages_processed
        ));
    }
    Ok(())
}

/// FNV-1a over the answer's documents and exact score bits.
pub fn fingerprint(hits: &[Hit]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for hit in hits {
        for b in hit
            .doc
            .0
            .to_le_bytes()
            .into_iter()
            .chain(hit.score.to_bits().to_le_bytes())
        {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x1_0000_01b3);
        }
    }
    h
}

/// What one query left behind: its reads and answer fingerprint, the
/// identity a repeated or traced run must reproduce.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct QueryPrint {
    pub reads: u64,
    pub answer: u64,
}

/// Sums over a set of queries, from which the count metrics derive.
#[derive(Clone, Debug, Default)]
pub struct Tally {
    pub queries: u64,
    /// Queries whose evaluation failed or whose answer failed a check.
    pub failed: u64,
    pub first_failure: Option<String>,
    pub disk_reads: u64,
    pub buffer_hits: u64,
    pub pages_processed: u64,
    pub entries: u64,
    pub bt_inquiries: u64,
    pub peak_accumulators: u64,
    pub terms_scanned: u64,
    pub query_terms: u64,
    pub estimate_abs_error: u64,
    pub batches: u64,
    pub evictions: u64,
    pub ap_sum: f64,
}

impl Tally {
    /// Records a failure (of a query or of a run-level check).
    pub fn fail(&mut self, what: String) {
        self.fail_n(1, what);
    }

    /// Records `n` failures with one description.
    pub fn fail_n(&mut self, n: u64, what: String) {
        self.failed += n;
        if self.first_failure.is_none() {
            self.first_failure = Some(what);
        }
    }

    /// Records a query whose evaluation returned an error.
    pub fn record_error(&mut self, what: String) {
        self.queries += 1;
        self.fail(what);
    }

    /// Checks and records one evaluated query over `query_terms` terms;
    /// `extra` is the outcome of any workload-specific check. A query
    /// counts as failed once, however many checks it fails.
    pub fn record(
        &mut self,
        hits: &[Hit],
        stats: &EvalStats,
        query_terms: usize,
        relevant: &HashSet<DocId>,
        extra: Result<(), String>,
    ) -> QueryPrint {
        self.queries += 1;
        if let Err(e) = check_answer(hits, stats).and(extra) {
            self.fail(format!("query {}: {e}", self.queries));
        }
        self.disk_reads += stats.disk_reads;
        self.buffer_hits += stats.buffer_hits;
        self.pages_processed += stats.pages_processed;
        self.entries += stats.entries_processed;
        self.bt_inquiries += stats.bt_inquiries;
        self.peak_accumulators += stats.peak_accumulators as u64;
        self.terms_scanned += stats.terms_scanned as u64;
        self.query_terms += query_terms as u64;
        self.estimate_abs_error += stats.baf_estimate_abs_error;
        self.batches += stats.batches_issued;
        self.ap_sum += average_precision(hits, relevant);
        QueryPrint {
            reads: stats.disk_reads,
            answer: fingerprint(hits),
        }
    }

    /// `x / queries`, 0 for no queries.
    pub fn per_query(&self, x: f64) -> f64 {
        ratio(x, self.queries as f64)
    }
}

/// `num / den`, 0 when `den` is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}
