//! The per-query cost ledger: one row per evaluated query, carrying
//! every cost the paper argues about (disk reads, buffer hits, borrow
//! count, evaluation wall time, candidate-set size) plus the BAF
//! estimator's predicted reads, aggregated per session on demand.
//!
//! [`SearchEngine`](crate::SearchEngine) appends a row per search;
//! [`SessionServer`](crate::SessionServer) collects one ledger per run
//! and returns it in the [`ServerReport`](crate::ServerReport).

use serde::{Deserialize, Serialize};

/// The cost of one evaluated query.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct QueryCost {
    /// Which session submitted the query (0 for a single-user engine).
    pub session: u32,
    /// Position within the session's refinement sequence.
    pub step: u32,
    /// Pages read from disk (the paper's headline cost).
    pub disk_reads: u64,
    /// Pages served from the buffer pool without a disk read. Counted
    /// per fetch by the evaluator, so the figure is exact under any
    /// schedule: `disk_reads + buffer_hits = pages_processed`.
    pub buffer_hits: u64,
    /// Of `buffer_hits`, pages borrowed read-only from sibling
    /// partitions (also counted per fetch).
    pub borrows: u64,
    /// Evaluation wall time in microseconds.
    pub eval_us: u64,
    /// Candidate-set size (peak accumulator count, §5.2.3).
    pub candidates: u64,
    /// Sum of the BAF estimator's `d_t` predictions for the terms it
    /// selected (0 for DF/Full, which do not estimate).
    pub estimated_reads: u64,
    /// Read plans the evaluator issued as batched fetches.
    pub batches: u64,
    /// Microseconds the query's disk reads made it wait for I/O
    /// completions, as accounted by the store's latency model
    /// (`PageStore::io_wait_us`). Zero for the in-memory simulator.
    pub io_wait_us: u64,
}

/// One session's costs, summed over its queries.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct SessionCost {
    /// The session these totals cover.
    pub session: u32,
    /// Number of queries the session evaluated.
    pub queries: u64,
    /// Total pages read from disk.
    pub disk_reads: u64,
    /// Total pages served from the buffer pool.
    pub buffer_hits: u64,
    /// Total pages borrowed from sibling partitions.
    pub borrows: u64,
    /// Total evaluation wall time in microseconds.
    pub eval_us: u64,
    /// Largest candidate set any single query built.
    pub peak_candidates: u64,
    /// Total batched read plans issued.
    pub batches: u64,
    /// Total microseconds spent waiting on I/O completions.
    pub io_wait_us: u64,
}

impl SessionCost {
    fn absorb(&mut self, q: &QueryCost) {
        self.queries += 1;
        self.disk_reads += q.disk_reads;
        self.buffer_hits += q.buffer_hits;
        self.borrows += q.borrows;
        self.eval_us += q.eval_us;
        self.peak_candidates = self.peak_candidates.max(q.candidates);
        self.batches += q.batches;
        self.io_wait_us += q.io_wait_us;
    }
}

/// An append-only log of [`QueryCost`] rows with per-session rollups.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct CostLedger {
    /// Every recorded query, in completion order.
    pub entries: Vec<QueryCost>,
}

impl CostLedger {
    /// An empty ledger.
    pub fn new() -> Self {
        CostLedger::default()
    }

    /// Appends one query's costs.
    pub fn record(&mut self, cost: QueryCost) {
        self.entries.push(cost);
    }

    /// Appends every row of `other` (used to merge per-thread ledgers).
    pub fn merge(&mut self, other: CostLedger) {
        self.entries.extend(other.entries);
    }

    /// Number of recorded queries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Total disk reads over every recorded query.
    pub fn total_disk_reads(&self) -> u64 {
        self.entries.iter().map(|e| e.disk_reads).sum()
    }

    /// Per-session rollups, ordered by session id.
    pub fn session_costs(&self) -> Vec<SessionCost> {
        let mut out: Vec<SessionCost> = Vec::new();
        for e in &self.entries {
            match out.iter_mut().find(|s| s.session == e.session) {
                Some(s) => s.absorb(e),
                None => {
                    let mut s = SessionCost {
                        session: e.session,
                        ..SessionCost::default()
                    };
                    s.absorb(e);
                    out.push(s);
                }
            }
        }
        out.sort_by_key(|s| s.session);
        out
    }

    /// The whole ledger as a JSON document (entries + rollups).
    pub fn to_json(&self) -> String {
        #[derive(Serialize)]
        struct Dump {
            entries: Vec<QueryCost>,
            sessions: Vec<SessionCost>,
        }
        let dump = Dump {
            entries: self.entries.clone(),
            sessions: self.session_costs(),
        };
        serde_json::to_string(&dump).expect("ledger serialization cannot fail")
    }
}

/// Builds a [`QueryCost`] from one evaluation's [`EvalStats`] plus the
/// two costs the stats cannot see: wall time, and the store-level I/O
/// wait (the caller takes the delta of `PageStore::io_wait_us` around
/// the evaluation; zero for stores without a latency model). Hits and
/// borrows come straight from the evaluator's per-fetch counters, so
/// the row is exact even when other sessions drive the same pool
/// concurrently.
pub fn query_cost(
    session: u32,
    step: u32,
    stats: &ir_core::EvalStats,
    eval_us: u64,
    io_wait_us: u64,
) -> QueryCost {
    QueryCost {
        session,
        step,
        disk_reads: stats.disk_reads,
        buffer_hits: stats.buffer_hits,
        borrows: stats.borrows,
        eval_us,
        candidates: stats.peak_accumulators as u64,
        estimated_reads: stats.baf_estimated_reads,
        batches: stats.batches_issued,
        io_wait_us,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cost(session: u32, step: u32, reads: u64, cands: u64) -> QueryCost {
        QueryCost {
            session,
            step,
            disk_reads: reads,
            buffer_hits: 2,
            borrows: 1,
            eval_us: 10,
            candidates: cands,
            estimated_reads: reads + 1,
            batches: 3,
            io_wait_us: 250,
        }
    }

    #[test]
    fn session_rollups_sum_and_peak() {
        let mut ledger = CostLedger::new();
        ledger.record(cost(0, 0, 5, 40));
        ledger.record(cost(1, 0, 7, 90));
        ledger.record(cost(0, 1, 3, 60));
        assert_eq!(ledger.len(), 3);
        assert_eq!(ledger.total_disk_reads(), 15);
        let sessions = ledger.session_costs();
        assert_eq!(sessions.len(), 2);
        assert_eq!(sessions[0].session, 0);
        assert_eq!(sessions[0].queries, 2);
        assert_eq!(sessions[0].disk_reads, 8);
        assert_eq!(sessions[0].buffer_hits, 4);
        assert_eq!(sessions[0].borrows, 2);
        assert_eq!(sessions[0].eval_us, 20);
        assert_eq!(sessions[0].peak_candidates, 60);
        assert_eq!(sessions[0].batches, 6);
        assert_eq!(sessions[0].io_wait_us, 500);
        assert_eq!(sessions[1].queries, 1);
        assert_eq!(sessions[1].peak_candidates, 90);
    }

    #[test]
    fn query_cost_sources_hits_from_the_evaluator_not_subtraction() {
        // The evaluator counts hits per fetch; the ledger must copy
        // that figure, not infer it from pages_processed − disk_reads.
        let stats = ir_core::EvalStats {
            disk_reads: 3,
            pages_processed: 10,
            buffer_hits: 7,
            borrows: 2,
            peak_accumulators: 5,
            ..ir_core::EvalStats::default()
        };
        let row = query_cost(4, 1, &stats, 123, 77);
        assert_eq!(row.buffer_hits, stats.buffer_hits);
        assert_eq!(row.borrows, stats.borrows);
        assert_eq!(row.io_wait_us, 77);
        assert_eq!(
            row.disk_reads + row.buffer_hits,
            stats.pages_processed,
            "every processed page is exactly one of: disk read, buffer hit"
        );
    }

    #[test]
    fn merge_concatenates_entries() {
        let mut a = CostLedger::new();
        a.record(cost(0, 0, 1, 1));
        let mut b = CostLedger::new();
        b.record(cost(1, 0, 2, 2));
        a.merge(b);
        assert_eq!(a.len(), 2);
        assert_eq!(a.total_disk_reads(), 3);
    }

    #[test]
    fn json_dump_round_trips_entries() {
        let mut ledger = CostLedger::new();
        ledger.record(cost(0, 0, 5, 40));
        let json = ledger.to_json();
        assert!(json.contains("\"entries\""));
        assert!(json.contains("\"sessions\""));
        // The ledger itself (entries only) round-trips through serde.
        let as_json = serde_json::to_string(&ledger).unwrap();
        let back: CostLedger = serde_json::from_str(&as_json).unwrap();
        assert_eq!(back.entries, ledger.entries);
    }
}
