//! The `bench adaptive` subcommand: does the expert-mixture policy
//! recover the best static expert *without being told which one it
//! is*? (ROADMAP Open item 2's headline question.)
//!
//! Two workloads with opposite winners are driven over every static
//! policy plus the adaptive one, through identical page-request
//! streams:
//!
//! * **refinement** — the QUERY1 AddDrop refinement sequence under the
//!   DF algorithm with query announcements, repeated so the steady
//!   state dominates the cold start. RAP wins here (the paper's
//!   central claim).
//! * **recency** — a seeded sliding-window re-reference trace fetched
//!   directly from the pool with no announcements: most references go
//!   to recently introduced pages, so LRU is (tied-)minimal and MRU is
//!   the worst choice.
//!
//! The report then gates: each workload's expected winner is minimal
//! among the static policies, the adaptive policy lands within 5 % of
//! the best static expert's disk reads on *both* workloads, and the
//! mixture's leadership actually moved (`adaptive.switches > 0`
//! somewhere). Reads, hits, switch counts and shadow-hit counters are
//! all deterministic — no wall-clock number is printed — so CI runs
//! the command twice and diffs the output.

use crate::setup::{pick_representatives, profile_queries, TestBed};
use ir_core::eval::{evaluate, EvalOptions};
use ir_core::{Algorithm, Query, RefinementKind};
use ir_engine::AdaptiveStats;
use ir_storage::{BufferManager, PolicyKind, QueryBuffer};
use ir_types::{PageId, TermId};
use serde::Serialize;
use std::fmt::Write as _;
use std::sync::Arc;

/// Bumped whenever the adaptive-report shape changes incompatibly.
pub const SCHEMA_VERSION: u32 = 1;

/// The adaptive policy must stay within this factor of the best static
/// expert's disk reads on every workload (the ISSUE's 5 % bound).
const TRACKING_SLACK: f64 = 1.05;

/// Times the refinement sequence is replayed through one warm pool, so
/// the mixture's post-switch behavior outweighs its cold start.
const REFINEMENT_REPEATS: usize = 6;

/// One (workload, policy) cell.
#[derive(Clone, Debug, Serialize)]
pub struct AdaptiveRow {
    /// Workload label ("refinement" or "recency").
    pub workload: String,
    /// Replacement policy label.
    pub policy: String,
    /// Disk reads (pool misses) over the whole workload.
    pub total_reads: u64,
    /// Buffer hits over the whole workload.
    pub buffer_hits: u64,
    /// Leader switches (0 for static policies).
    pub switches: u64,
    /// `(expert, shadow hits)` pairs (empty for static policies).
    pub shadow_hits: Vec<(String, u64)>,
}

/// The whole `BENCH_adaptive.json` document.
#[derive(Clone, Debug, Serialize)]
pub struct AdaptiveReport {
    /// Report shape version (see [`SCHEMA_VERSION`]).
    pub schema_version: u32,
    /// Collection scale the workloads ran at.
    pub scale: f64,
    /// Pool frames used by the refinement workload.
    pub refinement_frames: u64,
    /// Pool frames used by the recency workload.
    pub recency_frames: u64,
    /// One row per (workload, policy) cell.
    pub rows: Vec<AdaptiveRow>,
}

/// Policies under test: every static policy, then the adaptive one.
fn panel() -> impl Iterator<Item = PolicyKind> {
    PolicyKind::ALL.into_iter().chain(PolicyKind::ADAPTIVE)
}

fn row_from(
    workload: &str,
    policy: PolicyKind,
    bm: &BufferManager<Arc<ir_storage::DiskSim>>,
) -> AdaptiveRow {
    let stats = bm.stats();
    let adaptive = AdaptiveStats::from_dump(&bm.metrics().dump());
    AdaptiveRow {
        workload: workload.to_string(),
        policy: policy.to_string(),
        total_reads: stats.misses,
        buffer_hits: stats.hits,
        switches: adaptive.switches,
        shadow_hits: adaptive.shadow_hits,
    }
}

/// Replays the QUERY1 AddDrop refinement sequence `repeats` times
/// through one cold pool of `frames` frames running `policy`.
fn run_refinement(
    bed: &TestBed,
    steps: &[Vec<(TermId, u32)>],
    frames: usize,
    policy: PolicyKind,
    repeats: usize,
) -> Result<AdaptiveRow, String> {
    let mut bm = BufferManager::new(Arc::clone(bed.index.disk()), frames, policy)
        .map_err(|e| format!("pool construction failed: {e}"))?;
    for _ in 0..repeats {
        for (k, terms) in steps.iter().enumerate() {
            Query::from_ids(&bed.index, terms)
                .and_then(|q| {
                    evaluate(
                        Algorithm::Df,
                        &bed.index,
                        &mut bm,
                        &q,
                        EvalOptions::default(),
                    )
                })
                .map_err(|e| format!("{policy} refinement step {k}: {e}"))?;
        }
    }
    Ok(row_from("refinement", policy, &bm))
}

/// A seeded sliding-window re-reference trace: a slow sequential sweep
/// through `pages` where three references in four revisit one of the
/// `window` most recently introduced pages. Recency is the only signal
/// — no query announcements accompany the fetches — so a recency-based
/// policy holds the working set and an anti-recency one thrashes.
fn recency_trace(pages: &[PageId], window: usize, len: usize, seed: u64) -> Vec<PageId> {
    let mut x = seed;
    let mut next = move || {
        // splitmix64: deterministic, dependency-free.
        x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = x;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    };
    let n = pages.len();
    let mut introduced = 0usize;
    let mut trace = Vec::with_capacity(len);
    trace.push(pages[0]);
    for _ in 1..len {
        let r = next();
        if r % 4 == 0 {
            introduced = (introduced + 1) % n;
            trace.push(pages[introduced]);
        } else {
            let w = window.min(introduced + 1).max(1);
            let back = ((r >> 2) as usize) % w;
            trace.push(pages[(introduced + n - back) % n]);
        }
    }
    trace
}

/// Fetches the trace through one cold pool (no announcements).
fn run_recency(
    bed: &TestBed,
    trace: &[PageId],
    frames: usize,
    policy: PolicyKind,
) -> Result<AdaptiveRow, String> {
    let mut bm = BufferManager::new(Arc::clone(bed.index.disk()), frames, policy)
        .map_err(|e| format!("pool construction failed: {e}"))?;
    for &id in trace {
        bm.fetch(id)
            .map_err(|e| format!("{policy} fetch {id:?}: {e}"))?;
    }
    Ok(row_from("recency", policy, &bm))
}

/// The first `want` page ids of the collection, in (term, page) order.
fn page_universe(bed: &TestBed, want: usize) -> Result<Vec<PageId>, String> {
    let mut pages = Vec::with_capacity(want);
    for t in 0..bed.index.n_terms() as u32 {
        let term = TermId(t);
        let n = bed
            .index
            .n_pages(term)
            .map_err(|e| format!("page count of term {t}: {e}"))?;
        for p in 0..n {
            pages.push(PageId::new(term, p));
            if pages.len() == want {
                return Ok(pages);
            }
        }
    }
    if pages.is_empty() {
        return Err("collection has no pages".to_string());
    }
    Ok(pages)
}

fn reads_of<'a>(rows: &'a [AdaptiveRow], workload: &str) -> Vec<(&'a str, u64)> {
    rows.iter()
        .filter(|r| r.workload == workload)
        .map(|r| (r.policy.as_str(), r.total_reads))
        .collect()
}

/// Checks the tracking contract over a finished row set; returns gate
/// lines for the report (all counts, deterministic) or the violations.
fn gate(rows: &[AdaptiveRow]) -> Result<String, Vec<String>> {
    let mut out = String::new();
    let mut problems = Vec::new();
    for (workload, winner) in [("refinement", "RAP"), ("recency", "LRU")] {
        let cells = reads_of(rows, workload);
        let static_cells: Vec<&(&str, u64)> =
            cells.iter().filter(|(p, _)| *p != "ADAPTIVE").collect();
        let best = static_cells.iter().map(|(_, r)| *r).min().unwrap_or(0);
        let Some(&&(_, winner_reads)) = static_cells.iter().find(|(p, _)| *p == winner) else {
            problems.push(format!("{workload}: no {winner} row"));
            continue;
        };
        if winner_reads > best {
            problems.push(format!(
                "{workload}: {winner} read {winner_reads} pages but the best static \
                 policy read {best} — the workload no longer favors {winner}"
            ));
        }
        let bound = (best as f64 * TRACKING_SLACK).floor() as u64;
        let Some(&(_, reads)) = cells.iter().find(|(p, _)| *p == "ADAPTIVE") else {
            problems.push(format!("{workload}: no ADAPTIVE row"));
            continue;
        };
        if reads > bound {
            problems.push(format!(
                "{workload}: ADAPTIVE read {reads} pages, over the {bound} bound \
                 ({TRACKING_SLACK}x the best static expert's {best})"
            ));
        } else {
            let _ = writeln!(
                out,
                "{workload}: ADAPTIVE reads {reads} <= {bound} \
                 ({TRACKING_SLACK}x best static {best}, winner {winner})"
            );
        }
    }
    let switches: u64 = rows.iter().map(|r| r.switches).sum();
    if switches == 0 {
        problems.push(
            "the adaptive policy never switched leaders; opposite-winner workloads \
             must move the mixture at least once"
                .to_string(),
        );
    } else {
        let _ = writeln!(out, "adaptation observed: {switches} switches total");
    }
    if problems.is_empty() {
        Ok(out)
    } else {
        Err(problems)
    }
}

/// Runs both workloads over the full panel. Returns the deterministic
/// report text (rows + gate verdict) and the JSON document, or the
/// first failure.
pub fn run(scale: f64) -> Result<(String, AdaptiveReport), String> {
    let bed = TestBed::at_scale(scale).map_err(|e| format!("testbed construction failed: {e}"))?;
    let profiles = profile_queries(&bed).map_err(|e| format!("profiling failed: {e}"))?;
    let reps = pick_representatives(&profiles);
    let topic = reps.query1;
    let sequence = bed
        .sequence(topic, RefinementKind::AddDrop)
        .map_err(|e| format!("building the refinement sequence: {e}"))?;
    // The ablation's most contended size: an eighth of the topic's
    // pages, where policy choice moves reads the most.
    let refinement_frames =
        ((profiles[topic].total_pages.max(8) as f64 / 8.0).round() as usize).max(1);
    // The recency pool is deliberately small; the trace's working set
    // (the re-reference window plus the sweep head) must fit in it for
    // LRU while MRU keeps evicting the hot page.
    let recency_frames = 48usize;
    let universe = page_universe(&bed, recency_frames * 4)?;
    let window = recency_frames / 2;
    let trace = recency_trace(&universe, window, recency_frames * 100, 0xADA9_715E);

    let mut rows = Vec::new();
    let mut out = String::new();
    let _ = writeln!(
        out,
        "adaptive tracking: scale {scale}, refinement[{refinement_frames}] topic {topic} \
         (AddDrop x{REFINEMENT_REPEATS}), recency[{recency_frames}] {} pages x {} refs",
        universe.len(),
        trace.len()
    );
    for policy in panel() {
        rows.push(run_refinement(
            &bed,
            &sequence.steps,
            refinement_frames,
            policy,
            REFINEMENT_REPEATS,
        )?);
    }
    for policy in panel() {
        rows.push(run_recency(&bed, &trace, recency_frames, policy)?);
    }
    bed.index.disk().reset_stats();
    for r in &rows {
        let shadows = r
            .shadow_hits
            .iter()
            .map(|(n, h)| format!("{n} {h}"))
            .collect::<Vec<_>>()
            .join(", ");
        let _ = writeln!(
            out,
            "{:>10} / {:>9}: reads {}, hits {}, switches {}{}",
            r.workload,
            r.policy,
            r.total_reads,
            r.buffer_hits,
            r.switches,
            if shadows.is_empty() {
                String::new()
            } else {
                format!(", shadow [{shadows}]")
            }
        );
    }
    match gate(&rows) {
        Ok(verdict) => {
            out.push_str(&verdict);
        }
        Err(problems) => {
            return Err(problems
                .iter()
                .map(|p| format!("ADAPTIVE REGRESSION: {p}"))
                .collect::<Vec<_>>()
                .join("\n"));
        }
    }
    let report = AdaptiveReport {
        schema_version: SCHEMA_VERSION,
        scale,
        refinement_frames: refinement_frames as u64,
        recency_frames: recency_frames as u64,
        rows,
    };
    Ok((out, report))
}

/// Serializes an adaptive report as JSON.
pub fn to_json(report: &AdaptiveReport) -> String {
    serde_json::to_string(report).expect("adaptive report serialization cannot fail")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(workload: &str, policy: &str, reads: u64, switches: u64) -> AdaptiveRow {
        AdaptiveRow {
            workload: workload.to_string(),
            policy: policy.to_string(),
            total_reads: reads,
            buffer_hits: 10,
            switches,
            shadow_hits: Vec::new(),
        }
    }

    fn full_grid(
        refine: &[(&str, u64)],
        recency: &[(&str, u64)],
        switches: u64,
    ) -> Vec<AdaptiveRow> {
        let mut rows: Vec<AdaptiveRow> = refine
            .iter()
            .map(|&(p, r)| row("refinement", p, r, 0))
            .collect();
        rows.extend(recency.iter().map(|&(p, r)| row("recency", p, r, 0)));
        if let Some(r) = rows.iter_mut().find(|r| r.policy == "ADAPTIVE") {
            r.switches = switches;
        }
        rows
    }

    const STATICS: [(&str, u64); 7] = [
        ("LRU", 100),
        ("MRU", 150),
        ("RAP", 80),
        ("LRU-2", 110),
        ("2Q", 105),
        ("FIFO", 120),
        ("CLOCK", 115),
    ];

    fn refine_cells(adaptive: u64) -> Vec<(&'static str, u64)> {
        let mut v = STATICS.to_vec();
        v.push(("ADAPTIVE", adaptive));
        v
    }

    fn recency_cells(adaptive: u64) -> Vec<(&'static str, u64)> {
        let mut v: Vec<(&str, u64)> = STATICS
            .iter()
            .map(|&(p, r)| if p == "LRU" { (p, 70) } else { (p, r) })
            .collect();
        v.push(("ADAPTIVE", adaptive));
        v
    }

    #[test]
    fn gate_passes_when_adaptive_tracks_both_winners() {
        let rows = full_grid(&refine_cells(82), &recency_cells(72), 3);
        let verdict = gate(&rows).expect("tracking grid must pass");
        assert!(verdict.contains("3 switches total"), "{verdict}");
    }

    #[test]
    fn gate_fails_when_adaptive_drifts_past_the_slack() {
        // 5% of RAP's 80 reads allows 84; 90 is a tracking failure.
        let rows = full_grid(&refine_cells(90), &recency_cells(72), 3);
        let problems = gate(&rows).unwrap_err();
        assert!(problems[0].contains("ADAPTIVE"), "{problems:?}");
        assert!(problems[0].contains("bound"), "{problems:?}");
    }

    #[test]
    fn gate_fails_when_the_expected_winner_loses() {
        // LRU must be (tied-)minimal on the recency trace.
        let mut recency = recency_cells(72);
        for c in recency.iter_mut() {
            if c.0 == "FIFO" {
                c.1 = 60;
            }
        }
        let rows = full_grid(&refine_cells(82), &recency, 3);
        let problems = gate(&rows).unwrap_err();
        assert!(problems[0].contains("no longer favors LRU"), "{problems:?}");
    }

    #[test]
    fn gate_requires_at_least_one_switch() {
        let rows = full_grid(&refine_cells(82), &recency_cells(72), 0);
        let problems = gate(&rows).unwrap_err();
        assert!(problems[0].contains("ever switched"), "{problems:?}");
    }

    #[test]
    fn recency_trace_is_deterministic_and_windowed() {
        let pages: Vec<PageId> = (0..64).map(|p| PageId::new(TermId(0), p)).collect();
        let a = recency_trace(&pages, 8, 512, 7);
        let b = recency_trace(&pages, 8, 512, 7);
        assert_eq!(a, b, "same seed must give the same trace");
        assert_eq!(a.len(), 512);
        // Sanity: the trace actually re-references (distinct pages
        // touched << references), which is what gives LRU its edge.
        let distinct: std::collections::HashSet<PageId> = a.iter().copied().collect();
        assert!(distinct.len() < a.len() / 2, "{} distinct", distinct.len());
    }
}
