//! The `bench report` machinery: runs the paper's headline experiment
//! kernels (Fig. 3 profiling, Fig. 5–8 buffer sweeps) plus the
//! evaluation micro-kernels the Criterion suites time, and emits one
//! schema-versioned JSON document with throughput, disk-read counts and
//! p50/p99 evaluation latency. `bench compare` diffs two such reports:
//! disk-read counts must match exactly (they are deterministic), wall
//! times within a tolerance.

use crate::exp::ExpResult;
use crate::setup::{pick_representatives, profile_queries, TestBed};
use ir_core::eval::{evaluate, EvalOptions};
use ir_core::{run_sequence, Algorithm, RefinementKind, SessionConfig};
use ir_engine::{PoolLayout, Schedule, SessionServer, SessionSpec};
use ir_storage::{BufferMetrics, PolicyKind};
use ir_types::FilterParams;
use serde::{Deserialize, Serialize};
use std::time::Instant;

/// Bumped whenever the report shape changes incompatibly; `compare`
/// refuses to diff reports of different versions.
pub const SCHEMA_VERSION: u32 = 1;

/// Buffer sizes swept per figure, as fractions of the sequence's total
/// query pages — a small preset of the full Fig. 5–8 sweep, chosen so
/// the CI gate finishes quickly while still covering the scarce,
/// half-saturated and saturated regimes.
const REPORT_FRACTIONS: [f64; 3] = [1.0 / 8.0, 1.0 / 2.0, 1.0];

/// Wall-time comparisons below this noise floor (in µs) are skipped:
/// scheduler jitter dominates and a "regression" would be meaningless.
const TIME_NOISE_FLOOR_US: u64 = 5_000;

/// The Fig. 3 kernel, aggregated: cold DF vs Full over every topic
/// query. Read counts are deterministic.
#[derive(Clone, Copy, Debug, Default, Serialize, Deserialize)]
pub struct Fig3Summary {
    /// Number of topic queries profiled.
    pub topics: u64,
    /// Total disk reads under full (safe) evaluation.
    pub full_reads: u64,
    /// Total disk reads under DF with Persin constants.
    pub df_reads: u64,
    /// Mean per-query fraction of reads DF avoids, in percent.
    pub mean_savings_pct: f64,
}

/// One cell of a Fig. 5–8 sweep: a (figure, buffer size, combo) point
/// and its deterministic total read count.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct FigureCell {
    /// Figure label ("fig5" .. "fig8").
    pub figure: String,
    /// Buffer pool size in pages.
    pub buffer_pages: u64,
    /// Algorithm/policy combo label ("BAF/RAP").
    pub combo: String,
    /// Total disk reads over the refinement sequence.
    pub total_reads: u64,
}

/// One evaluation micro-kernel: every topic query evaluated cold under
/// one algorithm (the same kernel `benches/evaluation.rs` times).
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct MicroRow {
    /// Kernel name ("eval_full", "eval_df", "eval_baf").
    pub name: String,
    /// Queries evaluated.
    pub ops: u64,
    /// Total wall time in microseconds.
    pub total_us: u64,
    /// Throughput in queries per second.
    pub ops_per_sec: f64,
}

/// Per-query evaluation latency distribution (DF, cold buffers).
#[derive(Clone, Copy, Debug, Default, Serialize, Deserialize)]
pub struct LatencySummary {
    /// Queries measured.
    pub queries: u64,
    /// Median evaluation latency in microseconds.
    pub p50_us: u64,
    /// 99th-percentile evaluation latency in microseconds.
    pub p99_us: u64,
    /// Total evaluation wall time in microseconds.
    pub total_us: u64,
    /// Throughput in queries per second.
    pub throughput_qps: f64,
}

/// Batched-fetch behavior over the evaluation micro-kernels: how many
/// read plans the evaluators issued, how many pages each batch
/// covered, and how well the plans' value hints predicted the
/// replacement policy's assigned page values. Informational (not
/// compared — a baseline written before batching existed reads back as
/// all zeros).
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct BatchingSummary {
    /// Read plans issued as batched fetches.
    pub batches: u64,
    /// Pages requested across all batches (counting duplicates).
    pub pages: u64,
    /// Upper bounds of the pages-per-batch histogram buckets.
    pub pages_per_batch_bounds: Vec<u64>,
    /// Per-bucket batch counts, overflow bucket last.
    pub pages_per_batch_counts: Vec<u64>,
    /// Admissions that carried a plan value hint.
    pub hinted_inserts: u64,
    /// Total |hinted − assigned| page-value error over those
    /// admissions, in thousandths.
    pub hint_abs_error_milli: u64,
}

impl BatchingSummary {
    /// Folds one pool's batch counters into the summary.
    fn absorb(&mut self, m: &BufferMetrics) {
        self.batches += m.batches.get();
        self.pages += m.batch_pages.sum();
        if self.pages_per_batch_bounds.is_empty() {
            self.pages_per_batch_bounds = m.batch_pages.bounds().to_vec();
            self.pages_per_batch_counts = vec![0; self.pages_per_batch_bounds.len() + 1];
        }
        for (slot, n) in self
            .pages_per_batch_counts
            .iter_mut()
            .zip(m.batch_pages.bucket_counts())
        {
            *slot += n;
        }
        self.hinted_inserts += m.hinted_inserts.get();
        self.hint_abs_error_milli += m.hint_abs_error_milli.get();
    }
}

/// One sample of the threaded session server: the four representative
/// refinement sessions run free-running over one shared pool.
/// Informational (not compared — wall clock and queries/sec are
/// machine-dependent, and a baseline written before the server summary
/// existed reads back as all zeros).
#[derive(Clone, Copy, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct ServerSummary {
    /// Concurrent sessions driven.
    pub sessions: u64,
    /// Queries evaluated across all sessions.
    pub queries: u64,
    /// Total disk reads over the run.
    pub total_reads: u64,
    /// Wall-clock time of the run (spawn to last join), µs.
    pub wall_us: u64,
    /// Evaluated queries per second of wall-clock time.
    pub queries_per_sec: f64,
}

/// One sample of the expert-mixture adaptive policy: the four
/// representative sessions re-run round-robin over one shared pool
/// under [`PolicyKind::Adaptive`]. Every number here is deterministic
/// (reads, switch counts, shadow hits — no wall clock), but the
/// section is informational (not compared — a baseline written before
/// it existed reads back as all zeros).
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct AdaptiveSummary {
    /// Queries evaluated across all sessions.
    pub queries: u64,
    /// Total disk reads over the run.
    pub total_reads: u64,
    /// Leader switches the mixture made.
    pub switches: u64,
    /// `(expert, shadow hits)` pairs, sorted by expert name.
    pub shadow_hits: Vec<(String, u64)>,
}

/// One codec's row of the report's codec census: deterministic census
/// bytes plus the decode meters (`index.decode_ns.<codec>` /
/// `index.decoded_entries.<codec>`) from one instrumented decode pass
/// over the whole collection. Informational (not compared — decode
/// nanoseconds are machine-dependent, and a baseline written before
/// codecs existed reads back as empty).
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct CodecRow {
    /// Codec name ("golden", "re-pair").
    pub codec: String,
    /// Postings measured by the census.
    pub n_postings: u64,
    /// Census bytes for the whole collection, dictionary included.
    pub compressed_bytes: u64,
    /// Entries decoded by the instrumented pass.
    pub decoded_entries: u64,
    /// Total decode nanoseconds of the instrumented pass.
    pub decode_ns: u64,
}

impl CodecRow {
    /// Census bytes per posting.
    pub fn bytes_per_entry(&self) -> f64 {
        if self.n_postings == 0 {
            0.0
        } else {
            self.compressed_bytes as f64 / self.n_postings as f64
        }
    }

    /// Decode microseconds per entry of the instrumented pass.
    pub fn decode_us_per_entry(&self) -> f64 {
        if self.decoded_entries == 0 {
            0.0
        } else {
            self.decode_ns as f64 / 1_000.0 / self.decoded_entries as f64
        }
    }
}

/// The per-codec census + decode sample (informational; not compared).
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct CodecSummary {
    /// One row per codec, in [`ir_index::Codec::ALL`] order.
    pub rows: Vec<CodecRow>,
}

/// The whole report.
#[derive(Clone, Debug, Serialize)]
pub struct BenchReport {
    /// Report shape version (see [`SCHEMA_VERSION`]).
    pub schema_version: u32,
    /// Collection scale the kernels ran at.
    pub scale: f64,
    /// Fig. 3 aggregate (DF vs Full read counts).
    pub fig3: Fig3Summary,
    /// Fig. 5–8 sweep cells (deterministic read counts).
    pub figures: Vec<FigureCell>,
    /// Evaluation latency distribution (DF, cold).
    pub latency: LatencySummary,
    /// Evaluation micro-kernel throughputs.
    pub micro: Vec<MicroRow>,
    /// Batched-fetch counters over the micro-kernels (informational;
    /// not compared).
    pub batching: BatchingSummary,
    /// Threaded-server throughput sample (informational; not
    /// compared).
    pub server: ServerSummary,
    /// Expert-mixture adaptive-policy sample (informational; not
    /// compared).
    pub adaptive: AdaptiveSummary,
    /// Per-codec census and decode sample (informational; not
    /// compared).
    pub codec: CodecSummary,
    /// Global `ir-observe` counter values at the end of the run
    /// (informational; not compared).
    pub counters: Vec<(String, u64)>,
}

/// Required field of a JSON-object value.
fn req<T: serde::Deserialize>(v: &serde::Value, name: &'static str) -> Result<T, serde::Error> {
    T::from_value(
        v.field(name)
            .ok_or_else(|| serde::Error::missing_field(name))?,
    )
}

// Hand-written (instead of derived) so `batching` and `server`
// default to zeros when the baseline was recorded before they existed.
impl serde::Deserialize for BenchReport {
    fn from_value(v: &serde::Value) -> Result<Self, serde::Error> {
        Ok(BenchReport {
            schema_version: req(v, "schema_version")?,
            scale: req(v, "scale")?,
            fig3: req(v, "fig3")?,
            figures: req(v, "figures")?,
            latency: req(v, "latency")?,
            micro: req(v, "micro")?,
            batching: v.field("batching").map_or_else(
                || Ok(BatchingSummary::default()),
                serde::Deserialize::from_value,
            )?,
            server: v.field("server").map_or_else(
                || Ok(ServerSummary::default()),
                serde::Deserialize::from_value,
            )?,
            adaptive: v.field("adaptive").map_or_else(
                || Ok(AdaptiveSummary::default()),
                serde::Deserialize::from_value,
            )?,
            codec: v.field("codec").map_or_else(
                || Ok(CodecSummary::default()),
                serde::Deserialize::from_value,
            )?,
            counters: req(v, "counters")?,
        })
    }
}

const COMBOS: [(Algorithm, PolicyKind); 6] = [
    (Algorithm::Df, PolicyKind::Lru),
    (Algorithm::Df, PolicyKind::Mru),
    (Algorithm::Df, PolicyKind::Rap),
    (Algorithm::Baf, PolicyKind::Lru),
    (Algorithm::Baf, PolicyKind::Mru),
    (Algorithm::Baf, PolicyKind::Rap),
];

fn quantile_us(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let idx = ((sorted.len() - 1) as f64 * q).round() as usize;
    sorted[idx]
}

/// Runs every kernel at `scale` and assembles the report.
pub fn collect(scale: f64) -> ExpResult<BenchReport> {
    let bed = TestBed::at_scale(scale)?;
    let profiles = profile_queries(&bed)?;
    let reps = pick_representatives(&profiles);

    let n = profiles.len() as u64;
    let fig3 = Fig3Summary {
        topics: n,
        full_reads: profiles.iter().map(|p| p.full_reads).sum(),
        df_reads: profiles.iter().map(|p| p.df_reads).sum(),
        mean_savings_pct: if n == 0 {
            0.0
        } else {
            profiles.iter().map(|p| p.savings).sum::<f64>() / n as f64 * 100.0
        },
    };

    let mut figures = Vec::new();
    for (label, topic, kind) in [
        ("fig5", reps.query1, RefinementKind::AddOnly),
        ("fig6", reps.query2, RefinementKind::AddOnly),
        ("fig7", reps.query1, RefinementKind::AddDrop),
        ("fig8", reps.query2, RefinementKind::AddDrop),
    ] {
        let sequence = bed.sequence(topic, kind)?;
        let total_pages = profiles[topic].total_pages.max(8) as f64;
        let mut points: Vec<usize> = REPORT_FRACTIONS
            .iter()
            .map(|f| ((total_pages * f).round() as usize).max(1))
            .collect();
        points.dedup();
        for buffers in points {
            for (alg, policy) in COMBOS {
                let cfg = SessionConfig::new(alg, policy, buffers);
                bed.index.disk().reset_stats();
                let out = run_sequence(&bed.index, &sequence, cfg, None)?;
                figures.push(FigureCell {
                    figure: label.to_string(),
                    buffer_pages: buffers as u64,
                    combo: cfg.label(),
                    total_reads: out.total_disk_reads(),
                });
            }
        }
    }
    bed.index.disk().reset_stats();

    // Evaluation micro-kernels: every topic query, cold 128-page LRU
    // pool, one kernel per algorithm. DF (the state of practice) is
    // the latency-distribution population.
    let mut micro = Vec::new();
    let mut batching = BatchingSummary::default();
    let mut df_times: Vec<u64> = Vec::new();
    for (name, alg) in [
        ("eval_full", Algorithm::Full),
        ("eval_df", Algorithm::Df),
        ("eval_baf", Algorithm::Baf),
    ] {
        let mut total_us = 0u64;
        for topic in 0..bed.n_queries() {
            let query = bed.query(topic);
            let mut buffer = bed.index.make_buffer(128, PolicyKind::Lru)?;
            let started = Instant::now();
            evaluate(
                alg,
                &bed.index,
                &mut buffer,
                &query,
                EvalOptions {
                    params: FilterParams::PERSIN,
                    top_n: 20,
                    baf_force_first_page: false,
                    announce_query: true,
                    overlap_io: false,
                },
            )?;
            let us = started.elapsed().as_micros() as u64;
            total_us += us;
            batching.absorb(buffer.metrics());
            if alg == Algorithm::Df {
                df_times.push(us);
            }
        }
        micro.push(MicroRow {
            name: name.to_string(),
            ops: bed.n_queries() as u64,
            total_us,
            ops_per_sec: if total_us == 0 {
                0.0
            } else {
                bed.n_queries() as f64 * 1e6 / total_us as f64
            },
        });
    }
    df_times.sort_unstable();
    let total_us: u64 = df_times.iter().sum();
    let latency = LatencySummary {
        queries: df_times.len() as u64,
        p50_us: quantile_us(&df_times, 0.50),
        p99_us: quantile_us(&df_times, 0.99),
        total_us,
        throughput_qps: if total_us == 0 {
            0.0
        } else {
            df_times.len() as f64 * 1e6 / total_us as f64
        },
    };

    // Threaded-server sample: the four representative sessions
    // free-running over one shared pool sized like the chaos matrix's
    // (half the combined DF working set). Surfaces the server's
    // queries/sec and wall clock in the report; informational only.
    let server = {
        let users = [reps.query1, reps.query2, reps.query3, reps.query4];
        let specs: Vec<SessionSpec> = users
            .iter()
            .map(|&t| {
                bed.sequence(t, RefinementKind::AddOnly)
                    .map(|seq| SessionSpec::new(seq, Algorithm::Baf))
            })
            .collect::<Result<_, _>>()?;
        let total_frames: usize = users
            .iter()
            .map(|&t| profiles[t].df_reads as usize)
            .sum::<usize>()
            .max(2)
            / 2;
        let layout = PoolLayout::Shared {
            total_frames,
            policy: PolicyKind::Lru,
            global_history: false,
        };
        let report = SessionServer::new(&bed.index, layout).run(&specs, Schedule::FreeRunning)?;
        bed.index.disk().reset_stats();
        ServerSummary {
            sessions: specs.len() as u64,
            queries: report.ledger.len() as u64,
            total_reads: report.total_disk_reads(),
            wall_us: report.wall_us,
            queries_per_sec: report.queries_per_sec,
        }
    };

    // Adaptive-policy sample: the same four sessions, round-robin so
    // every number (reads, switches, shadow hits) is deterministic,
    // over one shared pool running the expert mixture.
    let adaptive = {
        let users = [reps.query1, reps.query2, reps.query3, reps.query4];
        let specs: Vec<SessionSpec> = users
            .iter()
            .map(|&t| {
                bed.sequence(t, RefinementKind::AddOnly)
                    .map(|seq| SessionSpec::new(seq, Algorithm::Baf))
            })
            .collect::<Result<_, _>>()?;
        let total_frames: usize = users
            .iter()
            .map(|&t| profiles[t].df_reads as usize)
            .sum::<usize>()
            .max(2)
            / 2;
        let layout = PoolLayout::Shared {
            total_frames,
            policy: PolicyKind::Adaptive,
            global_history: false,
        };
        let report = SessionServer::new(&bed.index, layout).run(&specs, Schedule::RoundRobin)?;
        bed.index.disk().reset_stats();
        AdaptiveSummary {
            queries: report.ledger.len() as u64,
            total_reads: report.total_disk_reads(),
            switches: report.adaptive.switches,
            shadow_hits: report.adaptive.shadow_hits,
        }
    };

    // Per-codec census (deterministic bytes) plus one instrumented
    // decode pass per codec, read back from the `ir-observe` decode
    // meters. Informational: decode wall time is machine-dependent.
    let codec = {
        let census = bed.index.codec_census()?;
        let timings = crate::codec::decode_pass(&bed.index, 1)?;
        CodecSummary {
            rows: ir_index::Codec::ALL
                .iter()
                .zip(&timings)
                .map(|(&c, t)| {
                    let s = census.get(c);
                    CodecRow {
                        codec: c.name().to_string(),
                        n_postings: s.n_postings,
                        compressed_bytes: s.compressed_bytes,
                        decoded_entries: t.entries,
                        decode_ns: t.best_ns,
                    }
                })
                .collect(),
        }
    };

    Ok(BenchReport {
        schema_version: SCHEMA_VERSION,
        scale,
        fig3,
        figures,
        latency,
        micro,
        batching,
        server,
        adaptive,
        codec,
        counters: ir_observe::global().snapshot().counters,
    })
}

/// Diffs `current` against `baseline`. Returns one message per
/// regression; empty means the gate passes. Read counts must match
/// exactly; wall times must stay within `tolerance` (a fraction, e.g.
/// 0.15 for ±15 %), checked only above a noise floor.
pub fn compare(baseline: &BenchReport, current: &BenchReport, tolerance: f64) -> Vec<String> {
    let mut problems = Vec::new();
    if baseline.schema_version != current.schema_version {
        problems.push(format!(
            "schema version mismatch: baseline v{}, current v{} — regenerate the baseline",
            baseline.schema_version, current.schema_version
        ));
        return problems;
    }
    if baseline.scale != current.scale {
        problems.push(format!(
            "scale mismatch: baseline {}, current {} — reports are not comparable",
            baseline.scale, current.scale
        ));
        return problems;
    }
    if baseline.fig3.full_reads != current.fig3.full_reads {
        problems.push(format!(
            "fig3 full-evaluation reads changed: {} -> {}",
            baseline.fig3.full_reads, current.fig3.full_reads
        ));
    }
    if baseline.fig3.df_reads != current.fig3.df_reads {
        problems.push(format!(
            "fig3 DF reads changed: {} -> {}",
            baseline.fig3.df_reads, current.fig3.df_reads
        ));
    }
    for b in &baseline.figures {
        match current.figures.iter().find(|c| {
            c.figure == b.figure && c.buffer_pages == b.buffer_pages && c.combo == b.combo
        }) {
            None => problems.push(format!(
                "{} {}@{} pages: cell missing from current report",
                b.figure, b.combo, b.buffer_pages
            )),
            Some(c) if c.total_reads != b.total_reads => problems.push(format!(
                "{} {}@{} pages: disk reads changed {} -> {}",
                b.figure, b.combo, b.buffer_pages, b.total_reads, c.total_reads
            )),
            Some(_) => {}
        }
    }
    if current.figures.len() != baseline.figures.len() {
        problems.push(format!(
            "figure cell count changed: {} -> {} — regenerate the baseline",
            baseline.figures.len(),
            current.figures.len()
        ));
    }
    let time_checks = [
        (
            "DF eval total wall time",
            baseline.latency.total_us,
            current.latency.total_us,
        ),
        (
            "DF eval p99 latency",
            baseline.latency.p99_us,
            current.latency.p99_us,
        ),
    ];
    for (what, base, cur) in time_checks {
        if base < TIME_NOISE_FLOOR_US || cur < TIME_NOISE_FLOOR_US {
            continue;
        }
        let ratio = cur as f64 / base as f64;
        if ratio > 1.0 + tolerance {
            problems.push(format!(
                "{what} regressed beyond ±{:.0} %: {base} µs -> {cur} µs ({:+.1} %)",
                tolerance * 100.0,
                (ratio - 1.0) * 100.0
            ));
        }
    }
    problems
}

/// Serializes a report as JSON.
pub fn to_json(report: &BenchReport) -> String {
    serde_json::to_string(report).expect("report serialization cannot fail")
}

/// Parses a report from JSON.
pub fn from_json(text: &str) -> Result<BenchReport, String> {
    serde_json::from_str(text).map_err(|e| format!("{e:?}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report() -> BenchReport {
        BenchReport {
            schema_version: SCHEMA_VERSION,
            scale: 0.0625,
            fig3: Fig3Summary {
                topics: 4,
                full_reads: 100,
                df_reads: 60,
                mean_savings_pct: 40.0,
            },
            figures: vec![FigureCell {
                figure: "fig5".into(),
                buffer_pages: 16,
                combo: "BAF/RAP".into(),
                total_reads: 42,
            }],
            latency: LatencySummary {
                queries: 4,
                p50_us: 10_000,
                p99_us: 20_000,
                total_us: 50_000,
                throughput_qps: 80.0,
            },
            micro: vec![MicroRow {
                name: "eval_df".into(),
                ops: 4,
                total_us: 50_000,
                ops_per_sec: 80.0,
            }],
            batching: BatchingSummary {
                batches: 9,
                pages: 31,
                pages_per_batch_bounds: vec![1, 2, 4],
                pages_per_batch_counts: vec![2, 3, 4, 0],
                hinted_inserts: 12,
                hint_abs_error_milli: 250,
            },
            server: ServerSummary {
                sessions: 4,
                queries: 24,
                total_reads: 310,
                wall_us: 42_000,
                queries_per_sec: 571.4,
            },
            adaptive: AdaptiveSummary {
                queries: 24,
                total_reads: 305,
                switches: 2,
                shadow_hits: vec![("LRU".into(), 11), ("RAP".into(), 17)],
            },
            codec: CodecSummary {
                rows: vec![
                    CodecRow {
                        codec: "golden".into(),
                        n_postings: 1000,
                        compressed_bytes: 1100,
                        decoded_entries: 1000,
                        decode_ns: 9_000,
                    },
                    CodecRow {
                        codec: "re-pair".into(),
                        n_postings: 1000,
                        compressed_bytes: 800,
                        decoded_entries: 1000,
                        decode_ns: 21_000,
                    },
                ],
            },
            counters: vec![("index.pages_decoded".into(), 7)],
        }
    }

    #[test]
    fn identical_reports_pass_the_gate() {
        let r = report();
        assert!(compare(&r, &r, 0.15).is_empty());
    }

    #[test]
    fn read_count_changes_fail_exactly() {
        let base = report();
        let mut cur = report();
        cur.figures[0].total_reads += 1;
        cur.fig3.df_reads -= 1;
        let problems = compare(&base, &cur, 0.15);
        assert_eq!(problems.len(), 2, "{problems:?}");
        assert!(problems.iter().any(|p| p.contains("fig5")));
        assert!(problems.iter().any(|p| p.contains("DF reads")));
    }

    #[test]
    fn wall_time_has_tolerance_but_not_unlimited() {
        let base = report();
        let mut cur = report();
        cur.latency.total_us = (base.latency.total_us as f64 * 1.10) as u64;
        assert!(
            compare(&base, &cur, 0.15).is_empty(),
            "+10 % is inside ±15 %"
        );
        cur.latency.total_us = (base.latency.total_us as f64 * 1.30) as u64;
        let problems = compare(&base, &cur, 0.15);
        assert_eq!(problems.len(), 1, "{problems:?}");
        assert!(problems[0].contains("wall time"));
    }

    #[test]
    fn tiny_times_are_not_compared() {
        let mut base = report();
        let mut cur = report();
        base.latency.total_us = 100;
        base.latency.p99_us = 50;
        cur.latency.total_us = 400; // 4× — but under the noise floor
        cur.latency.p99_us = 200;
        assert!(compare(&base, &cur, 0.15).is_empty());
    }

    #[test]
    fn schema_version_mismatch_short_circuits() {
        let base = report();
        let mut cur = report();
        cur.schema_version += 1;
        cur.fig3.df_reads = 0; // would otherwise also fail
        let problems = compare(&base, &cur, 0.15);
        assert_eq!(problems.len(), 1);
        assert!(problems[0].contains("schema version"));
    }

    #[test]
    fn report_round_trips_through_json() {
        let r = report();
        let back = from_json(&to_json(&r)).unwrap();
        assert_eq!(back.schema_version, r.schema_version);
        assert_eq!(back.fig3.df_reads, r.fig3.df_reads);
        assert_eq!(back.figures.len(), 1);
        assert_eq!(back.figures[0].combo, "BAF/RAP");
        assert_eq!(back.figures[0].total_reads, 42);
        assert_eq!(back.latency.p99_us, 20_000);
        assert_eq!(back.micro[0].name, "eval_df");
        assert_eq!(back.batching, r.batching);
        assert_eq!(back.server.sessions, 4);
        assert_eq!(back.server.queries, 24);
        assert_eq!(back.server.wall_us, 42_000);
        assert_eq!(back.adaptive, r.adaptive);
        assert_eq!(back.codec, r.codec);
        assert_eq!(back.counters, r.counters);
    }

    #[test]
    fn pre_batching_baselines_read_back_as_zeros() {
        // A baseline recorded before the batching summary existed has
        // no "batching" field; it must still load (with zeros), and
        // the gate must still pass against a current report.
        let r = report();
        let mut v = serde::Serialize::to_value(&r);
        match &mut v {
            serde::Value::Obj(fields) => fields.retain(|(k, _)| k != "batching"),
            other => panic!("report serialized as non-object: {other:?}"),
        }
        let old = <BenchReport as serde::Deserialize>::from_value(&v).unwrap();
        assert_eq!(old.batching, BatchingSummary::default());
        assert!(
            compare(&old, &r, 0.15).is_empty(),
            "batching is informational"
        );
    }

    #[test]
    fn pre_server_baselines_read_back_as_zeros() {
        // Same back-compat contract for the threaded-server summary:
        // a baseline without a "server" field loads with zeros and
        // still passes the gate.
        let r = report();
        let mut v = serde::Serialize::to_value(&r);
        match &mut v {
            serde::Value::Obj(fields) => fields.retain(|(k, _)| k != "server"),
            other => panic!("report serialized as non-object: {other:?}"),
        }
        let old = <BenchReport as serde::Deserialize>::from_value(&v).unwrap();
        assert_eq!(old.server, ServerSummary::default());
        assert!(
            compare(&old, &r, 0.15).is_empty(),
            "server summary is informational"
        );
    }

    #[test]
    fn pre_adaptive_baselines_read_back_as_zeros() {
        // Same back-compat contract for the adaptive sample: a
        // baseline without an "adaptive" field loads with zeros and
        // still passes the gate.
        let r = report();
        let mut v = serde::Serialize::to_value(&r);
        match &mut v {
            serde::Value::Obj(fields) => fields.retain(|(k, _)| k != "adaptive"),
            other => panic!("report serialized as non-object: {other:?}"),
        }
        let old = <BenchReport as serde::Deserialize>::from_value(&v).unwrap();
        assert_eq!(old.adaptive, AdaptiveSummary::default());
        assert!(
            compare(&old, &r, 0.15).is_empty(),
            "adaptive sample is informational"
        );
    }

    #[test]
    fn pre_codec_baselines_read_back_as_zeros() {
        // Same back-compat contract for the codec census: a baseline
        // without a "codec" field loads empty and still passes the
        // gate.
        let r = report();
        let mut v = serde::Serialize::to_value(&r);
        match &mut v {
            serde::Value::Obj(fields) => fields.retain(|(k, _)| k != "codec"),
            other => panic!("report serialized as non-object: {other:?}"),
        }
        let old = <BenchReport as serde::Deserialize>::from_value(&v).unwrap();
        assert_eq!(old.codec, CodecSummary::default());
        assert!(
            compare(&old, &r, 0.15).is_empty(),
            "codec census is informational"
        );
    }

    #[test]
    fn codec_rows_derive_per_entry_figures() {
        let r = report();
        let golden = &r.codec.rows[0];
        assert!((golden.bytes_per_entry() - 1.1).abs() < 1e-12);
        assert!((golden.decode_us_per_entry() - 0.009).abs() < 1e-12);
        assert_eq!(CodecRow::default().bytes_per_entry(), 0.0);
        assert_eq!(CodecRow::default().decode_us_per_entry(), 0.0);
    }

    #[test]
    fn quantiles_index_the_sorted_population() {
        let v: Vec<u64> = (1..=100).collect();
        // Nearest-rank on 100 points: index round(99·0.5) = 50 → value 51.
        assert_eq!(quantile_us(&v, 0.50), 51);
        assert_eq!(quantile_us(&v, 0.99), 99);
        assert_eq!(quantile_us(&[], 0.99), 0);
        assert_eq!(quantile_us(&[7], 0.5), 7);
    }
}
