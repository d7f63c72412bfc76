//! The buffir benchmark: builds the testbed, runs one workload as a
//! closed loop (each user sends its next query only after the previous
//! answer), checks every answer and prints the metrics as one JSON
//! line.
//!
//! ```text
//! perfbench --workload <refine|adhoc-disk|sessions-2> [--seed N]
//!           [--seconds S] [--trace 0|1]
//! ```
//!
//! `--trace 0` prints the end-to-end metrics of an untraced run.
//! `--trace 1` runs half the time untraced and half through the
//! forwarding wrappers of `trace.rs`, and prints the per-layer metrics.
//! See `README.md` for the workloads and metrics.

mod alloc;
mod checks;
mod host;
mod setup;
mod stats;
mod trace;
mod workloads;

use checks::{ratio, QueryPrint};
use stats::{median, percentile_with_tail, quartiles, windows, Slice};
use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;
use trace::Layer;
use workloads::{AdhocDisk, Bench, Mode, Phase, Refine, Sessions2};

#[global_allocator]
static ALLOC: alloc::CountingAlloc = alloc::CountingAlloc;

/// Directory, relative to the working directory, for everything a run
/// writes: the exported page file and the span file.
pub const OUT_DIR: &str = ".bench_out";

/// The default seed: the paper preset's corpus generator seed.
const DEFAULT_SEED: u64 = 0x5161_9d98;

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    Refine,
    AdhocDisk,
    Sessions2,
}

impl Workload {
    const ALL: [Workload; 3] = [Workload::Refine, Workload::AdhocDisk, Workload::Sessions2];

    fn name(self) -> &'static str {
        match self {
            Workload::Refine => "refine",
            Workload::AdhocDisk => "adhoc-disk",
            Workload::Sessions2 => "sessions-2",
        }
    }

    fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

const USAGE: &str = "usage: perfbench --workload <refine|adhoc-disk|sessions-2> \
                     [--seed N] [--seconds S] [--trace 0|1]";

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(Workload::parse(&value).ok_or(format!("unknown workload {value:?}"))?)
            }
            "--seed" => seed = value.parse().map_err(|_| format!("bad seed {value:?}"))?,
            "--seconds" => {
                seconds = value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s > 0.0)
                    .ok_or(format!("bad seconds {value:?}"))?
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad trace {value:?}")),
                }
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

/// Removes the exported page file however the run ends.
struct PageFileGuard;

impl Drop for PageFileGuard {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(setup::page_file_path());
    }
}

/// Runs epochs in `mode` until `seconds` have passed and at least
/// [`WINDOW`] queries ran. Epochs whose prints differ from
/// `reference` count each differing query as failed.
fn run_phase(
    bench: &mut dyn Bench,
    mode: Mode,
    seconds: f64,
    reference: Option<&[QueryPrint]>,
) -> Result<Phase, String> {
    let mut phase = Phase::default();
    let started = Instant::now();
    loop {
        let prints = bench.epoch(mode, &mut phase)?;
        phase.epochs += 1;
        if let (Some(want), Some(got)) = (reference, prints) {
            let differing = want.len().abs_diff(got.len())
                + want.iter().zip(&got).filter(|(a, b)| a != b).count();
            if differing > 0 {
                phase.tally.fail_n(
                    differing as u64,
                    format!("{differing} queries' reads or answers differ from the first epoch's"),
                );
            }
        }
        if started.elapsed().as_secs_f64() >= seconds && phase.latencies_ms.len() >= WINDOW {
            return Ok(phase);
        }
    }
}

struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

fn m(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// Queries per latency window: enough that each window's 99th
/// percentile has at least ten samples beyond it. A measured phase runs
/// at least one window.
const WINDOW: usize = 1000;

/// Largest share of the machine's CPU time the host may have stolen
/// during a window for the window to count as undisturbed.
const MAX_STEAL: f64 = 0.02;

/// CPUs of the machine, for shares of its CPU time.
fn cpus() -> f64 {
    std::thread::available_parallelism().map_or(1, |n| n.get()) as f64
}

/// The figures a run reports: `(qps, p50, p99)` of each window of at
/// least [`WINDOW`] consecutive queries, taken from the undisturbed
/// windows when there are any, and how many windows there were.
struct Figures {
    windows: Vec<[f64; 3]>,
    total: usize,
}

/// Splits `phase` into windows. A run reports medians over them, so a
/// burst of interference from other tenants of the host moves one
/// window's figures, not the run's; windows during which the host
/// withheld more than [`MAX_STEAL`] of the machine's CPU time are left
/// out unless every window was disturbed.
fn window_figures(phase: &Phase) -> Result<Figures, String> {
    let wins = windows(&phase.slices, WINDOW);
    if wins.is_empty() {
        return Err(format!("fewer than {WINDOW} queries measured"));
    }
    let calm = |w: &Slice| w.steal_s <= MAX_STEAL * w.wall_s * cpus();
    let any_calm = wins.iter().any(|(_, w)| calm(w));
    let windows = wins
        .iter()
        .filter(|(_, w)| !any_calm || calm(w))
        .map(|(range, w)| {
            let lat = &phase.latencies_ms[range.clone()];
            let p50 = median(lat).expect("a window is not empty");
            match percentile_with_tail(lat, 99, 10) {
                Some((99, p99)) => Ok([ratio(lat.len() as f64, w.wall_s), p50, p99]),
                _ => Err(format!("a window of {} queries has no p99", lat.len())),
            }
        })
        .collect::<Result<_, _>>()?;
    Ok(Figures {
        windows,
        total: wins.len(),
    })
}

impl Figures {
    /// Median over the reported windows of figure `i`.
    fn median(&self, i: usize) -> f64 {
        median(&self.windows.iter().map(|f| f[i]).collect::<Vec<_>>()).expect("at least one window")
    }
}

/// Wall-clock figures of `phase`: `qps`, `latency_p50_ms` and
/// `latency_p99_ms`, printed on their own line. They carry no bound: on
/// the shared host the benchmark was built on, the machine's speed
/// drifted by a quarter or more over minutes, so their run-to-run spread
/// exceeded any bound the benchmark may set.
fn wall_clock(phase: &Phase) -> Result<[Metric; 3], String> {
    let figures = window_figures(phase)?;
    println!(
        "{} queries in {} windows of at least {WINDOW}, {} of them with at most {}% of the \
         CPU time stolen by the host; the figures below are medians over those, each \
         window's p99 with at least 10 queries beyond it",
        phase.latencies_ms.len(),
        figures.total,
        figures.windows.len(),
        MAX_STEAL * 100.0,
    );
    let qps: Vec<f64> = figures.windows.iter().map(|f| f[0]).collect();
    let (q1, _, q3) = quartiles(&qps).unwrap_or((qps[0], qps[0], qps[0]));
    let metrics = [
        m("qps", figures.median(0), "1/s"),
        m("latency_p50_ms", figures.median(1), "ms"),
        m("latency_p99_ms", figures.median(2), "ms"),
    ];
    println!(
        "wall clock (no bound): qps {} 1/s (window quartiles {q1:.1} / {q3:.1}), \
         latency_p50_ms {} ms, latency_p99_ms {} ms",
        metrics[0].value, metrics[1].value, metrics[2].value
    );
    Ok(metrics)
}

fn end_to_end(phase: &Phase, setup_s: f64) -> Result<Vec<Metric>, String> {
    wall_clock(phase)?;
    let t = &phase.tally;
    Ok(vec![
        m("reads_per_query", t.per_query(t.disk_reads as f64), "count"),
        m("map", t.per_query(t.ap_sum), "ratio"),
        m(
            "answered_frac",
            (1.0 - ratio(t.failed as f64, t.queries as f64)).max(0.0),
            "ratio",
        ),
        m("setup_s", setup_s, "s"),
        m("rss_peak_mb", host::rss_peak_mb()?, "MiB"),
    ])
}

fn per_layer(
    setups: &[setup::SetupTimes],
    watched: &Phase,
    wait_ns: u64,
    traced: &Phase,
    sums: &trace::LayerSums,
) -> Result<Vec<Metric>, String> {
    let [qps, p50, p99] = wall_clock(watched)?;
    let med = |f: fn(&setup::SetupTimes) -> f64| {
        median(&setups.iter().map(f).collect::<Vec<_>>()).unwrap_or(0.0)
    };
    let t = &traced.tally;
    let q = |x: u64| t.per_query(x as f64);
    let per_epoch = |x: u64| ratio(x as f64, traced.epochs as f64);
    let traced_qps = window_figures(traced)?.median(0);
    Ok(vec![
        m("wall.qps", qps.value, qps.unit),
        m("wall.latency_p50_ms", p50.value, p50.unit),
        m("wall.latency_p99_ms", p99.value, p99.unit),
        m("setup.corpus_s", med(|s| s.corpus_s), "s"),
        m("setup.index_s", med(|s| s.index_s), "s"),
        m("setup.sequences_s", med(|s| s.sequences_s), "s"),
        m("setup.export_s", med(|s| s.export_s), "s"),
        m(
            "query.resolve_us",
            sums.per_query_us(sums.total_ns[Layer::Query as usize]),
            "us",
        ),
        m(
            "eval.self_us",
            sums.per_query_us(sums.self_of(Layer::Eval)),
            "us",
        ),
        m("eval.allocs_per_query", q(traced.allocs), "count"),
        m("eval.entries_per_query", q(t.entries), "count"),
        m("eval.bt_inquiries_per_query", q(t.bt_inquiries), "count"),
        m("eval.peak_accumulators", q(t.peak_accumulators), "count"),
        m(
            "eval.terms_scanned_frac",
            ratio(t.terms_scanned as f64, t.query_terms as f64),
            "ratio",
        ),
        m(
            "eval.estimate_abs_error_per_query",
            q(t.estimate_abs_error),
            "count",
        ),
        m(
            "pool.self_us",
            sums.per_query_us(sums.self_of(Layer::Pool)),
            "us",
        ),
        m(
            "pool.begin_query_us",
            sums.per_query_us(sums.begin_query_ns),
            "us",
        ),
        m("pool.bt_us", sums.per_query_us(sums.bt_ns), "us"),
        m(
            "pool.hit_ratio",
            ratio(t.buffer_hits as f64, t.pages_processed as f64),
            "ratio",
        ),
        m("pool.evictions_per_query", q(t.evictions), "count"),
        m(
            "pool.pages_per_batch",
            ratio(t.pages_processed as f64, t.batches as f64),
            "count",
        ),
        m(
            "pool.lock_wait_ms",
            per_epoch(traced.lock_wait_us) / 1e3,
            "ms",
        ),
        m("pool.batch_splits", per_epoch(traced.batch_splits), "count"),
        m(
            "store.read_us",
            ratio(
                sums.device_read_ns as f64 / 1e3,
                sums.device_read_pages as f64,
            ),
            "us",
        ),
        m(
            "store.io_wait_ms_per_query",
            q(traced.io_wait_us) / 1e3,
            "ms",
        ),
        m(
            "store.device_reads_per_query",
            q(traced.device_reads),
            "count",
        ),
        m(
            "store.overlap_frac",
            ratio(traced.overlap_hits as f64, traced.demand_served as f64),
            "ratio",
        ),
        m(
            "store.prefetch_useful_frac",
            ratio(
                traced.overlap_hits as f64,
                (traced.overlap_hits + traced.prefetch_wasted) as f64,
            ),
            "ratio",
        ),
        m(
            "store.sequential_frac",
            ratio(traced.sequential_reads as f64, traced.device_reads as f64),
            "ratio",
        ),
        m(
            "codec.decode_ns_per_entry",
            ratio(traced.decode_ns as f64, traced.decoded_entries as f64),
            "ns",
        ),
        m(
            "codec.entries_per_query",
            q(traced.decoded_entries),
            "count",
        ),
        m(
            "host.cpu_wait_ms",
            ratio(wait_ns as f64 / 1e6, watched.wall_s()),
            "ms/s",
        ),
        m(
            "host.steal_frac",
            ratio(
                watched.slices.iter().map(|s| s.steal_s).sum(),
                watched.wall_s() * cpus(),
            ),
            "ratio",
        ),
        m(
            "trace.overhead_frac",
            1.0 - ratio(traced_qps, qps.value),
            "ratio",
        ),
    ])
}

struct Outcome {
    metrics: Vec<Metric>,
    attempted: u64,
    failed: u64,
    first_failure: Option<String>,
}

fn run(args: &Args) -> Result<Outcome, String> {
    std::fs::create_dir_all(OUT_DIR).map_err(|e| format!("creating {OUT_DIR}: {e}"))?;
    let _cleanup = PageFileGuard;

    let mut setups = Vec::with_capacity(SETUPS);
    let mut bed = None;
    for _ in 0..SETUPS {
        drop(bed.take()); // free the previous testbed before building the next
        let (b, times) = setup::build(args.workload, args.seed)?;
        setups.push(times);
        bed = Some(b);
    }
    let bed = bed.expect("SETUPS >= 1");
    let setup_s =
        median(&setups.iter().map(|s| s.total()).collect::<Vec<_>>()).expect("SETUPS >= 1");

    let mut bench: Box<dyn Bench> = match args.workload {
        Workload::Refine => Box::new(Refine { bed: &bed }),
        Workload::AdhocDisk => Box::new(AdhocDisk::new(&bed)?),
        Workload::Sessions2 => Box::new(Sessions2::new(&bed)),
    };

    // A warm-up epoch, untimed: it lets lazy set-up finish and gives the
    // prints every later epoch must reproduce.
    let mut warm = Phase::default();
    let reference = bench.epoch(Mode::Plain, &mut warm)?;
    let reference = reference.as_deref();

    let (metrics, phases) = if args.trace {
        let half = args.seconds / 2.0;
        let wait0 = host::thread_wait_ns()?;
        let watched = run_phase(bench.as_mut(), Mode::Watched, half, reference)?;
        let wait = host::thread_wait_ns()? - wait0 + watched.sampled_wait_ns;
        trace::start();
        let traced = run_phase(bench.as_mut(), Mode::Traced, half, reference)?;
        let sums = trace::stop();
        let path =
            Path::new(OUT_DIR).join(format!("spans-{}-{}.tsv", args.workload.name(), args.seed));
        let kept = trace::write_kept(&path).map_err(|e| format!("writing spans: {e}"))?;
        println!("{kept} spans written to {}", path.display());
        let metrics = per_layer(&setups, &watched, wait, &traced, &sums)?;
        (metrics, vec![warm, watched, traced])
    } else {
        let plain = run_phase(bench.as_mut(), Mode::Plain, args.seconds, reference)?;
        (end_to_end(&plain, setup_s)?, vec![warm, plain])
    };
    let mut outcome = Outcome {
        metrics,
        attempted: 0,
        failed: 0,
        first_failure: None,
    };
    for p in phases {
        outcome.attempted += p.tally.queries;
        outcome.failed += p.tally.failed;
        if outcome.first_failure.is_none() {
            outcome.first_failure = p.tally.first_failure;
        }
    }
    Ok(outcome)
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let outcome = match run(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    if let Some(f) = &outcome.first_failure {
        eprintln!("perfbench: {} failed checks; first: {f}", outcome.failed);
    }
    let correct = outcome.failed == 0 && outcome.metrics.iter().all(|m| m.value.is_finite());
    let mut json = format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        outcome.attempted.max(1),
        outcome.failed
    );
    for (i, metric) in outcome.metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let value = if metric.value.is_finite() {
            metric.value
        } else {
            0.0
        };
        let _ = write!(
            json,
            "{sep}\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
            metric.name, metric.unit
        );
    }
    json.push_str("}}");
    println!("{json}");
    if !correct {
        std::process::exit(1);
    }
}
