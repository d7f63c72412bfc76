//! The three workloads. Each runs in epochs: one epoch is a fixed
//! piece of work defined by the seed (every session, or every topic
//! query, once), so counts taken over whole epochs repeat exactly. Each
//! epoch, or each server run on `sessions-2`, is also a timed slice, from
//! which the wall-clock figures are taken.

use crate::alloc;
use crate::checks::{QueryPrint, Tally, TOP_N};
use crate::host;
use crate::setup::TestBed;
use crate::stats::Slice;
use crate::trace::{self, span, Layer, TracedBuffer, TracedStore};
use ir_core::eval::{evaluate, EvalOptions};
use ir_core::{Algorithm, Hit, Query, QueryResult, RefinementKind, RefinementSequence};
use ir_engine::{PoolLayout, Schedule, SessionServer, SessionSpec};
use ir_storage::{
    BufferManager, FilePageStore, IoConfig, IoScheduler, LatencyModel, PageStore, PolicyKind,
    QueryBuffer,
};
use ir_types::{ClockKind, IrResult, TermId};
use std::sync::Arc;
use std::time::Instant;

/// How an epoch is run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mode {
    /// Untraced: the end-to-end measurement.
    Plain,
    /// Untraced, with the run-queue wait of every thread sampled.
    Watched,
    /// Through the forwarding wrappers, recording spans and counting
    /// allocations.
    Traced,
}

/// What a sequence of epochs measured.
#[derive(Debug, Default)]
pub struct Phase {
    pub tally: Tally,
    pub latencies_ms: Vec<f64>,
    /// Epochs run.
    pub epochs: u64,
    /// Per timed slice (an epoch, or one server run): the latency
    /// samples it added, its wall time and the CPU time stolen from the
    /// machine meanwhile, s.
    pub slices: Vec<Slice>,
    /// Allocations inside the counted calls (traced epochs only).
    pub allocs: u64,
    /// Run-queue wait sampled over every thread (watched epochs of
    /// multi-threaded workloads only), ns.
    pub sampled_wait_ns: u64,
    /// Reads the device performed, prefetches included.
    pub device_reads: u64,
    pub sequential_reads: u64,
    /// Demand reads the scheduler served: device reads on the demand
    /// path plus prefetch-cache hits.
    pub demand_served: u64,
    pub overlap_hits: u64,
    pub prefetch_wasted: u64,
    pub io_wait_us: u64,
    pub decode_ns: u64,
    pub decoded_entries: u64,
    pub lock_wait_us: u64,
    pub batch_splits: u64,
}

impl Phase {
    /// Closes a slice whose latencies are all recorded.
    fn add_slice(&mut self, (wall_s, steal_s): (f64, f64)) {
        let before: usize = self.slices.iter().map(|s| s.samples).sum();
        self.slices.push(Slice {
            samples: self.latencies_ms.len() - before,
            wall_s,
            steal_s,
        });
    }

    /// Wall time of all slices, s.
    pub fn wall_s(&self) -> f64 {
        self.slices.iter().map(|s| s.wall_s).sum()
    }
}

/// Wall time and stolen CPU time since a slice began.
struct SliceTimer {
    started: Instant,
    steal_s: f64,
}

impl SliceTimer {
    fn start() -> Self {
        SliceTimer {
            steal_s: host::steal_s(),
            started: Instant::now(),
        }
    }

    fn stop(&self) -> (f64, f64) {
        let wall_s = self.started.elapsed().as_secs_f64();
        (wall_s, host::steal_s() - self.steal_s)
    }
}

/// A workload: a fixed epoch of work, repeatable at will.
pub trait Bench {
    /// Runs one epoch into `phase`. Returns the epoch's per-query
    /// prints when they are a deterministic function of the seed.
    fn epoch(&mut self, mode: Mode, phase: &mut Phase) -> Result<Option<Vec<QueryPrint>>, String>;
}

fn options() -> EvalOptions {
    EvalOptions::with_top_n(TOP_N)
}

/// Resolves and evaluates one query, timing the two calls as spans;
/// counts the evaluation's allocations when traced.
fn run_query<B: QueryBuffer>(
    bed: &TestBed,
    buffer: &mut B,
    terms: &[(TermId, u32)],
    algorithm: Algorithm,
    mode: Mode,
    phase: &mut Phase,
) -> IrResult<(QueryResult, usize)> {
    let started = Instant::now();
    let query = span(Layer::Query, "from_ids", 0, || {
        Query::from_ids(&bed.index, terms)
    });
    let result = query.and_then(|query| {
        let before = alloc::allocations();
        if mode == Mode::Traced {
            alloc::set_counting(true);
        }
        let result = span(Layer::Eval, "evaluate", 0, || {
            evaluate(algorithm, &bed.index, buffer, &query, options())
        });
        if mode == Mode::Traced {
            alloc::set_counting(false);
            phase.allocs += alloc::allocations() - before;
        }
        result.map(|r| (r, query.len()))
    });
    phase
        .latencies_ms
        .push(started.elapsed().as_secs_f64() * 1e3);
    trace::end_query();
    result
}

/// `refine`: one user, one refinement session per topic, each with a
/// fresh RAP pool of half the session's distinct pages over the
/// in-memory simulator, evaluated with BAF.
pub struct Refine<'a> {
    pub bed: &'a TestBed,
}

impl Refine<'_> {
    fn sessions<B: QueryBuffer>(
        &self,
        mode: Mode,
        phase: &mut Phase,
        mut make: impl FnMut(usize) -> IrResult<B>,
    ) -> Result<Vec<QueryPrint>, String> {
        let mut prints = Vec::new();
        for s in &self.bed.sessions {
            let frames = (s.distinct_pages as usize / 2).max(1);
            let mut buffer = make(frames).map_err(|e| format!("pool of {frames}: {e}"))?;
            for terms in &s.steps {
                match run_query(self.bed, &mut buffer, terms, Algorithm::Baf, mode, phase) {
                    Ok((r, n)) => {
                        let rel = &self.bed.relevant[s.topic];
                        prints.push(phase.tally.record(&r.hits, &r.stats, n, rel, Ok(())));
                    }
                    Err(e) => phase.tally.record_error(format!("topic {}: {e}", s.topic)),
                }
            }
            phase.tally.evictions += buffer.stats().evictions;
        }
        Ok(prints)
    }
}

impl Bench for Refine<'_> {
    fn epoch(&mut self, mode: Mode, phase: &mut Phase) -> Result<Option<Vec<QueryPrint>>, String> {
        let disk = self.bed.index.disk();
        let before = disk.stats();
        let reads_before = phase.tally.disk_reads;
        let timer = SliceTimer::start();
        let prints = if mode == Mode::Traced {
            self.sessions(mode, phase, |frames| {
                let store = TracedStore::new(Arc::clone(disk), Layer::Device);
                BufferManager::new(store, frames, PolicyKind::Rap).map(TracedBuffer)
            })?
        } else {
            self.sessions(mode, phase, |frames| {
                self.bed.index.make_buffer(frames, PolicyKind::Rap)
            })?
        };
        phase.add_slice(timer.stop());
        let after = disk.stats();
        let reads = after.reads - before.reads;
        phase.device_reads += reads;
        phase.demand_served += reads;
        phase.sequential_reads += after.sequential_reads - before.sequential_reads;
        let answered = phase.tally.disk_reads - reads_before;
        if reads != answered {
            phase.tally.fail(format!(
                "store read {reads} pages but queries report {answered} disk reads"
            ));
        }
        Ok(Some(prints))
    }
}

/// The `adhoc-disk` device: queue depth 4, seek 20 µs, transfer 5 µs.
/// Modeled waits are accounted on the virtual clock, not slept: on a
/// shared 2-vCPU virtual machine the wake-up delay of thousands of short
/// sleeps per second swamped the workload (p99 latency spread 31–43 %
/// of its median over five runs). The `pread`, checksum and decode work
/// is real either way, and the modeled wait is reported per layer.
pub const ADHOC_IO: IoConfig = IoConfig {
    queue_depth: 4,
    model: LatencyModel {
        seek_us: 20,
        transfer_us: 5,
    },
    clock: ClockKind::Virtual,
};

/// `adhoc-disk`: one client sends every full topic query once per
/// epoch, evaluated with DF through an LRU pool of a quarter of the
/// mean query's pages, over the exported page file behind the I/O
/// scheduler. Each epoch starts a fresh pool and scheduler, so every
/// epoch sees the same page stream.
pub struct AdhocDisk<'a> {
    bed: &'a TestBed,
    frames: usize,
    /// DF answers per epoch position, computed over the in-memory
    /// simulator with an ample pool.
    reference: Vec<Vec<Hit>>,
}

impl<'a> AdhocDisk<'a> {
    /// Sizes the pool and computes the reference answers (outside any
    /// timing).
    pub fn new(bed: &'a TestBed) -> Result<Self, String> {
        let pages: u64 = bed
            .adhoc
            .iter()
            .map(|(_, terms)| {
                terms
                    .iter()
                    .map(|&(t, _)| u64::from(bed.index.n_pages(t).unwrap_or(0)))
                    .sum::<u64>()
            })
            .sum();
        let frames = ((pages / bed.adhoc.len().max(1) as u64 / 4) as usize).max(1);
        let mut reference = Vec::with_capacity(bed.adhoc.len());
        for (topic, terms) in &bed.adhoc {
            let query = Query::from_ids(&bed.index, terms).map_err(|e| e.to_string())?;
            let ample = (query.total_pages() as usize).max(1);
            let mut pool = bed
                .index
                .make_buffer(ample, PolicyKind::Lru)
                .map_err(|e| e.to_string())?;
            let r = evaluate(Algorithm::Df, &bed.index, &mut pool, &query, options())
                .map_err(|e| format!("reference answer for topic {topic}: {e}"))?;
            reference.push(r.hits);
        }
        bed.index.disk().reset_stats();
        Ok(AdhocDisk {
            bed,
            frames,
            reference,
        })
    }

    fn queries<X: PageStore, B: QueryBuffer>(
        &self,
        sched: &IoScheduler<X>,
        mut buffer: B,
        mode: Mode,
        phase: &mut Phase,
    ) -> Vec<QueryPrint> {
        let mut prints = Vec::with_capacity(self.bed.adhoc.len());
        let reads_before = phase.tally.disk_reads;
        for (pos, (topic, terms)) in self.bed.adhoc.iter().enumerate() {
            match run_query(self.bed, &mut buffer, terms, Algorithm::Df, mode, phase) {
                Ok((r, n)) => {
                    let reference = &self.reference[pos];
                    let same = r.hits.len() == reference.len()
                        && r.hits
                            .iter()
                            .zip(reference)
                            .all(|(a, b)| a.doc == b.doc && a.score.to_bits() == b.score.to_bits());
                    let extra = if same {
                        Ok(())
                    } else {
                        Err(format!(
                            "topic {topic}: DF answer over the page file differs from the \
                             in-memory reference"
                        ))
                    };
                    let relevant = &self.bed.relevant[*topic];
                    prints.push(phase.tally.record(&r.hits, &r.stats, n, relevant, extra));
                }
                Err(e) => phase.tally.record_error(format!("topic {topic}: {e}")),
            }
        }
        phase.tally.evictions += buffer.stats().evictions;
        let m = sched.metrics();
        let served = m.demand_reads.get() + m.overlap_hits.get();
        let answered = phase.tally.disk_reads - reads_before;
        if served != answered {
            phase.tally.fail(format!(
                "scheduler served {served} demand reads but queries report {answered}"
            ));
        }
        phase.demand_served += served;
        phase.overlap_hits += m.overlap_hits.get();
        phase.prefetch_wasted += m.prefetch_wasted.get();
        phase.io_wait_us += sched.io_wait_us();
        prints
    }

    fn file(&self) -> &Arc<FilePageStore> {
        self.bed
            .page_file
            .as_ref()
            .expect("adhoc-disk set-up exports the page file")
    }
}

impl Bench for AdhocDisk<'_> {
    fn epoch(&mut self, mode: Mode, phase: &mut Phase) -> Result<Option<Vec<QueryPrint>>, String> {
        let file = Arc::clone(self.file());
        let codec = self.bed.index.codec().name();
        let registry = ir_observe::global();
        let decode_ns = registry.histogram(
            &format!("index.decode_ns.{codec}"),
            &ir_observe::DECODE_NS_BOUNDS,
        );
        let decoded = registry.counter(&format!("index.decoded_entries.{codec}"));
        let (ns0, entries0) = (decode_ns.sum(), decoded.get());
        let before = file.stats();
        let timer = SliceTimer::start();
        let prints = if mode == Mode::Traced {
            let device = TracedStore::new(Arc::clone(&file), Layer::Device);
            let sched = Arc::new(IoScheduler::new(device, ADHOC_IO));
            let store = TracedStore::new(Arc::clone(&sched), Layer::Sched);
            let pool = BufferManager::new(store, self.frames, PolicyKind::Lru)
                .map_err(|e| e.to_string())?;
            self.queries(&sched, TracedBuffer(pool), mode, phase)
        } else {
            let sched = Arc::new(IoScheduler::new(Arc::clone(&file), ADHOC_IO));
            let pool = BufferManager::new(Arc::clone(&sched), self.frames, PolicyKind::Lru)
                .map_err(|e| e.to_string())?;
            self.queries(&sched, pool, mode, phase)
        };
        phase.add_slice(timer.stop());
        let after = file.stats();
        phase.device_reads += after.reads - before.reads;
        phase.sequential_reads += after.sequential_reads - before.sequential_reads;
        phase.decode_ns += decode_ns.sum() - ns0;
        phase.decoded_entries += decoded.get() - entries0;
        Ok(Some(prints))
    }
}

/// `sessions-2`: two users through `SessionServer::run`, free-running,
/// sharing one sharded RAP pool. An epoch is [`SERVER_RUNS`] server runs
/// over consecutive slices of the seeded session order; in each run the
/// two users take alternate sessions and concatenate them into one
/// sequence.
pub struct Sessions2<'a> {
    bed: &'a TestBed,
    runs: Vec<ServerRun>,
}

/// The sessions one `SessionServer::run` serves.
struct ServerRun {
    specs: Vec<SessionSpec>,
    /// Topic of every step, per user.
    topics: Vec<Vec<usize>>,
}

/// Users of `sessions-2`; with the driving thread waiting, the run uses
/// two threads.
pub const USERS: usize = 2;

/// Server runs per `sessions-2` epoch. Each run's queries are timed as
/// one slice, so latency windows stay short: two busy threads on the
/// two-vCPU host are the most exposed to time stolen by other tenants,
/// and a short window keeps a burst of it from moving a whole run.
const SERVER_RUNS: usize = 10;

/// The shared pool of `sessions-2`.
pub const SESSIONS_LAYOUT: PoolLayout = PoolLayout::Sharded {
    total_frames: 2000,
    policy: PolicyKind::Rap,
    shards: 4,
};

impl<'a> Sessions2<'a> {
    pub fn new(bed: &'a TestBed) -> Self {
        let per_run = bed.sessions.len().div_ceil(SERVER_RUNS).max(1);
        let runs = bed
            .sessions
            .chunks(per_run)
            .map(|chunk| {
                let mut specs = Vec::with_capacity(USERS);
                let mut topics = Vec::with_capacity(USERS);
                for user in 0..USERS {
                    let mine: Vec<_> = chunk.iter().skip(user).step_by(USERS).collect();
                    let sequence = RefinementSequence {
                        kind: RefinementKind::AddOnly,
                        source: mine.first().map_or(0, |s| s.topic),
                        steps: mine.iter().flat_map(|s| s.steps.iter().cloned()).collect(),
                    };
                    topics.push(
                        mine.iter()
                            .flat_map(|s| std::iter::repeat_n(s.topic, s.steps.len()))
                            .collect(),
                    );
                    specs.push(SessionSpec {
                        options: options(),
                        ..SessionSpec::new(sequence, Algorithm::Baf)
                    });
                }
                ServerRun { specs, topics }
            })
            .collect();
        Sessions2 { bed, runs }
    }

    fn serve(&self, run: &ServerRun, mode: Mode, phase: &mut Phase) -> Result<(), String> {
        let server = SessionServer::new(&self.bed.index, SESSIONS_LAYOUT);
        let serve = || server.run(&run.specs, Schedule::FreeRunning);
        let disk = self.bed.index.disk();
        let before = disk.stats();
        let timer = SliceTimer::start();
        let report = match mode {
            Mode::Plain => serve(),
            Mode::Watched => {
                let (report, wait) = host::with_process_wait(serve);
                phase.sampled_wait_ns += wait;
                report
            }
            Mode::Traced => {
                let before = alloc::allocations();
                alloc::set_counting(true);
                let report = span(Layer::Server, "SessionServer::run", 0, serve);
                alloc::set_counting(false);
                phase.allocs += alloc::allocations() - before;
                trace::end_query();
                report
            }
        }
        .map_err(|e| format!("server: {e}"))?;
        let slice = timer.stop();
        let after = disk.stats();
        phase.device_reads += after.reads - before.reads;
        phase.sequential_reads += after.sequential_reads - before.sequential_reads;
        for (user, outcome) in report.sessions.iter().enumerate() {
            let planned = &run.specs[user].sequence.steps;
            let steps = &outcome.sequence().steps;
            for (step, s) in steps.iter().enumerate() {
                let n = Query::from_ids(&self.bed.index, &planned[step]).map_or(0, |q| q.len());
                let relevant = &self.bed.relevant[run.topics[user][step]];
                phase.tally.record(&s.hits, &s.stats, n, relevant, Ok(()));
            }
            // A failed session stops at the failing step: that step and
            // every later one count as attempted and failed.
            if let Some(e) = outcome.error() {
                let missing = (planned.len() - steps.len()) as u64;
                phase.tally.queries += missing;
                phase
                    .tally
                    .fail_n(missing.max(1), format!("user {user}: {e}"));
            }
        }
        phase
            .latencies_ms
            .extend(report.ledger.entries.iter().map(|c| c.eval_us as f64 / 1e3));
        phase.tally.evictions += report.pool_stats.evictions;
        phase.lock_wait_us += report.lock_wait_us;
        phase.batch_splits += report.batch_splits;
        phase.add_slice(slice);
        Ok(())
    }
}

impl Bench for Sessions2<'_> {
    fn epoch(&mut self, mode: Mode, phase: &mut Phase) -> Result<Option<Vec<QueryPrint>>, String> {
        for run in &self.runs {
            self.serve(run, mode, phase)?;
        }
        Ok(None)
    }
}
