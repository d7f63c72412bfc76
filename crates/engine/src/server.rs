//! The multi-session server: N concurrent refinement sessions over one
//! buffer configuration (paper §3.3).
//!
//! The paper sketches two ways to extend RAP to multiple users —
//! partitioned pools with cross-user borrowing, and a shared pool with
//! a merged ("global") query history — and leaves the trade-off open.
//! [`SessionServer`] makes both runnable: each session drives its own
//! refinement sequence on its own OS thread, fetching pages through a
//! thread-safe view of the chosen pool layout. Locking is per page
//! fetch, so sessions genuinely interleave inside a single query, the
//! contention pattern a time-sliced multi-user IR server produces.
//!
//! Two schedules are offered. [`Schedule::FreeRunning`] lets the OS
//! interleave sessions arbitrarily — the realistic mode. Per-session
//! counters stay exact even here: every fetch reports its own outcome
//! (hit, miss, borrow) to the calling session inside the fetch's
//! critical section, so attribution never leaks across sessions.
//! [`Schedule::RoundRobin`] additionally passes a turn token so
//! refinement `k` of user `u` always runs after refinement `k` of user
//! `u − 1`: the page request stream itself becomes deterministic,
//! which is what a reproducible experiment needs.
//!
//! ## Fault tolerance
//!
//! The server is built to degrade, not collapse:
//!
//! * The store can be wrapped in a seeded [`FaultStore`]
//!   ([`SessionServer::with_faults`]) injecting transient read errors,
//!   torn pages and latency spikes; sessions then ride the pool's
//!   bounded retry ([`SessionServer::with_fetch_policy`]).
//! * A session that hits a terminal [`IrError`] — or panics — is
//!   reported as [`SessionOutcome::Failed`] while every other session
//!   runs to completion. The round-robin turnstile uses poison-free
//!   `parking_lot` primitives and failed sessions keep taking their
//!   turns, so no panic can wedge the schedule.

use crate::ledger::{query_cost, CostLedger, QueryCost};
use ir_core::eval::{evaluate, EvalOptions};
use ir_core::{Algorithm, Query, RefinementSequence, SequenceOutcome, StepOutcome};
use ir_index::InvertedIndex;
use ir_observe::{MetricsSnapshot, SpanKind};
use ir_storage::{
    BufferManager, BufferStats, DiskSim, FaultConfig, FaultStats, FaultStore, FetchOutcome,
    FetchPolicy, Page, PageStore, PartitionHandle, PartitionedBuffer, PolicyKind, QueryBuffer,
    ShardedBufferPool, SharedBufferManager, SharedPartitionedBuffer,
};
use ir_types::{BatchHandle, IrError, IrResult, ReadPlan, TermId};
use parking_lot::{Condvar, Mutex};
use std::collections::HashMap;
use std::sync::Arc;

/// The store every server pool reads from: the simulated disk behind a
/// (by default disabled) fault-injection layer.
type ServerStore = FaultStore<Arc<DiskSim>>;

/// How the server provisions buffer memory for its sessions.
#[derive(Clone, Copy, Debug)]
pub enum PoolLayout {
    /// One pool shared by every session (paper §3.3, option 2).
    Shared {
        /// Pool size in frames.
        total_frames: usize,
        /// Replacement policy for the shared pool.
        policy: PolicyKind,
        /// Maintain a global query history: every announcement is the
        /// per-term **max** over all sessions' current queries, so one
        /// user's re-valuation cannot zero another user's pages. Only
        /// meaningful for query-aware policies (RAP).
        global_history: bool,
    },
    /// One private partition per session over the shared store, with
    /// read-only sibling borrowing (paper §3.3, option 1).
    Partitioned {
        /// Frames in each session's partition.
        frames_each: usize,
        /// Replacement policy run inside every partition.
        policy: PolicyKind,
    },
    /// One lock-striped pool shared by every session
    /// ([`ShardedBufferPool`]): frames are partitioned over `shards`
    /// shards by page-id hash, each behind its own mutex, so
    /// concurrent hits on different shards never contend. With
    /// `shards = 1` this is behaviourally identical to
    /// [`PoolLayout::Shared`] without global history; with more shards
    /// it is the opt-in scaling configuration (each shard evicts its
    /// local minimum — a documented approximation of global RAP).
    Sharded {
        /// Pool size in frames, summed over all shards.
        total_frames: usize,
        /// Replacement policy run inside every shard.
        policy: PolicyKind,
        /// Number of lock stripes (`P ≥ 1`).
        shards: usize,
    },
}

/// How session threads are interleaved.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Schedule {
    /// No coordination: the OS scheduler interleaves page requests.
    /// Realistic; per-session counters stay exact (per-fetch outcome
    /// attribution), but the request stream varies run to run.
    FreeRunning,
    /// Refinements proceed in lockstep round-robin order (user 0's
    /// step `k`, then user 1's step `k`, ...): deterministic request
    /// stream, reproducible counters.
    RoundRobin,
}

/// One session's workload: a refinement sequence and how to evaluate
/// it.
#[derive(Clone, Debug)]
pub struct SessionSpec {
    /// The refinement sequence this session submits.
    pub sequence: RefinementSequence,
    /// Evaluation algorithm (the paper's multi-user runs use BAF).
    pub algorithm: Algorithm,
    /// Evaluation knobs. `announce_query` should stay `true`; under
    /// [`PoolLayout::Shared`] with `global_history` the server
    /// intercepts the announcement and merges it into the global
    /// history before it reaches the pool.
    pub options: EvalOptions,
    /// Chaos hook: panic deliberately before evaluating this step
    /// (0-based). The panic is caught by the session guard and must
    /// degrade to [`SessionOutcome::Failed`] without disturbing the
    /// other sessions — the property the chaos suite asserts.
    pub chaos_panic_at: Option<u32>,
}

impl SessionSpec {
    /// A session with the paper's default evaluation options.
    pub fn new(sequence: RefinementSequence, algorithm: Algorithm) -> Self {
        SessionSpec {
            sequence,
            algorithm,
            options: EvalOptions::default(),
            chaos_panic_at: None,
        }
    }
}

/// How one session's run ended.
#[derive(Clone, Debug)]
pub enum SessionOutcome {
    /// Every refinement evaluated.
    Completed(SequenceOutcome),
    /// The session hit a terminal error (or panicked) and stopped
    /// evaluating; the steps completed before the failure are kept.
    Failed {
        /// Outcomes of the steps that finished before the failure.
        completed: SequenceOutcome,
        /// What ended the session.
        error: IrError,
    },
}

impl SessionOutcome {
    /// The steps this session did evaluate (all of them when
    /// [`Completed`](SessionOutcome::Completed)).
    pub fn sequence(&self) -> &SequenceOutcome {
        match self {
            SessionOutcome::Completed(s) => s,
            SessionOutcome::Failed { completed, .. } => completed,
        }
    }

    /// The terminal error, if the session failed.
    pub fn error(&self) -> Option<&IrError> {
        match self {
            SessionOutcome::Completed(_) => None,
            SessionOutcome::Failed { error, .. } => Some(error),
        }
    }

    /// True when the session did not finish its sequence.
    pub fn is_failed(&self) -> bool {
        matches!(self, SessionOutcome::Failed { .. })
    }

    /// Disk reads over the evaluated steps.
    pub fn total_disk_reads(&self) -> u64 {
        self.sequence().total_disk_reads()
    }
}

/// Adaptive-replacement activity a run's pool reported (all zero when
/// the configured policy is a static one).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct AdaptiveStats {
    /// Leader changes the adaptive policy made.
    pub switches: u64,
    /// `(expert name, shadow hits)` pairs, sorted by expert name.
    pub shadow_hits: Vec<(String, u64)>,
}

impl AdaptiveStats {
    /// Harvests the `adaptive.*` counters out of a pool's metric dump.
    pub fn from_dump(dump: &MetricsSnapshot) -> AdaptiveStats {
        let mut stats = AdaptiveStats::default();
        for (name, value) in &dump.counters {
            if name == "adaptive.switches" {
                stats.switches = *value;
            } else if let Some(expert) = name.strip_prefix("adaptive.shadow_hits.") {
                stats.shadow_hits.push((expert.to_string(), *value));
            }
        }
        stats.shadow_hits.sort();
        stats
    }

    /// Whether the run's policy reported any adaptive instrumentation.
    pub fn is_active(&self) -> bool {
        !self.shadow_hits.is_empty()
    }
}

/// What a [`SessionServer::run`] call observed.
#[derive(Clone, Debug)]
pub struct ServerReport {
    /// Per-session outcomes, in spec order.
    pub sessions: Vec<SessionOutcome>,
    /// Pool counters aggregated over every session's traffic.
    pub pool_stats: BufferStats,
    /// Disk reads avoided by cross-partition borrowing (always 0 for
    /// [`PoolLayout::Shared`]).
    pub sibling_hits: u64,
    /// Total frames provisioned across the layout.
    pub total_frames: usize,
    /// Frames occupied when the last session finished.
    pub final_occupancy: usize,
    /// Sum of per-term resident page counts (`b_t`) at the end of the
    /// run. Always equals `final_occupancy`: every frame holds exactly
    /// one page of exactly one term's list.
    pub resident_term_pages: u64,
    /// Store reads re-attempted under the pool's [`FetchPolicy`].
    pub retries: u64,
    /// Fetches abandoned after exhausting the retry budget.
    pub gave_up: u64,
    /// Checksum-failing (torn) deliveries the pool rejected.
    pub torn_pages: u64,
    /// What the fault-injection layer did (all-zero when faults are
    /// disabled).
    pub fault_stats: FaultStats,
    /// One [`QueryCost`] row per evaluated refinement, across every
    /// session. Hits, misses and borrows are attributed per fetch, so
    /// rows are exact under either schedule.
    pub ledger: CostLedger,
    /// Wall-clock time of the whole run (spawn to last join), µs.
    pub wall_us: u64,
    /// Evaluated queries per second of wall-clock time — the
    /// throughput axis of the concurrency benchmarks. 0 when nothing
    /// ran.
    pub queries_per_sec: f64,
    /// Total time sessions spent waiting on shard locks, µs (0 for
    /// non-sharded layouts, where the single mutex's wait is not
    /// instrumented). Accumulated at nanosecond resolution — sub-µs
    /// contended waits no longer truncate to zero — then reported in µs.
    pub lock_wait_us: u64,
    /// Read plans that spanned more than one shard (0 for non-sharded
    /// layouts).
    pub batch_splits: u64,
    /// Switch counts and per-expert shadow hits when the pool runs an
    /// adaptive replacement policy (all zero otherwise).
    pub adaptive: AdaptiveStats,
}

impl ServerReport {
    /// Total disk reads over all sessions (the paper's cost metric).
    pub fn total_disk_reads(&self) -> u64 {
        self.sessions
            .iter()
            .map(SessionOutcome::total_disk_reads)
            .sum()
    }

    /// The sessions that failed, as `(index, error)` pairs.
    pub fn failed_sessions(&self) -> Vec<(usize, &IrError)> {
        self.sessions
            .iter()
            .enumerate()
            .filter_map(|(i, s)| s.error().map(|e| (i, e)))
            .collect()
    }
}

/// Turn token for [`Schedule::RoundRobin`]: thread `u` runs global
/// turn `step · n + u`, so queries execute in the exact order the
/// single-threaded round-robin driver would submit them. Poison-free
/// (`parking_lot`): a session that panics mid-turn cannot wedge the
/// waiters behind it.
#[derive(Debug, Default)]
struct Turnstile {
    turn: Mutex<usize>,
    cv: Condvar,
}

impl Turnstile {
    fn wait_for(&self, t: usize) {
        let mut turn = self.turn.lock();
        while *turn < t {
            turn = self.cv.wait(turn);
        }
    }

    fn advance(&self) {
        *self.turn.lock() += 1;
        self.cv.notify_all();
    }
}

/// Shared registry of every session's current query weights, for the
/// global-history layout. Announcements merge by per-term max, the
/// paper's "if a term is shared by many queries, the highest
/// `w_{q,t}` could be used".
type WeightRegistry = Mutex<Vec<HashMap<TermId, f64>>>;

/// The buffer view one session thread evaluates against.
#[derive(Debug)]
enum SessionBuffer {
    Shared(SharedBufferManager<Arc<ServerStore>>),
    GlobalShared {
        pool: SharedBufferManager<Arc<ServerStore>>,
        registry: Arc<WeightRegistry>,
        user: usize,
    },
    Partition(PartitionHandle<ServerStore>),
    Sharded(ShardedBufferPool<ServerStore>),
}

impl SessionBuffer {
    /// The pool behind this session's view.
    fn pool(&self) -> &dyn QueryBuffer {
        match self {
            SessionBuffer::Shared(p) | SessionBuffer::GlobalShared { pool: p, .. } => p,
            SessionBuffer::Partition(h) => h,
            SessionBuffer::Sharded(p) => p,
        }
    }

    /// [`pool`](Self::pool), mutably.
    fn pool_mut(&mut self) -> &mut dyn QueryBuffer {
        match self {
            SessionBuffer::Shared(p) | SessionBuffer::GlobalShared { pool: p, .. } => p,
            SessionBuffer::Partition(h) => h,
            SessionBuffer::Sharded(p) => p,
        }
    }
}

/// Every call forwards to the session's pool, so a plan submission
/// or completion is one critical section on that pool, and the
/// sharded pool's batched `b_t` sweep stays one pass. Only the query
/// announcement differs: the global-history layout merges it with the
/// other sessions' current weights first.
impl QueryBuffer for SessionBuffer {
    fn submit_batch(&mut self, plan: ReadPlan) -> IrResult<BatchHandle> {
        self.pool_mut().submit_batch(plan)
    }

    fn complete_into(
        &mut self,
        handle: BatchHandle,
        out: &mut Vec<(Page, FetchOutcome)>,
    ) -> IrResult<()> {
        self.pool_mut().complete_into(handle, out)
    }

    fn cancel_batch(&mut self, handle: BatchHandle) {
        self.pool_mut().cancel_batch(handle);
    }

    fn overlap_depth(&self) -> usize {
        self.pool().overlap_depth()
    }

    fn plan_alignment(&self) -> Option<u32> {
        self.pool().plan_alignment()
    }

    fn resident_pages(&self, term: TermId) -> u32 {
        self.pool().resident_pages(term)
    }

    fn resident_pages_many(&self, terms: &[TermId]) -> Vec<u32> {
        self.pool().resident_pages_many(terms)
    }

    fn begin_query(&mut self, weights: &HashMap<TermId, f64>) {
        let SessionBuffer::GlobalShared {
            pool,
            registry,
            user,
        } = self
        else {
            return self.pool_mut().begin_query(weights);
        };
        let merged = {
            let mut reg = registry.lock();
            reg[*user] = weights.clone();
            let mut merged: HashMap<TermId, f64> = HashMap::new();
            for per_user in reg.iter() {
                for (&t, &w) in per_user {
                    let e = merged.entry(t).or_insert(w);
                    if w > *e {
                        *e = w;
                    }
                }
            }
            merged
        };
        pool.begin_query(&merged);
    }

    fn stats(&self) -> BufferStats {
        self.pool().stats()
    }

    fn borrows(&self) -> u64 {
        self.pool().borrows()
    }
}

/// The pool a run provisions, in its thread-shareable form.
#[derive(Debug)]
enum ServerPool {
    Shared {
        pool: SharedBufferManager<Arc<ServerStore>>,
        registry: Option<Arc<WeightRegistry>>,
    },
    Partitioned(SharedPartitionedBuffer<ServerStore>),
    Sharded(ShardedBufferPool<ServerStore>),
}

/// Extracts a printable message from a caught panic payload.
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "opaque panic payload".to_string()
    }
}

/// Runs N refinement sessions concurrently against one buffer layout.
///
/// Each [`run`](SessionServer::run) provisions a **cold** pool (the
/// paper clears the cache before each sequence, §5.2.1), spawns one
/// scoped thread per [`SessionSpec`], and joins them all before
/// returning, so the report reflects a complete, quiesced run.
#[derive(Clone, Copy, Debug)]
pub struct SessionServer<'a> {
    index: &'a InvertedIndex,
    layout: PoolLayout,
    faults: FaultConfig,
    fetch_policy: FetchPolicy,
}

impl<'a> SessionServer<'a> {
    /// A server over `index` with the given pool layout, faults
    /// disabled and no fetch retries.
    pub fn new(index: &'a InvertedIndex, layout: PoolLayout) -> Self {
        SessionServer {
            index,
            layout,
            faults: FaultConfig::DISABLED,
            fetch_policy: FetchPolicy::NO_RETRY,
        }
    }

    /// Injects seeded faults between the pool and the simulated disk.
    pub fn with_faults(mut self, faults: FaultConfig) -> Self {
        self.faults = faults;
        self
    }

    /// Sets the retry/backoff policy every pool fetch runs under.
    pub fn with_fetch_policy(mut self, policy: FetchPolicy) -> Self {
        self.fetch_policy = policy;
        self
    }

    /// The layout sessions run against.
    pub fn layout(&self) -> PoolLayout {
        self.layout
    }

    /// Runs one session per spec, all concurrently, and reports the
    /// combined outcome.
    ///
    /// A session that hits an evaluation error or panics is degraded
    /// to [`SessionOutcome::Failed`]; it stops evaluating but keeps
    /// taking its round-robin turns, so the other sessions always run
    /// to completion and the report is still `Ok`.
    ///
    /// # Errors
    /// Pool construction errors only ([`IrError::EmptyBufferPool`]).
    pub fn run(&self, specs: &[SessionSpec], schedule: Schedule) -> IrResult<ServerReport> {
        let n = specs.len();
        let store = Arc::new(FaultStore::new(Arc::clone(self.index.disk()), self.faults));
        if n == 0 {
            return Ok(ServerReport {
                sessions: Vec::new(),
                pool_stats: BufferStats::default(),
                sibling_hits: 0,
                total_frames: 0,
                final_occupancy: 0,
                resident_term_pages: 0,
                retries: 0,
                gave_up: 0,
                torn_pages: 0,
                fault_stats: FaultStats::default(),
                ledger: CostLedger::new(),
                wall_us: 0,
                queries_per_sec: 0.0,
                lock_wait_us: 0,
                batch_splits: 0,
                adaptive: AdaptiveStats::default(),
            });
        }
        let (pool, total_frames) = match self.layout {
            PoolLayout::Shared {
                total_frames,
                policy,
                global_history,
            } => {
                let mut bm = BufferManager::new(Arc::clone(&store), total_frames, policy)?;
                bm.set_fetch_policy(self.fetch_policy);
                let registry = global_history
                    .then(|| Arc::new(Mutex::new(vec![HashMap::<TermId, f64>::new(); n])));
                (
                    ServerPool::Shared {
                        pool: SharedBufferManager::new(bm),
                        registry,
                    },
                    total_frames,
                )
            }
            PoolLayout::Partitioned {
                frames_each,
                policy,
            } => {
                let mut pb = PartitionedBuffer::new(Arc::clone(&store), n, frames_each, policy)?;
                pb.set_fetch_policy(self.fetch_policy);
                (
                    ServerPool::Partitioned(SharedPartitionedBuffer::new(pb)),
                    frames_each * n,
                )
            }
            PoolLayout::Sharded {
                total_frames,
                policy,
                shards,
            } => {
                let pool =
                    ShardedBufferPool::new(Arc::clone(&store), total_frames, policy, shards)?;
                pool.set_fetch_policy(self.fetch_policy);
                (ServerPool::Sharded(pool), total_frames)
            }
        };
        let max_steps = specs
            .iter()
            .map(|s| s.sequence.steps.len())
            .max()
            .unwrap_or(0);
        let turns = Turnstile::default();
        let index = self.index;
        type SessionRun = (SequenceOutcome, Vec<QueryCost>, Option<IrError>);
        let run_started = std::time::Instant::now();
        let results: Vec<SessionRun> = crossbeam::thread::scope(|scope| {
            let mut handles = Vec::with_capacity(n);
            for (user, spec) in specs.iter().enumerate() {
                let mut buffer = match &pool {
                    ServerPool::Shared { pool, registry } => match registry {
                        Some(reg) => SessionBuffer::GlobalShared {
                            pool: pool.clone(),
                            registry: Arc::clone(reg),
                            user,
                        },
                        None => SessionBuffer::Shared(pool.clone()),
                    },
                    ServerPool::Partitioned(p) => SessionBuffer::Partition(
                        p.handle(user)
                            .expect("one partition per session by construction"),
                    ),
                    ServerPool::Sharded(p) => SessionBuffer::Sharded(p.clone()),
                };
                let turns = &turns;
                let store = Arc::clone(&store);
                handles.push(scope.spawn(move |_| {
                    let mut sspan =
                        ir_observe::tracer().span(SpanKind::Session, format!("user:{user}"));
                    sspan.attr("steps", spec.sequence.steps.len() as i64);
                    let mut steps = Vec::with_capacity(spec.sequence.steps.len());
                    let mut costs = Vec::with_capacity(spec.sequence.steps.len());
                    let mut failure: Option<IrError> = None;
                    for step in 0..max_steps {
                        if schedule == Schedule::RoundRobin {
                            turns.wait_for(step * n + user);
                        }
                        if failure.is_none() {
                            if let Some(terms) = spec.sequence.steps.get(step) {
                                let started = std::time::Instant::now();
                                // Store-level I/O wait, attributed by
                                // delta. Exact under RoundRobin (one
                                // query in flight); under FreeRun a
                                // concurrent query's waits can land in
                                // this row — totals stay correct.
                                let io_wait_before = store.io_wait_us();
                                // A panic inside evaluation must not
                                // strand the other sessions at the
                                // turnstile: catch it and fail this
                                // session like any other error.
                                let outcome =
                                    std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                                        if spec.chaos_panic_at == Some(step as u32) {
                                            panic!("chaos: injected panic at step {step}");
                                        }
                                        Query::from_ids(index, terms).and_then(|q| {
                                            evaluate(
                                                spec.algorithm,
                                                index,
                                                &mut buffer,
                                                &q,
                                                spec.options,
                                            )
                                        })
                                    }))
                                    .unwrap_or_else(
                                        |payload| {
                                            Err(IrError::SessionPanicked(panic_message(payload)))
                                        },
                                    );
                                match outcome {
                                    Ok(result) => {
                                        costs.push(query_cost(
                                            user as u32,
                                            step as u32,
                                            &result.stats,
                                            started.elapsed().as_micros() as u64,
                                            store.io_wait_us() - io_wait_before,
                                        ));
                                        steps.push(StepOutcome {
                                            stats: result.stats,
                                            hits: result.hits,
                                            avg_precision: None,
                                        });
                                    }
                                    Err(e) => failure = Some(e),
                                }
                            }
                        }
                        if schedule == Schedule::RoundRobin {
                            turns.advance();
                        }
                    }
                    sspan.attr(
                        "disk_reads",
                        steps.iter().map(|s| s.stats.disk_reads).sum::<u64>() as i64,
                    );
                    (SequenceOutcome { steps }, costs, failure)
                }));
            }
            handles
                .into_iter()
                .map(|h| {
                    h.join().unwrap_or_else(|payload| {
                        (
                            SequenceOutcome { steps: Vec::new() },
                            Vec::new(),
                            Some(IrError::SessionPanicked(panic_message(payload))),
                        )
                    })
                })
                .collect()
        })
        .expect("session scope cannot fail: all threads are joined");
        let wall_us = run_started.elapsed().as_micros() as u64;
        let mut sessions = Vec::with_capacity(n);
        let mut ledger = CostLedger::new();
        for (outcome, costs, failure) in results {
            for cost in costs {
                ledger.record(cost);
            }
            sessions.push(match failure {
                None => SessionOutcome::Completed(outcome),
                Some(error) => SessionOutcome::Failed {
                    completed: outcome,
                    error,
                },
            });
        }
        let n_terms = self.index.lexicon().len() as u32;
        let all_terms = (0..n_terms).map(TermId);
        let (mut lock_wait_us, mut batch_splits) = (0u64, 0u64);
        let (
            pool_stats,
            sibling_hits,
            final_occupancy,
            resident_term_pages,
            retries,
            gave_up,
            torn,
            adaptive,
        ) = match &pool {
            ServerPool::Shared { pool, .. } => pool.with(|bm| {
                let b_t: u64 = all_terms.map(|t| u64::from(bm.resident_pages(t))).sum();
                let m = bm.metrics();
                (
                    bm.stats(),
                    0,
                    bm.len(),
                    b_t,
                    m.retries.get(),
                    m.gave_up.get(),
                    m.torn_pages.get(),
                    AdaptiveStats::from_dump(&m.dump()),
                )
            }),
            ServerPool::Partitioned(p) => p.with(|pb| {
                let b_t: u64 = all_terms
                    .map(|t| {
                        (0..pb.n_partitions())
                            .map(|pid| u64::from(pb.resident_pages(pid, t)))
                            .sum::<u64>()
                    })
                    .sum();
                (
                    pb.total_stats(),
                    pb.sibling_hits(),
                    pb.occupancy(),
                    b_t,
                    pb.retries(),
                    pb.gave_up(),
                    pb.torn_pages(),
                    AdaptiveStats::from_dump(&pb.merged_dump()),
                )
            }),
            ServerPool::Sharded(p) => {
                // Replay every shard's deferred hit effects before
                // snapshotting: the lock-light fast path parks policy
                // and observer work in `pending_hits`, so a rollup
                // taken without draining it reports stale policy state
                // — the adaptive stats below come from policy `on_hit`
                // callbacks that have not run yet. The buffer counters
                // themselves are eager; quiescing keeps the whole
                // report one consistent snapshot.
                p.quiesce();
                let metrics = p.metrics();
                // The histogram is nanosecond-resolution (sub-µs shard
                // waits used to truncate to 0); the report stays in µs.
                lock_wait_us = metrics.lock_wait_ns.sum() / 1_000;
                batch_splits = metrics.batch_splits.get();
                // One pass over the shards for the whole lexicon's b_t
                // rollup instead of an all-shard lock per term.
                let term_ids: Vec<TermId> = all_terms.collect();
                let b_t: u64 = p
                    .resident_pages_many(&term_ids)
                    .into_iter()
                    .map(u64::from)
                    .sum();
                (
                    ShardedBufferPool::stats(p),
                    0,
                    p.len(),
                    b_t,
                    p.retries(),
                    p.gave_up(),
                    p.torn_pages(),
                    AdaptiveStats::from_dump(&p.merged_dump()),
                )
            }
        };
        let queries_per_sec = queries_per_sec(ledger.len(), wall_us);
        Ok(ServerReport {
            sessions,
            pool_stats,
            sibling_hits,
            total_frames,
            final_occupancy,
            resident_term_pages,
            retries,
            gave_up,
            torn_pages: torn,
            fault_stats: store.stats(),
            ledger,
            wall_us,
            queries_per_sec,
            lock_wait_us,
            batch_splits,
            adaptive,
        })
    }
}

/// Evaluated-queries-per-second of wall clock. Tiny runs on fast
/// machines can finish inside the clock's µs resolution; saturate as
/// if the run took one µs instead of reporting 0 qps for work that
/// demonstrably happened. 0.0 is reserved for runs that evaluated
/// nothing.
fn queries_per_sec(evaluated: usize, wall_us: u64) -> f64 {
    if evaluated == 0 {
        0.0
    } else if wall_us == 0 {
        evaluated as f64 * 1_000_000.0
    } else {
        evaluated as f64 / (wall_us as f64 / 1_000_000.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ir_index::{BuildOptions, IndexBuilder};
    use ir_types::IndexParams;

    /// A collection where four topic terms overlap in every document
    /// mix, so concurrent sessions contend for the same pages.
    fn index() -> InvertedIndex {
        let mut b = IndexBuilder::new();
        for d in 0..60u32 {
            // Every doc carries a filler term with positive idf, so no
            // candidate ever has a zero-length weight vector.
            let mut doc = vec![["red", "green", "blue"][(d % 3) as usize]];
            if d % 2 == 0 {
                doc.push("alpha");
            }
            if d % 3 == 0 {
                doc.push("beta");
            }
            if d % 4 == 0 {
                doc.push("gamma");
            }
            if d % 5 == 0 {
                doc.push("delta");
            }
            if d % 7 == 0 {
                doc.extend(["epsilon", "epsilon"]);
            }
            b.add_document(doc);
        }
        b.build(BuildOptions {
            params: IndexParams::with_page_size(2),
            ..BuildOptions::default()
        })
        .unwrap()
    }

    /// An ADD-ONLY sequence over `names`: step k queries names[..=k].
    fn seq(idx: &InvertedIndex, names: &[&str]) -> RefinementSequence {
        let t = |n: &str| idx.lexicon().lookup(n).unwrap();
        let steps = (0..names.len())
            .map(|k| names[..=k].iter().map(|n| (t(n), 1)).collect())
            .collect();
        RefinementSequence {
            kind: ir_core::RefinementKind::AddOnly,
            source: 0,
            steps,
        }
    }

    /// Four users whose refinements all lean on the common terms.
    fn specs(idx: &InvertedIndex) -> Vec<SessionSpec> {
        [
            ["alpha", "beta", "gamma"],
            ["beta", "alpha", "delta"],
            ["gamma", "alpha", "epsilon"],
            ["delta", "beta", "alpha"],
        ]
        .iter()
        .map(|names| SessionSpec::new(seq(idx, names), Algorithm::Baf))
        .collect()
    }

    #[test]
    fn four_threaded_sessions_on_a_shared_pool_keep_invariants() {
        let idx = index();
        let server = SessionServer::new(
            &idx,
            PoolLayout::Shared {
                total_frames: 12,
                policy: PolicyKind::Lru,
                global_history: false,
            },
        );
        let report = server.run(&specs(&idx), Schedule::FreeRunning).unwrap();
        assert_eq!(report.sessions.len(), 4);
        assert!(report
            .sessions
            .iter()
            .all(|s| !s.is_failed() && s.sequence().steps.len() == 3));
        let s = report.pool_stats;
        assert_eq!(s.hits + s.misses, s.requests, "{s:?}");
        assert!(report.final_occupancy <= report.total_frames);
        assert_eq!(report.resident_term_pages, report.final_occupancy as u64);
        // Per-fetch outcome attribution: even under FreeRunning the
        // per-session read counts carve up the pool's misses exactly.
        assert_eq!(report.pool_stats.misses, report.total_disk_reads());
        assert!(s.misses > 0);
    }

    #[test]
    fn round_robin_read_attribution_matches_the_pool() {
        let idx = index();
        let server = SessionServer::new(
            &idx,
            PoolLayout::Shared {
                total_frames: 12,
                policy: PolicyKind::Lru,
                global_history: false,
            },
        );
        let report = server.run(&specs(&idx), Schedule::RoundRobin).unwrap();
        assert_eq!(report.pool_stats.misses, report.total_disk_reads());
        assert_eq!(
            report.pool_stats.hits + report.pool_stats.misses,
            report.pool_stats.requests
        );
    }

    #[test]
    fn round_robin_schedule_is_deterministic() {
        let idx = index();
        for layout in [
            PoolLayout::Shared {
                total_frames: 10,
                policy: PolicyKind::Rap,
                global_history: true,
            },
            PoolLayout::Partitioned {
                frames_each: 3,
                policy: PolicyKind::Rap,
            },
        ] {
            let server = SessionServer::new(&idx, layout);
            let a = server.run(&specs(&idx), Schedule::RoundRobin).unwrap();
            let b = server.run(&specs(&idx), Schedule::RoundRobin).unwrap();
            let reads = |r: &ServerReport| {
                r.sessions
                    .iter()
                    .map(SessionOutcome::total_disk_reads)
                    .collect::<Vec<_>>()
            };
            assert_eq!(reads(&a), reads(&b), "{layout:?}");
            assert_eq!(a.sibling_hits, b.sibling_hits, "{layout:?}");
        }
    }

    #[test]
    fn partitioned_sessions_borrow_from_siblings() {
        let idx = index();
        let server = SessionServer::new(
            &idx,
            PoolLayout::Partitioned {
                frames_each: 4,
                policy: PolicyKind::Rap,
            },
        );
        let report = server.run(&specs(&idx), Schedule::RoundRobin).unwrap();
        assert!(
            report.sibling_hits > 0,
            "overlapping queries must borrow across partitions: {report:?}"
        );
        let s = report.pool_stats;
        assert_eq!(s.hits + s.misses, s.requests);
        assert!(report.final_occupancy <= report.total_frames);
        assert_eq!(report.resident_term_pages, report.final_occupancy as u64);
        // Borrowing means strictly fewer store reads than four private
        // pools of the same size serving the same sequences.
        let private = SessionServer::new(
            &idx,
            PoolLayout::Shared {
                total_frames: 4,
                policy: PolicyKind::Rap,
                global_history: false,
            },
        );
        let private_total: u64 = specs(&idx)
            .iter()
            .map(|spec| {
                private
                    .run(std::slice::from_ref(spec), Schedule::RoundRobin)
                    .unwrap()
                    .total_disk_reads()
            })
            .sum();
        assert!(
            report.total_disk_reads() < private_total,
            "sibling borrowing should beat private pools: {} vs {private_total}",
            report.total_disk_reads()
        );
    }

    #[test]
    fn ledger_carries_one_row_per_refinement_matching_session_stats() {
        let idx = index();
        let server = SessionServer::new(
            &idx,
            PoolLayout::Partitioned {
                frames_each: 4,
                policy: PolicyKind::Rap,
            },
        );
        let report = server.run(&specs(&idx), Schedule::RoundRobin).unwrap();
        assert_eq!(report.ledger.len(), 4 * 3, "4 users × 3 refinements");
        assert_eq!(report.ledger.total_disk_reads(), report.total_disk_reads());
        // Rows agree with the per-session outcomes they were built from.
        for row in &report.ledger.entries {
            let stats =
                &report.sessions[row.session as usize].sequence().steps[row.step as usize].stats;
            assert_eq!(row.disk_reads, stats.disk_reads);
            assert_eq!(row.buffer_hits, stats.buffer_hits);
            assert_eq!(row.borrows, stats.borrows);
            assert_eq!(
                row.disk_reads + row.buffer_hits,
                stats.pages_processed,
                "hits + misses must cover every processed page"
            );
            assert_eq!(row.candidates, stats.peak_accumulators as u64);
        }
        // Per-fetch borrow attribution carves up the pool's borrow
        // total exactly.
        let total_borrows: u64 = report.ledger.entries.iter().map(|e| e.borrows).sum();
        assert_eq!(total_borrows, report.sibling_hits);
        assert!(total_borrows > 0, "overlapping queries must borrow");
        // The rollup covers every session once.
        let sessions = report.ledger.session_costs();
        assert_eq!(sessions.len(), 4);
        assert!(sessions.iter().all(|s| s.queries == 3));
    }

    #[test]
    fn empty_spec_list_is_a_clean_noop() {
        let idx = index();
        let server = SessionServer::new(
            &idx,
            PoolLayout::Shared {
                total_frames: 4,
                policy: PolicyKind::Lru,
                global_history: false,
            },
        );
        let report = server.run(&[], Schedule::FreeRunning).unwrap();
        assert!(report.sessions.is_empty());
        assert_eq!(report.pool_stats.requests, 0);
    }

    #[test]
    fn failed_session_does_not_wedge_the_others() {
        let idx = index();
        let mut bad = specs(&idx);
        bad[2].sequence.steps[1] = vec![(TermId(9999), 1)];
        let server = SessionServer::new(
            &idx,
            PoolLayout::Shared {
                total_frames: 8,
                policy: PolicyKind::Lru,
                global_history: false,
            },
        );
        // The bad session degrades to Failed (keeping its completed
        // step); the others run to completion and the report is Ok.
        let report = server.run(&bad, Schedule::RoundRobin).unwrap();
        assert_eq!(report.failed_sessions().len(), 1);
        assert!(report.sessions[2].is_failed());
        assert_eq!(report.sessions[2].sequence().steps.len(), 1);
        for (i, s) in report.sessions.iter().enumerate() {
            if i != 2 {
                assert!(!s.is_failed());
                assert_eq!(s.sequence().steps.len(), 3);
            }
        }
    }

    #[test]
    fn panicking_session_degrades_to_failed_outcome() {
        let idx = index();
        let mut chaotic = specs(&idx);
        chaotic[1].chaos_panic_at = Some(1);
        let server = SessionServer::new(
            &idx,
            PoolLayout::Shared {
                total_frames: 8,
                policy: PolicyKind::Lru,
                global_history: false,
            },
        );
        let report = server.run(&chaotic, Schedule::RoundRobin).unwrap();
        let failed = report.failed_sessions();
        assert_eq!(failed.len(), 1);
        assert_eq!(failed[0].0, 1);
        assert!(matches!(failed[0].1, IrError::SessionPanicked(_)));
        assert_eq!(report.sessions[1].sequence().steps.len(), 1);
        for (i, s) in report.sessions.iter().enumerate() {
            if i != 1 {
                assert!(!s.is_failed(), "session {i} must finish: {:?}", s.error());
                assert_eq!(s.sequence().steps.len(), 3);
            }
        }
        // The pool stays consistent after the panic.
        let s = report.pool_stats;
        assert_eq!(s.hits + s.misses, s.requests);
        assert!(report.final_occupancy <= report.total_frames);
    }

    #[test]
    fn recoverable_faults_retry_to_the_same_answer() {
        let idx = index();
        let layout = PoolLayout::Shared {
            total_frames: 12,
            policy: PolicyKind::Lru,
            global_history: false,
        };
        let clean = SessionServer::new(&idx, layout)
            .run(&specs(&idx), Schedule::RoundRobin)
            .unwrap();
        let faulty = SessionServer::new(&idx, layout)
            .with_faults(FaultConfig {
                seed: 77,
                transient_rate: 0.3,
                torn_rate: 0.2,
                max_consecutive_faults: 3,
                ..FaultConfig::DISABLED
            })
            .with_fetch_policy(FetchPolicy::retries(4))
            .run(&specs(&idx), Schedule::RoundRobin)
            .unwrap();
        assert!(faulty.sessions.iter().all(|s| !s.is_failed()));
        assert!(faulty.retries > 0, "this seed must exercise retries");
        assert_eq!(faulty.gave_up, 0, "budget must absorb every fault");
        assert!(faulty.fault_stats.total_faults() > 0);
        // Retries are invisible to the paper's metrics: same request
        // stream, same per-session reads as the fault-free run.
        let reads = |r: &ServerReport| {
            r.sessions
                .iter()
                .map(SessionOutcome::total_disk_reads)
                .collect::<Vec<_>>()
        };
        assert_eq!(reads(&clean), reads(&faulty));
        assert_eq!(clean.pool_stats.misses, faulty.pool_stats.misses);
    }

    #[test]
    fn qps_saturates_on_sub_microsecond_runs() {
        assert_eq!(queries_per_sec(0, 0), 0.0);
        assert_eq!(queries_per_sec(0, 500), 0.0, "no work is still 0 qps");
        // A run too fast for the µs clock reports as if it took 1 µs
        // instead of collapsing to zero.
        assert_eq!(queries_per_sec(5, 0), 5_000_000.0);
        assert_eq!(queries_per_sec(4, 2_000_000), 2.0);
    }

    #[test]
    fn every_report_with_work_has_positive_qps() {
        let idx = index();
        let report = SessionServer::new(
            &idx,
            PoolLayout::Shared {
                total_frames: 12,
                policy: PolicyKind::Lru,
                global_history: false,
            },
        )
        .run(&specs(&idx), Schedule::RoundRobin)
        .unwrap();
        assert!(!report.ledger.is_empty());
        assert!(report.queries_per_sec > 0.0, "{report:?}");
    }

    #[test]
    fn adaptive_counters_surface_in_the_report() {
        let idx = index();
        for layout in [
            PoolLayout::Shared {
                total_frames: 12,
                policy: PolicyKind::Adaptive,
                global_history: false,
            },
            PoolLayout::Partitioned {
                frames_each: 4,
                policy: PolicyKind::Adaptive,
            },
            PoolLayout::Sharded {
                total_frames: 12,
                policy: PolicyKind::Adaptive,
                shards: 2,
            },
        ] {
            let report = SessionServer::new(&idx, layout)
                .run(&specs(&idx), Schedule::RoundRobin)
                .unwrap();
            assert!(report.adaptive.is_active(), "{layout:?}");
            let names: Vec<&str> = report
                .adaptive
                .shadow_hits
                .iter()
                .map(|(n, _)| n.as_str())
                .collect();
            assert!(names.contains(&"LRU"), "{layout:?}: {names:?}");
            assert!(names.contains(&"RAP"), "{layout:?}: {names:?}");
            assert!(
                report.adaptive.shadow_hits.iter().any(|(_, h)| *h > 0),
                "{layout:?}: shadow experts must observe hits"
            );
        }
    }

    #[test]
    fn sharded_report_is_a_quiesced_snapshot() {
        // The rollup quiesces the pool before snapshotting, so the
        // report is one consistent picture: counter conservation holds
        // per shard (and therefore in the summed pool stats), and no
        // lock-light hit is still sitting in a shard's deferred queue
        // with its policy effects unapplied.
        let idx = index();
        let report = SessionServer::new(
            &idx,
            PoolLayout::Sharded {
                total_frames: 12,
                policy: PolicyKind::Adaptive,
                shards: 2,
            },
        )
        .run(&specs(&idx), Schedule::RoundRobin)
        .unwrap();
        let s = &report.pool_stats;
        assert_eq!(
            s.hits + s.misses,
            s.requests,
            "hits+misses==requests must hold in the report"
        );
        assert!(s.hits > 0, "warm rounds must produce lock-light hits");
        // The adaptive policy only observes a hit when its deferred
        // effects replay; a non-quiesced rollup reports fewer shadow
        // observations than served hits.
        assert!(report.adaptive.is_active());
    }

    #[test]
    fn static_policies_report_no_adaptive_activity() {
        let idx = index();
        let report = SessionServer::new(
            &idx,
            PoolLayout::Shared {
                total_frames: 12,
                policy: PolicyKind::Lru,
                global_history: false,
            },
        )
        .run(&specs(&idx), Schedule::RoundRobin)
        .unwrap();
        assert_eq!(report.adaptive, AdaptiveStats::default());
        assert!(!report.adaptive.is_active());
    }
}
