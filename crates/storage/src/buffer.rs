//! The buffer manager: a fixed pool of page frames in front of a
//! [`PageStore`], with the paper's two IR-specific extensions —
//! per-term resident counts (`b_t`) and query-context announcements.

use crate::disk::PageStore;
use crate::observe::{BufferEvent, BufferObserver};
use crate::page::Page;
use crate::policy::{PolicyKind, ReplacementPolicy};
use crate::shared::QueryBuffer;
use crate::stats::{BufferMetrics, BufferStats};
use ir_types::{BatchHandle, IrError, IrResult, PageId, PlanEntry, ReadPlan, TermId};
use parking_lot::RwLock;
use std::cell::RefCell;
use std::collections::{HashMap, HashSet};
use std::sync::Arc;
use std::time::Duration;

/// The resident-frame table behind a read-write lock, cloneable so a
/// lock-striped wrapper ([`ShardedBufferPool`](crate::ShardedBufferPool))
/// can serve buffer hits under a shared read lock without entering the
/// manager's exclusive critical section. Every mutation goes through
/// `&mut BufferManager` methods, so in single-owner use the lock is
/// always uncontended and the manager behaves exactly as it did when
/// the map was a plain field.
pub(crate) type FrameView = Arc<RwLock<HashMap<PageId, Page>>>;

/// Shared handle to the manager's per-term resident-page counters
/// (`b_t`), the [`FrameView`] pattern applied to BAF's term-selection
/// reads. The counters change only on load/evict/flush — never on a
/// hit — so readers holding only the `RwLock` see exactly the values a
/// locked [`resident_pages`](BufferManager::resident_pages) call would
/// return, and the sharded pool's term selector never has to queue
/// behind a shard serving disk reads.
pub(crate) type TermView = Arc<RwLock<HashMap<TermId, u32>>>;

/// How a completed fetch was served — reported per call so each
/// session can attribute its own hits and reads exactly, with no
/// pool-delta measurement (which mis-attributes under concurrency).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FetchOutcome {
    /// Served from a resident frame.
    Hit,
    /// Read from the store into a frame (a disk read).
    Miss,
    /// Served from a copy of a sibling partition's frame, without a
    /// store read (partitioned pools only).
    Borrowed,
}

/// Wait strategy between read retries.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Backoff {
    /// Retry immediately.
    #[default]
    None,
    /// Sleep a fixed duration before every retry.
    Fixed(Duration),
    /// Sleep `base · 2^(attempt−1)`, capped at `cap`.
    Exponential {
        /// Delay before the first retry.
        base: Duration,
        /// Upper bound on any single delay.
        cap: Duration,
    },
}

impl Backoff {
    /// The delay before retry number `attempt` (1-based); `None` for
    /// an immediate retry.
    fn delay(&self, attempt: u32) -> Option<Duration> {
        match *self {
            Backoff::None => None,
            Backoff::Fixed(d) => (!d.is_zero()).then_some(d),
            Backoff::Exponential { base, cap } => {
                if base.is_zero() {
                    return None;
                }
                let factor = 1u32 << attempt.saturating_sub(1).min(16);
                Some((base * factor).min(cap))
            }
        }
    }
}

/// Bounded retry policy for page reads that fail transiently
/// ([`IrError::is_transient`]: injected transient errors and torn
/// pages). The default is [`NO_RETRY`](FetchPolicy::NO_RETRY) — the
/// historical behaviour, where the first failure propagates.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FetchPolicy {
    /// Retries after the initial attempt (0 = fail fast).
    pub max_retries: u32,
    /// Wait strategy between attempts.
    pub backoff: Backoff,
}

impl FetchPolicy {
    /// Fail on the first error; no retries (the default).
    pub const NO_RETRY: FetchPolicy = FetchPolicy {
        max_retries: 0,
        backoff: Backoff::None,
    };

    /// Retry up to `n` times with no delay — what a simulator-backed
    /// test wants (faults are injected, not time-dependent).
    pub fn retries(n: u32) -> FetchPolicy {
        FetchPolicy {
            max_retries: n,
            backoff: Backoff::None,
        }
    }
}

/// A buffer pool of `capacity` page frames over a page store.
///
/// ```
/// use ir_storage::{BufferManager, DiskSim, Page, PolicyKind, QueryBuffer};
/// use ir_types::{PageId, Posting, TermId};
///
/// // One term with two pages, pool of one frame.
/// let pages = vec![vec![
///     Page::new(PageId::new(TermId(0), 0), vec![Posting::new(0, 3)].into(), 1.0),
///     Page::new(PageId::new(TermId(0), 1), vec![Posting::new(1, 1)].into(), 1.0),
/// ]];
/// let mut pool = BufferManager::new(DiskSim::new(pages), 1, PolicyKind::Lru)?;
/// pool.fetch(PageId::new(TermId(0), 0))?; // miss
/// pool.fetch(PageId::new(TermId(0), 0))?; // hit
/// pool.fetch(PageId::new(TermId(0), 1))?; // miss, evicts page 0
/// assert_eq!(pool.stats().hits, 1);
/// assert_eq!(pool.stats().misses, 2);
/// assert_eq!(pool.resident_pages(TermId(0)), 1); // the b_t counter
/// # Ok::<(), ir_types::IrError>(())
/// ```
///
/// # Pinning
///
/// Pages returned by [`fetch`](QueryBuffer::fetch) are `Arc`-backed
/// and stay valid regardless of eviction, so single-threaded evaluation
/// needs no pins at all. For callers that need a page to *stay
/// resident* across other fetches (the multi-session server keeps each
/// session's current page resident), every frame carries a **pin
/// count**: [`pin`](BufferManager::pin) increments it,
/// [`unpin`](BufferManager::unpin) decrements it, and eviction skips
/// any page whose count is non-zero. Pins nest — two sessions may pin
/// the same frame independently — and [`IrError::NoEvictableFrame`] is
/// returned only when *every* frame is pinned. Note the deliberate
/// asymmetry with the paper's §5.2.1 observation: RAP may evict
/// not-yet-scanned pages of the active list — nothing protects them
/// unless a caller pins them.
///
/// # `b_t` counters
///
/// [`resident_pages`](BufferManager::resident_pages) answers "how many
/// pages of the inverted list for term `t` are in buffers" in O(1),
/// maintained on every load/evict — the implementation §3.2.2 calls for
/// ("a hash-table or an array of counters, which are updated whenever a
/// page is moved in or out of buffers").
#[derive(Debug)]
pub struct BufferManager<S: PageStore> {
    store: S,
    capacity: usize,
    frames: FrameView,
    policy: Box<dyn ReplacementPolicy>,
    policy_kind: PolicyKind,
    resident_per_term: TermView,
    /// Per-term counts of pages a live submission has committed to
    /// load ([`submit_batch`](QueryBuffer::submit_batch)) but not yet
    /// completed. Added on top of `resident_per_term` by
    /// [`resident_pages`](Self::resident_pages), so `b_t` reflects
    /// pages already on the wire — empty outside a submit..complete
    /// window, which keeps the blocking path's answers unchanged.
    in_flight_per_term: TermView,
    pins: HashMap<PageId, u32>,
    fetch_policy: FetchPolicy,
    metrics: BufferMetrics,
    observer: Option<Box<dyn BufferObserver>>,
}

impl<S: PageStore> BufferManager<S> {
    /// Creates a pool of `capacity` frames with the given policy.
    ///
    /// # Errors
    /// [`IrError::EmptyBufferPool`] if `capacity` is zero.
    pub fn new(store: S, capacity: usize, policy: PolicyKind) -> IrResult<Self> {
        if capacity == 0 {
            return Err(IrError::EmptyBufferPool);
        }
        BufferManager::with_policy(store, capacity, policy.build(capacity), policy)
    }

    /// Creates a pool around an explicit policy instance — the way to
    /// run a custom expert panel
    /// ([`ExpertMixturePolicy::with_panel`](crate::policy::ExpertMixturePolicy::with_panel))
    /// or any out-of-tree [`ReplacementPolicy`]. `kind` is the label
    /// reports attribute the pool to.
    ///
    /// # Errors
    /// [`IrError::EmptyBufferPool`] if `capacity` is zero.
    pub fn with_policy(
        store: S,
        capacity: usize,
        mut policy: Box<dyn ReplacementPolicy>,
        kind: PolicyKind,
    ) -> IrResult<Self> {
        if capacity == 0 {
            return Err(IrError::EmptyBufferPool);
        }
        let metrics = BufferMetrics::new();
        // The adaptive policy registers its `adaptive.*` counters in
        // the pool's registry; classic policies ignore the offer,
        // leaving the metric namespace untouched.
        policy.attach_metrics(metrics.registry());
        Ok(BufferManager {
            store,
            capacity,
            frames: Arc::new(RwLock::new(HashMap::with_capacity(capacity))),
            policy,
            policy_kind: kind,
            resident_per_term: Arc::new(RwLock::new(HashMap::new())),
            in_flight_per_term: Arc::new(RwLock::new(HashMap::new())),
            pins: HashMap::new(),
            fetch_policy: FetchPolicy::NO_RETRY,
            metrics,
            observer: None,
        })
    }

    /// Serves one plan entry: a hit, or a store read carrying the
    /// entry's value hint to admission. The per-entry arm of the batch
    /// loop, and the routine a partitioned pool wraps with its sibling
    /// probe.
    pub(crate) fn fetch_one_hinted(&mut self, entry: PlanEntry) -> IrResult<(Page, FetchOutcome)> {
        let id = entry.page;
        self.metrics.requests.inc();
        let resident = self.frames.read().get(&id).cloned();
        if let Some(page) = resident {
            self.metrics.hits.inc();
            self.policy.on_hit(&page);
            self.notify(BufferEvent::Hit(id));
            return Ok((page, FetchOutcome::Hit));
        }
        // Miss: read the replacement first, then make room. A failed
        // read therefore leaves the pool exactly as it was — the old
        // evict-then-read order destroyed a victim frame for a page
        // that never arrived.
        if self.frames.read().len() >= self.capacity && !self.has_evictable_frame() {
            return Err(IrError::NoEvictableFrame);
        }
        let page = self.read_with_retry(id)?;
        while self.frames.read().len() >= self.capacity {
            self.evict_one()?;
        }
        self.install_hinted(page.clone(), false, entry.value_hint);
        Ok((page, FetchOutcome::Miss))
    }

    /// A cloneable handle to the resident-frame table, for wrappers
    /// that serve hits under a shared read lock.
    pub(crate) fn frame_view(&self) -> FrameView {
        Arc::clone(&self.frames)
    }

    /// A cloneable handle to the `b_t` counters, for wrappers that
    /// answer resident-page inquiries without the manager's lock.
    pub(crate) fn term_view(&self) -> TermView {
        Arc::clone(&self.resident_per_term)
    }

    /// A cloneable handle to the in-flight `b_t` counters (pages a
    /// live submission has committed to load), for wrappers that fold
    /// them into lock-free resident-page inquiries alongside
    /// [`term_view`](Self::term_view).
    pub(crate) fn in_flight_view(&self) -> TermView {
        Arc::clone(&self.in_flight_per_term)
    }

    /// Whether the replacement policy reacts to
    /// [`begin_query`](Self::begin_query) at all (only RAP does).
    /// Wrappers use this to skip the announcement — and the locking it
    /// costs — for context-oblivious policies.
    pub fn uses_query_context(&self) -> bool {
        self.policy.uses_query_context()
    }

    /// Applies a buffer hit that a lock-light wrapper already served
    /// and counted: the replacement policy sees the hit and the
    /// observer sees the event, in the order the wrapper recorded
    /// them. The request/hit counters were incremented at serve time
    /// (the handles are atomic), so only the deferred effects run
    /// here. If the page was evicted between serve and replay the
    /// policy update is moot and is skipped; the event still fires
    /// because the request *was* served from a resident frame.
    pub(crate) fn apply_deferred_hit(&mut self, id: PageId) {
        let page = self.frames.read().get(&id).cloned();
        if let Some(page) = page {
            self.policy.on_hit(&page);
        }
        self.notify(BufferEvent::Hit(id));
    }

    /// Releases a submission's bookkeeping: in-flight `b_t` counts and
    /// pins, in that order. Shared by completion and cancellation (and
    /// by the sharded pool, which settles under the owning shard's
    /// lock before running its own completion path).
    pub(crate) fn settle_submission(&mut self, handle: &BatchHandle) {
        {
            let mut in_flight = self.in_flight_per_term.write();
            for id in &handle.loading {
                if let Some(count) = in_flight.get_mut(&id.term) {
                    *count -= 1;
                    if *count == 0 {
                        in_flight.remove(&id.term);
                    }
                }
            }
        }
        for id in &handle.pinned {
            self.unpin(*id);
        }
    }

    /// The batch execution loop over a slice of plan entries,
    /// appending to `out`. Every entry is served — hit, store read, or
    /// error — **in plan order**, so the pool's hit/miss/eviction
    /// sequence (and therefore every counter and the store's own read
    /// accounting) is identical to serving the entries one at a time.
    /// What batching adds:
    ///
    /// * runs of consecutive misses go to the store through one
    ///   vectored [`PageStore::read_pages`] call when that provably
    ///   cannot change behaviour (no eviction pressure, no torn-page
    ///   verification in play);
    /// * each entry's `value_hint` reaches the replacement policy at
    ///   admission ([`ReplacementPolicy::on_insert_hinted`]), so a
    ///   hint-aware policy values the page *before* any later eviction
    ///   decision;
    /// * a duplicated page id costs one load and one hit — the second
    ///   occurrence finds the first's frame resident.
    ///
    /// Errors abort the remainder; entries already served keep their
    /// effects. Batch-level metrics are counted at submission, never
    /// here.
    pub(crate) fn fetch_entries(
        &mut self,
        entries: &[PlanEntry],
        out: &mut Vec<(Page, FetchOutcome)>,
    ) -> IrResult<()> {
        out.reserve(entries.len());
        let mut i = 0;
        while i < entries.len() {
            let entry = entries[i];
            // Vectored fast path: a maximal run of distinct,
            // non-resident pages that all fit without eviction. Under
            // those conditions the sequential execution would never
            // evict (occupancy stays under capacity) and never verify
            // checksums (the store cannot tear), so reading the run in
            // one store call and installing in order is
            // behaviour-identical. A lone last entry — every
            // single-page fetch — takes the per-entry path instead: the
            // same one `read_page` a single fetch always issued,
            // without the run's scratch allocations.
            if i + 1 < entries.len()
                && !self.frames.read().contains_key(&entry.page)
                && !self.store.can_tear()
            {
                let budget = self.capacity.saturating_sub(self.frames.read().len());
                let mut seen: HashSet<PageId> =
                    HashSet::with_capacity(budget.min(entries.len() - i));
                let mut end = i;
                {
                    let frames = self.frames.read();
                    while end < entries.len()
                        && end - i < budget
                        && !frames.contains_key(&entries[end].page)
                        && seen.insert(entries[end].page)
                    {
                        end += 1;
                    }
                }
                if end > i {
                    let ids: Vec<PageId> = entries[i..end].iter().map(|e| e.page).collect();
                    let results = self.store.read_pages(&ids);
                    debug_assert!(!results.is_empty(), "read_pages returned nothing");
                    let served = results.len();
                    for (k, result) in results.into_iter().enumerate() {
                        let entry = entries[i + k];
                        self.metrics.requests.inc();
                        let page = match result {
                            Ok(page) => page,
                            // The failed attempt already happened
                            // inside `read_pages`; resume the retry
                            // loop exactly where `read_with_retry`
                            // would be after its first failure.
                            Err(e) => self.retry_after(entry.page, e)?,
                        };
                        self.install_hinted(page.clone(), false, entry.value_hint);
                        out.push((page, FetchOutcome::Miss));
                    }
                    i += served;
                    continue;
                }
            }
            // Per-entry path: resident pages (hits — including a page a
            // duplicate plan entry just installed), eviction pressure,
            // or a tearing store. Exactly the single-fetch protocol.
            let (page, outcome) = self.fetch_one_hinted(entry)?;
            out.push((page, outcome));
            i += 1;
        }
        Ok(())
    }

    /// One store read, rejecting torn deliveries: a page whose content
    /// fails checksum verification never reaches a frame. Verification
    /// re-hashes the whole page, so it only runs when the store can
    /// actually tear ([`PageStore::can_tear`]) — a clean store's reads
    /// stay checksum-free.
    fn read_verified(&mut self, id: PageId) -> IrResult<Page> {
        let page = self.store.read_page(id)?;
        if self.store.can_tear() && !page.is_intact() {
            self.metrics.torn_pages.inc();
            self.notify(BufferEvent::Torn(id));
            return Err(IrError::TornPage { page: id });
        }
        Ok(page)
    }

    /// Reads `id` under the pool's [`FetchPolicy`]: transient failures
    /// ([`IrError::is_transient`]) are retried up to `max_retries`
    /// times with the configured backoff; terminal errors and
    /// exhausted budgets propagate.
    fn read_with_retry(&mut self, id: PageId) -> IrResult<Page> {
        match self.read_verified(id) {
            Ok(page) => Ok(page),
            Err(e) => self.retry_after(id, e),
        }
    }

    /// Continues the retry loop for `id` after its first read attempt
    /// already failed with `first_err` (either inside
    /// [`read_with_retry`](Self::read_with_retry) or inside a vectored
    /// [`PageStore::read_pages`] call): transient failures are retried
    /// up to `max_retries` times with the configured backoff; terminal
    /// errors and exhausted budgets propagate.
    fn retry_after(&mut self, id: PageId, first_err: IrError) -> IrResult<Page> {
        let policy = self.fetch_policy;
        let mut err = first_err;
        let mut attempt = 0u32;
        loop {
            if !err.is_transient() {
                return Err(err);
            }
            if attempt >= policy.max_retries {
                self.metrics.gave_up.inc();
                return Err(err);
            }
            attempt += 1;
            self.metrics.retries.inc();
            self.notify(BufferEvent::Retry(id));
            if let Some(d) = policy.backoff.delay(attempt) {
                std::thread::sleep(d);
            }
            match self.read_verified(id) {
                Ok(page) => return Ok(page),
                Err(e) => err = e,
            }
        }
    }

    /// Inserts `page` into a frame **without a store read** — the
    /// admission half of a fetch, for pages obtained elsewhere (a
    /// sibling partition's frame, a recovery image). Makes room by
    /// normal eviction; a page that is already resident is left as is.
    ///
    /// Admission touches no request/hit/miss counter (only the borrow
    /// counter, plus `evictions` if room had to be made): the caller
    /// decides what the admission means for its accounting, typically
    /// by following up with a [`fetch`](QueryBuffer::fetch) that now hits.
    /// Observers see a [`BufferEvent::Borrow`], not a `Load`.
    ///
    /// # Errors
    /// [`IrError::NoEvictableFrame`] if the pool is full of pinned
    /// pages; the pool is left unchanged.
    pub fn admit(&mut self, page: Page) -> IrResult<()> {
        if self.frames.read().contains_key(&page.id()) {
            return Ok(());
        }
        while self.frames.read().len() >= self.capacity {
            self.evict_one()?;
        }
        self.install(page, true);
        Ok(())
    }

    /// Puts a non-resident page into a free frame and wires up the
    /// counters, policy, and observer. `borrowed` distinguishes the
    /// store-less admit path (a `Borrow`) from a completed miss (a
    /// `Load` — i.e. a disk read).
    fn install(&mut self, page: Page, borrowed: bool) {
        self.install_hinted(page, borrowed, None);
    }

    /// [`install`](Self::install) with a read-plan value hint handed to
    /// the policy at admission. When the policy reports the value it
    /// actually assigned, the |assigned − hinted·w*| gap feeds the
    /// hint-accuracy counters.
    fn install_hinted(&mut self, page: Page, borrowed: bool, hint: Option<f64>) {
        let id = page.id();
        *self.resident_per_term.write().entry(id.term).or_insert(0) += 1;
        let assigned = self.policy.on_insert_hinted(&page, hint);
        if let (Some(h), Some(actual)) = (hint, assigned) {
            let estimated = page.max_weight() * h;
            let err_milli = ((estimated - actual).abs() * 1000.0).round() as u64;
            self.metrics.hint_abs_error_milli.add(err_milli);
            self.metrics.hinted_inserts.inc();
        }
        self.frames.write().insert(id, page);
        if borrowed {
            self.metrics.borrows.inc();
            self.notify(BufferEvent::Borrow(id));
        } else {
            self.metrics.loads.inc();
            self.notify(BufferEvent::Load(id));
        }
    }

    /// Is any resident page evictable? O(1) while fewer pages are
    /// pinned than resident; a scan only when the two counts tie.
    fn has_evictable_frame(&self) -> bool {
        let frames = self.frames.read();
        self.pins.len() < frames.len() || frames.keys().any(|id| !self.pins.contains_key(id))
    }

    #[inline]
    fn notify(&mut self, event: BufferEvent) {
        if let Some(obs) = self.observer.as_mut() {
            obs.event(event);
        }
    }

    fn evict_one(&mut self) -> IrResult<()> {
        let pins = &self.pins;
        // Record which pinned pages the policy had to pass over: the
        // exclusion predicate is the only place the pool learns of
        // them, so it doubles as the probe. Policies may test a page
        // more than once per decision — dedup before counting.
        let skipped = RefCell::new(Vec::new());
        let victim = self
            .policy
            .choose_victim(&|id| {
                let pinned = pins.contains_key(&id);
                if pinned {
                    skipped.borrow_mut().push(id);
                }
                pinned
            })
            .ok_or(IrError::NoEvictableFrame)?;
        let mut skipped = skipped.into_inner();
        skipped.sort_unstable();
        skipped.dedup();
        for id in skipped {
            self.metrics.skip_pinned.inc();
            self.notify(BufferEvent::SkipPinned(id));
        }
        debug_assert!(
            self.frames.read().contains_key(&victim),
            "policy returned a non-resident victim"
        );
        self.frames.write().remove(&victim);
        if victim.page.0 == 0 {
            self.metrics.evictions_head.inc();
        } else {
            self.metrics.evictions_tail.inc();
        }
        self.notify(BufferEvent::Evict(victim));
        let mut terms = self.resident_per_term.write();
        if let Some(count) = terms.get_mut(&victim.term) {
            *count -= 1;
            if *count == 0 {
                terms.remove(&victim.term);
            }
        }
        Ok(())
    }

    /// `b_t`: number of pages of `term`'s inverted list currently in
    /// the pool — plus pages a live submission has committed to load
    /// ([`submit_batch`](QueryBuffer::submit_batch)): a page on the wire is
    /// as good as resident to a term selector deciding what to read
    /// next, because demanding it costs only the residual wait.
    /// Outside a submit..complete window the in-flight term is zero
    /// and this is exactly the resident count. O(1).
    #[inline]
    pub fn resident_pages(&self, term: TermId) -> u32 {
        let resident = self
            .resident_per_term
            .read()
            .get(&term)
            .copied()
            .unwrap_or(0);
        let loading = self
            .in_flight_per_term
            .read()
            .get(&term)
            .copied()
            .unwrap_or(0);
        resident + loading
    }

    /// Is a specific page resident?
    #[inline]
    pub fn is_resident(&self, id: PageId) -> bool {
        self.frames.read().contains_key(&id)
    }

    /// Returns the resident page without touching statistics, the
    /// replacement policy, or the observer — a side-effect-free read
    /// for cross-partition borrowing and diagnostics.
    #[inline]
    pub fn peek(&self, id: PageId) -> Option<Page> {
        self.frames.read().get(&id).cloned()
    }

    /// Every resident page id, sorted — the pool's frame contents as a
    /// comparable value (chaos and property tests diff two pools with
    /// it).
    pub fn resident_ids(&self) -> Vec<PageId> {
        let mut ids: Vec<PageId> = self.frames.read().keys().copied().collect();
        ids.sort_unstable();
        ids
    }

    /// Sets the retry policy applied to store reads on the miss path.
    pub fn set_fetch_policy(&mut self, policy: FetchPolicy) {
        self.fetch_policy = policy;
    }

    /// The retry policy applied to store reads.
    pub fn fetch_policy(&self) -> FetchPolicy {
        self.fetch_policy
    }

    /// Announces the term weights `w_{q,t}` of the query about to be
    /// evaluated. RAP re-values all resident pages; other policies
    /// ignore it.
    pub fn begin_query(&mut self, weights: &HashMap<TermId, f64>) {
        self.policy.begin_query(weights);
    }

    /// Increments `id`'s pin count; a pinned page is never evicted.
    /// Pins nest: the page stays protected until every [`pin`](Self::pin)
    /// is matched by an [`unpin`](Self::unpin).
    pub fn pin(&mut self, id: PageId) {
        *self.pins.entry(id).or_insert(0) += 1;
    }

    /// Decrements `id`'s pin count, making the page evictable again
    /// once the count reaches zero. Unpinning a page that is not
    /// pinned is a caller bug; it panics in debug builds and is a
    /// no-op in release builds.
    pub fn unpin(&mut self, id: PageId) {
        match self.pins.get_mut(&id) {
            Some(count) => {
                *count -= 1;
                if *count == 0 {
                    self.pins.remove(&id);
                }
            }
            None => debug_assert!(false, "unpin of unpinned page {id:?}"),
        }
    }

    /// Current pin count of `id` (0 when unpinned).
    #[inline]
    pub fn pin_count(&self, id: PageId) -> u32 {
        self.pins.get(&id).copied().unwrap_or(0)
    }

    /// Empties the pool (the paper flushes buffers between refinement
    /// *sequences*, never between refinements). Statistics survive;
    /// use [`reset_stats`](Self::reset_stats) to zero them.
    pub fn flush(&mut self) {
        self.frames.write().clear();
        self.resident_per_term.write().clear();
        self.in_flight_per_term.write().clear();
        self.policy.clear();
        self.pins.clear();
        self.notify(BufferEvent::Flush);
    }

    /// Attaches an event observer (replacing any previous one).
    pub fn set_observer(&mut self, observer: Box<dyn BufferObserver>) {
        self.observer = Some(observer);
    }

    /// Detaches and returns the observer, if any.
    pub fn take_observer(&mut self) -> Option<Box<dyn BufferObserver>> {
        self.observer.take()
    }

    /// Zeroes the counters.
    pub fn reset_stats(&mut self) {
        self.metrics.reset();
    }

    /// Snapshot of the counters.
    pub fn stats(&self) -> BufferStats {
        self.metrics.snapshot()
    }

    /// The pool's live `ir-observe` counter handles — finer-grained
    /// than [`stats`](Self::stats) (borrows, head/tail evictions,
    /// pinned skips) and shareable across threads.
    pub fn metrics(&self) -> &BufferMetrics {
        &self.metrics
    }

    /// Pages admitted without a store read (sibling borrows).
    pub fn borrows(&self) -> u64 {
        self.metrics.borrows.get()
    }

    /// Number of frames in use.
    pub fn len(&self) -> usize {
        self.frames.read().len()
    }

    /// `true` when no page is resident.
    pub fn is_empty(&self) -> bool {
        self.frames.read().is_empty()
    }

    /// Pool capacity in pages (`BufferSize` in Table 3).
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// The configured replacement policy.
    pub fn policy_kind(&self) -> PolicyKind {
        self.policy_kind
    }

    /// The underlying page store.
    pub fn store(&self) -> &S {
        &self.store
    }
}

impl<S: PageStore> QueryBuffer for BufferManager<S> {
    /// Counts the batch, then — only when the store can overlap
    /// (queue depth > 1) — pins every distinct plan page (an in-flight
    /// page must not be a replacement victim while the submission is
    /// outstanding), counts the distinct non-resident pages toward
    /// their term's `b_t` ([`resident_pages`](BufferManager::resident_pages)
    /// adds them in), and hands them all — head included — to
    /// [`PageStore::submit`] so the store starts those transfers now:
    /// a submission's entire cost runs in the shadow of whatever the
    /// caller does before completing.
    ///
    /// For a store that cannot overlap the submission window is empty:
    /// nothing is pinned or staged, and submit + complete is
    /// event-identical to serving the plan in one call.
    fn submit_batch(&mut self, plan: ReadPlan) -> IrResult<BatchHandle> {
        self.metrics.record_batch(plan.len());
        let mut handle = BatchHandle::unscheduled(plan);
        if self.store.overlap_depth() <= 1 {
            return Ok(handle);
        }
        let mut seen: HashSet<PageId> = HashSet::with_capacity(handle.plan.len());
        for entry in handle.plan.entries() {
            if !seen.insert(entry.page) {
                continue;
            }
            self.pin(entry.page);
            handle.pinned.push(entry.page);
            if !self.is_resident(entry.page) {
                *self
                    .in_flight_per_term
                    .write()
                    .entry(entry.page.term)
                    .or_insert(0) += 1;
                handle.loading.push(entry.page);
            }
        }
        if !handle.loading.is_empty() {
            self.store.submit(&handle.loading);
        }
        Ok(handle)
    }

    /// Undoes the submission's bookkeeping (in-flight `b_t` counts come
    /// off, pins come off — **before** the fetches, so eviction
    /// pressure inside the batch behaves exactly as with no submission
    /// window), then serves every plan entry in order. Transient
    /// faults and torn pages are retried here under the pool's
    /// [`FetchPolicy`].
    fn complete_into(
        &mut self,
        handle: BatchHandle,
        out: &mut Vec<(Page, FetchOutcome)>,
    ) -> IrResult<()> {
        self.settle_submission(&handle);
        out.clear();
        self.fetch_entries(handle.plan.entries(), out)
    }

    /// Releases the submission's pins and in-flight counts without
    /// fetching anything. Reads the store already started are not
    /// recalled; a latency-modeling store ages them out of its staging
    /// cache as wasted prefetches.
    fn cancel_batch(&mut self, handle: BatchHandle) {
        self.settle_submission(&handle);
    }

    fn overlap_depth(&self) -> usize {
        self.store.overlap_depth()
    }

    fn resident_pages(&self, term: TermId) -> u32 {
        BufferManager::resident_pages(self, term)
    }

    fn begin_query(&mut self, weights: &HashMap<TermId, f64>) {
        BufferManager::begin_query(self, weights);
    }

    fn stats(&self) -> BufferStats {
        BufferManager::stats(self)
    }

    fn borrows(&self) -> u64 {
        BufferManager::borrows(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::disk::DiskSim;
    use crate::page::Page;
    use ir_types::Posting;

    /// `n_terms` lists × `pages_per_term` pages; page p of any term has
    /// max_freq = pages_per_term - p (decreasing along the list).
    fn store(n_terms: u32, pages_per_term: u32) -> DiskSim {
        let lists = (0..n_terms)
            .map(|t| {
                (0..pages_per_term)
                    .map(|p| {
                        let postings: Vec<Posting> = vec![Posting::new(p, pages_per_term - p)];
                        Page::new(PageId::new(TermId(t), p), postings.into(), 1.0)
                    })
                    .collect()
            })
            .collect();
        DiskSim::new(lists)
    }

    fn pid(t: u32, p: u32) -> PageId {
        PageId::new(TermId(t), p)
    }

    /// Forwards to the inner store but advertises a 2-deep overlap
    /// window, so submission's pin / in-flight bookkeeping runs
    /// without a latency model. `submit` keeps the trait default
    /// (schedules nothing) — like a scheduler with an empty queue —
    /// so "a synchronous store starts nothing" assertions still hold.
    #[derive(Debug)]
    struct Overlapping<S>(S);

    impl<S: PageStore> PageStore for Overlapping<S> {
        fn read_page(&self, id: PageId) -> IrResult<Page> {
            self.0.read_page(id)
        }

        fn list_len(&self, term: TermId) -> Option<u32> {
            self.0.list_len(term)
        }

        fn n_lists(&self) -> usize {
            self.0.n_lists()
        }

        fn overlap_depth(&self) -> usize {
            2
        }
    }

    #[test]
    fn zero_capacity_rejected() {
        assert!(matches!(
            BufferManager::new(store(1, 1), 0, PolicyKind::Lru),
            Err(IrError::EmptyBufferPool)
        ));
    }

    #[test]
    fn hits_and_misses_counted() {
        let mut bm = BufferManager::new(store(1, 3), 2, PolicyKind::Lru).unwrap();
        bm.fetch(pid(0, 0)).unwrap(); // miss
        bm.fetch(pid(0, 0)).unwrap(); // hit
        bm.fetch(pid(0, 1)).unwrap(); // miss
        let s = bm.stats();
        assert_eq!(s.requests, 3);
        assert_eq!(s.hits, 1);
        assert_eq!(s.misses, 2);
        assert_eq!(s.evictions, 0);
        // Buffer misses == disk reads.
        assert_eq!(bm.store().stats().reads, 2);
    }

    #[test]
    fn eviction_respects_capacity() {
        let mut bm = BufferManager::new(store(1, 5), 2, PolicyKind::Lru).unwrap();
        for p in 0..5 {
            bm.fetch(pid(0, p)).unwrap();
        }
        assert_eq!(bm.len(), 2);
        assert_eq!(bm.stats().evictions, 3);
    }

    #[test]
    fn resident_counters_track_loads_and_evictions() {
        let mut bm = BufferManager::new(store(2, 3), 3, PolicyKind::Lru).unwrap();
        bm.fetch(pid(0, 0)).unwrap();
        bm.fetch(pid(0, 1)).unwrap();
        bm.fetch(pid(1, 0)).unwrap();
        assert_eq!(bm.resident_pages(TermId(0)), 2);
        assert_eq!(bm.resident_pages(TermId(1)), 1);
        // Next fetch evicts LRU = t0:p0.
        bm.fetch(pid(1, 1)).unwrap();
        assert_eq!(bm.resident_pages(TermId(0)), 1);
        assert_eq!(bm.resident_pages(TermId(1)), 2);
        bm.flush();
        assert_eq!(bm.resident_pages(TermId(0)), 0);
        assert_eq!(bm.resident_pages(TermId(1)), 0);
    }

    #[test]
    fn capacity_one_pool_works() {
        // The paper's buffer-size sweep starts at 1 page.
        let mut bm = BufferManager::new(store(1, 4), 1, PolicyKind::Lru).unwrap();
        for p in 0..4 {
            bm.fetch(pid(0, p)).unwrap();
        }
        assert_eq!(bm.len(), 1);
        assert_eq!(bm.stats().misses, 4);
        // Rescan: every fetch misses again (sequential flooding).
        for p in 0..4 {
            bm.fetch(pid(0, p)).unwrap();
        }
        assert_eq!(bm.stats().misses, 8);
    }

    #[test]
    fn explicit_pin_survives_fetches() {
        let mut bm = BufferManager::new(store(1, 4), 2, PolicyKind::Lru).unwrap();
        bm.fetch(pid(0, 0)).unwrap();
        bm.pin(pid(0, 0));
        bm.fetch(pid(0, 1)).unwrap();
        bm.fetch(pid(0, 2)).unwrap();
        bm.fetch(pid(0, 3)).unwrap();
        assert!(bm.is_resident(pid(0, 0)), "pinned page must survive");
        bm.unpin(pid(0, 0));
        bm.fetch(pid(0, 1)).unwrap();
        bm.fetch(pid(0, 2)).unwrap();
        assert!(!bm.is_resident(pid(0, 0)));
    }

    #[test]
    fn pin_counts_nest() {
        let mut bm = BufferManager::new(store(1, 4), 2, PolicyKind::Lru).unwrap();
        bm.fetch(pid(0, 0)).unwrap();
        bm.pin(pid(0, 0));
        bm.pin(pid(0, 0)); // second, independent pin
        assert_eq!(bm.pin_count(pid(0, 0)), 2);
        bm.unpin(pid(0, 0));
        // One pin remains: the page must still survive pressure.
        bm.fetch(pid(0, 1)).unwrap();
        bm.fetch(pid(0, 2)).unwrap();
        bm.fetch(pid(0, 3)).unwrap();
        assert!(bm.is_resident(pid(0, 0)));
        bm.unpin(pid(0, 0));
        assert_eq!(bm.pin_count(pid(0, 0)), 0);
        bm.fetch(pid(0, 1)).unwrap();
        bm.fetch(pid(0, 2)).unwrap();
        assert!(
            !bm.is_resident(pid(0, 0)),
            "fully unpinned page is evictable"
        );
    }

    #[test]
    fn capacity_one_with_pin_errors() {
        let mut bm = BufferManager::new(store(1, 2), 1, PolicyKind::Lru).unwrap();
        bm.fetch(pid(0, 0)).unwrap();
        bm.pin(pid(0, 0));
        assert!(matches!(
            bm.fetch(pid(0, 1)),
            Err(IrError::NoEvictableFrame)
        ));
        // The rejected fetch must not have read from disk: the pool
        // detects the all-pinned state before issuing the read.
        assert_eq!(bm.store().stats().reads, 1);
        // Unpinning makes the fetch succeed again.
        bm.unpin(pid(0, 0));
        bm.fetch(pid(0, 1)).unwrap();
        assert!(bm.is_resident(pid(0, 1)));
    }

    #[test]
    fn admit_installs_without_a_store_read() {
        let mut bm = BufferManager::new(store(1, 4), 2, PolicyKind::Lru).unwrap();
        bm.fetch(pid(0, 0)).unwrap();
        let reads_before = bm.store().stats().reads;
        // Obtain a page image out of band and admit it.
        let page = store(1, 4).read_page(pid(0, 1)).unwrap();
        bm.admit(page).unwrap();
        assert!(bm.is_resident(pid(0, 1)));
        assert_eq!(
            bm.store().stats().reads,
            reads_before,
            "admit must not touch the store"
        );
        assert_eq!(bm.resident_pages(TermId(0)), 2, "admit maintains b_t");
        let s = bm.stats();
        assert_eq!(
            (s.requests, s.hits, s.misses),
            (1, 0, 1),
            "admit counts no request"
        );
        // The admitted page now serves hits like any fetched page.
        bm.fetch(pid(0, 1)).unwrap();
        assert_eq!(bm.stats().hits, 1);
        // Admitting a resident page is a no-op.
        let dup = store(1, 4).read_page(pid(0, 1)).unwrap();
        bm.admit(dup).unwrap();
        assert_eq!(bm.len(), 2);
        assert_eq!(bm.resident_pages(TermId(0)), 2);
    }

    #[test]
    fn admit_evicts_under_pressure_and_respects_pins() {
        let mut bm = BufferManager::new(store(1, 4), 2, PolicyKind::Lru).unwrap();
        bm.fetch(pid(0, 0)).unwrap();
        bm.fetch(pid(0, 1)).unwrap();
        let page = store(1, 4).read_page(pid(0, 2)).unwrap();
        bm.admit(page).unwrap();
        assert_eq!(bm.len(), 2, "admit respects capacity");
        assert_eq!(bm.stats().evictions, 1);
        // All frames pinned: admit has nowhere to put the page.
        bm.pin(pid(0, 1));
        bm.pin(pid(0, 2));
        let blocked = store(1, 4).read_page(pid(0, 3)).unwrap();
        assert!(matches!(bm.admit(blocked), Err(IrError::NoEvictableFrame)));
        assert_eq!(bm.len(), 2, "failed admit leaves the pool unchanged");
    }

    #[test]
    fn rap_eviction_order_in_pool() {
        let mut bm = BufferManager::new(store(2, 3), 3, PolicyKind::Rap).unwrap();
        // Query uses term 0 only.
        let weights: HashMap<TermId, f64> = [(TermId(0), 1.0)].into_iter().collect();
        bm.begin_query(&weights);
        bm.fetch(pid(0, 0)).unwrap(); // value: 3·1 = 3
        bm.fetch(pid(0, 2)).unwrap(); // value: 1·1 = 1
        bm.fetch(pid(1, 0)).unwrap(); // term 1 not in query: value 0
                                      // Next fetch evicts the zero-valued dropped-term page first.
        bm.fetch(pid(0, 1)).unwrap();
        assert!(!bm.is_resident(pid(1, 0)));
        assert!(bm.is_resident(pid(0, 0)));
        assert!(bm.is_resident(pid(0, 2)));
    }

    #[test]
    fn flush_keeps_stats_reset_clears_them() {
        let mut bm = BufferManager::new(store(1, 2), 2, PolicyKind::Lru).unwrap();
        bm.fetch(pid(0, 0)).unwrap();
        bm.flush();
        assert_eq!(bm.stats().misses, 1);
        assert!(bm.is_empty());
        bm.reset_stats();
        assert_eq!(bm.stats(), BufferStats::default());
    }

    #[test]
    fn refetch_after_flush_is_a_miss() {
        let mut bm = BufferManager::new(store(1, 1), 2, PolicyKind::Lru).unwrap();
        bm.fetch(pid(0, 0)).unwrap();
        bm.flush();
        bm.fetch(pid(0, 0)).unwrap();
        assert_eq!(bm.stats().misses, 2);
    }

    #[test]
    fn all_policies_respect_capacity_under_random_workload() {
        use rand::{rngs::SmallRng, Rng, SeedableRng};
        for kind in PolicyKind::ALL {
            let mut bm = BufferManager::new(store(4, 8), 5, kind).unwrap();
            let mut rng = SmallRng::seed_from_u64(42);
            for _ in 0..500 {
                let t = rng.gen_range(0..4);
                let p = rng.gen_range(0..8);
                bm.fetch(pid(t, p)).unwrap();
                assert!(bm.len() <= 5, "{kind} overflowed the pool");
            }
            let s = bm.stats();
            assert_eq!(s.requests, 500);
            assert_eq!(s.hits + s.misses, 500);
            assert_eq!(
                s.misses,
                bm.store().stats().reads,
                "{kind} miss/disk mismatch"
            );
            // b_t counters must sum to pool occupancy.
            let total: u32 = (0..4).map(|t| bm.resident_pages(TermId(t))).sum();
            assert_eq!(total as usize, bm.len(), "{kind} b_t drift");
        }
    }

    /// A store that fails every read after the first `allow` fetches —
    /// exercises the error path through the pool.
    #[derive(Debug)]
    struct FailingStore {
        inner: DiskSim,
        allow: std::cell::Cell<u32>,
    }

    impl PageStore for FailingStore {
        fn read_page(&self, id: PageId) -> IrResult<Page> {
            if self.allow.get() == 0 {
                return Err(IrError::CorruptPage {
                    page: id,
                    reason: "injected failure".into(),
                });
            }
            self.allow.set(self.allow.get() - 1);
            self.inner.read_page(id)
        }
        fn list_len(&self, term: TermId) -> Option<u32> {
            self.inner.list_len(term)
        }
        fn n_lists(&self) -> usize {
            self.inner.n_lists()
        }
    }

    #[test]
    fn store_errors_propagate_without_corrupting_the_pool() {
        let failing = FailingStore {
            inner: store(1, 4),
            allow: std::cell::Cell::new(2),
        };
        let mut bm = BufferManager::new(failing, 4, PolicyKind::Lru).unwrap();
        bm.fetch(pid(0, 0)).unwrap();
        bm.fetch(pid(0, 1)).unwrap();
        // Third read fails; the pool must stay consistent.
        let err = bm.fetch(pid(0, 2)).unwrap_err();
        assert!(matches!(err, IrError::CorruptPage { .. }));
        assert_eq!(bm.len(), 2, "failed read must not occupy a frame");
        assert_eq!(
            bm.resident_pages(TermId(0)),
            2,
            "b_t must not drift on failure"
        );
        let s = bm.stats();
        assert_eq!(s.misses, 2, "a failed read is not a completed miss");
        // The resident pages are still served from the pool.
        bm.fetch(pid(0, 0)).unwrap();
        assert_eq!(bm.stats().hits, 1);
    }

    #[test]
    fn failed_read_keeps_victim_resident() {
        // Capacity 1: the replacement is read BEFORE any eviction, so
        // a failed read leaves the victim frame untouched — the old
        // evict-then-read order emptied the pool for nothing.
        let failing = FailingStore {
            inner: store(1, 3),
            allow: std::cell::Cell::new(1),
        };
        let mut bm = BufferManager::new(failing, 1, PolicyKind::Lru).unwrap();
        bm.fetch(pid(0, 0)).unwrap();
        assert!(bm.fetch(pid(0, 1)).is_err());
        assert_eq!(bm.len(), 1, "victim must survive a failed replacement read");
        assert!(bm.is_resident(pid(0, 0)));
        assert_eq!(bm.resident_pages(TermId(0)), 1);
        assert_eq!(
            bm.stats().evictions,
            0,
            "no eviction for a page that never arrived"
        );
        // The survivor still serves hits.
        bm.fetch(pid(0, 0)).unwrap();
        assert_eq!(bm.stats().hits, 1);
    }

    #[test]
    fn fetch_traced_labels_hits_and_misses() {
        let mut bm = BufferManager::new(store(1, 3), 2, PolicyKind::Lru).unwrap();
        let (_, first) = bm.fetch_traced(pid(0, 0)).unwrap();
        assert_eq!(first, FetchOutcome::Miss);
        let (_, second) = bm.fetch_traced(pid(0, 0)).unwrap();
        assert_eq!(second, FetchOutcome::Hit);
        // Outcome counting reproduces the pool counters exactly.
        let s = bm.stats();
        assert_eq!((s.requests, s.hits, s.misses), (2, 1, 1));
    }

    #[test]
    fn transient_failures_are_retried_within_budget() {
        use crate::fault::{FaultConfig, FaultStore};
        let cfg = FaultConfig {
            seed: 2,
            transient_rate: 1.0,
            max_consecutive_faults: 2,
            ..FaultConfig::DISABLED
        };
        let faulty = FaultStore::new(store(1, 4), cfg);
        let mut bm = BufferManager::new(faulty, 2, PolicyKind::Lru).unwrap();
        // Budget of 1 retry < 2 consecutive faults: the fetch fails
        // and the give-up is counted.
        bm.set_fetch_policy(FetchPolicy::retries(1));
        let err = bm.fetch(pid(0, 0)).unwrap_err();
        assert!(err.is_transient());
        assert_eq!(bm.metrics().retries.get(), 1);
        assert_eq!(bm.metrics().gave_up.get(), 1);
        assert_eq!(bm.len(), 0, "failed fetch must not occupy a frame");
        // Budget of 2 covers the cap: a fresh page (fresh consecutive
        // count) faults twice, then the capped third attempt delivers.
        bm.set_fetch_policy(FetchPolicy::retries(2));
        let (_, outcome) = bm.fetch_traced(pid(0, 1)).unwrap();
        assert_eq!(outcome, FetchOutcome::Miss);
        assert_eq!(bm.metrics().retries.get(), 3, "two more retries spent");
        assert_eq!(bm.metrics().gave_up.get(), 1);
        assert!(bm.is_resident(pid(0, 1)));
        let s = bm.stats();
        assert_eq!(
            (s.requests, s.hits, s.misses),
            (2, 0, 1),
            "only the delivered read is a completed miss"
        );
    }

    #[test]
    fn torn_pages_never_enter_a_frame() {
        use crate::fault::{FaultConfig, FaultStore};
        let cfg = FaultConfig {
            seed: 9,
            torn_rate: 1.0,
            max_consecutive_faults: 2,
            ..FaultConfig::DISABLED
        };
        let faulty = FaultStore::new(store(1, 2), cfg);
        let mut bm = BufferManager::new(faulty, 2, PolicyKind::Lru).unwrap();
        // No retries: the torn delivery is detected and rejected.
        let err = bm.fetch(pid(0, 0)).unwrap_err();
        assert!(matches!(err, IrError::TornPage { .. }));
        assert_eq!(bm.metrics().torn_pages.get(), 1);
        assert_eq!(bm.len(), 0);
        // With one retry the clean re-read lands, and the resident
        // copy verifies.
        bm.set_fetch_policy(FetchPolicy::retries(1));
        let page = bm.fetch(pid(0, 0)).unwrap();
        assert!(page.is_intact());
        assert!(bm.peek(pid(0, 0)).unwrap().is_intact());
        assert_eq!(bm.metrics().torn_pages.get(), 2);
        assert_eq!(bm.metrics().retries.get(), 1);
    }

    #[test]
    fn retry_events_flow_to_the_observer() {
        use crate::fault::{FaultConfig, FaultStore};
        use crate::observe::EventCounts;
        #[derive(Clone, Debug, Default)]
        struct SharedLog(std::sync::Arc<std::sync::Mutex<Vec<BufferEvent>>>);
        impl BufferObserver for SharedLog {
            fn event(&mut self, event: BufferEvent) {
                self.0.lock().unwrap().push(event);
            }
        }
        let cfg = FaultConfig {
            seed: 4,
            transient_rate: 0.5,
            torn_rate: 0.3,
            max_consecutive_faults: 2,
            ..FaultConfig::DISABLED
        };
        let faulty = FaultStore::new(store(2, 4), cfg);
        let mut bm = BufferManager::new(faulty, 3, PolicyKind::Lru).unwrap();
        bm.set_fetch_policy(FetchPolicy::retries(4));
        let log = SharedLog::default();
        bm.set_observer(Box::new(log.clone()));
        for t in 0..2 {
            for p in 0..4 {
                bm.fetch(pid(t, p)).unwrap();
            }
        }
        let counts = EventCounts::tally(&log.0.lock().unwrap());
        assert_eq!(counts.retries, bm.metrics().retries.get());
        assert_eq!(counts.torn, bm.metrics().torn_pages.get());
        assert!(counts.retries > 0, "this seed must exercise the retry path");
    }

    #[test]
    fn backoff_schedules() {
        let ms = Duration::from_millis;
        assert_eq!(Backoff::None.delay(1), None);
        assert_eq!(Backoff::Fixed(Duration::ZERO).delay(1), None);
        assert_eq!(Backoff::Fixed(ms(5)).delay(3), Some(ms(5)));
        let exp = Backoff::Exponential {
            base: ms(2),
            cap: ms(10),
        };
        assert_eq!(exp.delay(1), Some(ms(2)));
        assert_eq!(exp.delay(2), Some(ms(4)));
        assert_eq!(exp.delay(3), Some(ms(8)));
        assert_eq!(exp.delay(4), Some(ms(10)), "capped");
        assert_eq!(exp.delay(40), Some(ms(10)), "huge attempts stay capped");
    }

    #[test]
    fn fetch_batch_preserves_flooding_read_counts() {
        // Capacity 4, plan [p0..p3, p0..p3] under LRU: sequential
        // fetches give 8 misses on the first pass... no — capacity 4
        // holds all four, so pass two is 4 hits. The interesting case
        // is capacity 3: LRU floods, every fetch of the cycle misses.
        // A batch that resolved hits up front would wrongly serve the
        // second pass from frames that sequential execution has already
        // evicted.
        let mut seq = BufferManager::new(store(1, 4), 3, PolicyKind::Lru).unwrap();
        let mut plan = ReadPlan::new();
        for pass in 0..2 {
            let _ = pass;
            for p in 0..4 {
                plan.push(PlanEntry::new(pid(0, p)));
            }
        }
        for entry in plan.iter() {
            seq.fetch(entry.page).unwrap();
        }
        let mut batched = BufferManager::new(store(1, 4), 3, PolicyKind::Lru).unwrap();
        let out = batched.fetch_batch(&plan).unwrap();
        assert_eq!(out.len(), 8);
        assert!(out.iter().all(|(_, o)| *o == FetchOutcome::Miss));
        assert_eq!(batched.stats(), seq.stats());
        assert_eq!(
            batched.store().stats().reads,
            seq.store().stats().reads,
            "batched reads must equal sequential reads under flooding"
        );
        assert_eq!(batched.resident_ids(), seq.resident_ids());
        assert_eq!(batched.metrics().batches.get(), 1);
        assert_eq!(batched.metrics().batch_pages.sum(), 8);
    }

    #[test]
    fn fetch_batch_duplicate_page_counts_one_load_one_hit() {
        let mut bm = BufferManager::new(store(1, 4), 4, PolicyKind::Lru).unwrap();
        let plan: ReadPlan = [pid(0, 0), pid(0, 0)]
            .into_iter()
            .map(PlanEntry::new)
            .collect();
        let out = bm.fetch_batch(&plan).unwrap();
        assert_eq!(out[0].1, FetchOutcome::Miss);
        assert_eq!(out[1].1, FetchOutcome::Hit);
        let s = bm.stats();
        assert_eq!((s.requests, s.hits, s.misses), (2, 1, 1));
        assert_eq!(bm.store().stats().reads, 1, "one load, not two");
    }

    #[test]
    fn fetch_batch_batches_sequential_store_reads() {
        // A cold scan that fits in the pool goes to the store as one
        // vectored call, classified fully sequential after the first
        // page.
        let mut bm = BufferManager::new(store(1, 6), 8, PolicyKind::Lru).unwrap();
        let plan = ReadPlan::for_term_pages(TermId(0), 6, None);
        let out = bm.fetch_batch(&plan).unwrap();
        assert_eq!(out.len(), 6);
        let ds = bm.store().stats();
        assert_eq!(ds.reads, 6);
        assert_eq!(ds.sequential_reads, 5);
        let s = bm.stats();
        assert_eq!((s.requests, s.hits, s.misses), (6, 0, 6));
        // Rescan: all hits, no store traffic.
        let out = bm.fetch_batch(&plan).unwrap();
        assert!(out.iter().all(|(_, o)| *o == FetchOutcome::Hit));
        assert_eq!(bm.store().stats().reads, 6);
        assert_eq!(bm.metrics().batches.get(), 2);
    }

    #[test]
    fn fetch_batch_error_preserves_prefix() {
        let failing = FailingStore {
            inner: store(1, 4),
            allow: std::cell::Cell::new(2),
        };
        let mut bm = BufferManager::new(failing, 4, PolicyKind::Lru).unwrap();
        let plan = ReadPlan::for_term_pages(TermId(0), 4, None);
        let err = bm.fetch_batch(&plan).unwrap_err();
        assert!(matches!(err, IrError::CorruptPage { .. }));
        // The two delivered pages keep their frames and counters, the
        // failed and unattempted entries leave no trace — identical to
        // the sequential outcome.
        assert_eq!(bm.len(), 2);
        assert_eq!(bm.resident_pages(TermId(0)), 2);
        let s = bm.stats();
        assert_eq!((s.requests, s.hits, s.misses), (3, 0, 2));
    }

    #[test]
    fn fetch_batch_retries_transient_faults_mid_run() {
        use crate::fault::{FaultConfig, FaultStore};
        let cfg = FaultConfig {
            seed: 2,
            transient_rate: 1.0,
            max_consecutive_faults: 2,
            ..FaultConfig::DISABLED
        };
        // Transient-only faults: can_tear() is false, so the vectored
        // path runs and must recover in-place via the resume-retry arm.
        let faulty = FaultStore::new(store(1, 4), cfg);
        assert!(!faulty.can_tear());
        let mut bm = BufferManager::new(faulty, 8, PolicyKind::Lru).unwrap();
        bm.set_fetch_policy(FetchPolicy::retries(2));
        let plan = ReadPlan::for_term_pages(TermId(0), 4, None);
        let out = bm.fetch_batch(&plan).unwrap();
        assert_eq!(out.len(), 4);
        assert!(out.iter().all(|(_, o)| *o == FetchOutcome::Miss));
        assert!(bm.metrics().retries.get() > 0, "seed must exercise retries");
        assert_eq!(bm.metrics().gave_up.get(), 0);
        // Sequential reference run over a store with identical fault
        // schedule: metrics must match exactly.
        let reference = FaultStore::new(store(1, 4), cfg);
        let mut seq = BufferManager::new(reference, 8, PolicyKind::Lru).unwrap();
        seq.set_fetch_policy(FetchPolicy::retries(2));
        for p in 0..4 {
            seq.fetch(pid(0, p)).unwrap();
        }
        assert_eq!(bm.metrics().retries.get(), seq.metrics().retries.get());
        assert_eq!(bm.stats(), seq.stats());
    }

    #[test]
    fn fetch_batch_on_tearing_store_takes_per_entry_path() {
        use crate::fault::{FaultConfig, FaultStore};
        let cfg = FaultConfig {
            seed: 9,
            torn_rate: 0.4,
            max_consecutive_faults: 2,
            ..FaultConfig::DISABLED
        };
        let faulty = FaultStore::new(store(1, 4), cfg);
        assert!(faulty.can_tear());
        let mut bm = BufferManager::new(faulty, 8, PolicyKind::Lru).unwrap();
        bm.set_fetch_policy(FetchPolicy::retries(2));
        let plan = ReadPlan::for_term_pages(TermId(0), 4, None);
        let out = bm.fetch_batch(&plan).unwrap();
        assert_eq!(out.len(), 4);
        assert!(
            out.iter().all(|(p, _)| p.is_intact()),
            "no torn page may reach the caller"
        );
        // Identical to the sequential run under the same schedule.
        let mut seq =
            BufferManager::new(FaultStore::new(store(1, 4), cfg), 8, PolicyKind::Lru).unwrap();
        seq.set_fetch_policy(FetchPolicy::retries(2));
        for p in 0..4 {
            seq.fetch(pid(0, p)).unwrap();
        }
        assert_eq!(
            bm.metrics().torn_pages.get(),
            seq.metrics().torn_pages.get()
        );
        assert_eq!(bm.stats(), seq.stats());
    }

    #[test]
    fn fetch_batch_hint_reaches_rap_and_error_counters() {
        let mut bm = BufferManager::new(store(2, 3), 4, PolicyKind::Rap).unwrap();
        // No begin_query: only the hint values the pages.
        let plan = ReadPlan::for_term_pages(TermId(0), 2, Some(2.0));
        bm.fetch_batch(&plan).unwrap();
        assert_eq!(bm.metrics().hinted_inserts.get(), 2);
        assert_eq!(
            bm.metrics().hint_abs_error_milli.get(),
            0,
            "no announced query: assigned value == hinted value"
        );
        // Announce a query that disagrees with the hint: the policy's
        // assigned value wins and the gap is recorded.
        let weights: HashMap<TermId, f64> = [(TermId(1), 1.0)].into_iter().collect();
        bm.begin_query(&weights);
        // Page (1,0) has max_freq 3, idf 1.0 → w* = 3. Announced value
        // 3·1 = 3; hinted estimate 3·2 = 6; |6−3| = 3.0 → 3000 milli.
        bm.fetch_batch(&ReadPlan::single_hinted(pid(1, 0), 2.0))
            .unwrap();
        assert_eq!(bm.metrics().hinted_inserts.get(), 3);
        assert_eq!(bm.metrics().hint_abs_error_milli.get(), 3000);
    }

    #[test]
    fn fetch_batch_empty_plan_is_a_noop() {
        let mut bm = BufferManager::new(store(1, 1), 1, PolicyKind::Lru).unwrap();
        let out = bm.fetch_batch(&ReadPlan::new()).unwrap();
        assert!(out.is_empty());
        assert_eq!(bm.stats(), BufferStats::default());
        assert_eq!(bm.metrics().batches.get(), 1);
        assert_eq!(bm.metrics().batch_pages.count(), 1);
    }

    #[test]
    fn fetch_batch_all_pinned_pool_errors_without_reading() {
        let mut bm = BufferManager::new(store(1, 2), 1, PolicyKind::Lru).unwrap();
        bm.fetch(pid(0, 0)).unwrap();
        bm.pin(pid(0, 0));
        let err = bm.fetch_batch(&ReadPlan::single(pid(0, 1))).unwrap_err();
        assert!(matches!(err, IrError::NoEvictableFrame));
        assert_eq!(
            bm.store().stats().reads,
            1,
            "rejected batch entry must not read the store"
        );
    }

    #[test]
    fn submit_pins_and_counts_in_flight_until_complete() {
        let mut bm = BufferManager::new(Overlapping(store(1, 4)), 4, PolicyKind::Lru).unwrap();
        bm.fetch(pid(0, 0)).unwrap(); // resident ahead of the submission
        let plan = ReadPlan::for_term_pages(TermId(0), 3, None);
        let handle = bm.submit_batch(plan).unwrap();
        // Every distinct plan page is pinned; only the two
        // not-yet-resident ones count as in-flight.
        assert_eq!(handle.pinned.len(), 3);
        assert_eq!(handle.loading, vec![pid(0, 1), pid(0, 2)]);
        assert_eq!(bm.pin_count(pid(0, 0)), 1);
        assert_eq!(bm.pin_count(pid(0, 2)), 1);
        assert_eq!(
            bm.resident_pages(TermId(0)),
            3,
            "b_t counts in-flight pages"
        );
        // A store with an empty submission queue starts nothing.
        assert_eq!(bm.store().0.stats().reads, 1);
        let out = bm.complete(handle).unwrap();
        assert_eq!(out.len(), 3);
        assert_eq!(bm.pin_count(pid(0, 0)), 0, "pins come off at completion");
        assert_eq!(bm.resident_pages(TermId(0)), 3, "now actually resident");
        assert_eq!(bm.store().0.stats().reads, 3);
    }

    #[test]
    fn split_phase_composition_matches_blocking_fetch() {
        // Flooding workload, the hard case: capacity 3, two passes over
        // 4 pages. The submission pins all four distinct pages, so the
        // unpin-before-fetch order inside complete is what keeps the
        // eviction cascade (and hence every counter) identical.
        let mut plan = ReadPlan::new();
        for _ in 0..2 {
            for p in 0..4 {
                plan.push(PlanEntry::new(pid(0, p)));
            }
        }
        let mut blocking = BufferManager::new(store(1, 4), 3, PolicyKind::Lru).unwrap();
        let blocked = blocking.fetch_batch(&plan).unwrap();
        let mut split = BufferManager::new(store(1, 4), 3, PolicyKind::Lru).unwrap();
        let handle = split.submit_batch(plan).unwrap();
        let served = split.complete(handle).unwrap();
        assert_eq!(served.len(), blocked.len());
        assert_eq!(split.stats(), blocking.stats());
        assert_eq!(split.store().stats(), blocking.store().stats());
        assert_eq!(split.resident_ids(), blocking.resident_ids());
        assert_eq!(split.metrics().batches.get(), 1);
        assert_eq!(split.metrics().batch_pages.sum(), 8);
    }

    #[test]
    fn cancel_releases_pins_without_fetching() {
        let mut bm = BufferManager::new(Overlapping(store(1, 4)), 2, PolicyKind::Lru).unwrap();
        let handle = bm
            .submit_batch(ReadPlan::for_term_pages(TermId(0), 2, None))
            .unwrap();
        assert_eq!(bm.resident_pages(TermId(0)), 2, "in-flight only");
        bm.cancel_batch(handle);
        assert_eq!(bm.resident_pages(TermId(0)), 0);
        assert_eq!(bm.pin_count(pid(0, 0)), 0);
        assert_eq!(bm.store().0.stats().reads, 0, "cancellation reads nothing");
        // The batch was recorded at submission; no request ever ran.
        assert_eq!(bm.metrics().batches.get(), 1);
        assert_eq!(bm.stats().requests, 0);
        assert!(bm.is_empty());
    }

    #[test]
    fn hits_never_touch_disk() {
        for kind in PolicyKind::ALL {
            let mut bm = BufferManager::new(store(1, 2), 4, kind).unwrap();
            bm.fetch(pid(0, 0)).unwrap();
            let before = bm.store().stats().reads;
            for _ in 0..10 {
                bm.fetch(pid(0, 0)).unwrap();
            }
            assert_eq!(bm.store().stats().reads, before, "{kind}");
        }
    }
}
