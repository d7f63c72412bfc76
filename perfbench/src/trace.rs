//! Spans recorded from the benchmark's own files, around the calls into
//! each layer, and the forwarding wrappers that record them.
//!
//! [`TracedBuffer`] wraps any [`QueryBuffer`] and [`TracedStore`] any
//! [`PageStore`]. Both forward every trait method to the wrapped value
//! unchanged, so a traced run performs exactly the calls an untraced
//! run does; the methods that do work are additionally timed. Spans go
//! to a thread-local recorder: the current query's spans are folded
//! into per-layer sums when the query ends, and a bounded prefix of all
//! spans is kept in memory and written out when the run ends.

use crate::stats::self_time;
use ir_storage::{BufferStats, FetchOutcome, Page, PageStore, QueryBuffer};
use ir_types::{BatchHandle, IrResult, PageId, ReadHandle, ReadPlan, TermId};
use std::cell::RefCell;
use std::collections::HashMap;
use std::io::Write;
use std::time::Instant;

/// The layer a span belongs to. A span's parent is the span open on
/// the same thread when it began.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Layer {
    /// `Query::from_ids` (ir-core).
    Query,
    /// `ir_core::eval::evaluate` (ir-core).
    Eval,
    /// `QueryBuffer` methods (ir-storage pool).
    Pool,
    /// `PageStore` methods of the I/O scheduler (ir-storage backend).
    Sched,
    /// `PageStore` methods of the device: the simulator or the page
    /// file (ir-storage store, codec decode included).
    Device,
    /// `SessionServer::run` (ir-engine).
    Server,
}

const LAYERS: usize = 6;

impl Layer {
    fn name(self) -> &'static str {
        match self {
            Layer::Query => "query",
            Layer::Eval => "eval",
            Layer::Pool => "pool",
            Layer::Sched => "sched",
            Layer::Device => "device",
            Layer::Server => "server",
        }
    }
}

const NO_PARENT: u32 = u32::MAX;

/// One recorded span.
#[derive(Clone, Copy, Debug)]
struct SpanRec {
    name: &'static str,
    layer: Layer,
    /// Index of the parent within the same query's spans.
    parent: u32,
    query: u32,
    start_ns: u64,
    end_ns: u64,
    /// Pages the call covered (device reads), 0 otherwise.
    pages: u32,
}

/// Per-layer sums over every traced query.
#[derive(Clone, Copy, Debug, Default)]
pub struct LayerSums {
    /// Queries folded in.
    pub queries: u64,
    /// Σ span duration per layer, ns.
    pub total_ns: [u64; LAYERS],
    /// Σ span self time per layer, ns.
    pub self_ns: [u64; LAYERS],
    /// Σ duration of `begin_query` spans, ns.
    pub begin_query_ns: u64,
    /// Σ duration of `b_t` inquiry spans, ns.
    pub bt_ns: u64,
    /// Σ duration of device read spans, ns.
    pub device_read_ns: u64,
    /// Pages those device read spans covered.
    pub device_read_pages: u64,
}

impl LayerSums {
    /// Mean per traced query of a per-layer nanosecond sum, in µs.
    pub fn per_query_us(&self, ns: u64) -> f64 {
        ns as f64 / 1e3 / self.queries.max(1) as f64
    }

    /// Σ self time of `layer`, ns.
    pub fn self_of(&self, layer: Layer) -> u64 {
        self.self_ns[layer as usize]
    }
}

struct Recorder {
    on: bool,
    base: Instant,
    query: u32,
    current: Vec<SpanRec>,
    stack: Vec<u32>,
    children: Vec<(u64, u64)>,
    kept: Vec<SpanRec>,
    sums: LayerSums,
}

/// Spans kept for the output file; the per-layer sums cover every
/// traced query regardless.
const KEPT_SPANS: usize = 200_000;

thread_local! {
    static REC: RefCell<Recorder> = RefCell::new(Recorder {
        on: false,
        base: Instant::now(),
        query: 0,
        current: Vec::new(),
        stack: Vec::new(),
        children: Vec::new(),
        kept: Vec::new(),
        sums: LayerSums::default(),
    });
}

/// Starts recording on this thread. Buffers are reserved up front, so
/// recording a span never allocates inside a measured call.
pub fn start() {
    REC.with(|r| {
        let mut r = r.borrow_mut();
        r.on = true;
        r.base = Instant::now();
        r.current.reserve(1 << 14);
        r.stack.reserve(64);
        r.children.reserve(1 << 14);
        r.kept.reserve(KEPT_SPANS);
    });
}

/// Stops recording and returns the per-layer sums.
pub fn stop() -> LayerSums {
    REC.with(|r| {
        let mut r = r.borrow_mut();
        r.on = false;
        r.sums
    })
}

/// Times `f` as a span of `layer` named `name` covering `pages` pages.
/// Does nothing but call `f` while recording is off.
#[inline]
pub fn span<R>(layer: Layer, name: &'static str, pages: usize, f: impl FnOnce() -> R) -> R {
    let open = REC.with(|r| {
        let mut r = r.borrow_mut();
        if !r.on {
            return false;
        }
        let idx = r.current.len() as u32;
        let parent = r.stack.last().copied().unwrap_or(NO_PARENT);
        let start_ns = r.base.elapsed().as_nanos() as u64;
        let query = r.query;
        r.current.push(SpanRec {
            name,
            layer,
            parent,
            query,
            start_ns,
            end_ns: start_ns,
            pages: pages as u32,
        });
        r.stack.push(idx);
        true
    });
    let out = f();
    if open {
        REC.with(|r| {
            let mut r = r.borrow_mut();
            let idx = r.stack.pop().expect("span stack matches span calls") as usize;
            r.current[idx].end_ns = r.base.elapsed().as_nanos() as u64;
        });
    }
    out
}

/// Ends the current query: folds its spans into the per-layer sums and
/// keeps them for the output file while there is room.
pub fn end_query() {
    REC.with(|r| {
        let mut guard = r.borrow_mut();
        let r = &mut *guard;
        if !r.on {
            return;
        }
        let spans = &r.current;
        for (i, s) in spans.iter().enumerate() {
            // Spans are in start order and nest, so a span's children
            // are among the spans that start before it ends.
            r.children.clear();
            r.children.extend(
                spans[i + 1..]
                    .iter()
                    .take_while(|c| c.start_ns < s.end_ns)
                    .filter(|c| c.parent == i as u32)
                    .map(|c| (c.start_ns, c.end_ns)),
            );
            let dur = s.end_ns - s.start_ns;
            let l = s.layer as usize;
            r.sums.total_ns[l] += dur;
            r.sums.self_ns[l] += self_time(s.start_ns, s.end_ns, &mut r.children);
            match s.name {
                "begin_query" => r.sums.begin_query_ns += dur,
                "resident_pages" | "resident_pages_many" => r.sums.bt_ns += dur,
                _ => {}
            }
            if s.layer == Layer::Device && s.pages > 0 {
                r.sums.device_read_ns += dur;
                r.sums.device_read_pages += u64::from(s.pages);
            }
        }
        let room = KEPT_SPANS - r.kept.len();
        let keep = r.current.len().min(room);
        r.kept.extend_from_slice(&r.current[..keep]);
        r.current.clear();
        r.sums.queries += 1;
        r.query += 1;
    });
}

/// Writes the kept spans as tab-separated lines: query, span index,
/// parent index (-1 for a root), layer, name, start and end in ns
/// since recording started, pages.
pub fn write_kept(path: &std::path::Path) -> std::io::Result<usize> {
    REC.with(|r| {
        let r = r.borrow();
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(
            out,
            "query\tspan\tparent\tlayer\tname\tstart_ns\tend_ns\tpages"
        )?;
        let mut first = 0usize;
        for (i, s) in r.kept.iter().enumerate() {
            if i > 0 && r.kept[i - 1].query != s.query {
                first = i;
            }
            let parent = if s.parent == NO_PARENT {
                -1
            } else {
                i64::from(s.parent)
            };
            writeln!(
                out,
                "{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}",
                s.query,
                i - first,
                parent,
                s.layer.name(),
                s.name,
                s.start_ns,
                s.end_ns,
                s.pages
            )?;
        }
        out.flush()?;
        Ok(r.kept.len())
    })
}

/// A [`QueryBuffer`] that forwards every method to the wrapped pool and
/// times the ones that do work as [`Layer::Pool`] spans.
pub struct TracedBuffer<B>(pub B);

impl<B: QueryBuffer> QueryBuffer for TracedBuffer<B> {
    fn fetch(&mut self, id: PageId) -> IrResult<Page> {
        span(Layer::Pool, "fetch", 0, || self.0.fetch(id))
    }

    fn fetch_traced(&mut self, id: PageId) -> IrResult<(Page, FetchOutcome)> {
        span(Layer::Pool, "fetch_traced", 0, || self.0.fetch_traced(id))
    }

    fn fetch_batch(&mut self, plan: &ReadPlan) -> IrResult<Vec<(Page, FetchOutcome)>> {
        span(Layer::Pool, "fetch_batch", 0, || self.0.fetch_batch(plan))
    }

    fn fetch_batch_into(
        &mut self,
        plan: &ReadPlan,
        out: &mut Vec<(Page, FetchOutcome)>,
    ) -> IrResult<()> {
        span(Layer::Pool, "fetch_batch_into", 0, || {
            self.0.fetch_batch_into(plan, out)
        })
    }

    fn prefetch(&mut self, plan: &ReadPlan) {
        span(Layer::Pool, "prefetch", 0, || self.0.prefetch(plan))
    }

    fn submit_batch(&mut self, plan: ReadPlan) -> IrResult<BatchHandle> {
        span(Layer::Pool, "submit_batch", 0, || self.0.submit_batch(plan))
    }

    fn complete(&mut self, handle: BatchHandle) -> IrResult<Vec<(Page, FetchOutcome)>> {
        span(Layer::Pool, "complete", 0, || self.0.complete(handle))
    }

    fn complete_into(
        &mut self,
        handle: BatchHandle,
        out: &mut Vec<(Page, FetchOutcome)>,
    ) -> IrResult<()> {
        span(Layer::Pool, "complete_into", 0, || {
            self.0.complete_into(handle, out)
        })
    }

    fn cancel_batch(&mut self, handle: BatchHandle) {
        span(Layer::Pool, "cancel_batch", 0, || {
            self.0.cancel_batch(handle)
        })
    }

    fn overlap_depth(&self) -> usize {
        self.0.overlap_depth()
    }

    fn plan_alignment(&self) -> Option<u32> {
        self.0.plan_alignment()
    }

    fn resident_pages(&self, term: TermId) -> u32 {
        span(Layer::Pool, "resident_pages", 0, || {
            self.0.resident_pages(term)
        })
    }

    fn resident_pages_many(&self, terms: &[TermId]) -> Vec<u32> {
        span(Layer::Pool, "resident_pages_many", 0, || {
            self.0.resident_pages_many(terms)
        })
    }

    fn begin_query(&mut self, weights: &HashMap<TermId, f64>) {
        span(Layer::Pool, "begin_query", 0, || {
            self.0.begin_query(weights)
        })
    }

    fn stats(&self) -> BufferStats {
        self.0.stats()
    }

    fn borrows(&self) -> u64 {
        self.0.borrows()
    }
}

/// A [`PageStore`] that forwards every method to the wrapped store and
/// times the ones that move pages as spans of `layer`.
pub struct TracedStore<S> {
    inner: S,
    layer: Layer,
}

impl<S> TracedStore<S> {
    /// Wraps `inner`, recording its spans under `layer`.
    pub fn new(inner: S, layer: Layer) -> Self {
        TracedStore { inner, layer }
    }
}

impl<S: PageStore> PageStore for TracedStore<S> {
    fn read_page(&self, id: PageId) -> IrResult<Page> {
        span(self.layer, "read_page", 1, || self.inner.read_page(id))
    }

    fn list_len(&self, term: TermId) -> Option<u32> {
        self.inner.list_len(term)
    }

    fn n_lists(&self) -> usize {
        self.inner.n_lists()
    }

    fn can_tear(&self) -> bool {
        self.inner.can_tear()
    }

    fn read_pages(&self, ids: &[PageId]) -> Vec<IrResult<Page>> {
        span(self.layer, "read_pages", ids.len(), || {
            self.inner.read_pages(ids)
        })
    }

    fn prefetch(&self, ids: &[PageId]) {
        span(self.layer, "prefetch", 0, || self.inner.prefetch(ids))
    }

    fn submit(&self, ids: &[PageId]) -> Vec<ReadHandle> {
        span(self.layer, "submit", 0, || self.inner.submit(ids))
    }

    fn overlap_depth(&self) -> usize {
        self.inner.overlap_depth()
    }

    fn io_wait_us(&self) -> u64 {
        self.inner.io_wait_us()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ir_core::eval::{evaluate, EvalOptions};
    use ir_core::{Algorithm, Query};
    use ir_corpus::{Corpus, CorpusConfig};
    use ir_storage::{BufferManager, IoConfig, IoScheduler, PolicyKind, ShardedBufferPool};
    use std::sync::Arc;

    #[test]
    fn wrappers_are_transparent_and_record_every_layer() {
        let corpus = Corpus::generate(CorpusConfig::tiny());
        let index = ir_engine::index_corpus(&corpus, false).unwrap();
        let disk = Arc::clone(index.disk());
        let frames = 8;
        let mut plain = BufferManager::new(Arc::clone(&disk), frames, PolicyKind::Rap).unwrap();
        let store = TracedStore::new(Arc::clone(&disk), Layer::Device);
        let mut traced = TracedBuffer(BufferManager::new(store, frames, PolicyKind::Rap).unwrap());
        start();
        let mut reads = 0;
        for topic in corpus.queries() {
            let query = Query::from_named(&index, &topic.terms);
            for alg in [Algorithm::Baf, Algorithm::Df] {
                let opts = EvalOptions::default();
                let want = evaluate(alg, &index, &mut plain, &query, opts).unwrap();
                let got = span(Layer::Eval, "evaluate", 0, || {
                    evaluate(alg, &index, &mut traced, &query, opts)
                })
                .unwrap();
                end_query();
                assert_eq!(got.hits, want.hits);
                assert_eq!(got.stats, want.stats);
                reads += got.stats.disk_reads;
            }
        }
        let sums = stop();
        assert_eq!(sums.queries, 2 * corpus.queries().len() as u64);
        assert_eq!(sums.device_read_pages, reads);
        assert!(sums.self_of(Layer::Eval) > 0);
        assert!(sums.self_of(Layer::Pool) > 0);
        assert!(sums.begin_query_ns > 0 && sums.bt_ns > 0);
        assert_eq!(QueryBuffer::stats(&traced), QueryBuffer::stats(&plain));

        // The getters a scan plans with reach through both wrappers.
        let sharded = ShardedBufferPool::new(Arc::clone(&disk), 64, PolicyKind::Rap, 4).unwrap();
        let wrapped = TracedBuffer(sharded.clone());
        assert_eq!(wrapped.plan_alignment(), sharded.plan_alignment());
        assert!(wrapped.plan_alignment().is_some());
        let config = IoConfig {
            queue_depth: 4,
            ..IoConfig::default()
        };
        let sched = IoScheduler::new(TracedStore::new(Arc::clone(&disk), Layer::Device), config);
        let pool = TracedBuffer(
            BufferManager::new(TracedStore::new(sched, Layer::Sched), 8, PolicyKind::Lru).unwrap(),
        );
        assert_eq!(pool.overlap_depth(), 4);
    }
}
