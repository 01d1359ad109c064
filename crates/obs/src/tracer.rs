//! The [`Tracer`]: hands out per-query [`ActiveTrace`]s, keeps a ring
//! of recent finished traces, and owns the [`MetricsRegistry`].
//!
//! # Hot-path design
//!
//! * **Off is free.** [`Tracer::start`] is one relaxed atomic load when
//!   disabled; every instrumentation site threads an `Option<&ActiveTrace>`
//!   that is `None`, so the executor's inner loops pay a predictable
//!   never-taken branch and nothing else.
//! * **Recording is lock-free.** An [`ActiveTrace`] owns a fixed-size
//!   slot buffer (`SpanBuf`); any participating thread claims a slot
//!   with one `fetch_add` and writes a `Copy` span into it — no locks,
//!   no allocation, no contention beyond the cursor cache line. Spans
//!   past the budget are counted as dropped, never recorded.
//! * **Draining is race-free by ownership.** [`ActiveTrace::finish`]
//!   takes `self` by value, so the borrow checker guarantees no
//!   recorder still holds `&ActiveTrace`; a parallel fan-out's scoped
//!   joins additionally order helper-thread writes before the
//!   fanning-out thread returns. Only then is the buffer read and the
//!   [`QueryTrace`] pushed into the (cold, mutexed) ring.

use std::cell::UnsafeCell;
use std::mem::MaybeUninit;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

use parking_lot::Mutex;

use crate::metrics::MetricsRegistry;
use crate::policy::ObsPolicy;
use crate::span::{QueryTrace, Span, SpanId, SpanKind, ROOT_SPAN};

/// Fixed-capacity, lock-free, write-only span buffer. Slots are claimed
/// with `fetch_add` and read only after every writer is done (enforced
/// by `ActiveTrace::finish(self)` consuming the unique owner).
struct SpanBuf {
    slots: Box<[UnsafeCell<MaybeUninit<Span>>]>,
    len: AtomicUsize,
}

// Safety: distinct pushes write distinct slots (the `fetch_add` cursor
// never hands out an index twice), and slots are only read by `drain`,
// which requires `&mut self` — exclusive access after all writers.
unsafe impl Sync for SpanBuf {}

impl SpanBuf {
    fn new(capacity: usize) -> Self {
        SpanBuf {
            slots: (0..capacity.max(1))
                .map(|_| UnsafeCell::new(MaybeUninit::uninit()))
                .collect(),
            len: AtomicUsize::new(0),
        }
    }

    /// Append a span; `false` when the buffer is full (span dropped).
    fn push(&self, span: Span) -> bool {
        let i = self.len.fetch_add(1, Ordering::Relaxed);
        if i >= self.slots.len() {
            return false;
        }
        // Safety: index `i` was claimed exclusively above; see `Sync`.
        unsafe { (*self.slots[i].get()).write(span) };
        true
    }

    /// Read back every recorded span. `&mut self` proves all writers
    /// have detached.
    fn drain(&mut self) -> Vec<Span> {
        let n = self.len.load(Ordering::Relaxed).min(self.slots.len());
        (0..n)
            // Safety: slots `0..n` were fully written before any `&mut`
            // could exist; `Span` is `Copy` so reading does not move.
            .map(|i| unsafe { (*self.slots[i].get()).assume_init() })
            .collect()
    }
}

/// The in-flight trace of one query. Shared by reference into worker
/// closures (it is `Sync`); finished exactly once by its owner.
pub struct ActiveTrace {
    tracer: Arc<Tracer>,
    started: Instant,
    table: String,
    query: String,
    buf: SpanBuf,
    next_id: AtomicU32,
    dropped: AtomicU32,
}

impl std::fmt::Debug for ActiveTrace {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ActiveTrace")
            .field("table", &self.table)
            .field("query", &self.query)
            .finish()
    }
}

impl ActiveTrace {
    /// Nanoseconds since the trace started. Saturates at `u64::MAX`
    /// (a >584-year query has other problems).
    pub fn now_ns(&self) -> u64 {
        u64::try_from(self.started.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Reserve a span id to parent children under before the span's own
    /// window is known. Pair with [`ActiveTrace::record_as`].
    pub fn alloc_id(&self) -> SpanId {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    /// Record a span over `[start_ns, end_ns]` under `parent`,
    /// returning its id.
    pub fn record(&self, parent: SpanId, kind: SpanKind, start_ns: u64, end_ns: u64) -> SpanId {
        let id = self.alloc_id();
        self.record_as(id, parent, kind, start_ns, end_ns);
        id
    }

    /// Record a span under a pre-allocated id (see [`ActiveTrace::alloc_id`]).
    pub fn record_as(
        &self,
        id: SpanId,
        parent: SpanId,
        kind: SpanKind,
        start_ns: u64,
        end_ns: u64,
    ) {
        let span = Span {
            id,
            parent,
            kind,
            start_ns,
            dur_ns: end_ns.saturating_sub(start_ns),
        };
        if !self.buf.push(span) {
            self.dropped.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Time `f` as a span under `parent`.
    pub fn scope<R>(&self, parent: SpanId, kind: SpanKind, f: impl FnOnce() -> R) -> R {
        let start = self.now_ns();
        let r = f();
        self.record(parent, kind, start, self.now_ns());
        r
    }

    /// The metrics registry, for recording alongside spans.
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.tracer.metrics
    }

    /// Seal the trace: drain the span buffer, synthesize the root span,
    /// push the [`QueryTrace`] into the tracer's ring, feed the query
    /// latency histogram, and return the finished trace.
    pub fn finish(mut self) -> QueryTrace {
        let total_ns = self.now_ns();
        let mut spans = self.buf.drain();
        spans.push(Span {
            id: ROOT_SPAN,
            parent: ROOT_SPAN,
            kind: SpanKind::Query,
            start_ns: 0,
            dur_ns: total_ns,
        });
        spans.sort_by_key(|s| (s.start_ns, s.id));
        let trace = QueryTrace {
            seq: self.tracer.seq.fetch_add(1, Ordering::Relaxed),
            table: std::mem::take(&mut self.table),
            query: std::mem::take(&mut self.query),
            total_ns,
            spans,
            dropped_spans: self.dropped.load(Ordering::Relaxed),
        };
        self.tracer.metrics.inc("query.traced", 1);
        self.tracer.metrics.observe_ns("query.latency_ns", total_ns);
        self.tracer.push_trace(trace.clone());
        trace
    }
}

/// Per-engine trace recorder and metrics owner. Cheap to share
/// (`Arc<Tracer>`); disabled by default.
#[derive(Debug)]
pub struct Tracer {
    enabled: AtomicBool,
    ring_capacity: AtomicUsize,
    max_spans: AtomicUsize,
    seq: AtomicU64,
    ring: Mutex<Vec<QueryTrace>>,
    metrics: Arc<MetricsRegistry>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

impl Tracer {
    /// A disabled tracer (the engine default).
    pub fn new() -> Self {
        Tracer {
            enabled: AtomicBool::new(false),
            ring_capacity: AtomicUsize::new(64),
            max_spans: AtomicUsize::new(4096),
            seq: AtomicU64::new(0),
            ring: Mutex::new(Vec::new()),
            metrics: Arc::new(MetricsRegistry::new()),
        }
    }

    /// Apply a policy: `On` enables recording with its config, `Off`
    /// disables it (the ring and metrics keep their contents — turning
    /// tracing back on resumes the same history).
    pub fn set_policy(&self, policy: &ObsPolicy) {
        match policy.config() {
            Some(config) => {
                self.ring_capacity
                    .store(config.ring_capacity.max(1), Ordering::Relaxed);
                self.max_spans
                    .store(config.max_spans_per_trace.max(1), Ordering::Relaxed);
                self.enabled.store(true, Ordering::Relaxed);
            }
            None => self.enabled.store(false, Ordering::Relaxed),
        }
    }

    /// Is recording on? (One relaxed load — the whole off-cost.)
    pub fn is_enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Shared handle to the metrics registry.
    pub fn metrics(&self) -> Arc<MetricsRegistry> {
        Arc::clone(&self.metrics)
    }

    /// Begin tracing a query, or `None` when disabled. The query
    /// description is built lazily so the off path never formats.
    pub fn start(
        self: &Arc<Self>,
        table: &str,
        query: impl FnOnce() -> String,
    ) -> Option<ActiveTrace> {
        if !self.is_enabled() {
            return None;
        }
        Some(self.force_start(table, query()))
    }

    /// Begin tracing unconditionally (used by `explain`, which profiles
    /// one query regardless of policy).
    pub fn force_start(self: &Arc<Self>, table: &str, query: String) -> ActiveTrace {
        ActiveTrace {
            tracer: Arc::clone(self),
            started: Instant::now(),
            table: table.to_owned(),
            query,
            buf: SpanBuf::new(self.max_spans.load(Ordering::Relaxed)),
            // Id 0 is the implicit root; children allocate from 1.
            next_id: AtomicU32::new(ROOT_SPAN + 1),
            dropped: AtomicU32::new(0),
        }
    }

    /// Most recent finished traces, oldest first.
    pub fn recent_traces(&self) -> Vec<QueryTrace> {
        self.ring.lock().clone()
    }

    fn push_trace(&self, trace: QueryTrace) {
        let cap = self.ring_capacity.load(Ordering::Relaxed).max(1);
        let mut ring = self.ring.lock();
        ring.push(trace);
        if ring.len() > cap {
            let overflow = ring.len() - cap;
            ring.drain(..overflow);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::ObsConfig;
    use crate::span::CacheOutcome;

    fn on_tracer() -> Arc<Tracer> {
        let t = Arc::new(Tracer::new());
        t.set_policy(&ObsPolicy::on());
        t
    }

    #[test]
    fn off_tracer_records_nothing() {
        let t = Arc::new(Tracer::new());
        assert!(t
            .start("sales", || unreachable!("must not format"))
            .is_none());
        assert!(t.recent_traces().is_empty());
    }

    #[test]
    fn spans_survive_into_the_ring() {
        let t = on_tracer();
        let active = t.start("sales", || "q".into()).expect("enabled");
        let exec = active.alloc_id();
        let s0 = active.now_ns();
        active.record(exec, SpanKind::Morsel { index: 0 }, s0, active.now_ns());
        active.record(
            ROOT_SPAN,
            SpanKind::CacheLookup(CacheOutcome::Miss),
            0,
            active.now_ns(),
        );
        active.record_as(
            exec,
            ROOT_SPAN,
            SpanKind::Exec {
                stage: "scan",
                participants: 1,
                morsels: 1,
            },
            0,
            active.now_ns(),
        );
        let finished = active.finish();
        assert!(finished.is_well_formed(), "{finished:#?}");
        assert_eq!(finished.spans_labelled("morsel").len(), 1);
        assert_eq!(t.recent_traces(), vec![finished]);
    }

    #[test]
    fn concurrent_recording_is_complete() {
        let t = on_tracer();
        let active = t.start("sales", || "q".into()).expect("enabled");
        std::thread::scope(|s| {
            for w in 0..4u32 {
                let active = &active;
                s.spawn(move || {
                    for i in 0..100 {
                        let start = active.now_ns();
                        active.record(
                            ROOT_SPAN,
                            SpanKind::Morsel { index: w * 100 + i },
                            start,
                            active.now_ns(),
                        );
                    }
                });
            }
        });
        let finished = active.finish();
        assert_eq!(finished.spans_labelled("morsel").len(), 400);
        assert_eq!(finished.dropped_spans, 0);
        assert!(finished.is_well_formed());
        let mut seen: Vec<u32> = finished
            .spans_labelled("morsel")
            .iter()
            .map(|s| match s.kind {
                SpanKind::Morsel { index } => index,
                _ => unreachable!(),
            })
            .collect();
        seen.sort_unstable();
        assert_eq!(seen, (0..400).collect::<Vec<_>>());
    }

    #[test]
    fn span_budget_drops_not_corrupts() {
        let t = Arc::new(Tracer::new());
        t.set_policy(&ObsPolicy::On(ObsConfig {
            ring_capacity: 2,
            max_spans_per_trace: 8,
        }));
        let active = t.start("sales", || "q".into()).expect("enabled");
        for i in 0..20u32 {
            let start = active.now_ns();
            active.record(ROOT_SPAN, SpanKind::Morsel { index: i }, start, start);
        }
        let finished = active.finish();
        assert_eq!(finished.spans_labelled("morsel").len(), 8);
        assert_eq!(finished.dropped_spans, 12);

        // Ring keeps only the newest `ring_capacity` traces.
        for _ in 0..3 {
            t.start("sales", || "q".into()).expect("enabled").finish();
        }
        let recent = t.recent_traces();
        assert_eq!(recent.len(), 2);
        assert!(recent[0].seq < recent[1].seq);
    }

    #[test]
    fn metrics_flow_through_finish() {
        let t = on_tracer();
        t.start("sales", || "q".into()).expect("on").finish();
        let snap = t.metrics().snapshot();
        assert_eq!(snap.counter("query.traced"), 1);
        assert_eq!(snap.histogram("query.latency_ns").expect("fed").count, 1);
    }
}
