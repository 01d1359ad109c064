//! The cooperative scheduler: a bounded, priority-ordered run queue
//! drained by a fixed worker set.
//!
//! Priority is a three-part key, compared lexicographically:
//!
//! 1. **quanta** — the submitting session's accumulated service time
//!    divided by the fairness quantum. Light sessions sort ahead of a
//!    heavy one whenever a worker frees, so the heavy session's backlog
//!    can never starve them (deficit-style fair queueing).
//! 2. **deadline** — the task's absolute deadline (session deadline
//!    budget added to submission time; `u64::MAX` when none). Among
//!    sessions in the same quanta bucket, earliest-deadline-first.
//! 3. **seq** — global submission order, so equal-priority tasks run
//!    FIFO and the pop order is fully deterministic.
//!
//! Queries cannot be preempted mid-flight, so fairness is enforced at
//! dispatch: every pop takes the minimum key. Workers run popped jobs
//! *concurrently* against the shared engine — the engine's query path
//! is `&self` and internally locked per table, so overlapping service
//! spans are real parallelism, not time slicing. Inside a running
//! query, the installed [`YieldHook`] turns every existing
//! `check_cancel` boundary into a cooperative yield point and a
//! `serve.yield` fail-point site.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex as StdMutex};
use std::time::Instant;

use crate::config::ServeConfig;
use crate::ticket::{Payload, TicketShared};
use explore_core::{ExploreDb, SessionCtx};
use explore_exec::YieldHook;
use explore_fault::FailPoints;
use explore_obs::Tracer;
use explore_storage::{Result, StorageError};

/// The type-erased work closure a session submits for execution.
pub(crate) type RunFn = Box<dyn FnOnce(&ExploreDb) -> Result<Payload> + Send>;

/// One queued query: the work closure, the ticket to fulfill, the
/// submitting session's accounting handle, and its priority key.
pub(crate) struct Job {
    pub(crate) run: RunFn,
    pub(crate) ticket: Arc<TicketShared>,
    pub(crate) overlay: SessionCtx,
    pub(crate) consumed_ns: Arc<AtomicU64>,
    pub(crate) key: TaskKey,
    pub(crate) enqueued: Instant,
}

/// The scheduler's priority key (see the module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) struct TaskKey {
    pub(crate) quanta: u64,
    pub(crate) deadline_ns: u64,
    pub(crate) seq: u64,
}

impl PartialEq for Job {
    fn eq(&self, other: &Job) -> bool {
        self.key == other.key
    }
}
impl Eq for Job {}
impl PartialOrd for Job {
    fn partial_cmp(&self, other: &Job) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Job {
    fn cmp(&self, other: &Job) -> std::cmp::Ordering {
        self.key.cmp(&other.key)
    }
}

/// Everything the workers, sessions, and the facade share.
pub(crate) struct Shared {
    /// The engine, shared directly: its query path is `&self`, so
    /// workers execute against it concurrently with no serving-layer
    /// lock at all.
    pub(crate) db: ExploreDb,
    /// The run queue, min-ordered by [`TaskKey`].
    queue: StdMutex<BinaryHeap<Reverse<Job>>>,
    /// Signals workers that work arrived (or shutdown began).
    work: Condvar,
    pub(crate) cfg: ServeConfig,
    /// Monotonic origin for absolute deadlines.
    pub(crate) base: Instant,
    /// Global submission counter (the FIFO tiebreak).
    pub(crate) seq: AtomicU64,
    /// Session id allocator (labels only).
    pub(crate) next_session: AtomicU64,
    pub(crate) faults: Arc<FailPoints>,
    pub(crate) tracer: Arc<Tracer>,
    shutdown: AtomicBool,
}

impl Shared {
    pub(crate) fn new(db: ExploreDb, cfg: ServeConfig) -> Shared {
        let faults = db.fail_points();
        let tracer = db.tracer();
        Shared {
            db,
            queue: StdMutex::new(BinaryHeap::new()),
            work: Condvar::new(),
            cfg,
            base: Instant::now(),
            seq: AtomicU64::new(0),
            next_session: AtomicU64::new(0),
            faults,
            tracer,
            shutdown: AtomicBool::new(false),
        }
    }

    /// Record a serving-layer counter when observability is on (the
    /// same gate every engine-side metric uses).
    pub(crate) fn metric_inc(&self, name: &str) {
        if self.tracer.is_enabled() {
            self.tracer.metrics().inc(name, 1);
        }
    }

    /// Record a serving-layer latency sample when observability is on.
    pub(crate) fn metric_observe(&self, name: &str, ns: u64) {
        if self.tracer.is_enabled() {
            self.tracer.metrics().observe_ns(name, ns);
        }
    }

    /// Tasks currently queued (not counting in-flight ones).
    pub(crate) fn queue_depth(&self) -> usize {
        self.queue.lock().unwrap_or_else(|e| e.into_inner()).len()
    }

    /// Admission + enqueue. Returns the typed `Overloaded` error when
    /// the run queue is at its bound; on success the job is queued and
    /// one worker is woken.
    pub(crate) fn enqueue(&self, job: Job) -> Result<()> {
        let mut q = self.queue.lock().unwrap_or_else(|e| e.into_inner());
        let depth = q.len();
        if depth >= self.cfg.queue_limit {
            drop(q);
            self.faults.note("serve.rejected");
            self.metric_inc("serve.rejected");
            return Err(StorageError::Overloaded {
                queue_depth: depth,
                limit: self.cfg.queue_limit,
            });
        }
        q.push(Reverse(job));
        drop(q);
        self.metric_inc("serve.submitted");
        self.work.notify_one();
        Ok(())
    }

    /// Worker loop: pop the minimum-key job, execute, repeat until
    /// shutdown with an empty queue.
    pub(crate) fn worker_loop(self: &Arc<Shared>) {
        loop {
            let job = {
                let mut q = self.queue.lock().unwrap_or_else(|e| e.into_inner());
                loop {
                    if let Some(Reverse(job)) = q.pop() {
                        break job;
                    }
                    if self.shutdown.load(Ordering::Acquire) {
                        return;
                    }
                    q = self.work.wait(q).unwrap_or_else(|e| e.into_inner());
                }
            };
            self.execute(job, false);
        }
    }

    /// Run one job to completion on the calling thread: run the closure
    /// against a handle on the shared engine that carries the session
    /// overlay (plus the cooperative yield hook), account the session's
    /// consumed service time, and fulfill the ticket. `inline` marks the
    /// admission-degradation path (no queueing delay to record).
    pub(crate) fn execute(&self, job: Job, inline: bool) {
        if !inline {
            let queue_ns = job.enqueued.elapsed().as_nanos() as u64;
            job.ticket.set_queue_ns(queue_ns);
            self.metric_observe("serve.queue_ns", queue_ns);
        }
        let overlay = job.overlay.with_yield_hook(Some(self.yield_hook()));
        let started = Instant::now();
        let result = self.db.with_session(&overlay, |db| (job.run)(db));
        let service_ns = started.elapsed().as_nanos() as u64;
        job.consumed_ns.fetch_add(service_ns, Ordering::Relaxed);
        self.metric_observe("serve.service_ns", service_ns);
        self.metric_inc("serve.completed");
        job.ticket.fulfill(result);
    }

    /// The per-query cooperative hook: every `check_cancel` boundary
    /// fires the `serve.yield` fail point (armed = skip the yield,
    /// counted as `fault.serve.yield_skipped` — scheduling degrades,
    /// answers don't), and every `yield_every`-th boundary yields the
    /// OS thread.
    fn yield_hook(&self) -> YieldHook {
        let faults = Arc::clone(&self.faults);
        let every = self.cfg.yield_every;
        let boundaries = AtomicU64::new(0);
        Arc::new(move || {
            if faults.fire("serve.yield") {
                faults.note("fault.serve.yield_skipped");
                return Ok(());
            }
            if every > 0 {
                let n = boundaries.fetch_add(1, Ordering::Relaxed) + 1;
                if n.is_multiple_of(every) {
                    std::thread::yield_now();
                }
            }
            Ok(())
        })
    }

    /// Begin shutdown: workers drain the queue, then exit.
    pub(crate) fn begin_shutdown(&self) {
        self.shutdown.store(true, Ordering::Release);
        let _guard = self.queue.lock().unwrap_or_else(|e| e.into_inner());
        self.work.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn task_keys_order_quanta_then_deadline_then_seq() {
        let k = |quanta, deadline_ns, seq| TaskKey {
            quanta,
            deadline_ns,
            seq,
        };
        // Lighter session first, regardless of deadline.
        assert!(k(0, u64::MAX, 9) < k(1, 0, 0));
        // Same bucket: earlier deadline first.
        assert!(k(1, 10, 9) < k(1, 20, 0));
        // Same bucket and deadline: FIFO.
        assert!(k(1, 10, 3) < k(1, 10, 4));
    }
}
