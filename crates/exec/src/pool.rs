//! A small work-stealing worker pool for morsel-driven execution.
//!
//! The pool owns `helpers` persistent threads and has one submission
//! method, [`ExecPool::run`]; [`crate::fan_out`] is its only caller in
//! the workspace. Each submitted job is a batch of `n` independent
//! indexed tasks (morsels, or shards of a scan), block-partitioned
//! across the participants (the submitting caller plus the helpers). Every
//! participant drains its own deque from the front and, when empty,
//! steals the back half of another participant's deque — the classic
//! morsel-driven scheme: coarse initial partitioning for locality,
//! stealing for load balance.
//!
//! Each participant's pending range lives in one packed `AtomicU64`
//! (`start` in the high 32 bits, `end` in the low 32), so both the
//! owner's pop-front and a thief's steal-half are single CAS loops with
//! no locks on the hot path.
//!
//! The caller always participates, so a pool with zero helper threads
//! (e.g. on a single-core host) degrades to a plain sequential loop over
//! the tasks. Submission is mutually exclusive: if another job is in
//! flight the new caller just runs its tasks inline on its own thread
//! rather than queueing — throughput under contention stays reasonable,
//! a task may itself submit a job (it runs inline: shard jobs fan their
//! morsels out this way), and deadlock is impossible by construction.
//!
//! Panics inside a task are caught, the job is cancelled (no new morsels
//! are claimed), and the first payload is re-thrown on the submitting
//! thread once every participant has detached.

use std::any::Any;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock, PoisonError};
use std::thread::JoinHandle;

/// Pack a half-open morsel range into one atomic word.
fn pack(start: u32, end: u32) -> u64 {
    (u64::from(start) << 32) | u64::from(end)
}

/// Inverse of [`pack`].
fn unpack(r: u64) -> (u32, u32) {
    ((r >> 32) as u32, r as u32)
}

/// One in-flight job: the erased task plus the stealable morsel deques.
struct Job {
    /// Per-participant pending ranges; index 0 is the submitting caller.
    ranges: Vec<AtomicU64>,
    /// Participants actually working this job; helper threads with an id
    /// at or above this sit the job out.
    participants: usize,
    /// The task, lifetime-erased, called as `task(worker, morsel)`.
    /// Safety: the submitting caller does not return from
    /// [`ExecPool::run`] until every participant that joined the job has
    /// detached, so the pointee outlives all dereferences.
    task: *const (dyn Fn(usize, usize) + Sync),
    /// Set on the first panic; participants stop claiming morsels.
    panicked: AtomicBool,
    /// First caught panic payload, re-thrown by the caller.
    payload: Mutex<Option<Box<dyn Any + Send>>>,
}

// Safety: `task` is only dereferenced between a participant's join
// (`active += 1` under the pool lock) and detach (`active -= 1`), and the
// caller keeps the pointee alive until `active` returns to zero.
unsafe impl Send for Job {}
unsafe impl Sync for Job {}

impl Job {
    /// Pop the next morsel from participant `me`'s own deque.
    fn pop_front(&self, me: usize) -> Option<usize> {
        let r = &self.ranges[me];
        loop {
            let cur = r.load(Ordering::Acquire);
            let (s, e) = unpack(cur);
            if s >= e {
                return None;
            }
            if r.compare_exchange_weak(cur, pack(s + 1, e), Ordering::AcqRel, Ordering::Acquire)
                .is_ok()
            {
                return Some(s as usize);
            }
        }
    }

    /// Steal the back half of some other participant's deque, keep the
    /// remainder as `me`'s own deque, and return the first stolen morsel.
    fn steal(&self, me: usize) -> Option<usize> {
        let p = self.participants;
        for k in 1..p {
            let victim = (me + k) % p;
            let r = &self.ranges[victim];
            loop {
                let cur = r.load(Ordering::Acquire);
                let (s, e) = unpack(cur);
                if s >= e {
                    break;
                }
                let keep = (e - s) / 2;
                if r.compare_exchange_weak(
                    cur,
                    pack(s, s + keep),
                    Ordering::AcqRel,
                    Ordering::Acquire,
                )
                .is_ok()
                {
                    // Stolen [s + keep, e); run the first morsel now and
                    // queue the rest locally (own deque is empty here).
                    let first = s + keep;
                    if first + 1 < e {
                        self.ranges[me].store(pack(first + 1, e), Ordering::Release);
                    }
                    return Some(first as usize);
                }
            }
        }
        None
    }

    /// Drain morsels as participant `me` until none remain anywhere or
    /// the job is cancelled by a panic.
    fn work(&self, me: usize) {
        loop {
            if self.panicked.load(Ordering::Relaxed) {
                return;
            }
            let Some(m) = self.pop_front(me).or_else(|| self.steal(me)) else {
                return;
            };
            // Safety: see the field comment on `task`.
            let task = unsafe { &*self.task };
            if let Err(payload) = catch_unwind(AssertUnwindSafe(|| task(me, m))) {
                self.panicked.store(true, Ordering::Relaxed);
                let mut slot = self.payload.lock().unwrap_or_else(PoisonError::into_inner);
                slot.get_or_insert(payload);
            }
        }
    }
}

/// State shared between the submitting caller and the helper threads,
/// guarded by one mutex (cold path only — the hot path is the CAS deques).
struct PoolState {
    /// The published job, if any. `None` between jobs.
    job: Option<Arc<Job>>,
    /// Bumped on every publish so sleeping helpers can tell a new job
    /// from a spurious wakeup or one they already finished.
    epoch: u64,
    /// Helpers currently attached to the published job.
    active: usize,
    shutdown: bool,
}

struct PoolShared {
    state: Mutex<PoolState>,
    /// Helpers wait here for work.
    work_cv: Condvar,
    /// The caller waits here for helpers to detach.
    done_cv: Condvar,
}

impl PoolShared {
    fn lock(&self) -> std::sync::MutexGuard<'_, PoolState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// A work-stealing morsel pool. See the module docs for the protocol.
pub struct ExecPool {
    shared: Arc<PoolShared>,
    helpers: Vec<JoinHandle<()>>,
}

impl ExecPool {
    /// A pool with `helpers` persistent helper threads. The submitting
    /// caller always participates too, so total parallelism is
    /// `helpers + 1`.
    pub fn new(helpers: usize) -> Self {
        let shared = Arc::new(PoolShared {
            state: Mutex::new(PoolState {
                job: None,
                epoch: 0,
                active: 0,
                shutdown: false,
            }),
            work_cv: Condvar::new(),
            done_cv: Condvar::new(),
        });
        // Helper-spawn failure (thread exhaustion) degrades to a smaller
        // pool instead of panicking: the caller always participates, so
        // even zero helpers still executes every morsel.
        let mut handles = Vec::with_capacity(helpers);
        for _ in 0..helpers {
            let shared = Arc::clone(&shared);
            // Participant 0 is always the caller.
            let id = handles.len() + 1;
            match std::thread::Builder::new()
                .name(format!("explore-exec-{id}"))
                .spawn(move || helper_loop(&shared, id))
            {
                Ok(handle) => handles.push(handle),
                Err(_) => break,
            }
        }
        ExecPool {
            shared,
            helpers: handles,
        }
    }

    /// Number of helper threads (total parallelism is one more).
    pub fn helper_count(&self) -> usize {
        self.helpers.len()
    }

    /// How many participants a job of `n` tasks that asks for `workers`
    /// is dispatched to: the request clamped to the pool size and the
    /// task count. 1 means [`ExecPool::run`] would loop inline.
    pub(crate) fn participants(&self, workers: usize, n: usize) -> usize {
        workers.min(self.helpers.len() + 1).min(n).max(1)
    }

    /// Run `task(worker, index)` once for each index in `0..n`, using up
    /// to `workers` participants (including the calling thread). Blocks
    /// until every index has run; each runs exactly once, and completion
    /// of all of them happens-before this returns.
    ///
    /// `worker` is the participant (`0..participants`) running the
    /// index. It is stable for the duration of the job and exclusive to
    /// one thread, which lets callers keep per-worker state (e.g.
    /// aggregation scratch) without synchronization.
    ///
    /// Returns how many participants the job was dispatched to. 1 means
    /// it ran inline on the calling thread, as worker 0 — one effective
    /// worker, a tiny job, or another job already holding the pool (a
    /// nested submission from inside a task always lands here).
    pub fn run(&self, workers: usize, n: usize, task: &(dyn Fn(usize, usize) + Sync)) -> usize {
        if n == 0 {
            return 0;
        }
        let inline = || {
            for i in 0..n {
                task(0, i);
            }
            1
        };
        let participants = self.participants(workers, n);
        if participants == 1 {
            return inline();
        }

        let job = {
            let mut st = match self.shared.state.try_lock() {
                Ok(st) => st,
                // Contended: run inline instead of queueing.
                Err(std::sync::TryLockError::WouldBlock) => return inline(),
                Err(std::sync::TryLockError::Poisoned(p)) => p.into_inner(),
            };
            if st.job.is_some() {
                drop(st);
                return inline();
            }
            // Block-partition the morsels across the participants:
            // participant p starts with a contiguous chunk, preserving
            // scan locality; stealing rebalances the tail.
            let mut ranges = Vec::with_capacity(participants);
            let per = n / participants;
            let extra = n % participants;
            let mut next = 0u32;
            for p in 0..participants {
                let len = (per + usize::from(p < extra)) as u32;
                ranges.push(AtomicU64::new(pack(next, next + len)));
                next += len;
            }
            let job = Arc::new(Job {
                ranges,
                participants,
                // Safety contract documented on `Job::task`.
                task: unsafe { erase_task_lifetime(task) },
                panicked: AtomicBool::new(false),
                payload: Mutex::new(None),
            });
            st.job = Some(Arc::clone(&job));
            st.epoch += 1;
            self.shared.work_cv.notify_all();
            job
        };

        // The caller is participant 0.
        job.work(0);

        // Wait for every helper that joined to detach, then unpublish.
        {
            let mut st = self.shared.lock();
            while st.active > 0 {
                st = self
                    .shared
                    .done_cv
                    .wait(st)
                    .unwrap_or_else(PoisonError::into_inner);
            }
            st.job = None;
        }

        let payload = {
            let mut slot = job.payload.lock().unwrap_or_else(PoisonError::into_inner);
            slot.take()
        };
        if let Some(payload) = payload {
            resume_unwind(payload);
        }
        participants
    }
}

impl Drop for ExecPool {
    fn drop(&mut self) {
        {
            let mut st = self.shared.lock();
            st.shutdown = true;
            self.shared.work_cv.notify_all();
        }
        for h in self.helpers.drain(..) {
            let _ = h.join();
        }
    }
}

/// Erase the borrow lifetime of a task reference so it can be published
/// to the helper threads.
///
/// # Safety
/// The caller must keep the pointee alive — and must not return from the
/// submission — until every participant has detached from the job.
unsafe fn erase_task_lifetime<'a>(
    task: &'a (dyn Fn(usize, usize) + Sync),
) -> *const (dyn Fn(usize, usize) + Sync + 'static) {
    unsafe {
        std::mem::transmute::<
            *const (dyn Fn(usize, usize) + Sync + 'a),
            *const (dyn Fn(usize, usize) + Sync + 'static),
        >(task)
    }
}

fn helper_loop(shared: &PoolShared, id: usize) {
    let mut last_epoch = 0u64;
    loop {
        let job = {
            let mut st = shared.lock();
            loop {
                if st.shutdown {
                    return;
                }
                if st.epoch != last_epoch {
                    last_epoch = st.epoch;
                    if let Some(job) = st.job.as_ref() {
                        if id < job.participants {
                            let job = Arc::clone(job);
                            st.active += 1;
                            break job;
                        }
                    }
                    // Job already gone or doesn't want this helper; keep
                    // waiting for the next epoch.
                }
                st = shared
                    .work_cv
                    .wait(st)
                    .unwrap_or_else(PoisonError::into_inner);
            }
        };
        job.work(id);
        let mut st = shared.lock();
        st.active -= 1;
        shared.done_cv.notify_all();
    }
}

/// The process-wide pool: `available_parallelism() - 1` helper threads,
/// created on first use.
pub fn global_pool() -> &'static ExecPool {
    static POOL: OnceLock<ExecPool> = OnceLock::new();
    POOL.get_or_init(|| ExecPool::new(default_parallelism().saturating_sub(1)))
}

/// The default worker count for [`crate::ExecPolicy::Parallel`]:
/// `std::thread::available_parallelism()`, or 1 if unknown.
pub fn default_parallelism() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn every_morsel_runs_exactly_once() {
        let pool = ExecPool::new(3);
        for n in [0usize, 1, 2, 7, 64, 1000] {
            let counts: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
            pool.run(4, n, &|_, m| {
                counts[m].fetch_add(1, Ordering::Relaxed);
            });
            assert!(
                counts.iter().all(|c| c.load(Ordering::Relaxed) == 1),
                "n = {n}"
            );
        }
    }

    #[test]
    fn single_participant_runs_in_order() {
        let pool = ExecPool::new(0);
        let order = Mutex::new(Vec::new());
        let used = pool.run(8, 5, &|_, m| {
            order.lock().unwrap_or_else(PoisonError::into_inner).push(m)
        });
        assert_eq!(used, 1, "zero helpers degrade to inline execution");
        assert_eq!(
            *order.lock().unwrap_or_else(PoisonError::into_inner),
            vec![0, 1, 2, 3, 4]
        );
    }

    #[test]
    fn run_reports_multi_participant_dispatch() {
        let pool = ExecPool::new(3);
        let hits = AtomicUsize::new(0);
        let used = pool.run(4, 256, &|_, _| {
            hits.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(hits.load(Ordering::Relaxed), 256);
        assert!(
            (2..=4).contains(&used),
            "4 requested workers over 256 morsels should dispatch to the pool, got {used}"
        );
    }

    #[test]
    fn task_panic_propagates_to_caller() {
        let pool = ExecPool::new(2);
        let result = catch_unwind(AssertUnwindSafe(|| {
            pool.run(3, 16, &|_, m| {
                if m == 7 {
                    panic!("morsel 7 exploded");
                }
            });
        }));
        let payload = result.expect_err("panic should propagate");
        let msg = payload.downcast_ref::<&str>().copied().unwrap_or_default();
        assert_eq!(msg, "morsel 7 exploded");
        // The pool must still be usable afterwards.
        let hits = AtomicUsize::new(0);
        pool.run(3, 8, &|_, _| {
            hits.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(hits.load(Ordering::Relaxed), 8);
    }

    #[test]
    fn concurrent_submissions_all_complete() {
        let pool = Arc::new(ExecPool::new(2));
        std::thread::scope(|s| {
            for _ in 0..8 {
                let pool = Arc::clone(&pool);
                s.spawn(move || {
                    for _ in 0..20 {
                        let total = AtomicUsize::new(0);
                        pool.run(3, 33, &|_, m| {
                            total.fetch_add(m + 1, Ordering::Relaxed);
                        });
                        assert_eq!(total.load(Ordering::Relaxed), 33 * 34 / 2);
                    }
                });
            }
        });
    }

    #[test]
    fn worker_indexes_are_exclusive_per_thread() {
        let pool = ExecPool::new(3);
        // Each worker index must map to exactly one thread for the whole
        // job — that exclusivity is what makes per-worker state sound.
        let owners: Vec<Mutex<Option<std::thread::ThreadId>>> =
            (0..4).map(|_| Mutex::new(None)).collect();
        let used = pool.run(4, 512, &|w, _m| {
            let mut owner = owners[w].lock().unwrap_or_else(PoisonError::into_inner);
            let me = std::thread::current().id();
            match *owner {
                None => *owner = Some(me),
                Some(prev) => assert_eq!(prev, me, "worker {w} ran on two threads"),
            }
        });
        let claimed = owners
            .iter()
            .filter(|o| o.lock().unwrap_or_else(PoisonError::into_inner).is_some())
            .count();
        assert!(claimed <= used, "claimed {claimed} indexes, used {used}");
        // Inline fallback (zero helpers) runs everything as worker 0.
        let solo = ExecPool::new(0);
        let max_w = AtomicUsize::new(0);
        solo.run(4, 16, &|w, _| {
            max_w.fetch_max(w, Ordering::Relaxed);
        });
        assert_eq!(max_w.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn steal_protocol_covers_range() {
        // Drive pop/steal directly to pin down the deque arithmetic.
        let noop: &'static (dyn Fn(usize, usize) + Sync) = &|_, _| {};
        let job = Job {
            ranges: vec![AtomicU64::new(pack(0, 10)), AtomicU64::new(pack(0, 0))],
            participants: 2,
            task: noop,
            panicked: AtomicBool::new(false),
            payload: Mutex::new(None),
        };
        let mut seen = Vec::new();
        // Participant 1 starts empty and must steal from participant 0.
        let first = job.steal(1).expect("victim has work");
        seen.push(first);
        while let Some(m) = job.pop_front(1) {
            seen.push(m);
        }
        while let Some(m) = job.pop_front(0) {
            seen.push(m);
        }
        seen.sort_unstable();
        assert_eq!(seen, (0..10).collect::<Vec<_>>());
    }
}
