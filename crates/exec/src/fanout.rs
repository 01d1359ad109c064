//! The one dispatch protocol: run `n` indexed jobs under a
//! [`QueryCtx`]'s execution policy.
//!
//! Every fan-out in the workspace — morsels of a scan, an aggregate, a
//! selection or a cache replay, and the shards of a sharded scan — goes
//! through [`fan_out`]. It is the only function that matches on
//! [`ExecPolicy`] to choose a dispatch path, the only caller of
//! [`global_pool`], and the only place a pooled attempt is wrapped in
//! `catch_unwind`; a call site contributes its jobs and the names it
//! reports under ([`FanOutSite`]), nothing else.

use std::cell::UnsafeCell;
use std::panic::{catch_unwind, AssertUnwindSafe};

use explore_obs::{SpanId, SpanKind};
use explore_storage::{Result, StorageError};

use crate::ctx::QueryCtx;
use crate::policy::ExecPolicy;
use crate::pool::global_pool;

/// The names one [`fan_out`] call site reports under.
#[derive(Debug)]
pub struct FanOutSite {
    /// Fail point that makes a parallel dispatch pretend the pool was
    /// unavailable and run inline instead.
    pub spawn_fail: &'static str,
    /// Fail point that panics inside a job of the first attempt, for
    /// sites that inject one.
    pub job_fail: Option<&'static str>,
    /// Degradation event noted on the context when the fan-out falls
    /// back to the inline retry.
    pub degraded_event: &'static str,
    /// Site label of the [`SpanKind::Fault`] marker recorded with it.
    pub fault_site: &'static str,
}

/// What one [`fan_out`] produced.
#[derive(Debug)]
pub struct FanOut<S, T> {
    /// The jobs' results in index order, or the error of the
    /// lowest-indexed failing job — whichever path ran them.
    pub results: Result<Vec<T>>,
    /// The per-participant states of the attempt that produced
    /// `results`, by participant index.
    pub states: Vec<S>,
    /// Threads the jobs were dispatched to; 1 means inline.
    pub participants: usize,
}

/// Run `job(state, participant, index)` once per index in `0..n` under
/// `ctx.exec` and collect the results in index order.
///
/// Each participant owns one state built by `init` for the whole
/// fan-out (`participant` indexes [`FanOut::states`]), so jobs can keep
/// scratch — a group-key interner, say — across the indexes they run
/// without synchronization. What a job returns must depend only on its
/// index, never on the state's history: then every path below yields
/// the same results, which is the executor's bit-identity contract.
///
/// * [`ExecPolicy::Serial`]: a plain loop on the calling thread.
/// * [`ExecPolicy::Parallel`]: the shared pool when it would dispatch
///   to more than one participant, else the same loop. A nested fan-out
///   (a job that itself fans out) finds the pool busy and runs inline.
/// * **Degradation**: when `site.spawn_fail` fires, or any job of a
///   parallel attempt panics (`site.job_fail` injects exactly that),
///   the whole fan-out re-runs inline from fresh states — nothing
///   interned during the aborted attempt leaks into the retry — and
///   notes `site.degraded_event` plus a [`SpanKind::Fault`] marker
///   under `span`, the caller's span for this fan-out. The retry does
///   not re-inject; a panic that repeats there propagates.
pub fn fan_out<S, T>(
    ctx: &QueryCtx,
    site: &FanOutSite,
    span: SpanId,
    n: usize,
    init: impl Fn() -> S + Sync,
    job: impl Fn(&mut S, usize, usize) -> Result<T> + Sync,
) -> FanOut<S, T>
where
    S: Send,
    T: Send,
{
    // `inject` is true only for first attempts: the retry must not
    // re-trigger the fault it is recovering from.
    let run_job =
        |state: &mut S, participant: usize, index: usize, inject: bool| match site.job_fail {
            Some(point) if inject && ctx.fire(point) => panic!("faultsim: injected {point} panic"),
            _ => job(state, participant, index),
        };
    let inline = |inject: bool| {
        let mut state = init();
        let results = (0..n).map(|i| run_job(&mut state, 0, i, inject)).collect();
        FanOut {
            results,
            states: vec![state],
            participants: 1,
        }
    };
    let degraded = || {
        ctx.note(site.degraded_event);
        if let Some(t) = ctx.trace {
            let now = t.now_ns();
            let site = site.fault_site;
            t.record(span, SpanKind::Fault { site }, now, now);
        }
        inline(false)
    };

    let workers = match ctx.exec {
        ExecPolicy::Serial => return inline(false),
        ExecPolicy::Parallel { workers } => workers,
    };
    if ctx.fire(site.spawn_fail) {
        return degraded();
    }
    let pool = global_pool();
    let cap = pool.participants(workers, n);
    let attempt = catch_unwind(AssertUnwindSafe(|| {
        if cap == 1 {
            return inline(true);
        }
        let states = Slots::new((0..cap).map(|_| init()));
        let results = Slots::new((0..n).map(|_| None));
        let participants = pool.run(workers, n, &|w, i| {
            // SAFETY: the pool hands participant `w` to exactly one
            // thread for the job's duration and runs index `i` exactly
            // once, so no other reference to either slot exists.
            let (state, result) = unsafe { (states.get(w), results.get(i)) };
            *result = Some(run_job(state, w, i, true));
        });
        FanOut {
            results: results
                .into_inner()
                .map(|r| {
                    r.unwrap_or_else(|| Err(StorageError::Internal("pool skipped a job".into())))
                })
                .collect(),
            states: states.into_inner().collect(),
            participants,
        }
    }));
    // A job panicked (injected or real). The pool caught it, unpublished
    // the job and stays valid.
    attempt.unwrap_or_else(|_| degraded())
}

/// A fixed set of slots, each touched by one thread at a time: the
/// per-participant states and the write-once per-job results of a
/// pooled [`fan_out`].
struct Slots<T>(Vec<UnsafeCell<T>>);

// SAFETY: `get`'s contract makes every access to a slot exclusive, so
// sharing the container only ever moves a `T` between threads.
unsafe impl<T: Send> Sync for Slots<T> {}

impl<T> Slots<T> {
    fn new(items: impl Iterator<Item = T>) -> Self {
        Slots(items.map(UnsafeCell::new).collect())
    }

    /// # Safety
    /// No other reference to slot `i` may be live: one thread per slot
    /// while the pool job runs, whose completion barrier happens-before
    /// `into_inner`.
    #[allow(clippy::mut_from_ref)]
    unsafe fn get(&self, i: usize) -> &mut T {
        unsafe { &mut *self.0[i].get() }
    }

    fn into_inner(self) -> impl Iterator<Item = T> {
        self.0.into_iter().map(UnsafeCell::into_inner)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use explore_fault::{FailPoints, Schedule};
    use explore_obs::ROOT_SPAN;
    use std::sync::Arc;

    const SITE: FanOutSite = FanOutSite {
        spawn_fail: "test.spawn",
        job_fail: Some("test.job"),
        degraded_event: "fault.test.degraded",
        fault_site: "test.degraded",
    };

    fn policies() -> [ExecPolicy; 2] {
        [ExecPolicy::Serial, ExecPolicy::Parallel { workers: 4 }]
    }

    #[test]
    fn results_come_back_in_index_order_with_one_state_per_participant() {
        for policy in policies() {
            let ctx = QueryCtx::new(policy);
            let out = fan_out(&ctx, &SITE, ROOT_SPAN, 64, Vec::new, |seen, _, i| {
                seen.push(i);
                Ok(i * i)
            });
            assert_eq!(
                out.results.unwrap(),
                (0..64).map(|i| i * i).collect::<Vec<_>>()
            );
            assert!((1..=out.states.len()).contains(&out.participants));
            let mut ran: Vec<usize> = out.states.into_iter().flatten().collect();
            ran.sort_unstable();
            assert_eq!(ran, (0..64).collect::<Vec<_>>(), "{policy:?}");
        }
    }

    #[test]
    fn the_lowest_indexed_error_wins() {
        for policy in policies() {
            let ctx = QueryCtx::new(policy);
            let out = fan_out(
                &ctx,
                &SITE,
                ROOT_SPAN,
                64,
                || (),
                |_, _, i| {
                    if i % 7 == 5 {
                        Err(StorageError::Internal(format!("job {i}")))
                    } else {
                        Ok(i)
                    }
                },
            );
            assert_eq!(
                out.results.unwrap_err(),
                StorageError::Internal("job 5".into()),
                "{policy:?}"
            );
        }
    }

    /// A panicking job degrades exactly once, under the caller's names,
    /// and the retry starts from fresh state: every job records its
    /// index in its participant's state, and a retried job that finds
    /// anything but the retry's own earlier indexes there fails.
    #[test]
    fn a_panicking_job_degrades_once_from_fresh_state() {
        let faults = Arc::new(FailPoints::new());
        let ctx = QueryCtx::new(ExecPolicy::Parallel { workers: 4 })
            .with_faults(Some(Arc::clone(&faults)));
        let out = fan_out(&ctx, &SITE, ROOT_SPAN, 32, Vec::new, |seen, _, i| {
            let retry = faults.event("fault.test.degraded") == 1;
            if retry && *seen != (0..i).collect::<Vec<_>>() {
                return Err(StorageError::Internal("stale state reused".into()));
            }
            if !retry && i == 9 {
                panic!("job 9 exploded");
            }
            seen.push(i);
            Ok(i)
        });
        assert_eq!(out.results.unwrap(), (0..32).collect::<Vec<_>>());
        assert_eq!((out.states.len(), out.participants), (1, 1));
        assert_eq!(faults.event("fault.test.degraded"), 1);
        assert_eq!(faults.event("fault.exec.serial_fallback"), 0);
    }

    #[test]
    fn fail_points_divert_and_inject_under_the_callers_names() {
        for (point, hits) in [("test.spawn", 1), ("test.job", 1)] {
            let faults = Arc::new(FailPoints::new());
            faults.arm(point, Schedule::Always);
            for policy in policies() {
                let ctx = QueryCtx::new(policy).with_faults(Some(Arc::clone(&faults)));
                let out = fan_out(&ctx, &SITE, ROOT_SPAN, 8, || (), |_, _, i| Ok(i));
                assert_eq!(out.results.unwrap(), (0..8).collect::<Vec<_>>());
            }
            // Serial never consults a fail point; Parallel degrades once.
            assert_eq!(faults.event("fault.test.degraded"), hits, "{point}");
        }
    }
}
