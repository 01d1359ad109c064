//! The one dispatch protocol: run `n` indexed jobs under a
//! [`QueryCtx`]'s execution policy.
//!
//! Every fan-out in the workspace — morsels of a scan, an aggregate, a
//! selection or a cache replay, and the shards of a sharded scan — goes
//! through [`fan_out`]. It is the only function that matches on
//! [`ExecPolicy`] to choose a dispatch path, the only place helper
//! threads are started, and the only place a parallel attempt is wrapped
//! in `catch_unwind`; a call site contributes its jobs and the names it
//! reports under ([`FanOutSite`]), nothing else.
//!
//! A parallel fan-out runs on scoped threads: the caller plus helpers
//! started for this fan-out alone, each claiming the next unclaimed index
//! from one shared counter. One parallel fan-out runs at a time in the
//! process; any other — one nested in a job, or one on another thread —
//! runs inline on its own thread, so helpers never multiply and nothing
//! can deadlock.

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::thread;

use explore_obs::{SpanId, SpanKind};
use explore_storage::Result;

use crate::ctx::QueryCtx;
use crate::policy::{default_parallelism, ExecPolicy};

/// The names one [`fan_out`] call site reports under.
#[derive(Debug)]
pub struct FanOutSite {
    /// Fail point that makes a parallel dispatch pretend no helper could
    /// be started and run inline instead.
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
    /// Threads that ran the attempt, the caller included; 1 means
    /// inline.
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
/// * [`ExecPolicy::Parallel`]: the caller and up to `cap − 1` scoped
///   helper threads, `cap = min(workers, cores, n)`, when `cap > 1` and
///   no other parallel fan-out is running; else the same loop. A nested
///   fan-out (a job that itself fans out) therefore always runs inline.
///   A helper that fails to start only means fewer participants.
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
    let cap = workers.min(default_parallelism()).min(n);
    let attempt = catch_unwind(AssertUnwindSafe(|| {
        match (cap > 1).then(Busy::acquire).flatten() {
            Some(_busy) => scoped(cap, n, &init, &|state: &mut S, w, i| {
                run_job(state, w, i, true)
            }),
            None => inline(true),
        }
    }));
    // A job panicked (injected or real); the flag was released on the
    // way out and every helper has been joined.
    attempt.unwrap_or_else(|_| degraded())
}

/// Set while a parallel fan-out runs. The release in [`Busy`]'s drop
/// pairs with the acquire in [`Busy::acquire`], so one holder's helpers
/// are joined before the next holder starts its own.
static BUSY: AtomicBool = AtomicBool::new(false);

/// The held [`BUSY`] flag, released when dropped — on return or unwind.
struct Busy;

impl Busy {
    /// Take the flag, or `None` if another parallel fan-out holds it.
    fn acquire() -> Option<Busy> {
        // Lazily: a guard built and dropped on failure would release the
        // holder's flag.
        let free = BUSY.compare_exchange(false, true, Ordering::Acquire, Ordering::Relaxed);
        free.is_ok().then(|| Busy)
    }
}

impl Drop for Busy {
    fn drop(&mut self) {
        BUSY.store(false, Ordering::Release);
    }
}

/// The parallel path: the caller is participant 0, `1..cap` are scoped
/// helpers, and every participant builds its state, then claims indexes
/// from one counter until it passes `n`. A panicking job stops all
/// further claims and re-throws on the caller once the helpers are
/// joined.
fn scoped<S: Send, T: Send>(
    cap: usize,
    n: usize,
    init: &(impl Fn() -> S + Sync),
    job: &(impl Fn(&mut S, usize, usize) -> Result<T> + Sync),
) -> FanOut<S, T> {
    let next = AtomicUsize::new(0);
    let participate = |w: usize| {
        let mut state = init();
        let mut ran = Vec::new();
        loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            if i >= n {
                return (state, ran);
            }
            match catch_unwind(AssertUnwindSafe(|| job(&mut state, w, i))) {
                Ok(result) => ran.push((i, result)),
                Err(payload) => {
                    next.store(n, Ordering::Relaxed);
                    resume_unwind(payload);
                }
            }
        }
    };
    let outs = thread::scope(|s| {
        let helpers: Vec<_> = (1..cap)
            .map_while(|w| {
                thread::Builder::new()
                    .name(format!("explore-exec-{w}"))
                    .spawn_scoped(s, move || participate(w))
                    .ok()
            })
            .collect();
        let mut outs = vec![participate(0)];
        for helper in helpers {
            outs.push(helper.join().unwrap_or_else(|p| resume_unwind(p)));
        }
        outs
    });
    let participants = outs.len();
    let mut states = Vec::with_capacity(participants);
    let mut ran = Vec::with_capacity(n);
    for (state, results) in outs {
        states.push(state);
        ran.extend(results);
    }
    ran.sort_unstable_by_key(|&(i, _)| i);
    FanOut {
        results: ran.into_iter().map(|(_, result)| result).collect(),
        states,
        participants,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use explore_fault::{FailPoints, Schedule};
    use explore_obs::ROOT_SPAN;
    use explore_storage::StorageError;
    use std::sync::{Arc, Mutex};
    use std::time::Duration;

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
            for n in [0, 1, 2, 7, 64, 1000] {
                let out = fan_out(&ctx, &SITE, ROOT_SPAN, n, Vec::new, |seen, _, i| {
                    seen.push(i);
                    Ok(i * i)
                });
                assert_eq!(
                    out.results.unwrap(),
                    (0..n).map(|i| i * i).collect::<Vec<_>>()
                );
                assert_eq!(out.states.len(), out.participants);
                let mut ran: Vec<usize> = out.states.into_iter().flatten().collect();
                ran.sort_unstable();
                assert_eq!(ran, (0..n).collect::<Vec<_>>(), "{policy:?}, n = {n}");
            }
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

    /// Many threads fanning out at once: one holds the flag, the rest
    /// run inline, and every fan-out finishes with the right answer.
    #[test]
    fn concurrent_fan_outs_all_complete() {
        let ctx = QueryCtx::new(ExecPolicy::Parallel { workers: 3 });
        thread::scope(|s| {
            for _ in 0..8 {
                s.spawn(|| {
                    for _ in 0..20 {
                        let out = fan_out(&ctx, &SITE, ROOT_SPAN, 33, || (), |_, _, i| Ok(i + 1));
                        assert_eq!(out.results.unwrap().iter().sum::<usize>(), 33 * 34 / 2);
                    }
                });
            }
        });
    }

    /// Jobs of a parallel fan-out that fan out themselves run inline,
    /// every time: a nested fan-out that finds the flag held must leave
    /// it held.
    #[test]
    fn nested_fan_outs_run_inline_while_the_outer_holds_the_flag() {
        if default_parallelism() < 2 {
            return;
        }
        let ctx = QueryCtx::new(ExecPolicy::Parallel { workers: 2 });
        let nested = || fan_out(&ctx, &SITE, ROOT_SPAN, 8, || (), |_, _, i| Ok(i)).participants;
        assert!(eventually(|| {
            let outer = fan_out(
                &ctx,
                &SITE,
                ROOT_SPAN,
                16,
                || (),
                |_, _, _| Ok(nested().max(nested())),
            );
            let widest = outer.results.unwrap().into_iter().max();
            assert!(
                outer.participants == 1 || widest == Some(1),
                "a nested fan-out went parallel"
            );
            outer.participants > 1
        }));
    }

    /// Each participant index maps to exactly one thread for the whole
    /// fan-out — the exclusivity that makes per-participant state sound.
    /// A violation is an error, not a panic, so no inline retry hides it.
    #[test]
    fn participant_indexes_are_exclusive_per_thread() {
        let owners: Vec<Mutex<Option<thread::ThreadId>>> =
            (0..4).map(|_| Mutex::new(None)).collect();
        let ctx = QueryCtx::new(ExecPolicy::Parallel { workers: 4 });
        let out = fan_out(
            &ctx,
            &SITE,
            ROOT_SPAN,
            512,
            || (),
            |_, w, _| {
                let me = thread::current().id();
                if *owners[w].lock().unwrap().get_or_insert(me) == me {
                    Ok(())
                } else {
                    Err(StorageError::Internal(format!(
                        "participant {w} on two threads"
                    )))
                }
            },
        );
        out.results.unwrap();
        let claimed = owners
            .iter()
            .filter(|o| o.lock().unwrap().is_some())
            .count();
        assert!(
            claimed <= out.participants,
            "{claimed} > {}",
            out.participants
        );
    }

    /// Call `f` until it returns true, pausing between tries; false if
    /// it never does. Other tests fan out in parallel too, so any one
    /// fan-out may find the flag held and run inline.
    fn eventually(mut f: impl FnMut() -> bool) -> bool {
        (0..200).any(|_| {
            let done = f();
            if !done {
                thread::sleep(Duration::from_millis(5));
            }
            done
        })
    }

    /// A panic in a helper must release the one-at-a-time flag: a later
    /// parallel fan-out still gets helpers.
    #[test]
    fn a_panicking_attempt_does_not_leave_fan_outs_inline() {
        if default_parallelism() < 2 {
            return;
        }
        let ctx = QueryCtx::new(ExecPolicy::Parallel { workers: 2 });
        let panicked = AtomicBool::new(false);
        let wide = |panic_in_helper: bool| {
            fan_out(
                &ctx,
                &SITE,
                ROOT_SPAN,
                64,
                || (),
                |_, w, i| {
                    if panic_in_helper && w == 1 && !panicked.swap(true, Ordering::Relaxed) {
                        panic!("helper exploded");
                    }
                    thread::sleep(Duration::from_micros(50));
                    Ok(i)
                },
            )
        };
        assert!(
            eventually(|| wide(true).results.is_ok() && panicked.load(Ordering::Relaxed)),
            "no helper ever ran a job"
        );
        assert!(
            eventually(|| wide(false).participants > 1),
            "every fan-out after the panic ran inline"
        );
    }
}
