//! Morsel-driven execution of [`Query`] plans.
//!
//! A table is split into morsels at the same offsets regardless of
//! policy: [`MORSEL_ROWS`] rows each up to [`MAX_MORSELS`] units, then
//! adaptively coarser (see [`morsel_rows_for`]) so huge scans stay a
//! handful of work units. Each morsel independently evaluates the
//! predicate over its row window (vectorized, see
//! `Predicate::evaluate_range`) and either gathers its matching rows
//! (scan queries) or folds them into a per-worker aggregation state
//! that emits one partial batch per morsel (aggregate queries; see
//! `run_agg_morsels`). Partial results are then merged **in morsel
//! order**, so [`ExecPolicy::Serial`] and [`ExecPolicy::Parallel`]
//! produce bit-identical tables by construction: the only difference is
//! which thread computes each morsel, never what is computed or the
//! order in which partials are combined.
//!
//! Every entry point takes one [`QueryCtx`] carrying the execution
//! policy, fail-point registry, cancellation tokens, and trace handle —
//! there are no per-concern method variants. A default context
//! ([`QueryCtx::none`]) gives plain serial execution with every hook
//! disabled at the cost of a couple of `None` branches per morsel.
//!
//! Note the reference point: the serial policy here is the morsel
//! pipeline run on one thread, which matches [`Query::run`] exactly for
//! scans and for ordering/limits, while float aggregates can differ from
//! `Query::run` in the last ulp (per-morsel Welford accumulators merged
//! pairwise versus one long accumulation). Between the two policies the
//! results are identical down to the bit.

use std::borrow::Cow;
use std::cell::UnsafeCell;

use explore_obs::{SpanKind, ROOT_SPAN};
use explore_storage::{Predicate, Query, Result, StorageError, Table, MORSEL_ROWS};

use crate::ctx::QueryCtx;
use crate::policy::ExecPolicy;
use crate::pool::global_pool;

use explore_storage::{Aggregate, GroupedAggState, MorselAggBatch, WorkerAggState};

/// Cap on how many morsels one fan-out produces. Above
/// `MAX_MORSELS × MORSEL_ROWS` rows, morsels grow (in whole multiples
/// of [`MORSEL_ROWS`]) instead of multiplying, so a huge scan stays a
/// handful of coarse work units rather than hundreds of tiny tasks
/// whose per-morsel overhead (dispatch, span, partial merge) eats the
/// parallel win.
pub const MAX_MORSELS: usize = 64;

/// Adaptive morsel size for a table of `n_rows` rows: the fixed
/// [`MORSEL_ROWS`] granularity until the table would decompose into
/// more than [`MAX_MORSELS`] units, then scaled up so it doesn't.
/// The size depends *only* on the row count — never on the policy or
/// worker count — because serial and parallel execution must share the
/// decomposition for bit-identity, and selection replay must cut at
/// the same offsets.
pub fn morsel_rows_for(n_rows: usize) -> usize {
    let units = n_rows.div_ceil(MORSEL_ROWS).max(1);
    MORSEL_ROWS * units.div_ceil(MAX_MORSELS)
}

/// The half-open row window of morsel `m` in a table of `n_rows` rows.
pub fn morsel_range(m: usize, n_rows: usize) -> std::ops::Range<usize> {
    let rows = morsel_rows_for(n_rows);
    let start = m * rows;
    start..n_rows.min(start + rows)
}

/// How many morsels a table of `n_rows` rows decomposes into. Always at
/// least one, so validation (unknown columns, type mismatches) runs even
/// on empty tables and both policies surface identical errors.
pub fn morsel_count(n_rows: usize) -> usize {
    n_rows.div_ceil(morsel_rows_for(n_rows)).max(1)
}

/// Evaluate `predicate` over the whole table under `ctx`, returning
/// global row ids in ascending order — the same selection vector
/// [`Predicate::evaluate`] produces, computed morsel-wise. The context's
/// cancel tokens are checked once per morsel, armed fail points may
/// divert the dispatch path, and an attached trace records one exec span
/// with a morsel child per row window; the returned selection is
/// identical whatever the context carries.
pub fn evaluate_selection(
    table: &Table,
    predicate: &Predicate,
    ctx: &QueryCtx,
) -> Result<Vec<u32>> {
    let n = table.num_rows();
    let pieces = run_morsels(ctx, morsel_count(n), "filter", |m| {
        predicate.evaluate_range(table, morsel_range(m, n))
    })?;
    let mut sel = Vec::with_capacity(pieces.iter().map(Vec::len).sum());
    for piece in pieces {
        sel.extend_from_slice(&piece);
    }
    Ok(sel)
}

/// Execute `query` against `table` under `ctx`. See the module docs for
/// the determinism contract. A cancelled or expired token surfaces as
/// `StorageError::Cancelled`/`DeadlineExceeded` after at most one
/// in-flight morsel finishes; no partial result escapes.
pub fn run_query(table: &Table, query: &Query, ctx: &QueryCtx) -> Result<Table> {
    let n = table.num_rows();
    let n_morsels = morsel_count(n);

    if query.aggregates.is_empty() {
        // Scan query: validate the projection before any predicate runs,
        // then gather each morsel's matches from the projected columns.
        query.check_projection(table)?;
        let pieces = run_morsels(ctx, n_morsels, "scan", |m| {
            let sel = query.predicate.evaluate_range(table, morsel_range(m, n))?;
            query.scan_rows(table, &sel)
        })?;
        let out = merge_traced(ctx, || {
            let mut iter = pieces.into_iter();
            let mut out = iter.next().expect("at least one morsel");
            for piece in iter {
                out.append(&piece)?;
            }
            Ok(out)
        })?;
        query.apply_order_limit(out)
    } else {
        // Aggregate query: per-worker interner state, one partial batch
        // per morsel, absorbed in morsel order (group output order is
        // first-appearance order).
        let merged = run_agg_morsels(
            ctx,
            table,
            &query.group_by,
            &query.aggregates,
            n_morsels,
            "aggregate",
            |m| {
                Ok(Cow::Owned(
                    query.predicate.evaluate_range(table, morsel_range(m, n))?,
                ))
            },
        )?;
        query.apply_order_limit(merged)
    }
}

/// Execute the post-filter part of `query` on a precomputed selection
/// vector of **ascending global row ids**, preserving the base table's
/// morsel decomposition: morsel `m` processes exactly the slice of
/// `sel` falling inside its row window, and partials merge in morsel
/// order, as in [`run_query`]. The exec span is staged `"replay"` so
/// traces distinguish cache-subsumption replays from base-table scans.
///
/// The payoff is bit-exactness: if `sel` is what `query.predicate`
/// selects on `table`, the output is bit-identical to
/// `run_query(table, query, ctx)` — per-morsel float accumulation
/// sees the same values in the same order, and empty slices merge as
/// exact no-ops. The semantic result cache leans on this to answer a
/// contained range query from a cached superset without perturbing a
/// single ulp.
pub fn run_query_on_selection(
    table: &Table,
    query: &Query,
    sel: &[u32],
    ctx: &QueryCtx,
) -> Result<Table> {
    let n = table.num_rows();
    let n_morsels = morsel_count(n);
    // `sel` is ascending, so each morsel's share is one contiguous
    // slice; cut at the same row offsets `run_query` scans at.
    let rows_per_morsel = morsel_rows_for(n);
    let bounds: Vec<usize> = (0..=n_morsels)
        .map(|m| sel.partition_point(|&row| (row as usize) < m * rows_per_morsel))
        .collect();
    let slice = |m: usize| &sel[bounds[m]..bounds[m + 1]];

    if query.aggregates.is_empty() {
        query.check_projection(table)?;
        let pieces = run_morsels(ctx, n_morsels, "replay", |m| {
            query.scan_rows(table, slice(m))
        })?;
        let out = merge_traced(ctx, || {
            let mut iter = pieces.into_iter();
            let mut out = iter.next().expect("at least one morsel");
            for piece in iter {
                out.append(&piece)?;
            }
            Ok(out)
        })?;
        query.apply_order_limit(out)
    } else {
        let merged = run_agg_morsels(
            ctx,
            table,
            &query.group_by,
            &query.aggregates,
            n_morsels,
            "replay",
            |m| Ok(Cow::Borrowed(slice(m))),
        )?;
        query.apply_order_limit(merged)
    }
}

/// Run `f` once per morsel index under the context's policy and collect
/// the results in morsel order. Errors are resolved deterministically:
/// the error of the lowest-indexed failing morsel wins under either
/// policy.
///
/// The context hooks in three behaviours, all off (one branch each) by
/// default:
///
/// * **Cancellation** — `ctx.check_cancel()` runs before every morsel,
///   so a cancelled/expired token stops the query after at most the
///   in-flight morsels finish; remaining morsels fail fast without
///   doing work.
/// * **Fault injection** — the `exec.spawn` fail point diverts pool
///   dispatch to an inline serial loop, and the `exec.morsel` fail
///   point panics inside a pooled morsel task. Any worker panic
///   (injected or real) is caught and the whole batch degrades to
///   serial execution — bit-identical output, since the morsel
///   decomposition and merge order never change. A panic that repeats
///   serially propagates; the serial retry does not re-inject.
/// * **Tracing** — with `ctx.trace` set, records one [`SpanKind::Exec`]
///   span (parented at the trace root, stamped with the stage label and
///   the number of pool participants actually dispatched) plus one
///   [`SpanKind::Morsel`] child per morsel, and a [`SpanKind::Fault`]
///   marker when a degradation path engages. The exec span id is
///   reserved *before* the morsels run so children can parent under it,
///   then filled in afterwards once the participant count is known.
fn run_morsels<T, F>(ctx: &QueryCtx, n_morsels: usize, stage: &'static str, f: F) -> Result<Vec<T>>
where
    T: Send,
    F: Fn(usize) -> Result<T> + Sync,
{
    let span = ctx.trace.map(|t| (t, t.alloc_id(), t.now_ns()));
    // `inject` is true only for pooled attempts: the serial fallback
    // must not re-trigger the fault it is recovering from.
    let run_one = |m: usize, inject: bool| -> Result<T> {
        ctx.check_cancel()?;
        if inject && ctx.fire("exec.morsel") {
            panic!("faultsim: injected morsel panic");
        }
        match span {
            Some((t, exec_id, _)) => {
                let start = t.now_ns();
                let out = f(m);
                t.record(
                    exec_id,
                    SpanKind::Morsel { index: m as u32 },
                    start,
                    t.now_ns(),
                );
                out
            }
            None => f(m),
        }
    };
    let run_serial = |inject: bool| (0..n_morsels).map(|m| run_one(m, inject)).collect();
    let serial_fallback = || {
        ctx.note("fault.exec.serial_fallback");
        if let Some((t, exec_id, _)) = span {
            let now = t.now_ns();
            t.record(
                exec_id,
                SpanKind::Fault {
                    site: "exec.serial_fallback",
                },
                now,
                now,
            );
        }
        (run_serial(false), 1usize)
    };
    let (result, participants) = match ctx.exec {
        ExecPolicy::Serial => (run_serial(false), 1usize),
        ExecPolicy::Parallel { .. } if ctx.fire("exec.spawn") => {
            // Injected dispatch failure: pretend the pool was
            // unavailable and run the batch inline.
            serial_fallback()
        }
        ExecPolicy::Parallel { workers } if parallel_profitable(workers, n_morsels) => {
            let attempt = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                let slots = SlotVec::new(n_morsels);
                let participants = global_pool().run_counted(workers.max(1), n_morsels, &|m| {
                    // Safety: the pool executes each morsel index exactly
                    // once, so each slot is written by exactly one task.
                    unsafe { slots.set(m, run_one(m, true)) };
                });
                (slots, participants)
            }));
            match attempt {
                Ok((slots, participants)) => {
                    let mut out = Vec::with_capacity(n_morsels);
                    let mut collected = Ok(());
                    for slot in slots.into_inner() {
                        match slot {
                            Some(Ok(v)) => out.push(v),
                            Some(Err(e)) => {
                                collected = Err(e);
                                break;
                            }
                            None => {
                                collected =
                                    Err(StorageError::Internal("pool skipped a morsel".into()));
                                break;
                            }
                        }
                    }
                    (collected.map(|()| out), participants.max(1))
                }
                // A worker panicked (injected or real). The pool caught
                // it, unpublished the job, and stays valid; re-run the
                // whole batch serially — same decomposition, same merge
                // order, bit-identical output.
                Err(_) => serial_fallback(),
            }
        }
        ExecPolicy::Parallel { .. } => {
            // Serial fast-path: the pool would run this inline on the
            // calling thread anyway (one effective worker or a tiny
            // job), so skip dispatch entirely. Fault semantics match
            // the pooled path: injected morsel panics still fire and
            // still degrade to the non-injecting serial fallback.
            match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| run_serial(true))) {
                Ok(result) => (result, 1usize),
                Err(_) => serial_fallback(),
            }
        }
    };
    if let Some((t, exec_id, start)) = span {
        t.record_as(
            exec_id,
            ROOT_SPAN,
            SpanKind::Exec {
                stage,
                participants: participants as u32,
                morsels: n_morsels as u32,
            },
            start,
            t.now_ns(),
        );
    }
    result
}

/// Would a parallel fan-out actually dispatch to more than one thread?
/// Mirrors the pool's own participant clamp; when the answer is no, the
/// executor skips pool submission entirely (the serial fast-path).
/// Public so other fan-out layers (cracked-range batches, shard
/// dispatch) apply the same profitability rule instead of inventing
/// their own thresholds.
pub fn parallel_profitable(workers: usize, n_morsels: usize) -> bool {
    workers
        .max(1)
        .min(global_pool().helper_count() + 1)
        .min(n_morsels)
        > 1
}

/// One pool participant's aggregation state plus its span bookkeeping.
struct AggWorker<'t> {
    state: WorkerAggState<'t>,
    /// `(first_start_ns, last_end_ns)` of this worker's morsels, when
    /// tracing.
    window: Option<(u64, u64)>,
    morsels: u32,
}

/// Per-participant state slots for one aggregation fan-out.
struct WorkerSlots<'t>(Vec<UnsafeCell<Option<AggWorker<'t>>>>);

// Safety: the pool guarantees each participant index is exclusive to
// one thread for the job's duration, so distinct slots are only ever
// touched by distinct threads; the pool's completion barrier
// happens-before the collector reads them.
unsafe impl Sync for WorkerSlots<'_> {}

impl<'t> WorkerSlots<'t> {
    fn new(cap: usize) -> Self {
        WorkerSlots((0..cap).map(|_| UnsafeCell::new(None)).collect())
    }

    /// # Safety
    /// Only participant `w` may call this for slot `w`, and only while
    /// the job runs (or after its completion barrier).
    #[allow(clippy::mut_from_ref)]
    unsafe fn get(&self, w: usize) -> &mut Option<AggWorker<'t>> {
        unsafe { &mut *self.0[w].get() }
    }

    fn into_inner(self) -> Vec<Option<AggWorker<'t>>> {
        self.0.into_iter().map(UnsafeCell::into_inner).collect()
    }
}

/// Aggregate-specific fan-out: like [`run_morsels`], but each pool
/// participant keeps one [`WorkerAggState`] across every morsel it
/// runs (the group-key interner amortizes across stolen morsels instead
/// of being rebuilt per morsel), and each morsel yields a lightweight
/// [`MorselAggBatch`] partial. Batches are absorbed into the final
/// state **in morsel order** — a batch's content depends only on its
/// morsel's rows, never on the worker that ran it, so the result is
/// bit-identical across policies, worker counts, and steal schedules.
///
/// `sel_for(m)` produces morsel `m`'s selection (predicate evaluation
/// for direct runs, a precomputed slice for cache replays); it runs
/// before aggregate-column validation, preserving the error precedence
/// of the historical per-morsel path. Cancellation, fault injection
/// (`exec.spawn`/`exec.morsel` with serial fallback from fresh state),
/// and span recording all match [`run_morsels`]; additionally each
/// participant that ran at least one morsel gets a
/// [`SpanKind::Worker`] child under the exec span, and the merge bumps
/// the `exec.worker_merge` counter by the number of worker states
/// merged.
fn run_agg_morsels<'t, 's>(
    ctx: &QueryCtx,
    table: &'t Table,
    group_by: &'t [String],
    aggs: &'t [Aggregate],
    n_morsels: usize,
    stage: &'static str,
    sel_for: impl Fn(usize) -> Result<Cow<'s, [u32]>> + Sync,
) -> Result<Table> {
    let span = ctx.trace.map(|t| (t, t.alloc_id(), t.now_ns()));
    // `inject` is true only for first attempts; the serial fallback must
    // not re-trigger the fault it is recovering from.
    let run_one = |slots: &WorkerSlots<'t>,
                   w: usize,
                   m: usize,
                   inject: bool|
     -> Result<(u32, MorselAggBatch)> {
        ctx.check_cancel()?;
        if inject && ctx.fire("exec.morsel") {
            panic!("faultsim: injected morsel panic");
        }
        // Safety: the pool hands index `w` to exactly one thread.
        let cell = unsafe { slots.get(w) };
        let work = |cell: &mut Option<AggWorker<'t>>| -> Result<MorselAggBatch> {
            // Predicate errors must win over aggregate-validation errors
            // within a morsel, as in the historical path.
            let sel = sel_for(m)?;
            if cell.is_none() {
                *cell = Some(AggWorker {
                    state: WorkerAggState::new(table, group_by, aggs)?,
                    window: None,
                    morsels: 0,
                });
            }
            let worker = cell.as_mut().expect("initialized above");
            let batch = worker.state.update_morsel(&sel);
            worker.morsels += 1;
            Ok(batch)
        };
        match span {
            Some((t, exec_id, _)) => {
                let start = t.now_ns();
                let out = work(cell);
                let end = t.now_ns();
                t.record(exec_id, SpanKind::Morsel { index: m as u32 }, start, end);
                if let Some(worker) = cell.as_mut() {
                    let first = worker.window.map_or(start, |(s, _)| s);
                    worker.window = Some((first, end));
                }
                out.map(|batch| (w as u32, batch))
            }
            None => work(cell).map(|batch| (w as u32, batch)),
        }
    };
    type Collected = Result<Vec<(u32, MorselAggBatch)>>;
    let run_serial = |inject: bool| -> (WorkerSlots<'t>, Collected) {
        let slots = WorkerSlots::new(1);
        let result = (0..n_morsels)
            .map(|m| run_one(&slots, 0, m, inject))
            .collect();
        (slots, result)
    };
    let serial_fallback = || {
        ctx.note("fault.exec.serial_fallback");
        if let Some((t, exec_id, _)) = span {
            let now = t.now_ns();
            t.record(
                exec_id,
                SpanKind::Fault {
                    site: "exec.serial_fallback",
                },
                now,
                now,
            );
        }
        // Fresh state: nothing interned during an aborted pooled attempt
        // may leak into the serial re-run.
        let (slots, result) = run_serial(false);
        (slots, result, 1usize)
    };
    let (worker_slots, collected, participants) = match ctx.exec {
        ExecPolicy::Serial => {
            let (slots, result) = run_serial(false);
            (slots, result, 1usize)
        }
        ExecPolicy::Parallel { .. } if ctx.fire("exec.spawn") => serial_fallback(),
        ExecPolicy::Parallel { workers } if parallel_profitable(workers, n_morsels) => {
            let cap = workers
                .max(1)
                .min(global_pool().helper_count() + 1)
                .min(n_morsels);
            let attempt = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                let slots = WorkerSlots::new(cap);
                let batches: SlotVec<Result<(u32, MorselAggBatch)>> = SlotVec::new(n_morsels);
                let participants =
                    global_pool().run_counted_indexed(workers.max(1), n_morsels, &|w, m| {
                        // Safety: each morsel index runs exactly once.
                        unsafe { batches.set(m, run_one(&slots, w, m, true)) };
                    });
                (slots, batches, participants)
            }));
            match attempt {
                Ok((slots, batches, participants)) => {
                    let mut out = Vec::with_capacity(n_morsels);
                    let mut result = Ok(());
                    for slot in batches.into_inner() {
                        match slot {
                            Some(Ok(v)) => out.push(v),
                            Some(Err(e)) => {
                                result = Err(e);
                                break;
                            }
                            None => {
                                result =
                                    Err(StorageError::Internal("pool skipped a morsel".into()));
                                break;
                            }
                        }
                    }
                    (slots, result.map(|()| out), participants.max(1))
                }
                Err(_) => serial_fallback(),
            }
        }
        ExecPolicy::Parallel { .. } => {
            // Serial fast-path below the profitability threshold; fault
            // semantics match the pooled path (see `run_morsels`).
            match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| run_serial(true))) {
                Ok((slots, result)) => (slots, result, 1usize),
                Err(_) => serial_fallback(),
            }
        }
    };
    let workers = worker_slots.into_inner();
    if let Some((t, exec_id, start)) = span {
        for (w, worker) in workers.iter().enumerate() {
            let Some(worker) = worker else { continue };
            if let Some((first, last)) = worker.window {
                t.record(
                    exec_id,
                    SpanKind::Worker {
                        index: w as u32,
                        morsels: worker.morsels,
                    },
                    first,
                    last,
                );
            }
        }
        t.record_as(
            exec_id,
            ROOT_SPAN,
            SpanKind::Exec {
                stage,
                participants: participants as u32,
                morsels: n_morsels as u32,
            },
            start,
            t.now_ns(),
        );
    }
    let batches = collected?;
    if let Some((t, _, _)) = span {
        let merged_states = workers.iter().flatten().filter(|c| c.morsels > 0).count();
        t.metrics().inc("exec.worker_merge", merged_states as u64);
    }
    merge_traced(ctx, || {
        let mut acc = GroupedAggState::new(table, group_by, aggs)?;
        for (w, batch) in &batches {
            let worker = workers[*w as usize].as_ref().expect("batch has a worker");
            acc.absorb_batch(&worker.state, batch);
        }
        acc.finish()
    })
}

/// Run the morsel-order merge step `f`, wrapped in a [`SpanKind::Merge`]
/// span when the context carries a trace.
fn merge_traced<T>(ctx: &QueryCtx, f: impl FnOnce() -> Result<T>) -> Result<T> {
    match ctx.trace {
        Some(t) => {
            let start = t.now_ns();
            let out = f();
            t.record(ROOT_SPAN, SpanKind::Merge, start, t.now_ns());
            out
        }
        None => f(),
    }
}

/// A fixed-size vector of write-once result slots, one per morsel.
struct SlotVec<T>(Vec<UnsafeCell<Option<T>>>);

// Safety: distinct slots are written by distinct tasks (the pool runs
// each morsel index exactly once) and only read after the pool's
// completion barrier, which happens-before the reads.
unsafe impl<T: Send> Sync for SlotVec<T> {}

impl<T> SlotVec<T> {
    fn new(n: usize) -> Self {
        SlotVec((0..n).map(|_| UnsafeCell::new(None)).collect())
    }

    /// # Safety
    /// Each index must be written at most once, with no concurrent
    /// reader; see the `Sync` impl notes.
    unsafe fn set(&self, i: usize, value: T) {
        unsafe { *self.0[i].get() = Some(value) };
    }

    fn into_inner(self) -> impl Iterator<Item = Option<T>> {
        self.0.into_iter().map(UnsafeCell::into_inner)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use explore_storage::{gen, AggFunc, CmpOp, SortOrder, StorageError, Value};

    fn table() -> Table {
        gen::sales_table(&gen::SalesConfig {
            rows: 3 * MORSEL_ROWS + 1234,
            ..gen::SalesConfig::default()
        })
    }

    fn assert_tables_bitwise(a: &Table, b: &Table) {
        assert_eq!(a.num_rows(), b.num_rows());
        assert_eq!(a.schema(), b.schema());
        for field in a.schema().fields() {
            let ca = a
                .column(field.name())
                .unwrap_or_else(|e| panic!("left table lost column {:?}: {e}", field.name()));
            let cb = b
                .column(field.name())
                .unwrap_or_else(|e| panic!("right table lost column {:?}: {e}", field.name()));
            for row in 0..a.num_rows() {
                match (ca.value(row).unwrap(), cb.value(row).unwrap()) {
                    (Value::Float(x), Value::Float(y)) => {
                        assert_eq!(x.to_bits(), y.to_bits(), "{}[{row}]", field.name());
                    }
                    (x, y) => assert_eq!(x, y, "{}[{row}]", field.name()),
                }
            }
        }
    }

    #[test]
    fn morsel_geometry() {
        assert_eq!(morsel_count(0), 1);
        assert_eq!(morsel_count(1), 1);
        assert_eq!(morsel_count(MORSEL_ROWS), 1);
        assert_eq!(morsel_count(MORSEL_ROWS + 1), 2);
        assert_eq!(morsel_range(0, 10), 0..10);
        assert_eq!(
            morsel_range(1, MORSEL_ROWS + 5),
            MORSEL_ROWS..MORSEL_ROWS + 5
        );
    }

    #[test]
    fn adaptive_morsel_sizing() {
        // Fixed granularity up to MAX_MORSELS units…
        assert_eq!(morsel_rows_for(0), MORSEL_ROWS);
        assert_eq!(morsel_rows_for(MORSEL_ROWS * MAX_MORSELS), MORSEL_ROWS);
        assert_eq!(morsel_count(MORSEL_ROWS * MAX_MORSELS), MAX_MORSELS);
        // …then morsels coarsen instead of multiplying.
        assert_eq!(
            morsel_rows_for(MORSEL_ROWS * MAX_MORSELS + 1),
            2 * MORSEL_ROWS
        );
        for n in [
            MORSEL_ROWS * MAX_MORSELS + 1,
            3 * MORSEL_ROWS * MAX_MORSELS + 17,
            10 * MORSEL_ROWS * MAX_MORSELS,
            100 * MORSEL_ROWS * MAX_MORSELS + 99,
        ] {
            let count = morsel_count(n);
            assert!(count <= MAX_MORSELS, "{n} rows → {count} morsels");
            assert_eq!(morsel_rows_for(n) % MORSEL_ROWS, 0, "{n}");
            // Windows tile the table exactly.
            let mut covered = 0;
            for m in 0..count {
                let r = morsel_range(m, n);
                assert_eq!(r.start, covered, "{n} morsel {m}");
                assert!(r.end > r.start, "{n} morsel {m} empty");
                covered = r.end;
            }
            assert_eq!(covered, n);
        }
    }

    #[test]
    fn selection_matches_full_evaluate() {
        let t = table();
        let p = Predicate::range("price", 100.0, 600.0);
        let expected = p.evaluate(&t).unwrap();
        for policy in [ExecPolicy::Serial, ExecPolicy::Parallel { workers: 4 }] {
            assert_eq!(
                evaluate_selection(&t, &p, &QueryCtx::new(policy)).unwrap(),
                expected
            );
        }
    }

    #[test]
    fn scan_query_matches_query_run() {
        let t = table();
        let q = Query::new()
            .filter(Predicate::cmp("qty", CmpOp::Ge, 5.0))
            .select(&["region", "price"])
            .order("price", SortOrder::Desc)
            .take(500);
        let reference = q.run(&t).unwrap();
        for policy in [ExecPolicy::Serial, ExecPolicy::Parallel { workers: 4 }] {
            assert_tables_bitwise(
                &run_query(&t, &q, &QueryCtx::new(policy)).unwrap(),
                &reference,
            );
        }
    }

    #[test]
    fn grouped_aggregate_policies_agree_bitwise() {
        let t = table();
        let q = Query::new()
            .filter(Predicate::range("price", 50.0, 800.0))
            .group("region")
            .agg(AggFunc::Sum, "price")
            .agg(AggFunc::Avg, "qty")
            .order("sum(price)", SortOrder::Desc);
        let serial = run_query(&t, &q, &QueryCtx::none()).unwrap();
        let parallel =
            run_query(&t, &q, &QueryCtx::new(ExecPolicy::Parallel { workers: 4 })).unwrap();
        assert_tables_bitwise(&serial, &parallel);
        // Same groups and counts as the single-accumulator reference.
        let reference = q.run(&t).unwrap();
        assert_eq!(serial.num_rows(), reference.num_rows());
    }

    #[test]
    fn selection_replay_is_bit_identical_to_run_query() {
        let t = table();
        let shapes = [
            Query::new().filter(Predicate::range("price", 100.0, 600.0)),
            Query::new()
                .filter(Predicate::cmp("qty", CmpOp::Ge, 5.0))
                .select(&["region", "price"])
                .order("price", SortOrder::Desc)
                .take(321),
            Query::new()
                .filter(Predicate::range("price", 50.0, 800.0))
                .group("region")
                .agg(AggFunc::Sum, "price")
                .agg(AggFunc::Var, "discount")
                .order("sum(price)", SortOrder::Desc),
            Query::new()
                .filter(Predicate::cmp("price", CmpOp::Lt, -1.0))
                .agg(AggFunc::Avg, "price"),
        ];
        for policy in [ExecPolicy::Serial, ExecPolicy::Parallel { workers: 4 }] {
            let ctx = QueryCtx::new(policy);
            for q in &shapes {
                let sel = evaluate_selection(&t, &q.predicate, &ctx).unwrap();
                let direct = run_query(&t, q, &ctx).unwrap();
                let replayed = run_query_on_selection(&t, q, &sel, &ctx).unwrap();
                assert_tables_bitwise(&direct, &replayed);
            }
        }
    }

    #[test]
    fn selection_replay_policies_agree_on_arbitrary_subsets() {
        // Not just predicate-produced selections: any ascending subset
        // must agree across policies (the cache maps subset-local ids
        // back to global ids before replaying).
        let t = table();
        let every_third: Vec<u32> = (0..t.num_rows() as u32).step_by(3).collect();
        let q = Query::new()
            .group("region")
            .agg(AggFunc::Avg, "price")
            .agg(AggFunc::Std, "discount");
        let serial = run_query_on_selection(&t, &q, &every_third, &QueryCtx::none()).unwrap();
        let parallel = run_query_on_selection(
            &t,
            &q,
            &every_third,
            &QueryCtx::new(ExecPolicy::Parallel { workers: 4 }),
        )
        .unwrap();
        assert_tables_bitwise(&serial, &parallel);
        // Empty selection still yields the canonical aggregate shape.
        let empty = run_query_on_selection(&t, &q, &[], &QueryCtx::none()).unwrap();
        assert_eq!(empty.num_rows(), 0);
    }

    #[test]
    fn errors_identical_across_policies() {
        let t = table();
        let q = Query::new().filter(Predicate::cmp("no_such", CmpOp::Eq, 1.0));
        let serial = run_query(&t, &q, &QueryCtx::none()).unwrap_err();
        let parallel =
            run_query(&t, &q, &QueryCtx::new(ExecPolicy::Parallel { workers: 4 })).unwrap_err();
        assert_eq!(serial.to_string(), parallel.to_string());
        assert!(matches!(serial, StorageError::UnknownColumn(_)));
    }

    #[test]
    fn cancel_token_stops_between_morsels() {
        let t = table();
        let q = Query::new().agg(AggFunc::Sum, "price");
        let ctx = QueryCtx::none().with_cancel(Some(explore_fault::CancelToken::after_checks(1)));
        assert_eq!(run_query(&t, &q, &ctx), Err(StorageError::Cancelled));
    }
}
