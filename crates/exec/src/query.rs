//! Morsel-driven execution of [`Query`] plans.
//!
//! A table is split into morsels at the same offsets regardless of
//! policy: [`MORSEL_ROWS`] rows each up to [`MAX_MORSELS`] units, then
//! adaptively coarser (see [`morsel_rows_for`]) so huge scans stay a
//! handful of work units. Each morsel independently evaluates the
//! predicate over its row window (vectorized, see
//! `Predicate::evaluate_range`) and either gathers its matching rows
//! (scan queries) or folds them into its participant's aggregation
//! state, which emits one partial batch per morsel (aggregate queries).
//! Partial results are then merged **in morsel order**, so
//! [`ExecPolicy::Serial`] and [`ExecPolicy::Parallel`] produce
//! bit-identical tables by construction: the only difference is which
//! thread computes each morsel, never what is computed or the order in
//! which partials are combined.
//!
//! There is one pipeline. A table may be given as a list of row-range
//! **parts** ([`run_query_parts`]; [`run_query`] is the one-part case):
//! the morsel grid is the concatenation's, and a morsel whose rows live
//! in several parts reads its fragments in place, in row order — so the
//! partition is as invisible in the output as the policy. Every fan-out
//! goes through [`crate::fan_out`] via the private `run_morsels`, which
//! adds what is the executor's own: a cancel check per morsel, the
//! `exec.*` fault names, and the exec/morsel/worker spans.
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
//!
//! [`ExecPolicy::Serial`]: crate::ExecPolicy::Serial
//! [`ExecPolicy::Parallel`]: crate::ExecPolicy::Parallel

use std::borrow::Cow;
use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};

use explore_obs::{SpanKind, ROOT_SPAN};
use explore_storage::{
    AggColumns, GroupedAggState, Predicate, Query, Result, StorageError, Table, WorkerAggState,
    MORSEL_ROWS,
};

use crate::ctx::QueryCtx;
use crate::fanout::{fan_out, FanOutSite};

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
pub fn morsel_range(m: usize, n_rows: usize) -> Range<usize> {
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
    let (pieces, _) = run_morsels(
        ctx,
        morsel_count(n),
        "filter",
        || (),
        |_, _, m| predicate.evaluate_range(table, morsel_range(m, n)),
    )?;
    let mut sel = Vec::with_capacity(pieces.iter().map(Vec::len).sum());
    for piece in pieces {
        sel.extend_from_slice(&piece);
    }
    Ok(sel)
}

/// Execute `query` against `table` under `ctx`: the one-part case of
/// [`run_query_parts`]. See the module docs for the determinism
/// contract. A cancelled or expired token surfaces as
/// `StorageError::Cancelled`/`DeadlineExceeded` after at most one
/// in-flight morsel finishes; no partial result escapes.
pub fn run_query(table: &Table, query: &Query, ctx: &QueryCtx) -> Result<Table> {
    run_query_parts(&[table], query, ctx)
}

/// Execute `query` against the table whose rows are the rows of `parts`
/// (at least one, all of one schema) concatenated in order, without
/// materializing it. The morsel grid is the whole table's — computed
/// from the total row count, wherever the part boundaries fall — and a
/// morsel that covers rows of several parts evaluates the predicate on
/// each fragment and consumes the fragments in row order, so the result
/// is bit-identical to [`run_query`] on the concatenation (and errors
/// are the same errors) for every partition of the rows.
pub fn run_query_parts(parts: &[&Table], query: &Query, ctx: &QueryCtx) -> Result<Table> {
    let n = parts.iter().map(|t| t.num_rows()).sum();
    let stage = if query.aggregates.is_empty() {
        "scan"
    } else {
        "aggregate"
    };
    run_selected(ctx, parts, query, morsel_count(n), stage, |m| {
        fragments(parts, morsel_range(m, n)).map(|(p, rows)| {
            let sel = query.predicate.evaluate_range(parts[p], rows)?;
            Ok((p, Cow::Owned(sel)))
        })
    })
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
    run_selected(ctx, &[table], query, n_morsels, "replay", |m| {
        std::iter::once(Ok((0, Cow::Borrowed(&sel[bounds[m]..bounds[m + 1]]))))
    })
}

/// The pieces of global row window `rows` that live in each of `parts`,
/// in row order, as `(part index, part-local row window)`. An empty
/// window (the one morsel of an empty table) still yields part 0, so
/// validation runs and every partition surfaces identical errors.
fn fragments<'p>(
    parts: &'p [&'p Table],
    rows: Range<usize>,
) -> impl Iterator<Item = (usize, Range<usize>)> + 'p {
    let mut start = 0;
    parts.iter().enumerate().filter_map(move |(p, part)| {
        let end = start + part.num_rows();
        let (a, b) = (rows.start.max(start), rows.end.min(end));
        let fragment = (a < b || (rows.is_empty() && p == 0)).then(|| (p, a - start..b - start));
        start = end;
        fragment
    })
}

/// The post-filter pipeline every entry point shares. `selected(m)`
/// yields morsel `m`'s fragments in row order — the part each lives in
/// and the part-local rows the predicate selected there (evaluated
/// lazily for direct runs, a precomputed slice for cache replays).
///
/// A scan gathers each fragment's rows from the projected columns and
/// concatenates morsels in order. An aggregate keeps one
/// [`WorkerAggState`] per pool participant (the group-key interner
/// amortizes across stolen morsels), feeds it a morsel's fragments to
/// get one [`MorselAggBatch`], and absorbs the batches into the final
/// state **in morsel order** — a batch's content depends only on its
/// morsel's rows, never on the worker that ran it or the parts they
/// came from, so the result is bit-identical across policies, worker
/// counts, steal schedules and partitions.
fn run_selected<'s, I>(
    ctx: &QueryCtx,
    parts: &[&Table],
    query: &Query,
    n_morsels: usize,
    stage: &'static str,
    selected: impl Fn(usize) -> I + Sync,
) -> Result<Table>
where
    I: Iterator<Item = Result<(usize, Cow<'s, [u32]>)>>,
{
    let first = *parts
        .first()
        .ok_or_else(|| StorageError::Internal("a query needs at least one part".into()))?;
    let merged = if query.aggregates.is_empty() {
        // Validate the projection before any predicate runs.
        query.check_projection(first)?;
        let (pieces, _) = run_morsels(
            ctx,
            n_morsels,
            stage,
            || (),
            |_, _, m| {
                let mut piece: Option<Table> = None;
                for fragment in selected(m) {
                    let (p, sel) = fragment?;
                    let rows = query.scan_rows(parts[p], &sel)?;
                    match &mut piece {
                        None => piece = Some(rows),
                        Some(piece) => piece.append(&rows)?,
                    }
                }
                Ok(piece.expect("every morsel has a fragment"))
            },
        )?;
        merge_traced(ctx, || {
            let mut iter = pieces.into_iter();
            let mut out = iter.next().expect("at least one morsel");
            for piece in iter {
                out.append(&piece)?;
            }
            Ok(out)
        })?
    } else {
        let (group_by, aggs) = (&query.group_by, &query.aggregates);
        // Resolved once per part, consulted only after a fragment's
        // selection exists: within a morsel a predicate error wins over
        // an aggregate-validation error.
        let cols: Result<Vec<AggColumns>> = parts
            .iter()
            .map(|part| AggColumns::resolve(part, group_by, aggs))
            .collect();
        let (batches, workers) = run_morsels(
            ctx,
            n_morsels,
            stage,
            WorkerAggState::default,
            |worker, w, m| {
                worker.begin();
                for fragment in selected(m) {
                    let (p, sel) = fragment?;
                    let cols = cols.as_ref().map_err(StorageError::clone)?;
                    worker.feed(&cols[p], &sel);
                }
                Ok((w, worker.end()))
            },
        )?;
        if let Some(t) = ctx.trace {
            let merged_states = (0..workers.len())
                .filter(|w| batches.iter().any(|(ran_by, _)| ran_by == w))
                .count();
            t.metrics().inc("exec.worker_merge", merged_states as u64);
        }
        merge_traced(ctx, || {
            let mut acc = GroupedAggState::new(first.schema(), group_by, aggs)?;
            for (w, batch) in &batches {
                acc.absorb_batch(&workers[*w], batch);
            }
            acc.finish()
        })?
    };
    query.apply_order_limit(merged)
}

/// What [`run_morsels`] reports a degradation under.
const EXEC_SITE: FanOutSite = FanOutSite {
    spawn_fail: "exec.spawn",
    job_fail: Some("exec.morsel"),
    degraded_event: "fault.exec.serial_fallback",
    fault_site: "exec.serial_fallback",
};

/// Run `f(state, participant, morsel)` once per morsel index through
/// [`fan_out`] and return the results in morsel order plus the
/// per-participant states. Errors are resolved deterministically: the
/// error of the lowest-indexed failing morsel wins under either policy.
///
/// What this adds to the dispatch protocol is the executor's own:
///
/// * **Cancellation** — `ctx.check_cancel()` runs before every morsel,
///   so a cancelled/expired token stops the query after at most the
///   in-flight morsels finish; remaining morsels fail fast without
///   doing work.
/// * **Fault names** — `exec.spawn` diverts dispatch to the inline loop
///   and `exec.morsel` panics inside a first-attempt morsel; either
///   degrades to `fault.exec.serial_fallback`, bit-identical because
///   the morsel decomposition and merge order never change.
/// * **Tracing** — with `ctx.trace` set, one [`SpanKind::Exec`] span
///   (parented at the trace root, stamped with the stage label and the
///   number of pool participants actually dispatched), one
///   [`SpanKind::Morsel`] child per morsel, and one
///   [`SpanKind::Worker`] child per participant that ran any, from its
///   first morsel to its last (an aborted first attempt's morsels
///   included, like their morsel spans). The exec span id is reserved *before*
///   the morsels run so children can parent under it, then filled in
///   afterwards once the participant count is known.
fn run_morsels<S: Send, T: Send>(
    ctx: &QueryCtx,
    n_morsels: usize,
    stage: &'static str,
    init: impl Fn() -> S + Sync,
    f: impl Fn(&mut S, usize, usize) -> Result<T> + Sync,
) -> Result<(Vec<T>, Vec<S>)> {
    let span = ctx.trace.map(|t| (t, t.alloc_id(), t.now_ns()));
    // Per participant, when tracing: first morsel's start, last morsel's
    // end, morsels run. Statistics only, hence relaxed.
    let tallies: Vec<[AtomicU64; 3]> = (0..span.map_or(0, |_| ctx.exec.workers()))
        .map(|_| {
            [
                AtomicU64::new(u64::MAX),
                AtomicU64::new(0),
                AtomicU64::new(0),
            ]
        })
        .collect();
    let exec_id = span.map_or(ROOT_SPAN, |(_, exec_id, _)| exec_id);
    let out = fan_out(ctx, &EXEC_SITE, exec_id, n_morsels, init, |state, w, m| {
        ctx.check_cancel()?;
        let Some((t, exec_id, _)) = span else {
            return f(state, w, m);
        };
        let start = t.now_ns();
        let out = f(state, w, m);
        let end = t.now_ns();
        t.record(exec_id, SpanKind::Morsel { index: m as u32 }, start, end);
        tallies[w][0].fetch_min(start, Ordering::Relaxed);
        tallies[w][1].fetch_max(end, Ordering::Relaxed);
        tallies[w][2].fetch_add(1, Ordering::Relaxed);
        out
    });
    if let Some((t, exec_id, start)) = span {
        for (w, tally) in tallies.iter().enumerate() {
            let [first, last, morsels] = tally.each_ref().map(|a| a.load(Ordering::Relaxed));
            if morsels > 0 {
                let (index, morsels) = (w as u32, morsels as u32);
                t.record(exec_id, SpanKind::Worker { index, morsels }, first, last);
            }
        }
        t.record_as(
            exec_id,
            ROOT_SPAN,
            SpanKind::Exec {
                stage,
                participants: out.participants as u32,
                morsels: n_morsels as u32,
            },
            start,
            t.now_ns(),
        );
    }
    Ok((out.results?, out.states))
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ExecPolicy;
    use explore_storage::{gen, AggFunc, CmpOp, SortOrder, Value};

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
    fn fragments_tile_a_window_across_parts() {
        let t = table();
        let a = t.gather(&[0, 1, 2]);
        let none = t.gather(&[]);
        let b = t.gather(&[3, 4, 5, 6]);
        let parts = [&a, &none, &b];
        let of = |rows| fragments(&parts, rows).collect::<Vec<_>>();
        assert_eq!(of(0..7), [(0, 0..3), (2, 0..4)]);
        assert_eq!(of(1..4), [(0, 1..3), (2, 0..1)]);
        assert_eq!(of(3..5), [(2, 0..2)]);
        // The one morsel of an empty table still visits a part.
        assert_eq!(
            fragments(&[&none, &none], 0..0).collect::<Vec<_>>(),
            [(0, 0..0)]
        );
    }

    #[test]
    fn parts_are_bit_identical_to_the_whole() {
        let t = table();
        let n = t.num_rows() as u32;
        // Off-grid cuts, an empty part, and one-row parts inside morsel 1.
        let cuts = [
            0,
            1000,
            1000,
            MORSEL_ROWS as u32 + 7,
            MORSEL_ROWS as u32 + 8,
            n,
        ];
        let owned: Vec<Table> = cuts
            .windows(2)
            .map(|w| t.gather(&(w[0]..w[1]).collect::<Vec<u32>>()))
            .collect();
        let parts: Vec<&Table> = owned.iter().collect();
        let shapes = [
            Query::new()
                .filter(Predicate::cmp("qty", CmpOp::Ge, 5.0))
                .select(&["region", "price"]),
            Query::new()
                .filter(Predicate::range("price", 50.0, 800.0))
                .group("region")
                .agg(AggFunc::Sum, "price")
                .agg(AggFunc::Var, "discount"),
            Query::new().agg(AggFunc::Avg, "price"),
        ];
        for policy in [ExecPolicy::Serial, ExecPolicy::Parallel { workers: 4 }] {
            let ctx = QueryCtx::new(policy);
            for q in &shapes {
                assert_tables_bitwise(
                    &run_query_parts(&parts, q, &ctx).unwrap(),
                    &run_query(&t, q, &ctx).unwrap(),
                );
            }
        }
        let none = run_query_parts(&[], &shapes[0], &QueryCtx::none());
        assert!(matches!(none, Err(StorageError::Internal(_))));
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
