//! Morsel-driven execution of [`Query`] plans under a [`QueryCtx`].
//!
//! The morsel grid and the scan-and-aggregate pipeline are
//! `explore-storage`'s (`explore_storage::query`): a table splits into
//! morsels at the same offsets whoever runs them, each morsel evaluates
//! the predicate over its row window and gathers its rows or emits one
//! partial aggregate batch, and partials merge **in morsel order**. That
//! pipeline is generic over *who runs a morsel* — the
//! [`MorselDispatch`] seam — and this module is its context-carrying
//! implementation: [`run_query`], [`run_query_parts`] and
//! [`run_query_on_selection`] hand the pipeline a dispatcher that sends
//! every fan-out through [`crate::fan_out`] via the private
//! `run_morsels`, which adds what is the executor's own — a cancel check
//! per morsel, the `exec.*` fault names, and the exec/morsel/worker
//! spans. The grid functions are re-exported here under the paths they
//! have always had.
//!
//! The other implementation of the seam is the plain calling-thread loop
//! behind [`Query::run`]. What a morsel computes and the order partials
//! combine in belong to the pipeline, not the dispatcher, so
//! [`ExecPolicy::Serial`], [`ExecPolicy::Parallel`] and `Query::run`
//! produce bit-identical tables by construction: the only difference is
//! which thread computes each morsel.
//!
//! A table may be given as a list of row-range **parts**
//! ([`run_query_parts`]; [`run_query`] is the one-part case): the morsel
//! grid is the concatenation's, and a morsel whose rows live in several
//! parts reads its fragments in place, in row order — so the partition
//! is as invisible in the output as the policy.
//!
//! Every entry point takes one [`QueryCtx`] carrying the execution
//! policy, fail-point registry, cancellation tokens, and trace handle —
//! there are no per-concern method variants. A default context
//! ([`QueryCtx::none`]) gives plain serial execution with every hook
//! disabled at the cost of a couple of `None` branches per morsel.
//!
//! [`ExecPolicy::Serial`]: crate::ExecPolicy::Serial
//! [`ExecPolicy::Parallel`]: crate::ExecPolicy::Parallel

use std::sync::atomic::{AtomicU64, Ordering};

use explore_obs::{SpanKind, ROOT_SPAN};
pub use explore_storage::query::{morsel_count, morsel_range, morsel_rows_for, MAX_MORSELS};
use explore_storage::{MorselDispatch, Predicate, Query, Result, Table};

use crate::ctx::QueryCtx;
use crate::fanout::{fan_out, FanOutSite};

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
/// materializing it: [`Query::run_parts`] under `ctx`. The result is
/// bit-identical to [`run_query`] on the concatenation (and errors are
/// the same errors) for every partition of the rows.
pub fn run_query_parts(parts: &[&Table], query: &Query, ctx: &QueryCtx) -> Result<Table> {
    query.run_parts(parts, &Morsels(ctx))
}

/// Execute the post-filter part of `query` on a precomputed selection
/// vector of **ascending global row ids**, preserving the base table's
/// morsel decomposition: [`Query::replay_selection`] under `ctx`. If
/// `sel` is what `query.predicate` selects on `table`, the output is
/// bit-identical to `run_query(table, query, ctx)`; the exec span is
/// staged `"replay"`.
pub fn run_query_on_selection(
    table: &Table,
    query: &Query,
    sel: &[u32],
    ctx: &QueryCtx,
) -> Result<Table> {
    query.replay_selection(table, sel, &Morsels(ctx))
}

/// The pipeline's dispatcher under a [`QueryCtx`]: morsels through
/// [`run_morsels`], the merge under a [`SpanKind::Merge`] span.
struct Morsels<'a, 't>(&'a QueryCtx<'t>);

impl MorselDispatch for Morsels<'_, '_> {
    fn run<S: Send, T: Send>(
        &self,
        n_morsels: usize,
        stage: &'static str,
        init: impl Fn() -> S + Sync,
        job: impl Fn(&mut S, usize, usize) -> Result<T> + Sync,
    ) -> Result<(Vec<T>, Vec<S>)> {
        run_morsels(self.0, n_morsels, stage, init, job)
    }

    fn merge<T>(&self, worker_states: usize, f: impl FnOnce() -> Result<T>) -> Result<T> {
        let Some(t) = self.0.trace else {
            return f();
        };
        if worker_states > 0 {
            t.metrics().inc("exec.worker_merge", worker_states as u64);
        }
        let start = t.now_ns();
        let out = f();
        t.record(ROOT_SPAN, SpanKind::Merge, start, t.now_ns());
        out
    }
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
///   number of threads that ran the fan-out), one
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ExecPolicy;
    use explore_storage::{gen, AggFunc, CmpOp, SortOrder, StorageError, Value, MORSEL_ROWS};

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
        // One pipeline: the calling-thread walk is the reference.
        let reference = q.run(&t).unwrap();
        for policy in [ExecPolicy::Serial, ExecPolicy::Parallel { workers: 4 }] {
            assert_tables_bitwise(
                &run_query(&t, &q, &QueryCtx::new(policy)).unwrap(),
                &reference,
            );
        }
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
