//! Deterministic query fan-out and merge across shards.
//!
//! The bit-identity contract extends the executor's: for any shard
//! count, `run_sharded_query` returns a table bit-identical (floats by
//! `to_bits`) to `explore_exec::run_query` against the unsharded table,
//! under either execution policy and with the cache off, cold, or warm.
//!
//! **Scans** fan out per shard: each shard runs the query with
//! order/limit stripped, shard results concatenate in shard order —
//! which *is* ascending global row order, exactly what the unsharded
//! morsel merge produces — and order/limit applies once after the
//! merge. Per-shard results are cached under the shard's scoped name
//! ([`scoped_name`]), so a mutation to one shard leaves the other
//! shards' entries live. Shards are the outer work unit of
//! [`explore_exec::fan_out`] and morsels the inner one (a shard job's
//! own fan-out finds the pool busy and runs inline, so the pool cannot
//! deadlock). Fail points: `shard.dispatch` diverts the shard fan-out to
//! an inline loop; `shard.merge` panics inside the guarded
//! concatenation, which is caught and redone from the held pieces —
//! both degrade gracefully and neither changes a bit of the answer.
//!
//! **Aggregates** do not fan out per shard at all. Per-morsel float
//! accumulators merge via Welford/Chan, which is *not* bit-associative,
//! so the unit of work has to be the unsharded run's morsel, wherever
//! the shard boundaries fall. The shards of one snapshot are handed to
//! [`explore_exec::run_query_parts`] as the parts of one table: it
//! walks the **global** morsel grid over them, and a morsel that crosses
//! a shard boundary reads its fragments in place, in row order. The
//! aggregate of a sharded table is the executor's aggregate — same
//! stolen morsels, same `exec.*` fail points and spans, same bits — and
//! this module only puts the whole-table cache entry around it.

use std::fmt::Write as _;
use std::panic::{catch_unwind, AssertUnwindSafe};

use explore_cache::{cached_query_at_epoch, serve_or_compute, Fingerprint, ResultCache};
use explore_exec::{fan_out, run_query, run_query_parts, FanOutSite, QueryCtx};
use explore_obs::{SpanKind, ROOT_SPAN};
use explore_storage::{Query, Result, Table};

use crate::table::{scoped_name, ShardedTable};

/// Execute `query` against the shards of a registered table.
/// `cache` is `Some` iff the engine's cache policy is on; per-shard
/// scan results and whole-table aggregate results are then served and
/// admitted through it. See the module docs for the exactness contract.
///
/// Epoch protocol for concurrent engines: every cache epoch this
/// fan-out admits under is read **before** the shard snapshot is taken
/// (see [`explore_cache::cached_query_at_epoch`]) — mutations write
/// shard data first and bump epochs second, so the snapshot is always
/// at least as new as the epochs its results are admitted under.
pub fn run_sharded_query(
    sharded: &ShardedTable,
    cache: Option<&ResultCache>,
    query: &Query,
    ctx: &QueryCtx,
) -> Result<Table> {
    ctx.check_cancel()?;
    if let Some(t) = ctx.trace {
        t.metrics().inc("shard.queries", 1);
    }
    if query.aggregates.is_empty() {
        run_scan(sharded, cache, query, ctx)
    } else {
        run_agg(sharded, cache, query, ctx)
    }
}

/// What the shard scan fan-out reports a degradation under.
const SCAN_SITE: FanOutSite = FanOutSite {
    spawn_fail: "shard.dispatch",
    job_fail: None,
    degraded_event: "fault.shard.serial_fanout",
    fault_site: "shard.dispatch",
};

/// Scan fan-out: strip order/limit, run per shard (through the cache
/// under the shard's scoped name when enabled), concatenate in shard
/// order, then order/limit once.
fn run_scan(
    sharded: &ShardedTable,
    cache: Option<&ResultCache>,
    query: &Query,
    ctx: &QueryCtx,
) -> Result<Table> {
    let mut stripped = query.clone();
    stripped.order_by = None;
    stripped.limit = None;

    // Scoped epochs first, then the snapshot (see the entry-point docs).
    let epochs: Vec<u64> = match cache {
        Some(c) => (0..sharded.shard_count())
            .map(|s| c.epoch(&scoped_name(sharded.name(), s)))
            .collect(),
        None => Vec::new(),
    };
    let snap = sharded.snapshot();

    let fanout_start = ctx.trace.map(|t| t.now_ns());
    let pieces = fan_out(
        ctx,
        &SCAN_SITE,
        ROOT_SPAN,
        snap.shard_count(),
        || (),
        |_, _, s| match cache {
            Some(c) => cached_query_at_epoch(
                c,
                snap.table(s),
                &scoped_name(snap.name(), s),
                &stripped,
                ctx,
                epochs[s],
            ),
            None => run_query(snap.table(s), &stripped, ctx),
        },
    )
    .results;
    if let Some((t, start)) = ctx.trace.zip(fanout_start) {
        t.record(
            ROOT_SPAN,
            SpanKind::Stage("shard.fanout"),
            start,
            t.now_ns(),
        );
        t.metrics().inc("shard.fanouts", 1);
        t.metrics()
            .inc("shard.subqueries", snap.shard_count() as u64);
    }
    let pieces = pieces?;

    let merged = merge_guarded(ctx, || {
        let mut iter = pieces.iter();
        let mut out = iter.next().cloned().expect("at least one shard");
        for piece in iter {
            out.append(piece)?;
        }
        Ok(out)
    })?;
    query.apply_order_limit(merged)
}

/// Aggregate over the snapshot's shards as the parts of one table, with
/// whole-table caching. The cache key composes the shard dimension —
/// count and per-shard scoped epochs (the sub-fingerprints) — with the
/// canonical query key, under the base table's name so any sharded
/// mutation (which bumps the base epoch) invalidates it.
fn run_agg(
    sharded: &ShardedTable,
    cache: Option<&ResultCache>,
    query: &Query,
    ctx: &QueryCtx,
) -> Result<Table> {
    // The composite key reads every scoped epoch (and the base admission
    // epoch) *before* the snapshot below — the epoch-before-snapshot rule
    // again: a concurrent mutation in the window makes this run admit
    // under pre-mutation epochs, which the mutation's bump then kills.
    let keyed = cache.map(|c| {
        let mut key = format!("shard|k={}|", sharded.shard_count());
        for s in 0..sharded.shard_count() {
            let scope = scoped_name(sharded.name(), s);
            let _ = write!(key, "{scope}@{};", c.epoch(&scope));
        }
        key.push_str(Fingerprint::for_query(sharded.name(), query).key());
        (
            c,
            Fingerprint::custom(sharded.name(), key),
            c.epoch(sharded.name()),
        )
    });
    let snap = sharded.snapshot();
    let compute = || {
        let parts: Vec<&Table> = (0..snap.shard_count()).map(|s| snap.table(s)).collect();
        run_query_parts(&parts, query, ctx)
    };
    match keyed {
        Some((c, fingerprint, epoch)) => serve_or_compute(
            c,
            fingerprint,
            epoch,
            ctx,
            |_, _| None,
            || Ok((compute()?, None)),
        ),
        None => compute(),
    }
}

/// Run the merge step under the `shard.merge` fail point: an injected
/// (or real) panic in the first attempt is caught and the merge re-runs
/// serially from the held partials — they are borrowed, not consumed,
/// precisely so the retry is possible.
fn merge_guarded<T>(ctx: &QueryCtx, f: impl Fn() -> Result<T>) -> Result<T> {
    let span = ctx.trace.map(|t| (t, t.now_ns()));
    let attempt = catch_unwind(AssertUnwindSafe(|| {
        if ctx.fire("shard.merge") {
            panic!("faultsim: injected shard merge failure");
        }
        f()
    }));
    let result = match attempt {
        Ok(r) => r,
        Err(_) => {
            ctx.note("fault.shard.remerge");
            if let Some((t, _)) = span {
                let now = t.now_ns();
                let site = "shard.merge";
                t.record(ROOT_SPAN, SpanKind::Fault { site }, now, now);
            }
            f()
        }
    };
    if let Some((t, start)) = span {
        t.record(ROOT_SPAN, SpanKind::Stage("shard.merge"), start, t.now_ns());
        t.metrics().inc("shard.merges", 1);
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::ShardConfig;
    use explore_exec::ExecPolicy;
    use explore_storage::gen::{sales_table, SalesConfig};
    use explore_storage::{AggFunc, CmpOp, Predicate, SortOrder, Value, MORSEL_ROWS};

    fn sales(rows: usize) -> Table {
        sales_table(&SalesConfig {
            rows,
            ..SalesConfig::default()
        })
    }

    fn sharded(t: &Table, count: usize) -> ShardedTable {
        ShardedTable::build(
            "sales",
            t,
            &ShardConfig {
                count,
                min_rows_per_shard: 1,
            },
        )
    }

    fn assert_bitwise(a: &Table, b: &Table, context: &str) {
        assert_eq!(a.schema(), b.schema(), "{context}: schema");
        assert_eq!(a.num_rows(), b.num_rows(), "{context}: rows");
        for field in a.schema().fields() {
            let ca = a.column(field.name()).unwrap();
            let cb = b.column(field.name()).unwrap();
            for row in 0..a.num_rows() {
                match (ca.value(row).unwrap(), cb.value(row).unwrap()) {
                    (Value::Float(x), Value::Float(y)) => {
                        assert_eq!(
                            x.to_bits(),
                            y.to_bits(),
                            "{context}: {}[{row}]",
                            field.name()
                        );
                    }
                    (x, y) => assert_eq!(x, y, "{context}: {}[{row}]", field.name()),
                }
            }
        }
    }

    #[test]
    fn sharded_aggregate_is_bitwise_vs_unsharded() {
        let t = sales(2 * MORSEL_ROWS + 4321);
        let q = Query::new()
            .filter(Predicate::range("price", 50.0, 800.0))
            .group("region")
            .agg(AggFunc::Sum, "price")
            .agg(AggFunc::Var, "discount")
            .order("sum(price)", SortOrder::Desc);
        let ctx = QueryCtx::none();
        let baseline = run_query(&t, &q, &ctx).unwrap();
        for shards in [1, 2, 4, 7] {
            let st = sharded(&t, shards);
            let got = run_sharded_query(&st, None, &q, &ctx).unwrap();
            assert_bitwise(&baseline, &got, &format!("{shards} shards"));
        }
    }

    #[test]
    fn sharded_scan_is_bitwise_vs_unsharded() {
        let t = sales(MORSEL_ROWS + 777);
        let q = Query::new()
            .filter(Predicate::cmp("qty", CmpOp::Ge, 5.0))
            .select(&["region", "price"])
            .order("price", SortOrder::Desc)
            .take(123);
        let ctx = QueryCtx::new(ExecPolicy::Parallel { workers: 4 });
        let baseline = run_query(&t, &q, &ctx).unwrap();
        for shards in [2, 4, 7] {
            let st = sharded(&t, shards);
            let got = run_sharded_query(&st, None, &q, &ctx).unwrap();
            assert_bitwise(&baseline, &got, &format!("{shards} shards"));
        }
    }

    #[test]
    fn errors_match_unsharded() {
        let t = sales(500);
        let st = sharded(&t, 4);
        let ctx = QueryCtx::none();
        for q in [
            Query::new().filter(Predicate::cmp("no_such", CmpOp::Eq, 1.0)),
            Query::new().select(&["ghost"]),
            Query::new().agg(AggFunc::Sum, "region"),
        ] {
            let want = run_query(&t, &q, &ctx).unwrap_err();
            let got = run_sharded_query(&st, None, &q, &ctx).unwrap_err();
            assert_eq!(want.to_string(), got.to_string());
        }
    }
}
