//! Deterministic query fan-out and merge across shards.
//!
//! The bit-identity contract extends the executor's: for any shard
//! count, `run_sharded_query` returns a table bit-identical (floats by
//! `to_bits`) to `explore_exec::run_query` against the unsharded table,
//! under either execution policy and with the cache off, cold, or warm.
//!
//! **Scans** need no alignment tricks: each shard runs the query with
//! order/limit stripped, shard results concatenate in shard order —
//! which *is* ascending global row order, exactly what the unsharded
//! morsel merge produces — and order/limit applies once after the
//! merge. Per-shard results are cached under the shard's scoped name
//! ([`scoped_name`]), so a mutation to one shard leaves the other
//! shards' entries live.
//!
//! **Aggregates** are where determinism must be earned. The per-morsel
//! float accumulators ([`WorkerAggState::update_morsel`]) merge via
//! Welford/Chan, which is *not* bit-associative — merging per-shard
//! finished states would drift in the last ulp. Instead the fan-out
//! replays the **global** morsel decomposition (computed from the total
//! row count, exactly as the unsharded executor does): each shard
//! produces one partial batch per global morsel lying fully inside its
//! row range, a morsel straddling a shard boundary is rebuilt at merge
//! time from a bitwise mini-table of its fragments, and all batches are
//! absorbed into one [`GroupedAggState`] **in global morsel order**. A
//! batch depends only on its morsel's rows — never on which shard or
//! thread computed it — so the absorb sequence performs the exact
//! accumulator-merge chain of the unsharded run. A shard is just
//! another steal schedule.
//!
//! Shards are the outer work unit on the shared [`ExecPool`]; morsels
//! stay the inner one (nested submissions inline serially, so the pool
//! cannot deadlock). Fail points: `shard.dispatch` diverts the fan-out
//! to an inline serial loop; `shard.merge` panics inside the guarded
//! merge, which is caught and re-merged serially from the held partials
//! — both degrade gracefully and neither changes a bit of the answer.
//!
//! [`ExecPool`]: explore_exec::ExecPool

use std::fmt::Write as _;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::Instant;

use explore_cache::{cached_query_at_epoch, Fingerprint, ResultCache};
use explore_exec::{
    global_pool, morsel_count, morsel_range, parallel_profitable, run_query, ExecPolicy, QueryCtx,
};
use explore_obs::{CacheOutcome, SpanKind, ROOT_SPAN};
use explore_storage::{
    GroupedAggState, MorselAggBatch, Query, Result, StorageError, Table, WorkerAggState,
};
use parking_lot::Mutex;

use crate::table::{scoped_name, ShardSnapshot, ShardedTable};

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

    let pieces = dispatch(ctx, snap.shard_count(), |s| match cache {
        Some(c) => cached_query_at_epoch(
            c,
            snap.table(s),
            &scoped_name(snap.name(), s),
            &stripped,
            ctx,
            epochs[s],
        ),
        None => run_query(snap.table(s), &stripped, ctx),
    })?;

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

/// One shard's contribution to an aggregate fan-out: its worker state
/// (the group-key interner that resolves batch slots at merge time)
/// plus one partial batch per fully-contained global morsel.
struct ShardAgg<'t> {
    worker: Option<WorkerAggState<'t>>,
    batches: Vec<(usize, MorselAggBatch)>,
}

/// Aggregate fan-out with whole-table caching. The cache key composes
/// the shard dimension — count and per-shard scoped epochs (the
/// sub-fingerprints) — with the canonical query key, under the base
/// table's name so any sharded mutation (which bumps the base epoch)
/// invalidates it.
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

    let lookup_start = ctx.trace.map(|t| t.now_ns());
    if let Some((c, fp, _)) = &keyed {
        if let Some(hit) = c.get(fp) {
            record_lookup(ctx, lookup_start, CacheOutcome::Hit);
            return Ok((*hit).clone());
        }
        record_lookup(ctx, lookup_start, CacheOutcome::Miss);
        c.note_miss();
    }

    let started = Instant::now();
    let result = sharded_aggregate(&snap, query, ctx)?;
    let cost_ns = started.elapsed().as_nanos();

    if let Some((c, fp, epoch)) = keyed {
        let admit_start = ctx.trace.map(|t| t.now_ns());
        let accepted = if c.should_admit(cost_ns) {
            c.insert(fp, Arc::new(result.clone()), None, cost_ns, epoch)
        } else {
            c.note_admit_rejected();
            false
        };
        if let Some((t, start)) = ctx.trace.zip(admit_start) {
            t.record(ROOT_SPAN, SpanKind::Admit { accepted }, start, t.now_ns());
        }
    }
    Ok(result)
}

/// The global-morsel aggregate construction (see module docs): fan
/// per-shard batch production out over the pool, rebuild straddling
/// morsels from bitwise mini-tables, absorb everything in global morsel
/// order, then order/limit once.
fn sharded_aggregate(snap: &ShardSnapshot, query: &Query, ctx: &QueryCtx) -> Result<Table> {
    let n_total = snap.num_rows();
    let n_morsels = morsel_count(n_total);

    let per_shard = dispatch(ctx, snap.shard_count(), |s| {
        shard_batches(snap.table(s), snap.range(s), query, n_total, ctx)
    })?;

    // Straddling morsels: rebuilt exactly, at most (shards − 1) of them.
    let minis = straddle_minis(snap, n_total)?;
    let mut straddle_parts: Vec<(usize, WorkerAggState<'_>, MorselAggBatch)> =
        Vec::with_capacity(minis.len());
    for (m, mini) in &minis {
        ctx.check_cancel()?;
        let sel = query.predicate.evaluate(mini)?;
        let mut worker = WorkerAggState::new(mini, &query.group_by, &query.aggregates)?;
        let batch = worker.update_morsel(&sel);
        straddle_parts.push((*m, worker, batch));
    }

    let merged = merge_guarded(ctx, || {
        let mut parts: Vec<(usize, &WorkerAggState<'_>, &MorselAggBatch)> =
            Vec::with_capacity(n_morsels);
        for sa in &per_shard {
            if let Some(worker) = &sa.worker {
                for (m, batch) in &sa.batches {
                    parts.push((*m, worker, batch));
                }
            }
        }
        for (m, worker, batch) in &straddle_parts {
            parts.push((*m, worker, batch));
        }
        // Global morsel order is the whole determinism rule: absorbing
        // in it performs the unsharded run's exact accumulator-merge
        // sequence.
        parts.sort_by_key(|p| p.0);
        let mut acc = GroupedAggState::new(snap.table(0), &query.group_by, &query.aggregates)?;
        for (_, worker, batch) in &parts {
            acc.absorb_batch(worker, batch);
        }
        acc.finish()
    })?;
    query.apply_order_limit(merged)
}

/// One shard's batches: for each global morsel lying fully inside the
/// shard's row range (ascending), evaluate the predicate over the
/// corresponding local window and fold one partial batch. Predicate
/// evaluation precedes worker-state creation so predicate errors win
/// over aggregate-validation errors within a morsel, as in the
/// unsharded path.
fn shard_batches<'t>(
    table: &'t Table,
    range: std::ops::Range<usize>,
    query: &'t Query,
    n_total: usize,
    ctx: &QueryCtx,
) -> Result<ShardAgg<'t>> {
    let mut out = ShardAgg {
        worker: None,
        batches: Vec::new(),
    };
    for m in 0..morsel_count(n_total) {
        let g = morsel_range(m, n_total);
        if g.start < range.start || g.end > range.end {
            continue;
        }
        ctx.check_cancel()?;
        let local = g.start - range.start..g.end - range.start;
        let sel = query.predicate.evaluate_range(table, local)?;
        if out.worker.is_none() {
            out.worker = Some(WorkerAggState::new(
                table,
                &query.group_by,
                &query.aggregates,
            )?);
        }
        let batch = out
            .worker
            .as_mut()
            .expect("initialized above")
            .update_morsel(&sel);
        out.batches.push((m, batch));
    }
    Ok(out)
}

/// Bitwise mini-tables for every global morsel that crosses a shard
/// boundary: the morsel's row fragments gathered from each involved
/// shard and appended in shard (= global row) order, so per-row values
/// and their order match the unsharded morsel exactly.
fn straddle_minis(snap: &ShardSnapshot, n_total: usize) -> Result<Vec<(usize, Table)>> {
    let mut out = Vec::new();
    for m in 0..morsel_count(n_total) {
        let g = morsel_range(m, n_total);
        let contained = (0..snap.shard_count()).any(|s| {
            let r = snap.range(s);
            g.start >= r.start && g.end <= r.end
        });
        if contained {
            continue;
        }
        let mut mini: Option<Table> = None;
        for s in 0..snap.shard_count() {
            let r = snap.range(s);
            let (a, b) = (g.start.max(r.start), g.end.min(r.end));
            if a >= b {
                continue;
            }
            let sel: Vec<u32> = ((a - r.start) as u32..(b - r.start) as u32).collect();
            let fragment = snap.table(s).gather(&sel);
            match &mut mini {
                None => mini = Some(fragment),
                Some(t) => t.append(&fragment)?,
            }
        }
        let mini =
            mini.ok_or_else(|| StorageError::Internal("straddling morsel has no rows".into()))?;
        out.push((m, mini));
    }
    Ok(out)
}

/// Run `job` once per shard index and collect results in shard order.
/// Shards dispatch on the shared pool under `ExecPolicy::Parallel` when
/// profitable (each subquery's inner morsels then inline serially on
/// the pool's nested-submission path); otherwise, and under the
/// `shard.dispatch` fail point or a worker panic, the fan-out runs as
/// an inline serial loop — same jobs, same order, bit-identical
/// results. Errors resolve deterministically: the lowest-indexed failing
/// shard's error wins under either path.
fn dispatch<T: Send>(
    ctx: &QueryCtx,
    n: usize,
    job: impl Fn(usize) -> Result<T> + Sync,
) -> Result<Vec<T>> {
    let span = ctx.trace.map(|t| (t, t.now_ns()));
    let serial = |already_degraded: bool| {
        if already_degraded {
            ctx.note("fault.shard.serial_fanout");
            record_fault(ctx, "shard.dispatch");
        }
        (0..n).map(&job).collect::<Result<Vec<T>>>()
    };
    let result = match ctx.exec {
        ExecPolicy::Serial => serial(false),
        ExecPolicy::Parallel { .. } if ctx.fire("shard.dispatch") => serial(true),
        ExecPolicy::Parallel { workers } if parallel_profitable(workers, n) => {
            let attempt = catch_unwind(AssertUnwindSafe(|| {
                let slots: Vec<Mutex<Option<Result<T>>>> =
                    (0..n).map(|_| Mutex::new(None)).collect();
                global_pool().run(workers.max(1), n, &|s| {
                    *slots[s].lock() = Some(job(s));
                });
                slots
            }));
            match attempt {
                Ok(slots) => {
                    let mut out = Vec::with_capacity(n);
                    let mut failed = None;
                    for slot in slots {
                        match slot.into_inner() {
                            Some(Ok(v)) => out.push(v),
                            Some(Err(e)) => {
                                failed = Some(e);
                                break;
                            }
                            None => {
                                failed =
                                    Some(StorageError::Internal("pool skipped a shard".into()));
                                break;
                            }
                        }
                    }
                    match failed {
                        None => Ok(out),
                        Some(e) => Err(e),
                    }
                }
                // A shard job panicked; the pool stays valid. Re-run the
                // whole fan-out inline — jobs are deterministic, so the
                // retry reproduces the same results or the same error.
                Err(_) => serial(true),
            }
        }
        ExecPolicy::Parallel { .. } => serial(false),
    };
    if let Some((t, start)) = span {
        t.record(
            ROOT_SPAN,
            SpanKind::Stage("shard.fanout"),
            start,
            t.now_ns(),
        );
        t.metrics().inc("shard.fanouts", 1);
        t.metrics().inc("shard.subqueries", n as u64);
    }
    result
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
            record_fault(ctx, "shard.merge");
            f()
        }
    };
    if let Some((t, start)) = span {
        t.record(ROOT_SPAN, SpanKind::Stage("shard.merge"), start, t.now_ns());
        t.metrics().inc("shard.merges", 1);
    }
    result
}

/// Record the cache-lookup span once its outcome is known.
fn record_lookup(ctx: &QueryCtx, start: Option<u64>, outcome: CacheOutcome) {
    if let Some((t, start)) = ctx.trace.zip(start) {
        t.record(ROOT_SPAN, SpanKind::CacheLookup(outcome), start, t.now_ns());
    }
}

/// Record a zero-width fault marker under the trace root.
fn record_fault(ctx: &QueryCtx, site: &'static str) {
    if let Some(t) = ctx.trace {
        let now = t.now_ns();
        t.record(ROOT_SPAN, SpanKind::Fault { site }, now, now);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::ShardConfig;
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
    fn straddle_minis_cover_exactly_the_boundary_morsels() {
        // 2 morsels of data split into 3 shards → both shard boundaries
        // fall inside morsels.
        let t = sales(2 * MORSEL_ROWS);
        let st = sharded(&t, 3);
        let minis = straddle_minis(&st.snapshot(), st.num_rows()).unwrap();
        assert_eq!(minis.len(), 2);
        for (m, mini) in &minis {
            let g = morsel_range(*m, st.num_rows());
            assert_eq!(mini.num_rows(), g.len());
            // The mini is a bitwise copy of the global morsel window.
            for (local, global) in g.clone().enumerate() {
                assert_eq!(mini.row(local).unwrap(), t.row(global).unwrap());
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
