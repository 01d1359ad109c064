//! The serve protocol: exact hit → subsumption hit → compute-and-admit.
//!
//! [`cached_query`] is the single entry point `ExploreDb` routes through
//! when caching is enabled. Its contract is *bit-exactness*: for every
//! query — hit, subsumption serve, or miss — the returned table is
//! bit-identical (floats by `to_bits`) to what `explore_exec::run_query`
//! would produce against the base table, and errors are the canonical
//! `run_query` errors.
//!
//! The one [`QueryCtx`] threads through every exec call, so cancellation
//! is checked per morsel on subsumption re-filters and base-table scans
//! alike, fail points apply at the same hazard sites, and an attached
//! trace records one cache-lookup span tagged with the outcome (hit /
//! subsumption / miss), an admit span when a result is offered to the
//! cache, and the usual exec spans for whatever actually ran. None of it
//! changes what is served.
//!
//! The subsumption path earns this the careful way:
//!
//! 1. the **full** new predicate is re-evaluated on the base table at
//!    the cached entry's selected rows (not some residual predicate — no
//!    predicate algebra to get wrong); the region proved that no
//!    qualifying base row lives outside that selection, so the survivors
//!    are exactly the rows a base-table scan would select, already as
//!    ascending **global** row ids,
//! 2. the query replays via [`explore_exec::run_query_on_selection`],
//!    which partitions
//!    that global selection at the *base table's* morsel boundaries —
//!    so gathers and float accumulators see the same values in the same
//!    order as a base-table scan.
//!
//! Any failure inside the subsumption path simply falls through to the
//! miss path, which reproduces canonical errors and results.

use std::sync::Arc;
use std::time::Instant;

use explore_exec::{evaluate_selection, run_query_on_selection, QueryCtx};
use explore_obs::{CacheOutcome, SpanKind, ROOT_SPAN};
use explore_storage::{Query, Result, Table};

use crate::fingerprint::Fingerprint;
use crate::region::Region;
use crate::store::{ResultCache, ReuseArtifacts, SubsumeCandidate};

/// Execute `query` against `base` (registered as `table_name`) through
/// the shared cache, under one [`QueryCtx`]. See the module docs for
/// the exactness contract.
pub fn cached_query(
    cache: &ResultCache,
    base: &Table,
    table_name: &str,
    query: &Query,
    ctx: &QueryCtx,
) -> Result<Table> {
    let epoch = cache.epoch(table_name);
    cached_query_at_epoch(cache, base, table_name, query, ctx, epoch)
}

/// [`cached_query`] with the admission epoch supplied by the caller.
///
/// Concurrent engines must read the table's epoch **before** taking the
/// data snapshot that `base` points at: mutations write data first and
/// bump the epoch second, so epoch-before-snapshot guarantees the
/// snapshot is at least as new as the epoch it is admitted under. (A
/// snapshot *newer* than the epoch is admitted under the older epoch
/// and dies at the mutation's bump — conservative, never stale.) If the
/// epoch were read here, after the caller's snapshot, a mutation in the
/// window could leave pre-mutation data admitted under the
/// post-mutation epoch — a stale entry the bump can no longer kill.
pub fn cached_query_at_epoch(
    cache: &ResultCache,
    base: &Table,
    table_name: &str,
    query: &Query,
    ctx: &QueryCtx,
    epoch: u64,
) -> Result<Table> {
    let fingerprint = Fingerprint::for_query(table_name, query);
    serve_or_compute(
        cache,
        fingerprint,
        epoch,
        ctx,
        |fingerprint, lookup_start| {
            try_subsumption(
                cache,
                base,
                table_name,
                query,
                fingerprint,
                epoch,
                ctx,
                lookup_start,
            )
        },
        || {
            // Mirror `run_query`'s error precedence: scan queries
            // validate the projection before the predicate ever runs.
            if query.aggregates.is_empty() {
                query.check_projection(base)?;
            }
            let sel = evaluate_selection(base, &query.predicate, ctx)?;
            let result = run_query_on_selection(base, query, &sel, ctx)?;
            Ok((result, reuse_artifacts(base, query, sel)))
        },
    )
}

/// The serve protocol around one fingerprint, for any result the cache
/// can hold: an exact hit serves; else `second_chance` may serve some
/// other way (it is handed the fingerprint and the lookup's start time,
/// and records its own lookup outcome and admission — `|_, _| None`
/// when there is none); else the lookup is a miss, `compute` runs and
/// is timed, and its result is offered to the cache under `epoch` —
/// with the reuse artifacts `compute` returned, when it clears
/// cost-aware admission. Everything that decides *whether* a result is
/// admitted lives here.
pub fn serve_or_compute(
    cache: &ResultCache,
    fingerprint: Fingerprint,
    epoch: u64,
    ctx: &QueryCtx,
    second_chance: impl FnOnce(&Fingerprint, Option<u64>) -> Option<Table>,
    compute: impl FnOnce() -> Result<(Table, Option<ReuseArtifacts>)>,
) -> Result<Table> {
    let lookup_start = ctx.trace.map(|t| t.now_ns());
    if let Some(hit) = cache.get(&fingerprint) {
        record_lookup(ctx, lookup_start, CacheOutcome::Hit);
        return Ok((*hit).clone());
    }
    if let Some(served) = second_chance(&fingerprint, lookup_start) {
        return Ok(served);
    }

    // A cancellation that aborted the second chance must surface as the
    // typed error, not silently fall through to a (doomed) computation.
    ctx.check_cancel()?;

    record_lookup(ctx, lookup_start, CacheOutcome::Miss);
    cache.note_miss();

    let started = Instant::now();
    let (result, reuse) = compute()?;
    let cost_ns = started.elapsed().as_nanos();

    let result = Arc::new(result);
    // Cost-aware admission: results too cheap to be worth caching skip
    // insertion entirely — the cold path pays (almost) nothing for them,
    // which is what keeps `CachePolicy::On` tracking cache-off on
    // workloads that never re-ask a query.
    let admit_start = ctx.trace.map(|t| t.now_ns());
    let accepted = if cache.should_admit(cost_ns) {
        cache.insert(fingerprint, Arc::clone(&result), reuse, cost_ns, epoch)
    } else {
        cache.note_admit_rejected();
        false
    };
    record_admit(ctx, admit_start, accepted);
    Ok((*result).clone())
}

/// Record the cache-lookup span once its outcome is known.
fn record_lookup(ctx: &QueryCtx, start: Option<u64>, outcome: CacheOutcome) {
    if let Some((t, start)) = ctx.trace.zip(start) {
        t.record(ROOT_SPAN, SpanKind::CacheLookup(outcome), start, t.now_ns());
    }
}

/// Record the admission span around a [`ResultCache::insert`] offer.
fn record_admit(ctx: &QueryCtx, start: Option<u64>, accepted: bool) {
    if let Some((t, start)) = ctx.trace.zip(start) {
        t.record(ROOT_SPAN, SpanKind::Admit { accepted }, start, t.now_ns());
    }
}

/// Attempt to answer from a cached superset. `None` means "no sound
/// candidate" *or* "serving failed" — either way the caller falls back
/// to base-table execution.
#[allow(clippy::too_many_arguments)]
fn try_subsumption(
    cache: &ResultCache,
    base: &Table,
    table_name: &str,
    query: &Query,
    fingerprint: &Fingerprint,
    epoch: u64,
    ctx: &QueryCtx,
    lookup_start: Option<u64>,
) -> Option<Table> {
    let query_region = Region::relaxed(&query.predicate);
    let SubsumeCandidate {
        fingerprint: source,
        sel,
        cost_ns,
    } = cache.find_subsuming(table_name, &query_region)?;
    // An entry may have been admitted from a snapshot newer (and longer)
    // than `base` — see `cached_query_at_epoch`. Its row ids mean nothing
    // here; compute from base data instead.
    if sel
        .last()
        .is_some_and(|&row| row as usize >= base.num_rows())
    {
        return None;
    }
    // The probe found a superset: the lookup span closes here, before
    // the re-filter work.
    record_lookup(ctx, lookup_start, CacheOutcome::Subsumption);

    let started = Instant::now();
    // Re-evaluate the full predicate at the cached rows only; region
    // soundness guarantees no qualifying base row lives outside them.
    // Errors fall through to the canonical miss path.
    ctx.check_cancel().ok()?;
    let global = query.predicate.evaluate_at(base, &sel).ok()?;
    let result = run_query_on_selection(base, query, &global, ctx).ok()?;
    let refilter_ns = started.elapsed().as_nanos();

    cache.note_subsumption_hit(&source, cost_ns.saturating_sub(refilter_ns));

    // Admit the narrower result as its own entry so refinement chains
    // keep re-filtering ever-smaller selections.
    let result = Arc::new(result);
    let reuse = Region::exact(&query.predicate).map(|region| ReuseArtifacts {
        region,
        sel: Arc::new(global),
    });
    let admit_start = ctx.trace.map(|t| t.now_ns());
    let accepted = cache.insert(
        fingerprint.clone(),
        Arc::clone(&result),
        reuse,
        refilter_ns,
        epoch,
    );
    record_admit(ctx, admit_start, accepted);
    Some((*result).clone())
}

/// Reuse artifacts for a freshly computed result: its selection vector,
/// when the predicate normalizes exactly and narrows the base table by
/// at least an eighth. A selection covering nearly every base row makes
/// a re-filter read about as many rows as the scan it would replace —
/// all cost, no saving — and its empty-ish region would attract every
/// later probe. Entries without artifacts still serve exact hits.
fn reuse_artifacts(base: &Table, query: &Query, sel: Vec<u32>) -> Option<ReuseArtifacts> {
    if sel.len() * 8 >= base.num_rows() * 7 {
        return None;
    }
    let region = Region::exact(&query.predicate)?;
    Some(ReuseArtifacts {
        region,
        sel: Arc::new(sel),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use explore_exec::run_query;
    use explore_storage::gen::{sales_table, SalesConfig};
    use explore_storage::{AggFunc, Predicate};

    /// A mutation writes data first and bumps the epoch second. In that
    /// window a reader of the new, longer snapshot admits a selection
    /// under the old epoch; a reader still holding the old snapshot must
    /// not replay those row ids against its shorter table.
    #[test]
    fn a_selection_past_the_readers_snapshot_is_not_replayed() {
        let old = sales_table(&SalesConfig {
            rows: 3_000,
            ..SalesConfig::default()
        });
        let mut new = old.clone();
        new.append(&sales_table(&SalesConfig {
            rows: 1_000,
            seed: 99,
            ..SalesConfig::default()
        }))
        .unwrap();
        let cache = ResultCache::default();
        let ctx = QueryCtx::none();
        let epoch = cache.epoch("sales");

        let broad = Query::new()
            .filter(Predicate::range("price", 100.0, 400.0))
            .agg(AggFunc::Sum, "price");
        cached_query_at_epoch(&cache, &new, "sales", &broad, &ctx, epoch).unwrap();
        let narrow = Query::new()
            .filter(Predicate::range("price", 150.0, 300.0))
            .group("region")
            .agg(AggFunc::Sum, "price");
        let admitted = cache
            .find_subsuming("sales", &Region::relaxed(&narrow.predicate))
            .expect("the broad selection is resident");
        assert!(*admitted.sel.last().unwrap() as usize >= old.num_rows());

        let served = cached_query_at_epoch(&cache, &old, "sales", &narrow, &ctx, epoch).unwrap();
        assert_eq!(served, run_query(&old, &narrow, &ctx).unwrap());
        let stats = cache.stats();
        assert_eq!((stats.subsumption_hits, stats.misses), (0, 2));

        // Against the snapshot it was admitted from, the broad selection
        // serves (only it covers this range).
        let inner = Query::new()
            .filter(Predicate::range("price", 120.0, 350.0))
            .agg(AggFunc::Sum, "price");
        let served = cached_query_at_epoch(&cache, &new, "sales", &inner, &ctx, epoch).unwrap();
        assert_eq!(served, run_query(&new, &inner, &ctx).unwrap());
        assert_eq!(cache.stats().subsumption_hits, 1);
    }
}
