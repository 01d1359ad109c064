//! `scan_cold`: one client issuing scans the cache can never reuse.
//!
//! Sales (1 M rows); direct `ExploreDb::query`, parallel exec, four
//! shards, cache on. 80 % grouped aggregates whose range bounds only
//! ever move up (see [`ScanStream`]), 20 % selective projections with
//! order + limit whose results are large enough to churn the cache's
//! byte budget. Cache-hostile by construction — no hits, but evictions —
//! so the `exec` morsel kernels, `storage` mask/gather and `shard`
//! fan-out/merge do nearly all the work, `serve` does none and `cache`
//! contributes only miss and admission overhead. The workload on which a
//! kernel change must show, and a cache change must show nothing.

use std::sync::Arc;
use std::time::{Duration, Instant};

use exploration::cache::{table_bytes, CacheConfig, CachePolicy, ResultCache};
use exploration::exec::{ExecPolicy, QueryCtx};
use exploration::shard::{run_sharded_query, ShardConfig, ShardPolicy, ShardedTable};
use exploration::storage::{AggFunc, Predicate, Query, SortOrder, Table};
use exploration::ExploreDb;

use super::{cache_shares, quantiles, reference_engine, sales};
use crate::digest::table_digest;
use crate::gen::{fold, Quantiles, ScanOp, ScanStream, SCAN_KEYS};
use crate::report::{peak_rss_mb, Report};
use crate::shadow::{exec_ladder, finish_traced, parallel_speedup, time, Ledger};
use crate::stats::pooled_p50_ms;
use crate::trace::Trace;
use crate::{timed_setups, Args};

const SALES_ROWS: usize = 1_000_000;
const SHARDS: usize = 4;
const PROJECTION: [&str; 3] = ["product", "price", "qty"];
/// Time requirement per scan.
const SLO: Duration = Duration::from_millis(250);
/// Leading ops in the pinned result prefix.
const PREFIX: usize = 24;
/// Ops checked against the reference beyond the prefix.
const CHECKED: usize = 40;
/// Checksum of the first [`PREFIX`] answers on [`DEFAULT_SEED`] at full
/// size.
const PINNED_PREFIX: u64 = 0x750d_f679_0676_3759;
/// One op in this many gets the shadow ladder in a traced run.
const LADDER_EVERY: usize = 3;

struct Env {
    db: ExploreDb,
    table: Arc<Table>,
    price: Quantiles,
    discount: Quantiles,
}

fn shard_config() -> ShardConfig {
    ShardConfig {
        count: SHARDS,
        ..ShardConfig::default()
    }
}

fn setup(args: &Args) -> Env {
    let table = Arc::new(sales(args.rows(SALES_ROWS), args.seed));
    let db = ExploreDb::with_exec_policy(ExecPolicy::parallel());
    db.set_cache_policy(CachePolicy::on());
    db.set_shard_policy(ShardPolicy::On(shard_config()));
    db.register("sales", Arc::clone(&table));
    Env {
        price: quantiles(&table, "price"),
        discount: quantiles(&table, "discount"),
        db,
        table,
    }
}

impl Env {
    /// The engine query of a generated op.
    fn query(&self, op: &ScanOp) -> Query {
        let (on_price, lo, hi) = op.window();
        let (column, q) = if on_price {
            ("price", &self.price)
        } else {
            ("discount", &self.discount)
        };
        let window = Predicate::range(column, q.at(lo), q.at(hi));
        match *op {
            ScanOp::Agg { key, avg, .. } => Query::new()
                .filter(window)
                .group(SCAN_KEYS[key])
                .agg(if avg { AggFunc::Avg } else { AggFunc::Sum }, "price")
                .agg(AggFunc::Count, "qty"),
            ScanOp::AggQty {
                key,
                qty_lo,
                qty_hi,
                ..
            } => Query::new()
                .filter(window.and(Predicate::range("qty", qty_lo, qty_hi)))
                .group(SCAN_KEYS[key])
                .agg(AggFunc::Sum, "price")
                .agg(AggFunc::Count, "qty"),
            ScanOp::Project { .. } => Query::new()
                .filter(window)
                .select(&PROJECTION)
                .order("price", SortOrder::Desc)
                .take(self.table.num_rows() / 40),
        }
    }
}

struct Record {
    query: Query,
    start: u64,
    end: u64,
    digest: Option<u64>,
}

/// Issue the scan stream, one op after the other, for `duration`.
fn drive(env: &Env, seed: u64, duration: Duration) -> Vec<Record> {
    let mut records = Vec::new();
    let epoch = Instant::now();
    let ns = |at: Instant| at.saturating_duration_since(epoch).as_nanos() as u64;
    for op in ScanStream::new(seed) {
        let query = env.query(&op);
        let start = Instant::now();
        if start >= epoch + duration {
            break;
        }
        let result = env.db.query("sales", &query);
        let end = Instant::now();
        records.push(Record {
            query,
            start: ns(start),
            end: ns(end),
            digest: result.ok().map(|t| table_digest(&t)),
        });
    }
    records
}

/// Check the prefix and a strided sample of the answers against a
/// serial, cache-off, shard-off replay.
fn verify(env: &Env, args: &Args, records: &[Record], report: &mut Report) {
    report.attempted = records.len() as u64;
    report.failed = records.iter().filter(|r| r.digest.is_none()).count() as u64;
    let reference = reference_engine(Arc::clone(&env.table));
    let stride = (records.len() / CHECKED).max(1);
    let mismatches = records
        .iter()
        .take(PREFIX)
        .chain(records.iter().skip(PREFIX).step_by(stride))
        .filter(|r| {
            let want = reference
                .query("sales", &r.query)
                .ok()
                .map(|t| table_digest(&t));
            r.digest.is_some() && want != r.digest
        })
        .count();
    report.check(mismatches == 0, || {
        format!("{mismatches} answers differ from the serial cache-off shard-off replay")
    });
    report.check(records.len() >= PREFIX, || {
        format!(
            "only {} ops completed: run too short to check",
            records.len()
        )
    });
    let prefix = records
        .iter()
        .take(PREFIX)
        .fold(0, |d, r| fold(d, r.digest.unwrap_or(0)));
    report.check_pinned(args, "result prefix checksum", prefix, PINNED_PREFIX);
}

/// `(completion time, latency)` of the completed ops.
fn completions(records: &[Record]) -> Vec<(u64, u64)> {
    records
        .iter()
        .filter(|r| r.digest.is_some())
        .map(|r| (r.end, r.end - r.start))
        .collect()
}

pub fn run(args: &Args) -> Report {
    let mut report = Report::default();
    if args.trace {
        run_traced(args, &mut report);
        return report;
    }
    let (env, setup_s) = timed_setups(|| setup(args));
    let records = drive(&env, args.seed, args.measure());
    let rss = peak_rss_mb();
    let ops = completions(&records);
    report.end_to_end(args, setup_s, rss, &ops, &ops);
    verify(&env, args, &records, &mut report);
    report
}

fn run_traced(args: &Args, report: &mut Report) {
    let share = args.measure().mul_f64(0.3);
    let untraced = pooled_p50_ms(&completions(&drive(&setup(args), args.seed, share)));
    let env = setup(args);
    let records = drive(&env, args.seed, share);
    verify(&env, args, &records, report);

    let slow = records
        .iter()
        .filter(|r| r.digest.is_none() || r.end - r.start > SLO.as_nanos() as u64)
        .count();
    report.driver_metrics(records.len(), slow, &completions(&records), untraced);
    cache_shares(&env.db.cache_stats(), report);

    let mut ledger = Ledger::default();
    let mut trace = Trace::default();
    replay(&env, &records, &mut ledger, &mut trace);
    let probes: Vec<Query> = records
        .iter()
        .step_by((records.len() / 4).max(1))
        .take(4)
        .map(|r| r.query.clone())
        .collect();
    report.set(
        "exec.parallel_speedup",
        parallel_speedup(&env.table, &probes),
        probes.len(),
    );
    finish_traced(
        args,
        &env.db,
        &env.table,
        ledger,
        &trace,
        LADDER_EVERY,
        report,
    );
}

/// Rebuild the traced phase as a span tree; every [`LADDER_EVERY`]th op
/// is re-issued one layer down at a time on a `ShardedTable` and a
/// `ResultCache` this function owns.
fn replay(env: &Env, records: &[Record], ledger: &mut Ledger, trace: &mut Trace) {
    let table: &Table = &env.table;
    let rows = table.num_rows();
    let (sharded, build_ns) = time(|| ShardedTable::build("sales", table, &shard_config()));
    ledger.push("shard.build_s", build_ns as f64);
    let cache = ResultCache::new(CacheConfig::default());
    let ctx = QueryCtx::new(ExecPolicy::parallel());
    let serial = QueryCtx::new(ExecPolicy::Serial);
    let workers = ExecPolicy::parallel().workers().min(SHARDS);
    // The exec work of a fan-out is the query, less its order and limit,
    // on every shard.
    let snap = sharded.snapshot();
    let projected: Vec<Table> = (0..snap.shard_count())
        .map(|s| {
            snap.table(s)
                .project(&PROJECTION)
                .expect("projection columns")
        })
        .collect();
    let parts: Vec<(&Table, Option<&Table>)> = (0..snap.shard_count())
        .map(|s| (snap.table(s), Some(&projected[s])))
        .collect();
    let resident: usize = parts.iter().map(|p| table_bytes(p.0)).sum();
    ledger.push("shard.resident_mb", resident as f64 / (1 << 20) as f64);

    for (i, r) in records.iter().enumerate() {
        let op = i as u64;
        let core = trace.real(op, 0, "core.query", r.start, r.end);
        if i % LADDER_EVERY != 0 || r.digest.is_none() {
            continue;
        }
        let body = (r.end - r.start) as f64;
        let (_, cached_ns) = time(|| run_sharded_query(&sharded, Some(&cache), &r.query, &ctx));
        let (_, fanout_ns) = time(|| run_sharded_query(&sharded, None, &r.query, &ctx));
        let mut stripped = r.query.clone();
        stripped.order_by = None;
        stripped.limit = None;
        let ladder = exec_ladder(&parts, &stripped, &serial);
        // The engine runs the fan-out with the cache inside it; what the
        // cache adds to a miss is the difference to a fan-out without.
        let shard_span = trace.shadow(op, core, "shard.run_sharded_query", cached_ns);
        let overhead = cached_ns.saturating_sub(fanout_ns);
        trace.shadow(op, shard_span, "cache.miss_overhead", overhead);
        ladder.record(trace, ledger, op, shard_span, rows, workers);
        ledger.push("core.route_self_us_p50", body - cached_ns as f64);
        ledger.push(
            "cache.miss_overhead_us_p50",
            cached_ns as f64 - fanout_ns as f64,
        );
        ledger.push(
            "shard.fanout_self_ms_p50",
            fanout_ns as f64 - ladder.run_query_ns as f64 / workers as f64,
        );
    }
}
