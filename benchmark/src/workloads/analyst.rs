//! `analyst_mixed`: eight analyst sessions multiplexed over the serve
//! layer's few workers — the ROADMAP headline.
//!
//! Sales (250 k rows) plus a sky table (125 k) on a 32×32 grid;
//! `ServeEngine` with `min(nproc, 4)` workers, cache on (64 MiB), serial
//! exec, shards off. One driver thread round-robins the sessions (see
//! [`super::sessions`]). Sessions ≫ workers, so queueing in `serve`,
//! reuse in `cache` and convergence in `cracking` do most of the work and
//! the `exec` kernels a minority; in-query parallelism and sharding are
//! bypassed. Caches and crackers start cold and warm up inside the
//! measured phase, because analysts pay for that.
//!
//! Sizes: a filter covers 0.5–2 % of the rows, so its reuse artifacts
//! are ≈ 0.1–0.5 MB and every session's live refinement chain fits the
//! cache budget many times over. At 1 M rows, or at 20–40 % selectivity,
//! a handful of entries fill the budget, the cache's timing-dependent
//! admission and eviction decide differently on every run, and
//! throughput on one seed ranged 544–893 ops/s (sizing runs, see
//! README.md).

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use exploration::cache::{cached_query, CacheConfig, CachePolicy, ResultCache};
use exploration::cracking::CrackerColumn;
use exploration::cube::DiscoveryView;
use exploration::exec::{ExecPolicy, QueryCtx};
use exploration::prefetch::{GridIndex, PanSession};
use exploration::serve::{ServeConfig, ServeEngine};
use exploration::storage::gen::sky_table;
use exploration::storage::Table;
use exploration::ExploreDb;

use super::sessions::{
    cells_digest, completions, drive_sessions, Driven, Record, Resolved, GRID_CELLS,
};
use super::{cache_shares, drill_query, quantiles, range_query, reference_engine, sales, EngineOp};
use crate::digest::combine_unordered;
use crate::gen::{
    fold, lane_seed, AnalystStream, Lane, Quantiles, ANALYST_MIX, CLASSES, DRILL_PAIRS,
};
use crate::report::{peak_rss_mb, Report};
use crate::shadow::{exec_ladder, finish_traced, parallel_speedup, time, Ledger};
use crate::stats::{pooled_p50_ms, Samples};
use crate::trace::Trace;
use crate::{serve_workers, timed_setups, Args};

const SESSIONS: usize = 8;
const SALES_ROWS: usize = 250_000;
/// The interaction time requirement (IDEBench-style): slower counts as
/// a miss even when it completes.
const SLO: Duration = Duration::from_millis(100);
/// Ops per session in the pinned result prefix.
const PREFIX: usize = 16;
/// Filter/refine ops checked against the reference beyond the prefix.
const CHECKED_RANGES: usize = 64;
/// Checksum of the first [`PREFIX`] answers of every session on
/// [`DEFAULT_SEED`] at full size.
const PINNED_PREFIX: u64 = 0xc44a_b1c5_9dfb_71b8;
/// One op in this many gets the full shadow ladder in a traced run.
const LADDER_EVERY: usize = 4;

struct Env {
    serve: ServeEngine,
    /// The registered sales snapshot, shared with the reference engine
    /// and the shadow replay.
    table: Arc<Table>,
    grid: GridIndex,
    price: Quantiles,
}

fn setup(args: &Args) -> Env {
    let table = Arc::new(sales(args.rows(SALES_ROWS), args.seed));
    let price = quantiles(&table, "price");
    let db = ExploreDb::with_exec_policy(ExecPolicy::Serial);
    db.set_cache_policy(CachePolicy::on());
    db.register("sales", Arc::clone(&table));
    let sky = sky_table(
        args.rows(SALES_ROWS) / 2,
        6,
        100.0,
        lane_seed(args.seed, Lane::Sky, 0),
    );
    let cells = GRID_CELLS as usize;
    let grid = GridIndex::build(&sky, "x", "y", "mag", cells, cells).expect("sky columns");
    let config = ServeConfig::with_workers(serve_workers()).with_queue_limit(256);
    Env {
        serve: ServeEngine::with_config(db, config),
        table,
        grid,
        price,
    }
}

struct Phase {
    driven: Driven,
    wall: Duration,
}

/// Replay the sessions against the served engine for `duration`.
fn drive(env: &Env, seed: u64, duration: Duration) -> Phase {
    let streams = (0..SESSIONS as u64)
        .map(|s| AnalystStream::new(seed, s, ANALYST_MIX))
        .collect();
    let cache = env.serve.with_engine(|db| db.cache());
    let epoch = Instant::now();
    let deadline = epoch + duration;
    let driven = drive_sessions(
        &env.serve,
        streams,
        &env.price,
        Some((&env.grid, cache)),
        epoch,
        || Instant::now() < deadline,
    );
    Phase {
        driven,
        wall: epoch.elapsed(),
    }
}

/// Check the answers against a serial, cache-off, shard-off replay: all
/// pans, drills and lookups, and the filter/refine ops of the prefix
/// plus a strided sample of the rest.
fn verify(env: &Env, args: &Args, records: &[Record], report: &mut Report) {
    report.attempted = records.len() as u64;
    report.failed = records.iter().filter(|r| r.answer.is_none()).count() as u64;

    let is_range = |r: &&Record| matches!(r.op, Resolved::Engine(EngineOp::Range { .. }));
    let mut per_session: Vec<Vec<&Record>> = vec![Vec::new(); SESSIONS];
    for r in records {
        per_session[r.session].push(r);
    }
    let ranges = records.iter().filter(is_range).count();
    let mut checked: Vec<&Record> = records
        .iter()
        .filter(is_range)
        .step_by((ranges / CHECKED_RANGES).max(1))
        .collect();
    for session in &per_session {
        checked.extend(session.iter().take(PREFIX));
    }
    checked.extend(records.iter().filter(|r| !is_range(r)));

    let reference = reference_engine(Arc::clone(&env.table));
    let mut memo: BTreeMap<(u8, i64), Option<u64>> = BTreeMap::new();
    let mut mismatches = 0;
    for r in checked {
        let Some(got) = r.digest() else { continue };
        let want = match r.op {
            Resolved::Pan(vp) => PanSession::new(&env.grid, false)
                .view(vp)
                .ok()
                .map(|c| cells_digest(&c)),
            Resolved::Engine(op) => {
                let replay = || op.call(&reference).ok().map(|a| a.digest);
                match op {
                    EngineOp::Range { .. } => replay(),
                    EngineOp::Drill(pair) => *memo.entry((0, pair as i64)).or_insert_with(replay),
                    EngineOp::Lookup(qty) => *memo.entry((1, qty)).or_insert_with(replay),
                }
            }
        };
        mismatches += (want != Some(got)) as usize;
    }
    report.check(mismatches == 0, || {
        format!("{mismatches} answers differ from the serial cache-off replay")
    });

    let short = per_session.iter().filter(|s| s.len() < PREFIX).count();
    report.check(short == 0, || {
        format!("{short} sessions completed fewer than {PREFIX} ops: run too short to check")
    });
    let prefix = combine_unordered(per_session.iter().map(|session| {
        session
            .iter()
            .take(PREFIX)
            .fold(0, |d, r| fold(d, r.digest().unwrap_or(0)))
    }));
    report.check_pinned(args, "result prefix checksum", prefix, PINNED_PREFIX);
}

/// Latency samples of the completed ops per class.
fn class_latencies(records: &[Record]) -> Vec<Samples> {
    let mut classes = vec![Samples::default(); CLASSES.len()];
    for r in records.iter().filter(|r| r.answer.is_some()) {
        classes[r.class].push(r.latency());
    }
    classes
}

pub fn run(args: &Args) -> Report {
    let mut report = Report::default();
    if args.trace {
        run_traced(args, &mut report);
        return report;
    }
    let (env, setup_s) = timed_setups(|| setup(args));
    let phase = drive(&env, args.seed, args.measure());
    let rss = peak_rss_mb();
    let ops = completions(&phase.driven.records);
    report.end_to_end(args, setup_s, rss, &ops, &ops);
    verify(&env, args, &phase.driven.records, &mut report);
    report
}

/// The traced run: a short untraced phase, a traced phase on a fresh
/// engine, then the shadow replay of the traced phase's ops.
fn run_traced(args: &Args, report: &mut Report) {
    let share = args.measure().mul_f64(0.3);
    let untraced = pooled_p50_ms(&completions(
        &drive(&setup(args), args.seed, share).driven.records,
    ));
    let env = setup(args);
    let phase = drive(&env, args.seed, share);
    let records = &phase.driven.records;
    verify(&env, args, records, report);

    let mut classes = class_latencies(records);
    let n = records.len();
    for (class, metric) in [
        (0, "driver.filter_p50_ms"),
        (1, "driver.refine_p50_ms"),
        (3, "driver.drill_p50_ms"),
        (4, "driver.lookup_p50_ms"),
    ] {
        report.set(metric, classes[class].ms(0.50), classes[class].len());
    }
    report.set("driver.pan_p50_us", classes[2].us(0.50), classes[2].len());
    report.set("prefetch.pan_us_p50", classes[2].us(0.50), classes[2].len());
    let slow = records
        .iter()
        .filter(|r| r.answer.is_none() || r.latency() > SLO.as_nanos() as u64)
        .count();
    report.driver_metrics(n, slow, &completions(records), untraced);
    report.set("serve.rejected", phase.driven.rejected as f64, 1);
    let body: u64 = records.iter().map(Record::body).sum();
    report.set(
        "serve.busy_share_pct",
        100.0 * body as f64 / (serve_workers() as f64 * phase.wall.as_nanos() as f64),
        n,
    );
    let cells = phase.driven.pan_hits + phase.driven.pan_misses;
    report.set(
        "prefetch.cell_hit_pct",
        100.0 * phase.driven.pan_hits as f64 / cells.max(1) as f64,
        cells as usize,
    );
    env.serve.with_engine(|db| {
        cache_shares(&db.cache_stats(), report);
        report.set(
            "crack.pieces_end",
            db.index_pieces("sales", "qty").unwrap_or(0) as f64,
            1,
        );
    });

    let mut ledger = Ledger::default();
    let mut trace = Trace::default();
    replay(&env, records, &mut ledger, &mut trace);
    let probes: Vec<_> = [(0.1, 0.4), (0.3, 0.5), (0.5, 0.9), (0.0, 0.25)]
        .iter()
        .map(|&(lo, hi)| range_query(env.price.at(lo), env.price.at(hi)))
        .collect();
    report.set(
        "exec.parallel_speedup",
        parallel_speedup(&env.table, &probes),
        probes.len(),
    );
    env.serve.with_engine(|db| {
        finish_traced(args, db, &env.table, ledger, &trace, LADDER_EVERY, report);
    });
}

/// Rebuild the traced phase as a span tree, op by op in completion
/// order: the real spans from the stamps, then — one layer down at a
/// time, on state this function owns and feeds with the same inputs —
/// the shadow spans.
fn replay(env: &Env, records: &[Record], ledger: &mut Ledger, trace: &mut Trace) {
    let cache = ResultCache::new(CacheConfig::default());
    let ctx = QueryCtx::new(ExecPolicy::Serial);
    let table: &Table = &env.table;
    let rows = table.num_rows();
    let qty = table
        .column("qty")
        .ok()
        .and_then(|c| c.as_i64())
        .expect("qty is Int64");
    let mut cracker: Option<CrackerColumn> = None;

    for (i, r) in records.iter().enumerate() {
        let op = i as u64;
        let laddered = i % LADDER_EVERY == 0;
        let engine_op = match r.op {
            Resolved::Pan(_) => {
                trace.real(op, 0, "prefetch.view", r.submit, r.end);
                continue;
            }
            Resolved::Engine(e) => e,
        };
        let root = r.serve_spans(op, trace, ledger);
        if r.answer.is_none() {
            continue;
        }
        let body = r.body() as f64;
        match engine_op {
            EngineOp::Range { .. } | EngineOp::Drill(_) => {
                let (name, query) = match engine_op {
                    EngineOp::Range { lo, hi } => ("core.query", range_query(lo, hi)),
                    EngineOp::Drill(pair) => ("core.discover_cube", drill_query(pair)),
                    EngineOp::Lookup(_) => unreachable!("matched above"),
                };
                let core = trace.real(op, root, name, r.start, r.end);
                // The shadow cache sees every query, so its state tracks
                // the engine's; only laddered ops get spans below it.
                let before = cache.stats();
                let (grouped, cache_ns) =
                    time(|| cached_query(&cache, table, "sales", &query, &ctx));
                let after = cache.stats();
                let missed = after.misses > before.misses;
                if after.hits > before.hits {
                    ledger.push("cache.lookup_hit_us_p50", cache_ns as f64);
                } else if !missed {
                    ledger.push("cache.subsume_ms_p50", cache_ns as f64);
                }
                if !laddered {
                    continue;
                }
                let span = trace.shadow(op, core, "cache.cached_query", cache_ns);
                let mut below = cache_ns as f64;
                if missed {
                    let ladder = exec_ladder(&[(table, None)], &query, &ctx);
                    ladder.record(trace, ledger, op, span, rows, 1);
                    ledger.push(
                        "cache.miss_overhead_us_p50",
                        cache_ns as f64 - ladder.run_query_ns as f64,
                    );
                }
                if let (EngineOp::Drill(pair), Ok(grouped)) = (engine_op, &grouped) {
                    let (a, b) = DRILL_PAIRS[pair];
                    let (_, ns) = time(|| DiscoveryView::from_grouped(grouped, a, b, "price"));
                    trace.shadow(op, core, "cube.from_grouped", ns);
                    ledger.push("cube.discover_ms_p50", ns as f64);
                    below += ns as f64;
                }
                ledger.push("core.route_self_us_p50", body - below);
            }
            EngineOp::Lookup(q) => {
                let core = trace.real(op, root, "core.cracked_range", r.start, r.end);
                let first = cracker.is_none();
                let (_, ns) = time(|| {
                    cracker
                        .get_or_insert_with(|| CrackerColumn::new(qty.to_vec()))
                        .query_ids(q, q + 1)
                        .len()
                });
                let metric = if first {
                    "crack.first_touch_ms"
                } else {
                    "crack.converged_us_p50"
                };
                ledger.push(metric, ns as f64);
                if laddered {
                    trace.shadow(op, core, "cracking.query_ids", ns);
                    ledger.push("core.route_self_us_p50", body - ns as f64);
                }
            }
        }
    }
}
