//! `middleware_insight`: the paper's middleware and user-interaction
//! layers, which the other three workloads barely touch.
//!
//! Sales (250 k rows) plus a 50 k-line in-memory CSV; direct calls on a
//! default-configured engine, one client, closed loop. Each cycle
//! explores one price window with every middleware facade in turn —
//! `recommend_views` (viz), `approx_aggregate` (sampling + aqp, samples
//! prebuilt), `online_aggregate` run to a fixed CI width (aqp),
//! `diversified_topk` (diversify), `facets` (explore),
//! `estimate_range_count` (synopses, prebuilt), `propose_charts` (viz),
//! a four-step `cube_session` (cube) — and ends by attaching the CSV to
//! a fresh engine and querying it twice (loading: the paper's
//! data-to-query time). `serve`, `cache` and `shard` do nothing here.

use std::sync::Arc;
use std::time::{Duration, Instant};

use exploration::aqp::{Bound, BoundedExecutor, OnlineAggregation, SynopsisStore};
use exploration::cube::{CubeSession, DataCube};
use exploration::diversify::{mmr, DivStats, Item};
use exploration::exec::{evaluate_selection, run_query, QueryCtx};
use exploration::interact::faceted_recommendations;
use exploration::loading::{AdaptiveLoader, RawCsv};
use exploration::sampling::SampleCatalog;
use exploration::storage::csv::write_csv;
use exploration::storage::{AggFunc, Predicate, Query, Result, Schema, Table};
use exploration::viz::{candidate_views, propose_charts, recommend_shared, SeedbStats};
use exploration::ExploreDb;

use super::{quantiles, sales};
use crate::digest::{str_digest, table_digest};
use crate::gen::{fold, lane_seed, Cycle, CycleStream, Lane, Quantiles};
use crate::report::{peak_rss_mb, Report};
use crate::shadow::{finish_traced, time, Ledger};
use crate::stats::pooled_p50_ms;
use crate::trace::Trace;
use crate::{timed_setups, Args};

const SALES_ROWS: usize = 250_000;
const CSV_ROWS: usize = 50_000;
const SAMPLE_FRACTIONS: [f64; 2] = [0.01, 0.1];
const STRATIFY: [(&str, usize); 1] = [("region", 200)];
const SYNOPSIS_BUCKETS: usize = 64;
const CUBE_DIMS: [&str; 3] = ["region", "product", "channel"];
/// The four cuboids a cube session visits, coarse to fine.
const CUBE_STEPS: [&[&str]; 4] = [
    &["region"],
    &["region", "product"],
    &["region", "channel"],
    &["region", "product", "channel"],
];
const APPROX_BOUND: Bound = Bound::RelativeError {
    target: 0.005,
    confidence: 0.95,
};
/// `online_aggregate` runs until its CI half-width is this share of the
/// estimate.
const ONLINE_TARGET: f64 = 0.002;
const ONLINE_BATCH: usize = 2_000;
const TOP_K: usize = 10;
const SLO: Duration = Duration::from_millis(250);
/// Leading cycles in the pinned result prefix, replayed on a fresh
/// engine by the check.
const PREFIX_CYCLES: usize = 2;
/// Checksum of the first [`PREFIX_CYCLES`] cycles on [`DEFAULT_SEED`] at
/// full size.
const PINNED_PREFIX: u64 = 0xd59e_994f_45e0_c799;

/// The calls of one cycle, in order; also the span names.
const OPS: [&str; 9] = [
    "core.recommend_views",
    "core.approx_aggregate",
    "core.online_aggregate",
    "core.diversified_topk",
    "core.facets",
    "core.estimate_range_count",
    "core.propose_charts",
    "core.cube_session",
    "core.attach_raw",
];

struct Env {
    db: ExploreDb,
    table: Arc<Table>,
    price: Quantiles,
    csv: String,
    schema: Schema,
    sample_build_s: f64,
    synopsis_build_s: f64,
}

fn setup(args: &Args) -> Env {
    let table = Arc::new(sales(args.rows(SALES_ROWS), args.seed));
    let db = ExploreDb::new();
    db.register("sales", Arc::clone(&table));
    let seed = lane_seed(args.seed, Lane::Samples, 0);
    let (built, sample_ns) = time(|| db.build_samples("sales", &SAMPLE_FRACTIONS, &STRATIFY, seed));
    built.expect("sample catalog builds");
    let (built, synopsis_ns) = time(|| db.build_synopses("sales", SYNOPSIS_BUCKETS));
    built.expect("synopses build");
    let raw = sales(args.rows(CSV_ROWS), lane_seed(args.seed, Lane::Csv, 0));
    Env {
        price: quantiles(&table, "price"),
        csv: write_csv(&raw),
        schema: raw.schema().clone(),
        db,
        table,
        sample_build_s: sample_ns as f64 / 1e9,
        synopsis_build_s: synopsis_ns as f64 / 1e9,
    }
}

/// A cycle's parameters in value space.
struct Window {
    wide: Predicate,
    narrow: Predicate,
    lo: f64,
    hi: f64,
    online_seed: u64,
}

impl Env {
    fn window(&self, c: &Cycle) -> Window {
        let (lo, hi) = (self.price.at(c.lo), self.price.at(c.hi));
        Window {
            wide: Predicate::range("price", lo, hi),
            narrow: Predicate::range(
                "price",
                self.price.at(c.div_lo),
                self.price.at(c.div_lo + 0.01),
            ),
            lo,
            hi,
            online_seed: c.online_seed,
        }
    }
}

/// The query the raw attach answers.
fn raw_query(w: &Window) -> Query {
    Query::new()
        .filter(w.wide.clone())
        .group("region")
        .agg(AggFunc::Avg, "price")
}

/// What a call returned, reduced to what the checks compare, plus the
/// call's own sub-timings.
#[derive(Debug, Clone, Copy, Default)]
struct Out {
    digest: u64,
    /// `approx`/`estimate`: the estimate. `online`: batches stepped.
    value: f64,
    /// `approx`: CI half-width.
    half_width: f64,
    /// `raw`: ns to attach, to the first answer, and for the warm query.
    raw_ns: [u64; 3],
    /// `cube`: navigations served without computing.
    cube_hits: u64,
}

fn f64_fold(d: u64, x: f64) -> u64 {
    fold(d, x.to_bits())
}

/// Issue call `op` of a cycle at the engine's public API.
fn call(env: &Env, op: usize, w: &Window) -> Result<Out> {
    let db = &env.db;
    let mut out = Out::default();
    match op {
        0 => {
            for v in db.recommend_views("sales", &w.wide, 5)? {
                out.digest = f64_fold(str_digest(out.digest, &v.spec.label()), v.utility);
            }
        }
        1 => {
            let a = db.approx_aggregate("sales", &w.wide, AggFunc::Avg, "price", APPROX_BOUND)?;
            out.value = a.interval.estimate;
            out.half_width = a.interval.half_width;
            out.digest = fold(
                f64_fold(f64_fold(1, out.value), out.half_width),
                a.rows_scanned as u64,
            );
        }
        2 => {
            let mut oa =
                db.online_aggregate("sales", &w.wide, AggFunc::Avg, "price", 0.95, w.online_seed)?;
            let steps = oa.run_until(ONLINE_TARGET, ONLINE_BATCH)?;
            out.value = steps.len() as f64;
            let last = oa.snapshot();
            out.digest = f64_fold(fold(2, last.processed), last.interval.estimate);
        }
        3 => {
            let ids = db.diversified_topk(
                "sales",
                &w.narrow,
                "price",
                &["discount", "qty"],
                TOP_K,
                0.5,
            )?;
            out.digest = ids.iter().fold(3, |d, &id| fold(d, id as u64));
        }
        4 => {
            for f in db.facets("sales", &w.wide, 50, 5)? {
                let d = str_digest(str_digest(out.digest, &f.column), &f.value);
                out.digest = f64_fold(d, f.lift);
            }
        }
        5 => {
            out.value = db
                .estimate_range_count("sales", "price", w.lo, w.hi)?
                .estimate;
            out.digest = f64_fold(5, out.value);
        }
        6 => {
            for c in db.propose_charts("sales", 5)? {
                let d = c
                    .columns
                    .iter()
                    .fold(out.digest, |d, col| str_digest(d, col));
                out.digest = f64_fold(d, c.score);
            }
        }
        7 => {
            let mut session = db.cube_session("sales", &CUBE_DIMS, "price", AggFunc::Sum, true)?;
            for step in CUBE_STEPS {
                out.digest = fold(out.digest, table_digest(&session.navigate(step)?));
            }
            out.cube_hits = session.stats().hits;
        }
        _ => {
            let query = raw_query(w);
            let started = Instant::now();
            let fresh = ExploreDb::new();
            fresh.attach_raw("raw", RawCsv::new(env.csv.clone(), env.schema.clone())?);
            let attached = started.elapsed();
            let first = fresh.query("raw", &query)?;
            let answered = started.elapsed();
            let (warm, warm_ns) = time(|| fresh.query("raw", &query));
            out.raw_ns = [
                attached.as_nanos() as u64,
                answered.as_nanos() as u64,
                warm_ns,
            ];
            out.digest = fold(table_digest(&first), table_digest(&warm?));
            out.value = fresh.loading_progress("raw").map_or(0, |p| p.0) as f64;
        }
    }
    Ok(out)
}

struct Record {
    op: usize,
    window: usize,
    start: u64,
    end: u64,
    out: Option<Out>,
}

struct Phase {
    cycles: Vec<Cycle>,
    records: Vec<Record>,
}

fn drive(env: &Env, seed: u64, duration: Duration) -> Phase {
    let mut cycles = Vec::new();
    let mut records = Vec::new();
    let epoch = Instant::now();
    let ns = |at: Instant| at.saturating_duration_since(epoch).as_nanos() as u64;
    'run: for cycle in CycleStream::new(seed) {
        let w = env.window(&cycle);
        cycles.push(cycle);
        for op in 0..OPS.len() {
            let start = Instant::now();
            if start >= epoch + duration {
                break 'run;
            }
            let out = call(env, op, &w).ok();
            records.push(Record {
                op,
                window: cycles.len() - 1,
                start: ns(start),
                end: ns(Instant::now()),
                out,
            });
        }
    }
    Phase { cycles, records }
}

/// Replay the leading cycles on a fresh engine built from the same seed
/// and compare every answer.
fn verify(args: &Args, phase: &Phase, report: &mut Report) {
    report.attempted = phase.records.len() as u64;
    report.failed = phase.records.iter().filter(|r| r.out.is_none()).count() as u64;
    let prefix_ops = PREFIX_CYCLES * OPS.len();
    report.check(phase.records.len() >= prefix_ops, || {
        format!(
            "only {} calls completed: run too short to check",
            phase.records.len()
        )
    });
    let reference = setup(args);
    let mismatches = phase
        .records
        .iter()
        .take(prefix_ops)
        .filter(|r| {
            let w = reference.window(&phase.cycles[r.window]);
            let want = call(&reference, r.op, &w).ok().map(|o| o.digest);
            want != r.out.map(|o| o.digest)
        })
        .count();
    report.check(mismatches == 0, || {
        format!("{mismatches} answers differ from a fresh engine's replay")
    });
    let prefix = phase
        .records
        .iter()
        .take(prefix_ops)
        .fold(0, |d, r| fold(d, r.out.map_or(0, |o| o.digest)));
    report.check_pinned(args, "result prefix checksum", prefix, PINNED_PREFIX);
}

fn completions(phase: &Phase) -> Vec<(u64, u64)> {
    phase
        .records
        .iter()
        .filter(|r| r.out.is_some())
        .map(|r| (r.end, r.end - r.start))
        .collect()
}

pub fn run(args: &Args) -> Report {
    let mut report = Report::default();
    if args.trace {
        if let Err(e) = run_traced(args, &mut report) {
            report.check(false, || format!("shadow replay failed: {e}"));
        }
        return report;
    }
    let (env, setup_s) = timed_setups(|| setup(args));
    let phase = drive(&env, args.seed, args.measure());
    let rss = peak_rss_mb();
    let ops = completions(&phase);
    report.end_to_end(args, setup_s, rss, &ops, &ops);
    verify(args, &phase, &mut report);
    report
}

fn run_traced(args: &Args, report: &mut Report) -> Result<()> {
    let share = args.measure().mul_f64(0.3);
    let untraced = pooled_p50_ms(&completions(&drive(&setup(args), args.seed, share)));
    let env = setup(args);
    let phase = drive(&env, args.seed, share);
    verify(args, &phase, report);

    let n = phase.records.len();
    let slow = phase
        .records
        .iter()
        .filter(|r| r.out.is_none() || r.end - r.start > SLO.as_nanos() as u64)
        .count();
    report.driver_metrics(n, slow, &completions(&phase), untraced);
    report.set("sample.build_s", env.sample_build_s, 1);
    report.set("synopsis.build_s", env.synopsis_build_s, 1);

    let mut ledger = Ledger::default();
    let mut trace = Trace::default();
    replay(&env, args, &phase, &mut ledger, &mut trace, report)?;
    finish_traced(args, &env.db, &env.table, ledger, &trace, 1, report);
    Ok(())
}

/// Rebuild the traced phase as a span tree: under each facade call, the
/// same input re-issued at the technique crate's own public entry, on
/// the same table snapshot and on a sample catalog and synopsis store
/// this function builds.
fn replay(
    env: &Env,
    args: &Args,
    phase: &Phase,
    ledger: &mut Ledger,
    trace: &mut Trace,
    report: &mut Report,
) -> Result<()> {
    let table: &Table = &env.table;
    let ctx = QueryCtx::new(env.db.exec_policy());
    let catalog = SampleCatalog::build(
        table,
        &SAMPLE_FRACTIONS,
        &STRATIFY,
        lane_seed(args.seed, Lane::Samples, 0),
        &ctx,
    )?;
    let store = SynopsisStore::build(table, SYNOPSIS_BUCKETS);
    let views = candidate_views(table, &[AggFunc::Count, AggFunc::Sum, AggFunc::Avg]);
    let (mut rel_err, mut covered, mut approx_n) = (0.0, 0usize, 0usize);
    let (mut syn_err, mut syn_n) = (0.0, 0usize);
    let (mut cube_hits, mut cube_steps) = (0u64, 0u64);

    for (i, r) in phase.records.iter().enumerate() {
        let op = i as u64;
        let core = trace.real(op, 0, OPS[r.op], r.start, r.end);
        let Some(out) = r.out else { continue };
        let w = env.window(&phase.cycles[r.window]);
        let body = (r.end - r.start) as f64;
        let shadow = |trace: &mut Trace, name: &'static str, ns: u64| {
            trace.shadow(op, core, name, ns);
            ns as f64
        };
        let below = match r.op {
            0 => {
                let mut stats = SeedbStats::default();
                let (_, ns) =
                    time(|| recommend_shared(table, &w.wide, &views, 5, &mut stats, &ctx));
                ledger.push("viz.recommend_ms_p50", ns as f64);
                ledger.push("driver.recommend_p50_ms", body);
                shadow(trace, "viz.recommend_shared", ns)
            }
            1 => {
                let ex = BoundedExecutor::new(table, &catalog);
                let (_, ns) =
                    time(|| ex.aggregate(&w.wide, AggFunc::Avg, "price", APPROX_BOUND, &ctx));
                ledger.push("aqp.approx_ms_p50", ns as f64);
                ledger.push("driver.approx_p50_ms", body);
                let exact = exact_avg(table, &w.wide, &ctx)?;
                rel_err += (out.value - exact).abs() / exact.abs().max(f64::MIN_POSITIVE);
                covered += ((out.value - exact).abs() <= out.half_width) as usize;
                approx_n += 1;
                shadow(trace, "aqp.bounded_aggregate", ns)
            }
            2 => {
                let (_, ns) = time(|| {
                    OnlineAggregation::start(
                        table,
                        &w.wide,
                        AggFunc::Avg,
                        "price",
                        0.95,
                        w.online_seed,
                    )
                    .and_then(|mut oa| oa.run_until(ONLINE_TARGET, ONLINE_BATCH))
                });
                ledger.push("aqp.online_ms_p50", ns as f64);
                ledger.push("aqp.online_steps_to_target", out.value);
                shadow(trace, "aqp.online_run_until", ns)
            }
            3 => {
                let (rows, sel_ns) = time(|| evaluate_selection(table, &w.narrow, &ctx));
                let rows = rows?;
                let items = items(table, &rows)?;
                let mut stats = DivStats::default();
                let (_, ns) = time(|| mmr(&items, TOP_K, 0.5, &[], &mut stats, &ctx));
                ledger.push("div.topk_ms_p50", ns as f64);
                shadow(trace, "exec.evaluate_selection", sel_ns)
                    + shadow(trace, "diversify.mmr", ns)
            }
            4 => {
                let (rows, sel_ns) = time(|| evaluate_selection(table, &w.wide, &ctx));
                let rows = rows?;
                let (_, ns) = time(|| faceted_recommendations(table, &rows, 50, 5));
                ledger.push("explore.facets_ms_p50", ns as f64);
                shadow(trace, "exec.evaluate_selection", sel_ns)
                    + shadow(trace, "explore.faceted_recommendations", ns)
            }
            5 => {
                let (_, ns) = time(|| store.range_count("price", w.lo, w.hi));
                ledger.push("synopsis.estimate_us_p50", ns as f64);
                let exact = evaluate_selection(table, &w.wide, &ctx)?.len() as f64;
                syn_err += (out.value - exact).abs() / exact.max(1.0);
                syn_n += 1;
                shadow(trace, "synopses.range_count", ns)
            }
            6 => {
                let (_, ns) = time(|| propose_charts(table, 5));
                ledger.push("viz.propose_ms_p50", ns as f64);
                shadow(trace, "viz.propose_charts", ns)
            }
            7 => {
                let (copy, clone_ns) = time(|| table.clone());
                let (_, ns) = time(|| -> Result<()> {
                    let cube = DataCube::new(copy, &CUBE_DIMS, "price", AggFunc::Sum)?;
                    let mut session = CubeSession::new(cube, true);
                    for step in CUBE_STEPS {
                        session.navigate(step)?;
                    }
                    Ok(())
                });
                ledger.push("cube.session_ms_p50", ns as f64);
                cube_hits += out.cube_hits;
                cube_steps += CUBE_STEPS.len() as u64;
                shadow(trace, "storage.table_clone", clone_ns)
                    + shadow(trace, "cube.session_navigate", ns)
            }
            _ => {
                ledger.push("load.attach_ms", out.raw_ns[0] as f64);
                ledger.push(
                    "load.first_query_ms",
                    (out.raw_ns[1] - out.raw_ns[0]) as f64,
                );
                ledger.push("load.warm_query_ms", out.raw_ns[2] as f64);
                ledger.push("load.columns_loaded", out.value);
                ledger.push("driver.raw_first_answer_ms", out.raw_ns[1] as f64);
                let query = raw_query(&w);
                let (_, ns) = time(|| -> Result<()> {
                    let raw = RawCsv::new(env.csv.clone(), env.schema.clone())?;
                    let mut loader = AdaptiveLoader::new(raw);
                    loader.query(&query, &ctx)?;
                    loader.query(&query, &ctx)?;
                    Ok(())
                });
                shadow(trace, "loading.attach_and_query", ns)
            }
        };
        ledger.push("core.route_self_us_p50", body - below);
    }
    let pct = |sum: f64, n: usize| 100.0 * sum / n.max(1) as f64;
    report.set("aqp.mean_rel_err_pct", pct(rel_err, approx_n), approx_n);
    report.set("aqp.ci_cover_pct", pct(covered as f64, approx_n), approx_n);
    report.set("synopsis.rel_err_pct", pct(syn_err, syn_n), syn_n);
    report.set(
        "cube.session_hit_pct",
        pct(cube_hits as f64, cube_steps as usize),
        cube_steps as usize,
    );
    Ok(())
}

fn exact_avg(table: &Table, predicate: &Predicate, ctx: &QueryCtx) -> Result<f64> {
    let q = Query::new()
        .filter(predicate.clone())
        .agg(AggFunc::Avg, "price");
    let t = run_query(table, &q, ctx)?;
    Ok(t.column_at(0).numeric_at(0).unwrap_or(f64::NAN))
}

/// The MMR candidates `diversified_topk` builds from the selected rows.
fn items(table: &Table, rows: &[u32]) -> Result<Vec<Item>> {
    let price = table.column("price")?;
    let features = [table.column("discount")?, table.column("qty")?];
    Ok(rows
        .iter()
        .map(|&r| {
            let at = |c: &exploration::storage::Column| c.numeric_at(r as usize).unwrap_or(0.0);
            Item::new(r, at(price), features.iter().map(|c| at(c)).collect())
        })
        .collect())
}
