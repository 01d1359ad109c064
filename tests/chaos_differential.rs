//! Chaos-differential suite: every query under every injected fault is
//! either **bit-identical to the fault-free run** or a **clean typed
//! error** — never a panic, never a silently wrong answer, never a
//! corrupted engine.
//!
//! The harness runs the executor's supported query shapes against
//! seeded random fault schedules (`Schedule::Seeded` decisions are pure
//! functions of the seed and hit index, so every failure is replayable
//! from its iteration number), across Serial/Parallel execution and
//! cache off/warm. After each faulty run the faults are disarmed and
//! the *same engine* answers the same query again — it must match the
//! fault-free truth bit-for-bit, proving no fault corrupted persistent
//! state (cache, loaders, cracker indexes, parallel fan-out).
//!
//! The iteration count defaults to a budget sized for the everyday
//! `cargo test` run; `ci.sh`'s chaos-smoke step pins `CHAOS_ITERS=200`
//! as the depth gate, and the same env var scales it up for soaking.

use std::time::Duration;

use exploration::cache::CachePolicy;
use exploration::exec::ExecPolicy;
use exploration::serve::{ServeConfig, ServeEngine};
use exploration::storage::rng::SplitMix64;
use exploration::storage::{AggFunc, Predicate, Query, SortOrder, StorageError, Table};
use exploration::{CancelToken, ExploreDb, Schedule, SessionCtx};

mod common;
use common::{assert_bitwise_eq, multi_morsel_table, query_shapes, sales};

/// Fail points reachable through `ExploreDb::query`.
const POINTS: &[&str] = &[
    "exec.spawn",
    "exec.morsel",
    "cache.admit",
    "cache.lookup",
    "cache.evict",
];

/// Iteration budget: 40 seeded schedules by default, so the suite is
/// not half of tier-1's wall clock; the ≥200-schedule acceptance bar is
/// the chaos-smoke step's explicit `CHAOS_ITERS=200`.
fn chaos_iters() -> usize {
    std::env::var("CHAOS_ITERS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(40)
}

/// A random fault schedule derived deterministically from the rng.
fn random_schedule(rng: &mut SplitMix64) -> Schedule {
    match rng.range_i64(0, 4) {
        0 => Schedule::Always,
        1 => Schedule::Nth(rng.range_i64(1, 5) as u64),
        2 => Schedule::FirstN(rng.range_i64(1, 4) as u64),
        _ => Schedule::Seeded {
            seed: rng.next_u64(),
            one_in: rng.range_i64(1, 5) as u64,
        },
    }
}

/// The main chaos loop. Every iteration arms a random subset of fail
/// points with random seeded schedules, sometimes adds a cancellation
/// budget, runs one query shape, and requires bit-identical output or a
/// clean typed error — then disarms and proves the engine undamaged.
#[test]
fn seeded_fault_schedules_never_corrupt_results() {
    let table = multi_morsel_table();
    let shapes = query_shapes();
    // Fault-free truth per shape, computed once on a pristine engine.
    let truths: Vec<Table> = {
        let db = ExploreDb::with_exec_policy(ExecPolicy::Serial);
        db.register("sales", table.clone());
        shapes
            .iter()
            .map(|(name, q)| {
                db.query("sales", q)
                    .unwrap_or_else(|e| panic!("truth for {name}: {e}"))
            })
            .collect()
    };

    for iter in 0..chaos_iters() {
        let mut rng = SplitMix64::new(0xC4A0_5000 + iter as u64);
        let (shape_idx, policy, cache_on) = (
            rng.range_i64(0, shapes.len() as i64) as usize,
            if rng.range_i64(0, 2) == 0 {
                ExecPolicy::Serial
            } else {
                ExecPolicy::Parallel {
                    workers: rng.range_i64(1, 5) as usize,
                }
            },
            rng.range_i64(0, 2) == 0,
        );
        let (name, query) = &shapes[shape_idx];
        let context = format!("iter {iter}: {name} policy={policy:?} cache={cache_on}");

        let db = ExploreDb::with_exec_policy(policy);
        if cache_on {
            db.set_cache_policy(CachePolicy::on());
        }
        db.register("sales", table.clone());
        if cache_on {
            // Warm the cache fault-free so lookup/evict faults have
            // entries to chew on.
            for (_, q) in &shapes {
                db.query("sales", q).unwrap();
            }
        }

        let faults = db.fail_points();
        let n_armed = rng.range_i64(1, 4) as usize;
        for _ in 0..n_armed {
            let point = POINTS[rng.range_i64(0, POINTS.len() as i64) as usize];
            let schedule = random_schedule(&mut rng);
            faults.arm(point, schedule);
        }
        // One run in four also races a cancellation budget against the
        // faulty query.
        let cancel = (rng.range_i64(0, 4) == 0)
            .then(|| CancelToken::after_checks(rng.range_i64(0, 12) as u64));

        let overlay = SessionCtx::default().with_cancel(cancel.clone());
        let result = db.with_session(&overlay, |db| db.query("sales", query));
        match result {
            Ok(got) => assert_bitwise_eq(&truths[shape_idx], &got, &context),
            Err(StorageError::Cancelled) => assert!(
                cancel.is_some(),
                "{context}: Cancelled without a cancel token"
            ),
            Err(e) => panic!("{context}: fault leaked as non-typed error: {e}"),
        }

        // Disarm and re-query the SAME engine: any corruption a fault
        // left behind (cache entry, fan-out state) would surface here.
        faults.disarm_all();
        let clean = db
            .query("sales", query)
            .unwrap_or_else(|e| panic!("{context}: post-fault query failed: {e}"));
        assert_bitwise_eq(
            &truths[shape_idx],
            &clean,
            &format!("{context} (post-fault)"),
        );
    }
}

/// An injected worker panic inside a parallel morsel degrades to a full
/// serial re-run with identical results, and the event is counted.
#[test]
fn injected_worker_panic_falls_back_to_serial() {
    let table = multi_morsel_table();
    let db = ExploreDb::with_exec_policy(ExecPolicy::Parallel { workers: 4 });
    db.register("sales", table);
    let q = Query::new().group("region").agg(AggFunc::Sum, "price");
    let truth = {
        let serial = ExploreDb::with_exec_policy(ExecPolicy::Serial);
        serial.register("sales", multi_morsel_table());
        serial.query("sales", &q).unwrap()
    };

    let faults = db.fail_points();
    faults.arm("exec.morsel", Schedule::Always);
    let got = db.query("sales", &q).expect("degrades, not fails");
    assert_bitwise_eq(&truth, &got, "exec.morsel fallback");
    assert!(faults.trips("exec.morsel") > 0, "fault actually fired");
    assert!(
        faults.event("fault.exec.serial_fallback") >= 1,
        "fallback event counted"
    );

    // Pool survives: a fault-free parallel query still works.
    faults.disarm_all();
    let clean = db.query("sales", &q).unwrap();
    assert_bitwise_eq(&truth, &clean, "post-panic parallel reuse");
}

/// Refusing parallel dispatch (`exec.spawn`) degrades to inline serial
/// execution with identical results.
#[test]
fn spawn_failure_degrades_to_inline_serial() {
    let table = multi_morsel_table();
    let db = ExploreDb::with_exec_policy(ExecPolicy::Parallel { workers: 4 });
    db.register("sales", table.clone());
    let q = Query::new()
        .filter(Predicate::range("price", 100.0, 600.0))
        .agg(AggFunc::Sum, "price");
    let truth = db.query("sales", &q).unwrap();

    let faults = db.fail_points();
    faults.arm("exec.spawn", Schedule::Always);
    let got = db.query("sales", &q).unwrap();
    assert_bitwise_eq(&truth, &got, "exec.spawn fallback");
    assert!(faults.event("fault.exec.serial_fallback") >= 1);
}

/// Cache admission refusal (`cache.admit`) means every query takes the
/// compute path — correct answers, zero insertions.
#[test]
fn admission_failure_serves_through_compute() {
    let table = multi_morsel_table();
    let db = ExploreDb::with_cache_policy(CachePolicy::on());
    db.register("sales", table);
    let faults = db.fail_points();
    faults.arm("cache.admit", Schedule::Always);

    let q = Query::new().group("region").agg(AggFunc::Sum, "price");
    let a = db.query("sales", &q).unwrap();
    let b = db.query("sales", &q).unwrap();
    assert_bitwise_eq(&a, &b, "admit-refused queries");
    assert_eq!(db.cache_stats().insertions, 0, "nothing was admitted");
    assert!(faults.trips("cache.admit") >= 2);

    // Disarm: the cache starts admitting again on the same engine.
    faults.disarm_all();
    db.query("sales", &q).unwrap();
    assert_eq!(db.cache_stats().insertions, 1);
    db.query("sales", &q).unwrap();
    assert_eq!(db.cache_stats().hits, 1);
}

/// Forced lookup misses (`cache.lookup`) recompute every answer —
/// bit-identical, and the warm cache is still intact after disarming.
#[test]
fn lookup_failure_forces_recompute() {
    let table = multi_morsel_table();
    let db = ExploreDb::with_cache_policy(CachePolicy::on());
    db.register("sales", table);
    let q = Query::new()
        .filter(Predicate::range("price", 100.0, 700.0))
        .group("region")
        .agg(AggFunc::Avg, "price");
    let truth = db.query("sales", &q).unwrap(); // warm the entry

    let faults = db.fail_points();
    faults.arm("cache.lookup", Schedule::Always);
    let hits_before = db.cache_stats().hits;
    let got = db.query("sales", &q).unwrap();
    assert_bitwise_eq(&truth, &got, "forced miss");
    assert_eq!(db.cache_stats().hits, hits_before, "lookup never hit");

    faults.disarm_all();
    db.query("sales", &q).unwrap();
    assert!(db.cache_stats().hits > hits_before, "cache survived");
}

/// `crack.reorg` degrades the adaptive index to a base-column scan:
/// same ids, no reorganization, event counted.
#[test]
fn crack_reorg_failure_degrades_to_scan() {
    let db = ExploreDb::new();
    db.register("sales", multi_morsel_table());
    let mut truth = db.cracked_range("sales", "qty", 3, 7).unwrap();
    truth.sort_unstable();
    let pieces = db.index_pieces("sales", "qty").unwrap();

    let faults = db.fail_points();
    faults.arm("crack.reorg", Schedule::Always);
    let mut got = db.cracked_range("sales", "qty", 2, 9).unwrap();
    got.sort_unstable();
    let mut scan = Predicate::range("qty", 2i64, 9i64)
        .evaluate(&db.table("sales").unwrap())
        .unwrap();
    scan.sort_unstable();
    assert_eq!(got, scan);
    assert_eq!(
        db.index_pieces("sales", "qty").unwrap(),
        pieces,
        "degraded query must not reorganize"
    );
    assert!(faults.event("fault.crack.scan_fallback") >= 1);

    // Disarm: cracking resumes on the same index.
    faults.disarm_all();
    let mut again = db.cracked_range("sales", "qty", 2, 9).unwrap();
    again.sort_unstable();
    assert_eq!(again, scan);
    assert!(db.index_pieces("sales", "qty").unwrap() > pieces);
}

/// Seeded chaos over `diversified_topk`: the middleware entry point is
/// routed through the same context-threaded pipeline as `query`, so
/// exec-layer faults and cancellation budgets must leave it either
/// returning the exact fault-free ranking or a clean typed error —
/// and the engine keeps serving truth afterwards.
#[test]
fn seeded_chaos_over_diversified_topk_is_exact_or_typed() {
    let table = multi_morsel_table();
    let pred = Predicate::range("price", 50.0, 800.0);
    let features = ["qty", "discount"];
    let truth = {
        let db = ExploreDb::with_exec_policy(ExecPolicy::Serial);
        db.register("sales", table.clone());
        db.diversified_topk("sales", &pred, "price", &features, 10, 0.5)
            .unwrap()
    };
    assert_eq!(truth.len(), 10);

    for iter in 0..chaos_iters().min(100) {
        let mut rng = SplitMix64::new(0xD1BE_7000 + iter as u64);
        let policy = if rng.range_i64(0, 2) == 0 {
            ExecPolicy::Serial
        } else {
            ExecPolicy::Parallel {
                workers: rng.range_i64(1, 5) as usize,
            }
        };
        let context = format!("diversify iter {iter}: policy={policy:?}");
        let db = ExploreDb::with_exec_policy(policy);
        db.register("sales", table.clone());

        let faults = db.fail_points();
        for _ in 0..rng.range_i64(1, 3) {
            let point = POINTS[rng.range_i64(0, POINTS.len() as i64) as usize];
            faults.arm(point, random_schedule(&mut rng));
        }
        let cancel = (rng.range_i64(0, 3) == 0)
            .then(|| CancelToken::after_checks(rng.range_i64(0, 8) as u64));

        let overlay = SessionCtx::default().with_cancel(cancel.clone());
        let result = db.with_session(&overlay, |db| {
            db.diversified_topk("sales", &pred, "price", &features, 10, 0.5)
        });
        match result {
            Ok(got) => assert_eq!(got, truth, "{context}"),
            Err(StorageError::Cancelled) => assert!(
                cancel.is_some(),
                "{context}: Cancelled without a cancel token"
            ),
            Err(e) => panic!("{context}: fault leaked as non-typed error: {e}"),
        }

        // Disarmed, the same engine reproduces the exact ranking.
        faults.disarm_all();
        let clean = db
            .diversified_topk("sales", &pred, "price", &features, 10, 0.5)
            .unwrap_or_else(|e| panic!("{context}: post-fault call failed: {e}"));
        assert_eq!(clean, truth, "{context} (post-fault)");
    }
}

/// `serve.admit` armed: the scheduler degrades gracefully — every
/// submission runs inline on the calling thread instead of queueing —
/// with exact answers, the degradation event counted, and the queue
/// path restored (truth re-served) after disarming.
#[test]
fn serve_admit_fault_degrades_to_inline_execution() {
    let table = multi_morsel_table();
    let q = Query::new().group("region").agg(AggFunc::Sum, "price");
    let truth = {
        let db = ExploreDb::new();
        db.register("sales", table.clone());
        db.query("sales", &q).unwrap()
    };

    let db = ExploreDb::new();
    db.register("sales", table);
    let serve = ServeEngine::with_config(db, ServeConfig::with_workers(2));
    let faults = serve.fail_points();
    faults.arm("serve.admit", Schedule::Always);

    let session = serve.session();
    let got = session.query("sales", &q).expect("degrades, not fails");
    assert_bitwise_eq(&truth, &got, "serve.admit inline degradation");
    assert!(faults.trips("serve.admit") >= 1, "fault actually fired");
    assert!(
        faults.event("fault.serve.inline") >= 1,
        "inline degradation counted"
    );

    // Disarm: the same facade schedules through the queue again.
    faults.disarm_all();
    let clean = session.query("sales", &q).unwrap();
    assert_bitwise_eq(&truth, &clean, "post-fault scheduled query");
}

/// `serve.yield` armed: cooperative yield points are skipped — degraded
/// scheduling, bit-identical answers — and the skip is noted.
#[test]
fn serve_yield_fault_skips_yields_without_corruption() {
    let table = multi_morsel_table();
    let q = Query::new()
        .filter(Predicate::range("price", 50.0, 800.0))
        .group("product")
        .agg(AggFunc::Sum, "price")
        .order("sum(price)", SortOrder::Desc)
        .take(7);
    let truth = {
        let db = ExploreDb::new();
        db.register("sales", table.clone());
        db.query("sales", &q).unwrap()
    };

    let db = ExploreDb::new();
    db.register("sales", table);
    let serve = ServeEngine::with_config(db, ServeConfig::with_workers(1));
    let faults = serve.fail_points();
    faults.arm("serve.yield", Schedule::Always);

    let got = serve.session().query("sales", &q).unwrap();
    assert_bitwise_eq(&truth, &got, "serve.yield skip");
    assert!(
        faults.event("fault.serve.yield_skipped") >= 1,
        "yield skips are noted"
    );

    faults.disarm_all();
    let clean = serve.session().query("sales", &q).unwrap();
    assert_bitwise_eq(&truth, &clean, "post-fault yielding query");
}

/// Seeded chaos through the serving layer: random engine and serve
/// fail points (plus occasional zero deadline budgets) over scheduled
/// sessions must produce the exact fault-free answer or a clean typed
/// error — and after disarming, the same facade re-serves truth.
#[test]
fn seeded_serve_chaos_is_exact_or_typed() {
    let table = multi_morsel_table();
    let shapes = query_shapes();
    let truths: Vec<Table> = {
        let db = ExploreDb::with_exec_policy(ExecPolicy::Serial);
        db.register("sales", table.clone());
        shapes
            .iter()
            .map(|(_, q)| db.query("sales", q).unwrap())
            .collect()
    };
    const SERVE_POINTS: &[&str] = &["serve.admit", "serve.yield"];

    for iter in 0..chaos_iters().min(60) {
        let mut rng = SplitMix64::new(0x5E2E_9000 + iter as u64);
        let shape_idx = rng.range_i64(0, shapes.len() as i64) as usize;
        let policy = if rng.range_i64(0, 2) == 0 {
            ExecPolicy::Serial
        } else {
            ExecPolicy::Parallel {
                workers: rng.range_i64(1, 5) as usize,
            }
        };
        let (name, query) = &shapes[shape_idx];
        let context = format!("serve iter {iter}: {name} policy={policy:?}");

        let db = ExploreDb::with_exec_policy(policy);
        db.register("sales", table.clone());
        let serve =
            ServeEngine::with_config(db, ServeConfig::with_workers(rng.range_i64(1, 3) as usize));
        let faults = serve.fail_points();
        // Always at least one serve-layer point, plus engine points.
        faults.arm(
            SERVE_POINTS[rng.range_i64(0, SERVE_POINTS.len() as i64) as usize],
            random_schedule(&mut rng),
        );
        for _ in 0..rng.range_i64(0, 3) {
            let point = POINTS[rng.range_i64(0, POINTS.len() as i64) as usize];
            faults.arm(point, random_schedule(&mut rng));
        }
        // One run in four races a zero deadline budget against it.
        let zero_deadline = rng.range_i64(0, 4) == 0;
        let session = if zero_deadline {
            serve.session().with_deadline(Some(Duration::ZERO))
        } else {
            serve.session()
        };

        match session.query("sales", query) {
            Ok(got) => assert_bitwise_eq(&truths[shape_idx], &got, &context),
            Err(StorageError::DeadlineExceeded) => assert!(
                zero_deadline,
                "{context}: DeadlineExceeded without a deadline budget"
            ),
            Err(e) => panic!("{context}: fault leaked as non-typed error: {e}"),
        }

        // Disarm and re-serve truth through the SAME facade.
        faults.disarm_all();
        let clean = serve
            .session()
            .query("sales", query)
            .unwrap_or_else(|e| panic!("{context}: post-fault query failed: {e}"));
        assert_bitwise_eq(
            &truths[shape_idx],
            &clean,
            &format!("{context} (post-fault)"),
        );
    }
}

/// Raw-CSV parse faults follow the engine's `ErrorPolicy`: `Abort`
/// surfaces a typed CSV error, `SkipRow` tombstones the row and keeps
/// serving; `load.map` faults are invisible (bit-identical reads).
#[test]
fn raw_parse_faults_follow_error_policy() {
    use exploration::loading::{ErrorPolicy, RawCsv};
    use exploration::storage::csv::write_csv;

    let t = sales(500);
    let q = Query::new().agg(AggFunc::Count, "qty");

    // Abort (default): the injected malformed row fails the query with
    // a typed CSV error; the engine (and loader) survive.
    let db = ExploreDb::new();
    db.attach_raw(
        "raw",
        RawCsv::new(write_csv(&t), t.schema().clone()).unwrap(),
    );
    let faults = db.fail_points();
    faults.arm("load.parse", Schedule::Nth(3));
    match db.query("raw", &q) {
        Err(StorageError::Csv { .. }) => {}
        other => panic!("expected a typed CSV error, got {other:?}"),
    }
    faults.disarm_all();
    let clean = db.query("raw", &q).unwrap();
    assert_eq!(
        clean.column("count(qty)").unwrap().as_f64().unwrap()[0],
        500.0
    );

    // SkipRow: the same fault tombstones one row and the query answers.
    let db = ExploreDb::new();
    db.set_load_error_policy(ErrorPolicy::SkipRow);
    db.attach_raw(
        "raw",
        RawCsv::new(write_csv(&t), t.schema().clone()).unwrap(),
    );
    db.fail_points().arm("load.parse", Schedule::Nth(3));
    let skipped = db.query("raw", &q).unwrap();
    assert_eq!(
        skipped.column("count(qty)").unwrap().as_f64().unwrap()[0],
        499.0
    );
    assert_eq!(db.rows_skipped("raw"), Some(1));

    // load.map: positional-map bypass is bit-identical.
    let db = ExploreDb::new();
    db.attach_raw(
        "raw",
        RawCsv::new(write_csv(&t), t.schema().clone()).unwrap(),
    );
    let truth = {
        let plain = ExploreDb::new();
        plain.register("mem", t.clone());
        plain.query(
            "mem",
            &Query::new().group("region").agg(AggFunc::Sum, "price"),
        )
    }
    .unwrap();
    db.fail_points()
        .arm("load.map", Schedule::Seeded { seed: 7, one_in: 2 });
    let got = db
        .query(
            "raw",
            &Query::new().group("region").agg(AggFunc::Sum, "price"),
        )
        .unwrap();
    assert_bitwise_eq(&truth, &got, "load.map bypass");
}
