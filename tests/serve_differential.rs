//! Serve-differential suite: routing a query through the serving layer
//! must never change what it computes — only when it runs.
//!
//! Every supported query shape is answered twice, by a direct engine
//! and by a session facade over an identically configured engine,
//! across Serial/Parallel execution and cache off/warm — bit-identical
//! down to float bit patterns. On top sits the scale proof: 1000+
//! concurrent sessions multiplexed over a 4-worker scheduler all
//! complete with results bit-identical to direct engine calls, and the
//! seeded interactive workload's checksum is unchanged when driven
//! through `explore-serve` with sessions ≫ scheduler workers.

use exploration::cache::CachePolicy;
use exploration::exec::ExecPolicy;
use exploration::serve::{ServeConfig, ServeEngine};
use exploration::storage::{AggFunc, Predicate, Query, Table, MORSEL_ROWS};
use exploration::workload::{DriveMode, WorkloadConfig, WorkloadRunner};
use exploration::ExploreDb;

mod common;
use common::{assert_bitwise_eq, query_shapes, sales};

/// A table spanning several morsels plus a ragged tail, so parallel
/// merge order matters (mirrors the other differential suites).
fn serve_table() -> Table {
    sales(MORSEL_ROWS + 4321)
}

/// An engine with the probe table and the given policies.
fn engine(table: &Table, policy: ExecPolicy, cache_on: bool) -> ExploreDb {
    let db = ExploreDb::with_exec_policy(policy);
    if cache_on {
        db.set_cache_policy(CachePolicy::on());
    }
    db.register("sales", table.clone());
    db
}

/// Every query shape × Serial/Parallel × cache off/warm: the session
/// facade answers bit-identically to a direct engine, on both the cold
/// and the warm (second) pass.
#[test]
fn session_facade_is_bitwise_identical_to_direct_engine() {
    let table = serve_table();
    let shapes = query_shapes();
    for policy in [ExecPolicy::Serial, ExecPolicy::Parallel { workers: 4 }] {
        for cache_on in [false, true] {
            let direct = engine(&table, policy, cache_on);
            let serve = ServeEngine::with_config(
                engine(&table, policy, cache_on),
                ServeConfig::with_workers(2),
            );
            for (name, query) in &shapes {
                let context = format!("{name} policy={policy:?} cache={cache_on}");
                let truth_cold = direct.query("sales", query).unwrap();
                let truth_warm = direct.query("sales", query).unwrap();
                let session = serve.session();
                let got_cold = session.query("sales", query).unwrap();
                let got_warm = session.query("sales", query).unwrap();
                assert_bitwise_eq(&truth_cold, &got_cold, &format!("{context} (cold)"));
                assert_bitwise_eq(&truth_warm, &got_warm, &format!("{context} (warm)"));
            }
        }
    }
}

/// The scale proof: 1200 concurrent sessions — 300× the worker count —
/// all submit before any result is consumed, and every answer is
/// bit-identical to the direct engine's truth for its shape. No
/// rejection (the queue is sized for the burst), no starvation (every
/// ticket completes), no corruption.
#[test]
fn thousand_plus_sessions_complete_on_four_workers_bit_identical() {
    const SESSIONS: usize = 1200;
    let table = sales(5_000);
    let shapes = query_shapes();
    let truths: Vec<Table> = {
        let db = ExploreDb::with_exec_policy(ExecPolicy::Serial);
        db.register("sales", table.clone());
        shapes
            .iter()
            .map(|(_, q)| db.query("sales", q).unwrap())
            .collect()
    };

    let db = ExploreDb::with_exec_policy(ExecPolicy::Serial);
    db.register("sales", table);
    let serve = ServeEngine::with_config(
        db,
        ServeConfig::with_workers(4).with_queue_limit(2 * SESSIONS),
    );
    let sessions: Vec<_> = (0..SESSIONS).map(|_| serve.session()).collect();
    let tickets: Vec<_> = sessions
        .iter()
        .enumerate()
        .map(|(i, s)| {
            let query = shapes[i % shapes.len()].1.clone();
            s.submit(move |db| db.query("sales", &query))
                .expect("queue sized for the full burst")
        })
        .collect();
    assert!(
        serve.queue_depth() > 0 || !tickets.is_empty(),
        "submission outpaces four workers"
    );
    for (i, ticket) in tickets.iter().enumerate() {
        let got = ticket.wait().unwrap();
        let (name, _) = &shapes[i % shapes.len()];
        assert_bitwise_eq(&truths[i % shapes.len()], &got, name);
    }
}

/// The seeded interactive workload produces the same deterministic
/// report (checksum included) whether interactions run directly
/// against the shared engine or ride the serve scheduler with
/// sessions ≫ workers.
#[test]
fn workload_checksum_unchanged_through_serve_layer() {
    let base = WorkloadConfig {
        sessions: 12,
        interactions: 10,
        rows: 6_000,
        threads: 4,
        ..WorkloadConfig::default()
    };
    let direct = WorkloadRunner::new(base.clone()).unwrap().run().unwrap();
    let served = WorkloadRunner::new(WorkloadConfig {
        mode: DriveMode::Serve {
            workers: 2,
            queue_limit: 256,
        },
        ..base
    })
    .unwrap()
    .run()
    .unwrap();
    assert_eq!(direct.deterministic(), served.deterministic());
    assert_eq!(served.errors, 0);
}

/// The refactor's headline: two serve workers execute independent warm
/// queries with genuinely overlapping service spans — the engine's
/// `&self` query path means workers share it instead of serializing
/// behind a `Mutex<ExploreDb>`.
///
/// Each submitted closure timestamps its service span against a common
/// epoch and, between its query and its return, waits (bounded) until
/// it has seen the *other* closure inside its span too. Under the old
/// one-lock model the first closure would hold the engine for its
/// whole span and the rendezvous could never happen; with the shared
/// engine both workers sit inside their spans simultaneously, and the
/// recorded timestamps prove the overlap. Gated on hosts with ≥ 4
/// cores (like `tests/parallel_speedup.rs`), where the scheduler can
/// genuinely park both workers at once.
#[test]
fn warm_queries_on_two_workers_overlap_their_service_spans() {
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    if cores < 4 {
        eprintln!("skipping span-overlap assertion: only {cores} core(s) available");
        return;
    }

    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;
    use std::time::{Duration, Instant};

    let table = serve_table();
    let serve = ServeEngine::with_config(
        engine(&table, ExecPolicy::Serial, true),
        ServeConfig::with_workers(4),
    );
    let query = Query::new()
        .filter(Predicate::range("price", 50.0, 600.0))
        .group("region")
        .agg(AggFunc::Sum, "price");
    // Warm the cache so both service spans are pure read traffic.
    serve.session().query("sales", &query).unwrap();

    let epoch = Instant::now();
    let in_span = Arc::new(AtomicUsize::new(0));
    let spawn = |serve: &ServeEngine| {
        let session = serve.session();
        let query = query.clone();
        let in_span = Arc::clone(&in_span);
        session
            .submit(move |db| {
                let start_ns = epoch.elapsed().as_nanos() as u64;
                db.query("sales", &query)?;
                in_span.fetch_add(1, Ordering::SeqCst);
                // Bounded rendezvous: stay inside the span until the
                // other worker's span is live too (or give up — the
                // timestamps below then fail the test with evidence).
                let deadline = Instant::now() + Duration::from_secs(10);
                while in_span.load(Ordering::SeqCst) < 2 && Instant::now() < deadline {
                    std::thread::yield_now();
                }
                let end_ns = epoch.elapsed().as_nanos() as u64;
                Ok((start_ns, end_ns))
            })
            .unwrap()
    };
    let first = spawn(&serve);
    let second = spawn(&serve);
    let (start_a, end_a) = first.wait().unwrap();
    let (start_b, end_b) = second.wait().unwrap();

    // The service spans must genuinely overlap: each opened before the
    // other closed.
    assert!(
        start_a.max(start_b) < end_a.min(end_b),
        "service spans never overlapped: [{start_a}, {end_a}] vs [{start_b}, {end_b}] ns"
    );
}
