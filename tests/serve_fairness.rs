//! Fairness, starvation and scale behaviour of the serving layer.
//!
//! One heavy session must not starve many light ones: the scheduler's
//! fair-queueing key (consumed quanta first, earliest deadline second,
//! FIFO last) lets fresh light sessions overtake a heavy session's
//! backlog, deadline budgets rank ahead of best-effort work, and forced
//! overload produces typed rejections — never panics — with the truth
//! re-served after backoff.
//!
//! Routing a query through the serving layer must never change what it
//! computes, only when it runs: the differential matrix
//! (`tests/differential_matrix.rs`) holds every query shape through a
//! session to the direct engine's bits. On top sits the scale proof:
//! 1000+ concurrent sessions multiplexed over a 4-worker scheduler all
//! complete with results bit-identical to direct engine calls, and the
//! seeded interactive workload's checksum is unchanged when driven
//! through `explore-serve` with sessions ≫ scheduler workers.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use exploration::cache::CachePolicy;
use exploration::exec::ExecPolicy;
use exploration::serve::{ServeConfig, ServeEngine, Ticket};
use exploration::storage::gen::{sales_table, SalesConfig};
use exploration::storage::{AggFunc, Predicate, Query, StorageError, Table, MORSEL_ROWS};
use exploration::workload::{DriveMode, WorkloadConfig, WorkloadRunner};
use exploration::ExploreDb;

mod common;
use common::{assert_bitwise_eq, query_shapes, sales};

fn served(cfg: ServeConfig) -> ServeEngine {
    let db = ExploreDb::new();
    db.register(
        "sales",
        sales_table(&SalesConfig {
            rows: 2_000,
            ..SalesConfig::default()
        }),
    );
    ServeEngine::with_config(db, cfg)
}

fn probe_query() -> Query {
    Query::new()
        .filter(Predicate::range("price", 50.0, 300.0))
        .group("region")
        .agg(AggFunc::Sum, "price")
}

/// Submit a task that records the global order in which it completed.
fn submit_ordered(
    session: &exploration::serve::Session,
    order: &Arc<AtomicU64>,
    spin: Duration,
) -> Ticket<u64> {
    let order = Arc::clone(order);
    session
        .submit(move |_db| {
            std::thread::sleep(spin);
            Ok(order.fetch_add(1, Ordering::SeqCst))
        })
        .expect("queue sized for the test")
}

/// A heavy session that has already consumed service time sits in a
/// higher quanta bucket, so fresh light sessions submitted *after* its
/// backlog still run first — no starvation of interactive work behind
/// a batch analyst.
#[test]
fn light_sessions_overtake_a_heavy_sessions_backlog() {
    let serve = served(ServeConfig::with_workers(1).with_queue_limit(1_024));
    let order = Arc::new(AtomicU64::new(0));

    // Let the heavy session accumulate service time (≈ several quanta).
    let heavy = serve.session();
    for _ in 0..3 {
        heavy
            .run(|_db| {
                std::thread::sleep(Duration::from_millis(4));
                Ok(())
            })
            .unwrap();
    }
    assert!(
        heavy.consumed_ns() >= 8_000_000,
        "heavy session accumulated service time: {}ns",
        heavy.consumed_ns()
    );

    // Occupy the single worker so everything below queues up.
    let blocker = serve.session();
    let gate = blocker
        .submit(|_db| {
            std::thread::sleep(Duration::from_millis(60));
            Ok(())
        })
        .unwrap();

    // Heavy submits its backlog FIRST (earlier FIFO sequence) …
    let heavy_tickets: Vec<Ticket<u64>> = (0..6)
        .map(|_| submit_ordered(&heavy, &order, Duration::from_millis(1)))
        .collect();
    // … then eight fresh light sessions submit one query each.
    let light_sessions: Vec<_> = (0..8).map(|_| serve.session()).collect();
    let light_tickets: Vec<Ticket<u64>> = light_sessions
        .iter()
        .map(|s| submit_ordered(s, &order, Duration::ZERO))
        .collect();

    gate.wait().unwrap();
    let light_order: Vec<u64> = light_tickets.iter().map(|t| t.wait().unwrap()).collect();
    let heavy_order: Vec<u64> = heavy_tickets.iter().map(|t| t.wait().unwrap()).collect();
    let max_light = light_order.iter().max().unwrap();
    let min_heavy = heavy_order.iter().min().unwrap();
    assert!(
        max_light < min_heavy,
        "every light task completes before the heavy backlog: light {light_order:?} vs heavy {heavy_order:?}"
    );
}

/// Deadline budgets are an EDF tiebreak within a quanta bucket: light
/// sessions with budgets overtake a same-bucket best-effort backlog,
/// none of their generous deadlines is violated under load, and their
/// observed p95 latency stays bounded.
#[test]
fn deadline_sessions_rank_ahead_and_violate_nothing() {
    let serve = served(ServeConfig::with_workers(1).with_queue_limit(1_024));
    let order = Arc::new(AtomicU64::new(0));

    let blocker = serve.session();
    let gate = blocker
        .submit(|_db| {
            std::thread::sleep(Duration::from_millis(60));
            Ok(())
        })
        .unwrap();

    // Best-effort backlog from a fresh heavy session: same quanta
    // bucket (zero), no deadline, earlier FIFO sequence.
    let heavy = serve.session();
    let heavy_tickets: Vec<Ticket<u64>> = (0..6)
        .map(|_| submit_ordered(&heavy, &order, Duration::from_millis(1)))
        .collect();

    // Light sessions with generous budgets submitted afterwards.
    let light_sessions: Vec<_> = (0..8)
        .map(|_| serve.session().with_deadline(Some(Duration::from_secs(10))))
        .collect();
    let started = Instant::now();
    let light_tickets: Vec<Ticket<u64>> = light_sessions
        .iter()
        .map(|s| submit_ordered(s, &order, Duration::ZERO))
        .collect();

    gate.wait().unwrap();
    let mut latencies = Vec::new();
    let mut light_order = Vec::new();
    for t in &light_tickets {
        // A violated budget would surface as DeadlineExceeded here.
        light_order.push(t.wait().expect("no light deadline is violated"));
        latencies.push(started.elapsed());
    }
    let heavy_order: Vec<u64> = heavy_tickets.iter().map(|t| t.wait().unwrap()).collect();
    assert!(
        light_order.iter().max().unwrap() < heavy_order.iter().min().unwrap(),
        "deadline holders drain before best-effort: light {light_order:?} vs heavy {heavy_order:?}"
    );
    latencies.sort();
    let p95 = latencies[(latencies.len() * 95).div_ceil(100).saturating_sub(1)];
    assert!(
        p95 < Duration::from_secs(5),
        "light p95 stays bounded under heavy load: {p95:?}"
    );
}

/// Forced overload: a bounded queue behind a busy worker rejects with
/// the typed `Overloaded` error carrying the observed depth — never a
/// panic — and once pressure clears, a backoff-and-retry loop gets the
/// exact same answer a direct engine gives.
#[test]
fn overload_rejects_typed_and_reserves_truth_after_backoff() {
    let truth = {
        let db = ExploreDb::new();
        db.register(
            "sales",
            sales_table(&SalesConfig {
                rows: 2_000,
                ..SalesConfig::default()
            }),
        );
        db.query("sales", &probe_query()).unwrap()
    };

    let serve = served(ServeConfig::with_workers(1).with_queue_limit(2));
    let blocker = serve.session();
    let gate = blocker
        .submit(|_db| {
            std::thread::sleep(Duration::from_millis(50));
            Ok(())
        })
        .unwrap();

    let light = serve.session();
    let mut rejections = 0u64;
    let mut queued = Vec::new();
    for _ in 0..64 {
        match light.submit(|db| db.query("sales", &probe_query())) {
            Ok(t) => queued.push(t),
            Err(StorageError::Overloaded { queue_depth, limit }) => {
                assert_eq!(limit, 2);
                assert!(queue_depth >= limit, "depth reported at rejection");
                rejections += 1;
            }
            Err(other) => panic!("overload must reject typed, got: {other}"),
        }
    }
    assert!(rejections > 0, "forced overload produced typed rejections");

    gate.wait().unwrap();
    for t in &queued {
        assert_eq!(t.wait().unwrap(), truth);
    }
    // Backoff and retry until admitted: the truth is re-served.
    let reserved = loop {
        match light.submit(|db| db.query("sales", &probe_query())) {
            Ok(t) => break t.wait().unwrap(),
            Err(StorageError::Overloaded { .. }) => std::thread::yield_now(),
            Err(other) => panic!("unexpected error: {other}"),
        }
    };
    assert_eq!(reserved, truth);
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

    use std::sync::atomic::AtomicUsize;

    let db = ExploreDb::with_exec_policy(ExecPolicy::Serial);
    db.set_cache_policy(CachePolicy::on());
    db.register("sales", sales(MORSEL_ROWS + 4321));
    let serve = ServeEngine::with_config(db, ServeConfig::with_workers(4));
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
