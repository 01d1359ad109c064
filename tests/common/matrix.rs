//! The differential matrix's rows and check, and its seeded chaos loop,
//! for the suites that run a slice of them (`#[path =
//! "common/matrix.rs"] mod matrix;` beside `mod common;`).
#![allow(dead_code)]

use std::sync::Arc;

use exploration::cache::CachePolicy;
use exploration::exec::{run_query, ExecPolicy, QueryCtx};
use exploration::loading::RawCsv;
use exploration::obs::ObsPolicy;
use exploration::serve::{ServeConfig, ServeEngine};
use exploration::storage::csv::write_csv;
use exploration::storage::rng::SplitMix64;
use exploration::storage::{Query, StorageError, MORSEL_ROWS};
use exploration::{CancelToken, ExploreDb, SessionCtx};

use crate::common::{
    assert_bitwise_eq, chaos_iters, fixture, query_shapes, random_schedule, roomy_policy,
    shard_policy, Fixture, QUERY_POINTS, SHARD_COUNTS, SHARD_POINTS,
};

/// How a query reaches its answer.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Route {
    /// `explore_exec::run_query` on the bare table.
    Kernel,
    /// `Query::run` on the bare table; the exec policy is not used.
    QueryRun,
    /// `ExploreDb::query` on an engine the table is registered with.
    Engine,
    /// A `ServeEngine` session (two workers) over such an engine.
    Served,
    /// `ExploreDb::query` on the table attached raw, as CSV text.
    Raw,
}

/// One row of the matrix.
#[derive(Clone, Copy, Debug)]
pub struct Mode {
    pub route: Route,
    pub exec: ExecPolicy,
    /// `None` leaves the table unsharded.
    pub shards: Option<usize>,
    /// [`roomy_policy`] when on, so the warm pass is served from cache.
    pub cache: bool,
    pub obs: bool,
}

pub const SERIAL: ExecPolicy = ExecPolicy::Serial;
pub const PARALLEL_4: ExecPolicy = ExecPolicy::Parallel { workers: 4 };

/// Serial, and parallel at 1, 2 and 4 workers.
pub const EXECS: [ExecPolicy; 4] = [
    SERIAL,
    ExecPolicy::Parallel { workers: 1 },
    ExecPolicy::Parallel { workers: 2 },
    PARALLEL_4,
];

/// The rows `route × execs`, unsharded, cache and obs off.
pub fn plain(route: Route, execs: &[ExecPolicy]) -> Vec<Mode> {
    rows(&[route], execs, &[None], &[false], &[false])
}

/// The rows `routes × execs × shards × caches × obs`.
pub fn rows(
    routes: &[Route],
    execs: &[ExecPolicy],
    shards: &[Option<usize>],
    caches: &[bool],
    obs: &[bool],
) -> Vec<Mode> {
    let mut modes = Vec::new();
    for &route in routes {
        for &exec in execs {
            for &shards in shards {
                for &cache in caches {
                    for &obs in obs {
                        modes.push(Mode {
                            route,
                            exec,
                            shards,
                            cache,
                            obs,
                        });
                    }
                }
            }
        }
    }
    modes
}

/// An engine configured as `mode` says, with the table not yet added.
fn engine(mode: Mode) -> ExploreDb {
    let db = ExploreDb::with_exec_policy(mode.exec);
    if let Some(count) = mode.shards {
        db.set_shard_policy(shard_policy(count));
    }
    if mode.cache {
        db.set_cache_policy(roomy_policy());
    }
    if mode.obs {
        db.set_obs_policy(ObsPolicy::on());
    }
    db
}

/// Run every shape through `mode` on the fixture at `rows` rows and
/// require the truth each time: once, and a second time on the same
/// engine when the first pass leaves state behind (a cache, a trace
/// ring, a loaded raw column, a served session). With the cache on, the
/// cold pass must admit and not hit, and the warm pass must hit.
fn check_mode(fx: &Fixture, rows: usize, mode: Mode) {
    let table = &fx.table;
    let db = engine(mode);
    match mode.route {
        Route::Kernel | Route::QueryRun => {}
        Route::Engine | Route::Served => db.register("sales", Arc::clone(table)),
        Route::Raw => {
            let raw = RawCsv::new(write_csv(table), table.schema().clone()).unwrap();
            db.attach_raw("sales", raw);
        }
    }
    // Only `Route::Served` goes through the scheduler; the other routes
    // call the engine directly or bypass it.
    let serve = ServeEngine::with_config(db, ServeConfig::with_workers(2));
    let ctx = QueryCtx::new(mode.exec);
    let answer = |q: &Query| match mode.route {
        Route::Kernel => run_query(table, q, &ctx),
        Route::QueryRun => q.run(table),
        Route::Engine | Route::Raw => serve.with_engine(|db| db.query("sales", q)),
        Route::Served => serve.session().query("sales", q),
    };

    let shapes = query_shapes();
    let stateful = mode.cache || mode.obs || matches!(mode.route, Route::Served | Route::Raw);
    let passes: &[&str] = if stateful {
        &["cold", "warm"]
    } else {
        &["cold"]
    };
    for &pass in passes {
        for ((name, q), truth) in shapes.iter().zip(&fx.truths) {
            let context = format!("{name} {pass} ({rows} rows, {mode:?})");
            let got = answer(q).unwrap_or_else(|e| panic!("{context}: {e}"));
            assert_bitwise_eq(truth, &got, &context);
        }
        if !mode.cache {
            continue;
        }
        let stats = serve.with_engine(|db| db.cache_stats());
        let context = format!("{pass} pass ({rows} rows, {mode:?}): {stats:?}");
        if pass == "cold" {
            assert!(stats.insertions > 0, "{context}: populates the cache");
            assert_eq!(stats.hits, 0, "{context}: must not hit");
        } else if mode.shards.is_none() {
            assert_eq!(stats.hits, shapes.len() as u64, "{context}: all exact hits");
        } else {
            assert!(stats.hits > 0, "{context}: serves from cache");
        }
    }
}

/// Every mode in `modes` on the fixture at each of `sizes`.
pub fn check_modes(sizes: &[usize], modes: &[Mode]) {
    for &rows in sizes {
        let fx = fixture(rows);
        for &mode in modes {
            check_mode(fx, rows, mode);
        }
    }
}

/// The two seeded fault streams. Iteration `i` of a stream derives its
/// whole run from `SplitMix64::new(seed_base + i)`, so a failure names
/// its reproduction seed.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Stream {
    /// Exec and cache fail points on an unsharded engine whose cache,
    /// when on, holds every shape.
    Exec,
    /// One shard fail point, maybe exec and cache ones too, on a sharded
    /// engine whose cache, when on, holds the queried shape.
    Shard,
}

impl Stream {
    fn seed_base(self) -> u64 {
        match self {
            Stream::Exec => 0xC4A0_5000,
            Stream::Shard => 0x5AA2_D000,
        }
    }

    fn default_iters(self) -> usize {
        match self {
            Stream::Exec => 40,
            Stream::Shard => 150,
        }
    }
}

/// Run `stream`'s seeded iterations (`CHAOS_ITERS`, else its default)
/// on the `2·MORSEL_ROWS + 4321` fixture. Every iteration arms random
/// fail points with random schedules, sometimes races a cancellation
/// budget, runs one shape, and requires the truth or a typed
/// cancellation; then disarms and requires the truth from the same
/// engine, so no fault left corrupt state behind.
pub fn seeded_fault_schedules(stream: Stream) {
    let fx = fixture(2 * MORSEL_ROWS + 4321);
    let shapes = query_shapes();
    for iter in 0..chaos_iters(stream.default_iters()) {
        let mut rng = SplitMix64::new(stream.seed_base() + iter as u64);
        let shape_idx = rng.range_i64(0, shapes.len() as i64) as usize;
        let policy = if rng.range_i64(0, 2) == 0 {
            ExecPolicy::Serial
        } else {
            ExecPolicy::Parallel {
                workers: rng.range_i64(1, 5) as usize,
            }
        };
        let cache_on = rng.range_i64(0, 2) == 0;
        let shards = (stream == Stream::Shard)
            .then(|| SHARD_COUNTS[rng.range_i64(1, SHARD_COUNTS.len() as i64) as usize]);
        let (name, query) = &shapes[shape_idx];
        let truth = &fx.truths[shape_idx];
        let context = format!(
            "{stream:?} iter {iter}: {name} policy={policy:?} cache={cache_on} shards={shards:?}"
        );

        let db = ExploreDb::with_exec_policy(policy);
        if let Some(count) = shards {
            db.set_shard_policy(shard_policy(count));
        }
        if cache_on {
            db.set_cache_policy(match stream {
                Stream::Exec => CachePolicy::on(),
                Stream::Shard => roomy_policy(),
            });
        }
        db.register("sales", Arc::clone(&fx.table));
        if cache_on {
            // Warm fault-free, so lookup and evict faults have
            // entries to chew on.
            let warm: &[(&str, Query)] = match stream {
                Stream::Exec => &shapes,
                Stream::Shard => &shapes[shape_idx..=shape_idx],
            };
            for (_, q) in warm {
                db.query("sales", q).unwrap();
            }
        }

        let faults = db.fail_points();
        match stream {
            Stream::Exec => {
                for _ in 0..rng.range_i64(1, 4) {
                    let point = QUERY_POINTS[rng.range_i64(0, QUERY_POINTS.len() as i64) as usize];
                    faults.arm(point, random_schedule(&mut rng));
                }
            }
            Stream::Shard => {
                // Always one shard point; sometimes generic ones too.
                let point = SHARD_POINTS[rng.range_i64(0, 2) as usize];
                faults.arm(point, random_schedule(&mut rng));
                for _ in 0..rng.range_i64(0, 3) {
                    let point = SHARD_POINTS[rng.range_i64(0, SHARD_POINTS.len() as i64) as usize];
                    faults.arm(point, random_schedule(&mut rng));
                }
            }
        }
        // One run in four also races a cancellation budget.
        let cancel = (rng.range_i64(0, 4) == 0)
            .then(|| CancelToken::after_checks(rng.range_i64(0, 12) as u64));

        let overlay = SessionCtx::default().with_cancel(cancel.clone());
        match db.with_session(&overlay, |db| db.query("sales", query)) {
            Ok(got) => assert_bitwise_eq(truth, &got, &context),
            Err(StorageError::Cancelled) => assert!(
                cancel.is_some(),
                "{context}: Cancelled without a cancel token"
            ),
            Err(e) => panic!("{context}: fault leaked as non-typed error: {e}"),
        }

        faults.disarm_all();
        let clean = (db.query("sales", query))
            .unwrap_or_else(|e| panic!("{context}: post-fault query failed: {e}"));
        assert_bitwise_eq(truth, &clean, &format!("{context} (post-fault)"));
    }
}
