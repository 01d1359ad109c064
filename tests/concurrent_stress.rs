//! Seeded reader × mutator × chaos stress over the decomposed engine
//! lock (DESIGN.md §14): many threads read while others mutate, with
//! fault schedules armed on the new lock-site fail points
//! (`engine.catalog_read`, `engine.table_write`) and the generic
//! exec/cache points. Every read must see a *consistent epoch-tagged
//! snapshot* — an exact answer over some complete state of the table —
//! or a typed error; never torn data. Epochs observed by any single
//! thread are monotone, and after `disarm_all` the engine serves exact
//! truth again.
//!
//! Tearing is made observable by construction: each mutator owns one
//! region of rows and every update sets the *whole* region to a single
//! new value, atomically under the table (and shard) write locks. Any
//! snapshot therefore shows `min == max` inside each region; a reader
//! that ever observes `min != max` caught a half-applied write. One
//! more reader holds the whole-table view (`ExploreDb::table`) to the
//! same standard while an appender grows the table: on a split table
//! that view is a concatenation of the shards, so it must come from one
//! consistent cut of them and its row count may only grow.
//!
//! Iteration count scales with `STRESS_ITERS` (default 4) for soak
//! runs, mirroring `CHAOS_ITERS`; the seeded schedules replay from the
//! iteration number, so a failure names its reproduction seed.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};

use exploration::cache::CachePolicy;
use exploration::shard::{ShardConfig, ShardPolicy};
use exploration::storage::rng::SplitMix64;
use exploration::storage::{
    AggFunc, Column, DataType, Predicate, Query, Schema, StorageError, Table, Value,
};
use exploration::{ExploreDb, Schedule, SessionCtx};

const REGIONS: usize = 4;
const ROWS_PER_REGION: usize = 500;

/// Fail points the stress reaches: the two catalog/write lock sites
/// introduced by the shared-read refactor, plus the generic read-path
/// points they compose with.
const POINTS: &[&str] = &[
    "engine.catalog_read",
    "engine.table_write",
    "exec.morsel",
    "cache.lookup",
    "cache.admit",
    "crack.reorg",
];

fn stress_iters() -> usize {
    std::env::var("STRESS_ITERS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(4)
}

/// A fault schedule drawn from the rng; unlike the chaos suites'
/// `random_schedule`, never `Always` and never one-in-one.
fn stress_schedule(rng: &mut SplitMix64) -> Schedule {
    match rng.range_i64(0, 3) {
        0 => Schedule::Nth(rng.range_i64(1, 6) as u64),
        1 => Schedule::FirstN(rng.range_i64(1, 4) as u64),
        _ => Schedule::Seeded {
            seed: rng.next_u64(),
            one_in: rng.range_i64(2, 6) as u64,
        },
    }
}

/// `id` row-indexed so regions (and shards, when sharding is on) are
/// deterministic; `val` starts at 0 everywhere.
fn region_table() -> Table {
    let rows = REGIONS * ROWS_PER_REGION;
    let ids: Vec<i64> = (0..rows as i64).collect();
    let vals: Vec<f64> = vec![0.0; rows];
    Table::new(
        Schema::of(&[("id", DataType::Int64), ("val", DataType::Float64)]),
        vec![Column::from(ids), Column::from(vals)],
    )
    .unwrap()
}

/// Min and max of `val` inside one region, via the engine's query path.
fn region_min_max(db: &ExploreDb, region: usize) -> Result<(f64, f64), StorageError> {
    let lo = (region * ROWS_PER_REGION) as i64;
    let hi = lo + ROWS_PER_REGION as i64;
    let q = Query::new()
        .filter(Predicate::range("id", lo, hi))
        .agg(AggFunc::Min, "val")
        .agg(AggFunc::Max, "val");
    let t = db.query("t", &q)?;
    let min = t.column("min(val)")?.as_f64().unwrap()[0];
    let max = t.column("max(val)")?.as_f64().unwrap()[0];
    Ok((min, max))
}

/// A fault injected by a schedule must surface as one of the engine's
/// typed errors — anything else (a panic already failed the thread, a
/// torn answer is caught by the snapshot checks) is a leak.
fn assert_typed(e: &StorageError, context: &str) {
    match e {
        StorageError::Internal(msg) => {
            assert!(
                msg.contains("injected"),
                "{context}: untyped internal: {msg}"
            )
        }
        StorageError::Cancelled | StorageError::DeadlineExceeded => {}
        StorageError::Overloaded { .. } => {}
        other => panic!("{context}: fault leaked as {other}"),
    }
}

fn run_stress(shard: ShardPolicy, iter: usize) {
    let mut rng = SplitMix64::new(0x57E5_5000 + iter as u64);
    let db = Arc::new(ExploreDb::with_shard_policy(shard));
    db.set_cache_policy(CachePolicy::on());
    db.register("t", region_table());

    let faults = db.fail_points();
    for _ in 0..rng.range_i64(1, 4) {
        let point = POINTS[rng.range_i64(0, POINTS.len() as i64) as usize];
        faults.arm(point, stress_schedule(&mut rng));
    }

    let writes_per_mutator = 12u64;
    let stop = Arc::new(AtomicBool::new(false));
    // Mutators + appender + readers + the coordinating test thread all
    // line up.
    let start = Arc::new(Barrier::new(REGIONS + 1 + 3 + 1));

    // One mutator per region: sets the whole region to successive
    // values 1, 2, ... under its own session. Injected write failures
    // are typed and retried-by-skipping — the value sequence stays
    // monotone either way.
    let mutators: Vec<_> = (0..REGIONS)
        .map(|region| {
            let db = Arc::clone(&db);
            let start = Arc::clone(&start);
            std::thread::spawn(move || {
                let session = SessionCtx::new();
                let lo = (region * ROWS_PER_REGION) as i64;
                let hi = lo + ROWS_PER_REGION as i64;
                start.wait();
                let mut applied = 0u64;
                for step in 1..=writes_per_mutator {
                    let r = db.with_session(&session, |db| {
                        db.update_where(
                            "t",
                            &Predicate::range("id", lo, hi),
                            "val",
                            Value::Float(step as f64),
                        )
                    });
                    match r {
                        Ok(n) => {
                            assert_eq!(n, ROWS_PER_REGION, "region {region} update width");
                            applied = step;
                        }
                        Err(e) => assert_typed(&e, &format!("mutator {region}")),
                    }
                }
                (region, applied)
            })
        })
        .collect();

    // The appender: grows the table past the regions (ids no region or
    // crack probe selects), so the whole-table view's row count moves.
    let appender = {
        let db = Arc::clone(&db);
        let start = Arc::clone(&start);
        std::thread::spawn(move || {
            let first = (REGIONS * ROWS_PER_REGION) as i64;
            start.wait();
            for i in 0..writes_per_mutator as i64 {
                let row = vec![Value::Int(first + i), Value::Float(0.0)];
                if let Err(e) = db.push_row("t", row) {
                    assert_typed(&e, "appender");
                }
            }
        })
    };

    // Three readers: aggregate scans over every region, a cracked_range
    // probe, and per-thread epoch monotonicity. Reader 0 also takes the
    // whole-table view each round: it must be one complete state of the
    // table — one value per region — and never lose rows.
    let readers: Vec<_> = (0..3)
        .map(|reader| {
            let db = Arc::clone(&db);
            let stop = Arc::clone(&stop);
            let start = Arc::clone(&start);
            std::thread::spawn(move || {
                let session = SessionCtx::new();
                let mut last_epoch = 0u64;
                let mut last_rows = 0;
                let mut reads = 0u64;
                start.wait();
                loop {
                    // Read before the round, so the round that starts
                    // after the writers are done is a full one.
                    let settled = stop.load(Ordering::SeqCst);
                    if reader == 0 {
                        match db.table("t") {
                            Ok(t) => {
                                let vals = t.column("val").unwrap().as_f64().unwrap();
                                for region in 0..REGIONS {
                                    let vals = &vals[region * ROWS_PER_REGION..][..ROWS_PER_REGION];
                                    assert!(
                                        vals.iter().all(|v| v.to_bits() == vals[0].to_bits()),
                                        "reader 0: torn whole-table view in region {region}"
                                    );
                                }
                                assert!(
                                    t.num_rows() >= last_rows,
                                    "reader 0: rows went backwards ({last_rows} -> {})",
                                    t.num_rows()
                                );
                                last_rows = t.num_rows();
                            }
                            Err(e) => assert_typed(&e, "reader 0 (view)"),
                        }
                    }
                    for region in 0..REGIONS {
                        match db.with_session(&session, |db| region_min_max(db, region)) {
                            Ok((min, max)) => {
                                // The tearing detector: a consistent
                                // snapshot has one value per region.
                                assert_eq!(
                                    min.to_bits(),
                                    max.to_bits(),
                                    "reader {reader}: torn read in region {region}"
                                );
                                assert!(
                                    (0.0..=writes_per_mutator as f64).contains(&min),
                                    "reader {reader}: impossible value {min}"
                                );
                            }
                            Err(e) => assert_typed(&e, &format!("reader {reader}")),
                        }
                    }
                    // The adaptive-index read path under the same chaos.
                    let lo = (reads % 1_000) as i64;
                    match db.with_session(&session, |db| db.cracked_range("t", "id", lo, lo + 10)) {
                        Ok(ids) => assert_eq!(ids.len(), 10, "reader {reader}: cracked width"),
                        Err(e) => assert_typed(&e, &format!("reader {reader} (crack)")),
                    }
                    // Epochs only ever move forward.
                    let epoch = db.table_epoch("t");
                    assert!(
                        epoch >= last_epoch,
                        "reader {reader}: epoch moved backwards ({last_epoch} -> {epoch})"
                    );
                    last_epoch = epoch;
                    reads += 1;
                    if settled {
                        break;
                    }
                }
                reads
            })
        })
        .collect();

    start.wait();
    let mut finals = [0u64; REGIONS];
    for m in mutators {
        let (region, applied) = m.join().expect("mutator thread");
        finals[region] = applied;
    }
    appender.join().expect("appender thread");
    // Every reader runs one more round, over the settled state.
    stop.store(true, Ordering::SeqCst);
    for r in readers {
        assert!(r.join().expect("reader thread") > 0, "reader starved");
    }

    // Disarmed, the engine serves the exact settled truth: every region
    // uniformly at the last value its mutator successfully applied.
    faults.disarm_all();
    for (region, &applied) in finals.iter().enumerate() {
        let (min, max) = region_min_max(&db, region).expect("post-chaos read");
        assert_eq!(min.to_bits(), max.to_bits(), "region {region} settled");
        assert_eq!(min, applied as f64, "region {region} final value");
    }
}

#[test]
fn readers_never_see_torn_data_under_mutation_and_chaos() {
    for iter in 0..stress_iters() {
        run_stress(ShardPolicy::Off, iter);
    }
}

/// The same property with per-shard write locks in play: regions
/// coincide with shards, so the mutators exercise disjoint-shard
/// concurrent mutation while readers fan out across all shards.
#[test]
fn sharded_readers_never_see_torn_data_under_mutation_and_chaos() {
    for iter in 0..stress_iters() {
        run_stress(
            ShardPolicy::On(ShardConfig {
                count: REGIONS,
                min_rows_per_shard: 1,
            }),
            iter,
        );
    }
}

/// And with shards that do *not* coincide with regions: 7 shards of
/// ~286 rows under 500-row regions, so every update is a multi-shard
/// write and neighbouring mutators contend for a shard.
#[test]
fn multi_shard_updates_are_atomic_to_every_reader() {
    for iter in 0..stress_iters() {
        run_stress(
            ShardPolicy::On(ShardConfig {
                count: 7,
                min_rows_per_shard: 1,
            }),
            iter,
        );
    }
}
