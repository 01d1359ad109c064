//! Sharded/unsharded differential suite: every query shape, at every
//! shard count, under either execution policy and with the cache off,
//! cold, or warm, must be **bit-identical** (floats via `to_bits`) to
//! the unsharded engine. On top of the exactness matrix: per-shard
//! epoch locality (a mutation to one shard must not evict the other
//! shards' cache entries) and seeded chaos over the `shard.dispatch` /
//! `shard.merge` fail points, which may only degrade gracefully.

use exploration::cache::{CacheConfig, CachePolicy, Fingerprint};
use exploration::exec::ExecPolicy;
use exploration::shard::{scoped_name, ShardConfig, ShardPolicy};
use exploration::storage::rng::SplitMix64;
use exploration::storage::{
    CmpOp, Column, DataType, Predicate, Query, Schema, StorageError, Table, Value, MORSEL_ROWS,
};
use exploration::{CancelToken, ExploreDb, Schedule, SessionCtx};

mod common;
use common::{assert_bitwise_eq, query_shapes, sales};

/// The two table scales of the parallel differential suite: several
/// morsels with a ragged tail (shard boundaries fall mid-morsel), and a
/// sub-morsel degenerate where every shard is a morsel fragment.
fn table_sizes() -> [usize; 2] {
    [777, 2 * MORSEL_ROWS + 4321]
}

/// The shard counts under test: trivial, even, the default, and a prime
/// that never divides the table evenly.
const SHARD_COUNTS: [usize; 4] = [1, 2, 4, 7];

fn shard_policy(count: usize) -> ShardPolicy {
    ShardPolicy::On(ShardConfig {
        count,
        // The matrix includes sub-morsel tables; let them shard anyway.
        min_rows_per_shard: 1,
    })
}

/// A budget large enough that this workload never evicts.
fn roomy_policy() -> CachePolicy {
    CachePolicy::On(CacheConfig {
        byte_budget: 1 << 30,
        ..CacheConfig::default()
    })
}

/// The exactness matrix: 12 shapes × {1, 2, 4, 7} shards ×
/// {Serial, Parallel} × cache {off, cold, warm}, bitwise vs unsharded.
#[test]
fn every_shape_is_bitwise_for_every_shard_count() {
    for rows in table_sizes() {
        let t = sales(rows);
        for policy in [ExecPolicy::Serial, ExecPolicy::Parallel { workers: 4 }] {
            // Unsharded, uncached truth.
            let plain = ExploreDb::with_exec_policy(policy);
            plain.register("sales", t.clone());
            let shapes = query_shapes();
            let truths: Vec<Table> = shapes
                .iter()
                .map(|(name, q)| {
                    plain
                        .query("sales", q)
                        .unwrap_or_else(|e| panic!("{name} truth: {e}"))
                })
                .collect();

            for count in SHARD_COUNTS {
                // Cache off.
                let off = ExploreDb::with_shard_policy(shard_policy(count));
                off.set_exec_policy(policy);
                off.register("sales", t.clone());
                for ((name, q), truth) in shapes.iter().zip(&truths) {
                    let got = off
                        .query("sales", q)
                        .unwrap_or_else(|e| panic!("{name}: {e}"));
                    assert_bitwise_eq(
                        truth,
                        &got,
                        &format!("{name} uncached ({rows} rows, {count} shards, {policy:?})"),
                    );
                }

                // Cache cold then warm.
                let on = ExploreDb::with_shard_policy(shard_policy(count));
                on.set_exec_policy(policy);
                on.set_cache_policy(roomy_policy());
                on.register("sales", t.clone());
                for pass in ["cold", "warm"] {
                    for ((name, q), truth) in shapes.iter().zip(&truths) {
                        let got = on
                            .query("sales", q)
                            .unwrap_or_else(|e| panic!("{name} {pass}: {e}"));
                        assert_bitwise_eq(
                            truth,
                            &got,
                            &format!("{name} {pass} ({rows} rows, {count} shards, {policy:?})"),
                        );
                    }
                    if pass == "cold" {
                        let stats = on.cache_stats();
                        assert!(stats.insertions > 0, "cold pass populates: {stats:?}");
                        assert_eq!(stats.hits, 0, "cold pass must not hit: {stats:?}");
                    }
                }
                assert!(
                    on.cache_stats().hits > 0,
                    "warm pass serves from cache ({count} shards)"
                );
            }
        }
    }
}

/// Epoch locality: a mutation routed to one shard invalidates only that
/// shard's cache entries. With 4 shards and a workload of per-shard
/// scan entries, appending rows (which lands in the last shard) must
/// leave **all** other-shard entries live — comfortably above the ≥90%
/// acceptance bar.
#[test]
fn mutation_in_one_shard_keeps_other_shards_cached() {
    let t = sales(2 * MORSEL_ROWS + 4321);
    let db = ExploreDb::with_shard_policy(shard_policy(4));
    db.set_cache_policy(roomy_policy());
    db.register("sales", t.clone());

    // Five scan shapes (no order/limit, so the cached per-shard entry
    // key is the query itself), each caching one entry per shard.
    let scans: Vec<Query> = (0..5)
        .map(|i| {
            Query::new().filter(Predicate::range(
                "price",
                50.0 + 10.0 * i as f64,
                900.0 - 25.0 * i as f64,
            ))
        })
        .collect();
    for q in &scans {
        db.query("sales", q).unwrap();
    }

    let cache = db.cache();
    let live = |q: &Query, shard: usize| {
        cache.contains(&Fingerprint::for_query(&scoped_name("sales", shard), q))
    };
    for q in &scans {
        for shard in 0..4 {
            assert!(live(q, shard), "entry missing before mutation");
        }
    }
    let epochs_before: Vec<u64> = (0..4)
        .map(|s| db.table_epoch(&scoped_name("sales", s)))
        .collect();

    // Mutate: append one row — owned by the last shard.
    let row = t.row(0).unwrap();
    db.push_row("sales", row).unwrap();

    // Only the owning shard's epoch moved...
    for (s, &epoch) in epochs_before.iter().enumerate().take(3) {
        assert_eq!(
            db.table_epoch(&scoped_name("sales", s)),
            epoch,
            "shard {s} epoch must not move"
        );
    }
    assert_eq!(
        db.table_epoch(&scoped_name("sales", 3)),
        epochs_before[3] + 1
    );

    // ...and retention over the other shards' entries is 100% ≥ 90%.
    let (mut retained, mut total) = (0, 0);
    for q in &scans {
        for shard in 0..3 {
            total += 1;
            if live(q, shard) {
                retained += 1;
            }
        }
        assert!(!live(q, 3), "mutated shard's entry must die");
    }
    assert_eq!(total, 15);
    assert!(
        retained * 100 >= total * 90,
        "cross-shard retention {retained}/{total} below 90%"
    );

    // The warm entries actually serve: re-running one scan hits the
    // three retained shards and misses only the mutated one.
    let before = db.cache_stats();
    let got = db.query("sales", &scans[0]).unwrap();
    let after = db.cache_stats();
    assert_eq!(after.hits - before.hits, 3, "three shards served warm");
    assert_eq!(after.misses - before.misses, 1, "one shard recomputed");

    // And the answer reflects the mutation, bit-identically to an
    // unsharded engine over the mutated table.
    let plain = ExploreDb::new();
    let mut mutated = t.clone();
    mutated.push_row(t.row(0).unwrap()).unwrap();
    plain.register("sales", mutated);
    assert_bitwise_eq(
        &plain.query("sales", &scans[0]).unwrap(),
        &got,
        "post-mutation scan",
    );
}

/// Two sessions mutating *disjoint* shards of the same table from two
/// threads (the ROADMAP per-shard-lock follow-on): both mutated shards'
/// epochs bump, the untouched shards' epochs — and cache entries —
/// survive, and the final table is bit-identical to an unsharded engine
/// that applied the same updates serially. The row-indexed `id` column
/// makes shard ownership of each update deterministic: 4 shards ×
/// 1 000 rows, so ids [0, 1000) live in shard 0 and [3000, 4000) in
/// shard 3.
#[test]
fn two_sessions_mutating_disjoint_shards_keep_other_shards_warm() {
    use std::sync::{Arc as StdArc, Barrier};

    let rows = 4_000usize;
    let ids: Vec<i64> = (0..rows as i64).collect();
    let vals: Vec<f64> = (0..rows).map(|i| (i % 97) as f64).collect();
    let t = Table::new(
        Schema::of(&[("id", DataType::Int64), ("val", DataType::Float64)]),
        vec![Column::from(ids), Column::from(vals)],
    )
    .unwrap();

    let db = StdArc::new(ExploreDb::with_shard_policy(shard_policy(4)));
    db.set_cache_policy(roomy_policy());
    db.register("t", t.clone());

    // Warm one scan entry per shard.
    let scan = Query::new().filter(Predicate::cmp("val", CmpOp::Ge, 0.0));
    db.query("t", &scan).unwrap();
    let cache = db.cache();
    for shard in 0..4 {
        assert!(
            cache.contains(&Fingerprint::for_query(&scoped_name("t", shard), &scan)),
            "shard {shard} entry missing before mutation"
        );
    }
    let epochs_before: Vec<u64> = (0..4)
        .map(|s| db.table_epoch(&scoped_name("t", s)))
        .collect();

    // Session A updates rows of shard 0, session B rows of shard 3,
    // concurrently; the barrier lines both writers up.
    let barrier = StdArc::new(Barrier::new(2));
    let jobs = [(0i64, 500i64, 1.5f64), (3_000, 3_500, 2.5)];
    let handles: Vec<_> = jobs
        .into_iter()
        .map(|(lo, hi, v)| {
            let db = StdArc::clone(&db);
            let barrier = StdArc::clone(&barrier);
            std::thread::spawn(move || {
                let session = SessionCtx::new();
                barrier.wait();
                db.with_session(&session, |db| {
                    db.update_where("t", &Predicate::range("id", lo, hi), "val", Value::Float(v))
                })
            })
        })
        .collect();
    for h in handles {
        assert_eq!(h.join().unwrap().unwrap(), 500, "each session hit its rows");
    }

    // Both mutated shards' epochs bumped; the untouched shards' didn't.
    for (s, &before) in epochs_before.iter().enumerate() {
        let after = db.table_epoch(&scoped_name("t", s));
        if s == 0 || s == 3 {
            assert_eq!(after, before + 1, "mutated shard {s} epoch must bump");
        } else {
            assert_eq!(after, before, "untouched shard {s} epoch must not move");
        }
    }

    // Untouched shards' entries survive; mutated shards' entries died.
    for shard in [1usize, 2] {
        assert!(
            cache.contains(&Fingerprint::for_query(&scoped_name("t", shard), &scan)),
            "untouched shard {shard} entry must survive"
        );
    }
    for shard in [0usize, 3] {
        assert!(
            !cache.contains(&Fingerprint::for_query(&scoped_name("t", shard), &scan)),
            "mutated shard {shard} entry must die"
        );
    }

    // Re-running serves the two untouched shards warm and recomputes
    // exactly the two mutated ones...
    let before = db.cache_stats();
    let got = db.query("t", &scan).unwrap();
    let after = db.cache_stats();
    assert_eq!(after.hits - before.hits, 2, "two shards served warm");
    assert_eq!(after.misses - before.misses, 2, "two shards recomputed");

    // ...bit-identically to an unsharded engine applying the same
    // updates one after the other.
    let plain = ExploreDb::new();
    plain.register("t", t);
    for (lo, hi, v) in jobs {
        plain
            .update_where("t", &Predicate::range("id", lo, hi), "val", Value::Float(v))
            .unwrap();
    }
    assert_bitwise_eq(
        &plain.query("t", &scan).unwrap(),
        &got,
        "post-mutation scan vs unsharded truth",
    );
}

/// The engine stores a table once. Sharded, registration splits the rows
/// and lets go of the `Arc` it was handed; unsharded, the one shard *is*
/// that `Arc`, so the whole-table view costs nothing either.
#[test]
fn engine_holds_one_copy() {
    use std::sync::Arc;

    let t = Arc::new(sales(2 * MORSEL_ROWS + 4321));
    let db = ExploreDb::with_shard_policy(shard_policy(4));
    db.register("sales", Arc::clone(&t));
    assert_eq!(
        Arc::strong_count(&t),
        1,
        "a split engine keeps no second copy"
    );
    assert_eq!(db.table("sales").unwrap().as_ref(), t.as_ref());

    let db = ExploreDb::new();
    db.register("sales", Arc::clone(&t));
    assert!(Arc::ptr_eq(&db.table("sales").unwrap(), &t));

    // One copy also means a write to rows nobody else holds is made in
    // place, not to a copy the engine took of its own snapshot.
    drop(t);
    let before = Arc::as_ptr(&db.table("sales").unwrap());
    db.update_where("sales", &Predicate::True, "qty", Value::Int(1))
        .unwrap();
    assert_eq!(before, Arc::as_ptr(&db.table("sales").unwrap()));
}

/// With no second copy to fall back on, changing the layout has to carry
/// every mutation along: push/append/update under 4 shards, regather to
/// one, split into 7 — after each step the whole-table view and all
/// twelve shapes are bit-identical to an unsharded engine given the
/// same mutations.
#[test]
fn policy_toggle_preserves_mutations() {
    let t = sales(2 * MORSEL_ROWS + 4321);
    let plain = ExploreDb::new();
    let db = ExploreDb::with_shard_policy(shard_policy(4));
    db.set_cache_policy(roomy_policy());
    let batch = sales(777);
    // One update inside a shard, one across every shard boundary.
    let narrow = Predicate::range("price", 100.0, 110.0);
    let wide = Predicate::cmp("qty", CmpOp::Ge, 5.0);
    for engine in [&plain, &db] {
        engine.register("sales", t.clone());
        engine.push_row("sales", t.row(7).unwrap()).unwrap();
        engine.append_rows("sales", &batch).unwrap();
        let n = engine
            .update_where("sales", &wide, "discount", Value::Float(0.5))
            .unwrap();
        assert!(n > MORSEL_ROWS, "the wide update spans shards");
        engine
            .update_where("sales", &narrow, "qty", Value::Int(3))
            .unwrap();
    }

    let check = |context: &str| {
        assert_bitwise_eq(
            &plain.table("sales").unwrap(),
            &db.table("sales").unwrap(),
            &format!("{context}: whole-table view"),
        );
        for (name, q) in &query_shapes() {
            // Twice: computed, then served by whatever the layout cached.
            for pass in ["cold", "warm"] {
                assert_bitwise_eq(
                    &plain.query("sales", q).unwrap(),
                    &db.query("sales", q).unwrap(),
                    &format!("{context}: {name} {pass}"),
                );
            }
        }
    };
    check("4 shards");
    db.set_shard_policy(ShardPolicy::Off);
    assert!(db.shard_stats("sales").is_none());
    check("toggled off");
    db.set_shard_policy(shard_policy(7));
    assert_eq!(db.shard_stats("sales").unwrap().len(), 7);
    check("7 shards");

    // The new layout takes writes like the first one did.
    for engine in [&plain, &db] {
        engine.push_row("sales", t.row(11).unwrap()).unwrap();
        engine
            .update_where("sales", &wide, "discount", Value::Float(0.25))
            .unwrap();
    }
    check("7 shards, mutated again");
}

/// Fail points reachable through a sharded `ExploreDb::query`, the two
/// shard-specific sites composed with the generic exec/cache ones.
const POINTS: &[&str] = &[
    "shard.dispatch",
    "shard.merge",
    "exec.spawn",
    "exec.morsel",
    "cache.lookup",
    "cache.admit",
];

fn chaos_iters() -> usize {
    std::env::var("CHAOS_ITERS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(150)
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

/// Seeded chaos over the shard fail points (composed with exec/cache
/// ones): every run is bit-identical to the fault-free truth or a clean
/// typed cancellation — and the same engine, disarmed, still answers
/// exactly.
#[test]
fn seeded_shard_fault_schedules_never_corrupt_results() {
    let t = sales(2 * MORSEL_ROWS + 4321);
    let shapes = query_shapes();
    let truths: Vec<Table> = {
        let db = ExploreDb::with_exec_policy(ExecPolicy::Serial);
        db.register("sales", t.clone());
        shapes
            .iter()
            .map(|(name, q)| {
                db.query("sales", q)
                    .unwrap_or_else(|e| panic!("truth for {name}: {e}"))
            })
            .collect()
    };

    for iter in 0..chaos_iters() {
        let mut rng = SplitMix64::new(0x5AA2_D000 + iter as u64);
        let shape_idx = rng.range_i64(0, shapes.len() as i64) as usize;
        let policy = if rng.range_i64(0, 2) == 0 {
            ExecPolicy::Serial
        } else {
            ExecPolicy::Parallel {
                workers: rng.range_i64(1, 5) as usize,
            }
        };
        let cache_on = rng.range_i64(0, 2) == 0;
        let count = SHARD_COUNTS[rng.range_i64(1, SHARD_COUNTS.len() as i64) as usize];
        let (name, query) = &shapes[shape_idx];
        let context =
            format!("iter {iter}: {name} policy={policy:?} cache={cache_on} shards={count}");

        let db = ExploreDb::with_shard_policy(shard_policy(count));
        db.set_exec_policy(policy);
        if cache_on {
            db.set_cache_policy(roomy_policy());
        }
        db.register("sales", t.clone());
        if cache_on {
            // Warm this shape fault-free so lookup faults have entries.
            db.query("sales", query).unwrap();
        }

        let faults = db.fail_points();
        // Always at least one shard point; sometimes generic ones too.
        faults.arm(
            POINTS[rng.range_i64(0, 2) as usize],
            random_schedule(&mut rng),
        );
        for _ in 0..rng.range_i64(0, 3) {
            faults.arm(
                POINTS[rng.range_i64(0, POINTS.len() as i64) as usize],
                random_schedule(&mut rng),
            );
        }
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
        // left behind (cache entry, shard mirror, pool) surfaces here.
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

/// Forced degradation is graceful and observed: with `shard.dispatch`
/// and `shard.merge` armed `Always`, every query still answers
/// bit-identically, and the degradation events land in the `fault.*`
/// counters when observability is on.
#[test]
fn forced_shard_degradation_is_bitwise_and_counted() {
    use exploration::obs::ObsPolicy;

    let t = sales(2 * MORSEL_ROWS + 4321);
    let plain = ExploreDb::new();
    plain.register("sales", t.clone());
    let db = ExploreDb::with_shard_policy(shard_policy(4));
    db.set_exec_policy(ExecPolicy::Parallel { workers: 4 });
    db.set_obs_policy(ObsPolicy::on());
    db.register("sales", t);

    let faults = db.fail_points();
    faults.arm("shard.dispatch", Schedule::Always);
    faults.arm("shard.merge", Schedule::Always);
    for (name, q) in &query_shapes() {
        let truth = plain.query("sales", q).unwrap();
        let got = db
            .query("sales", q)
            .unwrap_or_else(|e| panic!("{name} degraded: {e}"));
        assert_bitwise_eq(&truth, &got, &format!("{name} degraded"));
    }
    let snap = db.metrics_snapshot();
    assert!(
        snap.counter("fault.shard.serial_fanout") > 0,
        "dispatch degradation counted"
    );
    assert!(
        snap.counter("fault.shard.remerge") > 0,
        "merge degradation counted"
    );
    faults.disarm_all();

    // A sharded aggregate is the executor's aggregate over the shards:
    // it degrades through the executor's fail points, not the shard
    // ones.
    assert_eq!(snap.counter("fault.exec.serial_fallback"), 0);
    db.set_exec_policy(ExecPolicy::parallel());
    faults.arm("exec.morsel", Schedule::Always);
    let (name, q) = query_shapes()
        .into_iter()
        .find(|(_, q)| !q.aggregates.is_empty())
        .expect("an aggregate shape");
    let got = db.query("sales", &q).unwrap();
    assert_bitwise_eq(
        &plain.query("sales", &q).unwrap(),
        &got,
        &format!("{name} with exec.morsel armed"),
    );
    assert!(
        db.metrics_snapshot().counter("fault.exec.serial_fallback") > 0,
        "a sharded aggregate passes the exec fail points"
    );
    faults.disarm_all();
}
