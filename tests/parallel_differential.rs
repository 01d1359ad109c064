//! Serial/parallel differential harness for the morsel-driven executor.
//!
//! Every supported query shape runs under both [`ExecPolicy::Serial`]
//! and [`ExecPolicy::Parallel`] and the result tables are compared
//! **bit-for-bit** — float cells by `to_bits`, not approximate equality.
//! The executor earns this by construction: both policies share the
//! morsel decomposition and merge partials in morsel order, so the only
//! thing parallelism changes is which thread computes a morsel.
//!
//! The executor-identity cases extend that to every way a query reaches
//! the pipeline — `Query::run`, a raw table, a private speculator — and
//! hold the one answer against an independent oracle; a cuboid, which
//! runs the pipeline unsplit, is held to it up to float rounding.
//!
//! The second half stress-tests the fan-out: many concurrent sessions
//! submitting queries at once (exercising the busy-flag inline fallback
//! and the shared claim counter), and concurrent batched cracker queries.

use std::sync::Arc;

use exploration::cache::CachePolicy;
use exploration::cracking::ConcurrentCracker;
use exploration::cube::DataCube;
use exploration::exec::{evaluate_selection, run_query, ExecPolicy, QueryCtx};
use exploration::loading::RawCsv;
use exploration::prefetch::RangeRequest;
use exploration::storage::csv::write_csv;
use exploration::storage::gen::{sales_table, uniform_i64, SalesConfig};
use exploration::storage::{
    AggFunc, CmpOp, Column, DataType, Predicate, Query, Schema, SortOrder, Table, MORSEL_ROWS,
};
use exploration::{ExploreDb, Schedule};

mod common;
use common::{assert_bitwise_eq, multi_morsel_table, oracle, query_shapes, sales};

/// A table smaller than one morsel (degenerate decomposition).
fn small_table() -> Table {
    sales(777)
}

/// Run a query under serial and 4-worker-parallel policies and require
/// bit-identical output.
fn assert_policies_agree(t: &Table, q: &Query, context: &str) {
    let serial = run_query(t, q, &QueryCtx::none()).unwrap();
    let parallel = run_query(t, q, &QueryCtx::new(ExecPolicy::Parallel { workers: 4 })).unwrap();
    assert_bitwise_eq(&serial, &parallel, context);
}

#[test]
fn every_query_shape_is_bit_identical_across_policies() {
    let big = multi_morsel_table();
    let small = small_table();
    for (name, q) in query_shapes() {
        assert_policies_agree(&big, &q, &format!("{name} (multi-morsel)"));
        assert_policies_agree(&small, &q, &format!("{name} (sub-morsel)"));
    }
}

#[test]
fn empty_table_agrees_across_policies() {
    let empty = sales(0);
    for (name, q) in query_shapes() {
        assert_policies_agree(&empty, &q, &format!("{name} (empty table)"));
    }
}

#[test]
fn worker_counts_do_not_change_results() {
    let t = multi_morsel_table();
    let q = Query::new()
        .filter(Predicate::range("price", 100.0, 700.0))
        .group("region")
        .agg(AggFunc::Avg, "price")
        .order("avg(price)", SortOrder::Asc);
    let reference = run_query(&t, &q, &QueryCtx::none()).unwrap();
    for workers in [0, 1, 2, 3, 4, 8, 64] {
        let got = run_query(&t, &q, &QueryCtx::new(ExecPolicy::Parallel { workers })).unwrap();
        assert_bitwise_eq(&reference, &got, &format!("workers = {workers}"));
    }
}

#[test]
fn selection_vectors_are_identical_across_policies() {
    let t = multi_morsel_table();
    let preds = [
        Predicate::True,
        Predicate::range("price", 100.0, 500.0),
        Predicate::eq("region", "region2"),
        Predicate::cmp("qty", CmpOp::Ge, 5.0).not(),
    ];
    for p in &preds {
        let serial = evaluate_selection(&t, p, &QueryCtx::none()).unwrap();
        let parallel =
            evaluate_selection(&t, p, &QueryCtx::new(ExecPolicy::Parallel { workers: 4 })).unwrap();
        assert_eq!(serial, parallel);
        // And the morsel-wise serial path matches the original
        // single-pass evaluator exactly.
        assert_eq!(serial, p.evaluate(&t).unwrap());
    }
}

/// Three morsels and a ragged tail: the table the executor-identity
/// cases below share.
fn identity_table() -> Table {
    sales(3 * MORSEL_ROWS + 1234)
}

/// There is one executor: `Query::run` is the morsel pipeline walked on
/// the calling thread, so for every shape — float aggregates included —
/// it equals `run_query` under either policy down to the bit. And the
/// one answer is the right one: it matches the independent oracle.
#[test]
fn query_run_equals_run_query_under_either_policy() {
    let t = identity_table();
    for (name, q) in query_shapes() {
        let reference = q.run(&t).unwrap();
        for policy in [ExecPolicy::Serial, ExecPolicy::Parallel { workers: 4 }] {
            let got = run_query(&t, &q, &QueryCtx::new(policy)).unwrap();
            assert_bitwise_eq(&reference, &got, &format!("{name} ({policy:?})"));
        }
        let truth = oracle::run(&t, &q).expect("every shape is a valid query");
        oracle::assert_matches(&reference, &truth, &q, name);
    }
}

/// A raw file answers as if it had been loaded: the same table attached
/// raw and registered gives the same bits, on the loader's first touch
/// (cold) and from its column cache (warm).
#[test]
fn raw_table_equals_registered_table() {
    let t = identity_table();
    let db = ExploreDb::new();
    db.register("mem", t.clone());
    let raw = RawCsv::new(write_csv(&t), t.schema().clone()).unwrap();
    db.attach_raw("raw", raw);
    for (name, q) in query_shapes() {
        let mem = db.query("mem", &q).unwrap();
        for pass in ["cold", "warm"] {
            let got = db.query("raw", &q).unwrap();
            assert_bitwise_eq(&mem, &got, &format!("{name} ({pass} loader)"));
        }
    }
}

/// A speculator answers with the same bits whether or not the engine's
/// cache policy routes it through the shared result cache.
#[test]
fn speculator_answers_do_not_depend_on_cache_policy() {
    let t = identity_table();
    let answers = |policy: CachePolicy| -> Vec<u64> {
        let db = ExploreDb::with_cache_policy(policy);
        db.register("sales", t.clone());
        let spec = db.speculator("sales", 2).unwrap();
        [AggFunc::Avg, AggFunc::Sum, AggFunc::Var, AggFunc::Count]
            .into_iter()
            .flat_map(|func| [(1, 9), (3, 6)].map(|(low, high)| (func, low, high)))
            .map(|(func, low, high)| {
                let req = RangeRequest {
                    column: "qty".into(),
                    low,
                    high,
                    func,
                    measure: "price".into(),
                };
                spec.execute(&req).unwrap().to_bits()
            })
            .collect()
    };
    assert_eq!(answers(CachePolicy::Off), answers(CachePolicy::on()));
}

/// A cuboid of the data-cube lattice is the grouped query the engine
/// answers: the same cells in the same order, bit for bit on a table of
/// one morsel. The lattice runs the pipeline with the whole table as one
/// morsel (`Query::run_unsplit` — the summation order its cells are
/// pinned under by `benchmark/`), so above one morsel it is held to the
/// engine's answer like the oracle is: exact but for float rounding.
#[test]
fn cuboid_equals_the_grouped_query() {
    for (t, bitwise) in [(sales(MORSEL_ROWS), true), (identity_table(), false)] {
        cuboids_match_grouped_queries(t, bitwise);
    }
}

fn cuboids_match_grouped_queries(t: Table, bitwise: bool) {
    let db = ExploreDb::new();
    db.register("sales", t.clone());
    let same = |cuboid: &Table, queried: &Table, q: &Query, context: &str| match bitwise {
        true => assert_bitwise_eq(cuboid, queried, context),
        false => oracle::assert_matches(cuboid, queried, q, context),
    };
    for func in [AggFunc::Sum, AggFunc::Avg, AggFunc::Std] {
        let mut cube = DataCube::new(t.clone(), &["region", "channel"], "price", func).unwrap();
        // Cuboids group in sorted dimension order, ordered by the first.
        let q = Query::new()
            .group("channel")
            .group("region")
            .agg(func, "price")
            .order("channel", SortOrder::Asc);
        let cuboid = cube.cuboid(&["region", "channel"]).unwrap();
        same(
            cuboid,
            &db.query("sales", &q).unwrap(),
            &q,
            &format!("{func} cuboid"),
        );
        let q = Query::new().agg(func, "price");
        let total = cube.cuboid(&[]).unwrap();
        same(
            total,
            &db.query("sales", &q).unwrap(),
            &q,
            &format!("{func} grand total"),
        );
    }
}

/// A table whose group-by key column has (almost) one group per row —
/// far more groups than a single morsel holds rows, so every worker's
/// interner outgrows any per-morsel scratch assumptions.
fn high_cardinality_table() -> Table {
    let rows = MORSEL_ROWS + 9_000;
    let keys = uniform_i64(rows, 0, 50_000_000, 7);
    let vals = uniform_i64(rows, -1_000, 1_000, 8);
    Table::new(
        Schema::of(&[("k", DataType::Int64), ("v", DataType::Int64)]),
        vec![Column::from(keys), Column::from(vals)],
    )
    .unwrap()
}

#[test]
fn high_cardinality_group_by_agrees_across_worker_counts() {
    let t = high_cardinality_table();
    let q = Query::new()
        .group("k")
        .agg(AggFunc::Sum, "v")
        .agg(AggFunc::Count, "v");
    let reference = run_query(&t, &q, &QueryCtx::none()).unwrap();
    assert!(
        reference.num_rows() > MORSEL_ROWS,
        "cardinality check: {} groups should exceed one morsel's {} rows",
        reference.num_rows(),
        MORSEL_ROWS
    );
    for workers in [1, 2, 3, 8] {
        let got = run_query(&t, &q, &QueryCtx::new(ExecPolicy::Parallel { workers })).unwrap();
        assert_bitwise_eq(&reference, &got, &format!("high-card, workers = {workers}"));
    }
}

#[test]
fn single_group_agrees_across_worker_counts() {
    // Every row lands in the same group: the per-worker interner holds
    // one slot and every morsel batch merges into it.
    let t = sales_table(&SalesConfig {
        rows: 2 * MORSEL_ROWS + 4321,
        regions: 1,
        ..SalesConfig::default()
    });
    let q = Query::new()
        .group("region")
        .agg(AggFunc::Sum, "price")
        .agg(AggFunc::Avg, "discount")
        .agg(AggFunc::Var, "price");
    let reference = run_query(&t, &q, &QueryCtx::none()).unwrap();
    assert_eq!(reference.num_rows(), 1, "one region → one group");
    for workers in [1, 2, 3, 8] {
        let got = run_query(&t, &q, &QueryCtx::new(ExecPolicy::Parallel { workers })).unwrap();
        assert_bitwise_eq(
            &reference,
            &got,
            &format!("single group, workers = {workers}"),
        );
    }
}

#[test]
fn empty_selection_agrees_across_worker_counts() {
    // A predicate matching nothing: no worker ever materializes an
    // aggregation state, and the merged output is the empty group set.
    let t = multi_morsel_table();
    let q = Query::new()
        .filter(Predicate::cmp("price", CmpOp::Lt, -1.0))
        .group("region")
        .agg(AggFunc::Sum, "price");
    let reference = run_query(&t, &q, &QueryCtx::none()).unwrap();
    assert_eq!(reference.num_rows(), 0);
    for workers in [1, 2, 3, 8] {
        let got = run_query(&t, &q, &QueryCtx::new(ExecPolicy::Parallel { workers })).unwrap();
        assert_bitwise_eq(
            &reference,
            &got,
            &format!("empty selection, workers = {workers}"),
        );
    }
}

#[test]
fn seeded_morsel_chaos_stays_bit_identical_across_worker_counts() {
    // Seeded `exec.morsel` panics force mid-flight serial fallbacks; the
    // degraded run must still be bit-identical to the fault-free serial
    // answer for every worker count.
    let t = multi_morsel_table();
    let q = Query::new()
        .filter(Predicate::range("price", 100.0, 700.0))
        .group("region")
        .group("channel")
        .agg(AggFunc::Sum, "price")
        .agg(AggFunc::Avg, "qty");
    let truth = {
        let serial = ExploreDb::with_exec_policy(ExecPolicy::Serial);
        serial.register("sales", t.clone());
        serial.query("sales", &q).unwrap()
    };
    for workers in [1, 2, 3, 8] {
        let db = ExploreDb::with_exec_policy(ExecPolicy::Parallel { workers });
        db.register("sales", t.clone());
        let faults = db.fail_points();
        for seed in 0..6u64 {
            faults.arm("exec.morsel", Schedule::Seeded { seed, one_in: 3 });
            let got = db.query("sales", &q).expect("degrades, not fails");
            assert_bitwise_eq(&truth, &got, &format!("workers = {workers}, seed = {seed}"));
        }
        faults.disarm_all();
    }
}

#[test]
fn stress_concurrent_sessions_hammer_the_pool() {
    let t = Arc::new(multi_morsel_table());
    let shapes: Vec<(String, Query)> = query_shapes()
        .into_iter()
        .map(|(n, q)| (n.to_string(), q))
        .collect();
    let references: Vec<Table> = shapes
        .iter()
        .map(|(_, q)| run_query(&t, q, &QueryCtx::none()).unwrap())
        .collect();
    let references = Arc::new(references);
    let shapes = Arc::new(shapes);

    std::thread::scope(|s| {
        for session in 0..8 {
            let t = Arc::clone(&t);
            let shapes = Arc::clone(&shapes);
            let references = Arc::clone(&references);
            s.spawn(move || {
                for round in 0..6 {
                    let i = (session + round) % shapes.len();
                    let (name, q) = &shapes[i];
                    let got = run_query(&t, q, &QueryCtx::new(ExecPolicy::Parallel { workers: 4 }))
                        .unwrap();
                    assert_bitwise_eq(
                        &references[i],
                        &got,
                        &format!("session {session} round {round}: {name}"),
                    );
                }
            });
        }
    });
}

#[test]
fn stress_concurrent_cracker_batches() {
    let base = uniform_i64(60_000, 0, 6_000, 21);
    let cracker = Arc::new(ConcurrentCracker::new(base.clone()));
    let queries: Vec<(i64, i64)> = (0..48).map(|i| (i * 120, i * 120 + 400)).collect();
    let expected: Vec<usize> = queries
        .iter()
        .map(|&(lo, hi)| base.iter().filter(|&&v| v >= lo && v < hi).count())
        .collect();

    std::thread::scope(|s| {
        for _ in 0..6 {
            let cracker = Arc::clone(&cracker);
            let queries = queries.clone();
            let expected = expected.clone();
            s.spawn(move || {
                for _ in 0..4 {
                    let got: Vec<usize> = queries
                        .iter()
                        .map(|&(lo, hi)| cracker.query_count(lo, hi))
                        .collect();
                    assert_eq!(got, expected);
                }
            });
        }
    });
    cracker.with_column(|col| assert!(col.check_invariants()));
}
