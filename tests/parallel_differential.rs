//! Serial/parallel differential harness for the morsel-driven executor.
//!
//! Every supported query shape runs under both [`ExecPolicy::Serial`]
//! and [`ExecPolicy::Parallel`] and the result tables are compared
//! **bit-for-bit** — float cells by `to_bits`, not approximate equality.
//! The executor earns this by construction: both policies share the
//! morsel decomposition and merge partials in morsel order, so the only
//! thing parallelism changes is which thread computes a morsel.
//!
//! The second half stress-tests the pool: many concurrent sessions
//! submitting queries at once (exercising the busy-pool inline fallback
//! and the work-stealing deques), and concurrent batched cracker queries.

use std::sync::Arc;

use exploration::cracking::ConcurrentCracker;
use exploration::exec::{evaluate_selection, run_query, ExecPolicy, QueryCtx};
use exploration::storage::gen::{sales_table, uniform_i64, SalesConfig};
use exploration::storage::{
    AggFunc, CmpOp, Column, DataType, Predicate, Query, Schema, SortOrder, Table, Value,
    MORSEL_ROWS,
};
use exploration::{ExploreDb, Schedule};

/// A table spanning several morsels plus a ragged tail, so the morsel
/// merge order actually matters.
fn multi_morsel_table() -> Table {
    sales_table(&SalesConfig {
        rows: 2 * MORSEL_ROWS + 4321,
        ..SalesConfig::default()
    })
}

/// A table smaller than one morsel (degenerate decomposition).
fn small_table() -> Table {
    sales_table(&SalesConfig {
        rows: 777,
        ..SalesConfig::default()
    })
}

/// Assert two tables are identical down to the float bit patterns.
fn assert_bitwise_eq(a: &Table, b: &Table, context: &str) {
    assert_eq!(a.schema(), b.schema(), "{context}: schema");
    assert_eq!(a.num_rows(), b.num_rows(), "{context}: row count");
    for field in a.schema().fields() {
        let ca = a.column(field.name()).unwrap_or_else(|e| {
            panic!("{context}: left table lost column {:?}: {e}", field.name())
        });
        let cb = b.column(field.name()).unwrap_or_else(|e| {
            panic!("{context}: right table lost column {:?}: {e}", field.name())
        });
        for row in 0..a.num_rows() {
            let va = ca
                .value(row)
                .unwrap_or_else(|e| panic!("{context}: {}[{row}] unreadable: {e}", field.name()));
            let vb = cb
                .value(row)
                .unwrap_or_else(|e| panic!("{context}: {}[{row}] unreadable: {e}", field.name()));
            match (va, vb) {
                (Value::Float(x), Value::Float(y)) => assert_eq!(
                    x.to_bits(),
                    y.to_bits(),
                    "{context}: {}[{row}] {x} vs {y}",
                    field.name()
                ),
                (x, y) => assert_eq!(x, y, "{context}: {}[{row}]", field.name()),
            }
        }
    }
}

/// Run a query under serial and 4-worker-parallel policies and require
/// bit-identical output.
fn assert_policies_agree(t: &Table, q: &Query, context: &str) {
    let serial = run_query(t, q, &QueryCtx::none()).unwrap();
    let parallel = run_query(t, q, &QueryCtx::new(ExecPolicy::Parallel { workers: 4 })).unwrap();
    assert_bitwise_eq(&serial, &parallel, context);
}

/// Every supported query shape, over both a multi-morsel and a
/// sub-morsel table.
fn query_shapes() -> Vec<(&'static str, Query)> {
    vec![
        ("full_scan", Query::new()),
        (
            "filter_scan",
            Query::new().filter(Predicate::range("price", 100.0, 600.0)),
        ),
        (
            "projection",
            Query::new()
                .filter(Predicate::cmp("qty", CmpOp::Ge, 5.0))
                .select(&["region", "price"]),
        ),
        (
            "order_limit",
            Query::new()
                .filter(Predicate::range("price", 50.0, 900.0))
                .select(&["product", "price"])
                .order("price", SortOrder::Desc)
                .take(123),
        ),
        (
            "global_aggregates",
            Query::new()
                .agg(AggFunc::Count, "qty")
                .agg(AggFunc::Sum, "price")
                .agg(AggFunc::Avg, "price")
                .agg(AggFunc::Min, "discount")
                .agg(AggFunc::Max, "discount")
                .agg(AggFunc::Var, "price")
                .agg(AggFunc::Std, "price"),
        ),
        (
            "filtered_global_aggregate",
            Query::new()
                .filter(Predicate::eq("channel", "channel1"))
                .agg(AggFunc::Avg, "price"),
        ),
        (
            "group_by",
            Query::new()
                .group("region")
                .agg(AggFunc::Count, "qty")
                .agg(AggFunc::Sum, "price"),
        ),
        (
            "multi_column_group_by",
            Query::new()
                .group("region")
                .group("channel")
                .agg(AggFunc::Avg, "price")
                .agg(AggFunc::Var, "discount"),
        ),
        (
            "full_pipeline",
            Query::new()
                .filter(Predicate::range("price", 50.0, 800.0).and(Predicate::cmp(
                    "qty",
                    CmpOp::Ge,
                    2.0,
                )))
                .group("product")
                .agg(AggFunc::Sum, "price")
                .agg(AggFunc::Avg, "qty")
                .order("sum(price)", SortOrder::Desc)
                .take(7),
        ),
        (
            "compound_predicate",
            Query::new().filter(
                Predicate::eq("region", "region0")
                    .or(Predicate::range("price", 0.0, 120.0))
                    .and(Predicate::cmp("qty", CmpOp::Lt, 8.0).not()),
            ),
        ),
        (
            "empty_result_filter",
            Query::new()
                .filter(Predicate::cmp("price", CmpOp::Lt, -1.0))
                .group("region")
                .agg(AggFunc::Sum, "price"),
        ),
        (
            "string_predicate_scan",
            Query::new()
                .filter(Predicate::eq("channel", "channel0"))
                .select(&["channel", "qty"]),
        ),
    ]
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
    let empty = sales_table(&SalesConfig {
        rows: 0,
        ..SalesConfig::default()
    });
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

#[test]
fn parallel_equals_reference_executor_for_scans() {
    // For non-aggregate shapes the morsel pipeline must equal
    // `Query::run` bitwise too (gather order is row order either way).
    let t = multi_morsel_table();
    for (name, q) in query_shapes() {
        if !q.aggregates.is_empty() {
            continue;
        }
        let reference = q.run(&t).unwrap();
        let parallel =
            run_query(&t, &q, &QueryCtx::new(ExecPolicy::Parallel { workers: 4 })).unwrap();
        assert_bitwise_eq(&reference, &parallel, name);
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
