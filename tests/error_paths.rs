//! Error-path coverage: malformed queries must return `Err` — never
//! panic, never return garbage — and must fail **identically** under
//! the serial and parallel execution policies, through `Query::run` and
//! on a raw table. A parallel executor that panics a worker thread on a
//! bad column name would poison the pool; these tests pin the contract
//! that validation errors surface as ordinary `Result`s on the
//! submitting thread under every policy.

use exploration::exec::{evaluate_selection, run_query, ExecPolicy, QueryCtx};
use exploration::loading::RawCsv;
use exploration::storage::csv::write_csv;
use exploration::storage::gen::{sales_table, SalesConfig};
use exploration::storage::{
    AggFunc, CmpOp, Predicate, Query, SortOrder, StorageError, Table, MORSEL_ROWS,
};
use exploration::ExploreDb;

const POLICIES: [ExecPolicy; 3] = [
    ExecPolicy::Serial,
    ExecPolicy::Parallel { workers: 1 },
    ExecPolicy::Parallel { workers: 4 },
];

fn tables() -> Vec<(&'static str, Table)> {
    let cfg = |rows| SalesConfig {
        rows,
        ..SalesConfig::default()
    };
    vec![
        ("empty", sales_table(&cfg(0))),
        ("small", sales_table(&cfg(500))),
        ("multi_morsel", sales_table(&cfg(MORSEL_ROWS + 99))),
    ]
}

/// Run `q` against every table through every way a query reaches the
/// pipeline — `run_query` under every policy, `Query::run`, and the same
/// rows attached as a raw file; all runs must return `Err`, and for a
/// given table the error must not depend on the route.
fn assert_errs_everywhere(q: &Query, context: &str) {
    for (tname, t) in &tables() {
        let db = ExploreDb::new();
        db.attach_raw(
            "raw",
            RawCsv::new(write_csv(t), t.schema().clone()).unwrap(),
        );
        let runs = POLICIES
            .iter()
            .map(|&policy| {
                (
                    format!("{policy:?}"),
                    run_query(t, q, &QueryCtx::new(policy)),
                )
            })
            .chain([("Query::run".to_string(), q.run(t))])
            .chain([("raw table".to_string(), db.query("raw", q))]);
        let mut errors = Vec::new();
        for (route, run) in runs {
            let err = match run {
                Err(e) => e,
                Ok(got) => panic!(
                    "{context} on {tname} through {route} must err, got {} rows",
                    got.num_rows()
                ),
            };
            errors.push(err);
        }
        assert!(
            errors.windows(2).all(|w| w[0] == w[1]),
            "{context} on {tname}: routes disagree: {errors:?}"
        );
    }
}

#[test]
fn unknown_filter_column_errs() {
    assert_errs_everywhere(
        &Query::new().filter(Predicate::cmp("nope", CmpOp::Eq, 1.0)),
        "unknown filter column",
    );
}

#[test]
fn unknown_projection_column_errs() {
    assert_errs_everywhere(
        &Query::new().select(&["region", "missing"]),
        "unknown projection column",
    );
}

#[test]
fn unknown_group_and_agg_columns_err() {
    assert_errs_everywhere(
        &Query::new().group("missing").agg(AggFunc::Count, "qty"),
        "unknown group column",
    );
    assert_errs_everywhere(
        &Query::new().group("region").agg(AggFunc::Sum, "missing"),
        "unknown aggregate column",
    );
}

#[test]
fn unknown_order_column_errs() {
    assert_errs_everywhere(
        &Query::new().order("missing", SortOrder::Asc),
        "unknown order column",
    );
}

#[test]
fn type_mismatched_predicate_errs() {
    // Comparing a string column against a number, and a float column
    // against a string, must both be type errors — not empty results.
    assert_errs_everywhere(
        &Query::new().filter(Predicate::cmp("region", CmpOp::Eq, 3.0)),
        "number literal vs string column",
    );
    assert_errs_everywhere(
        &Query::new().filter(Predicate::eq("price", "expensive")),
        "string literal vs float column",
    );
    // Non-exact float literal against an Int64 column.
    assert_errs_everywhere(
        &Query::new().filter(Predicate::cmp("qty", CmpOp::Ge, 2.5)),
        "fractional literal vs int column",
    );
}

#[test]
fn string_aggregate_errs() {
    assert_errs_everywhere(
        &Query::new().agg(AggFunc::Sum, "region"),
        "sum over string column",
    );
}

#[test]
fn empty_table_valid_queries_succeed_not_panic() {
    // The flip side: on an empty table, *valid* queries succeed with
    // empty (or single-row global-aggregate) results under all policies.
    let empty = sales_table(&SalesConfig {
        rows: 0,
        ..SalesConfig::default()
    });
    for policy in POLICIES {
        let scan = run_query(&empty, &Query::new(), &QueryCtx::new(policy)).unwrap();
        assert_eq!(scan.num_rows(), 0);
        let grouped = run_query(
            &empty,
            &Query::new().group("region").agg(AggFunc::Sum, "price"),
            &QueryCtx::new(policy),
        )
        .unwrap();
        assert_eq!(grouped.num_rows(), 0, "no groups on empty input");
        let global = run_query(
            &empty,
            &Query::new().agg(AggFunc::Count, "qty"),
            &QueryCtx::new(policy),
        )
        .unwrap();
        assert_eq!(
            global.num_rows(),
            1,
            "global aggregate always yields one row"
        );
    }
}

#[test]
fn selection_errors_match_across_policies() {
    let t = sales_table(&SalesConfig {
        rows: MORSEL_ROWS + 10,
        ..SalesConfig::default()
    });
    for policy in POLICIES {
        let err = evaluate_selection(&t, &Predicate::eq("ghost", 1i64), &QueryCtx::new(policy))
            .unwrap_err();
        assert_eq!(err, StorageError::UnknownColumn("ghost".into()));
    }
}

#[test]
fn engine_unknown_table_errs_under_both_policies() {
    for policy in POLICIES {
        let db = ExploreDb::with_exec_policy(policy);
        db.register(
            "sales",
            sales_table(&SalesConfig {
                rows: 100,
                ..SalesConfig::default()
            }),
        );
        let q = Query::new().agg(AggFunc::Count, "qty");
        assert!(db.query("sales", &q).is_ok());
        let err = db.query("missing_table", &q).unwrap_err();
        assert_eq!(err, StorageError::UnknownTable("missing_table".into()));
        assert!(db.facets("missing_table", &Predicate::True, 1, 3).is_err());
    }
}

// --- Loading-layer error paths: malformed CSV and typed cancellation ---

mod loading_errors {
    use exploration::exec::QueryCtx;
    use exploration::loading::{AdaptiveLoader, ErrorPolicy, RawCsv};
    use exploration::storage::{AggFunc, DataType, Field, Query, Schema, StorageError};

    fn bad_csv() -> RawCsv {
        let schema = Schema::new(vec![
            Field::new("a", DataType::Int64),
            Field::new("b", DataType::Float64),
        ])
        .unwrap();
        // Line 3 holds a non-numeric `a`; everything else is clean.
        RawCsv::new("a,b\n1,2.5\nnope,3.0\n4,5.5\n".to_owned(), schema).unwrap()
    }

    /// A genuinely malformed row surfaces as a typed CSV error (with
    /// the 1-based file line) under the default Abort policy — never a
    /// panic — and the loader stays usable.
    #[test]
    fn malformed_row_aborts_with_typed_error() {
        let mut loader = AdaptiveLoader::new(bad_csv());
        let q = Query::new().agg(AggFunc::Sum, "a");
        match loader.query(&q, &QueryCtx::none()) {
            Err(StorageError::Csv { line, .. }) => assert_eq!(line, 3),
            other => panic!("expected CSV error, got {other:?}"),
        }
        // Clean columns still load on the same loader.
        let ok = loader
            .query(&Query::new().agg(AggFunc::Sum, "b"), &QueryCtx::none())
            .unwrap();
        assert_eq!(ok.column("sum(b)").unwrap().as_f64().unwrap()[0], 11.0);
    }

    /// Under `SkipRow` the malformed row is tombstoned: queries answer
    /// over the surviving rows, the skip is counted, and the dead row
    /// is excluded from *every* later view (including clean columns).
    #[test]
    fn malformed_row_skips_under_skiprow_policy() {
        let mut loader = AdaptiveLoader::new(bad_csv());
        loader.set_error_policy(ErrorPolicy::SkipRow);
        assert_eq!(loader.error_policy(), ErrorPolicy::SkipRow);
        let got = loader
            .query(&Query::new().agg(AggFunc::Sum, "a"), &QueryCtx::none())
            .unwrap();
        assert_eq!(got.column("sum(a)").unwrap().as_f64().unwrap()[0], 5.0);
        assert_eq!(loader.rows_skipped(), 1);
        // The dead row's `b` value (3.0) must not leak into views.
        let b = loader
            .query(&Query::new().agg(AggFunc::Sum, "b"), &QueryCtx::none())
            .unwrap();
        assert_eq!(b.column("sum(b)").unwrap().as_f64().unwrap()[0], 8.0);
        assert_eq!(loader.rows_skipped(), 1, "row is only skipped once");
    }
}

mod cancellation_errors {
    use super::*;
    use exploration::{CancelToken, SessionCtx};

    /// A pre-cancelled token fails queries with exactly
    /// `StorageError::Cancelled` under every policy — same typed error,
    /// no panic, no partial result.
    #[test]
    fn cancelled_token_errs_identically_under_all_policies() {
        let t = sales_table(&SalesConfig {
            rows: MORSEL_ROWS + 99,
            ..SalesConfig::default()
        });
        let q = Query::new().group("region").agg(AggFunc::Sum, "price");
        for policy in POLICIES {
            let db = ExploreDb::with_exec_policy(policy);
            db.register("sales", t.clone());
            let token = CancelToken::new();
            token.cancel();
            let overlay = SessionCtx::default().with_cancel(Some(token));
            assert_eq!(
                db.with_session(&overlay, |db| db.query("sales", &q))
                    .unwrap_err(),
                StorageError::Cancelled,
                "{policy:?}"
            );
            // The same engine still answers outside the overlay.
            db.query("sales", &q).unwrap();
        }
    }

    /// The new typed variants render stable, human-readable messages.
    #[test]
    fn new_error_variants_display() {
        assert_eq!(StorageError::Cancelled.to_string(), "query cancelled");
        assert_eq!(
            StorageError::DeadlineExceeded.to_string(),
            "query deadline exceeded"
        );
        assert!(StorageError::Internal("lost state".into())
            .to_string()
            .contains("lost state"));
    }
}
