//! Helpers shared by the integration suites (`mod common;` in each):
//! the sales tables, the 12 query shapes, the bitwise table comparison,
//! and the independent row-at-a-time [`oracle`].
#![allow(dead_code)]

pub mod oracle;

use exploration::storage::gen::{sales_table, SalesConfig};
use exploration::storage::{
    AggFunc, CmpOp, Predicate, Query, SortOrder, Table, Value, MORSEL_ROWS,
};

/// The seeded sales table at `rows` rows.
pub fn sales(rows: usize) -> Table {
    sales_table(&SalesConfig {
        rows,
        ..SalesConfig::default()
    })
}

/// A table spanning several morsels plus a ragged tail, so the morsel
/// merge order actually matters.
pub fn multi_morsel_table() -> Table {
    sales(2 * MORSEL_ROWS + 4321)
}

/// Assert two tables are identical down to the float bit patterns.
pub fn assert_bitwise_eq(a: &Table, b: &Table, context: &str) {
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

/// Are two tables identical down to the float bit patterns? The
/// `bool` form of [`assert_bitwise_eq`], for `prop_assert!`.
pub fn tables_bitwise_equal(a: &Table, b: &Table) -> bool {
    if a.schema() != b.schema() || a.num_rows() != b.num_rows() {
        return false;
    }
    a.schema().fields().iter().all(|f| {
        let (ca, cb) = (a.column(f.name()).unwrap(), b.column(f.name()).unwrap());
        (0..a.num_rows()).all(|r| match (ca.value(r).unwrap(), cb.value(r).unwrap()) {
            (Value::Float(x), Value::Float(y)) => x.to_bits() == y.to_bits(),
            (x, y) => x == y,
        })
    })
}

/// Every supported query shape: the 12 shapes every differential suite
/// walks.
pub fn query_shapes() -> Vec<(&'static str, Query)> {
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
