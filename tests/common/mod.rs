//! Helpers shared by the integration suites (`mod common;` in each):
//! the sales tables and the per-size [`fixture`]s built once per
//! process, the 12 query shapes, the bitwise table comparison, the
//! cache, shard and chaos settings the suites share, and the
//! independent row-at-a-time [`oracle`].
#![allow(dead_code)]

pub mod oracle;

use std::sync::{Arc, OnceLock};

use exploration::cache::{CacheConfig, CachePolicy};
use exploration::exec::ExecPolicy;
use exploration::shard::{ShardConfig, ShardPolicy};
use exploration::storage::gen::{sales_table, SalesConfig};
use exploration::storage::rng::SplitMix64;
use exploration::storage::{
    AggFunc, CmpOp, Predicate, Query, SortOrder, Table, Value, MORSEL_ROWS,
};
use exploration::{ExploreDb, Schedule};

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

/// The table sizes of the differential matrix: empty, smaller than one
/// morsel, and one to three morsels with a ragged tail (shard
/// boundaries then fall mid-morsel).
pub fn table_sizes() -> [usize; 5] {
    [
        0,
        777,
        MORSEL_ROWS + 4321,
        2 * MORSEL_ROWS + 4321,
        3 * MORSEL_ROWS + 1234,
    ]
}

/// One table size's shared inputs: the sales table and the plain
/// serial engine's answer to each of [`query_shapes`], in order.
pub struct Fixture {
    pub table: Arc<Table>,
    pub truths: Vec<Table>,
}

/// The fixture at `rows`, one of [`table_sizes`]: built on first use,
/// once per process. [`assert_truths_match_oracle`] holds its truths to
/// the [`oracle`].
pub fn fixture(rows: usize) -> &'static Fixture {
    static FIXTURES: [OnceLock<Fixture>; 5] = [const { OnceLock::new() }; 5];
    let slot = (table_sizes().iter().position(|&r| r == rows))
        .unwrap_or_else(|| panic!("no fixture has {rows} rows"));
    FIXTURES[slot].get_or_init(|| {
        let table = Arc::new(sales(rows));
        let db = ExploreDb::with_exec_policy(ExecPolicy::Serial);
        db.register("sales", Arc::clone(&table));
        let truths = (query_shapes().iter())
            .map(|(name, q)| {
                (db.query("sales", q)).unwrap_or_else(|e| panic!("{name} truth ({rows} rows): {e}"))
            })
            .collect();
        Fixture { table, truths }
    })
}

/// Every truth of the fixture at `rows` is the [`oracle`]'s answer, up
/// to float rounding. The row-at-a-time oracle is the slow half of a
/// fixture, so it runs where a test asks for it, not on every build.
pub fn assert_truths_match_oracle(rows: usize) {
    let fx = fixture(rows);
    for ((name, q), truth) in query_shapes().iter().zip(&fx.truths) {
        let want = oracle::run(&fx.table, q).expect("every shape is a valid query");
        oracle::assert_matches(truth, &want, q, &format!("{name} ({rows} rows)"));
    }
}

/// A cache budget large enough that no suite's workload evicts, and no
/// admission floor, so what is cached (and so every hit count) does not
/// depend on how fast a query ran.
pub fn roomy_policy() -> CachePolicy {
    CachePolicy::On(CacheConfig {
        byte_budget: 1 << 30,
        admit_min_cost_ns: 0,
    })
}

/// The shard counts under test: trivial, even, the default, and a prime
/// that never divides a table evenly.
pub const SHARD_COUNTS: [usize; 4] = [1, 2, 4, 7];

/// `count` shards, however small the table.
pub fn shard_policy(count: usize) -> ShardPolicy {
    ShardPolicy::On(ShardConfig {
        count,
        min_rows_per_shard: 1,
    })
}

/// Fail points reachable through an unsharded `ExploreDb::query`.
pub const QUERY_POINTS: &[&str] = &[
    "exec.spawn",
    "exec.morsel",
    "cache.admit",
    "cache.lookup",
    "cache.evict",
];

/// Fail points reachable through a sharded `ExploreDb::query`: the two
/// shard sites first, then the generic exec and cache ones.
pub const SHARD_POINTS: &[&str] = &[
    "shard.dispatch",
    "shard.merge",
    "exec.spawn",
    "exec.morsel",
    "cache.lookup",
    "cache.admit",
];

/// How many seeded fault schedules a chaos loop runs: `CHAOS_ITERS`
/// when set (`ci.sh` pins 200 as the depth gate), else `default`.
pub fn chaos_iters(default: usize) -> usize {
    std::env::var("CHAOS_ITERS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(default)
}

/// A random fault schedule derived deterministically from the rng.
pub fn random_schedule(rng: &mut SplitMix64) -> Schedule {
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

/// Where two tables first differ down to the float bit patterns, or
/// `None` when they are identical.
fn first_difference(a: &Table, b: &Table) -> Option<String> {
    if a.schema() != b.schema() {
        return Some(format!("schema {:?} vs {:?}", a.schema(), b.schema()));
    }
    if a.num_rows() != b.num_rows() {
        return Some(format!("row count {} vs {}", a.num_rows(), b.num_rows()));
    }
    a.schema().fields().iter().find_map(|field| {
        let name = field.name();
        let (ca, cb) = (a.column(name).unwrap(), b.column(name).unwrap());
        // Float columns compare by bits (NaN equals NaN, 0.0 is not
        // -0.0); the other types compare exactly as they are.
        let same = match (ca.as_f64(), cb.as_f64()) {
            (Some(x), Some(y)) => x.iter().zip(y).all(|(x, y)| x.to_bits() == y.to_bits()),
            _ => ca == cb,
        };
        if same {
            return None;
        }
        (0..a.num_rows()).find_map(|row| {
            let (x, y) = (ca.value(row).unwrap(), cb.value(row).unwrap());
            let same = match (&x, &y) {
                (Value::Float(x), Value::Float(y)) => x.to_bits() == y.to_bits(),
                _ => x == y,
            };
            (!same).then(|| format!("{name}[{row}] {x} vs {y}"))
        })
    })
}

/// Assert two tables are identical down to the float bit patterns.
pub fn assert_bitwise_eq(a: &Table, b: &Table, context: &str) {
    if let Some(difference) = first_difference(a, b) {
        panic!("{context}: {difference}");
    }
}

/// Are two tables identical down to the float bit patterns? The
/// `bool` form of [`assert_bitwise_eq`], for `prop_assert!`.
pub fn tables_bitwise_equal(a: &Table, b: &Table) -> bool {
    first_difference(a, b).is_none()
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
