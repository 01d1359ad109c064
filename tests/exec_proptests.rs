//! Property-based differential testing of the morsel-driven executor.
//!
//! Random `Query` values (random predicate trees, group-bys, aggregate
//! lists, orderings, limits — valid *and* invalid) run under the serial
//! and parallel policies; the two must either both succeed with
//! bit-identical tables or both fail with the same error. The same
//! queries run over random partitions of a table (`run_query_parts`)
//! must match the whole table the same way, and every query must agree
//! with the independent oracle (`tests/common/oracle.rs`). A further
//! property pins cracked-range answers to full-scan equivalence on
//! random crack sequences.

use std::sync::OnceLock;

use proptest::prelude::*;

use exploration::cracking::CrackerColumn;
use exploration::exec::{evaluate_selection, run_query, run_query_parts, ExecPolicy, QueryCtx};
use exploration::storage::{
    mask_to_sel, AggFunc, CmpOp, Column, DataType, Predicate, Query, Schema, SortOrder, Table,
    MORSEL_ROWS,
};
use exploration::{FailPoints, Schedule};

mod common;
use common::{oracle, sales, tables_bitwise_equal};

/// A shared multi-morsel table (built once; cases only read it).
fn big_table() -> &'static Table {
    static TABLE: OnceLock<Table> = OnceLock::new();
    TABLE.get_or_init(|| sales(MORSEL_ROWS + 2048))
}

/// A predicate leaf: valid comparisons, plus occasional unknown columns
/// and type mismatches so error parity is exercised too.
fn pred_leaf() -> BoxedStrategy<Predicate> {
    prop_oneof![
        Just(Predicate::True),
        (0.0f64..1000.0, 0.0f64..1000.0).prop_map(|(a, b)| Predicate::range(
            "price",
            a.min(b),
            a.max(b)
        )),
        (0i64..12).prop_map(|v| Predicate::cmp("qty", CmpOp::Ge, v)),
        prop::sample::select(vec!["region0", "region1", "region5", "no_such_region"])
            .prop_map(|r| Predicate::eq("region", r)),
        prop::sample::select(vec!["price", "discount", "qty", "ghost_column"])
            .prop_map(|c| Predicate::cmp(c, CmpOp::Lt, 400.0)),
    ]
    .boxed()
}

/// One combinator layer over two leaves.
fn pred_tree() -> BoxedStrategy<Predicate> {
    (pred_leaf(), pred_leaf(), 0i64..4)
        .prop_map(|(a, b, shape)| match shape {
            0 => a.and(b),
            1 => a.or(b),
            2 => a.not(),
            _ => a,
        })
        .boxed()
}

/// Random group-by column lists (always existing columns; bad columns
/// are exercised through predicates and aggregates).
fn group_cols() -> BoxedStrategy<Vec<&'static str>> {
    prop_oneof![
        Just(Vec::new()),
        Just(vec!["region"]),
        Just(vec!["channel"]),
        Just(vec!["region", "channel"]),
        Just(vec!["product"]),
    ]
    .boxed()
}

/// Random aggregate lists, including string columns (a type error for
/// everything but COUNT) and unknown columns.
fn agg_list() -> BoxedStrategy<Vec<(AggFunc, &'static str)>> {
    let func = prop::sample::select(vec![
        AggFunc::Count,
        AggFunc::Sum,
        AggFunc::Avg,
        AggFunc::Min,
        AggFunc::Max,
        AggFunc::Var,
        AggFunc::Std,
    ]);
    let col = prop_oneof![
        4 => prop::sample::select(vec!["price", "discount", "qty"]),
        1 => prop::sample::select(vec!["region", "missing_col"]),
    ];
    prop::collection::vec((func, col), 0..3).boxed()
}

/// Assemble a `Query` from generated parts, picking an order column
/// that exists in the result shape (or none).
fn build_query(
    pred: Predicate,
    groups: &[&str],
    aggs: &[(AggFunc, &str)],
    order: i64,
    limit: Option<usize>,
) -> Query {
    let mut q = Query::new().filter(pred);
    for g in groups {
        q = q.group(g);
    }
    for &(f, c) in aggs {
        q = q.agg(f, c);
    }
    let order_col: Option<String> = if let Some(&(f, c)) = aggs.first() {
        Some(exploration::storage::Aggregate::new(f, c).result_name())
    } else if let Some(g) = groups.first() {
        Some((*g).to_string())
    } else {
        Some("price".to_string())
    };
    match (order, order_col) {
        (1, Some(c)) => q = q.order(&c, SortOrder::Asc),
        (2, Some(c)) => q = q.order(&c, SortOrder::Desc),
        _ => {}
    }
    if let Some(n) = limit {
        q = q.take(n);
    }
    q
}

/// Tables of assorted sizes around the morsel boundaries (built once),
/// so worker-count sweeps hit sub-morsel, exact-boundary, and
/// multi-morsel decompositions.
fn sized_tables() -> &'static Vec<Table> {
    static TABLES: OnceLock<Vec<Table>> = OnceLock::new();
    TABLES.get_or_init(|| {
        [
            0,
            1,
            777,
            4096,
            MORSEL_ROWS - 1,
            MORSEL_ROWS,
            MORSEL_ROWS + 1,
        ]
        .iter()
        .map(|&rows| sales(rows))
        .collect()
    })
}

/// Float values rich in boundary cases for the vectorized-vs-scalar
/// predicate property.
fn tricky_float() -> BoxedStrategy<f64> {
    prop_oneof![
        4 => -1000.0f64..1000.0,
        1 => prop::sample::select(vec![
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            -0.0,
            0.0,
            f64::MIN,
            f64::MAX,
            f64::EPSILON,
        ]),
    ]
    .boxed()
}

/// Predicates over the ad-hoc (f, i, s) table used by the vectorized
/// property, including unknown columns for error parity.
fn adhoc_pred() -> BoxedStrategy<Predicate> {
    fn leaf() -> BoxedStrategy<Predicate> {
        prop_oneof![
            Just(Predicate::True),
            (
                prop::sample::select(vec!["f", "i", "s", "ghost"]),
                prop::sample::select(vec![
                    CmpOp::Lt,
                    CmpOp::Le,
                    CmpOp::Gt,
                    CmpOp::Ge,
                    CmpOp::Eq,
                    CmpOp::Ne
                ]),
                tricky_float()
            )
                .prop_map(|(c, op, v)| Predicate::cmp(c, op, v)),
            (
                prop::sample::select(vec!["f", "i"]),
                tricky_float(),
                tricky_float()
            )
                .prop_map(|(c, a, b)| Predicate::range(c, a.min(b), a.max(b))),
            prop::sample::select(vec!["s0", "s1", "zzz"]).prop_map(|v| Predicate::eq("s", v)),
        ]
        .boxed()
    }
    (leaf(), leaf(), 0i64..5)
        .prop_map(|(a, b, shape)| match shape {
            0 => a.and(b),
            1 => a.or(b),
            2 => a.not(),
            3 => a.and(b).not(),
            _ => a,
        })
        .boxed()
}

fn partition_table(idx: usize) -> &'static Table {
    sized_tables().get(idx).unwrap_or_else(|| big_table())
}

/// The tables the partition property draws from, with random cut
/// points partitioning each into parts: a handful of arbitrary
/// (off-grid) cuts, optionally a dense run of adjacent cuts straddling
/// the first morsel boundary (one-row parts, so one morsel spans many),
/// optionally every cut twice (empty parts).
fn table_and_cuts() -> BoxedStrategy<(usize, Vec<usize>)> {
    (0usize..8)
        .prop_flat_map(|idx| {
            let rows = partition_table(idx).num_rows();
            (
                prop::collection::vec(0..=rows, 0..6),
                0usize..6,
                any::<bool>(),
            )
                .prop_map(move |(mut cuts, dense, repeat)| {
                    if dense > 0 {
                        let grid = MORSEL_ROWS.min(rows);
                        cuts.extend(grid.saturating_sub(dense)..=(grid + dense).min(rows));
                    }
                    if repeat {
                        cuts.extend(cuts.clone());
                    }
                    cuts.extend([0, rows]);
                    cuts.sort_unstable();
                    (idx, cuts)
                })
        })
        .boxed()
}

/// `table` split at `cuts` (ascending, from 0 to its row count).
fn split(table: &Table, cuts: &[usize]) -> Vec<Table> {
    cuts.windows(2)
        .map(|w| table.gather(&(w[0] as u32..w[1] as u32).collect::<Vec<u32>>()))
        .collect()
}

fn brute_range_ids(base: &[i64], lo: i64, hi: i64) -> Vec<u32> {
    base.iter()
        .enumerate()
        .filter(|(_, &v)| v >= lo && v < hi)
        .map(|(i, _)| i as u32)
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Any query — valid or not — behaves identically under serial and
    /// parallel execution: same table bit-for-bit, or same error.
    #[test]
    fn random_queries_agree_across_policies(
        pred in pred_tree(),
        groups in group_cols(),
        aggs in agg_list(),
        order in 0i64..3,
        limit_raw in 0i64..400,
    ) {
        let limit = (limit_raw >= 100).then_some(limit_raw as usize);
        let q = build_query(pred, &groups, &aggs, order, limit);
        let t = big_table();
        let serial = run_query(t, &q, &QueryCtx::none());
        let parallel = run_query(t, &q, &QueryCtx::new(ExecPolicy::Parallel { workers: 4 }));
        match (serial, parallel) {
            (Ok(a), Ok(b)) => prop_assert!(
                tables_bitwise_equal(&a, &b),
                "policies diverged on {q:?}"
            ),
            (Err(a), Err(b)) => prop_assert_eq!(a, b),
            (a, b) => prop_assert!(
                false,
                "one policy errored: serial ok = {}, parallel ok = {}",
                a.is_ok(),
                b.is_ok()
            ),
        }
    }

    /// Random predicate trees produce the same selection vector under
    /// both policies — and match the scalar mask reference evaluator.
    #[test]
    fn random_selections_agree_across_policies(pred in pred_tree()) {
        let t = big_table();
        let serial = evaluate_selection(t, &pred, &QueryCtx::none());
        let parallel = evaluate_selection(t, &pred, &QueryCtx::new(ExecPolicy::Parallel { workers: 4 }));
        match (serial, parallel) {
            (Ok(a), Ok(b)) => {
                prop_assert_eq!(&a, &b);
                prop_assert_eq!(a, mask_to_sel(&pred.evaluate_mask(t).unwrap()));
            }
            (Err(a), Err(b)) => prop_assert_eq!(a, b),
            (a, b) => prop_assert!(
                false,
                "one policy errored: serial ok = {}, parallel ok = {}",
                a.is_ok(),
                b.is_ok()
            ),
        }
    }

    /// Random queries over random table sizes agree with the serial
    /// reference under every worker count — sub-morsel tables take the
    /// profitability fast path, larger ones the pooled path, and both
    /// must be invisible in the output.
    #[test]
    fn random_sizes_and_worker_counts_agree_with_serial(
        table_idx in 0usize..7,
        workers in prop::sample::select(vec![1usize, 2, 3, 8]),
        pred in pred_tree(),
        groups in group_cols(),
        aggs in agg_list(),
    ) {
        let q = build_query(pred, &groups, &aggs, 0, None);
        let t = &sized_tables()[table_idx];
        let serial = run_query(t, &q, &QueryCtx::none());
        let parallel = run_query(t, &q, &QueryCtx::new(ExecPolicy::Parallel { workers }));
        match (serial, parallel) {
            (Ok(a), Ok(b)) => prop_assert!(
                tables_bitwise_equal(&a, &b),
                "policies diverged on {q:?} (rows = {}, workers = {workers})",
                t.num_rows()
            ),
            (Err(a), Err(b)) => prop_assert_eq!(a, b),
            (a, b) => prop_assert!(
                false,
                "one policy errored: serial ok = {}, parallel ok = {}",
                a.is_ok(),
                b.is_ok()
            ),
        }
    }

    /// Any query — valid or not — agrees with the independent
    /// row-at-a-time oracle: an error exactly when the oracle finds the
    /// query invalid, else the oracle's rows in the oracle's order (SUM /
    /// AVG / VAR / STD to rounding, everything else exact).
    #[test]
    fn random_queries_agree_with_the_oracle(
        table_idx in 0usize..7,
        pred in pred_tree(),
        groups in group_cols(),
        aggs in agg_list(),
        order in 0i64..3,
        limit_raw in 0i64..400,
    ) {
        let limit = (limit_raw >= 100).then_some(limit_raw as usize);
        let q = build_query(pred, &groups, &aggs, order, limit);
        let t = &sized_tables()[table_idx];
        match (run_query(t, &q, &QueryCtx::none()), oracle::run(t, &q)) {
            (Ok(got), Some(want)) => oracle::assert_matches(&got, &want, &q, &format!("{q:?}")),
            (Err(_), None) => {}
            (got, want) => prop_assert!(
                false,
                "engine ok = {}, oracle valid = {} on {q:?}",
                got.is_ok(),
                want.is_some()
            ),
        }
    }

    /// Any query over any partition of a table — off-grid cuts, one-row
    /// parts, empty parts, a morsel spanning several parts — is the
    /// query over the whole table: same bits, same group order, same
    /// error text, under either policy and under seeded `exec.morsel` /
    /// `exec.spawn` chaos.
    #[test]
    fn random_partitions_agree_with_the_whole_table(
        table_cuts in table_and_cuts(),
        pred in pred_tree(),
        groups in group_cols(),
        aggs in agg_list(),
        order in 0i64..3,
        chaos in (any::<u64>(), 0u64..4),
    ) {
        let q = build_query(pred, &groups, &aggs, order, None);
        let (t, cuts) = (partition_table(table_cuts.0), table_cuts.1);
        let owned = split(t, &cuts);
        let parts: Vec<&Table> = owned.iter().collect();
        let whole = run_query(t, &q, &QueryCtx::none());
        for policy in [ExecPolicy::Serial, ExecPolicy::Parallel { workers: 4 }] {
            // A quarter of the cases run fault-free.
            let (seed, one_in) = chaos;
            let faults = (one_in > 0).then(|| {
                let faults = std::sync::Arc::new(FailPoints::new());
                faults.arm("exec.morsel", Schedule::Seeded { seed, one_in });
                faults.arm("exec.spawn", Schedule::Seeded { seed: !seed, one_in: one_in + 1 });
                faults
            });
            let ctx = QueryCtx::new(policy).with_faults(faults);
            match (&whole, run_query_parts(&parts, &q, &ctx)) {
                (Ok(a), Ok(b)) => prop_assert!(
                    tables_bitwise_equal(a, &b),
                    "parts diverged on {q:?} (cuts {cuts:?}, {policy:?})"
                ),
                (Err(a), Err(b)) => prop_assert_eq!(a.to_string(), b.to_string()),
                (a, b) => prop_assert!(
                    false,
                    "one side errored: whole ok = {}, parts ok = {}",
                    a.is_ok(),
                    b.is_ok()
                ),
            }
        }
    }

    /// The vectorized bitmap predicate path agrees with the scalar mask
    /// reference on random data including NaN, infinities, signed zero,
    /// and extreme magnitudes — same selections, same errors.
    #[test]
    fn vectorized_predicates_agree_with_scalar_reference(
        floats in prop::collection::vec(tricky_float(), 1..300),
        pred in adhoc_pred(),
        window in 0usize..4,
    ) {
        let n = floats.len();
        let ints: Vec<i64> = (0..n as i64).map(|i| (i * 37) % 23 - 11).collect();
        let strs: Vec<String> = (0..n).map(|i| format!("s{}", i % 3)).collect();
        let t = Table::new(
            Schema::of(&[
                ("f", DataType::Float64),
                ("i", DataType::Int64),
                ("s", DataType::Utf8),
            ]),
            vec![Column::from(floats), Column::from(ints), Column::from(strs)],
        )
        .unwrap();
        let range = match window {
            0 => 0..n,
            1 => 0..n.min(64),
            2 => n / 2..n,
            _ => n / 3..(2 * n / 3).max(n / 3),
        };
        let vectorized = pred.evaluate_range(&t, range.clone());
        let scalar = pred.evaluate_mask_range(&t, range.clone()).map(|mask| {
            mask.iter()
                .enumerate()
                .filter(|(_, &hit)| hit)
                .map(|(i, _)| (range.start + i) as u32)
                .collect::<Vec<u32>>()
        });
        match (vectorized, scalar) {
            (Ok(a), Ok(b)) => prop_assert_eq!(a, b, "diverged on {:?}", pred),
            (Err(a), Err(b)) => prop_assert_eq!(a, b),
            (a, b) => prop_assert!(
                false,
                "one path errored: vectorized ok = {}, scalar ok = {}",
                a.is_ok(),
                b.is_ok()
            ),
        }
    }

    /// Cracked range answers equal a full scan for every prefix of a
    /// random crack sequence.
    #[test]
    fn cracked_ranges_equal_full_scan(
        base in prop::collection::vec(-500i64..500, 1..400),
        queries in prop::collection::vec((-600i64..600, -600i64..600), 1..20),
    ) {
        let ranges: Vec<(i64, i64)> = queries
            .iter()
            .map(|&(a, b)| (a.min(b), a.max(b)))
            .collect();
        // Sequential cracking: every intermediate index state must
        // answer exactly like a scan.
        let mut cracker = CrackerColumn::new(base.clone());
        for &(lo, hi) in &ranges {
            let mut got = cracker.query_ids(lo, hi).to_vec();
            got.sort_unstable();
            prop_assert_eq!(got, brute_range_ids(&base, lo, hi));
            prop_assert!(cracker.check_invariants());
        }
    }
}
