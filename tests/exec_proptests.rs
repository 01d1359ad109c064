//! Property-based differential testing of the morsel-driven executor.
//!
//! Random `Query` values (random predicate trees, group-bys, aggregate
//! lists, orderings, limits — valid *and* invalid) run under the serial
//! and parallel policies; the two must either both succeed with
//! bit-identical tables or both fail with the same error. The same
//! queries run over random partitions of a table (`run_query_parts`)
//! must match the whole table the same way, and every query must agree
//! with the independent oracle (`tests/common/oracle.rs`), as must the
//! predicate kernel's selections, bool masks and id lists
//! (`oracle::selection`). A further property pins cracked-range answers
//! to full-scan equivalence on random crack sequences.
//! `kernel_bits_are_pinned` fixes the digest of every result bit over a
//! grid of aggregates, keys, row counts and partitions, and
//! `order_limit_is_a_prefix_of_the_full_sort` holds the top-k
//! `ORDER BY … LIMIT` to the oracle's full stable sort.

use std::sync::OnceLock;

use proptest::prelude::*;

use exploration::cracking::CrackerColumn;
use exploration::exec::{evaluate_selection, run_query, run_query_parts, ExecPolicy, QueryCtx};
use exploration::storage::{
    AggFunc, CmpOp, Column, DataType, Predicate, Query, Schema, SortOrder, Table, Value,
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

/// [`big_table`]'s rows as the oracle reads them (read once; cases
/// only read them).
fn big_rows() -> &'static [Vec<Value>] {
    static ROWS: OnceLock<Vec<Vec<Value>>> = OnceLock::new();
    ROWS.get_or_init(|| oracle::rows(big_table()))
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
        Just(Predicate::eq("region", "")),
        prop::sample::select(vec![("", "e"), ("E", "e"), ("e", "é"), ("reg", "region0")])
            .prop_map(|(lo, hi)| Predicate::range("region", lo, hi)),
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
/// multi-morsel decompositions, plus [`string_edge_table`].
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
        .chain([string_edge_table()])
        .collect()
    })
}

/// A small sales table whose `region` labels are string edge cases: the
/// empty string, labels that differ only in case, a two-byte character,
/// and a label that is a prefix of another.
fn string_edge_table() -> Table {
    let t = sales(600);
    let labels = ["", "e", "E", "é", "reg", "region0"];
    let region = (0..t.num_rows())
        .map(|r| labels[(7 * r + r / 5) % labels.len()])
        .collect::<Vec<_>>();
    let columns = (t.schema().fields().iter().enumerate())
        .map(|(i, f)| match f.name() {
            "region" => Column::from(region.clone()),
            _ => t.column_at(i).clone(),
        })
        .collect();
    Table::new(t.schema().clone(), columns).unwrap()
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
    (0..=sized_tables().len())
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

/// SplitMix64: the deterministic source of the pinned grid's cells.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The pinned grid's table at `rows` rows: group keys `ki` (Int),
/// `kf` (Float, with both NaNs and both zeros as distinct keys) and
/// `ks` (Utf8), and measures `mi` (Int, with the i64 extremes) and `mf`
/// (Float). `mf` is a plain value in most groups of `ki`; group 3 also
/// holds NaNs, group −2 `+inf`, group 4 `−inf`, group 1 both
/// infinities, and group 0 only signed zeros and subnormals.
fn grid_table(rows: usize) -> Table {
    let mut state = 0x5eed_0000 + rows as u64;
    let (mut ki, mut kf, mut ks, mut mi, mut mf) = (vec![], vec![], vec![], vec![], vec![]);
    let key_floats = [f64::NAN, -f64::NAN, -0.0, 0.0, 1.5, -2.25, f64::INFINITY];
    let key_strs = ["", "east", "west", "nörd", "s", "south", "Ost"];
    let tiny = [0.0, -0.0, 5e-324, -5e-324, f64::MIN_POSITIVE / 3.0, 1e-310];
    for i in 0..rows {
        let r = splitmix(&mut state);
        let k = (r % 11) as i64 - 5;
        ki.push(k);
        kf.push(key_floats[(r >> 8) as usize % key_floats.len()]);
        ks.push(key_strs[(r >> 16) as usize % key_strs.len()].to_string());
        mi.push(match i % 4099 {
            7 => i64::MAX,
            8 => i64::MIN,
            _ => ((r >> 24) % 2001) as i64 - 1000,
        });
        let plain = (r >> 11) as f64 / (1u64 << 53) as f64 * 2000.0 - 1000.0;
        let rare = (r >> 40).is_multiple_of(40);
        mf.push(match k {
            3 if rare => f64::NAN,
            -2 if rare => f64::INFINITY,
            4 if rare => f64::NEG_INFINITY,
            1 if rare => [f64::INFINITY, f64::NEG_INFINITY][(r >> 50) as usize % 2],
            0 => tiny[(r >> 32) as usize % tiny.len()],
            _ => plain,
        });
    }
    Table::new(
        Schema::of(&[
            ("ki", DataType::Int64),
            ("kf", DataType::Float64),
            ("ks", DataType::Utf8),
            ("mi", DataType::Int64),
            ("mf", DataType::Float64),
        ]),
        vec![
            Column::from(ki),
            Column::from(kf),
            Column::from(ks),
            Column::from(mi),
            Column::from(mf),
        ],
    )
    .unwrap()
}

/// FNV-1a over a result's schema and every cell. Floats enter by their
/// bits, except that every NaN enters as one canonical NaN: the sign and
/// payload of a NaN an arithmetic operation produces are not specified
/// across platforms.
fn digest_table(h: &mut u64, t: &Table) {
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            *h = (*h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    };
    eat(&(t.num_rows() as u64).to_le_bytes());
    for (field, col) in t.schema().fields().iter().zip(t.columns()) {
        eat(field.name().as_bytes());
        match col {
            Column::Int64(v) => v.iter().for_each(|x| eat(&x.to_le_bytes())),
            Column::Float64(v) => v.iter().for_each(|x| {
                let bits = if x.is_nan() {
                    f64::NAN.to_bits()
                } else {
                    x.to_bits()
                };
                eat(&bits.to_le_bytes())
            }),
            Column::Utf8(v) => v.iter().for_each(|s| {
                eat(&(s.len() as u64).to_le_bytes());
                eat(s.as_bytes())
            }),
        }
    }
}

/// Every result bit of the query kernels over a grid: all seven
/// aggregate functions on an Int and a Float measure (NaN, ±inf, ±0.0,
/// subnormals), unfiltered and filtered, under no key, an Int, a Float,
/// a Utf8 and a two-column key; projections ordered by each column with
/// heavy ties, ASC and DESC, under several limits; at row counts around
/// the morsel grid, run whole and as three parts through
/// `run_query_parts`. The digest was recorded before the per-function
/// folds, the pass-through group hasher, the top-k order and the
/// move-merge of scan pieces, and holds after them.
#[test]
fn kernel_bits_are_pinned() {
    const PINNED: u64 = 0x6947_460c_7858_89ca;
    let funcs = [
        AggFunc::Count,
        AggFunc::Sum,
        AggFunc::Avg,
        AggFunc::Min,
        AggFunc::Max,
        AggFunc::Var,
        AggFunc::Std,
    ];
    let keys: [&[&str]; 5] = [&[], &["ki"], &["kf"], &["ks"], &["ks", "ki"]];
    let filters = [Predicate::True, Predicate::cmp("mi", CmpOp::Ge, -300i64)];
    let mut aggregates = Vec::new();
    for key in keys {
        for filter in &filters {
            let mut q = Query::new()
                .filter(filter.clone())
                .agg(AggFunc::Count, "ks");
            for col in ["mi", "mf"] {
                for f in funcs {
                    q = q.agg(f, col);
                }
            }
            for k in key {
                q = q.group(k);
            }
            aggregates.push(q);
        }
    }
    let mut scans = Vec::new();
    for col in ["ki", "kf", "ks", "mf"] {
        for order in [SortOrder::Asc, SortOrder::Desc] {
            for limit in [Some(0), Some(1), Some(777), None] {
                let mut q = Query::new()
                    .filter(Predicate::cmp("mi", CmpOp::Ge, -100i64).and(Predicate::cmp(
                        "mi",
                        CmpOp::Lt,
                        100i64,
                    )))
                    .select(&["ks", "ki", "kf", "mf"])
                    .order(col, order);
                q.limit = limit;
                scans.push(q);
            }
        }
    }
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for rows in [0, 1, MORSEL_ROWS - 1, MORSEL_ROWS + 1, 3 * MORSEL_ROWS + 5] {
        let t = grid_table(rows);
        let cuts = [0, rows / 3, rows / 3 + rows.div_ceil(3), rows];
        let owned = split(&t, &cuts);
        let thirds: Vec<&Table> = owned.iter().collect();
        for q in aggregates.iter().chain(&scans) {
            let whole = run_query_parts(&[&t], q, &QueryCtx::none()).unwrap();
            let parts = run_query_parts(&thirds, q, &QueryCtx::none()).unwrap();
            let (mut a, mut b) = (h, h);
            digest_table(&mut a, &whole);
            digest_table(&mut b, &parts);
            assert_eq!(a, b, "parts diverged on {q:?} at {rows} rows");
            h = a;
        }
    }
    assert_eq!(h, PINNED, "kernel digest moved: {h:#018x}");
}

/// The ids of `ids` (ascending) inside `window`.
fn in_window(ids: Vec<u32>, window: &std::ops::Range<usize>) -> Vec<u32> {
    let inside = |&i: &u32| window.contains(&(i as usize));
    ids.into_iter().filter(inside).collect()
}

/// The table rows a window mask starting at row `start` sets.
fn mask_ids(mask: &[bool], start: usize) -> Vec<u32> {
    let hits = mask.iter().enumerate().filter(|(_, &hit)| hit);
    hits.map(|(i, _)| (start + i) as u32).collect()
}

/// A table wider than one bitmap word: Int `a`, Float `b` cycling
/// through NaN, ±∞ and ±0 between ordinary values, and Utf8 `c`.
fn tricky_table(n: usize) -> Table {
    let floats: Vec<f64> = (0..n)
        .map(|i| match i % 7 {
            0 => f64::NAN,
            1 => f64::INFINITY,
            2 => f64::NEG_INFINITY,
            3 => -0.0,
            4 => 0.0,
            _ => (i as f64 - 100.0) / 3.0,
        })
        .collect();
    Table::new(
        Schema::of(&[
            ("a", DataType::Int64),
            ("b", DataType::Float64),
            ("c", DataType::Utf8),
        ]),
        vec![
            Column::from((0..n as i64).map(|i| (i * 37) % 19 - 9).collect::<Vec<_>>()),
            Column::from(floats),
            Column::from((0..n).map(|i| format!("s{}", i % 11)).collect::<Vec<_>>()),
        ],
    )
    .unwrap()
}

/// The bitmap kernel's selection and its bool-mask view agree with the
/// oracle on every window, including windows that start or end inside
/// a bitmap word, for floats including NaN, infinities and signed zero.
#[test]
fn vectorized_range_agrees_with_the_oracle() {
    let n = 200;
    let t = tricky_table(n);
    let preds = vec![
        Predicate::True,
        Predicate::cmp("b", CmpOp::Eq, f64::NAN),
        Predicate::cmp("b", CmpOp::Ne, f64::NAN),
        Predicate::cmp("b", CmpOp::Ge, 0.0),
        Predicate::cmp("b", CmpOp::Lt, f64::INFINITY),
        Predicate::eq("b", -0.0f64),
        Predicate::range("b", -5.0, 5.0),
        Predicate::range("a", -3i64, 4i64),
        Predicate::cmp("a", CmpOp::Le, 0i64),
        Predicate::eq("c", "s3"),
        Predicate::range("c", "s1", "s4"),
        Predicate::cmp("a", CmpOp::Gt, -2i64)
            .and(Predicate::cmp("b", CmpOp::Lt, 10.0))
            .or(Predicate::eq("c", "s7").not()),
        Predicate::And(Vec::new()),
        Predicate::Or(Vec::new()),
    ];
    for p in &preds {
        let all = oracle::selection(&t, p).unwrap();
        for window in [
            0..n,
            0..0,
            0..1,
            0..63,
            0..64,
            0..65,
            63..129,
            128..n,
            199..n,
        ] {
            let want = in_window(all.clone(), &window);
            let got = p.evaluate_range(&t, window.clone()).unwrap();
            assert_eq!(got, want, "pred {p} window {window:?}");
            let mask = p.evaluate_mask_range(&t, window.clone()).unwrap();
            assert_eq!(mask.len(), window.len(), "pred {p} window {window:?}");
            assert_eq!(
                mask_ids(&mask, window.start),
                want,
                "mask of {p} on {window:?}"
            );
        }
    }
    // Invalid predicates and windows are errors on both views.
    for p in [Predicate::eq("missing", 1i64), Predicate::eq("a", "nope")] {
        assert!(oracle::selection(&t, &p).is_none(), "{p}");
        assert!(p.evaluate_range(&t, 0..n).is_err(), "{p}");
        assert!(p.evaluate_mask_range(&t, 0..n).is_err(), "{p}");
    }
    assert!(Predicate::True.evaluate_range(&t, 100..(n + 1)).is_err());
    assert!(Predicate::True
        .evaluate_mask_range(&t, 100..(n + 1))
        .is_err());
}

/// `evaluate_at` keeps, in input order and with repeats, exactly the ids
/// the oracle selects.
#[test]
fn evaluate_at_keeps_the_qualifying_ids() {
    let n = 150usize;
    let t = Table::new(
        Schema::of(&[
            ("a", DataType::Int64),
            ("b", DataType::Float64),
            ("c", DataType::Utf8),
        ]),
        vec![
            Column::from((0..n as i64).map(|i| (i * 37) % 19 - 9).collect::<Vec<_>>()),
            Column::from(
                (0..n)
                    .map(|i| if i % 7 == 0 { f64::NAN } else { i as f64 / 3.0 })
                    .collect::<Vec<_>>(),
            ),
            Column::from((0..n).map(|i| format!("s{}", i % 11)).collect::<Vec<_>>()),
        ],
    )
    .unwrap();
    let preds = [
        Predicate::True,
        Predicate::range("b", 5.0, 30.0),
        Predicate::range("a", -3i64, 4i64).and(Predicate::eq("c", "s3").not()),
        Predicate::cmp("a", CmpOp::Le, 0i64).or(Predicate::range("c", "s1", "s4")),
    ];
    let id_sets: [Vec<u32>; 4] = [
        Vec::new(),
        (0..n as u32).collect(),
        (0..n as u32).step_by(3).collect(),
        vec![149, 2, 2, 64, 63],
    ];
    for p in &preds {
        let hits = oracle::selection(&t, p).unwrap();
        for ids in &id_sets {
            let expected: Vec<u32> = ids.iter().copied().filter(|i| hits.contains(i)).collect();
            assert_eq!(p.evaluate_at(&t, ids).unwrap(), expected, "pred {p}");
        }
    }
    // Ids are checked against the table before any row is read, and
    // errors match the window path's.
    assert!(matches!(
        Predicate::True.evaluate_at(&t, &[0, n as u32]),
        Err(exploration::storage::StorageError::RowOutOfBounds { .. })
    ));
    assert!(Predicate::eq("missing", 1i64)
        .evaluate_at(&t, &[0])
        .is_err());
    assert!(Predicate::eq("a", "nope").evaluate_at(&t, &[0]).is_err());
}

/// A Float literal against an Int64 column compares as the `i64` it
/// names, exactly, also where `f64` cannot tell neighbouring values
/// apart; one that names no `i64` (`2^63`, `f64::MAX`) is invalid.
#[test]
fn int_column_float_literals_agree_with_the_oracle() {
    let big = 1i64 << 53;
    let t = Table::new(
        Schema::of(&[("i", DataType::Int64)]),
        vec![Column::from(vec![
            big,
            big + 1,
            big + 2,
            i64::MAX,
            0,
            i64::MIN,
        ])],
    )
    .unwrap();
    let two_63 = 2f64.powi(63);
    for lit in [big as f64, -two_63, two_63 - 1024.0, two_63, f64::MAX, 0.5] {
        for op in [
            CmpOp::Eq,
            CmpOp::Ne,
            CmpOp::Lt,
            CmpOp::Le,
            CmpOp::Gt,
            CmpOp::Ge,
        ] {
            let p = Predicate::cmp("i", op, lit);
            let got = p.evaluate(&t).ok();
            assert_eq!(got, oracle::selection(&t, &p), "{p}");
        }
    }
    let p = Predicate::cmp("i", CmpOp::Le, big as f64);
    assert_eq!(p.evaluate(&t).unwrap(), vec![0, 4, 5]);
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
    /// both policies — and the oracle's selection, or an error exactly
    /// where the oracle finds the predicate invalid.
    #[test]
    fn random_selections_agree_across_policies(pred in pred_tree()) {
        let t = big_table();
        let serial = evaluate_selection(t, &pred, &QueryCtx::none());
        let parallel = evaluate_selection(t, &pred, &QueryCtx::new(ExecPolicy::Parallel { workers: 4 }));
        let want = oracle::selection_in(t, big_rows(), &pred);
        match (serial, parallel) {
            (Ok(a), Ok(b)) => {
                prop_assert_eq!(&a, &b);
                prop_assert_eq!(Some(a), want, "oracle diverged on {}", pred);
            }
            (Err(a), Err(b)) => {
                prop_assert_eq!(a, b);
                prop_assert!(want.is_none(), "engine errs, oracle valid on {}", pred);
            }
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
    /// profitability fast path, larger ones the parallel path, and both
    /// must be invisible in the output.
    #[test]
    fn random_sizes_and_worker_counts_agree_with_serial(
        table_idx in 0..sized_tables().len(),
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
        table_idx in 0..sized_tables().len(),
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

    /// The vectorized bitmap predicate path — its selection and its
    /// bool-mask view, on a window — agrees with the oracle on random
    /// data including NaN, infinities, signed zero, and extreme
    /// magnitudes: the oracle's selection inside the window, or an error
    /// exactly where the oracle finds the predicate invalid.
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
        let want = oracle::selection(&t, &pred).map(|ids| in_window(ids, &range));
        let vectorized = pred.evaluate_range(&t, range.clone());
        let masked = pred.evaluate_mask_range(&t, range.clone()).map(|m| mask_ids(&m, range.start));
        for got in [vectorized, masked] {
            match (got, &want) {
                (Ok(a), Some(b)) => prop_assert_eq!(&a, b, "diverged on {:?}", pred),
                (Err(_), None) => {}
                (a, b) => prop_assert!(
                    false,
                    "engine ok = {}, oracle valid = {} on {:?}",
                    a.is_ok(),
                    b.is_some(),
                    pred
                ),
            }
        }
    }

    /// `ORDER BY … LIMIT k` is the first `k` rows of the oracle's full
    /// stable sort, bit for bit, for Int, Float and Utf8 keys drawn from
    /// a few values each (heavy ties, both NaNs, both zeros), ASC and
    /// DESC, k ∈ {0, 1, n−1, n, n+1}, and without a limit.
    #[test]
    fn order_limit_is_a_prefix_of_the_full_sort(
        cells in prop::collection::vec((0usize..4, 0usize..7, 0usize..4), 0..2000),
    ) {
        let n = cells.len();
        let floats = [f64::NAN, -f64::NAN, -0.0, 0.0, 1.0, -1.0, f64::INFINITY];
        let strs = ["a", "b", "", "bb"];
        let t = Table::new(
            Schema::of(&[
                ("id", DataType::Int64),
                ("i", DataType::Int64),
                ("f", DataType::Float64),
                ("s", DataType::Utf8),
            ]),
            vec![
                Column::from((0..n as i64).collect::<Vec<_>>()),
                Column::from(cells.iter().map(|c| c.0 as i64 - 1).collect::<Vec<_>>()),
                Column::from(cells.iter().map(|c| floats[c.1]).collect::<Vec<_>>()),
                Column::from(cells.iter().map(|c| strs[c.2]).collect::<Vec<_>>()),
            ],
        )
        .unwrap();
        for col in ["i", "f", "s"] {
            for order in [SortOrder::Asc, SortOrder::Desc] {
                let q = Query::new().order(col, order);
                let sorted = oracle::run(&t, &q).unwrap();
                let all = q.apply_order_limit(t.clone()).unwrap();
                prop_assert!(tables_bitwise_equal(&all, &sorted), "{col} {order:?}");
                for k in [0, 1, n.saturating_sub(1), n, n + 1] {
                    let got = q.clone().take(k).apply_order_limit(t.clone()).unwrap();
                    let prefix: Vec<u32> = (0..k.min(n) as u32).collect();
                    prop_assert!(
                        tables_bitwise_equal(&got, &sorted.gather(&prefix)),
                        "{col} {order:?} limit {k} of {n}"
                    );
                }
            }
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
