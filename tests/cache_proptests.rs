//! Property-based testing of the semantic result cache.
//!
//! Four properties:
//!
//! 1. **Session equivalence** — a random sequence of queries (range
//!    scans and aggregates over shared, overlapping intervals, so
//!    subsumption fires constantly) interleaved with random mutations
//!    behaves identically on a cache-on engine and a cache-less engine:
//!    bit-identical tables or the same error, at every step.
//! 2. **Containment soundness** — whenever the region algebra claims a
//!    cached predicate covers a query predicate, the query's selection
//!    really is a subset of the cached selection. Bound values are drawn
//!    from small pools so open/closed near-misses at equal endpoints are
//!    generated constantly.
//! 3. **Subsumption cross-check** — random contained ranges served warm
//!    equal full cold scans.
//! 4. **Probe equivalence** — after any sequence of admissions,
//!    replacements and hits, the indexed subsumption probe picks exactly
//!    the entry a brute-force `Region::covers` scan of the resident
//!    entries picks (fewest rows, then least recently touched), and none
//!    when none covers.

use std::sync::OnceLock;

use proptest::prelude::*;

use std::sync::Arc;

use exploration::cache::{CachePolicy, Fingerprint, Region, ResultCache, ReuseArtifacts};
use exploration::storage::gen::{sales_table, SalesConfig};
use exploration::storage::{AggFunc, CmpOp, Predicate, Query, Table, Value};
use exploration::ExploreDb;

mod common;
use common::tables_bitwise_equal;

fn base_table() -> &'static Table {
    static TABLE: OnceLock<Table> = OnceLock::new();
    TABLE.get_or_init(|| {
        sales_table(&SalesConfig {
            rows: 6_000,
            ..SalesConfig::default()
        })
    })
}

/// Bound pools deliberately tiny: adjacent queries collide on endpoints,
/// producing the open/closed containment near-misses that matter.
const PRICE_BOUNDS: [f64; 6] = [0.0, 100.0, 250.0, 250.5, 600.0, 1000.0];
const QTY_BOUNDS: [i64; 5] = [0, 2, 3, 5, 8];
const REGION_BOUNDS: [&str; 4] = ["region0", "region2", "region3", "region7"];

/// A range-ish predicate leaf over one column, with every comparison
/// operator represented (Ne/Eq included: exact regions refuse Ne, and
/// both sides must stay sound regardless).
fn pred_leaf() -> BoxedStrategy<Predicate> {
    let price_ops = (
        prop::sample::select(vec![CmpOp::Lt, CmpOp::Le, CmpOp::Gt, CmpOp::Ge, CmpOp::Eq]),
        prop::sample::select(PRICE_BOUNDS.to_vec()),
    )
        .prop_map(|(op, v)| Predicate::cmp("price", op, v));
    let price_range = (
        prop::sample::select(PRICE_BOUNDS.to_vec()),
        prop::sample::select(PRICE_BOUNDS.to_vec()),
    )
        .prop_map(|(a, b)| Predicate::range("price", a.min(b), a.max(b)));
    let qty_ops = (
        prop::sample::select(vec![
            CmpOp::Lt,
            CmpOp::Le,
            CmpOp::Gt,
            CmpOp::Ge,
            CmpOp::Eq,
            CmpOp::Ne,
        ]),
        prop::sample::select(QTY_BOUNDS.to_vec()),
    )
        .prop_map(|(op, v)| Predicate::cmp("qty", op, v));
    let qty_range = (
        prop::sample::select(QTY_BOUNDS.to_vec()),
        prop::sample::select(QTY_BOUNDS.to_vec()),
    )
        .prop_map(|(a, b)| Predicate::range("qty", a.min(b), a.max(b)));
    // String-bounded leaves: lexicographic intervals and equalities.
    let region_range = (
        prop::sample::select(REGION_BOUNDS.to_vec()),
        prop::sample::select(REGION_BOUNDS.to_vec()),
    )
        .prop_map(|(a, b)| Predicate::range("region", a.min(b), a.max(b)));
    let region_ops = (
        prop::sample::select(vec![CmpOp::Lt, CmpOp::Ge, CmpOp::Eq]),
        prop::sample::select(REGION_BOUNDS.to_vec()),
    )
        .prop_map(|(op, v)| Predicate::cmp("region", op, v));
    prop_oneof![
        price_ops,
        price_range,
        qty_ops,
        qty_range,
        region_range,
        region_ops
    ]
    .boxed()
}

/// Conjunctions of up to three leaves — multi-column regions.
fn pred_conj() -> BoxedStrategy<Predicate> {
    prop::collection::vec(pred_leaf(), 1..4)
        .prop_map(|mut leaves| {
            let mut p = leaves.pop().expect("vec is non-empty");
            for q in leaves {
                p = p.and(q);
            }
            p
        })
        .boxed()
}

/// A query over a random predicate: scan or aggregate shape.
fn query_of(pred: Predicate, shape: i64) -> Query {
    match shape {
        0 => Query::new().filter(pred),
        1 => Query::new().filter(pred).select(&["region", "price"]),
        2 => Query::new().filter(pred).agg(AggFunc::Sum, "price"),
        _ => Query::new()
            .filter(pred)
            .group("region")
            .agg(AggFunc::Count, "qty")
            .agg(AggFunc::Avg, "price"),
    }
}

/// One step against a bare [`ResultCache`]: admit (or replace) one of a
/// few fingerprints with a selection of `rows` rows, hit one, or probe.
#[derive(Debug, Clone)]
enum CacheOp {
    Admit(usize, Predicate, u32),
    Touch(usize),
    Probe(Predicate),
}

fn cache_op() -> BoxedStrategy<CacheOp> {
    prop_oneof![
        4 => (0usize..10, pred_conj(), 1u32..6).prop_map(|(k, p, r)| CacheOp::Admit(k, p, r)),
        1 => (0usize..10).prop_map(CacheOp::Touch),
        3 => pred_conj().prop_map(CacheOp::Probe),
    ]
    .boxed()
}

/// One session step: a query, or a mutation.
#[derive(Debug, Clone)]
enum Step {
    Query(Predicate, i64),
    PushRow(i64),
    Update(Predicate, f64),
}

fn step() -> BoxedStrategy<Step> {
    prop_oneof![
        8 => (pred_conj(), 0i64..4).prop_map(|(p, s)| Step::Query(p, s)),
        1 => (0i64..2000).prop_map(Step::PushRow),
        1 => (pred_conj(), prop::sample::select(PRICE_BOUNDS.to_vec()))
            .prop_map(|(p, v)| Step::Update(p, v)),
    ]
    .boxed()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Random query/mutation sessions: cache-on and cache-off engines
    /// agree bit-for-bit (or error-for-error) at every step.
    #[test]
    fn random_sessions_agree_with_uncached_engine(
        steps in prop::collection::vec(step(), 1..24),
    ) {
        let t = base_table().clone();
        let cached = ExploreDb::with_cache_policy(CachePolicy::on());
        cached.register("sales", t.clone());
        let plain = ExploreDb::new();
        plain.register("sales", t);

        for (i, s) in steps.into_iter().enumerate() {
            match s {
                Step::Query(pred, shape) => {
                    let q = query_of(pred, shape);
                    match (cached.query("sales", &q), plain.query("sales", &q)) {
                        (Ok(a), Ok(b)) => prop_assert!(
                            tables_bitwise_equal(&a, &b),
                            "step {i}: cached diverged on {q:?}"
                        ),
                        (Err(a), Err(b)) => prop_assert_eq!(a, b),
                        (a, b) => prop_assert!(
                            false,
                            "step {i}: cached ok = {}, plain ok = {}",
                            a.is_ok(),
                            b.is_ok()
                        ),
                    }
                }
                Step::PushRow(qty) => {
                    let row = vec![
                        Value::from("regionX"),
                        Value::from("productX"),
                        Value::from("channelX"),
                        Value::Float(qty as f64 / 2.0),
                        Value::Float(0.25),
                        Value::Int(qty),
                    ];
                    cached.push_row("sales", row.clone()).expect("valid row");
                    plain.push_row("sales", row).expect("valid row");
                }
                Step::Update(pred, v) => {
                    let a = cached
                        .update_where("sales", &pred, "price", Value::Float(v))
                        .expect("valid update");
                    let b = plain
                        .update_where("sales", &pred, "price", Value::Float(v))
                        .expect("valid update");
                    prop_assert_eq!(a, b, "step {}: update counts diverged", i);
                }
            }
        }
    }

    /// Region containment is sound: `exact(cached) ⊇ relaxed(query)`
    /// implies the query's matching rows are a subset of the cached
    /// predicate's matching rows.
    #[test]
    fn claimed_containment_implies_row_subset(
        cached_pred in pred_conj(),
        query_pred in pred_conj(),
    ) {
        let Some(cached_region) = Region::exact(&cached_pred) else {
            // No exact region — never offered for subsumption; nothing
            // to check.
            return Ok(());
        };
        let query_region = Region::relaxed(&query_pred);
        if !cached_region.covers(&query_region) {
            return Ok(());
        }
        let t = base_table();
        let cached_sel = cached_pred.evaluate(t).expect("known columns");
        let query_sel = query_pred.evaluate(t).expect("known columns");
        let cached_set: std::collections::HashSet<u32> =
            cached_sel.into_iter().collect();
        for row in query_sel {
            prop_assert!(
                cached_set.contains(&row),
                "row {row} matches {query_pred:?} but not the covering {cached_pred:?}"
            );
        }
    }

    /// The probe index against a brute-force scan of a model of the
    /// resident entries, through replacements (which swap slots around)
    /// and hits (which re-stamp them).
    #[test]
    fn indexed_probe_agrees_with_brute_force(
        ops in prop::collection::vec(cache_op(), 1..48),
    ) {
        let cache = ResultCache::default();
        let fp = |k: usize| Fingerprint::custom("t", format!("k{k}"));
        let result = Arc::new(base_table().gather(&[0]));
        // Slot `k` → (region, rows, last-touch tick) while resident with
        // artifacts; `None` when absent or exact-hit-only.
        let mut model: Vec<Option<(Region, u32, u64)>> = vec![None; 10];
        let mut tick = 0u64;
        for op in ops {
            match op {
                CacheOp::Admit(k, pred, rows) => {
                    let region = Region::exact(&pred);
                    let reuse = region.clone().map(|region| ReuseArtifacts {
                        region,
                        sel: Arc::new((0..rows).collect()),
                    });
                    prop_assert!(cache.insert(fp(k), Arc::clone(&result), reuse, 1_000, 0));
                    tick += 1;
                    model[k] = region.map(|r| (r, rows, tick));
                }
                CacheOp::Touch(k) => {
                    if cache.get(&fp(k)).is_some() {
                        tick += 1;
                        if let Some(entry) = &mut model[k] {
                            entry.2 = tick;
                        }
                    }
                }
                CacheOp::Probe(pred) => {
                    let query = Region::relaxed(&pred);
                    let expected = model
                        .iter()
                        .enumerate()
                        .filter_map(|(k, e)| e.as_ref().map(|e| (k, e)))
                        .filter(|(_, (region, _, _))| region.covers(&query))
                        .min_by_key(|(_, (_, rows, touched))| (*rows, *touched))
                        .map(|(k, _)| fp(k));
                    let found = cache.find_subsuming("t", &query);
                    prop_assert_eq!(
                        found.as_ref().map(|c| &c.fingerprint),
                        expected.as_ref(),
                        "probe for {:?}",
                        pred
                    );
                    if let Some(c) = found {
                        let k: usize = c.fingerprint.key()[1..].parse().expect("k<slot>");
                        prop_assert_eq!(c.sel.len() as u32, model[k].as_ref().expect("resident").1);
                    }
                }
            }
        }
    }

    /// Warm contained ranges equal cold full scans.
    #[test]
    fn contained_ranges_served_warm_equal_cold_scans(
        lo in prop::sample::select(PRICE_BOUNDS.to_vec()),
        hi in prop::sample::select(PRICE_BOUNDS.to_vec()),
        shape in 0i64..4,
    ) {
        let (lo, hi) = (lo.min(hi), lo.max(hi));
        let t = base_table().clone();
        let db = ExploreDb::with_cache_policy(CachePolicy::on());
        db.register("sales", t.clone());
        // Seed a range wide enough to contain most of the pool yet under
        // seven eighths of the rows (wider selections carry no reuse
        // artifacts), then query the other range warm.
        db.query(
            "sales",
            &Query::new().filter(Predicate::range("price", 100.0, 1000.0)),
        )
        .expect("seed scan");
        let q = query_of(Predicate::range("price", lo, hi), shape);
        let warm = db.query("sales", &q).expect("warm query");
        let fresh = ExploreDb::new();
        fresh.register("sales", t);
        let cold = fresh.query("sales", &q).expect("cold query");
        prop_assert!(
            tables_bitwise_equal(&cold, &warm),
            "warm serve diverged on price in [{lo}, {hi}) shape {shape}"
        );
    }
}
