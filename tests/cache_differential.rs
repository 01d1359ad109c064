//! Cache-on/off differential harness for the semantic result cache.
//!
//! Every query shape from the serial/parallel differential suite replays
//! against a cache-enabled engine — cold (first touch) and warm (second
//! touch, served from cache), under both execution policies — and must
//! be **bit-identical** (floats via `to_bits`) to the cache-off engine.
//! A separate battery drives contained range predicates through the
//! subsumption path and pins those to the uncached answers too: single
//! serves, refinement chains many steps deep, multi-column and
//! string-bounded regions, and chains whose entries are evicted under
//! them. A last test replays one op stream twice and requires identical
//! cache counters.

use exploration::cache::{CacheConfig, CachePolicy, CacheStats};
use exploration::exec::ExecPolicy;
use exploration::prefetch::{GridIndex, PanSession, Viewport};
use exploration::storage::gen::sky_table;
use exploration::storage::{AggFunc, CmpOp, Predicate, Query, SortOrder, Table, MORSEL_ROWS};
use exploration::ExploreDb;

mod common;
use common::{assert_bitwise_eq, query_shapes, sales};

/// The two table scales of the parallel differential suite: several
/// morsels with a ragged tail, and a sub-morsel degenerate.
fn table_sizes() -> [usize; 2] {
    [777, 2 * MORSEL_ROWS + 4321]
}

/// A budget large enough that this workload never evicts — the harness
/// tests serve-path correctness; eviction policy is unit-tested in
/// `explore-cache`.
fn roomy_policy() -> CachePolicy {
    CachePolicy::On(CacheConfig {
        byte_budget: 1 << 30,
        ..CacheConfig::default()
    })
}

/// Cold and warm cache passes equal the cache-off engine for every
/// shape, at both table scales, under both execution policies.
#[test]
fn every_shape_is_bit_identical_with_cache_off_cold_and_warm() {
    for rows in table_sizes() {
        let t = sales(rows);
        for policy in [ExecPolicy::Serial, ExecPolicy::Parallel { workers: 4 }] {
            let off = ExploreDb::with_exec_policy(policy);
            off.register("sales", t.clone());
            let on = ExploreDb::with_exec_policy(policy);
            on.set_cache_policy(roomy_policy());
            on.register("sales", t.clone());

            let shapes = query_shapes();
            let baselines: Vec<Table> = shapes
                .iter()
                .map(|(name, q)| {
                    off.query("sales", q)
                        .unwrap_or_else(|e| panic!("{name} baseline: {e}"))
                })
                .collect();

            for ((name, q), baseline) in shapes.iter().zip(&baselines) {
                let cold = on
                    .query("sales", q)
                    .unwrap_or_else(|e| panic!("{name} cold: {e}"));
                assert_bitwise_eq(
                    baseline,
                    &cold,
                    &format!("{name} cold ({rows} rows, {policy:?})"),
                );
            }
            let stats_cold = on.cache_stats();
            assert_eq!(stats_cold.hits, 0, "cold pass must not hit");
            assert!(
                stats_cold.insertions > 0,
                "cold pass populates the cache: {stats_cold:?}"
            );

            for ((name, q), baseline) in shapes.iter().zip(&baselines) {
                let warm = on
                    .query("sales", q)
                    .unwrap_or_else(|e| panic!("{name} warm: {e}"));
                assert_bitwise_eq(
                    baseline,
                    &warm,
                    &format!("{name} warm ({rows} rows, {policy:?})"),
                );
            }
            let stats_warm = on.cache_stats();
            assert_eq!(
                stats_warm.hits,
                shapes.len() as u64,
                "every warm query is an exact hit: {stats_warm:?}"
            );
        }
    }
}

/// Subsumption serving: a narrow range answered from a cached broader
/// range equals the uncached answer bit-for-bit, scans and aggregates
/// alike, under both execution policies.
#[test]
fn subsumption_serves_are_bit_identical() {
    let t = sales(2 * MORSEL_ROWS + 4321);
    for policy in [ExecPolicy::Serial, ExecPolicy::Parallel { workers: 4 }] {
        let off = ExploreDb::with_exec_policy(policy);
        off.register("sales", t.clone());
        let on = ExploreDb::with_exec_policy(policy);
        on.set_cache_policy(roomy_policy());
        on.register("sales", t.clone());

        // Broad seed: price in [50, 900).
        let broad = Query::new().filter(Predicate::range("price", 50.0, 900.0));
        assert_bitwise_eq(
            &off.query("sales", &broad).unwrap(),
            &on.query("sales", &broad).unwrap(),
            "broad seed",
        );

        // Strictly contained shapes over the same column, escalating in
        // narrowness; each may be served from a previously admitted
        // superset.
        let contained: Vec<(&str, Query)> = vec![
            (
                "narrow_scan",
                Query::new().filter(Predicate::range("price", 100.0, 600.0)),
            ),
            (
                "narrower_agg",
                Query::new()
                    .filter(Predicate::range("price", 200.0, 400.0))
                    .group("region")
                    .agg(AggFunc::Sum, "price")
                    .agg(AggFunc::Avg, "discount"),
            ),
            (
                "multi_column_contained",
                Query::new()
                    .filter(Predicate::range("price", 120.0, 550.0).and(Predicate::cmp(
                        "qty",
                        CmpOp::Ge,
                        3i64,
                    )))
                    .select(&["region", "price", "qty"]),
            ),
            (
                "contained_order_limit",
                Query::new()
                    .filter(Predicate::range("price", 60.0, 880.0))
                    .select(&["product", "price"])
                    .order("price", SortOrder::Asc)
                    .take(50),
            ),
        ];
        for (name, q) in &contained {
            let baseline = off.query("sales", q).unwrap();
            let served = on.query("sales", q).unwrap();
            assert_bitwise_eq(&baseline, &served, &format!("{name} ({policy:?})"));
        }
        let stats = on.cache_stats();
        assert!(
            stats.subsumption_hits >= 2,
            "contained ranges should reuse cached supersets: {stats:?}"
        );

        // And the subsumption-admitted narrower results serve exactly on
        // repeat.
        for (name, q) in &contained {
            let baseline = off.query("sales", q).unwrap();
            let repeat = on.query("sales", q).unwrap();
            assert_bitwise_eq(&baseline, &repeat, &format!("{name} repeat ({policy:?})"));
        }
    }
}

/// Flipping the policy off mid-session returns to the uncached path and
/// stays bit-identical.
#[test]
fn toggling_cache_policy_preserves_results() {
    let t = sales(20_000);
    let off = ExploreDb::new();
    off.register("sales", t.clone());
    let db = ExploreDb::with_cache_policy(CachePolicy::on());
    db.register("sales", t);
    let q = Query::new()
        .filter(Predicate::range("price", 100.0, 700.0))
        .group("region")
        .agg(AggFunc::Avg, "price");
    let baseline = off.query("sales", &q).unwrap();
    assert_bitwise_eq(&baseline, &db.query("sales", &q).unwrap(), "on cold");
    assert_bitwise_eq(&baseline, &db.query("sales", &q).unwrap(), "on warm");
    db.set_cache_policy(CachePolicy::Off);
    let hits_frozen = db.cache_stats().hits;
    assert_bitwise_eq(&baseline, &db.query("sales", &q).unwrap(), "off again");
    assert_eq!(
        db.cache_stats().hits,
        hits_frozen,
        "Off must not serve from cache"
    );
}

/// A threshold no real query can clear: every result is refused at
/// admission, both passes recompute, and both stay bit-identical to the
/// uncached engine. Rejection must be invisible in results and visible
/// in stats and the `cache.admit_rejected` counter.
#[test]
fn admission_rejection_is_bit_identical_and_observed() {
    use exploration::obs::ObsPolicy;

    let t = sales(2 * MORSEL_ROWS + 4321);
    for policy in [ExecPolicy::Serial, ExecPolicy::Parallel { workers: 4 }] {
        let off = ExploreDb::with_exec_policy(policy);
        off.register("sales", t.clone());
        let on = ExploreDb::with_exec_policy(policy);
        on.set_obs_policy(ObsPolicy::on());
        on.set_cache_policy(CachePolicy::On(CacheConfig {
            byte_budget: 1 << 30,
            admit_min_cost_ns: u64::MAX,
        }));
        on.register("sales", t.clone());

        let shapes = query_shapes();
        for pass in ["cold", "recompute"] {
            for (name, q) in &shapes {
                let baseline = off.query("sales", q).unwrap();
                let got = on.query("sales", q).unwrap();
                assert_bitwise_eq(&baseline, &got, &format!("{name} {pass} ({policy:?})"));
            }
        }

        let stats = on.cache_stats();
        assert_eq!(stats.insertions, 0, "nothing admitted: {stats:?}");
        assert_eq!(stats.hits, 0, "nothing cached → nothing hit: {stats:?}");
        assert_eq!(
            stats.misses,
            2 * shapes.len() as u64,
            "every pass recomputes: {stats:?}"
        );
        assert_eq!(
            stats.admit_rejected,
            2 * shapes.len() as u64,
            "every computed result was refused: {stats:?}"
        );
        assert_eq!(
            on.metrics_snapshot().counter("cache.admit_rejected"),
            2 * shapes.len() as u64,
            "rejections mirrored into obs metrics"
        );
    }
}

/// A zero threshold admits everything (the pre-admission behavior): the
/// warm pass is all exact hits and still bit-identical.
#[test]
fn admission_threshold_zero_admits_everything() {
    let t = sales(20_000);
    let off = ExploreDb::new();
    off.register("sales", t.clone());
    let on = ExploreDb::with_cache_policy(CachePolicy::On(CacheConfig {
        byte_budget: 1 << 30,
        admit_min_cost_ns: 0,
    }));
    on.register("sales", t);

    let shapes = query_shapes();
    for (name, q) in &shapes {
        let baseline = off.query("sales", q).unwrap();
        assert_bitwise_eq(
            &baseline,
            &on.query("sales", q).unwrap(),
            &format!("{name} cold"),
        );
    }
    for (name, q) in &shapes {
        let baseline = off.query("sales", q).unwrap();
        assert_bitwise_eq(
            &baseline,
            &on.query("sales", q).unwrap(),
            &format!("{name} warm"),
        );
    }
    let stats = on.cache_stats();
    assert_eq!(stats.admit_rejected, 0, "zero threshold refuses nothing");
    assert_eq!(
        stats.hits,
        shapes.len() as u64,
        "every warm query is an exact hit: {stats:?}"
    );
}

/// The output shape of step `depth` of a refinement chain: the four
/// kinds of post-filter work, in rotation.
fn chain_shape(depth: usize, pred: Predicate) -> Query {
    let q = Query::new().filter(pred);
    match depth % 4 {
        0 => q,
        1 => q
            .group("region")
            .agg(AggFunc::Sum, "price")
            .agg(AggFunc::Avg, "discount"),
        2 => q.select(&["product", "price", "qty"]),
        _ => q
            .select(&["region", "price"])
            .order("price", SortOrder::Desc)
            .take(40),
    }
}

/// Run a chain of nested predicates on a cache-on and a cache-off engine
/// under both policies; every answer must match bit for bit. Returns the
/// cache-on engine's stats per policy.
fn run_chain(t: &Table, cache: CachePolicy, chain: &[Predicate], context: &str) -> Vec<CacheStats> {
    [ExecPolicy::Serial, ExecPolicy::Parallel { workers: 4 }]
        .into_iter()
        .map(|policy| {
            let off = ExploreDb::with_exec_policy(policy);
            off.register("sales", t.clone());
            let on = ExploreDb::with_exec_policy(policy);
            on.set_cache_policy(cache.clone());
            on.register("sales", t.clone());
            for (depth, pred) in chain.iter().enumerate() {
                let q = chain_shape(depth, pred.clone());
                assert_bitwise_eq(
                    &off.query("sales", &q).unwrap(),
                    &on.query("sales", &q).unwrap(),
                    &format!("{context} step {depth} ({policy:?})"),
                );
            }
            on.cache_stats()
        })
        .collect()
}

/// Eight nested price ranges: every step after the first is answered
/// from the selection the step before it admitted.
#[test]
fn deep_refinement_chains_are_bit_identical() {
    let t = sales(2 * MORSEL_ROWS + 4321);
    let chain: Vec<Predicate> = [
        (100.0, 600.0),
        (110.0, 560.0),
        (125.0, 520.0),
        (140.0, 480.0),
        (160.0, 440.0),
        (180.0, 400.0),
        (200.0, 360.0),
        (220.0, 330.0),
    ]
    .into_iter()
    .map(|(lo, hi)| Predicate::range("price", lo, hi))
    .collect();
    for stats in run_chain(&t, roomy_policy(), &chain, "price chain") {
        assert_eq!(
            (stats.misses, stats.subsumption_hits),
            (1, chain.len() as u64 - 1),
            "one scan, then seven re-filters: {stats:?}"
        );
        assert_eq!(stats.reuse_entries, chain.len(), "{stats:?}");
    }
}

/// Regions over several columns, some bounded by strings: each step adds
/// or tightens a constraint, so each is contained in the one before.
#[test]
fn multi_column_and_string_bounded_chains_are_bit_identical() {
    let t = sales(2 * MORSEL_ROWS + 4321);
    let price = |lo: f64, hi: f64| Predicate::range("price", lo, hi);
    let chain = vec![
        Predicate::range("region", "region0", "region6").and(price(100.0, 600.0)),
        Predicate::range("region", "region0", "region5").and(price(110.0, 580.0)),
        Predicate::range("region", "region1", "region5").and(price(120.0, 560.0)),
        Predicate::range("region", "region1", "region5")
            .and(price(120.0, 500.0))
            .and(Predicate::cmp("qty", CmpOp::Ge, 2i64)),
        Predicate::range("region", "region1", "region4")
            .and(price(130.0, 450.0))
            .and(Predicate::range("qty", 2i64, 9i64)),
        Predicate::eq("region", "region2")
            .and(price(130.0, 450.0))
            .and(Predicate::range("qty", 3i64, 9i64)),
        Predicate::eq("region", "region2")
            .and(price(150.0, 400.0))
            .and(Predicate::range("qty", 3i64, 8i64))
            .and(Predicate::cmp("channel", CmpOp::Lt, "channel2")),
    ];
    for stats in run_chain(&t, roomy_policy(), &chain, "mixed chain") {
        assert_eq!(
            (stats.misses, stats.subsumption_hits),
            (1, chain.len() as u64 - 1),
            "{stats:?}"
        );
    }
    // Dropping a constraint leaves the cached region: a miss, and still
    // the uncached answer.
    let escape = vec![
        price(100.0, 400.0).and(Predicate::eq("channel", "channel1")),
        price(150.0, 350.0),
    ];
    for stats in run_chain(&t, roomy_policy(), &escape, "escaping chain") {
        assert_eq!((stats.misses, stats.subsumption_hits), (2, 0), "{stats:?}");
    }
}

/// Two interleaved chains under a budget that holds only a few of their
/// selections: entries (chain sources included) are evicted while the
/// chains go on, and every answer still equals the uncached one.
#[test]
fn chains_survive_evictions() {
    let t = sales(2 * MORSEL_ROWS + 4321);
    let mut chain = Vec::new();
    for step in 0..8 {
        let d = step as f64;
        chain.push(Predicate::range("price", 150.0 + 4.0 * d, 330.0 - 4.0 * d));
        chain.push(Predicate::range("qty", 3i64, 7i64).and(Predicate::range(
            "price",
            50.0 + 8.0 * d,
            560.0 - 8.0 * d,
        )));
    }
    let tight = CachePolicy::On(CacheConfig {
        byte_budget: 1 << 20,
        admit_min_cost_ns: 0,
    });
    for stats in run_chain(&t, tight.clone(), &chain, "evicting chains") {
        assert!(stats.evictions > 0, "the budget must bind: {stats:?}");
        assert!(stats.subsumption_hits > 0, "{stats:?}");
        assert!(stats.bytes <= 1 << 20, "{stats:?}");
    }
}

/// The same op stream — filters, refines nested in them, repeats, and pan
/// viewports parking grid cells in the same cache — replayed on two
/// fresh engines leaves identical cache counters. With the admission
/// floor at zero and no byte pressure, nothing the cache decides depends
/// on a timer (`saved_cost_ns` is a measurement, not a decision).
#[test]
fn cache_counters_are_a_function_of_the_op_stream() {
    let t = sales(2 * MORSEL_ROWS + 4321);
    let sky = sky_table(20_000, 5, 100.0, 11);
    let grid = GridIndex::build(&sky, "x", "y", "mag", 16, 16).unwrap();
    let replay = || {
        let db = ExploreDb::with_cache_policy(CachePolicy::On(CacheConfig {
            byte_budget: 1 << 30,
            admit_min_cost_ns: 0,
        }));
        db.register("sales", t.clone());
        db.register("sky", sky.clone());
        let mut pan = PanSession::new(&grid, true).with_shared_cache(db.cache(), "sky");
        for i in 0..60usize {
            let lo = 60.0 + 35.0 * (i % 7) as f64;
            let filter = Predicate::range("price", lo, lo + 120.0);
            let refine = Predicate::range("price", lo + 10.0 + i as f64 / 8.0, lo + 90.0);
            db.query("sales", &chain_shape(1, filter)).unwrap();
            db.query("sales", &chain_shape(i, refine)).unwrap();
            pan.view(Viewport {
                cx: (i % 11) as i64,
                cy: (i % 5) as i64,
                w: 3,
                h: 2,
            })
            .unwrap();
        }
        CacheStats {
            saved_cost_ns: 0,
            ..db.cache_stats()
        }
    };
    let first = replay();
    assert_eq!(first, replay());
    assert!(first.hits > 0 && first.subsumption_hits > 0 && first.misses > 0);
    assert!(
        first.reuse_entries > 0 && first.reuse_bytes > 0,
        "{first:?}"
    );
    assert_eq!(first.evictions + first.admit_rejected, 0, "{first:?}");
}
