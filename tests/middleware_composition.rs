//! Cross-layer composition tests for the pieces added beyond the
//! initial reproduction: group-wise online aggregation, synopsis
//! answering, faceted recommendations and the dbtouch canvas — each
//! exercised *together with* the layers it serves.

use exploration::aqp::{
    Bound, BoundedExecutor, GroupedOnlineAggregation, OnlineAggregation, SynopsisStore,
};
use exploration::exec::QueryCtx;
use exploration::interact::canvas::{Canvas, CanvasResponse};
use exploration::interact::faceted_recommendations;
use exploration::interact::gesture::QueryIntent;
use exploration::sampling::SampleCatalog;
use exploration::storage::gen::{sales_table, SalesConfig};
use exploration::storage::{AggFunc, Predicate, Query};
use exploration::viz::{
    candidate_views, ordered_bars, recommend_naive, recommend_pruned, recommend_shared, ScoredView,
    SeedbStats,
};

/// FNV-1a step over one 64-bit word: the bit pins below fold every
/// float by `to_bits`, so a last-ulp change anywhere moves the digest.
fn fold(h: u64, x: u64) -> u64 {
    (h ^ x).wrapping_mul(0x0100_0000_01b3)
}

fn fold_str(h: u64, s: &str) -> u64 {
    s.bytes().fold(h, |h, b| fold(h, u64::from(b)))
}

/// Every approximate entry point — online aggregation (scalar and
/// grouped), ordered bars, the three SeeDB strategies and bounded
/// execution — on fixed seeds, digested bit for bit. The pins are the
/// answers these layers have always given; a refactor of their row
/// walks must leave every one of them in place.
#[test]
fn approximate_layers_keep_their_bits() {
    let t = sales_table(&SalesConfig {
        rows: 20_000,
        ..SalesConfig::default()
    });
    let window = Predicate::range("price", 50.0, 250.0);
    let ctx = QueryCtx::none();

    let mut online = 0xcbf2_9ce4_8422_2325;
    for func in [AggFunc::Avg, AggFunc::Sum, AggFunc::Count] {
        for seed in 1..=3 {
            let mut oa = OnlineAggregation::start(&t, &window, func, "price", 0.95, seed).unwrap();
            for s in oa.run_until(0.01, 1_500).unwrap() {
                online = fold(online, s.processed);
                online = fold(online, s.fraction.to_bits());
                online = fold(online, s.interval.estimate.to_bits());
                online = fold(online, s.interval.half_width.to_bits());
            }
        }
    }

    let mut grouped = 0xcbf2_9ce4_8422_2325;
    for seed in 1..=2 {
        let mut g = GroupedOnlineAggregation::start(&t, "region", "price", 0.95, seed).unwrap();
        while let Some(snap) = g.step(3_000).unwrap() {
            for e in snap {
                grouped = fold_str(grouped, &e.group);
                grouped = fold(grouped, e.seen);
                grouped = fold(grouped, e.interval.estimate.to_bits());
                grouped = fold(grouped, e.interval.half_width.to_bits());
            }
        }
    }

    let mut bars = 0xcbf2_9ce4_8422_2325;
    for (dim, seed) in [("region", 4), ("channel", 5), ("product", 6)] {
        let r = ordered_bars(&t, dim, "price", 0.95, 250, seed).unwrap();
        for (label, mean) in &r.bars {
            bars = fold(fold_str(bars, label), mean.to_bits());
        }
        bars = fold(fold(bars, r.rows_sampled as u64), u64::from(r.early_stop));
    }

    let target = Predicate::eq("product", "product0");
    let views = candidate_views(&t, &[AggFunc::Count, AggFunc::Sum, AggFunc::Avg]);
    let digest_views = |h: u64, got: &[ScoredView], stats: &SeedbStats| {
        let h = got.iter().fold(h, |h, v| {
            fold(fold_str(h, &v.spec.label()), v.utility.to_bits())
        });
        fold(fold(fold(h, stats.agg_ops), stats.scans), stats.pruned)
    };
    let mut seedb = 0xcbf2_9ce4_8422_2325;
    let mut stats = SeedbStats::default();
    let got = recommend_naive(&t, &target, &views, 5, &mut stats, &ctx).unwrap();
    seedb = digest_views(seedb, &got, &stats);
    let mut stats = SeedbStats::default();
    let got = recommend_shared(&t, &target, &views, 5, &mut stats, &ctx).unwrap();
    seedb = digest_views(seedb, &got, &stats);
    for (phases, seed) in [(1, 3), (10, 7), (4, 11)] {
        let mut stats = SeedbStats::default();
        let got = recommend_pruned(&t, &target, &views, 5, phases, seed, &mut stats, &ctx).unwrap();
        seedb = digest_views(seedb, &got, &stats);
    }

    let catalog = SampleCatalog::build(&t, &[0.01, 0.05, 0.2], &[], 7, &ctx).unwrap();
    let ex = BoundedExecutor::new(&t, &catalog);
    let mut bounded = 0xcbf2_9ce4_8422_2325;
    for func in [AggFunc::Count, AggFunc::Sum, AggFunc::Avg] {
        for bound in [
            Bound::RelativeError {
                target: 0.05,
                confidence: 0.95,
            },
            Bound::RowBudget { rows: 1_500 },
            Bound::RelativeError {
                target: 0.0,
                confidence: 0.95,
            },
        ] {
            let a = ex.aggregate(&window, func, "price", bound, &ctx).unwrap();
            bounded = fold(bounded, a.interval.estimate.to_bits());
            bounded = fold(bounded, a.interval.half_width.to_bits());
            bounded = fold(bounded, a.fraction_used.to_bits());
            bounded = fold(fold(bounded, a.rows_scanned as u64), u64::from(a.exact));
        }
    }

    let got = [online, grouped, bars, seedb, bounded].map(|d| format!("{d:#018x}"));
    assert_eq!(
        got,
        [
            "0xe0c963a1a05f54ab", // online snapshots
            "0xae15b43438457779", // grouped online estimates
            "0xb7a7ea3f5291ea2f", // ordered bars
            "0x55815f76d5a53971", // SeeDB utilities and stats
            "0xe74c4aaca1b42a39", // bounded answers
        ]
    );
}

/// YmalDB facets on fixed selections and `(min_support, k)` settings,
/// digested bit for bit: every facet's column, value and three
/// frequencies. The pin is the answer string-keyed counting always
/// gave; counting on dictionary codes must leave it in place.
#[test]
fn facets_keep_their_bits() {
    let t = sales_table(&SalesConfig {
        rows: 20_000,
        ..SalesConfig::default()
    });
    let mut h = 0xcbf2_9ce4_8422_2325;
    for selection in [
        Predicate::eq("channel", "channel1"),
        Predicate::eq("region", "region0"),
        Predicate::range("price", 50.0, 250.0),
        Predicate::range("discount", 0.1, 0.3),
    ] {
        let rows = selection.evaluate(&t).unwrap();
        for (min_support, k) in [(0, 1_000), (5, 10), (50, 5)] {
            let facets = faceted_recommendations(&t, &rows, min_support, k).unwrap();
            h = fold(h, facets.len() as u64);
            for f in &facets {
                h = fold_str(fold_str(h, &f.column), &f.value);
                h = fold(h, f.result_frequency.to_bits());
                h = fold(h, f.base_frequency.to_bits());
                h = fold(h, f.lift.to_bits());
            }
        }
    }
    assert_eq!(format!("{h:#018x}"), "0xaa3d4d02e902953a");
}

#[test]
fn grouped_online_aggregation_matches_exact_groups() {
    let t = sales_table(&SalesConfig {
        rows: 30_000,
        ..SalesConfig::default()
    });
    let mut g = GroupedOnlineAggregation::start(&t, "channel", "price", 0.95, 9).unwrap();
    let snap = g.run_until(0.03, 2_000).unwrap();
    assert!(!snap.is_empty());
    // Every interval is within its bound and brackets the exact mean.
    let exact = Query::new()
        .group("channel")
        .agg(AggFunc::Avg, "price")
        .run(&t)
        .unwrap();
    let labels = exact.column("channel").unwrap().as_utf8().unwrap();
    let means = exact.column("avg(price)").unwrap().as_f64().unwrap();
    let mut misses = 0;
    for est in &snap {
        assert!(est.interval.relative_error() <= 0.03);
        let idx = labels.iter().position(|l| l == &est.group).unwrap();
        if !est.interval.contains(means[idx]) {
            misses += 1;
        }
    }
    assert!(misses <= 1, "at most one 95% interval may miss");
}

#[test]
fn synopsis_store_and_sampling_agree_on_counts() {
    let t = sales_table(&SalesConfig {
        rows: 40_000,
        ..SalesConfig::default()
    });
    let store = SynopsisStore::build(&t, 64);
    let truth = Predicate::range("price", 50.0, 250.0)
        .evaluate(&t)
        .unwrap()
        .len() as f64;
    let est = store.range_count("price", 50.0, 250.0).unwrap().estimate;
    assert!((est - truth).abs() / truth < 0.1);
    // Point counts from the sketch are conservative.
    let regions = t.column("region").unwrap().as_utf8().unwrap();
    let count0 = regions.iter().filter(|r| r.as_str() == "region0").count() as f64;
    assert!(store.point_count("region", "region0").unwrap().estimate >= count0);
}

#[test]
fn canvas_session_drives_real_queries() {
    let t = sales_table(&SalesConfig {
        rows: 2_000,
        ..SalesConfig::default()
    });
    let mut canvas = Canvas::new(&t).unwrap();
    // Slide down the price column three times; the running mean must
    // converge towards the full-column mean as rows are consumed.
    let x = 3.5 / 6.0;
    let mut last_consumed = 0;
    for _ in 0..3 {
        match canvas.apply(&QueryIntent::ScanColumn { x }).unwrap() {
            CanvasResponse::RunningAggregate { rows_consumed, .. } => {
                assert!(rows_consumed > last_consumed);
                last_consumed = rows_consumed;
            }
            other => panic!("{other:?}"),
        }
    }
    // Zoom, then summarize only the window.
    canvas
        .apply(&QueryIntent::DrillDown { cx: 0.5, cy: 0.5 })
        .unwrap();
    match canvas
        .apply(&QueryIntent::Summarize { cx: 0.5, cy: 0.5 })
        .unwrap()
    {
        CanvasResponse::Summary { rows, .. } => {
            let (s, e) = canvas.viewport();
            assert_eq!(rows, e - s);
            assert!(rows < 2_000);
        }
        other => panic!("{other:?}"),
    }
}
