//! Semantic result-cache benches: a fixed exploration workload replayed
//! against the engine with the cache off, cold (first touch), and warm
//! (every query an exact hit). The warm/cold spread is the headline
//! number — a warm session should be well over 5× faster than computing
//! the same answers from base data. A second group times the
//! subsumption path: fresh contained ranges answered by re-filtering a
//! cached superset selection instead of scanning the base table. A third
//! times the store's own bookkeeping at the sizes a long session reaches:
//! one subsumption probe over 6 000 resident supersets, and one admission
//! (with the eviction it forces) of a 1 %-selectivity filter result.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use std::cell::Cell;
use std::hint::black_box;
use std::sync::Arc;

use explore_core::cache::{
    CacheConfig, CachePolicy, Fingerprint, Region, ResultCache, ReuseArtifacts,
};
use explore_core::storage::gen::{sales_table, SalesConfig};
use explore_core::storage::{AggFunc, CmpOp, Predicate, Query, SortOrder, Table};
use explore_core::ExploreDb;

fn sales_100k() -> Table {
    sales_table(&SalesConfig {
        rows: 100_000,
        ..SalesConfig::default()
    })
}

/// A budget roomy enough that the workload never evicts; eviction cost
/// is not what these benches measure.
fn roomy_policy() -> CachePolicy {
    CachePolicy::On(CacheConfig {
        byte_budget: 1 << 30,
        ..CacheConfig::default()
    })
}

/// An exploration-session workload: overlapping range scans, grouped and
/// global aggregates, and a top-k — the query mix a dashboard replays on
/// every refresh.
fn workload() -> Vec<Query> {
    vec![
        Query::new()
            .group("region")
            .agg(AggFunc::Sum, "price")
            .agg(AggFunc::Count, "qty"),
        Query::new()
            .filter(Predicate::range("price", 50.0, 900.0))
            .group("product")
            .agg(AggFunc::Avg, "price"),
        Query::new()
            .filter(Predicate::range("price", 100.0, 600.0))
            .agg(AggFunc::Sum, "price")
            .agg(AggFunc::Avg, "discount"),
        Query::new()
            .filter(Predicate::range("price", 200.0, 400.0))
            .group("region")
            .agg(AggFunc::Sum, "price"),
        Query::new()
            .agg(AggFunc::Count, "qty")
            .agg(AggFunc::Sum, "price")
            .agg(AggFunc::Avg, "price")
            .agg(AggFunc::Var, "price")
            .agg(AggFunc::Std, "price"),
        Query::new()
            .filter(Predicate::cmp("qty", CmpOp::Ge, 5.0))
            .group("channel")
            .agg(AggFunc::Avg, "price"),
        Query::new()
            .filter(Predicate::range("price", 50.0, 800.0))
            .select(&["product", "price"])
            .order("price", SortOrder::Desc)
            .take(50),
        Query::new()
            .filter(Predicate::eq("channel", "channel1"))
            .agg(AggFunc::Avg, "price"),
        Query::new()
            .filter(Predicate::range("price", 150.0, 500.0).and(Predicate::cmp(
                "qty",
                CmpOp::Ge,
                2.0,
            )))
            .group("region")
            .agg(AggFunc::Avg, "qty"),
        Query::new()
            .filter(Predicate::range("price", 0.0, 1000.0))
            .agg(AggFunc::Sum, "qty"),
    ]
}

/// Run every workload query; fold row counts so nothing is optimized
/// away.
fn run_workload(db: &mut ExploreDb, queries: &[Query]) -> usize {
    queries
        .iter()
        .map(|q| db.query("sales", q).expect("workload query").num_rows())
        .sum()
}

fn bench_cache_workload(c: &mut Criterion) {
    let t = sales_100k();
    let queries = workload();

    let mut group = c.benchmark_group("cache_workload");
    group.sample_size(10);
    group.bench_function("off", |b| {
        // Fresh engine per sample, same harness as `on_cold`, so the
        // off/cold comparison isolates cache bookkeeping instead of
        // allocator warm-up differences between the two loops.
        b.iter_batched(
            || {
                let db = ExploreDb::new();
                db.register("sales", t.clone());
                db
            },
            |mut db| black_box(run_workload(&mut db, &queries)),
            BatchSize::LargeInput,
        )
    });
    group.bench_function("on_cold", |b| {
        // Fresh engine per sample: every query computes and is admitted.
        b.iter_batched(
            || {
                let db = ExploreDb::with_cache_policy(roomy_policy());
                db.register("sales", t.clone());
                db
            },
            |mut db| black_box(run_workload(&mut db, &queries)),
            BatchSize::LargeInput,
        )
    });
    group.bench_function("on_warm", |b| {
        // Warmed once in setup: every timed query is an exact hit.
        let mut db = ExploreDb::with_cache_policy(roomy_policy());
        db.register("sales", t.clone());
        run_workload(&mut db, &queries);
        b.iter(|| black_box(run_workload(&mut db, &queries)))
    });
    group.finish();

    // Record the warm pass's exact-hit rate into the JSON so perf
    // trajectories can confirm the warm timing really measured cache
    // serves.
    let mut db = ExploreDb::with_cache_policy(roomy_policy());
    db.register("sales", t.clone());
    run_workload(&mut db, &queries);
    let before = db.cache_stats();
    run_workload(&mut db, &queries);
    let after = db.cache_stats();
    let served = after.hits - before.hits;
    let pct = 100.0 * served as f64 / queries.len() as f64;
    eprintln!(
        "cache_workload warm pass: {served}/{} exact hits ({after:?})",
        queries.len()
    );
    let mut stats_group = c.benchmark_group("cache_stats");
    stats_group.record_value("warm_exact_hit_rate_pct", pct, "percent");
    stats_group.finish();

    // Cold-overhead ratio as a gate-checkable value record: cache-off /
    // cache-on-cold wall time × 100, higher is better, parity = 100.
    // Cost-aware admission and artifact gating exist precisely so a
    // never-repeating workload pays (almost) nothing for having the
    // cache on; this record holds that property in CI.
    let samples = std::env::var("BENCH_SAMPLES")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(5usize)
        .max(2);
    let best = |policy: CachePolicy| {
        (0..samples)
            .map(|_| {
                let mut db = ExploreDb::with_cache_policy(policy.clone());
                db.register("sales", t.clone());
                let start = std::time::Instant::now();
                black_box(run_workload(&mut db, &queries));
                start.elapsed().as_nanos()
            })
            .min()
            .unwrap()
    };
    let off_ns = best(CachePolicy::Off);
    let cold_ns = best(roomy_policy());
    let ratio_pct = 100.0 * off_ns as f64 / cold_ns.max(1) as f64;
    let mut ratio_group = c.benchmark_group("cache_overhead");
    ratio_group.record_value("off_vs_on_cold", ratio_pct, "percent");
    ratio_group.finish();
}

/// Subsumption serving: each sample asks a *previously unseen* contained
/// range (bounds shift every iteration), so a warm engine can never
/// exact-hit — it must re-filter the cached superset selection. Compared
/// against the same shifting ranges computed from base data. The seeded
/// superset is selective (a drilled-into region), which is the regime
/// subsumption targets: on a large base table, re-filtering a small
/// cached subset beats re-scanning every base row.
fn bench_cache_subsumption(c: &mut Criterion) {
    let t = sales_table(&SalesConfig {
        rows: 1_000_000,
        ..SalesConfig::default()
    });
    // A drill-down refinement: a fresh contained price range each time,
    // minus one sales channel. The negated conjunct has no exact region,
    // so served results stay exact-hit-only (no artifact gather) — the
    // timing isolates the re-filter serve itself.
    let shifted = |i: u64| {
        let d = (i % 30) as f64 / 2.0;
        Query::new()
            .filter(
                Predicate::range("price", 484.0 + d, 516.0 - d)
                    .and(Predicate::eq("channel", "channel0").not()),
            )
            .agg(AggFunc::Sum, "price")
            .agg(AggFunc::Count, "qty")
    };

    let mut group = c.benchmark_group("cache_subsumption");
    group.sample_size(10);
    group.bench_function("fresh_ranges_uncached", |b| {
        let db = ExploreDb::new();
        db.register("sales", t.clone());
        let i = Cell::new(0u64);
        b.iter(|| {
            i.set(i.get() + 1);
            black_box(
                db.query("sales", &shifted(i.get()))
                    .expect("scan")
                    .num_rows(),
            )
        })
    });
    group.bench_function("fresh_ranges_subsumed", |b| {
        let db = ExploreDb::with_cache_policy(roomy_policy());
        db.register("sales", t.clone());
        // Seed the covering superset whose selection artifact serves
        // every shifted range.
        db.query(
            "sales",
            &Query::new().filter(Predicate::range("price", 480.0, 520.0)),
        )
        .expect("seed");
        let i = Cell::new(0u64);
        b.iter(|| {
            i.set(i.get() + 1);
            black_box(
                db.query("sales", &shifted(i.get()))
                    .expect("serve")
                    .num_rows(),
            )
        })
    });
    group.finish();
}

/// Store bookkeeping under the load a long analyst session builds up:
/// thousands of resident selections over one column, a full budget.
fn bench_cache_store(c: &mut Criterion) {
    const SUPERSETS: usize = 6_000;
    // A 1 % filter of a 100 k-row table selects 1 000 rows.
    let sel: Arc<Vec<u32>> = Arc::new((0..100_000).step_by(100).collect());
    let result = Arc::new(sales_table(&SalesConfig {
        rows: 8,
        ..SalesConfig::default()
    }));
    let window = |i: usize| Predicate::range("price", i as f64, i as f64 + 10.0);
    let admit = |cache: &ResultCache, i: usize| {
        let reuse = ReuseArtifacts {
            region: Region::exact(&window(i)).expect("a range is exact"),
            sel: Arc::clone(&sel),
        };
        cache.insert(
            Fingerprint::custom("sales", format!("w{i}")),
            Arc::clone(&result),
            Some(reuse),
            1_000_000,
            0,
        )
    };
    let filled = |byte_budget: usize| {
        let cache = ResultCache::new(CacheConfig {
            byte_budget,
            ..CacheConfig::default()
        });
        for i in 0..SUPERSETS {
            admit(&cache, i);
        }
        cache
    };

    let mut group = c.benchmark_group("cache_probe");
    group.sample_size(10);
    group.bench_function("6k_supersets", |b| {
        let cache = filled(1 << 30);
        assert_eq!(cache.stats().reuse_entries, SUPERSETS);
        // No window reaches below zero: the probe walks every superset
        // and finds none.
        let outside = Region::relaxed(&Predicate::range("price", -2.0, -1.0));
        b.iter(|| black_box(cache.find_subsuming("sales", &outside)).is_none())
    });
    group.finish();

    let mut group = c.benchmark_group("cache_admit");
    group.sample_size(10);
    group.bench_function("filter_1pct", |b| {
        // A budget that is exactly full: every admission evicts.
        let cache = filled(filled(1 << 30).stats().bytes);
        let next = Cell::new(SUPERSETS);
        b.iter(|| {
            next.set(next.get() + 1);
            black_box(admit(&cache, next.get()))
        });
        assert_eq!(cache.stats().entries, SUPERSETS);
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_cache_workload,
    bench_cache_subsumption,
    bench_cache_store
);
criterion_main!(benches);
