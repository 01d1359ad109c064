//! Epoch-invalidation correctness for the semantic result cache.
//!
//! Every mutation channel — row append, bulk append, in-place update,
//! table re-registration — must bump the table's epoch (cracking is not
//! one: it reorganizes an index copy and must leave the epoch and every
//! warm entry alone), and a warm cache must never serve a pre-mutation
//! result: after each mutation the cached engine's answers are compared
//! bit-for-bit against a cache-less engine over the same mutated data.

use exploration::cache::{CacheConfig, CachePolicy};
use exploration::storage::gen::{sales_table, SalesConfig};
use exploration::storage::{AggFunc, CmpOp, Predicate, Query, Value};
use exploration::{ExploreDb, Schedule};

mod common;
use common::{assert_bitwise_eq, sales};

/// The probe workload: a scan, an aggregate, and a narrow range that
/// exercises the subsumption path.
fn probes() -> Vec<(&'static str, Query)> {
    vec![
        (
            "scan",
            Query::new().filter(Predicate::range("price", 50.0, 900.0)),
        ),
        (
            "aggregate",
            Query::new()
                .group("region")
                .agg(AggFunc::Sum, "price")
                .agg(AggFunc::Count, "qty"),
        ),
        (
            "subsumed_range",
            Query::new()
                .filter(Predicate::range("price", 100.0, 600.0))
                .agg(AggFunc::Sum, "qty"),
        ),
    ]
}

/// Run the probe workload on the warm cached engine and pin every answer
/// to an uncached engine over a snapshot of the same (mutated) table.
fn assert_matches_uncached(db: &mut ExploreDb, context: &str) {
    let snapshot = db.table("sales").unwrap().clone();
    let fresh = ExploreDb::new();
    fresh.register("sales", snapshot);
    for (name, q) in probes() {
        let cached = db
            .query("sales", &q)
            .unwrap_or_else(|e| panic!("{context}/{name}: {e}"));
        let truth = fresh.query("sales", &q).unwrap();
        assert_bitwise_eq(&truth, &cached, &format!("{context}/{name}"));
    }
}

/// Warm the cache so a stale serve *would* be observable if epochs were
/// broken.
fn warm(db: &mut ExploreDb) {
    for (_, q) in probes() {
        db.query("sales", &q).unwrap();
        db.query("sales", &q).unwrap();
    }
}

#[test]
fn push_row_invalidates_warm_entries() {
    let mut db = ExploreDb::with_cache_policy(CachePolicy::on());
    db.register("sales", sales(10_000));
    warm(&mut db);
    assert!(db.cache_stats().hits > 0, "warm-up should hit");
    assert_eq!(db.table_epoch("sales"), 0);

    // An extreme row that visibly shifts every probe.
    db.push_row(
        "sales",
        vec![
            Value::from("regionX"),
            Value::from("productX"),
            Value::from("channelX"),
            Value::Float(500.0),
            Value::Float(0.5),
            Value::Int(1_000),
        ],
    )
    .unwrap();
    assert_eq!(db.table_epoch("sales"), 1);
    assert!(db.cache_stats().invalidations > 0, "stale entries purged");
    assert_matches_uncached(&mut db, "after push_row");
}

#[test]
fn append_rows_invalidates_warm_entries() {
    let mut db = ExploreDb::with_cache_policy(CachePolicy::on());
    db.register("sales", sales(8_000));
    warm(&mut db);
    let extra = sales(1_000);
    db.append_rows("sales", &extra).unwrap();
    assert_eq!(db.table_epoch("sales"), 1);
    assert_eq!(db.table("sales").unwrap().num_rows(), 9_000);
    assert_matches_uncached(&mut db, "after append_rows");
}

#[test]
fn update_where_invalidates_warm_entries() {
    let mut db = ExploreDb::with_cache_policy(CachePolicy::on());
    db.register("sales", sales(10_000));
    warm(&mut db);
    let sum_before = db
        .query("sales", &Query::new().agg(AggFunc::Sum, "price"))
        .unwrap();

    let changed = db
        .update_where(
            "sales",
            &Predicate::range("price", 100.0, 600.0),
            "price",
            Value::Float(50.0),
        )
        .unwrap();
    assert!(changed > 0);
    assert_eq!(db.table_epoch("sales"), 1);

    let sum_after = db
        .query("sales", &Query::new().agg(AggFunc::Sum, "price"))
        .unwrap();
    let before = sum_before.column("sum(price)").unwrap().as_f64().unwrap()[0];
    let after = sum_after.column("sum(price)").unwrap().as_f64().unwrap()[0];
    assert_ne!(
        before.to_bits(),
        after.to_bits(),
        "update must be visible through the cache"
    );
    assert_matches_uncached(&mut db, "after update_where");

    // A no-match update mutates nothing and keeps the (new) warm cache.
    let zero = db
        .update_where(
            "sales",
            &Predicate::cmp("price", CmpOp::Lt, -1.0),
            "price",
            Value::Float(0.0),
        )
        .unwrap();
    assert_eq!(zero, 0);
    assert_eq!(db.table_epoch("sales"), 1, "no rows matched, no epoch bump");
}

#[test]
fn reregistering_a_table_invalidates_its_entries() {
    let mut db = ExploreDb::with_cache_policy(CachePolicy::on());
    db.register("sales", sales(6_000));
    warm(&mut db);
    // Replace the table wholesale with differently-seeded data.
    db.register(
        "sales",
        sales_table(&SalesConfig {
            rows: 6_000,
            seed: 99,
            ..SalesConfig::default()
        }),
    );
    assert_eq!(db.table_epoch("sales"), 1);
    assert_matches_uncached(&mut db, "after re-register");
}

#[test]
fn cracking_is_not_a_mutation() {
    let mut db = ExploreDb::with_cache_policy(CachePolicy::on());
    db.register("sales", sales(10_000));
    warm(&mut db);
    let e0 = db.table_epoch("sales");

    // The first crack reorganizes the index — a private copy of the
    // column, never the table's rows — so no epoch moves…
    db.cracked_range("sales", "qty", 3, 7).unwrap();
    assert!(
        db.index_pieces("sales", "qty").unwrap() > 1,
        "index cracked"
    );
    assert_eq!(db.table_epoch("sales"), e0, "cracking leaves the epoch");

    // …every warm entry is still an exact hit…
    let before = db.cache_stats();
    for (_, q) in probes() {
        db.query("sales", &q).unwrap();
    }
    let after = db.cache_stats();
    assert_eq!(after.hits - before.hits, probes().len() as u64);
    assert_eq!(after.misses, before.misses, "no entry was purged");

    // …and the answers still equal an uncached rerun.
    assert_matches_uncached(&mut db, "after crack");
}

#[test]
fn subsumption_never_serves_across_a_mutation() {
    let db = ExploreDb::with_cache_policy(CachePolicy::on());
    db.register("sales", sales(10_000));

    // Seed a broad scan whose artifacts could subsume later ranges.
    let broad = Query::new().filter(Predicate::range("price", 0.0, 1000.0));
    db.query("sales", &broad).unwrap();

    // Mutate: every price shifts, so the old subset is wrong everywhere.
    db.update_where("sales", &Predicate::True, "price", Value::Float(123.25))
        .unwrap();

    // A narrow range that the stale broad entry would have subsumed.
    let narrow = Query::new().filter(Predicate::range("price", 100.0, 200.0));
    let got = db.query("sales", &narrow).unwrap();
    let fresh = ExploreDb::new();
    fresh.register("sales", db.table("sales").unwrap().clone());
    let truth = fresh.query("sales", &narrow).unwrap();
    assert_bitwise_eq(&truth, &got, "narrow after mutation");
    assert_eq!(got.num_rows(), 10_000, "every row now matches");
    assert_eq!(
        db.cache_stats().subsumption_hits,
        0,
        "stale superset must not serve"
    );
}

#[test]
fn epochs_are_per_table() {
    let db = ExploreDb::with_cache_policy(CachePolicy::on());
    db.register("a", sales(3_000));
    db.register("b", sales(3_000));
    let q = Query::new().agg(AggFunc::Sum, "price");
    db.query("a", &q).unwrap();
    db.query("b", &q).unwrap();
    let row = db.table("a").unwrap().row(0).unwrap();
    db.push_row("a", row).unwrap();
    assert_eq!(db.table_epoch("a"), 1);
    assert_eq!(db.table_epoch("b"), 0);
    // b's entry survives a's mutation.
    let hits_before = db.cache_stats().hits;
    db.query("b", &q).unwrap();
    assert_eq!(db.cache_stats().hits, hits_before + 1);
}

// --- Eviction edge cases: degenerate budgets and injected failures ---
// The cache is an accelerator, never an authority: under a zero budget,
// an entry bigger than the whole budget, or an injected eviction
// failure, every answer must still come back correct via the compute
// path.

#[test]
fn zero_byte_budget_serves_through_compute() {
    let mut db = ExploreDb::with_cache_policy(CachePolicy::On(CacheConfig {
        byte_budget: 0,
        ..CacheConfig::default()
    }));
    db.register("sales", sales(3_000));
    assert_matches_uncached(&mut db, "zero budget");
    assert_matches_uncached(&mut db, "zero budget repeat");
    let stats = db.cache_stats();
    assert_eq!(stats.bytes, 0, "nothing may be resident under a 0 budget");
    assert_eq!(stats.entries, 0);
}

#[test]
fn entry_larger_than_budget_is_never_admitted() {
    let budget = 64; // smaller than any real result table
    let mut db = ExploreDb::with_cache_policy(CachePolicy::On(CacheConfig {
        byte_budget: budget,
        ..CacheConfig::default()
    }));
    db.register("sales", sales(3_000));
    assert_matches_uncached(&mut db, "oversized entries");
    assert_matches_uncached(&mut db, "oversized entries repeat");
    assert!(
        db.cache_stats().bytes <= budget,
        "budget must hold even when every result is oversized"
    );
}

#[test]
fn injected_eviction_failure_degrades_to_clear_all() {
    // A stream of distinct small results overflows a small budget, with
    // the eviction fail point armed: the degraded path drops ALL
    // entries (a safe overcorrection) instead of picking victims.
    // Answers must stay correct throughout.
    let budget = 4 << 10;
    let mut db = ExploreDb::with_cache_policy(CachePolicy::On(CacheConfig {
        byte_budget: budget,
        ..CacheConfig::default()
    }));
    db.register("sales", sales(3_000));
    let fresh = ExploreDb::new();
    fresh.register("sales", db.table("sales").unwrap().clone());
    let faults = db.fail_points();
    faults.arm("cache.evict", Schedule::Always);
    for i in 0..64 {
        // Distinct narrow scans: each admissible (well under half the
        // budget), collectively far over it.
        let lo = f64::from(i) * 12.0;
        let q = Query::new().filter(Predicate::range("price", lo, lo + 5.0));
        let got = db.query("sales", &q).unwrap();
        let truth = fresh.query("sales", &q).unwrap();
        assert_bitwise_eq(&truth, &got, &format!("evict-fault scan {i}"));
    }
    assert!(
        faults.trips("cache.evict") > 0,
        "workload never hit the armed eviction point"
    );
    assert!(
        db.cache_stats().bytes <= budget,
        "clear-all degradation must keep the resident set within budget"
    );
    // Disarm: normal victim selection resumes on the same cache.
    faults.disarm_all();
    assert_matches_uncached(&mut db, "after disarm");
}

/// Admission rejection composes with epoch invalidation: with an
/// unclearable threshold nothing is ever resident, so mutations have
/// nothing to purge, every probe recomputes against the current table
/// state, and rejection counting keeps pace.
#[test]
fn admission_rejection_composes_with_invalidation() {
    let mut db = ExploreDb::with_cache_policy(CachePolicy::On(CacheConfig {
        byte_budget: 1 << 30,
        admit_min_cost_ns: u64::MAX,
    }));
    db.register("sales", sales(10_000));
    warm(&mut db);
    let stats = db.cache_stats();
    assert_eq!(stats.insertions, 0, "threshold admits nothing: {stats:?}");
    assert_eq!(stats.hits, 0, "nothing resident to hit: {stats:?}");
    assert!(stats.admit_rejected > 0, "rejections counted: {stats:?}");
    assert_matches_uncached(&mut db, "rejected-everything cold state");

    db.push_row(
        "sales",
        vec![
            Value::from("regionX"),
            Value::from("productX"),
            Value::from("channelX"),
            Value::Float(500.0),
            Value::Float(0.5),
            Value::Int(1_000),
        ],
    )
    .unwrap();
    assert_eq!(db.table_epoch("sales"), 1);
    assert_matches_uncached(&mut db, "after push_row with admission rejection");
    let stats = db.cache_stats();
    assert_eq!(stats.insertions, 0, "still nothing admitted: {stats:?}");
}

/// Under the default threshold these multi-millisecond debug queries
/// all clear admission: warm hits serve, and a mutation still purges
/// them — admission gating must not weaken epoch invalidation.
#[test]
fn admitted_entries_still_invalidate_on_mutation() {
    let mut db = ExploreDb::with_cache_policy(CachePolicy::On(CacheConfig {
        byte_budget: 1 << 30,
        ..CacheConfig::default()
    }));
    db.register("sales", sales(10_000));
    warm(&mut db);
    let stats = db.cache_stats();
    assert!(stats.insertions > 0, "default threshold admits: {stats:?}");
    assert!(stats.hits > 0, "admitted entries serve warm: {stats:?}");
    assert_eq!(stats.admit_rejected, 0, "no rejections expected: {stats:?}");

    db.push_row(
        "sales",
        vec![
            Value::from("regionX"),
            Value::from("productX"),
            Value::from("channelX"),
            Value::Float(500.0),
            Value::Float(0.5),
            Value::Int(1_000),
        ],
    )
    .unwrap();
    assert!(
        db.cache_stats().invalidations > 0,
        "admitted entries purged on mutation"
    );
    assert_matches_uncached(&mut db, "after push_row with admission active");
}
