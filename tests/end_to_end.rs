//! End-to-end integration: the `ExploreDb` facade driving every layer
//! of the stack in one session, with exact/approximate/adaptive paths
//! cross-checked against each other.

use exploration::aqp::Bound;
use exploration::loading::RawCsv;
use exploration::storage::csv::write_csv;
use exploration::storage::gen::{sales_table, SalesConfig};
use exploration::storage::{AggFunc, Predicate, Query, SortOrder};
use exploration::ExploreDb;

fn sales_db(rows: usize) -> ExploreDb {
    let db = ExploreDb::new();
    db.register(
        "sales",
        sales_table(&SalesConfig {
            rows,
            ..SalesConfig::default()
        }),
    );
    db
}

#[test]
fn full_session_touches_every_layer() {
    let db = sales_db(50_000);

    // Exact SQL-ish query.
    let exact = db
        .query(
            "sales",
            &Query::new()
                .filter(Predicate::eq("region", "region0"))
                .group("product")
                .agg(AggFunc::Sum, "price")
                .order("sum(price)", SortOrder::Desc),
        )
        .expect("query");
    assert!(exact.num_rows() > 0);

    // Adaptive index agrees with predicate evaluation.
    let mut via_crack = db.cracked_range("sales", "qty", 2, 6).expect("crack");
    via_crack.sort_unstable();
    let via_scan = Predicate::range("qty", 2i64, 6i64)
        .evaluate(&db.table("sales").expect("table"))
        .expect("eval");
    assert_eq!(via_crack, via_scan);

    // Approximate aggregation brackets the exact answer.
    db.build_samples("sales", &[0.01, 0.1], &[("region", 100)], 1)
        .expect("samples");
    let truth = {
        let t = db.table("sales").expect("table");
        let sel = Predicate::eq("region", "region0")
            .evaluate(&t)
            .expect("eval");
        let prices = t.column("price").expect("col").as_f64().expect("f64");
        sel.iter().map(|&i| prices[i as usize]).sum::<f64>() / sel.len() as f64
    };
    let approx = db
        .approx_aggregate(
            "sales",
            &Predicate::eq("region", "region0"),
            AggFunc::Avg,
            "price",
            Bound::RelativeError {
                target: 0.05,
                confidence: 0.99,
            },
        )
        .expect("approx");
    assert!(
        approx.interval.contains(truth),
        "{:?} should contain {truth}",
        approx.interval
    );

    // Online aggregation converges to the global truth.
    let mut oa = db
        .online_aggregate("sales", &Predicate::True, AggFunc::Avg, "price", 0.95, 2)
        .expect("online");
    while oa.step(10_000).unwrap().is_some() {}
    let global_truth = {
        let t = db.table("sales").expect("table");
        let p = t.column("price").expect("col").as_f64().expect("f64");
        p.iter().sum::<f64>() / p.len() as f64
    };
    assert!((oa.snapshot().interval.estimate - global_truth).abs() < 1e-9);

    // View recommendation is ranked and non-empty.
    let views = db
        .recommend_views("sales", &Predicate::eq("product", "product0"), 4)
        .expect("views");
    assert_eq!(views.len(), 4);
    assert!(views.windows(2).all(|w| w[0].utility >= w[1].utility));
}

#[test]
fn raw_table_and_memory_table_agree_on_everything() {
    let t = sales_table(&SalesConfig {
        rows: 5_000,
        ..SalesConfig::default()
    });
    let db = ExploreDb::new();
    db.register("mem", t.clone());
    db.attach_raw(
        "raw",
        RawCsv::new(write_csv(&t), t.schema().clone()).expect("raw"),
    );
    let queries = [
        Query::new().agg(AggFunc::Count, "qty"),
        Query::new()
            .filter(Predicate::range("price", 10.0, 200.0))
            .group("region")
            .agg(AggFunc::Avg, "discount")
            .order("region", SortOrder::Asc),
        Query::new()
            .filter(Predicate::eq("channel", "channel1").not())
            .select(&["region", "qty"])
            .order("qty", SortOrder::Desc)
            .take(25),
    ];
    for (i, q) in queries.iter().enumerate() {
        let a = db.query("mem", q).expect("mem");
        let b = db.query("raw", q).expect("raw");
        assert_eq!(a, b, "query {i}");
    }
    // Invisible loading progressed only over touched columns.
    let (loaded, total) = db.loading_progress("raw").expect("raw progress");
    assert!(loaded < total, "only referenced columns loaded");
}

#[test]
fn cracked_index_converges_under_engine_workload() {
    let db = sales_db(100_000);
    let mut pieces_history = Vec::new();
    for i in 0..30 {
        let lo = (i % 8) as i64 + 1;
        db.cracked_range("sales", "qty", lo, lo + 2).expect("crack");
        pieces_history.push(db.index_pieces("sales", "qty").expect("pieces"));
    }
    // Piece count is monotone non-decreasing and saturates (small domain).
    assert!(pieces_history.windows(2).all(|w| w[0] <= w[1]));
    assert_eq!(
        pieces_history[14], pieces_history[29],
        "small query universe converges"
    );
}

#[test]
fn taxonomy_table_renders() {
    let table = exploration::render_table1(true);
    assert!(table.contains("Adaptive Indexing"));
    assert!(table.contains("explore-cracking"));
    assert!(table.contains("User Interaction"));
    assert_eq!(exploration::table1().len(), 14);
}

/// The two technique crates the `ExploreDb` facade never calls are
/// reachable only through their umbrella aliases; nothing else in the
/// test suite would notice those vanishing.
#[test]
fn umbrella_aliases_reach_layout_and_series() {
    use exploration::layout::AdaptiveStore;
    use exploration::series::{random_walks, BuildMode, SeriesIndex};

    let store = AdaptiveStore::new(sales_table(&SalesConfig {
        rows: 100,
        ..SalesConfig::default()
    }));
    assert_eq!(store.builds(), 0);
    let walks = random_walks(32, 16, 7);
    let mut index = SeriesIndex::build(walks.clone(), 4, 8, BuildMode::Adaptive);
    assert_eq!(index.nn(&walks[3]).0, 3);
}

#[test]
fn error_paths_surface_cleanly() {
    let db = sales_db(100);
    assert!(db.query("missing", &Query::new()).is_err());
    assert!(db.cracked_range("sales", "region", 0, 1).is_err());
    assert!(db
        .approx_aggregate(
            "sales",
            &Predicate::True,
            AggFunc::Avg,
            "price",
            Bound::RowBudget { rows: 10 },
        )
        .is_err());
    assert!(db.build_samples("missing", &[0.1], &[], 1).is_err());
    assert!(db
        .online_aggregate("sales", &Predicate::True, AggFunc::Sum, "region", 0.95, 1)
        .is_err());
}
