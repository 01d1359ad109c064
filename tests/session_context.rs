//! The per-call context is explicit: a session overlay belongs to the
//! `&ExploreDb` handle `with_session` passes its closure, every engine
//! call resolves it the same way, and every traced facade method runs
//! the same trace / `cancel.*` protocol.
//!
//! Two tables: one over every facade entry point (cancel accounting and
//! the `obs` overlay must not depend on which method was called), one
//! over where a handle can travel (threads, nesting, other engines, an
//! unwinding closure).

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Duration;

use exploration::aqp::Bound;
use exploration::obs::ObsPolicy;
use exploration::shard::{ShardConfig, ShardPolicy};
use exploration::storage::gen::{sales_table, SalesConfig};
use exploration::storage::{AggFunc, Predicate, Query, Result, StorageError};
use exploration::{CancelToken, ExploreDb, SessionCtx};

/// An engine with `sales` registered and samples + synopses built, so
/// every facade method has what it needs to succeed.
fn engine(sharded: bool) -> ExploreDb {
    let db = ExploreDb::new();
    if sharded {
        db.set_shard_policy(ShardPolicy::On(ShardConfig {
            count: 4,
            min_rows_per_shard: 1,
        }));
    }
    db.register(
        "sales",
        sales_table(&SalesConfig {
            rows: 3_000,
            ..SalesConfig::default()
        }),
    );
    db.build_samples("sales", &[0.1, 0.5], &[], 7).unwrap();
    db.build_synopses("sales", 16).unwrap();
    db
}

fn grouped() -> Query {
    Query::new().group("region").agg(AggFunc::Sum, "price")
}

type Entry = (&'static str, fn(&ExploreDb) -> Result<()>);

/// Every facade entry point that checks its context before answering
/// and traces only when observability is on for the call.
const ENTRY_POINTS: [Entry; 12] = [
    ("query", |db| db.query("sales", &grouped()).map(drop)),
    ("cracked_range", |db| {
        db.cracked_range("sales", "qty", 3, 7).map(drop)
    }),
    ("build_samples", |db| {
        db.build_samples("sales", &[0.1, 0.5], &[], 7)
    }),
    ("approx_aggregate", |db| {
        let bound = Bound::RowBudget { rows: 500 };
        db.approx_aggregate("sales", &Predicate::True, AggFunc::Avg, "price", bound)
            .map(drop)
    }),
    ("recommend_views", |db| {
        db.recommend_views("sales", &Predicate::eq("product", "product0"), 3)
            .map(drop)
    }),
    ("estimate_range_count", |db| {
        db.estimate_range_count("sales", "price", 100.0, 500.0)
            .map(drop)
    }),
    ("estimate_point_count", |db| {
        db.estimate_point_count("sales", "region", "region0")
            .map(drop)
    }),
    ("estimate_distinct", |db| {
        db.estimate_distinct("sales", "region").map(drop)
    }),
    ("facets", |db| {
        db.facets("sales", &Predicate::eq("channel", "channel1"), 5, 3)
            .map(drop)
    }),
    ("diversified_topk", |db| {
        db.diversified_topk("sales", &Predicate::True, "price", &["qty"], 5, 0.5)
            .map(drop)
    }),
    ("propose_charts", |db| {
        db.propose_charts("sales", 3).map(drop)
    }),
    ("discover_cube", |db| {
        db.discover_cube("sales", "region", "channel", "price")
            .map(drop)
    }),
];

/// `explain` checks its context like `query` but traces under every
/// policy, so it joins only the cancellation table.
const EXPLAIN: Entry = ("explain", |db| db.explain("sales", &grouped()).map(drop));

/// `online_aggregate` starts without checking the token — the session
/// it returns carries it, and the first `step` reports the typed error
/// (`tests/cancel_proptests.rs`) — so it joins only the tracing table.
const ONLINE: Entry = ("online_aggregate", |db| {
    db.online_aggregate("sales", &Predicate::True, AggFunc::Avg, "price", 0.95, 3)
        .map(drop)
});

fn expired_deadline() -> SessionCtx {
    SessionCtx::default().with_deadline(Some(Duration::ZERO))
}

fn cancelled() -> SessionCtx {
    let token = CancelToken::new();
    token.cancel();
    SessionCtx::default().with_cancel(Some(token))
}

#[test]
fn every_entry_point_counts_its_cancellation_exactly_once() {
    let overlays = [
        (
            expired_deadline(),
            StorageError::DeadlineExceeded,
            "cancel.deadline_exceeded",
            "cancel.cancelled",
        ),
        (
            cancelled(),
            StorageError::Cancelled,
            "cancel.cancelled",
            "cancel.deadline_exceeded",
        ),
    ];
    for sharded in [false, true] {
        let db = engine(sharded);
        let events = db.fail_points();
        for (name, call) in ENTRY_POINTS.into_iter().chain([EXPLAIN]) {
            for (overlay, error, counted, other) in &overlays {
                let before = (events.event(counted), events.event(other));
                let got = db.with_session(overlay, call);
                assert_eq!(got.as_ref(), Err(error), "{name}, sharded={sharded}");
                assert_eq!(
                    (events.event(counted), events.event(other)),
                    (before.0 + 1, before.1),
                    "{name}, sharded={sharded}: one {counted} event, nothing else"
                );
            }
            call(&db).unwrap_or_else(|e| panic!("{name} serves again outside the overlay: {e}"));
        }
    }
}

#[test]
fn every_entry_point_honours_the_session_obs_overlay() {
    let forced = SessionCtx::default().with_obs(Some(ObsPolicy::on()));
    let suppressed = SessionCtx::default().with_obs(Some(ObsPolicy::Off));
    let traced = |db: &ExploreDb| db.metrics_snapshot().counter("query.traced");
    for sharded in [false, true] {
        let off = engine(sharded);
        let on = engine(sharded);
        on.set_obs_policy(ObsPolicy::on());
        for (name, call) in ENTRY_POINTS.into_iter().chain([ONLINE]) {
            let before = traced(&off);
            off.with_session(&forced, call).unwrap();
            assert_eq!(
                traced(&off),
                before + 1,
                "{name}, sharded={sharded}: obs On over an obs-off engine records one trace"
            );
            call(&off).unwrap();
            assert_eq!(traced(&off), before + 1, "{name}: and none without it");

            let before = traced(&on);
            on.with_session(&suppressed, call).unwrap();
            assert_eq!(
                traced(&on),
                before,
                "{name}, sharded={sharded}: obs Off over an obs-on engine records none"
            );
            call(&on).unwrap();
            assert_eq!(traced(&on), before + 1, "{name}: and one without it");
        }
    }
}

#[test]
fn the_overlay_travels_with_the_handle_onto_other_threads() {
    let db = engine(false);
    let got = db.with_session(&expired_deadline(), |db| {
        std::thread::scope(|s| {
            s.spawn(|| db.query("sales", &grouped()))
                .join()
                .expect("query thread")
        })
    });
    assert_eq!(got.unwrap_err(), StorageError::DeadlineExceeded);
    db.query("sales", &grouped()).unwrap();
}

#[test]
fn the_innermost_overlay_wins_wholesale_and_the_outer_one_returns() {
    let db = engine(false);
    db.with_session(&expired_deadline(), |outer| {
        // An empty inner overlay inherits nothing from the outer one.
        outer
            .with_session(&SessionCtx::default(), |inner| {
                inner.query("sales", &grouped())
            })
            .expect("no deadline under the inner overlay");
        assert_eq!(
            outer.query("sales", &grouped()).unwrap_err(),
            StorageError::DeadlineExceeded,
            "the outer overlay is in force again"
        );
        // And the other way round: an inner deadline under an outer none.
        outer.with_session(&SessionCtx::default(), |free| {
            let got = free.with_session(&expired_deadline(), |db| db.query("sales", &grouped()));
            assert_eq!(got.unwrap_err(), StorageError::DeadlineExceeded);
            free.query("sales", &grouped()).unwrap();
        });
    });
}

#[test]
fn engines_on_one_thread_do_not_see_each_others_overlays() {
    let a = engine(false);
    let b = engine(false);
    a.with_session(&expired_deadline(), |a_scoped| {
        b.query("sales", &grouped())
            .expect("b has no overlay installed");
        a.query("sales", &grouped())
            .expect("nor does the handle the overlay was not given to");
        assert_eq!(
            a_scoped.query("sales", &grouped()).unwrap_err(),
            StorageError::DeadlineExceeded
        );
    });
}

#[test]
fn a_panicking_closure_leaves_no_overlay_behind() {
    let db = engine(false);
    let unwound = catch_unwind(AssertUnwindSafe(|| {
        db.with_session(&expired_deadline(), |_| {
            panic!("closure panics mid-session")
        })
    }));
    assert!(unwound.is_err());
    db.query("sales", &grouped())
        .expect("engine usable, no overlay in force");
}
