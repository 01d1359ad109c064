//! Property-based cancellation testing: a query cancelled at *any*
//! morsel boundary — or mid-crack-reorganization — must surface the
//! typed `Cancelled` error, leave every engine structure well-formed,
//! and not perturb any later answer.
//!
//! Determinism comes from [`CancelToken::after_checks`]: the token
//! survives exactly `n` cooperative checks and trips on check `n + 1`,
//! so "cancel at a random morsel boundary" is a pure function of the
//! generated budget, replayable from the proptest seed.
//!
//! Cancel tokens and deadlines are *session-scoped*: each property
//! installs them for exactly the calls that should feel them via
//! [`ExploreDb::with_session`], and "clearing" them is simply calling
//! the engine outside the overlay — there is no engine-global knob to
//! reset (DESIGN.md §10, §14).

use std::sync::OnceLock;
use std::time::Duration;

use proptest::prelude::*;

use exploration::cracking::CrackerColumn;
use exploration::exec::{morsel_count, ExecPolicy};
use exploration::loading::RawCsv;
use exploration::obs::ObsPolicy;
use exploration::storage::csv::write_csv;
use exploration::storage::gen::{sales_table, uniform_i64, SalesConfig};
use exploration::storage::{AggFunc, Predicate, Query, StorageError, Table, MORSEL_ROWS};
use exploration::{CancelToken, ExploreDb, SessionCtx};

mod common;
use common::tables_bitwise_equal;

/// A three-morsel table, so there are real boundaries to cancel at.
fn big_table() -> &'static Table {
    static TABLE: OnceLock<Table> = OnceLock::new();
    TABLE.get_or_init(|| {
        sales_table(&SalesConfig {
            rows: 2 * MORSEL_ROWS + 4321,
            ..SalesConfig::default()
        })
    })
}

/// The reference answer for the query shape the properties use.
fn truth() -> &'static Table {
    static TRUTH: OnceLock<Table> = OnceLock::new();
    TRUTH.get_or_init(|| {
        let db = ExploreDb::with_exec_policy(ExecPolicy::Serial);
        db.register("sales", big_table().clone());
        db.query("sales", &prop_query()).unwrap()
    })
}

fn prop_query() -> Query {
    Query::new()
        .filter(Predicate::range("price", 100.0, 700.0))
        .group("region")
        .agg(AggFunc::Sum, "price")
        .agg(AggFunc::Count, "qty")
}

/// An overlay that cancels after `n` surviving cooperative checks.
fn cancel_after(n: u64) -> SessionCtx {
    SessionCtx::default().with_cancel(Some(CancelToken::after_checks(n)))
}

/// An overlay with an already-expired deadline.
fn expired_deadline() -> SessionCtx {
    SessionCtx::default().with_deadline(Some(Duration::ZERO))
}

proptest! {
    /// Cancel a query after a random number of morsel-boundary checks,
    /// under either policy: the run either completes bit-identically or
    /// fails with exactly `StorageError::Cancelled`, and a follow-up
    /// uncancelled query on the same engine is bit-identical to truth.
    #[test]
    fn cancel_at_any_morsel_boundary_is_clean(
        budget in 0u64..12,
        parallel in 0u8..2,
        workers in 1usize..5,
    ) {
        let policy = if parallel == 1 {
            ExecPolicy::Parallel { workers }
        } else {
            ExecPolicy::Serial
        };
        let db = ExploreDb::with_exec_policy(policy);
        db.register("sales", big_table().clone());
        match db.with_session(&cancel_after(budget), |db| db.query("sales", &prop_query())) {
            Ok(got) => prop_assert!(
                tables_bitwise_equal(truth(), &got),
                "completed run diverged (budget {budget})"
            ),
            Err(StorageError::Cancelled) => {}
            Err(e) => prop_assert!(false, "non-typed error: {e}"),
        }
        // The engine must be unharmed either way; outside the overlay
        // no token applies.
        let after = db.query("sales", &prop_query()).unwrap();
        prop_assert!(tables_bitwise_equal(truth(), &after), "post-cancel state corrupted");
    }

    /// Cancel mid-crack-reorganization at the column level: the cracker
    /// index must stay well-formed, and subsequent (uncancelled) queries
    /// must match an uncracked brute-force scan exactly.
    #[test]
    fn cancel_mid_crack_leaves_wellformed_index(
        seed in 0u64..1000,
        a in 0i64..500,
        b in 0i64..500,
        budget in 0u64..4,
    ) {
        let base = uniform_i64(4000, 0, 500, seed);
        let (low, high) = (a.min(b), a.max(b) + 1);
        let mut c = CrackerColumn::new(base.clone());
        let token = CancelToken::after_checks(budget);
        match c.query_bounds(low, high, Some(&token)) {
            Ok((s, e)) => prop_assert_eq!(e - s, brute_count(&base, low, high)),
            Err(StorageError::Cancelled) => {}
            Err(e) => prop_assert!(false, "non-typed error: {e}"),
        }
        prop_assert!(c.check_invariants(), "cancelled crack broke the index");
        // Partial cracks (e.g. the low bound landed, the high didn't)
        // must not change any later answer.
        let mut got: Vec<u32> = c.query_ids(low, high).to_vec();
        got.sort_unstable();
        let want: Vec<u32> = base
            .iter()
            .enumerate()
            .filter(|(_, &v)| v >= low && v < high)
            .map(|(i, _)| i as u32)
            .collect();
        prop_assert_eq!(got, want, "post-cancel cracker answer diverged from scan");
        prop_assert!(c.check_invariants());
    }

    /// The same property through the engine façade: a cancelled
    /// `cracked_range` keeps the adaptive index usable and later calls
    /// agree with a predicate scan.
    #[test]
    fn engine_cracked_range_survives_cancellation(
        budget in 0u64..3,
        a in 0i64..9,
    ) {
        let (low, high) = (a, a + 3);
        let db = ExploreDb::new();
        db.register("sales", big_table().clone());
        match db.with_session(&cancel_after(budget), |db| {
            db.cracked_range("sales", "qty", low, high)
        }) {
            Ok(_) | Err(StorageError::Cancelled) => {}
            Err(e) => prop_assert!(false, "non-typed error: {e}"),
        }
        let mut got = db.cracked_range("sales", "qty", low, high).unwrap();
        got.sort_unstable();
        let scan = Predicate::range("qty", low, high)
            .evaluate(&db.table("sales").unwrap())
            .unwrap();
        prop_assert_eq!(got, scan, "post-cancel cracked_range diverged");
    }
}

fn brute_count(base: &[i64], low: i64, high: i64) -> usize {
    base.iter().filter(|&&v| v >= low && v < high).count()
}

/// Acceptance bar: a cancelled query stops within one morsel's worth of
/// work. With a budget of one surviving check, exactly one morsel may
/// run before the cancellation lands — proven from the recorded span
/// tree, not wall-clock guesswork.
#[test]
fn cancellation_lands_within_one_morsel_of_work() {
    let db = ExploreDb::with_obs_policy(ObsPolicy::on());
    db.set_exec_policy(ExecPolicy::Serial);
    db.register("sales", big_table().clone());

    let err = db
        .with_session(&cancel_after(1), |db| db.query("sales", &prop_query()))
        .unwrap_err();
    assert_eq!(err, StorageError::Cancelled);

    let trace = db.recent_traces().pop().expect("trace recorded on error");
    assert!(trace.is_well_formed());
    let morsels = trace.spans_labelled("morsel").len();
    assert!(
        morsels <= 1,
        "cancelled query ran {morsels} morsels; budget allowed at most one"
    );
    assert_eq!(db.metrics_snapshot().counter("cancel.cancelled"), 1);

    // The engine serves bit-identical results afterwards.
    let after = db.query("sales", &prop_query()).unwrap();
    assert!(tables_bitwise_equal(truth(), &after));
}

/// A raw table's query is cancellable at every morsel, not only between
/// column loads: the token is checked once per referenced column and
/// then once per morsel, every budget short of that is the typed
/// `Cancelled`, and whether the cancel landed in a cold column load or
/// in a morsel the loader serves truth afterwards.
#[test]
fn raw_table_query_cancels_at_every_morsel() {
    let q = prop_query();
    let csv = write_csv(big_table());
    let morsels = morsel_count(big_table().num_rows());
    assert!(morsels >= 3);
    let mut budget = 0;
    loop {
        let db = ExploreDb::with_exec_policy(ExecPolicy::Serial);
        let raw = RawCsv::new(csv.clone(), big_table().schema().clone()).unwrap();
        db.attach_raw("raw", raw);
        let run = db.with_session(&cancel_after(budget), |db| db.query("raw", &q));
        let after = db.query("raw", &q).unwrap();
        assert!(
            tables_bitwise_equal(truth(), &after),
            "budget {budget}: loader diverged"
        );
        match run {
            Err(StorageError::Cancelled) => budget += 1,
            Err(e) => panic!("budget {budget}: non-typed error: {e}"),
            Ok(got) => {
                assert!(tables_bitwise_equal(truth(), &got));
                break;
            }
        }
    }
    let checks = q.referenced_columns().len() + morsels;
    assert!(
        budget as usize >= checks,
        "a raw query survived {budget} checks; columns + morsels is {checks}"
    );
}

/// A zero-length deadline trips before any morsel executes and is
/// reported as the typed `DeadlineExceeded`; dropping the overlay
/// restores normal service on the same engine.
#[test]
fn expired_deadline_returns_typed_error_and_clean_state() {
    let db = ExploreDb::with_obs_policy(ObsPolicy::on());
    db.register("sales", big_table().clone());

    let err = db
        .with_session(&expired_deadline(), |db| db.query("sales", &prop_query()))
        .unwrap_err();
    assert_eq!(err, StorageError::DeadlineExceeded);
    let trace = db.recent_traces().pop().expect("trace recorded on error");
    assert_eq!(
        trace.spans_labelled("morsel").len(),
        0,
        "expired deadline must stop the query before the first morsel"
    );
    assert_eq!(db.metrics_snapshot().counter("cancel.deadline_exceeded"), 1);

    let after = db.query("sales", &prop_query()).unwrap();
    assert!(tables_bitwise_equal(truth(), &after));
}

/// Deadlines thread through the cache path too: with caching on, an
/// expired deadline surfaces before compute, and the cache still serves
/// correct (bit-identical) results once the deadline is lifted.
#[test]
fn deadline_with_cache_on_is_typed_and_recoverable() {
    use exploration::cache::CachePolicy;
    let db = ExploreDb::with_cache_policy(CachePolicy::on());
    db.register("sales", big_table().clone());
    assert_eq!(
        db.with_session(&expired_deadline(), |db| db.query("sales", &prop_query()))
            .unwrap_err(),
        StorageError::DeadlineExceeded
    );
    let cold = db.query("sales", &prop_query()).unwrap();
    let warm = db.query("sales", &prop_query()).unwrap();
    assert!(tables_bitwise_equal(truth(), &cold));
    assert!(tables_bitwise_equal(truth(), &warm));
    assert!(db.cache_stats().hits >= 1, "cache fully recovered");
}

/// A deadline (or cancel token) on an online-aggregation session stops
/// it within one batch: the session captures the overlay's token at
/// start, and `run_until` surfaces the typed error instead of silently
/// finishing.
#[test]
fn online_aggregation_deadline_stops_within_one_batch() {
    let db = ExploreDb::new();
    db.register("sales", big_table().clone());
    // A token surviving exactly two checks models a deadline expiring
    // mid-session deterministically. The token is captured when the
    // session starts, so it outlives the overlay scope.
    let mut oa = db
        .with_session(&cancel_after(2), |db| {
            db.online_aggregate("sales", &Predicate::True, AggFunc::Avg, "price", 0.95, 7)
        })
        .unwrap();
    let batch = 100;
    assert!(oa.step(batch).unwrap().is_some(), "first batch runs");
    assert!(oa.step(batch).unwrap().is_some(), "second batch runs");
    assert_eq!(oa.step(batch).unwrap_err(), StorageError::Cancelled);
    assert_eq!(
        oa.snapshot().processed,
        2 * batch as u64,
        "no work past the batch where the token tripped"
    );
    // An expired real deadline trips a fresh session before any batch.
    let mut oa = db
        .with_session(&expired_deadline(), |db| {
            db.online_aggregate("sales", &Predicate::True, AggFunc::Avg, "price", 0.95, 8)
        })
        .unwrap();
    assert_eq!(oa.step(batch).unwrap_err(), StorageError::DeadlineExceeded);
}

/// A cancelled `recommend_views` surfaces the typed error and leaves
/// the engine serving truth, as if the recommendation never ran.
#[test]
fn cancelled_recommend_views_leaves_engine_serving_truth() {
    let db = ExploreDb::new();
    db.register("sales", big_table().clone());
    let err = db
        .with_session(&cancel_after(1), |db| {
            db.recommend_views("sales", &Predicate::eq("product", "product0"), 3)
        })
        .unwrap_err();
    assert_eq!(err, StorageError::Cancelled);
    let after = db.query("sales", &prop_query()).unwrap();
    assert!(tables_bitwise_equal(truth(), &after));
    // And the uncancelled recommendation itself still works.
    let views = db
        .recommend_views("sales", &Predicate::eq("product", "product0"), 3)
        .unwrap();
    assert_eq!(views.len(), 3);
}
