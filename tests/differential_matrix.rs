//! The differential matrix: every way a query reaches an answer agrees
//! with every other, down to the float bit patterns.
//!
//! Each of the 12 [`query_shapes`] runs at every one of the
//! [`table_sizes`] through a table of `Mode`s — a row each for an exec
//! policy and worker count, a shard count, the cache off or cold and
//! warm, tracing on, a served session, a raw table — and must equal the
//! fixture's truth: the plain serial engine's answer, itself held to the
//! independent oracle. The rows and the check are
//! `tests/common/matrix.rs`; the bare-kernel and `Query::run` rows run
//! in `tests/parallel_differential.rs`, and the seeded chaos loop's two
//! streams in `tests/chaos_differential.rs` and
//! `tests/shard_differential.rs`.

use exploration::exec::ExecPolicy;

mod common;
use common::{assert_truths_match_oracle, fixture, query_shapes, table_sizes, SHARD_COUNTS};

#[path = "common/matrix.rs"]
mod matrix;
use matrix::{check_modes, plain, rows, Route, EXECS, PARALLEL_4, SERIAL};

/// Every truth, at every size, is the oracle's answer.
#[test]
fn truths_agree_with_the_oracle() {
    for rows in table_sizes() {
        assert_eq!(fixture(rows).truths.len(), query_shapes().len());
        assert_truths_match_oracle(rows);
    }
}

/// Every exec policy, with the cache off and then cold and warm.
#[test]
fn shapes_agree_with_cache_off_cold_and_warm() {
    check_modes(
        &table_sizes(),
        &rows(&[Route::Engine], &EXECS, &[None], &[false, true], &[false]),
    );
}

/// Every shard count, serial and parallel, cache off, cold and warm.
#[test]
fn shapes_agree_for_every_shard_count() {
    let shards = SHARD_COUNTS.map(Some);
    check_modes(
        &table_sizes(),
        &rows(
            &[Route::Engine],
            &[SERIAL, PARALLEL_4],
            &shards,
            &[false, true],
            &[false],
        ),
    );
}

/// Tracing never changes what executes: obs on, cache off, cold and
/// warm.
#[test]
fn shapes_agree_with_obs_on() {
    check_modes(
        &table_sizes(),
        &rows(
            &[Route::Engine],
            &[SERIAL, PARALLEL_4],
            &[None],
            &[false, true],
            &[true],
        ),
    );
}

/// The serving layer changes when a query runs, never what it computes.
#[test]
fn shapes_agree_through_served_sessions() {
    check_modes(
        &table_sizes(),
        &rows(
            &[Route::Served],
            &[SERIAL, PARALLEL_4],
            &[None],
            &[false, true],
            &[false],
        ),
    );
}

/// A raw file answers as if it had been loaded, through a cold loader
/// and then from its column cache.
#[test]
fn shapes_agree_through_raw_tables() {
    let execs = [SERIAL, ExecPolicy::parallel()];
    check_modes(&table_sizes(), &plain(Route::Raw, &execs));
}
