//! Wall-clock speedup gate for the morsel-driven executor.
//!
//! The differential suites prove parallel execution is *correct*; this
//! suite holds it to being *worth it*: on a 1M-row filtered group-by,
//! four workers must finish in at most 0.6× the serial wall time.
//!
//! The timing assertion only runs on hosts that can actually park four
//! workers on distinct cores (`available_parallelism() >= 4`) — on
//! smaller hosts (and single-core CI shards) the pool has no helpers
//! and the profitability guard routes the query straight through the
//! serial fast path, so the ratio is parity by design and the test
//! degrades to the bit-identity check. `SPEEDUP_ITERS` scales the
//! best-of-N sampling for soak runs (default 3).

use std::time::Instant;

use exploration::exec::{morsel_count, run_query, ExecPolicy, QueryCtx, MAX_MORSELS};
use exploration::storage::{AggFunc, Predicate, Query, Table};

mod common;
use common::{assert_bitwise_eq, sales};

const ROWS: usize = 1_000_000;

fn table_1m() -> Table {
    sales(ROWS)
}

fn filtered_group_by() -> Query {
    Query::new()
        .filter(Predicate::range("price", 50.0, 800.0))
        .group("product")
        .agg(AggFunc::Sum, "price")
        .agg(AggFunc::Avg, "discount")
        .agg(AggFunc::Count, "qty")
}

fn iters() -> usize {
    std::env::var("SPEEDUP_ITERS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(3)
}

/// Best-of-N wall time for one policy.
fn best_ns(t: &Table, q: &Query, policy: ExecPolicy, n: usize) -> u128 {
    let ctx = QueryCtx::new(policy);
    (0..n)
        .map(|_| {
            let start = Instant::now();
            std::hint::black_box(run_query(t, q, &ctx).unwrap());
            start.elapsed().as_nanos()
        })
        .min()
        .unwrap()
}

#[test]
fn adaptive_sizing_keeps_1m_rows_to_few_coarse_morsels() {
    // A 1M-row scan must decompose into a handful of coarse work units,
    // not hundreds of tiny ones — scheduling overhead is what erased
    // the speedup before morsel sizing became adaptive.
    let n = morsel_count(ROWS);
    assert!(
        n <= MAX_MORSELS,
        "1M rows decomposed into {n} morsels (> {MAX_MORSELS})"
    );
    assert!(n >= 4, "1M rows should still fan out ({n} morsels)");
}

#[test]
fn parallel_4_speedup_on_1m_row_filtered_group_by() {
    let t = table_1m();
    let q = filtered_group_by();

    // Bit-identity holds on every host, timed or not.
    let serial_result = run_query(&t, &q, &QueryCtx::none()).unwrap();
    let parallel_result =
        run_query(&t, &q, &QueryCtx::new(ExecPolicy::Parallel { workers: 4 })).unwrap();
    assert_bitwise_eq(&serial_result, &parallel_result, "serial vs parallel");

    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    if cores < 4 {
        eprintln!("skipping wall-clock assertion: only {cores} core(s) available");
        return;
    }

    let n = iters();
    let serial_ns = best_ns(&t, &q, ExecPolicy::Serial, n);
    let parallel_ns = best_ns(&t, &q, ExecPolicy::Parallel { workers: 4 }, n);
    let ratio = parallel_ns as f64 / serial_ns as f64;
    assert!(
        ratio <= 0.6,
        "parallel-4 took {parallel_ns} ns vs serial {serial_ns} ns \
         (ratio {ratio:.3} > 0.6)"
    );
}
