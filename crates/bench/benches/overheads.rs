//! Same-run overhead check: the three costs the repo benchmark
//! (`BENCHMARK.json`, `benchmark/`) cannot see, because they are
//! differences between two configurations of one query rather than
//! properties of a workload.
//!
//! * `obs_on` — the engine query with tracing on records a full span
//!   tree; tracing that costs real throughput never gets left enabled.
//! * `cancel_token` / `deadline` — a never-tripping cancel token (one
//!   counter bump per morsel boundary) and a generous deadline (plus an
//!   `Instant` read per check); a robustness layer that taxes the
//!   fault-free path never ships.
//! * `probe_6k` — one subsumption probe over 6 000 resident supersets,
//!   the store size a long analyst session reaches, priced against the
//!   query a miss then has to run.
//!
//! Every arm is judged against `plain` (tracing off, fail points
//! disarmed, no session overlay) *from the same process*: the arms run
//! in interleaved rounds with the starting arm rotated each round, so a
//! host burst lands on every arm, and each arm keeps its minimum. No
//! baseline file, no core count, no cross-commit comparison — a ratio of
//! two minima taken seconds apart on one host needs none.
//!
//! Two choices keep a 5 % ceiling meaningful. Every timed call follows
//! one untimed `plain` query, so each arm starts from the same allocator
//! and cache state whatever ran before it (without that, two copies of
//! the same arm sat up to 5 % apart depending on their neighbours). And
//! the engines run `ExecPolicy::Serial` — the same morsel loop, cancel
//! checks and spans as the pool's workers — so the single-threaded probe
//! is priced against a single-threaded query and the ratios hold on any
//! core count.
//!
//! ```text
//! cargo bench -q -p explore-bench --bench overheads
//! ```
//!
//! prints one table and exits non-zero naming the arms over their
//! ceiling.

use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

use explore_bench::over_ceiling;
use explore_core::cache::{CacheConfig, Fingerprint, Region, ResultCache, ReuseArtifacts};
use explore_core::exec::ExecPolicy;
use explore_core::obs::{fmt_ns, ObsPolicy};
use explore_core::storage::gen::{sales_table, SalesConfig};
use explore_core::storage::{AggFunc, Predicate, Query};
use explore_core::{CancelToken, ExploreDb, SessionCtx};

/// Interleaved rounds; each arm runs once per round and keeps its
/// minimum. If the check flaps on a quiet host, raise this — not the
/// ceilings.
const ROUNDS: usize = 60;
/// `obs_on`, `cancel_token` and `deadline` may cost at most 5 % over
/// `plain`.
const QUERY_CEILING: f64 = 1.05;
/// One probe over 6 000 supersets may cost at most 0.5 % of the query a
/// miss goes on to run (0.25 % when this check was written: 18.5 µs
/// against 7.2 ms).
const PROBE_CEILING: f64 = 0.005;
/// Probes per round, timed back to back and averaged: the first finds
/// the interval index evicted by the 200 k-row scans before it (≈ 60 µs);
/// the ceiling prices the walk itself.
const PROBE_CALLS: u32 = 32;
const SUPERSETS: usize = 6_000;

/// A result cache holding `SUPERSETS` reuse entries over one column:
/// window `i` is `price ∈ [i, i + 10]`, each a 1 % selection of a
/// 100 k-row table.
fn filled_cache() -> ResultCache {
    let sel: Arc<Vec<u32>> = Arc::new((0..100_000).step_by(100).collect());
    let result = Arc::new(sales_table(&SalesConfig {
        rows: 8,
        ..SalesConfig::default()
    }));
    let cache = ResultCache::new(CacheConfig {
        byte_budget: 1 << 30,
        ..CacheConfig::default()
    });
    for i in 0..SUPERSETS {
        let window = Predicate::range("price", i as f64, i as f64 + 10.0);
        let reuse = ReuseArtifacts {
            region: Region::exact(&window).expect("a range is exact"),
            sel: Arc::clone(&sel),
        };
        cache.insert(
            Fingerprint::custom("sales", format!("w{i}")),
            Arc::clone(&result),
            Some(reuse),
            1_000_000,
            0,
        );
    }
    assert_eq!(cache.stats().reuse_entries, SUPERSETS);
    cache
}

fn main() {
    let table = Arc::new(sales_table(&SalesConfig {
        rows: 200_000,
        ..SalesConfig::default()
    }));
    let q = Query::new()
        .filter(Predicate::range("price", 50.0, 800.0))
        .group("region")
        .agg(AggFunc::Sum, "price")
        .agg(AggFunc::Avg, "qty");
    // Two engines over the *same* table allocation, so the only
    // difference between `plain` and `obs_on` is the policy.
    let db = ExploreDb::with_exec_policy(ExecPolicy::Serial);
    db.register("sales", Arc::clone(&table));
    let traced = ExploreDb::with_exec_policy(ExecPolicy::Serial);
    traced.set_obs_policy(ObsPolicy::on());
    traced.register("sales", table);
    let run = |db: &ExploreDb| {
        black_box(db.query("sales", &q).expect("query").num_rows());
    };
    let cancel = SessionCtx::new().with_cancel(Some(CancelToken::new()));
    let deadline = SessionCtx::new().with_deadline(Some(Duration::from_secs(3600)));
    let cache = filled_cache();
    // No window reaches below zero: the probe walks every superset and
    // finds none.
    let outside = Region::relaxed(&Predicate::range("price", -2.0, -1.0));

    // (name, ceiling ÷ plain, calls per round, one call)
    type Arm<'a> = (&'static str, f64, u32, Box<dyn Fn() + 'a>);
    let arms: [Arm; 5] = [
        ("plain", 1.0, 1, Box::new(|| run(&db))),
        ("obs_on", QUERY_CEILING, 1, Box::new(|| run(&traced))),
        (
            "cancel_token",
            QUERY_CEILING,
            1,
            Box::new(|| db.with_session(&cancel, run)),
        ),
        (
            "deadline",
            QUERY_CEILING,
            1,
            Box::new(|| db.with_session(&deadline, run)),
        ),
        (
            "probe_6k",
            PROBE_CEILING,
            PROBE_CALLS,
            Box::new(|| {
                black_box(cache.find_subsuming("sales", &outside).is_none());
            }),
        ),
    ];

    let mut min_ns = [u64::MAX; 5];
    for round in 0..ROUNDS {
        for k in 0..arms.len() {
            let i = (round + k) % arms.len();
            let (_, _, calls, call) = &arms[i];
            run(&db); // untimed: the same predecessor for every arm
            let start = Instant::now();
            for _ in 0..*calls {
                call();
            }
            let ns = start.elapsed().as_nanos() as u64 / u64::from(*calls);
            min_ns[i] = min_ns[i].min(ns);
        }
    }

    let plain_ns = min_ns[0];
    let rows: Vec<(&str, u64, f64)> = arms
        .iter()
        .zip(min_ns)
        .map(|((name, ceiling, ..), ns)| (*name, ns, *ceiling))
        .collect();
    println!("overheads: {ROUNDS} interleaved rounds, minimum per arm");
    println!(
        "{:>14} | {:>10} | {:>9} | {:>9}",
        "arm", "min", "÷ plain", "ceiling"
    );
    for &(name, ns, ceiling) in &rows {
        println!(
            "{:>14} | {:>10} | {:>9.4} | {:>9.4}",
            name,
            fmt_ns(ns),
            ns as f64 / plain_ns as f64,
            ceiling
        );
    }
    // `plain` sits exactly at its own ceiling of 1.0, which passes.
    let failing = over_ceiling(plain_ns, &rows);
    if !failing.is_empty() {
        eprintln!("overheads: over ceiling: {}", failing.join(", "));
        std::process::exit(1);
    }
    println!("overheads: all arms within their ceilings");
}
