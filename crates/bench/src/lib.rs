//! # explore-bench
//!
//! The experiment harness of the reproduction: one function per
//! experiment in EXPERIMENTS.md, each printing the paper-shaped table or
//! series for its technique family. The `reproduce` binary dispatches on
//! experiment ids (`reproduce -e e1`, `reproduce --all`).
//!
//! Cross-commit performance numbers come from the repo benchmark
//! (`BENCHMARK.json`, `benchmark/`), not from here. The one bench target,
//! `benches/overheads.rs`, is a same-run ratio check of the overheads a
//! workload benchmark cannot see (tracing on, cancel token, deadline,
//! cache probe); [`over_ceiling`] is its verdict.

pub mod experiments_db;
pub mod experiments_mid;
pub mod experiments_user;

use std::time::Instant;

/// Run `f`, returning (result, elapsed microseconds).
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t0 = Instant::now();
    let r = f();
    (r, t0.elapsed().as_secs_f64() * 1e6)
}

/// Pretty microseconds.
pub fn us(v: f64) -> String {
    if v >= 1e6 {
        format!("{:.2}s", v / 1e6)
    } else if v >= 1e3 {
        format!("{:.2}ms", v / 1e3)
    } else {
        format!("{v:.1}µs")
    }
}

/// The verdict of the same-run overhead check (`benches/overheads.rs`):
/// given the `plain` arm's best time and each other arm's
/// `(name, best time, ceiling)`, the names of the arms whose best time
/// exceeds `ceiling × plain_ns`. Empty means the check passes.
pub fn over_ceiling<'a>(plain_ns: u64, arms: &[(&'a str, u64, f64)]) -> Vec<&'a str> {
    arms.iter()
        .filter(|&&(_, ns, ceiling)| ns as f64 > ceiling * plain_ns as f64)
        .map(|&(name, _, _)| name)
        .collect()
}

/// The experiment registry: (id, title, runner).
pub fn registry() -> Vec<(&'static str, &'static str, fn())> {
    vec![
        (
            "t1",
            "Table 1: taxonomy of data-exploration research",
            experiments_user::t1 as fn(),
        ),
        (
            "e1",
            "Cracking convergence vs scan vs full sort",
            experiments_db::e1,
        ),
        (
            "e2",
            "Stochastic cracking under sequential workloads",
            experiments_db::e2,
        ),
        ("e3", "Hybrid crack-sort convergence", experiments_db::e3),
        (
            "e4",
            "Adaptive loading vs eager load vs external scan",
            experiments_db::e4,
        ),
        (
            "e5",
            "Online aggregation: CI width vs tuples processed",
            experiments_mid::e5,
        ),
        (
            "e6",
            "BlinkDB-style error and row-budget bounds",
            experiments_mid::e6,
        ),
        (
            "e7",
            "SeeDB: naive vs shared vs pruned view recommendation",
            experiments_user::e7,
        ),
        (
            "e8",
            "Explore-by-example: F1 vs labeling effort",
            experiments_user::e8,
        ),
        (
            "e9",
            "Semantic windows and trajectory prefetching",
            experiments_mid::e9,
        ),
        (
            "e10",
            "Result diversification trade-off and caching",
            experiments_mid::e10,
        ),
        (
            "e11",
            "Adaptive storage under phase-shifting workloads",
            experiments_db::e11,
        ),
        ("e12", "Synopsis accuracy vs space", experiments_mid::e12),
        (
            "e13",
            "Discovery-driven and speculative cube exploration",
            experiments_mid::e13,
        ),
        ("e14", "Query-from-output discovery", experiments_user::e14),
        (
            "e15",
            "Visualization-bound sampling and M4 reduction",
            experiments_user::e15,
        ),
        (
            "e16",
            "Concurrent adaptive indexing throughput",
            experiments_db::e16,
        ),
        (
            "e17",
            "Adaptive data-series indexing (ADS)",
            experiments_db::e17,
        ),
        (
            "e18",
            "Speculative neighbor-query middleware",
            experiments_mid::e18,
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_ids_are_unique() {
        let r = registry();
        let mut ids: Vec<&str> = r.iter().map(|(id, _, _)| *id).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), r.len());
        assert_eq!(r.len(), 19);
    }

    #[test]
    fn table1_experiments_are_registered() {
        let ids: Vec<&str> = registry().iter().map(|(id, _, _)| *id).collect();
        for c in explore_core::table1() {
            for e in c.experiments {
                assert!(ids.contains(e), "{}: {e} is not in the registry", c.area);
            }
        }
    }

    #[test]
    fn over_ceiling_names_exactly_the_arms_past_their_ratio() {
        // 10 ms plain: 3 % over passes a 1.05 ceiling, a 22 µs probe
        // passes 0.5 %.
        let within = [("obs_on", 10_300_000, 1.05), ("probe_6k", 22_000, 0.005)];
        assert!(over_ceiling(10_000_000, &within).is_empty());
        // A ceiling is inclusive; one nanosecond past it fails.
        assert!(over_ceiling(10_000_000, &[("deadline", 10_500_000, 1.05)]).is_empty());
        assert_eq!(
            over_ceiling(10_000_000, &[("deadline", 10_500_001, 1.05)]),
            ["deadline"]
        );
        // A 10 % tax on one arm and a slow probe fail by name; the
        // healthy arm between them does not.
        let taxed = [
            ("obs_on", 11_000_000, 1.05),
            ("cancel_token", 10_100_000, 1.05),
            ("probe_6k", 60_000, 0.005),
        ];
        assert_eq!(over_ceiling(10_000_000, &taxed), ["obs_on", "probe_6k"]);
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(us(12.34), "12.3µs");
        assert_eq!(us(12_340.0), "12.34ms");
        assert_eq!(us(1_234_000.0), "1.23s");
        let (v, t) = timed(|| 42);
        assert_eq!(v, 42);
        assert!(t >= 0.0);
    }
}
