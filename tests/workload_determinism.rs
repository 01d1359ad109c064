//! Workload-determinism suite: the interactive session driver is a
//! *reproducible experiment*, not just a load generator.
//!
//! Three properties are asserted, all downstream of the engine's
//! bit-identical differential guarantees:
//!
//! 1. **Seed determinism** — the same [`WorkloadConfig`] yields the same
//!    [`DeterministicReport`] (counts + result checksum) on every run,
//!    regardless of thread scheduling.
//! 2. **Policy independence** — the checksum is identical across every
//!    `ExecPolicy × CachePolicy × ShardPolicy` combination: concurrency
//!    and reuse machinery must never change answers.
//! 3. **Graceful chaos** — seeded fault schedules over the exec, cache,
//!    crack, and shard fail points leave the deterministic report
//!    untouched (degraded paths are bit-identical and the runner counts
//!    rather than propagates errors), and the same runner re-serves
//!    truth after `disarm_all`.
//!
//! Iteration counts default to the CI smoke budget and scale up via the
//! `WORKLOAD_ITERS` env var for soak runs (mirroring `CHAOS_ITERS`).

use std::time::Duration;

use exploration::cache::CachePolicy;
use exploration::exec::ExecPolicy;
use exploration::shard::{ShardConfig, ShardPolicy};
use exploration::storage::rng::SplitMix64;
use exploration::workload::{DriveMode, WorkloadConfig, WorkloadReport, WorkloadRunner};
use exploration::Schedule;

/// Small-but-concurrent config: several sessions on several threads, so
/// scheduling nondeterminism has every chance to leak if it can.
fn base_config(seed: u64) -> WorkloadConfig {
    WorkloadConfig {
        sessions: 4,
        interactions: 12,
        seed,
        rows: 3_000,
        threads: 4,
        exec: ExecPolicy::Serial,
        cache: CachePolicy::on(),
        shard: ShardPolicy::Off,
        deadline: None,
        budget: Duration::from_millis(50),
        mode: DriveMode::Direct,
    }
}

fn run(config: WorkloadConfig) -> WorkloadReport {
    WorkloadRunner::new(config)
        .expect("build runner")
        .run()
        .expect("run workload")
}

/// Iteration budget, `WORKLOAD_ITERS`-scalable for soak runs.
fn workload_iters() -> usize {
    std::env::var("WORKLOAD_ITERS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(8)
}

/// Fail points the workload's interactions reach (query, cracked_range,
/// discover_cube, cache traffic, shard fan-out).
const POINTS: &[&str] = &[
    "exec.spawn",
    "exec.morsel",
    "cache.admit",
    "cache.lookup",
    "cache.evict",
    "crack.reorg",
    "shard.dispatch",
    "shard.merge",
];

#[test]
fn same_seed_same_report_across_runs_and_thread_counts() {
    for iter in 0..workload_iters() {
        let seed = 0x5EED_0000 + iter as u64;
        let truth = run(base_config(seed)).deterministic();
        assert_eq!(truth.errors, 0, "seed {seed:#x}: clean run must not error");
        assert_eq!(truth.interactions, 48);

        // Same config again: identical projection.
        assert_eq!(
            run(base_config(seed)).deterministic(),
            truth,
            "seed {seed:#x}"
        );

        // Same seed, different concurrency: scheduling must not leak.
        let single = WorkloadConfig {
            threads: 1,
            ..base_config(seed)
        };
        assert_eq!(
            run(single).deterministic(),
            truth,
            "seed {seed:#x}: 1 thread vs 4"
        );
    }

    // And different seeds genuinely explore different trajectories.
    assert_ne!(
        run(base_config(1)).deterministic().checksum,
        run(base_config(2)).deterministic().checksum
    );
}

#[test]
fn checksum_is_identical_across_exec_cache_shard_policies() {
    let truth = run(base_config(0xCAFE)).deterministic();
    let variants = [
        (
            "parallel",
            ExecPolicy::Parallel { workers: 4 },
            CachePolicy::on(),
            ShardPolicy::Off,
        ),
        (
            "uncached",
            ExecPolicy::Serial,
            CachePolicy::Off,
            ShardPolicy::Off,
        ),
        (
            "sharded",
            ExecPolicy::Serial,
            CachePolicy::on(),
            ShardPolicy::On(ShardConfig {
                count: 3,
                min_rows_per_shard: 1,
            }),
        ),
        (
            "parallel_sharded_uncached",
            ExecPolicy::Parallel { workers: 2 },
            CachePolicy::Off,
            ShardPolicy::On(ShardConfig {
                count: 4,
                min_rows_per_shard: 1,
            }),
        ),
    ];
    for (name, exec, cache, shard) in variants {
        let got = run(WorkloadConfig {
            exec,
            cache,
            shard,
            ..base_config(0xCAFE)
        })
        .deterministic();
        assert_eq!(got, truth, "policy variant {name} changed the results");
    }
}

/// A random fault schedule derived deterministically from the rng
/// (mirrors the chaos-differential suite).
fn random_schedule(rng: &mut SplitMix64) -> Schedule {
    match rng.range_i64(0, 4) {
        0 => Schedule::Always,
        1 => Schedule::Nth(rng.range_i64(1, 5) as u64),
        2 => Schedule::FirstN(rng.range_i64(1, 4) as u64),
        _ => Schedule::Seeded {
            seed: rng.next_u64(),
            one_in: rng.range_i64(1, 5) as u64,
        },
    }
}

#[test]
fn seeded_chaos_preserves_the_report_and_truth_returns_after_disarm() {
    let truth = run(base_config(0xC405)).deterministic();
    for iter in 0..workload_iters() {
        let mut rng = SplitMix64::new(0xC405_0000 + iter as u64);
        // Half the iterations run sharded so shard.dispatch/merge are
        // actually reachable; half exercise the single-table paths.
        let shard = if rng.range_i64(0, 2) == 0 {
            ShardPolicy::On(ShardConfig {
                count: rng.range_i64(2, 4) as usize,
                min_rows_per_shard: 1,
            })
        } else {
            ShardPolicy::Off
        };
        let exec = if rng.range_i64(0, 2) == 0 {
            ExecPolicy::Serial
        } else {
            ExecPolicy::Parallel {
                workers: rng.range_i64(1, 5) as usize,
            }
        };
        let runner = WorkloadRunner::new(WorkloadConfig {
            exec,
            shard,
            ..base_config(0xC405)
        })
        .expect("build runner");

        let faults = runner.fail_points();
        for _ in 0..rng.range_i64(1, 4) {
            let point = POINTS[rng.range_i64(0, POINTS.len() as i64) as usize];
            faults.arm(point, random_schedule(&mut rng));
        }

        // Under faults (no deadline, no cancel): every degraded path is
        // bit-identical, so the whole deterministic report — including
        // the result checksum — must survive the chaos unchanged.
        let chaotic = runner.run().expect("chaotic run completes");
        assert_eq!(
            chaotic.deterministic(),
            truth,
            "iter {iter}: faults changed answers or dropped interactions"
        );

        // Disarmed, the same runner re-serves truth.
        faults.disarm_all();
        let clean = runner.run().expect("post-chaos run completes");
        assert_eq!(clean.deterministic(), truth, "iter {iter}: post-disarm");
    }
}

/// Cross-version determinism anchor: these checksums were captured on
/// the engine *before* the shared-read refactor (global `&mut self`
/// query path behind one big lock). The lock decomposition — per-table
/// `RwLock`s, `Arc` snapshots, session-scoped overlays — must be purely
/// a scheduling change, so the same seeds must reproduce the same
/// checksums bit-for-bit forever. A mismatch here means the refactor
/// (or a later change) altered what a query *computes*, not just when
/// it runs.
#[test]
fn checksums_match_pre_refactor_pinned_values() {
    let pinned: &[(u64, u64)] = &[
        (0x5EED_0000, 8118399758598064744),
        (0x5EED_0001, 10173993084681322017),
        (0xCAFE, 11122414987131748463),
        (0xC405, 13810340799194838314),
        (0x1, 17244623889914159750),
        (0x2, 6269316746198252329),
    ];
    for &(seed, checksum) in pinned {
        let got = run(base_config(seed)).deterministic();
        assert_eq!(got.errors, 0, "seed {seed:#x}");
        assert_eq!(got.interactions, 48, "seed {seed:#x}");
        assert_eq!(
            got.checksum, checksum,
            "seed {seed:#x}: checksum diverged from the pre-refactor engine"
        );
    }
    // Sharding is invisible to results: the sharded run of a pinned
    // seed reproduces the unsharded pinned checksum.
    let sharded = run(WorkloadConfig {
        shard: ShardPolicy::On(ShardConfig {
            count: 3,
            min_rows_per_shard: 1,
        }),
        ..base_config(0xCAFE)
    })
    .deterministic();
    assert_eq!(sharded.checksum, 11122414987131748463);
    // And the out-of-the-box config is anchored too.
    let default = run(WorkloadConfig::default()).deterministic();
    assert_eq!(default.interactions, 96);
    assert_eq!(default.checksum, 15804763216757087682);
}

#[test]
fn deadline_cuts_are_counted_violations_never_panics() {
    let report = run(WorkloadConfig {
        deadline: Some(Duration::ZERO),
        exec: ExecPolicy::Parallel { workers: 2 },
        ..base_config(0xDEAD)
    });
    // Every engine-backed interaction is cut by the zero deadline; pan
    // runs lock-free off the grid and survives. Nothing panics, every
    // attempt is accounted.
    assert_eq!(report.interactions, 48);
    assert!(report.errors > 0, "zero deadline must cut queries");
    assert!(
        report.violations >= report.errors,
        "deadline cuts count as SLO violations"
    );
    // A measured field sanity check: violation rate is a percentage.
    let rate = report.violation_rate_pct();
    assert!((0.0..=100.0).contains(&rate));
}
