//! # explore-workload
//!
//! A deterministic, seeded interactive-session driver — the IDEBench-style
//! workload layer over the exploration engine.
//!
//! The tutorial's systems all exist to serve a *human in a loop*:
//! sub-second answers to a stream of related queries, each shaped by the
//! last answer. Micro-benchmarks of single operators cannot tell whether
//! the stack holds up under that loop, so this crate replays it
//! synthetically: [`SessionSpec`] generates analyst trajectories
//! (filter → refine → pan → drill → lookup) from a [`SplitMix64`] seed —
//! no OS randomness, same seed ⇒ bit-identical trajectory — and
//! [`WorkloadRunner`] replays N of them concurrently against one shared
//! [`ExploreDb`](explore_core::ExploreDb) under any
//! `ExecPolicy × CachePolicy × ShardPolicy`, holding every interaction
//! to an SLO budget and digesting every answer. The
//! [`WorkloadReport`] carries the counts — interactions per class,
//! errors, SLO violations — and the result checksum; its
//! [`deterministic`](WorkloadReport::deterministic) projection is a pure
//! function of the [`WorkloadConfig`], which is what the determinism and
//! chaos suites assert. Latency distributions and throughput are the
//! repo benchmark's job (`benchmark/`), not this crate's.
//!
//! [`SplitMix64`]: explore_storage::rng::SplitMix64
//!
//! # Example
//!
//! ```
//! use explore_workload::{WorkloadConfig, WorkloadRunner};
//!
//! let config = WorkloadConfig {
//!     sessions: 2,
//!     interactions: 8,
//!     rows: 2_000,
//!     ..WorkloadConfig::default()
//! };
//! let runner = WorkloadRunner::new(config.clone()).unwrap();
//! let report = runner.run().unwrap();
//! assert_eq!(report.interactions, 16);
//! // Same seed ⇒ same results, independent of timing and threads.
//! let again = WorkloadRunner::new(config).unwrap().run().unwrap();
//! assert_eq!(report.deterministic(), again.deterministic());
//! ```

pub mod runner;
pub mod spec;

pub use runner::{DeterministicReport, DriveMode, WorkloadConfig, WorkloadReport, WorkloadRunner};
pub use spec::{Interaction, SessionSpec, GRID_CELLS};
