//! # explore-cracking
//!
//! Adaptive indexing for data exploration: the Database Layer /
//! "Adaptive Indexing" cluster of the SIGMOD'15 tutorial *Overview of
//! Data Exploration Techniques* (papers \[22, 23, 26, 29, 30, 31, 33\]).
//!
//! The premise of the whole cluster: in exploration there is no workload
//! to tune for, so indexes must *emerge from the queries themselves*.
//! Each module implements one surveyed refinement:
//!
//! * [`cracker`] — standard database cracking: each range query
//!   partitions the column at its bounds; first query ≈ scan cost,
//!   convergence towards a sorted column along the explored ranges.
//!   [`CrackerColumn`] is the crate's one crack kernel: the modules below
//!   add pivots, partitions or locks around it, never a second copy.
//! * [`stochastic`] — stochastic cracking (DDC/DDR): auxiliary
//!   data-driven cracks keep pieces balanced, defeating the sequential
//!   workloads that stall standard cracking.
//! * [`hybrid`] — hybrid crack-sort: initial partitions (one
//!   [`CrackerColumn`] each) drained into an
//!   always-sorted final partition, trading a slightly costlier first
//!   query for immediate binary-search performance on revisited ranges.
//! * [`concurrent`] — shared/exclusive locking that exploits the
//!   discretionary nature of cracking writes: converged queries read
//!   concurrently.
//! * [`baseline`] — the comparison points every cracking paper uses:
//!   full scans, a fully sorted index, and the workload generator
//!   (random / sequential / skewed / zoom-in patterns).
//!
//! # Example: the cracking convergence story (experiment E1)
//!
//! ```
//! use explore_cracking::{CrackerColumn, baseline::SortedIndex};
//! use explore_storage::gen::uniform_i64;
//!
//! let base = uniform_i64(100_000, 0, 100_000, 42);
//! let mut cracked = CrackerColumn::new(base.clone());
//! let sorted = SortedIndex::build(&base);
//!
//! // Same answers, radically different cost profiles.
//! assert_eq!(
//!     cracked.query_count(1000, 2000),
//!     sorted.query_count(1000, 2000),
//! );
//! // After a handful of queries the cracker touches almost nothing new.
//! for i in 0..50 {
//!     cracked.query(i * 1000, i * 1000 + 500);
//! }
//! assert!(cracked.stats().touched > 0);
//! ```

pub mod baseline;
pub mod concurrent;
pub mod cracker;
pub mod hybrid;
pub mod stochastic;

pub use baseline::{QueryPattern, ScanBaseline, SortedIndex};
pub use concurrent::ConcurrentCracker;
pub use cracker::{CrackStats, CrackerColumn};
pub use hybrid::HybridCrackSort;
pub use stochastic::{StochasticCracker, StochasticVariant};
