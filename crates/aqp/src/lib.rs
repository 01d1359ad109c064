//! # explore-aqp
//!
//! Approximate query processing — the tutorial's Middleware / "Query
//! Approximation" cluster:
//!
//! * [`ci`] — CLT confidence intervals with finite-population correction
//!   and a high-precision normal quantile.
//! * [`online`] — online aggregation (CONTROL \[24\], Hellerstein et al.
//!   \[25\]): running estimates whose intervals shrink as random-order
//!   processing proceeds, with early stopping.
//! * [`group_online`] — group-wise online aggregation: a live interval
//!   per GROUP BY bar.
//! * [`bounded`] — BlinkDB-style error- and time-bounded execution
//!   \[6, 7\] over a pre-built sample catalog, escalating through the
//!   sample ladder until the bound holds.
//! * [`synopsis_exec`] — AQUA-style answering from precomputed synopses.
//! * [`walk`] — the one seeded random-order row walk, shared with
//!   `explore-viz`'s ordered bars and SeeDB pruning.
//!
//! ```
//! use explore_aqp::{OnlineAggregation};
//! use explore_storage::{gen, AggFunc, Predicate};
//!
//! let t = gen::sales_table(&gen::SalesConfig { rows: 20_000, ..Default::default() });
//! let mut oa = OnlineAggregation::start(
//!     &t, &Predicate::True, AggFunc::Avg, "price", 0.95, 7,
//! ).unwrap();
//! let trace = oa.run_until(0.02, 500).unwrap(); // stop at ±2%
//! assert!(trace.last().unwrap().processed < 20_000);
//! ```

pub mod bounded;
pub mod ci;
pub mod group_online;
pub mod online;
pub mod synopsis_exec;
pub mod walk;

pub use bounded::{Bound, BoundedAnswer, BoundedExecutor};
pub use ci::{
    count_interval, mean_interval, normal_quantile, sum_interval, z_for_confidence,
    ConfidenceInterval,
};
pub use group_online::{GroupEstimate, GroupedOnlineAggregation};
pub use online::{OnlineAggregation, Snapshot};
pub use synopsis_exec::{AnsweredBy, SynopsisAnswer, SynopsisStore};
pub use walk::SeededWalk;
