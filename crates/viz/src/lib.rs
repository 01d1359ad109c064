//! # explore-viz
//!
//! Visualization-layer techniques from the tutorial's User Interaction
//! section:
//!
//! * [`seedb`] — SeeDB deviation-based view recommendation \[49\]:
//!   naive vs shared-scan vs phase-pruned execution of the candidate
//!   view space, scored by KL divergence between target and reference
//!   distributions.
//! * [`reduce`] — M4-style query-result reduction for line charts \[11\]:
//!   pixel-lossless 4-points-per-column aggregation.
//! * [`ordered`] — rapid sampling with ordering guarantees \[12\]: stop
//!   sampling a bar chart as soon as the bar order is certain.
//! * [`vizdeck`] — VizDeck-style chart ranking \[40\]: statistical
//!   heuristics deal a dashboard deck with zero queries written.
//!
//! ```
//! use explore_exec::QueryCtx;
//! use explore_viz::seedb::{candidate_views, recommend_shared, SeedbStats};
//! use explore_storage::{gen, AggFunc, Predicate};
//!
//! let t = gen::sales_table(&gen::SalesConfig::default());
//! let views = candidate_views(&t, &[AggFunc::Avg, AggFunc::Count]);
//! let mut stats = SeedbStats::default();
//! let top = recommend_shared(
//!     &t, &Predicate::eq("product", "product0"), &views, 3, &mut stats,
//!     &QueryCtx::none(),
//! ).unwrap();
//! assert_eq!(top.len(), 3);
//! assert_eq!(stats.scans, 1); // one shared pass for all views
//! ```

pub mod ordered;
pub mod reduce;
pub mod seedb;
pub mod vizdeck;

pub use ordered::{ordered_bars, OrderedBars};
pub use reduce::{m4_reduce, pixel_extents, ReducedSeries};
pub use seedb::{
    candidate_views, kl_divergence, recall, recommend_naive, recommend_pruned, recommend_shared,
    ScoredView, SeedbStats, ViewSpec,
};
pub use vizdeck::{propose_charts, ChartKind, ChartProposal};
