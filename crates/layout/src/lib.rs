//! # explore-layout
//!
//! Adaptive storage — the tutorial's Database Layer / "Adaptive Storage"
//! cluster (H2O "a hands-free adaptive store" \[9\], Dittrich & Jindal's
//! one-size-fits-all vision \[19\]).
//!
//! *"There is no perfect storage layout; instead there is a perfect
//! layout for each individual data access pattern."* In exploration the
//! pattern is unknown up front, so the store starts columnar (the safe
//! analytical default), **monitors** the patterns queries actually
//! exhibit ([`monitor`]), and **materializes alternative layouts** —
//! row-major groups ([`RowStore`]) covering hot tuple-reconstruction
//! patterns — once a pattern recurs enough to amortize the build
//! ([`store`]). Each operation then runs on whichever materialized
//! layout fits it.
//!
//! ```
//! use explore_layout::{AccessOp, AdaptiveStore, LayoutUsed};
//! use explore_storage::gen::{sales_table, SalesConfig};
//!
//! let mut store = AdaptiveStore::new(sales_table(&SalesConfig::default()));
//! let op = AccessOp::FetchRows {
//!     start: 0, len: 100,
//!     columns: vec!["price".into(), "qty".into()],
//! };
//! // Recurring row-wise access triggers a row-group materialization.
//! for _ in 0..3 { store.execute(&op).unwrap(); }
//! assert_eq!(store.execute(&op).unwrap().layout, LayoutUsed::RowGroup);
//! ```

pub mod monitor;
pub mod rowstore;
pub mod store;

pub use monitor::{AccessPattern, WorkloadMonitor};
pub use rowstore::RowStore;
pub use store::{AccessOp, AdaptiveStore, ExecReport, LayoutUsed, StoreConfig};
