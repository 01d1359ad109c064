//! # explore-sampling
//!
//! Table-level sampling architectures from the tutorial's Middleware and
//! Database Layer sections:
//!
//! * [`uniform`] — plain uniform row samples with scale factors.
//! * [`stratified`] — BlinkDB-style per-group-capped samples \[6, 7\] that
//!   keep rare groups answerable.
//! * [`catalog`] — the sample catalog a BlinkDB-style optimizer selects
//!   from at query time (see `explore-aqp::bounded`).
//! * [`weighted`] — SciBORQ-style biased "impressions" \[59, 60\] with
//!   Horvitz–Thompson correction for unbiased answers over biased
//!   storage.
//!
//! ```
//! use explore_exec::QueryCtx;
//! use explore_sampling::{SampleCatalog, SampleKey};
//! use explore_storage::gen::{sales_table, SalesConfig};
//!
//! let base = sales_table(&SalesConfig::default());
//! let catalog = SampleCatalog::build(
//!     &base,
//!     &[0.01, 0.1],
//!     &[("region", 100)],
//!     42,
//!     &QueryCtx::none(),
//! ).unwrap();
//! assert_eq!(catalog.uniform_ladder().len(), 2);
//! assert!(catalog.get(&SampleKey::stratified("region", 100)).is_some());
//! ```

pub mod catalog;
pub mod stratified;
pub mod uniform;
pub mod weighted;

pub use catalog::{SampleCatalog, SampleKey, StoredSample};
pub use stratified::StratifiedSample;
pub use uniform::UniformSample;
pub use weighted::WeightedSample;
