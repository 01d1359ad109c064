//! # explore-cache
//!
//! A semantic query-result cache for exploration sessions, in the
//! recycler tradition: results of past queries are kept, and new
//! queries are answered from them when provably equivalent (**exact
//! hits**, via canonical fingerprints) or provably contained
//! (**subsumption hits** — a narrower range query is answered by
//! re-filtering a cached superset instead of scanning the base table).
//!
//! Exploration workloads are dominated by overlapping and refining
//! range queries — pan, zoom, drill-down — which is exactly the access
//! pattern subsumption turns into sub-scan-cost answers. Three design
//! rules keep the cache honest:
//!
//! * **Bit-exactness.** Cached and subsumption-served answers are
//!   bit-identical to a cold base-table run: re-filters replay through
//!   `explore_exec::run_query_on_selection`, which preserves the base
//!   table's morsel decomposition and merge order.
//! * **Epoch invalidation.** Every table carries a monotonically
//!   increasing epoch; mutations bump it and stale entries are never
//!   served (purged eagerly, double-checked on every lookup, and
//!   refused at admission when a mutation raced the compute).
//! * **Cost-aware retention.** Benefit = measured compute cost saved ×
//!   hit count / resident bytes; under a byte budget the lowest-benefit
//!   entry is evicted first, and oversized results are never admitted.
//!
//! # Example
//!
//! ```
//! use std::sync::Arc;
//!
//! use explore_cache::{cached_query, CacheConfig, ResultCache};
//! use explore_exec::QueryCtx;
//! use explore_storage::{gen, AggFunc, Predicate, Query};
//!
//! let sales = gen::sales_table(&gen::SalesConfig::default());
//! let cache = ResultCache::new(CacheConfig::default());
//! let ctx = QueryCtx::none();
//!
//! // A broad range aggregate: cold miss, then an exact warm hit.
//! let broad = Query::new()
//!     .filter(Predicate::range("qty", 2.0, 8.0))
//!     .agg(AggFunc::Sum, "price");
//! let cold = cached_query(&cache, &sales, "sales", &broad, &ctx).unwrap();
//! let warm = cached_query(&cache, &sales, "sales", &broad, &ctx).unwrap();
//! assert_eq!(cold, warm);
//! assert_eq!(cache.stats().hits, 1);
//!
//! // A narrower range is contained in the cached one: served by
//! // re-filtering the cached selection, not by scanning the base table.
//! let narrow = Query::new()
//!     .filter(Predicate::range("qty", 3.0, 6.0))
//!     .agg(AggFunc::Sum, "price");
//! let served = cached_query(&cache, &sales, "sales", &narrow, &ctx).unwrap();
//! assert_eq!(cache.stats().subsumption_hits, 1);
//!
//! // ...and it is exactly what a cache-less run computes.
//! let direct = explore_exec::run_query(&sales, &narrow, &ctx).unwrap();
//! assert_eq!(served, direct);
//! ```

pub mod fingerprint;
mod probe;
pub mod region;
pub mod serve;
pub mod store;

pub use fingerprint::{predicate_key, Fingerprint};
pub use region::{BoundVal, Interval, Region};
pub use serve::{cached_query, cached_query_at_epoch, serve_or_compute};
pub use store::{
    table_bytes, CacheConfig, CachePolicy, CacheStats, ResultCache, ReuseArtifacts,
    SubsumeCandidate,
};
