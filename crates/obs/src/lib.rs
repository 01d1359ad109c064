//! # explore-obs
//!
//! Engine-wide observability: structured per-query tracing and an
//! aggregated metrics registry, **zero-cost when off**.
//!
//! The tutorial's middleware layer — query steering, result reuse,
//! adaptive indexing, view recommendation — is a stack of systems that
//! make *per-query cost decisions*. They can only be tuned (and their
//! regressions only explained) if the engine can say where each query's
//! time went. This crate is that substrate:
//!
//! * a [`Tracer`] hands out one [`ActiveTrace`] per query; any thread
//!   touching the query (the caller, exec-pool helpers) records
//!   fixed-size [`Span`]s into a lock-free per-trace buffer, drained
//!   into a bounded ring of recent [`QueryTrace`]s when the query ends;
//! * a [`MetricsRegistry`] aggregates named counters and log-scale
//!   latency histograms (p50/p95/p99) across threads;
//! * [`render_trace`] turns one trace into the human-readable profile
//!   `ExploreDb::explain` returns.
//!
//! With [`ObsPolicy::Off`] (the default) the only residue is a relaxed
//! atomic load per query and a never-taken branch per morsel — results
//! are bit-identical either way, which `tests/obs_differential.rs`
//! asserts across every supported query shape and exec policy.
//!
//! # Example
//!
//! ```
//! use std::sync::Arc;
//! use explore_obs::{ObsPolicy, SpanKind, Tracer, ROOT_SPAN};
//!
//! let tracer = Arc::new(Tracer::new());
//! tracer.set_policy(&ObsPolicy::on());
//! let active = tracer.start("sales", || "count(*)".into()).unwrap();
//! active.scope(ROOT_SPAN, SpanKind::Stage("scan"), || { /* work */ });
//! let trace = active.finish();
//! assert!(trace.is_well_formed());
//! assert_eq!(tracer.recent_traces().len(), 1);
//! ```

pub mod metrics;
pub mod policy;
pub mod render;
pub mod span;
pub mod tracer;

pub use metrics::{Histogram, HistogramSnapshot, MetricsRegistry, MetricsSnapshot};
pub use policy::{ObsConfig, ObsPolicy};
pub use render::{fmt_ns, render_trace};
pub use span::{CacheOutcome, QueryTrace, Span, SpanId, SpanKind, ROOT_SPAN};
pub use tracer::{ActiveTrace, Tracer};
