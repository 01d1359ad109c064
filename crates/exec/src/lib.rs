//! # explore-exec
//!
//! Morsel-driven parallel execution for the exploration workspace,
//! after the Hyper-style design: tables are split into fixed ~64K-row
//! morsels ([`explore_storage::MORSEL_ROWS`]), a small work-stealing
//! pool fans predicate evaluation and per-morsel partial aggregation
//! out across threads, and partials are merged back **in morsel order**.
//!
//! Because [`ExecPolicy::Serial`] and [`ExecPolicy::Parallel`] share the
//! morsel decomposition and the merge order, the two policies produce
//! bit-identical result tables for every supported query shape — the
//! property the repo's differential test harness
//! (`tests/parallel_differential.rs`) asserts exhaustively.
//!
//! Interactive exploration sessions are latency-bound scans over a
//! single hot table; morsel-driven parallelism is the standard way to
//! keep such scans within the interactive budget as data grows, without
//! giving up the determinism that differential testing (and result
//! caching across techniques) depends on.
//!
//! Every entry point takes one [`QueryCtx`] — the single per-query
//! context bundling execution policy, fail points, cancellation, and
//! tracing — instead of per-concern method variants.
//!
//! The crate holds the workspace's one dispatch protocol and its one
//! scan-and-aggregate pipeline. [`fan_out`] runs `n` indexed jobs under
//! the context's policy — the policy match, the pool submission (the
//! pool has one entry point, [`ExecPool::run`]), the panic fallback and
//! the lowest-index-error rule are written there and nowhere else; the
//! shard layer's scan fan-out is a caller. [`run_query_parts`] runs a
//! query over a table given as row-range parts, which is how a sharded
//! table aggregates; [`run_query`] is its one-part case.
//!
//! # Example
//!
//! ```
//! use explore_exec::{run_query, ExecPolicy, QueryCtx};
//! use explore_storage::{gen, AggFunc, Predicate, Query};
//!
//! let sales = gen::sales_table(&gen::SalesConfig::default());
//! let query = Query::new()
//!     .filter(Predicate::range("price", 50.0, 200.0))
//!     .group("region")
//!     .agg(AggFunc::Avg, "price");
//! let serial = run_query(&sales, &query, &QueryCtx::none()).unwrap();
//! let parallel = run_query(&sales, &query, &QueryCtx::new(ExecPolicy::parallel())).unwrap();
//! assert_eq!(serial.num_rows(), parallel.num_rows());
//! ```

pub mod ctx;
pub mod fanout;
pub mod policy;
pub mod pool;
pub mod query;

pub use ctx::{QueryCtx, YieldHook};
pub use fanout::{fan_out, FanOut, FanOutSite};
pub use policy::ExecPolicy;
pub use pool::{default_parallelism, global_pool, ExecPool};
pub use query::{
    evaluate_selection, morsel_count, morsel_range, morsel_rows_for, run_query,
    run_query_on_selection, run_query_parts, MAX_MORSELS,
};
