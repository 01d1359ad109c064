//! # explore-storage
//!
//! The storage substrate of the `exploration` workspace: an in-memory,
//! column-oriented table engine with a small declarative query layer.
//!
//! Every technique crate in the workspace — adaptive indexing
//! (`explore-cracking`), adaptive loading (`explore-loading`), approximate
//! query processing (`explore-aqp`), view recommendation (`explore-viz`),
//! and the rest — builds on the types defined here:
//!
//! * [`Value`] / [`DataType`] — dynamic scalars at the API edge.
//! * [`Schema`] / [`Field`] — named, typed columns.
//! * [`Column`] — typed contiguous vectors; hot loops run on raw slices.
//! * [`Table`] — a schema plus equal-length columns.
//! * [`Predicate`] — filter ASTs with vectorized evaluation.
//! * [`Query`] — filter → group/aggregate → order → limit.
//! * [`RowStore`] — the row-major mirror used by adaptive storage.
//! * [`Catalog`] — named tables; [`hash_join`] for cross-table exploration.
//! * [`rng`] / [`gen`] — deterministic randomness and synthetic workloads
//!   shared by tests, examples and the benchmark harness.
//!
//! # Example
//!
//! ```
//! use explore_storage::{gen, AggFunc, Predicate, Query, SortOrder};
//!
//! let sales = gen::sales_table(&gen::SalesConfig::default());
//! let result = Query::new()
//!     .filter(Predicate::range("price", 50.0, 200.0))
//!     .group("region")
//!     .agg(AggFunc::Avg, "price")
//!     .order("avg(price)", SortOrder::Desc)
//!     .run(&sales)
//!     .unwrap();
//! assert!(result.num_rows() > 0);
//! ```

pub mod agg;
pub mod catalog;
pub mod column;
pub mod csv;
pub mod error;
pub mod gen;
pub mod join;
pub mod predicate;
pub mod query;
pub mod rng;
pub mod rowstore;
pub mod schema;
pub mod table;
pub mod value;

pub use agg::{Accumulator, AggFunc};
pub use catalog::Catalog;
pub use column::Column;
pub use error::{Result, StorageError};
pub use join::hash_join;
pub use predicate::{mask_to_sel, CmpOp, Predicate};
pub use query::{sort_table, Aggregate, Query, SortOrder, MORSEL_ROWS};
/// The grouped-aggregation kernel of the morsel executor. `explore-exec`
/// is its only consumer outside this crate; everything else aggregates
/// through [`Query::run`] or `explore_exec::run_query`.
pub use query::{AggColumns, GroupedAggState, MorselAggBatch, WorkerAggState};
pub use rowstore::RowStore;
pub use schema::{Field, Schema};
pub use table::Table;
pub use value::{DataType, Value};
