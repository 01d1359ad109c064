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
//! * [`Dictionary`] / [`Measure`] — a Utf8 column as dense group codes;
//!   an aggregate's input, type-checked once.
//! * [`Predicate`] — filter ASTs, evaluated by one vectorized kernel
//!   that fills `u64` bitmaps column-at-a-time; selections, masks and
//!   id lists are all views of that bitmap.
//! * [`Query`] — filter → group/aggregate → order → limit, and the one
//!   morsel pipeline that executes it ([`Query::run`] is its serial walk).
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
pub mod column;
pub mod csv;
pub mod dict;
pub mod error;
pub mod gen;
pub mod predicate;
pub mod query;
pub mod rng;
pub mod schema;
pub mod table;
pub mod value;

pub use agg::{Accumulator, AggFunc, Measure};
pub use column::Column;
pub use dict::Dictionary;
pub use error::{Result, StorageError};
pub use predicate::{CmpOp, Predicate};
/// The morsel grid and the dispatch seam of the one query pipeline
/// (see [`query`]). `explore-exec` implements the seam with cancellation,
/// fail points, spans and helper threads; everything else runs queries through
/// [`Query::run`] or `explore_exec::run_query`, which return the same bits.
pub use query::{morsel_count, morsel_range, morsel_rows_for, MorselDispatch, MAX_MORSELS};
pub use query::{Aggregate, Query, SortOrder, MORSEL_ROWS};
pub use schema::{Field, Schema};
pub use table::Table;
pub use value::{DataType, Value};
