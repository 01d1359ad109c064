//! Deterministic fault injection and cooperative cancellation.
//!
//! Two small, dependency-free primitives the rest of the engine threads
//! through its hazard sites:
//!
//! * [`FailPoints`] — a registry of named fail points. Hazard sites call
//!   [`FailPoints::fire`] with a static name ("cache.admit",
//!   "exec.morsel", …); when the point is armed with a [`Schedule`] the
//!   call deterministically decides whether the fault triggers on this
//!   hit. When nothing is armed the whole registry costs one relaxed
//!   atomic load per site — a no-op branch, never taken in production.
//! * [`CancelToken`] / [`QueryDeadline`] — a cooperative cancellation
//!   token checked once per morsel by the executor. A cancelled or
//!   expired token makes the query return
//!   `StorageError::Cancelled`/`DeadlineExceeded` after at most one
//!   in-flight morsel's worth of work, with all partial engine state
//!   (cracker index, cache) left valid.
//!
//! Registries are per-engine (not process-global) so concurrent tests
//! and concurrent engines never see each other's faults.

pub mod cancel;
pub mod point;

pub use cancel::{CancelToken, QueryDeadline};
pub use point::{FailPoint, FailPoints, Observer, PointStats, Schedule};
