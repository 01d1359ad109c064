//! The execution-policy knob exposed on `ExploreDb` and the technique
//! crates: serial morsel execution or a parallel fan-out over scoped
//! helper threads.

use std::num::NonZeroUsize;
use std::sync::OnceLock;

/// How a query plan is executed over its morsels.
///
/// Both policies use the **same** morsel decomposition and merge order,
/// so they produce bit-identical results; see `crate::query`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ExecPolicy {
    /// One thread walks the morsels in order.
    Serial,
    /// Morsels are fanned out over the caller and helper threads, using
    /// up to `workers` threads including the caller.
    Parallel {
        /// Upper bound on participating threads; clamped to the core
        /// count and the morsel count. `0` is treated as `1`.
        workers: usize,
    },
}

impl ExecPolicy {
    /// Parallel execution with every available core:
    /// [`default_parallelism`] workers.
    pub fn parallel() -> Self {
        ExecPolicy::Parallel {
            workers: default_parallelism(),
        }
    }

    /// The number of workers this policy asks for.
    pub fn workers(&self) -> usize {
        match *self {
            ExecPolicy::Serial => 1,
            ExecPolicy::Parallel { workers } => workers.max(1),
        }
    }
}

/// Defaults to [`ExecPolicy::parallel`] — all available cores.
impl Default for ExecPolicy {
    fn default() -> Self {
        ExecPolicy::parallel()
    }
}

/// The cores a parallel fan-out may use:
/// `std::thread::available_parallelism()`, or 1 if unknown. Read once
/// per process — the lookup parses cgroup files, and every parallel
/// fan-out clamps its helper count with it.
pub fn default_parallelism() -> usize {
    static CORES: OnceLock<usize> = OnceLock::new();
    *CORES.get_or_init(|| std::thread::available_parallelism().map_or(1, NonZeroUsize::get))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_parallel_with_available_cores() {
        match ExecPolicy::default() {
            ExecPolicy::Parallel { workers } => assert!(workers >= 1),
            ExecPolicy::Serial => panic!("default must be parallel"),
        }
        assert_eq!(ExecPolicy::Serial.workers(), 1);
        assert_eq!(ExecPolicy::Parallel { workers: 0 }.workers(), 1);
    }
}
