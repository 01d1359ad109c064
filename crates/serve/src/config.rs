//! Serving-layer configuration.

use std::time::Duration;

/// Fairness quantum. A session's accumulated service time is divided by
/// this to produce its priority bucket: sessions that have consumed more
/// whole quanta sort behind lighter ones, so a heavy session can never
/// starve light ones of dispatch slots.
pub(crate) const QUANTUM: Duration = Duration::from_millis(1);

/// Cooperative-yield stride: every `YIELD_EVERY`-th `check_cancel`
/// boundary inside a scheduled query calls `thread::yield_now()`, letting
/// same-core neighbors (pan sessions, submitters) make progress under
/// load.
pub(crate) const YIELD_EVERY: u64 = 64;

/// The scheduler's two settings: worker count and admission bound.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Worker threads draining the run queue. The engine's query path
    /// is `&self` (per-table internal locks, no global lock), so workers
    /// execute queries genuinely concurrently — read-heavy sessions
    /// scale with workers up to the core count, on top of the in-query
    /// parallelism of the executor's fan-out. Small values (≤ core count) are
    /// the intended regime — the point of the layer is sessions ≫
    /// workers.
    pub workers: usize,
    /// Admission bound: `submit` returns a typed
    /// [`Overloaded`](explore_storage::StorageError::Overloaded) error
    /// once this many tasks are queued (in-flight tasks don't count).
    pub queue_limit: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            workers: 4,
            queue_limit: 256,
        }
    }
}

impl ServeConfig {
    /// A config with a given worker count, other knobs default.
    pub fn with_workers(workers: usize) -> ServeConfig {
        ServeConfig {
            workers,
            ..ServeConfig::default()
        }
    }

    /// Set the admission bound.
    pub fn with_queue_limit(mut self, limit: usize) -> ServeConfig {
        self.queue_limit = limit;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_sane() {
        let c = ServeConfig::default();
        assert!(c.workers >= 1);
        assert!(c.queue_limit >= 1);
    }

    #[test]
    fn builders_compose() {
        let c = ServeConfig::with_workers(2).with_queue_limit(8);
        assert_eq!(c.workers, 2);
        assert_eq!(c.queue_limit, 8);
    }
}
