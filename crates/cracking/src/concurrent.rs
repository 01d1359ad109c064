//! Concurrency control for adaptive indexing
//! (Graefe, Halim, Idreos, Kuno, Manegold — PVLDB'12).
//!
//! Cracking turns reads into writes: a SELECT physically reorders the
//! column, so naive locking serializes all readers. The paper's key
//! observation is that cracking writes are *discretionary* — a query can
//! answer without cracking (scan the relevant pieces) or with it — and
//! that as the index converges, most queries stop needing structural
//! changes at all. This module implements the practical consequence:
//!
//! * a query whose bounds are already indexed answers under a **shared**
//!   lock (pure read, fully concurrent);
//! * only queries that must crack take the **exclusive** lock;
//! * as the column converges, exclusive acquisitions vanish and
//!   throughput scales with readers (experiment E16).
//!
//! The type counts its own lock acquisitions ([`LockStats`]) and nothing
//! else. Fault injection and metrics belong to the engine, which wraps
//! each shard's cracker: `ExploreDb::cracked_range` owns the
//! `crack.reorg` scan fallback, the `Crack` span and the
//! `crack.reorganizations` counter.

use std::sync::atomic::{AtomicU64, Ordering};

use explore_fault::CancelToken;
use parking_lot::RwLock;

use crate::cracker::CrackerColumn;

/// Statistics of lock acquisitions, for observing convergence.
#[derive(Debug, Default, Clone, Copy)]
pub struct LockStats {
    /// Queries answered under the shared lock.
    pub shared: u64,
    /// Queries that required the exclusive lock (cracked something).
    pub exclusive: u64,
}

/// A cracker column safe for concurrent range queries. Statistics are
/// lock-free atomics so counting never serializes readers.
#[derive(Debug)]
pub struct ConcurrentCracker {
    inner: RwLock<CrackerColumn>,
    shared: AtomicU64,
    exclusive: AtomicU64,
}

impl ConcurrentCracker {
    /// Wrap a base column.
    pub fn new(values: Vec<i64>) -> Self {
        ConcurrentCracker {
            inner: RwLock::new(CrackerColumn::new(values)),
            shared: AtomicU64::new(0),
            exclusive: AtomicU64::new(0),
        }
    }

    /// Count values in `[low, high)`. Reads concurrently when the
    /// boundaries already exist; cracks exclusively otherwise.
    pub fn query_count(&self, low: i64, high: i64) -> usize {
        {
            let col = self.inner.read();
            if let Some((s, e)) = col.lookup(low, high) {
                drop(col);
                self.shared.fetch_add(1, Ordering::Relaxed);
                return e - s;
            }
        }
        let mut col = self.inner.write();
        let (s, e) = col.query(low, high);
        drop(col);
        self.exclusive.fetch_add(1, Ordering::Relaxed);
        e - s
    }

    /// Matching base-table row ids for `[low, high)` (cracked order),
    /// honoring the cooperative `cancel` protocol of
    /// [`CrackerColumn::query_bounds`]. Boundaries already indexed are
    /// answered under the shared lock; the shared path performs the same
    /// number of cancel checks as the exclusive one, so cooperative
    /// check budgets observe identical counts either way.
    pub fn query_ids(
        &self,
        low: i64,
        high: i64,
        cancel: Option<&CancelToken>,
    ) -> explore_storage::Result<Vec<u32>> {
        {
            let col = self.inner.read();
            if low >= high || col.values().is_empty() {
                return Ok(Vec::new());
            }
            if let Some((s, e)) = col.lookup(low, high) {
                if let Some(c) = cancel {
                    c.check()?;
                    c.check()?;
                }
                let ids = col.ids()[s..e].to_vec();
                drop(col);
                self.shared.fetch_add(1, Ordering::Relaxed);
                return Ok(ids);
            }
        }
        let mut col = self.inner.write();
        let result = col
            .query_bounds(low, high, cancel)
            .map(|(s, e)| col.ids()[s..e].to_vec());
        drop(col);
        self.exclusive.fetch_add(1, Ordering::Relaxed);
        result
    }

    /// Pieces the underlying column currently has.
    pub fn num_pieces(&self) -> usize {
        self.inner.read().num_pieces()
    }

    /// Lock-acquisition statistics so far.
    pub fn lock_stats(&self) -> LockStats {
        LockStats {
            shared: self.shared.load(Ordering::Relaxed),
            exclusive: self.exclusive.load(Ordering::Relaxed),
        }
    }

    /// Run `f` with read access to the underlying column (tests).
    pub fn with_column<R>(&self, f: impl FnOnce(&CrackerColumn) -> R) -> R {
        f(&self.inner.read())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baseline::{workload, QueryPattern, ScanBaseline};
    use explore_storage::gen::uniform_i64;
    use std::sync::Arc;

    #[test]
    fn sequential_use_matches_scan() {
        let base = uniform_i64(10_000, 0, 2000, 1);
        let scan = ScanBaseline::new(base.clone());
        let c = ConcurrentCracker::new(base);
        for (lo, hi) in workload(QueryPattern::Random, 2000, 100, 100, 2) {
            assert_eq!(c.query_count(lo, hi), scan.query_count(lo, hi));
        }
        c.with_column(|col| assert!(col.check_invariants()));
    }

    #[test]
    fn repeated_query_takes_shared_path() {
        let c = ConcurrentCracker::new(uniform_i64(10_000, 0, 1000, 3));
        c.query_count(100, 200); // cracks (exclusive)
        c.query_count(100, 200); // indexed (shared)
        c.query_count(100, 200);
        let s = c.lock_stats();
        assert_eq!(s.exclusive, 1);
        assert_eq!(s.shared, 2);
    }

    #[test]
    fn out_of_domain_queries_are_shared_reads() {
        let c = ConcurrentCracker::new(uniform_i64(1000, 0, 100, 4));
        // Both bounds fall outside any data; lookup pins them without
        // cracking (zero-width pieces at the extremes need one crack
        // first to establish the outer boundaries).
        c.query_count(0, 100); // establishes full range boundaries
        assert_eq!(c.query_count(-10, 0), 0);
        assert_eq!(c.query_count(100, 110), 0);
    }

    #[test]
    fn concurrent_queries_agree_with_scan() {
        let base = uniform_i64(50_000, 0, 10_000, 5);
        let scan = Arc::new(ScanBaseline::new(base.clone()));
        let c = Arc::new(ConcurrentCracker::new(base));
        let queries = workload(QueryPattern::Random, 10_000, 300, 400, 6);
        let mut handles = Vec::new();
        for t in 0..4 {
            let c = Arc::clone(&c);
            let scan = Arc::clone(&scan);
            let qs: Vec<(i64, i64)> = queries[t * 100..(t + 1) * 100].to_vec();
            handles.push(std::thread::spawn(move || {
                for (lo, hi) in qs {
                    assert_eq!(c.query_count(lo, hi), scan.query_count(lo, hi));
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        c.with_column(|col| assert!(col.check_invariants()));
    }

    #[test]
    fn exclusive_share_declines_over_workload() {
        let c = ConcurrentCracker::new(uniform_i64(100_000, 0, 1000, 7));
        // A workload over a small query universe: later repetitions hit
        // existing boundaries. Quantize bounds to multiples of 50 so the
        // universe has ~20 distinct queries over 500 draws.
        let queries = workload(QueryPattern::Random, 1000, 50, 500, 8);
        for &(lo, _) in &queries {
            let lo = lo / 50 * 50;
            c.query_count(lo, lo + 50);
        }
        let s = c.lock_stats();
        assert!(
            s.shared > s.exclusive,
            "shared {} should exceed exclusive {}",
            s.shared,
            s.exclusive
        );
    }
}
