//! The core cracker column: physically self-organizing storage.
//!
//! Database cracking (Idreos, Kersten, Manegold — CIDR'07) turns each
//! range query into an incremental partitioning step: the first query over
//! a column pays roughly a scan, and every subsequent query refines the
//! physical order further, so the column converges towards a fully indexed
//! state exactly along the value ranges users explore.
//!
//! Representation: a copy of the base column's values plus an aligned
//! vector of original row ids (the "cracker column"), and a *cracker
//! index* mapping boundary values to positions. An index entry `(v, p)`
//! means: every position `< p` holds a value `< v`, and every position
//! `>= p` holds a value `>= v`.

use std::collections::BTreeMap;
use std::ops::Bound::{Excluded, Unbounded};

use explore_fault::CancelToken;
use explore_storage::Result;

/// Counters describing the physical work a cracker has performed.
/// Used by tests (to assert convergence) and by the benchmark harness
/// (to report work per query alongside wall time).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct CrackStats {
    /// Number of crack (partition) operations performed.
    pub cracks: u64,
    /// Total elements visited by partition loops.
    pub touched: u64,
    /// Total element swaps performed.
    pub swaps: u64,
}

/// A self-organizing integer column.
#[derive(Debug, Clone)]
pub struct CrackerColumn {
    values: Vec<i64>,
    /// Original row id of each value, permuted in lockstep with `values`.
    ids: Vec<u32>,
    /// Boundary value → first position holding a value `>= boundary`.
    index: BTreeMap<i64, usize>,
    stats: CrackStats,
}

impl CrackerColumn {
    /// Build a cracker column over a base column. The input order is
    /// preserved until the first query cracks it.
    pub fn new(values: Vec<i64>) -> Self {
        assert!(
            values.len() <= u32::MAX as usize,
            "cracker columns are limited to u32 row ids"
        );
        let ids = (0..values.len() as u32).collect();
        CrackerColumn {
            values,
            ids,
            index: BTreeMap::new(),
            stats: CrackStats::default(),
        }
    }

    /// Number of values.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// The (physically reordered) values.
    pub fn values(&self) -> &[i64] {
        &self.values
    }

    /// The row-id permutation aligned with [`values`](Self::values).
    pub fn ids(&self) -> &[u32] {
        &self.ids
    }

    /// Work counters accumulated so far.
    pub fn stats(&self) -> CrackStats {
        self.stats
    }

    /// Number of pieces the column is currently cracked into.
    pub fn num_pieces(&self) -> usize {
        // k boundaries cut the array into at most k+1 pieces; boundaries
        // at position 0 or len don't create new pieces but counting them
        // uniformly keeps the metric monotone, which is all tests need.
        self.index.len() + 1
    }

    /// Answer the half-open range query `low <= v < high`, cracking as
    /// needed. Returns the contiguous position range `[start, end)` in
    /// the cracker column holding the qualifying values.
    ///
    /// Infallible convenience over [`query_bounds`](Self::query_bounds)
    /// with no cancellation.
    pub fn query(&mut self, low: i64, high: i64) -> (usize, usize) {
        // With no token, no check can fail.
        self.query_bounds(low, high, None).unwrap_or_default()
    }

    /// The single range-query implementation: answer `low <= v < high`,
    /// cracking as needed, under an optional cooperative cancellation
    /// token. The token is checked before each crack (partition) step,
    /// so a cancelled query aborts between reorganization steps, never
    /// inside one. Because every crack op runs to completion before the
    /// next check, the cracker index is well-formed after a `Cancelled`/
    /// `DeadlineExceeded` error — any boundary the aborted query already
    /// registered is valid and benefits later queries. With `None` the
    /// checks cost one `Option` branch each.
    pub fn query_bounds(
        &mut self,
        low: i64,
        high: i64,
        cancel: Option<&CancelToken>,
    ) -> Result<(usize, usize)> {
        if low >= high || self.values.is_empty() {
            return Ok((0, 0));
        }
        if let Some(c) = cancel {
            c.check()?;
        }
        // If both bounds are new and land in the same piece, a single
        // three-way pass is cheaper than two two-way passes.
        if !self.index.contains_key(&low) && !self.index.contains_key(&high) {
            let (s1, e1) = self.piece_for(low);
            let (s2, e2) = self.piece_for(high);
            if (s1, e1) == (s2, e2) {
                let (p_lo, p_hi) = self.crack_in_three(s1, e1, low, high);
                self.index.insert(low, p_lo);
                self.index.insert(high, p_hi);
                return Ok((p_lo, p_hi));
            }
        }
        let p_lo = self.bound_position(low);
        // Mid-reorg cancellation point: the low boundary's crack has
        // fully completed (and stays useful); the high bound's crack
        // simply never starts.
        if let Some(c) = cancel {
            c.check()?;
        }
        let p_hi = self.bound_position(high);
        debug_assert!(p_lo <= p_hi);
        Ok((p_lo, p_hi))
    }

    /// Like [`query`](Self::query) but returns the base-table row ids of
    /// qualifying values (order unspecified).
    pub fn query_ids(&mut self, low: i64, high: i64) -> &[u32] {
        let (start, end) = self.query(low, high);
        &self.ids[start..end]
    }

    /// Count qualifying values without materializing ids.
    pub fn query_count(&mut self, low: i64, high: i64) -> usize {
        let (start, end) = self.query(low, high);
        end - start
    }

    /// The first position whose value is `>= bound`, cracking the piece
    /// containing `bound` if the boundary is not yet known.
    pub fn bound_position(&mut self, bound: i64) -> usize {
        if let Some(&p) = self.index.get(&bound) {
            return p;
        }
        let (start, end) = self.piece_for(bound);
        let p = self.crack_in_two(start, end, bound);
        self.index.insert(bound, p);
        p
    }

    /// Crack positions `[start, end)` around `pivot`: values `< pivot`
    /// move before the returned split, values `>= pivot` after.
    fn crack_in_two(&mut self, start: usize, end: usize, pivot: i64) -> usize {
        let mut lo = start;
        let mut hi = end;
        while lo < hi {
            if self.values[lo] < pivot {
                lo += 1;
            } else {
                hi -= 1;
                self.values.swap(lo, hi);
                self.ids.swap(lo, hi);
                self.stats.swaps += 1;
            }
        }
        self.stats.cracks += 1;
        self.stats.touched += (end - start) as u64;
        lo
    }

    /// Dutch-flag partition of `[start, end)` into `< a`, `[a, b)`, `>= b`.
    /// Returns the two split positions.
    fn crack_in_three(&mut self, start: usize, end: usize, a: i64, b: i64) -> (usize, usize) {
        debug_assert!(a < b);
        let mut lo = start;
        let mut mid = start;
        let mut hi = end;
        while mid < hi {
            let v = self.values[mid];
            if v < a {
                self.values.swap(mid, lo);
                self.ids.swap(mid, lo);
                self.stats.swaps += 1;
                lo += 1;
                mid += 1;
            } else if v >= b {
                hi -= 1;
                self.values.swap(mid, hi);
                self.ids.swap(mid, hi);
                self.stats.swaps += 1;
            } else {
                mid += 1;
            }
        }
        self.stats.cracks += 1;
        self.stats.touched += (end - start) as u64;
        (lo, mid)
    }

    /// Read-only probe: the position range for `[low, high)` if both
    /// boundaries are already known, without cracking. The concurrent
    /// cracker uses this to answer under a shared lock when possible.
    pub fn lookup(&self, low: i64, high: i64) -> Option<(usize, usize)> {
        if low >= high {
            return Some((0, 0));
        }
        let p_lo = self.lookup_bound(low)?;
        let p_hi = self.lookup_bound(high)?;
        Some((p_lo, p_hi))
    }

    /// Read-only probe for a single bound, succeeding when the boundary is
    /// registered or falls outside the stored value range.
    fn lookup_bound(&self, bound: i64) -> Option<usize> {
        if let Some(&p) = self.index.get(&bound) {
            return Some(p);
        }
        let (start, end) = self.piece_for(bound);
        // A zero-width piece pins the position without any data to crack.
        (start == end).then_some(start)
    }

    /// The value interval `[low, high)` covered by the piece containing
    /// `value`, as far as the index knows: `None` means unbounded on that
    /// side (no boundary yet). Stochastic cracking's DDC variant cracks at
    /// the center of this interval.
    pub fn piece_value_bounds(&self, value: i64) -> (Option<i64>, Option<i64>) {
        let low = self.index.range(..=value).next_back().map(|(&v, _)| v);
        let high = self
            .index
            .range((Excluded(value), Unbounded))
            .next()
            .map(|(&v, _)| v);
        (low, high)
    }

    /// The piece `[start, end)` that would contain `value`, according to
    /// the current cracker index.
    pub fn piece_for(&self, value: i64) -> (usize, usize) {
        let start = self
            .index
            .range(..=value)
            .next_back()
            .map_or(0, |(_, &p)| p);
        let end = self
            .index
            .range((Excluded(value), Unbounded))
            .next()
            .map_or(self.values.len(), |(_, &p)| p);
        (start, end)
    }

    /// Sizes of all current pieces (for tests and the ablation bench).
    pub fn piece_sizes(&self) -> Vec<usize> {
        let mut cuts: Vec<usize> = self.index.values().copied().collect();
        cuts.sort_unstable();
        cuts.dedup();
        let mut out = Vec::with_capacity(cuts.len() + 1);
        let mut prev = 0;
        for c in cuts {
            out.push(c - prev);
            prev = c;
        }
        out.push(self.values.len() - prev);
        out
    }

    /// Size of the largest unindexed piece — the convergence metric used
    /// by the stochastic-cracking experiments.
    pub fn max_piece(&self) -> usize {
        self.piece_sizes().into_iter().max().unwrap_or(0)
    }

    /// Crack an explicit piece around a pivot, recording the boundary.
    /// Exposed for the stochastic cracking strategies, which introduce
    /// extra data-driven pivots beyond the query bounds.
    pub fn crack_at(&mut self, pivot: i64) {
        if self.index.contains_key(&pivot) {
            return;
        }
        let (start, end) = self.piece_for(pivot);
        let p = self.crack_in_two(start, end, pivot);
        self.index.insert(pivot, p);
    }

    /// Boundaries with value strictly above `value`, ascending.
    /// Used by the ripple-insert machinery in [`crate::updates`].
    pub(crate) fn boundaries_above(&self, value: i64) -> Vec<(i64, usize)> {
        self.index
            .range((Excluded(value), Unbounded))
            .map(|(&v, &p)| (v, p))
            .collect()
    }

    /// Append a (value, id) pair at the end without touching the index.
    /// Callers must restore the invariant (ripple insert does).
    pub(crate) fn push_raw(&mut self, value: i64, id: u32) {
        self.values.push(value);
        self.ids.push(id);
    }

    /// Swap two physical slots.
    pub(crate) fn swap_raw(&mut self, a: usize, b: usize) {
        self.values.swap(a, b);
        self.ids.swap(a, b);
    }

    /// Overwrite one physical slot.
    pub(crate) fn place_raw(&mut self, pos: usize, value: i64, id: u32) {
        self.values[pos] = value;
        self.ids[pos] = id;
    }

    /// Move an existing boundary to a new position (ripple bookkeeping).
    pub(crate) fn shift_boundary(&mut self, boundary_value: i64, new_pos: usize) {
        if let Some(p) = self.index.get_mut(&boundary_value) {
            *p = new_pos;
        }
    }

    /// Verify the cracker invariant: for every index entry `(v, p)`,
    /// all values before `p` are `< v` and all from `p` on are `>= v`.
    /// O(k·n); test-only.
    pub fn check_invariants(&self) -> bool {
        for (&v, &p) in &self.index {
            if self.values[..p].iter().any(|&x| x >= v) {
                return false;
            }
            if self.values[p..].iter().any(|&x| x < v) {
                return false;
            }
        }
        // ids must remain a permutation tracking values: verified by
        // checking a few random positions against nothing here (requires
        // the base column); full check lives in tests.
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use explore_storage::gen::uniform_i64;
    use explore_storage::rng::SplitMix64;

    fn brute(base: &[i64], low: i64, high: i64) -> Vec<u32> {
        base.iter()
            .enumerate()
            .filter(|(_, &v)| v >= low && v < high)
            .map(|(i, _)| i as u32)
            .collect()
    }

    #[test]
    fn first_query_matches_scan_semantics() {
        let base = uniform_i64(10_000, 0, 1000, 1);
        let mut c = CrackerColumn::new(base.clone());
        let mut got: Vec<u32> = c.query_ids(100, 200).to_vec();
        got.sort_unstable();
        assert_eq!(got, brute(&base, 100, 200));
        assert!(c.check_invariants());
    }

    #[test]
    fn many_random_queries_stay_correct() {
        let base = uniform_i64(5000, 0, 500, 2);
        let mut c = CrackerColumn::new(base.clone());
        let mut rng = SplitMix64::new(3);
        for _ in 0..200 {
            let a = rng.range_i64(0, 500);
            let b = rng.range_i64(0, 500);
            let (low, high) = (a.min(b), a.max(b) + 1);
            let mut got: Vec<u32> = c.query_ids(low, high).to_vec();
            got.sort_unstable();
            assert_eq!(got, brute(&base, low, high));
        }
        assert!(c.check_invariants());
    }

    #[test]
    fn ids_stay_aligned_with_values() {
        let base = uniform_i64(2000, 0, 100, 4);
        let mut c = CrackerColumn::new(base.clone());
        c.query(10, 30);
        c.query(50, 90);
        c.query(5, 95);
        for (pos, &id) in c.ids().iter().enumerate() {
            assert_eq!(c.values()[pos], base[id as usize]);
        }
    }

    #[test]
    fn empty_and_degenerate_ranges() {
        let mut c = CrackerColumn::new(vec![]);
        assert_eq!(c.query(0, 10), (0, 0));
        let mut c = CrackerColumn::new(vec![5, 5, 5]);
        assert_eq!(c.query_count(5, 6), 3);
        assert_eq!(c.query_count(6, 5), 0); // low >= high
        assert_eq!(c.query_count(0, 5), 0);
        assert_eq!(c.query_count(6, 100), 0);
    }

    #[test]
    fn bounds_outside_domain() {
        let base = uniform_i64(1000, 0, 100, 5);
        let mut c = CrackerColumn::new(base.clone());
        assert_eq!(c.query_count(i64::MIN, i64::MAX), 1000);
        assert_eq!(c.query_count(-50, 0), 0);
        assert_eq!(c.query_count(100, 200), 0);
    }

    #[test]
    fn repeated_query_does_no_new_work() {
        let base = uniform_i64(10_000, 0, 1000, 6);
        let mut c = CrackerColumn::new(base);
        c.query(100, 200);
        let after_first = c.stats();
        c.query(100, 200);
        assert_eq!(c.stats().cracks, after_first.cracks);
        assert_eq!(c.stats().touched, after_first.touched);
    }

    #[test]
    fn work_per_query_decreases() {
        let base = uniform_i64(100_000, 0, 100_000, 7);
        let mut c = CrackerColumn::new(base);
        let mut rng = SplitMix64::new(8);
        let mut touched = Vec::new();
        let mut prev = 0;
        for _ in 0..100 {
            let a = rng.range_i64(0, 99_000);
            c.query(a, a + 1000);
            let s = c.stats();
            touched.push(s.touched - prev);
            prev = s.touched;
        }
        let early: u64 = touched[..10].iter().sum();
        let late: u64 = touched[90..].iter().sum();
        assert!(
            late * 5 < early,
            "late work {late} not ≪ early work {early}"
        );
    }

    #[test]
    fn crack_in_three_used_for_fresh_piece() {
        let base = uniform_i64(10_000, 0, 1000, 9);
        let mut c = CrackerColumn::new(base);
        c.query(400, 600);
        // One three-way crack, not two two-way cracks.
        assert_eq!(c.stats().cracks, 1);
        assert_eq!(c.num_pieces(), 3);
    }

    #[test]
    fn crack_at_registers_boundary() {
        let base = uniform_i64(1000, 0, 100, 10);
        let mut c = CrackerColumn::new(base);
        c.crack_at(50);
        assert!(c.check_invariants());
        let pieces = c.piece_sizes();
        assert_eq!(pieces.iter().sum::<usize>(), 1000);
        c.crack_at(50); // idempotent
        assert_eq!(c.stats().cracks, 1);
    }

    #[test]
    fn max_piece_shrinks_with_queries() {
        let base = uniform_i64(50_000, 0, 50_000, 11);
        let mut c = CrackerColumn::new(base);
        let before = c.max_piece();
        let mut rng = SplitMix64::new(12);
        for _ in 0..50 {
            let a = rng.range_i64(0, 49_000);
            c.query(a, a + 500);
        }
        assert!(c.max_piece() < before / 4);
    }
}
