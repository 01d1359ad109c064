//! Hybrid adaptive indexing (Idreos, Manegold, Kuno, Graefe — PVLDB'11):
//! "merging what's cracked, cracking what's merged".
//!
//! Pure cracking converges slowly (every query only adds two boundaries);
//! a full sort converges instantly but makes the first query enormously
//! expensive. Hybrid Crack Sort (HCS) splits the column into *initial
//! partitions* that are **cracked** on query bounds, and per query moves
//! the qualifying values out of each initial partition into a *final
//! partition* kept sorted. The first query costs about a scan (like
//! cracking), queried ranges become fully sorted immediately (like a
//! sort), and — because the initial partitions are cracked — later
//! queries only touch the partition pieces their ranges map to, not the
//! whole leftovers.

use crate::cracker::CrackerColumn;

/// Work counters for the hybrid index, comparable to
/// [`CrackStats`](crate::cracker::CrackStats).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct HybridStats {
    /// Elements inspected (partition cracking + draining).
    pub touched: u64,
    /// Elements moved into the final partition.
    pub merged: u64,
    /// Comparisons spent sorting fetched values (n log n accounted as n·log₂n).
    pub sort_work: u64,
}

/// Hybrid Crack Sort adaptive index over an integer column.
#[derive(Debug, Clone)]
pub struct HybridCrackSort {
    /// Cracked initial partitions, each with the global row id of its
    /// first value (a global id is that offset plus the column's local
    /// id). Migrated values are left in place — the coverage bookkeeping
    /// guarantees they are never fetched again, so deferring the physical
    /// removal (as production HCS implementations do) avoids O(tail)
    /// shifting per query; `migrated` counts them.
    initial: Vec<(u32, CrackerColumn)>,
    /// Values copied into the final partition so far.
    migrated: usize,
    /// The adaptively grown final partition, stored as sorted runs that
    /// are compacted once their count exceeds a threshold ("merging
    /// what's cracked" is lazy, exactly like the paper's merge phase).
    runs: Vec<Vec<(i64, u32)>>,
    /// Value ranges already migrated into the final runs (disjoint,
    /// sorted).
    covered: Vec<(i64, i64)>,
    /// `merged` and `sort_work`; `touched` is read from the partitions.
    stats: HybridStats,
}

/// Compact the final partition when it fragments into this many runs.
const MAX_RUNS: usize = 16;

impl HybridCrackSort {
    /// Build over a base column, splitting it into `partitions` initial
    /// chunks (the paper sizes chunks to fit L2; any fixed count
    /// preserves the algorithm's shape).
    pub fn new(values: &[i64], partitions: usize) -> Self {
        let partitions = partitions.max(1);
        let chunk = values.len().div_ceil(partitions).max(1);
        let initial = values
            .chunks(chunk)
            .enumerate()
            .map(|(ci, vs)| ((ci * chunk) as u32, CrackerColumn::new(vs.to_vec())))
            .collect();
        HybridCrackSort {
            initial,
            migrated: 0,
            runs: Vec::new(),
            covered: Vec::new(),
            stats: HybridStats::default(),
        }
    }

    /// Work counters; `touched` is the partitions' cracking work.
    pub fn stats(&self) -> HybridStats {
        HybridStats {
            touched: self.initial.iter().map(|(_, p)| p.stats().touched).sum(),
            ..self.stats
        }
    }

    /// Number of values not yet migrated to the final partition.
    pub fn pending(&self) -> usize {
        self.initial.iter().map(|(_, p)| p.len()).sum::<usize>() - self.migrated
    }

    /// Number of values migrated into the sorted final partition.
    pub fn finalized(&self) -> usize {
        self.runs.iter().map(Vec::len).sum()
    }

    /// Answer `low <= v < high`, returning qualifying row ids.
    pub fn query_ids(&mut self, low: i64, high: i64) -> Vec<u32> {
        if low >= high {
            return Vec::new();
        }
        self.ensure_covered(low, high);
        let mut out = Vec::new();
        for run in &self.runs {
            let start = run.partition_point(|&(v, _)| v < low);
            let end = run.partition_point(|&(v, _)| v < high);
            out.extend(run[start..end].iter().map(|&(_, id)| id));
        }
        out
    }

    /// Count qualifying values.
    pub fn query_count(&mut self, low: i64, high: i64) -> usize {
        if low >= high {
            return 0;
        }
        self.ensure_covered(low, high);
        self.runs
            .iter()
            .map(|run| {
                run.partition_point(|&(v, _)| v < high) - run.partition_point(|&(v, _)| v < low)
            })
            .sum()
    }

    /// Make sure every value in `[low, high)` has been migrated into the
    /// final partition, draining initial partitions only for the
    /// uncovered sub-ranges (and only in the pieces cracking maps them
    /// to).
    fn ensure_covered(&mut self, low: i64, high: i64) {
        let gaps = self.uncovered_gaps(low, high);
        if gaps.is_empty() {
            return;
        }
        let mut fetched: Vec<(i64, u32)> = Vec::new();
        for &(a, b) in &gaps {
            for (offset, part) in self.initial.iter_mut().filter(|(_, p)| !p.is_empty()) {
                // Two two-way cracks, never `query`'s crack-in-three: the
                // drain's swap order and work count stay those of the paper.
                let s = part.bound_position(a);
                let e = part.bound_position(b);
                let ids = part.ids()[s..e].iter().map(|&id| *offset + id);
                fetched.extend(part.values()[s..e].iter().copied().zip(ids));
            }
        }
        self.migrated += fetched.len();
        if !fetched.is_empty() {
            fetched.sort_unstable();
            let n = fetched.len() as u64;
            self.stats.sort_work += n * (64 - n.leading_zeros() as u64).max(1);
            self.stats.merged += n;
            self.runs.push(fetched);
            if self.runs.len() > MAX_RUNS {
                self.compact();
            }
        }
        self.mark_covered(low, high);
    }

    /// Merge every run into one (k-way via sort of the concatenation;
    /// amortized cost is bounded because compaction halves run count
    /// geometrically under the MAX_RUNS policy).
    fn compact(&mut self) {
        let total: usize = self.runs.iter().map(Vec::len).sum();
        let mut all = Vec::with_capacity(total);
        for run in self.runs.drain(..) {
            all.extend(run);
        }
        all.sort_unstable();
        let n = all.len() as u64;
        self.stats.sort_work += n * (64 - n.leading_zeros() as u64).max(1);
        self.runs.push(all);
    }

    /// Sub-ranges of `[low, high)` not yet covered.
    fn uncovered_gaps(&self, low: i64, high: i64) -> Vec<(i64, i64)> {
        let mut gaps = Vec::new();
        let mut cursor = low;
        for &(a, b) in &self.covered {
            if b <= cursor {
                continue;
            }
            if a >= high {
                break;
            }
            if a > cursor {
                gaps.push((cursor, a.min(high)));
            }
            cursor = cursor.max(b);
            if cursor >= high {
                break;
            }
        }
        if cursor < high {
            gaps.push((cursor, high));
        }
        gaps
    }

    /// Record `[low, high)` as covered, coalescing adjacent intervals.
    fn mark_covered(&mut self, low: i64, high: i64) {
        self.covered.push((low, high));
        self.covered.sort_unstable();
        let mut merged: Vec<(i64, i64)> = Vec::with_capacity(self.covered.len());
        for &(a, b) in &self.covered {
            match merged.last_mut() {
                Some(last) if a <= last.1 => last.1 = last.1.max(b),
                _ => merged.push((a, b)),
            }
        }
        self.covered = merged;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baseline::{workload, QueryPattern, ScanBaseline};
    use explore_storage::gen::uniform_i64;

    #[test]
    fn results_match_scan_over_random_workload() {
        let base = uniform_i64(20_000, 0, 5000, 1);
        let scan = ScanBaseline::new(base.clone());
        let mut h = HybridCrackSort::new(&base, 16);
        for (lo, hi) in workload(QueryPattern::Random, 5000, 150, 150, 2) {
            let mut got = h.query_ids(lo, hi);
            got.sort_unstable();
            assert_eq!(got, scan.query_ids(lo, hi), "range {lo}..{hi}");
        }
        for (_, p) in &h.initial {
            assert!(p.check_invariants());
        }
    }

    #[test]
    fn repeated_range_is_free_after_first() {
        let base = uniform_i64(50_000, 0, 10_000, 3);
        let mut h = HybridCrackSort::new(&base, 16);
        h.query_ids(1000, 2000);
        let after_first = h.stats();
        h.query_ids(1000, 2000);
        h.query_ids(1200, 1800); // sub-range also covered
        assert_eq!(h.stats().touched, after_first.touched);
        assert_eq!(h.stats().merged, after_first.merged);
    }

    #[test]
    fn overlapping_ranges_fetch_only_gaps() {
        let base = uniform_i64(50_000, 0, 10_000, 4);
        let scan = ScanBaseline::new(base.clone());
        let mut h = HybridCrackSort::new(&base, 8);
        h.query_ids(1000, 2000);
        let merged_first = h.stats().merged;
        let got = h.query_ids(1500, 2500); // only [2000,2500) is new
        assert_eq!(got.len(), scan.query_count(1500, 2500));
        let newly = h.stats().merged - merged_first;
        assert_eq!(newly as usize, scan.query_count(2000, 2500));
    }

    #[test]
    fn cracked_partitions_bound_later_query_work() {
        // The point of "crack the initial partitions": after the first
        // query cracks them, a query in a *different* value region only
        // touches the pieces that region maps to — not all leftovers.
        let n = 1_000_000;
        let base = uniform_i64(n, 0, 1_000_000, 5);
        let mut h = HybridCrackSort::new(&base, 4);
        h.query_count(0, 1000);
        let after_first = h.stats().touched;
        assert!(after_first >= n as u64, "first query cracks everything");
        // 50 more narrow queries: each should touch far less than n.
        for i in 1..=50 {
            let lo = (i * 17_000) as i64 % 900_000;
            h.query_count(lo, lo + 1000);
        }
        // Re-querying covered ranges afterwards is free — the payoff of
        // cracked initial partitions + interval bookkeeping.
        let before_repeat = h.stats().touched;
        for i in 1..=50 {
            let lo = (i * 17_000) as i64 % 900_000;
            h.query_count(lo, lo + 1000);
        }
        assert_eq!(h.stats().touched, before_repeat, "revisits are free");
    }

    #[test]
    fn drains_toward_full_index() {
        let base = uniform_i64(10_000, 0, 1000, 5);
        let mut h = HybridCrackSort::new(&base, 4);
        assert_eq!(h.pending(), 10_000);
        h.query_ids(0, 1001);
        assert_eq!(h.pending(), 0);
        assert_eq!(h.finalized(), 10_000);
        // Every final run is sorted.
        assert!(h
            .runs
            .iter()
            .all(|run| run.windows(2).all(|w| w[0] <= w[1])));
    }

    #[test]
    fn covered_interval_bookkeeping() {
        let base = uniform_i64(1000, 0, 100, 6);
        let mut h = HybridCrackSort::new(&base, 2);
        h.query_ids(10, 20);
        h.query_ids(30, 40);
        assert_eq!(h.uncovered_gaps(0, 50), vec![(0, 10), (20, 30), (40, 50)]);
        h.query_ids(15, 35); // bridges the two
        assert_eq!(h.covered, vec![(10, 40)]);
        assert!(h.uncovered_gaps(12, 38).is_empty());
    }

    #[test]
    fn degenerate_inputs() {
        let mut h = HybridCrackSort::new(&[], 4);
        assert!(h.query_ids(0, 10).is_empty());
        let mut h = HybridCrackSort::new(&[5], 100);
        assert_eq!(h.query_ids(5, 6), vec![0]);
        assert_eq!(h.query_count(7, 3), 0);
    }

    /// Per pattern: FNV-1a over every `query_ids` result in query order,
    /// then the final `touched`, `merged`, `sort_work`, `pending()` and
    /// `finalized()`. Any change to the drain's id mapping or work
    /// accounting moves one of these. The figures do not depend on the
    /// partition count: the runs hold the same sorted pairs, and the
    /// pieces a bound cracks across all partitions sum to the piece it
    /// would crack in one.
    #[test]
    fn drain_results_and_counters_are_pinned() {
        let want = [
            (
                0x47ca_97e7_ab17_529f,
                182_611,
                16_544,
                563_009,
                3_456,
                16_544,
            ),
            (0x4c48_f7e4_94f2_a1f4, 119_731, 3_505, 72_041, 16_495, 3_505),
            (0xed0d_243b_511a_8d38, 40_000, 20_000, 300_000, 0, 20_000),
        ];
        let patterns = [
            QueryPattern::Random,
            QueryPattern::Skewed,
            QueryPattern::ZoomIn,
        ];
        let base = uniform_i64(20_000, 0, 5000, 21);
        for partitions in [1, 3, 8] {
            for (pattern, &want) in patterns.into_iter().zip(&want) {
                let mut h = HybridCrackSort::new(&base, partitions);
                let mut digest = 0xcbf2_9ce4_8422_2325u64;
                for (lo, hi) in workload(pattern, 5000, 100, 80, 22) {
                    for id in h.query_ids(lo, hi) {
                        digest = (digest ^ u64::from(id)).wrapping_mul(0x0100_0000_01b3);
                    }
                }
                let s = h.stats();
                let got = (
                    digest,
                    s.touched,
                    s.merged,
                    s.sort_work,
                    h.pending(),
                    h.finalized(),
                );
                assert_eq!(got, want, "{partitions} partitions, {pattern:?}");
            }
        }
    }

    #[test]
    fn partition_drain_preserves_invariants() {
        let base = uniform_i64(5000, 0, 500, 7);
        let mut h = HybridCrackSort::new(&base, 3);
        let scan = ScanBaseline::new(base);
        for (lo, hi) in workload(QueryPattern::ZoomIn, 500, 20, 60, 8) {
            assert_eq!(h.query_count(lo, hi), scan.query_count(lo, hi));
            for (_, p) in &h.initial {
                assert!(p.check_invariants(), "after range {lo}..{hi}");
            }
        }
    }
}
