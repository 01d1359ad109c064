//! Semantic windows (Kalinin, Cetintemel, Zdonik — SIGMOD'14 \[36\]).
//!
//! A semantic-window query asks for all `w × h` cell windows whose
//! aggregate satisfies a content predicate ("show me 3×3 sky regions
//! with more than 1000 bright objects"). Two evaluation strategies:
//!
//! * **Naive** — recompute the aggregate of every window from its cells:
//!   O(W·H·w·h) cell fetches.
//! * **Prefix-sum** — one pass builds 2-D prefix sums, then every window
//!   is O(1): the incremental-sharing idea underlying the paper's online
//!   algorithm.

use crate::grid::GridIndex;

/// A qualifying window: its cell origin and aggregate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WindowHit {
    pub cx: usize,
    pub cy: usize,
    pub count: u64,
    pub sum: f64,
}

/// Find all `w × h` windows with `count >= min_count`, naively.
/// Returns hits and the total cell-fetch cost in points touched.
pub fn find_windows_naive(
    grid: &GridIndex,
    w: usize,
    h: usize,
    min_count: u64,
) -> (Vec<WindowHit>, u64) {
    let mut hits = Vec::new();
    let mut cost = 0u64;
    if w == 0 || h == 0 || w > grid.cols() || h > grid.rows() {
        return (hits, cost);
    }
    for cy in 0..=(grid.rows() - h) {
        for cx in 0..=(grid.cols() - w) {
            let mut count = 0u64;
            let mut sum = 0.0;
            for dy in 0..h {
                for dx in 0..w {
                    let (agg, c) = grid.fetch_cell(cx + dx, cy + dy);
                    cost += c;
                    count += agg.count;
                    sum += agg.sum;
                }
            }
            if count >= min_count {
                hits.push(WindowHit { cx, cy, count, sum });
            }
        }
    }
    (hits, cost)
}

/// Find all `w × h` windows with `count >= min_count` via 2-D prefix
/// sums: every cell is fetched exactly once.
pub fn find_windows_prefix(
    grid: &GridIndex,
    w: usize,
    h: usize,
    min_count: u64,
) -> (Vec<WindowHit>, u64) {
    let mut hits = Vec::new();
    if w == 0 || h == 0 || w > grid.cols() || h > grid.rows() {
        return (hits, 0);
    }
    let cols = grid.cols();
    let rows = grid.rows();
    // Prefix arrays with a zero border: p[y+1][x+1] = sum over [0..=y][0..=x].
    let stride = cols + 1;
    let mut pc = vec![0u64; stride * (rows + 1)];
    let mut ps = vec![0f64; stride * (rows + 1)];
    let mut cost = 0u64;
    for cy in 0..rows {
        for cx in 0..cols {
            let (agg, c) = grid.fetch_cell(cx, cy);
            cost += c;
            let i = (cy + 1) * stride + (cx + 1);
            pc[i] = agg.count + pc[i - 1] + pc[i - stride] - pc[i - stride - 1];
            ps[i] = agg.sum + ps[i - 1] + ps[i - stride] - ps[i - stride - 1];
        }
    }
    let rect_count = |x0: usize, y0: usize, x1: usize, y1: usize| -> u64 {
        pc[y1 * stride + x1] + pc[y0 * stride + x0] - pc[y0 * stride + x1] - pc[y1 * stride + x0]
    };
    let rect_sum = |x0: usize, y0: usize, x1: usize, y1: usize| -> f64 {
        ps[y1 * stride + x1] + ps[y0 * stride + x0] - ps[y0 * stride + x1] - ps[y1 * stride + x0]
    };
    for cy in 0..=(rows - h) {
        for cx in 0..=(cols - w) {
            let count = rect_count(cx, cy, cx + w, cy + h);
            if count >= min_count {
                hits.push(WindowHit {
                    cx,
                    cy,
                    count,
                    sum: rect_sum(cx, cy, cx + w, cy + h),
                });
            }
        }
    }
    (hits, cost)
}

#[cfg(test)]
mod tests {
    use super::*;
    use explore_storage::gen::sky_table;

    fn grid() -> GridIndex {
        let t = sky_table(20_000, 4, 100.0, 1);
        GridIndex::build(&t, "x", "y", "mag", 20, 20).unwrap()
    }

    #[test]
    fn naive_and_prefix_agree() {
        let g = grid();
        for &(w, h, t) in &[(3usize, 3usize, 800u64), (2, 4, 500), (1, 1, 200)] {
            let (mut a, _) = find_windows_naive(&g, w, h, t);
            let (mut b, _) = find_windows_prefix(&g, w, h, t);
            let key = |x: &WindowHit| (x.cx, x.cy);
            a.sort_by_key(key);
            b.sort_by_key(key);
            assert_eq!(a.len(), b.len(), "w={w} h={h} t={t}");
            for (x, y) in a.iter().zip(&b) {
                assert_eq!(key(x), key(y));
                assert_eq!(x.count, y.count);
                assert!((x.sum - y.sum).abs() < 1e-6);
            }
        }
    }

    #[test]
    fn prefix_cost_is_one_pass() {
        let g = grid();
        let (_, naive_cost) = find_windows_naive(&g, 3, 3, 800);
        let (_, prefix_cost) = find_windows_prefix(&g, 3, 3, 800);
        // The prefix pass touches each indexed point once.
        let points: u64 = (0..g.rows())
            .flat_map(|cy| (0..g.cols()).map(move |cx| (cx, cy)))
            .map(|(cx, cy)| g.fetch_cell(cx, cy).0.count)
            .sum();
        assert_eq!(prefix_cost, points);
        assert!(
            naive_cost > prefix_cost * 5,
            "naive {naive_cost} vs prefix {prefix_cost}"
        );
    }

    #[test]
    fn clusters_produce_hits() {
        let g = grid();
        // 20k points over 400 cells: average window of 9 cells holds
        // ~450 points, clusters far more.
        let (hits, _) = find_windows_prefix(&g, 3, 3, 1000);
        assert!(!hits.is_empty());
        assert!(hits.iter().all(|h| h.count >= 1000));
    }

    #[test]
    fn degenerate_window_sizes() {
        let g = grid();
        assert!(find_windows_naive(&g, 0, 3, 1).0.is_empty());
        assert!(find_windows_prefix(&g, 99, 3, 1).0.is_empty());
        // Full-grid window = exactly one hit when threshold permits.
        let (hits, _) = find_windows_prefix(&g, 20, 20, 0);
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].count, 20_000);
    }

    #[test]
    fn threshold_monotonicity() {
        let g = grid();
        let low = find_windows_prefix(&g, 2, 2, 100).0.len();
        let high = find_windows_prefix(&g, 2, 2, 1000).0.len();
        assert!(low >= high);
    }
}
