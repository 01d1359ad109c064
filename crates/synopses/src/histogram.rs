//! Bucket histograms: the oldest and most widely deployed synopsis
//! (Cormode et al., *Synopses for Massive Data* \[16\]).
//!
//! Two classic flavours:
//! * **Equi-width** — fixed-width buckets; cheap to build and update,
//!   inaccurate under skew (all the mass piles into a few buckets).
//! * **Equi-depth** — buckets hold equal row counts; needs a sort (or a
//!   quantile sketch) to build, but bounds per-bucket error under any
//!   distribution, which is why every real optimizer uses it.
//!
//! Both answer range-count queries with the uniform-spread assumption
//! inside buckets.

/// A histogram over a numeric column.
#[derive(Debug, Clone)]
pub struct Histogram {
    /// Bucket boundaries, length `buckets + 1`, ascending. Bucket `i`
    /// covers `[edges[i], edges[i+1])`; the last bucket is closed.
    edges: Vec<f64>,
    /// Row count per bucket.
    counts: Vec<u64>,
    total: u64,
}

impl Histogram {
    /// Build an equi-width histogram with `buckets` buckets.
    pub fn equi_width(data: &[f64], buckets: usize) -> Self {
        let buckets = buckets.max(1);
        let (lo, hi) = min_max(data);
        let width = ((hi - lo) / buckets as f64).max(f64::MIN_POSITIVE);
        let mut counts = vec![0u64; buckets];
        for &x in data {
            let b = (((x - lo) / width) as usize).min(buckets - 1);
            counts[b] += 1;
        }
        let edges = (0..=buckets).map(|i| lo + i as f64 * width).collect();
        Histogram {
            edges,
            counts,
            total: data.len() as u64,
        }
    }

    /// Build an equi-depth histogram with `buckets` buckets (sorts a copy),
    /// at most one per row.
    pub fn equi_depth(data: &[f64], buckets: usize) -> Self {
        let buckets = buckets.clamp(1, data.len().max(1));
        if data.is_empty() {
            return Histogram {
                edges: vec![0.0; buckets + 1],
                counts: vec![0; buckets],
                total: 0,
            };
        }
        let mut sorted = data.to_vec();
        sorted.sort_by(f64::total_cmp);
        let n = sorted.len();
        let mut edges = Vec::with_capacity(buckets + 1);
        let mut counts = Vec::with_capacity(buckets);
        edges.push(sorted[0]);
        let mut prev_idx = 0usize;
        for b in 1..=buckets {
            let idx = (b * n / buckets).min(n);
            // Bucket edge: the value at the quantile position.
            let edge = if idx >= n { sorted[n - 1] } else { sorted[idx] };
            edges.push(edge);
            counts.push((idx - prev_idx) as u64);
            prev_idx = idx;
        }
        Histogram {
            edges,
            counts,
            total: n as u64,
        }
    }

    /// Total rows summarized.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Per-bucket counts.
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// Estimate `|{x : low <= x < high}|` with uniform spread inside
    /// buckets.
    pub fn estimate_range(&self, low: f64, high: f64) -> f64 {
        if low >= high || self.total == 0 {
            return 0.0;
        }
        let mut est = 0.0;
        for b in 0..self.counts.len() {
            let (b_lo, b_hi) = (self.edges[b], self.edges[b + 1]);
            if b_hi <= low || b_lo >= high {
                continue;
            }
            let width = b_hi - b_lo;
            let overlap = (high.min(b_hi) - low.max(b_lo)).max(0.0);
            let fraction = if width > 0.0 { overlap / width } else { 1.0 };
            est += self.counts[b] as f64 * fraction.min(1.0);
        }
        est
    }

    /// Estimate the `q`-quantile (0 ≤ q ≤ 1) by walking bucket mass.
    pub fn estimate_quantile(&self, q: f64) -> f64 {
        let q = q.clamp(0.0, 1.0);
        let target = q * self.total as f64;
        let mut acc = 0.0;
        for b in 0..self.counts.len() {
            let c = self.counts[b] as f64;
            if acc + c >= target && c > 0.0 {
                let frac = ((target - acc) / c).clamp(0.0, 1.0);
                return self.edges[b] + frac * (self.edges[b + 1] - self.edges[b]);
            }
            acc += c;
        }
        *self.edges.last().unwrap()
    }

    /// Mean absolute relative error of range estimates against the truth,
    /// over a set of probe ranges. Used by experiment E12.
    pub fn range_error(&self, data: &[f64], probes: &[(f64, f64)]) -> f64 {
        if probes.is_empty() {
            return 0.0;
        }
        let mut err = 0.0;
        for &(lo, hi) in probes {
            let truth = data.iter().filter(|&&x| x >= lo && x < hi).count() as f64;
            let est = self.estimate_range(lo, hi);
            err += (est - truth).abs() / truth.max(1.0);
        }
        err / probes.len() as f64
    }
}

fn min_max(data: &[f64]) -> (f64, f64) {
    let mut lo = f64::INFINITY;
    let mut hi = f64::NEG_INFINITY;
    for &x in data {
        if x < lo {
            lo = x;
        }
        if x > hi {
            hi = x;
        }
    }
    if data.is_empty() {
        (0.0, 1.0)
    } else {
        (lo, hi)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use explore_storage::rng::{SplitMix64, Zipf};

    fn uniform(n: usize, seed: u64) -> Vec<f64> {
        let mut rng = SplitMix64::new(seed);
        (0..n).map(|_| rng.range_f64(0.0, 100.0)).collect()
    }

    fn zipfian(n: usize, seed: u64) -> Vec<f64> {
        let mut rng = SplitMix64::new(seed);
        let z = Zipf::new(1000, 1.1);
        (0..n).map(|_| z.sample(&mut rng) as f64).collect()
    }

    #[test]
    fn counts_sum_to_total() {
        let data = uniform(10_000, 1);
        for h in [
            Histogram::equi_width(&data, 32),
            Histogram::equi_depth(&data, 32),
        ] {
            assert_eq!(h.counts().iter().sum::<u64>(), 10_000);
            assert_eq!(h.total(), 10_000);
            assert_eq!(h.counts().len(), 32);
        }
    }

    #[test]
    fn full_range_estimate_equals_total() {
        let data = uniform(5000, 2);
        let h = Histogram::equi_width(&data, 16);
        let est = h.estimate_range(-1e9, 1e9);
        assert!((est - 5000.0).abs() < 1.0, "est {est}");
    }

    #[test]
    fn uniform_data_estimates_are_accurate() {
        let data = uniform(50_000, 3);
        let h = Histogram::equi_width(&data, 64);
        let probes: Vec<(f64, f64)> = (0..20)
            .map(|i| (i as f64 * 4.0, i as f64 * 4.0 + 10.0))
            .collect();
        assert!(h.range_error(&data, &probes) < 0.05);
    }

    #[test]
    fn equi_depth_beats_equi_width_on_skew() {
        let data = zipfian(50_000, 4);
        let probes: Vec<(f64, f64)> = (0..40)
            .map(|i| (i as f64 * 5.0, i as f64 * 5.0 + 20.0))
            .collect();
        let ew = Histogram::equi_width(&data, 32).range_error(&data, &probes);
        let ed = Histogram::equi_depth(&data, 32).range_error(&data, &probes);
        assert!(ed < ew, "equi-depth {ed} should beat equi-width {ew}");
    }

    #[test]
    fn quantile_estimates() {
        let data: Vec<f64> = (0..10_000).map(|i| i as f64).collect();
        let h = Histogram::equi_depth(&data, 100);
        for q in [0.1, 0.5, 0.9] {
            let est = h.estimate_quantile(q);
            let truth = q * 9999.0;
            assert!((est - truth).abs() < 200.0, "q={q} est={est} truth={truth}");
        }
        assert_eq!(h.estimate_quantile(-0.5), h.estimate_quantile(0.0));
    }

    #[test]
    fn empty_and_constant_data() {
        let h = Histogram::equi_width(&[], 8);
        assert_eq!(h.estimate_range(0.0, 10.0), 0.0);
        let h = Histogram::equi_depth(&[], 8);
        assert_eq!(h.total(), 0);
        let h = Histogram::equi_width(&[5.0; 100], 8);
        assert!((h.estimate_range(4.9, 5.1) - 100.0).abs() < 1.0);
        let h = Histogram::equi_depth(&[5.0; 100], 8);
        assert_eq!(h.counts().iter().sum::<u64>(), 100);
    }

    #[test]
    fn equi_depth_has_at_most_one_bucket_per_row() {
        let data = uniform(10, 6);
        let h = Histogram::equi_depth(&data, usize::MAX);
        assert_eq!(h.counts(), &[1; 10]);
        assert_eq!(Histogram::equi_depth(&[], usize::MAX).counts(), &[0]);
    }

    #[test]
    fn empty_range_is_zero() {
        let data = uniform(100, 5);
        let h = Histogram::equi_width(&data, 8);
        assert_eq!(h.estimate_range(50.0, 50.0), 0.0);
        assert_eq!(h.estimate_range(60.0, 40.0), 0.0);
        assert_eq!(h.estimate_range(200.0, 300.0), 0.0);
    }
}
