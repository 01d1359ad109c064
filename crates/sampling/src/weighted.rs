//! SciBORQ-style weighted sampling (Sidirourgos, Kersten, Boncz
//! \[59, 60\]): *impressions* biased towards regions of scientific
//! interest.
//!
//! Instead of sampling uniformly, each row gets a weight from a
//! domain-specific interest function (e.g. proximity to a sky region the
//! astronomer is studying). Rows are included with probability
//! proportional to weight, and every sampled row carries its inclusion
//! probability so aggregates can be corrected with Horvitz–Thompson
//! estimators — biased *storage*, unbiased *answers*.

use explore_storage::rng::SplitMix64;
use explore_storage::{Result, Table};

/// A weighted sample ("impression") of a base table.
#[derive(Debug, Clone)]
pub struct WeightedSample {
    table: Table,
    /// Inclusion probability of each sampled row, aligned with `table`.
    inclusion: Vec<f64>,
    base_rows: usize,
}

impl WeightedSample {
    /// Build an impression of expected size `target` using `weight(row)`
    /// as the interest function. Weights must be non-negative; rows with
    /// zero weight are never included.
    pub fn build(
        base: &Table,
        target: usize,
        seed: u64,
        weight: impl Fn(&Table, usize) -> f64,
    ) -> Result<Self> {
        let n = base.num_rows();
        let weights: Vec<f64> = (0..n).map(|i| weight(base, i).max(0.0)).collect();
        let total: f64 = weights.iter().sum();
        if total <= 0.0 || n == 0 {
            return Ok(WeightedSample {
                table: base.gather(&[]),
                inclusion: Vec::new(),
                base_rows: n,
            });
        }
        // Poisson sampling with pi_i = min(1, target * w_i / W).
        let mut rng = SplitMix64::new(seed);
        let mut sel = Vec::new();
        let mut inclusion = Vec::new();
        for (i, &w) in weights.iter().enumerate() {
            let pi = (target as f64 * w / total).min(1.0);
            if pi > 0.0 && rng.bernoulli(pi) {
                sel.push(i as u32);
                inclusion.push(pi);
            }
        }
        Ok(WeightedSample {
            table: base.gather(&sel),
            inclusion,
            base_rows: n,
        })
    }

    /// The sampled rows.
    pub fn table(&self) -> &Table {
        &self.table
    }

    /// Rows in the base table.
    pub fn base_rows(&self) -> usize {
        self.base_rows
    }

    /// Horvitz–Thompson estimate of the base-table row COUNT satisfying
    /// a per-row predicate evaluated on the sample.
    pub fn ht_count(&self, keep: impl Fn(&Table, usize) -> bool) -> f64 {
        self.inclusion
            .iter()
            .enumerate()
            .filter(|&(i, _)| keep(&self.table, i))
            .map(|(_, &pi)| 1.0 / pi)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use explore_storage::gen::sky_table;

    #[test]
    fn ht_count_is_unbiased_under_continuous_weights() {
        let base = sky_table(20_000, 3, 100.0, 1);
        let truth = base.num_rows() as f64;
        // Average HT estimates over several impressions.
        let mut est = 0.0;
        let trials = 30;
        for t in 0..trials {
            let s = WeightedSample::build(&base, 2000, t, |tab, i| {
                // Interest: bright objects (higher mag) weigh more.
                tab.column("mag").unwrap().numeric_at(i).unwrap()
            })
            .unwrap();
            est += s.ht_count(|_, _| true);
        }
        est /= trials as f64;
        let rel = (est - truth).abs() / truth;
        assert!(rel < 0.02, "relative error {rel}");
    }

    #[test]
    fn ht_count_is_unbiased() {
        let base = sky_table(20_000, 3, 100.0, 2);
        let xs = base.column("x").unwrap().as_f64().unwrap();
        let truth = xs.iter().filter(|&&x| x < 50.0).count() as f64;
        let mut est = 0.0;
        let trials = 30;
        for t in 0..trials {
            let s = WeightedSample::build(&base, 3000, 100 + t, |tab, i| {
                // Interest biased towards the left half of the sky.
                let x = tab.column("x").unwrap().numeric_at(i).unwrap();
                if x < 50.0 {
                    3.0
                } else {
                    1.0
                }
            })
            .unwrap();
            est += s.ht_count(|tab, i| tab.column("x").unwrap().numeric_at(i).unwrap() < 50.0);
        }
        est /= trials as f64;
        let rel = (est - truth).abs() / truth;
        assert!(rel < 0.05, "relative error {rel}");
    }

    #[test]
    fn interest_regions_are_oversampled() {
        let base = sky_table(50_000, 3, 100.0, 3);
        let s = WeightedSample::build(&base, 5000, 4, |tab, i| {
            let x = tab.column("x").unwrap().numeric_at(i).unwrap();
            if x < 20.0 {
                10.0
            } else {
                1.0
            }
        })
        .unwrap();
        let xs = s.table().column("x").unwrap().as_f64().unwrap();
        let region_frac = xs.iter().filter(|&&x| x < 20.0).count() as f64 / xs.len() as f64;
        let base_frac = {
            let b = base.column("x").unwrap().as_f64().unwrap();
            b.iter().filter(|&&x| x < 20.0).count() as f64 / b.len() as f64
        };
        // 10x weight at ~20% inclusion vs ~2%: the interest region should
        // dominate the impression even though it is under half the base.
        assert!(
            region_frac > base_frac + 0.25,
            "sample {region_frac} vs base {base_frac}"
        );
    }

    #[test]
    fn zero_weights_yield_empty_sample() {
        let base = sky_table(100, 1, 10.0, 5);
        let s = WeightedSample::build(&base, 10, 6, |_, _| 0.0).unwrap();
        assert_eq!(s.table().num_rows(), 0);
        assert_eq!(s.ht_count(|_, _| true), 0.0);
        assert_eq!(s.base_rows(), 100);
    }

    #[test]
    fn expected_sample_size_near_target() {
        let base = sky_table(10_000, 2, 100.0, 7);
        let s = WeightedSample::build(&base, 1000, 8, |_, _| 1.0).unwrap();
        let got = s.table().num_rows();
        assert!((800..1200).contains(&got), "size {got}");
    }
}
