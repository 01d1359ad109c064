//! Confidence-interval math for sampling-based estimators.
//!
//! All estimators in this crate are means/sums/counts of i.i.d. samples,
//! so the central limit theorem gives `estimate ± z·σ/√n` intervals. A
//! finite-population correction tightens them as the sample approaches
//! the full table — which is exactly the regime online aggregation ends
//! in, so the interval collapses to a point at 100% processed, matching
//! the CONTROL project's UX \[24, 25\].

/// A symmetric confidence interval around an estimate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ConfidenceInterval {
    /// Point estimate.
    pub estimate: f64,
    /// Half-width: the true value lies in `estimate ± half_width` with
    /// the stated confidence.
    pub half_width: f64,
    /// Confidence level, e.g. 0.95.
    pub confidence: f64,
}

impl ConfidenceInterval {
    /// Interval bounds `(low, high)`.
    pub fn bounds(&self) -> (f64, f64) {
        (
            self.estimate - self.half_width,
            self.estimate + self.half_width,
        )
    }

    /// Relative half-width (`half_width / |estimate|`), or infinity when
    /// the estimate is 0.
    pub fn relative_error(&self) -> f64 {
        if self.estimate == 0.0 {
            if self.half_width == 0.0 {
                0.0
            } else {
                f64::INFINITY
            }
        } else {
            self.half_width / self.estimate.abs()
        }
    }

    /// True when `value` lies within the interval.
    pub fn contains(&self, value: f64) -> bool {
        let (lo, hi) = self.bounds();
        value >= lo && value <= hi
    }
}

/// Standard normal quantile `z` such that `P(Z <= z) = p`, via Acklam's
/// rational approximation (|relative error| < 1.15e-9 — far below the
/// noise floor of any sampling estimate).
pub fn normal_quantile(p: f64) -> f64 {
    assert!(p > 0.0 && p < 1.0, "quantile defined on (0,1), got {p}");
    #[allow(clippy::excessive_precision)]
    const A: [f64; 6] = [
        -3.969683028665376e+01,
        2.209460984245205e+02,
        -2.759285104469687e+02,
        1.383577518672690e+02,
        -3.066479806614716e+01,
        2.506628277459239e+00,
    ];
    #[allow(clippy::excessive_precision)]
    const B: [f64; 5] = [
        -5.447609879822406e+01,
        1.615858368580409e+02,
        -1.556989798598866e+02,
        6.680131188771972e+01,
        -1.328068155288572e+01,
    ];
    #[allow(clippy::excessive_precision)]
    const C: [f64; 6] = [
        -7.784894002430293e-03,
        -3.223964580411365e-01,
        -2.400758277161838e+00,
        -2.549732539343734e+00,
        4.374664141464968e+00,
        2.938163982698783e+00,
    ];
    #[allow(clippy::excessive_precision)]
    const D: [f64; 4] = [
        7.784695709041462e-03,
        3.224671290700398e-01,
        2.445134137142996e+00,
        3.754408661907416e+00,
    ];
    const P_LOW: f64 = 0.02425;
    if p < P_LOW {
        let q = (-2.0 * p.ln()).sqrt();
        (((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    } else if p <= 1.0 - P_LOW {
        let q = p - 0.5;
        let r = q * q;
        (((((A[0] * r + A[1]) * r + A[2]) * r + A[3]) * r + A[4]) * r + A[5]) * q
            / (((((B[0] * r + B[1]) * r + B[2]) * r + B[3]) * r + B[4]) * r + 1.0)
    } else {
        -normal_quantile(1.0 - p)
    }
}

/// z-score for a two-sided confidence level (0.95 → ≈1.96).
pub fn z_for_confidence(confidence: f64) -> f64 {
    let confidence = confidence.clamp(0.5, 0.9999);
    normal_quantile(0.5 + confidence / 2.0)
}

/// CI for a population **mean** from a sample of `n` values with sample
/// variance `s2`, drawn without replacement from a population of `total`
/// (finite-population corrected).
pub fn mean_interval(
    sample_mean: f64,
    s2: f64,
    n: u64,
    total: u64,
    confidence: f64,
) -> ConfidenceInterval {
    let half = if n < 2 {
        f64::INFINITY
    } else {
        let fpc = fpc(n, total);
        z_for_confidence(confidence) * (s2 / n as f64).sqrt() * fpc
    };
    ConfidenceInterval {
        estimate: sample_mean,
        half_width: half,
        confidence,
    }
}

/// CI for a population **sum**: mean interval scaled by the population
/// size.
pub fn sum_interval(
    sample_mean: f64,
    s2: f64,
    n: u64,
    total: u64,
    confidence: f64,
) -> ConfidenceInterval {
    let m = mean_interval(sample_mean, s2, n, total, confidence);
    ConfidenceInterval {
        estimate: m.estimate * total as f64,
        half_width: m.half_width * total as f64,
        confidence,
    }
}

/// CI for a population **count** of rows satisfying a predicate, from a
/// sample where `hits` of `n` rows qualified.
pub fn count_interval(hits: u64, n: u64, total: u64, confidence: f64) -> ConfidenceInterval {
    if n == 0 {
        return ConfidenceInterval {
            estimate: 0.0,
            half_width: f64::INFINITY,
            confidence,
        };
    }
    let p = hits as f64 / n as f64;
    // Bernoulli variance with the same FPC treatment as means.
    let s2 = p * (1.0 - p) * n as f64 / (n as f64 - 1.0).max(1.0);
    let m = mean_interval(p, s2, n, total, confidence);
    ConfidenceInterval {
        estimate: p * total as f64,
        half_width: m.half_width * total as f64,
        confidence,
    }
}

/// Finite-population correction factor √((N-n)/(N-1)).
fn fpc(n: u64, total: u64) -> f64 {
    if total <= 1 || n >= total {
        0.0
    } else {
        (((total - n) as f64) / ((total - 1) as f64)).sqrt()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use explore_storage::rng::SplitMix64;

    #[test]
    fn normal_quantile_known_values() {
        assert!((normal_quantile(0.5)).abs() < 1e-9);
        assert!((normal_quantile(0.975) - 1.959964).abs() < 1e-4);
        assert!((normal_quantile(0.025) + 1.959964).abs() < 1e-4);
        assert!((normal_quantile(0.8413) - 1.0).abs() < 1e-3);
        assert!((normal_quantile(0.999) - 3.0902).abs() < 1e-3);
        assert!((normal_quantile(0.001) + 3.0902).abs() < 1e-3);
    }

    #[test]
    #[should_panic(expected = "quantile")]
    fn quantile_rejects_out_of_range() {
        normal_quantile(1.0);
    }

    #[test]
    fn z_for_common_confidences() {
        assert!((z_for_confidence(0.95) - 1.96).abs() < 0.01);
        assert!((z_for_confidence(0.99) - 2.576).abs() < 0.01);
        assert!((z_for_confidence(0.90) - 1.645).abs() < 0.01);
    }

    #[test]
    fn interval_accessors() {
        let ci = ConfidenceInterval {
            estimate: 100.0,
            half_width: 10.0,
            confidence: 0.95,
        };
        assert_eq!(ci.bounds(), (90.0, 110.0));
        assert!((ci.relative_error() - 0.1).abs() < 1e-12);
        assert!(ci.contains(95.0));
        assert!(!ci.contains(111.0));
    }

    #[test]
    fn fpc_collapses_interval_at_full_sample() {
        let ci = mean_interval(5.0, 4.0, 100, 100, 0.95);
        assert_eq!(ci.half_width, 0.0);
        let ci = mean_interval(5.0, 4.0, 1, 100, 0.95);
        assert!(ci.half_width.is_infinite());
    }

    #[test]
    fn coverage_of_mean_interval_is_nominal() {
        // Empirical coverage test: ~95% of intervals should contain the
        // true mean.
        let mut rng = SplitMix64::new(1);
        let population: Vec<f64> = (0..10_000).map(|_| rng.range_f64(0.0, 100.0)).collect();
        let true_mean = population.iter().sum::<f64>() / population.len() as f64;
        let mut covered = 0;
        let trials = 400;
        for t in 0..trials {
            let mut srng = SplitMix64::new(100 + t);
            let idx = srng.sample_indices(population.len(), 200);
            let sample: Vec<f64> = idx.iter().map(|&i| population[i]).collect();
            let n = sample.len() as u64;
            let mean = sample.iter().sum::<f64>() / n as f64;
            let s2 = sample.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / (n as f64 - 1.0);
            let ci = mean_interval(mean, s2, n, population.len() as u64, 0.95);
            if ci.contains(true_mean) {
                covered += 1;
            }
        }
        let coverage = covered as f64 / trials as f64;
        assert!((0.91..=0.99).contains(&coverage), "coverage {coverage}");
    }

    #[test]
    fn count_interval_brackets_truth() {
        let mut rng = SplitMix64::new(2);
        let population: Vec<bool> = (0..50_000).map(|_| rng.bernoulli(0.3)).collect();
        let truth = population.iter().filter(|&&b| b).count() as f64;
        let idx = rng.sample_indices(population.len(), 2000);
        let hits = idx.iter().filter(|&&i| population[i]).count() as u64;
        let ci = count_interval(hits, 2000, population.len() as u64, 0.99);
        assert!(ci.contains(truth), "{ci:?} vs {truth}");
        assert_eq!(count_interval(0, 0, 100, 0.95).half_width, f64::INFINITY);
    }

    #[test]
    fn sum_interval_scales_mean() {
        let ci = sum_interval(2.0, 1.0, 400, 10_000, 0.95);
        assert_eq!(ci.estimate, 20_000.0);
        assert!(ci.half_width > 0.0);
        // Width scales with population size.
        let ci2 = sum_interval(2.0, 1.0, 400, 20_000, 0.95);
        assert!(ci2.half_width > ci.half_width);
    }
}
