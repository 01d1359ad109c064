//! Haar wavelet synopsis.
//!
//! The third classic synopsis family from \[16\]: transform a (frequency)
//! vector into the Haar basis, keep only the `k` largest-magnitude
//! coefficients (normalized), and reconstruct approximate values or
//! range sums on demand. Wavelets shine on piecewise-smooth data where
//! histograms waste buckets.

/// A truncated Haar wavelet representation of a numeric vector.
#[derive(Debug, Clone)]
pub struct WaveletSynopsis {
    /// Original (pre-padding) length.
    len: usize,
    /// Padded power-of-two length.
    padded: usize,
    /// Retained coefficients: (index in coefficient array, value).
    coeffs: Vec<(usize, f64)>,
}

impl WaveletSynopsis {
    /// Build a synopsis retaining the `k` largest *normalized*
    /// coefficients (normalization by √(support) makes retention optimal
    /// in the L2 sense).
    pub fn build(data: &[f64], k: usize) -> Self {
        let len = data.len();
        if len == 0 {
            return WaveletSynopsis {
                len: 0,
                padded: 0,
                coeffs: Vec::new(),
            };
        }
        let padded = len.next_power_of_two();
        let mut values = data.to_vec();
        values.resize(padded, 0.0);

        // In-place Haar decomposition: repeatedly average/difference.
        let mut coeffs = vec![0.0; padded];
        let mut current = values;
        let mut size = padded;
        while size > 1 {
            let half = size / 2;
            let mut next = vec![0.0; half];
            for i in 0..half {
                let a = current[2 * i];
                let b = current[2 * i + 1];
                next[i] = (a + b) / 2.0;
                // Detail coefficients stored right-to-left by level.
                coeffs[half + i] = (a - b) / 2.0;
            }
            current = next;
            size = half;
        }
        coeffs[0] = current[0]; // overall average

        // Retain top-k by normalized magnitude. The normalization factor
        // for a coefficient at index i (level support s) is √s.
        let mut ranked: Vec<(usize, f64)> = coeffs
            .iter()
            .enumerate()
            .filter(|(_, &c)| c != 0.0)
            .map(|(i, &c)| (i, c))
            .collect();
        ranked.sort_by(|a, b| {
            let na = a.1.abs() * support(a.0, padded).sqrt();
            let nb = b.1.abs() * support(b.0, padded).sqrt();
            nb.total_cmp(&na)
        });
        ranked.truncate(k);
        ranked.sort_unstable_by_key(|&(i, _)| i);
        WaveletSynopsis {
            len,
            padded,
            coeffs: ranked,
        }
    }

    /// Number of retained coefficients (the space axis of E12).
    pub fn retained(&self) -> usize {
        self.coeffs.len()
    }

    /// Reconstruct the approximate value at position `i`.
    fn value_at(&self, i: usize) -> f64 {
        if i >= self.len {
            return 0.0;
        }
        let mut v = 0.0;
        for &(ci, c) in &self.coeffs {
            v += c * basis(ci, i, self.padded);
        }
        v
    }

    /// Reconstruct the full approximate vector.
    pub fn reconstruct(&self) -> Vec<f64> {
        (0..self.len).map(|i| self.value_at(i)).collect()
    }

    /// Approximate sum over positions `[lo, hi)`. O(retained) — each
    /// coefficient's contribution to a prefix is closed-form.
    pub fn range_sum(&self, lo: usize, hi: usize) -> f64 {
        let lo = lo.min(self.len);
        let hi = hi.min(self.len);
        if lo >= hi {
            return 0.0;
        }
        self.prefix_sum(hi) - self.prefix_sum(lo)
    }

    /// Sum of positions `[0, n)`.
    fn prefix_sum(&self, n: usize) -> f64 {
        let mut s = 0.0;
        for &(ci, c) in &self.coeffs {
            s += c * basis_prefix(ci, n, self.padded);
        }
        s
    }
}

/// Number of coefficients at `ci`'s level (the largest power of two
/// `<= ci`); level 0 is the overall average.
fn level_of(ci: usize) -> usize {
    debug_assert!(ci > 0);
    let next = ci.next_power_of_two();
    if next == ci {
        ci
    } else {
        next / 2
    }
}

/// Support (number of positions influenced) of coefficient `ci`.
fn support(ci: usize, padded: usize) -> f64 {
    if ci == 0 {
        padded as f64
    } else {
        (padded / level_of(ci)) as f64
    }
}

/// Value of the (unnormalized) Haar basis function for coefficient `ci`
/// at position `pos`.
fn basis(ci: usize, pos: usize, padded: usize) -> f64 {
    if ci == 0 {
        return 1.0;
    }
    // Coefficient ci sits at level ℓ where 2^ℓ <= ci < 2^(ℓ+1);
    // it covers a block of padded/2^ℓ positions, +1 on the left half,
    // -1 on the right half.
    let level = level_of(ci);
    let block = padded / level; // positions per coefficient at this level
    let offset = ci - level;
    let start = offset * block;
    if pos < start || pos >= start + block {
        0.0
    } else if pos < start + block / 2 {
        1.0
    } else {
        -1.0
    }
}

/// Sum of `basis(ci, p, padded)` for `p` in `[0, n)`.
fn basis_prefix(ci: usize, n: usize, padded: usize) -> f64 {
    if ci == 0 {
        return n as f64;
    }
    let level = level_of(ci);
    let block = padded / level;
    let offset = ci - level;
    let start = offset * block;
    if n <= start {
        return 0.0;
    }
    let upto = n.min(start + block) - start; // positions inside the block
    let half = block / 2;
    let plus = upto.min(half) as f64;
    let minus = upto.saturating_sub(half) as f64;
    plus - minus
}

#[cfg(test)]
mod tests {
    use super::*;
    use explore_storage::rng::SplitMix64;

    #[test]
    fn full_retention_is_lossless() {
        let data = vec![3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0];
        let w = WaveletSynopsis::build(&data, 8);
        let rec = w.reconstruct();
        for (a, b) in data.iter().zip(&rec) {
            assert!((a - b).abs() < 1e-9, "{a} vs {b}");
        }
    }

    #[test]
    fn non_power_of_two_lengths() {
        let data: Vec<f64> = (0..13).map(|i| i as f64).collect();
        let w = WaveletSynopsis::build(&data, 16);
        let rec = w.reconstruct();
        assert_eq!(rec.len(), 13);
        for (a, b) in data.iter().zip(&rec) {
            assert!((a - b).abs() < 1e-9);
        }
    }

    #[test]
    fn range_sum_matches_reconstruction() {
        let mut rng = SplitMix64::new(1);
        let data: Vec<f64> = (0..64).map(|_| rng.range_f64(0.0, 10.0)).collect();
        let w = WaveletSynopsis::build(&data, 20);
        let rec = w.reconstruct();
        for &(lo, hi) in &[(0usize, 64usize), (5, 20), (31, 33), (60, 64), (10, 10)] {
            let direct: f64 = rec[lo..hi.min(64)].iter().sum();
            let fast = w.range_sum(lo, hi);
            assert!(
                (direct - fast).abs() < 1e-6,
                "[{lo},{hi}) {direct} vs {fast}"
            );
        }
    }

    #[test]
    fn error_decreases_with_more_coefficients() {
        let mut rng = SplitMix64::new(2);
        // Piecewise-constant signal with noise — wavelet-friendly.
        let data: Vec<f64> = (0..256)
            .map(|i| if i < 128 { 10.0 } else { 2.0 } + 0.1 * rng.gaussian())
            .collect();
        // Mean absolute error of the reconstruction.
        let error = |keep: usize| {
            let approx = WaveletSynopsis::build(&data, keep).reconstruct();
            let total: f64 = data.iter().zip(&approx).map(|(a, b)| (a - b).abs()).sum();
            total / data.len() as f64
        };
        let (e4, e16, e64) = (error(4), error(16), error(64));
        assert!(e16 <= e4 + 1e-9, "{e16} vs {e4}");
        assert!(e64 <= e16 + 1e-9);
        // A step function compresses extremely well.
        assert!(e4 < 0.2, "e4 {e4}");
    }

    #[test]
    fn empty_input() {
        let w = WaveletSynopsis::build(&[], 4);
        assert_eq!(w.retained(), 0);
        assert!(w.reconstruct().is_empty());
        assert_eq!(w.range_sum(0, 10), 0.0);
    }

    #[test]
    fn retention_is_bounded_by_k() {
        let data: Vec<f64> = (0..100).map(|i| (i as f64).sin()).collect();
        let w = WaveletSynopsis::build(&data, 10);
        assert!(w.retained() <= 10);
    }
}
