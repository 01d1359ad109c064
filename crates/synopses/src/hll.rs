//! HyperLogLog distinct-count synopsis.
//!
//! Exploration interfaces constantly need cheap cardinality estimates —
//! "how many distinct products match so far?" — before deciding whether a
//! group-by view is worth rendering (SeeDB prunes on exactly this kind of
//! signal). HLL answers with ~1.04/√m relative error in m bytes-ish of
//! state.

/// HyperLogLog estimator with `2^precision` registers.
#[derive(Debug, Clone)]
pub struct HyperLogLog {
    precision: u32,
    registers: Vec<u8>,
}

impl HyperLogLog {
    /// Create an estimator. `precision` in `\[4, 18\]`; 12 (4096 registers,
    /// ~1.6% error) is a good default.
    pub fn new(precision: u32) -> Self {
        let precision = precision.clamp(4, 18);
        HyperLogLog {
            precision,
            registers: vec![0; 1 << precision],
        }
    }

    /// Add a 64-bit hashed item. Callers hash their keys first (use
    /// [`crate::sketch::fnv1a`] for strings); feeding raw sequential
    /// integers would not be uniform, so we re-mix here defensively.
    pub fn insert(&mut self, key: u64) {
        let h = remix(key);
        let idx = (h >> (64 - self.precision)) as usize;
        let rest = h << self.precision;
        // Rank: position of the leftmost 1-bit in the remaining bits.
        let rank = (rest.leading_zeros() + 1).min(64 - self.precision + 1) as u8;
        if rank > self.registers[idx] {
            self.registers[idx] = rank;
        }
    }

    /// Add a string item.
    pub fn insert_str(&mut self, key: &str) {
        self.insert(crate::sketch::fnv1a(key.as_bytes()));
    }

    /// Estimated number of distinct items, with the standard small-range
    /// (linear counting) correction.
    pub fn estimate(&self) -> f64 {
        let m = self.registers.len() as f64;
        let alpha = match self.registers.len() {
            16 => 0.673,
            32 => 0.697,
            64 => 0.709,
            _ => 0.7213 / (1.0 + 1.079 / m),
        };
        let sum: f64 = self.registers.iter().map(|&r| 2f64.powi(-(r as i32))).sum();
        let raw = alpha * m * m / sum;
        if raw <= 2.5 * m {
            let zeros = self.registers.iter().filter(|&&r| r == 0).count();
            if zeros > 0 {
                return m * (m / zeros as f64).ln();
            }
        }
        raw
    }

    /// Merge another estimator with identical precision (register-wise max).
    ///
    /// # Panics
    /// Panics if precisions differ.
    pub fn merge(&mut self, other: &HyperLogLog) {
        assert_eq!(self.precision, other.precision, "precision mismatch");
        for (a, &b) in self.registers.iter_mut().zip(&other.registers) {
            if b > *a {
                *a = b;
            }
        }
    }
}

#[inline]
fn remix(key: u64) -> u64 {
    let mut z = key.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn estimates_within_expected_error() {
        for &n in &[1_000u64, 10_000, 100_000] {
            let mut hll = HyperLogLog::new(12);
            for k in 0..n {
                hll.insert(k);
            }
            let est = hll.estimate();
            let rel = (est - n as f64).abs() / n as f64;
            assert!(rel < 0.05, "n={n} est={est} rel={rel}");
        }
    }

    #[test]
    fn duplicates_do_not_inflate() {
        let mut hll = HyperLogLog::new(12);
        for _ in 0..100 {
            for k in 0..500u64 {
                hll.insert(k);
            }
        }
        let est = hll.estimate();
        assert!((est - 500.0).abs() / 500.0 < 0.1, "est {est}");
    }

    #[test]
    fn small_cardinalities_use_linear_counting() {
        let mut hll = HyperLogLog::new(12);
        for k in 0..10u64 {
            hll.insert(k);
        }
        let est = hll.estimate();
        assert!((5.0..20.0).contains(&est), "est {est}");
        assert_eq!(HyperLogLog::new(12).estimate(), 0.0);
    }

    #[test]
    fn string_items() {
        let mut hll = HyperLogLog::new(10);
        for i in 0..1000 {
            hll.insert_str(&format!("user{i}"));
        }
        let est = hll.estimate();
        assert!((est - 1000.0).abs() / 1000.0 < 0.12, "est {est}");
    }

    #[test]
    fn merge_is_union() {
        let mut a = HyperLogLog::new(12);
        let mut b = HyperLogLog::new(12);
        for k in 0..5000u64 {
            a.insert(k);
        }
        for k in 2500..7500u64 {
            b.insert(k);
        }
        a.merge(&b);
        let est = a.estimate();
        assert!((est - 7500.0).abs() / 7500.0 < 0.05, "est {est}");
    }

    #[test]
    #[should_panic(expected = "precision mismatch")]
    fn merge_rejects_mixed_precision() {
        let mut a = HyperLogLog::new(10);
        a.merge(&HyperLogLog::new(12));
    }

    #[test]
    fn precision_is_clamped() {
        assert_eq!(HyperLogLog::new(1).registers.len(), 16);
        assert_eq!(HyperLogLog::new(30).registers.len(), 1 << 18);
    }
}
