//! Count-min sketch (Cormode & Muthukrishnan), the workhorse frequency
//! synopsis from the *Synopses for Massive Data* survey \[16\].
//!
//! A `d × w` array of counters with `d` pairwise-independent hash rows;
//! point-frequency estimates take the minimum across rows and are always
//! overestimates, with error ≤ εN at probability 1-δ for w = ⌈e/ε⌉,
//! d = ⌈ln 1/δ⌉.

/// A count-min sketch over 64-bit keys (hash any key type into u64 first;
/// helpers for strings are provided).
#[derive(Debug, Clone)]
pub struct CountMinSketch {
    width: usize,
    depth: usize,
    counters: Vec<u64>,
    /// Per-row hash seeds.
    seeds: Vec<u64>,
    total: u64,
}

impl CountMinSketch {
    /// Create a sketch with explicit geometry.
    pub fn new(width: usize, depth: usize) -> Self {
        let width = width.max(2);
        let depth = depth.max(1);
        CountMinSketch {
            width,
            depth,
            counters: vec![0; width * depth],
            seeds: (0..depth as u64)
                .map(|i| 0x9E37_79B9 ^ (i * 0xABCD_EF12_3456))
                .collect(),
            total: 0,
        }
    }

    /// Create a sketch sized for error `epsilon` (relative to the stream
    /// length) with failure probability `delta`.
    pub fn with_error(epsilon: f64, delta: f64) -> Self {
        let width = (std::f64::consts::E / epsilon).ceil() as usize;
        let depth = (1.0 / delta).ln().ceil() as usize;
        CountMinSketch::new(width, depth)
    }

    /// Memory footprint in counter cells (the space axis of E12).
    pub fn cells(&self) -> usize {
        self.counters.len()
    }

    /// Items inserted so far.
    pub fn total(&self) -> u64 {
        self.total
    }

    #[inline]
    fn slot(&self, row: usize, key: u64) -> usize {
        // SplitMix64-style finalizer keyed by the row seed.
        let mut z = key ^ self.seeds[row];
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        row * self.width + (z % self.width as u64) as usize
    }

    /// Record one occurrence of `key`.
    pub fn insert(&mut self, key: u64) {
        self.insert_n(key, 1);
    }

    /// Record `n` occurrences of `key`.
    fn insert_n(&mut self, key: u64, n: u64) {
        for row in 0..self.depth {
            let s = self.slot(row, key);
            self.counters[s] += n;
        }
        self.total += n;
    }

    /// Estimated frequency of `key` (never an underestimate).
    pub fn estimate(&self, key: u64) -> u64 {
        (0..self.depth)
            .map(|row| self.counters[self.slot(row, key)])
            .min()
            .unwrap_or(0)
    }

    /// Insert a string key.
    pub fn insert_str(&mut self, key: &str) {
        self.insert(fnv1a(key.as_bytes()));
    }

    /// Estimate a string key.
    pub fn estimate_str(&self, key: &str) -> u64 {
        self.estimate(fnv1a(key.as_bytes()))
    }

    /// Merge another sketch with identical geometry.
    ///
    /// # Panics
    /// Panics if geometries differ.
    pub fn merge(&mut self, other: &CountMinSketch) {
        assert_eq!(self.width, other.width, "width mismatch");
        assert_eq!(self.depth, other.depth, "depth mismatch");
        for (a, b) in self.counters.iter_mut().zip(&other.counters) {
            *a += b;
        }
        self.total += other.total;
    }
}

/// FNV-1a over bytes: a small stable string hash for sketch keys.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use explore_storage::rng::{SplitMix64, Zipf};

    #[test]
    fn never_underestimates() {
        let mut cms = CountMinSketch::new(64, 4);
        let mut rng = SplitMix64::new(1);
        let z = Zipf::new(100, 1.0);
        let mut truth = vec![0u64; 100];
        for _ in 0..10_000 {
            let k = z.sample(&mut rng) as u64;
            cms.insert(k);
            truth[k as usize] += 1;
        }
        for k in 0..100u64 {
            assert!(cms.estimate(k) >= truth[k as usize], "key {k}");
        }
        assert_eq!(cms.total(), 10_000);
    }

    #[test]
    fn heavy_hitters_are_accurate() {
        let mut cms = CountMinSketch::with_error(0.005, 0.01);
        let mut rng = SplitMix64::new(2);
        let z = Zipf::new(10_000, 1.2);
        let mut truth = std::collections::HashMap::new();
        for _ in 0..100_000 {
            let k = z.sample(&mut rng) as u64;
            cms.insert(k);
            *truth.entry(k).or_insert(0u64) += 1;
        }
        // The top key's relative error should be small.
        let (&top, &count) = truth.iter().max_by_key(|(_, &c)| c).unwrap();
        let est = cms.estimate(top);
        let rel = (est - count) as f64 / count as f64;
        assert!(rel < 0.05, "relative error {rel}");
    }

    #[test]
    fn error_bound_holds_for_most_keys() {
        let eps = 0.01;
        let mut cms = CountMinSketch::with_error(eps, 0.01);
        let mut rng = SplitMix64::new(3);
        let n = 50_000u64;
        for _ in 0..n {
            cms.insert(rng.below(5000));
        }
        let bound = (eps * n as f64) as u64;
        let violations = (0..5000u64)
            .filter(|&k| cms.estimate(k) > n / 5000 * 3 + bound)
            .count();
        assert!(violations < 50, "{violations} violations");
    }

    #[test]
    fn string_keys() {
        let mut cms = CountMinSketch::new(256, 4);
        for _ in 0..42 {
            cms.insert_str("widget");
        }
        cms.insert_str("gadget");
        assert!(cms.estimate_str("widget") >= 42);
        assert!(cms.estimate_str("gadget") >= 1);
        // An absent key can only collide, never be negative.
        let absent = cms.estimate_str("absent-key");
        assert!(absent <= 43);
    }

    #[test]
    fn merge_equals_union_stream() {
        let mut a = CountMinSketch::new(128, 4);
        let mut b = CountMinSketch::new(128, 4);
        let mut whole = CountMinSketch::new(128, 4);
        for k in 0..500u64 {
            a.insert(k % 37);
            whole.insert(k % 37);
        }
        for k in 0..300u64 {
            b.insert(k % 11);
            whole.insert(k % 11);
        }
        a.merge(&b);
        for k in 0..40u64 {
            assert_eq!(a.estimate(k), whole.estimate(k));
        }
        assert_eq!(a.total(), whole.total());
    }

    #[test]
    #[should_panic(expected = "width mismatch")]
    fn merge_rejects_different_geometry() {
        let mut a = CountMinSketch::new(64, 4);
        let b = CountMinSketch::new(128, 4);
        a.merge(&b);
    }

    #[test]
    fn insert_n_bulk() {
        let mut cms = CountMinSketch::new(64, 4);
        cms.insert_n(7, 1000);
        assert!(cms.estimate(7) >= 1000);
        assert_eq!(cms.total(), 1000);
    }
}
