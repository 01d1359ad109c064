//! Named counters and log-scale latency histograms, aggregated across
//! threads.
//!
//! The registry is a map from name to an `Arc`'d atomic instrument.
//! Lookups take a read lock only on first use per call site — callers
//! that care about the hot path resolve the `Arc` once and bump the
//! atomic directly. Histograms use power-of-two buckets (one per bit
//! position of the nanosecond value), so `observe` is two atomic adds
//! and a `leading_zeros`, and quantiles are exact to within a factor of
//! two — plenty for p50/p95/p99 trend lines, with no allocation and no
//! locking on the observe path.

use std::collections::BTreeMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::RwLock;

/// Number of power-of-two buckets; covers the full `u64` range.
const BUCKETS: usize = 64;

/// A lock-free log-scale histogram of nanosecond observations.
#[derive(Debug)]
pub struct Histogram {
    count: AtomicU64,
    sum: AtomicU64,
    /// `buckets[b]` counts values `v` with `bucket_of(v) == b`, i.e.
    /// `v == 0` in bucket 0 and `2^(b-1) <= v < 2^b` in bucket `b`.
    buckets: [AtomicU64; BUCKETS],
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }
}

/// Which bucket a value falls into: 0 for 0, else `floor(log2(v)) + 1`.
fn bucket_of(v: u64) -> usize {
    (64 - v.leading_zeros() as usize).min(BUCKETS - 1)
}

/// Representative (geometric-middle) value for a bucket.
fn bucket_mid(b: usize) -> u64 {
    if b == 0 {
        return 0;
    }
    let low = 1u64 << (b - 1);
    let high = if b >= 64 { u64::MAX } else { (1u64 << b) - 1 };
    low + (high - low) / 2
}

impl Histogram {
    /// Record one observation.
    fn observe(&self, v: u64) {
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.buckets[bucket_of(v)].fetch_add(1, Ordering::Relaxed);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// The `q`-quantile (0.0–1.0) as the geometric middle of the bucket
    /// holding it; 0 when empty. Accurate to within 2× by construction.
    pub fn quantile(&self, q: f64) -> u64 {
        let count = self.count();
        if count == 0 {
            return 0;
        }
        let target = ((q.clamp(0.0, 1.0) * count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for b in 0..BUCKETS {
            seen += self.buckets[b].load(Ordering::Relaxed);
            if seen >= target {
                return bucket_mid(b);
            }
        }
        bucket_mid(BUCKETS - 1)
    }

    /// Exact arithmetic mean of all observations (0 when empty).
    pub fn mean(&self) -> u64 {
        self.sum
            .load(Ordering::Relaxed)
            .checked_div(self.count())
            .unwrap_or(0)
    }

    /// Point-in-time summary.
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            count: self.count(),
            mean_ns: self.mean(),
            p50_ns: self.quantile(0.50),
            p95_ns: self.quantile(0.95),
            p99_ns: self.quantile(0.99),
        }
    }
}

/// Frozen summary of one histogram.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct HistogramSnapshot {
    pub count: u64,
    pub mean_ns: u64,
    pub p50_ns: u64,
    pub p95_ns: u64,
    pub p99_ns: u64,
}

/// Frozen summary of the whole registry.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct MetricsSnapshot {
    pub counters: BTreeMap<String, u64>,
    pub histograms: BTreeMap<String, HistogramSnapshot>,
}

impl MetricsSnapshot {
    /// A counter's value (0 when never bumped).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// A histogram's summary, if any observation landed.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms.get(name)
    }
}

impl fmt::Display for MetricsSnapshot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "counters:")?;
        for (name, v) in &self.counters {
            writeln!(f, "  {name:<40} {v}")?;
        }
        writeln!(f, "histograms (ns):")?;
        for (name, h) in &self.histograms {
            writeln!(
                f,
                "  {name:<40} n={} mean={} p50={} p95={} p99={}",
                h.count, h.mean_ns, h.p50_ns, h.p95_ns, h.p99_ns
            )?;
        }
        Ok(())
    }
}

/// Registry of named counters and histograms shared across threads.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    counters: RwLock<BTreeMap<String, Arc<AtomicU64>>>,
    histograms: RwLock<BTreeMap<String, Arc<Histogram>>>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        MetricsRegistry::default()
    }

    /// Get-or-create a counter; hold the `Arc` to bump it lock-free.
    pub fn counter(&self, name: &str) -> Arc<AtomicU64> {
        if let Some(c) = self.counters.read().get(name) {
            return Arc::clone(c);
        }
        Arc::clone(self.counters.write().entry(name.to_owned()).or_default())
    }

    /// Bump a counter by `by`.
    pub fn inc(&self, name: &str, by: u64) {
        self.counter(name).fetch_add(by, Ordering::Relaxed);
    }

    /// Get-or-create a histogram.
    fn histogram(&self, name: &str) -> Arc<Histogram> {
        if let Some(h) = self.histograms.read().get(name) {
            return Arc::clone(h);
        }
        Arc::clone(self.histograms.write().entry(name.to_owned()).or_default())
    }

    /// Record one nanosecond observation into a named histogram.
    pub fn observe_ns(&self, name: &str, ns: u64) {
        self.histogram(name).observe(ns);
    }

    /// Freeze every instrument into a snapshot.
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            counters: self
                .counters
                .read()
                .iter()
                .map(|(k, v)| (k.clone(), v.load(Ordering::Relaxed)))
                .collect(),
            histograms: self
                .histograms
                .read()
                .iter()
                .map(|(k, v)| (k.clone(), v.snapshot()))
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_partition_the_range() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(4), 3);
        assert_eq!(bucket_of(u64::MAX), 63);
        assert_eq!(bucket_mid(0), 0);
        assert_eq!(bucket_mid(1), 1);
        assert_eq!(bucket_mid(3), 5, "[4,7] → 5");
    }

    #[test]
    fn quantiles_are_within_2x() {
        let h = Histogram::default();
        for v in 1..=1000u64 {
            h.observe(v);
        }
        assert_eq!(h.count(), 1000);
        assert_eq!(h.mean(), 500);
        let p50 = h.quantile(0.5);
        assert!((250..=1000).contains(&p50), "p50 {p50}");
        let p99 = h.quantile(0.99);
        assert!((500..=1023).contains(&p99), "p99 {p99}");
        assert!(h.quantile(1.0) >= h.quantile(0.5));
    }

    #[test]
    fn empty_histogram_is_zero() {
        let h = Histogram::default();
        assert_eq!(h.quantile(0.99), 0);
        assert_eq!(h.mean(), 0);
        assert_eq!(h.snapshot(), HistogramSnapshot::default());
    }

    #[test]
    fn registry_aggregates_across_threads() {
        let m = Arc::new(MetricsRegistry::new());
        std::thread::scope(|s| {
            for _ in 0..4 {
                let m = Arc::clone(&m);
                s.spawn(move || {
                    let c = m.counter("queries");
                    for i in 0..100u64 {
                        c.fetch_add(1, Ordering::Relaxed);
                        m.observe_ns("latency", i * 1000);
                    }
                });
            }
        });
        let snap = m.snapshot();
        assert_eq!(snap.counter("queries"), 400);
        assert_eq!(snap.counter("never_bumped"), 0);
        let h = snap.histogram("latency").expect("observed");
        assert_eq!(h.count, 400);
        assert!(h.p95_ns >= h.p50_ns);
        let rendered = snap.to_string();
        assert!(rendered.contains("queries"));
        assert!(rendered.contains("latency"));
    }
}
