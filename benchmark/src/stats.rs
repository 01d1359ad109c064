//! Sample statistics: nearest-rank percentiles with the tail-support
//! guard, medians and quartiles.

/// Samples that must lie beyond a reported percentile for it to be
/// trusted (choosing-metrics §1).
pub const TAIL_GUARD: usize = 10;

/// Nearest-rank percentile of an ascending-sorted slice: the smallest
/// element with at least `p` of the samples at or below it. `p` in
/// (0, 1]. Returns 0 for an empty slice.
pub fn percentile_sorted(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// How many samples lie strictly beyond the nearest-rank `p` element.
pub fn samples_beyond(n: usize, p: f64) -> usize {
    if n == 0 {
        return 0;
    }
    n - ((p * n as f64).ceil() as usize).clamp(1, n)
}

/// Does a sample of `n` support reporting percentile `p`?
pub fn supports(n: usize, p: f64) -> bool {
    samples_beyond(n, p) >= TAIL_GUARD
}

/// A latency sample set in nanoseconds.
#[derive(Debug, Default, Clone)]
pub struct Samples {
    ns: Vec<u64>,
    sorted: bool,
}

impl Samples {
    pub fn push(&mut self, ns: u64) {
        self.ns.push(ns);
        self.sorted = false;
    }

    pub fn len(&self) -> usize {
        self.ns.len()
    }

    pub fn is_empty(&self) -> bool {
        self.ns.is_empty()
    }

    fn sort(&mut self) {
        if !self.sorted {
            self.ns.sort_unstable();
            self.sorted = true;
        }
    }

    /// Nearest-rank percentile in nanoseconds (0 when empty).
    pub fn percentile(&mut self, p: f64) -> u64 {
        self.sort();
        percentile_sorted(&self.ns, p)
    }

    pub fn ms(&mut self, p: f64) -> f64 {
        self.percentile(p) as f64 / 1e6
    }

    pub fn us(&mut self, p: f64) -> f64 {
        self.percentile(p) as f64 / 1e3
    }
}

/// Windows the measured phase is cut into. Each end-to-end timing is
/// the median over the windows of the window's own statistic, so a
/// burst of machine noise shorter than half the run moves no metric.
pub const WINDOWS: usize = 10;

/// Per-window throughput and latency percentiles of a measured phase.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct Windowed {
    /// Ops per second, per window.
    pub rates: Vec<f64>,
    /// Nearest-rank p50 / p95 latency in ms, per window.
    pub p50s: Vec<f64>,
    pub p95s: Vec<f64>,
}

impl Windowed {
    /// `(ops_per_s, p50_ms, p95_ms)`: the median over the windows of
    /// each window's own value.
    pub fn medians(&self) -> (f64, f64, f64) {
        (median(&self.rates), median(&self.p50s), median(&self.p95s))
    }
}

/// Cut completed ops into [`WINDOWS`] equal slices of `[0, duration_ns)`.
/// `ops` holds `(completion time, latency)` in ns since the phase began;
/// ops that complete after `duration_ns` (the closed loop draining) fall
/// in the last slice, and empty slices are left out. A slice's rate is
/// its op count over the time from the previous slice's last completion
/// to its own, so it is not quantised by where the slice boundary
/// happens to fall.
pub fn windowed(ops: &[(u64, u64)], duration_ns: u64) -> Windowed {
    let slice_ns = (duration_ns / WINDOWS as u64).max(1);
    let mut slices = vec![(Samples::default(), 0u64); WINDOWS];
    for &(end, latency) in ops {
        let slice = &mut slices[((end / slice_ns) as usize).min(WINDOWS - 1)];
        slice.0.push(latency);
        slice.1 = slice.1.max(end);
    }
    let mut out = Windowed::default();
    let mut since = 0;
    for (slice, last) in slices.iter_mut().filter(|s| !s.0.is_empty()) {
        out.rates
            .push(slice.len() as f64 * 1e9 / (*last - since).max(1) as f64);
        since = *last;
        out.p50s.push(slice.ms(0.50));
        out.p95s.push(slice.ms(0.95));
    }
    out
}

/// Median latency in ms over all of `ops` (`(completion time, latency)`
/// in ns), not per window.
pub fn pooled_p50_ms(ops: &[(u64, u64)]) -> f64 {
    let mut all = Samples::default();
    ops.iter().for_each(|o| all.push(o.1));
    all.ms(0.50)
}

/// Median of a float slice (mean of the middle two for even lengths);
/// 0 when empty.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_matches_the_textbook_definition() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile_sorted(&v, 0.50), 50);
        assert_eq!(percentile_sorted(&v, 0.95), 95);
        assert_eq!(percentile_sorted(&v, 1.0), 100);
        // Five samples: p50 is the 3rd, p95 the 5th (ceil(4.75) = 5).
        let w = [15, 20, 35, 40, 50];
        assert_eq!(percentile_sorted(&w, 0.50), 35);
        assert_eq!(percentile_sorted(&w, 0.95), 50);
        assert_eq!(percentile_sorted(&w, 0.30), 20);
        assert_eq!(percentile_sorted(&[7], 0.95), 7);
        assert_eq!(percentile_sorted(&[], 0.95), 0);
    }

    #[test]
    fn tail_guard_needs_ten_samples_beyond_the_percentile() {
        // p95 of 200 samples is the 190th: exactly ten beyond.
        assert_eq!(samples_beyond(200, 0.95), 10);
        assert!(supports(200, 0.95));
        assert!(!supports(199, 0.95));
        // A median needs 20 samples.
        assert!(supports(20, 0.50));
        assert!(!supports(19, 0.50));
        assert!(!supports(0, 0.50));
    }

    #[test]
    fn samples_report_in_each_unit() {
        let mut s = Samples::default();
        for ns in [3_000_000u64, 1_000_000, 2_000_000] {
            s.push(ns);
        }
        assert_eq!(s.len(), 3);
        assert_eq!(s.ms(0.5), 2.0);
        assert_eq!(s.us(0.5), 2000.0);
    }

    #[test]
    fn windowed_metrics_ignore_a_burst_in_a_minority_of_windows() {
        // One op per ms for 10 s, 2 ms each; for three seconds the
        // machine stalls: a fifth of the ops, each 50 ms.
        let mut ops = Vec::new();
        for ms in 0..10_000u64 {
            let stalled = (3_000..6_000).contains(&ms);
            if !stalled || ms % 5 == 0 {
                ops.push((ms * 1_000_000, if stalled { 50_000_000 } else { 2_000_000 }));
            }
        }
        let (rate, p50, p95) = windowed(&ops, 10_000_000_000).medians();
        assert_eq!((rate.round(), p50, p95), (1000.0, 2.0, 2.0));
        // The pooled p95 would have reported the stall.
        let mut pooled = Samples::default();
        ops.iter().for_each(|o| pooled.push(o.1));
        assert_eq!(pooled.ms(0.95), 50.0);
    }

    #[test]
    fn the_last_window_absorbs_the_drain_and_rates_are_not_quantised() {
        // An op every 100 ms for 1 s, then two stragglers by 1.2 s.
        let mut ops: Vec<(u64, u64)> = (1..=9).map(|i| (i * 100_000_000, 5)).collect();
        ops.push((1_100_000_000, 5));
        ops.push((1_200_000_000, 5));
        // Nine slices of one op per 100 ms, and a last one with two ops
        // in 300 ms.
        let (rate, ..) = windowed(&ops, 1_000_000_000).medians();
        assert_eq!(rate, 10.0);
        // Completions 7 ms apart do not read as a round rate.
        let ops: Vec<(u64, u64)> = (1..=1400).map(|i| (i * 7_000_000, 5)).collect();
        let (rate, ..) = windowed(&ops, 10_000_000_000).medians();
        assert!((rate - 1e3 / 7.0).abs() < 1e-6, "{rate}");
        assert_eq!(windowed(&[], 1_000_000_000).medians(), (0.0, 0.0, 0.0));
    }

    #[test]
    fn median_of_even_and_odd_lengths() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }
}
