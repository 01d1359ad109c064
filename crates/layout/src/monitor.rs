//! Workload monitoring: which column sets do queries co-access, and how?

use std::collections::HashMap;

/// A canonicalized access pattern: the sorted set of columns touched and
/// whether the access was row-wise (tuple reconstruction) or column-wise
/// (scan/aggregate).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct AccessPattern {
    /// Sorted column names.
    pub columns: Vec<String>,
    /// True for tuple-at-a-time access (favours row-major layouts).
    pub row_wise: bool,
}

impl AccessPattern {
    /// Build a canonical pattern from an unsorted column list.
    pub fn new(columns: &[&str], row_wise: bool) -> Self {
        let mut columns: Vec<String> = columns.iter().map(|s| s.to_string()).collect();
        columns.sort_unstable();
        columns.dedup();
        AccessPattern { columns, row_wise }
    }
}

/// Counts pattern occurrences and the rows they touched; the adaptive
/// store consults it to decide when a layout is worth materializing.
#[derive(Debug, Default, Clone)]
pub struct WorkloadMonitor {
    counts: HashMap<AccessPattern, u64>,
    rows_touched: HashMap<AccessPattern, u64>,
}

impl WorkloadMonitor {
    /// An empty monitor.
    pub fn new() -> Self {
        WorkloadMonitor::default()
    }

    /// Record one occurrence of a pattern touching `rows` rows.
    pub fn record(&mut self, pattern: &AccessPattern, rows: u64) {
        *self.counts.entry(pattern.clone()).or_insert(0) += 1;
        *self.rows_touched.entry(pattern.clone()).or_insert(0) += rows;
    }

    /// Times this pattern has occurred.
    pub fn count(&self, pattern: &AccessPattern) -> u64 {
        self.counts.get(pattern).copied().unwrap_or(0)
    }

    /// Total rows this pattern has touched.
    pub fn rows(&self, pattern: &AccessPattern) -> u64 {
        self.rows_touched.get(pattern).copied().unwrap_or(0)
    }

    /// Number of distinct patterns observed.
    pub fn distinct_patterns(&self) -> usize {
        self.counts.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pattern_canonicalization() {
        let a = AccessPattern::new(&["b", "a", "b"], true);
        let b = AccessPattern::new(&["a", "b"], true);
        assert_eq!(a, b);
        let c = AccessPattern::new(&["a", "b"], false);
        assert_ne!(a, c, "row-wise flag distinguishes patterns");
    }

    #[test]
    fn counting_and_rows() {
        let mut m = WorkloadMonitor::new();
        let p = AccessPattern::new(&["x"], true);
        m.record(&p, 100);
        m.record(&p, 50);
        assert_eq!(m.count(&p), 2);
        assert_eq!(m.rows(&p), 150);
        assert_eq!(m.count(&AccessPattern::new(&["y"], true)), 0);
        assert_eq!(m.distinct_patterns(), 1);
    }
}
