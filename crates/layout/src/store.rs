//! The adaptive store: columnar base + adaptively materialized layouts.

use std::collections::HashMap;

use explore_storage::{Result, StorageError, Table};

use crate::monitor::{AccessPattern, WorkloadMonitor};
use crate::rowstore::RowStore;

/// Configuration of the adaptation policy.
#[derive(Debug, Clone, Copy)]
pub struct StoreConfig {
    /// Materialize a layout once its pattern has recurred this often.
    pub adapt_after: u64,
    /// Hard cap on materialized auxiliary layouts (storage budget).
    pub max_layouts: usize,
}

impl Default for StoreConfig {
    fn default() -> Self {
        StoreConfig {
            adapt_after: 3,
            max_layouts: 8,
        }
    }
}

/// One data-access operation, the store's workload unit.
#[derive(Debug, Clone)]
pub enum AccessOp {
    /// Column-wise: sum each named numeric column over all rows
    /// (an analytical scan — the columnar layout's home game).
    Aggregate { columns: Vec<String> },
    /// Row-wise: reconstruct `len` full tuples starting at `start` and
    /// fold all their numeric fields (an operational/tuple-at-a-time
    /// probe — the row layout's home game).
    FetchRows {
        start: usize,
        len: usize,
        columns: Vec<String>,
    },
}

impl AccessOp {
    fn pattern(&self) -> AccessPattern {
        match self {
            AccessOp::Aggregate { columns } => {
                let refs: Vec<&str> = columns.iter().map(String::as_str).collect();
                AccessPattern::new(&refs, false)
            }
            AccessOp::FetchRows { columns, .. } => {
                let refs: Vec<&str> = columns.iter().map(String::as_str).collect();
                AccessPattern::new(&refs, true)
            }
        }
    }
}

/// Which layout served an operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LayoutUsed {
    Columnar,
    /// A materialized row-major group covering exactly the pattern's
    /// columns.
    RowGroup,
}

/// Execution report: the checksum (for correctness tests) plus which
/// layout ran it and how many cells were touched.
#[derive(Debug, Clone, Copy)]
pub struct ExecReport {
    pub checksum: f64,
    pub layout: LayoutUsed,
    pub cells_touched: u64,
}

/// An adaptive store over one table.
#[derive(Debug)]
pub struct AdaptiveStore {
    table: Table,
    config: StoreConfig,
    monitor: WorkloadMonitor,
    /// Materialized row-major groups, keyed by their pattern.
    groups: HashMap<AccessPattern, RowStore>,
    /// Number of layout materializations performed (adaptation cost).
    builds: u64,
}

impl AdaptiveStore {
    /// Wrap a columnar table with the default policy.
    pub fn new(table: Table) -> Self {
        AdaptiveStore::with_config(table, StoreConfig::default())
    }

    /// Wrap a table with an explicit policy.
    pub fn with_config(table: Table, config: StoreConfig) -> Self {
        AdaptiveStore {
            table,
            config,
            monitor: WorkloadMonitor::new(),
            groups: HashMap::new(),
            builds: 0,
        }
    }

    /// The underlying table.
    pub fn table(&self) -> &Table {
        &self.table
    }

    /// The workload monitor.
    pub fn monitor(&self) -> &WorkloadMonitor {
        &self.monitor
    }

    /// Layout materializations so far.
    pub fn builds(&self) -> u64 {
        self.builds
    }

    /// Materialized auxiliary layouts.
    pub fn num_layouts(&self) -> usize {
        self.groups.len()
    }

    /// Execute one operation, recording it and adapting if warranted.
    /// Every column of the op must exist and be numeric; otherwise the
    /// op fails the same way on every call and is not recorded. Both
    /// layouts read each distinct column once.
    pub fn execute(&mut self, op: &AccessOp) -> Result<ExecReport> {
        let pattern = op.pattern();
        for name in &pattern.columns {
            let found = self.table.column(name)?.data_type();
            if !found.is_numeric() {
                return Err(StorageError::TypeMismatch {
                    column: name.clone(),
                    expected: "numeric",
                    found: found.name(),
                });
            }
        }
        let rows = match op {
            AccessOp::Aggregate { .. } => self.table.num_rows() as u64,
            AccessOp::FetchRows { len, .. } => *len as u64,
        };
        self.monitor.record(&pattern, rows);
        self.maybe_adapt(&pattern)?;
        match op {
            AccessOp::Aggregate { .. } => self.run_aggregate(&pattern),
            AccessOp::FetchRows { start, len, .. } => self.run_fetch(&pattern, *start, *len),
        }
    }

    /// Materialize a row group for a hot row-wise pattern.
    fn maybe_adapt(&mut self, pattern: &AccessPattern) -> Result<()> {
        if !pattern.row_wise
            || self.groups.contains_key(pattern)
            || self.groups.len() >= self.config.max_layouts
            || self.monitor.count(pattern) < self.config.adapt_after
        {
            return Ok(());
        }
        let names: Vec<&str> = pattern.columns.iter().map(String::as_str).collect();
        let projected = self.table.project(&names)?;
        self.groups
            .insert(pattern.clone(), RowStore::from_table(&projected));
        self.builds += 1;
        Ok(())
    }

    fn run_aggregate(&self, pattern: &AccessPattern) -> Result<ExecReport> {
        let mut checksum = 0.0;
        let mut cells = 0u64;
        for name in &pattern.columns {
            let col = self.table.column(name)?;
            if let Some(v) = col.as_i64() {
                checksum += v.iter().map(|&x| x as f64).sum::<f64>();
            } else if let Some(v) = col.as_f64() {
                checksum += v.iter().sum::<f64>();
            }
            cells += col.len() as u64;
        }
        Ok(ExecReport {
            checksum,
            layout: LayoutUsed::Columnar,
            cells_touched: cells,
        })
    }

    fn run_fetch(&self, pattern: &AccessPattern, start: usize, len: usize) -> Result<ExecReport> {
        let n = self.table.num_rows();
        let start = start.min(n);
        let end = (start + len).min(n);
        if let Some(group) = self.groups.get(pattern) {
            // Row-group fast path: one contiguous slice.
            let checksum = group.sum_rows(start, end - start);
            return Ok(ExecReport {
                checksum,
                layout: LayoutUsed::RowGroup,
                cells_touched: ((end - start) * group.row_width()) as u64,
            });
        }
        // Columnar fallback: touch each column's slice separately —
        // correct, but strided across the pattern's column arrays.
        let mut checksum = 0.0;
        for name in &pattern.columns {
            let col = self.table.column(name)?;
            for row in start..end {
                checksum += col.numeric_at(row).expect("execute checked numeric");
            }
        }
        Ok(ExecReport {
            checksum,
            layout: LayoutUsed::Columnar,
            cells_touched: ((end - start) * pattern.columns.len()) as u64,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use explore_storage::gen::{sales_table, SalesConfig};

    fn store() -> AdaptiveStore {
        AdaptiveStore::new(sales_table(&SalesConfig {
            rows: 5000,
            ..SalesConfig::default()
        }))
    }

    fn fetch_op() -> AccessOp {
        AccessOp::FetchRows {
            start: 100,
            len: 500,
            columns: vec!["price".into(), "discount".into(), "qty".into()],
        }
    }

    #[test]
    fn aggregates_run_columnar() {
        let mut s = store();
        let r = s
            .execute(&AccessOp::Aggregate {
                columns: vec!["price".into()],
            })
            .unwrap();
        assert_eq!(r.layout, LayoutUsed::Columnar);
        let truth: f64 = s
            .table()
            .column("price")
            .unwrap()
            .as_f64()
            .unwrap()
            .iter()
            .sum();
        assert!((r.checksum - truth).abs() < 1e-6);
    }

    #[test]
    fn row_pattern_adapts_after_threshold() {
        let mut s = store();
        let op = fetch_op();
        // First two runs: columnar fallback, no layout yet.
        assert_eq!(s.execute(&op).unwrap().layout, LayoutUsed::Columnar);
        assert_eq!(s.execute(&op).unwrap().layout, LayoutUsed::Columnar);
        assert_eq!(s.num_layouts(), 0);
        // Third run crosses adapt_after=3: group materializes and serves.
        assert_eq!(s.execute(&op).unwrap().layout, LayoutUsed::RowGroup);
        assert_eq!(s.num_layouts(), 1);
        assert_eq!(s.builds(), 1);
    }

    #[test]
    fn checksums_agree_across_layouts() {
        let mut s = store();
        let op = fetch_op();
        let cold = s.execute(&op).unwrap().checksum;
        for _ in 0..5 {
            s.execute(&op).unwrap();
        }
        let hot = s.execute(&op).unwrap();
        assert_eq!(hot.layout, LayoutUsed::RowGroup);
        assert!((hot.checksum - cold).abs() < 1e-6);

        // One answer per op on every call, before and after adaptation:
        // a string column is rejected each time and never gets a row
        // group, and a repeated column counts once on both layouts.
        let calls = StoreConfig::default().adapt_after + 2;
        let fetch = |columns: [&str; 2]| AccessOp::FetchRows {
            start: 100,
            len: 10,
            columns: columns.iter().map(|c| c.to_string()).collect(),
        };
        let mut s = store();
        let mixed = fetch(["region", "price"]);
        for call in 1..=calls {
            let err = s.execute(&mixed).err();
            assert!(
                matches!(err, Some(StorageError::TypeMismatch { ref column, .. }) if column == "region"),
                "call {call}: {err:?}"
            );
        }
        assert_eq!(s.num_layouts(), 0);
        let twice = fetch(["price", "price"]);
        let first = s.execute(&twice).unwrap();
        assert_eq!(first.cells_touched, 10);
        for call in 2..=calls {
            let r = s.execute(&twice).unwrap();
            assert_eq!(r.cells_touched, 10, "call {call}");
            assert_eq!(
                r.checksum.to_bits(),
                first.checksum.to_bits(),
                "call {call}"
            );
        }
        assert_eq!(s.num_layouts(), 1);
        assert_eq!(s.execute(&twice).unwrap().layout, LayoutUsed::RowGroup);
    }

    #[test]
    fn different_patterns_get_different_groups() {
        let mut s = store();
        let a = fetch_op();
        let b = AccessOp::FetchRows {
            start: 0,
            len: 100,
            columns: vec!["qty".into()],
        };
        for _ in 0..4 {
            s.execute(&a).unwrap();
            s.execute(&b).unwrap();
        }
        assert_eq!(s.num_layouts(), 2);
    }

    #[test]
    fn layout_budget_is_enforced() {
        let mut s = AdaptiveStore::with_config(
            sales_table(&SalesConfig {
                rows: 1000,
                ..SalesConfig::default()
            }),
            StoreConfig {
                adapt_after: 1,
                max_layouts: 2,
            },
        );
        for cols in [["price"], ["qty"], ["discount"]] {
            let op = AccessOp::FetchRows {
                start: 0,
                len: 10,
                columns: cols.iter().map(|s| s.to_string()).collect(),
            };
            s.execute(&op).unwrap();
            s.execute(&op).unwrap();
        }
        assert_eq!(s.num_layouts(), 2, "third layout rejected by budget");
    }

    #[test]
    fn fetch_clamps_out_of_range() {
        let mut s = store();
        let op = AccessOp::FetchRows {
            start: 4900,
            len: 10_000,
            columns: vec!["qty".into()],
        };
        let r = s.execute(&op).unwrap();
        assert_eq!(r.cells_touched, 100);
    }

    #[test]
    fn string_columns_rejected_in_numeric_ops() {
        let mut s = store();
        assert!(s
            .execute(&AccessOp::Aggregate {
                columns: vec!["region".into()]
            })
            .is_err());
    }

    #[test]
    fn row_group_touches_fewer_strides() {
        // Cells touched are equal, but the report distinguishes layouts;
        // wall-time advantage is measured in the E11 bench.
        let mut s = store();
        let op = fetch_op();
        for _ in 0..3 {
            s.execute(&op).unwrap();
        }
        let r = s.execute(&op).unwrap();
        assert_eq!(r.layout, LayoutUsed::RowGroup);
        assert_eq!(r.cells_touched, 500 * 3);
    }
}
