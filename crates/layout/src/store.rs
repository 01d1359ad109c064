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
    pub fn execute(&mut self, op: &AccessOp) -> Result<ExecReport> {
        let pattern = op.pattern();
        let rows = match op {
            AccessOp::Aggregate { .. } => self.table.num_rows() as u64,
            AccessOp::FetchRows { len, .. } => *len as u64,
        };
        self.monitor.record(&pattern, rows);
        self.maybe_adapt(&pattern)?;
        match op {
            AccessOp::Aggregate { columns } => self.run_aggregate(columns),
            AccessOp::FetchRows {
                start,
                len,
                columns,
            } => self.run_fetch(&pattern, *start, *len, columns),
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

    fn run_aggregate(&self, columns: &[String]) -> Result<ExecReport> {
        let mut checksum = 0.0;
        let mut cells = 0u64;
        for name in columns {
            let col = self.table.column(name)?;
            match col {
                explore_storage::Column::Int64(v) => {
                    checksum += v.iter().map(|&x| x as f64).sum::<f64>();
                    cells += v.len() as u64;
                }
                explore_storage::Column::Float64(v) => {
                    checksum += v.iter().sum::<f64>();
                    cells += v.len() as u64;
                }
                explore_storage::Column::Utf8(_) => {
                    return Err(StorageError::TypeMismatch {
                        column: name.clone(),
                        expected: "numeric",
                        found: "Utf8",
                    })
                }
            }
        }
        Ok(ExecReport {
            checksum,
            layout: LayoutUsed::Columnar,
            cells_touched: cells,
        })
    }

    fn run_fetch(
        &self,
        pattern: &AccessPattern,
        start: usize,
        len: usize,
        columns: &[String],
    ) -> Result<ExecReport> {
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
        // correct, but strided across `columns.len()` arrays.
        let mut checksum = 0.0;
        let mut cells = 0u64;
        for name in columns {
            let col = self.table.column(name)?;
            for row in start..end {
                checksum += col
                    .numeric_at(row)
                    .ok_or_else(|| StorageError::TypeMismatch {
                        column: name.clone(),
                        expected: "numeric",
                        found: "Utf8",
                    })?;
                cells += 1;
            }
        }
        Ok(ExecReport {
            checksum,
            layout: LayoutUsed::Columnar,
            cells_touched: cells,
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
