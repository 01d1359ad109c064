//! A 2-D grid index over spatial point data — the substrate for
//! semantic-window queries \[36\] and viewport exploration sessions.
//!
//! Building the index assigns each point to a cell once. *Fetching* a
//! cell's aggregate recomputes it from the member points, modelling the
//! expensive storage access that caching and prefetching exist to hide;
//! the work is metered in points touched so experiments are
//! deterministic.

use explore_storage::{Result, StorageError, Table};

/// Aggregate statistics of one grid cell.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CellAgg {
    pub count: u64,
    pub sum: f64,
}

impl CellAgg {
    /// Mean of the measure within the cell (NaN for empty cells).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            f64::NAN
        } else {
            self.sum / self.count as f64
        }
    }
}

/// A fixed-resolution grid over two numeric columns of a table.
#[derive(Debug, Clone)]
pub struct GridIndex {
    cols: usize,
    rows: usize,
    /// Per-cell member row ids.
    members: Vec<Vec<u32>>,
    /// The measure value of every base row.
    measure: Vec<f64>,
}

impl GridIndex {
    /// Build a `cols × rows` grid over `x_col`/`y_col`, carrying
    /// `measure_col` for cell aggregates. All three must be numeric.
    pub fn build(
        table: &Table,
        x_col: &str,
        y_col: &str,
        measure_col: &str,
        cols: usize,
        rows: usize,
    ) -> Result<Self> {
        let cols = cols.max(1);
        let rows = rows.max(1);
        let numeric = |name: &str| -> Result<Vec<f64>> {
            let c = table.column(name)?;
            (0..table.num_rows())
                .map(|i| {
                    c.numeric_at(i).ok_or_else(|| StorageError::TypeMismatch {
                        column: name.to_owned(),
                        expected: "numeric",
                        found: c.data_type().name(),
                    })
                })
                .collect()
        };
        let xs = numeric(x_col)?;
        let ys = numeric(y_col)?;
        let measure = numeric(measure_col)?;
        let (x0, x1) = min_max(&xs);
        let (y0, y1) = min_max(&ys);
        let xw = ((x1 - x0) / cols as f64).max(f64::MIN_POSITIVE);
        let yw = ((y1 - y0) / rows as f64).max(f64::MIN_POSITIVE);
        let mut members = vec![Vec::new(); cols * rows];
        for i in 0..xs.len() {
            let cx = (((xs[i] - x0) / xw) as usize).min(cols - 1);
            let cy = (((ys[i] - y0) / yw) as usize).min(rows - 1);
            members[cy * cols + cx].push(i as u32);
        }
        Ok(GridIndex {
            cols,
            rows,
            members,
            measure,
        })
    }

    /// Grid width in cells.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Grid height in cells.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Compute a cell's aggregate from its members. Returns the
    /// aggregate and the number of points touched (the fetch cost).
    pub fn fetch_cell(&self, cx: usize, cy: usize) -> (CellAgg, u64) {
        if cx >= self.cols || cy >= self.rows {
            return (CellAgg { count: 0, sum: 0.0 }, 0);
        }
        let ids = &self.members[cy * self.cols + cx];
        let mut sum = 0.0;
        for &id in ids {
            sum += self.measure[id as usize];
        }
        (
            CellAgg {
                count: ids.len() as u64,
                sum,
            },
            ids.len() as u64,
        )
    }
}

fn min_max(v: &[f64]) -> (f64, f64) {
    let mut lo = f64::INFINITY;
    let mut hi = f64::NEG_INFINITY;
    for &x in v {
        if x < lo {
            lo = x;
        }
        if x > hi {
            hi = x;
        }
    }
    if v.is_empty() {
        (0.0, 1.0)
    } else {
        (lo, hi)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use explore_storage::gen::sky_table;

    #[test]
    fn every_point_lands_in_exactly_one_cell() {
        let t = sky_table(5000, 3, 100.0, 1);
        let g = GridIndex::build(&t, "x", "y", "mag", 16, 16).unwrap();
        let total: u64 = (0..16)
            .flat_map(|cy| (0..16).map(move |cx| (cx, cy)))
            .map(|(cx, cy)| g.fetch_cell(cx, cy).0.count)
            .sum();
        assert_eq!(total, 5000);
        assert_eq!(g.measure.len(), 5000);
    }

    #[test]
    fn cell_sum_matches_direct_computation() {
        let t = sky_table(2000, 2, 50.0, 2);
        let g = GridIndex::build(&t, "x", "y", "mag", 8, 8).unwrap();
        let grand: f64 = (0..8)
            .flat_map(|cy| (0..8).map(move |cx| (cx, cy)))
            .map(|(cx, cy)| g.fetch_cell(cx, cy).0.sum)
            .sum();
        let truth: f64 = t.column("mag").unwrap().as_f64().unwrap().iter().sum();
        assert!((grand - truth).abs() < 1e-6);
    }

    #[test]
    fn fetch_cost_equals_cell_population() {
        let t = sky_table(1000, 1, 10.0, 3);
        let g = GridIndex::build(&t, "x", "y", "mag", 4, 4).unwrap();
        let (agg, cost) = g.fetch_cell(0, 0);
        assert_eq!(agg.count, cost);
    }

    #[test]
    fn out_of_range_cells_are_empty() {
        let t = sky_table(100, 1, 10.0, 4);
        let g = GridIndex::build(&t, "x", "y", "mag", 4, 4).unwrap();
        let (agg, cost) = g.fetch_cell(99, 99);
        assert_eq!(agg.count, 0);
        assert_eq!(cost, 0);
        assert!(agg.mean().is_nan());
    }

    #[test]
    fn non_numeric_columns_rejected() {
        let t = explore_storage::gen::sales_table(&Default::default());
        assert!(GridIndex::build(&t, "region", "price", "qty", 4, 4).is_err());
    }
}
