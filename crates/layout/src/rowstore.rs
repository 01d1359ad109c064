//! Row-major storage layout.
//!
//! Adaptive storage (H2O-style, experiment E11) needs the same data in
//! both orientations so its cost model can choose per query. A
//! [`RowStore`] stores fixed-width numeric rows contiguously, which makes
//! whole-row access one cache line instead of `k` scattered reads.

use explore_storage::{Column, DataType, Field, Result, Schema, StorageError, Table, Value};

/// Row-major layout of the numeric columns of a table.
///
/// String columns are not stored: they are variable width, and the
/// surveyed hybrid stores keep them out of their fixed-width row regions
/// too.
#[derive(Debug, Clone)]
pub struct RowStore {
    schema: Schema,
    /// Indices (into schema) of numeric fields, in row order.
    numeric_fields: Vec<usize>,
    /// `rows * numeric_fields.len()` values, row-major. Int64 values are
    /// stored as their f64 widening (exact up to 2^53, which covers every
    /// generated workload).
    data: Vec<f64>,
    rows: usize,
}

impl RowStore {
    /// Convert a column-major table into row-major layout.
    pub fn from_table(table: &Table) -> Self {
        let schema = table.schema().clone();
        let numeric_fields: Vec<usize> = schema
            .fields()
            .iter()
            .enumerate()
            .filter(|(_, f)| f.data_type().is_numeric())
            .map(|(i, _)| i)
            .collect();
        let rows = table.num_rows();
        let width = numeric_fields.len();
        let mut data = vec![0.0f64; rows * width];
        for (slot, &fi) in numeric_fields.iter().enumerate() {
            let col = table.column_at(fi);
            if let Some(v) = col.as_i64() {
                for (r, &x) in v.iter().enumerate() {
                    data[r * width + slot] = x as f64;
                }
            } else if let Some(v) = col.as_f64() {
                for (r, &x) in v.iter().enumerate() {
                    data[r * width + slot] = x;
                }
            }
        }
        RowStore {
            schema,
            numeric_fields,
            data,
            rows,
        }
    }

    /// Number of rows.
    pub fn num_rows(&self) -> usize {
        self.rows
    }

    /// The store's schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Width (number of numeric fields) of each packed row.
    pub fn row_width(&self) -> usize {
        self.numeric_fields.len()
    }

    /// The packed numeric row at `row`.
    #[inline]
    fn numeric_row(&self, row: usize) -> &[f64] {
        let w = self.row_width();
        &self.data[row * w..(row + 1) * w]
    }

    /// The numeric fields of row `row` as dynamic values, in schema
    /// order.
    pub fn row(&self, row: usize) -> Result<Vec<Value>> {
        if row >= self.rows {
            return Err(StorageError::RowOutOfBounds {
                index: row,
                len: self.rows,
            });
        }
        let packed = self.numeric_row(row);
        Ok((self.numeric_fields.iter().zip(packed))
            .map(|(&fi, &x)| match self.schema.fields()[fi].data_type() {
                DataType::Int64 => Value::Int(x as i64),
                _ => Value::Float(x),
            })
            .collect())
    }

    /// Sum a window of full rows across all numeric fields — the
    /// "tuple-at-a-time touch every attribute" access pattern that favours
    /// row layout; used by the layout experiments as the OLTP-ish probe.
    pub fn sum_rows(&self, start: usize, len: usize) -> f64 {
        let w = self.row_width();
        let end = (start + len).min(self.rows);
        self.data[start * w..end * w].iter().sum()
    }

    /// Reconstruct the numeric columns as a column-major [`Table`] (used
    /// in tests to verify the layouts agree).
    pub fn to_table(&self) -> Table {
        let w = self.row_width();
        let fields: Vec<Field> = (self.numeric_fields.iter())
            .map(|&fi| self.schema.fields()[fi].clone())
            .collect();
        let columns = (fields.iter().enumerate())
            .map(|(slot, f)| {
                let vals = (0..self.rows).map(|r| self.data[r * w + slot]);
                match f.data_type() {
                    DataType::Int64 => Column::from(vals.map(|x| x as i64).collect::<Vec<_>>()),
                    _ => Column::from(vals.collect::<Vec<_>>()),
                }
            })
            .collect();
        Table::new(Schema::new(fields).expect("fields of a schema"), columns)
            .expect("shape preserved")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use explore_storage::gen::{sales_table, SalesConfig};

    #[test]
    fn roundtrip_table_rowstore_table() {
        let t = sales_table(&SalesConfig {
            rows: 100,
            ..SalesConfig::default()
        });
        let rs = RowStore::from_table(&t);
        assert_eq!(rs.num_rows(), 100);
        assert_eq!(rs.row_width(), 3); // price, discount, qty
        assert_eq!(
            rs.to_table(),
            t.project(&["price", "discount", "qty"]).unwrap()
        );
    }

    #[test]
    fn row_access_matches_table() {
        let t = sales_table(&SalesConfig {
            rows: 20,
            ..SalesConfig::default()
        });
        let rs = RowStore::from_table(&t);
        let numeric = t.project(&["price", "discount", "qty"]).unwrap();
        for r in [0usize, 7, 19] {
            assert_eq!(rs.row(r).unwrap(), numeric.row(r).unwrap());
        }
        assert!(rs.row(20).is_err());
    }

    #[test]
    fn sum_rows_window() {
        let t = sales_table(&SalesConfig {
            rows: 10,
            ..SalesConfig::default()
        });
        let rs = RowStore::from_table(&t);
        let manual: f64 = (2..5).map(|r| rs.numeric_row(r).iter().sum::<f64>()).sum();
        assert!((rs.sum_rows(2, 3) - manual).abs() < 1e-9);
        // Window clamped at the end.
        let tail = rs.sum_rows(8, 100);
        let manual_tail: f64 = (8..10).map(|r| rs.numeric_row(r).iter().sum::<f64>()).sum();
        assert!((tail - manual_tail).abs() < 1e-9);
    }
}
