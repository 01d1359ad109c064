//! Row-major storage layout.
//!
//! Adaptive storage (H2O-style, experiment E11) needs the same data in
//! both orientations so its cost model can choose per query. A
//! [`RowStore`] stores fixed-width numeric rows contiguously, which makes
//! whole-row access one cache line instead of `k` scattered reads.

use explore_storage::{Column, DataType, Result, Schema, StorageError, Table, Value};

/// Row-major layout of the numeric columns of a table.
///
/// Strings are kept in a side column-major vector (strings are variable
/// width; the surveyed hybrid stores make the same choice for their
/// fixed-width row regions).
#[derive(Debug, Clone)]
pub struct RowStore {
    schema: Schema,
    /// Indices (into schema) of numeric fields, in row order.
    numeric_fields: Vec<usize>,
    /// `rows * numeric_fields.len()` values, row-major. Int64 values are
    /// stored as their f64 widening (exact up to 2^53, which covers every
    /// generated workload).
    data: Vec<f64>,
    /// One Vec per Utf8 field (schema order preserved).
    strings: Vec<(usize, Vec<String>)>,
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
            match table.column_at(fi) {
                Column::Int64(v) => {
                    for (r, &x) in v.iter().enumerate() {
                        data[r * width + slot] = x as f64;
                    }
                }
                Column::Float64(v) => {
                    for (r, &x) in v.iter().enumerate() {
                        data[r * width + slot] = x;
                    }
                }
                Column::Utf8(_) => unreachable!("numeric_fields only"),
            }
        }
        let strings = schema
            .fields()
            .iter()
            .enumerate()
            .filter(|(_, f)| f.data_type() == DataType::Utf8)
            .map(|(i, _)| {
                let v = table.column_at(i).as_utf8().expect("type checked").to_vec();
                (i, v)
            })
            .collect();
        RowStore {
            schema,
            numeric_fields,
            data,
            strings,
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
    pub fn numeric_row(&self, row: usize) -> &[f64] {
        let w = self.row_width();
        &self.data[row * w..(row + 1) * w]
    }

    /// Slot (offset within the packed row) of a numeric column.
    pub fn numeric_slot(&self, name: &str) -> Result<usize> {
        let fi = self.schema.index_of(name)?;
        self.numeric_fields
            .iter()
            .position(|&i| i == fi)
            .ok_or_else(|| StorageError::TypeMismatch {
                column: name.to_owned(),
                expected: "numeric",
                found: "Utf8",
            })
    }

    /// Full dynamic row (numeric + string fields in schema order).
    pub fn row(&self, row: usize) -> Result<Vec<Value>> {
        if row >= self.rows {
            return Err(StorageError::RowOutOfBounds {
                index: row,
                len: self.rows,
            });
        }
        let packed = self.numeric_row(row);
        let mut out = Vec::with_capacity(self.schema.len());
        for (fi, field) in self.schema.fields().iter().enumerate() {
            match field.data_type() {
                DataType::Int64 => {
                    let slot = self.numeric_fields.iter().position(|&i| i == fi).unwrap();
                    out.push(Value::Int(packed[slot] as i64));
                }
                DataType::Float64 => {
                    let slot = self.numeric_fields.iter().position(|&i| i == fi).unwrap();
                    out.push(Value::Float(packed[slot]));
                }
                DataType::Utf8 => {
                    let v = &self.strings.iter().find(|(i, _)| *i == fi).unwrap().1;
                    out.push(Value::Str(v[row].clone()));
                }
            }
        }
        Ok(out)
    }

    /// Sum a window of full rows across all numeric fields — the
    /// "tuple-at-a-time touch every attribute" access pattern that favours
    /// row layout; used by the layout experiments as the OLTP-ish probe.
    pub fn sum_rows(&self, start: usize, len: usize) -> f64 {
        let w = self.row_width();
        let end = (start + len).min(self.rows);
        self.data[start * w..end * w].iter().sum()
    }

    /// Reconstruct a column-major [`Table`] (used in tests to verify the
    /// layouts agree).
    pub fn to_table(&self) -> Table {
        let w = self.row_width();
        let mut columns: Vec<Column> = self
            .schema
            .fields()
            .iter()
            .map(|f| Column::with_capacity(f.data_type(), self.rows))
            .collect();
        for (fi, col) in columns.iter_mut().enumerate() {
            match col {
                Column::Int64(v) => {
                    let slot = self.numeric_fields.iter().position(|&i| i == fi).unwrap();
                    v.extend((0..self.rows).map(|r| self.data[r * w + slot] as i64));
                }
                Column::Float64(v) => {
                    let slot = self.numeric_fields.iter().position(|&i| i == fi).unwrap();
                    v.extend((0..self.rows).map(|r| self.data[r * w + slot]));
                }
                Column::Utf8(v) => {
                    let src = &self.strings.iter().find(|(i, _)| *i == fi).unwrap().1;
                    v.extend(src.iter().cloned());
                }
            }
        }
        Table::new(self.schema.clone(), columns).expect("shape preserved")
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
        assert_eq!(rs.to_table(), t);
    }

    #[test]
    fn row_access_matches_table() {
        let t = sales_table(&SalesConfig {
            rows: 20,
            ..SalesConfig::default()
        });
        let rs = RowStore::from_table(&t);
        for r in [0usize, 7, 19] {
            assert_eq!(rs.row(r).unwrap(), t.row(r).unwrap());
        }
        assert!(rs.row(20).is_err());
    }

    #[test]
    fn numeric_slot_lookup() {
        let t = sales_table(&SalesConfig {
            rows: 5,
            ..SalesConfig::default()
        });
        let rs = RowStore::from_table(&t);
        assert_eq!(rs.numeric_slot("price").unwrap(), 0);
        assert_eq!(rs.numeric_slot("qty").unwrap(), 2);
        assert!(rs.numeric_slot("region").is_err());
        assert!(rs.numeric_slot("missing").is_err());
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
