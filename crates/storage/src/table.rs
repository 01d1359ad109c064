//! Tables: a schema plus equal-length columns.

use crate::column::Column;
use crate::error::{Result, StorageError};
use crate::schema::Schema;
use crate::value::Value;

/// An in-memory, column-oriented table.
#[derive(Debug, Clone, PartialEq)]
pub struct Table {
    schema: Schema,
    columns: Vec<Column>,
    rows: usize,
}

impl Table {
    /// Build a table from a schema and matching columns. Column count,
    /// types and lengths must all agree with the schema.
    pub fn new(schema: Schema, columns: Vec<Column>) -> Result<Self> {
        if schema.len() != columns.len() {
            return Err(StorageError::LengthMismatch {
                expected: schema.len(),
                found: columns.len(),
            });
        }
        for (field, col) in schema.fields().iter().zip(&columns) {
            if field.data_type() != col.data_type() {
                return Err(StorageError::TypeMismatch {
                    column: field.name().to_owned(),
                    expected: field.data_type().name(),
                    found: col.data_type().name(),
                });
            }
        }
        let rows = columns.first().map_or(0, Column::len);
        if let Some(col) = columns.iter().find(|c| c.len() != rows) {
            return Err(StorageError::LengthMismatch {
                expected: rows,
                found: col.len(),
            });
        }
        Ok(Table {
            schema,
            columns,
            rows,
        })
    }

    /// An empty table with the given schema.
    pub fn empty(schema: Schema) -> Self {
        let columns = schema
            .fields()
            .iter()
            .map(|f| Column::empty(f.data_type()))
            .collect();
        Table {
            schema,
            columns,
            rows: 0,
        }
    }

    /// The table's schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Number of rows.
    pub fn num_rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn num_columns(&self) -> usize {
        self.columns.len()
    }

    /// All columns in schema order.
    pub fn columns(&self) -> &[Column] {
        &self.columns
    }

    /// Borrow a column by name.
    pub fn column(&self, name: &str) -> Result<&Column> {
        self.schema.index_of(name).map(|i| &self.columns[i])
    }

    /// Borrow a column by ordinal.
    pub fn column_at(&self, index: usize) -> &Column {
        &self.columns[index]
    }

    /// Read a full row as dynamic values.
    pub fn row(&self, row: usize) -> Result<Vec<Value>> {
        if row >= self.rows {
            return Err(StorageError::RowOutOfBounds {
                index: row,
                len: self.rows,
            });
        }
        self.columns.iter().map(|c| c.value(row)).collect()
    }

    /// Append one row of dynamic values.
    pub fn push_row(&mut self, values: Vec<Value>) -> Result<()> {
        if values.len() != self.columns.len() {
            return Err(StorageError::LengthMismatch {
                expected: self.columns.len(),
                found: values.len(),
            });
        }
        for (col, value) in self.columns.iter_mut().zip(values) {
            col.push(value)?;
        }
        self.rows += 1;
        Ok(())
    }

    /// Overwrite one cell in place (same typing rules as
    /// [`Column::set`]). The engine's `update_where` builds on this and
    /// bumps the table's cache epoch afterwards.
    pub fn set_cell(&mut self, column: &str, row: usize, value: Value) -> Result<()> {
        if row >= self.rows {
            return Err(StorageError::RowOutOfBounds {
                index: row,
                len: self.rows,
            });
        }
        let index = self.schema.index_of(column)?;
        self.columns[index].set(row, value)
    }

    /// Append all rows of another table with an identical schema.
    pub fn append(&mut self, other: &Table) -> Result<()> {
        self.check_same_schema(other)?;
        for (a, b) in self.columns.iter_mut().zip(&other.columns) {
            a.extend_from(b)?;
        }
        self.rows += other.rows;
        Ok(())
    }

    /// [`append`](Self::append) by move: `other`'s cells are moved in,
    /// not cloned (an empty `self` takes `other`'s columns whole).
    pub(crate) fn absorb(&mut self, other: Table) -> Result<()> {
        self.check_same_schema(&other)?;
        if self.rows == 0 {
            *self = other;
            return Ok(());
        }
        for (a, b) in self.columns.iter_mut().zip(other.columns) {
            a.absorb(b)?;
        }
        self.rows += other.rows;
        Ok(())
    }

    fn check_same_schema(&self, other: &Table) -> Result<()> {
        if self.schema != other.schema {
            return Err(StorageError::InvalidQuery(
                "append requires identical schemas".into(),
            ));
        }
        Ok(())
    }

    /// Materialize the subset of rows named by a selection vector.
    pub fn gather(&self, sel: &[u32]) -> Table {
        let columns = self.columns.iter().map(|c| c.gather(sel)).collect();
        Table {
            schema: self.schema.clone(),
            columns,
            rows: sel.len(),
        }
    }

    /// Materialize the named columns at the rows of a selection vector:
    /// `project(names)?.gather(sel)` without cloning the unselected rows.
    pub fn gather_projected(&self, names: &[&str], sel: &[u32]) -> Result<Table> {
        let schema = self.schema.project(names)?;
        let columns = names
            .iter()
            .map(|n| self.column(n).map(|c| c.gather(sel)))
            .collect::<Result<Vec<_>>>()?;
        Ok(Table {
            schema,
            columns,
            rows: sel.len(),
        })
    }

    /// Project a subset of columns into a new table (clones column data).
    pub fn project(&self, names: &[&str]) -> Result<Table> {
        let schema = self.schema.project(names)?;
        let columns = names
            .iter()
            .map(|n| self.column(n).cloned())
            .collect::<Result<Vec<_>>>()?;
        Ok(Table {
            schema,
            columns,
            rows: self.rows,
        })
    }

    /// Render the first `limit` rows as an ASCII table — the engine's
    /// terminal result surface, used by the examples.
    pub fn pretty(&self, limit: usize) -> String {
        let names = self.schema.names();
        let shown = self.rows.min(limit);
        let mut cells: Vec<Vec<String>> = Vec::with_capacity(shown + 1);
        cells.push(names.iter().map(|s| s.to_string()).collect());
        for r in 0..shown {
            cells.push(
                self.columns
                    .iter()
                    .map(|c| c.value(r).map_or_else(|_| "?".into(), |v| v.to_string()))
                    .collect(),
            );
        }
        let mut widths = vec![0usize; names.len()];
        for row in &cells {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        let mut out = String::new();
        for (i, row) in cells.iter().enumerate() {
            for (w, cell) in widths.iter().zip(row) {
                out.push_str(&format!("| {cell:<w$} "));
            }
            out.push_str("|\n");
            if i == 0 {
                for w in &widths {
                    out.push_str(&format!("|{:-<1$}", "", w + 2));
                }
                out.push_str("|\n");
            }
        }
        if self.rows > shown {
            out.push_str(&format!("... {} more rows\n", self.rows - shown));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::DataType;

    fn sample() -> Table {
        Table::new(
            Schema::of(&[("id", DataType::Int64), ("name", DataType::Utf8)]),
            vec![
                Column::from(vec![1i64, 2, 3]),
                Column::from(vec!["a", "b", "c"]),
            ],
        )
        .unwrap()
    }

    #[test]
    fn construction_validates_shape() {
        let schema = Schema::of(&[("id", DataType::Int64)]);
        assert!(Table::new(schema.clone(), vec![]).is_err());
        assert!(Table::new(schema.clone(), vec![Column::from(vec![1.0])]).is_err());
        let t = Table::new(schema, vec![Column::from(vec![5i64])]).unwrap();
        assert_eq!(t.num_rows(), 1);
    }

    #[test]
    fn mismatched_column_lengths_rejected() {
        let schema = Schema::of(&[("a", DataType::Int64), ("b", DataType::Int64)]);
        let r = Table::new(
            schema,
            vec![Column::from(vec![1i64]), Column::from(vec![1i64, 2])],
        );
        assert!(r.is_err());
    }

    #[test]
    fn row_access_and_push() {
        let mut t = sample();
        assert_eq!(
            t.row(1).unwrap(),
            vec![Value::Int(2), Value::Str("b".into())]
        );
        t.push_row(vec![Value::Int(4), Value::from("d")]).unwrap();
        assert_eq!(t.num_rows(), 4);
        assert!(t.push_row(vec![Value::Int(4)]).is_err());
        assert!(t.row(99).is_err());
    }

    #[test]
    fn set_cell_updates_in_place_with_type_checks() {
        let mut t = sample();
        t.set_cell("id", 1, Value::Int(42)).unwrap();
        t.set_cell("name", 2, Value::from("z")).unwrap();
        assert_eq!(
            t.row(1).unwrap(),
            vec![Value::Int(42), Value::Str("b".into())]
        );
        assert_eq!(t.row(2).unwrap()[1], Value::Str("z".into()));
        assert!(t.set_cell("id", 1, Value::from("oops")).is_err());
        assert!(t.set_cell("id", 99, Value::Int(1)).is_err());
        assert!(t.set_cell("missing", 0, Value::Int(1)).is_err());
    }

    #[test]
    fn gather_and_project() {
        let t = sample();
        let g = t.gather(&[2, 0]);
        assert_eq!(g.num_rows(), 2);
        assert_eq!(g.row(0).unwrap()[0], Value::Int(3));
        let p = t.project(&["name"]).unwrap();
        assert_eq!(p.num_columns(), 1);
        assert_eq!(p.num_rows(), 3);
        assert!(t.project(&["zzz"]).is_err());
        let gp = t.gather_projected(&["name", "id"], &[2, 0]).unwrap();
        assert_eq!(gp, t.project(&["name", "id"]).unwrap().gather(&[2, 0]));
        assert!(t.gather_projected(&["zzz"], &[0]).is_err());
    }

    #[test]
    fn append_requires_same_schema() {
        let mut t = sample();
        let other = sample();
        t.append(&other).unwrap();
        assert_eq!(t.num_rows(), 6);
        let different = Table::empty(Schema::of(&[("x", DataType::Int64)]));
        assert!(t.append(&different).is_err());
    }

    #[test]
    fn absorb_is_append_by_move() {
        let mut appended = sample();
        appended.append(&sample()).unwrap();
        let mut absorbed = sample();
        absorbed.absorb(sample()).unwrap();
        assert_eq!(absorbed, appended);
        let mut empty = Table::empty(sample().schema().clone());
        empty.absorb(sample()).unwrap();
        assert_eq!(empty, sample());
        let different = Table::empty(Schema::of(&[("x", DataType::Int64)]));
        assert!(absorbed.absorb(different).is_err());
        assert_eq!(absorbed, appended);
    }

    #[test]
    fn pretty_prints_header_and_truncation() {
        let t = sample();
        let s = t.pretty(2);
        assert!(s.contains("id"));
        assert!(s.contains("name"));
        assert!(s.contains("1 more rows"));
    }

    #[test]
    fn empty_table() {
        let t = Table::empty(Schema::of(&[("x", DataType::Float64)]));
        assert_eq!(t.num_rows(), 0);
        assert_eq!(t.num_columns(), 1);
    }
}
