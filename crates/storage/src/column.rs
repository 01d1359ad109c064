//! Typed, contiguous column vectors — the engine's physical unit of storage.
//!
//! Hot paths (scans, cracking, sampling) match once on the column's type
//! and then operate on the raw `&[T]` slice, so per-row dispatch cost is
//! zero, following the column-at-a-time execution model of the systems
//! surveyed in the tutorial's Database Layer section.

use crate::error::{Result, StorageError};
use crate::value::{DataType, Value};

/// A single column of data. All variants store their values densely;
/// there is no null bitmap — exploration workloads in the surveyed papers
/// operate on cleaned numeric/categorical data, and `Value::Null` exists
/// only at the API edge.
#[derive(Debug, Clone, PartialEq)]
pub enum Column {
    Int64(Vec<i64>),
    Float64(Vec<f64>),
    Utf8(Vec<String>),
}

impl Column {
    /// Create an empty column of the given type.
    pub fn empty(data_type: DataType) -> Self {
        match data_type {
            DataType::Int64 => Column::Int64(Vec::new()),
            DataType::Float64 => Column::Float64(Vec::new()),
            DataType::Utf8 => Column::Utf8(Vec::new()),
        }
    }

    /// Create an empty column with pre-reserved capacity.
    pub fn with_capacity(data_type: DataType, capacity: usize) -> Self {
        match data_type {
            DataType::Int64 => Column::Int64(Vec::with_capacity(capacity)),
            DataType::Float64 => Column::Float64(Vec::with_capacity(capacity)),
            DataType::Utf8 => Column::Utf8(Vec::with_capacity(capacity)),
        }
    }

    /// The column's physical type.
    pub fn data_type(&self) -> DataType {
        match self {
            Column::Int64(_) => DataType::Int64,
            Column::Float64(_) => DataType::Float64,
            Column::Utf8(_) => DataType::Utf8,
        }
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        match self {
            Column::Int64(v) => v.len(),
            Column::Float64(v) => v.len(),
            Column::Utf8(v) => v.len(),
        }
    }

    /// True when the column holds no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Read the value at `row` as a dynamic [`Value`]. Edge-of-engine
    /// only; hot loops use the typed slice accessors instead.
    pub fn value(&self, row: usize) -> Result<Value> {
        let len = self.len();
        if row >= len {
            return Err(StorageError::RowOutOfBounds { index: row, len });
        }
        Ok(match self {
            Column::Int64(v) => Value::Int(v[row]),
            Column::Float64(v) => Value::Float(v[row]),
            Column::Utf8(v) => Value::Str(v[row].clone()),
        })
    }

    /// Borrow the raw `i64` slice, failing on type mismatch.
    pub fn as_i64(&self) -> Option<&[i64]> {
        match self {
            Column::Int64(v) => Some(v),
            _ => None,
        }
    }

    /// Borrow the raw `f64` slice, failing on type mismatch.
    pub fn as_f64(&self) -> Option<&[f64]> {
        match self {
            Column::Float64(v) => Some(v),
            _ => None,
        }
    }

    /// Borrow the raw string slice, failing on type mismatch.
    pub fn as_utf8(&self) -> Option<&[String]> {
        match self {
            Column::Utf8(v) => Some(v),
            _ => None,
        }
    }

    /// Read row `row` as an `f64`, widening integers. Returns `None`
    /// for string columns. Panics if `row` is out of bounds (callers in
    /// hot loops have already validated the range).
    #[inline]
    pub fn numeric_at(&self, row: usize) -> Option<f64> {
        match self {
            Column::Int64(v) => Some(v[row] as f64),
            Column::Float64(v) => Some(v[row]),
            Column::Utf8(_) => None,
        }
    }

    /// Append a dynamic value, checking its type.
    pub fn push(&mut self, value: Value) -> Result<()> {
        match (self, value) {
            (Column::Int64(v), Value::Int(x)) => v.push(x),
            (Column::Float64(v), Value::Float(x)) => v.push(x),
            // Integer literals are accepted into float columns, mirroring
            // the widening rule in `Value::as_float`.
            (Column::Float64(v), Value::Int(x)) => v.push(x as f64),
            (Column::Utf8(v), Value::Str(x)) => v.push(x),
            (col, value) => {
                return Err(StorageError::TypeMismatch {
                    column: String::new(),
                    expected: col.data_type().name(),
                    found: value.data_type().map_or("Null", DataType::name),
                })
            }
        }
        Ok(())
    }

    /// Overwrite the value at `row` in place, with the same type rules
    /// as [`Column::push`] (integer literals widen into float columns).
    /// Backs in-place table updates, which the result cache observes
    /// through its epoch protocol.
    pub fn set(&mut self, row: usize, value: Value) -> Result<()> {
        let len = self.len();
        if row >= len {
            return Err(StorageError::RowOutOfBounds { index: row, len });
        }
        match (self, value) {
            (Column::Int64(v), Value::Int(x)) => v[row] = x,
            (Column::Float64(v), Value::Float(x)) => v[row] = x,
            (Column::Float64(v), Value::Int(x)) => v[row] = x as f64,
            (Column::Utf8(v), Value::Str(x)) => v[row] = x,
            (col, value) => {
                return Err(StorageError::TypeMismatch {
                    column: String::new(),
                    expected: col.data_type().name(),
                    found: value.data_type().map_or("Null", DataType::name),
                })
            }
        }
        Ok(())
    }

    /// Gather the rows named by `sel` (a selection vector of row ids)
    /// into a new column. Out-of-range ids are a logic error upstream
    /// and panic.
    pub fn gather(&self, sel: &[u32]) -> Column {
        match self {
            Column::Int64(v) => Column::Int64(sel.iter().map(|&i| v[i as usize]).collect()),
            Column::Float64(v) => Column::Float64(sel.iter().map(|&i| v[i as usize]).collect()),
            Column::Utf8(v) => Column::Utf8(sel.iter().map(|&i| v[i as usize].clone()).collect()),
        }
    }

    /// Append all rows of `other`, which must have the same type.
    pub fn extend_from(&mut self, other: &Column) -> Result<()> {
        match (self, other) {
            (Column::Int64(a), Column::Int64(b)) => a.extend_from_slice(b),
            (Column::Float64(a), Column::Float64(b)) => a.extend_from_slice(b),
            (Column::Utf8(a), Column::Utf8(b)) => a.extend_from_slice(b),
            (a, b) => {
                return Err(StorageError::TypeMismatch {
                    column: String::new(),
                    expected: a.data_type().name(),
                    found: b.data_type().name(),
                })
            }
        }
        Ok(())
    }

    /// [`extend_from`](Self::extend_from) by move: `other`'s values are
    /// moved in, not cloned.
    pub(crate) fn absorb(&mut self, other: Column) -> Result<()> {
        match (self, other) {
            (Column::Int64(a), Column::Int64(mut b)) => a.append(&mut b),
            (Column::Float64(a), Column::Float64(mut b)) => a.append(&mut b),
            (Column::Utf8(a), Column::Utf8(mut b)) => a.append(&mut b),
            (a, b) => {
                return Err(StorageError::TypeMismatch {
                    column: String::new(),
                    expected: a.data_type().name(),
                    found: b.data_type().name(),
                })
            }
        }
        Ok(())
    }

    /// Minimum and maximum as `f64` for numeric columns (`None` when the
    /// column is empty or non-numeric). Used by synopses and grid indexes.
    pub fn numeric_min_max(&self) -> Option<(f64, f64)> {
        match self {
            Column::Int64(v) => {
                let min = *v.iter().min()?;
                let max = *v.iter().max()?;
                Some((min as f64, max as f64))
            }
            Column::Float64(v) => {
                let mut it = v.iter().copied();
                let first = it.next()?;
                let (mut lo, mut hi) = (first, first);
                for x in it {
                    if x < lo {
                        lo = x;
                    }
                    if x > hi {
                        hi = x;
                    }
                }
                Some((lo, hi))
            }
            Column::Utf8(_) => None,
        }
    }
}

impl From<Vec<i64>> for Column {
    fn from(v: Vec<i64>) -> Self {
        Column::Int64(v)
    }
}
impl From<Vec<f64>> for Column {
    fn from(v: Vec<f64>) -> Self {
        Column::Float64(v)
    }
}
impl From<Vec<String>> for Column {
    fn from(v: Vec<String>) -> Self {
        Column::Utf8(v)
    }
}
impl From<Vec<&str>> for Column {
    fn from(v: Vec<&str>) -> Self {
        Column::Utf8(v.into_iter().map(str::to_owned).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_type() {
        let c = Column::from(vec![1i64, 2, 3]);
        assert_eq!(c.data_type(), DataType::Int64);
        assert_eq!(c.len(), 3);
        assert!(!c.is_empty());
        assert!(Column::empty(DataType::Utf8).is_empty());
    }

    #[test]
    fn value_access_and_bounds() {
        let c = Column::from(vec![10i64, 20]);
        assert_eq!(c.value(1).unwrap(), Value::Int(20));
        assert!(matches!(
            c.value(2),
            Err(StorageError::RowOutOfBounds { index: 2, len: 2 })
        ));
    }

    #[test]
    fn typed_slice_accessors() {
        let c = Column::from(vec![1.5f64, 2.5]);
        assert_eq!(c.as_f64().unwrap(), &[1.5, 2.5]);
        assert!(c.as_i64().is_none());
        assert_eq!(c.numeric_at(0), Some(1.5));
        let s = Column::from(vec!["a", "b"]);
        assert_eq!(s.as_utf8().unwrap()[1], "b");
        assert_eq!(s.numeric_at(0), None);
    }

    #[test]
    fn push_widens_ints_into_float_columns() {
        let mut c = Column::empty(DataType::Float64);
        c.push(Value::Int(3)).unwrap();
        c.push(Value::Float(0.5)).unwrap();
        assert_eq!(c.as_f64().unwrap(), &[3.0, 0.5]);
        assert!(c.push(Value::Str("x".into())).is_err());
    }

    #[test]
    fn gather_reorders_and_duplicates() {
        let c = Column::from(vec!["a", "b", "c"]);
        let g = c.gather(&[2, 0, 0]);
        assert_eq!(g.as_utf8().unwrap(), &["c", "a", "a"]);
    }

    #[test]
    fn extend_from_checks_types() {
        let mut a = Column::from(vec![1i64]);
        a.extend_from(&Column::from(vec![2i64, 3])).unwrap();
        assert_eq!(a.as_i64().unwrap(), &[1, 2, 3]);
        assert!(a.extend_from(&Column::from(vec![1.0])).is_err());
    }

    #[test]
    fn min_max() {
        assert_eq!(
            Column::from(vec![3i64, -1, 7]).numeric_min_max(),
            Some((-1.0, 7.0))
        );
        assert_eq!(
            Column::from(vec![2.0f64, 0.5]).numeric_min_max(),
            Some((0.5, 2.0))
        );
        assert_eq!(Column::from(vec!["x"]).numeric_min_max(), None);
        assert_eq!(Column::empty(DataType::Int64).numeric_min_max(), None);
    }
}
