//! Scalar values and data types.
//!
//! The engine supports three physical types — 64-bit integers, 64-bit
//! floats and UTF-8 strings — which are sufficient to express every
//! workload in the surveyed systems (cracking operates on integers,
//! AQP on numeric measures, SeeDB on dimension strings, and so on).

use std::cmp::Ordering;
use std::fmt;

/// Physical data type of a column.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DataType {
    /// 64-bit signed integer.
    Int64,
    /// 64-bit IEEE-754 float.
    Float64,
    /// UTF-8 string.
    Utf8,
}

impl DataType {
    /// Human-readable name, used in error messages.
    pub fn name(self) -> &'static str {
        match self {
            DataType::Int64 => "Int64",
            DataType::Float64 => "Float64",
            DataType::Utf8 => "Utf8",
        }
    }

    /// Whether this type supports arithmetic aggregation (SUM/AVG/...).
    pub fn is_numeric(self) -> bool {
        matches!(self, DataType::Int64 | DataType::Float64)
    }
}

impl fmt::Display for DataType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// A dynamically-typed scalar value.
///
/// `Value` appears at the engine's edges — query literals, result rows,
/// example tuples supplied by a user. Hot loops never touch `Value`;
/// they operate directly on the typed column vectors.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    Int(i64),
    Float(f64),
    Str(String),
    /// SQL-style missing value.
    Null,
}

impl Value {
    /// The data type of this value, or `None` for `Null`.
    pub fn data_type(&self) -> Option<DataType> {
        match self {
            Value::Int(_) => Some(DataType::Int64),
            Value::Float(_) => Some(DataType::Float64),
            Value::Str(_) => Some(DataType::Utf8),
            Value::Null => None,
        }
    }

    /// Extract an `i64`, if this value is an integer.
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Value::Int(v) => Some(*v),
            _ => None,
        }
    }

    /// Extract an `f64`. Integers are widened, making numeric literals
    /// interchangeable in predicates over float columns.
    pub fn as_float(&self) -> Option<f64> {
        match self {
            Value::Float(v) => Some(*v),
            Value::Int(v) => Some(*v as f64),
            _ => None,
        }
    }

    /// Extract a string slice, if this value is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Total ordering used for sorting result rows and computing
    /// top-k: Null < Int/Float (numerically) < Str (lexicographically).
    /// Float NaNs sort after all other floats.
    pub fn total_cmp(&self, other: &Value) -> Ordering {
        fn rank(v: &Value) -> u8 {
            match v {
                Value::Null => 0,
                Value::Int(_) | Value::Float(_) => 1,
                Value::Str(_) => 2,
            }
        }
        match (self, other) {
            (Value::Int(a), Value::Int(b)) => a.cmp(b),
            (Value::Float(a), Value::Float(b)) => a.total_cmp(b),
            (Value::Int(a), Value::Float(b)) => (*a as f64).total_cmp(b),
            (Value::Float(a), Value::Int(b)) => a.total_cmp(&(*b as f64)),
            (Value::Str(a), Value::Str(b)) => a.cmp(b),
            _ => rank(self).cmp(&rank(other)),
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Int(v) => write!(f, "{v}"),
            Value::Float(v) => write!(f, "{v}"),
            Value::Str(v) => f.write_str(v),
            Value::Null => f.write_str("NULL"),
        }
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}
impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::Float(v)
    }
}
impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Str(v.to_owned())
    }
}
impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Str(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn data_types_report_names() {
        assert_eq!(DataType::Int64.name(), "Int64");
        assert!(DataType::Float64.is_numeric());
        assert!(!DataType::Utf8.is_numeric());
    }

    #[test]
    fn value_accessors() {
        assert_eq!(Value::Int(3).as_int(), Some(3));
        assert_eq!(Value::Int(3).as_float(), Some(3.0));
        assert_eq!(Value::Float(2.5).as_float(), Some(2.5));
        assert_eq!(Value::Float(2.5).as_int(), None);
        assert_eq!(Value::from("x").as_str(), Some("x"));
        assert_eq!(Value::Null.data_type(), None);
    }

    #[test]
    fn total_cmp_orders_mixed_numerics() {
        assert_eq!(Value::Int(2).total_cmp(&Value::Float(2.5)), Ordering::Less);
        assert_eq!(Value::Float(3.0).total_cmp(&Value::Int(3)), Ordering::Equal);
        assert_eq!(Value::Null.total_cmp(&Value::Int(i64::MIN)), Ordering::Less);
        assert_eq!(
            Value::Str("a".into()).total_cmp(&Value::Int(i64::MAX)),
            Ordering::Greater
        );
    }

    #[test]
    fn total_cmp_handles_nan() {
        let nan = Value::Float(f64::NAN);
        assert_eq!(nan.total_cmp(&Value::Float(1.0)), Ordering::Greater);
        assert_eq!(nan.total_cmp(&nan.clone()), Ordering::Equal);
    }

    #[test]
    fn display_formats() {
        assert_eq!(Value::Int(7).to_string(), "7");
        assert_eq!(Value::from("hi").to_string(), "hi");
        assert_eq!(Value::Null.to_string(), "NULL");
    }
}
