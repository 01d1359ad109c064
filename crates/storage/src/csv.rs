//! Minimal CSV codec (comma-separated, no quoting/escaping).
//!
//! This is the *eager* loading path: parse everything, materialize a
//! [`Table`]. The adaptive-loading crate implements the NoDB-style lazy
//! alternative on the same wire format, so the two are directly
//! comparable in experiment E4. Quoting is deliberately unsupported —
//! the surveyed raw-data engines evaluate on machine-generated numeric
//! CSVs, and rejecting quoted input keeps the two parsers semantically
//! identical.

use crate::column::Column;
use crate::error::{Result, StorageError};
use crate::schema::Schema;
use crate::table::Table;

/// Serialize a table to CSV with a header row.
pub fn write_csv(table: &Table) -> String {
    let mut out = String::new();
    out.push_str(&table.schema().names().join(","));
    out.push('\n');
    for row in 0..table.num_rows() {
        for (i, col) in table.columns().iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            match col {
                Column::Int64(v) => out.push_str(&v[row].to_string()),
                Column::Float64(v) => out.push_str(&format!("{:?}", v[row])),
                Column::Utf8(v) => out.push_str(&v[row]),
            }
        }
        out.push('\n');
    }
    out
}

/// Parse a full CSV document against a known schema. The header row is
/// validated against the schema's column names.
pub fn read_csv(text: &str, schema: &Schema) -> Result<Table> {
    let mut lines = text.lines().enumerate();
    let (_, header) = lines.next().ok_or(StorageError::Csv {
        line: 1,
        message: "empty input".into(),
    })?;
    let names: Vec<&str> = header.split(',').collect();
    let expected = schema.names();
    if names != expected {
        return Err(StorageError::Csv {
            line: 1,
            message: format!("header {names:?} does not match schema {expected:?}"),
        });
    }
    let mut columns: Vec<Column> = schema
        .fields()
        .iter()
        .map(|f| Column::empty(f.data_type()))
        .collect();
    for (lineno, line) in lines {
        if line.is_empty() {
            continue;
        }
        let mut fields = line.split(',');
        for (ci, col) in columns.iter_mut().enumerate() {
            let raw = fields.next().ok_or_else(|| StorageError::Csv {
                line: lineno + 1,
                message: format!("missing field {ci}"),
            })?;
            push_parsed(col, raw, lineno + 1)?;
        }
        if fields.next().is_some() {
            return Err(StorageError::Csv {
                line: lineno + 1,
                message: "too many fields".into(),
            });
        }
    }
    Table::new(schema.clone(), columns)
}

/// Parse one raw field into a typed column. Shared with the adaptive
/// loader so both paths have identical parsing semantics.
pub fn push_parsed(col: &mut Column, raw: &str, line: usize) -> Result<()> {
    match col {
        Column::Int64(v) => {
            let x = raw.parse::<i64>().map_err(|e| StorageError::Csv {
                line,
                message: format!("bad int {raw:?}: {e}"),
            })?;
            v.push(x);
        }
        Column::Float64(v) => {
            let x = raw.parse::<f64>().map_err(|e| StorageError::Csv {
                line,
                message: format!("bad float {raw:?}: {e}"),
            })?;
            v.push(x);
        }
        Column::Utf8(v) => v.push(raw.to_owned()),
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{sales_table, SalesConfig};
    use crate::value::DataType;

    #[test]
    fn roundtrip_preserves_table() {
        let t = sales_table(&SalesConfig {
            rows: 50,
            ..SalesConfig::default()
        });
        let csv = write_csv(&t);
        let back = read_csv(&csv, t.schema()).unwrap();
        assert_eq!(t, back);
    }

    #[test]
    fn header_mismatch_rejected() {
        let schema = Schema::of(&[("a", DataType::Int64)]);
        assert!(read_csv("b\n1\n", &schema).is_err());
        assert!(read_csv("", &schema).is_err());
    }

    #[test]
    fn malformed_rows_reported_with_line_numbers() {
        let schema = Schema::of(&[("a", DataType::Int64), ("b", DataType::Float64)]);
        let err = read_csv("a,b\n1,2.0\nx,3.0\n", &schema).unwrap_err();
        match err {
            StorageError::Csv { line, .. } => assert_eq!(line, 3),
            other => panic!("unexpected {other:?}"),
        }
        assert!(read_csv("a,b\n1\n", &schema).is_err());
        assert!(read_csv("a,b\n1,2.0,3\n", &schema).is_err());
    }

    #[test]
    fn empty_lines_skipped() {
        let schema = Schema::of(&[("a", DataType::Int64)]);
        let t = read_csv("a\n1\n\n2\n", &schema).unwrap();
        assert_eq!(t.num_rows(), 2);
    }

    #[test]
    fn float_roundtrip_is_exact() {
        use crate::schema::Schema;
        let schema = Schema::of(&[("x", DataType::Float64)]);
        let t = Table::new(
            schema.clone(),
            vec![Column::from(vec![0.1f64, 1e-300, 12345.6789])],
        )
        .unwrap();
        let back = read_csv(&write_csv(&t), &schema).unwrap();
        assert_eq!(t, back);
    }
}
