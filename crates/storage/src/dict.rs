//! Dictionary codes for a categorical (Utf8) column: interned once, each
//! row's label becomes a dense `u32` code, so per-group state lives in a
//! `Vec` indexed by code instead of a map keyed on `String`.

use std::collections::HashMap;

use crate::error::{Result, StorageError};
use crate::table::Table;

/// A Utf8 column's rows as dense codes, with the distinct labels in
/// first-seen (row) order: row `i` holds `labels()[codes()[i]]`.
#[derive(Debug, Clone)]
pub struct Dictionary {
    codes: Vec<u32>,
    labels: Vec<String>,
}

impl Dictionary {
    /// Encode `column` of `table`, which must be Utf8.
    pub fn encode(table: &Table, column: &str) -> Result<Self> {
        let col = table.column(column)?;
        let values = col.as_utf8().ok_or_else(|| StorageError::TypeMismatch {
            column: column.to_owned(),
            expected: "Utf8",
            found: col.data_type().name(),
        })?;
        let mut index: HashMap<&str, u32> = HashMap::new();
        let mut labels = Vec::new();
        let codes = values
            .iter()
            .map(|v| {
                *index.entry(v).or_insert_with(|| {
                    labels.push(v.clone());
                    (labels.len() - 1) as u32
                })
            })
            .collect();
        Ok(Dictionary { codes, labels })
    }

    /// One code per row.
    pub fn codes(&self) -> &[u32] {
        &self.codes
    }

    /// The distinct labels, indexed by code.
    pub fn labels(&self) -> &[String] {
        &self.labels
    }

    /// Every code, ordered by its label — the deterministic order results
    /// keyed on labels are reported in.
    pub fn label_order(&self) -> Vec<u32> {
        let mut order: Vec<u32> = (0..self.labels.len() as u32).collect();
        order.sort_unstable_by(|&a, &b| self.labels[a as usize].cmp(&self.labels[b as usize]));
        order
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Column, DataType, Schema};

    #[test]
    fn codes_are_dense_in_first_seen_order() {
        let t = Table::new(
            Schema::of(&[("g", DataType::Utf8), ("x", DataType::Int64)]),
            vec![
                Column::from(vec!["b", "a", "b", "c", "a"]),
                Column::from(vec![1i64, 2, 3, 4, 5]),
            ],
        )
        .unwrap();
        let d = Dictionary::encode(&t, "g").unwrap();
        assert_eq!(d.codes(), &[0, 1, 0, 2, 1]);
        assert_eq!(d.labels(), &["b", "a", "c"]);
        assert_eq!(d.label_order(), vec![1, 0, 2]);
        assert!(matches!(
            Dictionary::encode(&t, "x"),
            Err(StorageError::TypeMismatch {
                expected: "Utf8",
                ..
            })
        ));
        assert!(Dictionary::encode(&t, "nope").is_err());
    }
}
