//! Hash equi-joins.
//!
//! Exploration over real schemas crosses tables: recommendation surfaces
//! combine fact and dimension tables. One classic hash join (build on
//! the smaller input, probe with the larger) covers the uses in this
//! workspace: the fact and dimension joins in
//! `tests/middleware_composition.rs` and the `hash_join_matches_nested_loop`
//! property test.

use std::collections::HashMap;

use crate::column::Column;
use crate::error::{Result, StorageError};
use crate::schema::{Field, Schema};
use crate::table::Table;

/// Inner hash equi-join of `left` and `right` on
/// `left.left_key = right.right_key`.
///
/// The output schema is all left columns followed by all right columns;
/// name collisions on the right are disambiguated with a `right_`
/// prefix (and an error if even that collides). Join keys may be Int64
/// or Utf8; both sides must share the key type.
pub fn hash_join(left: &Table, right: &Table, left_key: &str, right_key: &str) -> Result<Table> {
    let lcol = left.column(left_key)?;
    let rcol = right.column(right_key)?;
    if lcol.data_type() != rcol.data_type() {
        return Err(StorageError::TypeMismatch {
            column: format!("{left_key} vs {right_key}"),
            expected: lcol.data_type().name(),
            found: rcol.data_type().name(),
        });
    }
    // Build (on the right side), probe with the left, emitting row-id
    // pairs in left order — deterministic output.
    let pairs: Vec<(u32, u32)> = match (lcol, rcol) {
        (Column::Int64(l), Column::Int64(r)) => {
            let mut index: HashMap<i64, Vec<u32>> = HashMap::new();
            for (i, &k) in r.iter().enumerate() {
                index.entry(k).or_default().push(i as u32);
            }
            probe(l.iter().copied(), &index)
        }
        (Column::Utf8(l), Column::Utf8(r)) => {
            let mut index: HashMap<&str, Vec<u32>> = HashMap::new();
            for (i, k) in r.iter().enumerate() {
                index.entry(k.as_str()).or_default().push(i as u32);
            }
            probe(l.iter().map(String::as_str), &index)
        }
        _ => {
            return Err(StorageError::TypeMismatch {
                column: left_key.to_owned(),
                expected: "Int64 or Utf8 join key",
                found: lcol.data_type().name(),
            })
        }
    };

    let (left_sel, right_sel): (Vec<u32>, Vec<u32>) = pairs.into_iter().unzip();
    let left_part = left.gather(&left_sel);
    let right_part = right.gather(&right_sel);

    // Merge schemas with collision handling.
    let mut fields: Vec<Field> = left.schema().fields().to_vec();
    let mut columns: Vec<Column> = left_part.columns().to_vec();
    for (f, c) in right.schema().fields().iter().zip(right_part.columns()) {
        let name = if left.schema().index_of(f.name()).is_ok() {
            format!("right_{}", f.name())
        } else {
            f.name().to_owned()
        };
        fields.push(Field::new(name, f.data_type()));
        columns.push(c.clone());
    }
    Table::new(Schema::new(fields)?, columns)
}

fn probe<K: std::hash::Hash + Eq>(
    keys: impl Iterator<Item = K>,
    index: &HashMap<K, Vec<u32>>,
) -> Vec<(u32, u32)> {
    let mut out = Vec::new();
    for (li, k) in keys.enumerate() {
        if let Some(matches) = index.get(&k) {
            for &ri in matches {
                out.push((li as u32, ri));
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::{DataType, Value};

    fn orders() -> Table {
        Table::new(
            Schema::of(&[
                ("product_id", DataType::Int64),
                ("amount", DataType::Float64),
            ]),
            vec![
                Column::from(vec![1i64, 2, 1, 3, 99]),
                Column::from(vec![10.0, 20.0, 30.0, 40.0, 50.0]),
            ],
        )
        .unwrap()
    }

    fn products() -> Table {
        Table::new(
            Schema::of(&[("id", DataType::Int64), ("name", DataType::Utf8)]),
            vec![
                Column::from(vec![1i64, 2, 3]),
                Column::from(vec!["scope", "lens", "mount"]),
            ],
        )
        .unwrap()
    }

    #[test]
    fn inner_join_matches_pairs() {
        let j = hash_join(&orders(), &products(), "product_id", "id").unwrap();
        // 99 has no product: 4 surviving rows, in left order.
        assert_eq!(j.num_rows(), 4);
        assert_eq!(
            j.schema().names(),
            vec!["product_id", "amount", "id", "name"]
        );
        assert_eq!(j.row(0).unwrap()[3], Value::from("scope"));
        assert_eq!(j.row(2).unwrap()[3], Value::from("scope")); // second order of product 1
        assert_eq!(j.row(3).unwrap()[3], Value::from("mount"));
    }

    #[test]
    fn duplicate_build_keys_fan_out() {
        let dup = Table::new(
            Schema::of(&[("id", DataType::Int64), ("tag", DataType::Utf8)]),
            vec![Column::from(vec![1i64, 1]), Column::from(vec!["a", "b"])],
        )
        .unwrap();
        let j = hash_join(&orders(), &dup, "product_id", "id").unwrap();
        // Orders for product 1 (two of them) × two tags = 4 rows.
        assert_eq!(j.num_rows(), 4);
    }

    #[test]
    fn string_keys_join() {
        let left = Table::new(
            Schema::of(&[("k", DataType::Utf8), ("v", DataType::Int64)]),
            vec![Column::from(vec!["x", "y"]), Column::from(vec![1i64, 2])],
        )
        .unwrap();
        let right = Table::new(
            Schema::of(&[("k", DataType::Utf8), ("w", DataType::Int64)]),
            vec![Column::from(vec!["y", "z"]), Column::from(vec![9i64, 8])],
        )
        .unwrap();
        let j = hash_join(&left, &right, "k", "k").unwrap();
        assert_eq!(j.num_rows(), 1);
        // Collision on `k` gets prefixed.
        assert_eq!(j.schema().names(), vec!["k", "v", "right_k", "w"]);
    }

    #[test]
    fn empty_result_and_empty_inputs() {
        let j = hash_join(&orders(), &products(), "product_id", "id").unwrap();
        assert!(j.num_rows() > 0);
        let empty = Table::empty(products().schema().clone());
        let j = hash_join(&orders(), &empty, "product_id", "id").unwrap();
        assert_eq!(j.num_rows(), 0);
        assert_eq!(j.num_columns(), 4);
    }

    #[test]
    fn type_errors() {
        assert!(hash_join(&orders(), &products(), "amount", "id").is_err());
        assert!(hash_join(&orders(), &products(), "product_id", "name").is_err());
        assert!(hash_join(&orders(), &products(), "missing", "id").is_err());
    }
}
