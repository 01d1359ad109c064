//! Result-driven recommendation: YmalDB's "you-may-also-like" facets
//! \[20\], from the "assisted query formulation" cluster.
//!
//! [`faceted_recommendations`] — given a result set, surfaces attribute
//! values that are unusually frequent in it relative to the whole table
//! ("users who got these rows were also interested in…").

use explore_storage::{DataType, Dictionary, Result, StorageError, Table};

/// One recommended facet value.
#[derive(Debug, Clone, PartialEq)]
pub struct Facet {
    pub column: String,
    pub value: String,
    /// Frequency inside the result set.
    pub result_frequency: f64,
    /// Frequency in the whole table.
    pub base_frequency: f64,
    /// Lift = result / base frequency; > 1 means over-represented.
    pub lift: f64,
}

/// YmalDB-style recommendations: for each categorical column, the
/// values most over-represented in the result rows relative to the
/// table, ranked by lift. Requires a minimum in-result support so rare
/// noise doesn't dominate.
pub fn faceted_recommendations(
    table: &Table,
    result_rows: &[u32],
    min_support: usize,
    k: usize,
) -> Result<Vec<Facet>> {
    let mut out = Vec::new();
    if result_rows.is_empty() {
        return Ok(out);
    }
    let rows = table.num_rows();
    if let Some(&r) = result_rows.iter().find(|&&r| r as usize >= rows) {
        return Err(StorageError::InvalidQuery(format!(
            "facet row id {r} out of range for a table of {rows} rows"
        )));
    }
    for field in table.schema().fields() {
        if field.data_type() != DataType::Utf8 {
            continue;
        }
        let dict = Dictionary::encode(table, field.name())?;
        let codes = dict.codes();
        let mut in_base = vec![0usize; dict.labels().len()];
        for &c in codes {
            in_base[c as usize] += 1;
        }
        let mut in_result = vec![0usize; dict.labels().len()];
        for &r in result_rows {
            in_result[codes[r as usize] as usize] += 1;
        }
        for (code, value) in dict.labels().iter().enumerate() {
            let count = in_result[code];
            if count == 0 || count < min_support {
                continue;
            }
            let rf = count as f64 / result_rows.len() as f64;
            let bf = in_base[code] as f64 / rows as f64;
            out.push(Facet {
                column: field.name().to_owned(),
                value: value.clone(),
                result_frequency: rf,
                base_frequency: bf,
                lift: rf / bf,
            });
        }
    }
    out.sort_by(|a, b| {
        b.lift
            .total_cmp(&a.lift)
            .then_with(|| (&a.column, &a.value).cmp(&(&b.column, &b.value)))
    });
    out.truncate(k);
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use explore_storage::gen::{sales_table, SalesConfig};
    use explore_storage::Predicate;

    #[test]
    fn facets_detect_correlated_values() {
        // The generator correlates discount with channel; select rows of
        // one channel and the facet should light up.
        let t = sales_table(&SalesConfig {
            rows: 10_000,
            ..SalesConfig::default()
        });
        let rows = Predicate::eq("channel", "channel1").evaluate(&t).unwrap();
        let facets = faceted_recommendations(&t, &rows, 5, 10).unwrap();
        let top = facets
            .iter()
            .find(|f| f.column == "channel")
            .expect("channel facet present");
        assert_eq!(top.value, "channel1");
        assert!((top.result_frequency - 1.0).abs() < 1e-9);
        assert!(top.lift > 1.5, "lift {}", top.lift);
    }

    #[test]
    fn facets_respect_support_and_k() {
        let t = sales_table(&SalesConfig {
            rows: 2000,
            ..SalesConfig::default()
        });
        let rows: Vec<u32> = (0..100).collect();
        let f = faceted_recommendations(&t, &rows, 1, 3).unwrap();
        assert!(f.len() <= 3);
        let none = faceted_recommendations(&t, &rows, 101, 10).unwrap();
        assert!(none.is_empty(), "support can never exceed result size");
        assert!(faceted_recommendations(&t, &[], 1, 10).unwrap().is_empty());
    }

    #[test]
    fn out_of_range_row_ids_are_a_typed_error() {
        let t = sales_table(&SalesConfig {
            rows: 100,
            ..SalesConfig::default()
        });
        assert!(faceted_recommendations(&t, &[0, 99], 1, 10).is_ok());
        let err = faceted_recommendations(&t, &[0, 100], 1, 10).unwrap_err();
        assert!(
            matches!(&err, StorageError::InvalidQuery(m) if m.contains("100")),
            "{err}"
        );
    }

    #[test]
    fn lift_is_result_over_base() {
        let t = sales_table(&SalesConfig {
            rows: 5000,
            ..SalesConfig::default()
        });
        let rows = Predicate::eq("region", "region0").evaluate(&t).unwrap();
        let facets = faceted_recommendations(&t, &rows, 10, 50).unwrap();
        for f in &facets {
            assert!((f.lift - f.result_frequency / f.base_frequency).abs() < 1e-9);
        }
    }
}
