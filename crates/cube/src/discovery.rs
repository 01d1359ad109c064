//! Discovery-driven cube exploration (Sarawagi, Agrawal, Megiddo —
//! EDBT'98 \[54\]; i3 \[55\]).
//!
//! Manually drilling through a cube to find anomalies is hopeless; the
//! system should *pre-compute surprise* and steer the analyst toward it.
//! For a 2-D cuboid we fit the independence model — expected cell value
//! `E[i,j] = rowᵢ · colⱼ / grand` — and score each cell by its
//! standardized residual. Cells whose |residual| exceeds a threshold are
//! *exceptions*; dimension values are ranked by the exceptions beneath
//! them so the UI can highlight where to drill.

use std::collections::HashMap;

use explore_storage::{AggFunc, Dictionary, Query, Result, StorageError, Table};

/// One scored cube cell.
#[derive(Debug, Clone, PartialEq)]
pub struct CellScore {
    pub dim_a: String,
    pub dim_b: String,
    pub actual: f64,
    pub expected: f64,
    /// Standardized residual `(actual - expected) / sqrt(expected)`.
    pub surprise: f64,
}

/// A 2-D discovery-driven view over a table.
#[derive(Debug, Clone)]
pub struct DiscoveryView {
    cells: Vec<CellScore>,
}

impl DiscoveryView {
    /// Score every (a, b) cell of `SUM(measure) GROUP BY dim_a, dim_b`
    /// against the independence model.
    pub fn build(table: &Table, dim_a: &str, dim_b: &str, measure: &str) -> Result<Self> {
        let grouped = Query::new()
            .group(dim_a)
            .group(dim_b)
            .agg(AggFunc::Sum, measure)
            .run(table)?;
        DiscoveryView::from_grouped(&grouped, dim_a, dim_b, measure)
    }

    /// Score an already-grouped `SUM(measure) GROUP BY dim_a, dim_b`
    /// result. Lets callers that obtained the grouped table elsewhere
    /// (e.g. through the engine's cached/traced pipeline) reuse it.
    pub fn from_grouped(grouped: &Table, dim_a: &str, dim_b: &str, measure: &str) -> Result<Self> {
        let a = Dictionary::encode(grouped, dim_a)?;
        let b = Dictionary::encode(grouped, dim_b)?;
        let agg_name = format!("sum({measure})");
        let sums = grouped.column(&agg_name)?.as_f64().ok_or_else(|| {
            StorageError::Internal(format!("discovery aggregate {agg_name} is not Float64"))
        })?;

        // Marginal totals per label, added in row order.
        let mut row_tot = vec![0.0; a.labels().len()];
        let mut col_tot = vec![0.0; b.labels().len()];
        let mut grand = 0.0;
        for ((&i, &j), &s) in a.codes().iter().zip(b.codes()).zip(sums) {
            row_tot[i as usize] += s;
            col_tot[j as usize] += s;
            grand += s;
        }
        let mut cells = Vec::with_capacity(sums.len());
        for ((&i, &j), &actual) in a.codes().iter().zip(b.codes()).zip(sums) {
            let (i, j) = (i as usize, j as usize);
            let expected = if grand != 0.0 {
                row_tot[i] * col_tot[j] / grand
            } else {
                0.0
            };
            let surprise = if expected > 0.0 {
                (actual - expected) / expected.sqrt()
            } else {
                0.0
            };
            cells.push(CellScore {
                dim_a: a.labels()[i].clone(),
                dim_b: b.labels()[j].clone(),
                actual,
                expected,
                surprise,
            });
        }
        Ok(DiscoveryView { cells })
    }

    /// All scored cells.
    pub fn cells(&self) -> &[CellScore] {
        &self.cells
    }

    /// Cells whose |surprise| is at least `threshold`, most surprising
    /// first — the exceptions the interface highlights.
    pub fn exceptions(&self, threshold: f64) -> Vec<&CellScore> {
        let mut v: Vec<&CellScore> = self
            .cells
            .iter()
            .filter(|c| c.surprise.abs() >= threshold)
            .collect();
        v.sort_by(|x, y| y.surprise.abs().total_cmp(&x.surprise.abs()));
        v
    }

    /// Dimension-A values ranked by the total |surprise| beneath them —
    /// "drill here next" guidance.
    pub fn drill_ranking(&self) -> Vec<(String, f64)> {
        let mut agg: HashMap<&str, f64> = HashMap::new();
        for c in &self.cells {
            *agg.entry(c.dim_a.as_str()).or_insert(0.0) += c.surprise.abs();
        }
        let mut v: Vec<(String, f64)> = agg.into_iter().map(|(k, s)| (k.to_owned(), s)).collect();
        v.sort_by(|a, b| b.1.total_cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use explore_storage::{Column, DataType, Schema};

    /// A table where (a1, b1) is wildly out of line with independence.
    fn anomalous_table() -> Table {
        let mut region = Vec::new();
        let mut product = Vec::new();
        let mut amount = Vec::new();
        for r in 0..4 {
            for p in 0..4 {
                for _ in 0..10 {
                    region.push(format!("a{r}"));
                    product.push(format!("b{p}"));
                    // Smooth base, one injected anomaly.
                    let base = 10.0 + r as f64 + p as f64;
                    amount.push(if r == 1 && p == 1 { base * 20.0 } else { base });
                }
            }
        }
        Table::new(
            Schema::of(&[
                ("region", DataType::Utf8),
                ("product", DataType::Utf8),
                ("amount", DataType::Float64),
            ]),
            vec![
                Column::from(region),
                Column::from(product),
                Column::from(amount),
            ],
        )
        .unwrap()
    }

    #[test]
    fn anomalous_cell_has_top_surprise() {
        let t = anomalous_table();
        let v = DiscoveryView::build(&t, "region", "product", "amount").unwrap();
        let top = v
            .cells()
            .iter()
            .max_by(|x, y| x.surprise.abs().total_cmp(&y.surprise.abs()))
            .unwrap();
        assert_eq!((top.dim_a.as_str(), top.dim_b.as_str()), ("a1", "b1"));
        assert!(top.surprise > 0.0, "anomaly is an excess");
    }

    #[test]
    fn exceptions_are_thresholded_and_sorted() {
        let t = anomalous_table();
        let v = DiscoveryView::build(&t, "region", "product", "amount").unwrap();
        let all = v.exceptions(0.0);
        assert_eq!(all.len(), 16);
        assert!(all
            .windows(2)
            .all(|w| w[0].surprise.abs() >= w[1].surprise.abs()));
        let top_s = all[0].surprise.abs();
        let few = v.exceptions(top_s * 0.9);
        assert!(few.len() < all.len());
        assert!(!few.is_empty());
    }

    #[test]
    fn drill_ranking_points_at_the_anomalous_slice() {
        let t = anomalous_table();
        let v = DiscoveryView::build(&t, "region", "product", "amount").unwrap();
        let ranking = v.drill_ranking();
        assert_eq!(ranking[0].0, "a1");
        assert_eq!(ranking.len(), 4);
    }

    #[test]
    fn uniform_table_has_low_surprise() {
        let mut region = Vec::new();
        let mut product = Vec::new();
        let mut amount = Vec::new();
        for r in 0..3 {
            for p in 0..3 {
                region.push(format!("a{r}"));
                product.push(format!("b{p}"));
                amount.push(100.0);
            }
        }
        let t = Table::new(
            Schema::of(&[
                ("region", DataType::Utf8),
                ("product", DataType::Utf8),
                ("amount", DataType::Float64),
            ]),
            vec![
                Column::from(region),
                Column::from(product),
                Column::from(amount),
            ],
        )
        .unwrap();
        let v = DiscoveryView::build(&t, "region", "product", "amount").unwrap();
        assert!(v.cells().iter().all(|c| c.surprise.abs() < 1e-9));
        assert!(v.exceptions(0.1).is_empty());
    }

    #[test]
    fn numeric_dimension_is_a_type_mismatch() {
        let t = anomalous_table();
        let err = DiscoveryView::build(&t, "region", "amount", "amount").unwrap_err();
        assert!(
            matches!(err, StorageError::TypeMismatch { ref column, expected: "Utf8", .. } if column == "amount"),
            "{err:?}"
        );
    }

    #[test]
    fn residuals_sum_to_zero_rowwise() {
        // Independence model property: per-row residual sums vanish.
        let t = anomalous_table();
        let v = DiscoveryView::build(&t, "region", "product", "amount").unwrap();
        for r in 0..4 {
            let label = format!("a{r}");
            let sum: f64 = v
                .cells()
                .iter()
                .filter(|c| c.dim_a == label)
                .map(|c| c.actual - c.expected)
                .sum();
            assert!(sum.abs() < 1e-6, "row {label} residual {sum}");
        }
    }
}
