//! AQUA-style synopsis-backed answering (Acharya, Gibbons, Poosala,
//! Ramaswamy — SIGMOD'99 \[5\]).
//!
//! Where BlinkDB keeps *row samples*, AQUA keeps *statistical synopses*
//! and answers aggregate queries from them without touching base data at
//! all: a histogram answers range COUNTs, a sketch answers point
//! frequencies, an HLL answers COUNT DISTINCT. This module maintains a
//! synopsis set per table column and routes the queries each synopsis
//! can serve, reporting which synopsis answered and its expected error
//! regime.

use std::collections::HashMap;

use explore_storage::{Result, StorageError, Table};
use explore_synopses::{CountMinSketch, Histogram, HyperLogLog};

/// Which synopsis produced an answer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AnsweredBy {
    EquiDepthHistogram,
    CountMinSketch,
    HyperLogLog,
}

/// An answer served from synopses only.
#[derive(Debug, Clone, Copy)]
pub struct SynopsisAnswer {
    pub estimate: f64,
    pub answered_by: AnsweredBy,
}

/// Per-column synopsis state.
#[derive(Debug)]
struct ColumnSynopses {
    histogram: Option<Histogram>,
    sketch: Option<CountMinSketch>,
    distinct: Option<HyperLogLog>,
}

/// A synopsis set covering one table.
#[derive(Debug)]
pub struct SynopsisStore {
    columns: HashMap<String, ColumnSynopses>,
    rows: usize,
}

impl SynopsisStore {
    /// Build synopses for every column of `table`: an equi-depth
    /// histogram per numeric column (`buckets` buckets), and a count-min
    /// sketch + HyperLogLog per string column.
    pub fn build(table: &Table, buckets: usize) -> Self {
        let mut columns = HashMap::new();
        for (i, field) in table.schema().fields().iter().enumerate() {
            let col = table.column_at(i);
            let syn = if let Some(values) = col.strs() {
                let mut sketch = CountMinSketch::with_error(0.001, 0.01);
                let mut distinct = HyperLogLog::new(12);
                for v in values {
                    sketch.insert_str(v);
                    distinct.insert_str(v);
                }
                ColumnSynopses {
                    histogram: None,
                    sketch: Some(sketch),
                    distinct: Some(distinct),
                }
            } else {
                let data: Vec<f64> = (0..table.num_rows())
                    .filter_map(|r| col.numeric_at(r))
                    .collect();
                ColumnSynopses {
                    histogram: Some(Histogram::equi_depth(&data, buckets)),
                    sketch: None,
                    distinct: None,
                }
            };
            columns.insert(field.name().to_owned(), syn);
        }
        SynopsisStore {
            columns,
            rows: table.num_rows(),
        }
    }

    /// Base-table rows summarized.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Estimate `COUNT(*) WHERE low <= column < high` from the column's
    /// histogram.
    pub fn range_count(&self, column: &str, low: f64, high: f64) -> Result<SynopsisAnswer> {
        let syn = self.get(column)?;
        let hist = syn.histogram.as_ref().ok_or_else(|| {
            StorageError::InvalidQuery(format!("no histogram on {column} (string column?)"))
        })?;
        Ok(SynopsisAnswer {
            estimate: hist.estimate_range(low, high),
            answered_by: AnsweredBy::EquiDepthHistogram,
        })
    }

    /// Estimate a quantile of a numeric column.
    pub fn quantile(&self, column: &str, q: f64) -> Result<SynopsisAnswer> {
        let syn = self.get(column)?;
        let hist = syn
            .histogram
            .as_ref()
            .ok_or_else(|| StorageError::InvalidQuery(format!("no histogram on {column}")))?;
        Ok(SynopsisAnswer {
            estimate: hist.estimate_quantile(q),
            answered_by: AnsweredBy::EquiDepthHistogram,
        })
    }

    /// Estimate `COUNT(*) WHERE column = value` for a string column from
    /// its count-min sketch (never an underestimate).
    pub fn point_count(&self, column: &str, value: &str) -> Result<SynopsisAnswer> {
        let syn = self.get(column)?;
        let sketch = syn.sketch.as_ref().ok_or_else(|| {
            StorageError::InvalidQuery(format!("no sketch on {column} (numeric column?)"))
        })?;
        Ok(SynopsisAnswer {
            estimate: sketch.estimate_str(value) as f64,
            answered_by: AnsweredBy::CountMinSketch,
        })
    }

    /// Estimate `COUNT(DISTINCT column)` for a string column.
    pub fn distinct_count(&self, column: &str) -> Result<SynopsisAnswer> {
        let syn = self.get(column)?;
        let hll = syn.distinct.as_ref().ok_or_else(|| {
            StorageError::InvalidQuery(format!("no distinct-count synopsis on {column}"))
        })?;
        Ok(SynopsisAnswer {
            estimate: hll.estimate(),
            answered_by: AnsweredBy::HyperLogLog,
        })
    }

    fn get(&self, column: &str) -> Result<&ColumnSynopses> {
        self.columns
            .get(column)
            .ok_or_else(|| StorageError::UnknownColumn(column.to_owned()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use explore_storage::gen::{sales_table, SalesConfig};
    use explore_storage::Predicate;

    fn setup() -> (Table, SynopsisStore) {
        let t = sales_table(&SalesConfig {
            rows: 50_000,
            ..SalesConfig::default()
        });
        let store = SynopsisStore::build(&t, 64);
        (t, store)
    }

    #[test]
    fn range_counts_are_accurate_without_touching_base_data() {
        let (t, store) = setup();
        for (lo, hi) in [(10.0, 100.0), (100.0, 300.0), (0.0, 1e9)] {
            let truth = Predicate::range("price", lo, hi)
                .evaluate(&t)
                .unwrap()
                .len() as f64;
            let ans = store.range_count("price", lo, hi).unwrap();
            assert_eq!(ans.answered_by, AnsweredBy::EquiDepthHistogram);
            let rel = (ans.estimate - truth).abs() / truth.max(1.0);
            assert!(rel < 0.1, "[{lo},{hi}): est {} truth {truth}", ans.estimate);
        }
    }

    #[test]
    fn quantiles_track_sorted_truth() {
        let (t, store) = setup();
        let mut prices = t.column("price").unwrap().as_f64().unwrap().to_vec();
        prices.sort_by(f64::total_cmp);
        for q in [0.25, 0.5, 0.9] {
            let truth = prices[(q * (prices.len() - 1) as f64) as usize];
            let est = store.quantile("price", q).unwrap().estimate;
            assert!(
                (est - truth).abs() / truth < 0.1,
                "q={q}: est {est} truth {truth}"
            );
        }
    }

    #[test]
    fn point_counts_never_underestimate() {
        let (t, store) = setup();
        let regions = t.column("region").unwrap().as_utf8().unwrap();
        for label in ["region0", "region3", "never-seen"] {
            let truth = regions.iter().filter(|r| r.as_str() == label).count() as f64;
            let ans = store.point_count("region", label).unwrap();
            assert_eq!(ans.answered_by, AnsweredBy::CountMinSketch);
            assert!(ans.estimate >= truth, "{label}");
            // And with a 0.1% sketch, the overestimate is tiny.
            assert!(ans.estimate <= truth + 0.002 * 50_000.0, "{label}");
        }
    }

    #[test]
    fn distinct_counts_are_close() {
        let (t, store) = setup();
        let truth = {
            let mut v: Vec<&String> = t
                .column("product")
                .unwrap()
                .as_utf8()
                .unwrap()
                .iter()
                .collect();
            v.sort();
            v.dedup();
            v.len() as f64
        };
        let ans = store.distinct_count("product").unwrap();
        assert_eq!(ans.answered_by, AnsweredBy::HyperLogLog);
        assert!((ans.estimate - truth).abs() / truth < 0.1);
    }

    #[test]
    fn routing_errors_are_clear() {
        let (_, store) = setup();
        assert!(store.range_count("region", 0.0, 1.0).is_err(), "string col");
        assert!(store.point_count("price", "x").is_err(), "numeric col");
        assert!(store.distinct_count("qty").is_err());
        assert!(store.range_count("missing", 0.0, 1.0).is_err());
        assert_eq!(store.rows(), 50_000);
    }
}
