//! Stratified samples (BlinkDB \[6, 7\]).
//!
//! A uniform sample starves rare groups: a group holding 0.1% of rows
//! gets ~0 sample rows at 1% sampling, so its per-group aggregate is
//! garbage. BlinkDB's stratified samples instead cap each group at `k`
//! rows — small groups are kept *whole* (exact answers), large groups are
//! uniformly subsampled.

use explore_storage::rng::SplitMix64;
use explore_storage::{Dictionary, Result, Table};

/// A sample stratified on one categorical column.
#[derive(Debug, Clone)]
pub struct StratifiedSample {
    table: Table,
    column: String,
    cap: usize,
    base_rows: usize,
}

impl StratifiedSample {
    /// Build a sample over `base` stratified on `column` (must be Utf8),
    /// keeping at most `cap` rows per distinct value. Strata draw from
    /// one generator in first-seen order, so a seed fixes the sample.
    pub fn build(base: &Table, column: &str, cap: usize, seed: u64) -> Result<Self> {
        let cap = cap.max(1);
        let groups = Dictionary::encode(base, column)?;
        let mut strata: Vec<Vec<u32>> = vec![Vec::new(); groups.labels().len()];
        for (i, &code) in groups.codes().iter().enumerate() {
            strata[code as usize].push(i as u32);
        }
        let mut rng = SplitMix64::new(seed);
        let mut sel: Vec<u32> = Vec::new();
        for rows in strata {
            let take = rows.len().min(cap);
            if take == rows.len() {
                sel.extend_from_slice(&rows);
            } else {
                let idx = rng.sample_indices(rows.len(), take);
                sel.extend(idx.into_iter().map(|i| rows[i]));
            }
        }
        sel.sort_unstable();
        Ok(StratifiedSample {
            table: base.gather(&sel),
            column: column.to_owned(),
            cap,
            base_rows: base.num_rows(),
        })
    }

    /// The sampled rows.
    pub fn table(&self) -> &Table {
        &self.table
    }

    /// The stratification column.
    pub fn column(&self) -> &str {
        &self.column
    }

    /// The per-group row cap.
    pub fn cap(&self) -> usize {
        self.cap
    }

    /// Rows in the base table.
    pub fn base_rows(&self) -> usize {
        self.base_rows
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use explore_storage::gen::{sales_table, SalesConfig};
    use explore_storage::{AggFunc, Query};

    fn base() -> Table {
        sales_table(&SalesConfig {
            rows: 20_000,
            regions: 10,
            skew: 1.2, // strong skew: tail regions are rare
            ..SalesConfig::default()
        })
    }

    #[test]
    fn every_group_is_represented() {
        let b = base();
        let s = StratifiedSample::build(&b, "region", 100, 1).unwrap();
        let base_groups: std::collections::HashSet<_> = b
            .column("region")
            .unwrap()
            .as_utf8()
            .unwrap()
            .iter()
            .collect();
        let sample_groups: std::collections::HashSet<_> = s
            .table()
            .column("region")
            .unwrap()
            .as_utf8()
            .unwrap()
            .iter()
            .collect();
        assert_eq!(base_groups, sample_groups);
    }

    #[test]
    fn cap_is_enforced_per_group() {
        let b = base();
        let s = StratifiedSample::build(&b, "region", 50, 2).unwrap();
        let counts = Query::new()
            .group("region")
            .agg(AggFunc::Count, "qty")
            .run(s.table())
            .unwrap();
        let c = counts.column("count(qty)").unwrap().as_f64().unwrap();
        assert!(c.iter().all(|&x| x <= 50.0));
    }

    #[test]
    fn small_groups_are_exact() {
        let b = base();
        let s = StratifiedSample::build(&b, "region", 10_000, 3).unwrap();
        // With a huge cap every group is whole.
        assert_eq!(s.table().num_rows(), b.num_rows());
    }

    #[test]
    fn each_group_keeps_its_rows_up_to_the_cap() {
        let b = base();
        let s = StratifiedSample::build(&b, "region", 200, 4).unwrap();
        let truth = Query::new()
            .group("region")
            .agg(AggFunc::Count, "qty")
            .run(&b)
            .unwrap();
        let labels = truth.column("region").unwrap().as_utf8().unwrap();
        let counts = truth.column("count(qty)").unwrap().as_f64().unwrap();
        for (label, &truth_count) in labels.iter().zip(counts) {
            let sampled = s
                .table()
                .column("region")
                .unwrap()
                .as_utf8()
                .unwrap()
                .iter()
                .filter(|l| *l == label)
                .count() as f64;
            assert_eq!(sampled, truth_count.min(200.0), "{label}");
        }
    }

    #[test]
    fn rejects_numeric_stratification_column() {
        let b = base();
        assert!(StratifiedSample::build(&b, "price", 10, 5).is_err());
        assert!(StratifiedSample::build(&b, "missing", 10, 5).is_err());
    }

    #[test]
    fn same_seed_gives_the_same_sample() {
        let b = sales_table(&SalesConfig {
            rows: 50_000,
            ..SalesConfig::default()
        });
        let first = StratifiedSample::build(&b, "region", 100, 8).unwrap();
        for _ in 0..3 {
            let again = StratifiedSample::build(&b, "region", 100, 8).unwrap();
            assert_eq!(again.table(), first.table());
        }
    }
}
