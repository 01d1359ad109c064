//! The BlinkDB sample catalog: a family of pre-built samples across
//! sizes and stratification columns, from which the runtime picks the
//! cheapest one satisfying a query's error or time bound.

use std::collections::BTreeMap;

use explore_exec::QueryCtx;
use explore_storage::{Result, Table};

use crate::stratified::StratifiedSample;
use crate::uniform::UniformSample;

/// Key identifying one sample in the catalog.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub enum SampleKey {
    /// Uniform sample at a fraction expressed in basis points
    /// (1/10_000) so the key stays `Ord`/`Eq`.
    Uniform { fraction_bp: u32 },
    /// Stratified on a column with a per-group cap.
    Stratified { column: String, cap: usize },
}

impl SampleKey {
    /// Key for a uniform sample at the given fraction.
    pub fn uniform(fraction: f64) -> Self {
        SampleKey::Uniform {
            fraction_bp: (fraction * 10_000.0).round() as u32,
        }
    }

    /// Key for a stratified sample.
    pub fn stratified(column: &str, cap: usize) -> Self {
        SampleKey::Stratified {
            column: column.to_owned(),
            cap,
        }
    }
}

/// One stored sample.
#[derive(Debug, Clone)]
pub enum StoredSample {
    Uniform(UniformSample),
    Stratified(StratifiedSample),
}

impl StoredSample {
    /// The sampled rows regardless of flavour.
    pub fn table(&self) -> &Table {
        match self {
            StoredSample::Uniform(s) => s.table(),
            StoredSample::Stratified(s) => s.table(),
        }
    }

    /// Sample size in rows.
    pub fn rows(&self) -> usize {
        self.table().num_rows()
    }
}

/// A catalog of samples over one base table.
#[derive(Debug, Clone)]
pub struct SampleCatalog {
    samples: BTreeMap<SampleKey, StoredSample>,
    base_rows: usize,
}

impl SampleCatalog {
    /// Build a catalog with the standard BlinkDB-style ladder of uniform
    /// fractions plus stratified samples on the given columns. The
    /// context's cancellation tokens are checked before each sample —
    /// the build's unit of work — so a deadline stops a catalog build
    /// between samples with no partial catalog escaping.
    pub fn build(
        base: &Table,
        fractions: &[f64],
        stratify_on: &[(&str, usize)],
        seed: u64,
        ctx: &QueryCtx,
    ) -> Result<Self> {
        let mut samples = BTreeMap::new();
        for (i, &f) in fractions.iter().enumerate() {
            ctx.check_cancel()?;
            samples.insert(
                SampleKey::uniform(f),
                StoredSample::Uniform(UniformSample::build(base, f, seed + i as u64)),
            );
        }
        for (j, &(col, cap)) in stratify_on.iter().enumerate() {
            ctx.check_cancel()?;
            samples.insert(
                SampleKey::stratified(col, cap),
                StoredSample::Stratified(StratifiedSample::build(
                    base,
                    col,
                    cap,
                    seed + 1000 + j as u64,
                )?),
            );
        }
        Ok(SampleCatalog {
            samples,
            base_rows: base.num_rows(),
        })
    }

    /// Rows in the base table the samples were drawn from.
    pub fn base_rows(&self) -> usize {
        self.base_rows
    }

    /// Look up a specific sample.
    pub fn get(&self, key: &SampleKey) -> Option<&StoredSample> {
        self.samples.get(key)
    }

    /// All uniform samples as (fraction, sample), ascending by fraction.
    pub fn uniform_ladder(&self) -> Vec<(f64, &UniformSample)> {
        self.samples
            .iter()
            .filter_map(|(k, v)| match (k, v) {
                (SampleKey::Uniform { fraction_bp }, StoredSample::Uniform(s)) => {
                    Some((*fraction_bp as f64 / 10_000.0, s))
                }
                _ => None,
            })
            .collect()
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// True when the catalog holds no samples.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use explore_storage::gen::{sales_table, SalesConfig};

    fn catalog() -> SampleCatalog {
        let base = sales_table(&SalesConfig {
            rows: 10_000,
            ..SalesConfig::default()
        });
        SampleCatalog::build(
            &base,
            &[0.01, 0.05, 0.1],
            &[("region", 100), ("product", 50)],
            1,
            &QueryCtx::none(),
        )
        .unwrap()
    }

    #[test]
    fn ladder_is_sorted_ascending() {
        let c = catalog();
        let ladder = c.uniform_ladder();
        assert_eq!(ladder.len(), 3);
        assert!(ladder.windows(2).all(|w| w[0].0 < w[1].0));
        assert_eq!(ladder[0].1.table().num_rows(), 100);
        assert_eq!(ladder[2].1.table().num_rows(), 1000);
    }

    #[test]
    fn lookup_by_key() {
        let c = catalog();
        assert!(c.get(&SampleKey::uniform(0.05)).is_some());
        assert!(c.get(&SampleKey::uniform(0.5)).is_none());
        assert!(c.get(&SampleKey::stratified("region", 100)).is_some());
        assert!(c.get(&SampleKey::stratified("region", 7)).is_none());
        assert_eq!(c.len(), 5);
        assert!(!c.is_empty());
    }

    #[test]
    fn catalog_records_base_rows() {
        let c = catalog();
        assert_eq!(c.base_rows(), 10_000);
    }

    #[test]
    fn bad_stratification_column_propagates_error() {
        let base = sales_table(&SalesConfig {
            rows: 100,
            ..SalesConfig::default()
        });
        assert!(
            SampleCatalog::build(&base, &[0.1], &[("price", 10)], 3, &QueryCtx::none()).is_err()
        );
    }
}
