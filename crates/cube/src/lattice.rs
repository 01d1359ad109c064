//! Group-by lattice materialization: the data cube.
//!
//! A cube over dimensions {d₁..dₖ} is the set of 2ᵏ group-by results
//! ("cuboids"), one per dimension subset. Interactive cube exploration
//! (DICE \[35\], distributed cube exploration \[37\]) navigates between
//! cuboids; this module computes and caches them on demand.

use std::collections::{BTreeSet, HashMap};
use std::sync::Arc;

use explore_storage::{AggFunc, Query, Result, SortOrder, StorageError, Table};

/// A lazily-materialized data cube over one table.
#[derive(Debug)]
pub struct DataCube {
    table: Arc<Table>,
    dims: Vec<String>,
    measure: String,
    func: AggFunc,
    /// Cache of materialized cuboids keyed by the sorted dim subset.
    cache: HashMap<BTreeSet<String>, Table>,
    /// Cuboid computations performed (cache misses).
    computed: u64,
    /// Cuboid requests served from cache.
    hits: u64,
}

impl DataCube {
    /// Define a cube. `dims` must be existing columns; `measure` must be
    /// numeric unless `func` is COUNT. An `Arc<Table>` is shared, not
    /// copied.
    pub fn new(
        table: impl Into<Arc<Table>>,
        dims: &[&str],
        measure: &str,
        func: AggFunc,
    ) -> Result<Self> {
        let table = table.into();
        for d in dims {
            table.schema().index_of(d)?;
        }
        let mcol = table.column(measure)?;
        if func != AggFunc::Count && !mcol.data_type().is_numeric() {
            return Err(StorageError::TypeMismatch {
                column: measure.to_owned(),
                expected: "numeric",
                found: mcol.data_type().name(),
            });
        }
        Ok(DataCube {
            table,
            dims: dims.iter().map(|s| s.to_string()).collect(),
            measure: measure.to_owned(),
            func,
            cache: HashMap::new(),
            computed: 0,
            hits: 0,
        })
    }

    /// The cube's dimensions.
    pub fn dims(&self) -> &[String] {
        &self.dims
    }

    /// Cuboid computations (cache misses) so far.
    pub fn computed(&self) -> u64 {
        self.computed
    }

    /// Cache hits so far.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// The cuboid grouping by `group_dims` (a subset of the cube dims;
    /// empty = grand total). Materializes and caches on first request.
    pub fn cuboid(&mut self, group_dims: &[&str]) -> Result<&Table> {
        for d in group_dims {
            if !self.dims.iter().any(|x| x == d) {
                return Err(StorageError::UnknownColumn(format!(
                    "{d} is not a cube dimension"
                )));
            }
        }
        let key: BTreeSet<String> = group_dims.iter().map(|s| s.to_string()).collect();
        if !self.cache.contains_key(&key) {
            let mut q = Query::new().agg(self.func, &self.measure);
            for d in &key {
                q = q.group(d);
            }
            // Deterministic ordering for stable downstream display.
            if let Some(first) = key.iter().next() {
                q = q.order(first, SortOrder::Asc);
            }
            // One accumulation per cell over the whole table: the
            // summation order the lattice's cells are pinned under.
            let t = q.run_unsplit(&self.table)?;
            self.cache.insert(key.clone(), t);
            self.computed += 1;
        } else {
            self.hits += 1;
        }
        self.cache
            .get(&key)
            .ok_or_else(|| StorageError::Internal("cuboid vanished after insert".into()))
    }

    /// Cuboids adjacent to `group_dims` in the lattice: one dimension
    /// added (drill-down) or removed (roll-up). These are DICE's
    /// speculation targets.
    pub fn neighbors(&self, group_dims: &[&str]) -> Vec<Vec<String>> {
        let current: BTreeSet<&str> = group_dims.iter().copied().collect();
        let mut out = Vec::new();
        for d in &self.dims {
            if current.contains(d.as_str()) {
                // roll-up: remove d
                out.push(
                    current
                        .iter()
                        .filter(|&&x| x != d)
                        .map(|s| s.to_string())
                        .collect(),
                );
            } else {
                // drill-down: add d
                let mut v: Vec<String> = current.iter().map(|s| s.to_string()).collect();
                v.push(d.clone());
                v.sort_unstable();
                out.push(v);
            }
        }
        out
    }

    /// Number of cached cuboids.
    pub fn cached(&self) -> usize {
        self.cache.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use explore_storage::gen::{sales_table, SalesConfig};

    fn cube() -> DataCube {
        let t = sales_table(&SalesConfig {
            rows: 3000,
            ..SalesConfig::default()
        });
        DataCube::new(t, &["region", "product", "channel"], "price", AggFunc::Sum).unwrap()
    }

    #[test]
    fn grand_total_matches_direct_sum() {
        let mut c = cube();
        let total = c.cuboid(&[]).unwrap();
        assert_eq!(total.num_rows(), 1);
        let direct: f64 = {
            let t = sales_table(&SalesConfig {
                rows: 3000,
                ..SalesConfig::default()
            });
            t.column("price").unwrap().as_f64().unwrap().iter().sum()
        };
        let got = total.column("sum(price)").unwrap().as_f64().unwrap()[0];
        assert!((got - direct).abs() < 1e-6);
    }

    #[test]
    fn cuboids_roll_up_consistently() {
        let mut c = cube();
        let by_region = c.cuboid(&["region"]).unwrap();
        let region_total: f64 = by_region
            .column("sum(price)")
            .unwrap()
            .as_f64()
            .unwrap()
            .iter()
            .sum();
        let by_rp = c.cuboid(&["region", "product"]).unwrap();
        let rp_total: f64 = by_rp
            .column("sum(price)")
            .unwrap()
            .as_f64()
            .unwrap()
            .iter()
            .sum();
        assert!((region_total - rp_total).abs() < 1e-6);
    }

    #[test]
    fn caching_avoids_recomputation() {
        let mut c = cube();
        c.cuboid(&["region"]).unwrap();
        c.cuboid(&["region"]).unwrap();
        c.cuboid(&["product", "region"]).unwrap();
        c.cuboid(&["region", "product"]).unwrap(); // order-insensitive key
        assert_eq!(c.computed(), 2);
        assert_eq!(c.hits(), 2);
    }

    #[test]
    fn full_lattice_size() {
        // Every subset of the three dimensions is its own cuboid.
        let mut c = cube();
        let dims = ["region", "product", "channel"];
        for mask in 0..8u32 {
            let subset: Vec<&str> = (0..3)
                .filter(|i| mask & (1 << i) != 0)
                .map(|i| dims[i])
                .collect();
            c.cuboid(&subset).unwrap();
        }
        assert_eq!(c.cached(), 8);
    }

    #[test]
    fn neighbors_in_lattice() {
        let c = cube();
        let n = c.neighbors(&["region"]);
        assert_eq!(n.len(), 3);
        assert!(n.contains(&vec![])); // roll-up
        assert!(n
            .iter()
            .any(|v| v == &["product".to_string(), "region".to_string()]));
    }

    #[test]
    fn invalid_dims_rejected() {
        let t = sales_table(&SalesConfig {
            rows: 10,
            ..SalesConfig::default()
        });
        assert!(DataCube::new(t.clone(), &["nope"], "price", AggFunc::Sum).is_err());
        assert!(DataCube::new(t.clone(), &["region"], "region", AggFunc::Sum).is_err());
        let mut c = DataCube::new(t, &["region"], "price", AggFunc::Sum).unwrap();
        assert!(c.cuboid(&["product"]).is_err());
    }
}
