//! Synthetic dataset generators shared by tests, examples and benches.
//!
//! Each generator mirrors a workload family used in the evaluations of the
//! surveyed systems: uniform integer columns (cracking), skewed categorical
//! sales facts (SeeDB / BlinkDB), spatial point clouds (semantic windows),
//! and multi-cluster numeric data (explore-by-example).

use crate::column::Column;
use crate::rng::{SplitMix64, Zipf};
use crate::schema::Schema;
use crate::table::Table;
use crate::value::DataType;

/// A uniformly random `i64` column over `[low, high)` — the canonical
/// cracking evaluation input.
pub fn uniform_i64(n: usize, low: i64, high: i64, seed: u64) -> Vec<i64> {
    let mut rng = SplitMix64::new(seed);
    (0..n).map(|_| rng.range_i64(low, high)).collect()
}

/// Configuration for the synthetic sales fact table used across the
/// AQP, SeeDB and diversification experiments.
#[derive(Debug, Clone)]
pub struct SalesConfig {
    pub rows: usize,
    pub regions: usize,
    pub products: usize,
    pub channels: usize,
    /// Zipf skew of the categorical dimensions.
    pub skew: f64,
    pub seed: u64,
}

impl Default for SalesConfig {
    fn default() -> Self {
        SalesConfig {
            rows: 10_000,
            regions: 8,
            products: 20,
            channels: 4,
            skew: 0.8,
            seed: 42,
        }
    }
}

/// Generate a star-schema-like flat sales fact table:
/// `region, product, channel (Utf8), price, discount (Float64), qty (Int64)`.
///
/// `price` depends on the product (each product has a base price) plus
/// noise, so group-by views have real structure for SeeDB-style deviation
/// analysis; `discount` correlates with `channel` for the same reason.
pub fn sales_table(cfg: &SalesConfig) -> Table {
    let mut rng = SplitMix64::new(cfg.seed);
    let region_z = Zipf::new(cfg.regions, cfg.skew);
    let product_z = Zipf::new(cfg.products, cfg.skew);
    let channel_z = Zipf::new(cfg.channels, cfg.skew);
    let base_prices: Vec<f64> = (0..cfg.products)
        .map(|_| rng.range_f64(5.0, 500.0))
        .collect();
    let channel_discount: Vec<f64> = (0..cfg.channels).map(|_| rng.range_f64(0.0, 0.3)).collect();

    let mut region = Vec::with_capacity(cfg.rows);
    let mut product = Vec::with_capacity(cfg.rows);
    let mut channel = Vec::with_capacity(cfg.rows);
    let mut price = Vec::with_capacity(cfg.rows);
    let mut discount = Vec::with_capacity(cfg.rows);
    let mut qty = Vec::with_capacity(cfg.rows);
    for _ in 0..cfg.rows {
        let r = region_z.sample(&mut rng);
        let p = product_z.sample(&mut rng);
        let c = channel_z.sample(&mut rng);
        region.push(format!("region{r}"));
        product.push(format!("product{p}"));
        channel.push(format!("channel{c}"));
        price.push((base_prices[p] * (1.0 + 0.1 * rng.gaussian())).max(0.5));
        discount.push((channel_discount[c] + 0.02 * rng.gaussian()).clamp(0.0, 0.9));
        qty.push(1 + rng.below(9) as i64);
    }
    Table::new(
        Schema::of(&[
            ("region", DataType::Utf8),
            ("product", DataType::Utf8),
            ("channel", DataType::Utf8),
            ("price", DataType::Float64),
            ("discount", DataType::Float64),
            ("qty", DataType::Int64),
        ]),
        vec![
            Column::from(region),
            Column::from(product),
            Column::from(channel),
            Column::from(price),
            Column::from(discount),
            Column::from(qty),
        ],
    )
    .expect("generated columns are aligned")
}

/// A 2-D spatial point table `x, y (Float64), mag (Float64)` with
/// `clusters` dense Gaussian clusters over a `[0, extent)²` space plus a
/// uniform background — the sky-survey-style input of the semantic-window
/// and explore-by-example experiments (the astronomer from the paper's
/// introduction).
pub fn sky_table(n: usize, clusters: usize, extent: f64, seed: u64) -> Table {
    let mut rng = SplitMix64::new(seed);
    let centers: Vec<(f64, f64, f64)> = (0..clusters)
        .map(|_| {
            (
                rng.range_f64(0.1 * extent, 0.9 * extent),
                rng.range_f64(0.1 * extent, 0.9 * extent),
                rng.range_f64(0.01 * extent, 0.05 * extent),
            )
        })
        .collect();
    let mut xs = Vec::with_capacity(n);
    let mut ys = Vec::with_capacity(n);
    let mut mags = Vec::with_capacity(n);
    for _ in 0..n {
        // 60% of points fall in clusters, 40% background.
        if clusters > 0 && rng.bernoulli(0.6) {
            let (cx, cy, sd) = centers[rng.below(clusters as u64) as usize];
            xs.push((cx + sd * rng.gaussian()).clamp(0.0, extent));
            ys.push((cy + sd * rng.gaussian()).clamp(0.0, extent));
            // Cluster members are brighter.
            mags.push(rng.range_f64(15.0, 20.0));
        } else {
            xs.push(rng.range_f64(0.0, extent));
            ys.push(rng.range_f64(0.0, extent));
            mags.push(rng.range_f64(10.0, 18.0));
        }
    }
    Table::new(
        Schema::of(&[
            ("x", DataType::Float64),
            ("y", DataType::Float64),
            ("mag", DataType::Float64),
        ]),
        vec![Column::from(xs), Column::from(ys), Column::from(mags)],
    )
    .expect("generated columns are aligned")
}

/// A numeric feature table with `dims` columns `f0..f{dims-1}` uniform over
/// `[0, 100)`, used as the search space for explore-by-example and
/// query-by-output experiments.
pub fn feature_table(n: usize, dims: usize, seed: u64) -> Table {
    let mut rng = SplitMix64::new(seed);
    let fields: Vec<(String, DataType)> = (0..dims)
        .map(|d| (format!("f{d}"), DataType::Float64))
        .collect();
    let defs: Vec<(&str, DataType)> = fields.iter().map(|(n, t)| (n.as_str(), *t)).collect();
    let columns: Vec<Column> = (0..dims)
        .map(|_| {
            Column::from(
                (0..n)
                    .map(|_| rng.range_f64(0.0, 100.0))
                    .collect::<Vec<f64>>(),
            )
        })
        .collect();
    Table::new(Schema::of(&defs), columns).expect("generated columns are aligned")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_generators_are_bounded_and_deterministic() {
        let a = uniform_i64(1000, -10, 10, 1);
        assert!(a.iter().all(|&x| (-10..10).contains(&x)));
        assert_eq!(a, uniform_i64(1000, -10, 10, 1));
        assert_ne!(a, uniform_i64(1000, -10, 10, 2));
    }

    #[test]
    fn sales_table_shape_and_structure() {
        let t = sales_table(&SalesConfig {
            rows: 2000,
            ..SalesConfig::default()
        });
        assert_eq!(t.num_rows(), 2000);
        assert_eq!(t.num_columns(), 6);
        // Prices are positive, discounts in [0, 0.9].
        let prices = t.column("price").unwrap().as_f64().unwrap();
        assert!(prices.iter().all(|&p| p > 0.0));
        let d = t.column("discount").unwrap().as_f64().unwrap();
        assert!(d.iter().all(|&x| (0.0..=0.9).contains(&x)));
        let q = t.column("qty").unwrap().as_i64().unwrap();
        assert!(q.iter().all(|&x| (1..=9).contains(&x)));
    }

    #[test]
    fn sky_table_bounds_and_density() {
        let t = sky_table(5000, 3, 100.0, 7);
        assert_eq!(t.num_rows(), 5000);
        let xs = t.column("x").unwrap().as_f64().unwrap();
        assert!(xs.iter().all(|&x| (0.0..=100.0).contains(&x)));
        // Clusters concentrate mass: the densest decile of x should hold
        // far more than 10% of points.
        let mut counts = [0usize; 10];
        for &x in xs {
            counts[((x / 10.0) as usize).min(9)] += 1;
        }
        let max = *counts.iter().max().unwrap();
        assert!(max > 5000 / 10 * 2, "max decile {max}");
    }

    #[test]
    fn feature_table_has_named_dims() {
        let t = feature_table(100, 4, 9);
        assert_eq!(t.schema().names(), vec!["f0", "f1", "f2", "f3"]);
        assert_eq!(t.num_rows(), 100);
    }
}
