//! Rapid sampling with ordering guarantees (Blais, Kim, Parameswaran,
//! Indyk, Madden, Rubinfeld — PVLDB'15 \[12\]).
//!
//! For a bar chart, users read the *order* of the bars, not their exact
//! heights. So the sampler only needs enough rows that every pair of
//! group means is separated with high confidence — usually a tiny
//! fraction of what exact heights would need. We sample in rounds and
//! stop when all pairwise confidence intervals are disjoint (or data is
//! exhausted).

use explore_storage::{Accumulator, AggFunc, Dictionary, Measure, Result, Table};

use explore_aqp::{z_for_confidence, SeededWalk};

/// The sampled bar chart: group labels with estimated heights, plus how
/// much data was needed.
#[derive(Debug, Clone)]
pub struct OrderedBars {
    /// (label, estimated mean), in descending estimated order.
    pub bars: Vec<(String, f64)>,
    /// Rows sampled before the ordering stabilized.
    pub rows_sampled: usize,
    /// Rows in the full table.
    pub rows_total: usize,
    /// True when the guarantee was reached before exhausting the data.
    pub early_stop: bool,
}

impl OrderedBars {
    /// Fraction of the table the guarantee needed.
    pub fn fraction_used(&self) -> f64 {
        if self.rows_total == 0 {
            0.0
        } else {
            self.rows_sampled as f64 / self.rows_total as f64
        }
    }
}

/// Sample `AVG(measure) GROUP BY dimension` until the bar ordering is
/// certain at the given confidence.
pub fn ordered_bars(
    table: &Table,
    dimension: &str,
    measure: &str,
    confidence: f64,
    batch: usize,
    seed: u64,
) -> Result<OrderedBars> {
    let groups = Dictionary::encode(table, dimension)?;
    let measure = Measure::resolve(table, AggFunc::Avg, measure)?;
    let codes = groups.codes();
    let z = z_for_confidence(confidence);
    let mut accs = vec![Accumulator::new(); groups.labels().len()];
    let mut walk = SeededWalk::new(table.num_rows(), seed);
    let mut early_stop = false;
    while let Some(rows) = walk.next_batch(batch)? {
        for &row in rows {
            accs[codes[row as usize] as usize].update(measure.at(row as usize));
        }
        // Check pairwise separation: every pair of seen groups' mean CIs
        // must be disjoint.
        let stats: Vec<(f64, f64)> = accs
            .iter()
            .filter(|a| a.count() > 0)
            .map(|a| {
                let half = if a.count() < 2 {
                    f64::INFINITY
                } else {
                    z * (a.sample_variance() / a.count() as f64).sqrt()
                };
                (a.mean(), half)
            })
            .collect();
        let separated = stats.iter().enumerate().all(|(i, &(m1, h1))| {
            stats[i + 1..]
                .iter()
                .all(|&(m2, h2)| (m1 - m2).abs() > h1 + h2)
        });
        if separated && stats.len() > 1 {
            early_stop = true;
            break;
        }
    }
    let mut bars: Vec<(String, f64)> = groups
        .labels()
        .iter()
        .zip(&accs)
        .filter(|(_, a)| a.count() > 0)
        .map(|(l, a)| (l.clone(), a.mean()))
        .collect();
    bars.sort_by(|a, b| b.1.total_cmp(&a.1));
    Ok(OrderedBars {
        bars,
        rows_sampled: walk.seen() as usize,
        rows_total: table.num_rows(),
        early_stop,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use explore_storage::rng::SplitMix64;
    use explore_storage::{Column, DataType, Schema};

    /// Groups with well-separated means and modest noise.
    fn separated_table(n_per_group: usize, gap: f64, noise: f64, seed: u64) -> Table {
        let mut rng = SplitMix64::new(seed);
        let mut labels = Vec::new();
        let mut values = Vec::new();
        let mut rows: Vec<(String, f64)> = Vec::new();
        for g in 0..5 {
            for _ in 0..n_per_group {
                rows.push((
                    format!("g{g}"),
                    10.0 + gap * g as f64 + noise * rng.gaussian(),
                ));
            }
        }
        rng.shuffle(&mut rows);
        for (l, v) in rows {
            labels.push(l);
            values.push(v);
        }
        Table::new(
            Schema::of(&[("g", DataType::Utf8), ("v", DataType::Float64)]),
            vec![Column::from(labels), Column::from(values)],
        )
        .unwrap()
    }

    #[test]
    fn recovers_the_true_order_early() {
        let t = separated_table(5000, 5.0, 1.0, 1);
        let r = ordered_bars(&t, "g", "v", 0.95, 200, 2).unwrap();
        assert!(r.early_stop, "should not need the full table");
        assert!(r.fraction_used() < 0.5, "used {}", r.fraction_used());
        let labels: Vec<&str> = r.bars.iter().map(|(l, _)| l.as_str()).collect();
        assert_eq!(labels, vec!["g4", "g3", "g2", "g1", "g0"]);
    }

    #[test]
    fn harder_separation_needs_more_rows() {
        let easy =
            ordered_bars(&separated_table(5000, 10.0, 1.0, 3), "g", "v", 0.95, 100, 4).unwrap();
        let hard =
            ordered_bars(&separated_table(5000, 1.0, 2.0, 3), "g", "v", 0.95, 100, 4).unwrap();
        assert!(
            hard.rows_sampled > easy.rows_sampled,
            "hard {} vs easy {}",
            hard.rows_sampled,
            easy.rows_sampled
        );
    }

    #[test]
    fn overlapping_groups_exhaust_the_data() {
        // Identical means: separation is impossible.
        let t = separated_table(500, 0.0, 1.0, 5);
        let r = ordered_bars(&t, "g", "v", 0.95, 100, 6).unwrap();
        assert!(!r.early_stop);
        assert_eq!(r.rows_sampled, r.rows_total);
        assert_eq!(r.bars.len(), 5);
    }

    #[test]
    fn type_errors() {
        let t = separated_table(10, 1.0, 0.1, 7);
        assert!(ordered_bars(&t, "v", "v", 0.95, 10, 8).is_err());
        assert!(ordered_bars(&t, "g", "g", 0.95, 10, 8).is_err());
        assert!(ordered_bars(&t, "nope", "v", 0.95, 10, 8).is_err());
    }
}
