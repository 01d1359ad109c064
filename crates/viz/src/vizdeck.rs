//! VizDeck-style self-organizing dashboards (Key, Howe, Perry, Aragon —
//! SIGMOD'12 \[40\]).
//!
//! Given a table, rank candidate charts by statistical "interestingness"
//! heuristics over the column types and distributions, and deal the top
//! ones as a dashboard deck — zero-query visualization bootstrapping.

use std::collections::HashSet;

use explore_storage::{Result, Table};

/// Chart types the deck can deal.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ChartKind {
    /// Bar chart of a measure by a categorical dimension.
    Bar,
    /// Histogram of one numeric column.
    HistogramChart,
    /// Scatter plot of two numeric columns.
    Scatter,
}

/// A ranked chart proposal.
#[derive(Debug, Clone)]
pub struct ChartProposal {
    pub kind: ChartKind,
    /// Column(s) the chart binds: [dimension, measure] for bars,
    /// `[x]` for histograms, `[x, y]` for scatters.
    pub columns: Vec<String>,
    /// Interestingness score in \[0, 1\]-ish.
    pub score: f64,
}

/// Rank all candidate charts for a table, best first.
pub fn propose_charts(table: &Table, k: usize) -> Result<Vec<ChartProposal>> {
    let mut out = Vec::new();
    let n = table.num_rows().max(1) as f64;
    let mut categorical = Vec::new();
    let mut numeric = Vec::new();
    for f in table.schema().fields() {
        let col = table.column(f.name())?;
        if let Some(labels) = col.strs() {
            let distinct: HashSet<&str> = labels.collect();
            categorical.push((f.name().to_owned(), distinct.len()));
        } else {
            let vals: Vec<f64> = (0..table.num_rows())
                .filter_map(|i| col.numeric_at(i))
                .collect();
            numeric.push((f.name().to_owned(), moments(&vals)));
        }
    }
    // Bars: categorical dims with few distinct values pair well with
    // high-variance measures.
    for (dim, distinct) in &categorical {
        // Readability: 2..=20 bars is ideal, decays beyond.
        let card_score = if (2..=20).contains(distinct) {
            1.0
        } else {
            (20.0 / *distinct as f64).min(1.0) * 0.5
        };
        for (m, (_, cv)) in &numeric {
            out.push(ChartProposal {
                kind: ChartKind::Bar,
                columns: vec![dim.clone(), m.clone()],
                score: 0.5 * card_score + 0.5 * cv.min(1.0),
            });
        }
    }
    // Histograms: interesting when the distribution is non-degenerate.
    for (name, (_, cv)) in &numeric {
        out.push(ChartProposal {
            kind: ChartKind::HistogramChart,
            columns: vec![name.clone()],
            score: cv.min(1.0) * 0.8,
        });
    }
    // Scatters: pairs of numeric columns, scored by |correlation| —
    // strong relationships make interesting plots.
    for i in 0..numeric.len() {
        for j in (i + 1)..numeric.len() {
            let a = collect_numeric(table, &numeric[i].0)?;
            let b = collect_numeric(table, &numeric[j].0)?;
            let corr = correlation(&a, &b).abs();
            out.push(ChartProposal {
                kind: ChartKind::Scatter,
                columns: vec![numeric[i].0.clone(), numeric[j].0.clone()],
                score: corr * (n.min(10_000.0) / 10_000.0).max(0.1),
            });
        }
    }
    out.sort_by(|a, b| {
        b.score
            .total_cmp(&a.score)
            .then_with(|| a.columns.cmp(&b.columns))
    });
    out.truncate(k);
    Ok(out)
}

fn collect_numeric(table: &Table, name: &str) -> Result<Vec<f64>> {
    let col = table.column(name)?;
    Ok((0..table.num_rows())
        .filter_map(|i| col.numeric_at(i))
        .collect())
}

/// (mean, coefficient of variation).
fn moments(vals: &[f64]) -> (f64, f64) {
    if vals.is_empty() {
        return (0.0, 0.0);
    }
    let mean = vals.iter().sum::<f64>() / vals.len() as f64;
    let var = vals.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / vals.len() as f64;
    let cv = if mean.abs() > 1e-12 {
        var.sqrt() / mean.abs()
    } else {
        0.0
    };
    (mean, cv)
}

/// Pearson correlation.
fn correlation(a: &[f64], b: &[f64]) -> f64 {
    let n = a.len().min(b.len());
    if n < 2 {
        return 0.0;
    }
    let ma = a[..n].iter().sum::<f64>() / n as f64;
    let mb = b[..n].iter().sum::<f64>() / n as f64;
    let mut cov = 0.0;
    let mut va = 0.0;
    let mut vb = 0.0;
    for i in 0..n {
        let da = a[i] - ma;
        let db = b[i] - mb;
        cov += da * db;
        va += da * da;
        vb += db * db;
    }
    if va <= 0.0 || vb <= 0.0 {
        0.0
    } else {
        cov / (va.sqrt() * vb.sqrt())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use explore_storage::gen::{sales_table, SalesConfig};
    use explore_storage::{DataType, Schema};

    #[test]
    fn proposes_ranked_mixed_charts() {
        let t = sales_table(&SalesConfig {
            rows: 3000,
            ..SalesConfig::default()
        });
        let deck = propose_charts(&t, 50).unwrap();
        assert!(!deck.is_empty());
        assert!(deck.windows(2).all(|w| w[0].score >= w[1].score));
        let kinds: HashSet<_> = deck.iter().map(|p| p.kind).collect();
        assert!(kinds.contains(&ChartKind::Bar));
        assert!(kinds.contains(&ChartKind::HistogramChart));
        assert!(kinds.contains(&ChartKind::Scatter));
    }

    #[test]
    fn correlated_pair_outranks_uncorrelated_scatter() {
        use explore_storage::rng::SplitMix64;
        let mut rng = SplitMix64::new(1);
        let x: Vec<f64> = (0..2000).map(|_| rng.range_f64(0.0, 10.0)).collect();
        let y: Vec<f64> = x.iter().map(|&v| 2.0 * v + 0.1 * rng.gaussian()).collect();
        let z: Vec<f64> = (0..2000).map(|_| rng.range_f64(0.0, 10.0)).collect();
        let t = Table::new(
            Schema::of(&[
                ("x", DataType::Float64),
                ("y", DataType::Float64),
                ("z", DataType::Float64),
            ]),
            vec![
                explore_storage::Column::from(x),
                explore_storage::Column::from(y),
                explore_storage::Column::from(z),
            ],
        )
        .unwrap();
        let deck = propose_charts(&t, 20).unwrap();
        let scatters: Vec<&ChartProposal> = deck
            .iter()
            .filter(|p| p.kind == ChartKind::Scatter)
            .collect();
        assert_eq!(scatters[0].columns, vec!["x", "y"]);
    }

    #[test]
    fn k_limits_the_deck() {
        let t = sales_table(&SalesConfig {
            rows: 500,
            ..SalesConfig::default()
        });
        assert_eq!(propose_charts(&t, 3).unwrap().len(), 3);
    }

    #[test]
    fn constant_column_scores_low() {
        let t = Table::new(
            Schema::of(&[("c", DataType::Float64), ("v", DataType::Float64)]),
            vec![
                explore_storage::Column::from(vec![5.0; 100]),
                explore_storage::Column::from((0..100).map(|i| i as f64).collect::<Vec<_>>()),
            ],
        )
        .unwrap();
        let deck = propose_charts(&t, 10).unwrap();
        let hist_c = deck
            .iter()
            .find(|p| p.kind == ChartKind::HistogramChart && p.columns == vec!["c"])
            .unwrap();
        let hist_v = deck
            .iter()
            .find(|p| p.kind == ChartKind::HistogramChart && p.columns == vec!["v"])
            .unwrap();
        assert!(hist_v.score > hist_c.score);
    }

    #[test]
    fn helper_math() {
        assert_eq!(correlation(&[1.0], &[2.0]), 0.0);
        let a = [1.0, 2.0, 3.0];
        let b = [2.0, 4.0, 6.0];
        assert!((correlation(&a, &b) - 1.0).abs() < 1e-12);
        let c = [3.0, 2.0, 1.0];
        assert!((correlation(&a, &c) + 1.0).abs() < 1e-12);
        assert_eq!(moments(&[]), (0.0, 0.0));
    }
}
