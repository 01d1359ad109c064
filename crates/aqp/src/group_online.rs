//! Group-wise online aggregation — the full CONTROL experience \[24, 25\]:
//! a GROUP BY whose *every bar* carries a live, shrinking confidence
//! interval, so the analyst watches all groups converge simultaneously
//! and can stop the moment the interesting comparison is settled.
//!
//! The implementation mirrors [`crate::online`] but maintains one
//! accumulator per group; per-group intervals use each group's own
//! sample count and variance. Group membership is known per row (the
//! dimension column), so group sizes are estimated from running
//! frequencies, exactly like the selectivity estimate in the scalar
//! case.

use explore_fault::CancelToken;
use explore_storage::{Accumulator, AggFunc, Dictionary, Measure, Result, Table};

use crate::ci::{mean_interval, ConfidenceInterval};
use crate::walk::SeededWalk;

/// The running state of one group.
#[derive(Debug, Clone)]
pub struct GroupEstimate {
    pub group: String,
    pub interval: ConfidenceInterval,
    /// Rows of this group seen so far.
    pub seen: u64,
}

/// An in-progress group-wise online aggregation (currently AVG — the
/// aggregate the CONTROL papers demonstrate; SUM/COUNT compose from the
/// scalar machinery in [`crate::online`]).
#[derive(Debug)]
pub struct GroupedOnlineAggregation {
    walk: SeededWalk,
    groups: Dictionary,
    values: Vec<f64>,
    confidence: f64,
    /// One accumulator per group code; a group no row has reached yet
    /// has count 0 and is not reported.
    accs: Vec<Accumulator>,
}

impl GroupedOnlineAggregation {
    /// Start `AVG(measure) GROUP BY dimension` online.
    pub fn start(
        table: &Table,
        dimension: &str,
        measure: &str,
        confidence: f64,
        seed: u64,
    ) -> Result<Self> {
        let groups = Dictionary::encode(table, dimension)?;
        let measure = Measure::resolve(table, AggFunc::Avg, measure)?;
        let n = table.num_rows();
        Ok(GroupedOnlineAggregation {
            walk: SeededWalk::new(n, seed),
            values: (0..n).map(|row| measure.at(row)).collect(),
            accs: vec![Accumulator::new(); groups.labels().len()],
            groups,
            confidence,
        })
    }

    /// Attach a cancellation token checked before every batch; see
    /// [`crate::online::OnlineAggregation::with_cancel`].
    pub fn with_cancel(mut self, cancel: Option<CancelToken>) -> Self {
        self.walk = self.walk.with_cancel(cancel);
        self
    }

    /// Process up to `batch` more rows (at least one); `Ok(None)` once
    /// exhausted. An attached cancel token is checked before the batch
    /// runs.
    pub fn step(&mut self, batch: usize) -> Result<Option<Vec<GroupEstimate>>> {
        let Some(rows) = self.walk.next_batch(batch)? else {
            return Ok(None);
        };
        let codes = self.groups.codes();
        for &row in rows {
            let row = row as usize;
            self.accs[codes[row] as usize].update(self.values[row]);
        }
        Ok(Some(self.snapshot()))
    }

    /// Current per-group estimates of the groups seen so far, sorted by
    /// group label.
    pub fn snapshot(&self) -> Vec<GroupEstimate> {
        let (seen, total) = (self.walk.seen(), self.walk.total());
        let labels = self.groups.labels();
        self.groups
            .label_order()
            .into_iter()
            .filter_map(|code| {
                let acc = &self.accs[code as usize];
                if acc.count() == 0 {
                    return None;
                }
                // Estimated group population: running frequency scaled to
                // the table (collapses to exact size at 100% via FPC).
                let est_pop = ((acc.count() as f64 / seen as f64) * total as f64).round() as u64;
                Some(GroupEstimate {
                    group: labels[code as usize].clone(),
                    interval: mean_interval(
                        acc.mean(),
                        acc.sample_variance(),
                        acc.count(),
                        est_pop.max(acc.count()),
                        self.confidence,
                    ),
                    seen: acc.count(),
                })
            })
            .collect()
    }

    /// True when every row has been processed.
    pub fn is_exhausted(&self) -> bool {
        self.walk.is_exhausted()
    }

    /// Fraction of the table processed.
    pub fn fraction(&self) -> f64 {
        self.walk.fraction()
    }

    /// Run until every group's *relative* CI half-width is at or below
    /// `target` (or data is exhausted). Returns the final snapshot. A
    /// triggered cancel token stops within one batch.
    pub fn run_until(&mut self, target: f64, batch: usize) -> Result<Vec<GroupEstimate>> {
        let mut last = self.snapshot();
        while let Some(snap) = self.step(batch)? {
            let done =
                !snap.is_empty() && snap.iter().all(|g| g.interval.relative_error() <= target);
            last = snap;
            if done {
                break;
            }
        }
        Ok(last)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use explore_storage::gen::{sales_table, SalesConfig};
    use explore_storage::{AggFunc, Predicate, Query, SortOrder};
    use std::collections::HashMap;

    fn table() -> Table {
        sales_table(&SalesConfig {
            rows: 60_000,
            ..SalesConfig::default()
        })
    }

    fn truth(t: &Table) -> HashMap<String, f64> {
        let r = Query::new()
            .group("region")
            .agg(AggFunc::Avg, "price")
            .run(t)
            .unwrap();
        let labels = r.column("region").unwrap().as_utf8().unwrap();
        let avgs = r.column("avg(price)").unwrap().as_f64().unwrap();
        labels.iter().cloned().zip(avgs.iter().copied()).collect()
    }

    #[test]
    fn intervals_bracket_group_truths() {
        let t = table();
        let truths = truth(&t);
        let mut g = GroupedOnlineAggregation::start(&t, "region", "price", 0.99, 1).unwrap();
        g.step(10_000).unwrap();
        let snap = g.snapshot();
        assert!(!snap.is_empty());
        let mut covered = 0;
        for est in &snap {
            if est.interval.contains(truths[&est.group]) {
                covered += 1;
            }
        }
        // 99% intervals: allow at most one miss across ~8 groups.
        assert!(
            covered + 1 >= snap.len(),
            "covered {covered}/{}",
            snap.len()
        );
    }

    #[test]
    fn exhaustion_gives_exact_group_means() {
        let t = sales_table(&SalesConfig {
            rows: 3_000,
            ..SalesConfig::default()
        });
        let truths = truth(&t);
        let mut g = GroupedOnlineAggregation::start(&t, "region", "price", 0.95, 2).unwrap();
        while g.step(500).unwrap().is_some() {}
        assert!(g.is_exhausted());
        assert!((g.fraction() - 1.0).abs() < 1e-12);
        for est in g.snapshot() {
            assert!(
                (est.interval.estimate - truths[&est.group]).abs() < 1e-9,
                "{}",
                est.group
            );
            assert_eq!(est.interval.half_width, 0.0, "FPC collapse");
        }
    }

    #[test]
    fn run_until_stops_early_on_easy_targets() {
        let t = table();
        let mut g = GroupedOnlineAggregation::start(&t, "region", "price", 0.95, 3).unwrap();
        let snap = g.run_until(0.05, 2_000).unwrap();
        assert!(!g.is_exhausted(), "±5% should not need the whole table");
        assert!(snap.iter().all(|e| e.interval.relative_error() <= 0.05));
        // Rare groups gate the stop: the largest group is tight long
        // before the smallest.
        let max_seen = snap.iter().map(|e| e.seen).max().unwrap();
        let min_seen = snap.iter().map(|e| e.seen).min().unwrap();
        assert!(max_seen > min_seen, "skewed groups converge unevenly");
    }

    #[test]
    fn small_groups_have_wider_intervals() {
        let t = table(); // zipf-skewed regions
        let mut g = GroupedOnlineAggregation::start(&t, "region", "price", 0.95, 4).unwrap();
        g.step(5_000).unwrap();
        let snap = g.snapshot();
        let biggest = snap.iter().max_by_key(|e| e.seen).unwrap();
        let smallest = snap.iter().min_by_key(|e| e.seen).unwrap();
        assert!(
            smallest.interval.half_width > biggest.interval.half_width,
            "small {} vs big {}",
            smallest.interval.half_width,
            biggest.interval.half_width
        );
    }

    #[test]
    fn zero_batch_still_makes_progress() {
        let t = sales_table(&SalesConfig {
            rows: 10,
            ..SalesConfig::default()
        });
        let mut g = GroupedOnlineAggregation::start(&t, "region", "price", 0.95, 7).unwrap();
        for _ in 0..10 {
            assert!(g.step(0).unwrap().is_some());
        }
        assert!(g.is_exhausted(), "each zero batch takes one row");
        let seen: u64 = g.snapshot().iter().map(|e| e.seen).sum();
        assert_eq!(seen, 10);
    }

    #[test]
    fn type_errors() {
        let t = table();
        assert!(GroupedOnlineAggregation::start(&t, "price", "qty", 0.95, 5).is_err());
        assert!(GroupedOnlineAggregation::start(&t, "region", "channel", 0.95, 5).is_err());
        assert!(GroupedOnlineAggregation::start(&t, "nope", "price", 0.95, 5).is_err());
    }

    #[test]
    fn predicate_free_api_matches_filtered_query_shape() {
        // Sanity: group set matches the exact group-by's groups.
        let t = table();
        let mut g = GroupedOnlineAggregation::start(&t, "region", "price", 0.95, 6).unwrap();
        while g.step(20_000).unwrap().is_some() {}
        let online_groups: Vec<String> = g.snapshot().into_iter().map(|e| e.group).collect();
        let exact = Query::new()
            .filter(Predicate::True)
            .group("region")
            .agg(AggFunc::Avg, "price")
            .order("region", SortOrder::Asc)
            .run(&t)
            .unwrap();
        let exact_groups = exact.column("region").unwrap().as_utf8().unwrap();
        assert_eq!(online_groups, exact_groups);
    }
}
