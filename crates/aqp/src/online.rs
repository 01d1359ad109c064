//! Online aggregation (Hellerstein, Haas, Wang — SIGMOD'97; the CONTROL
//! project \[24, 25\]).
//!
//! Instead of blocking until a full scan completes, the aggregate is
//! computed over a *random permutation* of the rows, and a running
//! estimate with a shrinking confidence interval is exposed after every
//! batch. The user watches the interval collapse and stops as soon as
//! the answer is "interesting or clearly not" — the founding idea of
//! approximate interfaces for exploration.

use explore_fault::CancelToken;
use explore_storage::{Accumulator, AggFunc, Measure, Predicate, Result, Table};

use crate::ci::{count_interval, mean_interval, sum_interval, ConfidenceInterval};
use crate::walk::SeededWalk;

/// One progress snapshot of a running online aggregation.
#[derive(Debug, Clone, Copy)]
pub struct Snapshot {
    /// Rows processed so far (before filtering).
    pub processed: u64,
    /// Fraction of the table processed.
    pub fraction: f64,
    /// Running estimate with its confidence interval.
    pub interval: ConfidenceInterval,
}

/// The running state behind a filtered scalar estimate, fed one row at a
/// time in whatever order the caller scans: online aggregation walks a
/// seeded permutation, bounded execution a sample in row order.
#[derive(Debug, Default)]
pub(crate) struct RunningEstimate {
    /// Values of the matching rows.
    acc: Accumulator,
    /// The *masked* variable (value when the row matches, 0 otherwise)
    /// over all seen rows — the i.i.d. variable whose CLT interval is
    /// valid for filtered SUMs.
    masked: Accumulator,
}

impl RunningEstimate {
    /// Fold one seen row in.
    #[inline]
    pub(crate) fn update(&mut self, matches: bool, x: f64) {
        if matches {
            self.acc.update(x);
            self.masked.update(x);
        } else {
            self.masked.update(0.0);
        }
    }

    /// `func`'s estimate after `seen` of `total` rows.
    pub(crate) fn interval(
        &self,
        func: AggFunc,
        seen: u64,
        total: u64,
        confidence: f64,
    ) -> ConfidenceInterval {
        let n = self.acc.count();
        match func {
            AggFunc::Count => count_interval(n, seen, total, confidence),
            AggFunc::Avg => {
                // The population of *matching* rows is unknown mid-flight;
                // estimate it from the running selectivity.
                let matching = if seen == 0 {
                    total
                } else {
                    ((n as f64 / seen as f64 * total as f64).round() as u64).max(n)
                };
                mean_interval(
                    self.acc.mean(),
                    self.acc.sample_variance(),
                    n,
                    matching,
                    confidence,
                )
            }
            // SUM over matching rows = mean over *all* rows of
            // (value × 1[match]) scaled by the table size; the masked
            // accumulator tracks exactly that i.i.d. variable.
            AggFunc::Sum => sum_interval(
                self.masked.mean(),
                self.masked.sample_variance(),
                seen,
                total,
                confidence,
            ),
            AggFunc::Min | AggFunc::Max | AggFunc::Var | AggFunc::Std => ConfidenceInterval {
                // Extremes have no CLT interval; report the running value
                // with unknown error (the CONTROL papers do the same).
                estimate: self.acc.finish(func),
                half_width: f64::INFINITY,
                confidence,
            },
        }
    }
}

/// An in-progress online aggregation over one table.
#[derive(Debug)]
pub struct OnlineAggregation {
    walk: SeededWalk,
    func: AggFunc,
    confidence: f64,
    estimate: RunningEstimate,
    /// Pre-evaluated filter mask (evaluating per-batch would rescan).
    mask: Vec<bool>,
    /// Column values to aggregate, by row id.
    values: Vec<f64>,
}

impl OnlineAggregation {
    /// Start an online aggregation of `func(column)` over rows matching
    /// `predicate`. `COUNT` counts matching rows; other functions
    /// require a numeric column.
    pub fn start(
        table: &Table,
        predicate: &Predicate,
        func: AggFunc,
        column: &str,
        confidence: f64,
        seed: u64,
    ) -> Result<Self> {
        let measure = Measure::resolve(table, func, column)?;
        let n = table.num_rows();
        Ok(OnlineAggregation {
            walk: SeededWalk::new(n, seed),
            func,
            confidence,
            estimate: RunningEstimate::default(),
            mask: predicate.evaluate_mask(table)?,
            values: (0..n).map(|row| measure.at(row)).collect(),
        })
    }

    /// Attach a cancellation token checked before every batch, so a
    /// deadline or external cancel stops the aggregation within one
    /// batch of work. The already-accumulated estimate stays valid and
    /// [`snapshot`](Self::snapshot) keeps serving it.
    pub fn with_cancel(mut self, cancel: Option<CancelToken>) -> Self {
        self.walk = self.walk.with_cancel(cancel);
        self
    }

    /// Process up to `batch` more rows (at least one); returns the new
    /// snapshot, or `Ok(None)` when the table is exhausted (the last
    /// snapshot before exhaustion is exact). An attached cancel token is
    /// checked before the batch runs; a triggered token surfaces as
    /// `Cancelled`/`DeadlineExceeded` without touching more rows.
    pub fn step(&mut self, batch: usize) -> Result<Option<Snapshot>> {
        let Some(rows) = self.walk.next_batch(batch)? else {
            return Ok(None);
        };
        for &row in rows {
            let row = row as usize;
            self.estimate.update(self.mask[row], self.values[row]);
        }
        Ok(Some(self.snapshot()))
    }

    /// The current snapshot without processing more rows.
    pub fn snapshot(&self) -> Snapshot {
        let (seen, total) = (self.walk.seen(), self.walk.total());
        Snapshot {
            processed: seen,
            fraction: self.walk.fraction(),
            interval: self
                .estimate
                .interval(self.func, seen, total, self.confidence),
        }
    }

    /// Run until the relative CI half-width drops to `target` (or the
    /// table is exhausted), recording a snapshot per batch. Returns the
    /// trace — the data behind experiment E5's "CI width vs tuples" plot.
    /// A triggered cancel token stops within one batch; snapshots taken
    /// before the stop are lost to the caller, but the running estimate
    /// remains queryable via [`snapshot`](Self::snapshot).
    pub fn run_until(&mut self, target_relative_error: f64, batch: usize) -> Result<Vec<Snapshot>> {
        let mut trace = Vec::new();
        while let Some(snap) = self.step(batch)? {
            let done = snap.interval.relative_error() <= target_relative_error;
            trace.push(snap);
            if done {
                break;
            }
        }
        Ok(trace)
    }

    /// True when every row has been processed (estimate is exact).
    pub fn is_exhausted(&self) -> bool {
        self.walk.is_exhausted()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use explore_storage::gen::{sales_table, SalesConfig};

    fn table() -> Table {
        sales_table(&SalesConfig {
            rows: 50_000,
            ..SalesConfig::default()
        })
    }

    fn truth_avg(t: &Table) -> f64 {
        let p = t.column("price").unwrap().as_f64().unwrap();
        p.iter().sum::<f64>() / p.len() as f64
    }

    #[test]
    fn avg_estimate_converges_to_truth() {
        let t = table();
        let truth = truth_avg(&t);
        let mut oa =
            OnlineAggregation::start(&t, &Predicate::True, AggFunc::Avg, "price", 0.95, 1).unwrap();
        let trace = oa.run_until(0.001, 1000).unwrap();
        assert!(!trace.is_empty());
        // CI width shrinks monotonically-ish; compare first vs last.
        let first = trace.first().unwrap().interval.half_width;
        let last = trace.last().unwrap().interval.half_width;
        assert!(last < first / 3.0, "first {first} last {last}");
        // Final estimate is close to truth.
        let est = trace.last().unwrap().interval.estimate;
        assert!(
            (est - truth).abs() / truth < 0.02,
            "est {est} truth {truth}"
        );
    }

    #[test]
    fn early_stop_needs_far_fewer_rows_than_scan() {
        let t = table();
        let mut oa =
            OnlineAggregation::start(&t, &Predicate::True, AggFunc::Avg, "price", 0.95, 2).unwrap();
        let trace = oa.run_until(0.01, 500).unwrap(); // ±1%
        let processed = trace.last().unwrap().processed;
        assert!(processed < 25_000, "needed {processed} of 50k rows for ±1%");
        assert!(!oa.is_exhausted());
    }

    #[test]
    fn exhaustion_gives_exact_answer() {
        let t = sales_table(&SalesConfig {
            rows: 1000,
            ..SalesConfig::default()
        });
        let truth = truth_avg(&t);
        let mut oa =
            OnlineAggregation::start(&t, &Predicate::True, AggFunc::Avg, "price", 0.95, 3).unwrap();
        let mut last = None;
        while let Some(s) = oa.step(100).unwrap() {
            last = Some(s);
        }
        let s = last.unwrap();
        assert!(oa.is_exhausted());
        assert!((s.interval.estimate - truth).abs() < 1e-9);
        assert_eq!(s.interval.half_width, 0.0, "FPC collapses at 100%");
        assert!((s.fraction - 1.0).abs() < 1e-12);
    }

    #[test]
    fn count_with_filter_brackets_truth() {
        let t = table();
        let pred = Predicate::eq("region", "region0");
        let truth = pred.evaluate(&t).unwrap().len() as f64;
        let mut oa = OnlineAggregation::start(&t, &pred, AggFunc::Count, "qty", 0.99, 4).unwrap();
        oa.step(5000).unwrap();
        let s = oa.snapshot();
        assert!(
            s.interval.contains(truth),
            "interval {:?} vs truth {truth}",
            s.interval
        );
    }

    #[test]
    fn sum_interval_brackets_truth() {
        let t = table();
        let pred = Predicate::eq("region", "region1");
        let sel = pred.evaluate(&t).unwrap();
        let prices = t.column("price").unwrap().as_f64().unwrap();
        let truth: f64 = sel.iter().map(|&i| prices[i as usize]).sum();
        let mut hits = 0;
        let trials = 30;
        for seed in 0..trials {
            let mut oa =
                OnlineAggregation::start(&t, &pred, AggFunc::Sum, "price", 0.95, seed).unwrap();
            oa.step(5000).unwrap();
            if oa.snapshot().interval.contains(truth) {
                hits += 1;
            }
        }
        assert!(hits >= trials * 8 / 10, "coverage {hits}/{trials}");
    }

    #[test]
    fn zero_batch_still_makes_progress() {
        let t = sales_table(&SalesConfig {
            rows: 10,
            ..SalesConfig::default()
        });
        let mut oa =
            OnlineAggregation::start(&t, &Predicate::True, AggFunc::Avg, "price", 0.95, 7).unwrap();
        for _ in 0..10 {
            assert!(oa.step(0).unwrap().is_some());
        }
        assert!(oa.is_exhausted(), "each zero batch takes one row");
        assert!(oa.step(0).unwrap().is_none());
    }

    #[test]
    fn min_max_have_unknown_error() {
        let t = table();
        let mut oa =
            OnlineAggregation::start(&t, &Predicate::True, AggFunc::Max, "price", 0.95, 5).unwrap();
        oa.step(100).unwrap();
        assert!(oa.snapshot().interval.half_width.is_infinite());
    }

    #[test]
    fn string_aggregation_is_rejected() {
        let t = table();
        assert!(
            OnlineAggregation::start(&t, &Predicate::True, AggFunc::Sum, "region", 0.95, 6)
                .is_err()
        );
    }
}

#[cfg(test)]
mod cancel_tests {
    use super::*;
    use explore_storage::gen::{sales_table, SalesConfig};
    use explore_storage::StorageError;

    #[test]
    fn triggered_token_stops_within_one_batch() {
        let t = sales_table(&SalesConfig {
            rows: 10_000,
            ..SalesConfig::default()
        });
        let token = CancelToken::after_checks(2);
        let mut oa = OnlineAggregation::start(&t, &Predicate::True, AggFunc::Avg, "price", 0.95, 1)
            .unwrap()
            .with_cancel(Some(token));
        assert!(oa.step(100).unwrap().is_some());
        assert!(oa.step(100).unwrap().is_some());
        assert!(matches!(oa.step(100), Err(StorageError::Cancelled)));
        // The running estimate survives the stop.
        assert_eq!(oa.snapshot().processed, 200);
    }
}
