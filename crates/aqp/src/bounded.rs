//! Error- and time-bounded approximate execution (BlinkDB \[6, 7\]).
//!
//! BlinkDB's contract: *"SELECT avg(x) ... ERROR WITHIN 2% AT CONFIDENCE
//! 95%"* or *"... WITHIN 100 ms"*. The runtime walks the sample catalog's
//! ladder from small to large, predicts each sample's error from its size
//! and a pilot variance estimate, and executes on the smallest sample
//! that satisfies the bound — or, for time bounds, the largest sample
//! that fits the latency budget given a calibrated processing rate.

use std::sync::Arc;
use std::time::Instant;

use explore_cache::{predicate_key, serve_or_compute, Fingerprint, ResultCache};
use explore_exec::{evaluate_selection, QueryCtx};
use explore_obs::MetricsRegistry;
use explore_sampling::{SampleCatalog, UniformSample};
use explore_storage::{
    Accumulator, AggFunc, Column, DataType, Measure, Predicate, Result, Schema, StorageError, Table,
};

use crate::ci::ConfidenceInterval;
use crate::online::RunningEstimate;

/// What the user asked to bound.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Bound {
    /// Maximum relative error (CI half-width / estimate) at the given
    /// confidence, e.g. `RelativeError { target: 0.02, confidence: 0.95 }`.
    RelativeError { target: f64, confidence: f64 },
    /// Maximum rows the execution may touch (the deterministic stand-in
    /// for a wall-clock budget; rows/sec is calibrated by the harness).
    RowBudget { rows: usize },
}

/// The outcome of a bounded approximate aggregate.
#[derive(Debug, Clone)]
pub struct BoundedAnswer {
    /// Estimate with confidence interval (scaled to the base table).
    pub interval: ConfidenceInterval,
    /// Sampling fraction of the sample actually used (1.0 = exact).
    pub fraction_used: f64,
    /// Rows scanned to produce the answer.
    pub rows_scanned: usize,
    /// True when the answer came from the full table.
    pub exact: bool,
}

/// Key the cache under the full request shape so distinct bounds never
/// collide (a looser bound legitimately yields a different answer).
fn answer_key(predicate: &Predicate, func: AggFunc, column: &str, bound: Bound) -> String {
    let b = match bound {
        Bound::RelativeError { target, confidence } => {
            format!("re:{:016x}:{:016x}", target.to_bits(), confidence.to_bits())
        }
        Bound::RowBudget { rows } => format!("rb:{rows}"),
    };
    format!(
        "aqp|p={}|f={func}|c={}:{column}|b={b}",
        predicate_key(predicate),
        column.len()
    )
}

/// Encode a [`BoundedAnswer`] as a one-row table for cache residency.
fn encode_answer(ans: &BoundedAnswer) -> Result<Table> {
    Table::new(
        Schema::of(&[
            ("estimate", DataType::Float64),
            ("half_width", DataType::Float64),
            ("confidence", DataType::Float64),
            ("fraction_used", DataType::Float64),
            ("rows_scanned", DataType::Int64),
            ("exact", DataType::Int64),
        ]),
        vec![
            Column::from(vec![ans.interval.estimate]),
            Column::from(vec![ans.interval.half_width]),
            Column::from(vec![ans.interval.confidence]),
            Column::from(vec![ans.fraction_used]),
            Column::from(vec![ans.rows_scanned as i64]),
            Column::from(vec![i64::from(ans.exact)]),
        ],
    )
    .map_err(|e| StorageError::Internal(format!("static answer schema: {e}")))
}

/// Decode [`encode_answer`]'s shape back; `None` on foreign entries.
fn decode_answer(t: &Table) -> Option<BoundedAnswer> {
    let f = |name: &str| -> Option<f64> { t.column(name).ok()?.as_f64()?.first().copied() };
    let i = |name: &str| -> Option<i64> { t.column(name).ok()?.as_i64()?.first().copied() };
    Some(BoundedAnswer {
        interval: ConfidenceInterval {
            estimate: f("estimate")?,
            half_width: f("half_width")?,
            confidence: f("confidence")?,
        },
        fraction_used: f("fraction_used")?,
        rows_scanned: i("rows_scanned")? as usize,
        exact: i("exact")? != 0,
    })
}

/// Bounded executor over a base table and its sample catalog.
#[derive(Debug)]
pub struct BoundedExecutor<'a> {
    base: &'a Table,
    catalog: &'a SampleCatalog,
    confidence_default: f64,
    /// Optional shared result cache, the base table's registered name,
    /// and the attach-time admission epoch.
    cache: Option<(Arc<ResultCache>, String, u64)>,
    /// Optional observability registry mirroring answer counters.
    metrics: Option<Arc<MetricsRegistry>>,
}

impl<'a> BoundedExecutor<'a> {
    /// Create an executor. `confidence_default` applies to row-budget
    /// queries (error-bounded queries carry their own confidence).
    pub fn new(base: &'a Table, catalog: &'a SampleCatalog) -> Self {
        BoundedExecutor {
            base,
            catalog,
            confidence_default: 0.95,
            cache: None,
            metrics: None,
        }
    }

    /// Memoize answers in the engine's shared result cache. A cached
    /// answer is bit-identical to rerunning against the same sample
    /// catalog; mutations of the base table invalidate it like any other
    /// cached result. `epoch` is `table_name`'s mutation epoch, read by
    /// the caller **before** snapshotting the base table this executor
    /// borrows — admissions use it so a mutation racing the attach
    /// leaves entries refused (dead epoch), never stale (see
    /// `explore_cache::cached_query_at_epoch`).
    pub fn with_cache(mut self, cache: Arc<ResultCache>, table_name: &str, epoch: u64) -> Self {
        self.cache = Some((cache, table_name.to_owned(), epoch));
        self
    }

    /// Mirror answer counters (`aqp.answers`, `aqp.exact_fallbacks`) and
    /// the `aqp.latency_ns` histogram into an observability registry.
    pub fn with_metrics(mut self, metrics: Arc<MetricsRegistry>) -> Self {
        self.metrics = Some(metrics);
        self
    }

    /// Approximate `func(column)` over rows matching `predicate`,
    /// honouring the bound. Falls back to exact execution when no sample
    /// suffices (the BlinkDB semantics).
    ///
    /// The context supplies the execution policy for predicate scans
    /// (sample scans are usually small, but the exact fallback walks the
    /// full base table, where a parallel morsel fan-out pays off — either policy
    /// yields bit-identical selections), and its cancellation tokens are
    /// checked per ladder rung and per scan morsel, so a deadline stops
    /// the sample-size escalation between rungs.
    pub fn aggregate(
        &self,
        predicate: &Predicate,
        func: AggFunc,
        column: &str,
        bound: Bound,
        ctx: &QueryCtx,
    ) -> Result<BoundedAnswer> {
        let started = self.metrics.as_ref().map(|_| Instant::now());
        // Through the shared cache's serve protocol when one is wired.
        let out = match &self.cache {
            None => self.aggregate_uncached(predicate, func, column, bound, ctx),
            Some((cache, table_name, epoch)) => {
                let fp =
                    Fingerprint::custom(table_name, answer_key(predicate, func, column, bound));
                let compute = || {
                    let ans = self.aggregate_uncached(predicate, func, column, bound, ctx)?;
                    Ok((encode_answer(&ans)?, None))
                };
                serve_or_compute(cache, fp, *epoch, ctx, |_, _| None, compute).and_then(|t| {
                    decode_answer(&t).ok_or_else(|| {
                        StorageError::Internal("cached answer lost its shape".into())
                    })
                })
            }
        };
        if let (Some(metrics), Some(started)) = (&self.metrics, started) {
            metrics.inc("aqp.answers", 1);
            metrics.observe_ns("aqp.latency_ns", started.elapsed().as_nanos() as u64);
            if matches!(&out, Ok(ans) if ans.exact) {
                metrics.inc("aqp.exact_fallbacks", 1);
            }
        }
        out
    }

    fn aggregate_uncached(
        &self,
        predicate: &Predicate,
        func: AggFunc,
        column: &str,
        bound: Bound,
        ctx: &QueryCtx,
    ) -> Result<BoundedAnswer> {
        match bound {
            Bound::RelativeError { target, confidence } => {
                for (fraction, sample) in self.catalog.uniform_ladder() {
                    ctx.check_cancel()?;
                    let ans = self.run_on_sample(
                        sample, fraction, predicate, func, column, confidence, ctx,
                    )?;
                    if ans.interval.relative_error() <= target {
                        return Ok(ans);
                    }
                }
                self.run_exact(predicate, func, column, ctx)
            }
            Bound::RowBudget { rows } => {
                // Largest sample fitting the budget.
                let ladder = self.catalog.uniform_ladder();
                match ladder
                    .iter()
                    .rev()
                    .find(|(_, s)| s.table().num_rows() <= rows)
                {
                    Some(&(fraction, sample)) => self.run_on_sample(
                        sample,
                        fraction,
                        predicate,
                        func,
                        column,
                        self.confidence_default,
                        ctx,
                    ),
                    None if self.base.num_rows() <= rows => {
                        self.run_exact(predicate, func, column, ctx)
                    }
                    None => Err(StorageError::InvalidQuery(format!(
                        "no sample fits a budget of {rows} rows"
                    ))),
                }
            }
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn run_on_sample(
        &self,
        sample: &UniformSample,
        fraction: f64,
        predicate: &Predicate,
        func: AggFunc,
        column: &str,
        confidence: f64,
        ctx: &QueryCtx,
    ) -> Result<BoundedAnswer> {
        let t = sample.table();
        let sel = evaluate_selection(t, predicate, ctx)?;
        let measure = Measure::resolve(t, func, column)?;
        // COUNT is the SUM of the 0/1 match indicator here: its interval
        // comes from the masked variable, like a filtered SUM's.
        let func = match func {
            AggFunc::Count => AggFunc::Sum,
            AggFunc::Sum | AggFunc::Avg => func,
            other => {
                return Err(StorageError::InvalidQuery(format!(
                    "bounded execution supports COUNT/SUM/AVG, not {other}"
                )))
            }
        };
        let mut estimate = RunningEstimate::default();
        // `sel` is ascending: one cursor walks it beside the row loop.
        let mut matches = sel.iter().peekable();
        for row in 0..t.num_rows() {
            let matched = matches.next_if(|&&m| m as usize == row).is_some();
            estimate.update(matched, measure.at(row));
        }
        let (n_sample, total) = (t.num_rows() as u64, sample.base_rows() as u64);
        Ok(BoundedAnswer {
            interval: estimate.interval(func, n_sample, total, confidence),
            fraction_used: fraction,
            rows_scanned: t.num_rows(),
            exact: false,
        })
    }

    fn run_exact(
        &self,
        predicate: &Predicate,
        func: AggFunc,
        column: &str,
        ctx: &QueryCtx,
    ) -> Result<BoundedAnswer> {
        let sel = evaluate_selection(self.base, predicate, ctx)?;
        let measure = Measure::resolve(self.base, func, column)?;
        let mut acc = Accumulator::new();
        for &row in &sel {
            acc.update(measure.at(row as usize));
        }
        Ok(BoundedAnswer {
            interval: ConfidenceInterval {
                estimate: acc.finish(func),
                half_width: 0.0,
                confidence: 1.0,
            },
            fraction_used: 1.0,
            rows_scanned: self.base.num_rows(),
            exact: true,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use explore_sampling::SampleCatalog;
    use explore_storage::gen::{sales_table, SalesConfig};

    fn setup() -> (Table, SampleCatalog) {
        let base = sales_table(&SalesConfig {
            rows: 100_000,
            ..SalesConfig::default()
        });
        let catalog =
            SampleCatalog::build(&base, &[0.001, 0.01, 0.05, 0.2], &[], 7, &QueryCtx::none())
                .unwrap();
        (base, catalog)
    }

    fn truth_avg(t: &Table) -> f64 {
        let p = t.column("price").unwrap().as_f64().unwrap();
        p.iter().sum::<f64>() / p.len() as f64
    }

    #[test]
    fn loose_bound_uses_small_sample() {
        let (base, catalog) = setup();
        let ex = BoundedExecutor::new(&base, &catalog);
        let ans = ex
            .aggregate(
                &Predicate::True,
                AggFunc::Avg,
                "price",
                Bound::RelativeError {
                    target: 0.10,
                    confidence: 0.95,
                },
                &QueryCtx::none(),
            )
            .unwrap();
        assert!(!ans.exact);
        assert!(ans.fraction_used <= 0.01, "used {}", ans.fraction_used);
        let truth = truth_avg(&base);
        assert!((ans.interval.estimate - truth).abs() / truth < 0.15);
    }

    #[test]
    fn tight_bound_escalates_to_larger_sample() {
        let (base, catalog) = setup();
        let ex = BoundedExecutor::new(&base, &catalog);
        let loose = ex
            .aggregate(
                &Predicate::True,
                AggFunc::Avg,
                "price",
                Bound::RelativeError {
                    target: 0.2,
                    confidence: 0.95,
                },
                &QueryCtx::none(),
            )
            .unwrap();
        let tight = ex
            .aggregate(
                &Predicate::True,
                AggFunc::Avg,
                "price",
                Bound::RelativeError {
                    target: 0.005,
                    confidence: 0.95,
                },
                &QueryCtx::none(),
            )
            .unwrap();
        assert!(tight.fraction_used > loose.fraction_used);
        assert!(tight.interval.relative_error() <= 0.005);
    }

    #[test]
    fn impossible_bound_falls_back_to_exact() {
        let (base, catalog) = setup();
        let ex = BoundedExecutor::new(&base, &catalog);
        let ans = ex
            .aggregate(
                &Predicate::True,
                AggFunc::Avg,
                "price",
                Bound::RelativeError {
                    target: 0.0,
                    confidence: 0.95,
                },
                &QueryCtx::none(),
            )
            .unwrap();
        assert!(ans.exact);
        assert_eq!(ans.fraction_used, 1.0);
        assert_eq!(ans.interval.half_width, 0.0);
    }

    #[test]
    fn row_budget_picks_largest_fitting_sample() {
        let (base, catalog) = setup();
        let ex = BoundedExecutor::new(&base, &catalog);
        let ans = ex
            .aggregate(
                &Predicate::True,
                AggFunc::Avg,
                "price",
                Bound::RowBudget { rows: 2000 },
                &QueryCtx::none(),
            )
            .unwrap();
        // 0.01 × 100k = 1000 fits; 0.05 × 100k = 5000 does not.
        assert!((ans.fraction_used - 0.01).abs() < 1e-9);
        assert!(ans.rows_scanned <= 2000);
    }

    #[test]
    fn row_budget_too_small_errors() {
        let (base, catalog) = setup();
        let ex = BoundedExecutor::new(&base, &catalog);
        let r = ex.aggregate(
            &Predicate::True,
            AggFunc::Avg,
            "price",
            Bound::RowBudget { rows: 10 },
            &QueryCtx::none(),
        );
        assert!(r.is_err());
    }

    #[test]
    fn sum_and_count_bracket_truth() {
        let (base, catalog) = setup();
        let ex = BoundedExecutor::new(&base, &catalog);
        let pred = Predicate::eq("region", "region0");
        let sel = pred.evaluate(&base).unwrap();
        let prices = base.column("price").unwrap().as_f64().unwrap();
        let truth_sum: f64 = sel.iter().map(|&i| prices[i as usize]).sum();
        let truth_count = sel.len() as f64;
        let sum = ex
            .aggregate(
                &pred,
                AggFunc::Sum,
                "price",
                Bound::RelativeError {
                    target: 0.05,
                    confidence: 0.99,
                },
                &QueryCtx::none(),
            )
            .unwrap();
        assert!(
            sum.interval.contains(truth_sum),
            "{:?} vs {truth_sum}",
            sum.interval
        );
        let count = ex
            .aggregate(
                &pred,
                AggFunc::Count,
                "qty",
                Bound::RelativeError {
                    target: 0.05,
                    confidence: 0.99,
                },
                &QueryCtx::none(),
            )
            .unwrap();
        assert!(
            count.interval.contains(truth_count),
            "{:?} vs {truth_count}",
            count.interval
        );
    }

    #[test]
    fn cached_answers_match_uncached_and_invalidate_on_epoch_bump() {
        let (base, catalog) = setup();
        let shared = Arc::new(ResultCache::default());
        let plain = BoundedExecutor::new(&base, &catalog);
        let cached = BoundedExecutor::new(&base, &catalog).with_cache(
            Arc::clone(&shared),
            "sales",
            shared.epoch("sales"),
        );
        let bound = Bound::RelativeError {
            target: 0.05,
            confidence: 0.95,
        };
        let truth = plain
            .aggregate(
                &Predicate::True,
                AggFunc::Avg,
                "price",
                bound,
                &QueryCtx::none(),
            )
            .unwrap();
        let cold = cached
            .aggregate(
                &Predicate::True,
                AggFunc::Avg,
                "price",
                bound,
                &QueryCtx::none(),
            )
            .unwrap();
        let warm = cached
            .aggregate(
                &Predicate::True,
                AggFunc::Avg,
                "price",
                bound,
                &QueryCtx::none(),
            )
            .unwrap();
        for ans in [&cold, &warm] {
            assert_eq!(
                truth.interval.estimate.to_bits(),
                ans.interval.estimate.to_bits()
            );
            assert_eq!(
                truth.interval.half_width.to_bits(),
                ans.interval.half_width.to_bits()
            );
            assert_eq!(truth.fraction_used, ans.fraction_used);
            assert_eq!(truth.rows_scanned, ans.rows_scanned);
            assert_eq!(truth.exact, ans.exact);
        }
        assert_eq!(shared.stats().hits, 1);
        // A different bound is a different key, never a false hit.
        let budgeted = cached
            .aggregate(
                &Predicate::True,
                AggFunc::Avg,
                "price",
                Bound::RowBudget { rows: 2000 },
                &QueryCtx::none(),
            )
            .unwrap();
        assert!((budgeted.fraction_used - 0.01).abs() < 1e-9);
        assert_eq!(shared.stats().hits, 1);
        // An epoch bump (base-table mutation) invalidates the answers.
        shared.bump_epoch("sales");
        cached
            .aggregate(
                &Predicate::True,
                AggFunc::Avg,
                "price",
                bound,
                &QueryCtx::none(),
            )
            .unwrap();
        assert_eq!(shared.stats().hits, 1, "stale answer is never served");
    }

    #[test]
    fn metrics_count_answers_and_exact_fallbacks() {
        let (base, catalog) = setup();
        let m = Arc::new(MetricsRegistry::default());
        let ex = BoundedExecutor::new(&base, &catalog).with_metrics(Arc::clone(&m));
        ex.aggregate(
            &Predicate::True,
            AggFunc::Avg,
            "price",
            Bound::RelativeError {
                target: 0.10,
                confidence: 0.95,
            },
            &QueryCtx::none(),
        )
        .unwrap();
        ex.aggregate(
            &Predicate::True,
            AggFunc::Avg,
            "price",
            Bound::RelativeError {
                target: 0.0,
                confidence: 0.95,
            },
            &QueryCtx::none(),
        )
        .unwrap();
        let snap = m.snapshot();
        assert_eq!(snap.counter("aqp.answers"), 2);
        assert_eq!(snap.counter("aqp.exact_fallbacks"), 1);
        assert_eq!(snap.histogram("aqp.latency_ns").unwrap().count, 2);
    }

    #[test]
    fn unsupported_aggregate_is_rejected() {
        let (base, catalog) = setup();
        let ex = BoundedExecutor::new(&base, &catalog);
        let r = ex.aggregate(
            &Predicate::True,
            AggFunc::Max,
            "price",
            Bound::RelativeError {
                target: 0.5,
                confidence: 0.95,
            },
            &QueryCtx::none(),
        );
        assert!(r.is_err());
    }
}
