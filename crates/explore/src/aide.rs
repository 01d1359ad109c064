//! Explore-by-example (Dimitriadou, Papaemmanouil, Diao — SIGMOD'14
//! \[18\]): automatic query steering from relevance feedback.
//!
//! The user cannot write the query but can say "this tuple is relevant /
//! irrelevant". AIDE iterates: show a few samples → collect labels →
//! fit a decision-tree model of the interest region → sample the *next*
//! batch near the model's decision boundary (plus some exploration) →
//! repeat. After a handful of iterations the extracted predicate
//! retrieves the user's intended result set with high F1.
//!
//! The human is simulated by a [`LabelOracle`] wrapping a hidden target
//! predicate — the evaluation device the original paper uses.

use explore_storage::rng::SplitMix64;
use explore_storage::{Predicate, Result, StorageError, Table};

use crate::tree::{TreeConfig, TreeNode};

/// Answers label requests from a hidden target predicate.
#[derive(Debug)]
pub struct LabelOracle<'a> {
    table: &'a Table,
    target: Predicate,
    /// Labels provided so far (the user-effort metric).
    pub labels_given: u64,
}

impl<'a> LabelOracle<'a> {
    /// Wrap a hidden target over a table.
    pub fn new(table: &'a Table, target: Predicate) -> Self {
        LabelOracle {
            table,
            target,
            labels_given: 0,
        }
    }

    /// Label one row: does it survive the target's evaluation, the one
    /// [`LabelOracle::truth`] runs over every row?
    pub fn label(&mut self, row: usize) -> Result<bool> {
        self.labels_given += 1;
        let len = self.table.num_rows();
        let id =
            u32::try_from(row).map_err(|_| StorageError::RowOutOfBounds { index: row, len })?;
        Ok(!self.target.evaluate_at(self.table, &[id])?.is_empty())
    }

    /// Ground-truth row set (for evaluation only, not visible to the
    /// learner).
    pub fn truth(&self) -> Result<Vec<u32>> {
        self.target.evaluate(self.table)
    }
}

/// One iteration's quality measurement.
#[derive(Debug, Clone, Copy)]
pub struct IterationReport {
    pub iteration: usize,
    pub labels_total: u64,
    pub precision: f64,
    pub recall: f64,
    pub f1: f64,
}

/// Configuration of the steering loop.
#[derive(Debug, Clone, Copy)]
pub struct AideConfig {
    /// Labels requested per iteration.
    pub batch: usize,
    /// Fraction of each batch drawn near the decision boundary
    /// (the rest is uniform exploration).
    pub exploit_fraction: f64,
    pub tree: TreeConfig,
    pub seed: u64,
}

impl Default for AideConfig {
    fn default() -> Self {
        AideConfig {
            batch: 30,
            exploit_fraction: 0.7,
            tree: TreeConfig::default(),
            seed: 42,
        }
    }
}

/// The explore-by-example session driver.
#[derive(Debug)]
pub struct AideSession<'a> {
    /// Kept for lifetime anchoring and future row materialization APIs.
    #[allow(dead_code)]
    table: &'a Table,
    features: Vec<String>,
    points: Vec<Vec<f64>>,
    labeled: Vec<(usize, bool)>,
    model: Option<TreeNode>,
    config: AideConfig,
    rng: SplitMix64,
}

impl<'a> AideSession<'a> {
    /// Start a session exploring over the named numeric feature columns.
    pub fn new(table: &'a Table, features: &[&str], config: AideConfig) -> Result<Self> {
        let mut points = vec![Vec::with_capacity(features.len()); table.num_rows()];
        for name in features {
            let col = table.column(name)?;
            for (row, p) in points.iter_mut().enumerate() {
                p.push(col.numeric_at(row).ok_or_else(|| {
                    explore_storage::StorageError::TypeMismatch {
                        column: name.to_string(),
                        expected: "numeric",
                        found: col.data_type().name(),
                    }
                })?);
            }
        }
        Ok(AideSession {
            table,
            features: features.iter().map(|s| s.to_string()).collect(),
            points,
            labeled: Vec::new(),
            model: None,
            config,
            rng: SplitMix64::new(config.seed),
        })
    }

    /// Run one iteration: pick a batch, ask the oracle, retrain.
    pub fn iterate(&mut self, oracle: &mut LabelOracle) -> Result<()> {
        let batch = self.pick_batch();
        for row in batch {
            let label = oracle.label(row)?;
            self.labeled.push((row, label));
        }
        let pts: Vec<Vec<f64>> = self
            .labeled
            .iter()
            .map(|&(r, _)| self.points[r].clone())
            .collect();
        let labels: Vec<bool> = self.labeled.iter().map(|&(_, l)| l).collect();
        self.model = Some(TreeNode::train(&pts, &labels, self.config.tree));
        Ok(())
    }

    /// Choose the next rows to label: boundary-adjacent exploitation
    /// plus uniform exploration.
    fn pick_batch(&mut self) -> Vec<usize> {
        let n = self.points.len();
        let batch = self.config.batch.min(n);
        let already: std::collections::HashSet<usize> =
            self.labeled.iter().map(|&(r, _)| r).collect();
        let mut picked = Vec::with_capacity(batch);
        if let Some(model) = &self.model {
            // Exploitation: rows whose prediction flips when features are
            // jittered slightly sit near the boundary.
            let exploit_n = (batch as f64 * self.config.exploit_fraction) as usize;
            let mut tried = 0;
            while picked.len() < exploit_n && tried < n * 2 {
                tried += 1;
                let row = self.rng.below(n as u64) as usize;
                if already.contains(&row) || picked.contains(&row) {
                    continue;
                }
                let p = &self.points[row];
                let base = model.predict(p);
                let mut jittered = p.clone();
                for v in jittered.iter_mut() {
                    *v += self.rng.range_f64(-2.0, 2.0);
                }
                if model.predict(&jittered) != base {
                    picked.push(row);
                }
            }
        }
        // Exploration fills the rest uniformly.
        let mut guard = 0;
        while picked.len() < batch && guard < n * 4 {
            guard += 1;
            let row = self.rng.below(n as u64) as usize;
            if !already.contains(&row) && !picked.contains(&row) {
                picked.push(row);
            }
        }
        picked
    }

    /// Evaluate the current model against the oracle's ground truth.
    pub fn evaluate(&self, oracle: &LabelOracle, iteration: usize) -> Result<IterationReport> {
        let truth: std::collections::HashSet<u32> = oracle.truth()?.into_iter().collect();
        let mut tp = 0u64;
        let mut fp = 0u64;
        let mut fn_ = 0u64;
        match &self.model {
            Some(model) => {
                for (row, p) in self.points.iter().enumerate() {
                    let predicted = model.predict(p);
                    let actual = truth.contains(&(row as u32));
                    match (predicted, actual) {
                        (true, true) => tp += 1,
                        (true, false) => fp += 1,
                        (false, true) => fn_ += 1,
                        (false, false) => {}
                    }
                }
            }
            None => fn_ = truth.len() as u64,
        }
        let precision = if tp + fp == 0 {
            0.0
        } else {
            tp as f64 / (tp + fp) as f64
        };
        let recall = if tp + fn_ == 0 {
            1.0
        } else {
            tp as f64 / (tp + fn_) as f64
        };
        let f1 = if precision + recall == 0.0 {
            0.0
        } else {
            2.0 * precision * recall / (precision + recall)
        };
        Ok(IterationReport {
            iteration,
            labels_total: oracle.labels_given,
            precision,
            recall,
            f1,
        })
    }

    /// Extract the learned model as a SQL-style predicate over the
    /// feature columns (a disjunction of per-region conjunctive ranges).
    pub fn extracted_predicate(&self) -> Option<Predicate> {
        let model = self.model.as_ref()?;
        let regions = model.positive_regions(self.features.len());
        if regions.is_empty() {
            return None;
        }
        let mut region_preds = Vec::with_capacity(regions.len());
        for region in regions {
            let mut p = Predicate::True;
            for (f, &(lo, hi)) in region.iter().enumerate() {
                if lo.is_finite() || hi.is_finite() {
                    let lo = if lo.is_finite() { lo } else { f64::MIN };
                    let hi = if hi.is_finite() { hi } else { f64::MAX };
                    p = p.and(Predicate::range(self.features[f].clone(), lo, hi));
                }
            }
            region_preds.push(p);
        }
        Some(if region_preds.len() == 1 {
            region_preds.pop().expect("non-empty")
        } else {
            Predicate::Or(region_preds)
        })
    }

    /// Run a full session for `iterations` rounds, reporting quality
    /// after each — the data behind experiment E8.
    pub fn run(
        &mut self,
        oracle: &mut LabelOracle,
        iterations: usize,
    ) -> Result<Vec<IterationReport>> {
        let mut reports = Vec::with_capacity(iterations);
        for it in 0..iterations {
            self.iterate(oracle)?;
            reports.push(self.evaluate(oracle, it)?);
        }
        Ok(reports)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use explore_storage::gen::{feature_table, sales_table, SalesConfig};

    fn target() -> Predicate {
        Predicate::range("f0", 20.0, 60.0).and(Predicate::range("f1", 30.0, 70.0))
    }

    #[test]
    fn f1_improves_with_iterations() {
        let t = feature_table(5000, 2, 1);
        let mut oracle = LabelOracle::new(&t, target());
        let mut session = AideSession::new(&t, &["f0", "f1"], AideConfig::default()).unwrap();
        let reports = session.run(&mut oracle, 8).unwrap();
        let first = reports.first().unwrap().f1;
        let last = reports.last().unwrap().f1;
        assert!(last > first, "first {first} last {last}");
        assert!(last > 0.8, "final F1 {last}");
    }

    #[test]
    fn labels_and_truth_share_one_evaluator() {
        let t = feature_table(200, 2, 5);
        let mut oracle = LabelOracle::new(&t, Predicate::range("f0", 20.0, 60.0));
        let truth = oracle.truth().unwrap();
        let labelled: Vec<u32> = (0..t.num_rows())
            .filter(|&row| oracle.label(row).unwrap())
            .map(|row| row as u32)
            .collect();
        assert_eq!(labelled, truth);
        // A literal of the wrong type is the same error either way, not
        // a label of `false` for every row.
        let sales = sales_table(&SalesConfig {
            rows: 200,
            ..SalesConfig::default()
        });
        let mut oracle = LabelOracle::new(&sales, Predicate::eq("qty", 2.5));
        let err = oracle.truth().unwrap_err();
        assert!(matches!(err, StorageError::TypeMismatch { .. }), "{err}");
        assert_eq!(oracle.label(0).unwrap_err(), err);
    }

    #[test]
    fn label_budget_is_tracked() {
        let t = feature_table(2000, 2, 2);
        let mut oracle = LabelOracle::new(&t, target());
        let mut session = AideSession::new(
            &t,
            &["f0", "f1"],
            AideConfig {
                batch: 25,
                ..AideConfig::default()
            },
        )
        .unwrap();
        session.run(&mut oracle, 4).unwrap();
        assert_eq!(oracle.labels_given, 100);
    }

    #[test]
    fn extracted_predicate_matches_model() {
        let t = feature_table(4000, 2, 3);
        let mut oracle = LabelOracle::new(&t, target());
        let mut session = AideSession::new(&t, &["f0", "f1"], AideConfig::default()).unwrap();
        session.run(&mut oracle, 6).unwrap();
        let pred = session.extracted_predicate().expect("model trained");
        // The predicate, run as a real query, should agree closely with
        // the ground truth.
        let got: std::collections::HashSet<u32> = pred.evaluate(&t).unwrap().into_iter().collect();
        let truth: std::collections::HashSet<u32> = oracle.truth().unwrap().into_iter().collect();
        let inter = got.intersection(&truth).count() as f64;
        let f1 = 2.0 * inter / (got.len() + truth.len()) as f64;
        assert!(f1 > 0.8, "predicate F1 {f1}");
    }

    #[test]
    fn disjunctive_targets_are_learnable() {
        let t = feature_table(6000, 2, 4);
        let target = Predicate::range("f0", 5.0, 25.0)
            .and(Predicate::range("f1", 5.0, 25.0))
            .or(Predicate::range("f0", 70.0, 95.0).and(Predicate::range("f1", 70.0, 95.0)));
        let mut oracle = LabelOracle::new(&t, target);
        let mut session = AideSession::new(
            &t,
            &["f0", "f1"],
            AideConfig {
                batch: 40,
                ..AideConfig::default()
            },
        )
        .unwrap();
        let reports = session.run(&mut oracle, 10).unwrap();
        assert!(reports.last().unwrap().f1 > 0.7, "{:?}", reports.last());
    }

    #[test]
    fn before_any_iteration_no_model() {
        let t = feature_table(100, 2, 5);
        let oracle = LabelOracle::new(&t, target());
        let session = AideSession::new(&t, &["f0", "f1"], AideConfig::default()).unwrap();
        assert!(session.extracted_predicate().is_none());
        let r = session.evaluate(&oracle, 0).unwrap();
        assert_eq!(r.f1, 0.0);
    }

    #[test]
    fn non_numeric_feature_rejected() {
        let t = explore_storage::gen::sales_table(&Default::default());
        assert!(AideSession::new(&t, &["region"], AideConfig::default()).is_err());
    }
}
