//! Aggregate functions and streaming accumulators.
//!
//! Accumulators are deliberately incremental (Welford-style for variance)
//! so the same machinery powers full scans, sampled estimates in the AQP
//! layer and the running results of online aggregation.

use std::fmt;

use crate::column::Column;
use crate::error::{Result, StorageError};
use crate::table::Table;

/// Aggregate functions supported by the engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AggFunc {
    Count,
    Sum,
    Avg,
    Min,
    Max,
    /// Population variance.
    Var,
    /// Population standard deviation.
    Std,
}

impl AggFunc {
    /// Display name used in result schemas (`sum(price)`).
    pub fn name(self) -> &'static str {
        match self {
            AggFunc::Count => "count",
            AggFunc::Sum => "sum",
            AggFunc::Avg => "avg",
            AggFunc::Min => "min",
            AggFunc::Max => "max",
            AggFunc::Var => "var",
            AggFunc::Std => "std",
        }
    }
}

impl fmt::Display for AggFunc {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// What one aggregate folds in per row, resolved once so the type check
/// and dispatch stay out of the row loop. `COUNT` contributes `1.0`.
#[derive(Debug, Clone, Copy)]
pub enum Measure<'a> {
    Count,
    Int(&'a [i64]),
    Float(&'a [f64]),
}

impl<'a> Measure<'a> {
    /// The input of `func(column)`: the column must exist, and every
    /// function but `COUNT` needs it numeric.
    pub fn resolve(table: &'a Table, func: AggFunc, column: &str) -> Result<Self> {
        match (func, table.column(column)?) {
            (AggFunc::Count, _) => Ok(Measure::Count),
            (_, Column::Int64(v)) => Ok(Measure::Int(v)),
            (_, Column::Float64(v)) => Ok(Measure::Float(v)),
            (_, c @ Column::Utf8(_)) => Err(StorageError::TypeMismatch {
                column: column.to_owned(),
                expected: "numeric",
                found: c.data_type().name(),
            }),
        }
    }

    /// The value `row` contributes.
    #[inline]
    pub fn at(self, row: usize) -> f64 {
        match self {
            Measure::Count => 1.0,
            Measure::Int(v) => v[row] as f64,
            Measure::Float(v) => v[row],
        }
    }
}

/// A streaming accumulator for one aggregate over one group.
///
/// Tracks count, sum, min, max, and Welford mean/M2 simultaneously; the
/// requested function is applied at `finish` time. The fixed small state
/// (five f64 + one u64) keeps group-by hash tables compact. The query
/// pipeline, which knows its function up front, folds rows with the
/// crate-private `fold` instead of [`update`](Self::update): it keeps
/// only the fields that function's `finish` reads, in the same operation
/// sequence, so the answer is the same to the bit (a NaN stays a NaN;
/// Rust leaves the sign and payload of an arithmetic NaN unspecified).
#[derive(Debug, Clone, Copy)]
pub struct Accumulator {
    count: u64,
    sum: f64,
    min: f64,
    max: f64,
    mean: f64,
    m2: f64,
}

impl Default for Accumulator {
    fn default() -> Self {
        Accumulator::new()
    }
}

impl Accumulator {
    /// A fresh, empty accumulator.
    pub fn new() -> Self {
        Accumulator {
            count: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
            mean: 0.0,
            m2: 0.0,
        }
    }

    /// Fold one value in.
    #[inline]
    pub fn update(&mut self, x: f64) {
        self.count += 1;
        self.sum += x;
        if x < self.min {
            self.min = x;
        }
        if x > self.max {
            self.max = x;
        }
        let delta = x - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (x - self.mean);
    }

    /// Fold one value in for `func` alone: `COUNT` keeps `count`, `SUM`
    /// `count` and `sum`, `MIN`/`MAX` `count`, `min` and `max`, and only
    /// `AVG`/`VAR`/`STD` run the full Welford [`update`](Self::update).
    /// Each field kept goes through the same operations as in `update`,
    /// and [`merge`](Self::merge) branches on `count` alone, so a
    /// `fold`-built accumulator merges and finishes `func` to the same
    /// bits as an `update`-built one, up to the sign and payload of a
    /// NaN. Its other fields are meaningless.
    #[inline]
    pub(crate) fn fold(&mut self, func: AggFunc, x: f64) {
        match func {
            AggFunc::Count => self.count += 1,
            AggFunc::Sum => {
                self.count += 1;
                self.sum += x;
            }
            AggFunc::Min | AggFunc::Max => {
                self.count += 1;
                if x < self.min {
                    self.min = x;
                }
                if x > self.max {
                    self.max = x;
                }
            }
            AggFunc::Avg | AggFunc::Var | AggFunc::Std => self.update(x),
        }
    }

    /// Merge another accumulator (parallel aggregation / sample union).
    pub fn merge(&mut self, other: &Accumulator) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = *other;
            return;
        }
        let n1 = self.count as f64;
        let n2 = other.count as f64;
        let delta = other.mean - self.mean;
        self.mean += delta * n2 / (n1 + n2);
        self.m2 += other.m2 + delta * delta * n1 * n2 / (n1 + n2);
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Number of values folded in.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Running sum.
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Running mean (0 when empty).
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Population variance of the values seen so far (0 when < 2 values).
    pub fn variance(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            self.m2 / self.count as f64
        }
    }

    /// Sample variance (n-1 denominator), used by CLT confidence intervals.
    pub fn sample_variance(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            self.m2 / (self.count - 1) as f64
        }
    }

    /// Finalize into the requested aggregate. Empty accumulators yield
    /// 0 for COUNT/SUM and NaN for the rest, mirroring SQL's NULL.
    pub fn finish(&self, func: AggFunc) -> f64 {
        match func {
            AggFunc::Count => self.count as f64,
            AggFunc::Sum => self.sum,
            AggFunc::Avg => {
                if self.count == 0 {
                    f64::NAN
                } else {
                    self.mean
                }
            }
            AggFunc::Min => {
                if self.count == 0 {
                    f64::NAN
                } else {
                    self.min
                }
            }
            AggFunc::Max => {
                if self.count == 0 {
                    f64::NAN
                } else {
                    self.max
                }
            }
            AggFunc::Var => {
                if self.count == 0 {
                    f64::NAN
                } else {
                    self.variance()
                }
            }
            AggFunc::Std => {
                if self.count == 0 {
                    f64::NAN
                } else {
                    self.variance().sqrt()
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn acc(values: &[f64]) -> Accumulator {
        let mut a = Accumulator::new();
        values.iter().for_each(|&x| a.update(x));
        a
    }

    #[test]
    fn basic_aggregates() {
        let a = acc(&[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(a.finish(AggFunc::Count), 4.0);
        assert_eq!(a.finish(AggFunc::Sum), 10.0);
        assert_eq!(a.finish(AggFunc::Avg), 2.5);
        assert_eq!(a.finish(AggFunc::Min), 1.0);
        assert_eq!(a.finish(AggFunc::Max), 4.0);
        assert!((a.finish(AggFunc::Var) - 1.25).abs() < 1e-12);
        assert!((a.finish(AggFunc::Std) - 1.25f64.sqrt()).abs() < 1e-12);
    }

    #[test]
    fn empty_accumulator_semantics() {
        let a = Accumulator::new();
        assert_eq!(a.finish(AggFunc::Count), 0.0);
        assert_eq!(a.finish(AggFunc::Sum), 0.0);
        assert!(a.finish(AggFunc::Avg).is_nan());
        assert!(a.finish(AggFunc::Min).is_nan());
        assert!(a.finish(AggFunc::Std).is_nan());
    }

    #[test]
    fn sample_variance_uses_n_minus_one() {
        let a = acc(&[2.0, 4.0]);
        assert!((a.sample_variance() - 2.0).abs() < 1e-12);
        assert!((a.variance() - 1.0).abs() < 1e-12);
        assert_eq!(acc(&[5.0]).sample_variance(), 0.0);
    }

    #[test]
    fn merge_matches_sequential() {
        let xs = [3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0];
        let mut a = acc(&xs[..3]);
        let b = acc(&xs[3..]);
        a.merge(&b);
        let full = acc(&xs);
        assert_eq!(a.count(), full.count());
        assert!((a.sum() - full.sum()).abs() < 1e-9);
        assert!((a.mean() - full.mean()).abs() < 1e-9);
        assert!((a.variance() - full.variance()).abs() < 1e-9);
        assert_eq!(a.finish(AggFunc::Min), 1.0);
        assert_eq!(a.finish(AggFunc::Max), 9.0);
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let mut a = acc(&[1.0, 2.0]);
        let before = a.mean();
        a.merge(&Accumulator::new());
        assert_eq!(a.count(), 2);
        assert_eq!(a.mean(), before);
        let mut e = Accumulator::new();
        e.merge(&acc(&[7.0]));
        assert_eq!(e.finish(AggFunc::Avg), 7.0);
    }

    #[test]
    fn welford_is_stable_for_large_offsets() {
        // Naive sum-of-squares catastrophically cancels here.
        let base = 1e9;
        let a = acc(&[base + 1.0, base + 2.0, base + 3.0]);
        assert!((a.variance() - 2.0 / 3.0).abs() < 1e-6);
    }

    const FUNCS: [AggFunc; 7] = [
        AggFunc::Count,
        AggFunc::Sum,
        AggFunc::Avg,
        AggFunc::Min,
        AggFunc::Max,
        AggFunc::Var,
        AggFunc::Std,
    ];

    /// Values rich in the cases where float folds can diverge: NaN,
    /// infinities, signed zeros, subnormals and large magnitudes.
    fn tricky() -> impl Strategy<Value = f64> {
        prop_oneof![
            6 => -1e3f64..1e3,
            1 => prop::sample::select(vec![
                f64::NAN,
                f64::INFINITY,
                f64::NEG_INFINITY,
                0.0,
                -0.0,
                5e-324,
                -f64::MIN_POSITIVE / 4.0,
                1e300,
                -1e300,
            ]),
        ]
    }

    proptest! {
        /// For every function, a sequence cut at random merge points and
        /// folded piece by piece, the pieces merged in order, finishes to
        /// the same bits as the same pieces built with `update`. A NaN
        /// compares as a NaN: the sign and payload of a NaN that
        /// arithmetic produces are not specified, and an optimized build
        /// may pick another one for the same sum in `fold` than in
        /// `update`.
        #[test]
        fn fold_merges_and_finishes_like_update(
            xs in prop::collection::vec(tricky(), 0..200),
            cuts in prop::collection::vec(0usize..200, 0..6),
        ) {
            let mut cuts: Vec<usize> = cuts.into_iter().map(|c| c.min(xs.len())).collect();
            cuts.extend([0, xs.len()]);
            cuts.sort_unstable();
            let bits = |v: f64| if v.is_nan() { f64::NAN.to_bits() } else { v.to_bits() };
            for func in FUNCS {
                let (mut folded, mut updated) = (Accumulator::new(), Accumulator::new());
                for w in cuts.windows(2) {
                    let (mut f, mut u) = (Accumulator::new(), Accumulator::new());
                    for &x in &xs[w[0]..w[1]] {
                        f.fold(func, x);
                        u.update(x);
                    }
                    folded.merge(&f);
                    updated.merge(&u);
                }
                prop_assert_eq!(
                    bits(folded.finish(func)),
                    bits(updated.finish(func)),
                    "{} of {:?} cut at {:?}",
                    func,
                    xs,
                    cuts
                );
            }
        }
    }

    #[test]
    fn func_names() {
        assert_eq!(AggFunc::Avg.to_string(), "avg");
        assert_eq!(AggFunc::Count.name(), "count");
    }
}
