//! Predicate regions: per-column intervals used for subsumption checks.
//!
//! A [`Region`] is a conjunction of one interval per column — the
//! normal form of the range-and-comparison predicates that dominate
//! exploration sessions. Subsumption asks "is every row the new query
//! can match already inside a cached result?", which reduces to region
//! containment, but only if the two normalizations err in *opposite*
//! directions:
//!
//! * the **cached** predicate must normalize *exactly* ([`Region::exact`]
//!   returns `None` for anything it cannot represent precisely — `Ne`,
//!   `Or`, `Not` — so a cached region never claims more rows than the
//!   cached subset actually holds);
//! * the **query** predicate may *over*-approximate ([`Region::relaxed`]
//!   drops unrepresentable conjuncts, widening the region), because the
//!   serve path re-evaluates the full predicate on the cached subset —
//!   the region only has to prove the subset contains every candidate
//!   row.
//!
//! Incomparable bounds (string vs. numeric, NaN) make every comparison
//! fail, which degrades to "no containment" — always safe.

use std::cmp::Ordering;
use std::collections::BTreeMap;

use explore_storage::{CmpOp, Predicate, Value};

/// A bound value: numeric (integers widened to `f64`, mirroring
/// predicate evaluation) or string.
#[derive(Debug, Clone, PartialEq)]
pub enum BoundVal {
    Num(f64),
    Str(String),
}

impl BoundVal {
    fn of(value: &Value) -> Option<BoundVal> {
        match value {
            // Regions compare in f64 space but `Cmp` on Int64 columns
            // compares in exact integer space, so an int literal is only
            // representable if widening is lossless — otherwise a region
            // could prove containment the integer comparison disagrees
            // with (possible beyond 2^53).
            Value::Int(i) => {
                let f = *i as f64;
                (f as i64 == *i).then_some(BoundVal::Num(f))
            }
            Value::Float(f) => Some(BoundVal::Num(*f)),
            Value::Str(s) => Some(BoundVal::Str(s.clone())),
            Value::Null => None,
        }
    }

    /// Partial order across bound values; `None` for mixed kinds or NaN,
    /// which callers must treat as "containment not provable".
    fn partial_cmp(&self, other: &BoundVal) -> Option<Ordering> {
        match (self, other) {
            (BoundVal::Num(a), BoundVal::Num(b)) => a.partial_cmp(b),
            (BoundVal::Str(a), BoundVal::Str(b)) => Some(a.cmp(b)),
            _ => None,
        }
    }
}

/// One endpoint: the bound value and whether it is inclusive.
pub type Endpoint = (BoundVal, bool);

/// An interval over one column. A missing endpoint means unbounded on
/// that side; every interval produced by normalization has at least one
/// endpoint.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Interval {
    pub lo: Option<Endpoint>,
    pub hi: Option<Endpoint>,
}

impl Interval {
    fn from_cmp(op: CmpOp, value: &Value) -> Option<Interval> {
        let b = BoundVal::of(value)?;
        Some(match op {
            CmpOp::Eq => Interval {
                lo: Some((b.clone(), true)),
                hi: Some((b, true)),
            },
            CmpOp::Lt => Interval {
                lo: None,
                hi: Some((b, false)),
            },
            CmpOp::Le => Interval {
                lo: None,
                hi: Some((b, true)),
            },
            CmpOp::Gt => Interval {
                lo: Some((b, false)),
                hi: None,
            },
            CmpOp::Ge => Interval {
                lo: Some((b, true)),
                hi: None,
            },
            // `!=` is not an interval; exact normalization refuses it.
            CmpOp::Ne => return None,
        })
    }

    /// The half-open `[low, high)` of [`Predicate::Range`].
    fn from_range(low: &Value, high: &Value) -> Option<Interval> {
        Some(Interval {
            lo: Some((BoundVal::of(low)?, true)),
            hi: Some((BoundVal::of(high)?, false)),
        })
    }

    /// Does this interval's lower bound admit everything `inner`'s does?
    fn lo_covers(outer: &Option<Endpoint>, inner: &Option<Endpoint>) -> bool {
        match (outer, inner) {
            (None, _) => true,
            (Some(_), None) => false,
            (Some((a, a_inc)), Some((b, b_inc))) => match a.partial_cmp(b) {
                Some(Ordering::Less) => true,
                Some(Ordering::Equal) => *a_inc || !*b_inc,
                _ => false,
            },
        }
    }

    /// Mirror of [`Interval::lo_covers`] for the upper bound.
    fn hi_covers(outer: &Option<Endpoint>, inner: &Option<Endpoint>) -> bool {
        match (outer, inner) {
            (None, _) => true,
            (Some(_), None) => false,
            (Some((a, a_inc)), Some((b, b_inc))) => match a.partial_cmp(b) {
                Some(Ordering::Greater) => true,
                Some(Ordering::Equal) => *a_inc || !*b_inc,
                _ => false,
            },
        }
    }

    /// `self ⊇ inner`, provably. Unprovable (mixed kinds, NaN) is `false`.
    pub fn covers(&self, inner: &Interval) -> bool {
        Interval::lo_covers(&self.lo, &inner.lo) && Interval::hi_covers(&self.hi, &inner.hi)
    }

    /// Intersection of two intervals; `None` when their bounds are
    /// incomparable (different kinds or NaN).
    fn intersect(&self, other: &Interval) -> Option<Interval> {
        let lo = tighter(&self.lo, &other.lo, Ordering::Greater)?;
        let hi = tighter(&self.hi, &other.hi, Ordering::Less)?;
        Some(Interval { lo, hi })
    }
}

/// The tighter of two endpoints: for lower bounds `prefer` is `Greater`
/// (larger value wins), for upper bounds `Less`. On equal values the
/// exclusive endpoint is tighter. Outer `None` = no comparable result.
#[allow(clippy::type_complexity)]
fn tighter(
    a: &Option<Endpoint>,
    b: &Option<Endpoint>,
    prefer: Ordering,
) -> Option<Option<Endpoint>> {
    match (a, b) {
        (None, None) => Some(None),
        (Some(e), None) | (None, Some(e)) => Some(Some(e.clone())),
        (Some((av, ai)), Some((bv, bi))) => {
            let ord = av.partial_cmp(bv)?;
            Some(Some(if ord == prefer {
                (av.clone(), *ai)
            } else if ord == prefer.reverse() {
                (bv.clone(), *bi)
            } else {
                // Same value: exclusive (false) is the tighter endpoint.
                (av.clone(), *ai && *bi)
            }))
        }
    }
}

/// A conjunctive region: one interval per constrained column. The empty
/// region (no constraints) is the whole space.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Region {
    constraints: BTreeMap<String, Interval>,
}

impl Region {
    /// Exact normalization for the *cached* side: `Some` only when the
    /// predicate is a pure conjunction of representable comparisons, so
    /// the region equals the predicate's matching set. Anything else
    /// (Ne, Or, Not, incomparable bounds) returns `None` and the entry
    /// is exact-hit-only.
    pub fn exact(predicate: &Predicate) -> Option<Region> {
        let mut region = Region::default();
        region.collect(predicate, true).then_some(region)
    }

    /// Relaxed normalization for the *query* side: an over-approximation
    /// guaranteed to contain every row the predicate matches.
    /// Unrepresentable conjuncts are dropped (widening the region), and
    /// a non-conjunctive root yields the unconstrained region.
    pub fn relaxed(predicate: &Predicate) -> Region {
        let mut region = Region::default();
        region.collect(predicate, false);
        region
    }

    /// Fold one predicate node in. Returns `false` (only meaningful when
    /// `strict`) if the node cannot be represented exactly.
    fn collect(&mut self, predicate: &Predicate, strict: bool) -> bool {
        match predicate {
            Predicate::True => true,
            Predicate::Cmp { column, op, value } => match Interval::from_cmp(*op, value) {
                Some(iv) => self.constrain(column, iv, strict),
                None => !strict,
            },
            Predicate::Range { column, low, high } => match Interval::from_range(low, high) {
                Some(iv) => self.constrain(column, iv, strict),
                None => !strict,
            },
            Predicate::And(ps) => {
                for p in ps {
                    if !self.collect(p, strict) && strict {
                        return false;
                    }
                }
                true
            }
            // Disjunctions and negations are not conjunctive intervals.
            // Relaxed mode drops them (intersecting fewer conjuncts only
            // widens the region, which stays an over-approximation).
            Predicate::Or(_) | Predicate::Not(_) => !strict,
        }
    }

    /// Intersect `iv` into the column's constraint. On incomparable
    /// bounds: strict mode fails, relaxed mode keeps the existing
    /// constraint (a superset of the true intersection — safe).
    fn constrain(&mut self, column: &str, iv: Interval, strict: bool) -> bool {
        match self.constraints.get(column) {
            None => {
                self.constraints.insert(column.to_owned(), iv);
                true
            }
            Some(existing) => match existing.intersect(&iv) {
                Some(merged) => {
                    self.constraints.insert(column.to_owned(), merged);
                    true
                }
                None => !strict,
            },
        }
    }

    /// `self ⊇ inner` as point sets: every column this region constrains
    /// must be constrained at least as tightly in `inner`. Columns only
    /// `inner` constrains shrink it further and need no check. The empty
    /// region (e.g. a cached full scan) covers everything.
    pub fn covers(&self, inner: &Region) -> bool {
        self.constraints.iter().all(|(col, outer_iv)| {
            inner
                .constraints
                .get(col)
                .is_some_and(|iv| outer_iv.covers(iv))
        })
    }

    /// The constrained columns and their intervals, in column-name
    /// order.
    pub fn constraints(&self) -> impl Iterator<Item = (&str, &Interval)> {
        self.constraints.iter().map(|(c, iv)| (c.as_str(), iv))
    }

    /// The interval constraining `column`, if any.
    pub fn interval(&self, column: &str) -> Option<&Interval> {
        self.constraints.get(column)
    }

    /// Number of constrained columns.
    pub fn len(&self) -> usize {
        self.constraints.len()
    }

    /// True when no column is constrained (the whole space).
    pub fn is_empty(&self) -> bool {
        self.constraints.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn range(col: &str, lo: f64, hi: f64) -> Predicate {
        Predicate::range(col, lo, hi)
    }

    #[test]
    fn exact_refuses_non_conjunctive_shapes() {
        assert!(Region::exact(&Predicate::True).is_some());
        assert!(Region::exact(&range("a", 0.0, 1.0)).is_some());
        assert!(Region::exact(&Predicate::cmp("a", CmpOp::Ne, 1.0)).is_none());
        assert!(Region::exact(&range("a", 0.0, 1.0).or(range("a", 2.0, 3.0))).is_none());
        assert!(Region::exact(&range("a", 0.0, 1.0).not()).is_none());
        assert!(Region::exact(&range("a", 0.0, 1.0).and(Predicate::eq("b", "x").not())).is_none());
    }

    #[test]
    fn relaxed_over_approximates_by_dropping() {
        // The Not conjunct is dropped; the range survives.
        let r = Region::relaxed(&range("a", 0.0, 1.0).and(Predicate::eq("b", "x").not()));
        assert_eq!(r.len(), 1);
        // A pure disjunction relaxes to the whole space.
        assert!(Region::relaxed(&range("a", 0.0, 1.0).or(range("a", 5.0, 6.0))).is_empty());
    }

    #[test]
    fn whole_space_covers_everything() {
        let full = Region::exact(&Predicate::True).unwrap();
        assert!(full.covers(&Region::relaxed(&range("a", 0.0, 1.0))));
        assert!(full.covers(&Region::default()));
    }

    #[test]
    fn range_containment_respects_half_open_bounds() {
        let broad = Region::exact(&range("a", 0.0, 10.0)).unwrap();
        assert!(broad.covers(&Region::relaxed(&range("a", 2.0, 8.0))));
        assert!(broad.covers(&Region::relaxed(&range("a", 0.0, 10.0))));
        // x <= 10 includes 10 itself, which [0, 10) lacks.
        assert!(!broad.covers(&Region::relaxed(&Predicate::cmp("a", CmpOp::Le, 10.0))));
        // x < 10 with x >= 0 is exactly the cached set.
        let closed_open =
            Predicate::cmp("a", CmpOp::Ge, 0.0).and(Predicate::cmp("a", CmpOp::Lt, 10.0));
        assert!(broad.covers(&Region::relaxed(&closed_open)));
        // Eq on the open upper bound is a near-miss.
        assert!(!broad.covers(&Region::relaxed(&Predicate::eq("a", 10.0))));
        assert!(broad.covers(&Region::relaxed(&Predicate::eq("a", 0.0))));
        // Sticking out on the low side misses.
        assert!(!broad.covers(&Region::relaxed(&range("a", -0.001, 5.0))));
    }

    #[test]
    fn unconstrained_query_column_is_not_covered() {
        let broad = Region::exact(&range("a", 0.0, 10.0)).unwrap();
        // Query constrains only b: its `a` footprint is unbounded.
        assert!(!broad.covers(&Region::relaxed(&range("b", 0.0, 1.0))));
        // But extra query-side constraints are fine.
        assert!(broad.covers(&Region::relaxed(
            &range("a", 1.0, 2.0).and(range("b", 0.0, 1.0))
        )));
    }

    #[test]
    fn multi_column_conjunctions_intersect() {
        let cached = range("a", 0.0, 10.0).and(Predicate::cmp("b", CmpOp::Ge, 5.0));
        let outer = Region::exact(&cached).unwrap();
        assert!(outer.covers(&Region::relaxed(
            &range("a", 1.0, 9.0).and(range("b", 5.0, 7.0))
        )));
        // b below the cached floor sticks out.
        assert!(!outer.covers(&Region::relaxed(
            &range("a", 1.0, 9.0).and(range("b", 4.0, 7.0))
        )));
        // Repeated constraints on one column tighten the interval.
        let tight = Region::exact(&range("a", 0.0, 10.0).and(range("a", 2.0, 8.0))).unwrap();
        assert!(Region::exact(&range("a", 2.0, 8.0)).unwrap().covers(&tight));
    }

    #[test]
    fn string_intervals_compare_lexicographically() {
        let cached = Region::exact(&Predicate::range("c", "a", "m")).unwrap();
        assert!(cached.covers(&Region::relaxed(&Predicate::range("c", "b", "f"))));
        assert!(!cached.covers(&Region::relaxed(&Predicate::range("c", "b", "z"))));
        assert!(cached.covers(&Region::relaxed(&Predicate::eq("c", "ab"))));
        // Mixed kinds are never comparable.
        assert!(!cached.covers(&Region::relaxed(&range("c", 0.0, 1.0))));
    }

    #[test]
    fn nan_bounds_never_prove_containment() {
        let cached = Region::exact(&range("a", f64::NAN, 10.0)).unwrap();
        assert!(!cached.covers(&Region::relaxed(&range("a", 1.0, 2.0))));
        let sane = Region::exact(&range("a", 0.0, 10.0)).unwrap();
        assert!(!sane.covers(&Region::relaxed(&range("a", f64::NAN, 2.0))));
    }

    #[test]
    fn lossy_int_literals_are_unrepresentable() {
        // (2^53 + 1) widens to 2^53: refusing it keeps f64 regions from
        // contradicting the exact integer comparison at evaluation time.
        let lossy = (1i64 << 53) + 1;
        assert!(Region::exact(&Predicate::cmp("a", CmpOp::Le, lossy)).is_none());
        assert!(Region::relaxed(&Predicate::cmp("a", CmpOp::Le, lossy)).is_empty());
        // Exactly representable large ints are fine.
        assert!(Region::exact(&Predicate::cmp("a", CmpOp::Le, 1i64 << 53)).is_some());
    }

    #[test]
    fn null_literals_are_unrepresentable() {
        let p = Predicate::cmp("a", CmpOp::Ge, Value::Null);
        assert!(Region::exact(&p).is_none());
        assert!(Region::relaxed(&p).is_empty());
    }
}
