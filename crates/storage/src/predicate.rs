//! Filter predicates and their vectorized evaluation.
//!
//! Predicates are small ASTs built at the API edge; evaluation produces a
//! *selection vector* of qualifying row ids. Evaluation is column-at-a-time:
//! each comparison matches on the column type once and then runs a tight
//! loop over the raw slice, filling a `u64` bitmap. That bitmap kernel is
//! the one evaluator: selections, bool masks and id lists are views of
//! it, and the tests hold it to an independent row-at-a-time oracle.

use std::fmt;
use std::ops::Range;

use crate::column::Column;
use crate::error::{Result, StorageError};
use crate::table::Table;
use crate::value::Value;

/// A free-list of `u64` bitmap buffers, recycled across the predicate
/// nodes of one evaluation.
#[derive(Debug, Default)]
struct WordPool {
    free: Vec<Vec<u64>>,
}

impl WordPool {
    fn take(&mut self, words: usize) -> Vec<u64> {
        let mut buf = self.free.pop().unwrap_or_default();
        buf.clear();
        buf.resize(words, 0);
        buf
    }

    fn give(&mut self, buf: Vec<u64>) {
        self.free.push(buf);
    }
}

/// Comparison operators supported in predicates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CmpOp {
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
}

impl CmpOp {
    /// Apply the operator to an `Ordering`-like comparison of `a` vs `b`.
    #[inline]
    fn holds<T: PartialOrd>(self, a: &T, b: &T) -> bool {
        match self {
            CmpOp::Eq => a == b,
            CmpOp::Ne => a != b,
            CmpOp::Lt => a < b,
            CmpOp::Le => a <= b,
            CmpOp::Gt => a > b,
            CmpOp::Ge => a >= b,
        }
    }
}

/// A boolean filter over table rows.
#[derive(Debug, Clone, PartialEq)]
pub enum Predicate {
    /// Matches every row.
    True,
    /// `column <op> literal`.
    Cmp {
        column: String,
        op: CmpOp,
        value: Value,
    },
    /// `low <= column < high` — the canonical exploratory range query
    /// shape used throughout the cracking literature (half-open).
    Range {
        column: String,
        low: Value,
        high: Value,
    },
    /// Conjunction.
    And(Vec<Predicate>),
    /// Disjunction.
    Or(Vec<Predicate>),
    /// Negation.
    Not(Box<Predicate>),
}

impl Predicate {
    /// `column = value`.
    pub fn eq(column: impl Into<String>, value: impl Into<Value>) -> Self {
        Predicate::Cmp {
            column: column.into(),
            op: CmpOp::Eq,
            value: value.into(),
        }
    }

    /// `column <op> value`.
    pub fn cmp(column: impl Into<String>, op: CmpOp, value: impl Into<Value>) -> Self {
        Predicate::Cmp {
            column: column.into(),
            op,
            value: value.into(),
        }
    }

    /// `low <= column < high`.
    pub fn range(column: impl Into<String>, low: impl Into<Value>, high: impl Into<Value>) -> Self {
        Predicate::Range {
            column: column.into(),
            low: low.into(),
            high: high.into(),
        }
    }

    /// Conjunction of two predicates, flattening nested `And`s.
    pub fn and(self, other: Predicate) -> Self {
        match (self, other) {
            (Predicate::True, p) | (p, Predicate::True) => p,
            (Predicate::And(mut a), Predicate::And(b)) => {
                a.extend(b);
                Predicate::And(a)
            }
            (Predicate::And(mut a), p) => {
                a.push(p);
                Predicate::And(a)
            }
            (p, Predicate::And(mut b)) => {
                b.insert(0, p);
                Predicate::And(b)
            }
            (a, b) => Predicate::And(vec![a, b]),
        }
    }

    /// Disjunction of two predicates.
    pub fn or(self, other: Predicate) -> Self {
        match (self, other) {
            (Predicate::Or(mut a), p) => {
                a.push(p);
                Predicate::Or(a)
            }
            (a, b) => Predicate::Or(vec![a, b]),
        }
    }

    /// Negation.
    #[allow(clippy::should_implement_trait)]
    pub fn not(self) -> Self {
        Predicate::Not(Box::new(self))
    }

    /// Names of all columns this predicate touches, deduplicated.
    /// Used by the adaptive-loading and adaptive-storage layers to
    /// decide which columns a query actually needs.
    pub fn columns(&self) -> Vec<&str> {
        fn walk<'a>(p: &'a Predicate, out: &mut Vec<&'a str>) {
            match p {
                Predicate::True => {}
                Predicate::Cmp { column, .. } | Predicate::Range { column, .. } => {
                    if !out.contains(&column.as_str()) {
                        out.push(column);
                    }
                }
                Predicate::And(ps) | Predicate::Or(ps) => ps.iter().for_each(|p| walk(p, out)),
                Predicate::Not(p) => walk(p, out),
            }
        }
        let mut out = Vec::new();
        walk(self, &mut out);
        out
    }

    /// Evaluate against a table, returning the qualifying row ids in
    /// ascending order: [`Predicate::evaluate_range`] over every row.
    pub fn evaluate(&self, table: &Table) -> Result<Vec<u32>> {
        self.evaluate_range(table, 0..table.num_rows())
    }

    /// Evaluate to a dense boolean mask (one bool per row).
    pub fn evaluate_mask(&self, table: &Table) -> Result<Vec<bool>> {
        self.evaluate_mask_range(table, 0..table.num_rows())
    }

    /// Evaluate on the row window `rows`, returning qualifying *global*
    /// row ids in ascending order. The query pipeline fans this out:
    /// each morsel scans one window and the per-window selections
    /// concatenate, in window order, to exactly [`Predicate::evaluate`].
    ///
    /// This is the vectorized hot path: each node fills a `u64` bitmap
    /// (64 rows per word, branchless per element), combinators fold
    /// word-wise, and the final bitmap converts to row ids via
    /// `trailing_zeros`. Bitmap buffers are recycled across the nodes of
    /// one evaluation, so it allocates one per `And`/`Or` nesting level,
    /// not one per node. These kernels are the only code that decides
    /// whether a row satisfies a predicate: every other evaluation here
    /// is a view of their bitmap.
    pub fn evaluate_range(&self, table: &Table, rows: Range<usize>) -> Result<Vec<u32>> {
        check_window(table, &rows)?;
        let start = rows.start;
        self.eval_rows(table, RowSet::Window(rows), |bits| bits_to_sel(bits, start))
    }

    /// Evaluate on exactly the rows named by `ids`, returning the ids
    /// that qualify, in input order. The semantic cache re-filters a
    /// cached selection with this: the predicate's columns are read in
    /// place at those rows, nothing is gathered. Same kernels, literal
    /// resolution and error precedence as [`Predicate::evaluate_range`].
    pub fn evaluate_at(&self, table: &Table, ids: &[u32]) -> Result<Vec<u32>> {
        if let Some(&max) = ids.iter().max() {
            if max as usize >= table.num_rows() {
                return Err(StorageError::RowOutOfBounds {
                    index: max as usize,
                    len: table.num_rows(),
                });
            }
        }
        let mut sel = self.eval_rows(table, RowSet::Ids(ids), |bits| bits_to_sel(bits, 0))?;
        for pos in &mut sel {
            *pos = ids[*pos as usize];
        }
        Ok(sel)
    }

    /// Run [`Predicate::eval_bits`] over `rows` with bitmaps from a
    /// scratch pool of this call's own, and convert the root bitmap
    /// with `finish`.
    fn eval_rows<R>(
        &self,
        table: &Table,
        rows: RowSet<'_>,
        finish: impl FnOnce(&[u64]) -> R,
    ) -> Result<R> {
        let mut pool = WordPool::default();
        let mut bits = pool.take(rows.len().div_ceil(64));
        self.eval_bits(table, &rows, &mut bits, &mut pool)?;
        Ok(finish(&bits))
    }

    /// Fill `out` (one bit per row in `rows`, LSB-first within each
    /// word) with the predicate's truth values. Every arm writes every
    /// word, and all arms keep bits past the window clear, so callers
    /// never mask the tail. Children run in order and the first error
    /// ends the evaluation, so error precedence is the tree's order.
    fn eval_bits(
        &self,
        table: &Table,
        rows: &RowSet<'_>,
        out: &mut [u64],
        pool: &mut WordPool,
    ) -> Result<()> {
        let n = rows.len();
        match self {
            Predicate::True => {
                set_all_bits(out, n);
                Ok(())
            }
            Predicate::Cmp { column, op, value } => {
                cmp_bits(table.column(column)?, column, *op, value, rows, out)
            }
            Predicate::Range { column, low, high } => {
                range_bits(table.column(column)?, column, low, high, rows, out)
            }
            Predicate::And(ps) => {
                set_all_bits(out, n);
                let mut tmp = pool.take(out.len());
                let mut result = Ok(());
                for p in ps {
                    result = p.eval_bits(table, rows, &mut tmp, pool);
                    if result.is_err() {
                        break;
                    }
                    for (a, b) in out.iter_mut().zip(&tmp) {
                        *a &= *b;
                    }
                }
                pool.give(tmp);
                result
            }
            Predicate::Or(ps) => {
                out.fill(0);
                let mut tmp = pool.take(out.len());
                let mut result = Ok(());
                for p in ps {
                    result = p.eval_bits(table, rows, &mut tmp, pool);
                    if result.is_err() {
                        break;
                    }
                    for (a, b) in out.iter_mut().zip(&tmp) {
                        *a |= *b;
                    }
                }
                pool.give(tmp);
                result
            }
            Predicate::Not(p) => {
                p.eval_bits(table, rows, out, pool)?;
                for w in out.iter_mut() {
                    *w = !*w;
                }
                mask_tail_bits(out, n);
                Ok(())
            }
        }
    }

    /// Evaluate to a dense boolean mask over the row window `rows`
    /// (`mask[i]` corresponds to table row `rows.start + i`): the bitmap
    /// of [`Predicate::evaluate_range`], one bool per bit.
    pub fn evaluate_mask_range(&self, table: &Table, rows: Range<usize>) -> Result<Vec<bool>> {
        check_window(table, &rows)?;
        let n = rows.len();
        self.eval_rows(table, RowSet::Window(rows), |bits| {
            (0..n).map(|i| bits[i / 64] >> (i % 64) & 1 == 1).collect()
        })
    }
}

impl fmt::Display for CmpOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            CmpOp::Eq => "=",
            CmpOp::Ne => "!=",
            CmpOp::Lt => "<",
            CmpOp::Le => "<=",
            CmpOp::Gt => ">",
            CmpOp::Ge => ">=",
        })
    }
}

/// SQL-ish rendering, for `explain` profiles and trace labels. Child
/// predicates of `And`/`Or` are parenthesized unconditionally, so the
/// output is unambiguous without precedence rules.
impl fmt::Display for Predicate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Predicate::True => f.write_str("true"),
            Predicate::Cmp { column, op, value } => write!(f, "{column} {op} {value}"),
            Predicate::Range { column, low, high } => {
                write!(f, "{low} <= {column} < {high}")
            }
            Predicate::And(ps) => {
                for (i, p) in ps.iter().enumerate() {
                    if i > 0 {
                        f.write_str(" and ")?;
                    }
                    write!(f, "({p})")?;
                }
                Ok(())
            }
            Predicate::Or(ps) => {
                for (i, p) in ps.iter().enumerate() {
                    if i > 0 {
                        f.write_str(" or ")?;
                    }
                    write!(f, "({p})")?;
                }
                Ok(())
            }
            Predicate::Not(p) => write!(f, "not ({p})"),
        }
    }
}

/// `rows` must be a window of `table`'s rows.
fn check_window(table: &Table, rows: &Range<usize>) -> Result<()> {
    if rows.end > table.num_rows() || rows.start > rows.end {
        return Err(StorageError::RowOutOfBounds {
            index: rows.end,
            len: table.num_rows(),
        });
    }
    Ok(())
}

/// Set the first `n` bits of `out`, leaving the tail clear.
fn set_all_bits(out: &mut [u64], n: usize) {
    out.fill(!0u64);
    mask_tail_bits(out, n);
}

/// Clear any bits at positions `>= n` in the last word.
fn mask_tail_bits(out: &mut [u64], n: usize) {
    if !n.is_multiple_of(64) {
        if let Some(last) = out.last_mut() {
            *last &= (1u64 << (n % 64)) - 1;
        }
    }
}

/// The rows one bitmap evaluation covers. Bit `i` of the output stands
/// for row `start + i` of a window, or for row `ids[i]` of an id list
/// (every id already checked against the table's row count).
enum RowSet<'a> {
    Window(Range<usize>),
    Ids(&'a [u32]),
}

impl RowSet<'_> {
    fn len(&self) -> usize {
        match self {
            RowSet::Window(rows) => rows.len(),
            RowSet::Ids(ids) => ids.len(),
        }
    }

    /// Branchless bitmap fill: one word per 64 rows, `f` per element.
    /// Partial tail chunks leave their high bits clear by construction.
    #[inline]
    fn fill_bits<T>(&self, vals: &[T], out: &mut [u64], f: impl Fn(&T) -> bool) {
        match self {
            RowSet::Window(rows) => {
                for (w, chunk) in out.iter_mut().zip(vals[rows.clone()].chunks(64)) {
                    let mut bits = 0u64;
                    for (j, x) in chunk.iter().enumerate() {
                        bits |= u64::from(f(x)) << j;
                    }
                    *w = bits;
                }
            }
            RowSet::Ids(ids) => {
                for (w, chunk) in out.iter_mut().zip(ids.chunks(64)) {
                    let mut bits = 0u64;
                    for (j, &id) in chunk.iter().enumerate() {
                        bits |= u64::from(f(&vals[id as usize])) << j;
                    }
                    *w = bits;
                }
            }
        }
    }
}

/// Expand a bitmap to ascending row ids, bit `i` standing for
/// `start + i`.
fn bits_to_sel(bits: &[u64], start: usize) -> Vec<u32> {
    let count: usize = bits.iter().map(|w| w.count_ones() as usize).sum();
    let mut sel = Vec::with_capacity(count);
    for (i, &word) in bits.iter().enumerate() {
        let base = start + i * 64;
        let mut w = word;
        while w != 0 {
            sel.push((base + w.trailing_zeros() as usize) as u32);
            w &= w - 1;
        }
    }
    sel
}

/// `column <op> literal` for every row of `rows`, compared per element
/// with [`CmpOp::holds`]. An Int64 column takes an Int literal, or a
/// Float literal that names an `i64` exactly: integral and in
/// `[-2^63, 2^63)`.
fn cmp_bits(
    col: &Column,
    name: &str,
    op: CmpOp,
    value: &Value,
    rows: &RowSet<'_>,
    out: &mut [u64],
) -> Result<()> {
    match col {
        Column::Int64(v) => {
            let lit = value.as_int().or_else(|| {
                // `i64::MIN as f64` is exactly -2^63; 2^63 itself is one
                // past MAX, where `f as i64` would saturate.
                let f = value.as_float()?;
                let exact = f.fract() == 0.0 && f >= i64::MIN as f64 && f < -(i64::MIN as f64);
                exact.then_some(f as i64)
            });
            let lit = lit.ok_or_else(|| type_err(name, "Int64", value))?;
            rows.fill_bits(v, out, |x| op.holds(x, &lit));
        }
        Column::Float64(v) => {
            let lit = value
                .as_float()
                .ok_or_else(|| type_err(name, "Float64", value))?;
            rows.fill_bits(v, out, |x| op.holds(x, &lit));
        }
        Column::Utf8(v) => {
            let lit = value
                .as_str()
                .ok_or_else(|| type_err(name, "Utf8", value))?;
            rows.fill_bits(v, out, |x| op.holds(&x.as_str(), &lit));
        }
    }
    Ok(())
}

/// `lo <= x < hi` for every row of `rows`. Numeric bounds compare as
/// `f64`, an Int64 column's values included.
fn range_bits(
    col: &Column,
    name: &str,
    low: &Value,
    high: &Value,
    rows: &RowSet<'_>,
    out: &mut [u64],
) -> Result<()> {
    match col {
        Column::Int64(v) => {
            let lo = low.as_float().ok_or_else(|| type_err(name, "Int64", low))?;
            let hi = high
                .as_float()
                .ok_or_else(|| type_err(name, "Int64", high))?;
            rows.fill_bits(v, out, |&x| {
                let x = x as f64;
                x >= lo && x < hi
            });
        }
        Column::Float64(v) => {
            let lo = low
                .as_float()
                .ok_or_else(|| type_err(name, "Float64", low))?;
            let hi = high
                .as_float()
                .ok_or_else(|| type_err(name, "Float64", high))?;
            rows.fill_bits(v, out, |&x| x >= lo && x < hi);
        }
        Column::Utf8(v) => {
            let lo = low.as_str().ok_or_else(|| type_err(name, "Utf8", low))?;
            let hi = high.as_str().ok_or_else(|| type_err(name, "Utf8", high))?;
            rows.fill_bits(v, out, |x| x.as_str() >= lo && x.as_str() < hi);
        }
    }
    Ok(())
}

fn type_err(column: &str, expected: &'static str, found: &Value) -> StorageError {
    StorageError::TypeMismatch {
        column: column.to_owned(),
        expected,
        found: found.data_type().map_or("Null", |t| t.name()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Schema;
    use crate::value::DataType;

    fn t() -> Table {
        Table::new(
            Schema::of(&[
                ("a", DataType::Int64),
                ("b", DataType::Float64),
                ("c", DataType::Utf8),
            ]),
            vec![
                Column::from(vec![1i64, 2, 3, 4, 5]),
                Column::from(vec![0.1f64, 0.2, 0.3, 0.4, 0.5]),
                Column::from(vec!["x", "y", "x", "z", "y"]),
            ],
        )
        .unwrap()
    }

    #[test]
    fn simple_comparisons() {
        let t = t();
        assert_eq!(
            Predicate::cmp("a", CmpOp::Gt, 3i64).evaluate(&t).unwrap(),
            vec![3, 4]
        );
        assert_eq!(Predicate::eq("c", "x").evaluate(&t).unwrap(), vec![0, 2]);
        assert_eq!(
            Predicate::cmp("b", CmpOp::Le, 0.2).evaluate(&t).unwrap(),
            vec![0, 1]
        );
        assert_eq!(
            Predicate::cmp("a", CmpOp::Ne, 1i64).evaluate(&t).unwrap(),
            vec![1, 2, 3, 4]
        );
    }

    #[test]
    fn range_is_half_open() {
        let t = t();
        assert_eq!(
            Predicate::range("a", 2i64, 4i64).evaluate(&t).unwrap(),
            vec![1, 2]
        );
        assert_eq!(
            Predicate::range("c", "x", "z").evaluate(&t).unwrap(),
            vec![0, 1, 2, 4]
        );
    }

    #[test]
    fn boolean_combinators() {
        let t = t();
        let p = Predicate::cmp("a", CmpOp::Ge, 2i64).and(Predicate::eq("c", "x"));
        assert_eq!(p.evaluate(&t).unwrap(), vec![2]);
        let p = Predicate::eq("a", 1i64).or(Predicate::eq("a", 5i64));
        assert_eq!(p.evaluate(&t).unwrap(), vec![0, 4]);
        let p = Predicate::eq("c", "y").not();
        assert_eq!(p.evaluate(&t).unwrap(), vec![0, 2, 3]);
        assert_eq!(Predicate::True.evaluate(&t).unwrap().len(), 5);
    }

    #[test]
    fn and_flattening() {
        let p = Predicate::eq("a", 1i64)
            .and(Predicate::eq("a", 2i64))
            .and(Predicate::eq("a", 3i64));
        match p {
            Predicate::And(ps) => assert_eq!(ps.len(), 3),
            other => panic!("expected flattened And, got {other:?}"),
        }
        // True is an identity element.
        let p = Predicate::True.and(Predicate::eq("a", 1i64));
        assert!(matches!(p, Predicate::Cmp { .. }));
    }

    #[test]
    fn columns_are_collected_once() {
        let p = Predicate::range("a", 1i64, 2i64)
            .and(Predicate::eq("c", "x"))
            .and(Predicate::cmp("a", CmpOp::Lt, 10i64));
        assert_eq!(p.columns(), vec!["a", "c"]);
        assert!(Predicate::True.columns().is_empty());
    }

    #[test]
    fn mask_and_single_ids_agree_with_the_selection() {
        let t = t();
        let p = Predicate::range("b", 0.15, 0.45).and(Predicate::eq("c", "x").not());
        assert_eq!(p.evaluate(&t).unwrap(), vec![1, 3]);
        let mask = p.evaluate_mask(&t).unwrap();
        assert_eq!(mask, vec![false, true, false, true, false]);
        for (row, &expected) in mask.iter().enumerate() {
            let hit = !p.evaluate_at(&t, &[row as u32]).unwrap().is_empty();
            assert_eq!(hit, expected, "row {row}");
        }
        assert_eq!(
            p.evaluate_mask_range(&t, 1..4).unwrap(),
            vec![true, false, true]
        );
        assert!(p.evaluate_mask_range(&t, 4..6).is_err());
    }

    #[test]
    fn type_errors_are_reported() {
        let t = t();
        assert!(Predicate::eq("a", "nope").evaluate(&t).is_err());
        assert!(Predicate::eq("c", 3i64).evaluate(&t).is_err());
        assert!(Predicate::eq("missing", 1i64).evaluate(&t).is_err());
    }

    #[test]
    fn float_literal_against_int_column_must_be_exact() {
        let t = t();
        assert_eq!(Predicate::eq("a", 3.0f64).evaluate(&t).unwrap(), vec![2]);
        assert!(Predicate::eq("a", 3.5f64).evaluate(&t).is_err());
    }

    /// `2^63` is one past `i64::MAX`: no Int64 equals it, so it is no
    /// Int64 literal, while `-2^63` is `i64::MIN` exactly.
    #[test]
    fn float_literal_against_int_column_must_fit_in_i64() {
        let t = Table::new(
            Schema::of(&[("i", DataType::Int64)]),
            vec![Column::from(vec![i64::MAX, 0, i64::MIN])],
        )
        .unwrap();
        let two_63 = 2f64.powi(63);
        for p in [
            Predicate::eq("i", two_63),
            Predicate::cmp("i", CmpOp::Lt, two_63),
            Predicate::eq("i", f64::MAX),
        ] {
            assert!(
                matches!(p.evaluate(&t), Err(StorageError::TypeMismatch { .. })),
                "{p}"
            );
        }
        assert_eq!(Predicate::eq("i", -two_63).evaluate(&t).unwrap(), vec![2]);
        assert_eq!(
            Predicate::cmp("i", CmpOp::Gt, -two_63)
                .evaluate(&t)
                .unwrap(),
            vec![0, 1]
        );
    }

    #[test]
    fn window_evaluation_concatenates_to_full_scan() {
        let t = t();
        let p = Predicate::range("b", 0.15, 0.45).or(Predicate::eq("c", "y").not());
        let full = p.evaluate(&t).unwrap();
        for window in [1, 2, 3, 5, 7] {
            let mut got = Vec::new();
            let mut start = 0;
            while start < t.num_rows() {
                let end = (start + window).min(t.num_rows());
                got.extend(p.evaluate_range(&t, start..end).unwrap());
                start = end;
            }
            assert_eq!(got, full, "window {window}");
        }
        // Empty windows are fine; out-of-bounds windows are errors.
        assert!(p.evaluate_range(&t, 2..2).unwrap().is_empty());
        assert!(p.evaluate_range(&t, 4..9).is_err());
        assert!(Predicate::eq("missing", 1i64)
            .evaluate_range(&t, 0..2)
            .is_err());
    }
}
