//! An independent oracle for `Query`: a deliberately naive interpreter
//! that reads a table one `Table::row` at a time and decides everything
//! on `Value`s. It shares no control flow with the engine — no
//! `Predicate::evaluate*`, no `Accumulator`, no group interner, no
//! morsels — so agreeing with it is agreeing with something other than
//! the engine itself.
//!
//! [`selection`] is the filter step alone, the reference the predicate
//! kernel's selections, masks and id lists are checked against.
//!
//! Aggregates are two-pass over each group's collected values, so SUM /
//! AVG / VAR / STD match the engine's streaming arithmetic only to
//! rounding: [`assert_matches`] is exact on scans, group sets, group
//! order, COUNT / MIN / MAX, and relative `1e-9` on the rest.

use std::cmp::Ordering;
use std::collections::HashMap;

use exploration::storage::{
    AggFunc, CmpOp, Column, DataType, Field, Predicate, Query, Schema, SortOrder, Table, Value,
};

/// The oracle's answer to `q` on `t`, or `None` when `q` is not a valid
/// query on `t` (unknown column, literal of the wrong type, non-COUNT
/// aggregate over strings) — where the engine must return an error.
pub fn run(t: &Table, q: &Query) -> Option<Table> {
    let index = |name: &str| t.schema().index_of(name).ok();
    let dtype = |name: &str| t.schema().data_type(name).ok();
    let all = rows(t);
    let rows: Vec<&Vec<Value>> = (selection_in(t, &all, &q.predicate)?.into_iter())
        .map(|r| &all[r as usize])
        .collect();

    let (fields, mut out): (Vec<Field>, Vec<Vec<Value>>) = if q.aggregates.is_empty() {
        let names: Vec<&str> = match q.projection.is_empty() {
            true => t.schema().names(),
            false => q.projection.iter().map(String::as_str).collect(),
        };
        let at: Vec<usize> = names.iter().map(|n| index(n)).collect::<Option<_>>()?;
        let fields = at.iter().map(|&i| t.schema().fields()[i].clone()).collect();
        let project = |row: &&Vec<Value>| at.iter().map(|&i| row[i].clone()).collect();
        (fields, rows.iter().map(project).collect())
    } else {
        let group_at: Vec<usize> = q.group_by.iter().map(|g| index(g)).collect::<Option<_>>()?;
        let agg_at: Vec<usize> = (q.aggregates.iter())
            .map(|a| index(&a.column))
            .collect::<Option<_>>()?;
        for a in &q.aggregates {
            if a.func != AggFunc::Count && !dtype(&a.column)?.is_numeric() {
                return None;
            }
        }
        // Groups in first-appearance order, each holding its rows.
        let mut slot: HashMap<String, usize> = HashMap::new();
        let mut groups: Vec<(Vec<Value>, Vec<&Vec<Value>>)> = Vec::new();
        for row in &rows {
            let key: Vec<Value> = group_at.iter().map(|&i| row[i].clone()).collect();
            let s = *slot.entry(format!("{key:?}")).or_insert_with(|| {
                groups.push((key, Vec::new()));
                groups.len() - 1
            });
            groups[s].1.push(*row);
        }
        if q.group_by.is_empty() && groups.is_empty() {
            groups.push((Vec::new(), Vec::new()));
        }
        let mut fields: Vec<Field> = (group_at.iter())
            .map(|&i| t.schema().fields()[i].clone())
            .collect();
        for a in &q.aggregates {
            fields.push(Field::new(a.result_name(), DataType::Float64));
        }
        let out = groups
            .into_iter()
            .map(|(mut key, members)| {
                for (a, &i) in q.aggregates.iter().zip(&agg_at) {
                    let xs: Vec<f64> = (members.iter())
                        .map(|row| row[i].as_float().unwrap_or(0.0))
                        .collect();
                    key.push(Value::Float(fold(a.func, &xs)));
                }
                key
            })
            .collect();
        (fields, out)
    };

    if let Some((name, order)) = &q.order_by {
        let by = fields.iter().position(|f| f.name() == name)?;
        // Stable ascending; descending is that order reversed.
        out.sort_by(|a, b| a[by].total_cmp(&b[by]));
        if *order == SortOrder::Desc {
            out.reverse();
        }
    }
    out.truncate(q.limit.unwrap_or(usize::MAX));

    let mut columns: Vec<Column> = (fields.iter())
        .map(|f| Column::empty(f.data_type()))
        .collect();
    for row in out {
        for (col, v) in columns.iter_mut().zip(row) {
            col.push(v).unwrap();
        }
    }
    Some(Table::new(Schema::new(fields).ok()?, columns).unwrap())
}

/// Every row of `t`, read one `Table::row` at a time: all the oracle
/// ever sees of a table.
pub fn rows(t: &Table) -> Vec<Vec<Value>> {
    (0..t.num_rows()).map(|r| t.row(r).unwrap()).collect()
}

/// [`run`]'s filter step: the ids of the rows of `t` that satisfy `p`,
/// ascending, or `None` when `p` is not a valid predicate on `t`.
pub fn selection(t: &Table, p: &Predicate) -> Option<Vec<u32>> {
    selection_in(t, &rows(t), p)
}

/// [`selection`] over `rows`, which must be [`rows`]`(t)`: a suite that
/// asks many predicates of one large table reads its rows once.
pub fn selection_in(t: &Table, rows: &[Vec<Value>], p: &Predicate) -> Option<Vec<u32>> {
    if !valid(p, &|name| t.schema().data_type(name).ok()) {
        return None;
    }
    let index = |name: &str| t.schema().index_of(name).unwrap();
    let hits = rows
        .iter()
        .enumerate()
        .filter(|(_, row)| holds(p, row, &index));
    Some(hits.map(|(r, _)| r as u32).collect())
}

/// One aggregate over one group's values, the textbook way.
fn fold(func: AggFunc, xs: &[f64]) -> f64 {
    let n = xs.len() as f64;
    let sum: f64 = xs.iter().sum();
    let var = || xs.iter().map(|x| (x - sum / n).powi(2)).sum::<f64>() / n;
    match func {
        AggFunc::Count => n,
        AggFunc::Sum => sum,
        _ if xs.is_empty() => f64::NAN,
        AggFunc::Avg => sum / n,
        AggFunc::Min => xs.iter().copied().fold(f64::INFINITY, f64::min),
        AggFunc::Max => xs.iter().copied().fold(f64::NEG_INFINITY, f64::max),
        AggFunc::Var => var(),
        AggFunc::Std => var().sqrt(),
    }
}

/// Is every comparison of `p` between a column that exists and a
/// literal of its kind? (An Int64 column takes a float as a range bound,
/// or when it names an `i64`: integral and in `[-2^63, 2^63)`.)
fn valid(p: &Predicate, dtype: &impl Fn(&str) -> Option<DataType>) -> bool {
    let two_63 = 2f64.powi(63);
    let fits = |column: &str, lit: &Value, bound: bool| match (dtype(column), lit) {
        (Some(DataType::Utf8), Value::Str(_)) => true,
        (Some(DataType::Float64), Value::Int(_) | Value::Float(_)) => true,
        (Some(DataType::Int64), Value::Int(_)) => true,
        (Some(DataType::Int64), Value::Float(f)) => {
            bound || (f.fract() == 0.0 && (-two_63..two_63).contains(f))
        }
        _ => false,
    };
    match p {
        Predicate::True => true,
        Predicate::Cmp { column, value, .. } => fits(column, value, false),
        Predicate::Range { column, low, high } => {
            fits(column, low, true) && fits(column, high, true)
        }
        Predicate::And(ps) | Predicate::Or(ps) => ps.iter().all(|p| valid(p, dtype)),
        Predicate::Not(p) => valid(p, dtype),
    }
}

/// `x` against `b` as the numbers they name, exactly: `x as f64` rounds
/// past 2^53, but rounding is monotonic, so it can only turn an order
/// into a tie, and a tie means `b` is integral and at most 2^63.
fn int_float_cmp(x: i64, b: f64) -> Option<Ordering> {
    match (x as f64).partial_cmp(&b)? {
        Ordering::Equal if b >= 2f64.powi(63) => Some(Ordering::Less),
        Ordering::Equal => Some(x.cmp(&(b as i64))),
        order => Some(order),
    }
}

/// Does `row` satisfy `p`?
fn holds(p: &Predicate, row: &[Value], index: &impl Fn(&str) -> usize) -> bool {
    let cmp = |v: &Value, op: CmpOp, lit: &Value| {
        let ord = match (v, lit) {
            (Value::Str(a), Value::Str(b)) => a.partial_cmp(b),
            (Value::Int(a), Value::Int(b)) => a.partial_cmp(b),
            (Value::Int(a), Value::Float(b)) => int_float_cmp(*a, *b),
            _ => v.as_float().unwrap().partial_cmp(&lit.as_float().unwrap()),
        };
        match op {
            CmpOp::Eq => ord.is_some_and(|o| o.is_eq()),
            CmpOp::Ne => ord.is_none_or(|o| o.is_ne()),
            CmpOp::Lt => ord.is_some_and(|o| o.is_lt()),
            CmpOp::Le => ord.is_some_and(|o| o.is_le()),
            CmpOp::Gt => ord.is_some_and(|o| o.is_gt()),
            CmpOp::Ge => ord.is_some_and(|o| o.is_ge()),
        }
    };
    match p {
        Predicate::True => true,
        Predicate::Cmp { column, op, value } => cmp(&row[index(column)], *op, value),
        Predicate::Range { column, low, high } => {
            let v = &row[index(column)];
            cmp(v, CmpOp::Ge, low) && cmp(v, CmpOp::Lt, high)
        }
        Predicate::And(ps) => ps.iter().all(|p| holds(p, row, index)),
        Predicate::Or(ps) => ps.iter().any(|p| holds(p, row, index)),
        Predicate::Not(p) => !holds(p, row, index),
    }
}

/// Assert `got` is the oracle's `want` for `q`: same schema, rows and
/// row order; every cell bit-exact except SUM / AVG / VAR / STD outputs,
/// which may differ by a relative `1e-9`.
pub fn assert_matches(got: &Table, want: &Table, q: &Query, context: &str) {
    assert_eq!(got.schema(), want.schema(), "{context}: schema");
    assert_eq!(got.num_rows(), want.num_rows(), "{context}: row count");
    for (c, field) in want.schema().fields().iter().enumerate() {
        let rounded = q.aggregates.iter().any(|a| {
            a.result_name() == field.name()
                && matches!(
                    a.func,
                    AggFunc::Sum | AggFunc::Avg | AggFunc::Var | AggFunc::Std
                )
        });
        for row in 0..want.num_rows() {
            let (g, w) = (
                got.column_at(c).value(row).unwrap(),
                want.column_at(c).value(row).unwrap(),
            );
            let same = match (&g, &w) {
                (Value::Float(g), Value::Float(w)) if g.is_nan() || w.is_nan() => {
                    g.is_nan() && w.is_nan()
                }
                (Value::Float(g), Value::Float(w)) if rounded => {
                    (g - w).abs() <= 1e-9 * g.abs().max(w.abs())
                }
                (Value::Float(g), Value::Float(w)) => g.to_bits() == w.to_bits(),
                _ => g == w,
            };
            assert!(
                same,
                "{context}: {}[{row}] engine {g} vs oracle {w}",
                field.name()
            );
        }
    }
}
