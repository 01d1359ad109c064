//! Query discovery from example output (Query-By-Output \[64\],
//! Discovering Queries based on Example Tuples \[58\], spreadsheet-style
//! search \[51\]).
//!
//! The user pastes a handful of tuples they want in the result; the
//! system reverse-engineers a selection query that (a) returns all of
//! them and (b) returns as little else as possible. For numeric columns
//! we fit minimal covering ranges; for categorical columns, the value
//! set of the examples — then keep only the columns that actually
//! discriminate, ranked by selectivity.

use std::collections::BTreeSet;

use explore_storage::{Column, Predicate, Result, Table, Value};

/// A discovered candidate query with its quality measures.
#[derive(Debug, Clone)]
pub struct DiscoveredQuery {
    pub predicate: Predicate,
    /// |result ∩ examples| / |examples| — must be 1.0 for valid
    /// candidates (all examples covered).
    pub recall: f64,
    /// |examples covered| / |result| — how tight the query is around
    /// the examples.
    pub precision: f64,
    /// Rows the candidate returns.
    pub result_size: usize,
}

/// Discover a minimal conjunctive query covering the example rows.
///
/// Per column, builds the tightest predicate consistent with the
/// examples (numeric → covering range, categorical → value-set
/// disjunction), then keeps the columns whose predicate filters anything
/// at all, and finally drops redundant conjuncts greedily (most
/// selective first) while recall stays perfect.
pub fn discover_query(table: &Table, example_rows: &[usize]) -> Result<DiscoveredQuery> {
    if example_rows.is_empty() {
        return Err(explore_storage::StorageError::InvalidQuery(
            "need at least one example row".into(),
        ));
    }
    let n = table.num_rows();
    for &r in example_rows {
        if r >= n {
            return Err(explore_storage::StorageError::RowOutOfBounds { index: r, len: n });
        }
    }
    // Tightest per-column predicates.
    let mut conjuncts: Vec<(Predicate, usize)> = Vec::new(); // (pred, result size)
    for field in table.schema().fields() {
        let col = table.column(field.name())?;
        let pred = match col {
            Column::Int64(v) => {
                let lo = example_rows.iter().map(|&r| v[r]).min().expect("non-empty");
                let hi = example_rows.iter().map(|&r| v[r]).max().expect("non-empty");
                Predicate::range(field.name(), lo, hi + 1)
            }
            Column::Float64(v) => {
                let mut lo = f64::INFINITY;
                let mut hi = f64::NEG_INFINITY;
                for &r in example_rows {
                    lo = lo.min(v[r]);
                    hi = hi.max(v[r]);
                }
                // Half-open range: nudge the top to include the max.
                Predicate::range(field.name(), lo, hi + hi.abs().max(1.0) * 1e-12)
            }
            col => {
                let values: BTreeSet<&str> =
                    example_rows.iter().filter_map(|&r| col.str_at(r)).collect();
                let eqs: Vec<Predicate> = values
                    .into_iter()
                    .map(|val| Predicate::eq(field.name(), Value::Str(val.to_owned())))
                    .collect();
                if eqs.len() == 1 {
                    eqs.into_iter().next().expect("one element")
                } else {
                    Predicate::Or(eqs)
                }
            }
        };
        let size = pred.evaluate(table)?.len();
        if size < n {
            conjuncts.push((pred, size));
        }
    }
    // Most selective first.
    conjuncts.sort_by_key(|&(_, size)| size);
    // Greedy redundancy elimination: start from all, try dropping each
    // (least selective first) if the result set doesn't grow.
    let all_pred = conjunction(conjuncts.iter().map(|(p, _)| p.clone()).collect());
    let mut kept: Vec<Predicate> = conjuncts.iter().map(|(p, _)| p.clone()).collect();
    let target_size = all_pred.evaluate(table)?.len();
    let mut i = kept.len();
    while i > 0 {
        i -= 1;
        if kept.len() == 1 {
            break;
        }
        let mut trial = kept.clone();
        trial.remove(i);
        let size = conjunction(trial.clone()).evaluate(table)?.len();
        if size == target_size {
            kept = trial;
        }
    }
    let predicate = conjunction(kept);
    let result = predicate.evaluate(table)?;
    let result_set: std::collections::HashSet<u32> = result.iter().copied().collect();
    let covered = example_rows
        .iter()
        .filter(|&&r| result_set.contains(&(r as u32)))
        .count();
    Ok(DiscoveredQuery {
        recall: covered as f64 / example_rows.len() as f64,
        precision: if result.is_empty() {
            0.0
        } else {
            covered as f64 / result.len() as f64
        },
        result_size: result.len(),
        predicate,
    })
}

fn conjunction(mut preds: Vec<Predicate>) -> Predicate {
    match preds.len() {
        0 => Predicate::True,
        1 => preds.pop().expect("one element"),
        _ => Predicate::And(preds),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use explore_storage::gen::{sales_table, SalesConfig};
    use explore_storage::rng::SplitMix64;

    fn table() -> Table {
        sales_table(&SalesConfig {
            rows: 5000,
            ..SalesConfig::default()
        })
    }

    #[test]
    fn recall_is_always_perfect() {
        let t = table();
        let mut rng = SplitMix64::new(1);
        for _ in 0..10 {
            let examples: Vec<usize> = (0..5).map(|_| rng.below(5000) as usize).collect();
            let q = discover_query(&t, &examples).unwrap();
            assert_eq!(q.recall, 1.0, "examples {examples:?}");
        }
    }

    #[test]
    fn recovers_a_hidden_selection() {
        let t = table();
        // Hidden intent: cheap items from region0.
        let hidden = Predicate::eq("region", "region0").and(Predicate::range("price", 0.0, 60.0));
        let truth = hidden.evaluate(&t).unwrap();
        assert!(truth.len() >= 10, "need enough matching rows");
        // The user pastes 10 of the matching rows as examples.
        let examples: Vec<usize> = truth.iter().take(10).map(|&r| r as usize).collect();
        let q = discover_query(&t, &examples).unwrap();
        assert_eq!(q.recall, 1.0);
        // The discovered result should be concentrated inside the truth.
        let got = q.predicate.evaluate(&t).unwrap();
        let truth_set: std::collections::HashSet<u32> = truth.into_iter().collect();
        let inside = got.iter().filter(|r| truth_set.contains(r)).count();
        assert!(
            inside as f64 / got.len() as f64 > 0.5,
            "{} of {} rows inside hidden query",
            inside,
            got.len()
        );
    }

    #[test]
    fn precision_improves_with_more_examples() {
        let t = table();
        let hidden = Predicate::eq("channel", "channel0");
        let truth = hidden.evaluate(&t).unwrap();
        let few: Vec<usize> = truth.iter().take(2).map(|&r| r as usize).collect();
        let many: Vec<usize> = truth.iter().take(25).map(|&r| r as usize).collect();
        let q_few = discover_query(&t, &few).unwrap();
        let q_many = discover_query(&t, &many).unwrap();
        // More examples widen ranges (over-fit less), so the recovered
        // query covers more of the hidden result.
        assert!(q_many.result_size >= q_few.result_size);
        assert_eq!(q_many.recall, 1.0);
    }

    #[test]
    fn single_example_yields_tight_query() {
        let t = table();
        let q = discover_query(&t, &[17]).unwrap();
        assert_eq!(q.recall, 1.0);
        assert!(q.result_size < 50, "result {}", q.result_size);
    }

    #[test]
    fn empty_examples_rejected() {
        let t = table();
        assert!(discover_query(&t, &[]).is_err());
        assert!(discover_query(&t, &[999_999]).is_err());
    }

    #[test]
    fn redundant_conjuncts_are_dropped() {
        let t = table();
        let hidden = Predicate::eq("region", "region2");
        let truth = hidden.evaluate(&t).unwrap();
        let examples: Vec<usize> = truth.iter().take(30).map(|&r| r as usize).collect();
        let q = discover_query(&t, &examples).unwrap();
        // The discovered predicate should not mention every column.
        let cols = q.predicate.columns();
        assert!(cols.len() < t.num_columns(), "kept {cols:?}");
    }
}
