//! The NoDB-style adaptive loader (Alagiannis et al., SIGMOD'12 \[8\];
//! CIDR "Here are my data files" \[28\]) with invisible loading \[2\].
//!
//! Queries run directly on the raw file. Three mechanisms amortize the
//! parsing cost exactly where queries look:
//!
//! * **Positional map** — while tokenizing a row to reach field `j`, the
//!   byte offsets of all fields passed are recorded, so a later access
//!   to any field `<= j` jumps straight to its bytes, and an access to a
//!   deeper field resumes tokenizing from the last known offset instead
//!   of the line start.
//! * **Column cache** — the first query that needs a column parses and
//!   materializes it; subsequent queries run at in-memory speed
//!   ("invisible loading": the database loads itself as a side effect of
//!   the workload).
//! * **Selective parsing** — columns never touched are never parsed.

use std::sync::Arc;

use explore_exec::{run_query, QueryCtx};
use explore_fault::FailPoints;
use explore_storage::csv::push_parsed;
use explore_storage::{Column, Field, Query, Result, Schema, StorageError, Table, Value};

use crate::raw::RawCsv;

/// Work metrics distinguishing the adaptive loader from the baselines.
#[derive(Debug, Default, Clone, Copy)]
pub struct LoadMetrics {
    /// Fields tokenized (comma scans) so far.
    pub fields_tokenized: u64,
    /// Fields parsed (string → typed value) so far.
    pub fields_parsed: u64,
    /// Positional-map hits (field located without tokenizing).
    pub map_hits: u64,
    /// Queries answered entirely from cached columns.
    pub cached_queries: u64,
    /// Rows excluded under [`ErrorPolicy::SkipRow`].
    pub rows_skipped: u64,
}

/// What to do when a row fails to parse (malformed field, short row, or
/// an injected `load.parse` fault).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ErrorPolicy {
    /// Surface the parse error to the caller (the default — queries on
    /// clean files are unaffected either way).
    #[default]
    Abort,
    /// Drop the offending row from every query answer and keep going;
    /// each skipped row is counted in [`LoadMetrics::rows_skipped`].
    SkipRow,
}

/// An adaptive loader over one raw CSV file.
#[derive(Debug)]
pub struct AdaptiveLoader {
    raw: RawCsv,
    /// Positional map: `offsets[row * ncols + field]` = byte offset of
    /// the field start *within its line*; valid for `field <
    /// known[row]`.
    offsets: Vec<u32>,
    known: Vec<u16>,
    /// Parsed column cache.
    cache: Vec<Option<Column>>,
    /// Materialized views keyed by the referenced column set, so
    /// repeated query shapes never re-clone column data. Bounded by the
    /// number of distinct shapes in a session (small in practice).
    view_cache: std::collections::HashMap<Vec<String>, Table>,
    metrics: LoadMetrics,
    /// How row-level parse failures are handled.
    error_policy: ErrorPolicy,
    /// Rows excluded from query answers under [`ErrorPolicy::SkipRow`].
    /// Columns keep a typed placeholder at dead rows so lengths stay
    /// aligned; views filter them out.
    dead: Vec<bool>,
    /// Fail-point registry for the tokenizer/positional-map hazard
    /// sites, when attached.
    faults: Option<Arc<FailPoints>>,
}

impl AdaptiveLoader {
    /// Attach to a raw file.
    pub fn new(raw: RawCsv) -> Self {
        let rows = raw.num_rows();
        let ncols = raw.schema().len();
        AdaptiveLoader {
            raw,
            offsets: vec![0; rows * ncols],
            known: vec![0; rows],
            cache: vec![None; ncols],
            view_cache: std::collections::HashMap::new(),
            metrics: LoadMetrics::default(),
            error_policy: ErrorPolicy::default(),
            dead: vec![false; rows],
            faults: None,
        }
    }

    /// Set how row-level parse failures are handled.
    pub fn set_error_policy(&mut self, policy: ErrorPolicy) {
        self.error_policy = policy;
    }

    /// Current parse-failure policy.
    pub fn error_policy(&self) -> ErrorPolicy {
        self.error_policy
    }

    /// Attach (or detach) a fail-point registry. Armed points:
    /// `load.parse` makes a field read parse as malformed (handled per
    /// the [`ErrorPolicy`]), `load.map` makes one positional-map read
    /// fall back to tokenizing the line from its start (bit-identical
    /// answer, just slower).
    pub fn set_faults(&mut self, faults: Option<Arc<FailPoints>>) {
        self.faults = faults;
    }

    /// Does the named fail point trigger? One `Option` check when no
    /// registry is attached.
    fn fire(&self, name: &str) -> bool {
        self.faults.as_ref().is_some_and(|f| f.fire(name))
    }

    /// Rows currently excluded under [`ErrorPolicy::SkipRow`].
    pub fn rows_skipped(&self) -> u64 {
        self.metrics.rows_skipped
    }

    /// The file's schema.
    pub fn schema(&self) -> &Schema {
        self.raw.schema()
    }

    /// Number of data rows.
    pub fn num_rows(&self) -> usize {
        self.raw.num_rows()
    }

    /// Work metrics so far.
    pub fn metrics(&self) -> LoadMetrics {
        self.metrics
    }

    /// Number of columns materialized so far (invisible-loading progress).
    pub fn columns_loaded(&self) -> usize {
        self.cache.iter().filter(|c| c.is_some()).count()
    }

    /// True when the whole file has been migrated into memory.
    pub fn fully_loaded(&self) -> bool {
        self.cache.iter().all(Option::is_some)
    }

    /// Ensure a column is parsed and cached; returns whether any file
    /// work happened.
    pub fn ensure_column(&mut self, name: &str) -> Result<bool> {
        let fi = self.raw.schema().index_of(name)?;
        if self.cache[fi].is_some() {
            return Ok(false);
        }
        let dt = self.raw.schema().fields()[fi].data_type();
        let mut col = Column::with_capacity(dt, self.raw.num_rows());
        for row in 0..self.raw.num_rows() {
            let (start, end) = self.locate_field(row, fi);
            let line = self.raw.line(row);
            let parsed = if self.fire("load.parse") {
                Err(StorageError::Csv {
                    line: row + 2,
                    message: "injected parse fault".into(),
                })
            } else {
                push_parsed(&mut col, &line[start..end], row + 2)
            };
            match parsed {
                Ok(()) => {}
                Err(e) => match self.error_policy {
                    // Abort mid-column leaves valid state: the cache
                    // slot stays `None` and the positional map only
                    // ever gained accurate offsets.
                    ErrorPolicy::Abort => return Err(e),
                    ErrorPolicy::SkipRow => {
                        // Keep column lengths aligned with a typed
                        // placeholder; the row is filtered out of every
                        // view below.
                        col.push(match dt {
                            explore_storage::DataType::Int64 => Value::Int(0),
                            explore_storage::DataType::Float64 => Value::Float(0.0),
                            explore_storage::DataType::Utf8 => Value::Str(String::new()),
                        })?;
                        if !self.dead[row] {
                            self.dead[row] = true;
                            self.metrics.rows_skipped += 1;
                            // Views built before this row died include it.
                            self.view_cache.clear();
                        }
                    }
                },
            }
            self.metrics.fields_parsed += 1;
        }
        self.cache[fi] = Some(col);
        Ok(true)
    }

    /// Byte range (within the line) of `field` in `row`, tokenizing as
    /// little as possible and extending the positional map.
    fn locate_field(&mut self, row: usize, field: usize) -> (usize, usize) {
        if self.fire("load.map") {
            // Injected positional-map failure: ignore the map for this
            // access and tokenize the line from its start. Same bytes
            // come back and the map is left untouched, so a corrupted
            // or unavailable map entry can never corrupt an answer.
            let line = self.raw.line(row);
            let mut start = 0usize;
            for _ in 0..field {
                self.metrics.fields_tokenized += 1;
                match line[start..].find(',') {
                    Some(i) => start += i + 1,
                    None => break, // short row; parse error surfaces later
                }
            }
            let end = line[start..].find(',').map_or(line.len(), |i| start + i);
            return (start, end);
        }
        let ncols = self.raw.schema().len();
        let line = self.raw.line(row);
        let known = self.known[row] as usize;
        if field < known {
            self.metrics.map_hits += 1;
            let start = self.offsets[row * ncols + field] as usize;
            let end = if field + 1 < known {
                self.offsets[row * ncols + field + 1] as usize - 1
            } else {
                line[start..].find(',').map_or(line.len(), |i| start + i)
            };
            return (start, end);
        }
        // Resume tokenizing from the last known field start.
        let mut pos = if known == 0 {
            0
        } else {
            self.offsets[row * ncols + known - 1] as usize
        };
        let mut f = known.saturating_sub(1);
        if known == 0 {
            self.offsets[row * ncols] = 0;
            self.known[row] = 1;
            f = 0;
        }
        // Walk commas until `field` is known.
        while f < field {
            let comma = line[pos..].find(',').map(|i| pos + i);
            self.metrics.fields_tokenized += 1;
            match comma {
                Some(c) => {
                    pos = c + 1;
                    f += 1;
                    self.offsets[row * ncols + f] = pos as u32;
                    self.known[row] = self.known[row].max((f + 1) as u16);
                }
                None => break, // short row; parse error surfaces later
            }
        }
        let start = self.offsets[row * ncols + field] as usize;
        let end = line[start..].find(',').map_or(line.len(), |i| start + i);
        (start, end)
    }

    /// Run a query directly against the raw file, loading exactly the
    /// referenced columns first, then executing on the loaded view with
    /// the engine's executor under `ctx` — the answer a registered copy
    /// of the file would give, bit for bit. The context's cancellation
    /// tokens are checked before each column load and each morsel, so a
    /// deadline stops invisible loading between columns, leaving the
    /// cache and positional map valid for the next query.
    pub fn query(&mut self, query: &Query, ctx: &QueryCtx) -> Result<Table> {
        // A scan with no projection returns every column, in schema
        // order, whatever its predicate mentions.
        let names: Vec<String> = if query.aggregates.is_empty() && query.projection.is_empty() {
            self.raw.schema().names()
        } else {
            query.referenced_columns()
        }
        .into_iter()
        .map(str::to_owned)
        .collect();
        let mut any_loaded = false;
        for name in &names {
            ctx.check_cancel()?;
            any_loaded |= self.ensure_column(name)?;
        }
        if !any_loaded {
            self.metrics.cached_queries += 1;
        }
        // Build a view table of the needed columns only (clones Column
        // handles once per query; the underlying data moved at load time).
        if !self.view_cache.contains_key(&names) {
            let mut fields = Vec::with_capacity(names.len());
            let mut cols = Vec::with_capacity(names.len());
            for name in &names {
                self.ensure_column(name)?;
                let fi = self.raw.schema().index_of(name)?;
                fields.push(Field::new(
                    name.clone(),
                    self.raw.schema().fields()[fi].data_type(),
                ));
                match self.cache[fi].clone() {
                    Some(col) => cols.push(col),
                    None => {
                        return Err(StorageError::Internal(format!(
                            "column cache lost {name} after ensure_column"
                        )))
                    }
                }
            }
            let mut view = Table::new(Schema::new(fields)?, cols)?;
            if self.dead.iter().any(|&d| d) {
                // Skipped rows are excluded once at view-build time;
                // the filtered view is what gets cached.
                let live: Vec<u32> = (0..self.raw.num_rows())
                    .filter(|&r| !self.dead[r])
                    .map(|r| r as u32)
                    .collect();
                view = view.gather(&live);
            }
            self.view_cache.insert(names.clone(), view);
        }
        let view = self
            .view_cache
            .get(&names)
            .ok_or_else(|| StorageError::Internal("view cache lost freshly built view".into()))?;
        run_query(view, query, ctx)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use explore_storage::csv::write_csv;
    use explore_storage::gen::{sales_table, SalesConfig};
    use explore_storage::{AggFunc, Predicate};

    fn loader(rows: usize) -> (Table, AdaptiveLoader) {
        let t = sales_table(&SalesConfig {
            rows,
            ..SalesConfig::default()
        });
        let raw = RawCsv::new(write_csv(&t), t.schema().clone()).unwrap();
        (t, AdaptiveLoader::new(raw))
    }

    #[test]
    fn query_results_match_eager_load() {
        let (t, mut l) = loader(500);
        let q = Query::new()
            .filter(Predicate::range("price", 50.0, 150.0))
            .group("region")
            .agg(AggFunc::Sum, "qty");
        assert_eq!(l.query(&q, &QueryCtx::none()).unwrap(), q.run(&t).unwrap());
    }

    #[test]
    fn untouched_columns_are_never_parsed() {
        let (_, mut l) = loader(300);
        let q = Query::new().agg(AggFunc::Avg, "price");
        l.query(&q, &QueryCtx::none()).unwrap();
        assert_eq!(l.columns_loaded(), 1);
        assert!(!l.fully_loaded());
        // price is field 3 of 6: parsed fields = rows × 1.
        assert_eq!(l.metrics().fields_parsed, 300);
    }

    #[test]
    fn repeated_query_is_answered_from_cache() {
        let (_, mut l) = loader(300);
        let q = Query::new()
            .filter(Predicate::eq("region", "region0"))
            .agg(AggFunc::Count, "region");
        l.query(&q, &QueryCtx::none()).unwrap();
        let toks = l.metrics().fields_tokenized;
        l.query(&q, &QueryCtx::none()).unwrap();
        let m = l.metrics();
        assert_eq!(m.fields_tokenized, toks, "no new tokenization");
        assert_eq!(m.cached_queries, 1);
    }

    #[test]
    fn positional_map_accelerates_deeper_fields() {
        // Load field 3 (price) first, then field 5 (qty): the second
        // load should resume from the recorded offsets, and accessing
        // field 0 afterwards is pure map hits.
        let (t, mut l) = loader(200);
        l.ensure_column("price").unwrap();
        let toks_after_price = l.metrics().fields_tokenized;
        l.ensure_column("qty").unwrap();
        let toks_after_qty = l.metrics().fields_tokenized;
        // qty (field 5) from price (field 3): 2 more commas per row,
        // not 5.
        assert_eq!(toks_after_qty - toks_after_price, 2 * 200);
        let hits_before = l.metrics().map_hits;
        l.ensure_column("region").unwrap();
        assert_eq!(l.metrics().map_hits - hits_before, 200, "field 0 is free");
        assert_eq!(
            l.query(&Query::new().agg(AggFunc::Sum, "qty"), &QueryCtx::none())
                .unwrap(),
            Query::new().agg(AggFunc::Sum, "qty").run(&t).unwrap()
        );
    }

    #[test]
    fn invisible_loading_completes_after_touching_everything() {
        let (t, mut l) = loader(100);
        for name in t.schema().names() {
            l.ensure_column(name).unwrap();
        }
        assert!(l.fully_loaded());
        // Everything now answers from memory.
        let q = Query::new().select(&["region", "qty"]).take(5);
        let before = l.metrics().fields_tokenized;
        l.query(&q, &QueryCtx::none()).unwrap();
        assert_eq!(l.metrics().fields_tokenized, before);
    }

    #[test]
    fn first_query_cost_is_proportional_to_referenced_columns() {
        let (_, mut narrow) = loader(400);
        narrow
            .query(
                &Query::new().agg(AggFunc::Count, "region"),
                &QueryCtx::none(),
            )
            .unwrap();
        let (_, mut wide) = loader(400);
        wide.query(
            &Query::new()
                .group("region")
                .agg(AggFunc::Sum, "qty")
                .agg(AggFunc::Avg, "price"),
            &QueryCtx::none(),
        )
        .unwrap();
        assert!(
            narrow.metrics().fields_parsed < wide.metrics().fields_parsed,
            "narrow {} vs wide {}",
            narrow.metrics().fields_parsed,
            wide.metrics().fields_parsed
        );
    }

    #[test]
    fn unknown_column_errors() {
        let (_, mut l) = loader(10);
        assert!(l.ensure_column("nope").is_err());
    }
}
