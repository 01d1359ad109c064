//! A small declarative query layer: filter → group/aggregate → order → limit
//! — and the one pipeline that executes it.
//!
//! This is the engine every higher layer drives: the AQP middleware runs the
//! same [`Query`] against samples, SeeDB runs batches of them with shared
//! scans, and the exploration front-ends translate user interactions into
//! them. It intentionally covers single-table select/aggregate queries —
//! the query shape of every experiment in the surveyed papers.
//!
//! # One executor
//!
//! This module owns the **morsel grid** ([`MORSEL_ROWS`], [`MAX_MORSELS`],
//! [`morsel_rows_for`], [`morsel_range`], [`morsel_count`]) and the
//! **pipeline** that walks it: each morsel evaluates the predicate over
//! its row window with the bitmap kernels and either gathers its matching
//! rows (scans) or folds them into one partial batch (aggregates);
//! partials merge **in morsel order**. The aggregation states and their
//! begin → feed → end → absorb-in-morsel-order protocol are private to it.
//!
//! *Who runs a morsel* is the only thing the pipeline leaves open, behind
//! [`MorselDispatch`]: `run` executes one job per morsel and `merge` the
//! morsel-order combine. There are exactly two implementations. The one
//! here is a plain loop on the calling thread — [`Query::run`]. The other
//! is `explore-exec`'s, which adds a cancel check per morsel, the `exec.*`
//! fail points, spans, and helper threads under `ExecPolicy::Parallel`
//! (`run_query` and friends). What a morsel computes and the order
//! partials combine in never depend on the dispatcher, so `Query::run`
//! and `run_query` under either policy return the same bits by
//! construction: there is one exact answer. (The one retained exception
//! is a *grid*, not a second pipeline: [`Query::run_unsplit`] walks the
//! whole table as one morsel for the data-cube lattice, whose cells the
//! repo benchmark pins in that summation order.)

use std::borrow::Cow;
use std::cmp::Ordering;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::ops::Range;

use crate::agg::{Accumulator, AggFunc, Measure};
use crate::column::Column;
use crate::error::{Result, StorageError};
use crate::predicate::Predicate;
use crate::schema::{Field, Schema};
use crate::table::Table;
use crate::value::{DataType, Value};

/// Rows per morsel: the unit of work a dispatcher hands out, and the
/// partial-aggregation granularity every execution shares. Every
/// dispatcher splits a table at the same multiples of `MORSEL_ROWS`,
/// which is what makes their outputs bit-identical.
pub const MORSEL_ROWS: usize = 1 << 16;

/// Cap on how many morsels one fan-out produces. Above
/// `MAX_MORSELS × MORSEL_ROWS` rows, morsels grow (in whole multiples
/// of [`MORSEL_ROWS`]) instead of multiplying, so a huge scan stays a
/// handful of coarse work units rather than hundreds of tiny tasks
/// whose per-morsel overhead (dispatch, span, partial merge) eats the
/// parallel win.
pub const MAX_MORSELS: usize = 64;

/// Adaptive morsel size for a table of `n_rows` rows: the fixed
/// [`MORSEL_ROWS`] granularity until the table would decompose into
/// more than [`MAX_MORSELS`] units, then scaled up so it doesn't.
/// The size depends *only* on the row count — never on the dispatcher,
/// policy or worker count — because every execution must share the
/// decomposition for bit-identity, and selection replay must cut at
/// the same offsets.
pub fn morsel_rows_for(n_rows: usize) -> usize {
    let units = n_rows.div_ceil(MORSEL_ROWS).max(1);
    MORSEL_ROWS * units.div_ceil(MAX_MORSELS)
}

/// The half-open row window of morsel `m` in a table of `n_rows` rows.
pub fn morsel_range(m: usize, n_rows: usize) -> Range<usize> {
    let rows = morsel_rows_for(n_rows);
    let start = m * rows;
    start..n_rows.min(start + rows)
}

/// How many morsels a table of `n_rows` rows decomposes into. Always at
/// least one, so validation (unknown columns, type mismatches) runs even
/// on empty tables and every dispatcher surfaces identical errors.
pub fn morsel_count(n_rows: usize) -> usize {
    n_rows.div_ceil(morsel_rows_for(n_rows)).max(1)
}

/// Who runs the pipeline's morsels: the one thing an execution of a
/// [`Query`] may vary. Implemented twice — the calling-thread loop
/// behind [`Query::run`], and `explore-exec`'s context-carrying
/// dispatcher (cancellation, fail points, spans, helper threads).
///
/// The contract is the executor's bit-identity contract: `run` returns
/// each job's result at its morsel index, whichever thread ran it, and
/// the error of the lowest-indexed failing morsel; a job's result
/// depends only on its index, never on its state's history.
pub trait MorselDispatch {
    /// Run `job(state, participant, morsel)` once per morsel in
    /// `0..n_morsels` and return the results in morsel order plus the
    /// per-participant states (`participant` indexes them), each built
    /// by `init` and owned by one participant for the whole fan-out.
    /// `stage` labels the fan-out for whoever records it.
    fn run<S: Send, T: Send>(
        &self,
        n_morsels: usize,
        stage: &'static str,
        init: impl Fn() -> S + Sync,
        job: impl Fn(&mut S, usize, usize) -> Result<T> + Sync,
    ) -> Result<(Vec<T>, Vec<S>)>;

    /// Run the morsel-order merge step `f`, which combines the partials
    /// of `worker_states` participant states (0 for a scan).
    fn merge<T>(&self, worker_states: usize, f: impl FnOnce() -> Result<T>) -> Result<T>;
}

/// The serial walk: every morsel in order on the calling thread, one
/// state, nothing recorded.
struct CallingThread;

impl MorselDispatch for CallingThread {
    fn run<S: Send, T: Send>(
        &self,
        n_morsels: usize,
        _stage: &'static str,
        init: impl Fn() -> S + Sync,
        job: impl Fn(&mut S, usize, usize) -> Result<T> + Sync,
    ) -> Result<(Vec<T>, Vec<S>)> {
        let mut state = init();
        let results = (0..n_morsels)
            .map(|m| job(&mut state, 0, m))
            .collect::<Result<_>>()?;
        Ok((results, vec![state]))
    }

    fn merge<T>(&self, _worker_states: usize, f: impl FnOnce() -> Result<T>) -> Result<T> {
        f()
    }
}

/// One aggregate expression: `func(column)`. For `Count` the column may
/// be any column of the table (count ignores its values).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Aggregate {
    pub func: AggFunc,
    pub column: String,
}

impl Aggregate {
    /// Build an aggregate expression.
    pub fn new(func: AggFunc, column: impl Into<String>) -> Self {
        Aggregate {
            func,
            column: column.into(),
        }
    }

    /// Result column name, e.g. `avg(price)`.
    pub fn result_name(&self) -> String {
        format!("{}({})", self.func, self.column)
    }
}

/// Sort direction for `ORDER BY`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SortOrder {
    Asc,
    Desc,
}

/// A declarative single-table query.
#[derive(Debug, Clone, PartialEq)]
pub struct Query {
    /// Filter; `Predicate::True` selects everything.
    pub predicate: Predicate,
    /// Columns to return when no aggregates are present; empty = all.
    pub projection: Vec<String>,
    /// Group-by columns (requires at least one aggregate).
    pub group_by: Vec<String>,
    /// Aggregates to compute.
    pub aggregates: Vec<Aggregate>,
    /// Optional ordering on a result column.
    pub order_by: Option<(String, SortOrder)>,
    /// Optional row limit, applied after ordering.
    pub limit: Option<usize>,
}

impl Default for Query {
    fn default() -> Self {
        Query::new()
    }
}

impl Query {
    /// A query that returns the whole table.
    pub fn new() -> Self {
        Query {
            predicate: Predicate::True,
            projection: Vec::new(),
            group_by: Vec::new(),
            aggregates: Vec::new(),
            order_by: None,
            limit: None,
        }
    }

    /// Set the filter predicate.
    pub fn filter(mut self, predicate: Predicate) -> Self {
        self.predicate = predicate;
        self
    }

    /// Set the projection list.
    pub fn select(mut self, columns: &[&str]) -> Self {
        self.projection = columns.iter().map(|s| s.to_string()).collect();
        self
    }

    /// Add a group-by column.
    pub fn group(mut self, column: &str) -> Self {
        self.group_by.push(column.to_owned());
        self
    }

    /// Add an aggregate.
    pub fn agg(mut self, func: AggFunc, column: &str) -> Self {
        self.aggregates.push(Aggregate::new(func, column));
        self
    }

    /// Order the result by a column.
    pub fn order(mut self, column: &str, order: SortOrder) -> Self {
        self.order_by = Some((column.to_owned(), order));
        self
    }

    /// Limit the result size.
    pub fn take(mut self, limit: usize) -> Self {
        self.limit = Some(limit);
        self
    }

    /// A compact SQL-ish description of the query, for `explain`
    /// profiles and trace headers. Not parseable, not canonical — the
    /// cache fingerprint is the identity; this is for humans.
    pub fn describe(&self) -> String {
        let mut s = String::from("select ");
        let mut outputs: Vec<String> = self.group_by.clone();
        outputs.extend(self.aggregates.iter().map(Aggregate::result_name));
        if outputs.is_empty() {
            outputs.extend(self.projection.iter().cloned());
        }
        if outputs.is_empty() {
            s.push('*');
        } else {
            s.push_str(&outputs.join(", "));
        }
        if !matches!(self.predicate, Predicate::True) {
            s.push_str(&format!(" where {}", self.predicate));
        }
        if !self.group_by.is_empty() {
            s.push_str(&format!(" group by {}", self.group_by.join(", ")));
        }
        if let Some((col, order)) = &self.order_by {
            let dir = match order {
                SortOrder::Asc => "asc",
                SortOrder::Desc => "desc",
            };
            s.push_str(&format!(" order by {col} {dir}"));
        }
        if let Some(limit) = self.limit {
            s.push_str(&format!(" limit {limit}"));
        }
        s
    }

    /// All base-table columns this query touches (predicate + projection +
    /// grouping + aggregates). Drives adaptive loading and layout choice.
    pub fn referenced_columns(&self) -> Vec<&str> {
        let mut out: Vec<&str> = self.predicate.columns();
        for name in self
            .projection
            .iter()
            .chain(self.group_by.iter())
            .map(String::as_str)
            .chain(self.aggregates.iter().map(|a| a.column.as_str()))
        {
            if !out.contains(&name) {
                out.push(name);
            }
        }
        out
    }

    /// Execute against a table: the pipeline's serial walk, every
    /// morsel in order on the calling thread. Bit-identical to
    /// `explore_exec::run_query` under either policy.
    pub fn run(&self, table: &Table) -> Result<Table> {
        self.run_parts(&[table], &CallingThread)
    }

    /// Execute against the table whose rows are the rows of `parts` (at
    /// least one, all of one schema) concatenated in order, without
    /// materializing it, running the morsels through `dispatch`. The
    /// morsel grid is the whole table's — computed from the total row
    /// count, wherever the part boundaries fall — and a morsel that
    /// covers rows of several parts evaluates the predicate on each
    /// fragment and consumes the fragments in row order, so the result
    /// is bit-identical to a run on the concatenation (and errors are
    /// the same errors) for every partition of the rows.
    pub fn run_parts<D: MorselDispatch>(&self, parts: &[&Table], dispatch: &D) -> Result<Table> {
        let n = parts.iter().map(|t| t.num_rows()).sum();
        let stage = if self.aggregates.is_empty() {
            "scan"
        } else {
            "aggregate"
        };
        self.run_selected(dispatch, parts, morsel_count(n), stage, |m| {
            fragments(parts, morsel_range(m, n)).map(|(p, rows)| {
                let sel = self.predicate.evaluate_range(parts[p], rows)?;
                Ok((p, Cow::Owned(sel)))
            })
        })
    }

    /// Execute with the whole table as **one morsel**: the same pipeline
    /// on the calling thread, but each group's aggregate is a single
    /// accumulation over all its rows instead of per-morsel partials
    /// merged in order. On a table of at most [`MORSEL_ROWS`] rows this
    /// *is* [`Query::run`]; above that, float aggregates may differ from
    /// it in the last ulp. It exists for the one consumer whose answers
    /// are pinned in that summation order — the data-cube lattice, whose
    /// cell digests `benchmark/`'s `middleware_insight` workload fixes —
    /// and goes when that pin is re-taken; everything else runs
    /// [`Query::run`] or `explore_exec::run_query`.
    pub fn run_unsplit(&self, table: &Table) -> Result<Table> {
        self.run_selected(&CallingThread, &[table], 1, "unsplit", |_| {
            let sel = self.predicate.evaluate(table);
            std::iter::once(sel.map(|sel| (0, Cow::Owned(sel))))
        })
    }

    /// Execute the post-filter part of the query on a precomputed
    /// selection vector of **ascending global row ids**, preserving the
    /// base table's morsel decomposition: morsel `m` processes exactly
    /// the slice of `sel` falling inside its row window, and partials
    /// merge in morsel order, as in [`Query::run_parts`]. The fan-out is
    /// staged `"replay"` so traces distinguish cache-subsumption replays
    /// from base-table scans.
    ///
    /// The payoff is bit-exactness: if `sel` is what the predicate
    /// selects on `table`, the output is bit-identical to a direct run —
    /// per-morsel float accumulation sees the same values in the same
    /// order, and empty slices merge as exact no-ops. The semantic
    /// result cache leans on this to answer a contained range query from
    /// a cached superset without perturbing a single ulp.
    ///
    /// A `sel` that is not strictly ascending, or names a row id at or
    /// past the table's end, is a [`StorageError::InvalidQuery`].
    pub fn replay_selection<D: MorselDispatch>(
        &self,
        table: &Table,
        sel: &[u32],
        dispatch: &D,
    ) -> Result<Table> {
        let n = table.num_rows();
        if sel.windows(2).any(|w| w[0] >= w[1]) || sel.last().is_some_and(|&r| r as usize >= n) {
            return Err(StorageError::InvalidQuery(format!(
                "a replayed selection must be strictly ascending row ids below {n}"
            )));
        }
        let n_morsels = morsel_count(n);
        // `sel` is ascending, so each morsel's share is one contiguous
        // slice; cut at the same row offsets a direct run scans at.
        let rows_per_morsel = morsel_rows_for(n);
        let bounds: Vec<usize> = (0..=n_morsels)
            .map(|m| sel.partition_point(|&row| (row as usize) < m * rows_per_morsel))
            .collect();
        self.run_selected(dispatch, &[table], n_morsels, "replay", |m| {
            std::iter::once(Ok((0, Cow::Borrowed(&sel[bounds[m]..bounds[m + 1]]))))
        })
    }

    /// The post-filter pipeline every entry point shares. `selected(m)`
    /// yields morsel `m`'s fragments in row order — the part each lives
    /// in and the part-local rows the predicate selected there
    /// (evaluated lazily for direct runs, a precomputed slice for
    /// replays).
    ///
    /// A scan gathers each fragment's rows from the projected columns
    /// and concatenates morsels in order. An aggregate keeps one
    /// [`WorkerAggState`] per participant (the group-key interner
    /// amortizes across the morsels it claims), feeds it a morsel's fragments
    /// to get one [`MorselAggBatch`], and absorbs the batches into the
    /// final state **in morsel order** — a batch's content depends only
    /// on its morsel's rows, never on the participant that ran it or the
    /// parts they came from, so the result is bit-identical across
    /// dispatchers, worker counts, claim schedules and partitions.
    fn run_selected<'s, D: MorselDispatch, I>(
        &self,
        dispatch: &D,
        parts: &[&Table],
        n_morsels: usize,
        stage: &'static str,
        selected: impl Fn(usize) -> I + Sync,
    ) -> Result<Table>
    where
        I: Iterator<Item = Result<(usize, Cow<'s, [u32]>)>>,
    {
        let first = *parts
            .first()
            .ok_or_else(|| StorageError::Internal("a query needs at least one part".into()))?;
        let merged = if self.aggregates.is_empty() {
            // Validate the projection before any predicate runs.
            self.check_projection(first)?;
            let (pieces, _) = dispatch.run(
                n_morsels,
                stage,
                || (),
                |_, _, m| {
                    let mut piece: Option<Table> = None;
                    for fragment in selected(m) {
                        let (p, sel) = fragment?;
                        let rows = self.scan_rows(parts[p], &sel)?;
                        match &mut piece {
                            None => piece = Some(rows),
                            Some(piece) => piece.absorb(rows)?,
                        }
                    }
                    Ok(piece.expect("every morsel has a fragment"))
                },
            )?;
            dispatch.merge(0, || {
                let mut iter = pieces.into_iter();
                let mut out = iter.next().expect("at least one morsel");
                for piece in iter {
                    out.absorb(piece)?;
                }
                Ok(out)
            })?
        } else {
            let (group_by, aggs) = (&self.group_by, &self.aggregates);
            // Resolved once per part, consulted only after a fragment's
            // selection exists: within a morsel a predicate error wins
            // over an aggregate-validation error.
            let cols: Result<Vec<AggColumns>> = parts
                .iter()
                .map(|part| AggColumns::resolve(part, group_by, aggs))
                .collect();
            let (batches, workers) =
                dispatch.run(n_morsels, stage, WorkerAggState::default, |worker, w, m| {
                    worker.begin();
                    for fragment in selected(m) {
                        let (p, sel) = fragment?;
                        let cols = cols.as_ref().map_err(StorageError::clone)?;
                        worker.feed(&cols[p], &sel);
                    }
                    Ok((w, worker.end()))
                })?;
            let merged_states = (0..workers.len())
                .filter(|w| batches.iter().any(|(ran_by, _)| ran_by == w))
                .count();
            dispatch.merge(merged_states, || {
                let mut acc = GroupedAggState::new(first.schema(), group_by, aggs)?;
                for (w, batch) in &batches {
                    acc.absorb_batch(&workers[*w], batch);
                }
                acc.finish()
            })?
        };
        self.apply_order_limit(merged)
    }

    /// Fail unless every projected column exists in `table`. The
    /// pipeline calls this before the predicate runs, so a bad projection
    /// wins over a bad predicate whichever dispatcher runs the morsels.
    pub fn check_projection(&self, table: &Table) -> Result<()> {
        let names: Vec<&str> = self.projection.iter().map(String::as_str).collect();
        table.schema().project(&names).map(drop)
    }

    /// The scan output for the rows of `sel`: the projected columns (all
    /// columns when the projection is empty), gathered at those rows only.
    fn scan_rows(&self, table: &Table, sel: &[u32]) -> Result<Table> {
        if self.projection.is_empty() {
            Ok(table.gather(sel))
        } else {
            let names: Vec<&str> = self.projection.iter().map(String::as_str).collect();
            table.gather_projected(&names, sel)
        }
    }

    /// Apply the query's ORDER BY and LIMIT clauses to an already
    /// filtered/aggregated result: the pipeline sorts only after merging.
    /// The output is the first `LIMIT` rows of the stable sort on the
    /// ORDER BY column (floats by `total_cmp`, `Desc` the ascending
    /// order reversed), but under a limit below the row count only that
    /// many rows are ordered and gathered.
    pub fn apply_order_limit(&self, result: Table) -> Result<Table> {
        let n = result.num_rows();
        let k = self.limit.map_or(n, |limit| limit.min(n));
        match &self.order_by {
            Some((col, order)) => {
                let sel = order_rows(result.column(col)?, *order, k);
                Ok(result.gather(&sel))
            }
            None if k < n => {
                let sel: Vec<u32> = (0..k as u32).collect();
                Ok(result.gather(&sel))
            }
            None => Ok(result),
        }
    }
}

/// The pieces of global row window `rows` that live in each of `parts`,
/// in row order, as `(part index, part-local row window)`. An empty
/// window (the one morsel of an empty table) still yields part 0, so
/// validation runs and every partition surfaces identical errors.
fn fragments<'p>(
    parts: &'p [&'p Table],
    rows: Range<usize>,
) -> impl Iterator<Item = (usize, Range<usize>)> + 'p {
    let mut start = 0;
    parts.iter().enumerate().filter_map(move |(p, part)| {
        let end = start + part.num_rows();
        let (a, b) = (rows.start.max(start), rows.end.min(end));
        let fragment = (a < b || (rows.is_empty() && p == 0)).then(|| (p, a - start..b - start));
        start = end;
        fragment
    })
}

/// A hashable group key: strings are stored as-is, ints directly, floats
/// by their bit pattern (exact-match grouping, like SQL).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
enum KeyPart {
    Int(i64),
    Bits(u64),
    Str(String),
}

impl KeyPart {
    fn to_value(&self) -> Value {
        match self {
            KeyPart::Int(v) => Value::Int(*v),
            KeyPart::Bits(b) => Value::Float(f64::from_bits(*b)),
            KeyPart::Str(s) => Value::Str(s.clone()),
        }
    }
}

fn key_part(col: &Column, row: usize) -> KeyPart {
    match col {
        Column::Int64(v) => KeyPart::Int(v[row]),
        Column::Float64(v) => KeyPart::Bits(v[row].to_bits()),
        Column::Utf8(v) => KeyPart::Str(v[row].clone()),
    }
}

/// SplitMix64 finalizer: a fast, well-mixed 64-bit hash step.
#[inline]
fn mix64(mut x: u64) -> u64 {
    x ^= x >> 30;
    x = x.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// FNV-1a over the bytes of a string cell.
#[inline]
fn hash_str(s: &str) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in s.as_bytes() {
        h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
    }
    h
}

#[inline]
fn hash_combine(h: u64, cell: u64) -> u64 {
    mix64(h ^ cell.wrapping_mul(0x9e37_79b9_7f4a_7c15))
}

/// Hash the group key of `row` directly from the columns — no `KeyPart`
/// allocation. Must agree with [`hash_key`] on the interned form.
#[inline]
fn hash_row(cols: &[&Column], row: usize) -> u64 {
    let mut h = 0u64;
    for col in cols {
        let cell = match col {
            Column::Int64(v) => v[row] as u64,
            Column::Float64(v) => v[row].to_bits(),
            Column::Utf8(v) => hash_str(&v[row]),
        };
        h = hash_combine(h, cell);
    }
    h
}

/// Hash an interned key; agrees with [`hash_row`] by construction.
#[inline]
fn hash_key(key: &[KeyPart]) -> u64 {
    let mut h = 0u64;
    for part in key {
        let cell = match part {
            KeyPart::Int(v) => *v as u64,
            KeyPart::Bits(b) => *b,
            KeyPart::Str(s) => hash_str(s),
        };
        h = hash_combine(h, cell);
    }
    h
}

/// Cell-by-cell equality between an interned key and a table row,
/// without materializing the row's key.
#[inline]
fn key_matches_row(key: &[KeyPart], cols: &[&Column], row: usize) -> bool {
    key.iter().zip(cols).all(|(part, col)| match (part, col) {
        (KeyPart::Int(k), Column::Int64(v)) => *k == v[row],
        (KeyPart::Bits(k), Column::Float64(v)) => *k == v[row].to_bits(),
        (KeyPart::Str(k), Column::Utf8(v)) => *k == v[row],
        _ => false,
    })
}

/// The bucket map's hasher: its keys are [`hash_row`]/[`hash_key`]
/// outputs, already mixed by [`mix64`], so they pass through as they
/// are instead of being hashed a second time. A seeded second hash
/// would not make the map resistant to crafted keys either: keys that
/// collide in the unseeded `hash_row` share a bucket under any hasher.
#[derive(Debug, Default)]
struct PassThrough(u64);

impl Hasher for PassThrough {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, _: &[u8]) {
        unreachable!("the group bucket map is keyed by u64 hashes only")
    }

    fn write_u64(&mut self, h: u64) {
        self.0 = h;
    }
}

/// A group-key interner: maps group keys to dense slot ids, assigned in
/// first-appearance order (which is what fixes group output order).
/// Rows are hashed straight off the column storage, so the per-row hot
/// path allocates a `Vec<KeyPart>` only the first time a group appears.
/// The full-hash bucket map makes slot assignment independent of the
/// map's hasher: bucket contents are ordered by insertion, and
/// collisions fall back to exact key comparison.
#[derive(Debug, Default)]
struct GroupIndex {
    buckets: HashMap<u64, Vec<u32>, BuildHasherDefault<PassThrough>>,
    keys: Vec<Vec<KeyPart>>,
}

impl GroupIndex {
    /// Slot of the group key at `row`, interning it on first sight.
    /// Returns `(slot, is_new)`.
    #[inline]
    fn slot_of_row(&mut self, cols: &[&Column], row: usize) -> (usize, bool) {
        let h = hash_row(cols, row);
        let bucket = self.buckets.entry(h).or_default();
        for &slot in bucket.iter() {
            if key_matches_row(&self.keys[slot as usize], cols, row) {
                return (slot as usize, false);
            }
        }
        let slot = self.keys.len();
        self.keys
            .push(cols.iter().map(|c| key_part(c, row)).collect());
        bucket.push(slot as u32);
        (slot, true)
    }

    /// Slot of an already-materialized key (the merge path).
    fn slot_of_key(&mut self, key: &[KeyPart]) -> (usize, bool) {
        let h = hash_key(key);
        let bucket = self.buckets.entry(h).or_default();
        for &slot in bucket.iter() {
            if self.keys[slot as usize].as_slice() == key {
                return (slot as usize, false);
            }
        }
        let slot = self.keys.len();
        self.keys.push(key.to_vec());
        bucket.push(slot as u32);
        (slot, true)
    }
}

/// The columns one grouped aggregation reads from one table — or from
/// one *part* of a table stored as several row-range tables. Everything
/// table-dependent about an aggregation lives here, so the state that
/// consumes it ([`WorkerAggState`]) borrows no table and can be fed rows
/// of several parts in turn.
#[derive(Debug)]
struct AggColumns<'t> {
    group_cols: Vec<&'t Column>,
    /// Each aggregate's function and the values it folds.
    measures: Vec<(AggFunc, Measure<'t>)>,
}

impl<'t> AggColumns<'t> {
    /// Resolve and validate the referenced columns: every group and
    /// aggregate column must exist, and every aggregate but COUNT needs
    /// a numeric input.
    fn resolve(table: &'t Table, group_by: &[String], aggs: &[Aggregate]) -> Result<Self> {
        let group_cols = group_by
            .iter()
            .map(|n| table.column(n))
            .collect::<Result<_>>()?;
        let measures = aggs
            .iter()
            .map(|a| Ok((a.func, Measure::resolve(table, a.func, &a.column)?)))
            .collect::<Result<_>>()?;
        Ok(AggColumns {
            group_cols,
            measures,
        })
    }
}

/// Final state of a grouped aggregation: the group keys in
/// first-appearance order and one accumulator row per group, fed one
/// per-morsel partial at a time ([`GroupedAggState::absorb_batch`]).
///
/// Group output order is first-appearance order over the absorb
/// sequence, so absorbing per-morsel batches in morsel order reproduces
/// row order exactly.
#[derive(Debug)]
struct GroupedAggState<'q> {
    group_by: &'q [String],
    aggs: &'q [Aggregate],
    key_types: Vec<DataType>,
    index: GroupIndex,
    accs: Vec<Accumulator>,
}

impl<'q> GroupedAggState<'q> {
    /// An empty state for a query over tables of `schema`, which
    /// supplies the group columns' types. Aggregate inputs are validated
    /// where they are read, by [`AggColumns::resolve`].
    fn new(schema: &Schema, group_by: &'q [String], aggs: &'q [Aggregate]) -> Result<Self> {
        let key_types = group_by
            .iter()
            .map(|n| schema.data_type(n))
            .collect::<Result<_>>()?;
        Ok(GroupedAggState {
            group_by,
            aggs,
            key_types,
            index: GroupIndex::default(),
            accs: Vec::new(),
        })
    }

    /// Merge one morsel's partial batch, resolving the batch's
    /// worker-local slot ids through the worker state that produced it.
    /// Groups first seen in this batch append in the batch's first-touch
    /// order and every accumulator merges exactly once, so absorbing
    /// batches in morsel order performs one fixed `Accumulator::merge`
    /// sequence — bit-identical results under every claim schedule.
    fn absorb_batch(&mut self, worker: &WorkerAggState, batch: &MorselAggBatch) {
        let n_aggs = self.aggs.len();
        for (local, &wslot) in batch.slots.iter().enumerate() {
            let key = &worker.index.keys[wslot as usize];
            let (slot, is_new) = self.index.slot_of_key(key);
            if is_new {
                self.accs
                    .resize(self.accs.len() + n_aggs, Accumulator::new());
            }
            for i in 0..n_aggs {
                self.accs[slot * n_aggs + i].merge(&batch.accs[local * n_aggs + i]);
            }
        }
    }

    /// Assemble the result table: group columns then aggregate columns.
    /// Global aggregation with no groups always yields exactly one row.
    fn finish(mut self) -> Result<Table> {
        let n_aggs = self.aggs.len();
        if self.group_by.is_empty() && self.index.keys.is_empty() {
            self.index.keys.push(Vec::new());
            self.accs.resize(n_aggs, Accumulator::new());
        }

        let mut fields = Vec::new();
        for (name, data_type) in self.group_by.iter().zip(&self.key_types) {
            fields.push(Field::new(name.clone(), *data_type));
        }
        for a in self.aggs {
            fields.push(Field::new(a.result_name(), DataType::Float64));
        }
        let schema = Schema::new(fields)?;

        let mut columns: Vec<Column> = self.key_types.iter().map(|t| Column::empty(*t)).collect();
        for key in &self.index.keys {
            for (col, part) in columns.iter_mut().zip(key) {
                col.push(part.to_value())?;
            }
        }
        for (i, a) in self.aggs.iter().enumerate() {
            let vals: Vec<f64> = (0..self.index.keys.len())
                .map(|slot| self.accs[slot * n_aggs + i].finish(a.func))
                .collect();
            columns.push(Column::Float64(vals));
        }
        Table::new(schema, columns)
    }
}

/// One participant's aggregation state: a group-key interner that
/// lives for all the morsels the participant runs, plus epoch-stamped
/// scratch for building per-morsel partial batches without clearing
/// anything between morsels. It borrows no table: a morsel is
/// [`begin`](Self::begin) → [`feed`](Self::feed) once per part the
/// morsel's rows live in, in row order → [`end`](Self::end), which
/// yields the morsel's one [`MorselAggBatch`].
///
/// Splitting "which groups exist" (participant-lifetime, amortized
/// across the morsels it claims) from "this morsel's partial accumulators" is
/// what lets workers keep state without giving up determinism: a batch
/// depends only on the morsel's rows — never on which worker computed
/// it, what it saw before, or how many parts the rows were fed from —
/// so batches absorbed in morsel order produce bit-identical results
/// under every claim schedule and every partition of the rows.
#[derive(Debug, Default)]
struct WorkerAggState {
    index: GroupIndex,
    /// Per worker-slot epoch stamp: equals `epoch` iff the slot already
    /// has a batch-local accumulator row in the current morsel.
    slot_stamp: Vec<u32>,
    /// Batch-local row of the slot, valid when the stamp matches.
    slot_local: Vec<u32>,
    epoch: u32,
    /// The morsel in progress.
    batch: MorselAggBatch,
}

/// One morsel's partial aggregation: worker-slot ids in first-touch
/// order plus one accumulator row (`aggs.len()` accumulators) per
/// touched group. Resolved back to group keys by
/// [`GroupedAggState::absorb_batch`] via the worker state's interner.
#[derive(Debug, Default)]
struct MorselAggBatch {
    slots: Vec<u32>,
    accs: Vec<Accumulator>,
}

impl WorkerAggState {
    /// Start a morsel, discarding whatever an abandoned one left.
    fn begin(&mut self) {
        self.epoch += 1;
        self.batch.slots.clear();
        self.batch.accs.clear();
    }

    /// Fold the rows `sel` of the part `cols` was resolved on into the
    /// morsel in progress. Group interning persists across morsels;
    /// accumulators do not.
    fn feed(&mut self, cols: &AggColumns, sel: &[u32]) {
        let n_aggs = cols.measures.len();
        let MorselAggBatch { slots, accs } = &mut self.batch;
        for &row in sel {
            let row = row as usize;
            let (wslot, is_new) = self.index.slot_of_row(&cols.group_cols, row);
            if is_new {
                self.slot_stamp.push(0);
                self.slot_local.push(0);
            }
            let local = if self.slot_stamp[wslot] == self.epoch {
                self.slot_local[wslot] as usize
            } else {
                let local = slots.len();
                self.slot_stamp[wslot] = self.epoch;
                self.slot_local[wslot] = local as u32;
                slots.push(wslot as u32);
                accs.resize(accs.len() + n_aggs, Accumulator::new());
                local
            };
            for (i, &(func, m)) in cols.measures.iter().enumerate() {
                accs[local * n_aggs + i].fold(func, m.at(row));
            }
        }
    }

    /// Finish the morsel in progress and hand out its partial batch.
    fn end(&mut self) -> MorselAggBatch {
        std::mem::take(&mut self.batch)
    }
}

/// The first `k` row ids of the stable sort of `col` (floats by
/// `total_cmp`), whose `Desc` is the ascending order reversed. That order
/// is the total order on (value, row id) — a stable ascending sort
/// breaks ties by row id — reversed for `Desc`. For `k < len` the `k`
/// least ids under it are selected in linear time and only they are
/// sorted; being a total order, its first `k` are the same ids in the
/// same order whichever algorithm finds them.
fn order_rows(col: &Column, order: SortOrder, k: usize) -> Vec<u32> {
    let mut sel: Vec<u32> = (0..col.len() as u32).collect();
    match col {
        Column::Int64(v) => first_k(&mut sel, k, order, |a, b| v[a].cmp(&v[b])),
        Column::Float64(v) => first_k(&mut sel, k, order, |a, b| v[a].total_cmp(&v[b])),
        Column::Utf8(v) => first_k(&mut sel, k, order, |a, b| v[a].cmp(&v[b])),
    }
    sel
}

/// Reorder the row ids `sel` (ascending on entry) by `by_value`, stably,
/// reversed for `Desc`, and keep the first `k`.
fn first_k(
    sel: &mut Vec<u32>,
    k: usize,
    order: SortOrder,
    by_value: impl Fn(usize, usize) -> Ordering,
) {
    if k < sel.len() {
        let total = |a: &u32, b: &u32| {
            let asc = by_value(*a as usize, *b as usize).then(a.cmp(b));
            match order {
                SortOrder::Asc => asc,
                SortOrder::Desc => asc.reverse(),
            }
        };
        sel.select_nth_unstable_by(k, total);
        sel.truncate(k);
        sel.sort_unstable_by(total);
    } else {
        sel.sort_by(|a, b| by_value(*a as usize, *b as usize));
        if order == SortOrder::Desc {
            sel.reverse();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::predicate::CmpOp;

    fn sales() -> Table {
        Table::new(
            Schema::of(&[
                ("region", DataType::Utf8),
                ("product", DataType::Utf8),
                ("amount", DataType::Float64),
                ("qty", DataType::Int64),
            ]),
            vec![
                Column::from(vec!["east", "west", "east", "west", "east"]),
                Column::from(vec!["a", "a", "b", "b", "a"]),
                Column::from(vec![10.0, 20.0, 30.0, 40.0, 50.0]),
                Column::from(vec![1i64, 2, 3, 4, 5]),
            ],
        )
        .unwrap()
    }

    #[test]
    fn plain_filter_and_projection() {
        let t = sales();
        let r = Query::new()
            .filter(Predicate::eq("region", "east"))
            .select(&["product", "amount"])
            .run(&t)
            .unwrap();
        assert_eq!(r.num_rows(), 3);
        assert_eq!(r.schema().names(), vec!["product", "amount"]);
    }

    #[test]
    fn global_aggregate_without_groups() {
        let t = sales();
        let r = Query::new()
            .agg(AggFunc::Sum, "amount")
            .agg(AggFunc::Count, "amount")
            .run(&t)
            .unwrap();
        assert_eq!(r.num_rows(), 1);
        assert_eq!(r.column("sum(amount)").unwrap().as_f64().unwrap()[0], 150.0);
        assert_eq!(r.column("count(amount)").unwrap().as_f64().unwrap()[0], 5.0);
    }

    #[test]
    fn global_aggregate_on_empty_selection_yields_one_row() {
        let t = sales();
        let r = Query::new()
            .filter(Predicate::eq("region", "north"))
            .agg(AggFunc::Count, "qty")
            .run(&t)
            .unwrap();
        assert_eq!(r.num_rows(), 1);
        assert_eq!(r.column("count(qty)").unwrap().as_f64().unwrap()[0], 0.0);
    }

    #[test]
    fn group_by_single_column() {
        let t = sales();
        let r = Query::new()
            .group("region")
            .agg(AggFunc::Sum, "amount")
            .order("region", SortOrder::Asc)
            .run(&t)
            .unwrap();
        assert_eq!(r.num_rows(), 2);
        assert_eq!(r.column("region").unwrap().as_utf8().unwrap()[0], "east");
        assert_eq!(
            r.column("sum(amount)").unwrap().as_f64().unwrap(),
            &[90.0, 60.0]
        );
    }

    #[test]
    fn group_by_multiple_columns() {
        let t = sales();
        let r = Query::new()
            .group("region")
            .group("product")
            .agg(AggFunc::Count, "qty")
            .run(&t)
            .unwrap();
        assert_eq!(r.num_rows(), 4);
    }

    #[test]
    fn filter_then_group() {
        let t = sales();
        let r = Query::new()
            .filter(Predicate::cmp("qty", CmpOp::Ge, 4i64))
            .group("region")
            .agg(AggFunc::Avg, "amount")
            .order("avg(amount)", SortOrder::Desc)
            .run(&t)
            .unwrap();
        // qty>=4: (west,b,40), (east,a,50)
        assert_eq!(r.num_rows(), 2);
        assert_eq!(r.column("region").unwrap().as_utf8().unwrap()[0], "east");
        assert_eq!(
            r.column("avg(amount)").unwrap().as_f64().unwrap(),
            &[50.0, 40.0]
        );
    }

    #[test]
    fn order_and_limit() {
        let t = sales();
        let r = Query::new()
            .order("amount", SortOrder::Desc)
            .take(2)
            .run(&t)
            .unwrap();
        assert_eq!(r.num_rows(), 2);
        assert_eq!(r.column("amount").unwrap().as_f64().unwrap(), &[50.0, 40.0]);
    }

    #[test]
    fn sort_by_string_and_int() {
        let t = sales();
        let sort = |col, order| {
            let r = Query::new().order(col, order).apply_order_limit(t.clone());
            r.unwrap().column("qty").unwrap().as_i64().unwrap().to_vec()
        };
        // Stable: the three "a" rows keep their row order, then the "b"s.
        assert_eq!(sort("product", SortOrder::Asc), vec![1, 2, 5, 3, 4]);
        assert_eq!(sort("product", SortOrder::Desc), vec![4, 3, 5, 2, 1]);
        assert_eq!(sort("qty", SortOrder::Desc), vec![5, 4, 3, 2, 1]);
    }

    #[test]
    fn referenced_columns_deduplicate() {
        let q = Query::new()
            .filter(Predicate::range("amount", 0.0, 1.0))
            .group("region")
            .agg(AggFunc::Sum, "amount")
            .select(&["region"]);
        let cols = q.referenced_columns();
        assert_eq!(cols, vec!["amount", "region"]);
    }

    #[test]
    fn aggregate_on_string_column_fails_unless_count() {
        let t = sales();
        assert!(Query::new().agg(AggFunc::Sum, "region").run(&t).is_err());
        let r = Query::new().agg(AggFunc::Count, "region").run(&t).unwrap();
        assert_eq!(r.column("count(region)").unwrap().as_f64().unwrap()[0], 5.0);
    }

    #[test]
    fn float_group_keys_group_exact_values() {
        let t = Table::new(
            Schema::of(&[("k", DataType::Float64), ("v", DataType::Int64)]),
            vec![
                Column::from(vec![1.5f64, 1.5, 2.5]),
                Column::from(vec![1i64, 2, 3]),
            ],
        )
        .unwrap();
        let r = Query::new()
            .group("k")
            .agg(AggFunc::Sum, "v")
            .order("k", SortOrder::Asc)
            .run(&t)
            .unwrap();
        assert_eq!(r.num_rows(), 2);
        assert_eq!(r.column("sum(v)").unwrap().as_f64().unwrap(), &[3.0, 3.0]);
    }

    #[test]
    fn morsel_geometry() {
        assert_eq!(morsel_count(0), 1);
        assert_eq!(morsel_count(1), 1);
        assert_eq!(morsel_count(MORSEL_ROWS), 1);
        assert_eq!(morsel_count(MORSEL_ROWS + 1), 2);
        assert_eq!(morsel_range(0, 10), 0..10);
        assert_eq!(
            morsel_range(1, MORSEL_ROWS + 5),
            MORSEL_ROWS..MORSEL_ROWS + 5
        );
    }

    #[test]
    fn adaptive_morsel_sizing() {
        // Fixed granularity up to MAX_MORSELS units…
        assert_eq!(morsel_rows_for(0), MORSEL_ROWS);
        assert_eq!(morsel_rows_for(MORSEL_ROWS * MAX_MORSELS), MORSEL_ROWS);
        assert_eq!(morsel_count(MORSEL_ROWS * MAX_MORSELS), MAX_MORSELS);
        // …then morsels coarsen instead of multiplying.
        assert_eq!(
            morsel_rows_for(MORSEL_ROWS * MAX_MORSELS + 1),
            2 * MORSEL_ROWS
        );
        for n in [
            MORSEL_ROWS * MAX_MORSELS + 1,
            3 * MORSEL_ROWS * MAX_MORSELS + 17,
            10 * MORSEL_ROWS * MAX_MORSELS,
            100 * MORSEL_ROWS * MAX_MORSELS + 99,
        ] {
            let count = morsel_count(n);
            assert!(count <= MAX_MORSELS, "{n} rows → {count} morsels");
            assert_eq!(morsel_rows_for(n) % MORSEL_ROWS, 0, "{n}");
            // Windows tile the table exactly.
            let mut covered = 0;
            for m in 0..count {
                let r = morsel_range(m, n);
                assert_eq!(r.start, covered, "{n} morsel {m}");
                assert!(r.end > r.start, "{n} morsel {m} empty");
                covered = r.end;
            }
            assert_eq!(covered, n);
        }
    }

    #[test]
    fn fragments_tile_a_window_across_parts() {
        let t = sales();
        let a = t.gather(&[0, 1, 2]);
        let none = t.gather(&[]);
        let b = t.gather(&[3, 4, 0, 1]);
        let parts = [&a, &none, &b];
        let of = |rows| fragments(&parts, rows).collect::<Vec<_>>();
        assert_eq!(of(0..7), [(0, 0..3), (2, 0..4)]);
        assert_eq!(of(1..4), [(0, 1..3), (2, 0..1)]);
        assert_eq!(of(3..5), [(2, 0..2)]);
        // The one morsel of an empty table still visits a part.
        assert_eq!(
            fragments(&[&none, &none], 0..0).collect::<Vec<_>>(),
            [(0, 0..0)]
        );
    }

    /// Worker batches absorbed in morsel order give the same bits
    /// whichever worker state computed which morsel (one worker for all,
    /// and two deliberately skewed two-worker splits), and feeding a
    /// morsel in two pieces is the same morsel.
    #[test]
    fn worker_batches_absorb_independently_of_assignment() {
        let t = sales();
        let group_by = vec!["region".to_string()];
        let aggs = vec![
            Aggregate::new(AggFunc::Sum, "amount"),
            Aggregate::new(AggFunc::Avg, "qty"),
            Aggregate::new(AggFunc::Count, "product"),
        ];
        let morsels: Vec<Vec<u32>> = vec![vec![0, 1], vec![2, 3], vec![4], vec![]];
        let cols = AggColumns::resolve(&t, &group_by, &aggs).unwrap();

        let results: Vec<Table> = [vec![0, 0, 0, 0], vec![0, 1, 1, 0], vec![1, 0, 1, 0]]
            .iter()
            .map(|assignment| {
                let mut workers = [WorkerAggState::default(), WorkerAggState::default()];
                let batches: Vec<(usize, MorselAggBatch)> = morsels
                    .iter()
                    .zip(assignment)
                    .map(|(sel, &w)| {
                        let (head, tail) = sel.split_at(sel.len() / 2);
                        workers[w].begin();
                        workers[w].feed(&cols, head);
                        workers[w].feed(&cols, tail);
                        (w, workers[w].end())
                    })
                    .collect();
                let mut acc = GroupedAggState::new(t.schema(), &group_by, &aggs).unwrap();
                for (w, batch) in &batches {
                    acc.absorb_batch(&workers[*w], batch);
                }
                acc.finish().unwrap()
            })
            .collect();
        let f64s = |t: &Table, name: &str| t.column(name).unwrap().as_f64().unwrap().to_vec();
        let expected = &results[0];
        assert_eq!(
            expected.column("region").unwrap().as_utf8().unwrap(),
            ["east", "west"]
        );
        assert_eq!(f64s(expected, "sum(amount)"), [90.0, 60.0]);
        assert_eq!(f64s(expected, "avg(qty)"), [3.0, 3.0]);
        assert_eq!(f64s(expected, "count(product)"), [3.0, 2.0]);
        for got in &results[1..] {
            assert_eq!(got.schema(), expected.schema());
            assert_eq!(
                got.column("region").unwrap(),
                expected.column("region").unwrap()
            );
            for name in ["sum(amount)", "avg(qty)", "count(product)"] {
                let bits = |t| {
                    f64s(t, name)
                        .into_iter()
                        .map(f64::to_bits)
                        .collect::<Vec<_>>()
                };
                assert_eq!(bits(got), bits(expected), "{name}");
            }
        }
    }
}
