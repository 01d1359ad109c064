//! The row store of one registered table.
//!
//! A [`ShardedTable`] *is* the table: it partitions the rows into
//! contiguous ranges ("shards"), each owning its slice of the rows plus
//! private adaptive-index state, and nothing else in the engine holds a
//! second copy. An unsharded table is the one-shard case of the same
//! type — [`ShardedTable::from_arc`] then keeps the registered
//! `Arc<Table>` itself, so registering without sharding copies nothing.
//! Shard boundaries carry no meaning for execution: the executor lays
//! its morsel grid over the shards (`explore_exec::run_query_parts`),
//! not the other way round, so this crate imports none of its morsel
//! math.
//! Whole-table consumers (samples, synopses, SeeDB, facets, cubes) read
//! [`ShardSnapshot::to_table`]: shard 0's `Arc` when there is one shard,
//! a concatenation of one consistent cut otherwise.
//!
//! Each shard of a multi-shard table owns a **cache-epoch scope**: cache
//! entries for shard `i` of table `t` live under the scoped table name
//! [`scoped_name`]`(t, i)`, so a mutation to one shard bumps only that
//! shard's epoch and the other shards' entries stay live. That epoch
//! locality is the point of sharding a cache-fronted engine.
//!
//! **Locking.** Every shard carries its own `RwLock` over its rows, so
//! queries never block behind a mutation for longer than an `Arc`
//! clone. The two multi-shard operations acquire their guards in
//! ascending shard order and hold them together — ordered two-phase
//! locking, so they serialize against each other without deadlock:
//!
//! * [`ShardedTable::snapshot`] (read guards over every shard) gives a
//!   query a consistent cut of the whole shard set;
//! * [`ShardedTable::update_where`] (write guards over the touched
//!   shards) applies a multi-shard update atomically with respect to
//!   snapshots — no snapshot observes half of one update.
//!
//! Single-shard mutations ([`ShardedTable::push_row`],
//! [`ShardedTable::append_rows`]) lock only the last shard.
//!
//! A shard's adaptive indexes live *outside* its row lock, as
//! `Arc<ConcurrentCracker>`s that reorganize under their own locks: a
//! cracking lookup never blocks a snapshot. Each mutation bumps the
//! shard's generation under the row lock and then drops the shard's
//! indexes; an index built from rows a mutation has since replaced
//! answers the one call that built it and is never installed.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use explore_cracking::ConcurrentCracker;
use explore_fault::CancelToken;
use explore_storage::{Result, StorageError, Table, Value, MORSEL_ROWS};
use parking_lot::{Mutex, RwLock, RwLockReadGuard, RwLockWriteGuard};

use crate::policy::{ShardConfig, ShardPolicy};

/// The cache-epoch scope name of shard `shard` of table `table`. The
/// `#` separator cannot appear in a registered table name used through
/// the engine's public API, so scopes never collide with real tables.
pub fn scoped_name(table: &str, shard: usize) -> String {
    format!("{table}#s{shard}")
}

/// One contiguous row-range shard: the table's rows
/// `[start, start + rows)` behind the shard's own reader-writer lock,
/// plus this shard's private adaptive indexes beside it.
#[derive(Debug)]
struct Shard {
    /// Global row id of this shard's first row (fixed at build).
    start: usize,
    /// The rows. `Arc`-shared so a snapshot is one refcount bump;
    /// mutations go through `Arc::make_mut` (in place while unshared,
    /// copy-on-write while a snapshot is live), so a reader's snapshot
    /// is immutable by construction — torn reads cannot happen.
    table: RwLock<Arc<Table>>,
    /// Bumped under the row write lock after every data change.
    /// [`Shard::cracker`] re-checks it before installing a freshly built
    /// index, so one built from rows that a mutation has since replaced
    /// is served once and never installed.
    generation: AtomicU64,
    /// Per-column adaptive range indexes, converging independently per
    /// shard. Crackers reorganize under their own internal locks; this
    /// map only guards presence.
    crackers: Mutex<HashMap<String, Arc<ConcurrentCracker>>>,
}

impl Shard {
    fn new(start: usize, table: Arc<Table>) -> Shard {
        Shard {
            start,
            table: RwLock::new(table),
            generation: AtomicU64::new(0),
            crackers: Mutex::new(HashMap::new()),
        }
    }

    /// Apply one fallible edit to the rows; a successful one bumps the
    /// generation and drops the shard's indexes, which described the
    /// old rows.
    fn edit(&self, f: impl FnOnce(&mut Table) -> Result<()>) -> Result<()> {
        {
            let mut rows = self.table.write();
            f(Arc::make_mut(&mut rows))?;
            self.generation.fetch_add(1, Ordering::SeqCst);
        }
        self.crackers.lock().clear();
        Ok(())
    }

    /// This shard's cracker for `column` (which must be Int64), built on
    /// first use. A build races mutations benignly: the generation is
    /// read before the rows, and a cracker whose generation went stale
    /// by install time serves this one call but is never installed — the
    /// next call rebuilds from current rows.
    fn cracker(&self, column: &str) -> Result<Arc<ConcurrentCracker>> {
        if let Some(c) = self.crackers.lock().get(column) {
            return Ok(Arc::clone(c));
        }
        let built_at = self.generation.load(Ordering::SeqCst);
        let values = {
            let rows = self.table.read();
            let col = rows.column(column)?;
            let values = col.as_i64().ok_or_else(|| StorageError::TypeMismatch {
                column: column.to_owned(),
                expected: "Int64",
                found: col.data_type().name(),
            })?;
            values.to_vec()
        };
        let cracker = Arc::new(ConcurrentCracker::new(values));
        let mut map = self.crackers.lock();
        if self.generation.load(Ordering::SeqCst) == built_at {
            let entry = map
                .entry(column.to_owned())
                .or_insert_with(|| Arc::clone(&cracker));
            return Ok(Arc::clone(entry));
        }
        Ok(cracker)
    }
}

/// Point-in-time statistics of one shard, via
/// [`ShardedTable::stats`] / `ExploreDb::shard_stats`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardStats {
    /// Shard index within the table.
    pub shard: usize,
    /// Global row id of the shard's first row.
    pub start: usize,
    /// Rows currently held by the shard.
    pub rows: usize,
    /// The shard's cache epoch (its scoped name's epoch counter).
    pub epoch: u64,
    /// Columns with cracker state in this shard.
    pub crackers: usize,
    /// Total cracker pieces across this shard's columns.
    pub pieces: usize,
}

/// A consistent cut of a sharded table: every shard's table `Arc` plus
/// its global start row, captured while holding all shard read guards
/// (ascending order). Queries fan out over the snapshot lock-free; a
/// concurrent mutation copy-on-writes new shard tables and can never
/// reach into these.
#[derive(Debug, Clone)]
pub struct ShardSnapshot {
    name: String,
    tables: Vec<Arc<Table>>,
    starts: Vec<usize>,
}

impl ShardSnapshot {
    /// The base table's registered name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of shards (≥ 1).
    pub fn shard_count(&self) -> usize {
        self.tables.len()
    }

    /// Total rows across all shards.
    pub fn num_rows(&self) -> usize {
        self.tables.iter().map(|t| t.num_rows()).sum()
    }

    /// Shard `i`'s table, as of the snapshot.
    pub fn table(&self, i: usize) -> &Table {
        &self.tables[i]
    }

    /// Global row range `[start, end)` of shard `i`, as of the snapshot.
    pub fn range(&self, i: usize) -> std::ops::Range<usize> {
        self.starts[i]..self.starts[i] + self.tables[i].num_rows()
    }

    /// The whole table as of the snapshot: the one shard's own `Arc`
    /// (no copy), or the shards' rows concatenated in shard — global
    /// row — order.
    pub fn to_table(&self) -> Arc<Table> {
        let (first, rest) = self.tables.split_first().expect("at least one shard");
        if rest.is_empty() {
            return Arc::clone(first);
        }
        let mut whole = Table::clone(first);
        for t in rest {
            whole
                .append(t)
                .expect("shards of one table share its schema");
        }
        Arc::new(whole)
    }
}

/// A table partitioned into independent contiguous row-range shards.
#[derive(Debug)]
pub struct ShardedTable {
    name: String,
    shards: Vec<Shard>,
}

impl ShardedTable {
    /// Split a copy of `table` (registered as `name`) into shards per
    /// `config`. The split is contiguous and near-balanced: shard `i` of
    /// `k` ends at `(i+1)*n/k`, rounded to the nearest multiple of
    /// [`MORSEL_ROWS`] when every shard spans at least that many rows.
    /// No answer depends on where the boundaries fall — any contiguous
    /// partition is bit-identical, and a morsel that crosses one costs
    /// an aggregate two range evaluations (see `explore_shard::fanout`).
    /// The rounding is layout policy: it decides how many rows the last
    /// shard holds, which is what a write copies while a reader holds a
    /// snapshot (`ingest_under_read`: 53 392 rows rounded, 83 334 not).
    pub fn build(name: impl Into<String>, table: &Table, config: &ShardConfig) -> ShardedTable {
        let n = table.num_rows();
        let k = config.effective_count(n);
        let boundary = |i: usize| {
            if i == 0 || i == k || n / k < MORSEL_ROWS {
                return i * n / k;
            }
            // Interior boundaries spaced ≥ one block apart stay strictly
            // increasing after rounding.
            ((i * n + k * MORSEL_ROWS / 2) / (k * MORSEL_ROWS)) * MORSEL_ROWS
        };
        let shards = (0..k)
            .map(|i| {
                let (start, end) = (boundary(i), boundary(i + 1));
                let sel: Vec<u32> = (start as u32..end as u32).collect();
                Shard::new(start, Arc::new(table.gather(&sel)))
            })
            .collect();
        ShardedTable {
            name: name.into(),
            shards,
        }
    }

    /// Take ownership of `table` (registered as `name`) laid out per
    /// `policy`. Where the policy yields one shard — `Off`, or a table
    /// below [`ShardConfig::min_rows_per_shard`] — that shard holds
    /// `table` itself, so nothing is copied; otherwise the rows are
    /// split as [`ShardedTable::build`] does and `table` is released.
    pub fn from_arc(
        name: impl Into<String>,
        table: Arc<Table>,
        policy: &ShardPolicy,
    ) -> ShardedTable {
        match policy.config() {
            Some(config) if config.effective_count(table.num_rows()) > 1 => {
                ShardedTable::build(name, &table, config)
            }
            _ => ShardedTable {
                name: name.into(),
                shards: vec![Shard::new(0, table)],
            },
        }
    }

    /// The base table's registered name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of shards (≥ 1).
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Total rows across all shards (a consistent count: taken from a
    /// full snapshot).
    pub fn num_rows(&self) -> usize {
        self.snapshot().num_rows()
    }

    /// A consistent cut of every shard: all shard read guards are
    /// acquired in ascending order and held together while the table
    /// `Arc`s are cloned, so the snapshot observes each multi-shard
    /// update entirely or not at all (update guards are acquired in the
    /// same order — ordered 2PL).
    pub fn snapshot(&self) -> ShardSnapshot {
        let guards: Vec<RwLockReadGuard<'_, Arc<Table>>> =
            self.shards.iter().map(|s| s.table.read()).collect();
        ShardSnapshot {
            name: self.name.clone(),
            tables: guards.iter().map(|g| Arc::clone(g)).collect(),
            starts: self.shards.iter().map(|s| s.start).collect(),
        }
    }

    /// Append one row to the table; routes to the last shard (contiguous
    /// ranges make it the only shard that can grow without reshuffling
    /// global row ids). Locks only that shard. Returns the mutated
    /// shard's index.
    pub fn push_row(&self, values: Vec<Value>) -> Result<usize> {
        let idx = self.shards.len() - 1;
        self.shards[idx].edit(|rows| rows.push_row(values))?;
        Ok(idx)
    }

    /// Append all rows of `rows` to the last shard. Returns the mutated
    /// shard's index.
    pub fn append_rows(&self, rows: &Table) -> Result<usize> {
        let idx = self.shards.len() - 1;
        self.shards[idx].edit(|last| last.append(rows))?;
        Ok(idx)
    }

    /// Apply `column = value` to the global row ids in `sel` (ascending,
    /// as produced by predicate evaluation over a snapshot of this
    /// table), routing each row to its owning shard. Write guards over
    /// exactly the touched shards are acquired in ascending order and
    /// held across all writes, so snapshots never observe a
    /// half-applied update. Returns the indexes of the shards that
    /// changed, ascending. A selection that is not ascending, or names a
    /// row past the table's end, is a caller bug and is refused before
    /// any write; the caller validates the column and value type, which
    /// `set_cell` re-checks on the first cell.
    pub fn update_where(&self, sel: &[u32], column: &str, value: &Value) -> Result<Vec<usize>> {
        // Phase 1: partition the selection into per-shard local row ids
        // with one forward cursor over the (immutable) shard starts.
        // Shard i < last covers [starts[i], starts[i+1]).
        let mut buckets: Vec<Vec<usize>> = vec![Vec::new(); self.shards.len()];
        let mut owner = 0;
        for &row in sel {
            let row = row as usize;
            if row < self.shards[owner].start {
                return Err(StorageError::Internal(
                    "update selection not ascending across shards".into(),
                ));
            }
            while self.shards.get(owner + 1).is_some_and(|s| s.start <= row) {
                owner += 1;
            }
            buckets[owner].push(row - self.shards[owner].start);
        }
        // Phase 2: lock the touched shards (ascending), check the
        // selection against their current ends, then write.
        let mut guards: Vec<(usize, RwLockWriteGuard<'_, Arc<Table>>)> = buckets
            .iter()
            .enumerate()
            .filter(|(_, b)| !b.is_empty())
            .map(|(i, _)| (i, self.shards[i].table.write()))
            .collect();
        for (idx, rows) in &guards {
            if buckets[*idx].iter().any(|&local| local >= rows.num_rows()) {
                return Err(StorageError::Internal(format!(
                    "update selection names a row past the end of shard {idx}"
                )));
            }
        }
        for (idx, rows) in &mut guards {
            let rows = Arc::make_mut(&mut **rows);
            for &local in &buckets[*idx] {
                rows.set_cell(column, local, value.clone())?;
            }
            self.shards[*idx].generation.fetch_add(1, Ordering::SeqCst);
        }
        let mutated: Vec<usize> = guards.iter().map(|(idx, _)| *idx).collect();
        drop(guards);
        for &idx in &mutated {
            self.shards[idx].crackers.lock().clear();
        }
        Ok(mutated)
    }

    /// Range query `low <= v < high` through per-shard adaptive indexes:
    /// each shard cracks its own copy of `column` independently (under
    /// the cracker's own lock, never the shard's row lock), and the
    /// matching ids are returned offset back to global row ids,
    /// concatenated in shard order. Ids come back in cracked (physical)
    /// order within each shard, not ascending.
    ///
    /// Returns `(ids, reorganized)` where `reorganized` lists the shards
    /// whose piece count grew (an observation, not a mutation: a cracker
    /// reorganizes its own copy of the column). The cancel token is checked between crack steps; a
    /// cancelled call leaves every shard's index well-formed.
    pub fn cracked_range(
        &self,
        column: &str,
        low: i64,
        high: i64,
        cancel: Option<&CancelToken>,
    ) -> Result<(Vec<u32>, Vec<usize>)> {
        let mut out = Vec::new();
        let mut reorganized = Vec::new();
        for (idx, shard) in self.shards.iter().enumerate() {
            let cracker = shard.cracker(column)?;
            let before = cracker.num_pieces();
            let ids = cracker.query_ids(low, high, cancel)?;
            if cracker.num_pieces() != before {
                reorganized.push(idx);
            }
            let start = shard.start as u32;
            out.extend(ids.into_iter().map(|i| start + i));
        }
        Ok((out, reorganized))
    }

    /// Total cracker pieces on `column` across shards, or `None` if no
    /// shard has cracked it yet.
    pub fn index_pieces(&self, column: &str) -> Option<usize> {
        let counts: Vec<usize> = self
            .shards
            .iter()
            .filter_map(|s| s.crackers.lock().get(column).map(|c| c.num_pieces()))
            .collect();
        (!counts.is_empty()).then(|| counts.iter().sum())
    }

    /// Per-shard statistics; `epoch_of(i)` supplies shard `i`'s cache
    /// epoch (the engine reads it off the shared result cache).
    pub fn stats(&self, epoch_of: impl Fn(usize) -> u64) -> Vec<ShardStats> {
        self.shards
            .iter()
            .enumerate()
            .map(|(i, s)| {
                let rows = s.table.read().num_rows();
                let crackers = s.crackers.lock();
                ShardStats {
                    shard: i,
                    start: s.start,
                    rows,
                    epoch: epoch_of(i),
                    crackers: crackers.len(),
                    pieces: crackers.values().map(|c| c.num_pieces()).sum(),
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use explore_storage::gen::{sales_table, SalesConfig};
    use explore_storage::Predicate;

    fn sales(rows: usize) -> Table {
        sales_table(&SalesConfig {
            rows,
            ..SalesConfig::default()
        })
    }

    fn config(count: usize) -> ShardConfig {
        ShardConfig {
            count,
            min_rows_per_shard: 1,
        }
    }

    #[test]
    fn split_is_contiguous_balanced_and_bitwise() {
        let t = sales(1003);
        let st = ShardedTable::build("sales", &t, &config(4));
        assert_eq!(st.shard_count(), 4);
        assert_eq!(st.num_rows(), 1003);
        let snap = st.snapshot();
        let mut covered = 0;
        for s in 0..snap.shard_count() {
            let range = snap.range(s);
            assert_eq!(range.start, covered);
            covered = range.end;
            for local in 0..snap.table(s).num_rows() {
                assert_eq!(
                    snap.table(s).row(local).unwrap(),
                    t.row(range.start + local).unwrap(),
                    "shard row {local}"
                );
            }
        }
        assert_eq!(covered, 1003);
        // Balance: no two shards differ by more than one row.
        let sizes: Vec<usize> = (0..snap.shard_count())
            .map(|s| snap.table(s).num_rows())
            .collect();
        let (lo, hi) = (sizes.iter().min().unwrap(), sizes.iter().max().unwrap());
        assert!(hi - lo <= 1, "{sizes:?}");
    }

    #[test]
    fn boundaries_round_to_whole_blocks_once_shards_span_one() {
        // 250 000 rows under the default config: three shards (the
        // 65 536-row floor), cut at the multiples of MORSEL_ROWS nearest
        // to thirds.
        let st = ShardedTable::build("sales", &sales(250_000), &ShardConfig::default());
        let starts: Vec<usize> = st.stats(|_| 0).iter().map(|s| s.start).collect();
        assert_eq!(starts, [0, MORSEL_ROWS, 3 * MORSEL_ROWS]);
    }

    #[test]
    fn mutations_route_to_owning_shard() {
        let t = sales(100);
        let st = ShardedTable::build("sales", &t, &config(4));
        let row = t.row(0).unwrap();
        assert_eq!(st.push_row(row).unwrap(), 3);
        assert_eq!(st.num_rows(), 101);
        assert_eq!(st.append_rows(&t).unwrap(), 3);
        assert_eq!(st.num_rows(), 201);

        // Update rows spread across two shards.
        let sel = Predicate::range("qty", 0i64, 100i64).evaluate(&t).unwrap();
        let some: Vec<u32> = sel.iter().copied().filter(|&r| r < 50).collect();
        let mutated = st.update_where(&some, "qty", &Value::Int(42)).unwrap();
        assert!(!mutated.is_empty());
        for &i in &mutated {
            assert!(i < 2, "rows < 50 live in the first two shards of 201");
        }
    }

    #[test]
    fn update_refuses_a_selection_the_table_cannot_hold() {
        let t = sales(100);
        let st = ShardedTable::build("sales", &t, &config(4));
        // Row 100 is one past the last shard's end; rows 0 and 99 are
        // real, and neither is written.
        let err = st.update_where(&[0, 99, 100], "qty", &Value::Int(42));
        assert!(matches!(err, Err(StorageError::Internal(_))), "{err:?}");
        // Shard 3 starts at row 75: going back to shard 0 is refused.
        let err = st.update_where(&[80, 10], "qty", &Value::Int(42));
        assert!(matches!(err, Err(StorageError::Internal(_))), "{err:?}");
        assert_eq!(st.snapshot().to_table().as_ref(), &t);
        // An appended row is addressable at once.
        st.push_row(t.row(0).unwrap()).unwrap();
        assert_eq!(
            st.update_where(&[0, 99, 100], "qty", &Value::Int(42))
                .unwrap(),
            vec![0, 3]
        );
    }

    #[test]
    fn one_shard_holds_the_arc_it_was_given() {
        let t = Arc::new(sales(100));
        let on = ShardPolicy::On(config(4));
        // Off, and On below the per-shard minimum: no copy, ever.
        for policy in [ShardPolicy::Off, ShardPolicy::on()] {
            let st = ShardedTable::from_arc("sales", Arc::clone(&t), &policy);
            assert_eq!(st.shard_count(), 1);
            assert!(Arc::ptr_eq(&st.snapshot().to_table(), &t));
        }
        // Split: the rows move into the shards and the Arc is let go.
        let st = ShardedTable::from_arc("sales", Arc::clone(&t), &on);
        assert_eq!(st.shard_count(), 4);
        assert_eq!(Arc::strong_count(&t), 1);
        assert_eq!(st.snapshot().to_table().as_ref(), t.as_ref());
    }

    #[test]
    fn mutation_drops_only_the_owning_shards_indexes() {
        let t = sales(1000);
        let st = ShardedTable::build("sales", &t, &config(4));
        st.cracked_range("qty", 3, 7, None).unwrap();
        st.push_row(t.row(0).unwrap()).unwrap();
        let crackers: Vec<usize> = st.stats(|_| 0).iter().map(|s| s.crackers).collect();
        assert_eq!(crackers, [1, 1, 1, 0]);
    }

    #[test]
    fn snapshots_are_immutable_under_mutation() {
        let t = sales(100);
        let st = ShardedTable::build("sales", &t, &config(4));
        let before = st.snapshot();
        let rows_before = before.num_rows();
        st.push_row(t.row(0).unwrap()).unwrap();
        // The held snapshot still sees the pre-mutation cut.
        assert_eq!(before.num_rows(), rows_before);
        assert_eq!(st.snapshot().num_rows(), rows_before + 1);
    }

    #[test]
    fn cracked_range_matches_scan_per_shard() {
        let t = sales(5000);
        let st = ShardedTable::build("sales", &t, &config(4));
        let (ids, reorganized) = st.cracked_range("qty", 3, 7, None).unwrap();
        assert!(!reorganized.is_empty(), "first crack reorganizes");
        let mut got = ids.clone();
        got.sort_unstable();
        let want = Predicate::range("qty", 3i64, 7i64).evaluate(&t).unwrap();
        assert_eq!(got, want);
        // Repeat adds no pieces anywhere.
        let (_, again) = st.cracked_range("qty", 3, 7, None).unwrap();
        assert!(again.is_empty());
        assert!(st.index_pieces("qty").unwrap() >= 4);
        assert!(st.index_pieces("price").is_none());
    }

    #[test]
    fn stats_reflect_layout() {
        let t = sales(1000);
        let st = ShardedTable::build("sales", &t, &config(4));
        st.cracked_range("qty", 2, 5, None).unwrap();
        let stats = st.stats(|i| i as u64 * 10);
        assert_eq!(stats.len(), 4);
        assert_eq!(stats[0].start, 0);
        assert_eq!(stats[1].epoch, 10);
        assert!(stats.iter().all(|s| s.rows == 250 && s.crackers == 1));
        assert!(stats.iter().all(|s| s.pieces >= 1));
    }
}
