//! The `ExploreDb` facade: one engine wiring every layer of the
//! tutorial's stack together.
//!
//! A downstream user registers tables (in memory or as raw CSV), and the
//! engine provides, per table:
//!
//! * exact queries (through the storage executor, or through the NoDB
//!   loader for raw tables);
//! * adaptive range indexes that crack themselves along the workload;
//! * a sample catalog with error/time-bounded approximate aggregation;
//! * online aggregation with live confidence intervals;
//! * SeeDB view recommendation, faceted recommendations and
//!   explore-by-example sessions.
//!
//! # Concurrency model
//!
//! The engine is shared, not serialized: every query entry point takes
//! `&self`, so any number of threads (the serving layer's workers in
//! particular) run queries concurrently over one `ExploreDb`. The
//! catalog maps table names to [`Arc`]-shared per-table state; a query
//! clones the `Arc`s it needs under a brief catalog read lock and runs
//! lock-free thereafter against an immutable `Table` snapshot.
//! Mutations take the owning table's write lock (and, for sharded
//! tables, the owning shards' write locks), bump epochs exactly as the
//! serialized engine did, and never block queries on *other* tables.
//!
//! Lock ordering is strictly catalog → table data → sharded-mirror slot
//! → shards (ascending) → cracker map, which makes deadlock impossible
//! by construction (DESIGN.md §14). Epochs are read **before** data
//! snapshots, so a racing mutation can only make a cache admission die
//! young, never go stale. Per-session knobs (cancel token, deadline,
//! policy overlays) live in a thread-local overlay stack installed by
//! [`ExploreDb::with_session`] — there are no engine-global session
//! fields left to race on.

use std::cell::RefCell;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use explore_aqp::{
    Bound, BoundedAnswer, BoundedExecutor, OnlineAggregation, SynopsisAnswer, SynopsisStore,
};
use explore_cache::{CachePolicy, CacheStats, ResultCache};
use explore_cracking::ConcurrentCracker;
use explore_cube::{CubeSession, DataCube, DiscoveryView};
use explore_exec::{ExecPolicy, QueryCtx};
use explore_fault::{CancelToken, FailPoints, Observer, QueryDeadline};
use explore_loading::{AdaptiveLoader, ErrorPolicy, RawCsv};
use explore_obs::{
    render_trace, ActiveTrace, MetricsSnapshot, ObsPolicy, QueryTrace, SpanKind, Tracer, ROOT_SPAN,
};
use explore_prefetch::SpeculativeExecutor;
use explore_sampling::SampleCatalog;
use explore_shard::{run_sharded_query, scoped_name, ShardPolicy, ShardStats, ShardedTable};
use explore_storage::{AggFunc, DataType, Predicate, Query, Result, StorageError, Table, Value};
use explore_viz::seedb::{candidate_views, recommend_shared, ScoredView, SeedbStats};
use parking_lot::{Mutex, RwLock};

use crate::session::SessionCtx;

thread_local! {
    /// The per-thread stack of installed session overlays, keyed by
    /// engine address. [`ExploreDb::with_session`] pushes on entry and
    /// pops (panic-safely) on exit; `current_session` searches top-down
    /// for this engine's most recent overlay. Thread-local rather than
    /// engine-global so concurrent sessions on different worker threads
    /// never see each other's knobs.
    static SESSION_OVERLAYS: RefCell<Vec<(usize, SessionCtx)>> = const { RefCell::new(Vec::new()) };
}

/// Everything the engine knows about one registered in-memory table,
/// shared via `Arc` so queries can keep using a state the catalog has
/// since replaced.
#[derive(Debug)]
struct TableState {
    /// The canonical table. Readers clone the `Arc` under a brief read
    /// lock and run against that immutable snapshot; mutations hold the
    /// write lock across the sharded-mirror write so the two copies
    /// never diverge observably.
    data: RwLock<Arc<Table>>,
    /// Adaptive range indexes, keyed by column. Crackers reorganize
    /// under their own internal locks; this map only guards presence.
    crackers: Mutex<HashMap<String, Arc<ConcurrentCracker>>>,
    /// The sharded mirror, present while the shard policy is on.
    sharded: RwLock<Option<Arc<ShardedTable>>>,
    /// Bumped under the data write lock after every data change.
    /// `ensure_cracker` re-checks it before installing a freshly built
    /// cracker, so an index built from a snapshot that a mutation has
    /// since replaced is served once and never installed.
    generation: AtomicU64,
}

impl TableState {
    fn new(table: Arc<Table>) -> Self {
        TableState {
            data: RwLock::new(table),
            crackers: Mutex::new(HashMap::new()),
            sharded: RwLock::new(None),
            generation: AtomicU64::new(0),
        }
    }

    /// The current immutable data snapshot.
    fn snapshot(&self) -> Arc<Table> {
        Arc::clone(&self.data.read())
    }

    /// The current sharded mirror, if any.
    fn mirror(&self) -> Option<Arc<ShardedTable>> {
        self.sharded.read().as_ref().map(Arc::clone)
    }
}

/// The unified exploration engine.
///
/// All query entry points take `&self` and the engine is `Sync`: share
/// one instance across threads (the serving layer does) and run reads
/// concurrently. Mutation entry points also take `&self` — they lock
/// only the table they touch.
#[derive(Debug)]
pub struct ExploreDb {
    /// Registered in-memory tables. The lock guards the *map*; each
    /// table's state is `Arc`-shared and internally locked, so catalog
    /// critical sections are a clone or an insert, never a query.
    catalog: RwLock<HashMap<String, Arc<TableState>>>,
    /// Raw (not-yet-loaded) tables served by the adaptive loader. Each
    /// loader mutates itself on every query (incremental load state), so
    /// raw-table queries serialize per table — on the loader's own
    /// mutex, not an engine-wide one.
    raw: RwLock<HashMap<String, Arc<Mutex<AdaptiveLoader>>>>,
    /// Sample catalogs for approximate execution.
    samples: RwLock<HashMap<String, Arc<SampleCatalog>>>,
    /// AQUA-style synopsis stores for zero-touch estimation.
    synopses: RwLock<HashMap<String, Arc<SynopsisStore>>>,
    /// How exact scans and aggregates execute; defaults to
    /// morsel-parallel over all available cores. Both settings produce
    /// bit-identical results (see `explore_exec`).
    exec_policy: RwLock<ExecPolicy>,
    /// The shared semantic result cache. Always allocated — it carries
    /// the per-table epoch counters even while the policy is `Off`, so
    /// flipping caching on later never resurrects pre-mutation entries.
    result_cache: Arc<ResultCache>,
    /// Whether [`ExploreDb::query`] routes through the cache. `Off` (the
    /// default) is bit-identical to a cache-less engine.
    cache_policy: RwLock<CachePolicy>,
    /// Whether registered tables are mirrored into row-range shards with
    /// per-shard cracking, caching, and epochs. `Off` (the default) is
    /// the unchanged single-table engine. The mirrors themselves live in
    /// each table's state; the canonical table stays authoritative, and
    /// mutations dual-write under the canonical write lock.
    shard_policy: RwLock<ShardPolicy>,
    /// The engine's tracer + metrics owner. Always allocated; recording
    /// is gated by `obs_policy` and costs one relaxed load while off.
    obs: Arc<Tracer>,
    /// Whether queries record traces and metrics. `Off` (the default)
    /// leaves every execution path byte-identical to an uninstrumented
    /// engine.
    obs_policy: RwLock<ObsPolicy>,
    /// Engine-wide deterministic fail-point registry. Disarmed (the
    /// default and only production state) every injection site costs one
    /// relaxed atomic load; tests arm named points to force the engine
    /// down its degradation paths. Shared with the result cache, every
    /// raw-table loader, and each exec call.
    faults: Arc<FailPoints>,
    /// How raw-table loaders treat malformed CSV rows; applied to
    /// current and future attachments.
    load_error_policy: RwLock<ErrorPolicy>,
}

impl Default for ExploreDb {
    fn default() -> Self {
        let faults = Arc::new(FailPoints::default());
        let result_cache = Arc::<ResultCache>::default();
        result_cache.set_faults(Some(Arc::clone(&faults)));
        ExploreDb {
            catalog: RwLock::new(HashMap::new()),
            raw: RwLock::new(HashMap::new()),
            samples: RwLock::new(HashMap::new()),
            synopses: RwLock::new(HashMap::new()),
            exec_policy: RwLock::new(ExecPolicy::default()),
            result_cache,
            cache_policy: RwLock::new(CachePolicy::default()),
            shard_policy: RwLock::new(ShardPolicy::default()),
            obs: Arc::default(),
            obs_policy: RwLock::new(ObsPolicy::default()),
            faults,
            load_error_policy: RwLock::new(ErrorPolicy::default()),
        }
    }
}

impl ExploreDb {
    /// A fresh engine.
    pub fn new() -> Self {
        ExploreDb::default()
    }

    /// A fresh engine with an explicit execution policy.
    pub fn with_exec_policy(policy: ExecPolicy) -> Self {
        let db = ExploreDb::default();
        db.set_exec_policy(policy);
        db
    }

    /// Change the execution policy for subsequent queries.
    pub fn set_exec_policy(&self, policy: ExecPolicy) {
        *self.exec_policy.write() = policy;
    }

    /// The current execution policy.
    pub fn exec_policy(&self) -> ExecPolicy {
        *self.exec_policy.read()
    }

    /// A fresh engine with result caching enabled.
    pub fn with_cache_policy(policy: CachePolicy) -> Self {
        let db = ExploreDb::default();
        db.set_cache_policy(policy);
        db
    }

    /// Turn result caching on or off (and retune it). Turning it off
    /// stops serving and admitting, but keeps epochs and entries — a
    /// later `On` resumes with a warm cache, minus whatever mutations
    /// invalidated meanwhile.
    pub fn set_cache_policy(&self, policy: CachePolicy) {
        if let Some(config) = policy.config() {
            self.result_cache.set_config(config.clone());
        }
        *self.cache_policy.write() = policy;
    }

    /// The current cache policy.
    pub fn cache_policy(&self) -> CachePolicy {
        self.cache_policy.read().clone()
    }

    /// A fresh engine with table sharding enabled.
    pub fn with_shard_policy(policy: ShardPolicy) -> Self {
        let db = ExploreDb::default();
        db.set_shard_policy(policy);
        db
    }

    /// Turn table sharding on or off (and retune it). `On` mirrors every
    /// registered in-memory table into contiguous row-range shards, each
    /// with its own cracker state and cache-epoch scope; queries fan out
    /// per shard and merge bit-identically to the unsharded engine (see
    /// `explore_shard`). `Off` drops the mirrors — the canonical tables
    /// in the catalog were authoritative all along.
    pub fn set_shard_policy(&self, policy: ShardPolicy) {
        *self.shard_policy.write() = policy;
        let states: Vec<(String, Arc<TableState>)> = self
            .catalog
            .read()
            .iter()
            .map(|(n, s)| (n.clone(), Arc::clone(s)))
            .collect();
        for (name, st) in states {
            self.rebuild_shards(&st, &name);
        }
    }

    /// The current shard policy.
    pub fn shard_policy(&self) -> ShardPolicy {
        self.shard_policy.read().clone()
    }

    /// Per-shard layout, epoch, and index statistics for a table, or
    /// `None` when the table has no sharded mirror (policy off, raw
    /// table, or unknown name).
    pub fn shard_stats(&self, table: &str) -> Option<Vec<ShardStats>> {
        let st = self.catalog.read().get(table).cloned()?;
        let mirror = st.mirror()?;
        Some(mirror.stats(|i| self.result_cache.epoch(&scoped_name(table, i))))
    }

    /// (Re)build `table`'s sharded mirror from the canonical snapshot,
    /// installing it (or `None`, policy off) in the table's mirror slot.
    /// Bumps every shard-scope epoch the change touches — the union of
    /// the old and new shard ranges — so cache entries under scoped
    /// names from any earlier sharding era, including one the policy was
    /// toggled across, never survive into the new mirror.
    fn rebuild_shards(&self, st: &TableState, name: &str) {
        let policy = self.shard_policy();
        let old_count = st.mirror().map_or(0, |m| m.shard_count());
        let mirror = match &policy {
            ShardPolicy::On(config) => {
                let data = st.snapshot();
                Some(Arc::new(ShardedTable::build(name, &data, config)))
            }
            _ => None,
        };
        let new_count = mirror.as_ref().map_or(0, |m| m.shard_count());
        *st.sharded.write() = mirror;
        for s in 0..old_count.max(new_count) {
            self.result_cache.bump_epoch(&scoped_name(name, s));
        }
    }

    /// A fresh engine with observability enabled.
    pub fn with_obs_policy(policy: ObsPolicy) -> Self {
        let db = ExploreDb::default();
        db.set_obs_policy(policy);
        db
    }

    /// Turn query tracing and metrics on or off. `On` makes every
    /// [`ExploreDb::query`] record a span tree into the recent-trace
    /// ring and mirror engine counters into the metrics registry; `Off`
    /// (the default) stops recording but keeps what was collected.
    /// Either way results are bit-identical — observability never
    /// changes what executes.
    pub fn set_obs_policy(&self, policy: ObsPolicy) {
        self.obs.set_policy(&policy);
        self.result_cache
            .set_metrics(policy.is_on().then(|| self.obs.metrics()));
        // Mirror fault trips and degradation/cancellation events into
        // the metrics registry as `fault.*` / `cancel.*` counters.
        self.faults.set_observer(policy.is_on().then(|| {
            let metrics = self.obs.metrics();
            Arc::new(move |name: &str| metrics.inc(name, 1)) as Observer
        }));
        *self.obs_policy.write() = policy;
    }

    /// The current observability policy.
    pub fn obs_policy(&self) -> ObsPolicy {
        self.obs_policy.read().clone()
    }

    /// Handle to the engine's tracer, for wiring into external
    /// consumers or dumping traces out-of-band.
    pub fn tracer(&self) -> Arc<Tracer> {
        Arc::clone(&self.obs)
    }

    /// Point-in-time snapshot of every engine counter and latency
    /// histogram collected while observability was on.
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        self.obs.metrics().snapshot()
    }

    /// The most recent finished query traces, oldest first (bounded by
    /// the policy's ring capacity).
    pub fn recent_traces(&self) -> Vec<QueryTrace> {
        self.obs.recent_traces()
    }

    /// Profile one query regardless of the observability policy and
    /// render its span tree as a human-readable report. The query
    /// executes for real (through the same cache/exec routing as
    /// [`ExploreDb::query`]), so the profile reflects live state —
    /// explaining a cached query shows the hit, not the original scan.
    pub fn explain(&self, table: &str, query: &Query) -> Result<String> {
        let trace = self.obs.force_start(table, query.describe());
        let ctx = self.query_ctx().with_trace(Some(&trace));
        let result = self.run_routed(table, query, &ctx);
        let finished = trace.finish();
        self.note_cancel(&result);
        result.map(|_| render_trace(&finished))
    }

    /// Handle to the engine's fail-point registry. Tests arm named
    /// points (`exec.spawn`, `exec.morsel`, `cache.admit`,
    /// `cache.lookup`, `cache.evict`, `load.parse`, `load.map`,
    /// `crack.reorg`, `shard.dispatch`, `shard.merge`, the engine's own
    /// `engine.catalog_read` / `engine.table_write`, and the serving
    /// layer's `serve.admit` / `serve.yield`) to drive the engine down
    /// its degradation paths; the registry also counts `fault.*` /
    /// `cancel.*` events.
    pub fn fail_points(&self) -> Arc<FailPoints> {
        Arc::clone(&self.faults)
    }

    /// How raw-table loaders treat malformed CSV rows: `Abort` (the
    /// default) surfaces the first parse error, `SkipRow` tombstones the
    /// offending row and keeps serving. Applies to already-attached and
    /// future raw tables.
    pub fn set_load_error_policy(&self, policy: ErrorPolicy) {
        *self.load_error_policy.write() = policy;
        let loaders: Vec<Arc<Mutex<AdaptiveLoader>>> =
            self.raw.read().values().map(Arc::clone).collect();
        for loader in loaders {
            loader.lock().set_error_policy(policy);
        }
    }

    /// Rows skipped so far by a raw table's loader under
    /// [`ErrorPolicy::SkipRow`] (`None` for in-memory tables).
    pub fn rows_skipped(&self, table: &str) -> Option<u64> {
        self.raw.read().get(table).map(|l| l.lock().rows_skipped())
    }

    /// Snapshot of the shared cache's counters.
    pub fn cache_stats(&self) -> CacheStats {
        self.result_cache.stats()
    }

    /// Handle to the shared result cache, for wiring into middleware
    /// sessions ([`SpeculativeExecutor::with_shared_cache`],
    /// `PanSession::with_shared_cache`, `BoundedExecutor::with_cache`).
    pub fn cache(&self) -> Arc<ResultCache> {
        Arc::clone(&self.result_cache)
    }

    /// Current mutation epoch of a table (0 until first mutated).
    pub fn table_epoch(&self, table: &str) -> u64 {
        self.result_cache.epoch(table)
    }

    /// Record that `table`'s data changed through a channel the engine
    /// did not see: bumps the cache epoch (so no pre-mutation result is
    /// ever served again) — every shard-scope epoch included — drops the
    /// table's adaptive indexes, which mirror the old data, and rebuilds
    /// the sharded mirror from the canonical copy. The mutation APIs
    /// below route mutations precisely instead (bumping only the owning
    /// shard's epoch); callers that mutate through other channels get
    /// this conservative whole-table invalidation.
    pub fn note_mutation(&self, table: &str) {
        self.result_cache.bump_epoch(table);
        let st = self.catalog.read().get(table).cloned();
        if let Some(st) = st {
            {
                // Hold the data lock across the generation bump so a
                // concurrent `ensure_cracker` can never install an
                // index built from the superseded snapshot.
                let _guard = st.data.write();
                st.generation.fetch_add(1, Ordering::SeqCst);
            }
            st.crackers.lock().clear();
            self.rebuild_shards(&st, table);
        }
    }

    /// Whole-table invalidation: base epoch, every current shard-scope
    /// epoch, and the table's adaptive indexes.
    fn invalidate_table(&self, table: &str) {
        self.result_cache.bump_epoch(table);
        if let Some(st) = self.catalog.read().get(table).cloned() {
            let count = st.mirror().map_or(0, |m| m.shard_count());
            for s in 0..count {
                self.result_cache.bump_epoch(&scoped_name(table, s));
            }
            st.crackers.lock().clear();
        }
    }

    /// Record a mutation the sharded mirror already absorbed in place:
    /// bump the base epoch (whole-table results die) and only the
    /// mutated shards' scope epochs — the other shards' cached results
    /// are still exact, and keeping them live is the payoff of sharding.
    fn note_shard_epochs(&self, table: &str, mutated: &[usize]) {
        self.result_cache.bump_epoch(table);
        for &s in mutated {
            self.result_cache.bump_epoch(&scoped_name(table, s));
        }
    }

    /// Resolve a table's shared state, or the typed unknown-table error.
    /// This is the query and mutation paths' single catalog touchpoint,
    /// and the `engine.catalog_read` fail point fires here — before the
    /// `Arc` clone, so an injected failure never hands out state.
    fn table_state(&self, table: &str) -> Result<Arc<TableState>> {
        if self.faults.fire("engine.catalog_read") {
            return Err(StorageError::Internal(
                "injected catalog-read failure (engine.catalog_read)".into(),
            ));
        }
        self.catalog
            .read()
            .get(table)
            .cloned()
            .ok_or_else(|| StorageError::UnknownTable(table.to_owned()))
    }

    /// The `engine.table_write` fail point, fired at the top of every
    /// mutation entry point — before any state changes, so an injected
    /// failure is always a clean no-op.
    fn fire_table_write(&self) -> Result<()> {
        if self.faults.fire("engine.table_write") {
            return Err(StorageError::Internal(
                "injected table-write failure (engine.table_write)".into(),
            ));
        }
        Ok(())
    }

    /// Register an in-memory table (a `Table` or an `Arc<Table>`).
    /// Re-registering an existing name is a mutation: the old name's
    /// cache entries are invalidated and its adaptive indexes dropped.
    pub fn register(&self, name: impl Into<String>, table: impl Into<Arc<Table>>) {
        let name = name.into();
        let table = table.into();
        let existing = self.catalog.read().get(&name).cloned();
        match existing {
            Some(st) => {
                {
                    // Data first, bump second: a reader that saw the old
                    // epoch gets either old data (fine) or new data
                    // admitted under the old epoch (dies at the bump) —
                    // never new-epoch/old-data.
                    let mut data = st.data.write();
                    *data = table;
                    st.generation.fetch_add(1, Ordering::SeqCst);
                }
                st.crackers.lock().clear();
                self.rebuild_shards(&st, &name);
                self.result_cache.bump_epoch(&name);
            }
            None => {
                let st = Arc::new(TableState::new(table));
                self.rebuild_shards(&st, &name);
                self.catalog.write().insert(name, st);
            }
        }
    }

    /// Append one row of dynamic values to an in-memory table.
    pub fn push_row(&self, table: &str, values: Vec<Value>) -> Result<()> {
        self.fire_table_write()?;
        let st = self.table_state(table)?;
        let mutated = {
            let mut data = st.data.write();
            // The canonical write validates; the mirror's schema is
            // identical, so the dual-write below routes to the owning
            // (last) shard and cannot fail after this point.
            Arc::make_mut(&mut *data).push_row(values.clone())?;
            st.generation.fetch_add(1, Ordering::SeqCst);
            match st.mirror() {
                Some(m) => Some(m.push_row(values)?),
                None => None,
            }
        };
        st.crackers.lock().clear();
        match mutated {
            Some(shard) => self.note_shard_epochs(table, &[shard]),
            None => {
                self.result_cache.bump_epoch(table);
            }
        }
        Ok(())
    }

    /// Append all rows of `rows` (identical schema) to an in-memory
    /// table.
    pub fn append_rows(&self, table: &str, rows: &Table) -> Result<()> {
        self.fire_table_write()?;
        let st = self.table_state(table)?;
        let mutated = {
            let mut data = st.data.write();
            Arc::make_mut(&mut *data).append(rows)?;
            st.generation.fetch_add(1, Ordering::SeqCst);
            match st.mirror() {
                Some(m) => Some(m.append_rows(rows)?),
                None => None,
            }
        };
        st.crackers.lock().clear();
        match mutated {
            Some(shard) => self.note_shard_epochs(table, &[shard]),
            None => {
                self.result_cache.bump_epoch(table);
            }
        }
        Ok(())
    }

    /// Set `column = value` on every row matching `predicate`; returns
    /// how many rows changed. Type incompatibilities are rejected before
    /// any write, so a failed update never leaves the table half-mutated.
    pub fn update_where(
        &self,
        table: &str,
        predicate: &Predicate,
        column: &str,
        value: Value,
    ) -> Result<usize> {
        self.fire_table_write()?;
        let st = self.table_state(table)?;
        let (changed, mutated) = {
            let mut data = st.data.write();
            let sel = predicate.evaluate(&data)?;
            let expected = data.column(column)?.data_type();
            let compatible = matches!(
                (expected, &value),
                (DataType::Int64, Value::Int(_))
                    | (DataType::Float64, Value::Float(_) | Value::Int(_))
                    | (DataType::Utf8, Value::Str(_))
            );
            if !compatible {
                return Err(StorageError::TypeMismatch {
                    column: column.to_owned(),
                    expected: expected.name(),
                    found: value.data_type().map_or("Null", DataType::name),
                });
            }
            if sel.is_empty() {
                return Ok(0);
            }
            let t = Arc::make_mut(&mut *data);
            for &row in &sel {
                t.set_cell(column, row as usize, value.clone())?;
            }
            st.generation.fetch_add(1, Ordering::SeqCst);
            let mutated = match st.mirror() {
                Some(m) => Some(m.update_where(&sel, column, &value)?),
                None => None,
            };
            (sel.len(), mutated)
        };
        st.crackers.lock().clear();
        match mutated {
            Some(shards) => self.note_shard_epochs(table, &shards),
            None => {
                self.result_cache.bump_epoch(table);
            }
        }
        Ok(changed)
    }

    /// Attach a raw CSV file; queries against it run through the NoDB
    /// adaptive loader until the workload has loaded it.
    pub fn attach_raw(&self, name: impl Into<String>, raw: RawCsv) {
        let mut loader = AdaptiveLoader::new(raw);
        loader.set_faults(Some(Arc::clone(&self.faults)));
        loader.set_error_policy(*self.load_error_policy.read());
        self.raw
            .write()
            .insert(name.into(), Arc::new(Mutex::new(loader)));
    }

    /// Registered table names (in-memory, then raw).
    pub fn tables(&self) -> Vec<String> {
        let mut names: Vec<String> = self.catalog.read().keys().cloned().collect();
        names.extend(self.raw.read().keys().cloned());
        names.sort();
        names
    }

    /// The current snapshot of an in-memory table. The snapshot is
    /// immutable: later mutations replace the table's `Arc`, they never
    /// write through one you already hold.
    pub fn table(&self, name: &str) -> Result<Arc<Table>> {
        Ok(self.table_state(name)?.snapshot())
    }

    /// Run an exact query, routing to the right storage path. With
    /// caching on, in-memory tables are served through the semantic
    /// result cache (exact and subsumption reuse); raw tables always go
    /// through the adaptive loader, whose incremental load state is
    /// itself the cache. Takes `&self`: concurrent callers on different
    /// threads run genuinely in parallel.
    pub fn query(&self, table: &str, query: &Query) -> Result<Table> {
        let trace = self.start_trace(table, || query.describe());
        let ctx = self.query_ctx().with_trace(trace.as_ref());
        let result = self.run_routed(table, query, &ctx);
        if let Some(trace) = trace {
            trace.finish();
        }
        self.note_cancel(&result);
        result
    }

    /// A fresh per-session policy overlay: owns its cancel token,
    /// inherits every engine default. Customize with the `SessionCtx`
    /// builders, then scope engine calls to it via
    /// [`ExploreDb::with_session`].
    pub fn session(&self) -> SessionCtx {
        SessionCtx::new()
    }

    /// Run `f` with `session`'s overlay installed: every `query_ctx()`
    /// minted inside (on this thread) resolves the session's exec/cache/
    /// obs policies, deadline budget, cancel token, and yield hook
    /// *over* the engine defaults (DESIGN.md §10/§13). The overlay is
    /// thread-local and keyed to this engine, so sessions on other
    /// worker threads — and other engines on this thread — are
    /// unaffected, and nesting is safe. The overlay pops on exit, panic
    /// included.
    pub fn with_session<R>(&self, session: &SessionCtx, f: impl FnOnce(&ExploreDb) -> R) -> R {
        struct Pop;
        impl Drop for Pop {
            fn drop(&mut self) {
                SESSION_OVERLAYS.with(|s| {
                    s.borrow_mut().pop();
                });
            }
        }
        let key = self as *const ExploreDb as usize;
        SESSION_OVERLAYS.with(|s| s.borrow_mut().push((key, session.clone())));
        let _pop = Pop;
        f(self)
    }

    /// This thread's innermost overlay installed for *this* engine, if
    /// any.
    fn current_session(&self) -> Option<SessionCtx> {
        let key = self as *const ExploreDb as usize;
        SESSION_OVERLAYS.with(|s| {
            s.borrow()
                .iter()
                .rev()
                .find(|(k, _)| *k == key)
                .map(|(_, ctx)| ctx.clone())
        })
    }

    /// The execution context for one engine call: the engine's exec
    /// policy and fail points, plus — when a session overlay is
    /// installed ([`ExploreDb::with_session`]) — the session's exec
    /// policy, cancel token, deadline budget (minted fresh so its clock
    /// starts at this call), and cooperative yield hook. Cancellation
    /// and deadlines are session-scoped only: an engine with no overlay
    /// installed runs to completion.
    fn query_ctx(&self) -> QueryCtx<'static> {
        let s = self.current_session();
        let s = s.as_ref();
        let exec = s.and_then(|s| s.exec).unwrap_or_else(|| self.exec_policy());
        let cancel = s.and_then(|s| s.cancel.clone());
        let deadline = s.and_then(|s| s.deadline).map(QueryDeadline);
        QueryCtx::new(exec)
            .with_faults(Some(Arc::clone(&self.faults)))
            .with_cancel(cancel)
            .with_deadline(deadline.as_ref().map(QueryDeadline::token))
            .with_yield_hook(s.and_then(|s| s.yield_hook.clone()))
    }

    /// One token for long-lived middleware sessions that outlive a
    /// single engine call: the session cancel token when set, else a
    /// token minted from the session deadline (its clock starts now).
    fn session_token(&self) -> Option<CancelToken> {
        let s = self.current_session();
        let s = s.as_ref();
        s.and_then(|s| s.cancel.clone()).or_else(|| {
            s.and_then(|s| s.deadline)
                .map(QueryDeadline)
                .as_ref()
                .map(QueryDeadline::token)
        })
    }

    /// Is the result cache in play for this call? The session overlay's
    /// cache policy wins over the engine knob.
    fn cache_on(&self) -> bool {
        self.current_session()
            .and_then(|s| s.cache)
            .map_or_else(|| self.cache_policy.read().is_on(), |p| p.is_on())
    }

    /// Is observability in play for this call? Gates metrics attachment
    /// on middleware executors; the session overlay wins.
    fn obs_on(&self) -> bool {
        self.current_session()
            .and_then(|s| s.obs)
            .map_or_else(|| self.obs_policy.read().is_on(), |p| p.is_on())
    }

    /// Start (or skip) a trace for one engine call, honoring the session
    /// overlay: `Some(On)` forces a trace even while the engine policy
    /// is off, `Some(Off)` suppresses one, `None` defers to the engine's
    /// obs policy via the tracer's own gate.
    fn start_trace(&self, table: &str, desc: impl FnOnce() -> String) -> Option<ActiveTrace> {
        match self.current_session().and_then(|s| s.obs) {
            Some(p) if p.is_on() => Some(self.obs.force_start(table, desc())),
            Some(_) => None,
            None => self.obs.start(table, desc),
        }
    }

    /// Count cancellation outcomes as `cancel.*` events (mirrored into
    /// obs metrics when observability is on).
    fn note_cancel<T>(&self, result: &Result<T>) {
        match result {
            Err(StorageError::Cancelled) => self.faults.note("cancel.cancelled"),
            Err(StorageError::DeadlineExceeded) => self.faults.note("cancel.deadline_exceeded"),
            _ => {}
        }
    }

    /// The routing core of [`ExploreDb::query`], shared with
    /// [`ExploreDb::explain`]: raw tables go through the adaptive
    /// loader (recorded as one raw-load span), in-memory tables through
    /// the cache or the plain executor. In-memory reads clone the
    /// table's `Arc` snapshot and run lock-free; the cache-admission
    /// epoch is read *before* the snapshot (see
    /// `explore_cache::cached_query_at_epoch` for why that order is the
    /// sound one).
    fn run_routed(&self, table: &str, query: &Query, ctx: &QueryCtx) -> Result<Table> {
        // An already-cancelled or expired token fails before routing —
        // even a warm cache hit must not mask the typed error.
        ctx.check_cancel()?;
        let loader = self.raw.read().get(table).map(Arc::clone);
        if let Some(loader) = loader {
            let mut loader = loader.lock();
            return match ctx.trace {
                Some(t) => t.scope(ROOT_SPAN, SpanKind::RawLoad, || loader.query(query, ctx)),
                None => loader.query(query, ctx),
            };
        }
        let st = self.table_state(table)?;
        if let Some(m) = st.mirror() {
            let cache = self.cache_on().then_some(&*self.result_cache);
            return run_sharded_query(&m, cache, query, ctx);
        }
        if self.cache_on() {
            let epoch = self.result_cache.epoch(table);
            let base = st.snapshot();
            explore_cache::cached_query_at_epoch(
                &self.result_cache,
                &base,
                table,
                query,
                ctx,
                epoch,
            )
        } else {
            let base = st.snapshot();
            explore_exec::run_query(&base, query, ctx)
        }
    }

    /// Progress of invisible loading for a raw table (columns loaded,
    /// total columns), or `None` for in-memory tables.
    pub fn loading_progress(&self, table: &str) -> Option<(usize, usize)> {
        self.raw.read().get(table).map(|l| {
            let l = l.lock();
            (l.columns_loaded(), l.schema().len())
        })
    }

    /// Range query through the adaptive index: first call cracks (cost ≈
    /// scan), later calls converge to index speed. The column must be
    /// Int64. Honors the session cancel token and deadline: the token is
    /// checked between crack (partition) steps, so a cancelled call may
    /// have cracked the low bound but not the high one — the index is
    /// well-formed either way, and the partial work is kept (it benefits
    /// later queries rather than being rolled back). Takes `&self`:
    /// concurrent callers share the index, which reorganizes under its
    /// own lock (lookups that hit an existing piece don't block each
    /// other).
    pub fn cracked_range(
        &self,
        table: &str,
        column: &str,
        low: i64,
        high: i64,
    ) -> Result<Vec<u32>> {
        let ctx = self.query_ctx();
        ctx.check_cancel()?;
        let token = self.session_token();
        let st = self.table_state(table)?;
        let mirror = st.mirror();
        let cracker = match &mirror {
            // Sharded tables crack per shard; validate the column here so
            // the error shape matches `ensure_cracker` exactly.
            Some(_) => {
                let t = st.snapshot();
                let col = t.column(column)?;
                col.as_i64().ok_or_else(|| StorageError::TypeMismatch {
                    column: column.to_owned(),
                    expected: "Int64",
                    found: col.data_type().name(),
                })?;
                None
            }
            None => Some(self.ensure_cracker(&st, column)?),
        };
        if self.faults.fire("crack.reorg") {
            // Injected reorganization failure: answer by scanning the
            // (never-reorganized) base column instead. Cracking writes
            // are discretionary, so skipping one changes convergence
            // rate, never answers.
            self.faults.note("fault.crack.scan_fallback");
            let t = st.snapshot();
            let col = t.column(column)?;
            let values = col.as_i64().ok_or_else(|| StorageError::TypeMismatch {
                column: column.to_owned(),
                expected: "Int64",
                found: col.data_type().name(),
            })?;
            return Ok(values
                .iter()
                .enumerate()
                .filter(|(_, &v)| v >= low && v < high)
                .map(|(i, _)| i as u32)
                .collect());
        }
        if let Some(m) = mirror {
            return self.cracked_range_sharded(table, column, low, high, token, &m);
        }
        let cracker = cracker.expect("cracker ensured on the unsharded path");
        let trace = self
            .obs
            .start(table, || format!("cracked_range({column}, {low}, {high})"));
        let pieces_before = cracker.num_pieces();
        let start = trace.as_ref().map(|t| t.now_ns());
        let ids = cracker.query_ids(low, high, token.as_ref());
        let pieces_after = cracker.num_pieces();
        if let Some((t, start)) = trace.as_ref().zip(start) {
            t.record(
                ROOT_SPAN,
                SpanKind::Crack {
                    pieces_before: pieces_before as u32,
                    pieces_after: pieces_after as u32,
                },
                start,
                t.now_ns(),
            );
            if pieces_after != pieces_before {
                t.metrics().inc("crack.reorganizations", 1);
            }
        }
        // Cracking reorganizes the index copy, not the base table, so
        // cached results stay byte-correct — but the ISSUE's protocol
        // treats a reorganization as an epoch event, which keeps the
        // cache conservative if cracking ever becomes in-place. Even an
        // aborted (cancelled) call may have registered a boundary.
        if pieces_after != pieces_before {
            self.result_cache.bump_epoch(table);
        }
        if let Some(trace) = trace {
            trace.finish();
        }
        self.note_cancel(&ids);
        ids
    }

    /// The sharded variant of [`ExploreDb::cracked_range`]: each shard
    /// cracks its own copy of the column independently, shards whose
    /// piece count grew bump their scope epochs (plus the base epoch),
    /// and matching global row ids come back concatenated in shard
    /// order — cracked (physical) order within each shard, like the
    /// unsharded path.
    fn cracked_range_sharded(
        &self,
        table: &str,
        column: &str,
        low: i64,
        high: i64,
        token: Option<CancelToken>,
        st: &ShardedTable,
    ) -> Result<Vec<u32>> {
        let trace = self
            .obs
            .start(table, || format!("cracked_range({column}, {low}, {high})"));
        let pieces_before = st.index_pieces(column).unwrap_or(0);
        let start = trace.as_ref().map(|t| t.now_ns());
        let result = st.cracked_range(column, low, high, token.as_ref());
        let pieces_after = st.index_pieces(column).unwrap_or(0);
        if let Some((t, s)) = trace.as_ref().zip(start) {
            t.record(
                ROOT_SPAN,
                SpanKind::Crack {
                    pieces_before: pieces_before as u32,
                    pieces_after: pieces_after as u32,
                },
                s,
                t.now_ns(),
            );
            if pieces_after != pieces_before {
                t.metrics().inc("crack.reorganizations", 1);
            }
        }
        match &result {
            // Reorganization is an epoch event (see the unsharded path),
            // but a per-shard one: only the shards that grew pieces bump.
            Ok((_, reorganized)) if !reorganized.is_empty() => {
                for &s in reorganized {
                    self.result_cache.bump_epoch(&scoped_name(table, s));
                }
                self.result_cache.bump_epoch(table);
            }
            // An aborted (cancelled) call may have reorganized some
            // shards before stopping and cannot say which; invalidate
            // conservatively.
            Err(_) if pieces_after != pieces_before => self.invalidate_table(table),
            _ => {}
        }
        if let Some(trace) = trace {
            trace.finish();
        }
        self.note_cancel(&result);
        result.map(|(ids, _)| ids)
    }

    /// The table's cracker for `column`, building it on first use. A
    /// build races mutations benignly: the generation counter is read
    /// before the data snapshot, and a cracker whose generation went
    /// stale by install time serves this one call but is never
    /// installed — the next call rebuilds from current data.
    fn ensure_cracker(&self, st: &TableState, column: &str) -> Result<Arc<ConcurrentCracker>> {
        if let Some(c) = st.crackers.lock().get(column) {
            return Ok(Arc::clone(c));
        }
        let built_at = st.generation.load(Ordering::SeqCst);
        let t = st.snapshot();
        let col = t.column(column)?;
        let values = col
            .as_i64()
            .ok_or_else(|| StorageError::TypeMismatch {
                column: column.to_owned(),
                expected: "Int64",
                found: col.data_type().name(),
            })?
            .to_vec();
        let cracker = Arc::new(ConcurrentCracker::new(values));
        let mut map = st.crackers.lock();
        if st.generation.load(Ordering::SeqCst) == built_at {
            let entry = map
                .entry(column.to_owned())
                .or_insert_with(|| Arc::clone(&cracker));
            return Ok(Arc::clone(entry));
        }
        Ok(cracker)
    }

    /// Pieces the adaptive index on (table, column) currently has —
    /// observability for convergence. For a sharded table, the sum of
    /// per-shard piece counts.
    pub fn index_pieces(&self, table: &str, column: &str) -> Option<usize> {
        let st = self.catalog.read().get(table).cloned()?;
        let cracker = st.crackers.lock().get(column).map(Arc::clone);
        if let Some(c) = cracker {
            return Some(c.num_pieces());
        }
        st.mirror().and_then(|m| m.index_pieces(column))
    }

    /// Build (or rebuild) the sample catalog enabling approximate
    /// queries on a table. Honors the session cancel token and deadline
    /// (checked between samples) and records a `sample.build` span and
    /// counter when observability is on.
    pub fn build_samples(
        &self,
        table: &str,
        fractions: &[f64],
        stratify_on: &[(&str, usize)],
        seed: u64,
    ) -> Result<()> {
        let trace = self.start_trace(table, || {
            format!(
                "build_samples({} samples)",
                fractions.len() + stratify_on.len()
            )
        });
        let ctx = self.query_ctx().with_trace(trace.as_ref());
        let start = ctx.trace.map(|t| t.now_ns());
        let result = self.table_state(table).and_then(|st| {
            let t = st.snapshot();
            SampleCatalog::build(&t, fractions, stratify_on, seed, &ctx)
        });
        if let Some((t, s)) = ctx.trace.zip(start) {
            t.record(ROOT_SPAN, SpanKind::Stage("sample.build"), s, t.now_ns());
            t.metrics().inc("sample.builds", 1);
        }
        if let Some(trace) = trace {
            trace.finish();
        }
        self.note_cancel(&result);
        let catalog = result?;
        self.samples
            .write()
            .insert(table.to_owned(), Arc::new(catalog));
        Ok(())
    }

    /// BlinkDB-style bounded approximate aggregate. Requires
    /// [`build_samples`](Self::build_samples) first.
    pub fn approx_aggregate(
        &self,
        table: &str,
        predicate: &Predicate,
        func: AggFunc,
        column: &str,
        bound: Bound,
    ) -> Result<BoundedAnswer> {
        let st = self.table_state(table)?;
        let samples = self.samples.read().get(table).cloned().ok_or_else(|| {
            StorageError::InvalidQuery(format!(
                "no sample catalog for {table}; call build_samples first"
            ))
        })?;
        // Epoch before snapshot, like every cache-admitting path.
        let epoch = self.result_cache.epoch(table);
        let t = st.snapshot();
        let mut ex = BoundedExecutor::new(&t, &samples);
        if self.cache_on() {
            ex = ex.with_cache(Arc::clone(&self.result_cache), table, epoch);
        }
        if self.obs_on() {
            ex = ex.with_metrics(self.obs.metrics());
        }
        let trace = self.start_trace(table, || {
            format!("approx {func}({column}) where {predicate}")
        });
        let ctx = self.query_ctx().with_trace(trace.as_ref());
        let start = trace.as_ref().map(|t| t.now_ns());
        let ans = ex.aggregate(predicate, func, column, bound, &ctx);
        if let Some((t, start)) = trace.as_ref().zip(start) {
            if let Ok(ans) = &ans {
                t.record(
                    ROOT_SPAN,
                    SpanKind::Aqp {
                        fraction_bp: (ans.fraction_used * 10_000.0).round() as u32,
                        rows_scanned: ans.rows_scanned.min(u32::MAX as usize) as u32,
                        exact: ans.exact,
                    },
                    start,
                    t.now_ns(),
                );
            }
        }
        if let Some(trace) = trace {
            trace.finish();
        }
        self.note_cancel(&ans);
        ans
    }

    /// A speculative range-aggregate executor over a snapshot of
    /// `table`, prefetching up to `budget` neighboring requests per
    /// call. With caching on it shares the engine's result cache, so
    /// speculatively computed aggregates are visible to
    /// [`ExploreDb::query`] and vice versa.
    pub fn speculator(&self, table: &str, budget: usize) -> Result<SpeculativeExecutor> {
        let st = self.table_state(table)?;
        // Epoch before snapshot: a mutation racing this attach leaves
        // the executor admitting under a dead epoch — refused entries,
        // never stale ones.
        let epoch = self.result_cache.epoch(table);
        let t = st.snapshot();
        let mut ex = SpeculativeExecutor::new(t, budget).with_cancel(self.session_token());
        if self.cache_on() {
            ex = ex.with_shared_cache(Arc::clone(&self.result_cache), table, epoch);
        }
        if self.obs_on() {
            ex = ex.with_metrics(self.obs.metrics());
        }
        Ok(ex)
    }

    /// Start an online aggregation whose confidence interval the caller
    /// can watch shrink. The session inherits the engine's cancel token
    /// (or a deadline token whose clock starts now), so `step`/`run_until`
    /// stop within one batch of a trigger; an `aqp.online` span and
    /// counter are recorded when observability is on.
    pub fn online_aggregate(
        &self,
        table: &str,
        predicate: &Predicate,
        func: AggFunc,
        column: &str,
        confidence: f64,
        seed: u64,
    ) -> Result<OnlineAggregation> {
        let trace = self.start_trace(table, || {
            format!("online {func}({column}) where {predicate}")
        });
        let start = trace.as_ref().map(|t| t.now_ns());
        let oa = self
            .table_state(table)
            .and_then(|st| {
                let t = st.snapshot();
                OnlineAggregation::start(&t, predicate, func, column, confidence, seed)
            })
            .map(|oa| oa.with_cancel(self.session_token()));
        if let Some((t, s)) = trace.as_ref().zip(start) {
            t.record(ROOT_SPAN, SpanKind::Stage("aqp.online"), s, t.now_ns());
            t.metrics().inc("aqp.online_sessions", 1);
        }
        if let Some(trace) = trace {
            trace.finish();
        }
        oa
    }

    /// SeeDB: recommend the `k` most deviating views of `target` rows
    /// vs the rest of the table, using the shared-scan strategy. The
    /// shared scan checks the session cancel token and deadline every
    /// few thousand rows; a cancelled call leaves the engine serving
    /// exact truth as if it never ran.
    pub fn recommend_views(
        &self,
        table: &str,
        target: &Predicate,
        k: usize,
    ) -> Result<Vec<ScoredView>> {
        let t = self.table(table)?;
        let trace = self.start_trace(table, || format!("recommend_views(k={k})"));
        let ctx = self.query_ctx().with_trace(trace.as_ref());
        let views = candidate_views(&t, &[AggFunc::Count, AggFunc::Sum, AggFunc::Avg]);
        let mut stats = SeedbStats::default();
        let start = ctx.trace.map(|t| t.now_ns());
        let result = recommend_shared(&t, target, &views, k, &mut stats, &ctx);
        if let Some((t, s)) = ctx.trace.zip(start) {
            t.record(ROOT_SPAN, SpanKind::Stage("viz.recommend"), s, t.now_ns());
            t.metrics().inc("viz.recommendations", 1);
        }
        if let Some(trace) = trace {
            trace.finish();
        }
        self.note_cancel(&result);
        result
    }

    /// Build (or rebuild) the AQUA-style synopsis store for a table.
    pub fn build_synopses(&self, table: &str, buckets: usize) -> Result<()> {
        let t = self.table(table)?;
        self.synopses.write().insert(
            table.to_owned(),
            Arc::new(SynopsisStore::build(&t, buckets)),
        );
        Ok(())
    }

    /// Estimate `COUNT(*) WHERE low <= column < high` from synopses
    /// alone (no base-data access). Requires `build_synopses` first.
    pub fn estimate_range_count(
        &self,
        table: &str,
        column: &str,
        low: f64,
        high: f64,
    ) -> Result<SynopsisAnswer> {
        self.estimate_with(table, |s| s.range_count(column, low, high))
    }

    /// Estimate `COUNT(*) WHERE column = value` for a string column.
    pub fn estimate_point_count(
        &self,
        table: &str,
        column: &str,
        value: &str,
    ) -> Result<SynopsisAnswer> {
        self.estimate_with(table, |s| s.point_count(column, value))
    }

    /// Estimate `COUNT(DISTINCT column)` for a string column.
    pub fn estimate_distinct(&self, table: &str, column: &str) -> Result<SynopsisAnswer> {
        self.estimate_with(table, |s| s.distinct_count(column))
    }

    /// Shared wrapper for the synopsis estimators: cancel/deadline check
    /// up front (estimates are single-step), `synopsis.estimate` span
    /// and counter when observability is on.
    fn estimate_with(
        &self,
        table: &str,
        f: impl FnOnce(&SynopsisStore) -> Result<SynopsisAnswer>,
    ) -> Result<SynopsisAnswer> {
        let ctx = self.query_ctx();
        ctx.check_cancel()?;
        let store = self.synopsis_store(table)?;
        let trace = self.start_trace(table, || "synopsis estimate".to_owned());
        let start = trace.as_ref().map(|t| t.now_ns());
        let result = f(&store);
        if let Some((t, s)) = trace.as_ref().zip(start) {
            t.record(
                ROOT_SPAN,
                SpanKind::Stage("synopsis.estimate"),
                s,
                t.now_ns(),
            );
            t.metrics().inc("synopsis.estimates", 1);
        }
        if let Some(trace) = trace {
            trace.finish();
        }
        result
    }

    fn synopsis_store(&self, table: &str) -> Result<Arc<SynopsisStore>> {
        self.synopses.read().get(table).cloned().ok_or_else(|| {
            StorageError::InvalidQuery(format!(
                "no synopses for {table}; call build_synopses first"
            ))
        })
    }

    /// YmalDB-style facets: attribute values over-represented in the
    /// rows matching `predicate`, ranked by lift.
    pub fn facets(
        &self,
        table: &str,
        predicate: &Predicate,
        min_support: usize,
        k: usize,
    ) -> Result<Vec<explore_explore::Facet>> {
        let t = self.table(table)?;
        let trace = self.start_trace(table, || format!("facets(k={k}) where {predicate}"));
        let ctx = self.query_ctx().with_trace(trace.as_ref());
        let result = explore_exec::evaluate_selection(&t, predicate, &ctx)
            .and_then(|rows| explore_explore::faceted_recommendations(&t, &rows, min_support, k));
        if let Some(trace) = trace {
            trace.finish();
        }
        self.note_cancel(&result);
        result
    }

    /// Diversified top-k rows: relevance from a numeric column, pairwise
    /// distance over numeric feature columns, MMR with trade-off λ.
    /// Returns base-table row ids.
    pub fn diversified_topk(
        &self,
        table: &str,
        predicate: &Predicate,
        relevance_col: &str,
        feature_cols: &[&str],
        k: usize,
        lambda: f64,
    ) -> Result<Vec<u32>> {
        let t = self.table(table)?;
        let trace = self.start_trace(table, || format!("diversified_topk(k={k}, λ={lambda})"));
        let ctx = self.query_ctx().with_trace(trace.as_ref());
        let start = ctx.trace.map(|t| t.now_ns());
        let result =
            Self::diversify_rows(&t, predicate, relevance_col, feature_cols, k, lambda, &ctx);
        if let Some((t, s)) = ctx.trace.zip(start) {
            t.record(ROOT_SPAN, SpanKind::Stage("div.topk"), s, t.now_ns());
            t.metrics().inc("div.topk", 1);
        }
        if let Some(trace) = trace {
            trace.finish();
        }
        self.note_cancel(&result);
        result
    }

    /// The selection + item construction + MMR core of
    /// [`ExploreDb::diversified_topk`].
    fn diversify_rows(
        t: &Table,
        predicate: &Predicate,
        relevance_col: &str,
        feature_cols: &[&str],
        k: usize,
        lambda: f64,
        ctx: &QueryCtx,
    ) -> Result<Vec<u32>> {
        let rows = explore_exec::evaluate_selection(t, predicate, ctx)?;
        let rel = t.column(relevance_col)?;
        let feats: Vec<&explore_storage::Column> = feature_cols
            .iter()
            .map(|c| t.column(c))
            .collect::<Result<_>>()?;
        let mut items = Vec::with_capacity(rows.len());
        for &row in &rows {
            let r = row as usize;
            let relevance = rel
                .numeric_at(r)
                .ok_or_else(|| StorageError::TypeMismatch {
                    column: relevance_col.to_owned(),
                    expected: "numeric",
                    found: rel.data_type().name(),
                })?;
            let features = feats
                .iter()
                .enumerate()
                .map(|(fi, c)| {
                    c.numeric_at(r).ok_or_else(|| StorageError::TypeMismatch {
                        column: feature_cols[fi].to_owned(),
                        expected: "numeric",
                        found: c.data_type().name(),
                    })
                })
                .collect::<Result<Vec<f64>>>()?;
            items.push(explore_diversify::Item::new(row, relevance, features));
        }
        let mut stats = explore_diversify::DivStats::default();
        explore_diversify::mmr(&items, k, lambda, &[], &mut stats, ctx)
    }

    /// VizDeck: deal the top-`k` chart proposals for a table. The
    /// deal is single-pass; the session cancel token and deadline are
    /// checked up front, and a `viz.propose` span and counter are
    /// recorded when observability is on.
    pub fn propose_charts(&self, table: &str, k: usize) -> Result<Vec<explore_viz::ChartProposal>> {
        let ctx = self.query_ctx();
        ctx.check_cancel()?;
        let t = self.table(table)?;
        let trace = self.start_trace(table, || format!("propose_charts(k={k})"));
        let start = trace.as_ref().map(|t| t.now_ns());
        let result = explore_viz::propose_charts(&t, k);
        if let Some((t, s)) = trace.as_ref().zip(start) {
            t.record(ROOT_SPAN, SpanKind::Stage("viz.propose"), s, t.now_ns());
            t.metrics().inc("viz.proposals", 1);
        }
        if let Some(trace) = trace {
            trace.finish();
        }
        result
    }

    /// Discovery-driven cube exploration: score every cell of
    /// `SUM(measure) GROUP BY dim_a, dim_b` against the independence
    /// model. The grouped query runs through the engine's routed
    /// pipeline, so it honors caching, tracing, deadlines, the session
    /// cancel token and fail points like any other query; a
    /// `cube.discover` span and counter are recorded when observability
    /// is on.
    pub fn discover_cube(
        &self,
        table: &str,
        dim_a: &str,
        dim_b: &str,
        measure: &str,
    ) -> Result<DiscoveryView> {
        let trace = self.start_trace(table, || {
            format!("discover_cube({dim_a}, {dim_b}, {measure})")
        });
        let ctx = self.query_ctx().with_trace(trace.as_ref());
        let query = Query::new()
            .group(dim_a)
            .group(dim_b)
            .agg(AggFunc::Sum, measure);
        let start = ctx.trace.map(|t| t.now_ns());
        let result = self
            .run_routed(table, &query, &ctx)
            .and_then(|grouped| DiscoveryView::from_grouped(&grouped, dim_a, dim_b, measure));
        if let Some((t, s)) = ctx.trace.zip(start) {
            t.record(ROOT_SPAN, SpanKind::Stage("cube.discover"), s, t.now_ns());
            t.metrics().inc("cube.discoveries", 1);
        }
        if let Some(trace) = trace {
            trace.finish();
        }
        self.note_cancel(&result);
        result
    }

    /// A DICE-style speculative cube session over `table`. The session
    /// holds its own cube lattice built from a snapshot of the table; it
    /// inherits the engine's session cancel token (or a deadline token
    /// whose clock starts now), and emits `cube.*` counters into the
    /// engine's metrics registry when observability is on.
    pub fn cube_session(
        &self,
        table: &str,
        dims: &[&str],
        measure: &str,
        func: AggFunc,
        speculate: bool,
    ) -> Result<CubeSession> {
        let t = self.table(table)?;
        let cube = DataCube::new((*t).clone(), dims, measure, func)?;
        let mut session = CubeSession::new(cube, speculate).with_cancel(self.session_token());
        if self.obs_on() {
            session = session.with_metrics(Some(self.obs.metrics()));
        }
        Ok(session)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use explore_storage::csv::write_csv;
    use explore_storage::gen::{sales_table, SalesConfig};

    fn engine_with_sales(rows: usize) -> ExploreDb {
        let db = ExploreDb::new();
        db.register(
            "sales",
            sales_table(&SalesConfig {
                rows,
                ..SalesConfig::default()
            }),
        );
        db
    }

    #[test]
    fn exact_queries_route_to_memory_and_raw() {
        let t = sales_table(&SalesConfig {
            rows: 300,
            ..SalesConfig::default()
        });
        let db = ExploreDb::new();
        db.register("mem", t.clone());
        db.attach_raw(
            "raw",
            RawCsv::new(write_csv(&t), t.schema().clone()).unwrap(),
        );
        let q = Query::new()
            .filter(Predicate::eq("region", "region0"))
            .agg(AggFunc::Count, "qty");
        let a = db.query("mem", &q).unwrap();
        let b = db.query("raw", &q).unwrap();
        assert_eq!(a, b);
        assert_eq!(db.tables(), vec!["mem", "raw"]);
        assert_eq!(db.loading_progress("mem"), None);
        let (loaded, total) = db.loading_progress("raw").unwrap();
        assert_eq!(total, 6);
        assert!(loaded >= 2, "region + qty touched");
    }

    #[test]
    fn cracked_range_matches_scan_and_converges() {
        let db = engine_with_sales(5000);
        let ids = db.cracked_range("sales", "qty", 3, 7).unwrap();
        let scan = Predicate::range("qty", 3i64, 7i64)
            .evaluate(&db.table("sales").unwrap())
            .unwrap();
        let mut got = ids.clone();
        got.sort_unstable();
        assert_eq!(got, scan);
        let p1 = db.index_pieces("sales", "qty").unwrap();
        db.cracked_range("sales", "qty", 2, 5).unwrap();
        assert!(db.index_pieces("sales", "qty").unwrap() >= p1);
        assert!(db.index_pieces("sales", "price").is_none());
    }

    #[test]
    fn cracking_non_int_column_errors() {
        let db = engine_with_sales(100);
        assert!(db.cracked_range("sales", "price", 0, 1).is_err());
        assert!(db.cracked_range("nope", "qty", 0, 1).is_err());
    }

    #[test]
    fn approximate_aggregation_via_catalog() {
        let db = engine_with_sales(50_000);
        assert!(
            db.approx_aggregate(
                "sales",
                &Predicate::True,
                AggFunc::Avg,
                "price",
                Bound::RowBudget { rows: 1000 },
            )
            .is_err(),
            "needs samples first"
        );
        db.build_samples("sales", &[0.01, 0.1], &[("region", 100)], 7)
            .unwrap();
        let ans = db
            .approx_aggregate(
                "sales",
                &Predicate::True,
                AggFunc::Avg,
                "price",
                Bound::RelativeError {
                    target: 0.05,
                    confidence: 0.95,
                },
            )
            .unwrap();
        let truth = {
            let t = db.table("sales").unwrap();
            let p = t.column("price").unwrap().as_f64().unwrap();
            p.iter().sum::<f64>() / p.len() as f64
        };
        assert!((ans.interval.estimate - truth).abs() / truth < 0.1);
    }

    #[test]
    fn online_aggregation_runs() {
        let db = engine_with_sales(20_000);
        let mut oa = db
            .online_aggregate("sales", &Predicate::True, AggFunc::Avg, "price", 0.95, 3)
            .unwrap();
        let trace = oa.run_until(0.02, 500).unwrap();
        assert!(!trace.is_empty());
        assert!(trace.last().unwrap().processed < 20_000);
    }

    #[test]
    fn facets_surface_the_selected_value() {
        let db = engine_with_sales(10_000);
        let facets = db
            .facets("sales", &Predicate::eq("channel", "channel1"), 10, 5)
            .unwrap();
        let top = facets.iter().find(|f| f.column == "channel").unwrap();
        assert_eq!(top.value, "channel1");
        assert!(top.lift > 1.0);
        assert!(db.facets("nope", &Predicate::True, 1, 5).is_err());
    }

    #[test]
    fn diversified_topk_returns_distinct_rows() {
        let db = engine_with_sales(5_000);
        let ids = db
            .diversified_topk(
                "sales",
                &Predicate::True,
                "price",
                &["price", "discount", "qty"],
                10,
                0.4,
            )
            .unwrap();
        assert_eq!(ids.len(), 10);
        let set: std::collections::HashSet<u32> = ids.iter().copied().collect();
        assert_eq!(set.len(), 10);
        // λ=1 must return the plain top-k by relevance.
        let plain = db
            .diversified_topk("sales", &Predicate::True, "price", &["qty"], 5, 1.0)
            .unwrap();
        let t = db.table("sales").unwrap();
        let prices = t.column("price").unwrap().as_f64().unwrap();
        let mut by_price: Vec<u32> = (0..t.num_rows() as u32).collect();
        by_price.sort_by(|&a, &b| prices[b as usize].total_cmp(&prices[a as usize]));
        let mut a = plain.clone();
        a.sort_unstable();
        let mut b = by_price[..5].to_vec();
        b.sort_unstable();
        assert_eq!(a, b);
        // String feature columns error.
        assert!(db
            .diversified_topk("sales", &Predicate::True, "region", &["qty"], 5, 0.5)
            .is_err());
    }

    #[test]
    fn chart_proposals_rank() {
        let db = engine_with_sales(2_000);
        let deck = db.propose_charts("sales", 5).unwrap();
        assert_eq!(deck.len(), 5);
        assert!(deck.windows(2).all(|w| w[0].score >= w[1].score));
    }

    #[test]
    fn cached_queries_are_bit_identical_and_counted() {
        let plain = engine_with_sales(4_000);
        let cached = ExploreDb::with_cache_policy(CachePolicy::on());
        cached.register("sales", plain.table("sales").unwrap().clone());
        let q = Query::new()
            .filter(Predicate::range("price", 100.0, 600.0))
            .group("region")
            .agg(AggFunc::Sum, "price");
        let truth = plain.query("sales", &q).unwrap();
        let cold = cached.query("sales", &q).unwrap();
        let warm = cached.query("sales", &q).unwrap();
        assert_eq!(truth, cold);
        assert_eq!(truth, warm);
        let stats = cached.cache_stats();
        assert_eq!(stats.hits, 1);
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.insertions, 1);
        // A contained range is served by subsumption, still bit-identical.
        let narrow = Query::new()
            .filter(Predicate::range("price", 200.0, 500.0))
            .group("region")
            .agg(AggFunc::Sum, "price");
        assert_eq!(
            plain.query("sales", &narrow).unwrap(),
            cached.query("sales", &narrow).unwrap()
        );
        assert_eq!(cached.cache_stats().subsumption_hits, 1);
    }

    #[test]
    fn mutations_bump_epochs_and_invalidate() {
        let db = ExploreDb::with_cache_policy(CachePolicy::on());
        db.register(
            "sales",
            sales_table(&SalesConfig {
                rows: 2_000,
                ..SalesConfig::default()
            }),
        );
        assert_eq!(db.table_epoch("sales"), 0);
        let q = Query::new().agg(AggFunc::Sum, "qty");
        let before = db.query("sales", &q).unwrap();
        let row = db.table("sales").unwrap().row(0).unwrap();
        db.push_row("sales", row).unwrap();
        assert_eq!(db.table_epoch("sales"), 1);
        let after = db.query("sales", &q).unwrap();
        assert_ne!(before, after, "append must change SUM(qty)");
        assert!(db.cache_stats().invalidations >= 1);

        // update_where: type mismatch is rejected atomically, a real
        // update lands and bumps the epoch.
        assert!(db
            .update_where("sales", &Predicate::True, "qty", Value::from("oops"))
            .is_err());
        assert_eq!(
            db.table_epoch("sales"),
            1,
            "failed update is not a mutation"
        );
        let n = db
            .update_where(
                "sales",
                &Predicate::cmp("qty", explore_storage::CmpOp::Ge, 0i64),
                "qty",
                Value::Int(1),
            )
            .unwrap();
        assert!(n > 0);
        assert_eq!(db.table_epoch("sales"), 2);
        let uniform = db.query("sales", &q).unwrap();
        let rows = db.table("sales").unwrap().num_rows() as i64;
        assert_eq!(
            uniform.column("sum(qty)").unwrap().as_f64().unwrap()[0],
            rows as f64
        );

        // Matching zero rows mutates nothing.
        let zero = db
            .update_where(
                "sales",
                &Predicate::cmp("qty", explore_storage::CmpOp::Lt, -5i64),
                "qty",
                Value::Int(9),
            )
            .unwrap();
        assert_eq!(zero, 0);
        assert_eq!(db.table_epoch("sales"), 2);

        // Re-registering a name invalidates it; appending a table bumps.
        let copy = db.table("sales").unwrap().clone();
        db.register("sales", copy.clone());
        assert_eq!(db.table_epoch("sales"), 3);
        db.append_rows("sales", &copy).unwrap();
        assert_eq!(db.table_epoch("sales"), 4);
        assert_eq!(db.table("sales").unwrap().num_rows(), 2 * copy.num_rows());
    }

    #[test]
    fn cracking_reorganization_bumps_epoch() {
        let db = ExploreDb::with_cache_policy(CachePolicy::on());
        db.register(
            "sales",
            sales_table(&SalesConfig {
                rows: 3_000,
                ..SalesConfig::default()
            }),
        );
        let e0 = db.table_epoch("sales");
        db.cracked_range("sales", "qty", 3, 7).unwrap();
        let e1 = db.table_epoch("sales");
        assert!(e1 > e0, "first crack reorganizes");
        // A repeated identical query adds no pieces, so no bump.
        db.cracked_range("sales", "qty", 3, 7).unwrap();
        assert_eq!(db.table_epoch("sales"), e1);
        // Mutation drops the adaptive index entirely.
        let row = db.table("sales").unwrap().row(0).unwrap();
        db.push_row("sales", row).unwrap();
        assert!(db.index_pieces("sales", "qty").is_none());
    }

    #[test]
    fn cache_policy_off_keeps_epochs() {
        let db = engine_with_sales(500);
        assert!(!db.cache_policy().is_on());
        let row = db.table("sales").unwrap().row(0).unwrap();
        db.push_row("sales", row).unwrap();
        assert_eq!(db.table_epoch("sales"), 1, "epochs advance even when Off");
        db.set_cache_policy(CachePolicy::on());
        assert!(db.cache_policy().is_on());
        assert_eq!(db.table_epoch("sales"), 1);
    }

    #[test]
    fn obs_on_records_traces_and_metrics() {
        let db = ExploreDb::with_obs_policy(ObsPolicy::on());
        db.set_cache_policy(CachePolicy::on());
        db.register(
            "sales",
            sales_table(&SalesConfig {
                rows: 4_000,
                ..SalesConfig::default()
            }),
        );
        let q = Query::new()
            .filter(Predicate::range("price", 100.0, 600.0))
            .group("region")
            .agg(AggFunc::Sum, "price");
        db.query("sales", &q).unwrap(); // miss
        db.query("sales", &q).unwrap(); // exact hit
        let traces = db.recent_traces();
        assert_eq!(traces.len(), 2);
        assert!(traces.iter().all(QueryTrace::is_well_formed));
        assert_eq!(traces[0].spans_labelled("cache.miss").len(), 1);
        assert_eq!(traces[1].spans_labelled("cache.hit").len(), 1);
        assert!(
            traces[0].spans_labelled("exec").len() >= 2,
            "filter + replay"
        );
        assert!(
            traces[1].spans_labelled("exec").is_empty(),
            "hit runs nothing"
        );
        let snap = db.metrics_snapshot();
        assert_eq!(snap.counter("query.traced"), 2);
        assert_eq!(snap.counter("cache.hits"), 1);
        assert_eq!(snap.counter("cache.misses"), 1);
        assert_eq!(snap.counter("cache.insertions"), 1);
        // The resident-superset gauges mirror `CacheStats`.
        let stats = db.cache_stats();
        assert_eq!(stats.reuse_entries, 1);
        assert_eq!(snap.counter("cache.reuse_entries"), 1);
        assert_eq!(snap.counter("cache.reuse_bytes"), stats.reuse_bytes as u64);
        assert_eq!(snap.histogram("query.latency_ns").unwrap().count, 2);

        // Cracking records a crack span and the reorganization counter.
        db.cracked_range("sales", "qty", 3, 7).unwrap();
        let last = db.recent_traces().pop().unwrap();
        assert_eq!(last.spans_labelled("crack").len(), 1);
        assert_eq!(db.metrics_snapshot().counter("crack.reorganizations"), 1);

        // Off again: recording stops, history is retained.
        db.set_obs_policy(ObsPolicy::Off);
        db.query("sales", &q).unwrap();
        assert_eq!(db.recent_traces().len(), 3);
        assert_eq!(db.metrics_snapshot().counter("query.traced"), 3);
    }

    #[test]
    fn obs_off_by_default_and_results_identical() {
        let plain = engine_with_sales(3_000);
        let traced = ExploreDb::with_obs_policy(ObsPolicy::on());
        traced.register("sales", plain.table("sales").unwrap().clone());
        assert!(!plain.obs_policy().is_on());
        assert!(traced.obs_policy().is_on());
        let q = Query::new()
            .filter(Predicate::cmp("qty", explore_storage::CmpOp::Ge, 5.0))
            .select(&["region", "price"])
            .order("price", explore_storage::SortOrder::Desc)
            .take(100);
        assert_eq!(
            plain.query("sales", &q).unwrap(),
            traced.query("sales", &q).unwrap()
        );
        assert!(plain.recent_traces().is_empty());
        assert_eq!(plain.metrics_snapshot().counter("query.traced"), 0);
    }

    #[test]
    fn explain_renders_a_profile_regardless_of_policy() {
        let db = engine_with_sales(2_000);
        assert!(!db.obs_policy().is_on());
        let q = Query::new()
            .filter(Predicate::range("price", 100.0, 500.0))
            .group("region")
            .agg(AggFunc::Avg, "price");
        let report = db.explain("sales", &q).unwrap();
        assert!(report.contains("total:"), "{report}");
        assert!(report.contains("exec"), "{report}");
        assert!(report.contains("morsel"), "{report}");
        // The profiled query ran for real and reflects live routing.
        db.set_cache_policy(CachePolicy::on());
        db.query("sales", &q).unwrap();
        let warm = db.explain("sales", &q).unwrap();
        assert!(warm.contains("cache lookup → hit"), "{warm}");
        // Errors surface as errors, not as reports.
        let bad = Query::new().filter(Predicate::cmp("no_such", explore_storage::CmpOp::Eq, 1.0));
        assert!(db.explain("sales", &bad).is_err());
    }

    #[test]
    fn obs_covers_aqp_and_speculation() {
        let db = ExploreDb::with_obs_policy(ObsPolicy::on());
        db.register(
            "sales",
            sales_table(&SalesConfig {
                rows: 20_000,
                ..SalesConfig::default()
            }),
        );
        db.build_samples("sales", &[0.01, 0.1], &[], 7).unwrap();
        db.approx_aggregate(
            "sales",
            &Predicate::True,
            AggFunc::Avg,
            "price",
            Bound::RowBudget { rows: 2_500 },
        )
        .unwrap();
        let trace = db.recent_traces().pop().unwrap();
        assert_eq!(trace.spans_labelled("aqp").len(), 1);
        let snap = db.metrics_snapshot();
        assert_eq!(snap.counter("aqp.answers"), 1);

        let spec = db.speculator("sales", 2).unwrap();
        spec.execute(&explore_prefetch::RangeRequest {
            column: "qty".into(),
            low: 2,
            high: 5,
            func: AggFunc::Sum,
            measure: "price".into(),
        })
        .unwrap();
        let snap = db.metrics_snapshot();
        assert_eq!(snap.counter("prefetch.misses"), 1);
        assert_eq!(snap.counter("prefetch.speculative_runs"), 2);
    }

    #[test]
    fn sharded_engine_is_bitwise_and_observable() {
        use explore_shard::{ShardConfig, ShardPolicy};
        let plain = engine_with_sales(5_000);
        let db = ExploreDb::with_shard_policy(ShardPolicy::On(ShardConfig {
            count: 4,
            min_rows_per_shard: 1,
        }));
        assert!(db.shard_policy().is_on());
        db.register("sales", plain.table("sales").unwrap().clone());
        for q in [
            Query::new()
                .filter(Predicate::range("price", 100.0, 600.0))
                .group("region")
                .agg(AggFunc::Sum, "price"),
            Query::new()
                .filter(Predicate::eq("channel", "channel1"))
                .select(&["region", "price"])
                .order("price", explore_storage::SortOrder::Desc)
                .take(50),
        ] {
            assert_eq!(
                plain.query("sales", &q).unwrap(),
                db.query("sales", &q).unwrap()
            );
        }
        let stats = db.shard_stats("sales").unwrap();
        assert_eq!(stats.len(), 4);
        assert_eq!(stats.iter().map(|s| s.rows).sum::<usize>(), 5_000);
        assert!(plain.shard_stats("sales").is_none());

        // Cracking routes per shard and still matches a scan.
        let ids = db.cracked_range("sales", "qty", 3, 7).unwrap();
        let mut got = ids.clone();
        got.sort_unstable();
        let want = Predicate::range("qty", 3i64, 7i64)
            .evaluate(&plain.table("sales").unwrap())
            .unwrap();
        assert_eq!(got, want);
        assert!(db.index_pieces("sales", "qty").unwrap() >= 4);

        // Turning the policy off drops the mirrors; answers unchanged.
        db.set_shard_policy(ShardPolicy::Off);
        assert!(db.shard_stats("sales").is_none());
        let q = Query::new().agg(AggFunc::Sum, "qty");
        assert_eq!(
            plain.query("sales", &q).unwrap(),
            db.query("sales", &q).unwrap()
        );
    }

    #[test]
    fn shard_mutations_bump_only_the_owning_scope() {
        use explore_shard::{scoped_name, ShardConfig, ShardPolicy};
        let db = ExploreDb::with_shard_policy(ShardPolicy::On(ShardConfig {
            count: 4,
            min_rows_per_shard: 1,
        }));
        db.set_cache_policy(CachePolicy::on());
        db.register(
            "sales",
            sales_table(&SalesConfig {
                rows: 2_000,
                ..SalesConfig::default()
            }),
        );
        let before: Vec<u64> = (0..4)
            .map(|s| db.table_epoch(&scoped_name("sales", s)))
            .collect();
        let base = db.table_epoch("sales");

        // push_row appends to the last shard: only scope 3 bumps.
        let row = db.table("sales").unwrap().row(0).unwrap();
        db.push_row("sales", row).unwrap();
        assert_eq!(db.table_epoch("sales"), base + 1);
        for (s, &epoch) in before.iter().enumerate().take(3) {
            assert_eq!(db.table_epoch(&scoped_name("sales", s)), epoch);
        }
        assert_eq!(db.table_epoch(&scoped_name("sales", 3)), before[3] + 1);

        // The sharded mirror stays in sync with the canonical table.
        let q = Query::new().agg(AggFunc::Count, "qty");
        let n = db.query("sales", &q).unwrap();
        assert_eq!(
            n.column("count(qty)").unwrap().as_f64().unwrap()[0],
            2_001.0
        );

        // An external-channel mutation is conservative: every scope bumps.
        db.note_mutation("sales");
        for (s, &epoch) in before.iter().enumerate() {
            assert!(db.table_epoch(&scoped_name("sales", s)) > epoch);
        }
    }

    #[test]
    fn view_recommendation_returns_ranked_views() {
        let db = engine_with_sales(10_000);
        let views = db
            .recommend_views("sales", &Predicate::eq("product", "product0"), 5)
            .unwrap();
        assert_eq!(views.len(), 5);
        assert!(views.windows(2).all(|w| w[0].utility >= w[1].utility));
    }
}
