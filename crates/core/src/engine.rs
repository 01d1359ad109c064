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
//! lock-free thereafter against immutable `Table` snapshots. Each
//! table's rows live in exactly one place, its `ShardedTable` (one
//! shard unless the shard policy splits it); a mutation is one routed
//! write into that store under the table's writer mutex and the owning
//! shards' write locks, bumps epochs exactly as the serialized engine
//! did, and never blocks queries on *other* tables.
//!
//! Lock ordering is strictly catalog → store (writer mutex, then the
//! store slot) → shards (ascending), which makes deadlock impossible by
//! construction (DESIGN.md §14). Epochs are read **before** data
//! snapshots, so a racing mutation can only make a cache admission die
//! young, never go stale.
//!
//! # Call context
//!
//! An `ExploreDb` is a handle: an `Arc` of the shared engine state plus
//! one owned [`SessionCtx`] overlay, empty unless the handle is the one
//! [`ExploreDb::with_session`] passes its closure. Per-session knobs
//! (cancel token, deadline, policy overlays) therefore travel with `db`,
//! onto whatever thread the closure takes it. Each engine call lays the
//! overlay over the engine's one config record exactly once (`resolve`),
//! and each traced facade method is a closure run by one helper (`call`)
//! that owns the trace, the stage span and the `cancel.*` accounting.

use std::collections::HashMap;
use std::sync::Arc;

use explore_aqp::{
    Bound, BoundedAnswer, BoundedExecutor, OnlineAggregation, SynopsisAnswer, SynopsisStore,
};
use explore_cache::{CachePolicy, CacheStats, ResultCache};
use explore_cube::{CubeSession, DataCube, DiscoveryView};
use explore_exec::{ExecPolicy, QueryCtx};
use explore_fault::{CancelToken, FailPoints, Observer};
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

/// Everything the engine knows about one registered in-memory table,
/// shared via `Arc` so queries can keep using a state the catalog has
/// since replaced.
#[derive(Debug)]
struct TableState {
    /// The rows — the table's only copy — with their per-shard adaptive
    /// indexes. Readers clone the `Arc` under a brief read lock and take
    /// immutable snapshots from the store; writes route into it in
    /// place. The slot itself is replaced only when the rows are laid
    /// out afresh (re-registration, shard-policy change).
    store: RwLock<Arc<ShardedTable>>,
    /// The table's writer mutex, and the one thing derived from the rows
    /// that it guards: the whole-table view of a multi-shard store, a
    /// concatenation of one snapshot that whole-table consumers share
    /// until the next write clears it. Building it under the mutex is
    /// what keeps a racing write from leaving a stale view behind.
    whole: Mutex<Option<Arc<Table>>>,
}

impl TableState {
    /// The current row store.
    fn store(&self) -> Arc<ShardedTable> {
        Arc::clone(&self.store.read())
    }

    /// An immutable snapshot of the whole table: the one shard's own
    /// `Arc`, or the shared concatenation of a multi-shard store.
    fn whole(&self) -> Arc<Table> {
        let mut whole = self.whole.lock();
        if let Some(t) = &*whole {
            return Arc::clone(t);
        }
        let snap = self.store().snapshot();
        let t = snap.to_table();
        if snap.shard_count() > 1 {
            *whole = Some(Arc::clone(&t));
        }
        t
    }
}

/// The engine-wide policy defaults, one record behind one lock. Each
/// `set_*_policy` setter documents its policy and replaces its field
/// under the write lock; an engine call reads the record once, in
/// `resolve`. All default to their crate's default: morsel-parallel
/// exec, cache / shards / observability off, abort on a malformed row.
#[derive(Debug, Default)]
struct EngineConfig {
    exec: ExecPolicy,
    cache: CachePolicy,
    shard: ShardPolicy,
    obs: ObsPolicy,
    load_errors: ErrorPolicy,
}

/// The engine state every handle shares.
#[derive(Debug, Default)]
struct Shared {
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
    /// The policy defaults — the engine's only configuration lock.
    config: RwLock<EngineConfig>,
    /// The shared semantic result cache. Always allocated — it carries
    /// the per-table epoch counters even while the policy is `Off`, so
    /// flipping caching on later never resurrects pre-mutation entries.
    result_cache: Arc<ResultCache>,
    /// The engine's tracer + metrics owner. Always allocated; recording
    /// is gated by the obs policy and costs nothing while off.
    obs: Arc<Tracer>,
    /// Engine-wide deterministic fail-point registry. Disarmed (the
    /// default and only production state) every injection site costs one
    /// relaxed atomic load; tests arm named points to force the engine
    /// down its degradation paths. Shared with the result cache, every
    /// raw-table loader, and each exec call.
    faults: Arc<FailPoints>,
}

/// The unified exploration engine.
///
/// All query entry points take `&self` and the engine is `Sync`: share
/// one instance across threads (the serving layer does) and run reads
/// concurrently. Mutation entry points also take `&self` — they lock
/// only the table they touch.
#[derive(Debug)]
pub struct ExploreDb {
    shared: Arc<Shared>,
    /// The overlay every call on this handle resolves over the engine
    /// defaults: empty on a handle the caller built, the session's on
    /// the one [`ExploreDb::with_session`] hands its closure.
    session: SessionCtx,
}

/// One engine call's context: the handle's overlay laid over the config
/// record, resolved once so the call cannot see a policy change midway
/// (DESIGN.md §10).
struct Call<'t> {
    /// Exec policy, fail points, cancel token, deadline token (minted at
    /// resolution, so the budget's clock starts with the call), yield
    /// hook and, under [`ExploreDb::call`], the active trace.
    ctx: QueryCtx<'t>,
    cache_on: bool,
    obs_on: bool,
}

impl Call<'_> {
    /// One token for long-lived middleware sessions that outlive the
    /// engine call: the session cancel token when set, else the
    /// deadline token.
    fn session_token(&self) -> Option<CancelToken> {
        let QueryCtx {
            cancel, deadline, ..
        } = &self.ctx;
        cancel.clone().or_else(|| deadline.clone())
    }
}

impl Default for ExploreDb {
    fn default() -> Self {
        let shared = Arc::<Shared>::default();
        let faults = Arc::clone(&shared.faults);
        shared.result_cache.set_faults(Some(faults));
        let session = SessionCtx::default();
        ExploreDb { shared, session }
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

    /// Change the execution policy for subsequent queries. Serial and
    /// parallel produce bit-identical results (see `explore_exec`).
    pub fn set_exec_policy(&self, policy: ExecPolicy) {
        self.shared.config.write().exec = policy;
    }

    /// The current execution policy.
    pub fn exec_policy(&self) -> ExecPolicy {
        self.shared.config.read().exec
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
            self.shared.result_cache.set_config(config.clone());
        }
        self.shared.config.write().cache = policy;
    }

    /// The current cache policy.
    pub fn cache_policy(&self) -> CachePolicy {
        self.shared.config.read().cache.clone()
    }

    /// A fresh engine with table sharding enabled.
    pub fn with_shard_policy(policy: ShardPolicy) -> Self {
        let db = ExploreDb::default();
        db.set_shard_policy(policy);
        db
    }

    /// Turn table sharding on or off (and retune it). `On` splits every
    /// registered in-memory table into contiguous row-range shards, each
    /// with its own cracker state and cache-epoch scope; queries fan out
    /// per shard and merge bit-identically to the unsharded engine (see
    /// `explore_shard`). `Off` lays every table out as one shard again.
    /// Either way the rows move, they are never duplicated, and adaptive
    /// indexes restart from the new layout.
    pub fn set_shard_policy(&self, policy: ShardPolicy) {
        self.shared.config.write().shard = policy;
        let states = self.shared.catalog.read().clone();
        for (name, st) in states {
            self.reshard(&st, &name, None);
        }
    }

    /// The current shard policy.
    pub fn shard_policy(&self) -> ShardPolicy {
        self.shared.config.read().shard.clone()
    }

    /// Per-shard layout, epoch, and index statistics for a table, or
    /// `None` when the table is not split (one shard: policy off or too
    /// few rows; also a raw table or an unknown name).
    pub fn shard_stats(&self, table: &str) -> Option<Vec<ShardStats>> {
        let store = self.shared.catalog.read().get(table)?.store();
        let epoch_of = |i| self.shared.result_cache.epoch(&scoped_name(table, i));
        (store.shard_count() > 1).then(|| store.stats(epoch_of))
    }

    /// Lay `name`'s rows out afresh under the current shard policy:
    /// `replacement` when re-registering, else the concatenation of the
    /// current shards. Holds the table's writer mutex across the swap,
    /// then bumps every shard-scope epoch the change touches — the union
    /// of the old and new shard ranges — so cache entries under scoped
    /// names from any earlier layout never survive into the new one.
    fn reshard(&self, st: &TableState, name: &str, replacement: Option<Arc<Table>>) {
        let policy = self.shard_policy();
        let (old, new) = {
            let mut whole = st.whole.lock();
            let view = whole.take();
            let rows = replacement
                .or(view)
                .unwrap_or_else(|| st.store().snapshot().to_table());
            let new = Arc::new(ShardedTable::from_arc(name, rows, &policy));
            let old = std::mem::replace(&mut *st.store.write(), Arc::clone(&new));
            (old, new)
        };
        for s in 0..old.shard_count().max(new.shard_count()) {
            self.shared.result_cache.bump_epoch(&scoped_name(name, s));
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
    /// ring and copy engine counters into the metrics registry; `Off`
    /// (the default) stops recording but keeps what was collected.
    /// Either way results are bit-identical — observability never
    /// changes what executes.
    pub fn set_obs_policy(&self, policy: ObsPolicy) {
        let Shared { obs, faults, .. } = &*self.shared;
        obs.set_policy(&policy);
        let metrics = policy.is_on().then(|| obs.metrics());
        self.shared.result_cache.set_metrics(metrics);
        // Copy fault trips and degradation/cancellation events into
        // the metrics registry as `fault.*` / `cancel.*` counters.
        faults.set_observer(policy.is_on().then(|| {
            let metrics = obs.metrics();
            Arc::new(move |name: &str| metrics.inc(name, 1)) as Observer
        }));
        self.shared.config.write().obs = policy;
    }

    /// The current observability policy.
    pub fn obs_policy(&self) -> ObsPolicy {
        self.shared.config.read().obs.clone()
    }

    /// Handle to the engine's tracer, for wiring into external
    /// consumers or dumping traces out-of-band.
    pub fn tracer(&self) -> Arc<Tracer> {
        Arc::clone(&self.shared.obs)
    }

    /// Point-in-time snapshot of every engine counter and latency
    /// histogram collected while observability was on.
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        self.shared.obs.metrics().snapshot()
    }

    /// The most recent finished query traces, oldest first (bounded by
    /// the policy's ring capacity).
    pub fn recent_traces(&self) -> Vec<QueryTrace> {
        self.shared.obs.recent_traces()
    }

    /// Profile one query regardless of the observability policy and
    /// render its span tree as a human-readable report. The query
    /// executes for real (through the same cache/exec routing as
    /// [`ExploreDb::query`]), so the profile reflects live state —
    /// explaining a cached query shows the hit, not the original scan.
    pub fn explain(&self, table: &str, query: &Query) -> Result<String> {
        let run = |c: &Call| self.run_routed(table, query, c);
        let (result, trace) = self.call_traced(true, table, || query.describe(), None, run);
        result.map(|_| render_trace(&trace.expect("a forced call is traced")))
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
        Arc::clone(&self.shared.faults)
    }

    /// How raw-table loaders treat malformed CSV rows: `Abort` (the
    /// default) surfaces the first parse error, `SkipRow` tombstones the
    /// offending row and keeps serving. Applies to already-attached and
    /// future raw tables.
    pub fn set_load_error_policy(&self, policy: ErrorPolicy) {
        self.shared.config.write().load_errors = policy;
        let loaders: Vec<Arc<Mutex<AdaptiveLoader>>> =
            self.shared.raw.read().values().map(Arc::clone).collect();
        for loader in loaders {
            loader.lock().set_error_policy(policy);
        }
    }

    /// Rows skipped so far by a raw table's loader under
    /// [`ErrorPolicy::SkipRow`] (`None` for in-memory tables).
    pub fn rows_skipped(&self, table: &str) -> Option<u64> {
        let raw = self.shared.raw.read();
        raw.get(table).map(|l| l.lock().rows_skipped())
    }

    /// Snapshot of the shared cache's counters.
    pub fn cache_stats(&self) -> CacheStats {
        self.shared.result_cache.stats()
    }

    /// Handle to the shared result cache, for wiring into middleware
    /// sessions ([`SpeculativeExecutor::with_shared_cache`],
    /// `PanSession::with_shared_cache`, `BoundedExecutor::with_cache`).
    pub fn cache(&self) -> Arc<ResultCache> {
        Arc::clone(&self.shared.result_cache)
    }

    /// Current mutation epoch of a table (0 until first mutated).
    pub fn table_epoch(&self, table: &str) -> u64 {
        self.shared.result_cache.epoch(table)
    }

    /// Conservative whole-table invalidation: bumps the table's cache
    /// epoch and every shard-scope epoch (so no earlier result is ever
    /// served again) and drops the table's adaptive indexes. The engine
    /// never needs it — rows sit behind immutable `Arc` snapshots that
    /// only the mutation APIs below replace, and those invalidate
    /// precisely (only the owning shards' epochs and indexes) — so this
    /// is for callers whose own derived state went stale and who want
    /// the engine's to restart with it.
    pub fn note_mutation(&self, table: &str) {
        if let Some(st) = self.shared.catalog.read().get(table).cloned() {
            let store = st.store();
            self.note_shard_epochs(table, &store, 0..store.shard_count());
            store.drop_indexes();
        } else {
            self.shared.result_cache.bump_epoch(table);
        }
    }

    /// Record a change to the `mutated` shards of `store`: bump the base
    /// epoch (whole-table results die) and, where the store fans out,
    /// only those shards' scope epochs — the other shards' cached
    /// results are still exact, and keeping them live is the payoff of
    /// sharding. A one-shard store is queried under the base name alone.
    fn note_shard_epochs(
        &self,
        table: &str,
        store: &ShardedTable,
        mutated: impl IntoIterator<Item = usize>,
    ) {
        self.shared.result_cache.bump_epoch(table);
        if store.shard_count() > 1 {
            for s in mutated {
                self.shared.result_cache.bump_epoch(&scoped_name(table, s));
            }
        }
    }

    /// Resolve a table's shared state, or the typed unknown-table error.
    /// This is the query and mutation paths' single catalog touchpoint,
    /// and the `engine.catalog_read` fail point fires here — before the
    /// `Arc` clone, so an injected failure never hands out state.
    fn table_state(&self, table: &str) -> Result<Arc<TableState>> {
        if self.shared.faults.fire("engine.catalog_read") {
            return Err(StorageError::Internal(
                "injected catalog-read failure (engine.catalog_read)".into(),
            ));
        }
        let state = self.shared.catalog.read().get(table).cloned();
        state.ok_or_else(|| StorageError::UnknownTable(table.to_owned()))
    }

    /// The `engine.table_write` fail point, fired at the top of every
    /// mutation entry point — before any state changes, so an injected
    /// failure is always a clean no-op.
    fn fire_table_write(&self) -> Result<()> {
        if self.shared.faults.fire("engine.table_write") {
            return Err(StorageError::Internal(
                "injected table-write failure (engine.table_write)".into(),
            ));
        }
        Ok(())
    }

    /// Register an in-memory table (a `Table` or an `Arc<Table>`). The
    /// engine takes the rows over: unsharded it keeps the `Arc` it was
    /// given (no copy), sharded it splits them and lets the `Arc` go.
    /// Re-registering an existing name is a mutation: the old name's
    /// cache entries are invalidated and its adaptive indexes dropped.
    pub fn register(&self, name: impl Into<String>, table: impl Into<Arc<Table>>) {
        let name = name.into();
        let table = table.into();
        let existing = self.shared.catalog.read().get(&name).cloned();
        match existing {
            Some(st) => {
                // Data first, bump second: a reader that saw the old
                // epoch gets either old data (fine) or new data
                // admitted under the old epoch (dies at the bump) —
                // never new-epoch/old-data.
                self.reshard(&st, &name, Some(table));
                self.shared.result_cache.bump_epoch(&name);
            }
            None => {
                let store = ShardedTable::from_arc(name.as_str(), table, &self.shard_policy());
                let st = TableState {
                    store: RwLock::new(Arc::new(store)),
                    whole: Mutex::new(None),
                };
                self.shared.catalog.write().insert(name, Arc::new(st));
            }
        }
    }

    /// One routed write: run `f` against `table`'s store under the
    /// table's writer mutex — writers to one table serialize, so `f` may
    /// derive its write from a snapshot it takes — then clear the
    /// whole-table view and bump the epochs of the shards `f` reports it
    /// changed. Data first, epochs second; a write that changed nothing
    /// is not a mutation.
    fn write<T>(
        &self,
        table: &str,
        f: impl FnOnce(&ShardedTable) -> Result<(T, Vec<usize>)>,
    ) -> Result<T> {
        self.fire_table_write()?;
        let st = self.table_state(table)?;
        let (store, out, mutated) = {
            let mut whole = st.whole.lock();
            let store = st.store();
            let (out, mutated) = f(&store)?;
            if !mutated.is_empty() {
                *whole = None;
            }
            (store, out, mutated)
        };
        if !mutated.is_empty() {
            self.note_shard_epochs(table, &store, mutated);
        }
        Ok(out)
    }

    /// Append one row of dynamic values to an in-memory table.
    pub fn push_row(&self, table: &str, values: Vec<Value>) -> Result<()> {
        self.write(table, |store| Ok(((), vec![store.push_row(values)?])))
    }

    /// Append all rows of `rows` (identical schema) to an in-memory
    /// table.
    pub fn append_rows(&self, table: &str, rows: &Table) -> Result<()> {
        self.write(table, |store| Ok(((), vec![store.append_rows(rows)?])))
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
        self.write(table, |store| {
            // The global selection, from the store's own snapshot: each
            // shard's matches offset to global row ids, ascending. The
            // snapshot is let go before the write, which would otherwise
            // have to copy every shard it touches.
            let (sel, expected) = {
                let snap = store.snapshot();
                let mut sel = Vec::new();
                for s in 0..snap.shard_count() {
                    let start = snap.range(s).start as u32;
                    let local = predicate.evaluate(snap.table(s))?;
                    sel.extend(local.into_iter().map(|row| start + row));
                }
                (sel, snap.table(0).column(column)?.data_type())
            };
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
                return Ok((0, Vec::new()));
            }
            Ok((sel.len(), store.update_where(&sel, column, &value)?))
        })
    }

    /// Attach a raw CSV file; queries against it run through the NoDB
    /// adaptive loader until the workload has loaded it.
    pub fn attach_raw(&self, name: impl Into<String>, raw: RawCsv) {
        let mut loader = AdaptiveLoader::new(raw);
        loader.set_faults(Some(Arc::clone(&self.shared.faults)));
        loader.set_error_policy(self.shared.config.read().load_errors);
        let loader = Arc::new(Mutex::new(loader));
        self.shared.raw.write().insert(name.into(), loader);
    }

    /// Registered table names (in-memory, then raw).
    pub fn tables(&self) -> Vec<String> {
        let mut names: Vec<String> = self.shared.catalog.read().keys().cloned().collect();
        names.extend(self.shared.raw.read().keys().cloned());
        names.sort();
        names
    }

    /// The current snapshot of an in-memory table. The snapshot is
    /// immutable: later mutations replace the table's `Arc`, they never
    /// write through one you already hold.
    pub fn table(&self, name: &str) -> Result<Arc<Table>> {
        Ok(self.table_state(name)?.whole())
    }

    /// Run an exact query, routing to the right storage path. With
    /// caching on, in-memory tables are served through the semantic
    /// result cache (exact and subsumption reuse); raw tables always go
    /// through the adaptive loader, whose incremental load state is
    /// itself the cache. Takes `&self`: concurrent callers on different
    /// threads run genuinely in parallel.
    pub fn query(&self, table: &str, query: &Query) -> Result<Table> {
        let describe = || query.describe();
        self.call(table, describe, None, |c| self.run_routed(table, query, c))
    }

    /// Run `f` against a handle carrying `session`'s overlay: every
    /// engine call made through the `&ExploreDb` that `f` receives
    /// resolves the session's exec/cache/obs policies, deadline budget,
    /// cancel token, and yield hook *over* the engine defaults
    /// (DESIGN.md §10/§13). The overlay belongs to that handle, so it
    /// follows `db` onto any thread `f` takes it to, replaces an outer
    /// `with_session`'s overlay wholesale, and is gone when `f` returns
    /// or unwinds; calls on `self`, on other handles, and on other
    /// engines are unaffected.
    pub fn with_session<R>(&self, session: &SessionCtx, f: impl FnOnce(&ExploreDb) -> R) -> R {
        f(&ExploreDb {
            shared: Arc::clone(&self.shared),
            session: session.clone(),
        })
    }

    /// Lay this handle's overlay over the engine defaults — the one
    /// place the two meet. The deadline token is minted here, so each
    /// call gets the session's full budget. Cancellation and deadlines
    /// are session-scoped only: a call on a handle with no overlay runs
    /// to completion.
    fn resolve(&self) -> Call<'static> {
        let s = &self.session;
        let config = self.shared.config.read();
        Call {
            ctx: QueryCtx::new(s.exec.unwrap_or(config.exec))
                .with_faults(Some(Arc::clone(&self.shared.faults)))
                .with_cancel(s.cancel.clone())
                .with_deadline(s.deadline.map(CancelToken::with_deadline))
                .with_yield_hook(s.yield_hook.clone()),
            cache_on: s.cache.as_ref().unwrap_or(&config.cache).is_on(),
            obs_on: s.obs.as_ref().unwrap_or(&config.obs).is_on(),
        }
    }

    /// Run one traced facade call: [`Self::call_traced`], minus the
    /// finished trace.
    fn call<T>(
        &self,
        table: &str,
        describe: impl FnOnce() -> String,
        stage: Option<(&'static str, &'static str)>,
        body: impl FnOnce(&Call) -> Result<T>,
    ) -> Result<T> {
        self.call_traced(false, table, describe, stage, body).0
    }

    /// The protocol every traced facade method shares. Resolve the call
    /// context; start a trace when observability is on for this call
    /// (or `force`d — `explain`); run `body`; record `stage`'s span over
    /// it and bump its counter; finish the trace; count a cancelled or
    /// expired outcome as a `cancel.*` event (copied into obs metrics
    /// when observability is on).
    fn call_traced<T>(
        &self,
        force: bool,
        table: &str,
        describe: impl FnOnce() -> String,
        stage: Option<(&'static str, &'static str)>,
        body: impl FnOnce(&Call) -> Result<T>,
    ) -> (Result<T>, Option<QueryTrace>) {
        let Shared { obs, faults, .. } = &*self.shared;
        let call = self.resolve();
        let trace = (force || call.obs_on).then(|| obs.force_start(table, describe()));
        let ctx = call.ctx.with_trace(trace.as_ref());
        let start = ctx.trace.map(ActiveTrace::now_ns);
        let result = body(&Call { ctx, ..call });
        if let (Some((t, start)), Some((span, counter))) = (trace.as_ref().zip(start), stage) {
            t.record(ROOT_SPAN, SpanKind::Stage(span), start, t.now_ns());
            t.metrics().inc(counter, 1);
        }
        let finished = trace.map(ActiveTrace::finish);
        match &result {
            Err(StorageError::Cancelled) => faults.note("cancel.cancelled"),
            Err(StorageError::DeadlineExceeded) => faults.note("cancel.deadline_exceeded"),
            _ => {}
        }
        (result, finished)
    }

    /// The routing core of [`ExploreDb::query`], shared with
    /// [`ExploreDb::explain`]: raw tables go through the adaptive
    /// loader (recorded as one raw-load span), in-memory tables through
    /// the cache or the plain executor — directly on the one shard of an
    /// unsplit table, under the base table name, or fanned out over the
    /// shards of a split one. In-memory reads run lock-free against a
    /// snapshot of the store; the cache-admission epoch is read *before*
    /// the snapshot (see `explore_cache::cached_query_at_epoch` for why
    /// that order is the sound one).
    fn run_routed(&self, table: &str, query: &Query, c: &Call) -> Result<Table> {
        let ctx = &c.ctx;
        // An already-cancelled or expired token fails before routing —
        // even a warm cache hit must not mask the typed error.
        ctx.check_cancel()?;
        let loader = self.shared.raw.read().get(table).map(Arc::clone);
        if let Some(loader) = loader {
            let mut loader = loader.lock();
            return match ctx.trace {
                Some(t) => t.scope(ROOT_SPAN, SpanKind::RawLoad, || loader.query(query, ctx)),
                None => loader.query(query, ctx),
            };
        }
        let store = self.table_state(table)?.store();
        let cache = c.cache_on.then_some(&*self.shared.result_cache);
        if store.shard_count() > 1 {
            return run_sharded_query(&store, cache, query, ctx);
        }
        match cache {
            Some(cache) => {
                let epoch = cache.epoch(table);
                let snap = store.snapshot();
                let base = snap.table(0);
                explore_cache::cached_query_at_epoch(cache, base, table, query, ctx, epoch)
            }
            None => explore_exec::run_query(store.snapshot().table(0), query, ctx),
        }
    }

    /// Progress of invisible loading for a raw table (columns loaded,
    /// total columns), or `None` for in-memory tables.
    pub fn loading_progress(&self, table: &str) -> Option<(usize, usize)> {
        self.shared.raw.read().get(table).map(|l| {
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
    ///
    /// Cracking is per shard: each shard of the table cracks its own
    /// copy of the column independently, and matching global row ids
    /// come back concatenated in shard order — cracked (physical) order
    /// within each shard.
    pub fn cracked_range(
        &self,
        table: &str,
        column: &str,
        low: i64,
        high: i64,
    ) -> Result<Vec<u32>> {
        let describe = || format!("cracked_range({column}, {low}, {high})");
        self.call(table, describe, None, |c| {
            let ctx = &c.ctx;
            ctx.check_cancel()?;
            let token = c.session_token();
            let store = self.table_state(table)?.store();
            if ctx.fire("crack.reorg") {
                // Injected reorganization failure: answer by scanning
                // the (never-reorganized) base column instead. Cracking
                // writes are discretionary, so skipping one changes
                // convergence rate, never answers.
                ctx.note("fault.crack.scan_fallback");
                let snap = store.snapshot();
                let mut ids = Vec::new();
                for s in 0..snap.shard_count() {
                    let start = snap.range(s).start;
                    let matching = int64_column(snap.table(s), column)?
                        .iter()
                        .enumerate()
                        .filter(|(_, &v)| v >= low && v < high);
                    ids.extend(matching.map(|(i, _)| (start + i) as u32));
                }
                return Ok(ids);
            }
            // Cracking reorganizes each shard's private copy of the
            // column, never the table's rows, so it is not a mutation:
            // no epoch moves and every cached result stays live.
            crack_step(
                ctx,
                || store.index_pieces(column).unwrap_or(0),
                || store.cracked_range(column, low, high, token.as_ref()),
            )
            .map(|(ids, _)| ids)
        })
    }

    /// Pieces the adaptive index on (table, column) currently has —
    /// observability for convergence: the sum of per-shard piece counts.
    pub fn index_pieces(&self, table: &str, column: &str) -> Option<usize> {
        let store = self.shared.catalog.read().get(table)?.store();
        store.index_pieces(column)
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
        let count = fractions.len() + stratify_on.len();
        let describe = || format!("build_samples({count} samples)");
        let stage = Some(("sample.build", "sample.builds"));
        let catalog = self.call(table, describe, stage, |c| {
            SampleCatalog::build(&*self.table(table)?, fractions, stratify_on, seed, &c.ctx)
        })?;
        let mut samples = self.shared.samples.write();
        samples.insert(table.to_owned(), Arc::new(catalog));
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
        let describe = || format!("approx {func}({column}) where {predicate}");
        self.call(table, describe, None, |c| {
            let st = self.table_state(table)?;
            let samples = self.shared.samples.read().get(table).cloned();
            let samples = samples.ok_or_else(|| {
                StorageError::InvalidQuery(format!(
                    "no sample catalog for {table}; call build_samples first"
                ))
            })?;
            // Epoch before snapshot, like every cache-admitting path.
            let epoch = self.shared.result_cache.epoch(table);
            let t = st.whole();
            let mut ex = BoundedExecutor::new(&t, &samples);
            if c.cache_on {
                ex = ex.with_cache(Arc::clone(&self.shared.result_cache), table, epoch);
            }
            if c.obs_on {
                ex = ex.with_metrics(self.shared.obs.metrics());
            }
            let start = c.ctx.trace.map(ActiveTrace::now_ns);
            let ans = ex.aggregate(predicate, func, column, bound, &c.ctx)?;
            if let Some((t, start)) = c.ctx.trace.zip(start) {
                let kind = SpanKind::Aqp {
                    fraction_bp: (ans.fraction_used * 10_000.0).round() as u32,
                    rows_scanned: ans.rows_scanned.min(u32::MAX as usize) as u32,
                    exact: ans.exact,
                };
                t.record(ROOT_SPAN, kind, start, t.now_ns());
            }
            Ok(ans)
        })
    }

    /// A speculative range-aggregate executor over a snapshot of
    /// `table`, prefetching up to `budget` neighboring requests per
    /// call. With caching on it shares the engine's result cache, so
    /// speculatively computed aggregates are visible to
    /// [`ExploreDb::query`] and vice versa.
    pub fn speculator(&self, table: &str, budget: usize) -> Result<SpeculativeExecutor> {
        let c = self.resolve();
        let st = self.table_state(table)?;
        // Epoch before snapshot: a mutation racing this attach leaves
        // the executor admitting under a dead epoch — refused entries,
        // never stale ones.
        let epoch = self.shared.result_cache.epoch(table);
        let t = st.whole();
        let mut ex = SpeculativeExecutor::new(t, budget).with_cancel(c.session_token());
        if c.cache_on {
            ex = ex.with_shared_cache(Arc::clone(&self.shared.result_cache), table, epoch);
        }
        if c.obs_on {
            ex = ex.with_metrics(self.shared.obs.metrics());
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
        let describe = || format!("online {func}({column}) where {predicate}");
        let stage = Some(("aqp.online", "aqp.online_sessions"));
        self.call(table, describe, stage, |c| {
            let t = self.table(table)?;
            let oa = OnlineAggregation::start(&t, predicate, func, column, confidence, seed)?;
            Ok(oa.with_cancel(c.session_token()))
        })
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
        let describe = || format!("recommend_views(k={k})");
        let stage = Some(("viz.recommend", "viz.recommendations"));
        self.call(table, describe, stage, |c| {
            let t = self.table(table)?;
            let views = candidate_views(&t, &[AggFunc::Count, AggFunc::Sum, AggFunc::Avg]);
            recommend_shared(&t, target, &views, k, &mut SeedbStats::default(), &c.ctx)
        })
    }

    /// Build (or rebuild) the AQUA-style synopsis store for a table.
    pub fn build_synopses(&self, table: &str, buckets: usize) -> Result<()> {
        let t = self.table(table)?;
        self.shared.synopses.write().insert(
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
        let describe = || "synopsis estimate".to_owned();
        let stage = Some(("synopsis.estimate", "synopsis.estimates"));
        self.call(table, describe, stage, |c| {
            c.ctx.check_cancel()?;
            let store = self.shared.synopses.read().get(table).cloned();
            let store = store.ok_or_else(|| {
                StorageError::InvalidQuery(format!(
                    "no synopses for {table}; call build_synopses first"
                ))
            })?;
            f(&store)
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
        let describe = || format!("facets(k={k}) where {predicate}");
        self.call(table, describe, None, |c| {
            let t = self.table(table)?;
            let rows = explore_exec::evaluate_selection(&t, predicate, &c.ctx)?;
            explore_explore::faceted_recommendations(&t, &rows, min_support, k)
        })
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
        let describe = || format!("diversified_topk(k={k}, λ={lambda})");
        self.call(table, describe, Some(("div.topk", "div.topk")), |c| {
            let t = self.table(table)?;
            let rows = explore_exec::evaluate_selection(&t, predicate, &c.ctx)?;
            let numeric = |name: &str, col: &explore_storage::Column, row: usize| {
                col.numeric_at(row)
                    .ok_or_else(|| StorageError::TypeMismatch {
                        column: name.to_owned(),
                        expected: "numeric",
                        found: col.data_type().name(),
                    })
            };
            let rel = t.column(relevance_col)?;
            let feats = feature_cols
                .iter()
                .map(|name| Ok((*name, t.column(name)?)))
                .collect::<Result<Vec<_>>>()?;
            let mut items = Vec::with_capacity(rows.len());
            for &row in &rows {
                let relevance = numeric(relevance_col, rel, row as usize)?;
                let features = feats
                    .iter()
                    .map(|(name, col)| numeric(name, col, row as usize))
                    .collect::<Result<Vec<f64>>>()?;
                items.push(explore_diversify::Item::new(row, relevance, features));
            }
            let mut stats = explore_diversify::DivStats::default();
            explore_diversify::mmr(&items, k, lambda, &[], &mut stats, &c.ctx)
        })
    }

    /// VizDeck: deal the top-`k` chart proposals for a table. The
    /// deal is single-pass; the session cancel token and deadline are
    /// checked up front, and a `viz.propose` span and counter are
    /// recorded when observability is on.
    pub fn propose_charts(&self, table: &str, k: usize) -> Result<Vec<explore_viz::ChartProposal>> {
        let describe = || format!("propose_charts(k={k})");
        let stage = Some(("viz.propose", "viz.proposals"));
        self.call(table, describe, stage, |c| {
            c.ctx.check_cancel()?;
            explore_viz::propose_charts(&*self.table(table)?, k)
        })
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
        let describe = || format!("discover_cube({dim_a}, {dim_b}, {measure})");
        let stage = Some(("cube.discover", "cube.discoveries"));
        self.call(table, describe, stage, |c| {
            let query = Query::new()
                .group(dim_a)
                .group(dim_b)
                .agg(AggFunc::Sum, measure);
            let grouped = self.run_routed(table, &query, c)?;
            DiscoveryView::from_grouped(&grouped, dim_a, dim_b, measure)
        })
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
        let c = self.resolve();
        let t = self.table(table)?;
        let cube = DataCube::new((*t).clone(), dims, measure, func)?;
        let mut session = CubeSession::new(cube, speculate).with_cancel(c.session_token());
        if c.obs_on {
            session = session.with_metrics(Some(self.shared.obs.metrics()));
        }
        Ok(session)
    }
}

/// `column` of `t` as Int64 values, or the typed mismatch error every
/// cracking path reports.
fn int64_column<'a>(t: &'a Table, column: &str) -> Result<&'a [i64]> {
    let col = t.column(column)?;
    col.as_i64().ok_or_else(|| StorageError::TypeMismatch {
        column: column.to_owned(),
        expected: "Int64",
        found: col.data_type().name(),
    })
}

/// Run one crack `step` as a root-level `Crack` span carrying the
/// index's piece count on either side of it.
fn crack_step<T>(
    ctx: &QueryCtx,
    pieces: impl Fn() -> usize,
    step: impl FnOnce() -> Result<T>,
) -> Result<T> {
    let Some(t) = ctx.trace else {
        return step();
    };
    let before = pieces();
    let start = t.now_ns();
    let result = step();
    let after = pieces();
    let kind = SpanKind::Crack {
        pieces_before: before as u32,
        pieces_after: after as u32,
    };
    t.record(ROOT_SPAN, kind, start, t.now_ns());
    if after != before {
        t.metrics().inc("crack.reorganizations", 1);
    }
    result
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

        // `note_mutation` bumps the epoch and drops the adaptive index;
        // the rows are the same `Arc` as before.
        db.cracked_range("sales", "qty", 3, 7).unwrap();
        let epoch = db.table_epoch("sales");
        let rows = db.table("sales").unwrap();
        db.note_mutation("sales");
        assert_eq!(db.table_epoch("sales"), epoch + 1);
        assert!(db.index_pieces("sales", "qty").is_none());
        assert!(Arc::ptr_eq(&rows, &db.table("sales").unwrap()));
    }

    #[test]
    fn cracking_keeps_the_epoch_and_mutation_drops_the_index() {
        let db = ExploreDb::with_cache_policy(CachePolicy::on());
        db.register(
            "sales",
            sales_table(&SalesConfig {
                rows: 3_000,
                ..SalesConfig::default()
            }),
        );
        // Cracking reorganizes an index copy, not the rows: no epoch.
        let e0 = db.table_epoch("sales");
        db.cracked_range("sales", "qty", 3, 7).unwrap();
        assert!(db.index_pieces("sales", "qty").unwrap() > 1);
        assert_eq!(db.table_epoch("sales"), e0);
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
        // The resident-superset gauges track `CacheStats`.
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

        // Turning the policy off regathers one shard; answers unchanged.
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

        // The fan-out and the whole-table view read the same rows.
        let q = Query::new().agg(AggFunc::Count, "qty");
        let n = db.query("sales", &q).unwrap();
        assert_eq!(
            n.column("count(qty)").unwrap().as_f64().unwrap()[0],
            2_001.0
        );
        assert_eq!(db.table("sales").unwrap().num_rows(), 2_001);

        // `note_mutation` is conservative: every scope bumps and every
        // shard's index goes, while the rows and their layout stay put.
        db.cracked_range("sales", "qty", 3, 7).unwrap();
        let layout = db.shard_stats("sales").unwrap();
        assert!(layout.iter().all(|s| s.crackers == 1));
        let scopes: Vec<u64> = layout.iter().map(|s| s.epoch).collect();
        let view = db.table("sales").unwrap();
        db.note_mutation("sales");
        for (s, &epoch) in scopes.iter().enumerate() {
            assert_eq!(db.table_epoch(&scoped_name("sales", s)), epoch + 1);
        }
        let after = db.shard_stats("sales").unwrap();
        assert!(after.iter().all(|s| s.crackers == 0));
        for (a, b) in layout.iter().zip(&after) {
            assert_eq!((a.start, a.rows), (b.start, b.rows));
        }
        assert!(Arc::ptr_eq(&view, &db.table("sales").unwrap()));
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
