//! The shared result store: entries, epochs, cost-aware eviction.
//!
//! One [`ResultCache`] is shared by every consumer in a session — the
//! query path, the speculative prefetcher, the pan/zoom session, the
//! AQP executor — behind a single mutex. Entries are tiny result tables
//! (exploration answers are aggregates and top-k slices, not base
//! data) plus, for range queries, the selection vector that produced
//! them, so the critical sections are pointer moves and O(log n) index
//! updates; the heavy work (scans, re-filters) always happens outside
//! the lock.
//!
//! # Eviction
//!
//! Admission and eviction are cost-aware, in the recycler tradition:
//! an entry's *benefit* is `cost_ns × (hits + 1) / bytes` — measured
//! compute cost it saves, scaled by observed popularity, per resident
//! byte. Under byte-budget pressure the lowest-benefit entry goes
//! first (ties: least recently touched). Entries are kept ranked by
//! that key in an ordered map, re-ranked when a hit moves them, so an
//! eviction pops the front instead of scanning the cache. Oversized
//! results are refused outright rather than allowed to flush the whole
//! cache.
//!
//! # Epochs
//!
//! Correctness under mutation is an epoch protocol, not a dependency
//! graph: every table has a monotonically increasing epoch counter and
//! every entry is stamped with the epoch it was computed under. Any
//! mutation bumps the epoch, eagerly purging the table's entries; a
//! compute that raced with a mutation is refused at insert time
//! (`epoch_at_compute` no longer current), and `get` re-checks the
//! stamp so a stale row can never be served.

use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::Ordering;
use std::sync::Arc;

use parking_lot::Mutex;

use explore_fault::FailPoints;
use explore_obs::MetricsRegistry;
use explore_storage::{Column, Table};

use crate::fingerprint::Fingerprint;
use crate::probe::{ProbeIndex, SlotPos};
use crate::region::Region;

/// Tuning knobs for an enabled cache.
#[derive(Debug, Clone, PartialEq)]
pub struct CacheConfig {
    /// Resident-byte budget across all entries.
    pub byte_budget: usize,
    /// Serve subsumption hits (contained range queries re-filtered from
    /// cached supersets). Exact hits are always served.
    pub subsumption: bool,
    /// Cost-aware admission floor: a freshly computed result is only
    /// admitted when its observed compute cost is at least this many
    /// nanoseconds. Caching a result that was nearly free buys nothing
    /// on a future hit but still pays insertion and eviction overhead
    /// on the cold path — the reason `CachePolicy::On` used to lag
    /// cache-off on cold workloads. Subsumption re-admissions are
    /// exempt: their cost (the re-filter) is cheap by design, but they
    /// keep refinement chains alive. `0` admits everything.
    pub admit_min_cost_ns: u64,
}

impl Default for CacheConfig {
    fn default() -> Self {
        CacheConfig {
            byte_budget: 64 << 20,
            subsumption: true,
            admit_min_cost_ns: 2_000,
        }
    }
}

/// Whether `ExploreDb` routes queries through the shared cache.
/// `Off` (the default) leaves every execution path bit-identical to a
/// cache-less build.
#[derive(Debug, Clone, PartialEq, Default)]
pub enum CachePolicy {
    #[default]
    Off,
    On(CacheConfig),
}

impl CachePolicy {
    /// Enabled with default configuration.
    pub fn on() -> Self {
        CachePolicy::On(CacheConfig::default())
    }

    /// Is the cache enabled?
    pub fn is_on(&self) -> bool {
        matches!(self, CachePolicy::On(_))
    }

    /// The configuration when enabled.
    pub fn config(&self) -> Option<&CacheConfig> {
        match self {
            CachePolicy::Off => None,
            CachePolicy::On(c) => Some(c),
        }
    }
}

/// Point-in-time counters, snapshot via [`ResultCache::stats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Exact fingerprint hits.
    pub hits: u64,
    /// Queries answered by re-filtering a cached superset.
    pub subsumption_hits: u64,
    /// Queries that had to run against base data.
    pub misses: u64,
    /// Entries admitted.
    pub insertions: u64,
    /// Entries removed under byte pressure.
    pub evictions: u64,
    /// Entries removed because their table's epoch moved.
    pub invalidations: u64,
    /// Live entries.
    pub entries: usize,
    /// Resident bytes across live entries.
    pub bytes: usize,
    /// Estimated compute saved by hits (ns): full cost for exact hits,
    /// cost minus the re-filter for subsumption hits.
    pub saved_cost_ns: u128,
    /// Results refused by cost-aware admission (too cheap to cache).
    pub admit_rejected: u64,
    /// Live entries that carry a selection vector — the supersets every
    /// subsumption probe walks.
    pub reuse_entries: usize,
    /// Resident bytes of those selection vectors (part of `bytes`).
    pub reuse_bytes: usize,
}

impl CacheStats {
    /// Fraction of lookups served from the cache (exact + subsumption).
    pub fn hit_rate(&self) -> f64 {
        let served = self.hits + self.subsumption_hits;
        let total = served + self.misses;
        if total == 0 {
            0.0
        } else {
            served as f64 / total as f64
        }
    }
}

/// What a cache entry needs to serve *subsumption* hits, beyond the
/// result itself: the exact region its predicate covers and the
/// selection vector into the base table. A contained query is answered
/// by re-evaluating its predicate on the base table at those rows only.
/// Entries without artifacts still serve exact hits.
#[derive(Debug, Clone)]
pub struct ReuseArtifacts {
    /// Exact region of the cached predicate ([`Region::exact`]).
    pub region: Region,
    /// Qualifying base-table row ids, ascending.
    pub sel: Arc<Vec<u32>>,
}

/// A cached superset eligible to answer the current query, returned by
/// [`ResultCache::find_subsuming`].
#[derive(Debug, Clone)]
pub struct SubsumeCandidate {
    /// Entry identity, for [`ResultCache::note_subsumption_hit`].
    pub fingerprint: Fingerprint,
    /// Base-table row ids of the cached superset.
    pub sel: Arc<Vec<u32>>,
    /// What the cached computation originally cost.
    pub cost_ns: u128,
}

/// Resident bytes of a selection vector.
fn sel_bytes(sel: &[u32]) -> usize {
    std::mem::size_of_val(sel)
}

#[derive(Debug)]
struct Entry {
    /// Table epoch this entry was computed under.
    epoch: u64,
    result: Arc<Table>,
    /// The selection vector and its slot in the probe index (which
    /// holds the region).
    reuse: Option<(Arc<Vec<u32>>, SlotPos)>,
    cost_ns: u128,
    hits: u64,
    bytes: usize,
    /// Logical clock of the last touch (insert or hit); unique per entry.
    stamp: u64,
}

impl Entry {
    /// Benefit density: compute saved × popularity per resident byte.
    fn benefit(&self) -> f64 {
        self.cost_ns as f64 * (self.hits + 1) as f64 / self.bytes.max(1) as f64
    }

    /// Position in the eviction order: benefit, then last touch. A
    /// benefit is never negative, so its bit pattern orders as it does.
    fn rank(&self) -> (u64, u64) {
        (self.benefit().to_bits(), self.stamp)
    }
}

#[derive(Debug, Default)]
struct Inner {
    config: CacheConfig,
    entries: HashMap<Arc<Fingerprint>, Entry>,
    /// Every entry by [`Entry::rank`]: the front is the next victim.
    order: BTreeMap<(u64, u64), Arc<Fingerprint>>,
    /// Entries that carry a selection vector, by table and region.
    index: ProbeIndex,
    /// Per-table mutation counters; absent = epoch 0.
    epochs: HashMap<String, u64>,
    bytes: usize,
    reuse_entries: usize,
    reuse_bytes: usize,
    clock: u64,
    hits: u64,
    subsumption_hits: u64,
    misses: u64,
    insertions: u64,
    evictions: u64,
    invalidations: u64,
    saved_cost_ns: u128,
    admit_rejected: u64,
    /// Mirror of the counters into an observability registry, when one
    /// is attached via [`ResultCache::set_metrics`].
    metrics: Option<Arc<MetricsRegistry>>,
    /// Fail-point registry consulted at admission, lookup, and eviction,
    /// when one is attached via [`ResultCache::set_faults`].
    faults: Option<Arc<FailPoints>>,
}

impl Inner {
    fn epoch_of(&self, table: &str) -> u64 {
        self.epochs.get(table).copied().unwrap_or(0)
    }

    /// Bump an attached registry counter; no-op (one `Option` check)
    /// when observability is off.
    fn bump(&self, name: &str, by: u64) {
        if let Some(metrics) = &self.metrics {
            metrics.inc(name, by);
        }
    }

    /// Publish the resident-superset gauges to an attached registry.
    fn mirror_reuse(&self) {
        if let Some(metrics) = &self.metrics {
            let set = |name, v: usize| metrics.counter(name).store(v as u64, Ordering::Relaxed);
            set("cache.reuse_entries", self.reuse_entries);
            set("cache.reuse_bytes", self.reuse_bytes);
        }
    }

    /// Does the named fail point trigger? One `Option` check when no
    /// registry is attached.
    fn fire(&self, name: &str) -> bool {
        self.faults.as_ref().is_some_and(|f| f.fire(name))
    }

    /// Count a hit on `fp`: its popularity and recency move, so it is
    /// re-ranked in the eviction order and its probe slot re-stamped.
    fn touch(&mut self, fp: &Fingerprint) -> Option<&Entry> {
        let entry = self.entries.get_mut(fp)?;
        let key = self.order.remove(&entry.rank())?;
        self.clock += 1;
        entry.hits += 1;
        entry.stamp = self.clock;
        self.order.insert(entry.rank(), key);
        if let Some((_, pos)) = entry.reuse {
            self.index.touch(fp.table(), pos, entry.stamp);
        }
        Some(entry)
    }

    /// Remove an entry from everything but the probe index (and leave
    /// the registry gauges to the caller).
    fn unlink(&mut self, fp: &Fingerprint) -> Option<Entry> {
        let entry = self.entries.remove(fp)?;
        self.order.remove(&entry.rank());
        self.bytes -= entry.bytes;
        if let Some((sel, _)) = &entry.reuse {
            self.reuse_entries -= 1;
            self.reuse_bytes -= sel_bytes(sel);
        }
        Some(entry)
    }

    fn remove_entry(&mut self, fp: &Fingerprint) {
        let Some((_, pos)) = self.unlink(fp).and_then(|entry| entry.reuse) else {
            return;
        };
        self.mirror_reuse();
        let moved = self.index.remove(fp.table(), pos);
        if let Some((_, slot)) = moved
            .and_then(|fp| self.entries.get_mut(&*fp))
            .and_then(|entry| entry.reuse.as_mut())
        {
            *slot = pos;
        }
    }

    /// Drop every entry; epochs and counters stay.
    fn drop_all(&mut self) {
        self.entries.clear();
        self.order.clear();
        self.index.clear();
        self.bytes = 0;
        self.reuse_entries = 0;
        self.reuse_bytes = 0;
        self.mirror_reuse();
    }

    /// Evict lowest-benefit entries (ties: least recently touched)
    /// until resident bytes fit the budget.
    fn evict_to_budget(&mut self) {
        if self.bytes > self.config.byte_budget && self.fire("cache.evict") {
            // Injected eviction failure: rather than risk an over-budget
            // resident set, degrade by dropping every entry. The cache
            // only ever accelerates — correctness is unaffected.
            let dropped = self.entries.len() as u64;
            self.drop_all();
            self.evictions += dropped;
            self.bump("cache.evictions", dropped);
            return;
        }
        while self.bytes > self.config.byte_budget {
            let Some(victim) = self.order.values().next().map(Arc::clone) else {
                break;
            };
            self.remove_entry(&victim);
            self.evictions += 1;
            self.bump("cache.evictions", 1);
        }
    }
}

/// Thread-safe semantic result cache shared across a session.
pub struct ResultCache {
    inner: Mutex<Inner>,
}

impl std::fmt::Debug for ResultCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ResultCache")
            .field("stats", &self.stats())
            .finish()
    }
}

impl Default for ResultCache {
    fn default() -> Self {
        ResultCache::new(CacheConfig::default())
    }
}

impl ResultCache {
    /// An empty cache with the given configuration.
    pub fn new(config: CacheConfig) -> Self {
        ResultCache {
            inner: Mutex::new(Inner {
                config,
                ..Inner::default()
            }),
        }
    }

    /// Replace the configuration; shrinking the budget evicts
    /// immediately.
    pub fn set_config(&self, config: CacheConfig) {
        let mut inner = self.inner.lock();
        inner.config = config;
        inner.evict_to_budget();
    }

    /// Current configuration.
    pub fn config(&self) -> CacheConfig {
        self.inner.lock().config.clone()
    }

    /// Attach (or detach, with `None`) an observability registry. While
    /// attached, every counter bump is mirrored into `cache.*` metrics
    /// (`cache.hits`, `cache.misses`, `cache.subsumption_hits`,
    /// `cache.insertions`, `cache.evictions`, `cache.invalidations`,
    /// `cache.admit_rejected`), and the resident-superset gauges
    /// `cache.reuse_entries` / `cache.reuse_bytes` follow every change.
    /// Stats themselves are unchanged — the registry is a mirror, not a
    /// replacement.
    pub fn set_metrics(&self, metrics: Option<Arc<MetricsRegistry>>) {
        self.inner.lock().metrics = metrics;
    }

    /// Attach (or detach, with `None`) a fail-point registry. Armed
    /// points divert the cache's hazard sites: `cache.admit` refuses
    /// admission (the caller computed the result anyway and serves it),
    /// `cache.lookup` forces a lookup to miss (the query recomputes),
    /// and `cache.evict` degrades eviction to dropping every entry.
    /// All three degradations preserve result correctness — the cache
    /// is only ever an accelerator.
    pub fn set_faults(&self, faults: Option<Arc<FailPoints>>) {
        self.inner.lock().faults = faults;
    }

    /// Whether subsumption serving is enabled.
    pub fn subsumption_enabled(&self) -> bool {
        self.inner.lock().config.subsumption
    }

    /// Current epoch of a table (0 if never mutated).
    pub fn epoch(&self, table: &str) -> u64 {
        self.inner.lock().epoch_of(table)
    }

    /// Record a mutation of `table`: bump its epoch and eagerly purge
    /// every entry computed against the previous epochs.
    pub fn bump_epoch(&self, table: &str) -> u64 {
        let mut inner = self.inner.lock();
        let epoch = inner.epoch_of(table) + 1;
        inner.epochs.insert(table.to_owned(), epoch);
        let stale: Vec<Arc<Fingerprint>> = inner
            .entries
            .keys()
            .filter(|fp| fp.table() == table)
            .cloned()
            .collect();
        for fp in &stale {
            inner.unlink(fp);
        }
        inner.index.drop_table(table);
        inner.mirror_reuse();
        inner.invalidations += stale.len() as u64;
        inner.bump("cache.invalidations", stale.len() as u64);
        epoch
    }

    /// Exact lookup. A hit bumps the entry's popularity and the
    /// saved-cost estimate; a stale entry (epoch moved) is purged and
    /// treated as absent. Misses are *not* counted here — callers that
    /// fall through to a compute path report via [`ResultCache::note_miss`].
    pub fn get(&self, fp: &Fingerprint) -> Option<Arc<Table>> {
        let mut inner = self.inner.lock();
        if inner.fire("cache.lookup") {
            // Injected lookup failure: report a miss; the caller falls
            // back to the compute path and still returns a correct
            // (bit-identical) result.
            return None;
        }
        let current = inner.epoch_of(fp.table());
        if inner.entries.get(fp).is_some_and(|e| e.epoch != current) {
            inner.remove_entry(fp);
            inner.invalidations += 1;
            inner.bump("cache.invalidations", 1);
            return None;
        }
        let entry = inner.touch(fp)?;
        let (result, cost_ns) = (Arc::clone(&entry.result), entry.cost_ns);
        inner.hits += 1;
        inner.saved_cost_ns += cost_ns;
        inner.bump("cache.hits", 1);
        Some(result)
    }

    /// Would [`ResultCache::get`] hit? No counters are touched.
    pub fn contains(&self, fp: &Fingerprint) -> bool {
        let inner = self.inner.lock();
        inner
            .entries
            .get(fp)
            .is_some_and(|e| e.epoch == inner.epoch_of(fp.table()))
    }

    /// Find a current-epoch entry over `table` whose exact region
    /// provably covers `query_region`. Among eligible supersets the
    /// smallest (fewest selected rows, then least recently touched)
    /// wins — it is the cheapest to re-filter. The probe walks the
    /// per-table index of selection-bearing entries, not the entry map.
    pub fn find_subsuming(&self, table: &str, query_region: &Region) -> Option<SubsumeCandidate> {
        let inner = self.inner.lock();
        if !inner.config.subsumption {
            return None;
        }
        if inner.fire("cache.lookup") {
            return None;
        }
        let fingerprint = inner.index.probe(table, query_region)?;
        let entry = inner.entries.get(fingerprint)?;
        let (sel, _) = entry.reuse.as_ref()?;
        (entry.epoch == inner.epoch_of(table)).then(|| SubsumeCandidate {
            fingerprint: Fingerprint::clone(fingerprint),
            sel: Arc::clone(sel),
            cost_ns: entry.cost_ns,
        })
    }

    /// Credit a subsumption serve to its source entry. `saved_ns` is the
    /// original compute cost minus what the re-filter actually took.
    pub fn note_subsumption_hit(&self, fp: &Fingerprint, saved_ns: u128) {
        let mut inner = self.inner.lock();
        inner.touch(fp);
        inner.subsumption_hits += 1;
        inner.saved_cost_ns += saved_ns;
        inner.bump("cache.subsumption_hits", 1);
    }

    /// Record a lookup that fell through to base-table execution.
    pub fn note_miss(&self) {
        let mut inner = self.inner.lock();
        inner.misses += 1;
        inner.bump("cache.misses", 1);
    }

    /// Cost-aware admission decision: should a freshly computed result
    /// with observed compute cost `cost_ns` be admitted? Deterministic
    /// in (config, cost), so off/cold/warm runs decide identically.
    pub fn should_admit(&self, cost_ns: u128) -> bool {
        cost_ns >= u128::from(self.inner.lock().config.admit_min_cost_ns)
    }

    /// Record a result refused by [`ResultCache::should_admit`].
    pub fn note_admit_rejected(&self) {
        let mut inner = self.inner.lock();
        inner.admit_rejected += 1;
        inner.bump("cache.admit_rejected", 1);
    }

    /// Admit a computed result. Refused (returns `false`) when the
    /// table's epoch moved since `epoch_at_compute` (a mutation raced
    /// the computation) or when the result alone exceeds half the byte
    /// budget. A selection vector that exceeds a quarter of the budget
    /// is dropped — the entry stays, exact-hit-only. An entry's resident
    /// bytes are its result's [`table_bytes`] plus 4 per selected row.
    /// Admission may evict lower-benefit entries to fit.
    pub fn insert(
        &self,
        fp: Fingerprint,
        result: Arc<Table>,
        reuse: Option<ReuseArtifacts>,
        cost_ns: u128,
        epoch_at_compute: u64,
    ) -> bool {
        let result_bytes = table_bytes(&result);

        let mut inner = self.inner.lock();
        if inner.fire("cache.admit") {
            // Injected admission failure: the computed result is still
            // returned to the caller; it just isn't cached.
            return false;
        }
        if inner.epoch_of(fp.table()) != epoch_at_compute {
            return false;
        }
        let budget = inner.config.byte_budget;
        if result_bytes > budget / 2 {
            return false;
        }
        let reuse = reuse.filter(|r| sel_bytes(&r.sel) <= budget / 4);
        inner.remove_entry(&fp);
        inner.clock += 1;
        let stamp = inner.clock;
        let fp = Arc::new(fp);
        let reuse = reuse.map(|r| {
            let pos = inner
                .index
                .insert(&r.region, r.sel.len(), stamp, Arc::clone(&fp));
            inner.reuse_entries += 1;
            inner.reuse_bytes += sel_bytes(&r.sel);
            inner.mirror_reuse();
            (r.sel, pos)
        });
        let entry = Entry {
            epoch: epoch_at_compute,
            result,
            bytes: result_bytes + reuse.as_ref().map_or(0, |(sel, _)| sel_bytes(sel)),
            reuse,
            cost_ns,
            hits: 0,
            stamp,
        };
        inner.bytes += entry.bytes;
        inner.order.insert(entry.rank(), Arc::clone(&fp));
        inner.entries.insert(fp, entry);
        inner.insertions += 1;
        inner.bump("cache.insertions", 1);
        inner.evict_to_budget();
        true
    }

    /// Snapshot the counters.
    pub fn stats(&self) -> CacheStats {
        let inner = self.inner.lock();
        CacheStats {
            hits: inner.hits,
            subsumption_hits: inner.subsumption_hits,
            misses: inner.misses,
            insertions: inner.insertions,
            evictions: inner.evictions,
            invalidations: inner.invalidations,
            entries: inner.entries.len(),
            bytes: inner.bytes,
            saved_cost_ns: inner.saved_cost_ns,
            admit_rejected: inner.admit_rejected,
            reuse_entries: inner.reuse_entries,
            reuse_bytes: inner.reuse_bytes,
        }
    }

    /// Drop every entry (epochs and counters are preserved).
    pub fn clear(&self) {
        self.inner.lock().drop_all();
    }

    /// Number of live entries.
    pub fn len(&self) -> usize {
        self.inner.lock().entries.len()
    }

    /// True when no entries are resident.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Resident size estimate of a table: raw vector payloads plus a fixed
/// per-table overhead. Strings count their byte length plus the
/// `String` header.
pub fn table_bytes(table: &Table) -> usize {
    let mut bytes = 64;
    for field in table.schema().fields() {
        let Ok(col) = table.column(field.name()) else {
            continue;
        };
        bytes += match col {
            Column::Int64(v) => v.len() * 8,
            Column::Float64(v) => v.len() * 8,
            Column::Utf8(v) => v.iter().map(|s| s.len() + 24).sum(),
        };
    }
    bytes
}

#[cfg(test)]
mod tests {
    use super::*;
    use explore_storage::{DataType, Predicate, Query, Schema};

    fn tiny(vals: &[f64]) -> Arc<Table> {
        Arc::new(
            Table::new(
                Schema::of(&[("x", DataType::Float64)]),
                vec![Column::from(vals.to_vec())],
            )
            .unwrap(),
        )
    }

    fn fp(name: &str) -> Fingerprint {
        Fingerprint::custom("t", name)
    }

    #[test]
    fn insert_get_and_counters() {
        let cache = ResultCache::default();
        let result = tiny(&[1.0, 2.0]);
        assert!(cache.insert(fp("a"), Arc::clone(&result), None, 1_000, 0));
        let hit = cache.get(&fp("a")).expect("hit");
        assert!(Arc::ptr_eq(&hit, &result));
        assert!(cache.get(&fp("b")).is_none());
        cache.note_miss();
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (1, 1, 1));
        assert_eq!(stats.saved_cost_ns, 1_000);
        assert!((stats.hit_rate() - 0.5).abs() < 1e-12);
        assert!(cache.contains(&fp("a")));
        assert!(!cache.contains(&fp("b")));
    }

    #[test]
    fn epoch_bump_purges_and_blocks_stale_inserts() {
        let cache = ResultCache::default();
        assert!(cache.insert(fp("a"), tiny(&[1.0]), None, 10, 0));
        assert_eq!(cache.epoch("t"), 0);
        assert_eq!(cache.bump_epoch("t"), 1);
        assert!(cache.get(&fp("a")).is_none());
        assert_eq!(cache.stats().invalidations, 1);
        // A compute that started before the bump is refused.
        assert!(!cache.insert(fp("a"), tiny(&[1.0]), None, 10, 0));
        // One stamped with the current epoch is admitted.
        assert!(cache.insert(fp("a"), tiny(&[1.0]), None, 10, 1));
        assert!(cache.get(&fp("a")).is_some());
        // Other tables are untouched.
        assert!(cache.insert(Fingerprint::custom("u", "x"), tiny(&[2.0]), None, 10, 0));
        cache.bump_epoch("t");
        assert!(cache.get(&Fingerprint::custom("u", "x")).is_some());
    }

    #[test]
    fn eviction_removes_lowest_benefit_first() {
        let budget = 3 * table_bytes(&tiny(&[0.0; 8]));
        let cache = ResultCache::new(CacheConfig {
            byte_budget: budget,
            subsumption: true,
            ..CacheConfig::default()
        });
        // Same size, different measured costs → "cheap" has the lowest
        // benefit density.
        assert!(cache.insert(fp("cheap"), tiny(&[0.0; 8]), None, 1, 0));
        assert!(cache.insert(fp("mid"), tiny(&[0.0; 8]), None, 1_000, 0));
        assert!(cache.insert(fp("dear"), tiny(&[0.0; 8]), None, 1_000_000, 0));
        assert_eq!(cache.len(), 3);
        assert!(cache.insert(fp("new"), tiny(&[0.0; 8]), None, 500, 0));
        assert_eq!(cache.len(), 3);
        assert!(!cache.contains(&fp("cheap")));
        assert!(cache.contains(&fp("dear")));
        assert_eq!(cache.stats().evictions, 1);
        // A popular cheap entry out-benefits an unpopular pricier one.
        for _ in 0..10_000 {
            cache.get(&fp("new"));
        }
        assert!(cache.insert(fp("newer"), tiny(&[0.0; 8]), None, 2_000, 0));
        assert!(cache.contains(&fp("new")));
        assert!(!cache.contains(&fp("mid")));
    }

    #[test]
    fn oversized_results_and_artifacts_are_gated() {
        let small = table_bytes(&tiny(&[0.0; 4]));
        let cache = ResultCache::new(CacheConfig {
            byte_budget: small * 2 + 1,
            subsumption: true,
            ..CacheConfig::default()
        });
        // Result bigger than budget/2 is refused outright.
        assert!(!cache.insert(fp("big"), tiny(&[0.0; 64]), None, 10, 0));
        assert_eq!(cache.stats().insertions, 0);
        // Oversized reuse artifacts are dropped, entry kept.
        let result = tiny(&[1.0]);
        let reuse = ReuseArtifacts {
            region: Region::exact(&Predicate::True).unwrap(),
            sel: Arc::new((0..1u32 << 12).collect()),
        };
        assert!(cache.insert(fp("kept"), Arc::clone(&result), Some(reuse), 10, 0));
        assert!(cache.get(&fp("kept")).is_some());
        assert!(cache
            .find_subsuming("t", &Region::relaxed(&Predicate::True))
            .is_none());
        assert_eq!(cache.stats().reuse_entries, 0);
    }

    /// Admit `name` with a selection of `rows` rows over `pred`'s region.
    fn insert_reuse(cache: &ResultCache, name: &str, pred: &Predicate, rows: u32) {
        let reuse = ReuseArtifacts {
            region: Region::exact(pred).unwrap(),
            sel: Arc::new((0..rows).collect()),
        };
        assert!(cache.insert(fp(name), tiny(&[0.0]), Some(reuse), 10, 0));
    }

    #[test]
    fn find_subsuming_prefers_smallest_current_superset() {
        let cache = ResultCache::default();
        let broad = Predicate::range("x", 0.0, 100.0);
        let mid = Predicate::range("x", 0.0, 50.0);
        insert_reuse(&cache, "broad", &broad, 100);
        insert_reuse(&cache, "mid", &mid, 50);
        let narrow = Region::relaxed(&Predicate::range("x", 10.0, 20.0));
        let candidate = cache.find_subsuming("t", &narrow).expect("candidate");
        assert_eq!(candidate.fingerprint, fp("mid"));
        assert_eq!(candidate.sel.len(), 50);
        // Outside the mid region only broad qualifies.
        let wider = Region::relaxed(&Predicate::range("x", 10.0, 80.0));
        assert_eq!(
            cache
                .find_subsuming("t", &wider)
                .expect("broad")
                .fingerprint,
            fp("broad")
        );
        // Nothing covers a region that sticks out of every entry.
        let outside = Region::relaxed(&Predicate::range("x", 50.0, 150.0));
        assert!(cache.find_subsuming("t", &outside).is_none());
        // Equal selections tie-break on the least recently touched, and a
        // hit re-stamps the probe slot.
        insert_reuse(&cache, "mid2", &mid, 50);
        assert_eq!(
            cache.find_subsuming("t", &narrow).unwrap().fingerprint,
            fp("mid")
        );
        cache.get(&fp("mid"));
        assert_eq!(
            cache.find_subsuming("t", &narrow).unwrap().fingerprint,
            fp("mid2")
        );
        // Epoch bump disqualifies everything.
        cache.bump_epoch("t");
        assert!(cache.find_subsuming("t", &narrow).is_none());
        assert_eq!(cache.stats().reuse_entries, 0);
        // Subsumption can be configured off.
        let off = ResultCache::new(CacheConfig {
            subsumption: false,
            ..CacheConfig::default()
        });
        insert_reuse(&off, "broad", &broad, 1);
        assert!(off.find_subsuming("t", &narrow).is_none());
        assert!(off.get(&fp("broad")).is_some());
    }

    #[test]
    fn probe_index_follows_replacement_and_eviction() {
        let one = table_bytes(&tiny(&[0.0])) + 4 * 10;
        let cache = ResultCache::new(CacheConfig {
            byte_budget: 3 * one,
            ..CacheConfig::default()
        });
        let region = |lo: f64| Predicate::range("x", lo, lo + 10.0);
        let probe = |lo: f64| {
            cache
                .find_subsuming("t", &Region::relaxed(&Predicate::range("x", lo, lo + 1.0)))
                .map(|c| c.fingerprint)
        };
        insert_reuse(&cache, "a", &region(0.0), 10);
        insert_reuse(&cache, "b", &region(10.0), 10);
        insert_reuse(&cache, "c", &region(20.0), 10);
        // Re-admitting a fingerprint replaces its slot (the last slot
        // moves into the hole and stays findable).
        insert_reuse(&cache, "a", &region(30.0), 10);
        assert_eq!(probe(5.0), None);
        assert_eq!(probe(15.0), Some(fp("b")));
        assert_eq!(probe(25.0), Some(fp("c")));
        assert_eq!(probe(35.0), Some(fp("a")));
        let stats = cache.stats();
        assert_eq!((stats.entries, stats.reuse_entries), (3, 3));
        assert_eq!(stats.reuse_bytes, 3 * 4 * 10);
        assert_eq!(stats.bytes, 3 * one);
        // A fourth entry evicts the least recently touched of the equal
        // benefits — "b" — and its slot goes with it.
        insert_reuse(&cache, "d", &region(40.0), 10);
        assert!(!cache.contains(&fp("b")));
        assert_eq!(probe(15.0), None);
        assert_eq!(probe(25.0), Some(fp("c")));
        assert_eq!(probe(35.0), Some(fp("a")));
        assert_eq!(probe(45.0), Some(fp("d")));
        assert_eq!(cache.stats().reuse_entries, 3);
        cache.clear();
        assert_eq!(probe(45.0), None);
        assert_eq!(cache.stats().reuse_bytes, 0);
    }

    /// The ordered eviction structure pops victims in exactly the order
    /// the rule prescribes: lowest `cost × (hits + 1) ÷ bytes` first, ties
    /// least recently touched, including after hits re-rank an entry.
    #[test]
    fn eviction_order_follows_benefit_then_recency() {
        let one = table_bytes(&tiny(&[0.0; 8]));
        let cache = ResultCache::new(CacheConfig {
            byte_budget: 6 * one,
            ..CacheConfig::default()
        });
        for (name, cost) in [
            ("c30", 30),
            ("c10a", 10),
            ("c20", 20),
            ("c10b", 10),
            ("c40", 40),
            ("c10c", 10),
        ] {
            assert!(cache.insert(fp(name), tiny(&[0.0; 8]), None, cost, 0));
        }
        // Two hits lift c10a to benefit 30, tied with c30 but touched
        // later; one hit re-stamps c10b behind c10c at benefit 20, tied
        // with c20 but touched later.
        cache.get(&fp("c10a"));
        cache.get(&fp("c10a"));
        cache.get(&fp("c10b"));
        let mut order = Vec::new();
        for budget in (0..6).rev() {
            let before: Vec<&str> = ["c30", "c10a", "c20", "c10b", "c40", "c10c"]
                .into_iter()
                .filter(|n| cache.contains(&fp(n)))
                .collect();
            cache.set_config(CacheConfig {
                byte_budget: budget * one,
                ..CacheConfig::default()
            });
            let gone: Vec<&str> = before
                .into_iter()
                .filter(|n| !cache.contains(&fp(n)))
                .collect();
            assert_eq!(gone.len(), 1, "one victim per step");
            order.push(gone[0]);
        }
        assert_eq!(order, ["c10c", "c20", "c10b", "c30", "c10a", "c40"]);
        assert_eq!(cache.stats().evictions, 6);
        assert_eq!(cache.stats().bytes, 0);
    }

    #[test]
    fn note_subsumption_hit_credits_source_entry() {
        let cache = ResultCache::default();
        insert_reuse(&cache, "src", &Predicate::range("x", 0.0, 10.0), 1);
        cache.note_subsumption_hit(&fp("src"), 123);
        let stats = cache.stats();
        assert_eq!(stats.subsumption_hits, 1);
        assert_eq!(stats.saved_cost_ns, 123);
    }

    #[test]
    fn clear_and_config_roundtrip() {
        let cache = ResultCache::default();
        assert!(cache.is_empty());
        assert!(cache.insert(fp("a"), tiny(&[1.0]), None, 1, 0));
        assert_eq!(cache.len(), 1);
        cache.clear();
        assert!(cache.is_empty());
        assert!(cache.subsumption_enabled());
        cache.set_config(CacheConfig {
            byte_budget: 123,
            subsumption: false,
            ..CacheConfig::default()
        });
        assert_eq!(cache.config().byte_budget, 123);
        assert!(!cache.subsumption_enabled());
        // Query canonicalization is visible through the public API.
        let q = Query::new().filter(Predicate::range("x", 0.0, 1.0));
        assert_eq!(
            Fingerprint::for_query("t", &q),
            Fingerprint::for_query("t", &q.clone())
        );
    }
}
