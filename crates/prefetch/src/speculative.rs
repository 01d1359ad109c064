//! Speculative execution of *similar* queries — the general form of the
//! middleware prefetching idea (Semantic Windows' shape-based
//! speculation \[36\], DICE's faceted speculation \[35, 37\]) applied to
//! ordinary range-aggregate queries.
//!
//! The observation: an exploration session's next range predicate is
//! overwhelmingly a *neighbor* of the current one — shifted left/right,
//! widened or narrowed. While the user reads the current answer, the
//! middleware executes those neighbors in the background and caches
//! them; the next query is then usually a hit. Answers are exact; only
//! scheduling is speculative.

use std::collections::HashMap;
use std::sync::Arc;

use explore_cache::{cached_query_at_epoch, Fingerprint, ResultCache};
use explore_exec::{run_query, QueryCtx};
use explore_fault::CancelToken;
use explore_obs::MetricsRegistry;
use explore_storage::{AggFunc, Query, Result, StorageError, Table};

use parking_lot::Mutex;

/// A canonical range-aggregate request: `func(measure) WHERE low <=
/// column < high` (the session workload of the cracking/AQP papers).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct RangeRequest {
    pub column: String,
    /// Integer bounds (the workload generators are integer-domain).
    pub low: i64,
    pub high: i64,
    pub func: AggFunc,
    pub measure: String,
}

impl RangeRequest {
    fn to_query(&self) -> Query {
        Query::new()
            .filter(explore_storage::Predicate::range(
                self.column.clone(),
                self.low,
                self.high,
            ))
            .agg(self.func, &self.measure)
    }

    /// The neighbor requests speculation considers: shift left/right by
    /// one width, widen ×2, narrow ×½.
    pub fn neighbors(&self) -> Vec<RangeRequest> {
        let width = (self.high - self.low).max(1);
        let mut out = Vec::with_capacity(4);
        let mut push = |low: i64, high: i64| {
            if low < high {
                out.push(RangeRequest {
                    low,
                    high,
                    ..self.clone()
                });
            }
        };
        push(self.low + width, self.high + width); // pan right
        push(self.low - width, self.high - width); // pan left
        push(self.low - width / 2, self.high + width / 2); // zoom out
        push(self.low + width / 4, self.high - width / 4); // zoom in
        out
    }
}

/// Hit/miss and work accounting.
#[derive(Debug, Default, Clone, Copy)]
pub struct SpeculationStats {
    pub hits: u64,
    pub misses: u64,
    /// Queries executed speculatively (background work).
    pub speculative_runs: u64,
}

impl SpeculationStats {
    /// Foreground cache-hit rate.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// The engine-wide semantic cache a speculator can share instead of its
/// private map, so speculative work benefits every consumer of the
/// [`ResultCache`] (and vice versa).
#[derive(Debug)]
struct SharedCache {
    cache: Arc<ResultCache>,
    table_name: String,
    /// The table's mutation epoch as of attach time, read by the caller
    /// *before* snapshotting the table this executor owns. Admissions
    /// use it so a mutation that raced the attach leaves entries refused
    /// (dead epoch), never stale.
    epoch: u64,
}

/// A query middleware that caches answers and speculatively executes
/// neighbor queries after each foreground request.
#[derive(Debug)]
pub struct SpeculativeExecutor {
    /// The owned, immutable table snapshot queries run against. An
    /// `Arc` so a concurrent engine can hand out executors without
    /// borrowing from its catalog.
    table: Arc<Table>,
    cache: Mutex<HashMap<RangeRequest, f64>>,
    /// When set, answers live in the shared semantic result cache
    /// instead of the private map.
    shared: Option<SharedCache>,
    /// Speculation budget per foreground query (0 disables).
    budget: usize,
    stats: Mutex<SpeculationStats>,
    /// Optional observability registry mirroring the stats counters.
    metrics: Option<Arc<MetricsRegistry>>,
    /// Optional session cancellation token: checked before the
    /// foreground query and before each speculative neighbor.
    cancel: Option<CancelToken>,
}

impl SpeculativeExecutor {
    /// Wrap a table snapshot (a `Table` or an `Arc<Table>`). `budget`
    /// neighbor queries run after each request.
    pub fn new(table: impl Into<Arc<Table>>, budget: usize) -> Self {
        SpeculativeExecutor {
            table: table.into(),
            cache: Mutex::new(HashMap::new()),
            shared: None,
            budget,
            stats: Mutex::new(SpeculationStats::default()),
            metrics: None,
            cancel: None,
        }
    }

    /// Attach a session cancellation token. A triggered token fails the
    /// foreground query and silently stops background speculation.
    pub fn with_cancel(mut self, cancel: Option<CancelToken>) -> Self {
        self.cancel = cancel;
        self
    }

    /// Mirror hit/miss/speculation counters into an observability
    /// registry as `prefetch.hits` / `prefetch.misses` /
    /// `prefetch.speculative_runs`.
    pub fn with_metrics(mut self, metrics: Arc<MetricsRegistry>) -> Self {
        self.metrics = Some(metrics);
        self
    }

    fn bump(&self, name: &str) {
        if let Some(metrics) = &self.metrics {
            metrics.inc(name, 1);
        }
    }

    /// Store answers in the engine's shared result cache rather than
    /// this session's private map. Eviction and invalidation then follow
    /// the shared cache's policy. `epoch` is `table_name`'s mutation
    /// epoch, and the caller must read it **before** taking the table
    /// snapshot this executor was built from (see
    /// `explore_cache::cached_query_at_epoch`).
    pub fn with_shared_cache(
        mut self,
        cache: Arc<ResultCache>,
        table_name: &str,
        epoch: u64,
    ) -> Self {
        self.shared = Some(SharedCache {
            cache,
            table_name: table_name.to_owned(),
            epoch,
        });
        self
    }

    /// True when a request's answer is already resident.
    fn is_cached(&self, req: &RangeRequest) -> bool {
        match &self.shared {
            Some(s) => {
                let fp = Fingerprint::for_query(&s.table_name, &req.to_query());
                s.cache.contains(&fp)
            }
            None => self.cache.lock().contains_key(req),
        }
    }

    /// Execute a request (cache → compute), then speculate on its
    /// neighbors up to the budget.
    pub fn execute(&self, req: &RangeRequest) -> Result<f64> {
        if let Some(c) = &self.cancel {
            c.check()?;
        }
        let answer = if self.shared.is_some() {
            // `run` serves residents straight from the shared cache, so
            // probe first only to attribute the hit/miss.
            let hit = self.is_cached(req);
            let v = self.run(req)?;
            {
                let mut stats = self.stats.lock();
                if hit {
                    stats.hits += 1;
                } else {
                    stats.misses += 1;
                }
            }
            self.bump(if hit {
                "prefetch.hits"
            } else {
                "prefetch.misses"
            });
            v
        } else {
            // Bind before matching: a scrutinee temporary would hold the
            // lock across the whole match, deadlocking the miss arm.
            let cached = self.cache.lock().get(req).copied();
            match cached {
                Some(v) => {
                    self.stats.lock().hits += 1;
                    self.bump("prefetch.hits");
                    v
                }
                None => {
                    let v = self.run(req)?;
                    self.stats.lock().misses += 1;
                    self.bump("prefetch.misses");
                    self.cache.lock().insert(req.clone(), v);
                    v
                }
            }
        };
        // Speculation phase ("user think time"). Background work is
        // best-effort: a cancel stops it without failing the answer
        // already computed above.
        let mut done = 0;
        for n in req.neighbors() {
            if done >= self.budget {
                break;
            }
            if self.cancel.as_ref().is_some_and(CancelToken::is_cancelled) {
                break;
            }
            if self.is_cached(&n) {
                continue;
            }
            let v = self.run(&n)?;
            if self.shared.is_none() {
                self.cache.lock().insert(n, v);
            }
            self.stats.lock().speculative_runs += 1;
            self.bump("prefetch.speculative_runs");
            done += 1;
        }
        Ok(answer)
    }

    fn run(&self, req: &RangeRequest) -> Result<f64> {
        let query = req.to_query();
        let ctx = QueryCtx::new(explore_exec::ExecPolicy::Serial).with_cancel(self.cancel.clone());
        let result = match &self.shared {
            // The shared path serves hits, subsumption reuse and
            // admission inside `cached_query_at_epoch`, admitting under
            // the attach-time epoch.
            Some(s) => {
                cached_query_at_epoch(&s.cache, &self.table, &s.table_name, &query, &ctx, s.epoch)?
            }
            None => run_query(&self.table, &query, &ctx)?,
        };
        let name = format!("{}({})", req.func, req.measure);
        let col = result
            .column(&name)?
            .as_f64()
            .ok_or_else(|| StorageError::Internal(format!("aggregate {name} is not Float64")))?;
        col.first().copied().ok_or_else(|| {
            StorageError::Internal(format!("aggregate {name} produced an empty column"))
        })
    }

    /// Session statistics.
    pub fn stats(&self) -> SpeculationStats {
        *self.stats.lock()
    }

    /// Cached answers (entries in the shared cache when one is wired).
    pub fn cached(&self) -> usize {
        match &self.shared {
            Some(s) => s.cache.len(),
            None => self.cache.lock().len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use explore_storage::gen::{sales_table, SalesConfig};
    use explore_storage::Predicate;

    fn table() -> Table {
        sales_table(&SalesConfig {
            rows: 20_000,
            ..SalesConfig::default()
        })
    }

    fn req(low: i64, high: i64) -> RangeRequest {
        RangeRequest {
            column: "qty".into(),
            low,
            high,
            func: AggFunc::Sum,
            measure: "price".into(),
        }
    }

    #[test]
    fn answers_are_exact() {
        let t = table();
        let ex = SpeculativeExecutor::new(t.clone(), 4);
        let got = ex.execute(&req(2, 5)).unwrap();
        let sel = Predicate::range("qty", 2i64, 5i64).evaluate(&t).unwrap();
        let prices = t.column("price").unwrap().as_f64().unwrap();
        let truth: f64 = sel.iter().map(|&i| prices[i as usize]).sum();
        assert!((got - truth).abs() < 1e-6);
    }

    #[test]
    fn panning_sessions_hit_the_speculated_neighbors() {
        let t = table();
        let spec = SpeculativeExecutor::new(t.clone(), 4);
        let base = SpeculativeExecutor::new(t.clone(), 0);
        // A pan-right session: each request is the previous shifted by
        // its width — exactly the "pan right" neighbor.
        for step in 0..4 {
            let r = req(1 + step * 2, 3 + step * 2);
            assert_eq!(spec.execute(&r).unwrap(), base.execute(&r).unwrap());
        }
        let s = spec.stats();
        let b = base.stats();
        assert!(s.hit_rate() > b.hit_rate(), "{s:?} vs {b:?}");
        assert!(s.hits >= 3, "steps 2-4 should be prefetched: {s:?}");
        assert_eq!(b.hits, 0);
        assert!(s.speculative_runs > 0);
    }

    #[test]
    fn budget_zero_disables_speculation() {
        let t = table();
        let ex = SpeculativeExecutor::new(t.clone(), 0);
        ex.execute(&req(2, 5)).unwrap();
        assert_eq!(ex.stats().speculative_runs, 0);
        assert_eq!(ex.cached(), 1, "only the foreground answer");
    }

    #[test]
    fn repeat_requests_are_hits_even_without_speculation() {
        let t = table();
        let ex = SpeculativeExecutor::new(t.clone(), 0);
        ex.execute(&req(2, 5)).unwrap();
        ex.execute(&req(2, 5)).unwrap();
        let s = ex.stats();
        assert_eq!((s.hits, s.misses), (1, 1));
        assert_eq!(s.hit_rate(), 0.5);
    }

    #[test]
    fn shared_cache_mode_matches_private_and_is_engine_visible() {
        let t = table();
        let shared = Arc::new(ResultCache::default());
        let spec = SpeculativeExecutor::new(t.clone(), 4).with_shared_cache(
            Arc::clone(&shared),
            "sales",
            shared.epoch("sales"),
        );
        let base = SpeculativeExecutor::new(t.clone(), 4);
        for step in 0..4 {
            let r = req(1 + step * 2, 3 + step * 2);
            assert_eq!(spec.execute(&r).unwrap(), base.execute(&r).unwrap());
        }
        let s = spec.stats();
        assert!(s.hits >= 3, "speculated neighbors should hit: {s:?}");
        assert!(spec.cached() > 0);
        assert_eq!(spec.cached(), shared.len());
        // The speculated answers are plain cached queries: an engine-level
        // request for the same shape is a shared-cache hit.
        let q = Query::new()
            .filter(Predicate::range("qty", 1i64, 3i64))
            .agg(AggFunc::Sum, "price");
        let hits_before = shared.stats().hits;
        cached_query_at_epoch(
            &shared,
            &t,
            "sales",
            &q,
            &QueryCtx::none(),
            shared.epoch("sales"),
        )
        .unwrap();
        assert_eq!(shared.stats().hits, hits_before + 1);
        // An epoch bump (mutation) empties the session's view of the cache.
        shared.bump_epoch("sales");
        let r = req(1, 3);
        spec.execute(&r).unwrap();
        assert_eq!(spec.stats().misses, s.misses + 1, "post-mutation refetch");
    }

    #[test]
    fn neighbors_are_well_formed() {
        let ns = req(10, 20).neighbors();
        assert_eq!(ns.len(), 4);
        assert!(ns.iter().all(|n| n.low < n.high));
        assert!(ns.contains(&req(20, 30)), "pan right");
        assert!(ns.contains(&req(0, 10)), "pan left");
        // Degenerate width-1 request still yields valid neighbors.
        let ns = req(5, 6).neighbors();
        assert!(ns.iter().all(|n| n.low < n.high));
    }
}
