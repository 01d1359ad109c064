//! The session driver: replay generated trajectories concurrently
//! against one shared engine and account every interaction.
//!
//! [`WorkloadRunner`] owns the engine — directly (the engine's query
//! path is `&self`, so replay threads call it concurrently with no
//! runner-level lock) or through the `explore-serve` scheduler
//! ([`DriveMode::Serve`], one serve session per analyst session,
//! sessions ≫ scheduler workers) — plus a shared [`GridIndex`] for the
//! pan sessions, which never touch the engine at all. `run` replays
//! every [`SessionSpec`] and emits a [`WorkloadReport`].
//!
//! The runner times each interaction only to decide whether it broke
//! the SLO budget; latency distributions, queueing shares and
//! throughput are the repo benchmark's job (`benchmark/`,
//! `driver.*` / `serve.*` metrics), not this crate's.
//!
//! Determinism contract: the SLO-violation count is *measured* and
//! varies run to run, but everything in
//! [`WorkloadReport::deterministic`] — session/interaction/error counts,
//! per-class counts, and the result `checksum` — is a pure function of
//! the [`WorkloadConfig`] as long as no deadline or cancel cuts a query
//! short. Two properties make that hold under concurrency: every engine
//! result is bit-identical across exec/cache/shard policies and cracking
//! states (the differential suites' invariant), and the digests below
//! are order-independent wherever ordering depends on thread interleave
//! (across sessions, and across row ids within a `cracked_range`
//! answer, whose order depends on how far cracking has converged).

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use explore_cache::{CachePolicy, ResultCache};
use explore_core::{ExploreDb, SessionCtx};
use explore_exec::ExecPolicy;
use explore_fault::FailPoints;
use explore_prefetch::{CellAgg, GridIndex, PanSession, Viewport};
use explore_serve::{ServeConfig, ServeEngine, Session as ServeSession};
use explore_shard::ShardPolicy;
use explore_storage::gen::{sales_table, sky_table, SalesConfig};
use explore_storage::{AggFunc, Predicate, Query, Result, StorageError, Table};

use crate::spec::{Interaction, SessionSpec, GRID_CELLS};

/// How interactions reach the engine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DriveMode {
    /// Each replay thread calls the engine directly; the query path is
    /// `&self`, so calls overlap with zero queueing delay.
    Direct,
    /// Route every engine interaction through the `explore-serve`
    /// scheduler: one serve session per analyst session, multiplexed
    /// over `workers` scheduler threads behind a `queue_limit`-bounded
    /// run queue. Admission rejections are retried after a backoff and
    /// counted in [`WorkloadReport::rejections`].
    Serve { workers: usize, queue_limit: usize },
}

/// Everything that determines a workload run. `seed` fixes the
/// trajectories *and* the synthetic data; the policies pick the engine
/// configuration under test.
#[derive(Debug, Clone)]
pub struct WorkloadConfig {
    /// Number of concurrent analyst sessions.
    pub sessions: usize,
    /// Interactions per session.
    pub interactions: usize,
    /// Master seed: trajectories and generated tables derive from it.
    pub seed: u64,
    /// Rows in the generated sales fact table (the sky table gets half).
    pub rows: usize,
    /// Worker threads replaying sessions (round-robin assignment).
    pub threads: usize,
    pub exec: ExecPolicy,
    pub cache: CachePolicy,
    pub shard: ShardPolicy,
    /// Engine-enforced per-query deadline; `None` leaves queries uncut
    /// (required for a deterministic checksum).
    pub deadline: Option<Duration>,
    /// SLO budget per interaction: answers slower than this count as
    /// violations even when they complete.
    pub budget: Duration,
    /// How interactions reach the engine (direct shared-engine calls
    /// vs. the serve scheduler).
    pub mode: DriveMode,
}

impl Default for WorkloadConfig {
    fn default() -> Self {
        WorkloadConfig {
            sessions: 4,
            interactions: 24,
            seed: 0xE15E_ED00,
            rows: 20_000,
            threads: 4,
            exec: ExecPolicy::Serial,
            cache: CachePolicy::on(),
            shard: ShardPolicy::Off,
            deadline: None,
            budget: Duration::from_millis(50),
            mode: DriveMode::Direct,
        }
    }
}

/// The deterministic projection of a report: exactly the fields that
/// are a pure function of the config (see the module docs).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeterministicReport {
    pub sessions: u64,
    pub interactions: u64,
    pub errors: u64,
    pub checksum: u64,
    pub class_counts: BTreeMap<String, u64>,
}

/// What one workload run produced.
#[derive(Debug, Clone)]
pub struct WorkloadReport {
    /// Sessions replayed.
    pub sessions: u64,
    /// Interactions attempted (completed + errored).
    pub interactions: u64,
    /// Interactions that broke the SLO budget or were cut by the
    /// engine deadline.
    pub violations: u64,
    /// Interactions that returned an error (deadline, cancel, fault).
    pub errors: u64,
    /// Serve-mode admission rejections (typed `Overloaded` errors),
    /// each retried after a backoff until admitted — truth is always
    /// re-served, so rejections never change the checksum. Always 0 in
    /// direct mode.
    pub rejections: u64,
    /// Order-independent digest of every successful result.
    pub checksum: u64,
    /// Interactions attempted per class, keyed by interaction kind.
    pub classes: BTreeMap<String, u64>,
}

impl WorkloadReport {
    /// Fraction of interactions that violated their budget, percent.
    pub fn violation_rate_pct(&self) -> f64 {
        if self.interactions == 0 {
            0.0
        } else {
            100.0 * self.violations as f64 / self.interactions as f64
        }
    }

    /// The seed-reproducible projection (see the module docs).
    pub fn deterministic(&self) -> DeterministicReport {
        DeterministicReport {
            sessions: self.sessions,
            interactions: self.interactions,
            errors: self.errors,
            checksum: self.checksum,
            class_counts: self.classes.clone(),
        }
    }
}

/// What one session replay brought home.
struct SessionOutcome {
    /// (class, violated) per interaction, in order.
    interactions: Vec<(&'static str, bool)>,
    errors: u64,
    /// Admission rejections this session absorbed (serve mode only).
    rejections: u64,
    /// Sequential fold of this session's result digests.
    digest: u64,
}

/// SplitMix64 finalizer — the mixing step used for all digests.
fn mix(mut x: u64) -> u64 {
    x ^= x >> 30;
    x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// FNV-style sequential fold (order matters — used only where order is
/// deterministic).
fn fold(acc: u64, x: u64) -> u64 {
    (acc ^ mix(x)).wrapping_mul(0x0000_0100_0000_01B3)
}

/// Digest of a result table: schema names + every cell, bit-exact for
/// floats. Table contents are deterministic, so an ordered fold is fine.
fn table_digest(t: &Table) -> u64 {
    let mut d = 0xCBF2_9CE4_8422_2325u64;
    for field in t.schema().fields() {
        for b in field.name().bytes() {
            d = fold(d, b as u64);
        }
    }
    for col in t.columns() {
        if let Some(v) = col.as_i64() {
            d = v.iter().fold(d, |d, &x| fold(d, x as u64));
        } else if let Some(v) = col.as_f64() {
            d = v.iter().fold(d, |d, &x| fold(d, x.to_bits()));
        } else if let Some(v) = col.strs() {
            d = v.fold(d, |d, s| {
                s.bytes().fold(fold(d, 0x5F), |d, b| fold(d, b as u64))
            });
        }
    }
    d
}

/// Digest of a `cracked_range` answer. Id order depends on how far
/// cracking has converged (i.e. on cross-session interleave), so the
/// digest is order-independent: length plus a commutative sum of mixed
/// ids.
fn ids_digest(ids: &[u32]) -> u64 {
    ids.iter().fold(mix(ids.len() as u64), |d, &id| {
        d.wrapping_add(mix(id as u64 + 1))
    })
}

/// Digest of a pan viewport answer (cell order is fixed by the
/// viewport, so an ordered fold is fine).
fn cells_digest(cells: &[CellAgg]) -> u64 {
    cells.iter().fold(0x9E37_79B9_7F4A_7C15u64, |d, c| {
        fold(fold(d, c.count), c.sum.to_bits())
    })
}

/// The engine call for one interaction, owned so the serve scheduler
/// can run it on a worker thread.
type InteractionOp = Box<dyn FnOnce(&ExploreDb) -> Result<u64> + Send>;

/// How the runner reaches the engine (see [`DriveMode`]).
enum Backend {
    Direct(Box<ExploreDb>),
    Serve(ServeEngine),
}

/// Replays seeded exploration sessions against one shared engine.
pub struct WorkloadRunner {
    config: WorkloadConfig,
    specs: Vec<SessionSpec>,
    backend: Backend,
    grid: GridIndex,
    cache: Arc<ResultCache>,
    cache_on: bool,
    faults: Arc<FailPoints>,
}

impl WorkloadRunner {
    /// Build the engine (sales table + sky grid, policies applied) and
    /// generate every session trajectory.
    pub fn new(config: WorkloadConfig) -> Result<Self> {
        let specs = (0..config.sessions as u64)
            .map(|s| SessionSpec::generate(config.seed, s, config.interactions))
            .collect();
        let db = ExploreDb::new();
        db.register(
            "sales",
            sales_table(&SalesConfig {
                rows: config.rows,
                seed: config.seed ^ 0x5A1E_5F00D,
                ..SalesConfig::default()
            }),
        );
        db.set_exec_policy(config.exec);
        db.set_cache_policy(config.cache.clone());
        db.set_shard_policy(config.shard.clone());
        let sky = sky_table(
            (config.rows / 2).max(1_000),
            6,
            100.0,
            config.seed ^ 0x5C1_F1E1D,
        );
        let grid = GridIndex::build(
            &sky,
            "x",
            "y",
            "mag",
            GRID_CELLS as usize,
            GRID_CELLS as usize,
        )?;
        let cache = db.cache();
        let cache_on = db.cache_policy().is_on();
        let faults = db.fail_points();
        let backend = match config.mode {
            DriveMode::Direct => Backend::Direct(Box::new(db)),
            DriveMode::Serve {
                workers,
                queue_limit,
            } => Backend::Serve(ServeEngine::with_config(
                db,
                ServeConfig::with_workers(workers).with_queue_limit(queue_limit),
            )),
        };
        Ok(WorkloadRunner {
            config,
            specs,
            backend,
            grid,
            cache,
            cache_on,
            faults,
        })
    }

    /// The engine's fail-point registry, for chaos workloads.
    pub fn fail_points(&self) -> Arc<FailPoints> {
        Arc::clone(&self.faults)
    }

    /// Replay every session concurrently and summarize.
    pub fn run(&self) -> Result<WorkloadReport> {
        let workers = self.config.threads.max(1).min(self.specs.len().max(1));
        let outcomes: Vec<SessionOutcome> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers)
                .map(|w| {
                    scope.spawn(move || {
                        self.specs
                            .iter()
                            .skip(w)
                            .step_by(workers)
                            .map(|spec| self.replay(spec))
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().expect("workload session thread panicked"))
                .collect()
        });

        // Combine sessions order-independently: thread scheduling must
        // not leak into the checksum.
        let checksum = outcomes
            .iter()
            .fold(0u64, |acc, o| acc.wrapping_add(mix(o.digest)));
        let errors = outcomes.iter().map(|o| o.errors).sum();
        let rejections = outcomes.iter().map(|o| o.rejections).sum();
        let mut classes: BTreeMap<String, u64> = BTreeMap::new();
        let mut violations = 0u64;
        let mut interactions = 0u64;
        for o in &outcomes {
            for &(kind, violated) in &o.interactions {
                interactions += 1;
                violations += violated as u64;
                *classes.entry(kind.to_owned()).or_default() += 1;
            }
        }

        Ok(WorkloadReport {
            sessions: self.specs.len() as u64,
            interactions,
            violations,
            errors,
            rejections,
            checksum,
            classes,
        })
    }

    /// The engine call for one interaction, as an owned closure the
    /// serve scheduler can run on a worker thread. `None` for pan
    /// interactions, which never touch the engine. Each call constructs
    /// a fresh closure, so a rejected submission can be retried.
    fn interaction_op(it: &Interaction) -> Option<InteractionOp> {
        match *it {
            Interaction::Filter { lo, hi } | Interaction::Refine { lo, hi } => {
                Some(Box::new(move |db| {
                    let q = Query::new()
                        .filter(Predicate::range("price", lo, hi))
                        .group("region")
                        .agg(AggFunc::Sum, "price");
                    db.query("sales", &q).map(|t| table_digest(&t))
                }))
            }
            Interaction::Drill { dim_a, dim_b } => Some(Box::new(move |db| {
                db.discover_cube("sales", dim_a, dim_b, "price")
                    .map(|view| {
                        view.cells().iter().fold(0x0D11_1100u64, |d, c| {
                            let d = c.dim_a.bytes().fold(d, |d, b| fold(d, b as u64));
                            let d = c.dim_b.bytes().fold(d, |d, b| fold(d, b as u64));
                            fold(d, c.actual.to_bits())
                        })
                    })
            })),
            Interaction::Lookup { qty } => Some(Box::new(move |db| {
                db.cracked_range("sales", "qty", qty, qty + 1)
                    .map(|ids| ids_digest(&ids))
            })),
            Interaction::Pan { .. } => None,
        }
    }

    /// Run one engine-backed interaction through the active backend.
    /// Serve-mode admission rejections are counted and retried after
    /// yielding — truth is always re-served.
    fn dispatch(
        &self,
        session: Option<&ServeSession>,
        overlay: &SessionCtx,
        it: &Interaction,
        rejections: &mut u64,
    ) -> Result<u64> {
        match session {
            Some(s) => loop {
                let op = Self::interaction_op(it).expect("pan never dispatches");
                match s.submit(op) {
                    Ok(ticket) => break ticket.wait(),
                    Err(StorageError::Overloaded { .. }) => {
                        *rejections += 1;
                        std::thread::yield_now();
                    }
                    Err(e) => break Err(e),
                }
            },
            None => {
                let op = Self::interaction_op(it).expect("pan never dispatches");
                let Backend::Direct(db) = &self.backend else {
                    unreachable!("direct dispatch without a serve session")
                };
                db.with_session(overlay, |db| op(db))
            }
        }
    }

    /// Replay one session: every interaction is timed, accounted, and
    /// digested. Errors are counted, never propagated — a degraded
    /// engine must not kill the workload.
    fn replay(&self, spec: &SessionSpec) -> SessionOutcome {
        let serve_session = match &self.backend {
            Backend::Serve(engine) => Some(engine.session().with_deadline(self.config.deadline)),
            Backend::Direct(_) => None,
        };
        // Direct mode scopes the per-query deadline to this replay
        // session's calls, mirroring what a serve session carries.
        let overlay = SessionCtx::new().with_deadline(self.config.deadline);
        let mut pan = PanSession::new(&self.grid, true);
        if self.cache_on {
            pan = pan.with_shared_cache(Arc::clone(&self.cache), "sky");
        }
        let mut vp = Viewport {
            cx: GRID_CELLS / 2,
            cy: GRID_CELLS / 2,
            w: 4,
            h: 4,
        };
        let mut interactions = Vec::with_capacity(spec.interactions.len());
        let mut errors = 0u64;
        let mut rejections = 0u64;
        let mut digest = 0xD16E_5700_0000_0000u64 ^ mix(spec.session);
        for it in &spec.interactions {
            let start = Instant::now();
            let outcome: Result<u64> = match *it {
                Interaction::Pan { dx, dy, resize } => {
                    vp.cx = (vp.cx + dx).clamp(0, GRID_CELLS - 1);
                    vp.cy = (vp.cy + dy).clamp(0, GRID_CELLS - 1);
                    vp.w = (vp.w as i64 + resize).clamp(2, 6) as usize;
                    vp.h = (vp.h as i64 + resize).clamp(2, 6) as usize;
                    pan.view(vp).map(|cells| cells_digest(&cells))
                }
                _ => self.dispatch(serve_session.as_ref(), &overlay, it, &mut rejections),
            };
            let mut violated = start.elapsed() > self.config.budget;
            match outcome {
                Ok(d) => digest = fold(digest, d),
                Err(e) => {
                    errors += 1;
                    if matches!(e, StorageError::DeadlineExceeded) {
                        violated = true;
                    }
                }
            }
            interactions.push((it.kind(), violated));
        }
        SessionOutcome {
            interactions,
            errors,
            rejections,
            digest,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_config() -> WorkloadConfig {
        WorkloadConfig {
            sessions: 3,
            interactions: 12,
            rows: 4_000,
            threads: 3,
            ..WorkloadConfig::default()
        }
    }

    #[test]
    fn runs_and_accounts_every_interaction() {
        let runner = WorkloadRunner::new(quick_config()).unwrap();
        assert_eq!(runner.specs.len(), 3);
        let report = runner.run().unwrap();
        assert_eq!(report.sessions, 3);
        assert_eq!(report.interactions, 36);
        assert_eq!(report.errors, 0);
        assert_eq!(report.classes.values().sum::<u64>(), 36);
    }

    #[test]
    fn same_config_same_deterministic_report() {
        let a = WorkloadRunner::new(quick_config()).unwrap().run().unwrap();
        let b = WorkloadRunner::new(quick_config()).unwrap().run().unwrap();
        assert_eq!(a.deterministic(), b.deterministic());
        let mut other = quick_config();
        other.seed ^= 1;
        let c = WorkloadRunner::new(other).unwrap().run().unwrap();
        assert_ne!(
            a.deterministic().checksum,
            c.deterministic().checksum,
            "different seed must explore different results"
        );
    }

    #[test]
    fn deadline_cuts_become_counted_violations_not_panics() {
        let mut cfg = quick_config();
        cfg.deadline = Some(Duration::ZERO);
        let report = WorkloadRunner::new(cfg).unwrap().run().unwrap();
        // Pan runs off-grid without engine calls, so only engine-backed
        // classes get cut; every error must be counted, nothing panics.
        assert!(report.errors > 0);
        assert!(report.violations >= report.errors);
        assert_eq!(report.interactions, 36);
    }

    #[test]
    fn serve_mode_preserves_the_checksum_with_sessions_past_workers() {
        let direct = WorkloadRunner::new(quick_config()).unwrap().run().unwrap();
        let served = WorkloadRunner::new(WorkloadConfig {
            mode: DriveMode::Serve {
                workers: 2,
                queue_limit: 64,
            },
            ..quick_config()
        })
        .unwrap()
        .run()
        .unwrap();
        assert_eq!(
            direct.deterministic(),
            served.deterministic(),
            "scheduling must change when queries run, never what they compute"
        );
    }

    #[test]
    fn report_math_handles_empty_runs() {
        let cfg = WorkloadConfig {
            sessions: 0,
            interactions: 0,
            rows: 1_000,
            ..WorkloadConfig::default()
        };
        let report = WorkloadRunner::new(cfg).unwrap().run().unwrap();
        assert_eq!(report.interactions, 0);
        assert_eq!(report.violation_rate_pct(), 0.0);
    }
}
