//! Session handles: the client-facing half of the serving layer.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use explore_cache::CachePolicy;
use explore_core::{ExploreDb, SessionCtx};
use explore_exec::ExecPolicy;
use explore_fault::CancelToken;
use explore_obs::ObsPolicy;
use explore_storage::{Query, Result, Table};

use crate::config::QUANTUM;
use crate::scheduler::{Job, Shared, TaskKey};
use crate::ticket::{Payload, Ticket, TicketShared};

/// One analyst session against a served engine. Carries its own cancel
/// token, an optional deadline budget, and optional exec/cache/obs
/// policy overlays — all laid over the engine defaults, once per
/// engine call, when a scheduled query runs (DESIGN.md §10/§13).
///
/// Sessions are cheap: thousands can exist concurrently, while only the
/// fixed worker set executes queries. A session is `Send`, so a driver
/// may move it to a client thread or keep all of them on one.
pub struct Session {
    shared: Arc<Shared>,
    id: u64,
    ctx: SessionCtx,
    /// Total service time this session has consumed, the input to its
    /// fair-queueing priority bucket.
    consumed_ns: Arc<AtomicU64>,
}

impl Session {
    pub(crate) fn new(shared: Arc<Shared>) -> Session {
        let id = shared.next_session.fetch_add(1, Ordering::Relaxed);
        Session {
            shared,
            id,
            ctx: SessionCtx::new(),
            consumed_ns: Arc::new(AtomicU64::new(0)),
        }
    }

    /// This session's id (stable for its lifetime; labels and logs).
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Set the per-query deadline budget: each scheduled query gets a
    /// fresh token with this much time, and the budget also feeds the
    /// scheduler's earliest-deadline-first tiebreak.
    pub fn with_deadline(mut self, deadline: Option<Duration>) -> Session {
        self.ctx = self.ctx.with_deadline(deadline);
        self
    }

    /// Overlay an execution policy over the engine default.
    pub fn with_exec(mut self, exec: Option<ExecPolicy>) -> Session {
        self.ctx = self.ctx.with_exec(exec);
        self
    }

    /// Overlay a cache policy over the engine default.
    pub fn with_cache(mut self, cache: Option<CachePolicy>) -> Session {
        self.ctx = self.ctx.with_cache(cache);
        self
    }

    /// Overlay an observability policy over the engine default.
    pub fn with_obs(mut self, obs: Option<ObsPolicy>) -> Session {
        self.ctx = self.ctx.with_obs(obs);
        self
    }

    /// The session's cancel token. Trigger it (from any thread) and
    /// every queued or in-flight query of this session returns
    /// `Cancelled` at its next boundary.
    pub fn cancel_token(&self) -> CancelToken {
        self.ctx
            .cancel_token()
            .expect("serve sessions always own a cancel token")
    }

    /// Cancel the session (see [`Session::cancel_token`]).
    pub fn cancel(&self) {
        self.ctx.cancel();
    }

    /// Service time this session has consumed so far, in nanoseconds.
    pub fn consumed_ns(&self) -> u64 {
        self.consumed_ns.load(Ordering::Relaxed)
    }

    /// Submit one engine call for scheduled execution and return its
    /// [`Ticket`].
    ///
    /// Admission: when the run queue is at its bound this returns the
    /// typed [`Overloaded`](explore_storage::StorageError::Overloaded)
    /// error — nothing executed, nothing enqueued; back off and
    /// resubmit. With the `serve.admit` fail point armed the scheduler
    /// degrades gracefully instead: the call runs inline on the calling
    /// thread (bypassing the queue, counted as `fault.serve.inline`)
    /// and the returned ticket is already fulfilled — exact answers,
    /// degraded scheduling.
    pub fn submit<R, F>(&self, f: F) -> Result<Ticket<R>>
    where
        F: FnOnce(&ExploreDb) -> Result<R> + Send + 'static,
        R: Send + 'static,
    {
        let ticket = Arc::new(TicketShared::new());
        let run = Box::new(move |db: &ExploreDb| f(db).map(|r| Box::new(r) as Payload));
        let seq = self.shared.seq.fetch_add(1, Ordering::Relaxed);
        let quantum_ns = QUANTUM.as_nanos() as u64;
        let key = TaskKey {
            quanta: self.consumed_ns.load(Ordering::Relaxed) / quantum_ns,
            deadline_ns: match self.ctx.deadline {
                Some(budget) => (self.shared.base.elapsed() + budget).as_nanos() as u64,
                None => u64::MAX,
            },
            seq,
        };
        let job = Job {
            run,
            ticket: Arc::clone(&ticket),
            overlay: self.ctx.clone(),
            consumed_ns: Arc::clone(&self.consumed_ns),
            key,
            enqueued: Instant::now(),
        };
        if self.shared.faults.fire("serve.admit") {
            self.shared.faults.note("fault.serve.inline");
            self.shared.metric_inc("serve.inline");
            self.shared.execute(job, true);
            return Ok(Ticket::new(ticket));
        }
        self.shared.enqueue(job)?;
        Ok(Ticket::new(ticket))
    }

    /// Submit one engine call and block for its result.
    pub fn run<R, F>(&self, f: F) -> Result<R>
    where
        F: FnOnce(&ExploreDb) -> Result<R> + Send + 'static,
        R: Send + 'static,
    {
        self.submit(f)?.wait()
    }

    /// Convenience: run an exact query through this session's overlay.
    pub fn query(&self, table: &str, query: &Query) -> Result<Table> {
        let table = table.to_owned();
        let query = query.clone();
        self.run(move |db| db.query(&table, &query))
    }
}

impl std::fmt::Debug for Session {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Session")
            .field("id", &self.id)
            .field("consumed_ns", &self.consumed_ns())
            .field("ctx", &self.ctx)
            .finish()
    }
}
