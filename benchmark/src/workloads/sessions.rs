//! The closed-loop session driver `analyst_mixed` and the readers of
//! `ingest_under_read` share: **one** driver thread round-robins the
//! sessions, one outstanding `Ticket` each, zero think time. Latency is
//! stamped inside the submitted closure (submit instant → closure end),
//! so it covers queueing and service but not how long this thread took
//! to come back to the ticket.

use std::sync::Arc;
use std::time::Instant;

use exploration::cache::ResultCache;
use exploration::prefetch::{CellAgg, GridIndex, PanSession, Viewport};
use exploration::serve::{ServeEngine, Session, Ticket};
use exploration::storage::StorageError;

use super::{Answer, EngineOp};
use crate::gen::{fold, AnalystOp, AnalystStream, Quantiles};
use crate::shadow::Ledger;
use crate::trace::Trace;

/// Sky-grid resolution the pan interactions assume.
pub const GRID_CELLS: i64 = 32;

/// An op with its value-space parameters: what the check replays.
#[derive(Debug, Clone, Copy)]
pub enum Resolved {
    Engine(EngineOp),
    Pan(Viewport),
}

/// One completed (or failed) interaction. Times are ns since the
/// phase's epoch.
#[derive(Debug, Clone, Copy)]
pub struct Record {
    pub session: usize,
    /// Index into [`crate::gen::CLASSES`].
    pub class: usize,
    pub op: Resolved,
    /// Submit instant; for a served op the closure's start and end are
    /// stamped inside the submitted closure.
    pub submit: u64,
    pub start: u64,
    pub end: u64,
    /// Time in the serve run queue, from `Ticket::queue_ns`.
    pub queue: u64,
    /// `None` when the op failed or was refused.
    pub answer: Option<Answer>,
}

impl Record {
    pub fn latency(&self) -> u64 {
        self.end - self.submit
    }

    pub fn body(&self) -> u64 {
        self.end - self.start
    }

    pub fn digest(&self) -> Option<u64> {
        self.answer.map(|a| a.digest)
    }

    /// Record a served op's real spans — the ticket from submit to the
    /// closure's end, and under it the run-queue wait — and its `serve`
    /// samples. Returns the ticket span for the engine call to hang
    /// under; the ticket's self time is the serve layer's own overhead.
    pub fn serve_spans(&self, op: u64, trace: &mut Trace, ledger: &mut Ledger) -> u32 {
        let root = trace.real(op, 0, "serve.ticket", self.submit, self.end);
        trace.real(
            op,
            root,
            "serve.queue",
            self.submit,
            self.submit + self.queue,
        );
        ledger.push("serve.queue_ms_p50", self.queue as f64);
        ledger.push("serve.queue_ms_p95", self.queue as f64);
        ledger.push(
            "serve.overhead_us_p50",
            self.latency() as f64 - self.queue as f64 - self.body() as f64,
        );
        root
    }
}

/// What driving the sessions produced.
pub struct Driven {
    /// In completion order.
    pub records: Vec<Record>,
    /// `Overloaded` refusals (also recorded as failed ops).
    pub rejected: u64,
    pub pan_hits: u64,
    pub pan_misses: u64,
}

pub fn cells_digest(cells: &[CellAgg]) -> u64 {
    cells.iter().fold(0x9E37_79B9_7F4A_7C15u64, |d, c| {
        fold(fold(d, c.count), c.sum.to_bits())
    })
}

/// What a served closure brings back.
struct Done {
    answer: Answer,
    start: Instant,
    end: Instant,
}

struct Inflight {
    ticket: Ticket<Done>,
    op: EngineOp,
    class: usize,
    submit: Instant,
}

struct Slot<'g> {
    stream: AnalystStream,
    session: Session,
    /// `None` when the mix has no pans.
    pan: Option<PanSession<'g>>,
    viewport: Viewport,
    inflight: Option<Inflight>,
}

/// Replay `streams` against the served engine until `keep_going` says
/// stop, then drain. `sky` is the pan grid and the engine cache the pan
/// sessions park their cells in; `None` for a mix without pans.
pub fn drive_sessions(
    serve: &ServeEngine,
    streams: Vec<AnalystStream>,
    price: &Quantiles,
    sky: Option<(&GridIndex, Arc<ResultCache>)>,
    epoch: Instant,
    keep_going: impl Fn() -> bool,
) -> Driven {
    let mut slots: Vec<Slot> = streams
        .into_iter()
        .map(|stream| Slot {
            stream,
            session: serve.session(),
            pan: sky.as_ref().map(|(grid, cache)| {
                PanSession::new(grid, true).with_shared_cache(Arc::clone(cache), "sky")
            }),
            viewport: Viewport {
                cx: GRID_CELLS / 2,
                cy: GRID_CELLS / 2,
                w: 4,
                h: 4,
            },
            inflight: None,
        })
        .collect();
    let mut records = Vec::new();
    let mut rejected = 0;
    let ns = |at: Instant| at.saturating_duration_since(epoch).as_nanos() as u64;

    loop {
        let mut busy = false;
        for (s, slot) in slots.iter_mut().enumerate() {
            if let Some(inflight) = slot.inflight.take() {
                let outcome = inflight.ticket.wait();
                let submit = ns(inflight.submit);
                let (start, end, answer) = match outcome {
                    Ok(done) => (ns(done.start), ns(done.end), Some(done.answer)),
                    Err(_) => (submit, ns(Instant::now()), None),
                };
                records.push(Record {
                    session: s,
                    class: inflight.class,
                    op: Resolved::Engine(inflight.op),
                    submit,
                    start,
                    end,
                    queue: inflight.ticket.queue_ns(),
                    answer,
                });
            }
            // Issue the session's next op. A pan runs inline on this
            // thread (it never touches the engine), so keep going until
            // an op reaches the engine or it is time to stop.
            while keep_going() {
                let next = slot.stream.next().expect("endless stream");
                let class = next.class();
                let op = match next {
                    AnalystOp::Pan { dx, dy, resize } => {
                        let pan = slot.pan.as_mut().expect("a mix with pans has a sky grid");
                        let vp = &mut slot.viewport;
                        vp.cx = (vp.cx + dx).clamp(0, GRID_CELLS - 1);
                        vp.cy = (vp.cy + dy).clamp(0, GRID_CELLS - 1);
                        vp.w = (vp.w as i64 + resize).clamp(2, 6) as usize;
                        vp.h = (vp.h as i64 + resize).clamp(2, 6) as usize;
                        let started = Instant::now();
                        let answer = pan.view(*vp).ok().map(|cells| Answer {
                            digest: cells_digest(&cells),
                            rows: cells.len() as u64,
                        });
                        let submit = ns(started);
                        records.push(Record {
                            session: s,
                            class,
                            op: Resolved::Pan(*vp),
                            submit,
                            start: submit,
                            end: ns(Instant::now()),
                            queue: 0,
                            answer,
                        });
                        continue;
                    }
                    AnalystOp::Filter { lo, hi } | AnalystOp::Refine { lo, hi } => {
                        EngineOp::Range {
                            lo: price.at(lo),
                            hi: price.at(hi),
                        }
                    }
                    AnalystOp::Drill { pair } => EngineOp::Drill(pair),
                    AnalystOp::Lookup { qty } => EngineOp::Lookup(qty),
                };
                let submit = Instant::now();
                let submitted = slot.session.submit(move |db| {
                    let start = Instant::now();
                    let answer = op.call(db)?;
                    Ok(Done {
                        answer,
                        start,
                        end: Instant::now(),
                    })
                });
                match submitted {
                    Ok(ticket) => {
                        slot.inflight = Some(Inflight {
                            ticket,
                            op,
                            class,
                            submit,
                        });
                    }
                    Err(e) => {
                        rejected += matches!(e, StorageError::Overloaded { .. }) as u64;
                        let submit = ns(submit);
                        records.push(Record {
                            session: s,
                            class,
                            op: Resolved::Engine(op),
                            submit,
                            start: submit,
                            end: ns(Instant::now()),
                            queue: 0,
                            answer: None,
                        });
                    }
                }
                break;
            }
            busy |= slot.inflight.is_some();
        }
        if !busy && !keep_going() {
            break;
        }
    }
    let (pan_hits, pan_misses) =
        slots
            .iter()
            .filter_map(|slot| slot.pan.as_ref())
            .fold((0, 0), |(h, m), pan| {
                let st = pan.stats();
                (h + st.hits, m + st.misses)
            });
    Driven {
        records,
        rejected,
        pan_hits,
        pan_misses,
    }
}

/// `(completion time, latency)` of the completed ops, for
/// [`crate::stats::windowed`].
pub fn completions(records: &[Record]) -> Vec<(u64, u64)> {
    records
        .iter()
        .filter(|r| r.answer.is_some())
        .map(|r| (r.end, r.latency()))
        .collect()
}
