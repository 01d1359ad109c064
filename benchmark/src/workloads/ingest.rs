//! `ingest_under_read`: writes beside reads — the same `storage`,
//! `shard`, `cracking` and `cache` layers used the other way round.
//!
//! Sales (250 k rows); `ServeEngine`, four shards, cache on, serial exec.
//! Two driver threads. The **writer** is an open loop: one mutation
//! every [`WRITE_INTERVAL`] on a fixed schedule (70 % `push_row`, 20 %
//! `append_rows` of 100 rows, 10 % `update_where` touching ≈ 0.1 % of
//! the rows), each timed from its *due* time, with the generator's own
//! lateness reported. The **readers** are one thread round-robining
//! three sessions (50 % lookup, 30 % filter, 20 % refine), closed loop,
//! until the writer's schedule ends — so a run lasts `--seconds` on
//! every commit.
//!
//! On this workload `ops_per_s` counts reads (writes are paced, and in a
//! closed loop reads per second is the inverse of mean read latency) and
//! `latency_p50_ms` / `latency_p95_ms` are the *write* latencies from
//! due time: a read-path gain that costs writes, or a write-path gain
//! that costs scans, shows here against `scan_cold`.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use exploration::cache::{table_bytes, CacheConfig, CachePolicy, ResultCache};
use exploration::exec::{ExecPolicy, QueryCtx};
use exploration::serve::{ServeConfig, ServeEngine};
use exploration::shard::{run_sharded_query, scoped_name, ShardConfig, ShardPolicy, ShardedTable};
use exploration::storage::{AggFunc, Predicate, Query, Result, Table, Value};
use exploration::ExploreDb;

use super::sessions::{completions, drive_sessions, Driven, Record, Resolved};
use super::{cache_shares, quantiles, range_query, reference_engine, sales, EngineOp};
use crate::digest::table_digest;
use crate::gen::{AnalystStream, Mutation, Quantiles, SplitMix64, WriterStream, READER_MIX};
use crate::report::{peak_rss_mb, Report};
use crate::shadow::{exec_ladder, finish_traced, time, Ledger};
use crate::stats::{pooled_p50_ms, Samples};
use crate::trace::Trace;
use crate::{serve_workers, timed_setups, Args};

const SALES_ROWS: usize = 250_000;
const SHARDS: usize = 4;
const READERS: usize = 3;
const BATCH_ROWS: usize = 100;
/// The writer's schedule: one mutation per interval.
const WRITE_INTERVAL: Duration = Duration::from_millis(50);
const SLO: Duration = Duration::from_millis(100);
/// Digest of the final-state aggregate on [`DEFAULT_SEED`] at full size
/// and the benchmark's `run_seconds`.
const PINNED_FINAL: u64 = 0x46c5_75ca_4f8f_f5ae;
const PINNED_SECONDS: f64 = 15.0;
/// One op in this many gets the full shadow ladder in a traced run.
const LADDER_EVERY: usize = 4;
const KINDS: [&str; 3] = ["core.push_row", "core.append_rows", "core.update_where"];

fn shard_config() -> ShardConfig {
    ShardConfig {
        count: SHARDS,
        ..ShardConfig::default()
    }
}

struct Env {
    serve: ServeEngine,
    /// The sales table as registered: the start state.
    start: Arc<Table>,
    price: Quantiles,
}

fn setup(args: &Args) -> Env {
    let start = Arc::new(sales(args.rows(SALES_ROWS), args.seed));
    let price = quantiles(&start, "price");
    let db = ExploreDb::with_exec_policy(ExecPolicy::Serial);
    db.set_cache_policy(CachePolicy::on());
    db.set_shard_policy(ShardPolicy::On(shard_config()));
    db.register("sales", Arc::clone(&start));
    let config = ServeConfig::with_workers(serve_workers()).with_queue_limit(256);
    Env {
        serve: ServeEngine::with_config(db, config),
        start,
        price,
    }
}

/// A mutation with its inputs built: what the writer submits and what
/// the check applies to its private table.
#[derive(Debug, Clone)]
enum Prepared {
    Push(Vec<Value>),
    Append(Arc<Table>),
    Update { strip: Predicate, value: f64 },
}

fn row(rng: &mut SplitMix64) -> Vec<Value> {
    vec![
        Value::from(format!("region{}", rng.below(8))),
        Value::from(format!("product{}", rng.below(20))),
        Value::from(format!("channel{}", rng.below(4))),
        Value::from(rng.range_f64(5.0, 500.0)),
        Value::from(rng.range_f64(0.0, 0.3)),
        Value::from(rng.range_i64(1, 9)),
    ]
}

impl Prepared {
    fn build(m: Mutation, schema_of: &Table, price: &Quantiles) -> Prepared {
        match m {
            Mutation::PushRow { row_seed } => Prepared::Push(row(&mut SplitMix64::new(row_seed))),
            Mutation::Append { row_seed, rows } => {
                let mut rng = SplitMix64::new(row_seed);
                let mut batch = Table::empty(schema_of.schema().clone());
                for _ in 0..rows {
                    batch
                        .push_row(row(&mut rng))
                        .expect("generated row fits the schema");
                }
                Prepared::Append(Arc::new(batch))
            }
            Mutation::Update { lo, hi, value } => Prepared::Update {
                strip: Predicate::range("price", price.at(lo), price.at(hi)),
                value,
            },
        }
    }

    fn kind(&self) -> usize {
        match self {
            Prepared::Push(_) => 0,
            Prepared::Append(_) => 1,
            Prepared::Update { .. } => 2,
        }
    }

    /// Apply through the engine's public mutation API.
    fn apply(&self, db: &ExploreDb) -> Result<()> {
        match self {
            Prepared::Push(values) => db.push_row("sales", values.clone()),
            Prepared::Append(batch) => db.append_rows("sales", batch),
            Prepared::Update { strip, value } => db
                .update_where("sales", strip, "discount", Value::from(*value))
                .map(|_| ()),
        }
    }

    /// Apply to a table the benchmark owns.
    fn apply_private(&self, t: &mut Table) -> Result<()> {
        match self {
            Prepared::Push(values) => t.push_row(values.clone()),
            Prepared::Append(batch) => t.append(batch),
            Prepared::Update { strip, value } => {
                for r in strip.evaluate(t)? {
                    t.set_cell("discount", r as usize, Value::from(*value))?;
                }
                Ok(())
            }
        }
    }

    /// Apply to a sharded mirror the benchmark owns; `canonical` is the
    /// whole table *before* the mutation. Returns the shards it touched.
    fn apply_sharded(&self, sharded: &ShardedTable, canonical: &Table) -> Result<Vec<usize>> {
        match self {
            Prepared::Push(values) => sharded.push_row(values.clone()).map(|s| vec![s]),
            Prepared::Append(batch) => sharded.append_rows(batch).map(|s| vec![s]),
            Prepared::Update { strip, value } => sharded.update_where(
                &strip.evaluate(canonical)?,
                "discount",
                &Value::from(*value),
            ),
        }
    }
}

/// The schedule of a phase `duration` long.
fn schedule(env: &Env, seed: u64, duration: Duration) -> Vec<Prepared> {
    let n = (duration.as_nanos() / WRITE_INTERVAL.as_nanos()) as usize;
    WriterStream::new(seed, BATCH_ROWS)
        .take(n)
        .map(|m| Prepared::build(m, &env.start, &env.price))
        .collect()
}

/// One scheduled write. Times are ns since the phase's epoch.
#[derive(Debug, Clone, Copy)]
struct Write {
    kind: usize,
    due: u64,
    issued: u64,
    start: u64,
    end: u64,
    queue: u64,
    ok: bool,
    /// Shards whose cache epoch the write moved (traced runs only).
    mutated: usize,
}

impl Write {
    fn latency(&self) -> u64 {
        self.end - self.due
    }
}

/// Epoch of every shard of the sales table.
fn shard_epochs(db: &ExploreDb) -> Vec<u64> {
    db.shard_stats("sales")
        .map_or_else(Vec::new, |st| st.iter().map(|s| s.epoch).collect())
}

/// The open-loop writer: issue mutation `i` at `epoch + i × interval`,
/// one in flight at a time; a late generator issues at once.
fn write_on_schedule(
    serve: &ServeEngine,
    muts: &[Prepared],
    epoch: Instant,
    count_shards: bool,
) -> Vec<Write> {
    let session = serve.session();
    let ns = |at: Instant| at.saturating_duration_since(epoch).as_nanos() as u64;
    let mut writes = Vec::with_capacity(muts.len());
    for (i, m) in muts.iter().enumerate() {
        let due = epoch + WRITE_INTERVAL * i as u32;
        std::thread::sleep(due.saturating_duration_since(Instant::now()));
        let issued = Instant::now();
        let m2 = m.clone();
        let ticket = session.submit(move |db| {
            let before = count_shards.then(|| shard_epochs(db));
            let start = Instant::now();
            m2.apply(db)?;
            let end = Instant::now();
            let mutated = before.map_or(0, |before| {
                let after = shard_epochs(db);
                before.iter().zip(&after).filter(|(b, a)| b != a).count()
            });
            Ok((start, end, mutated))
        });
        let (outcome, queue) = match ticket {
            Ok(t) => (t.wait(), t.queue_ns()),
            Err(e) => (Err(e), 0),
        };
        let (start, end, ok, mutated) = match outcome {
            Ok((start, end, mutated)) => (ns(start), ns(end), true, mutated),
            Err(_) => (ns(issued), ns(Instant::now()), false, 0),
        };
        writes.push(Write {
            kind: m.kind(),
            due: ns(due),
            issued: ns(issued),
            start,
            end,
            queue,
            ok,
            mutated,
        });
    }
    writes
}

struct Phase {
    muts: Vec<Prepared>,
    writes: Vec<Write>,
    reads: Driven,
}

fn drive(env: &Env, seed: u64, duration: Duration, count_shards: bool) -> Phase {
    let muts = schedule(env, seed, duration);
    let streams = (0..READERS as u64)
        .map(|s| AnalystStream::new(seed, s, READER_MIX))
        .collect();
    let done = AtomicBool::new(false);
    let epoch = Instant::now();
    let (writes, reads) = std::thread::scope(|scope| {
        let writer = scope.spawn(|| {
            let writes = write_on_schedule(&env.serve, &muts, epoch, count_shards);
            done.store(true, Ordering::SeqCst);
            writes
        });
        let reads = drive_sessions(&env.serve, streams, &env.price, None, epoch, || {
            !done.load(Ordering::SeqCst)
        });
        (writer.join().expect("writer thread panicked"), reads)
    });
    Phase {
        muts,
        writes,
        reads,
    }
}

/// The aggregate the final-state check compares.
fn final_query() -> Query {
    Query::new()
        .group("region")
        .agg(AggFunc::Sum, "price")
        .agg(AggFunc::Sum, "discount")
        .agg(AggFunc::Count, "qty")
}

/// How many values of an ascending slice lie in `[lo, hi)`.
fn count_in(sorted: &[f64], lo: f64, hi: f64) -> u64 {
    (sorted.partition_point(|&v| v < hi) - sorted.partition_point(|&v| v < lo)) as u64
}

fn sorted_prices(t: &Table) -> Vec<f64> {
    let mut v = t
        .column("price")
        .ok()
        .and_then(|c| c.as_f64())
        .expect("price is Float64")
        .to_vec();
    v.sort_by(f64::total_cmp);
    v
}

fn qty_counts(t: &Table) -> [u64; 10] {
    let mut counts = [0; 10];
    let qty = t
        .column("qty")
        .ok()
        .and_then(|c| c.as_i64())
        .expect("qty is Int64");
    for &q in qty {
        counts[q.clamp(0, 9) as usize] += 1;
    }
    counts
}

/// Check the final state against a private table mutated with the same
/// list, and that every read returned `Ok` with a row total between the
/// start and the end state. Returns the private table at its end state.
fn verify(env: &Env, args: &Args, phase: &Phase, report: &mut Report) -> Result<Table> {
    let reads = &phase.reads.records;
    report.attempted = (reads.len() + phase.writes.len()) as u64;
    report.failed = (reads.iter().filter(|r| r.answer.is_none()).count()
        + phase.writes.iter().filter(|w| !w.ok).count()) as u64;
    let failed = report.failed;
    report.check(failed == 0, || {
        format!("{failed} reads or writes failed or were refused")
    });

    let mut end = (*env.start).clone();
    for m in &phase.muts {
        m.apply_private(&mut end)?;
    }
    let (rows, digest) = env.serve.with_engine(|db| {
        let rows = db.table("sales").map(|t| t.num_rows());
        let digest = db.query("sales", &final_query()).map(|t| table_digest(&t));
        (rows, digest)
    });
    report.check(rows == Ok(end.num_rows()), || {
        format!(
            "engine ends with {rows:?} rows, the private table with {}",
            end.num_rows()
        )
    });
    let want = reference_engine(end.clone())
        .query("sales", &final_query())
        .map(|t| table_digest(&t));
    report.check(digest == want, || {
        format!("final aggregate {digest:?} differs from the private table's {want:?}")
    });
    // The final state depends on how many writes the schedule holds.
    if !args.trace && args.seconds == PINNED_SECONDS {
        let digest = digest.unwrap_or(0);
        report.check_pinned(args, "final-state digest", digest, PINNED_FINAL);
    }

    // Appends only add rows and updates touch neither price nor qty, so
    // the rows a read covers can only grow from start to end.
    let prices = (sorted_prices(&env.start), sorted_prices(&end));
    let qtys = (qty_counts(&env.start), qty_counts(&end));
    let outside = reads
        .iter()
        .filter(|r| {
            let (Resolved::Engine(op), Some(answer)) = (r.op, r.answer) else {
                return false;
            };
            let (lo, hi) = match op {
                EngineOp::Range { lo, hi } => {
                    (count_in(&prices.0, lo, hi), count_in(&prices.1, lo, hi))
                }
                EngineOp::Lookup(q) => (qtys.0[q as usize], qtys.1[q as usize]),
                EngineOp::Drill(_) => return false,
            };
            !(lo..=hi).contains(&answer.rows)
        })
        .count();
    report.check(outside == 0, || {
        format!("{outside} reads covered a row total outside the start and end states")
    });
    Ok(end)
}

/// `(completion time, latency from due)` of the writes that succeeded.
fn write_completions(writes: &[Write]) -> Vec<(u64, u64)> {
    writes
        .iter()
        .filter(|w| w.ok)
        .map(|w| (w.end, w.latency()))
        .collect()
}

pub fn run(args: &Args) -> Report {
    let mut report = Report::default();
    if args.trace {
        if let Err(e) = run_traced(args, &mut report) {
            report.check(false, || format!("shadow replay failed: {e}"));
        }
        return report;
    }
    let (env, setup_s) = timed_setups(|| setup(args));
    let phase = drive(&env, args.seed, args.measure(), false);
    let rss = peak_rss_mb();
    let reads = completions(&phase.reads.records);
    let writes = write_completions(&phase.writes);
    report.end_to_end(args, setup_s, rss, &reads, &writes);
    if let Err(e) = verify(&env, args, &phase, &mut report) {
        report.check(false, || format!("private replay failed: {e}"));
    }
    report
}

fn run_traced(args: &Args, report: &mut Report) -> Result<()> {
    let share = args.measure().mul_f64(0.3);
    let untraced = pooled_p50_ms(&completions(
        &drive(&setup(args), args.seed, share, false).reads.records,
    ));
    let env = setup(args);
    let phase = drive(&env, args.seed, share, true);
    verify(&env, args, &phase, report)?;

    let reads = &phase.reads.records;
    let n = reads.len() + phase.writes.len();
    let mut read_ns = Samples::default();
    completions(reads).iter().for_each(|o| read_ns.push(o.1));
    report.set("driver.read_p50_ms", read_ns.ms(0.50), read_ns.len());
    report.set("driver.read_p95_ms", read_ns.ms(0.95), read_ns.len());
    let slo = SLO.as_nanos() as u64;
    let slow = reads
        .iter()
        .filter(|r| r.answer.is_none() || r.latency() > slo)
        .count()
        + phase
            .writes
            .iter()
            .filter(|w| !w.ok || w.latency() > slo)
            .count();
    report.driver_metrics(n, slow, &completions(reads), untraced);
    report.set("serve.rejected", phase.reads.rejected as f64, 1);
    let body: u64 = reads.iter().map(Record::body).sum::<u64>()
        + phase.writes.iter().map(|w| w.end - w.start).sum::<u64>();
    report.set(
        "serve.busy_share_pct",
        100.0 * body as f64 / (serve_workers() as f64 * share.as_nanos() as f64),
        n,
    );
    env.serve.with_engine(|db| {
        cache_shares(&db.cache_stats(), report);
        report.set(
            "crack.pieces_end",
            db.index_pieces("sales", "qty").unwrap_or(0) as f64,
            1,
        );
    });

    let mut ledger = Ledger::default();
    let mut trace = Trace::default();
    replay(&env, &phase, &mut ledger, &mut trace, report)?;
    env.serve.with_engine(|db| {
        finish_traced(args, db, &env.start, ledger, &trace, LADDER_EVERY, report);
    });
    Ok(())
}

enum Event<'a> {
    Write(&'a Write, &'a Prepared),
    Read(&'a Record),
}

/// Rebuild the traced phase as a span tree, reads and writes merged in
/// completion order. Every write is re-applied to two private tables —
/// one with a snapshot held, as a reader would, one with none — and to
/// a private sharded mirror; every read is re-issued on that mirror and
/// a private cache kept in step with the writes.
fn replay(
    env: &Env,
    phase: &Phase,
    ledger: &mut Ledger,
    trace: &mut Trace,
    report: &mut Report,
) -> Result<()> {
    let mut events: Vec<(u64, Event)> = phase
        .writes
        .iter()
        .zip(&phase.muts)
        .map(|(w, m)| (w.end, Event::Write(w, m)))
        .chain(phase.reads.records.iter().map(|r| (r.end, Event::Read(r))))
        .collect();
    events.sort_by_key(|e| e.0);

    let mut plain = Arc::new((*env.start).clone());
    let mut shared = Arc::new((*env.start).clone());
    let (sharded, build_ns) = time(|| ShardedTable::build("sales", &env.start, &shard_config()));
    ledger.push("shard.build_s", build_ns as f64);
    let cache = ResultCache::new(CacheConfig::default());
    let bump = |shards: &[usize]| {
        cache.bump_epoch("sales");
        for &s in shards {
            cache.bump_epoch(&scoped_name("sales", s));
        }
    };
    let ctx = QueryCtx::new(ExecPolicy::Serial);
    // Per reader session: has a write landed since its last read?
    let mut wrote_since = [false; READERS];
    let mut cracked = false;
    let (mut after_write, mut after_write_hits) = (0usize, 0usize);

    for (i, (_, event)) in events.iter().enumerate() {
        let op = i as u64;
        match *event {
            Event::Write(w, m) => {
                let root = trace.real(op, 0, "driver.write", w.due, w.end);
                trace.real(op, root, "driver.lateness", w.due, w.issued);
                trace.real(op, root, "serve.queue", w.issued, w.issued + w.queue);
                let core = trace.real(op, root, KINDS[w.kind], w.start, w.end);
                ledger.push("driver.write_p50_ms", w.latency() as f64);
                ledger.push("driver.write_p95_ms", w.latency() as f64);
                ledger.push("driver.writer_lag_ms_p95", (w.issued - w.due) as f64);
                ledger.push("serve.queue_ms_p50", w.queue as f64);
                ledger.push("serve.queue_ms_p95", w.queue as f64);
                let metric = [
                    "core.push_row_ms_p50",
                    "core.append_rows_ms_p50",
                    "core.update_where_ms_p50",
                ][w.kind];
                ledger.push(metric, (w.end - w.start) as f64);
                ledger.push("shard.mutated_shards_per_write", w.mutated as f64);

                // Readers fan out over shard snapshots, so the mirror
                // write copies the shards it touches; the canonical
                // table is rarely held and is mutated in place.
                let held = sharded.snapshot();
                let (mutated, shard_ns) = time(|| m.apply_sharded(&sharded, &plain));
                drop(held);
                bump(&mutated?);
                let (applied, plain_ns) = time(|| m.apply_private(Arc::make_mut(&mut plain)));
                trace.shadow(op, core, "storage.mutate", plain_ns);
                trace.shadow(op, core, "shard.mirror_write", shard_ns);
                // What the same write costs when a reader does hold the
                // canonical snapshot: the whole table is copied first.
                let held = Arc::clone(&shared);
                let (copied, cow_ns) = time(|| m.apply_private(Arc::make_mut(&mut shared)));
                drop(held);
                copied.and(applied)?;
                ledger.push("storage.cow_copy_ms", cow_ns as f64 - plain_ns as f64);
                wrote_since = [true; READERS];
            }
            Event::Read(r) => {
                let Resolved::Engine(engine_op) = r.op else {
                    continue;
                };
                let laddered = i % LADDER_EVERY == 0;
                let root = r.serve_spans(op, trace, ledger);
                if r.answer.is_none() {
                    continue;
                }
                let fresh_write = std::mem::replace(&mut wrote_since[r.session], false);
                let body = r.body() as f64;
                match engine_op {
                    EngineOp::Lookup(q) => {
                        let core = trace.real(op, root, "core.cracked_range", r.start, r.end);
                        let (found, ns) = time(|| sharded.cracked_range("qty", q, q + 1, None));
                        bump(&found?.1);
                        let metric = if !std::mem::replace(&mut cracked, true) {
                            "crack.first_touch_ms"
                        } else if fresh_write {
                            "crack.recrack_after_write_ms_p50"
                        } else {
                            "crack.converged_us_p50"
                        };
                        ledger.push(metric, ns as f64);
                        trace.shadow(op, core, "shard.cracked_range", ns);
                        ledger.push("core.route_self_us_p50", body - ns as f64);
                    }
                    EngineOp::Range { lo, hi } => {
                        let core = trace.real(op, root, "core.query", r.start, r.end);
                        let query = range_query(lo, hi);
                        let before = cache.stats();
                        let (_, cached_ns) =
                            time(|| run_sharded_query(&sharded, Some(&cache), &query, &ctx));
                        let after = cache.stats();
                        let missed = after.misses > before.misses;
                        if fresh_write {
                            after_write += 1;
                            after_write_hits += !missed as usize;
                        }
                        if after.hits > before.hits {
                            ledger.push("cache.lookup_hit_us_p50", cached_ns as f64);
                        } else if !missed {
                            ledger.push("cache.subsume_ms_p50", cached_ns as f64);
                        }
                        let shard_span =
                            trace.shadow(op, core, "shard.run_sharded_query", cached_ns);
                        ledger.push("core.route_self_us_p50", body - cached_ns as f64);
                        if !(laddered && missed) {
                            continue;
                        }
                        // The engine runs the fan-out with the cache
                        // inside it; what the cache adds to a miss is the
                        // difference to a fan-out without.
                        let (_, fanout_ns) =
                            time(|| run_sharded_query(&sharded, None, &query, &ctx));
                        let overhead = cached_ns.saturating_sub(fanout_ns);
                        trace.shadow(op, shard_span, "cache.miss_overhead", overhead);
                        let snap = sharded.snapshot();
                        let parts: Vec<(&Table, Option<&Table>)> = (0..snap.shard_count())
                            .map(|s| (snap.table(s), None))
                            .collect();
                        let ladder = exec_ladder(&parts, &query, &ctx);
                        ladder.record(trace, ledger, op, shard_span, plain.num_rows(), 1);
                        ledger.push(
                            "cache.miss_overhead_us_p50",
                            cached_ns as f64 - fanout_ns as f64,
                        );
                        ledger.push(
                            "shard.fanout_self_ms_p50",
                            fanout_ns as f64 - ladder.run_query_ns as f64,
                        );
                    }
                    EngineOp::Drill(_) => {}
                }
            }
        }
    }
    report.set(
        "cache.hit_pct_after_write",
        100.0 * after_write_hits as f64 / after_write.max(1) as f64,
        after_write,
    );
    let snap = sharded.snapshot();
    let resident: usize = (0..snap.shard_count())
        .map(|s| table_bytes(snap.table(s)))
        .sum();
    report.set("shard.resident_mb", resident as f64 / (1 << 20) as f64, 1);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn count_in_is_half_open() {
        let v = [1.0, 2.0, 2.0, 3.0, 5.0];
        assert_eq!(count_in(&v, 2.0, 3.0), 2);
        assert_eq!(count_in(&v, 0.0, 9.0), 5);
        assert_eq!(count_in(&v, 3.5, 4.0), 0);
    }

    #[test]
    fn private_and_sharded_replay_agree_on_every_mutation_kind() {
        let start = sales(4_000, 7);
        let price = quantiles(&start, "price");
        let sharded = ShardedTable::build(
            "sales",
            &start,
            &ShardConfig {
                count: 4,
                min_rows_per_shard: 1,
            },
        );
        let mut private = start.clone();
        for m in WriterStream::new(7, 50).take(30) {
            let m = Prepared::build(m, &start, &price);
            m.apply_sharded(&sharded, &private).unwrap();
            m.apply_private(&mut private).unwrap();
        }
        assert_eq!(private.num_rows(), 4_000 + 21 + 6 * 50);
        let snap = sharded.snapshot();
        let mut glued = snap.table(0).clone();
        for s in 1..snap.shard_count() {
            glued.append(snap.table(s)).unwrap();
        }
        assert_eq!(table_digest(&glued), table_digest(&private));
        assert_ne!(table_digest(&private), table_digest(&start));
    }
}
