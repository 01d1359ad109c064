//! Shadow replay: time each lower layer's public entry on identical
//! input, on state the benchmark owns, and keep the samples per metric.
//!
//! Spans cannot be placed inside the engine from here, so after a traced
//! op completes the benchmark re-issues the same input one layer down —
//! `explore_cache::cached_query` on its own `ResultCache`,
//! `explore_shard::run_sharded_query` on its own `ShardedTable`,
//! `explore_exec::run_query` / `evaluate_selection` and
//! `Predicate::evaluate_mask_range` on the same table snapshot — and
//! records each call as a shadow span under the op's real span. The
//! in-engine spans (`recent_traces()`) are deliberately not used.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

use exploration::cache::table_bytes;
use exploration::exec::{evaluate_selection, morsel_count, run_query, QueryCtx};
use exploration::storage::{Query, Table};
use exploration::ExploreDb;

use crate::report::{Report, PER_LAYER};
use crate::trace::{report_shares, write_trace, Trace};
use crate::Args;

/// Time one call in nanoseconds.
pub fn time<R>(f: impl FnOnce() -> R) -> (R, u64) {
    let started = Instant::now();
    let out = f();
    (out, started.elapsed().as_nanos() as u64)
}

/// Per-metric samples in nanoseconds (signed: a difference of two
/// timings on identical input can come out negative).
#[derive(Debug, Default)]
pub struct Ledger {
    samples: BTreeMap<&'static str, Vec<f64>>,
}

impl Ledger {
    pub fn push(&mut self, metric: &'static str, ns: f64) {
        self.samples.entry(metric).or_default().push(ns);
    }

    pub fn len(&self, metric: &str) -> usize {
        self.samples.get(metric).map_or(0, Vec::len)
    }

    /// Nearest-rank percentile in nanoseconds.
    pub fn percentile(&mut self, metric: &str, p: f64) -> f64 {
        match self.samples.get_mut(metric) {
            Some(v) if !v.is_empty() => {
                v.sort_by(f64::total_cmp);
                let rank = (p * v.len() as f64).ceil() as usize;
                v[rank.clamp(1, v.len()) - 1]
            }
            _ => 0.0,
        }
    }

    /// Report every sampled metric at the percentile its name states
    /// (`p95` or, by default, the median), in its catalogue unit.
    pub fn report(&mut self, report: &mut Report) {
        let names: Vec<&'static str> = self.samples.keys().copied().collect();
        for name in names {
            let unit = PER_LAYER
                .iter()
                .find(|m| m.0 == name)
                .unwrap_or_else(|| panic!("{name} is not a per-layer metric"))
                .1;
            let scale = match unit {
                "s" => 1e9,
                "ms" => 1e6,
                "us" => 1e3,
                _ => 1.0,
            };
            let p = if name.contains("p95") { 0.95 } else { 0.50 };
            let n = self.len(name);
            report.set(name, self.percentile(name, p) / scale, n);
        }
    }
}

/// What every traced run ends with: probe `ExploreDb::table`, report the
/// ledger, the table's size and morsel count and the per-layer shares of
/// the ops laddered (one in `every`), and write the trace out.
pub fn finish_traced(
    args: &Args,
    db: &ExploreDb,
    table: &Table,
    mut ledger: Ledger,
    trace: &Trace,
    every: usize,
    report: &mut Report,
) {
    for _ in 0..1000 {
        let (_, ns) = time(|| db.table("sales"));
        ledger.push("core.snapshot_us_p50", ns as f64);
    }
    ledger.report(report);
    let mb = table_bytes(table) as f64 / (1 << 20) as f64;
    report.set("storage.table_mb", mb, 1);
    let morsels = morsel_count(table.num_rows());
    report.set("exec.morsels_per_query", morsels as f64, 1);
    report_shares(trace, every, report);
    write_trace(&args.workload, trace);
}

/// What one exec-and-below ladder measured.
#[derive(Debug, Clone, Copy, Default)]
pub struct ExecLadder {
    pub run_query_ns: u64,
    pub selection_ns: u64,
    /// `Predicate::evaluate_range`: the storage kernel `exec` selects
    /// with, and so the storage child of the exec span.
    pub select_kernel_ns: u64,
    /// `Predicate::evaluate_mask_range`: the dense-mask kernel, reported
    /// per row but not part of the tree (a selective scan never runs it).
    pub mask_ns: u64,
    /// Gather of the selected rows' projected columns; 0 for aggregates.
    pub gather_ns: u64,
    pub selected: usize,
}

/// Re-issue `query` at `exec` and `storage` on each of `parts` — the
/// table snapshot, or the shard tables a fan-out runs the query on —
/// and sum the timings. A part's second table is the first cut to a
/// scan's projection, for the gather.
pub fn exec_ladder(
    parts: &[(&Table, Option<&Table>)],
    query: &Query,
    ctx: &QueryCtx,
) -> ExecLadder {
    let mut sum = ExecLadder::default();
    for &(table, projected) in parts {
        sum.run_query_ns += time(|| black_box(run_query(table, query, ctx))).1;
        let (sel, ns) = time(|| evaluate_selection(table, &query.predicate, ctx));
        let sel = sel.unwrap_or_default();
        sum.selection_ns += ns;
        sum.selected += sel.len();
        let rows = 0..table.num_rows();
        sum.select_kernel_ns +=
            time(|| black_box(query.predicate.evaluate_range(table, rows.clone()))).1;
        sum.mask_ns += time(|| black_box(query.predicate.evaluate_mask_range(table, rows))).1;
        if let (Some(p), true) = (projected, query.aggregates.is_empty()) {
            sum.gather_ns += time(|| black_box(p.gather(&sel))).1;
        }
    }
    sum
}

impl ExecLadder {
    /// Record the ladder as shadow spans under `parent`, and its samples
    /// in the ledger. The ladder is timed with the serial policy; under
    /// a parent that fans the same work out over `workers` threads its
    /// spans are charged at CPU time ÷ `workers` — the wall time an ideal
    /// fan-out needs — so the parent's self time is what the real
    /// fan-out adds to that.
    pub fn record(
        &self,
        trace: &mut Trace,
        ledger: &mut Ledger,
        op: u64,
        parent: u32,
        rows: usize,
        workers: usize,
    ) {
        let wall = |ns: u64| ns / workers.max(1) as u64;
        let exec = trace.shadow(op, parent, "exec.run_query", wall(self.run_query_ns));
        trace.shadow(
            op,
            exec,
            "storage.evaluate_range",
            wall(self.select_kernel_ns),
        );
        if self.gather_ns > 0 {
            trace.shadow(op, exec, "storage.gather", wall(self.gather_ns));
            ledger.push(
                "storage.gather_ns_per_row",
                self.gather_ns as f64 / self.selected.max(1) as f64,
            );
        }
        ledger.push("exec.run_query_ms_p50", self.run_query_ns as f64);
        ledger.push("exec.selection_ms_p50", self.selection_ns as f64);
        ledger.push(
            "exec.agg_merge_self_ms_p50",
            self.run_query_ns as f64 - self.selection_ns as f64,
        );
        ledger.push(
            "exec.rows_per_s",
            rows as f64 * 1e9 / self.run_query_ns.max(1) as f64,
        );
        ledger.push(
            "storage.mask_ns_per_row",
            self.mask_ns as f64 / rows.max(1) as f64,
        );
    }
}

/// `serial ÷ parallel` run time of `queries` on `table`, each the
/// fastest of three: `exec.parallel_speedup`.
pub fn parallel_speedup(table: &Table, queries: &[Query]) -> f64 {
    use exploration::exec::ExecPolicy;
    let best = |ctx: &QueryCtx| -> u64 {
        queries
            .iter()
            .map(|q| {
                (0..3)
                    .map(|_| time(|| black_box(run_query(table, q, ctx))).1)
                    .min()
                    .unwrap_or(0)
            })
            .sum()
    };
    let serial = best(&QueryCtx::new(ExecPolicy::Serial));
    let parallel = best(&QueryCtx::new(ExecPolicy::parallel()));
    serial as f64 / parallel.max(1) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ledger_reports_the_percentile_its_name_states_in_catalogue_units() {
        let mut l = Ledger::default();
        for i in 1..=100 {
            l.push("serve.queue_ms_p50", i as f64 * 1e6);
            l.push("serve.queue_ms_p95", i as f64 * 1e6);
            l.push("driver.write_p95_ms", i as f64 * 1e6);
            l.push("core.route_self_us_p50", (i as f64 - 60.0) * 1e3);
        }
        let mut r = Report::default();
        l.report(&mut r);
        assert_eq!(r.get("serve.queue_ms_p50"), 50.0);
        assert_eq!(r.get("serve.queue_ms_p95"), 95.0);
        assert_eq!(r.get("driver.write_p95_ms"), 95.0);
        assert_eq!(r.get("core.route_self_us_p50"), -10.0, "signed samples");
        assert_eq!(l.percentile("absent", 0.5), 0.0);
    }
}
