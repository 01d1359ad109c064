//! The metric catalogue and the result a run prints.
//!
//! `END_TO_END` and `PER_LAYER` are the single list of metric names and
//! units; `BENCHMARK.json` repeats them (a unit test holds the two
//! together). Every run prints every metric of its mode: a metric a
//! workload does not exercise prints 0 with `n=0`.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::stats::{pooled_p50_ms, supports, windowed, TAIL_GUARD};
use crate::{Args, DEFAULT_SEED, SETUPS};

/// `(name, unit)` of the end-to-end metrics (`--trace 0`).
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p95_ms", "ms"),
    ("peak_rss_mb", "MB"),
];

/// `(name, unit)` of the per-layer metrics (`--trace 1`). The prefix is
/// the layer — a crate name, or `driver` for the benchmark itself.
pub const PER_LAYER: [(&str, &str); 85] = [
    // Interaction classes and the time requirement: user-visible, but
    // each exists on one workload only, so none can carry a bound.
    ("driver.filter_p50_ms", "ms"),
    ("driver.refine_p50_ms", "ms"),
    ("driver.drill_p50_ms", "ms"),
    ("driver.lookup_p50_ms", "ms"),
    ("driver.pan_p50_us", "us"),
    ("driver.read_p50_ms", "ms"),
    ("driver.read_p95_ms", "ms"),
    ("driver.write_p50_ms", "ms"),
    ("driver.write_p95_ms", "ms"),
    ("driver.recommend_p50_ms", "ms"),
    ("driver.approx_p50_ms", "ms"),
    ("driver.raw_first_answer_ms", "ms"),
    ("driver.fail_pct", "%"),
    ("driver.slo_miss_pct", "%"),
    ("driver.writer_lag_ms_p95", "ms"),
    ("driver.trace_overhead_pct", "%"),
    ("driver.unattributed_pct", "%"),
    ("serve.queue_ms_p50", "ms"),
    ("serve.queue_ms_p95", "ms"),
    ("serve.overhead_us_p50", "us"),
    ("serve.busy_share_pct", "%"),
    ("serve.rejected", "count"),
    ("core.snapshot_us_p50", "us"),
    ("core.route_self_us_p50", "us"),
    ("core.push_row_ms_p50", "ms"),
    ("core.append_rows_ms_p50", "ms"),
    ("core.update_where_ms_p50", "ms"),
    ("cache.hit_pct", "%"),
    ("cache.subsumption_pct", "%"),
    ("cache.miss_pct", "%"),
    ("cache.admit_rejected", "count"),
    ("cache.evictions", "count"),
    ("cache.resident_mb", "MB"),
    ("cache.lookup_hit_us_p50", "us"),
    ("cache.subsume_ms_p50", "ms"),
    ("cache.miss_overhead_us_p50", "us"),
    ("cache.hit_pct_after_write", "%"),
    ("shard.build_s", "s"),
    ("shard.fanout_self_ms_p50", "ms"),
    ("shard.mutated_shards_per_write", "count"),
    ("shard.resident_mb", "MB"),
    ("exec.run_query_ms_p50", "ms"),
    ("exec.parallel_speedup", "x"),
    ("exec.selection_ms_p50", "ms"),
    ("exec.agg_merge_self_ms_p50", "ms"),
    ("exec.rows_per_s", "1/s"),
    ("exec.morsels_per_query", "count"),
    ("storage.mask_ns_per_row", "ns"),
    ("storage.gather_ns_per_row", "ns"),
    ("storage.table_mb", "MB"),
    ("storage.cow_copy_ms", "ms"),
    ("crack.first_touch_ms", "ms"),
    ("crack.converged_us_p50", "us"),
    ("crack.pieces_end", "count"),
    ("crack.recrack_after_write_ms_p50", "ms"),
    ("load.attach_ms", "ms"),
    ("load.first_query_ms", "ms"),
    ("load.warm_query_ms", "ms"),
    ("load.columns_loaded", "count"),
    ("sample.build_s", "s"),
    ("aqp.approx_ms_p50", "ms"),
    ("aqp.online_ms_p50", "ms"),
    ("aqp.online_steps_to_target", "count"),
    ("aqp.mean_rel_err_pct", "%"),
    ("aqp.ci_cover_pct", "%"),
    ("synopsis.build_s", "s"),
    ("synopsis.estimate_us_p50", "us"),
    ("synopsis.rel_err_pct", "%"),
    ("viz.recommend_ms_p50", "ms"),
    ("viz.propose_ms_p50", "ms"),
    ("div.topk_ms_p50", "ms"),
    ("explore.facets_ms_p50", "ms"),
    ("cube.discover_ms_p50", "ms"),
    ("cube.session_ms_p50", "ms"),
    ("cube.session_hit_pct", "%"),
    ("prefetch.pan_us_p50", "us"),
    ("prefetch.cell_hit_pct", "%"),
    // Self time per layer as a share of summed op latency: the ledger's
    // bottom line. With `driver.unattributed_pct` they reconcile to 100.
    ("share.serve_pct", "%"),
    ("share.core_pct", "%"),
    ("share.cache_pct", "%"),
    ("share.shard_pct", "%"),
    ("share.exec_pct", "%"),
    ("share.storage_pct", "%"),
    ("share.cracking_pct", "%"),
    ("share.other_pct", "%"),
];

/// What one run found.
#[derive(Debug, Default)]
pub struct Report {
    /// Operations issued, and how many of them failed or were refused.
    pub attempted: u64,
    pub failed: u64,
    /// Output-check failures; empty means correct.
    pub errors: Vec<String>,
    /// `name → (value, samples behind it)`.
    metrics: BTreeMap<&'static str, (f64, usize)>,
}

impl Report {
    pub fn set(&mut self, name: &'static str, value: f64, n: usize) {
        debug_assert!(
            END_TO_END
                .iter()
                .chain(PER_LAYER.iter())
                .any(|m| m.0 == name),
            "unknown metric {name}"
        );
        self.metrics.insert(name, (value, n));
    }

    pub fn get(&self, name: &str) -> f64 {
        self.metrics.get(name).map_or(0.0, |m| m.0)
    }

    /// Report the end-to-end metrics of a measured phase: throughput
    /// from the completions in `rate_ops`, latency from those in
    /// `latency_ops` (the same ops except on `ingest_under_read`), each
    /// `(completion time, latency)` in ns since the phase began.
    pub fn end_to_end(
        &mut self,
        args: &Args,
        setup_s: f64,
        rss_mb: f64,
        rate_ops: &[(u64, u64)],
        latency_ops: &[(u64, u64)],
    ) {
        let duration = args.measure().as_nanos() as u64;
        let rates = windowed(rate_ops, duration);
        let latencies = windowed(latency_ops, duration);
        println!("  per window: ops/s {:.0?}", rates.rates);
        println!("  per window: p50 ms {:.2?}", latencies.p50s);
        println!("  per window: p95 ms {:.2?}", latencies.p95s);
        let (rate, ..) = rates.medians();
        let (_, p50, p95) = latencies.medians();
        self.set("setup_s", setup_s, SETUPS);
        self.set("ops_per_s", rate, rate_ops.len());
        self.set("latency_p50_ms", p50, latency_ops.len());
        self.set("latency_p95_ms", p95, latency_ops.len());
        self.set("peak_rss_mb", rss_mb, 1);
        let n = latency_ops.len();
        if !supports(n, 0.95) {
            println!("  WARNING: {n} timed ops leave fewer than {TAIL_GUARD} beyond the p95");
        }
    }

    /// The benchmark's own per-layer metrics of a traced phase of `n`
    /// ops, `slow` of which failed or missed the time requirement:
    /// failure and miss shares, and the median latency of the traced
    /// phase (`traced`, completions) against the untraced one.
    pub fn driver_metrics(
        &mut self,
        n: usize,
        slow: usize,
        traced: &[(u64, u64)],
        untraced_ms: f64,
    ) {
        let pct = |x: f64| 100.0 * x / n.max(1) as f64;
        self.set("driver.fail_pct", pct(self.failed as f64), n);
        self.set("driver.slo_miss_pct", pct(slow as f64), n);
        self.set(
            "driver.trace_overhead_pct",
            100.0 * (pooled_p50_ms(traced) - untraced_ms) / untraced_ms.max(f64::MIN_POSITIVE),
            traced.len(),
        );
    }

    /// Print a result checksum and, on a full-size run of the default
    /// seed, hold it to the value pinned in the source.
    pub fn check_pinned(&mut self, args: &Args, what: &str, got: u64, pinned: u64) {
        println!("  {what} {got:#018x}");
        self.check(
            got == pinned || args.seed != DEFAULT_SEED || args.quick,
            || format!("{what} {got:#018x} is not the pinned {pinned:#018x}"),
        );
    }

    /// Record an output-check failure.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.errors.push(what());
        }
    }

    pub fn correct(&self) -> bool {
        self.errors.is_empty()
    }

    /// Every metric of `catalogue` by name, one per line, for people.
    pub fn human(&self, catalogue: &[(&'static str, &'static str)]) -> String {
        let mut out = String::new();
        for &(name, unit) in catalogue {
            let (value, n) = self.metrics.get(name).copied().unwrap_or((0.0, 0));
            let _ = writeln!(out, "  {name:<34} {value:>16.4} {unit:<6} n={n}");
        }
        out
    }

    /// The one-line JSON result the driver reads.
    pub fn json(&self, catalogue: &[(&'static str, &'static str)]) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted.max(1),
            self.failed
        );
        for (i, &(name, unit)) in catalogue.iter().enumerate() {
            let value = self.get(name);
            let value = if value.is_finite() { value } else { 0.0 };
            let _ = write!(
                out,
                "{}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}",
                if i == 0 { "" } else { ", " }
            );
        }
        out.push_str("}}");
        out
    }
}

/// Peak resident set of this process in MB (`VmHWM`); 0 where
/// `/proc` is absent.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|l| l.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_carries_every_metric_of_the_mode_and_nothing_else() {
        let mut r = Report {
            attempted: 10,
            ..Report::default()
        };
        r.set("setup_s", 1.25, 3);
        r.set("serve.rejected", 2.0, 1);
        let line = r.json(&END_TO_END);
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 10, \"failed\": 0,"));
        assert!(line.contains("\"setup_s\": {\"value\": 1.25, \"unit\": \"s\"}"));
        assert!(line.contains("\"peak_rss_mb\": {\"value\": 0, \"unit\": \"MB\"}"));
        assert!(!line.contains("serve.rejected"));
        assert!(!line.contains('\n'));
        r.check(false, || "boom".into());
        assert!(r.json(&PER_LAYER).starts_with("{\"correct\": false"));
        assert!(r.human(&PER_LAYER).contains("serve.rejected"));
    }

    #[test]
    fn names_and_units_fit_the_benchmark_contract() {
        let ok = |s: &str, extra: &str, max: usize| {
            !s.is_empty()
                && s.len() <= max
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || extra.contains(c))
        };
        let mut seen = std::collections::BTreeSet::new();
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(ok(name, "_.-", 64), "{name}");
            assert!(name.chars().next().unwrap().is_ascii_alphanumeric());
            assert!(ok(unit, "_/%.-", 16), "{unit}");
            assert!(seen.insert(name), "{name} used twice");
        }
    }

    /// `BENCHMARK.json` repeats the catalogue; hold the two together.
    #[test]
    fn benchmark_json_lists_exactly_this_catalogue() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        for (key, catalogue) in [
            ("end_to_end", &END_TO_END[..]),
            ("per_layer", &PER_LAYER[..]),
        ] {
            let start = text.find(&format!("\"{key}\"")).expect(key);
            let body = &text[start..];
            let body = &body[..body.find(']').expect("list closes")];
            let names: Vec<&str> = body
                .split("\"name\":")
                .skip(1)
                .map(|s| s.trim().trim_start_matches('"').split('"').next().unwrap())
                .collect();
            let want: Vec<&str> = catalogue.iter().map(|m| m.0).collect();
            assert_eq!(names, want, "{key}");
            for (name, unit) in catalogue {
                assert!(
                    body.contains(&format!("\"name\": \"{name}\", \"unit\": \"{unit}\"")),
                    "{key}: {name} should have unit {unit}"
                );
            }
        }
        for w in crate::WORKLOADS {
            assert!(text.contains(&format!("\"name\": \"{w}\"")), "{w}");
        }
    }
}
