//! Benchmark-side spans: recorded around calls into each layer's public
//! functions, kept in memory, written out once at exit.
//!
//! Two kinds of span share one tree. *Real* spans are stamped around a
//! call as it happens (the op, its queue wait, the engine call). *Shadow*
//! spans time a lower layer's public entry re-issued with the same input
//! on state the benchmark owns; they are laid out from their parent's
//! start so the tree nests, but their duration is the measured one. A
//! layer's self time is its span's duration minus the part of it its
//! children cover; the part of a child that sticks out of its parent is
//! time the ledger could not attribute.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::report::Report;

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// The top-level op this span belongs to.
    pub op: u64,
    /// Unique within the trace; 0 is reserved for "no parent".
    pub id: u32,
    pub parent: u32,
    /// `<layer>.<call>`; the layer is the crate name.
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Timed on benchmark-owned state, not inside the op itself.
    pub shadow: bool,
}

impl Span {
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

/// An in-memory span recorder. Span ids are positions (from 1), and
/// times are ns since whatever epoch the recording thread stamps with.
#[derive(Debug, Default)]
pub struct Trace {
    spans: Vec<Span>,
}

impl Trace {
    /// Record a real span; returns its id for children to name.
    pub fn real(&mut self, op: u64, parent: u32, name: &'static str, start: u64, end: u64) -> u32 {
        self.push(op, parent, name, start, end, false)
    }

    /// Record a shadow span of `dur_ns`, laid out from its parent's
    /// start — or from the end of the parent's latest child, so that
    /// sibling calls made one after the other do not overlap.
    pub fn shadow(&mut self, op: u64, parent: u32, name: &'static str, dur_ns: u64) -> u32 {
        let start = self
            .spans
            .iter()
            .rev()
            .take_while(|s| s.op == op)
            .filter(|s| s.id == parent || s.parent == parent)
            .map(|s| if s.id == parent { s.start_ns } else { s.end_ns })
            .max()
            .unwrap_or(0);
        self.push(op, parent, name, start, start + dur_ns, true)
    }

    fn push(
        &mut self,
        op: u64,
        parent: u32,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
        shadow: bool,
    ) -> u32 {
        let id = self.spans.len() as u32 + 1;
        self.spans.push(Span {
            op,
            id,
            parent,
            name,
            start_ns,
            end_ns: end_ns.max(start_ns),
            shadow,
        });
        id
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// The trace as a JSON array, one span per line.
    pub fn to_json(&self) -> String {
        let mut out = String::from("[\n");
        for (i, s) in self.spans.iter().enumerate() {
            let _ = write!(
                out,
                "{{\"op\":{},\"id\":{},\"parent\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"shadow\":{}}}",
                s.op, s.id, s.parent, s.name, s.start_ns, s.end_ns, s.shadow
            );
            out.push_str(if i + 1 < self.spans.len() {
                ",\n"
            } else {
                "\n"
            });
        }
        out.push(']');
        out
    }
}

/// What folding a span tree yields.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct Folded {
    /// Self time per layer, ns.
    pub self_ns: BTreeMap<&'static str, u64>,
    /// Summed duration of the root spans (spans with no parent), ns.
    pub root_ns: u64,
    /// Child time sticking out of its parent's interval, ns: what the
    /// per-layer self times fail to reconcile with `root_ns`.
    pub overflow_ns: u64,
}

impl Folded {
    /// `overflow_ns` as a share of `root_ns`, percent.
    pub fn unattributed_pct(&self) -> f64 {
        if self.root_ns == 0 {
            0.0
        } else {
            100.0 * self.overflow_ns as f64 / self.root_ns as f64
        }
    }

    /// Layer self time as a share of `root_ns`, percent.
    pub fn share_pct(&self, layers: &[&str]) -> f64 {
        if self.root_ns == 0 {
            return 0.0;
        }
        let ns: u64 = layers.iter().filter_map(|l| self.self_ns.get(l)).sum();
        100.0 * ns as f64 / self.root_ns as f64
    }
}

/// Fold the laddered ops of `trace` (one op in `every`) and report each
/// layer's self time as a share of their summed latency, plus the share
/// the ledger could not attribute. The shares sum to 100 plus
/// `driver.unattributed_pct`: overflow is time counted in a child that
/// its parent could not contain.
pub fn report_shares(trace: &Trace, every: usize, report: &mut Report) {
    let laddered: Vec<Span> = trace
        .spans()
        .iter()
        .filter(|s| s.op % every as u64 == 0)
        .cloned()
        .collect();
    let folded = fold_spans(&laddered);
    let ops = laddered.iter().filter(|s| s.parent == 0).count();
    let named = [
        "serve", "core", "cache", "shard", "exec", "storage", "cracking",
    ];
    for (layer, metric) in named.iter().zip([
        "share.serve_pct",
        "share.core_pct",
        "share.cache_pct",
        "share.shard_pct",
        "share.exec_pct",
        "share.storage_pct",
        "share.cracking_pct",
    ]) {
        report.set(metric, folded.share_pct(&[layer]), ops);
    }
    let others: Vec<&str> = folded
        .self_ns
        .keys()
        .copied()
        .filter(|l| !named.contains(l))
        .collect();
    report.set("share.other_pct", folded.share_pct(&others), ops);
    report.set("driver.unattributed_pct", folded.unattributed_pct(), ops);
}

/// Write the trace to `benchmark/out/trace-<workload>.json` under the
/// current directory (the checkout root). Failing to write is reported,
/// not fatal: the metrics do not depend on the file.
pub fn write_trace(workload: &str, trace: &Trace) {
    let dir = std::path::Path::new("benchmark").join("out");
    let path = dir.join(format!("trace-{workload}.json"));
    let written =
        std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, trace.to_json()));
    match written {
        Ok(()) => println!(
            "  wrote {} spans to {}",
            trace.spans().len(),
            path.display()
        ),
        Err(e) => eprintln!("explore-benchmark: cannot write {}: {e}", path.display()),
    }
}

/// Length of the union of `intervals` clipped to `[lo, hi)`.
fn covered(intervals: &mut [(u64, u64)], lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut reach = lo;
    for &(s, e) in intervals.iter() {
        let s = s.max(reach);
        let e = e.min(hi);
        if e > s {
            total += e - s;
            reach = e;
        }
    }
    total
}

/// Fold spans into per-layer self times: self = duration − the part of
/// the span its children cover.
pub fn fold_spans(spans: &[Span]) -> Folded {
    let mut children: BTreeMap<u32, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if s.parent != 0 {
            children
                .entry(s.parent)
                .or_default()
                .push((s.start_ns, s.end_ns));
        }
    }
    let mut out = Folded::default();
    for s in spans {
        let dur = s.end_ns - s.start_ns;
        let mut kids = children.remove(&s.id).unwrap_or_default();
        let inside = covered(&mut kids, s.start_ns, s.end_ns);
        *out.self_ns.entry(s.layer()).or_default() += dur - inside;
        // Only what lies outside the parent is overflow; overlap
        // between siblings is not.
        out.overflow_ns += covered(&mut kids, 0, u64::MAX) - inside;
        if s.parent == 0 {
            out.root_ns += dur;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: u32, name: &'static str, start: u64, end: u64) -> Span {
        Span {
            op: 1,
            id,
            parent,
            name,
            start_ns: start,
            end_ns: end,
            shadow: false,
        }
    }

    #[test]
    fn self_time_is_duration_minus_covered_child_interval() {
        // op [0,100): queue [0,30), call [30,95); call has a cache child
        // [30,80) which has an exec child [30,60).
        let spans = vec![
            span(1, 0, "driver.op", 0, 100),
            span(2, 1, "serve.queue", 0, 30),
            span(3, 1, "core.query", 30, 95),
            span(4, 3, "cache.cached_query", 30, 80),
            span(5, 4, "exec.run_query", 30, 60),
        ];
        let f = fold_spans(&spans);
        assert_eq!(f.root_ns, 100);
        assert_eq!(f.self_ns["driver"], 5);
        assert_eq!(f.self_ns["serve"], 30);
        assert_eq!(f.self_ns["core"], 15);
        assert_eq!(f.self_ns["cache"], 20);
        assert_eq!(f.self_ns["exec"], 30);
        assert_eq!(f.self_ns.values().sum::<u64>(), f.root_ns);
        assert_eq!(f.overflow_ns, 0);
        assert_eq!(f.unattributed_pct(), 0.0);
        assert_eq!(f.share_pct(&["exec", "cache"]), 50.0);
    }

    #[test]
    fn overlapping_children_are_covered_once() {
        let spans = vec![
            span(1, 0, "a.x", 0, 100),
            span(2, 1, "b.x", 10, 60),
            span(3, 1, "b.y", 40, 90),
        ];
        let f = fold_spans(&spans);
        assert_eq!(f.self_ns["a"], 20);
        assert_eq!(f.overflow_ns, 0);
    }

    #[test]
    fn a_child_longer_than_its_parent_is_unattributed_overflow() {
        // A shadow call that ran longer than the op it decomposes.
        let spans = vec![
            span(1, 0, "core.query", 0, 100),
            span(2, 1, "exec.run_query", 0, 130),
        ];
        let f = fold_spans(&spans);
        assert_eq!(f.self_ns["core"], 0);
        assert_eq!(f.self_ns["exec"], 130);
        assert_eq!(f.overflow_ns, 30);
        assert_eq!(f.unattributed_pct(), 30.0);
    }

    #[test]
    fn shadow_spans_nest_in_their_parent_and_follow_their_siblings() {
        let mut t = Trace::default();
        let root = t.real(7, 0, "core.query", 100, 200);
        let first = t.shadow(7, root, "cache.cached_query", 40);
        t.shadow(7, first, "exec.run_query", 30);
        t.shadow(7, root, "cube.from_grouped", 20);
        let at: Vec<(u64, u64)> = t.spans().iter().map(|s| (s.start_ns, s.end_ns)).collect();
        assert_eq!(at, vec![(100, 200), (100, 140), (100, 130), (140, 160)]);
        // Another op's spans do not disturb the layout.
        let other = t.real(8, 0, "core.query", 0, 10);
        t.shadow(8, other, "exec.run_query", 5);
        assert_eq!(t.spans()[5].start_ns, 0);
        assert!(t.to_json().contains("\"shadow\":true"));
        let f = fold_spans(t.spans());
        assert_eq!((f.root_ns, f.overflow_ns), (110, 0));
        assert_eq!(f.self_ns["core"], 40 + 5);
    }
}
