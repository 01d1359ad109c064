//! Structured spans and finished query traces.
//!
//! A [`Span`] is a `Copy` record — fixed-size, no heap — so the hot
//! path can write it into a preallocated lock-free buffer without
//! allocating, and the buffer can hand uninitialized slots around as
//! `MaybeUninit<Span>` safely. Everything variable-length (the query
//! text, the table name) lives once on the [`QueryTrace`], not on each
//! span.

/// Index of a span within its trace. [`ROOT_SPAN`] is the implicit
/// whole-query root every trace has.
pub type SpanId = u32;

/// The id of the implicit root span (the query itself).
pub const ROOT_SPAN: SpanId = 0;

/// How a cache lookup resolved.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheOutcome {
    /// Exact fingerprint hit — the stored result is returned as-is.
    Hit,
    /// Served by re-filtering a cached superset.
    Subsumption,
    /// Fell through to base-table execution.
    Miss,
}

/// What a span measured.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SpanKind {
    /// The whole query (always the root, id [`ROOT_SPAN`]).
    Query,
    /// A result-cache lookup and how it resolved.
    CacheLookup(CacheOutcome),
    /// One morsel fan-out through `fan_out`. `stage` names what ran
    /// per morsel ("scan", "aggregate", "filter", …); `participants` is
    /// how many threads actually worked the job (1 = inline/serial).
    Exec {
        stage: &'static str,
        participants: u32,
        morsels: u32,
    },
    /// One morsel's work inside an [`SpanKind::Exec`] fan-out.
    Morsel { index: u32 },
    /// One fan-out participant's whole contribution to an
    /// [`SpanKind::Exec`] fan-out: from its first morsel to its last,
    /// with how many morsels it ran. Makes claim imbalance visible.
    Worker { index: u32, morsels: u32 },
    /// Merging per-morsel partials in morsel order.
    Merge,
    /// An adaptive-index step; equal piece counts mean the query
    /// answered from existing boundaries without reorganizing.
    Crack {
        pieces_before: u32,
        pieces_after: u32,
    },
    /// Admission of a computed result into the cache.
    Admit { accepted: bool },
    /// Serving a query through the NoDB adaptive loader.
    RawLoad,
    /// A bounded approximate aggregate: which fraction (in percent ×
    /// 100, i.e. basis points) answered it and whether it fell back to
    /// exact execution.
    Aqp {
        fraction_bp: u32,
        rows_scanned: u32,
        exact: bool,
    },
    /// A labelled catch-all for middleware stages.
    Stage(&'static str),
    /// A fault-injection degradation path engaged at the named site
    /// (e.g. "exec.serial_fallback"); zero-duration marker span.
    Fault { site: &'static str },
}

impl SpanKind {
    /// Short label for rendering and metrics names.
    pub fn label(&self) -> &'static str {
        match self {
            SpanKind::Query => "query",
            SpanKind::CacheLookup(CacheOutcome::Hit) => "cache.hit",
            SpanKind::CacheLookup(CacheOutcome::Subsumption) => "cache.subsumption",
            SpanKind::CacheLookup(CacheOutcome::Miss) => "cache.miss",
            SpanKind::Exec { .. } => "exec",
            SpanKind::Morsel { .. } => "morsel",
            SpanKind::Worker { .. } => "worker",
            SpanKind::Merge => "merge",
            SpanKind::Crack { .. } => "crack",
            SpanKind::Admit { .. } => "admit",
            SpanKind::RawLoad => "raw_load",
            SpanKind::Aqp { .. } => "aqp",
            SpanKind::Stage(s) => s,
            SpanKind::Fault { .. } => "fault",
        }
    }
}

/// One timed region of a query, offsets relative to the trace start.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Span {
    /// Identity within the trace.
    pub id: SpanId,
    /// Enclosing span ([`ROOT_SPAN`] for top-level stages).
    pub parent: SpanId,
    pub kind: SpanKind,
    /// Nanoseconds from trace start.
    pub start_ns: u64,
    /// Wall time the span covered.
    pub dur_ns: u64,
}

impl Span {
    /// End offset (`start_ns + dur_ns`).
    pub fn end_ns(&self) -> u64 {
        self.start_ns + self.dur_ns
    }
}

/// A finished, immutable trace of one query.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryTrace {
    /// Monotone per-tracer sequence number.
    pub seq: u64,
    /// Table the query ran against.
    pub table: String,
    /// Human-readable query description.
    pub query: String,
    /// Whole-query wall time.
    pub total_ns: u64,
    /// All spans, sorted by `(start_ns, id)`, root first. The root span
    /// (id [`ROOT_SPAN`], kind [`SpanKind::Query`]) is always present.
    pub spans: Vec<Span>,
    /// Spans not recorded because the per-trace budget was exhausted.
    pub dropped_spans: u32,
}

impl QueryTrace {
    /// The span with the given id, if recorded.
    pub fn span(&self, id: SpanId) -> Option<&Span> {
        self.spans.iter().find(|s| s.id == id)
    }

    /// Direct children of `parent`, in start order.
    pub fn children(&self, parent: SpanId) -> Vec<&Span> {
        self.spans
            .iter()
            .filter(|s| s.parent == parent && s.id != parent)
            .collect()
    }

    /// All spans of a given coarse label (e.g. "morsel", "exec").
    pub fn spans_labelled(&self, label: &str) -> Vec<&Span> {
        self.spans
            .iter()
            .filter(|s| s.kind.label() == label)
            .collect()
    }

    /// Structural sanity: exactly one root, every parent resolves to a
    /// recorded span with a smaller id, and every child's window nests
    /// inside its parent's. Dropped spans can orphan nothing — parents
    /// are allocated before their children record.
    pub fn is_well_formed(&self) -> bool {
        let roots = self
            .spans
            .iter()
            .filter(|s| s.id == ROOT_SPAN)
            .collect::<Vec<_>>();
        if roots.len() != 1 || !matches!(roots[0].kind, SpanKind::Query) {
            return false;
        }
        self.spans.iter().all(|s| {
            if s.id == ROOT_SPAN {
                return s.parent == ROOT_SPAN;
            }
            match self.span(s.parent) {
                None => false,
                Some(p) => p.id < s.id && p.start_ns <= s.start_ns && s.end_ns() <= p.end_ns(),
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn trace(spans: Vec<Span>) -> QueryTrace {
        QueryTrace {
            seq: 1,
            table: "t".into(),
            query: "q".into(),
            total_ns: 100,
            spans,
            dropped_spans: 0,
        }
    }

    fn root() -> Span {
        Span {
            id: ROOT_SPAN,
            parent: ROOT_SPAN,
            kind: SpanKind::Query,
            start_ns: 0,
            dur_ns: 100,
        }
    }

    #[test]
    fn well_formedness_checks_nesting() {
        let ok = trace(vec![
            root(),
            Span {
                id: 1,
                parent: ROOT_SPAN,
                kind: SpanKind::Merge,
                start_ns: 10,
                dur_ns: 20,
            },
        ]);
        assert!(ok.is_well_formed());
        assert_eq!(ok.children(ROOT_SPAN).len(), 1);

        let escapes_parent = trace(vec![
            root(),
            Span {
                id: 1,
                parent: ROOT_SPAN,
                kind: SpanKind::Merge,
                start_ns: 90,
                dur_ns: 20,
            },
        ]);
        assert!(!escapes_parent.is_well_formed());

        let orphan = trace(vec![
            root(),
            Span {
                id: 2,
                parent: 1,
                kind: SpanKind::Merge,
                start_ns: 5,
                dur_ns: 1,
            },
        ]);
        assert!(!orphan.is_well_formed());

        let no_root = trace(vec![Span {
            id: 1,
            parent: ROOT_SPAN,
            kind: SpanKind::Merge,
            start_ns: 0,
            dur_ns: 1,
        }]);
        assert!(!no_root.is_well_formed());
    }

    #[test]
    fn labels_are_stable() {
        assert_eq!(
            SpanKind::CacheLookup(CacheOutcome::Hit).label(),
            "cache.hit"
        );
        assert_eq!(SpanKind::Morsel { index: 3 }.label(), "morsel");
        assert_eq!(SpanKind::Stage("seedb").label(), "seedb");
    }
}
