//! The benchmark's own op grammar: every input is a pure function of
//! `--seed`.
//!
//! Nothing here calls `explore_workload` or `explore_storage::rng`, so
//! a refactor of those crates cannot move the benchmark's inputs. Ops
//! are generated in *quantile space* — range bounds are fractions of a
//! column's sorted distinct values, mapped to values by [`Quantiles`] at
//! set-up — which keeps selectivity, and so per-op cost, comparable
//! across seeds even though each seed generates different data.

/// SplitMix64 (Steele, Lea & Flood 2014): the benchmark's only source
/// of randomness.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

/// The SplitMix64 gamma; also separates lanes derived from one seed.
const GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;

impl SplitMix64 {
    pub fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(GAMMA);
        mix(self.0)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `[0, n)`; `n` must be non-zero.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Uniform in `[lo, hi]`.
    pub fn range_i64(&mut self, lo: i64, hi: i64) -> i64 {
        lo + self.below((hi - lo + 1) as u64) as i64
    }

    /// Uniform in `[lo, hi)`.
    pub fn range_f64(&mut self, lo: f64, hi: f64) -> f64 {
        lo + self.unit() * (hi - lo)
    }
}

/// The SplitMix64 finalizer, also the digest mixing step.
pub fn mix(mut x: u64) -> u64 {
    x ^= x >> 30;
    x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Independent sub-seeds of one `--seed`. Data, op streams and sampling
/// each draw from their own lane so changing one never shifts another.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Lane {
    Sales = 1,
    Sky = 2,
    Csv = 3,
    Samples = 4,
    Scan = 5,
    Writer = 6,
    Middleware = 7,
    /// Session `n` uses lane `Session + n`.
    Session = 64,
}

/// The sub-seed of `lane` (plus `offset` for numbered lanes).
pub fn lane_seed(seed: u64, lane: Lane, offset: u64) -> u64 {
    mix(seed ^ (lane as u64 + offset).wrapping_mul(0xA076_1D64_78BD_642F))
}

/// Sequential FNV-style fold (order matters).
pub fn fold(acc: u64, x: u64) -> u64 {
    (acc ^ mix(x)).wrapping_mul(0x0000_0100_0000_01B3)
}

/// Maps a fraction in `[0, 1]` to a column value by linear interpolation
/// over the column's sorted *distinct* values — strictly increasing in
/// the fraction, so monotone fractions give monotone bounds even on
/// columns with heavy ties.
#[derive(Debug, Clone)]
pub struct Quantiles {
    grid: Vec<f64>,
}

impl Quantiles {
    /// Build from (a stride sample of) a column.
    pub fn from_values(values: impl Iterator<Item = f64>) -> Self {
        let mut grid: Vec<f64> = values.collect();
        grid.sort_by(f64::total_cmp);
        grid.dedup();
        assert!(grid.len() >= 2, "column needs two distinct values");
        Quantiles { grid }
    }

    pub fn at(&self, frac: f64) -> f64 {
        let pos = frac.clamp(0.0, 1.0) * (self.grid.len() - 1) as f64;
        let i = (pos.floor() as usize).min(self.grid.len() - 2);
        let t = pos - i as f64;
        self.grid[i] + t * (self.grid[i + 1] - self.grid[i])
    }
}

// ---------------------------------------------------------------------
// Analyst sessions (analyst_mixed, and the readers of ingest_under_read)
// ---------------------------------------------------------------------

/// The sales dimension pairs a drill picks from.
pub const DRILL_PAIRS: [(&str, &str); 3] = [
    ("region", "product"),
    ("region", "channel"),
    ("product", "channel"),
];

/// One analyst interaction. Range bounds are price-quantile fractions.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum AnalystOp {
    /// Fresh range filter over `price`, grouped by region.
    Filter { lo: f64, hi: f64 },
    /// Narrow the session's last filter: strictly nested bounds, so a
    /// semantic cache can answer by subsumption.
    Refine { lo: f64, hi: f64 },
    /// Move/zoom the session viewport over the sky grid.
    Pan { dx: i64, dy: i64, resize: i64 },
    /// Discovery-driven drill over `DRILL_PAIRS[pair]`.
    Drill { pair: usize },
    /// Point lookup of one `qty` value through the adaptive index.
    Lookup { qty: i64 },
}

/// Latency classes, in reporting order.
pub const CLASSES: [&str; 5] = ["filter", "refine", "pan", "drill", "lookup"];

impl AnalystOp {
    /// Index into [`CLASSES`].
    pub fn class(&self) -> usize {
        match self {
            AnalystOp::Filter { .. } => 0,
            AnalystOp::Refine { .. } => 1,
            AnalystOp::Pan { .. } => 2,
            AnalystOp::Drill { .. } => 3,
            AnalystOp::Lookup { .. } => 4,
        }
    }

    fn hash(&self) -> u64 {
        match *self {
            AnalystOp::Filter { lo, hi } => fold(fold(1, lo.to_bits()), hi.to_bits()),
            AnalystOp::Refine { lo, hi } => fold(fold(2, lo.to_bits()), hi.to_bits()),
            AnalystOp::Pan { dx, dy, resize } => {
                fold(fold(fold(3, dx as u64), dy as u64), resize as u64)
            }
            AnalystOp::Drill { pair } => fold(4, pair as u64),
            AnalystOp::Lookup { qty } => fold(5, qty as u64),
        }
    }
}

/// Cumulative class shares `[filter, refine, pan, drill]`; the rest is
/// lookup.
#[derive(Debug, Clone, Copy)]
pub struct Mix(pub [f64; 4]);

/// 25 % filter / 25 % refine / 20 % pan / 15 % drill / 15 % lookup.
pub const ANALYST_MIX: Mix = Mix([0.25, 0.50, 0.70, 0.85]);
/// 30 % filter / 20 % refine / 50 % lookup: the read side of
/// `ingest_under_read`.
pub const READER_MIX: Mix = Mix([0.30, 0.50, 0.50, 0.50]);

/// The endless op stream of one analyst session.
#[derive(Debug, Clone)]
pub struct AnalystStream {
    rng: SplitMix64,
    mix: Mix,
    /// The session's current filter bounds; a refine narrows them.
    bounds: Option<(f64, f64)>,
}

impl AnalystStream {
    pub fn new(seed: u64, session: u64, mix: Mix) -> Self {
        AnalystStream {
            rng: SplitMix64::new(lane_seed(seed, Lane::Session, session)),
            mix,
            bounds: None,
        }
    }

    fn fresh_filter(&mut self) -> AnalystOp {
        let lo = self.rng.range_f64(0.0, 0.98);
        let hi = lo + self.rng.range_f64(0.005, 0.02);
        self.bounds = Some((lo, hi));
        AnalystOp::Filter { lo, hi }
    }
}

impl Iterator for AnalystStream {
    type Item = AnalystOp;

    fn next(&mut self) -> Option<AnalystOp> {
        let Mix(cut) = self.mix;
        // A session opens with a filter: there is nothing to refine yet.
        let roll = if self.bounds.is_none() {
            0.0
        } else {
            self.rng.unit()
        };
        Some(if roll < cut[0] {
            self.fresh_filter()
        } else if roll < cut[1] {
            let (lo, hi) = self.bounds.expect("a filter ran first");
            let w = hi - lo;
            // Shrink each edge by up to a quarter of the width.
            let lo = lo + self.rng.unit() * 0.25 * w;
            let hi = hi - self.rng.unit() * 0.25 * w;
            self.bounds = Some((lo, hi));
            AnalystOp::Refine { lo, hi }
        } else if roll < cut[2] {
            AnalystOp::Pan {
                dx: self.rng.range_i64(-2, 2),
                dy: self.rng.range_i64(-2, 2),
                resize: self.rng.range_i64(-1, 1),
            }
        } else if roll < cut[3] {
            AnalystOp::Drill {
                pair: self.rng.below(DRILL_PAIRS.len() as u64) as usize,
            }
        } else {
            AnalystOp::Lookup {
                qty: self.rng.range_i64(1, 9),
            }
        })
    }
}

// ---------------------------------------------------------------------
// scan_cold
// ---------------------------------------------------------------------

/// Group keys and aggregate shapes the scan workload rotates through.
pub const SCAN_KEYS: [&str; 3] = ["region", "product", "channel"];
/// Steps per pass of a scan front over its quantile range.
pub const SCAN_STEPS: u64 = 1 << 16;

/// One cache-hostile scan. All bounds are quantile fractions of the
/// named column.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ScanOp {
    /// `SUM/AVG(price), COUNT GROUP BY key WHERE lo <= column < hi`,
    /// `column` one of price / discount.
    Agg {
        on_price: bool,
        key: usize,
        avg: bool,
        lo: f64,
        hi: f64,
    },
    /// As `Agg` on price, with an extra `qty` band.
    AggQty {
        key: usize,
        qty_lo: i64,
        qty_hi: i64,
        lo: f64,
        hi: f64,
    },
    /// `SELECT product, price, qty WHERE lo <= price < hi ORDER BY price
    /// DESC LIMIT n`: a selective projection with a large result.
    Project { lo: f64, hi: f64 },
}

impl ScanOp {
    /// The `(on_price, lo, hi)` window this op filters on.
    pub fn window(&self) -> (bool, f64, f64) {
        match *self {
            ScanOp::Agg {
                on_price, lo, hi, ..
            } => (on_price, lo, hi),
            ScanOp::AggQty { lo, hi, .. } | ScanOp::Project { lo, hi } => (true, lo, hi),
        }
    }

    fn hash(&self) -> u64 {
        let (on_price, lo, hi) = self.window();
        let tag = match *self {
            ScanOp::Agg { key, avg, .. } => fold(fold(1, key as u64), avg as u64),
            ScanOp::AggQty {
                key,
                qty_lo,
                qty_hi,
                ..
            } => fold(fold(fold(2, key as u64), qty_lo as u64), qty_hi as u64),
            ScanOp::Project { .. } => 3,
        };
        fold(fold(fold(tag, on_price as u64), lo.to_bits()), hi.to_bits())
    }
}

/// The shape each slot of the scan rotation takes: two in ten are
/// projections, the rest aggregates over the rotating filter columns.
#[derive(Debug, Clone, Copy)]
enum Shape {
    Price,
    Discount,
    Qty,
    Project,
}

const ROTATION: [Shape; 10] = [
    Shape::Price,
    Shape::Discount,
    Shape::Project,
    Shape::Qty,
    Shape::Price,
    Shape::Discount,
    Shape::Qty,
    Shape::Project,
    Shape::Price,
    Shape::Discount,
];

/// Aggregate window width, as a share of the column's rows.
const SCAN_WIDTH: f64 = 0.30;
/// Projection strip width.
const SCAN_STRIP: f64 = 0.03;
/// The three fronts: where each starts and how far it travels.
/// Aggregates on `price` stay below the 0.65 quantile and projection
/// strips above 0.66, so no aggregate window can ever cover a strip.
const FRONTS: [(f64, f64); 3] = [
    (0.0, 0.65 - SCAN_WIDTH),
    (0.0, 1.0 - SCAN_WIDTH),
    (0.66, 1.0 - 0.66 - SCAN_STRIP),
];

/// The endless scan stream: a fixed rotation of shapes (so every stretch
/// of the run does the same mix of work) whose group keys, aggregate
/// functions, `qty` bands and starting slot come from the seed.
///
/// Each kind of window — aggregates on `price`, aggregates on
/// `discount`, projection strips on `price` — has one *front* that only
/// moves up, in [`SCAN_STEPS`] steps per pass over its range. Windows of
/// one kind have one width, and equal-width windows with distinct lower
/// bounds never nest; the two kinds on `price` live in disjoint ranges.
/// So no cached region ever covers a later query, whatever the cache
/// does and however long the run.
#[derive(Debug, Clone)]
pub struct ScanStream {
    rng: SplitMix64,
    /// Position in [`ROTATION`].
    slot: usize,
    /// Steps per pass.
    steps: u64,
    /// Ops issued per front of [`FRONTS`].
    issued: [u64; 3],
}

impl ScanStream {
    pub fn new(seed: u64) -> Self {
        ScanStream::with_steps(seed, SCAN_STEPS)
    }

    fn with_steps(seed: u64, steps: u64) -> Self {
        let mut rng = SplitMix64::new(lane_seed(seed, Lane::Scan, 0));
        ScanStream {
            slot: rng.below(ROTATION.len() as u64) as usize,
            steps,
            issued: [0; 3],
            rng,
        }
    }

    /// The next position of `front`. Pass `p` over the range is offset
    /// by the van der Corput fraction of `p`, so positions of different
    /// passes never coincide.
    fn advance(&mut self, front: usize) -> f64 {
        let k = self.issued[front];
        self.issued[front] += 1;
        let (base, span) = FRONTS[front];
        let pass = k / self.steps;
        let offset = (pass.reverse_bits() >> 11) as f64 / (1u64 << 53) as f64;
        base + ((k % self.steps) as f64 + offset) * span / self.steps as f64
    }
}

impl Iterator for ScanStream {
    type Item = ScanOp;

    fn next(&mut self) -> Option<ScanOp> {
        let shape = ROTATION[self.slot];
        self.slot = (self.slot + 1) % ROTATION.len();
        let key = self.rng.below(SCAN_KEYS.len() as u64) as usize;
        Some(match shape {
            Shape::Project => {
                let lo = self.advance(2);
                ScanOp::Project {
                    lo,
                    hi: lo + SCAN_STRIP,
                }
            }
            Shape::Price | Shape::Discount => {
                let on_price = matches!(shape, Shape::Price);
                let lo = self.advance(if on_price { 0 } else { 1 });
                ScanOp::Agg {
                    on_price,
                    key,
                    avg: self.rng.below(2) == 1,
                    lo,
                    hi: lo + SCAN_WIDTH,
                }
            }
            Shape::Qty => {
                let lo = self.advance(0);
                let qty_lo = self.rng.range_i64(1, 5);
                ScanOp::AggQty {
                    key,
                    qty_lo,
                    qty_hi: qty_lo + self.rng.range_i64(3, 5),
                    lo,
                    hi: lo + SCAN_WIDTH,
                }
            }
        })
    }
}

// ---------------------------------------------------------------------
// ingest_under_read writer
// ---------------------------------------------------------------------

/// One scheduled mutation of the sales table.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Mutation {
    /// Append one generated row (`row_seed` makes its values).
    PushRow { row_seed: u64 },
    /// Append a generated batch of `rows` rows.
    Append { row_seed: u64, rows: usize },
    /// `SET discount = value WHERE lo <= price < hi`, a price-quantile
    /// strip holding about 0.1 % of the rows.
    Update { lo: f64, hi: f64, value: f64 },
}

impl Mutation {
    #[cfg(test)]
    fn kind(&self) -> usize {
        match self {
            Mutation::PushRow { .. } => 0,
            Mutation::Append { .. } => 1,
            Mutation::Update { .. } => 2,
        }
    }

    fn hash(&self) -> u64 {
        match *self {
            Mutation::PushRow { row_seed } => fold(1, row_seed),
            Mutation::Append { row_seed, rows } => fold(fold(2, row_seed), rows as u64),
            Mutation::Update { lo, hi, value } => {
                fold(fold(fold(3, lo.to_bits()), hi.to_bits()), value.to_bits())
            }
        }
    }
}

/// Kind of each slot of the writer's rotation: 70 % `push_row`, 20 %
/// `append_rows`, 10 % `update_where`, evenly spread so every stretch
/// of the schedule carries the same mix.
const WRITER_ROTATION: [usize; 10] = [0, 0, 1, 0, 0, 2, 0, 1, 0, 0];

/// The writer's endless schedule; `batch` is the `append_rows` size.
#[derive(Debug, Clone)]
pub struct WriterStream {
    rng: SplitMix64,
    slot: usize,
    batch: usize,
}

impl WriterStream {
    pub fn new(seed: u64, batch: usize) -> Self {
        let mut rng = SplitMix64::new(lane_seed(seed, Lane::Writer, 0));
        WriterStream {
            slot: rng.below(WRITER_ROTATION.len() as u64) as usize,
            batch,
            rng,
        }
    }
}

impl Iterator for WriterStream {
    type Item = Mutation;

    fn next(&mut self) -> Option<Mutation> {
        let kind = WRITER_ROTATION[self.slot];
        self.slot = (self.slot + 1) % WRITER_ROTATION.len();
        Some(match kind {
            0 => Mutation::PushRow {
                row_seed: self.rng.next_u64(),
            },
            1 => Mutation::Append {
                row_seed: self.rng.next_u64(),
                rows: self.batch,
            },
            _ => {
                let lo = self.rng.range_f64(0.0, 0.999);
                Mutation::Update {
                    lo,
                    hi: lo + 0.001,
                    value: self.rng.range_f64(0.0, 0.5),
                }
            }
        })
    }
}

// ---------------------------------------------------------------------
// middleware_insight
// ---------------------------------------------------------------------

/// The parameters of one middleware cycle: every call in the cycle
/// explores the same price-quantile window.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Cycle {
    /// Target window for `recommend_views` / `facets` / `approx` /
    /// `online` / `estimate_range_count`.
    pub lo: f64,
    pub hi: f64,
    /// Narrow window for `diversified_topk` (MMR is quadratic in k, and
    /// linear in the candidates).
    pub div_lo: f64,
    /// Per-cycle seed for `online_aggregate`'s visiting order.
    pub online_seed: u64,
}

impl Cycle {
    fn hash(&self) -> u64 {
        fold(
            fold(
                fold(fold(7, self.lo.to_bits()), self.hi.to_bits()),
                self.div_lo.to_bits(),
            ),
            self.online_seed,
        )
    }
}

/// The endless cycle stream.
#[derive(Debug, Clone)]
pub struct CycleStream {
    rng: SplitMix64,
}

impl CycleStream {
    pub fn new(seed: u64) -> Self {
        CycleStream {
            rng: SplitMix64::new(lane_seed(seed, Lane::Middleware, 0)),
        }
    }
}

impl Iterator for CycleStream {
    type Item = Cycle;

    fn next(&mut self) -> Option<Cycle> {
        let lo = self.rng.range_f64(0.0, 0.6);
        Some(Cycle {
            lo,
            hi: lo + self.rng.range_f64(0.2, 0.4),
            div_lo: self.rng.range_f64(0.0, 0.99),
            online_seed: self.rng.next_u64(),
        })
    }
}

// ---------------------------------------------------------------------
// Stream hashes
// ---------------------------------------------------------------------

/// Ops hashed per stream by [`stream_hash`].
pub const HASHED_OPS: usize = 256;

/// Hash of the first [`HASHED_OPS`] ops of every stream `workload`
/// draws from `seed` — what "the same seed gives the same inputs" is
/// checked against. `None` for an unknown workload.
pub fn stream_hash(workload: &str, seed: u64) -> Option<u64> {
    let hash_sessions = |sessions: u64, mix: Mix| {
        (0..sessions).fold(0u64, |acc, s| {
            AnalystStream::new(seed, s, mix)
                .take(HASHED_OPS)
                .fold(fold(acc, s), |acc, op| fold(acc, op.hash()))
        })
    };
    Some(match workload {
        "analyst_mixed" => hash_sessions(8, ANALYST_MIX),
        "scan_cold" => ScanStream::new(seed)
            .take(HASHED_OPS)
            .fold(0, |acc, op| fold(acc, op.hash())),
        "ingest_under_read" => WriterStream::new(seed, 1000)
            .take(HASHED_OPS)
            .fold(hash_sessions(3, READER_MIX), |acc, m| fold(acc, m.hash())),
        "middleware_insight" => CycleStream::new(seed)
            .take(HASHED_OPS)
            .fold(0, |acc, c| fold(acc, c.hash())),
        _ => return None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DEFAULT_SEED, WORKLOADS};

    /// `stream_hash(workload, DEFAULT_SEED)`, pinned: a change to the
    /// grammar is a change to the benchmark and must show up here.
    const PINNED: [(&str, u64); 4] = [
        ("analyst_mixed", 0x1636_e481_d5a1_c435),
        ("scan_cold", 0x07cd_54e2_e649_2cb9),
        ("ingest_under_read", 0xaa24_0605_0ab6_afa0),
        ("middleware_insight", 0x2225_bc0a_8887_bdc7),
    ];

    #[test]
    fn same_seed_same_stream_and_the_default_seed_is_pinned() {
        for (name, pinned) in PINNED {
            let a = stream_hash(name, DEFAULT_SEED).unwrap();
            assert_eq!(Some(a), stream_hash(name, DEFAULT_SEED));
            assert_ne!(Some(a), stream_hash(name, DEFAULT_SEED + 1), "{name}");
            assert_eq!(a, pinned, "{name}: op grammar moved: {a:#018x}");
        }
        assert_eq!(PINNED.map(|(n, _)| n), WORKLOADS);
        assert_eq!(stream_hash("nope", 1), None);
    }

    #[test]
    fn refines_nest_in_the_last_filter() {
        for seed in 0..20 {
            let mut bounds: Option<(f64, f64)> = None;
            for (i, op) in AnalystStream::new(seed, 3, ANALYST_MIX)
                .take(400)
                .enumerate()
            {
                match op {
                    AnalystOp::Filter { lo, hi } => {
                        assert!((0.0..=1.0).contains(&lo) && lo < hi && hi <= 1.0);
                        bounds = Some((lo, hi));
                    }
                    AnalystOp::Refine { lo, hi } => {
                        let (plo, phi) = bounds.expect("refine only after a filter");
                        assert!(plo <= lo && lo < hi && hi <= phi, "refine nests");
                        bounds = Some((lo, hi));
                    }
                    _ => assert!(i > 0, "a session opens with a filter"),
                }
            }
        }
    }

    #[test]
    fn reader_mix_has_no_pan_or_drill() {
        for op in AnalystStream::new(9, 0, READER_MIX).take(2000) {
            assert!(!matches!(
                op,
                AnalystOp::Pan { .. } | AnalystOp::Drill { .. }
            ));
        }
    }

    #[test]
    fn scan_windows_never_nest_even_across_passes() {
        for seed in [DEFAULT_SEED, 1, 2] {
            // Sixty-four steps a pass: 4000 ops are many passes.
            let ops: Vec<ScanOp> = ScanStream::with_steps(seed, 64).take(4000).collect();
            for on_price in [true, false] {
                let mut windows: Vec<(f64, f64)> = ops
                    .iter()
                    .map(ScanOp::window)
                    .filter(|w| w.0 == on_price)
                    .map(|(_, lo, hi)| (lo, hi))
                    .collect();
                assert!(windows.len() > 1000);
                assert!(windows
                    .iter()
                    .all(|&(lo, hi)| 0.0 <= lo && lo < hi && hi <= 1.0));
                windows.sort_by(|a, b| a.0.total_cmp(&b.0));
                for (i, a) in windows.iter().enumerate() {
                    // Only windows that start inside `a` can nest in it.
                    for b in windows[i + 1..].iter().take_while(|b| b.0 < a.1) {
                        assert!(a.0 < b.0 && a.1 < b.1, "{b:?} nests in {a:?}");
                    }
                }
            }
        }
    }

    #[test]
    fn the_default_pass_outlasts_a_minute_at_ten_times_the_sizing_rate() {
        // Sizing runs did ~60 scans/s; four in ten advance the busiest
        // front.
        assert!(SCAN_STEPS as f64 > 60.0 * 10.0 * 60.0 * 0.4);
        let mut last = [f64::MIN; 2];
        for op in ScanStream::new(3).take(5000) {
            if let ScanOp::Agg { on_price, lo, .. } = op {
                assert!(lo > last[on_price as usize], "fronts only move up");
                last[on_price as usize] = lo;
            }
        }
    }

    #[test]
    fn quantiles_are_strictly_monotone_over_ties() {
        let q = Quantiles::from_values([0.0, 0.0, 0.0, 0.0, 1.0, 2.0, 2.0, 4.0].into_iter());
        assert_eq!(q.at(0.0), 0.0);
        assert_eq!(q.at(1.0), 4.0);
        let mut last = -1.0;
        for i in 0..=100 {
            let v = q.at(i as f64 / 100.0);
            assert!(v > last);
            last = v;
        }
    }

    #[test]
    fn writer_mix_is_70_20_10_in_every_stretch() {
        for start in [0, 3, 17] {
            let mut counts = [0usize; 3];
            for m in WriterStream::new(3, 1000).skip(start).take(100) {
                counts[m.kind()] += 1;
            }
            assert_eq!(counts, [70, 20, 10]);
        }
    }
}
