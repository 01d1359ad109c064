//! SeeDB: deviation-based visualization recommendation
//! (Parameswaran, Polyzotis, Garcia-Molina — PVLDB'14 \[49\]).
//!
//! Given a target subset of the data (the rows the analyst is looking
//! at), SeeDB scores every candidate view — (group-by dimension,
//! measure, aggregate) — by how *differently* the target distributes
//! compared to the reference data, and recommends the top-k most
//! deviating views. The paper's contribution is making this interactive:
//!
//! * **Naive** — two group-by queries per view: O(#views) scans.
//! * **Shared** — one combined scan computes every view's target and
//!   reference distributions simultaneously.
//! * **Pruned** — process the data in phases; after each phase, drop
//!   views whose running utility cannot reach the top-k (confidence
//!   interval separation), saving aggregation work at a small recall
//!   cost.

use explore_aqp::SeededWalk;
use explore_exec::QueryCtx;
use explore_storage::{AggFunc, Dictionary, Measure, Predicate, Result, StorageError, Table};

/// How often the row loops consult the cancellation tokens: one check
/// per this many rows keeps the disarmed cost negligible while bounding
/// post-cancel work to a fraction of a scan.
const CANCEL_CHECK_ROWS: usize = 4096;

/// One candidate view.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ViewSpec {
    pub dimension: String,
    pub measure: String,
    pub func: AggFunc,
}

impl ViewSpec {
    /// Human-readable label, e.g. `avg(price) by region`.
    pub fn label(&self) -> String {
        format!("{}({}) by {}", self.func, self.measure, self.dimension)
    }
}

/// A scored view.
#[derive(Debug, Clone)]
pub struct ScoredView {
    pub spec: ViewSpec,
    /// KL divergence of the target distribution from the reference.
    pub utility: f64,
}

/// Work accounting for the three strategies.
#[derive(Debug, Default, Clone, Copy)]
pub struct SeedbStats {
    /// Row-aggregation operations performed (rows × views touched).
    pub agg_ops: u64,
    /// Table scans performed.
    pub scans: u64,
    /// Views pruned before completion.
    pub pruned: u64,
}

/// Enumerate all candidate views: every Utf8 column is a dimension,
/// every numeric column a measure, crossed with the given aggregates.
pub fn candidate_views(table: &Table, funcs: &[AggFunc]) -> Vec<ViewSpec> {
    let mut dims = Vec::new();
    let mut measures = Vec::new();
    for f in table.schema().fields() {
        if f.data_type() == explore_storage::DataType::Utf8 {
            dims.push(f.name().to_owned());
        } else {
            measures.push(f.name().to_owned());
        }
    }
    let mut out = Vec::new();
    for d in &dims {
        for m in &measures {
            for &f in funcs {
                out.push(ViewSpec {
                    dimension: d.clone(),
                    measure: m.clone(),
                    func: f,
                });
            }
        }
    }
    out
}

/// KL divergence D(P‖Q) of two distributions given as aligned positive
/// vectors (normalized internally, with epsilon smoothing).
pub fn kl_divergence(p: &[f64], q: &[f64]) -> f64 {
    const EPS: f64 = 1e-9;
    let sp: f64 = p.iter().map(|x| x.max(0.0) + EPS).sum();
    let sq: f64 = q.iter().map(|x| x.max(0.0) + EPS).sum();
    p.iter()
        .zip(q)
        .map(|(&a, &b)| {
            let pa = (a.max(0.0) + EPS) / sp;
            let qb = (b.max(0.0) + EPS) / sq;
            pa * (pa / qb).ln()
        })
        .sum()
}

/// One view's running accumulation over its resolved columns: per
/// dimension code, (count, sum) for target and reference rows. Views
/// sharing a (dimension, measure) pair can read one accumulator.
#[derive(Clone, Debug)]
struct ViewAcc<'p> {
    spec: &'p ViewSpec,
    dim: &'p Dictionary,
    measure: Measure<'p>,
    groups: Vec<[f64; 4]>, // [t_count, t_sum, r_count, r_sum]
}

impl ViewAcc<'_> {
    #[inline]
    fn update(&mut self, target: bool, row: usize) {
        let value = self.measure.at(row);
        let e = &mut self.groups[self.dim.codes()[row] as usize];
        if target {
            e[0] += 1.0;
            e[1] += value;
        } else {
            e[2] += 1.0;
            e[3] += value;
        }
    }

    /// True when `view` reads this accumulator's (dimension, measure).
    fn serves(&self, view: &ViewSpec) -> bool {
        self.spec.dimension == view.dimension && self.spec.measure == view.measure
    }

    /// KL utility over the groups seen so far, in label order. A group no
    /// row has reached yet is absent from both distributions.
    fn utility(&self, func: AggFunc) -> f64 {
        let mut p = Vec::with_capacity(self.groups.len());
        let mut q = Vec::with_capacity(self.groups.len());
        for code in self.dim.label_order() {
            let [tc, ts, rc, rs] = self.groups[code as usize];
            if tc == 0.0 && rc == 0.0 {
                continue;
            }
            let (tv, rv) = match func {
                AggFunc::Count => (tc, rc),
                AggFunc::Sum => (ts, rs),
                AggFunc::Avg => (
                    if tc > 0.0 { ts / tc } else { 0.0 },
                    if rc > 0.0 { rs / rc } else { 0.0 },
                ),
                _ => (0.0, 0.0),
            };
            p.push(tv);
            q.push(rv);
        }
        kl_divergence(&p, &q)
    }

    fn score(&self, view: &ViewSpec) -> ScoredView {
        ScoredView {
            spec: view.clone(),
            utility: self.utility(view.func),
        }
    }
}

/// Context shared by the three strategies: every view's columns, resolved
/// once, and the target mask.
struct Prepared<'a> {
    dims: Vec<(&'a str, Dictionary)>,
    measures: Vec<(&'a str, Measure<'a>)>,
    mask: Vec<bool>,
}

impl Prepared<'_> {
    /// A fresh accumulator over `view`'s columns. Every view passed to
    /// [`prepare`] has its columns resolved there, so a miss is an
    /// internal invariant violation, not a user error.
    fn acc<'p>(&'p self, view: &'p ViewSpec) -> Result<ViewAcc<'p>> {
        let lost =
            |name: &str| StorageError::Internal(format!("prepared views lost column {name}"));
        let (_, dim) = self
            .dims
            .iter()
            .find(|(n, _)| *n == view.dimension)
            .ok_or_else(|| lost(&view.dimension))?;
        let (_, measure) = self
            .measures
            .iter()
            .find(|(n, _)| *n == view.measure)
            .ok_or_else(|| lost(&view.measure))?;
        Ok(ViewAcc {
            spec: view,
            dim,
            measure: *measure,
            groups: vec![[0.0; 4]; dim.labels().len()],
        })
    }

    /// One pass feeding `rows` into every accumulator of `accs` (one
    /// aggregation op each), with the context's cancellation tokens
    /// checked every `CANCEL_CHECK_ROWS` rows.
    fn scan(
        &self,
        rows: impl Iterator<Item = usize>,
        accs: &mut [ViewAcc],
        stats: &mut SeedbStats,
        ctx: &QueryCtx,
    ) -> Result<()> {
        for (i, row) in rows.enumerate() {
            if i % CANCEL_CHECK_ROWS == 0 {
                ctx.check_cancel()?;
            }
            for acc in accs.iter_mut() {
                acc.update(self.mask[row], row);
                stats.agg_ops += 1;
            }
        }
        stats.scans += 1;
        Ok(())
    }
}

fn prepare<'a>(
    table: &'a Table,
    target: &Predicate,
    views: &'a [ViewSpec],
) -> Result<Prepared<'a>> {
    let mut dims: Vec<(&str, Dictionary)> = Vec::new();
    let mut measures = Vec::new();
    for v in views {
        if !dims.iter().any(|(n, _)| *n == v.dimension) {
            dims.push((&v.dimension, Dictionary::encode(table, &v.dimension)?));
        }
        if !measures.iter().any(|(n, _)| *n == v.measure) {
            // Every view accumulates the measure's SUM (COUNT and AVG
            // derive from it), so the measure must be numeric.
            let m = Measure::resolve(table, AggFunc::Sum, &v.measure)?;
            measures.push((v.measure.as_str(), m));
        }
    }
    Ok(Prepared {
        dims,
        measures,
        mask: target.evaluate_mask(table)?,
    })
}

/// The `k` highest-utility views, best first (ties keep input order).
fn top_k(mut scored: Vec<ScoredView>, k: usize) -> Vec<ScoredView> {
    scored.sort_by(|a, b| b.utility.total_cmp(&a.utility));
    scored.truncate(k);
    scored
}

/// Naive strategy: one separate pass over the data per view. The
/// context's cancellation tokens are checked before each view's scan and
/// every `CANCEL_CHECK_ROWS` rows within it.
pub fn recommend_naive(
    table: &Table,
    target: &Predicate,
    views: &[ViewSpec],
    k: usize,
    stats: &mut SeedbStats,
    ctx: &QueryCtx,
) -> Result<Vec<ScoredView>> {
    let prep = prepare(table, target, views)?;
    let mut scored = Vec::with_capacity(views.len());
    for v in views {
        ctx.check_cancel()?;
        let mut acc = [prep.acc(v)?];
        prep.scan(0..table.num_rows(), &mut acc, stats, ctx)?;
        scored.push(acc[0].score(v));
    }
    Ok(top_k(scored, k))
}

/// Shared-scan strategy: one pass computes every view. Cancellation is
/// checked every `CANCEL_CHECK_ROWS` rows of the combined scan.
pub fn recommend_shared(
    table: &Table,
    target: &Predicate,
    views: &[ViewSpec],
    k: usize,
    stats: &mut SeedbStats,
    ctx: &QueryCtx,
) -> Result<Vec<ScoredView>> {
    let prep = prepare(table, target, views)?;
    // One accumulator per (dimension, measure) pair; aggregates share it.
    let mut accs: Vec<ViewAcc> = Vec::new();
    for v in views {
        if !accs.iter().any(|a| a.serves(v)) {
            accs.push(prep.acc(v)?);
        }
    }
    prep.scan(0..table.num_rows(), &mut accs, stats, ctx)?;
    let scored = views
        .iter()
        .map(|v| match accs.iter().find(|a| a.serves(v)) {
            Some(acc) => Ok(acc.score(v)),
            None => Err(StorageError::Internal(format!(
                "shared scan lost pair ({}, {})",
                v.dimension, v.measure
            ))),
        })
        .collect::<Result<_>>()?;
    Ok(top_k(scored, k))
}

/// Shared + pruned strategy: the data is processed in `phases` shuffled
/// slices; after each phase, views whose running utility plus a shrinking
/// margin falls below the k-th best minus the margin are dropped.
#[allow(clippy::too_many_arguments)]
pub fn recommend_pruned(
    table: &Table,
    target: &Predicate,
    views: &[ViewSpec],
    k: usize,
    phases: usize,
    seed: u64,
    stats: &mut SeedbStats,
    ctx: &QueryCtx,
) -> Result<Vec<ScoredView>> {
    let phases = phases.max(1);
    let prep = prepare(table, target, views)?;
    let n = table.num_rows();
    let mut walk = SeededWalk::new(n, seed);
    let mut alive: Vec<ViewAcc> = views.iter().map(|v| prep.acc(v)).collect::<Result<_>>()?;
    let phase_len = n.div_ceil(phases);
    for phase in 0..phases {
        let slice = walk.next_batch(phase_len)?.unwrap_or_default();
        prep.scan(
            slice.iter().map(|&row| row as usize),
            &mut alive,
            stats,
            ctx,
        )?;
        if phase + 1 == phases || alive.len() <= k {
            continue;
        }
        // Prune with a margin that shrinks as more data is seen (a
        // Hoeffding-style 1/√seen envelope on the KL estimate).
        let margin = 2.0 / (walk.seen() as f64).sqrt() * 10.0;
        let mut ranked: Vec<(f64, ViewAcc)> = alive
            .into_iter()
            .map(|a| (a.utility(a.spec.func), a))
            .collect();
        ranked.sort_by(|a, b| b.0.total_cmp(&a.0));
        let kth = ranked[k.min(ranked.len()) - 1].0;
        let before = ranked.len();
        alive = ranked
            .into_iter()
            .filter(|&(u, _)| u + margin >= kth - margin)
            .map(|(_, a)| a)
            .collect();
        stats.pruned += (before - alive.len()) as u64;
    }
    Ok(top_k(alive.iter().map(|a| a.score(a.spec)).collect(), k))
}

/// Fraction of `reference` specs present in `got` (top-k recall).
pub fn recall(got: &[ScoredView], reference: &[ScoredView]) -> f64 {
    if reference.is_empty() {
        return 1.0;
    }
    let hits = reference
        .iter()
        .filter(|r| got.iter().any(|g| g.spec == r.spec))
        .count();
    hits as f64 / reference.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use explore_storage::gen::{sales_table, SalesConfig};

    fn setup() -> (Table, Predicate, Vec<ViewSpec>) {
        let t = sales_table(&SalesConfig {
            rows: 20_000,
            ..SalesConfig::default()
        });
        // Target: one product. Its price distribution by region/channel
        // deviates strongly (prices are product-driven in the generator).
        let target = Predicate::eq("product", "product0");
        let views = candidate_views(&t, &[AggFunc::Count, AggFunc::Sum, AggFunc::Avg]);
        (t, target, views)
    }

    #[test]
    fn candidate_enumeration_covers_cross_product() {
        let (t, _, views) = setup();
        // 3 dims × 3 measures × 3 funcs = 27.
        assert_eq!(views.len(), 27);
        assert!(views.iter().any(|v| v.label() == "avg(price) by region"));
        let _ = t;
    }

    #[test]
    fn kl_properties() {
        let p = [0.5, 0.5];
        assert!(kl_divergence(&p, &p).abs() < 1e-9);
        let q = [0.9, 0.1];
        assert!(kl_divergence(&p, &q) > 0.0);
        // Asymmetry is expected.
        assert!((kl_divergence(&p, &q) - kl_divergence(&q, &p)).abs() > 1e-6);
    }

    #[test]
    fn naive_and_shared_agree_exactly() {
        let (t, target, views) = setup();
        let mut s1 = SeedbStats::default();
        let mut s2 = SeedbStats::default();
        let a = recommend_naive(&t, &target, &views, 5, &mut s1, &QueryCtx::none()).unwrap();
        let b = recommend_shared(&t, &target, &views, 5, &mut s2, &QueryCtx::none()).unwrap();
        assert_eq!(recall(&b, &a), 1.0);
        for (x, y) in a.iter().zip(&b) {
            assert!((x.utility - y.utility).abs() < 1e-9);
        }
    }

    #[test]
    fn shared_does_less_aggregation_work() {
        let (t, target, views) = setup();
        let mut naive = SeedbStats::default();
        let mut shared = SeedbStats::default();
        recommend_naive(&t, &target, &views, 5, &mut naive, &QueryCtx::none()).unwrap();
        recommend_shared(&t, &target, &views, 5, &mut shared, &QueryCtx::none()).unwrap();
        // Shared: one op per (dim, measure) pair per row = 9/row;
        // naive: one per view per row = 27/row.
        assert!(shared.agg_ops * 2 < naive.agg_ops);
        assert_eq!(shared.scans, 1);
        assert_eq!(naive.scans, 27);
    }

    #[test]
    fn pruning_saves_work_with_high_recall() {
        let (t, target, views) = setup();
        let mut exact_stats = SeedbStats::default();
        let exact =
            recommend_shared(&t, &target, &views, 5, &mut exact_stats, &QueryCtx::none()).unwrap();
        let mut pruned_stats = SeedbStats::default();
        let pruned = recommend_pruned(
            &t,
            &target,
            &views,
            5,
            10,
            7,
            &mut pruned_stats,
            &QueryCtx::none(),
        )
        .unwrap();
        assert!(
            pruned_stats.agg_ops < exact_stats.agg_ops,
            "pruned {} vs exact {}",
            pruned_stats.agg_ops,
            exact_stats.agg_ops
        );
        assert!(pruned_stats.pruned > 0);
        let r = recall(&pruned, &exact);
        assert!(r >= 0.6, "recall {r}");
    }

    #[test]
    fn top_view_is_genuinely_deviating() {
        let (t, target, views) = setup();
        let mut stats = SeedbStats::default();
        let top = recommend_shared(&t, &target, &views, 27, &mut stats, &QueryCtx::none()).unwrap();
        // Utilities are sorted and positive somewhere.
        assert!(top.windows(2).all(|w| w[0].utility >= w[1].utility));
        assert!(top[0].utility > top[top.len() - 1].utility);
    }

    #[test]
    fn more_phases_than_rows_still_scans_every_row() {
        let t = sales_table(&SalesConfig {
            rows: 5,
            ..SalesConfig::default()
        });
        let views = candidate_views(&t, &[AggFunc::Count]);
        let target = Predicate::eq("product", "product0");
        let mut stats = SeedbStats::default();
        recommend_pruned(&t, &target, &views, 1, 10, 3, &mut stats, &QueryCtx::none()).unwrap();
        assert_eq!(stats.scans, 10);
        assert!(stats.agg_ops >= 5);
    }

    #[test]
    fn single_phase_pruned_equals_shared() {
        let (t, target, views) = setup();
        let mut a = SeedbStats::default();
        let mut b = SeedbStats::default();
        let shared = recommend_shared(&t, &target, &views, 5, &mut a, &QueryCtx::none()).unwrap();
        let pruned =
            recommend_pruned(&t, &target, &views, 5, 1, 3, &mut b, &QueryCtx::none()).unwrap();
        assert_eq!(recall(&pruned, &shared), 1.0);
        assert_eq!(b.pruned, 0);
    }

    #[test]
    fn numeric_dimension_is_rejected() {
        let (t, target, _) = setup();
        let bad = vec![ViewSpec {
            dimension: "price".into(),
            measure: "qty".into(),
            func: AggFunc::Avg,
        }];
        let mut stats = SeedbStats::default();
        assert!(recommend_shared(&t, &target, &bad, 1, &mut stats, &QueryCtx::none()).is_err());
    }
}
