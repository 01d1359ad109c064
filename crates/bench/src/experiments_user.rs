//! User-interaction experiments: the taxonomy table (T1), SeeDB (E7),
//! explore-by-example (E8), query-from-output (E14) and
//! visualization-bound sampling (E15).

use explore_core::exec::QueryCtx;
use explore_core::interact::aide::{AideConfig, AideSession, LabelOracle};
use explore_core::interact::qbo::discover_query;
use explore_core::render_table1;
use explore_core::storage::gen::{feature_table, sales_table, SalesConfig};
use explore_core::storage::rng::SplitMix64;
use explore_core::storage::{AggFunc, Predicate};
use explore_core::viz::ordered_bars;
use explore_core::viz::reduce::{m4_reduce, pixel_extents};
use explore_core::viz::seedb::{
    candidate_views, recall, recommend_naive, recommend_pruned, recommend_shared, SeedbStats,
};

use crate::{timed, us};

/// T1 — regenerate the paper's only table: the clustering of surveyed
/// work, extended with the module of this workspace implementing each
/// cluster.
pub fn t1() {
    println!("T1: Table 1 of the tutorial, regenerated from structured metadata\n");
    println!("{}", render_table1(true));
}

/// E7 — SeeDB: latency and work of the three execution strategies, and
/// the pruned strategy's top-5 recall against the exact answer.
/// Expected shape: shared ≫ naive; pruning adds savings at ≥0.8 recall.
pub fn e7() {
    let t = sales_table(&SalesConfig {
        rows: 300_000,
        regions: 12,
        products: 25,
        channels: 6,
        ..SalesConfig::default()
    });
    let target = Predicate::eq("channel", "channel0");
    let views = candidate_views(&t, &[AggFunc::Count, AggFunc::Sum, AggFunc::Avg]);
    println!(
        "E7: 300k rows, {} candidate views, target = channel0\n",
        views.len()
    );
    let mut s_naive = SeedbStats::default();
    let (exact, t_naive) = timed(|| {
        recommend_naive(&t, &target, &views, 5, &mut s_naive, &QueryCtx::none()).expect("naive")
    });
    let mut s_shared = SeedbStats::default();
    let (shared, t_shared) = timed(|| {
        recommend_shared(&t, &target, &views, 5, &mut s_shared, &QueryCtx::none()).expect("shared")
    });
    // Pruned at 2 / 5 / 10 phases: a view can only be dropped at a
    // phase boundary, so the phase count sets how early pruning bites.
    let pruned_runs: Vec<_> = [2usize, 5, 10]
        .into_iter()
        .map(|phases| {
            let mut stats = SeedbStats::default();
            let (top, dt) = timed(|| {
                recommend_pruned(
                    &t,
                    &target,
                    &views,
                    5,
                    phases,
                    70,
                    &mut stats,
                    &QueryCtx::none(),
                )
                .expect("pruned")
            });
            (phases, top, dt, stats)
        })
        .collect();
    println!(
        "{:>10} | {:>12} | {:>14} | {:>8} | {:>8}",
        "strategy", "latency", "agg ops", "pruned", "recall"
    );
    println!(
        "{:>10} | {:>12} | {:>14} | {:>8} | {:>8.2}",
        "naive",
        us(t_naive),
        s_naive.agg_ops,
        0,
        1.0
    );
    println!(
        "{:>10} | {:>12} | {:>14} | {:>8} | {:>8.2}",
        "shared",
        us(t_shared),
        s_shared.agg_ops,
        0,
        recall(&shared, &exact)
    );
    for (phases, top, dt, stats) in &pruned_runs {
        println!(
            "{:>10} | {:>12} | {:>14} | {:>8} | {:>8.2}",
            format!("pruned/{phases}"),
            us(*dt),
            stats.agg_ops,
            stats.pruned,
            recall(top, &exact)
        );
    }
    println!("\ntop views (exact):");
    for v in &exact {
        println!("   {:<28} utility {:.4}", v.spec.label(), v.utility);
    }
    println!("\nshape check: shared cuts agg ops by the #aggregates factor; pruning cuts further with high recall.\n");
}

/// E8 — explore-by-example: F1 vs labeling effort for three hidden
/// target shapes. Expected shape: rectangles converge in a few dozen
/// labels; disjunctive targets need more; F1 grows monotonically-ish.
pub fn e8() {
    let t = feature_table(20_000, 3, 80);
    let targets: Vec<(&str, Predicate)> = vec![
        (
            "rectangle",
            Predicate::range("f0", 20.0, 60.0).and(Predicate::range("f1", 30.0, 70.0)),
        ),
        (
            "small box (3-dim)",
            Predicate::range("f0", 40.0, 60.0)
                .and(Predicate::range("f1", 40.0, 60.0))
                .and(Predicate::range("f2", 40.0, 60.0)),
        ),
        (
            "two disjoint regions",
            Predicate::range("f0", 5.0, 25.0)
                .and(Predicate::range("f1", 5.0, 25.0))
                .or(Predicate::range("f0", 70.0, 95.0).and(Predicate::range("f1", 70.0, 95.0))),
        ),
    ];
    println!("E8: 20k-row feature space, batch=40 labels/iteration\n");
    println!(
        "{:>22} | {:>8} {:>8} {:>8} {:>8} {:>8}",
        "target", "it 2", "it 4", "it 6", "it 8", "it 10"
    );
    for (name, target) in targets {
        let mut oracle = LabelOracle::new(&t, target);
        let mut session = AideSession::new(
            &t,
            &["f0", "f1", "f2"],
            AideConfig {
                batch: 40,
                ..AideConfig::default()
            },
        )
        .expect("session");
        let reports = session.run(&mut oracle, 10).expect("run");
        println!(
            "{:>22} | {:>8.3} {:>8.3} {:>8.3} {:>8.3} {:>8.3}",
            name, reports[1].f1, reports[3].f1, reports[5].f1, reports[7].f1, reports[9].f1
        );
    }
    println!("\nshape check: F1 climbs with labels; simple rectangles converge fastest.\n");
}

/// E14 — query-from-output: how precision and result tightness grow
/// with the number of pasted example tuples. Expected shape: recall is
/// always 1.0 (by construction); the recovered result converges towards
/// the hidden query's as examples accumulate.
pub fn e14() {
    let t = sales_table(&SalesConfig {
        rows: 50_000,
        ..SalesConfig::default()
    });
    let hidden = Predicate::eq("region", "region1").and(Predicate::range("price", 20.0, 120.0));
    let truth = hidden.evaluate(&t).expect("truth");
    let truth_set: std::collections::HashSet<u32> = truth.iter().copied().collect();
    println!(
        "E14: hidden query returns {} of 50k rows; examples sampled from it\n",
        truth.len()
    );
    println!(
        "{:>10} | {:>12} | {:>12} | {:>14}",
        "examples", "result size", "inside truth", "hidden recall"
    );
    let mut rng = SplitMix64::new(140);
    for &k in &[1usize, 2, 5, 10, 25, 50, 100] {
        let idx = rng.sample_indices(truth.len(), k);
        let examples: Vec<usize> = idx.iter().map(|&i| truth[i] as usize).collect();
        let q = discover_query(&t, &examples).expect("discover");
        assert_eq!(q.recall, 1.0);
        let got = q.predicate.evaluate(&t).expect("eval");
        let inside = got.iter().filter(|r| truth_set.contains(r)).count();
        println!(
            "{:>10} | {:>12} | {:>11.1}% | {:>13.1}%",
            k,
            q.result_size,
            inside as f64 / got.len().max(1) as f64 * 100.0,
            inside as f64 / truth.len() as f64 * 100.0
        );
    }
    println!("\nshape check: with more examples the recovered query covers more of the hidden result while staying inside it.\n");
}

/// E15 — visualization-bound sampling: (a) ordering-guaranteed bar
/// charts — rows needed vs group-mean gap; (b) M4 line reduction —
/// reduction factor with pixel losslessness. Expected shapes from
/// \[12\] and \[11\].
pub fn e15() {
    use explore_core::storage::{Column, DataType, Schema, Table};
    let mut rng = SplitMix64::new(150);
    println!("E15a: ordering-guaranteed bar-chart sampling (5 groups × 40k rows)\n");
    println!(
        "{:>10} | {:>12} | {:>10}",
        "mean gap", "rows needed", "early?"
    );
    for &gap in &[8.0, 2.0, 1.0, 0.5, 0.25] {
        let mut labels = Vec::new();
        let mut values = Vec::new();
        let mut rows: Vec<(String, f64)> = Vec::new();
        for g in 0..5 {
            for _ in 0..40_000 {
                rows.push((
                    format!("g{g}"),
                    10.0 + gap * g as f64 + 2.0 * rng.gaussian(),
                ));
            }
        }
        rng.shuffle(&mut rows);
        for (l, v) in rows {
            labels.push(l);
            values.push(v);
        }
        let t = Table::new(
            Schema::of(&[("g", DataType::Utf8), ("v", DataType::Float64)]),
            vec![Column::from(labels), Column::from(values)],
        )
        .expect("table");
        let r = ordered_bars(&t, "g", "v", 0.95, 100, 151).expect("bars");
        println!(
            "{:>10} | {:>12} | {:>10}",
            gap,
            r.rows_sampled,
            if r.early_stop { "yes" } else { "no" }
        );
    }

    println!("\nE15b: M4 line reduction of a 1M-point series\n");
    let mut x = 0.0;
    let series: Vec<f64> = (0..1_000_000)
        .map(|i| {
            x += rng.gaussian();
            x + (i as f64 / 5000.0).sin() * 20.0
        })
        .collect();
    println!(
        "{:>8} | {:>10} | {:>10} | {:>10}",
        "pixels", "points", "reduction", "lossless?"
    );
    for &bins in &[100usize, 400, 1600] {
        let r = m4_reduce(&series, bins);
        let full: Vec<(usize, f64)> = series.iter().copied().enumerate().collect();
        let lossless = pixel_extents(&full, series.len(), bins)
            == pixel_extents(&r.points, series.len(), bins);
        println!(
            "{:>8} | {:>10} | {:>9.0}x | {:>10}",
            bins,
            r.points.len(),
            r.reduction(),
            if lossless { "yes" } else { "NO" }
        );
    }
    println!("\nshape check: rows needed explode as group gaps shrink; M4 stays pixel-lossless at every width.\n");
}

#[cfg(test)]
mod tests {
    #[test]
    fn t1_runs() {
        super::t1();
    }

    #[test]
    fn e14_runs() {
        super::e14();
    }
}
