//! Property-based invariants across the workspace, via proptest.
//!
//! Each property pins a correctness contract that the experiments rely
//! on: adaptive structures must answer exactly like a scan, estimators
//! must be conservative, reductions must be lossless at their target
//! fidelity.

use proptest::prelude::*;

use exploration::cracking::{CrackerColumn, HybridCrackSort, StochasticCracker, StochasticVariant};
use exploration::storage::{Accumulator, AggFunc, CmpOp, Predicate};
use exploration::synopses::{CountMinSketch, Histogram, WaveletSynopsis};
use exploration::viz::reduce::{m4_reduce, pixel_extents};

fn brute_range(base: &[i64], lo: i64, hi: i64) -> Vec<u32> {
    base.iter()
        .enumerate()
        .filter(|(_, &v)| v >= lo && v < hi)
        .map(|(i, _)| i as u32)
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Cracking is always answer-equivalent to a scan, for any data and
    /// any query sequence.
    #[test]
    fn cracker_equals_scan(
        base in prop::collection::vec(-100i64..100, 1..300),
        queries in prop::collection::vec((-120i64..120, -120i64..120), 1..25),
    ) {
        let mut cracker = CrackerColumn::new(base.clone());
        for (a, b) in queries {
            let (lo, hi) = (a.min(b), a.max(b));
            let mut got: Vec<u32> = cracker.query_ids(lo, hi).to_vec();
            got.sort_unstable();
            prop_assert_eq!(got, brute_range(&base, lo, hi));
            prop_assert!(cracker.check_invariants());
        }
    }

    /// Stochastic cracking (both variants) keeps scan equivalence.
    #[test]
    fn stochastic_equals_scan(
        base in prop::collection::vec(0i64..500, 1..300),
        queries in prop::collection::vec((0i64..500, 0i64..500), 1..15),
        ddr in any::<bool>(),
    ) {
        let variant = if ddr { StochasticVariant::Ddr } else { StochasticVariant::Ddc };
        let mut cracker = StochasticCracker::new(base.clone(), variant, 8, 7);
        for (a, b) in queries {
            let (lo, hi) = (a.min(b), a.max(b));
            let mut got: Vec<u32> = cracker.query_ids(lo, hi).to_vec();
            got.sort_unstable();
            prop_assert_eq!(got, brute_range(&base, lo, hi));
        }
    }

    /// Hybrid crack-sort keeps scan equivalence across arbitrary
    /// partition counts.
    #[test]
    fn hybrid_equals_scan(
        base in prop::collection::vec(-50i64..50, 1..200),
        queries in prop::collection::vec((-60i64..60, -60i64..60), 1..15),
        partitions in 1usize..10,
    ) {
        let mut h = HybridCrackSort::new(&base, partitions);
        for (a, b) in queries {
            let (lo, hi) = (a.min(b), a.max(b));
            let mut got = h.query_ids(lo, hi);
            got.sort_unstable();
            prop_assert_eq!(got, brute_range(&base, lo, hi));
        }
    }

    /// Histogram range estimates are bounded by the total count and
    /// exact on the full range.
    #[test]
    fn histogram_estimates_are_bounded(
        data in prop::collection::vec(-1000.0f64..1000.0, 1..500),
        buckets in 1usize..64,
        lo in -1200.0f64..1200.0,
        width in 0.0f64..500.0,
    ) {
        for h in [Histogram::equi_width(&data, buckets), Histogram::equi_depth(&data, buckets)] {
            let est = h.estimate_range(lo, lo + width);
            prop_assert!(est >= -1e-9);
            prop_assert!(est <= data.len() as f64 + 1e-6);
            let full = h.estimate_range(-1e6, 1e6);
            prop_assert!((full - data.len() as f64).abs() < 1e-6);
        }
    }

    /// Count-min never underestimates any key.
    #[test]
    fn cms_never_underestimates(
        keys in prop::collection::vec(0u64..64, 1..400),
        width in 2usize..64,
        depth in 1usize..6,
    ) {
        let mut cms = CountMinSketch::new(width, depth);
        let mut truth = std::collections::HashMap::new();
        for &k in &keys {
            cms.insert(k);
            *truth.entry(k).or_insert(0u64) += 1;
        }
        for (&k, &count) in &truth {
            prop_assert!(cms.estimate(k) >= count);
        }
    }

    /// Wavelet reconstruction with full retention is lossless, and
    /// range sums always equal reconstruction sums.
    #[test]
    fn wavelet_consistency(
        data in prop::collection::vec(-100.0f64..100.0, 1..64),
        k in 1usize..80,
        lo in 0usize..64,
        hi in 0usize..64,
    ) {
        let w = WaveletSynopsis::build(&data, k);
        let rec = w.reconstruct();
        prop_assert_eq!(rec.len(), data.len());
        let (lo, hi) = (lo.min(hi), lo.max(hi));
        let direct: f64 = rec[lo.min(data.len())..hi.min(data.len())].iter().sum();
        prop_assert!((w.range_sum(lo, hi) - direct).abs() < 1e-6);
        if k >= data.len().next_power_of_two() {
            for (a, b) in data.iter().zip(&rec) {
                prop_assert!((a - b).abs() < 1e-9);
            }
        }
    }

    /// Accumulator merge is equivalent to sequential updates.
    #[test]
    fn accumulator_merge_associative(
        xs in prop::collection::vec(-1e6f64..1e6, 0..100),
        split in 0usize..100,
    ) {
        let split = split.min(xs.len());
        let mut left = Accumulator::new();
        xs[..split].iter().for_each(|&x| left.update(x));
        let mut right = Accumulator::new();
        xs[split..].iter().for_each(|&x| right.update(x));
        left.merge(&right);
        let mut whole = Accumulator::new();
        xs.iter().for_each(|&x| whole.update(x));
        prop_assert_eq!(left.count(), whole.count());
        if !xs.is_empty() {
            prop_assert!((left.mean() - whole.mean()).abs() < 1e-6);
            prop_assert!((left.finish(AggFunc::Min) - whole.finish(AggFunc::Min)).abs() < 1e-9);
        }
    }

    /// Predicate algebra: `p AND NOT p` selects nothing, `p OR NOT p`
    /// selects everything.
    #[test]
    fn predicate_complement_laws(
        vals in prop::collection::vec(-50i64..50, 1..100),
        threshold in -60i64..60,
    ) {
        use exploration::storage::{Column, Schema, Table, DataType};
        let t = Table::new(
            Schema::of(&[("v", DataType::Int64)]),
            vec![Column::from(vals.clone())],
        ).expect("table");
        let p = Predicate::cmp("v", CmpOp::Lt, threshold);
        let none = p.clone().and(p.clone().not()).evaluate(&t).expect("eval");
        prop_assert!(none.is_empty());
        let all = p.clone().or(p.not()).evaluate(&t).expect("eval");
        prop_assert_eq!(all.len(), vals.len());
    }

    /// The exploration-language parser never panics, on any input —
    /// it either parses or returns an error.
    #[test]
    fn language_parser_total(input in ".{0,200}") {
        let _ = exploration::parse(&input);
    }

    /// ...including inputs built from the language's own vocabulary,
    /// which exercise deeper parser states than plain fuzz.
    #[test]
    fn language_parser_total_on_keyword_soup(
        words in prop::collection::vec(
            prop::sample::select(vec![
                "SELECT", "USE", "APPROX", "WHERE", "GROUP", "BY", "TOP",
                "avg", "(", ")", "price", "=", "<", ",", ";", "%", "3",
                "0.5", "\"x\"", "BETWEEN", "AND", "CRACK", "SAMPLES",
                "RECOMMEND", "VIEWS", "FOR", "FACETS", "DIVERSIFY",
                "CHARTS", "LAMBDA", "SUPPORT", "WITHIN", "CONFIDENCE",
            ]),
            0..25,
        ),
    ) {
        let _ = exploration::parse(&words.join(" "));
    }

    /// M4 reduction is pixel-lossless at its bin width for any series.
    #[test]
    fn m4_is_pixel_lossless(
        series in prop::collection::vec(-100.0f64..100.0, 1..400),
        bins in 1usize..50,
    ) {
        let r = m4_reduce(&series, bins);
        let full: Vec<(usize, f64)> = series.iter().copied().enumerate().collect();
        prop_assert_eq!(
            pixel_extents(&full, series.len(), bins),
            pixel_extents(&r.points, series.len(), bins)
        );
        prop_assert!(r.points.len() <= bins * 4);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Segmentation always partitions the rows exactly, with in-order
    /// non-overlapping bounds, for any numeric data.
    #[test]
    fn segmentation_partitions_rows(
        // Coarse integer-valued floats force duplicate values, so cuts
        // must respect ties (the half-open predicates cannot split them).
        xs in prop::collection::vec((-10i32..10).prop_map(|v| v as f64), 2..300),
        k in 1usize..8,
    ) {
        use exploration::storage::{Column, DataType, Schema, Table};
        let n = xs.len();
        let ys: Vec<f64> = xs.iter().map(|x| x * 2.0 + 1.0).collect();
        let t = Table::new(
            Schema::of(&[("x", DataType::Float64), ("y", DataType::Float64)]),
            vec![Column::from(xs), Column::from(ys)],
        ).expect("table");
        let s = exploration::interact::segment(&t, "x", "y", k).expect("segment");
        let covered: usize = s.segments.iter().map(|g| g.rows).sum();
        prop_assert_eq!(covered, n);
        for w in s.segments.windows(2) {
            prop_assert!(w[0].high <= w[1].low + 1e-12, "ordered, disjoint");
        }
        // Each predicate returns exactly its segment's row count.
        for g in &s.segments {
            prop_assert_eq!(g.predicate.evaluate(&t).expect("eval").len(), g.rows);
        }
    }

    /// The speculative executor returns exactly the same answers as a
    /// direct query, for any request sequence and budget.
    #[test]
    fn speculation_never_changes_answers(
        requests in prop::collection::vec((0i64..9, 1i64..5), 1..12),
        budget in 0usize..5,
    ) {
        use exploration::prefetch::{RangeRequest, SpeculativeExecutor};
        use exploration::storage::gen::{sales_table, SalesConfig};
        use exploration::storage::{AggFunc, Predicate, Query};
        let t = sales_table(&SalesConfig { rows: 2_000, ..Default::default() });
        let ex = SpeculativeExecutor::new(t.clone(), budget);
        for (lo, width) in requests {
            let req = RangeRequest {
                column: "qty".into(),
                low: lo,
                high: lo + width,
                func: AggFunc::Count,
                measure: "qty".into(),
            };
            let got = ex.execute(&req).expect("execute");
            let truth = Query::new()
                .filter(Predicate::range("qty", lo, lo + width))
                .agg(AggFunc::Count, "qty")
                .run(&t)
                .expect("query")
                .column("count(qty)")
                .expect("col")
                .as_f64()
                .expect("f64")[0];
            prop_assert!((got - truth).abs() < 1e-9);
        }
    }
}
