//! Observability differential harness: tracing must never change what
//! executes.
//!
//! Every supported query shape runs with [`ObsPolicy::Off`] and
//! [`ObsPolicy::On`] under both exec policies (and with the result
//! cache off, cold, and warm) and the result tables are compared
//! **bit-for-bit** — float cells by `to_bits`. The instrumentation
//! earns this by construction: every site threads an
//! `Option<&ActiveTrace>` that only ever wraps the same computation.
//!
//! The second half checks that what *was* recorded is truthful: span
//! trees are well-formed, each exec fan-out records exactly one morsel
//! child per row window (so morsel counts match the table size), cache
//! hit/miss/subsumption outcomes appear where the serve protocol says
//! they happened, and an exact cache hit executes nothing.

use exploration::cache::{CacheConfig, CachePolicy};
use exploration::exec::{morsel_count, ExecPolicy};
use exploration::obs::{ObsPolicy, QueryTrace, SpanKind, ROOT_SPAN};
use exploration::storage::{AggFunc, Predicate, Query, Table};
use exploration::ExploreDb;

mod common;
use common::{assert_bitwise_eq, multi_morsel_table, query_shapes, sales};

/// A table smaller than one morsel (degenerate decomposition).
fn small_table() -> Table {
    sales(777)
}

fn engine(t: &Table, obs: bool, cache: bool, exec: ExecPolicy) -> ExploreDb {
    let db = ExploreDb::new();
    if obs {
        db.set_obs_policy(ObsPolicy::on());
    }
    if cache {
        db.set_cache_policy(CachePolicy::On(CacheConfig {
            byte_budget: 1 << 30,
            ..CacheConfig::default()
        }));
    }
    db.set_exec_policy(exec);
    db.register("sales", t.clone());
    db
}

const EXEC_POLICIES: [ExecPolicy; 2] = [ExecPolicy::Serial, ExecPolicy::Parallel { workers: 4 }];

/// The last finished trace of a one-query engine interaction.
fn last_trace(db: &ExploreDb) -> QueryTrace {
    db.recent_traces().last().expect("a recorded trace").clone()
}

fn exec_spans(trace: &QueryTrace) -> Vec<(u32, u32, u32)> {
    trace
        .spans
        .iter()
        .filter_map(|s| match s.kind {
            SpanKind::Exec {
                participants,
                morsels,
                ..
            } => Some((s.id, participants, morsels)),
            _ => None,
        })
        .collect()
}

#[test]
fn obs_on_is_bit_identical_across_shapes_policies_and_cache_modes() {
    for (table_name, t) in [
        ("multi-morsel", multi_morsel_table()),
        ("sub-morsel", small_table()),
    ] {
        for exec in EXEC_POLICIES {
            for cache in [false, true] {
                let off = engine(&t, false, cache, exec);
                let on = engine(&t, true, cache, exec);
                for (shape, q) in query_shapes() {
                    let context = format!("{shape} ({table_name}, {exec:?}, cache={cache})");
                    // Cold pass (and, when caching, the admissions).
                    assert_bitwise_eq(
                        &off.query("sales", &q).unwrap(),
                        &on.query("sales", &q).unwrap(),
                        &format!("{context}, cold"),
                    );
                    // Second pass: with caching every query is now an
                    // exact hit — serves must be as invisible as misses.
                    assert_bitwise_eq(
                        &off.query("sales", &q).unwrap(),
                        &on.query("sales", &q).unwrap(),
                        &format!("{context}, warm"),
                    );
                }
            }
        }
    }
}

#[test]
fn uncached_traces_record_one_fan_out_with_a_morsel_per_window() {
    let t = multi_morsel_table();
    let n_morsels = morsel_count(t.num_rows()) as u32;
    assert!(n_morsels >= 3, "table must span several morsels");
    for exec in EXEC_POLICIES {
        let db = engine(&t, true, false, exec);
        for (shape, q) in query_shapes() {
            db.query("sales", &q).unwrap();
            let trace = last_trace(&db);
            let context = format!("{shape} ({exec:?})");
            assert!(trace.is_well_formed(), "{context}: {trace:?}");
            let execs = exec_spans(&trace);
            assert_eq!(execs.len(), 1, "{context}: one fan-out per uncached query");
            let (exec_id, participants, morsels) = execs[0];
            assert_eq!(morsels, n_morsels, "{context}: morsels match table size");
            assert!(participants >= 1, "{context}");
            assert_eq!(
                trace.span(exec_id).unwrap().parent,
                ROOT_SPAN,
                "{context}: exec spans hang off the root"
            );
            // One morsel child per row window, all inside the fan-out.
            let morsel_spans = trace.spans_labelled("morsel");
            assert_eq!(morsel_spans.len(), n_morsels as usize, "{context}");
            assert!(
                morsel_spans.iter().all(|s| s.parent == exec_id),
                "{context}: morsels parent at their fan-out"
            );
            let mut indexes: Vec<u32> = morsel_spans
                .iter()
                .filter_map(|s| match s.kind {
                    SpanKind::Morsel { index } => Some(index),
                    _ => None,
                })
                .collect();
            indexes.sort_unstable();
            assert_eq!(
                indexes,
                (0..n_morsels).collect::<Vec<_>>(),
                "{context}: every window recorded exactly once"
            );
            assert_eq!(trace.spans_labelled("merge").len(), 1, "{context}");
            assert_eq!(trace.dropped_spans, 0, "{context}");
        }
    }
}

#[test]
fn cached_traces_tell_the_serve_story() {
    let t = multi_morsel_table();
    let n_morsels = morsel_count(t.num_rows()) as u32;
    for exec in EXEC_POLICIES {
        for (shape, q) in query_shapes() {
            // A fresh engine per shape: an earlier shape's cached
            // superset would otherwise serve this one by subsumption
            // and the cold pass would not be a miss.
            let db = engine(&t, true, true, exec);
            let context = format!("{shape} ({exec:?})");

            // Cold: a miss computes (filter + replay fan-outs) and admits.
            db.query("sales", &q).unwrap();
            let cold = last_trace(&db);
            assert!(cold.is_well_formed(), "{context}: {cold:?}");
            assert_eq!(
                cold.spans_labelled("cache.miss").len(),
                1,
                "{context}: cold lookup is a miss"
            );
            let execs = exec_spans(&cold);
            assert_eq!(execs.len(), 2, "{context}: filter then replay");
            assert!(
                execs.iter().all(|&(_, _, m)| m == n_morsels),
                "{context}: both fan-outs cover the base table"
            );
            assert_eq!(
                cold.spans_labelled("morsel").len(),
                2 * n_morsels as usize,
                "{context}"
            );
            assert_eq!(
                cold.spans_labelled("admit").len(),
                1,
                "{context}: computed result admitted"
            );

            // Warm: an exact hit executes nothing.
            db.query("sales", &q).unwrap();
            let warm = last_trace(&db);
            assert!(warm.is_well_formed(), "{context}: {warm:?}");
            assert_eq!(
                warm.spans_labelled("cache.hit").len(),
                1,
                "{context}: warm lookup is an exact hit"
            );
            assert!(
                exec_spans(&warm).is_empty() && warm.spans_labelled("morsel").is_empty(),
                "{context}: a cache hit must not contain exec spans: {warm:?}"
            );
        }
    }
}

#[test]
fn subsumption_traces_mark_the_refilter_serve() {
    let t = multi_morsel_table();
    let db = engine(&t, true, true, ExecPolicy::Serial);
    // Seed a superset selection, then ask a strictly contained range the
    // cache has never seen: served by re-filtering the cached subset.
    db.query(
        "sales",
        &Query::new().filter(Predicate::range("price", 100.0, 800.0)),
    )
    .unwrap();
    db.query(
        "sales",
        &Query::new()
            .filter(Predicate::range("price", 200.0, 700.0))
            .agg(AggFunc::Sum, "price"),
    )
    .unwrap();
    let trace = last_trace(&db);
    assert!(trace.is_well_formed(), "{trace:?}");
    assert_eq!(
        trace.spans_labelled("cache.subsumption").len(),
        1,
        "contained range must serve via subsumption: {trace:?}"
    );
    // The re-filter executes over the cached subset, not the base table
    // — fan-outs exist but the lookup span itself contains none of them
    // (it closed at probe time).
    let lookup = trace.spans_labelled("cache.subsumption")[0];
    assert!(
        trace.children(lookup.id).is_empty(),
        "lookup spans have no children: {trace:?}"
    );
    assert!(!exec_spans(&trace).is_empty());
}

/// Every middleware entry point routed through the unified pipeline
/// records a well-formed trace carrying its stage span directly under
/// the root, and bumps its counter — `build_samples`, bounded/online
/// AQP, SeeDB recommendation, synopsis estimates, diversified top-k,
/// VizDeck proposals, and cube discovery.
#[test]
fn middleware_entry_points_record_wellformed_stage_spans() {
    let t = small_table();
    let db = engine(&t, true, false, ExecPolicy::Serial);
    db.build_samples("sales", &[0.05, 0.2], &[("region", 50)], 7)
        .unwrap();
    db.build_synopses("sales", 32).unwrap();

    // Each step: (context, run it, stage label, counter name).
    let check = |db: &ExploreDb, context: &str, label: &str, counter: &str| {
        let trace = last_trace(db);
        assert!(trace.is_well_formed(), "{context}: {trace:?}");
        let stages = trace.spans_labelled(label);
        assert_eq!(stages.len(), 1, "{context}: one `{label}` span: {trace:?}");
        assert_eq!(
            stages[0].parent, ROOT_SPAN,
            "{context}: stage spans hang off the root"
        );
        assert_eq!(trace.dropped_spans, 0, "{context}");
        assert!(
            db.metrics_snapshot().counter(counter) >= 1,
            "{context}: counter `{counter}` incremented"
        );
    };

    check(&db, "build_samples", "sample.build", "sample.builds");

    db.approx_aggregate(
        "sales",
        &Predicate::True,
        AggFunc::Avg,
        "price",
        exploration::aqp::Bound::RelativeError {
            target: 0.05,
            confidence: 0.95,
        },
    )
    .unwrap();
    let trace = last_trace(&db);
    assert!(trace.is_well_formed(), "approx_aggregate: {trace:?}");
    assert_eq!(
        trace.spans_labelled("aqp").len(),
        1,
        "approx_aggregate records one aqp span: {trace:?}"
    );

    let mut oa = db
        .online_aggregate("sales", &Predicate::True, AggFunc::Avg, "price", 0.95, 7)
        .unwrap();
    oa.step(200).unwrap();
    check(&db, "online_aggregate", "aqp.online", "aqp.online_sessions");

    db.recommend_views("sales", &Predicate::eq("product", "product0"), 3)
        .unwrap();
    check(
        &db,
        "recommend_views",
        "viz.recommend",
        "viz.recommendations",
    );

    db.estimate_range_count("sales", "price", 100.0, 600.0)
        .unwrap();
    check(
        &db,
        "estimate_range_count",
        "synopsis.estimate",
        "synopsis.estimates",
    );

    db.diversified_topk(
        "sales",
        &Predicate::True,
        "price",
        &["qty", "discount"],
        5,
        0.5,
    )
    .unwrap();
    check(&db, "diversified_topk", "div.topk", "div.topk");

    db.propose_charts("sales", 4).unwrap();
    check(&db, "propose_charts", "viz.propose", "viz.proposals");

    db.discover_cube("sales", "region", "product", "price")
        .unwrap();
    check(&db, "discover_cube", "cube.discover", "cube.discoveries");
}

/// The instrumentation on the middleware entry points is observation
/// only: with the same seeds, `ObsPolicy::Off` and `ObsPolicy::On`
/// produce identical answers for every entry point — and Off records
/// no traces at all while doing so.
#[test]
fn middleware_obs_off_output_is_identical_to_on() {
    let t = small_table();
    let mut off = engine(&t, false, false, ExecPolicy::Serial);
    let mut on = engine(&t, true, false, ExecPolicy::Serial);
    for db in [&mut off, &mut on] {
        db.build_samples("sales", &[0.05, 0.2], &[("region", 50)], 7)
            .unwrap();
        db.build_synopses("sales", 32).unwrap();
    }
    let bound = exploration::aqp::Bound::RelativeError {
        target: 0.05,
        confidence: 0.95,
    };

    // Debug renderings preserve float text exactly; equal strings mean
    // the observed pipeline computed the same values.
    let run = |db: &mut ExploreDb| -> Vec<String> {
        let mut outs = Vec::new();
        outs.push(format!(
            "{:?}",
            db.approx_aggregate("sales", &Predicate::True, AggFunc::Avg, "price", bound)
                .unwrap()
        ));
        let mut oa = db
            .online_aggregate("sales", &Predicate::True, AggFunc::Sum, "price", 0.95, 11)
            .unwrap();
        outs.push(format!("{:?}", oa.step(300).unwrap()));
        outs.push(format!(
            "{:?}",
            db.recommend_views("sales", &Predicate::eq("product", "product0"), 3)
                .unwrap()
        ));
        outs.push(format!(
            "{:?}",
            db.estimate_range_count("sales", "price", 100.0, 600.0)
                .unwrap()
        ));
        outs.push(format!(
            "{:?}",
            db.estimate_distinct("sales", "region").unwrap()
        ));
        outs.push(format!(
            "{:?}",
            db.diversified_topk(
                "sales",
                &Predicate::True,
                "price",
                &["qty", "discount"],
                5,
                0.5
            )
            .unwrap()
        ));
        outs.push(format!("{:?}", db.propose_charts("sales", 4).unwrap()));
        outs.push(format!(
            "{:?}",
            db.discover_cube("sales", "region", "product", "price")
                .unwrap()
                .cells()
        ));
        outs
    };

    let off_outs = run(&mut off);
    let on_outs = run(&mut on);
    assert_eq!(off_outs.len(), on_outs.len());
    for (i, (a, b)) in off_outs.iter().zip(&on_outs).enumerate() {
        assert_eq!(a, b, "middleware output {i} diverged between Off and On");
    }
    assert!(
        off.recent_traces().is_empty(),
        "Off must record no middleware traces"
    );
    assert!(
        !on.recent_traces().is_empty(),
        "On must have recorded middleware traces"
    );
}

#[test]
fn off_records_nothing_and_ring_is_bounded() {
    let t = small_table();
    let db = engine(&t, false, false, ExecPolicy::Serial);
    for (_, q) in query_shapes() {
        db.query("sales", &q).unwrap();
    }
    assert!(db.recent_traces().is_empty(), "Off must record nothing");
    assert_eq!(db.metrics_snapshot().counter("query.traced"), 0);

    // On: the ring keeps the most recent `ring_capacity` traces.
    db.set_obs_policy(ObsPolicy::on());
    let capacity = db.obs_policy().config().expect("on").ring_capacity;
    for round in 0..capacity + 5 {
        let q = Query::new().agg(AggFunc::Count, "qty").take(round + 1);
        db.query("sales", &q).unwrap();
    }
    let traces = db.recent_traces();
    assert_eq!(traces.len(), capacity, "ring holds the newest traces");
    let seqs: Vec<u64> = traces.iter().map(|t| t.seq).collect();
    assert!(
        seqs.windows(2).all(|w| w[0] < w[1]),
        "oldest-first order: {seqs:?}"
    );
}
