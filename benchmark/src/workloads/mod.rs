//! The four workloads, plus what more than one of them shares: the
//! generated sales table and the engine-backed analyst interactions.

pub mod analyst;
pub mod ingest;
pub mod middleware;
pub mod scan;
pub mod sessions;

use exploration::cache::CacheStats;
use exploration::storage::gen::{sales_table, SalesConfig};
use exploration::storage::{AggFunc, Predicate, Query, Result, Table};
use exploration::ExploreDb;

use crate::digest::{ids_digest, str_digest, table_digest};
use crate::gen::{fold, lane_seed, Lane, Quantiles, DRILL_PAIRS};
use crate::report::Report;

/// The sales fact table of `--seed`.
pub fn sales(rows: usize, seed: u64) -> Table {
    sales_table(&SalesConfig {
        rows,
        seed: lane_seed(seed, Lane::Sales, 0),
        ..SalesConfig::default()
    })
}

/// Quantile map of a numeric column, from every 16th row.
pub fn quantiles(table: &Table, column: &str) -> Quantiles {
    let col = table.column(column).expect("generated column");
    Quantiles::from_values(
        (0..table.num_rows())
            .step_by(16)
            .filter_map(|i| col.numeric_at(i)),
    )
}

/// An analyst interaction that reaches the engine, with value-space
/// parameters (pans never do: they run on the sky grid).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum EngineOp {
    /// `SUM(price), COUNT(qty) GROUP BY region WHERE lo <= price < hi`.
    Range { lo: f64, hi: f64 },
    /// `discover_cube` over `DRILL_PAIRS[pair]`.
    Drill(usize),
    /// `cracked_range(qty, q, q + 1)`.
    Lookup(i64),
}

/// What an interaction returned, reduced to what the checks compare.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Answer {
    pub digest: u64,
    /// Rows the answer covers: matched rows for a range or a lookup,
    /// cells for a drill.
    pub rows: u64,
}

/// The filter/refine query.
pub fn range_query(lo: f64, hi: f64) -> Query {
    Query::new()
        .filter(Predicate::range("price", lo, hi))
        .group("region")
        .agg(AggFunc::Sum, "price")
        .agg(AggFunc::Count, "qty")
}

/// The grouped query `discover_cube` issues for `DRILL_PAIRS[pair]`.
pub fn drill_query(pair: usize) -> Query {
    let (a, b) = DRILL_PAIRS[pair];
    Query::new().group(a).group(b).agg(AggFunc::Sum, "price")
}

impl EngineOp {
    /// Issue the interaction at the engine's public API.
    pub fn call(&self, db: &ExploreDb) -> Result<Answer> {
        match *self {
            EngineOp::Range { lo, hi } => {
                let t = db.query("sales", &range_query(lo, hi))?;
                let rows = t
                    .column("count(qty)")
                    .ok()
                    .and_then(|c| c.as_f64().map(|v| v.iter().sum::<f64>()))
                    .unwrap_or(0.0) as u64;
                Ok(Answer {
                    digest: table_digest(&t),
                    rows,
                })
            }
            EngineOp::Drill(pair) => {
                let (a, b) = DRILL_PAIRS[pair];
                let view = db.discover_cube("sales", a, b, "price")?;
                let digest = view.cells().iter().fold(0x0D11_1100u64, |d, c| {
                    fold(
                        str_digest(str_digest(d, &c.dim_a), &c.dim_b),
                        c.actual.to_bits(),
                    )
                });
                Ok(Answer {
                    digest,
                    rows: view.cells().len() as u64,
                })
            }
            EngineOp::Lookup(qty) => {
                let ids = db.cracked_range("sales", "qty", qty, qty + 1)?;
                Ok(Answer {
                    digest: ids_digest(&ids),
                    rows: ids.len() as u64,
                })
            }
        }
    }
}

/// A serial, cache-off, shard-off engine over `table`: the reference
/// every checked answer must agree with.
pub fn reference_engine(table: impl Into<std::sync::Arc<Table>>) -> ExploreDb {
    let db = ExploreDb::with_exec_policy(exploration::exec::ExecPolicy::Serial);
    db.register("sales", table);
    db
}

/// Report the engine cache's public counters as the `cache.*` counts and
/// shares.
pub fn cache_shares(st: &CacheStats, report: &mut Report) {
    let n = (st.hits + st.subsumption_hits + st.misses) as usize;
    let pct = |x: u64| 100.0 * x as f64 / n.max(1) as f64;
    report.set("cache.hit_pct", pct(st.hits), n);
    report.set("cache.subsumption_pct", pct(st.subsumption_hits), n);
    report.set("cache.miss_pct", pct(st.misses), n);
    report.set("cache.admit_rejected", st.admit_rejected as f64, n);
    report.set("cache.evictions", st.evictions as f64, n);
    report.set("cache.resident_mb", st.bytes as f64 / (1 << 20) as f64, 1);
}
