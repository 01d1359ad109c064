//! Viewport exploration sessions with trajectory-based prefetching
//! (SCOUT \[63\]; the prefetching half of Semantic Windows \[36\]).
//!
//! The user pans a viewport (a rectangle of grid cells) across the data.
//! Fetching an uncached cell costs foreground work proportional to its
//! population; the user *feels* that as latency. The prefetcher watches
//! the pan trajectory, extrapolates the velocity, and fetches the
//! predicted next viewport during think time — converting foreground
//! misses into background work.

use std::collections::HashMap;
use std::sync::Arc;

use explore_cache::{Fingerprint, ResultCache};
use explore_fault::CancelToken;
use explore_storage::{Column, DataType, Result, Schema, StorageError, Table};

use crate::grid::{CellAgg, GridIndex};

/// Encode a cell aggregate as a one-row table, the shared cache's unit
/// of storage.
fn encode_cell(agg: CellAgg) -> Result<Table> {
    Table::new(
        Schema::of(&[("count", DataType::Int64), ("sum", DataType::Float64)]),
        vec![
            Column::from(vec![agg.count as i64]),
            Column::from(vec![agg.sum]),
        ],
    )
    .map_err(|e| StorageError::Internal(format!("static cell schema: {e}")))
}

/// Decode [`encode_cell`]'s shape back; `None` on foreign entries.
fn decode_cell(t: &Table) -> Option<CellAgg> {
    let count = *t.column("count").ok()?.as_i64()?.first()?;
    let sum = *t.column("sum").ok()?.as_f64()?.first()?;
    Some(CellAgg {
        count: count as u64,
        sum,
    })
}

/// A rectangular viewport in cell coordinates, `w × h` cells anchored at
/// `(cx, cy)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Viewport {
    pub cx: i64,
    pub cy: i64,
    pub w: usize,
    pub h: usize,
}

impl Viewport {
    /// Cells covered by the viewport, clipped to the grid.
    fn cells(&self, grid: &GridIndex) -> Vec<(usize, usize)> {
        let mut out = Vec::with_capacity(self.w * self.h);
        for dy in 0..self.h as i64 {
            for dx in 0..self.w as i64 {
                let x = self.cx + dx;
                let y = self.cy + dy;
                if x >= 0 && y >= 0 && (x as usize) < grid.cols() && (y as usize) < grid.rows() {
                    out.push((x as usize, y as usize));
                }
            }
        }
        out
    }
}

/// Session work/hit statistics for experiment E9.
#[derive(Debug, Default, Clone, Copy)]
pub struct PanStats {
    /// Cell requests served from cache.
    pub hits: u64,
    /// Cell requests that fetched on the spot (user-visible latency).
    pub misses: u64,
    /// Points touched by foreground (miss) fetches.
    pub foreground_work: u64,
    /// Points touched by background (prefetch) fetches.
    pub background_work: u64,
}

impl PanStats {
    /// Fraction of cell requests served from cache.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// The engine-wide result cache a session can park its cells in, keyed
/// under `table_name`'s epoch so mutations invalidate them with
/// everything else.
#[derive(Debug)]
struct SharedCellCache {
    cache: Arc<ResultCache>,
    table_name: String,
}

impl SharedCellCache {
    fn fingerprint(&self, cx: usize, cy: usize) -> Fingerprint {
        Fingerprint::custom(&self.table_name, format!("cell|{cx}|{cy}"))
    }
}

/// An interactive pan session over a grid.
#[derive(Debug)]
pub struct PanSession<'a> {
    grid: &'a GridIndex,
    cache: HashMap<(usize, usize), CellAgg>,
    /// When set, cells live in the shared semantic result cache instead
    /// of the private map.
    shared: Option<SharedCellCache>,
    prefetch: bool,
    stats: PanStats,
    last: Option<Viewport>,
    /// Optional session cancellation token: a triggered token fails the
    /// foreground view and stops background prefetching.
    cancel: Option<CancelToken>,
}

impl<'a> PanSession<'a> {
    /// Start a session; `prefetch = false` is the E9 baseline.
    pub fn new(grid: &'a GridIndex, prefetch: bool) -> Self {
        PanSession {
            grid,
            cache: HashMap::new(),
            shared: None,
            prefetch,
            stats: PanStats::default(),
            last: None,
            cancel: None,
        }
    }

    /// Attach a session cancellation token (see the field docs).
    pub fn with_cancel(mut self, cancel: Option<CancelToken>) -> Self {
        self.cancel = cancel;
        self
    }

    /// Park cell aggregates in the engine's shared result cache (under
    /// `table_name`'s epoch) rather than this session's private map, so
    /// they survive the session and obey the shared eviction policy.
    pub fn with_shared_cache(mut self, cache: Arc<ResultCache>, table_name: &str) -> Self {
        self.shared = Some(SharedCellCache {
            cache,
            table_name: table_name.to_owned(),
        });
        self
    }

    /// Session statistics.
    pub fn stats(&self) -> PanStats {
        self.stats
    }

    /// Serve one cell: cache probe, then foreground fetch + admit.
    fn cell(&mut self, cx: usize, cy: usize) -> Result<CellAgg> {
        if let Some(s) = &self.shared {
            let fp = s.fingerprint(cx, cy);
            if let Some(agg) = s.cache.get(&fp).and_then(|t| decode_cell(&t)) {
                self.stats.hits += 1;
                return Ok(agg);
            }
            s.cache.note_miss();
            let epoch = s.cache.epoch(&s.table_name);
            let (agg, cost) = self.grid.fetch_cell(cx, cy);
            self.stats.misses += 1;
            self.stats.foreground_work += cost;
            s.cache
                .insert(fp, Arc::new(encode_cell(agg)?), None, cost as u128, epoch);
            Ok(agg)
        } else if let Some(&agg) = self.cache.get(&(cx, cy)) {
            self.stats.hits += 1;
            Ok(agg)
        } else {
            let (agg, cost) = self.grid.fetch_cell(cx, cy);
            self.stats.misses += 1;
            self.stats.foreground_work += cost;
            self.cache.insert((cx, cy), agg);
            Ok(agg)
        }
    }

    /// True when a cell is already resident (prefetch can skip it).
    fn is_cached(&self, cx: usize, cy: usize) -> bool {
        match &self.shared {
            Some(s) => s.cache.contains(&s.fingerprint(cx, cy)),
            None => self.cache.contains_key(&(cx, cy)),
        }
    }

    /// Background-fetch a cell during think time.
    fn prefetch_cell(&mut self, cx: usize, cy: usize) -> Result<()> {
        let (agg, cost) = self.grid.fetch_cell(cx, cy);
        self.stats.background_work += cost;
        if let Some(s) = &self.shared {
            let epoch = s.cache.epoch(&s.table_name);
            s.cache.insert(
                s.fingerprint(cx, cy),
                Arc::new(encode_cell(agg)?),
                None,
                cost as u128,
                epoch,
            );
        } else {
            self.cache.insert((cx, cy), agg);
        }
        Ok(())
    }

    /// The user moves the viewport here; returns the viewport's cell
    /// aggregates. Afterwards the prefetcher runs for the predicted next
    /// position; a cancelled session token stops that background work
    /// without failing the answer already computed.
    pub fn view(&mut self, vp: Viewport) -> Result<Vec<CellAgg>> {
        if let Some(c) = &self.cancel {
            c.check()?;
        }
        let mut out = Vec::new();
        for (cx, cy) in vp.cells(self.grid) {
            out.push(self.cell(cx, cy)?);
        }
        if self.prefetch {
            if let Some(prev) = self.last {
                // Constant-velocity extrapolation of the pan trajectory.
                let predicted = Viewport {
                    cx: vp.cx + (vp.cx - prev.cx),
                    cy: vp.cy + (vp.cy - prev.cy),
                    w: vp.w,
                    h: vp.h,
                };
                for (cx, cy) in predicted.cells(self.grid) {
                    if self.cancel.as_ref().is_some_and(CancelToken::is_cancelled) {
                        break;
                    }
                    if !self.is_cached(cx, cy) {
                        self.prefetch_cell(cx, cy)?;
                    }
                }
            }
        }
        self.last = Some(vp);
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use explore_storage::gen::sky_table;

    fn grid() -> GridIndex {
        let t = sky_table(20_000, 4, 100.0, 7);
        GridIndex::build(&t, "x", "y", "mag", 32, 32).unwrap()
    }

    /// A straight pan to the right, one cell per step.
    fn pan_right(session: &mut PanSession, steps: i64) {
        for i in 0..steps {
            session
                .view(Viewport {
                    cx: i,
                    cy: 10,
                    w: 4,
                    h: 4,
                })
                .unwrap();
        }
    }

    #[test]
    fn prefetching_converts_misses_to_hits() {
        let g = grid();
        let mut with = PanSession::new(&g, true);
        pan_right(&mut with, 20);
        let mut without = PanSession::new(&g, false);
        pan_right(&mut without, 20);
        let (pw, pwo) = (with.stats(), without.stats());
        assert!(
            pw.hit_rate() > pwo.hit_rate() + 0.2,
            "with {} vs without {}",
            pw.hit_rate(),
            pwo.hit_rate()
        );
        assert!(pw.foreground_work < pwo.foreground_work);
        assert!(pw.background_work > 0);
    }

    #[test]
    fn overlapping_viewports_hit_even_without_prefetch() {
        let g = grid();
        let mut s = PanSession::new(&g, false);
        pan_right(&mut s, 10);
        // A 4-wide viewport advancing by 1 shares 3 columns per step.
        assert!(s.stats().hit_rate() > 0.5, "{}", s.stats().hit_rate());
    }

    #[test]
    fn results_identical_with_and_without_prefetch() {
        let g = grid();
        let mut a = PanSession::new(&g, true);
        let mut b = PanSession::new(&g, false);
        for i in 0..10 {
            let vp = Viewport {
                cx: i * 2,
                cy: 5 + i,
                w: 3,
                h: 3,
            };
            assert_eq!(a.view(vp).unwrap(), b.view(vp).unwrap());
        }
    }

    #[test]
    fn viewport_clipping_at_edges() {
        let g = grid();
        let mut s = PanSession::new(&g, true);
        let out = s
            .view(Viewport {
                cx: -2,
                cy: -2,
                w: 4,
                h: 4,
            })
            .unwrap();
        assert_eq!(out.len(), 4, "only the in-grid quadrant");
        let out = s
            .view(Viewport {
                cx: 31,
                cy: 31,
                w: 4,
                h: 4,
            })
            .unwrap();
        assert_eq!(out.len(), 1);
    }

    #[test]
    fn shared_cache_sessions_match_private_and_respect_epochs() {
        let g = grid();
        let shared = Arc::new(ResultCache::default());
        let mut a = PanSession::new(&g, true).with_shared_cache(Arc::clone(&shared), "sky");
        let mut b = PanSession::new(&g, true);
        for i in 0..8 {
            let vp = Viewport {
                cx: i,
                cy: 10,
                w: 4,
                h: 4,
            };
            assert_eq!(a.view(vp).unwrap(), b.view(vp).unwrap());
        }
        assert!(a.stats().hits > 0);
        assert!(!shared.is_empty());
        // A second session over the same shared cache starts warm.
        let mut c = PanSession::new(&g, false).with_shared_cache(Arc::clone(&shared), "sky");
        c.view(Viewport {
            cx: 0,
            cy: 10,
            w: 4,
            h: 4,
        })
        .unwrap();
        assert_eq!(c.stats().misses, 0, "cells parked by the first session");
        // An epoch bump (mutation) invalidates every parked cell.
        shared.bump_epoch("sky");
        let mut d = PanSession::new(&g, false).with_shared_cache(Arc::clone(&shared), "sky");
        d.view(Viewport {
            cx: 0,
            cy: 10,
            w: 4,
            h: 4,
        })
        .unwrap();
        assert_eq!(d.stats().hits, 0, "stale cells are never served");
        assert!(d.stats().misses > 0);
    }

    #[test]
    fn direction_change_still_correct() {
        let g = grid();
        let mut s = PanSession::new(&g, true);
        // Zig-zag: prediction will often be wrong but answers must stay
        // correct and the cache only grows.
        let mut cached_prev = 0;
        for i in 0..10i64 {
            let vp = Viewport {
                cx: if i % 2 == 0 { i } else { 20 - i },
                cy: i,
                w: 3,
                h: 3,
            };
            s.view(vp).unwrap();
            assert!(s.cache.len() >= cached_prev);
            cached_prev = s.cache.len();
        }
    }
}
