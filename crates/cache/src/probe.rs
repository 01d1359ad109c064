//! The subsumption probe index: which resident selection covers a query?
//!
//! Only entries that carry a selection vector are indexed. Per table they
//! are grouped by the *set of columns* their exact region constrains,
//! because containment needs every one of those columns constrained by
//! the query too: a probe resolves the query's interval for a group's
//! columns once (skipping the group when one is missing) and then walks
//! the group's flat interval array — [`Interval::covers`] per column, no
//! map walk, no column-name compare per entry. Slots carry the selection
//! length and the entry's last-touch stamp, so the winner (fewest rows,
//! then least recently touched) is picked without visiting the entry map.
//!
//! Insertion appends and removal swap-removes, both O(columns); a table's
//! whole index is dropped when its epoch moves.

use std::collections::HashMap;
use std::sync::Arc;

use crate::fingerprint::Fingerprint;
use crate::region::{Interval, Region};

/// Where an entry's slot lives inside its table's index.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct SlotPos {
    group: u32,
    slot: u32,
}

#[derive(Debug)]
struct Slot {
    /// Selection length: the cost of re-filtering this entry.
    rows: usize,
    /// The entry's last-touch stamp.
    stamp: u64,
    fingerprint: Arc<Fingerprint>,
}

/// Entries of one table whose regions constrain the same columns.
#[derive(Debug)]
struct Group {
    /// The constrained columns, in name order.
    columns: Vec<String>,
    /// `slots.len() × columns.len()` intervals, slot-major.
    intervals: Vec<Interval>,
    slots: Vec<Slot>,
}

#[derive(Debug, Default)]
pub(crate) struct ProbeIndex {
    tables: HashMap<String, Vec<Group>>,
}

impl ProbeIndex {
    /// Index an entry under its fingerprint's table.
    pub(crate) fn insert(
        &mut self,
        region: &Region,
        rows: usize,
        stamp: u64,
        fingerprint: Arc<Fingerprint>,
    ) -> SlotPos {
        let groups = self
            .tables
            .entry(fingerprint.table().to_owned())
            .or_default();
        let columns = || region.constraints().map(|(column, _)| column);
        let found = groups
            .iter()
            .position(|g| g.columns.iter().map(String::as_str).eq(columns()));
        let group = found.unwrap_or_else(|| {
            groups.push(Group {
                columns: columns().map(str::to_owned).collect(),
                intervals: Vec::new(),
                slots: Vec::new(),
            });
            groups.len() - 1
        });
        let g = &mut groups[group];
        g.intervals
            .extend(region.constraints().map(|(_, iv)| iv.clone()));
        g.slots.push(Slot {
            rows,
            stamp,
            fingerprint,
        });
        SlotPos {
            group: group as u32,
            slot: (g.slots.len() - 1) as u32,
        }
    }

    /// Drop the slot at `pos`. The group's last slot takes its place;
    /// when that is a different slot its fingerprint is returned, and the
    /// caller records `pos` as that entry's new position.
    pub(crate) fn remove(&mut self, table: &str, pos: SlotPos) -> Option<Arc<Fingerprint>> {
        let g = &mut self.tables.get_mut(table)?[pos.group as usize];
        let (k, i, last) = (g.columns.len(), pos.slot as usize, g.slots.len() - 1);
        for j in 0..k {
            g.intervals.swap(i * k + j, last * k + j);
        }
        g.intervals.truncate(last * k);
        g.slots.swap_remove(i);
        g.slots.get(i).map(|moved| Arc::clone(&moved.fingerprint))
    }

    /// Record a touch of the entry at `pos`.
    pub(crate) fn touch(&mut self, table: &str, pos: SlotPos, stamp: u64) {
        if let Some(groups) = self.tables.get_mut(table) {
            groups[pos.group as usize].slots[pos.slot as usize].stamp = stamp;
        }
    }

    /// The indexed entry of `table` whose region covers `query` with the
    /// fewest selected rows (ties: least recently touched).
    pub(crate) fn probe(&self, table: &str, query: &Region) -> Option<&Arc<Fingerprint>> {
        let mut best: Option<&Slot> = None;
        let mut wanted: Vec<&Interval> = Vec::new();
        for g in self.tables.get(table)? {
            wanted.clear();
            wanted.extend(g.columns.iter().map_while(|c| query.interval(c)));
            let k = g.columns.len();
            if wanted.len() < k {
                // The query leaves one of these columns unconstrained.
                continue;
            }
            for (i, slot) in g.slots.iter().enumerate() {
                let covers = g.intervals[i * k..(i + 1) * k]
                    .iter()
                    .zip(&wanted)
                    .all(|(outer, inner)| outer.covers(inner));
                if covers && best.is_none_or(|b| (slot.rows, slot.stamp) < (b.rows, b.stamp)) {
                    best = Some(slot);
                }
            }
        }
        best.map(|slot| &slot.fingerprint)
    }

    /// Forget every entry of `table`.
    pub(crate) fn drop_table(&mut self, table: &str) {
        self.tables.remove(table);
    }

    /// Forget everything.
    pub(crate) fn clear(&mut self) {
        self.tables.clear();
    }
}
