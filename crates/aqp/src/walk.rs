//! The one seeded row walk of the approximate layers: online aggregation
//! (scalar and grouped), ordered bars and SeeDB's pruned phases consume
//! rows in the order of a `SplitMix64` permutation fixed by the seed
//! alone, handed out a batch at a time.

use explore_fault::CancelToken;
use explore_storage::rng::SplitMix64;
use explore_storage::Result;

/// A seeded random permutation of `0..rows`, consumed front to back.
#[derive(Debug)]
pub struct SeededWalk {
    order: Vec<u32>,
    cursor: usize,
    /// Checked before every batch; owned, as a walk may back a session
    /// that outlives any single engine call.
    cancel: Option<CancelToken>,
}

impl SeededWalk {
    /// Shuffle the ids of `rows` rows with `SplitMix64::new(seed)`.
    pub fn new(rows: usize, seed: u64) -> Self {
        let mut order: Vec<u32> = (0..rows as u32).collect();
        SplitMix64::new(seed).shuffle(&mut order);
        SeededWalk {
            order,
            cursor: 0,
            cancel: None,
        }
    }

    /// Attach a cancellation token checked before every batch.
    pub(crate) fn with_cancel(mut self, cancel: Option<CancelToken>) -> Self {
        self.cancel = cancel;
        self
    }

    /// The next `batch` row ids (at least one, fewer at the end), or
    /// `Ok(None)` once every row has been handed out. A triggered cancel
    /// token surfaces as `Cancelled`/`DeadlineExceeded` before any row of
    /// the batch is consumed.
    pub fn next_batch(&mut self, batch: usize) -> Result<Option<&[u32]>> {
        if self.is_exhausted() {
            return Ok(None);
        }
        if let Some(c) = &self.cancel {
            c.check()?;
        }
        let start = self.cursor;
        self.cursor = (start + batch.max(1)).min(self.order.len());
        Ok(Some(&self.order[start..self.cursor]))
    }

    /// Rows handed out so far.
    pub fn seen(&self) -> u64 {
        self.cursor as u64
    }

    /// Rows in the table.
    pub(crate) fn total(&self) -> u64 {
        self.order.len() as u64
    }

    /// True once every row has been handed out.
    pub(crate) fn is_exhausted(&self) -> bool {
        self.cursor >= self.order.len()
    }

    /// Fraction of the table handed out.
    pub(crate) fn fraction(&self) -> f64 {
        self.seen() as f64 / self.total().max(1) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use explore_storage::StorageError;

    #[test]
    fn batches_cover_the_permutation_once() {
        let mut w = SeededWalk::new(10, 3);
        let mut rows = Vec::new();
        while let Some(b) = w.next_batch(4).unwrap() {
            rows.extend_from_slice(b);
        }
        assert!(w.is_exhausted());
        assert_eq!((w.seen(), w.fraction()), (10, 1.0));
        let mut expected: Vec<u32> = (0..10).collect();
        SplitMix64::new(3).shuffle(&mut expected);
        assert_eq!(rows, expected);
    }

    #[test]
    fn zero_batch_still_makes_progress() {
        let mut w = SeededWalk::new(3, 1);
        for _ in 0..3 {
            assert_eq!(w.next_batch(0).unwrap().map(<[u32]>::len), Some(1));
        }
        assert!(w.next_batch(0).unwrap().is_none());
    }

    #[test]
    fn cancel_is_checked_before_the_batch() {
        let mut w = SeededWalk::new(100, 1).with_cancel(Some(CancelToken::after_checks(1)));
        assert!(w.next_batch(10).unwrap().is_some());
        assert!(matches!(w.next_batch(10), Err(StorageError::Cancelled)));
        assert_eq!(w.seen(), 10);
    }
}
