//! Result digests: what the output check compares.
//!
//! Floats are digested by bit pattern — the engine promises results
//! bit-identical across exec, cache and shard policies, and the check
//! holds it to that.

use exploration::storage::Table;

use crate::gen::{fold, mix};

pub fn str_digest(d: u64, s: &str) -> u64 {
    s.bytes().fold(fold(d, 0x5F), |d, b| fold(d, b as u64))
}

/// Schema names plus every cell, in order.
pub fn table_digest(t: &Table) -> u64 {
    let mut d = 0xCBF2_9CE4_8422_2325u64;
    for field in t.schema().fields() {
        d = str_digest(d, field.name());
    }
    for col in t.columns() {
        if let Some(v) = col.as_i64() {
            d = v.iter().fold(d, |d, &x| fold(d, x as u64));
        } else if let Some(v) = col.as_f64() {
            d = v.iter().fold(d, |d, &x| fold(d, x.to_bits()));
        } else if let Some(v) = col.as_utf8() {
            d = v.iter().fold(d, |d, s| str_digest(d, s));
        }
    }
    d
}

/// Row ids whose order is unspecified (a `cracked_range` answer's order
/// depends on how far cracking has converged): length plus a
/// commutative sum.
pub fn ids_digest(ids: &[u32]) -> u64 {
    ids.iter().fold(mix(ids.len() as u64), |d, &id| {
        d.wrapping_add(mix(id as u64 + 1))
    })
}

/// Combine per-session digests independently of the order sessions
/// finished in.
pub fn combine_unordered(digests: impl Iterator<Item = u64>) -> u64 {
    digests.fold(0u64, |acc, d| acc.wrapping_add(mix(d)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_digest_ignores_order_but_not_content() {
        assert_eq!(ids_digest(&[1, 2, 3]), ids_digest(&[3, 1, 2]));
        assert_ne!(ids_digest(&[1, 2, 3]), ids_digest(&[1, 2, 4]));
        assert_ne!(ids_digest(&[1, 2]), ids_digest(&[1, 2, 2]));
    }

    #[test]
    fn combine_is_order_independent() {
        let a = combine_unordered([1, 2, 3].into_iter());
        assert_eq!(a, combine_unordered([3, 2, 1].into_iter()));
        assert_ne!(a, combine_unordered([1, 2, 4].into_iter()));
    }
}
