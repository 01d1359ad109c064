//! Engine-level sharding policy, following the house `CachePolicy` /
//! `ObsPolicy` shape: `Off` (the default) stores every registered table
//! as one shard — the registered `Arc<Table>` itself — and `On(config)`
//! splits each into independent row-range shards.

use explore_storage::MORSEL_ROWS;

/// How a registered table is partitioned into shards.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardConfig {
    /// Target shard count. The effective count is clamped by
    /// [`ShardConfig::min_rows_per_shard`] and is always at least 1.
    pub count: usize,
    /// A table never splits into shards smaller than this many rows —
    /// tiny tables stay one shard, where fan-out overhead would dwarf
    /// the work. The default is one morsel: sharding below the inner
    /// work unit cannot help.
    pub min_rows_per_shard: usize,
}

impl Default for ShardConfig {
    fn default() -> Self {
        ShardConfig {
            count: 4,
            min_rows_per_shard: MORSEL_ROWS,
        }
    }
}

impl ShardConfig {
    /// The effective shard count for a table of `n_rows` rows: the
    /// configured count, clamped so no shard would hold fewer than
    /// `min_rows_per_shard` rows, and never less than one.
    pub fn effective_count(&self, n_rows: usize) -> usize {
        self.count
            .min(n_rows / self.min_rows_per_shard.max(1))
            .max(1)
    }
}

/// Whether `ExploreDb` splits registered tables into shards.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub enum ShardPolicy {
    /// No sharding: every table is one shard and queries run against
    /// the registered table directly.
    #[default]
    Off,
    /// Tables are split into independent row-range shards, each with
    /// its own cracker state, cache epoch, and stats.
    On(ShardConfig),
}

impl ShardPolicy {
    /// Enabled with default configuration.
    pub fn on() -> Self {
        ShardPolicy::On(ShardConfig::default())
    }

    /// Is sharding enabled?
    pub fn is_on(&self) -> bool {
        matches!(self, ShardPolicy::On(_))
    }

    /// The configuration when enabled.
    pub fn config(&self) -> Option<&ShardConfig> {
        match self {
            ShardPolicy::Off => None,
            ShardPolicy::On(c) => Some(c),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn effective_count_clamps() {
        let c = ShardConfig {
            count: 4,
            min_rows_per_shard: 100,
        };
        assert_eq!(c.effective_count(0), 1);
        assert_eq!(c.effective_count(99), 1);
        assert_eq!(c.effective_count(250), 2);
        assert_eq!(c.effective_count(400), 4);
        assert_eq!(c.effective_count(1_000_000), 4);
        // A zero min never divides by zero.
        let loose = ShardConfig {
            count: 7,
            min_rows_per_shard: 0,
        };
        assert_eq!(loose.effective_count(3), 3);
        assert_eq!(loose.effective_count(100), 7);
    }

    #[test]
    fn policy_shape_matches_house_style() {
        assert!(!ShardPolicy::default().is_on());
        assert!(ShardPolicy::on().is_on());
        assert_eq!(ShardPolicy::on().config(), Some(&ShardConfig::default()));
        assert_eq!(ShardPolicy::Off.config(), None);
    }
}
