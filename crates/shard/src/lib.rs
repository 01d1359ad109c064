//! Sharded tables: the engine's row store, with per-shard cracking,
//! caching, and epochs and a deterministic fan-out/merge.
//!
//! A [`ShardedTable`] owns a registered table's rows as contiguous
//! row-range shards, each with its own cracker state, result-cache
//! epoch scope, and stats; an unsharded table is the one-shard case,
//! holding the registered `Arc<Table>` itself. Queries over more than
//! one shard fan out through `explore_exec::fan_out` and merge under the
//! engine's bit-identity contract — serial ≡ parallel ≡ sharded, for any
//! shard count (see [`run_sharded_query`] for how aggregate merges earn
//! this). Mutations route to the owning shard and bump only that
//! shard's cache epoch, so a write to one region of a table does not
//! evict cached results over the others — epoch locality is the
//! subsystem's payoff.
//!
//! The engine picks the layout with [`ShardPolicy`]; the default `Off`
//! is one shard per table.

mod fanout;
mod policy;
mod table;

pub use fanout::run_sharded_query;
pub use policy::{ShardConfig, ShardPolicy};
pub use table::{scoped_name, ShardSnapshot, ShardStats, ShardedTable};
