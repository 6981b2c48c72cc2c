//! # rtsim-grid — sharded campaign grids with job-hash result caching
//!
//! The campaign engine ([`rtsim_campaign`]) runs one batch of
//! independent simulations deterministically; this crate turns batches
//! into *grids*: a campaign-of-campaigns layer for sweeping huge
//! parameter spaces incrementally.
//!
//! - **Sharding.** A grid over `0..jobs` splits into contiguous shards,
//!   each an independent [`Campaign`](rtsim_campaign::Campaign) whose
//!   per-job streams are forked from the grid seed by **global** job
//!   index ([`Campaign::first_index`](rtsim_campaign::Campaign::first_index)),
//!   so any shard count `{1, 2, 4, …}` — and any `RTSIM_WORKERS` — yields
//!   bit-identical merged results ([`GridReport::merged_jsonl`]). Shard
//!   boundaries are invisible.
//! - **Result caching.** Each job's JSONL record is stored
//!   content-addressed under an FNV-1a key of `(grid seed, global job
//!   index, config fingerprint)` ([`job_key`]). Re-running a grid after
//!   editing analysis code, or after adding points, only simulates the
//!   cache misses; hits decode the stored record byte-exactly
//!   ([`Record`]). The store lives in the `RTSIM_GRID_CACHE` directory.
//!
//! The `rtsim-farm` binary (which supplies the workload) drives the
//! regression-farm matrix through a grid; its `--check-cache` runs a
//! cold/warm round-trip at two shard counts asserting a 100 % warm hit
//! rate with byte-identical output.
//!
//! ## Quick start
//!
//! ```
//! use rtsim_grid::{Grid, Record};
//!
//! #[derive(Debug, PartialEq)]
//! struct Sample(u64);
//! impl Record for Sample {
//!     fn encode(&self) -> String { format!(r#"{{"v":{}}}"#, self.0) }
//!     fn decode(line: &str) -> Option<Self> {
//!         rtsim_grid::record::u64_field(line, "v").map(Sample)
//!     }
//! }
//!
//! let job = |ctx: &mut rtsim_campaign::JobCtx| Sample(ctx.rng().next_u64());
//! let merged = Grid::new("demo", 42).no_cache().shards(1).run(10, |i| i.to_string(), &job);
//! let sharded = Grid::new("demo", 42).no_cache().shards(4).run(10, |i| i.to_string(), &job);
//! assert_eq!(merged.merged_jsonl(), sharded.merged_jsonl()); // shard-invariant
//! ```

#![warn(missing_docs)]

pub mod cache;
pub mod record;
mod run;

pub use cache::{job_key, CacheStore, CACHE_ENV};
pub use record::Record;
pub use run::{shard_range, Grid, GridReport, ShardSummary};
