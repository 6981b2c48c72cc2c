//! # rtsim-campaign — deterministic parallel batch simulation
//!
//! Every multi-run workload in this workspace — design-space sweeps,
//! Monte-Carlo cross-validation, ablations — is embarrassingly parallel
//! *across* simulations and strictly sequential *within* one. This crate
//! is the substrate that exploits that: a [`Campaign`] fans independent
//! jobs out over an in-tree worker pool and aggregates the results,
//! with two hard guarantees:
//!
//! 1. **Determinism.** Each job draws randomness from its own stream,
//!    forked from the campaign seed by job index
//!    ([`Rng::fork`]), and results are collected in job-index
//!    order. The output is therefore bit-identical for any worker
//!    count — `RTSIM_WORKERS=1` and `RTSIM_WORKERS=8` produce the same
//!    bytes, so a parallel campaign is as replayable as a serial loop.
//! 2. **Isolation.** A panicking job is caught, reported as a
//!    [`JobPanic`] in its slot, and the rest of the campaign completes —
//!    the same poison-recovery philosophy as `rtsim_kernel::sync`.
//!
//! The workspace is hermetic (offline build, empty registry), so the
//! pool is plain `std::thread` plus `std::sync::mpsc` — no rayon, no
//! crossbeam — and the [`json`]/[`csv`] output writers are
//! hand-rolled.
//!
//! ## Quick start
//!
//! ```
//! use rtsim_campaign::Campaign;
//!
//! // 100 jobs, each drawing from its own deterministic stream.
//! let report = Campaign::new("demo", 42).workers(4).run(100, |ctx| {
//!     ctx.rng().gen_range(0u64..1_000) + ctx.index() as u64
//! });
//! assert_eq!(report.ok_count(), 100);
//! // Same seed, different worker count: bit-identical values.
//! let replay = Campaign::new("demo", 42).workers(1).run(100, |ctx| {
//!     ctx.rng().gen_range(0u64..1_000) + ctx.index() as u64
//! });
//! assert_eq!(
//!     report.values().collect::<Vec<_>>(),
//!     replay.values().collect::<Vec<_>>(),
//! );
//! ```
//!
//! [`Rng::fork`]: rtsim_kernel::testutil::Rng::fork

#![warn(missing_docs)]

pub mod artifacts;
pub mod csv;
pub mod hash;
pub mod json;
mod pool;

pub use artifacts::{env_flag, env_usize, scaled, smoke, write_artifact, write_campaign_outputs};
pub use hash::Fnv1a;
pub use pool::{workers_from_env, Campaign, Comparison, JobCtx, JobOutcome, JobPanic, Report};
