//! # rtsim-farm — the regression farm
//!
//! Golden-fingerprint sweeps of every example scenario across the whole
//! scheduling-policy matrix, on top of the deterministic
//! [`rtsim_campaign`] pool.
//!
//! The farm answers one question continuously: *did any simulation
//! behaviour change?* It does so by brute force and determinism rather
//! than by hand-picked assertions:
//!
//! 1. [`scenarios`] holds a builder for every example system
//!    (quickstart, the paper's Figures 6 and 7, the MPEG-2 SoC, the
//!    automotive ECU pair, the policy-sweep and contended workloads);
//! 2. [`registry`] crosses each scenario with every built-in scheduling
//!    policy × preemptive/non-preemptive mode and runs the resulting
//!    cells on a [`Campaign`](rtsim_campaign::Campaign), so the sweep is
//!    parallel yet bit-identical for any `RTSIM_WORKERS`;
//! 3. [`fingerprint`](mod@fingerprint) reduces each run to a 64-bit FNV-1a hash over the
//!    canonical trace ([`rtsim_trace::canonical`]) plus integer summary
//!    metrics — any change in dispatch order, preemption instants or
//!    overhead placement changes the hash;
//! 4. [`golden`] renders the results as JSONL, compares them against the
//!    pinned goldens in `tests/goldens/farm.jsonl`, and names exactly
//!    which (scenario, policy, mode) cells drifted.
//!
//! The `rtsim-farm` binary drives it: `rtsim-farm --check` fails with a
//! diff when behaviour drifts, `rtsim-farm --bless` re-pins the goldens
//! after an intentional change, and `rtsim-farm --check-cache` proves the
//! grid cache round-trips the matrix. `RTSIM_BENCH_SMOKE=1` shrinks
//! `--check` and `--check-cache` to a subset so test suites can run them
//! in seconds.

#![warn(missing_docs)]

pub mod fingerprint;
pub mod golden;
pub mod registry;
pub mod scenarios;

pub use fingerprint::{fingerprint, Fingerprint, Fnv1a};
pub use golden::{diff, goldens_path, parse_cell_key, parse_line, render, render_csv, DiffOutcome};
pub use registry::{
    run_cell, run_cell_with_mode, run_matrix, run_matrix_sharded, Cell, CellResult, PolicyKind,
    Scenario, FARM_SEED, SCENARIOS,
};
