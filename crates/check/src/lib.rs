//! # rtsim-check — exhaustive-interleaving checker
//!
//! The kernel's stable tie-breaks pick *one* legal schedule out of many;
//! the regression farm's goldens therefore only prove "same answer as
//! yesterday" for that one arbitrary interleaving. This crate converts
//! that into exhaustive verification, in the spirit of model-checking
//! RTOS schedulers (cf. the Spin analyses of FreeRTOS): a depth-first
//! explorer runs small scenarios through the Segment-mode kernel,
//! stopping at every nondeterministic choice point — same-timestamp
//! event dispatch order, ready ties, interrupt-arrival windows — with
//! [`rtsim_kernel::Simulator::run_to_choice`], forking the simulation
//! there to resume each alternative, and checks every property the
//! model declares — its timing constraints and invariant oracles, all
//! [`Property`](rtsim_trace::Property) — on every reachable schedule.
//!
//! - [`explore`](mod@explore): the DFS itself, with state hashing over
//!   the trace records' fields to prune revisits, a run [`Budget`], and
//!   a deterministic [`Counterexample`] (the exact choice stack) on
//!   violation, which [`replay`] (or [`try_replay`]) reproduces.
//! - [`oracle`]: the built-in invariant oracles — no missed deadline, no
//!   lost message, all tasks terminate, mutex exclusion,
//!   critical-section exclusion, priority-inversion bound.
//! - [`scenarios`]: registered check targets, each model declaring its
//!   oracles, including seeded mutants the checker MUST flag.
//!
//! The `rtsim-check` binary drives the registry and prints each
//! scenario's explored counts; `tests/coverage_baseline.rs` pins those
//! counts exactly.

#![warn(missing_docs)]

pub mod explore;
pub mod oracle;
pub mod scenarios;

pub use explore::{
    explore, explore_with, replay, try_replay, Budget, ChoiceFrame, Counterexample, Exploration,
    ReplayError,
};
pub use oracle::{
    built_ins, AllTasksTerminate, CriticalSectionExclusion, MutexExclusion, NoLostMessage,
    NoMissedDeadline, PriorityInversionBound,
};
pub use scenarios::{scenario_by_name, CheckScenario, Expectation, SCENARIOS};
