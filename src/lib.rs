//! # rtsim — a generic RTOS model for real-time systems simulation
//!
//! Facade crate of the `rtsim` workspace, the Rust reproduction of
//! *"A Generic RTOS Model for Real-time Systems Simulation with SystemC"*
//! (R. Le Moigne, O. Pasquier, J-P. Calvez — DATE 2004). It re-exports
//! the whole stack:
//!
//! - [`kernel`] — the discrete-event simulation engine (the SystemC
//!   stand-in): simulated time, events, cooperative processes;
//! - [`trace`] — TimeLine charts, statistics and measurements;
//! - [`core`] — the generic RTOS model itself: processors, tasks,
//!   scheduling policies, overheads, both implementation strategies;
//! - [`comm`] — the MCSE communication relations: events, message
//!   queues, shared variables;
//! - [`mcse`] — functional-model capture, elaboration and timing-
//!   constraint verification;
//! - [`campaign`] — deterministic parallel batch simulation: fan
//!   independent runs (sweeps, Monte-Carlo trials, ablations) out over
//!   a worker pool with bit-identical results for any `RTSIM_WORKERS`;
//! - [`grid`] — campaign-of-campaigns over parameter grids: shard a
//!   grid into independent campaigns (bit-identical merged results for
//!   any shard count) with a content-addressed per-job result cache
//!   (`RTSIM_GRID_CACHE`);
//! - [`farm`] — the regression farm: golden-fingerprint sweeps of every
//!   [`scenarios`] system across the whole scheduling-policy matrix,
//!   checked against pinned goldens (and, with `--check-cache`, through
//!   the grid cache) by the `rtsim-farm` binary;
//! - [`check`] — the schedule explorer: `rtsim-check` runs small
//!   scenarios through the Segment-mode kernel while enumerating every
//!   nondeterministic tie (dispatch, delta, timer) depth-first, forking
//!   the simulation at each tie to resume the alternatives, prunes
//!   revisited states by canonical-trace fingerprint, and reports any
//!   invariant violation with a replayable choice-stack counterexample.
//!
//! The most common items are re-exported at the crate root.
//!
//! ## Quick start
//!
//! ```
//! use rtsim::{Processor, ProcessorConfig, SimDuration, Simulator, TaskConfig, TraceRecorder};
//!
//! # fn main() -> Result<(), rtsim::KernelError> {
//! let mut sim = Simulator::new();
//! let rec = TraceRecorder::new();
//! let cpu = Processor::new(&mut sim, &rec, ProcessorConfig::new("CPU0"));
//! cpu.spawn_task(&mut sim, TaskConfig::new("hello").priority(1), |task| {
//!     task.execute(SimDuration::from_us(42));
//! });
//! sim.run()?;
//! assert_eq!(sim.now().as_us(), 42);
//! # Ok(())
//! # }
//! ```
//!
//! See the `examples/` directory for the paper's Figure 6/7 systems and
//! the MPEG-2 SoC exploration, and `rtsim-bench` for the benchmark
//! harnesses regenerating every figure of the paper's evaluation.

#![warn(missing_docs)]

pub use rtsim_campaign as campaign;
pub use rtsim_check as check;
pub use rtsim_comm as comm;
pub use rtsim_core as core;
pub use rtsim_farm as farm;
pub use rtsim_farm::scenarios;
pub use rtsim_grid as grid;
pub use rtsim_kernel as kernel;
pub use rtsim_mcse as mcse;
pub use rtsim_trace as trace;

pub use rtsim_campaign::{Campaign, JobCtx};
pub use rtsim_comm::{EventPolicy, LockMode, MessageQueue, Rendezvous, RtEvent, SharedVar};
pub use rtsim_core::policies;
pub use rtsim_core::{
    assign_rate_monotonic, liu_layland_bound, partition_first_fit, response_time_analysis,
    schedulable, spawn_hw_function, spawn_interrupt_at, spawn_interrupt_schedule,
    spawn_periodic_interrupt, spawn_polling_server, utilization, Agent, AperiodicQueue,
    CompletedRequest, EngineKind, OverheadSpec, Overheads, PeriodicTask, PollingServerConfig,
    Priority, Processor, ProcessorConfig, ResponseTime, SchedulerStats, SchedulingPolicy,
    TaskConfig, TaskCtx, TaskHandle, TaskId, TaskState, Waiter,
};
pub use rtsim_grid::{CacheStore, Grid, GridReport, Record};
pub use rtsim_kernel::testutil;
pub use rtsim_kernel::{
    Event, ExecMode, KernelError, KernelStats, ProcessContext, SimDuration, SimTime, Simulator,
    Wake,
};
pub use rtsim_mcse::{
    generate_freertos, ConstraintReport, ElaboratedSystem, GeneratedCode, Io, Mapping, Message,
    ModelError, SystemModel, TimingConstraint,
};
pub use rtsim_trace::{
    write_csv, write_vcd, ActorId, ActorKind, CommKind, DurationSummary, Job, Measure,
    OverheadKind, Statistics, TimelineOptions, Trace, TraceRecorder,
};
