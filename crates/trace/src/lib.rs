//! # rtsim-trace — TimeLine traces and statistics
//!
//! The observation layer of the `rtsim` project (the Rust reproduction of
//! the DATE 2004 generic-RTOS-model paper). The paper's CoFluent tooling
//! displays simulations as *TimeLine charts* — one lane per task showing
//! its state (Running / Ready / Waiting / Waiting-for-resource), RTOS
//! overhead segments and communication arrows — plus whole-run statistics
//! (Figure 8). This crate provides the same capabilities as a library:
//!
//! - [`TraceRecorder`] / [`Trace`] — the shared sink the RTOS engines and
//!   communication relations record into, and its immutable snapshot;
//! - [`timeline::render`] — ASCII TimeLine charts (Figures 6 and 7);
//! - [`Statistics`] — activity / preempted / resource ratios and relation
//!   utilization (Figure 8);
//! - [`Measure`] — cursor-style measurements such as external-event-to-
//!   reaction latency;
//! - [`write_csv`] — machine-readable export.
//!
//! ```
//! use rtsim_kernel::SimTime;
//! use rtsim_trace::{ActorKind, Statistics, TaskState, TraceRecorder};
//!
//! let rec = TraceRecorder::new();
//! let f1 = rec.register("Function_1", ActorKind::Task);
//! rec.state(f1, SimTime::from_ps(0), TaskState::Running);
//! rec.state(f1, SimTime::from_ps(750), TaskState::Waiting);
//!
//! let stats = Statistics::from_trace(&rec.snapshot(), SimTime::from_ps(1_000));
//! assert!((stats.task(f1).unwrap().activity_ratio - 0.75).abs() < 1e-9);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod canon;
pub mod csv;
pub mod measure;
pub mod record;
pub mod recorder;
pub mod robust;
pub mod stats;
pub mod timeline;
pub mod vcd;

pub use canon::{canonical, canonical_actor_into, canonical_record_into};
pub use csv::write_csv;
pub use measure::{Job, JobEdge, JobFold, Measure};
pub use record::{
    ActorId, ActorInfo, ActorKind, CommKind, FaultKind, OverheadKind, Record, TaskState, TraceData,
};
pub use recorder::{Trace, TraceLog, TraceRecorder};
pub use robust::RobustnessSummary;
pub use stats::{DurationSummary, RelationStats, Statistics, TaskStats};
pub use timeline::TimelineOptions;
pub use vcd::write_vcd;
