//! # rtsim-core — a generic RTOS model for real-time systems simulation
//!
//! Rust reproduction of the primary contribution of *"A Generic RTOS Model
//! for Real-time Systems Simulation with SystemC"* (Le Moigne, Pasquier,
//! Calvez — DATE 2004): a generic, time-accurate model of a real-time
//! operating system layered on a discrete-event simulation kernel
//! ([`rtsim_kernel`]), for early design-space exploration of HW/SW
//! systems.
//!
//! ## The model
//!
//! A [`Processor`] serializes its [tasks](TaskCtx) under a pluggable
//! [`SchedulingPolicy`] (priority-preemptive by default; FIFO,
//! round-robin, EDF and rate-monotonic ship in [`policies`]; users
//! implement their own). The RTOS **behaviour** is characterized by the
//! policy plus a runtime-switchable preemptive/non-preemptive mode; the
//! RTOS **timing** by three [`Overheads`] parameters — context-save,
//! scheduling and context-load durations — each fixed or computed by a
//! user formula over the live system state (paper §3).
//!
//! Preemption is *time-accurate*: a task consuming CPU time with
//! [`TaskCtx::execute`] can be suspended at any instant by a hardware
//! event, and its remaining computation time is recomputed exactly — no
//! clock quantization.
//!
//! ## Two implementation strategies
//!
//! Both of the paper's §4 implementations are provided and selectable per
//! processor via [`EngineKind`]:
//!
//! - **procedure-call** (default, §4.2) — RTOS primitives run on the
//!   calling task's coroutine; fastest simulation;
//! - **dedicated-thread** (§4.1) — a separate RTOS coroutine performs all
//!   scheduling; kept for the speed comparison the paper reports.
//!
//! ## Example
//!
//! The paper's Figure 6 scenario in miniature — a clock interrupt waking a
//! high-priority task that preempts a low-priority one:
//!
//! ```
//! use rtsim_core::{
//!     spawn_interrupt_at, Overheads, Processor, ProcessorConfig, TaskConfig,
//! };
//! use rtsim_core::agent::Waiter;
//! use rtsim_kernel::{SimDuration, Simulator};
//! use rtsim_trace::TraceRecorder;
//!
//! # fn main() -> Result<(), rtsim_kernel::KernelError> {
//! let mut sim = Simulator::new();
//! let rec = TraceRecorder::new();
//! let cpu = Processor::new(
//!     &mut sim,
//!     &rec,
//!     ProcessorConfig::new("CPU").overheads(Overheads::uniform(SimDuration::from_us(5))),
//! );
//! let f1 = cpu.spawn_task(&mut sim, TaskConfig::new("Function_1").priority(5), |t| {
//!     t.suspend(false); // wait for the clock
//!     t.execute(SimDuration::from_us(40));
//! });
//! cpu.spawn_task(&mut sim, TaskConfig::new("Function_3").priority(2), |t| {
//!     t.execute(SimDuration::from_us(200)); // preempted by Function_1
//! });
//! spawn_interrupt_at(&mut sim, "Clk", SimDuration::from_us(50), Waiter::Task(f1));
//! sim.run()?;
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

pub mod agent;
pub mod analysis;
mod engine;
pub mod interrupt;
pub mod overhead;
pub mod policies;
pub mod policy;
mod proc_model;
pub mod processor;
pub mod seg;
pub mod server;
pub mod task;
mod thread_model;

pub use agent::{spawn_hw_function, Agent, HwCtx, HwWaker, Party, Waiter};
pub use analysis::{
    assign_rate_monotonic, liu_layland_bound, partition_first_fit, response_time_analysis,
    schedulable, utilization, PeriodicTask, ResponseTime,
};
pub use engine::{EngineKind, SchedulerStats};
pub use interrupt::{spawn_interrupt_at, spawn_interrupt_schedule, spawn_periodic_interrupt};
pub use overhead::{OverheadSpec, Overheads, RtosView};
pub use policy::{PolicyView, SchedulingPolicy, TaskView};
pub use processor::{Processor, ProcessorConfig, TaskCtx, TaskHandle};
pub use seg::{register_seg_hw, SegAgent, SegControl, SegHwRunner, SegTaskRunner};
pub use server::{spawn_polling_server, AperiodicQueue, CompletedRequest, PollingServerConfig};
pub use task::{Priority, TaskConfig, TaskId};

// The task-state vocabulary is shared with the trace layer.
pub use rtsim_trace::TaskState;
