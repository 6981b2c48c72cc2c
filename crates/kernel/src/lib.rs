//! # rtsim-kernel — a discrete-event simulation kernel
//!
//! This crate is the SystemC-engine stand-in for the `rtsim` project, the
//! Rust reproduction of *"A Generic RTOS Model for Real-time Systems
//! Simulation with SystemC"* (Le Moigne, Pasquier, Calvez — DATE 2004).
//! The original work layers a generic RTOS model on top of the SystemC 2.0
//! simulation engine; since no SystemC exists for Rust, this crate
//! reimplements the engine subset that model needs:
//!
//! - integer-picosecond simulated time ([`SimTime`], [`SimDuration`]);
//! - events with immediate / delta / timed notification and the IEEE 1666
//!   single-pending-notification override rules ([`Event`]);
//! - cooperative processes written as plain closures, backed by OS threads
//!   that hand the kernel straight to one another, so only the thread
//!   holding it runs ([`ProcessContext`]);
//! - **segment** processes — step machines ([`SegmentCtx`]) that
//!   [`ExecMode`] either dispatches inline in the scheduler with no
//!   backing thread (the paper's approach-B cost profile) or hosts on a
//!   thread of their own;
//! - waits with timeouts ([`ProcessContext::wait_event_for`]), the
//!   primitive from which the RTOS model builds time-accurate preemption;
//! - a deterministic scheduler with delta cycles and a timer queue
//!   ([`Simulator`]).
//!
//! # Quick start
//!
//! ```
//! use rtsim_kernel::{SimDuration, Simulator};
//!
//! # fn main() -> Result<(), rtsim_kernel::KernelError> {
//! let mut sim = Simulator::new();
//! let irq = sim.event("irq");
//!
//! // A "hardware" process raising an interrupt every 10 us.
//! sim.spawn("timer", move |ctx| {
//!     for _ in 0..4 {
//!         ctx.wait_for(SimDuration::from_us(10));
//!         ctx.notify(irq);
//!     }
//! });
//!
//! // A "handler" process observing it.
//! sim.spawn("handler", move |ctx| {
//!     let mut count = 0u32;
//!     while count < 4 {
//!         ctx.wait_event(irq);
//!         count += 1;
//!     }
//!     assert_eq!(ctx.now().as_us(), 40);
//! });
//!
//! sim.run()?;
//! # Ok(())
//! # }
//! ```
//!
//! # Determinism
//!
//! Although processes run on OS threads, exactly one thread — the one
//! holding the kernel — executes at any moment, and all queues are FIFO
//! with stable tie-breaking — so every run of the same model produces
//! the identical event schedule. This is what makes trace-based assertions in
//! the higher layers possible.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod choice;
pub mod error;
pub mod event;
pub mod process;
mod scheduler;
pub mod segment;
pub mod simulator;
pub mod sync;
pub mod testutil;
pub mod time;
pub mod world;

pub use choice::{CandidateDetail, ChoiceKind, ChoicePoint};
pub use error::KernelError;
pub use event::{Event, Wake};
pub use process::{ProcessContext, ProcessId};
pub use scheduler::KernelStats;
pub use segment::{ExecMode, KernelHandle, Notifier, SegMachine, SegStep, SegmentCtx, WaitRequest};
pub use simulator::Simulator;
pub use time::{SimDuration, SimTime};
pub use world::{SharedWorld, Slot, World, WorldRef};
