//! # rtsim-comm — MCSE communication relations
//!
//! The communication layer of the `rtsim` project (Rust reproduction of
//! the DATE 2004 generic-RTOS-model paper). The MCSE functional model the
//! paper builds on connects functions with three relation kinds (§2), all
//! provided here:
//!
//! - [`RtEvent`] — synchronization with a *fugitive* (SystemC
//!   `sc_event`-like), *boolean* or *counter* memorization policy;
//! - [`MessageQueue`] — bounded producer/consumer message passing;
//! - [`SharedVar`] — data sharing under mutual exclusion, with plain,
//!   preemption-masked (the paper's priority-inversion fix),
//!   priority-inheritance and immediate-priority-ceiling protection modes.
//!
//! Each blocking operation (event wait, queue write and read,
//! shared-variable read and write) is written once, as an [`Op`] that
//! steps through a non-blocking [`rtsim_core::Party`] and names each
//! [`Need`] (suspend, execute under the lock, leave the critical region,
//! reschedule) for its caller to perform. A closure body's blocking
//! calls perform them on its [`rtsim_core::Agent`]; a script feeds them
//! to its step machine. So the same relation connects software tasks
//! (blocking through the RTOS, possibly preempting on wake) and hardware
//! functions, on one processor or across several, whichever way their
//! bodies are written.
//!
//! ```
//! use rtsim_comm::MessageQueue;
//! use rtsim_core::{spawn_hw_function, Agent, Processor, ProcessorConfig, TaskConfig};
//! use rtsim_kernel::{SimDuration, Simulator};
//! use rtsim_trace::TraceRecorder;
//!
//! # fn main() -> Result<(), rtsim_kernel::KernelError> {
//! let mut sim = Simulator::new();
//! let rec = TraceRecorder::new();
//! let cpu = Processor::new(&mut sim, &rec, ProcessorConfig::new("CPU"));
//! let q: MessageQueue<u64> = MessageQueue::new(&rec, "samples", 8);
//!
//! // Hardware producer, software consumer: the same queue handles both.
//! let tx = q.clone();
//! spawn_hw_function(&mut sim, &rec, "sensor", move |hw| {
//!     for sample in 0..4 {
//!         hw.delay(SimDuration::from_us(25));
//!         tx.write(hw, sample);
//!     }
//! });
//! cpu.spawn_task(&mut sim, TaskConfig::new("dsp").priority(5), move |t| {
//!     for _ in 0..4 {
//!         let _sample = q.read(t);
//!         t.execute(SimDuration::from_us(10));
//!     }
//! });
//! sim.run()?;
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

pub mod event_relation;
pub mod op;
pub mod queue;
pub mod shared_var;

pub use event_relation::{EventPolicy, EventRef, RtEvent};
pub use op::{Need, Op};
pub use queue::{MessageQueue, QueueRef};
pub use shared_var::{LockMode, SharedVar, VarRef};

// Re-exported so `LockMode::PriorityCeiling` can be constructed without
// importing rtsim-core directly.
pub use rtsim_core::Priority;
