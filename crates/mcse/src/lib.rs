//! # rtsim-mcse — functional-model capture and elaboration
//!
//! The top layer of the `rtsim` project (Rust reproduction of the DATE
//! 2004 generic-RTOS-model paper). The paper's flow, following the MCSE
//! methodology, is:
//!
//! 1. **capture** the system as functions + relations ([`SystemModel`]:
//!    events, queues, shared variables);
//! 2. **map** each function to hardware or to a software processor
//!    running the generic RTOS model ([`Mapping`]);
//! 3. **generate** the executable simulation
//!    ([`SystemModel::elaborate`] → [`ElaboratedSystem`]);
//! 4. **observe**: TimeLine charts, statistics, and — the paper's stated
//!    future work, implemented here — automatic verification of the
//!    properties declared on the model: its
//!    [timing constraints](TimingConstraint) and any other
//!    [`Property`](rtsim_trace::Property), each a monitor folded as the
//!    trace grows. The same report
//!    ([`ElaboratedSystem::verify_constraints`]) is read after a run and
//!    on every schedule the `rtsim-check` explorer reaches.
//!
//! Because function bodies are written against
//! [`Agent`](rtsim_core::Agent), remapping a function between hardware
//! and any processor is a one-line change — the heart of MCSE
//! design-space exploration.
//!
//! ```
//! use rtsim_core::{Agent, Overheads, TaskConfig};
//! use rtsim_kernel::{SimDuration, SimTime};
//! use rtsim_mcse::{Mapping, SystemModel, TimingConstraint};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut model = SystemModel::new("demo");
//! model.queue("samples", 8);
//! model.software_processor("DSP", Overheads::uniform(SimDuration::from_us(2)));
//! model.function(TaskConfig::new("sensor"), |agent, io| {
//!     let q = io.queue("samples");
//!     for id in 0..4 {
//!         agent.delay(SimDuration::from_us(100));
//!         q.write(agent, rtsim_mcse::Message::new(id, 64));
//!     }
//! });
//! model.function(TaskConfig::new("filter").priority(5), |agent, io| {
//!     let q = io.queue("samples");
//!     for _ in 0..4 {
//!         let _sample = q.read(agent);
//!         agent.execute(SimDuration::from_us(30));
//!     }
//! });
//! model.map("sensor", Mapping::Hardware);
//! model.map_to_processor("filter", "DSP");
//! model.constraint(TimingConstraint::CompletionWithin {
//!     name: "filter-deadline".into(),
//!     function: "filter".into(),
//!     bound: SimDuration::from_us(90),
//! });
//!
//! let mut system = model.elaborate()?;
//! system.run()?;
//! let report = system.verify_constraints();
//! assert!(report.all_satisfied(), "{report}");
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

pub mod codegen;
pub mod constraint;
pub mod elaborate;
pub mod error;
pub mod model;
pub mod script;

pub use codegen::{generate_freertos, GeneratedCode};
pub use constraint::{ConstraintReport, TimingConstraint};
pub use elaborate::{ElaboratedSystem, Io};
pub use error::ModelError;
pub use model::{FunctionBody, Mapping, Message, SystemModel};
pub use rtsim_fault::FaultPlan;
pub use script::{FaultCtx, Instr, Regs, ScriptProcess};
