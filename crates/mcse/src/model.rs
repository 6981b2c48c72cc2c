//! The MCSE functional-model builder.
//!
//! The paper's flow captures a system as a set of **functions** connected
//! by **relations** (events, message queues, shared variables), then maps
//! each function onto a processor — a software processor running the
//! generic RTOS model, or hardware (fully concurrent) — and generates an
//! executable SystemC model "in a few seconds". [`SystemModel`] is that
//! capture step as a builder API; [`SystemModel::elaborate`] is the code
//! generator, producing a ready-to-run simulation.

use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

use rtsim_comm::{EventPolicy, LockMode};
use rtsim_core::agent::Agent;
use rtsim_core::{EngineKind, Overheads, SchedulingPolicy, TaskConfig};
use rtsim_fault::FaultPlan;
use rtsim_kernel::{ExecMode, SimDuration};
use rtsim_trace::Property;

use crate::constraint::Declared;
use crate::elaborate::{ElaboratedSystem, Io};
use crate::error::ModelError;
use crate::script::{self, Instr};

/// An abstract message carried by queues and shared variables in the
/// functional model.
///
/// Performance simulation cares about *when* and *how much*, not payload
/// contents, so a message is an id plus a size.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct Message {
    /// Application-level identifier (frame number, packet id...).
    pub id: u64,
    /// Payload size in bytes (available to custom timing formulas).
    pub size: u64,
}

impl Message {
    /// Creates a message.
    pub fn new(id: u64, size: u64) -> Self {
        Message { id, size }
    }
}

/// A function body: the sequential behaviour of one MCSE function,
/// written against [`Agent`] so the same body runs mapped to hardware or
/// to any software processor.
pub type FunctionBody = Box<dyn FnOnce(&mut dyn Agent, &Io) + Send + 'static>;

/// How a function's behaviour is expressed.
pub(crate) enum Body {
    /// A blocking closure — runs on a thread-backed kernel process in
    /// every execution mode.
    Closure(FunctionBody),
    /// A behaviour script (see [`crate::script`]) — interpreted as a step
    /// machine, hosted on a thread in thread mode and inline in segment
    /// mode.
    Script(Arc<[Instr]>),
}

/// Where a function executes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Mapping {
    /// Dedicated hardware: fully concurrent, no RTOS.
    Hardware,
    /// A software processor (by name) running the RTOS model.
    Software(String),
}

/// Kind and parameters of one relation.
pub(crate) enum RelationDecl {
    Event(EventPolicy),
    Queue { capacity: usize },
    Var { mode: LockMode, initial: Message },
}

impl fmt::Debug for RelationDecl {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RelationDecl::Event(p) => write!(f, "Event({p})"),
            RelationDecl::Queue { capacity } => write!(f, "Queue(cap={capacity})"),
            RelationDecl::Var { mode, .. } => write!(f, "Var({mode})"),
        }
    }
}

pub(crate) struct FunctionDecl {
    pub config: TaskConfig,
    pub body: Body,
    pub mapping: Option<Mapping>,
}

pub(crate) struct ProcessorDecl {
    pub policy: Box<dyn SchedulingPolicy>,
    pub overheads: Overheads,
    pub preemptive: bool,
    pub engine: EngineKind,
    pub cores: usize,
}

/// A declarative capture of an MCSE system: functions, relations,
/// processors and the function-to-processor mapping.
///
/// # Examples
///
/// The skeleton of the paper's Figure 6 system:
///
/// ```
/// use rtsim_comm::EventPolicy;
/// use rtsim_core::{Agent, Overheads, TaskConfig};
/// use rtsim_kernel::{SimDuration, SimTime};
/// use rtsim_mcse::SystemModel;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut model = SystemModel::new("figure6");
/// model.event("Clk", EventPolicy::Fugitive);
/// model.software_processor("Processor", Overheads::uniform(SimDuration::from_us(5)));
/// model.function(TaskConfig::new("Clock"), |agent, io| {
///     let clk = io.event("Clk");
///     for _ in 0..3 {
///         agent.delay(SimDuration::from_us(100));
///         clk.signal(agent);
///     }
/// });
/// model.function(TaskConfig::new("Function_1").priority(5), |agent, io| {
///     let clk = io.event("Clk");
///     for _ in 0..3 {
///         clk.wait(agent);
///         agent.execute(SimDuration::from_us(20));
///     }
/// });
/// model.map("Clock", rtsim_mcse::Mapping::Hardware);
/// model.map_to_processor("Function_1", "Processor");
/// let mut system = model.elaborate()?;
/// system.run_until(SimTime::ZERO + SimDuration::from_ms(1))?;
/// # Ok(())
/// # }
/// ```
pub struct SystemModel {
    pub(crate) name: String,
    pub(crate) functions: BTreeMap<String, FunctionDecl>,
    pub(crate) function_order: Vec<String>,
    pub(crate) processors: BTreeMap<String, ProcessorDecl>,
    pub(crate) processor_order: Vec<String>,
    pub(crate) relations: BTreeMap<String, RelationDecl>,
    pub(crate) constraints: Vec<Box<dyn Declared>>,
    pub(crate) exec_mode: Option<ExecMode>,
    pub(crate) fault_plan: Option<FaultPlan>,
}

impl SystemModel {
    /// Creates an empty model.
    pub fn new(name: &str) -> Self {
        SystemModel {
            name: name.to_owned(),
            functions: BTreeMap::new(),
            function_order: Vec::new(),
            processors: BTreeMap::new(),
            processor_order: Vec::new(),
            relations: BTreeMap::new(),
            constraints: Vec::new(),
            exec_mode: None,
            fault_plan: None,
        }
    }

    /// The model's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Declares a function with the given task configuration and body.
    /// Map it with [`map`](SystemModel::map) before elaboration.
    ///
    /// # Panics
    ///
    /// Panics if a function with the same name exists.
    pub fn function<F>(&mut self, config: TaskConfig, body: F) -> &mut Self
    where
        F: FnOnce(&mut dyn Agent, &Io) + Send + 'static,
    {
        let name = config.name.clone();
        assert!(
            !self.functions.contains_key(&name),
            "duplicate function `{name}`"
        );
        self.function_order.push(name.clone());
        self.functions.insert(
            name,
            FunctionDecl {
                config,
                body: Body::Closure(Box::new(body)),
                mapping: None,
            },
        );
        self
    }

    /// Declares a function whose behaviour is a script (see
    /// [`crate::script`]) rather than a closure.
    ///
    /// A scripted function is a step machine, so the execution mode only
    /// picks its host — a thread of its own, handed the kernel when it is
    /// dispatched, in [`ExecMode::Thread`], inline dispatch with no OS
    /// thread at all in [`ExecMode::Segment`] — and its traces are
    /// bit-identical in both.
    /// Map it with [`map`](SystemModel::map) before elaboration.
    ///
    /// # Panics
    ///
    /// Panics if a function with the same name exists.
    pub fn function_script(&mut self, config: TaskConfig, script: Vec<Instr>) -> &mut Self {
        let name = config.name.clone();
        assert!(
            !self.functions.contains_key(&name),
            "duplicate function `{name}`"
        );
        self.function_order.push(name.clone());
        self.functions.insert(
            name,
            FunctionDecl {
                config,
                body: Body::Script(script.into()),
                mapping: None,
            },
        );
        self
    }

    /// Forces the execution mode of the elaborated simulator.
    ///
    /// By default elaboration honours the `RTSIM_EXEC_MODE` environment
    /// override (see [`ExecMode::from_env`]); this pins the mode
    /// explicitly. The mode decides where step machines run: scripted
    /// functions, the processors' RTOS helper processes and interrupt
    /// sources. Closure bodies block, so they keep a thread-backed
    /// process in both modes (driving the same RTOS step machines a
    /// script drives).
    pub fn exec_mode(&mut self, mode: ExecMode) -> &mut Self {
        self.exec_mode = Some(mode);
        self
    }

    /// Declares a software processor with the paper's default behaviour
    /// (priority-based preemptive scheduling) and the given overheads.
    ///
    /// # Panics
    ///
    /// Panics if a processor with the same name exists.
    pub fn software_processor(&mut self, name: &str, overheads: Overheads) -> &mut Self {
        self.software_processor_with(
            name,
            Box::new(rtsim_core::policies::PriorityPreemptive::new()),
            overheads,
            true,
            EngineKind::ProcedureCall,
        )
    }

    /// Declares a software processor with full control over policy, mode
    /// and implementation strategy.
    ///
    /// # Panics
    ///
    /// Panics if a processor with the same name exists.
    pub fn software_processor_with(
        &mut self,
        name: &str,
        policy: Box<dyn SchedulingPolicy>,
        overheads: Overheads,
        preemptive: bool,
        engine: EngineKind,
    ) -> &mut Self {
        assert!(
            !self.processors.contains_key(name),
            "duplicate processor `{name}`"
        );
        self.processor_order.push(name.to_owned());
        self.processors.insert(
            name.to_owned(),
            ProcessorDecl {
                policy,
                overheads,
                preemptive,
                engine,
                cores: 1,
            },
        );
        self
    }

    /// Makes an already-declared software processor SMP with `cores`
    /// identical cores (see
    /// [`ProcessorConfig::cores`](rtsim_core::ProcessorConfig::cores)).
    /// Functions mapped to it may restrict their placement with
    /// [`TaskConfig::affinity`](rtsim_core::TaskConfig::affinity) or
    /// [`TaskConfig::pin_to_core`](rtsim_core::TaskConfig::pin_to_core).
    ///
    /// # Panics
    ///
    /// Panics if the processor is unknown, `cores` is zero, or `cores`
    /// exceeds 64.
    pub fn processor_cores(&mut self, name: &str, cores: usize) -> &mut Self {
        assert!(cores >= 1, "a processor needs at least one core");
        assert!(cores <= 64, "affinity masks cover at most 64 cores");
        let decl = self
            .processors
            .get_mut(name)
            .unwrap_or_else(|| panic!("unknown processor `{name}`"));
        decl.cores = cores;
        self
    }

    /// Replaces the scheduling policy and preemptive/non-preemptive mode
    /// of *every* declared software processor, keeping overheads and
    /// implementation strategy.
    ///
    /// This is the design-space knob the regression farm and the policy
    /// sweeps turn: a scenario builder declares its baseline RTOS (the
    /// paper's priority-based preemptive default) and a sweep rebuilds
    /// the same system under each (policy, mode) point without touching
    /// the functional model. `make` is called once per processor, in
    /// name order, with the processor's name.
    pub fn override_schedulers<F>(&mut self, preemptive: bool, make: F) -> &mut Self
    where
        F: Fn(&str) -> Box<dyn SchedulingPolicy>,
    {
        for (name, decl) in self.processors.iter_mut() {
            decl.policy = make(name);
            decl.preemptive = preemptive;
        }
        self
    }

    /// Declares an event relation.
    ///
    /// # Panics
    ///
    /// Panics if a relation with the same name exists.
    pub fn event(&mut self, name: &str, policy: EventPolicy) -> &mut Self {
        self.add_relation(name, RelationDecl::Event(policy))
    }

    /// Declares a bounded message-queue relation.
    ///
    /// # Panics
    ///
    /// Panics if a relation with the same name exists or `capacity` is 0.
    pub fn queue(&mut self, name: &str, capacity: usize) -> &mut Self {
        assert!(capacity > 0, "queue `{name}` needs a positive capacity");
        self.add_relation(name, RelationDecl::Queue { capacity })
    }

    /// Declares a shared-variable relation.
    ///
    /// # Panics
    ///
    /// Panics if a relation with the same name exists.
    pub fn shared_var(&mut self, name: &str, initial: Message, mode: LockMode) -> &mut Self {
        self.add_relation(name, RelationDecl::Var { mode, initial })
    }

    fn add_relation(&mut self, name: &str, decl: RelationDecl) -> &mut Self {
        assert!(
            !self.relations.contains_key(name),
            "duplicate relation `{name}`"
        );
        self.relations.insert(name.to_owned(), decl);
        self
    }

    /// Maps a function onto hardware or a software processor.
    ///
    /// # Panics
    ///
    /// Panics if the function is unknown (declare it first).
    pub fn map(&mut self, function: &str, mapping: Mapping) -> &mut Self {
        let decl = self
            .functions
            .get_mut(function)
            .unwrap_or_else(|| panic!("unknown function `{function}`"));
        decl.mapping = Some(mapping);
        self
    }

    /// Shorthand for mapping onto a software processor.
    pub fn map_to_processor(&mut self, function: &str, processor: &str) -> &mut Self {
        self.map(function, Mapping::Software(processor.to_owned()))
    }

    /// Installs a deterministic fault-injection plan (see the
    /// `rtsim-fault` crate): dropout lanes on the named comm relations,
    /// arrival jitter and overload bursts on the named tasks, and
    /// degraded-mode monitoring for tasks with a
    /// [`degraded_gate`](crate::script::degraded_gate) in their script.
    ///
    /// An empty plan (no injectors) is ignored entirely — the elaborated
    /// system is byte-identical to one without a plan.
    pub fn fault_plan(&mut self, plan: FaultPlan) -> &mut Self {
        self.fault_plan = Some(plan);
        self
    }

    /// Declares a property of the system — a
    /// [`TimingConstraint`](crate::TimingConstraint) or any other
    /// [`Property`] — checked after a run by
    /// [`ElaboratedSystem::verify_constraints`] and on every schedule the
    /// explorer reaches (the paper's stated future work: "automatic
    /// verification of timing constraints by simulation after setting
    /// these constraints in the initial system model").
    pub fn constraint(&mut self, property: impl Property) -> &mut Self {
        self.constraints.push(Box::new(property));
        self
    }

    /// Validates the model and builds the executable simulation — the
    /// paper's automatic SystemC code generation step.
    ///
    /// # Errors
    ///
    /// - [`ModelError::UnmappedFunction`] if a function has no mapping;
    /// - [`ModelError::UnknownProcessor`] if a mapping names a processor
    ///   that was never declared.
    pub fn elaborate(self) -> Result<ElaboratedSystem, ModelError> {
        ElaboratedSystem::build(self)
    }

    /// Convenience: declare a periodic function activating every `period`
    /// (drift-free, anchored to its first activation), each activation
    /// costing `cost` of CPU, for `activations` rounds.
    ///
    /// Declared as a script, so it runs in both execution modes.
    pub fn periodic_function(
        &mut self,
        config: TaskConfig,
        period: SimDuration,
        cost: SimDuration,
        activations: u64,
    ) -> &mut Self {
        let config = config.period(period);
        let script = if activations == 0 {
            Vec::new()
        } else {
            vec![
                // All but the last activation sleep until the next
                // drift-free release point; the last one skips the
                // pointless wake.
                script::repeat(
                    activations - 1,
                    vec![script::exec(cost), script::periodic_release(period)],
                ),
                script::exec(cost),
            ]
        };
        self.function_script(config, script)
    }
}

impl fmt::Debug for SystemModel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SystemModel")
            .field("name", &self.name)
            .field("functions", &self.function_order)
            .field("processors", &self.processor_order)
            .field("relations", &self.relations.keys().collect::<Vec<_>>())
            .field("constraints", &self.constraints.len())
            .finish()
    }
}
