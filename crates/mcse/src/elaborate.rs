//! Elaboration: turning a [`SystemModel`] into a running simulation.
//!
//! This is the equivalent of the paper's SystemC code generator \[8\]\[12\]:
//! it instantiates the kernel, the processors with their RTOS models, the
//! communication relations and one simulation process per function, fully
//! automatically.

use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

use rtsim_comm::{EventRef, MessageQueue, QueueRef, RtEvent, SharedVar, VarRef};
use rtsim_core::{
    register_seg_hw, spawn_hw_function, Processor, ProcessorConfig, SchedulerStats, TaskHandle,
};
use rtsim_kernel::world::Slot;
use rtsim_kernel::{KernelError, KernelStats, SimTime, Simulator};
use rtsim_trace::{Statistics, TimelineOptions, Trace, TraceRecorder};

use crate::constraint::{fold, ConstraintReport, Monitor};
use crate::error::ModelError;
use crate::model::{Body, Mapping, Message, RelationDecl, SystemModel};
use crate::script::{FaultCtx, Instr, ScriptProcess};

/// The relations visible to a function body, looked up by name.
///
/// Obtained as the second argument of every closure body; a
/// [`ScriptProcess`] reaches its relations through it too. It holds slot
/// ids, never a world, so every forked simulation shares it. Lookups
/// panic on unknown names — relation names are model-author constants,
/// and a typo should fail loudly at first use.
pub struct Io {
    events: BTreeMap<String, EventRef>,
    queues: BTreeMap<String, QueueRef<Message>>,
    vars: BTreeMap<String, VarRef<Message>>,
}

impl Io {
    /// The event relation called `name`.
    ///
    /// # Panics
    ///
    /// Panics if no event relation with that name was declared.
    pub fn event(&self, name: &str) -> EventRef {
        *lookup(&self.events, "event", name)
    }

    /// The message-queue relation called `name`.
    ///
    /// # Panics
    ///
    /// Panics if no queue relation with that name was declared.
    pub fn queue(&self, name: &str) -> QueueRef<Message> {
        *lookup(&self.queues, "queue", name)
    }

    /// The shared-variable relation called `name`.
    ///
    /// # Panics
    ///
    /// Panics if no shared-variable relation with that name was declared.
    pub fn var(&self, name: &str) -> VarRef<Message> {
        *lookup(&self.vars, "shared-variable", name)
    }
}

/// The relation called `name` in `map`.
///
/// # Panics
///
/// Panics if the model declares no `kind` relation of that name.
fn lookup<'m, R>(map: &'m BTreeMap<String, R>, kind: &str, name: &str) -> &'m R {
    map.get(name)
        .unwrap_or_else(|| panic!("no {kind} relation `{name}` in the model"))
}

/// `map` with each relation handle replaced by its slot ids.
fn ids<R, I>(map: &BTreeMap<String, R>, f: impl Fn(&R) -> I) -> BTreeMap<String, I> {
    map.iter().map(|(name, r)| (name.clone(), f(r))).collect()
}

impl fmt::Debug for Io {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Io")
            .field("events", &self.events.keys().collect::<Vec<_>>())
            .field("queues", &self.queues.keys().collect::<Vec<_>>())
            .field("vars", &self.vars.keys().collect::<Vec<_>>())
            .finish()
    }
}

/// Checks `script`, nested bodies included: every relation it names is
/// declared in `relations` with the kind its instruction needs, and no
/// `Forever` body is empty.
fn check_script(
    relations: &BTreeMap<String, RelationDecl>,
    function: &str,
    script: &[Instr],
) -> Result<(), ModelError> {
    for instr in script {
        let (kind, name) = match instr {
            Instr::Signal(name) | Instr::AwaitEvent(name) => ("event", name),
            Instr::QueueWrite(name, _)
            | Instr::QueueRead(name)
            | Instr::QueueTryWrite(name, _)
            | Instr::QueueTryRead(name) => ("queue", name),
            Instr::VarRead(name, _) | Instr::VarWrite(name, _, _) => ("shared-variable", name),
            Instr::Forever(body) if body.is_empty() => {
                return Err(ModelError::EmptyForever {
                    function: function.to_owned(),
                })
            }
            Instr::Repeat(_, body) | Instr::Forever(body) | Instr::IfNowPast(_, body) => {
                check_script(relations, function, body)?;
                continue;
            }
            Instr::IfFlag(first, second) | Instr::DegradedGate(first, second) => {
                check_script(relations, function, first)?;
                check_script(relations, function, second)?;
                continue;
            }
            Instr::Execute(_)
            | Instr::Delay(_)
            | Instr::Annotate(_)
            | Instr::PeriodicRelease(_)
            | Instr::Return => continue,
        };
        let declared = relations.get(&**name).map(|decl| match decl {
            RelationDecl::Event(_) => "event",
            RelationDecl::Queue { .. } => "queue",
            RelationDecl::Var { .. } => "shared-variable",
        });
        if declared != Some(kind) {
            return Err(ModelError::UnknownRelation {
                function: function.to_owned(),
                relation: name.to_string(),
                kind,
            });
        }
    }
    Ok(())
}

/// A fully instantiated, runnable system.
///
/// A system built from scripts alone can be [forked](ElaboratedSystem::fork)
/// between runs or at a choice point: the copy runs on independently.
pub struct ElaboratedSystem {
    sim: Simulator,
    recorder: TraceRecorder,
    /// The processors, in name order.
    processors: Vec<Processor>,
    layout: Arc<Layout>,
}

/// What elaboration fixed about a system: names, placement and
/// declared properties. It holds no world state, so forks share it: the
/// properties' states and the count of records they have folded are
/// world slots.
struct Layout {
    name: String,
    /// processor name → index into `ElaboratedSystem::processors`.
    processors: BTreeMap<String, usize>,
    tasks: BTreeMap<String, TaskHandle>,
    /// function name → software processor name.
    task_placement: BTreeMap<String, String>,
    monitors: Vec<Box<dyn Monitor>>,
    folded: Slot<usize>,
}

impl ElaboratedSystem {
    pub(crate) fn build(model: SystemModel) -> Result<Self, ModelError> {
        // Validate the mapping and the scripts before creating anything.
        for (fname, decl) in &model.functions {
            if let Body::Script(script) = &decl.body {
                check_script(&model.relations, fname, script)?;
            }
            match &decl.mapping {
                None => {
                    return Err(ModelError::UnmappedFunction {
                        function: fname.clone(),
                    })
                }
                Some(Mapping::Software(p)) if !model.processors.contains_key(p) => {
                    return Err(ModelError::UnknownProcessor {
                        function: fname.clone(),
                        processor: p.clone(),
                    })
                }
                Some(_) => {}
            }
        }

        let mut sim = model
            .exec_mode
            .map_or_else(Simulator::new, Simulator::with_mode);
        // Every relation, processor and function keeps its state in the
        // recorder's world, which the simulator lends to each step.
        let recorder = TraceRecorder::new();
        sim.attach_world(recorder.world());

        // The relations first, so every function body can capture them.
        let mut events = BTreeMap::new();
        let mut queues = BTreeMap::new();
        let mut vars = BTreeMap::new();
        for (name, decl) in &model.relations {
            match decl {
                RelationDecl::Event(policy) => {
                    events.insert(name.clone(), RtEvent::new(&recorder, name, *policy));
                }
                RelationDecl::Queue { capacity } => {
                    queues.insert(name.clone(), MessageQueue::new(&recorder, name, *capacity));
                }
                RelationDecl::Var { mode, initial } => {
                    vars.insert(
                        name.clone(),
                        SharedVar::new(&recorder, name, *initial, *mode).ids(),
                    );
                }
            }
        }
        // Fault plan: instantiate the injector once (shared by the comm
        // lanes and every scripted function) and hang dropout lanes on
        // the relations the plan names. An empty plan injects nothing —
        // skip it entirely so such runs are byte-identical to no-plan
        // runs.
        let injector = model
            .fault_plan
            .as_ref()
            .filter(|p| !p.is_empty())
            .map(|p| Arc::new(p.instantiate(&mut recorder.world().lock_for("elaborate"))));
        if let Some(inj) = &injector {
            for (name, q) in &queues {
                if let Some(lane) = inj.lane(name) {
                    q.install_fault_lane(lane);
                }
            }
            for (name, ev) in &events {
                if let Some(lane) = inj.lane(name) {
                    ev.install_fault_lane(lane);
                }
            }
        }

        let io = Arc::new(Io {
            events: ids(&events, RtEvent::ids),
            queues: ids(&queues, MessageQueue::ids),
            vars,
        });

        // Processors.
        let mut processors = BTreeMap::new();
        let mut model_processors = model.processors;
        for pname in &model.processor_order {
            let decl = model_processors.remove(pname).expect("declared processor");
            let config = ProcessorConfig {
                name: pname.clone(),
                policy: decl.policy,
                preemptive: decl.preemptive,
                overheads: decl.overheads,
                engine: decl.engine,
                preemption_granularity: None,
                cores: decl.cores,
            };
            processors.insert(pname.clone(), Processor::new(&mut sim, &recorder, config));
        }

        // Functions, in declaration order (which fixes same-priority FIFO
        // ties deterministically).
        let mut tasks = BTreeMap::new();
        let mut task_placement = BTreeMap::new();
        let mut model_functions = model.functions;
        for fname in &model.function_order {
            let decl = model_functions.remove(fname).expect("declared function");
            let io = Arc::clone(&io);
            let fctx = injector
                .as_ref()
                .map(|inj| FaultCtx::new(Arc::clone(inj), fname));
            // Scripts run as step machines, hosted as the simulator's
            // execution mode decides; closure bodies block, so they always
            // get a thread-backed process.
            match (decl.mapping.expect("validated above"), decl.body) {
                (Mapping::Hardware, Body::Closure(body)) => {
                    spawn_hw_function(&mut sim, &recorder, fname, move |hw| body(hw, &io));
                }
                (Mapping::Hardware, Body::Script(script)) => {
                    let runner = register_seg_hw(&mut sim, &recorder, fname);
                    let process = ScriptProcess::hw(runner, io, script).with_fault(fctx);
                    sim.spawn_machine(fname, process);
                }
                (Mapping::Software(pname), Body::Closure(body)) => {
                    let processor = processors.get(&pname).expect("validated above");
                    let handle = processor.spawn_task(&mut sim, decl.config, move |t| body(t, &io));
                    tasks.insert(fname.clone(), handle);
                    task_placement.insert(fname.clone(), pname);
                }
                (Mapping::Software(pname), Body::Script(script)) => {
                    let processor = processors.get(&pname).expect("validated above");
                    let runner = processor.register_seg_task(&mut sim, decl.config);
                    let handle = runner.handle();
                    let process_name = format!("{}.{}", processor.name(), fname);
                    let process = ScriptProcess::task(runner, io, script).with_fault(fctx);
                    sim.spawn_machine(&process_name, process);
                    tasks.insert(fname.clone(), handle);
                    task_placement.insert(fname.clone(), pname);
                }
            }
        }

        let (monitors, folded) = {
            let mut world = recorder.world().lock_for("elaborate");
            let monitors: Vec<_> = model
                .constraints
                .into_iter()
                .map(|p| p.install(&mut world))
                .collect();
            let folded = world.insert(0);
            // Sizes the monitors' actor tables.
            fold(&monitors, folded, recorder.log(), &mut world);
            (monitors, folded)
        };
        Ok(ElaboratedSystem {
            sim,
            recorder,
            layout: Arc::new(Layout {
                name: model.name,
                processors: processors.keys().cloned().zip(0..).collect(),
                tasks,
                task_placement,
                monitors,
                folded,
            }),
            processors: processors.into_values().collect(),
        })
    }

    /// A copy of this system at rest — between runs, or stopped at a
    /// choice point of [`simulator_mut`](ElaboratedSystem::simulator_mut)
    /// — that runs on independently of it: its own simulator and world,
    /// its recorder and processors reaching that world. It is
    /// [`fork_into`](ElaboratedSystem::fork_into) a new, empty system of
    /// this elaboration. `None` when a live function has a closure body,
    /// which runs on a thread (see [`Simulator::fork`]).
    pub fn fork(&self) -> Option<ElaboratedSystem> {
        let sim = Simulator::with_mode(self.sim.exec_mode());
        let recorder = self.recorder.rebind(sim.shared_world());
        let mut fork = ElaboratedSystem {
            processors: self
                .processors
                .iter()
                .map(|p| p.rebind(&recorder))
                .collect(),
            sim,
            recorder,
            layout: Arc::clone(&self.layout),
        };
        self.fork_into(&mut fork).then_some(fork)
    }

    /// Writes a [fork](ElaboratedSystem::fork) of this system over `into`.
    /// A system of the same elaboration (a fork of it, or one it was
    /// forked from) keeps its recorder and processors, which reach its
    /// world, and gets the copy written into its own kernel, machines and
    /// world slots (see [`Simulator::fork_into`]): a schedule explorer
    /// that recycles finished runs this way forks without allocating,
    /// near enough. Any other system is replaced by a fresh fork, so the
    /// two are never mixed.
    ///
    /// `false` when this system cannot be copied (see
    /// [`fork`](ElaboratedSystem::fork)); `into` is then partly written,
    /// and only a later fork into it makes it whole again.
    pub fn fork_into(&self, into: &mut ElaboratedSystem) -> bool {
        if !Arc::ptr_eq(&self.layout, &into.layout) {
            return self.fork().map(|fork| *into = fork).is_some();
        }
        self.sim.fork_into(&mut into.sim)
    }

    /// Folds the records recorded since the last fold into the states
    /// of the model's declared properties. A fork copies those states,
    /// so the schedule explorer folds at each choice point it snapshots,
    /// and every run resumed from there folds only its own records.
    pub fn fold(&self) {
        let mut world = self.recorder.world().lock_for("ElaboratedSystem::fold");
        fold(
            &self.layout.monitors,
            self.layout.folded,
            self.recorder.log(),
            &mut world,
        );
    }

    /// The processor called `name`.
    fn processor(&self, name: &str) -> Option<&Processor> {
        self.layout
            .processors
            .get(name)
            .map(|&i| &self.processors[i])
    }

    /// The model's name.
    pub fn name(&self) -> &str {
        &self.layout.name
    }

    /// Runs until event starvation.
    ///
    /// # Errors
    ///
    /// Propagates kernel errors (process panic, delta livelock).
    pub fn run(&mut self) -> Result<(), KernelError> {
        self.sim.run()
    }

    /// Runs until `until` (inclusive of activity at that instant).
    ///
    /// # Errors
    ///
    /// Propagates kernel errors (process panic, delta livelock).
    pub fn run_until(&mut self, until: SimTime) -> Result<(), KernelError> {
        self.sim.run_until(until)
    }

    /// Current simulation time.
    pub fn now(&self) -> SimTime {
        self.sim.now()
    }

    /// A snapshot of everything recorded so far.
    pub fn trace(&self) -> Trace {
        self.recorder.snapshot()
    }

    /// The live recorder (for custom annotations from testbench code).
    pub fn recorder(&self) -> &TraceRecorder {
        &self.recorder
    }

    /// Figure 8-style statistics over `[0, horizon]`.
    ///
    /// # Panics
    ///
    /// Panics if `horizon` is zero.
    pub fn statistics(&self, horizon: SimTime) -> Statistics {
        Statistics::from_trace(&self.trace(), horizon)
    }

    /// Renders the TimeLine chart (Figures 6/7 style).
    ///
    /// # Panics
    ///
    /// Panics if the selected window is empty.
    pub fn timeline(&self, options: &TimelineOptions) -> String {
        rtsim_trace::timeline::render(&self.trace(), options)
    }

    /// Checks every property declared on the model — its timing
    /// constraints and any oracle — against the trace so far, over
    /// `[0, now]`: folds the records not folded yet into the properties'
    /// states and finishes those. It neither copies nor takes the trace,
    /// so the schedule explorer checks each leaf this way and then
    /// hashes the trace, and a later fork into this system writes its
    /// records and states into the buffers it has.
    pub fn verify_constraints(&self) -> ConstraintReport {
        let layout = &self.layout;
        ConstraintReport::new(
            &layout.monitors,
            layout.folded,
            self.recorder.log(),
            &mut self
                .recorder
                .world()
                .lock_for("ElaboratedSystem::verify_constraints"),
            self.now(),
        )
    }

    /// The task handle of a software-mapped function.
    pub fn task(&self, function: &str) -> Option<&TaskHandle> {
        self.layout.tasks.get(function)
    }

    /// Scheduler statistics of one processor.
    pub fn processor_stats(&self, processor: &str) -> Option<SchedulerStats> {
        self.processor(processor).map(Processor::stats)
    }

    /// Utilization of one processor over `[0, now]`: the fraction of time
    /// it was busy running its tasks or their RTOS overheads. `None` for
    /// an undeclared processor.
    ///
    /// # Panics
    ///
    /// Panics if called before any simulated time has elapsed.
    pub fn processor_utilization(&self, processor: &str) -> Option<f64> {
        self.processor(processor)?;
        let trace = self.trace();
        let stats = Statistics::from_trace(&trace, self.now());
        let busy = self
            .layout
            .task_placement
            .iter()
            .filter(|(_, p)| p.as_str() == processor)
            .filter_map(|(f, _)| trace.actor_by_name(f))
            .filter_map(|actor| stats.task(actor))
            .map(|t| t.activity_ratio + t.overhead_ratio)
            .sum();
        Some(busy)
    }

    /// The software processor a function is mapped to (`None` for
    /// hardware functions and unknown names).
    pub fn placement(&self, function: &str) -> Option<&str> {
        self.layout.task_placement.get(function).map(String::as_str)
    }

    /// Kernel statistics (process switches, delta cycles...).
    pub fn kernel_stats(&self) -> KernelStats {
        self.sim.stats()
    }

    /// Names of the declared processors, in declaration order.
    pub fn processor_names(&self) -> impl Iterator<Item = &str> + '_ {
        self.layout.processors.keys().map(String::as_str)
    }

    /// Direct access to the simulator (advanced testbench control).
    pub fn simulator_mut(&mut self) -> &mut Simulator {
        &mut self.sim
    }
}

impl fmt::Debug for ElaboratedSystem {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ElaboratedSystem")
            .field("name", &self.layout.name)
            .field("now", &self.now())
            .field(
                "processors",
                &self.layout.processors.keys().collect::<Vec<_>>(),
            )
            .field("software_tasks", &self.layout.tasks.len())
            .finish()
    }
}
