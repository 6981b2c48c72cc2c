//! Elaboration: turning a [`SystemModel`] into a running simulation.
//!
//! This is the equivalent of the paper's SystemC code generator \[8\]\[12\]:
//! it instantiates the kernel, the processors with their RTOS models, the
//! communication relations and one simulation process per function, fully
//! automatically.

use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

use rtsim_comm::{MessageQueue, Rendezvous, RtEvent, SharedVar};
use rtsim_core::{
    register_seg_hw, spawn_hw_function, Processor, ProcessorConfig, SchedulerStats, TaskHandle,
};
use rtsim_kernel::{KernelError, KernelStats, SimTime, Simulator};
use rtsim_trace::{Statistics, TimelineOptions, Trace, TraceRecorder};

use crate::constraint::{verify, ConstraintReport, TimingConstraint};
use crate::error::ModelError;
use crate::model::{Body, Mapping, Message, RelationDecl, SystemModel};
use crate::script::{FaultCtx, ScriptProcess};

/// The relations visible to a function body, looked up by name.
///
/// Obtained as the second argument of every function body. Lookups panic
/// on unknown names — relation names are model-author constants, and a
/// typo should fail loudly at first use.
pub struct Io {
    events: BTreeMap<String, RtEvent>,
    queues: BTreeMap<String, MessageQueue<Message>>,
    rendezvous: BTreeMap<String, Rendezvous<Message>>,
    vars: BTreeMap<String, SharedVar<Message>>,
}

impl Io {
    /// The event relation called `name`.
    ///
    /// # Panics
    ///
    /// Panics if no event relation with that name was declared.
    pub fn event(&self, name: &str) -> RtEvent {
        self.event_ref(name).clone()
    }

    pub(crate) fn event_ref(&self, name: &str) -> &RtEvent {
        self.events
            .get(name)
            .unwrap_or_else(|| panic!("no event relation `{name}` in the model"))
    }

    /// The message-queue relation called `name`.
    ///
    /// # Panics
    ///
    /// Panics if no queue relation with that name was declared.
    pub fn queue(&self, name: &str) -> MessageQueue<Message> {
        self.queue_ref(name).clone()
    }

    pub(crate) fn queue_ref(&self, name: &str) -> &MessageQueue<Message> {
        self.queues
            .get(name)
            .unwrap_or_else(|| panic!("no queue relation `{name}` in the model"))
    }

    /// The rendezvous relation called `name`.
    ///
    /// # Panics
    ///
    /// Panics if no rendezvous relation with that name was declared.
    pub fn rendezvous(&self, name: &str) -> Rendezvous<Message> {
        self.rendezvous
            .get(name)
            .unwrap_or_else(|| panic!("no rendezvous relation `{name}` in the model"))
            .clone()
    }

    /// The shared-variable relation called `name`.
    ///
    /// # Panics
    ///
    /// Panics if no shared-variable relation with that name was declared.
    pub fn var(&self, name: &str) -> SharedVar<Message> {
        self.var_ref(name).clone()
    }

    pub(crate) fn var_ref(&self, name: &str) -> &SharedVar<Message> {
        self.vars
            .get(name)
            .unwrap_or_else(|| panic!("no shared-variable relation `{name}` in the model"))
    }
}

impl fmt::Debug for Io {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Io")
            .field("events", &self.events.keys().collect::<Vec<_>>())
            .field("queues", &self.queues.keys().collect::<Vec<_>>())
            .field("rendezvous", &self.rendezvous.keys().collect::<Vec<_>>())
            .field("vars", &self.vars.keys().collect::<Vec<_>>())
            .finish()
    }
}

/// A fully instantiated, runnable system.
pub struct ElaboratedSystem {
    name: String,
    sim: Simulator,
    recorder: TraceRecorder,
    processors: BTreeMap<String, Processor>,
    tasks: BTreeMap<String, TaskHandle>,
    /// function name → software processor name.
    task_placement: BTreeMap<String, String>,
    constraints: Vec<TimingConstraint>,
}

impl ElaboratedSystem {
    pub(crate) fn build(model: SystemModel) -> Result<Self, ModelError> {
        // Validate the mapping before creating anything.
        for (fname, decl) in &model.functions {
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

        // Relations first, so every function body can capture them.
        let mut events = BTreeMap::new();
        let mut queues = BTreeMap::new();
        let mut rendezvous = BTreeMap::new();
        let mut vars = BTreeMap::new();
        for (name, decl) in &model.relations {
            match decl {
                RelationDecl::Event(policy) => {
                    events.insert(name.clone(), RtEvent::new(&recorder, name, *policy));
                }
                RelationDecl::Queue { capacity } => {
                    queues.insert(
                        name.clone(),
                        MessageQueue::new(&recorder, name, *capacity),
                    );
                }
                RelationDecl::Rendezvous => {
                    rendezvous.insert(name.clone(), Rendezvous::new(&recorder, name));
                }
                RelationDecl::Var { mode, initial } => {
                    vars.insert(
                        name.clone(),
                        SharedVar::new(&recorder, name, *initial, *mode),
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
            .map(|p| Arc::new(p.instantiate()));
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
            events,
            queues,
            rendezvous,
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
                    let mut process = ScriptProcess::hw(runner, io, script).with_fault(fctx);
                    sim.spawn_segment(fname, move |ctx| process.poll(ctx));
                }
                (Mapping::Software(pname), Body::Closure(body)) => {
                    let processor = processors.get(&pname).expect("validated above");
                    let handle =
                        processor.spawn_task(&mut sim, decl.config, move |t| body(t, &io));
                    tasks.insert(fname.clone(), handle);
                    task_placement.insert(fname.clone(), pname);
                }
                (Mapping::Software(pname), Body::Script(script)) => {
                    let processor = processors.get(&pname).expect("validated above");
                    let runner = processor.register_seg_task(&mut sim, decl.config);
                    let handle = runner.handle();
                    let process_name = format!("{}.{}", processor.name(), fname);
                    let mut process = ScriptProcess::task(runner, io, script).with_fault(fctx);
                    sim.spawn_segment(&process_name, move |ctx| process.poll(ctx));
                    tasks.insert(fname.clone(), handle);
                    task_placement.insert(fname.clone(), pname);
                }
            }
        }

        Ok(ElaboratedSystem {
            name: model.name,
            sim,
            recorder,
            processors,
            tasks,
            task_placement,
            constraints: model.constraints,
        })
    }

    /// The model's name.
    pub fn name(&self) -> &str {
        &self.name
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

    /// Verifies the declared timing constraints against the trace so far.
    pub fn verify_constraints(&self) -> ConstraintReport {
        verify(&self.constraints, &self.trace(), self.now())
    }

    /// The task handle of a software-mapped function.
    pub fn task(&self, function: &str) -> Option<&TaskHandle> {
        self.tasks.get(function)
    }

    /// Scheduler statistics of one processor.
    pub fn processor_stats(&self, processor: &str) -> Option<SchedulerStats> {
        self.processors.get(processor).map(Processor::stats)
    }

    /// Utilization of one processor over `[0, now]`: the fraction of time
    /// it was busy running its tasks or their RTOS overheads. `None` for
    /// an undeclared processor.
    ///
    /// # Panics
    ///
    /// Panics if called before any simulated time has elapsed.
    pub fn processor_utilization(&self, processor: &str) -> Option<f64> {
        if !self.processors.contains_key(processor) {
            return None;
        }
        let trace = self.trace();
        let stats = Statistics::from_trace(&trace, self.now());
        let busy = self
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
        self.task_placement.get(function).map(String::as_str)
    }

    /// Renders a Gantt-style occupancy lane for one processor: at each
    /// column the initial letter of the task Running there, `%` where no
    /// task runs but RTOS overhead is known to be consumed, and `.` when
    /// idle. Tasks are legended below the lane.
    ///
    /// # Panics
    ///
    /// Panics if the processor is unknown or the window is empty.
    pub fn processor_gantt(&self, processor: &str, width: usize, until: SimTime) -> String {
        use std::fmt::Write as _;
        assert!(
            self.processors.contains_key(processor),
            "unknown processor `{processor}`"
        );
        assert!(width > 0 && until > SimTime::ZERO, "empty gantt window");
        let trace = self.trace();
        let span = until.as_ps();
        let col_of = |t: SimTime| -> usize {
            ((t.as_ps().min(span) as u128 * width as u128) / span as u128) as usize
        };
        let mut lane = vec!['.'; width];
        let mut legend = Vec::new();
        for (fname, p) in &self.task_placement {
            if p != processor {
                continue;
            }
            let Some(actor) = trace.actor_by_name(fname) else {
                continue;
            };
            let letter = fname.chars().next().unwrap_or('?').to_ascii_uppercase();
            legend.push(format!("{letter}={fname}"));
            for (start, end, state) in trace.state_intervals(actor, until) {
                if state != rtsim_trace::TaskState::Running || end <= SimTime::ZERO {
                    continue;
                }
                let (s, e) = (col_of(start), col_of(end).min(width));
                for cell in lane.iter_mut().take(e).skip(s) {
                    *cell = letter;
                }
            }
            // Overhead segments consume the CPU too.
            for rec in trace.records_for(actor) {
                if let rtsim_trace::TraceData::Overhead { duration, .. } = rec.data {
                    if rec.at >= until {
                        continue;
                    }
                    let end = rec.at.saturating_add(duration);
                    let (s, e) = (col_of(rec.at), col_of(end).min(width).max(col_of(rec.at) + 1));
                    for cell in lane.iter_mut().take(e.min(width)).skip(s) {
                        if *cell == '.' {
                            *cell = '%';
                        }
                    }
                }
            }
        }
        let mut out = String::new();
        let lane: String = lane.into_iter().collect();
        let _ = writeln!(out, "{processor} |{lane}|");
        let _ = writeln!(out, "  tasks: {}  (. idle, % RTOS overhead)", legend.join(" "));
        out
    }

    /// Kernel statistics (process switches, delta cycles...).
    pub fn kernel_stats(&self) -> KernelStats {
        self.sim.stats()
    }

    /// Names of the declared processors, in declaration order.
    pub fn processor_names(&self) -> impl Iterator<Item = &str> + '_ {
        self.processors.keys().map(String::as_str)
    }

    /// Direct access to the simulator (advanced testbench control).
    pub fn simulator_mut(&mut self) -> &mut Simulator {
        &mut self.sim
    }
}

impl fmt::Debug for ElaboratedSystem {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ElaboratedSystem")
            .field("name", &self.name)
            .field("now", &self.now())
            .field("processors", &self.processors.keys().collect::<Vec<_>>())
            .field("software_tasks", &self.tasks.len())
            .finish()
    }
}
