//! The public processor and task API.
//!
//! A [`Processor`] models one CPU running the generic RTOS: it owns the
//! scheduling policy, the preemption mode and the overhead parameters
//! (paper §3), and serializes the tasks spawned onto it. Task bodies are
//! ordinary closures receiving a [`TaskCtx`], whose methods are the RTOS
//! "system calls" of the model, or scripts driving a [`SegTaskRunner`].

use std::fmt;
use std::sync::Arc;

use rtsim_kernel::world::World;
use rtsim_kernel::{KernelHandle, ProcessContext, SimDuration, SimTime, Simulator};
use rtsim_trace::{ActorId, ActorKind, TaskState, TraceRecorder};

use crate::agent::Party;
use crate::engine::{self, EngineKind, Rtos, RtosState, SchedulerStats};
use crate::overhead::Overheads;
use crate::policies::PriorityPreemptive;
use crate::policy::SchedulingPolicy;
use crate::seg::{self, SegControl, SegTaskRunner};
use crate::task::{Priority, TaskConfig, TaskId};
use crate::{proc_model, thread_model};

/// Configuration of one RTOS processor.
///
/// Defaults match the paper's baseline: priority-based preemptive
/// scheduling, zero overheads, procedure-call engine.
///
/// # Examples
///
/// ```
/// use rtsim_core::{EngineKind, Overheads, ProcessorConfig};
/// use rtsim_kernel::SimDuration;
///
/// let cfg = ProcessorConfig::new("CPU0")
///     .overheads(Overheads::uniform(SimDuration::from_us(5)))
///     .engine(EngineKind::DedicatedThread);
/// assert_eq!(cfg.name, "CPU0");
/// ```
#[derive(Debug)]
pub struct ProcessorConfig {
    /// Processor display name.
    pub name: String,
    /// The scheduling algorithm (paper §3.1).
    pub policy: Box<dyn SchedulingPolicy>,
    /// Initial preemptive/non-preemptive mode (changeable at run time).
    pub preemptive: bool,
    /// The three RTOS overhead durations (paper §3.2).
    pub overheads: Overheads,
    /// Which of the two model implementations to use (paper §4).
    pub engine: EngineKind,
    /// `None` (default): the paper's time-accurate preemption. `Some(q)`:
    /// tasks compute in uninterruptible chunks of `q` and honor
    /// preemption only at chunk boundaries — the clock-driven baseline
    /// (e.g. the SpecC model of Gerstlauer et al., DATE 2003) whose
    /// reaction-time error the paper's contribution removes. Kept for
    /// the baseline-comparison experiments.
    pub preemption_granularity: Option<SimDuration>,
    /// Number of identical cores (default 1). The policy elects onto
    /// every idle core (with more than one: global scheduling), tasks may
    /// restrict themselves to cores via
    /// [`TaskConfig::affinity`](crate::TaskConfig::affinity) (partitioned
    /// scheduling when every task is pinned), and dispatching a task on a
    /// different core than its last one charges the migration overhead.
    /// One core is the same election with one core to fill. More than one
    /// requires the procedure-call engine and time-accurate preemption.
    pub cores: usize,
}

impl ProcessorConfig {
    /// Creates a default configuration.
    pub fn new(name: &str) -> Self {
        ProcessorConfig {
            name: name.to_owned(),
            policy: Box::new(PriorityPreemptive::new()),
            preemptive: true,
            overheads: Overheads::zero(),
            engine: EngineKind::ProcedureCall,
            preemption_granularity: None,
            cores: 1,
        }
    }

    /// Sets the scheduling policy.
    pub fn policy(mut self, policy: impl SchedulingPolicy + 'static) -> Self {
        self.policy = Box::new(policy);
        self
    }

    /// Sets the overhead parameters.
    pub fn overheads(mut self, overheads: Overheads) -> Self {
        self.overheads = overheads;
        self
    }

    /// Starts the RTOS in non-preemptive mode.
    pub fn non_preemptive(mut self) -> Self {
        self.preemptive = false;
        self
    }

    /// Selects the implementation strategy.
    pub fn engine(mut self, engine: EngineKind) -> Self {
        self.engine = engine;
        self
    }

    /// Switches to the clock-driven baseline: preemption is only honored
    /// at `quantum` boundaries (see
    /// [`preemption_granularity`](ProcessorConfig::preemption_granularity)).
    ///
    /// # Panics
    ///
    /// Panics if `quantum` is zero.
    pub fn quantized_preemption(mut self, quantum: SimDuration) -> Self {
        assert!(!quantum.is_zero(), "preemption quantum must be non-zero");
        self.preemption_granularity = Some(quantum);
        self
    }

    /// Makes the processor SMP with `cores` identical cores (see
    /// [`cores`](ProcessorConfig::cores)).
    ///
    /// # Panics
    ///
    /// Panics if `cores` is zero or exceeds 64 (the affinity-mask width).
    pub fn cores(mut self, cores: usize) -> Self {
        assert!(cores >= 1, "a processor needs at least one core");
        assert!(cores <= 64, "affinity masks cover at most 64 cores");
        self.cores = cores;
        self
    }
}

/// A processor running the generic RTOS model.
///
/// # Examples
///
/// ```
/// use rtsim_core::{Processor, ProcessorConfig, TaskConfig};
/// use rtsim_kernel::{SimDuration, Simulator};
/// use rtsim_trace::TraceRecorder;
///
/// # fn main() -> Result<(), rtsim_kernel::KernelError> {
/// let mut sim = Simulator::new();
/// let rec = TraceRecorder::new();
/// let cpu = Processor::new(&mut sim, &rec, ProcessorConfig::new("CPU0"));
/// cpu.spawn_task(&mut sim, TaskConfig::new("worker").priority(1), |task| {
///     task.execute(SimDuration::from_us(100));
/// });
/// sim.run()?;
/// assert_eq!(sim.now().as_us(), 100);
/// # Ok(())
/// # }
/// ```
pub struct Processor {
    rtos: Rtos,
    kind: EngineKind,
    name: Arc<str>,
    actor: ActorId,
    recorder: TraceRecorder,
}

impl Processor {
    /// Creates a processor (spawning its internal dispatcher or RTOS
    /// coroutine) inside `sim`, recording into `recorder`. Its RTOS state
    /// lives in the recorder's world, which this attaches to `sim`.
    pub fn new(sim: &mut Simulator, recorder: &TraceRecorder, config: ProcessorConfig) -> Self {
        if config.cores > 1 {
            assert!(
                config.engine == EngineKind::ProcedureCall,
                "SMP (cores > 1) requires the procedure-call engine"
            );
            assert!(
                config.preemption_granularity.is_none(),
                "SMP (cores > 1) requires time-accurate preemption \
                 (no preemption granularity)"
            );
        }
        sim.attach_world(recorder.world());
        let actor = recorder.register(&config.name, ActorKind::Processor);
        let state = RtosState::new(
            config.engine,
            config.policy,
            config.overheads,
            config.preemption_granularity,
            config.preemptive,
            config.cores,
        );
        let rtos = Rtos {
            state: recorder.world().lock_for("Processor::new").insert(state),
            log: recorder.log(),
        };
        match config.engine {
            EngineKind::ProcedureCall => proc_model::spawn_dispatcher(sim, rtos, &config.name),
            EngineKind::DedicatedThread => {
                let rtk_run = thread_model::spawn_rtos(sim, rtos, &config.name);
                recorder
                    .world()
                    .lock_for("Processor::new")
                    .get_mut(rtos.state)
                    .rtk_run = Some(rtk_run);
            }
        }
        Processor {
            rtos,
            kind: config.engine,
            name: Arc::from(config.name),
            actor,
            recorder: recorder.clone(),
        }
    }

    /// Runs `f` on this processor's RTOS state, locking the world (code
    /// outside a step only).
    fn with_state<R>(&self, accessor: &'static str, f: impl FnOnce(&mut RtosState) -> R) -> R {
        f(self
            .recorder
            .world()
            .lock_for(accessor)
            .get_mut(self.rtos.state))
    }

    /// Spawns a task on this processor. The body runs once, from the
    /// task's first dispatch to its destruction; periodic tasks loop
    /// internally using [`TaskCtx::delay`] or communication waits.
    ///
    /// The body blocks, so it runs on a thread process in both execution
    /// modes; its calls drive the same [`SegTaskRunner`] a script uses.
    pub fn spawn_task<F>(&self, sim: &mut Simulator, config: TaskConfig, body: F) -> TaskHandle
    where
        F: FnOnce(&mut TaskCtx<'_>) + Send + 'static,
    {
        let runner = self.register_seg_task(sim, config);
        let handle = runner.handle();
        let recorder = self.recorder.clone();
        sim.spawn(&format!("{}.{}", self.name, runner.name()), move |kctx| {
            let mut task = TaskCtx {
                runner,
                kctx,
                recorder,
            };
            // Creation, the first ready transition and the first dispatch.
            task.drive();
            body(&mut task);
            task.runner.finish();
            task.drive();
        });
        handle
    }

    /// Registers a task: run/preempt events, trace actor and RTOS entry
    /// are created, but no kernel process is spawned — the caller embeds
    /// the returned [`SegTaskRunner`] in a segment process instead (see
    /// `rtsim-mcse`), or [`spawn_task`](Processor::spawn_task) drives it
    /// from a closure body.
    pub fn register_seg_task(&self, sim: &mut Simulator, config: TaskConfig) -> SegTaskRunner {
        let task_name = &config.name;
        let run_event = sim.event(&format!("{}.{}.TaskRun", self.name, task_name));
        let preempt_event = sim.event(&format!("{}.{}.TaskPreempt", self.name, task_name));
        let actor = self.recorder.register(task_name, ActorKind::Task);
        let id = self.with_state("Processor::register_seg_task", |st| {
            st.add_task(&self.name, &config, run_event, preempt_event, actor)
        });
        let handle = TaskHandle {
            rtos: self.rtos,
            id,
            actor,
        };
        SegTaskRunner::new(handle, task_name)
    }

    /// This processor in a forked simulation whose trace recorder is
    /// `recorder` (see `Simulator::fork`): the same RTOS slot ids, its
    /// accessors reaching the fork's world.
    pub fn rebind(&self, recorder: &TraceRecorder) -> Processor {
        Processor {
            rtos: self.rtos,
            kind: self.kind,
            name: Arc::clone(&self.name),
            actor: self.actor,
            recorder: recorder.clone(),
        }
    }

    /// Processor display name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Trace actor of this processor.
    pub fn actor(&self) -> ActorId {
        self.actor
    }

    /// Which implementation strategy this processor runs.
    pub fn kind(&self) -> EngineKind {
        self.kind
    }

    /// Scheduler statistics so far.
    pub fn stats(&self) -> SchedulerStats {
        self.with_state("Processor::stats", |st| st.stats)
    }

    /// Switches the preemptive/non-preemptive mode (testbench use; tasks
    /// use [`TaskCtx::set_preemptive`]). Takes effect at the next
    /// scheduling decision.
    pub fn set_preemptive(&self, preemptive: bool) {
        self.with_state("Processor::set_preemptive", |st| st.preemptive = preemptive);
    }

    /// Current preemptive mode.
    pub fn is_preemptive(&self) -> bool {
        self.with_state("Processor::is_preemptive", |st| st.preemptive)
    }
}

impl fmt::Debug for Processor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Processor")
            .field("name", &self.name)
            .field("engine", &self.kind())
            .field("stats", &self.stats())
            .finish()
    }
}

/// A plain, copyable reference to a spawned task, used to wake it from
/// hardware processes, other processors, or communication relations.
///
/// It holds ids only: the task's state lives in the simulation world, so
/// each method takes the world, or the caller's [`KernelHandle`] (the
/// step's [`rtsim_kernel::SegmentCtx`], a closure body's
/// [`ProcessContext`], or the [`Simulator`] between runs).
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct TaskHandle {
    pub(crate) rtos: Rtos,
    pub(crate) id: TaskId,
    pub(crate) actor: ActorId,
}

impl TaskHandle {
    /// The task's id within its processor.
    pub fn id(&self) -> TaskId {
        self.id
    }

    /// The task's trace actor.
    pub fn actor(&self) -> ActorId {
        self.actor
    }

    /// Makes the task ready — the paper's `TaskIsReady()` as seen from
    /// outside: a hardware interrupt, a cross-processor message arrival...
    /// May preempt the task currently running on the target processor.
    /// No-op if the task is already ready, running, or terminated.
    ///
    /// Callable from either execution mode: `h` is the caller's
    /// [`ProcessContext`] or [`rtsim_kernel::SegmentCtx`].
    pub fn wake(&self, h: &mut dyn KernelHandle) {
        let (mut world, mut n) = h.split();
        let (st, log) = self.rtos.borrow(&mut world);
        engine::make_ready(st, log, &mut n, self.id);
    }

    fn entry<'w>(&self, world: &'w World) -> &'w crate::engine::TaskEntry {
        world.get(self.rtos.state).entry(self.id)
    }

    fn entry_mut<'w>(&self, world: &'w mut World) -> &'w mut crate::engine::TaskEntry {
        world.get_mut(self.rtos.state).entry_mut(self.id)
    }

    /// The task's current (possibly boosted) priority, read from `world`.
    pub fn priority_in(&self, world: &World) -> Priority {
        self.entry(world).priority
    }

    /// Changes the task's priority in `world`. Takes effect at the next
    /// scheduling decision — the mechanism behind priority-inheritance
    /// resource protocols (see `rtsim-comm`).
    pub fn set_priority_in(&self, world: &mut World, priority: Priority) {
        self.entry_mut(world).priority = priority;
    }

    /// The task's current relative deadline in `world`, if one is
    /// configured.
    pub fn relative_deadline_in(&self, world: &World) -> Option<SimDuration> {
        self.entry(world).relative_deadline
    }

    /// Changes the task's relative deadline in `world`. Takes effect at
    /// the next activation — the running job keeps the absolute deadline
    /// it was released under.
    pub fn set_relative_deadline_in(&self, world: &mut World, deadline: Option<SimDuration>) {
        self.entry_mut(world).relative_deadline = deadline;
    }

    /// The task's current (possibly boosted) priority.
    pub fn priority(&self, h: &mut dyn KernelHandle) -> Priority {
        self.priority_in(&h.world())
    }

    /// Changes the task's priority. Takes effect at the next scheduling
    /// decision — the mechanism behind priority-inheritance resource
    /// protocols (see `rtsim-comm`).
    pub fn set_priority(&self, h: &mut dyn KernelHandle, priority: Priority) {
        self.set_priority_in(&mut h.world(), priority);
    }

    /// The task's current relative deadline (EDF parameter and
    /// deadline-miss bound), if one is configured.
    pub fn relative_deadline(&self, h: &mut dyn KernelHandle) -> Option<SimDuration> {
        self.relative_deadline_in(&h.world())
    }

    /// Changes the task's relative deadline. Takes effect at the next
    /// activation — the running job keeps the absolute deadline it was
    /// released under. The mechanism behind fault-degraded modes relaxing
    /// a task's timing contract (see the `rtsim-fault` crate).
    pub fn set_relative_deadline(&self, h: &mut dyn KernelHandle, deadline: Option<SimDuration>) {
        self.set_relative_deadline_in(&mut h.world(), deadline);
    }
}

impl fmt::Debug for TaskHandle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TaskHandle")
            .field("id", &self.id)
            .field("actor", &self.actor)
            .finish()
    }
}

/// The task-side view of the RTOS: the "system calls" available to a task
/// body.
///
/// Obtained as the argument of the closure passed to
/// [`Processor::spawn_task`]. The two central calls are:
///
/// - [`execute`](TaskCtx::execute) — consume CPU time (preemptible: a
///   higher-priority activation suspends the task and the remaining time
///   is recomputed exactly, the paper's time-accurate preemption);
/// - [`delay`](TaskCtx::delay) — release the CPU for a fixed span.
///
/// Each blocking call feeds one intent to the task's [`SegTaskRunner`]
/// and performs the waits it yields on the task's thread.
pub struct TaskCtx<'a> {
    runner: SegTaskRunner,
    kctx: &'a mut ProcessContext,
    recorder: TraceRecorder,
}

impl TaskCtx<'_> {
    /// Drives the runner until the fed intent completes (or, after
    /// `finish`, until the task has terminated).
    fn drive(&mut self) -> SegControl {
        seg::drive(self.kctx, |ctx| self.runner.advance(ctx))
    }

    /// Runs `f` on this task's RTOS state, locking the world.
    fn with_state<R>(&self, accessor: &'static str, f: impl FnOnce(&mut RtosState) -> R) -> R {
        let rtos = self.runner.handle.rtos;
        f(self.recorder.world().lock_for(accessor).get_mut(rtos.state))
    }

    /// Current simulation time.
    pub fn now(&self) -> SimTime {
        self.kctx.now()
    }

    /// This task's id.
    pub fn id(&self) -> TaskId {
        self.runner.handle.id
    }

    /// This task's name.
    pub fn name(&self) -> &str {
        self.runner.name()
    }

    /// This task's trace actor.
    pub fn actor(&self) -> ActorId {
        self.runner.actor()
    }

    /// This task's current (possibly boosted) priority.
    pub fn priority(&self) -> Priority {
        let id = self.id();
        self.with_state("TaskCtx::priority", |st| st.entry(id).priority)
    }

    /// A handle for waking this task from elsewhere.
    pub fn handle(&self) -> TaskHandle {
        self.runner.handle()
    }

    /// Consumes `d` of CPU time. Preemptible: hardware events or
    /// higher-priority activations suspend the task mid-computation and
    /// the remaining time survives exactly (no clock granularity).
    pub fn execute(&mut self, d: SimDuration) {
        self.runner.execute(d);
        self.drive();
    }

    /// Releases the CPU and sleeps until `d` after the call instant, then
    /// competes for the CPU again.
    pub fn delay(&mut self, d: SimDuration) {
        self.runner.delay(self.kctx.now(), d);
        self.drive();
    }

    /// Blocks until woken via [`TaskHandle::wake`]. Building block for
    /// communication relations; `resource` selects the waiting-for-
    /// resource trace state (mutual exclusion) over plain Waiting.
    pub fn suspend(&mut self, resource: bool) {
        self.runner.suspend(resource);
        self.drive();
    }

    /// Enters a critical region: this task cannot be preempted until the
    /// matching [`unlock_preemption`](TaskCtx::unlock_preemption). Nests.
    pub fn lock_preemption(&mut self) {
        self.runner.lock_preemption(&mut self.kctx.world());
    }

    /// Leaves a critical region. If a more urgent task became ready during
    /// the region, the caller is preempted here, on the spot.
    ///
    /// # Panics
    ///
    /// Panics if no region is active.
    pub fn unlock_preemption(&mut self) {
        let now = self.kctx.now();
        self.runner.unlock_preemption(&mut self.kctx.world(), now);
        self.drive();
    }

    /// Forces a scheduling decision now: yields if the policy's best
    /// ready candidate outranks this task — needed after operations that
    /// change priorities without waking anyone (e.g. restoring a
    /// priority-ceiling boost at the end of a critical section).
    pub fn reschedule(&mut self) {
        let now = self.kctx.now();
        self.runner.reschedule(&mut self.kctx.world(), now);
        self.drive();
    }

    /// Switches the whole processor's preemptive mode (paper §3.1: the
    /// mode "can be changed during the simulation").
    pub fn set_preemptive(&mut self, preemptive: bool) {
        let rtos = self.runner.handle.rtos;
        self.kctx.world().get_mut(rtos.state).preemptive = preemptive;
    }

    /// Direct access to the kernel process context, for advanced models
    /// (raw event waits, notifications).
    pub fn kernel(&mut self) -> &mut ProcessContext {
        self.kctx
    }

    /// The recorder this task traces into.
    pub fn recorder(&self) -> &TraceRecorder {
        &self.recorder
    }

    /// Annotates the trace at the current instant (anchor for TimeLine
    /// measurements).
    pub fn annotate(&mut self, label: &str) {
        Party::annotate(self, label);
    }

    /// This task's current state as known to the RTOS.
    pub fn state(&self) -> TaskState {
        let id = self.id();
        self.with_state("TaskCtx::state", |st| st.entry(id).state)
    }
}

impl fmt::Debug for TaskCtx<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TaskCtx")
            .field("task", &self.name())
            .field("id", &self.id())
            .field("now", &self.now())
            .finish()
    }
}
