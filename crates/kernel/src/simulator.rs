//! The public simulator front-end.

use crate::error::KernelError;
use crate::event::{Event, Wake};
use crate::process::{ProcessContext, ProcessId};
use crate::scheduler::{Home, Kernel, KernelStats};
use crate::segment::{ExecMode, KernelHandle, Notifier, SegMachine, SegStep, SegmentCtx};
use crate::time::{SimDuration, SimTime};
use crate::world::{SharedWorld, WorldRef};

/// A discrete-event simulator: the SystemC-engine stand-in that everything
/// in `rtsim` runs on.
///
/// Typical lifecycle: create the simulator, create [`Event`]s, spawn
/// processes (each an ordinary closure receiving a
/// [`ProcessContext`]), then [`run`](Simulator::run) or
/// [`run_until`](Simulator::run_until). The simulator may be run multiple
/// times; each call continues from where the previous one stopped.
///
/// The simulator owns the model's mutable state as one
/// [`World`](crate::world::World) and lends it to each step (see
/// [`crate::world`]). Between runs the testbench reaches that state
/// through the simulator's own [`KernelHandle`] implementation.
///
/// # Examples
///
/// ```
/// use rtsim_kernel::{SimDuration, SimTime, Simulator};
///
/// # fn main() -> Result<(), rtsim_kernel::KernelError> {
/// let mut sim = Simulator::new();
/// let ping = sim.event("ping");
/// let pong = sim.event("pong");
/// sim.spawn("a", move |ctx| {
///     for _ in 0..3 {
///         ctx.wait_for(SimDuration::from_ns(5));
///         ctx.notify(ping);
///         ctx.wait_event(pong);
///     }
/// });
/// sim.spawn("b", move |ctx| {
///     for _ in 0..3 {
///         ctx.wait_event(ping);
///         ctx.notify(pong);
///     }
/// });
/// sim.run()?;
/// assert_eq!(sim.now(), SimTime::from_ps(15_000));
/// # Ok(())
/// # }
/// ```
pub struct Simulator {
    kernel: Home,
    mode: ExecMode,
    world: SharedWorld,
    /// A world was attached (see [`Simulator::attach_world`]).
    attached: bool,
}

impl Simulator {
    /// Creates an empty simulator at time zero, with the execution mode
    /// taken from the `RTSIM_EXEC_MODE` environment variable (`thread` by
    /// default — see [`ExecMode::from_env`]).
    pub fn new() -> Self {
        Simulator::with_mode(ExecMode::from_env())
    }

    /// Creates an empty simulator with an explicit execution mode,
    /// ignoring the environment. Tests that compare the two modes use
    /// this to stay immune to env races.
    pub fn with_mode(mode: ExecMode) -> Self {
        Simulator {
            kernel: Home::new(Kernel::new()),
            mode,
            world: SharedWorld::new(),
            attached: false,
        }
    }

    /// Makes `world` the one this simulator lends to its steps. Model
    /// layers call this when they build state in a world of their own
    /// (a trace recorder's); attaching the same world again is a no-op.
    ///
    /// # Panics
    ///
    /// Panics if a different world was attached before, or if the
    /// simulator's own world already holds state: one simulation has
    /// exactly one world.
    pub fn attach_world(&mut self, world: &SharedWorld) {
        if self.world.same(world) {
            return;
        }
        assert!(
            !self.attached,
            "attach_world: this simulator already has another world attached \
             (build every processor, relation and hardware function of one \
             simulation on one trace recorder)"
        );
        assert!(
            self.world.lock_for("Simulator::attach_world").is_empty(),
            "attach_world: this simulator's own world already holds state"
        );
        self.world = world.clone();
        self.attached = true;
    }

    /// The execution mode: where [`spawn_segment`](Simulator::spawn_segment)
    /// runs its step machines. [`spawn`](Simulator::spawn) always backs
    /// its blocking closure with a thread.
    pub fn exec_mode(&self) -> ExecMode {
        self.mode
    }

    /// Creates a named event. See [`Event`] for notification semantics.
    pub fn event(&mut self, name: &str) -> Event {
        self.kernel.create_event(name)
    }

    /// Spawns a simulation process. The body starts executing (at the
    /// current simulation time) on the next `run`/`run_until` call.
    ///
    /// The body runs on an OS thread: one parked in this thread's pool,
    /// where dropping a simulator leaves its process threads, or else a
    /// new one. The thread is not named after the process; a panic in
    /// the body is reported by the process's name
    /// ([`KernelError::ProcessPanicked`]). Dropping the simulator unwinds
    /// every body still running and returns once each has dropped its
    /// captures.
    ///
    /// Processes may be spawned before the first run or between runs, but
    /// not from inside another process.
    pub fn spawn<F>(&mut self, name: &str, body: F) -> ProcessId
    where
        F: FnOnce(&mut ProcessContext) + Send + 'static,
    {
        self.kernel.spawn(name, body)
    }

    /// Spawns a segment process: a step machine that receives a
    /// [`SegmentCtx`] (clock, wake cause, notification buffer) and
    /// returns [`SegStep::Yield`] with the wait to perform, or
    /// [`SegStep::Done`].
    ///
    /// The [execution mode](Simulator::exec_mode) picks the host. In
    /// [`ExecMode::Segment`] the scheduler calls the machine inline, with
    /// no backing OS thread. In [`ExecMode::Thread`] a thread process
    /// (see [`spawn`](Simulator::spawn)) runs it, stepping it and waiting
    /// at each yield: a dispatch of this process right after another's
    /// costs one OS switch (the kernel is posted to the thread's one-slot
    /// mailbox, and the thread unparked), and one right after its own
    /// yield costs none.
    /// The machine is the same either way, and so are scheduling order,
    /// statistics and event semantics.
    ///
    /// The machine must be `Clone`: a simulator copies it, in its current
    /// state, when it is [forked](Simulator::fork). A machine therefore
    /// holds plain data and slot ids of the simulation world, never a
    /// handle to the world itself. A closure is spawned as it is (see
    /// [`spawn_machine`](Simulator::spawn_machine)); the bound is spelled
    /// out here so that the closure's argument types are inferred.
    pub fn spawn_segment<F>(&mut self, name: &str, body: F) -> ProcessId
    where
        F: FnMut(&mut SegmentCtx<'_>) -> SegStep + Clone + Send + 'static,
    {
        self.spawn_machine(name, body)
    }

    /// Spawns a segment process whose body is any [`SegMachine`], such as
    /// a named type; [`spawn_segment`](Simulator::spawn_segment) spawns a
    /// closure through here. Hosted as the execution mode decides, like
    /// every segment process.
    ///
    /// A fork into another simulator ([`fork_into`](Simulator::fork_into))
    /// writes the machine over that simulator's machine of the same type
    /// with `clone_from`, so a machine whose state has buffers should be a
    /// named type that reuses them there; a closure clones them anew.
    pub fn spawn_machine(&mut self, name: &str, mut body: impl SegMachine) -> ProcessId {
        match self.mode {
            ExecMode::Segment => self.kernel.spawn_segment(name, body),
            ExecMode::Thread => self.kernel.spawn(name, move |ctx| {
                // Like an inline segment, the first dispatch reports a
                // timeout wake.
                let mut wake = Wake::Timeout;
                while let SegStep::Yield(request) = ctx.step(wake, |c| body.step(c)) {
                    wake = ctx.wait(request);
                }
            }),
        }
    }

    /// A notifier applying straight to the idle kernel (testbench code
    /// between runs).
    fn notifier(&mut self) -> Notifier<'_> {
        let now = self.kernel.now();
        Notifier::kernel(now, &mut self.kernel)
    }

    /// Runs until event starvation (no runnable process and no pending
    /// notification).
    ///
    /// The run starts on this thread. Thread-backed processes hand the
    /// kernel on to one another, and it comes back here when the run
    /// ends.
    ///
    /// # Errors
    ///
    /// Returns [`KernelError::ProcessPanicked`] if a process body panics
    /// and [`KernelError::DeltaCycleOverflow`] on a zero-time livelock.
    pub fn run(&mut self) -> Result<(), KernelError> {
        self.kernel.run(None, &self.world, false).map(drop)
    }

    /// Runs until event starvation or until simulated time would pass
    /// `until`, whichever comes first. Activity scheduled exactly at
    /// `until` is processed, and afterwards [`now`](Simulator::now) is
    /// `until` (unless starvation happened first at a later implied time).
    ///
    /// # Errors
    ///
    /// Same as [`run`](Simulator::run).
    pub fn run_until(&mut self, until: SimTime) -> Result<(), KernelError> {
        self.kernel.run(Some(until), &self.world, false).map(drop)
    }

    /// Runs like [`run_until`](Simulator::run_until), but stops at the
    /// next choice point — two or more simultaneously eligible actions —
    /// and returns it, before performing any of them. `Ok(None)` means
    /// the run reached `until` (or starved) without meeting one.
    ///
    /// A stopped simulator keeps its place: [`candidate`](Simulator::candidate)
    /// names the eligible actions, [`decide`](Simulator::decide) picks
    /// one, and the next `run_to_choice` (or `run_until`) performs it and
    /// carries on. Calling it again without deciding stops at the same
    /// point. See [`crate::choice`].
    ///
    /// # Errors
    ///
    /// Same as [`run`](Simulator::run).
    ///
    /// # Examples
    ///
    /// ```
    /// use rtsim_kernel::{ChoiceKind, ExecMode, SegStep, SimTime, Simulator, WaitRequest};
    ///
    /// # fn main() -> Result<(), rtsim_kernel::KernelError> {
    /// let mut sim = Simulator::with_mode(ExecMode::Segment);
    /// for name in ["a", "b"] {
    ///     sim.spawn_segment(name, |_ctx| SegStep::Done);
    /// }
    /// let end = SimTime::from_ps(10);
    /// let point = sim.run_to_choice(end)?.expect("a and b start together");
    /// assert_eq!((point.kind, point.arity), (ChoiceKind::Dispatch, 2));
    ///
    /// // Copy the simulator here, then let each copy take another branch.
    /// let mut other = sim.fork().expect("segment processes copy");
    /// sim.decide(0);
    /// other.decide(1);
    /// // After the first dispatch only one process is left: no more ties.
    /// assert_eq!(sim.run_to_choice(end)?, None);
    /// assert_eq!(other.run_to_choice(end)?, None);
    /// assert_eq!(sim.stats(), other.stats());
    /// # let _ = WaitRequest::time;
    /// # Ok(())
    /// # }
    /// ```
    pub fn run_to_choice(
        &mut self,
        until: SimTime,
    ) -> Result<Option<crate::choice::ChoicePoint>, KernelError> {
        self.kernel.run(Some(until), &self.world, true)
    }

    /// Candidate `index` of the choice point the simulator is stopped at,
    /// in the kernel's stable order (index 0 is what a run that does not
    /// stop performs).
    ///
    /// # Panics
    ///
    /// Panics if the simulator is not stopped at a choice point, or if
    /// `index` is out of range.
    pub fn candidate(&self, index: usize) -> crate::choice::CandidateDetail {
        let point = self
            .kernel
            .stopped()
            .expect("candidate: the simulator is not stopped at a choice point");
        assert!(
            index < point.arity,
            "candidate: index {index} out of {}",
            point.arity
        );
        self.kernel.candidate_detail(point.kind, index)
    }

    /// The human-readable rendering of a candidate, e.g.
    /// `dispatch CPU.Task_1 <- Clk`.
    pub fn candidate_label(&self, detail: crate::choice::CandidateDetail) -> String {
        self.kernel.candidate_label(detail)
    }

    /// Decides the choice point the simulator is stopped at: the next run
    /// performs candidate `index` there.
    ///
    /// # Panics
    ///
    /// Panics if the simulator is not stopped at a choice point, or if
    /// `index` is out of range.
    pub fn decide(&mut self, index: usize) {
        self.kernel.decide(index);
    }

    /// A copy of this simulator at rest — between runs, or stopped at a
    /// choice point — that runs on independently: its own kernel, clock
    /// and [`World`](crate::world::World) (every slot
    /// copied under the same ids), and every segment machine copied in
    /// its current state. It is [`fork_into`](Simulator::fork_into) a new,
    /// empty simulator.
    ///
    /// `None` when a live process is thread-backed: its state is a stack
    /// on another thread, which cannot be copied.
    pub fn fork(&self) -> Option<Simulator> {
        let mut fork = Simulator::with_mode(self.mode);
        self.fork_into(&mut fork).then_some(fork)
    }

    /// Writes a [fork](Simulator::fork) of this simulator over `into`,
    /// which keeps its world handle, so whatever reaches `into`'s world
    /// reaches the copy. Buffers, machines and world slots of `into` that
    /// match this simulator's in type are written in place: forking into
    /// a simulator of the same elaboration allocates next to nothing.
    ///
    /// `false` when the copy cannot be made (see [`fork`](Simulator::fork));
    /// `into` is then partly written, and a later fork into it still
    /// writes all of it.
    ///
    /// # Panics
    ///
    /// Panics if both simulators lend the same world.
    pub fn fork_into(&self, into: &mut Simulator) -> bool {
        into.mode = self.mode;
        into.attached = self.attached;
        if !self.kernel.fork_into(&mut into.kernel) {
            return false;
        }
        self.world.fork_into(&into.world);
        true
    }

    /// The world this simulator lends to its steps.
    pub fn shared_world(&self) -> &SharedWorld {
        &self.world
    }

    /// Current simulation time.
    pub fn now(&self) -> SimTime {
        self.kernel.now()
    }

    /// Immediately notifies `event` from testbench context (outside any
    /// process). Takes effect in the next evaluation phase.
    pub fn notify(&mut self, event: Event) {
        self.kernel.notify_external(event);
    }

    /// Schedules a notification of `event` at absolute simulated time
    /// `at`, subject to the earliest-wins override rule.
    ///
    /// # Panics
    ///
    /// Panics if `at` is before [`now`](Simulator::now).
    pub fn notify_at(&mut self, event: Event, at: SimTime) {
        self.kernel.notify_at(event, at);
    }

    /// The name given to `event` at creation.
    pub fn event_name(&self, event: Event) -> &str {
        self.kernel.event_name(event)
    }

    /// The name given to `pid` at spawn.
    pub fn process_name(&self, pid: ProcessId) -> &str {
        self.kernel.process_name(pid)
    }

    /// Number of events created so far.
    pub fn event_count(&self) -> usize {
        self.kernel.event_count()
    }

    /// Number of processes spawned so far (dead or alive).
    pub fn process_count(&self) -> usize {
        self.kernel.process_count()
    }

    /// Number of processes that have not yet terminated.
    pub fn alive_processes(&self) -> usize {
        self.kernel.alive_processes()
    }

    /// Cumulative kernel statistics (process switches, delta cycles...).
    ///
    /// The process-switch counter is the measurement behind the paper's
    /// approach-A versus approach-B comparison (§4): the procedure-call
    /// RTOS model schedules without a dedicated RTOS process and therefore
    /// performs markedly fewer switches per scheduling action.
    pub fn stats(&self) -> KernelStats {
        self.kernel.stats
    }

    /// Overrides the delta-cycle livelock bound (default one million).
    pub fn set_max_delta_cycles(&mut self, limit: u64) {
        self.kernel.set_max_deltas(limit);
    }

    /// The time of the next pending activity, or `None` if the simulation
    /// has starved — the hook for lockstep co-simulation with an external
    /// engine: advance the partner to `next_activity()`, exchange events,
    /// `run_until` that instant, repeat.
    pub fn next_activity(&mut self) -> Option<SimTime> {
        self.kernel.next_activity()
    }
}

impl Default for Simulator {
    fn default() -> Self {
        Simulator::new()
    }
}

/// The testbench's handle between runs: notifications apply to the idle
/// kernel at once (as [`Simulator::notify`] does), and the world is
/// locked once per call.
impl KernelHandle for Simulator {
    fn now(&self) -> SimTime {
        Simulator::now(self)
    }
    fn notify(&mut self, event: Event) {
        self.notifier().notify(event);
    }
    fn notify_delta(&mut self, event: Event) {
        self.notifier().notify_delta(event);
    }
    fn notify_after(&mut self, event: Event, delay: SimDuration) {
        self.notifier().notify_after(event, delay);
    }
    fn cancel(&mut self, event: Event) {
        self.notifier().cancel(event);
    }
    fn split(&mut self) -> (WorldRef<'_>, Notifier<'_>) {
        let now = self.kernel.now();
        (
            WorldRef::Locked(self.world.lock_for("Simulator::world")),
            Notifier::kernel(now, &mut self.kernel),
        )
    }
}

impl std::fmt::Debug for Simulator {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Simulator")
            .field("mode", &self.mode)
            .field("now", &self.now())
            .field("processes", &self.process_count())
            .field("alive", &self.alive_processes())
            .field("events", &self.event_count())
            .field("stats", &self.stats())
            .finish()
    }
}
