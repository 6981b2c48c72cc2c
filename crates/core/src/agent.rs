//! The [`Agent`] abstraction: MCSE function bodies independent of their
//! mapping.
//!
//! The MCSE methodology the paper builds on describes a system as
//! *functions* connected by relations, and then explores mapping each
//! function onto a software processor (serialized by the RTOS) or onto
//! hardware (fully concurrent). Writing function bodies against
//! `&mut dyn Agent` makes the body mapping-agnostic: `execute` costs
//! preemptible CPU time on a SW processor but plain wall simulation time
//! in hardware, `suspend`/wake go through the RTOS or through a raw
//! kernel event, and so on, so a `rtsim-comm` queue connects a HW
//! producer to a SW consumer unchanged.
//!
//! [`Party`] holds the calls that never block and [`Agent`] adds the
//! blocking ones: a relation operation steps through a `Party`, and a
//! step machine's [`SegAgent`](crate::SegAgent), only a `Party`, cannot
//! reach a blocking call.

use std::fmt;

use rtsim_kernel::world::Slot;
use rtsim_kernel::{Event, KernelHandle, ProcessContext, SimDuration, SimTime, Simulator};
use rtsim_trace::{ActorId, TraceLog, TraceRecorder};

use crate::processor::{TaskCtx, TaskHandle};
use crate::seg::{self, register_seg_hw, SegControl, SegHwRunner};

/// How to wake a suspended agent from another simulation process.
///
/// For a task this goes through the RTOS (`TaskIsReady`, possibly
/// preempting); for a hardware function it is a raw kernel notification
/// with a latch so a wake issued before the suspend is not lost. Ids
/// only, so copying is free.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Waiter {
    /// Wake an RTOS task.
    Task(TaskHandle),
    /// Wake a hardware function.
    Hw(HwWaker),
}

impl Waiter {
    /// Wakes the agent. Must be called from within a simulation process
    /// (`h` is the caller's kernel handle, in either execution mode).
    /// Idempotent.
    pub fn wake(&self, h: &mut dyn KernelHandle) {
        match self {
            Waiter::Task(handle) => handle.wake(h),
            Waiter::Hw(waker) => waker.wake(h),
        }
    }
}

impl fmt::Debug for Waiter {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Waiter::Task(h) => write!(f, "Waiter::Task({})", h.actor()),
            Waiter::Hw(_) => f.write_str("Waiter::Hw"),
        }
    }
}

/// Latching waker for a hardware function: a wake that arrives while the
/// function is not suspended is remembered, in its latch slot of the
/// simulation world, until its next suspend.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct HwWaker {
    pub(crate) event: Event,
    pub(crate) latch: Slot<bool>,
}

impl HwWaker {
    /// Wakes the hardware function (latched).
    pub fn wake(&self, h: &mut dyn KernelHandle) {
        *h.world().get_mut(self.latch) = true;
        h.notify(self.event);
    }
}

/// The calls of a behaviour's runtime context that never block: what a
/// relation operation steps through. Implemented by every [`Agent`] and
/// by a step machine's [`SegAgent`](crate::SegAgent).
pub trait Party {
    /// Current simulation time.
    fn now(&self) -> SimTime;

    /// How other processes wake this agent.
    fn waiter(&self) -> Waiter;

    /// This agent's trace actor.
    fn trace_actor(&self) -> ActorId;

    /// The slot of the trace log this agent records into: reach it
    /// through [`kernel`](Party::kernel)`().world()`.
    fn log(&self) -> Slot<TraceLog>;

    /// The raw kernel handle (for notifications issued on this agent's
    /// behalf): the thread's [`rtsim_kernel::ProcessContext`] for a
    /// closure body, the step's [`rtsim_kernel::SegmentCtx`] for a
    /// script.
    fn kernel(&mut self) -> &mut dyn KernelHandle;

    /// Enters a critical region (no-op in hardware).
    fn lock_preemption(&mut self) {}

    /// Annotates the trace at the current instant — the anchor for
    /// TimeLine measurements and reaction-time constraints.
    fn annotate(&mut self, label: &str) {
        let (now, actor, log) = (self.now(), self.trace_actor(), self.log());
        self.kernel()
            .world()
            .get_mut(log)
            .annotate(actor, now, label);
    }
}

/// A behaviour's runtime context, independent of HW/SW mapping: the
/// [`Party`] calls plus the blocking ones.
///
/// Implemented by [`TaskCtx`] (software task under the RTOS) and
/// [`HwCtx`] (concurrent hardware function).
pub trait Agent: Party {
    /// Consumes `d` of computation time (preemptible on a SW processor;
    /// plain elapsed time in hardware).
    fn execute(&mut self, d: SimDuration);

    /// Sleeps for `d` (releasing the CPU on a SW processor).
    fn delay(&mut self, d: SimDuration);

    /// Blocks until woken through this agent's [`Waiter`]. `resource`
    /// selects the waiting-for-resource trace state.
    fn suspend(&mut self, resource: bool);

    /// Leaves a critical region (no-op in hardware).
    fn unlock_preemption(&mut self) {}

    /// Forces a scheduling decision if more urgent work became eligible
    /// through a priority change (no-op in hardware).
    fn reschedule(&mut self) {}

    /// This agent's relative deadline, if it is a task with one
    /// configured (`None` in hardware — no RTOS, no deadline).
    fn relative_deadline(&self) -> Option<SimDuration> {
        None
    }

    /// Changes the relative deadline in force from the next activation
    /// on (no-op in hardware). Fault-degraded modes use this to relax a
    /// task's timing contract (see the `rtsim-fault` crate).
    fn set_relative_deadline(&mut self, deadline: Option<SimDuration>) {
        let _ = deadline;
    }
}

impl Party for TaskCtx<'_> {
    fn now(&self) -> SimTime {
        TaskCtx::now(self)
    }

    fn waiter(&self) -> Waiter {
        Waiter::Task(self.handle())
    }

    fn trace_actor(&self) -> ActorId {
        self.actor()
    }

    fn log(&self) -> Slot<TraceLog> {
        TaskCtx::recorder(self).log()
    }

    fn kernel(&mut self) -> &mut dyn KernelHandle {
        TaskCtx::kernel(self)
    }

    fn lock_preemption(&mut self) {
        TaskCtx::lock_preemption(self);
    }
}

impl Agent for TaskCtx<'_> {
    fn execute(&mut self, d: SimDuration) {
        TaskCtx::execute(self, d);
    }

    fn delay(&mut self, d: SimDuration) {
        TaskCtx::delay(self, d);
    }

    fn suspend(&mut self, resource: bool) {
        TaskCtx::suspend(self, resource);
    }

    fn unlock_preemption(&mut self) {
        TaskCtx::unlock_preemption(self);
    }

    fn reschedule(&mut self) {
        TaskCtx::reschedule(self);
    }

    fn relative_deadline(&self) -> Option<SimDuration> {
        let (handle, world) = (self.handle(), TaskCtx::recorder(self).world());
        handle.relative_deadline_in(&world.lock_for("TaskCtx::relative_deadline"))
    }

    fn set_relative_deadline(&mut self, deadline: Option<SimDuration>) {
        let handle = self.handle();
        handle.set_relative_deadline(self.kernel(), deadline);
    }
}

/// The runtime context of a hardware function: fully concurrent, no RTOS.
///
/// Created by [`spawn_hw_function`]. Each blocking call feeds one intent
/// to the function's [`SegHwRunner`] and performs the waits it yields on
/// the function's thread.
pub struct HwCtx<'a> {
    runner: SegHwRunner,
    kctx: &'a mut ProcessContext,
    recorder: TraceRecorder,
}

impl HwCtx<'_> {
    /// Annotates the trace at the current instant.
    pub fn annotate(&mut self, label: &str) {
        Party::annotate(self, label);
    }

    /// Drives the runner until the fed intent completes (or, after
    /// `finish`, until the function has terminated).
    fn drive(&mut self) -> SegControl {
        seg::drive(self.kctx, |ctx| self.runner.advance(ctx))
    }
}

impl fmt::Debug for HwCtx<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("HwCtx")
            .field("actor", &self.runner.actor())
            .field("now", &self.kctx.now())
            .finish()
    }
}

impl Party for HwCtx<'_> {
    fn now(&self) -> SimTime {
        self.kctx.now()
    }

    fn waiter(&self) -> Waiter {
        self.runner.waiter()
    }

    fn trace_actor(&self) -> ActorId {
        self.runner.actor()
    }

    fn log(&self) -> Slot<TraceLog> {
        self.recorder.log()
    }

    fn kernel(&mut self) -> &mut dyn KernelHandle {
        self.kctx
    }
}

impl Agent for HwCtx<'_> {
    fn execute(&mut self, d: SimDuration) {
        // Hardware is fully concurrent: computing is just elapsed time.
        self.runner.execute(d);
        self.drive();
    }

    fn delay(&mut self, d: SimDuration) {
        self.runner.delay(d);
        self.drive();
    }

    fn suspend(&mut self, resource: bool) {
        self.runner.suspend(resource);
        self.drive();
    }
}

/// Spawns a hardware function: a fully concurrent behaviour outside any
/// RTOS (the paper's `Clock` in Figure 6 is one).
///
/// The body runs once from time zero; periodic stimuli loop internally.
/// It blocks, so it runs on a thread process in both execution modes;
/// its calls drive the same [`SegHwRunner`] a script uses.
///
/// # Examples
///
/// ```
/// use rtsim_core::{spawn_hw_function, Agent};
/// use rtsim_kernel::{SimDuration, Simulator};
/// use rtsim_trace::TraceRecorder;
///
/// # fn main() -> Result<(), rtsim_kernel::KernelError> {
/// let mut sim = Simulator::new();
/// let rec = TraceRecorder::new();
/// spawn_hw_function(&mut sim, &rec, "Clock", |hw| {
///     for _ in 0..3 {
///         hw.delay(SimDuration::from_us(10));
///     }
/// });
/// sim.run()?;
/// assert_eq!(sim.now().as_us(), 30);
/// # Ok(())
/// # }
/// ```
pub fn spawn_hw_function<F>(
    sim: &mut Simulator,
    recorder: &TraceRecorder,
    name: &str,
    body: F,
) -> Waiter
where
    F: FnOnce(&mut HwCtx<'_>) + Send + 'static,
{
    let runner = register_seg_hw(sim, recorder, name);
    let waiter = runner.waiter();
    let recorder = recorder.clone();
    sim.spawn(name, move |kctx| {
        let mut hw = HwCtx {
            runner,
            kctx,
            recorder,
        };
        // Records Creation and Running.
        hw.drive();
        body(&mut hw);
        hw.runner.finish();
        hw.drive();
    });
    waiter
}
