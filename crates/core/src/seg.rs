//! Step machines for tasks and hardware functions: the one
//! implementation of the RTOS primitives.
//!
//! A task is a **frame stack**. Every RTOS primitive (acquiring the CPU,
//! `execute`, `delay`, `suspend`, the relinquish protocol) is a frame
//! here that mutates the RTOS state, records the trace and asks its
//! caller to perform the waits. The runners deliberately know nothing
//! about what the task computes: their owner calls
//! [`SegTaskRunner::advance`] until it reports [`SegControl::Idle`],
//! feeds the next intent ([`SegTaskRunner::execute`],
//! [`delay`](SegTaskRunner::delay), ...), and performs every
//! [`SegControl::Yield`].
//!
//! Two owners exist. A script (see `rtsim-mcse`) sits in a kernel
//! segment process and forwards each yield to the kernel, inline in the
//! scheduler loop or on a thread, as the
//! [`ExecMode`](rtsim_kernel::ExecMode) decides. A closure body
//! ([`Processor::spawn_task`](crate::Processor::spawn_task),
//! [`spawn_hw_function`](crate::spawn_hw_function)) runs on a thread, and
//! each of its blocking calls pushes an intent and then performs the
//! yields itself as blocking waits. Either way the same frames run, so
//! every body produces the same schedule in both modes.
//!
//! A runner reaches its processor's RTOS state and the trace log through
//! the world its step lends: one borrow per [`SegTaskRunner::advance`],
//! no lock.
//!
//! The frames do not depend on the engine or the core count either. The
//! acquire frame waits for the grant, then consumes the wake-time
//! overheads the dispatch armed, in one fixed order (scheduling,
//! migration, context load); approach A arms none, because its RTOS
//! coroutine consumes every overhead itself.

use std::sync::Arc;

use rtsim_kernel::world::{share, Slot, World};
use rtsim_kernel::{
    Notifier, ProcessContext, SegmentCtx, SimDuration, SimTime, Simulator, WaitRequest, Wake,
};
use rtsim_trace::{ActorId, ActorKind, TaskState, TraceLog, TraceRecorder};

use crate::agent::{HwWaker, Party, Waiter};
use crate::engine::{self, RelStep, RtosState, WAKE_ORDER};
use crate::processor::TaskHandle;
use crate::task::TaskId;

/// What the owner of a runner must do after an
/// [`advance`](SegTaskRunner::advance) call.
#[derive(Debug)]
pub enum SegControl {
    /// Return this wait from the kernel segment; call `advance` again on
    /// the next dispatch.
    Yield(WaitRequest),
    /// The task is Running with no operation in flight: feed the next
    /// intent, then `advance` again.
    Idle,
    /// The task terminated; return `SegStep::Done`.
    Finished,
}

/// Advances a runner on its own thread until it is idle or finished,
/// performing each wait it yields as a blocking wait on `kctx`. Returns
/// [`SegControl::Idle`] or [`SegControl::Finished`].
///
/// This is how closure bodies use the frames: each blocking call of
/// [`TaskCtx`](crate::TaskCtx) or [`HwCtx`](crate::HwCtx) feeds one
/// intent, then drives. The first step of a drive reads no wake cause
/// (frames only read it after their own yield), so it reports a timeout.
pub(crate) fn drive(
    kctx: &mut ProcessContext,
    mut advance: impl FnMut(&mut SegmentCtx<'_>) -> SegControl,
) -> SegControl {
    let mut wake = Wake::Timeout;
    loop {
        match kctx.step(wake, &mut advance) {
            SegControl::Yield(request) => wake = kctx.wait(request),
            control => return control,
        }
    }
}

/// One suspended RTOS operation of a task (LIFO stack).
#[derive(Clone)]
enum Frame {
    /// First activation: record Creation, go ready, wait for dispatch.
    Start,
    /// Waiting for the CPU grant, then consuming the wake-time overheads
    /// and entering Running.
    Acquire(AcqStage),
    /// One give-up of the CPU, driven phase by phase through
    /// [`Engine::relinquish_step`].
    Relinquish {
        next_state: TaskState,
        requeue: bool,
        phase: u8,
    },
    /// Preemptible computation (see [`step_execute`]). `started` is
    /// `Some` while a wait is in flight; its take distinguishes a fresh
    /// loop entry from wake processing.
    Execute {
        remaining: SimDuration,
        started: Option<SimTime>,
    },
    /// Timed sleep with a pre-computed wake instant: the task sleeps in
    /// Waiting, then re-activates. The wake instant is `call time + d`
    /// regardless of the RTOS overhead spent giving the CPU up.
    Delay { wake_at: SimTime, slept: bool },
}

/// Progress through the acquire protocol.
#[derive(Clone)]
enum AcqStage {
    /// Check/await the CPU grant.
    Poll,
    /// The CPU is granted: consume the armed wake-time overheads
    /// ([`TaskEntry::wake`](crate::engine::TaskEntry::wake)) one wait at
    /// a time, then enter Running.
    Granted,
}

/// Outcome of stepping one frame. The frames a step asks for are named,
/// not built: [`SegTaskRunner::advance`] pushes them onto the runner's
/// own stack.
enum FrameStep {
    /// Suspend here; re-step this frame on the next dispatch.
    Yield(WaitRequest),
    /// The frame completed.
    Pop,
    /// Keep this frame; first give the CPU up as Ready (requeued) and win
    /// it back — a preemption or a quantum rotation.
    Requeue,
    /// Replace this frame by a wait for the CPU grant.
    Reacquire,
}

/// Pushes the relinquish + re-acquire pair every yield of the CPU goes
/// through (the relinquish on top, so it runs first).
fn push_resume(stack: &mut Vec<Frame>, next_state: TaskState, requeue: bool) {
    stack.push(Frame::Acquire(AcqStage::Poll));
    stack.push(Frame::Relinquish {
        next_state,
        requeue,
        phase: 0,
    });
}

fn step_start(
    st: &mut RtosState,
    log: &mut TraceLog,
    n: &mut Notifier<'_>,
    me: TaskId,
) -> FrameStep {
    st.set_task_state(log, me, n.now(), TaskState::Created);
    engine::make_ready(st, log, n, me);
    FrameStep::Reacquire
}

fn acquire_finish(st: &mut RtosState, log: &mut TraceLog, now: SimTime, me: TaskId) -> FrameStep {
    st.note_core(log, me, now);
    st.set_task_state(log, me, now, TaskState::Running);
    let entry = st.entry_mut(me);
    entry.dispatched_at = now;
    if let Some(core) = entry.core {
        entry.last_core = Some(core);
    }
    FrameStep::Pop
}

fn step_acquire(
    st: &mut RtosState,
    log: &mut TraceLog,
    now: SimTime,
    me: TaskId,
    stage: &mut AcqStage,
) -> FrameStep {
    let entry = st.entry_mut(me);
    if let AcqStage::Poll = stage {
        if !std::mem::take(&mut entry.run_granted) {
            return FrameStep::Yield(WaitRequest::event(entry.run_event));
        }
        *stage = AcqStage::Granted;
    }
    let next = WAKE_ORDER
        .into_iter()
        .zip(&mut entry.wake)
        .find_map(|(kind, d)| Some((kind, d.take()?)));
    match next {
        Some((kind, d)) => {
            st.record_overhead(log, me, now, kind, d);
            FrameStep::Yield(WaitRequest::time(d))
        }
        None => acquire_finish(st, log, now, me),
    }
}

fn step_relinquish(
    st: &mut RtosState,
    log: &mut TraceLog,
    n: &mut Notifier<'_>,
    me: TaskId,
    next_state: TaskState,
    requeue: bool,
    phase: &mut u8,
) -> FrameStep {
    match engine::relinquish_step(st, log, n, me, next_state, requeue, *phase) {
        RelStep::Wait(d) => {
            *phase += 1;
            FrameStep::Yield(WaitRequest::time(d))
        }
        RelStep::Done => FrameStep::Pop,
    }
}

/// Consumes CPU time with time-accurate preemption and time-slice
/// support — the paper's headline mechanism. A computing task waits for
/// its **remaining computation time or its preemption event, whichever
/// comes first** (`WaitRequest::event_for`). On preemption the elapsed
/// time is subtracted exactly: no quantum or clock granularity is
/// involved, unlike the SpecC model the paper compares against.
///
/// When the processor configures a preemption granularity, the task
/// instead computes in uninterruptible chunks of that size, checking for
/// preemption only at chunk boundaries — the clock-driven baseline model
/// whose reaction error the paper's time-accurate approach eliminates.
fn step_execute(
    st: &mut RtosState,
    now: SimTime,
    wake: Wake,
    me: TaskId,
    remaining: &mut SimDuration,
    started: &mut Option<SimTime>,
) -> FrameStep {
    if let Some(s) = started.take() {
        // A computation wait just ended: account the elapsed time exactly
        // (the paper's time-accurate preemption), then classify the wake.
        let elapsed = now - s;
        *remaining = remaining.saturating_sub(elapsed);
        match wake {
            Wake::Event(_) => {
                // Preempted: the remaining time survives for the resume.
                st.entry_mut(me).preempt_pending = false;
                return FrameStep::Requeue;
            }
            Wake::Timeout => {
                if remaining.is_zero() {
                    return FrameStep::Pop;
                }
                if st.preemption_granularity.is_none() {
                    // Quantum expired with work left: rotate to the back.
                    st.stats.quantum_expirations += 1;
                    return FrameStep::Requeue;
                }
                // Chunk boundary of the clock-driven baseline: fall
                // through to re-check the preemption flags.
            }
        }
    }
    // A preemption may have been requested while the task was not waiting
    // on its preempt event (e.g. during a wake-overhead wait); honor it
    // before computing.
    let preempt_now = engine::take_preempt_pending(st, me);
    let slice = st.remaining_slice(me, now);
    if preempt_now {
        return FrameStep::Requeue;
    }
    if remaining.is_zero() {
        return FrameStep::Pop;
    }
    if slice == Some(SimDuration::ZERO) {
        // The quantum is already exhausted — e.g. a fresh `execute` right
        // after one that consumed the slice exactly. Rotate synchronously
        // instead of arming a zero-delay slice timer: the delta-cycle
        // yield the timer would introduce lets same-instant events
        // interleave with the rotation, and under a preemption
        // granularity it never advances time at all.
        st.stats.quantum_expirations += 1;
        return FrameStep::Requeue;
    }
    let bound = match slice {
        Some(s) => s.min(*remaining),
        None => *remaining,
    };
    *started = Some(now);
    match st.preemption_granularity {
        None => FrameStep::Yield(WaitRequest::event_for(st.entry(me).preempt_event, bound)),
        // Clock-driven baseline: compute one uninterruptible chunk;
        // preemption requests latch in `preempt_pending` and are honored
        // at the chunk boundary.
        Some(quantum) => FrameStep::Yield(WaitRequest::time(quantum.min(bound))),
    }
}

fn step_delay(
    st: &mut RtosState,
    log: &mut TraceLog,
    n: &mut Notifier<'_>,
    me: TaskId,
    wake_at: SimTime,
    slept: &mut bool,
) -> FrameStep {
    if !*slept {
        *slept = true;
        let now = n.now();
        if wake_at > now {
            return FrameStep::Yield(WaitRequest::time(wake_at - now));
        }
    }
    engine::make_ready(st, log, n, me);
    FrameStep::Reacquire
}

/// Drives one RTOS task as a frame stack.
///
/// Created by [`Processor::register_seg_task`](crate::Processor::register_seg_task);
/// the owner embeds it in a kernel segment process and loops
/// [`advance`](SegTaskRunner::advance).
///
/// Plain data and slot ids: cloning it copies the task's machine, which
/// is how a forked simulation gets its own, and `clone_from` writes the
/// frames into the stack the target already has.
pub struct SegTaskRunner {
    pub(crate) handle: TaskHandle,
    name: Arc<str>,
    stack: Vec<Frame>,
    done: bool,
}

impl Clone for SegTaskRunner {
    fn clone(&self) -> Self {
        SegTaskRunner {
            handle: self.handle,
            name: Arc::clone(&self.name),
            stack: self.stack.clone(),
            done: self.done,
        }
    }

    fn clone_from(&mut self, source: &Self) {
        self.handle = source.handle;
        share(&mut self.name, &source.name);
        self.stack.clone_from(&source.stack);
        self.done = source.done;
    }
}

impl SegTaskRunner {
    pub(crate) fn new(handle: TaskHandle, name: &str) -> Self {
        SegTaskRunner {
            handle,
            name: Arc::from(name),
            stack: vec![Frame::Start],
            done: false,
        }
    }

    /// Runs frames until one suspends, the stack drains while the task is
    /// Running (feed an intent), or the task has terminated. Borrows the
    /// processor's RTOS state from the step's world once for the call.
    pub fn advance(&mut self, ctx: &mut SegmentCtx<'_>) -> SegControl {
        let me = self.handle.id;
        let wake = ctx.wake();
        let (world, mut n) = ctx.split();
        let (st, log) = self.handle.rtos.borrow(world);
        loop {
            let Some(mut frame) = self.stack.pop() else {
                return if self.done {
                    SegControl::Finished
                } else {
                    SegControl::Idle
                };
            };
            let now = n.now();
            let step = match &mut frame {
                Frame::Start => step_start(st, log, &mut n, me),
                Frame::Acquire(stage) => step_acquire(st, log, now, me, stage),
                Frame::Relinquish {
                    next_state,
                    requeue,
                    phase,
                } => step_relinquish(st, log, &mut n, me, *next_state, *requeue, phase),
                Frame::Execute { remaining, started } => {
                    step_execute(st, now, wake, me, remaining, started)
                }
                Frame::Delay { wake_at, slept } => step_delay(st, log, &mut n, me, *wake_at, slept),
            };
            match step {
                FrameStep::Yield(req) => {
                    self.stack.push(frame);
                    return SegControl::Yield(req);
                }
                FrameStep::Pop => {}
                FrameStep::Requeue => {
                    self.stack.push(frame);
                    push_resume(&mut self.stack, TaskState::Ready, true);
                }
                FrameStep::Reacquire => self.stack.push(Frame::Acquire(AcqStage::Poll)),
            }
        }
    }

    /// Intent: consume `d` of preemptible CPU time
    /// (what [`TaskCtx::execute`](crate::TaskCtx::execute) performs).
    pub fn execute(&mut self, d: SimDuration) {
        self.push_intent(Frame::Execute {
            remaining: d,
            started: None,
        });
    }

    /// Intent: release the CPU until `d` after `now`
    /// (what [`TaskCtx::delay`](crate::TaskCtx::delay) performs).
    pub fn delay(&mut self, now: SimTime, d: SimDuration) {
        let wake_at = now.saturating_add(d);
        self.push_intent(Frame::Delay {
            wake_at,
            slept: false,
        });
        self.stack.push(Frame::Relinquish {
            next_state: TaskState::Waiting,
            requeue: false,
            phase: 0,
        });
    }

    /// Intent: block until woken through this task's [`Waiter`]
    /// (what [`TaskCtx::suspend`](crate::TaskCtx::suspend) performs).
    pub fn suspend(&mut self, resource: bool) {
        let state = if resource {
            TaskState::WaitingResource
        } else {
            TaskState::Waiting
        };
        debug_assert!(
            self.stack.is_empty(),
            "intent while an operation is in flight"
        );
        push_resume(&mut self.stack, state, false);
    }

    /// Intent: terminate the task. After the final relinquish completes,
    /// [`advance`](SegTaskRunner::advance) reports `Finished`.
    pub fn finish(&mut self) {
        debug_assert!(
            self.stack.is_empty(),
            "intent while an operation is in flight"
        );
        self.done = true;
        self.stack.push(Frame::Relinquish {
            next_state: TaskState::Terminated,
            requeue: false,
            phase: 0,
        });
    }

    /// The task's RTOS state in `world`.
    fn rtos<'w>(&self, world: &'w mut World) -> &'w mut RtosState {
        world.get_mut(self.handle.rtos.state)
    }

    /// Enters a critical region (never blocks; see
    /// [`TaskCtx::lock_preemption`](crate::TaskCtx::lock_preemption)).
    pub fn lock_preemption(&mut self, world: &mut World) {
        engine::lock_preemption(self.rtos(world), self.handle.id);
    }

    /// Leaves a critical region; if a more urgent task became ready during
    /// it, queues the on-the-spot preemption.
    pub fn unlock_preemption(&mut self, world: &mut World, now: SimTime) {
        if engine::unlock_preemption_yields(self.rtos(world), self.handle.id, now) {
            self.push_intent_pair();
        }
    }

    /// Forces a scheduling decision after a priority change (what
    /// [`TaskCtx::reschedule`](crate::TaskCtx::reschedule) performs).
    pub fn reschedule(&mut self, world: &mut World, now: SimTime) {
        if engine::reschedule_yields(self.rtos(world), self.handle.id, now) {
            self.push_intent_pair();
        }
    }

    fn push_intent(&mut self, frame: Frame) {
        debug_assert!(
            self.stack.is_empty(),
            "intent while an operation is in flight"
        );
        self.stack.push(frame);
    }

    fn push_intent_pair(&mut self) {
        debug_assert!(
            self.stack.is_empty(),
            "intent while an operation is in flight"
        );
        push_resume(&mut self.stack, TaskState::Ready, true);
    }

    /// A handle for waking this task from elsewhere.
    pub fn handle(&self) -> TaskHandle {
        self.handle
    }

    /// This task's trace actor.
    pub fn actor(&self) -> ActorId {
        self.handle.actor
    }

    /// This task's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// A [`Party`] view over this task for the non-blocking operations
    /// (relation steps); what blocks is fed to the runner as an intent.
    pub fn agent<'c, 'a>(&self, ctx: &'c mut SegmentCtx<'a>) -> SegAgent<'c, 'a> {
        SegAgent {
            ctx,
            waiter: Waiter::Task(self.handle),
            actor: self.handle.actor,
            log: self.handle.rtos.log,
        }
    }
}

impl std::fmt::Debug for SegTaskRunner {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SegTaskRunner")
            .field("task", &self.name)
            .field("frames", &self.stack.len())
            .field("done", &self.done)
            .finish()
    }
}

/// One suspended operation of a hardware function.
#[derive(Clone)]
enum HwFrame {
    Execute { d: SimDuration, slept: bool },
    Delay { d: SimDuration, slept: bool },
    Suspend { resource: bool, announced: bool },
}

/// Drives one hardware function (fully concurrent, no RTOS) as a frame
/// stack: the operations behind [`HwCtx`](crate::HwCtx).
///
/// Created by [`register_seg_hw`]. Plain data and slot ids, like
/// [`SegTaskRunner`], and copied into a target's stack the same way.
pub struct SegHwRunner {
    waker: HwWaker,
    actor: ActorId,
    log: Slot<TraceLog>,
    stack: Vec<HwFrame>,
    started: bool,
    done: bool,
}

impl Clone for SegHwRunner {
    fn clone(&self) -> Self {
        SegHwRunner {
            waker: self.waker,
            actor: self.actor,
            log: self.log,
            stack: self.stack.clone(),
            started: self.started,
            done: self.done,
        }
    }

    fn clone_from(&mut self, source: &Self) {
        self.waker = source.waker;
        self.actor = source.actor;
        self.log = source.log;
        self.stack.clone_from(&source.stack);
        self.started = source.started;
        self.done = source.done;
    }
}

/// Registers a hardware function: creates its trace actor, wake event
/// and wake latch, but spawns no process — the caller embeds the
/// returned runner in a kernel segment (or, for a closure body,
/// [`spawn_hw_function`](crate::spawn_hw_function) drives it on a
/// thread). Attaches `recorder`'s world to `sim`.
pub fn register_seg_hw(sim: &mut Simulator, recorder: &TraceRecorder, name: &str) -> SegHwRunner {
    sim.attach_world(recorder.world());
    let actor = recorder.register(name, ActorKind::Task);
    let event = sim.event(&format!("{name}.hw_wake"));
    let latch = recorder.world().lock_for("register_seg_hw").insert(false);
    SegHwRunner {
        waker: HwWaker { event, latch },
        actor,
        log: recorder.log(),
        stack: Vec::new(),
        started: false,
        done: false,
    }
}

impl SegHwRunner {
    /// Runs frames until one suspends, the stack drains (feed an intent),
    /// or the function has finished.
    pub fn advance(&mut self, ctx: &mut SegmentCtx<'_>) -> SegControl {
        let now = ctx.now();
        let (log, latch) = ctx.world().pair_mut(self.log, self.waker.latch);
        if !self.started {
            self.started = true;
            log.state(self.actor, now, TaskState::Created);
            log.state(self.actor, now, TaskState::Running);
        }
        loop {
            let Some(frame) = self.stack.last_mut() else {
                if self.done {
                    log.state(self.actor, now, TaskState::Terminated);
                    return SegControl::Finished;
                }
                return SegControl::Idle;
            };
            match frame {
                HwFrame::Execute { d, slept } => {
                    if !*slept {
                        *slept = true;
                        return SegControl::Yield(WaitRequest::time(*d));
                    }
                    self.stack.pop();
                }
                HwFrame::Delay { d, slept } => {
                    if !*slept {
                        log.state(self.actor, now, TaskState::Waiting);
                        *slept = true;
                        return SegControl::Yield(WaitRequest::time(*d));
                    }
                    log.state(self.actor, now, TaskState::Running);
                    self.stack.pop();
                }
                HwFrame::Suspend {
                    resource,
                    announced,
                } => {
                    if !*announced {
                        let state = if *resource {
                            TaskState::WaitingResource
                        } else {
                            TaskState::Waiting
                        };
                        log.state(self.actor, now, state);
                        *announced = true;
                    }
                    if std::mem::take(latch) {
                        log.state(self.actor, now, TaskState::Running);
                        self.stack.pop();
                    } else {
                        return SegControl::Yield(WaitRequest::event(self.waker.event));
                    }
                }
            }
        }
    }

    /// Intent: consume `d` of (concurrent) computation time.
    pub fn execute(&mut self, d: SimDuration) {
        debug_assert!(
            self.stack.is_empty(),
            "intent while an operation is in flight"
        );
        self.stack.push(HwFrame::Execute { d, slept: false });
    }

    /// Intent: sleep for `d`.
    pub fn delay(&mut self, d: SimDuration) {
        debug_assert!(
            self.stack.is_empty(),
            "intent while an operation is in flight"
        );
        self.stack.push(HwFrame::Delay { d, slept: false });
    }

    /// Intent: block until woken through this function's [`Waiter`].
    pub fn suspend(&mut self, resource: bool) {
        debug_assert!(
            self.stack.is_empty(),
            "intent while an operation is in flight"
        );
        self.stack.push(HwFrame::Suspend {
            resource,
            announced: false,
        });
    }

    /// Intent: the function's body is over; record Termination.
    pub fn finish(&mut self) {
        debug_assert!(
            self.stack.is_empty(),
            "intent while an operation is in flight"
        );
        self.done = true;
    }

    /// How other processes wake this function.
    pub fn waiter(&self) -> Waiter {
        Waiter::Hw(self.waker)
    }

    /// This function's trace actor.
    pub fn actor(&self) -> ActorId {
        self.actor
    }

    /// A [`Party`] view over this function for the non-blocking
    /// operations (relation steps).
    pub fn agent<'c, 'a>(&self, ctx: &'c mut SegmentCtx<'a>) -> SegAgent<'c, 'a> {
        SegAgent {
            ctx,
            waiter: Waiter::Hw(self.waker),
            actor: self.actor,
            log: self.log,
        }
    }
}

impl std::fmt::Debug for SegHwRunner {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SegHwRunner")
            .field("actor", &self.actor)
            .field("frames", &self.stack.len())
            .field("done", &self.done)
            .finish()
    }
}

/// The [`Party`] view of a task or hardware function inside a step:
/// time, notifications, the lent world, waiter, tracing and the
/// preemption lock. It has no blocking call; a step machine feeds those
/// to the runner as intents between relation steps.
pub struct SegAgent<'c, 'a> {
    ctx: &'c mut SegmentCtx<'a>,
    waiter: Waiter,
    actor: ActorId,
    log: Slot<TraceLog>,
}

impl Party for SegAgent<'_, '_> {
    fn now(&self) -> SimTime {
        self.ctx.now()
    }

    fn waiter(&self) -> Waiter {
        self.waiter
    }

    fn trace_actor(&self) -> ActorId {
        self.actor
    }

    fn log(&self) -> Slot<TraceLog> {
        self.log
    }

    fn kernel(&mut self) -> &mut dyn rtsim_kernel::KernelHandle {
        self.ctx
    }

    fn lock_preemption(&mut self) {
        if let Waiter::Task(task) = self.waiter {
            engine::lock_preemption(self.ctx.world().get_mut(task.rtos.state), task.id);
        }
    }
}

impl std::fmt::Debug for SegAgent<'_, '_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SegAgent")
            .field("actor", &self.actor)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtsim_kernel::SegStep;

    /// Every wait passes up from a frame through its runner to the kernel
    /// in these enums, copied at each step up, so a wider wait widens
    /// every copy.
    #[test]
    fn waits_and_steps_are_16_bytes() {
        use std::mem::size_of;
        assert_eq!(size_of::<WaitRequest>(), 16);
        assert_eq!(size_of::<FrameStep>(), 16);
        assert_eq!(size_of::<SegControl>(), 16);
        assert_eq!(size_of::<SegStep>(), 16);
    }
}
