//! Segment processes: step machines and their two hosts.
//!
//! The DATE 2004 paper's approach-B result hinges on modeling RTOS
//! services as plain procedure calls on the caller's thread instead of
//! coroutine switches. This module brings the same idea to the kernel
//! substrate itself: a **segment process** is a step machine
//! ([`SegMachine`], such as a closure `FnMut(&mut SegmentCtx) -> SegStep`).
//! Each call runs one segment to
//! completion and returns either [`SegStep::Yield`] with a
//! [`WaitRequest`] (the analogue of a `wait_*` call on
//! [`ProcessContext`]) or [`SegStep::Done`].
//!
//! [`ExecMode`] picks where step machines run. In `Segment` mode the
//! scheduler calls them *directly* inside its evaluation loop: zero
//! process threads, zero OS switches, no mailboxes on the hot path. In
//! `Thread` mode each one runs on its own OS thread, which performs
//! every yielded wait as a blocking [`ProcessContext::wait`]: the thread
//! runs the kernel on to the next dispatch, carries on if that is
//! itself, and otherwise hands the kernel to the next process's thread
//! (one OS switch). The machine and the scheduling protocol are the same
//! in both, so both produce the bit-identical event schedule.
//!
//! Every step receives the simulation [`World`] on loan through its
//! [`SegmentCtx`]: inline steps share the run loop's one loan, and a
//! thread-hosted step locks the world once (see [`crate::world`]).

use crate::event::{Event, Wake};
use crate::process::{NotifyOp, ProcessContext, ProcessId};
use crate::scheduler::Kernel;
use crate::time::{SimDuration, SimTime};
use crate::world::{World, WorldRef};

/// Where a simulator runs its step machines (see
/// [`Simulator::spawn_segment`](crate::Simulator::spawn_segment)).
///
/// This mirrors the paper's two modeling approaches at the substrate
/// level: `Thread` is the coroutine-style handoff (every process an OS
/// thread, one OS switch for each dispatch of a process other than the
/// one that yielded), `Segment` is run-to-completion dispatch inside the
/// scheduler loop (no OS switch at all). The mode chooses only the host
/// of one step machine, so both produce identical simulated behaviour;
/// they differ only in host cost.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ExecMode {
    /// Every step machine runs on its own OS thread, which blocks at a
    /// yield unless it is its own successor.
    #[default]
    Thread,
    /// Step machines are dispatched inline by the scheduler.
    Segment,
}

impl ExecMode {
    /// Reads the `RTSIM_EXEC_MODE` environment override (`thread` or
    /// `segment`, case-insensitive), defaulting to [`ExecMode::Thread`].
    ///
    /// # Panics
    ///
    /// Panics on an unrecognised value, so a typo never silently runs the
    /// wrong experiment.
    pub fn from_env() -> ExecMode {
        match std::env::var("RTSIM_EXEC_MODE") {
            Ok(v) if v.eq_ignore_ascii_case("segment") => ExecMode::Segment,
            Ok(v) if v.eq_ignore_ascii_case("thread") => ExecMode::Thread,
            Ok(v) => panic!("RTSIM_EXEC_MODE must be `thread` or `segment`, got `{v}`"),
            Err(_) => ExecMode::Thread,
        }
    }

    /// Stable key used in reports and golden files.
    pub fn key(self) -> &'static str {
        match self {
            ExecMode::Thread => "thread",
            ExecMode::Segment => "segment",
        }
    }
}

impl std::fmt::Display for ExecMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.key())
    }
}

/// The wait a segment requests when it yields — the exact analogue of
/// `wait_for`, `wait_event` and `wait_event_for` on
/// [`ProcessContext`]. A plain 16-byte value: yielding never allocates,
/// and the enums that carry a wait up to the kernel ([`SegStep`], the
/// RTOS runners' steps) are 16 bytes too.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WaitRequest {
    /// Sleep for a fixed duration (`wait_for`); zero still yields.
    Time(SimDuration),
    /// Block on one event (`wait_event`).
    Event(Event),
    /// Block on one event for at most a timeout (`wait_event_for`).
    EventFor(Event, SimDuration),
}

impl WaitRequest {
    /// `wait_for(d)` as a request.
    pub fn time(d: SimDuration) -> Self {
        WaitRequest::Time(d)
    }

    /// `wait_event(e)` as a request.
    pub fn event(e: Event) -> Self {
        WaitRequest::Event(e)
    }

    /// `wait_event_for(e, timeout)` as a request.
    pub fn event_for(e: Event, timeout: SimDuration) -> Self {
        WaitRequest::EventFor(e, timeout)
    }
}

/// What one segment dispatch produced.
#[derive(Debug)]
pub enum SegStep {
    /// The process blocks on `WaitRequest`; the state machine will be
    /// called again when the wait completes.
    Yield(WaitRequest),
    /// The process body has finished; the state machine is dropped.
    Done,
}

/// The body of a segment process: a step machine the kernel calls once
/// per dispatch (see
/// [`Simulator::spawn_machine`](crate::Simulator::spawn_machine)).
/// Every closure `FnMut(&mut SegmentCtx) -> SegStep` that is `Clone`
/// is one.
///
/// A machine is `Clone` because a fork of its simulator copies it in its
/// current state: a fresh fork with `clone`, a fork into another
/// simulator's machine of the same type with
/// [`clone_from`](Clone::clone_from). A machine that holds buffers, such
/// as a stack of frames, should be a named type whose `clone_from` writes
/// into the buffers it already has; a closure's `clone_from` cannot, it
/// clones and assigns.
pub trait SegMachine: Clone + Send + 'static {
    /// Runs one segment: the wait to perform next, or the end.
    fn step(&mut self, ctx: &mut SegmentCtx<'_>) -> SegStep;
}

impl<F> SegMachine for F
where
    F: FnMut(&mut SegmentCtx<'_>) -> SegStep + Clone + Send + 'static,
{
    fn step(&mut self, ctx: &mut SegmentCtx<'_>) -> SegStep {
        self(ctx)
    }
}

/// The per-dispatch view of the kernel handed to a segment state machine.
///
/// Mirrors the non-blocking surface of [`ProcessContext`]: reading the
/// clock, the wake cause, and buffering event notifications (applied by
/// the kernel when the segment yields, exactly as a thread-backed
/// process's buffered ops are applied at its yield point —
/// indistinguishable under the one-runner protocol). It also carries the
/// simulation [`World`], lent for the step: reaching model state through
/// it takes no lock.
#[derive(Debug)]
pub struct SegmentCtx<'a> {
    pub(crate) pid: ProcessId,
    pub(crate) now: SimTime,
    pub(crate) wake: Wake,
    pub(crate) ops: &'a mut Vec<NotifyOp>,
    pub(crate) world: &'a mut World,
}

impl SegmentCtx<'_> {
    /// Current simulation time (stable for the whole dispatch).
    #[inline]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// This process's id.
    #[inline]
    pub fn pid(&self) -> ProcessId {
        self.pid
    }

    /// What ended the previous wait: [`Wake::Timeout`] on the first
    /// dispatch and after timed sleeps/timeouts, [`Wake::Event`] when an
    /// awaited event fired.
    #[inline]
    pub fn wake(&self) -> Wake {
        self.wake
    }

    /// Notifies `event` immediately (applied when this segment yields).
    #[inline]
    pub fn notify(&mut self, event: Event) {
        self.ops.push(NotifyOp::Immediate(event));
    }

    /// Notifies `event` in the next delta cycle.
    #[inline]
    pub fn notify_delta(&mut self, event: Event) {
        self.ops.push(NotifyOp::Delta(event));
    }

    /// Notifies `event` after `delay` (zero delay = delta notification).
    #[inline]
    pub fn notify_after(&mut self, event: Event, delay: SimDuration) {
        if delay.is_zero() {
            self.ops.push(NotifyOp::Delta(event));
        } else {
            self.ops.push(NotifyOp::Timed(event, delay));
        }
    }

    /// Cancels any pending delta or timed notification on `event`.
    #[inline]
    pub fn cancel(&mut self, event: Event) {
        self.ops.push(NotifyOp::Cancel(event));
    }

    /// The simulation world, lent for this step.
    #[inline]
    pub fn world(&mut self) -> &mut World {
        self.world
    }

    /// The lent world and this step's notification buffer at once, for
    /// code that notifies while it holds model state.
    #[inline]
    pub fn split(&mut self) -> (&mut World, Notifier<'_>) {
        (self.world, Notifier::ops(self.now, self.ops))
    }
}

enum Sink<'a> {
    /// A process's buffer, applied when it yields.
    Ops(&'a mut Vec<NotifyOp>),
    /// The idle kernel itself (testbench code between runs).
    Kernel(&'a mut Kernel),
}

/// Posts event notifications on behalf of the code that holds it: into
/// a running process's buffer, or straight into an idle kernel. Obtained
/// next to the world from [`KernelHandle::split`] or
/// [`SegmentCtx::split`].
pub struct Notifier<'a> {
    now: SimTime,
    sink: Sink<'a>,
}

impl Notifier<'_> {
    /// Current simulation time.
    #[inline]
    pub fn now(&self) -> SimTime {
        self.now
    }

    #[inline]
    fn post(&mut self, op: NotifyOp) {
        match &mut self.sink {
            Sink::Ops(ops) => ops.push(op),
            Sink::Kernel(kernel) => kernel.apply_op(op),
        }
    }

    /// Immediate notification.
    #[inline]
    pub fn notify(&mut self, event: Event) {
        self.post(NotifyOp::Immediate(event));
    }

    /// Delta notification.
    #[inline]
    pub fn notify_delta(&mut self, event: Event) {
        self.post(NotifyOp::Delta(event));
    }

    /// Timed notification (zero delay = delta).
    #[inline]
    pub fn notify_after(&mut self, event: Event, delay: SimDuration) {
        if delay.is_zero() {
            self.post(NotifyOp::Delta(event));
        } else {
            self.post(NotifyOp::Timed(event, delay));
        }
    }

    /// Cancel a pending notification.
    #[inline]
    pub fn cancel(&mut self, event: Event) {
        self.post(NotifyOp::Cancel(event));
    }

    pub(crate) fn ops(now: SimTime, ops: &mut Vec<NotifyOp>) -> Notifier<'_> {
        Notifier {
            now,
            sink: Sink::Ops(ops),
        }
    }

    pub(crate) fn kernel(now: SimTime, kernel: &mut Kernel) -> Notifier<'_> {
        Notifier {
            now,
            sink: Sink::Kernel(kernel),
        }
    }
}

impl std::fmt::Debug for Notifier<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Notifier").field("now", &self.now).finish()
    }
}

/// The non-blocking kernel surface shared by both process backends and
/// the testbench.
///
/// Code that only needs to read the clock, post notifications and reach
/// model state — wake paths, communication primitives — takes
/// `&mut dyn KernelHandle` and works identically from a segment dispatch
/// ([`SegmentCtx`], which lends its world), a thread-backed process
/// ([`ProcessContext`], which locks the world once per call) or the
/// testbench between runs ([`Simulator`](crate::Simulator)).
pub trait KernelHandle {
    /// Current simulation time.
    fn now(&self) -> SimTime;
    /// Immediate notification.
    fn notify(&mut self, event: Event);
    /// Delta notification.
    fn notify_delta(&mut self, event: Event);
    /// Timed notification (zero delay = delta).
    fn notify_after(&mut self, event: Event, delay: SimDuration);
    /// Cancel a pending notification.
    fn cancel(&mut self, event: Event);
    /// The simulation world and a notifier at once. Inside a step the
    /// world is the lent one; elsewhere it is locked once for the call.
    fn split(&mut self) -> (WorldRef<'_>, Notifier<'_>);
    /// The simulation world: the lent one inside a step, otherwise
    /// locked once for the call.
    fn world(&mut self) -> WorldRef<'_> {
        self.split().0
    }
}

impl KernelHandle for ProcessContext {
    fn now(&self) -> SimTime {
        ProcessContext::now(self)
    }
    fn notify(&mut self, event: Event) {
        ProcessContext::notify(self, event)
    }
    fn notify_delta(&mut self, event: Event) {
        ProcessContext::notify_delta(self, event)
    }
    fn notify_after(&mut self, event: Event, delay: SimDuration) {
        ProcessContext::notify_after(self, event, delay)
    }
    fn cancel(&mut self, event: Event) {
        ProcessContext::cancel(self, event)
    }
    fn split(&mut self) -> (WorldRef<'_>, Notifier<'_>) {
        ProcessContext::split(self)
    }
}

impl KernelHandle for SegmentCtx<'_> {
    fn now(&self) -> SimTime {
        SegmentCtx::now(self)
    }
    fn notify(&mut self, event: Event) {
        SegmentCtx::notify(self, event)
    }
    fn notify_delta(&mut self, event: Event) {
        SegmentCtx::notify_delta(self, event)
    }
    fn notify_after(&mut self, event: Event, delay: SimDuration) {
        SegmentCtx::notify_after(self, event, delay)
    }
    fn cancel(&mut self, event: Event) {
        SegmentCtx::cancel(self, event)
    }
    fn split(&mut self) -> (WorldRef<'_>, Notifier<'_>) {
        let (world, notifier) = SegmentCtx::split(self);
        (WorldRef::Lent(world), notifier)
    }
}
