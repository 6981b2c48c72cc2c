//! Segment processes: step machines and their two hosts.
//!
//! The DATE 2004 paper's approach-B result hinges on modeling RTOS
//! services as plain procedure calls on the caller's thread instead of
//! coroutine switches. This module brings the same idea to the kernel
//! substrate itself: a **segment process** is a step machine
//! (`FnMut(&mut SegmentCtx) -> SegStep`). Each call runs one segment to
//! completion and returns either [`SegStep::Yield`] with a
//! [`WaitRequest`] (the analogue of a `wait_*` call on
//! [`ProcessContext`]) or [`SegStep::Done`].
//!
//! [`ExecMode`] picks where step machines run. In `Segment` mode the
//! scheduler calls them *directly* inside its evaluation loop: zero
//! thread spawns, zero park/unpark, no channels on the hot path. In
//! `Thread` mode each one runs on its own OS thread, which performs
//! every yielded wait as a blocking [`ProcessContext::wait`]. The
//! machine and the scheduling protocol are the same in both, so both
//! produce the bit-identical event schedule.

use crate::event::{Event, Wake};
use crate::process::{NotifyOp, ProcessContext, ProcessId};
use crate::time::{SimDuration, SimTime};

/// Where a simulator runs its step machines (see
/// [`Simulator::spawn_segment`](crate::Simulator::spawn_segment)).
///
/// This mirrors the paper's two modeling approaches at the substrate
/// level: `Thread` is the coroutine-style handoff (every process an OS
/// thread, approach A's cost profile), `Segment` is run-to-completion
/// dispatch inside the scheduler loop (approach B's cost profile). The
/// mode chooses only the host of one step machine, so both produce
/// identical simulated behaviour; they differ only in host cost.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ExecMode {
    /// Every step machine runs on its own OS thread, which blocks at each
    /// yield.
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
/// [`ProcessContext`]. A plain value: yielding never allocates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WaitRequest {
    /// Sleep for a fixed duration (`wait_for`); zero still yields.
    Time(SimDuration),
    /// Block on one event, optionally bounded by a timeout (`wait_event`,
    /// `wait_event_for`).
    Event {
        /// The event to wait on.
        event: Event,
        /// Timeout bound, if any.
        timeout: Option<SimDuration>,
    },
}

impl WaitRequest {
    /// `wait_for(d)` as a request.
    pub fn time(d: SimDuration) -> Self {
        WaitRequest::Time(d)
    }

    /// `wait_event(e)` as a request.
    pub fn event(e: Event) -> Self {
        WaitRequest::Event {
            event: e,
            timeout: None,
        }
    }

    /// `wait_event_for(e, timeout)` as a request.
    pub fn event_for(e: Event, timeout: SimDuration) -> Self {
        WaitRequest::Event {
            event: e,
            timeout: Some(timeout),
        }
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

/// The per-dispatch view of the kernel handed to a segment state machine.
///
/// Mirrors the non-blocking surface of [`ProcessContext`]: reading the
/// clock, the wake cause, and buffering event notifications (applied by
/// the kernel when the segment yields, exactly as a thread-backed
/// process's buffered ops are applied at its yield point —
/// indistinguishable under the one-runner protocol).
#[derive(Debug)]
pub struct SegmentCtx<'a> {
    pub(crate) pid: ProcessId,
    pub(crate) now: SimTime,
    pub(crate) wake: Wake,
    pub(crate) ops: &'a mut Vec<NotifyOp>,
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
}

/// The non-blocking kernel surface shared by both process backends.
///
/// Code that only needs to read the clock and post notifications — wake
/// paths, communication primitives — takes `&mut dyn KernelHandle` and
/// works identically from a thread-backed process ([`ProcessContext`]) or
/// a segment dispatch ([`SegmentCtx`]).
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
}
