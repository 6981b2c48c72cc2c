//! Simulation processes and the cooperative handoff protocol.
//!
//! A simulation process (the analogue of a SystemC `SC_THREAD`) is an
//! ordinary Rust closure running on an OS thread, but under a strict
//! *one-runner* protocol: the kernel itself travels from thread to
//! thread, and only the thread holding it executes.
//!
//! - A run starts on the caller's thread. When the run loop dispatches a
//!   thread-backed process, it posts the kernel to that process's thread
//!   and waits for it to come home.
//! - The process runs until it calls one of the `wait_*` methods on its
//!   [`ProcessContext`]. Its own thread then applies the yield (buffered
//!   event notifications, then the wait) to the kernel it holds and
//!   drives the run loop to the next dispatch. If it is its own
//!   successor, it carries on with no OS switch at all. Otherwise it
//!   posts the kernel to the next thread-backed process (one letter, one
//!   OS switch) and parks until resumed again. Only when the run ends
//!   (its limit, starvation, a choice-point stop or an error) does the
//!   kernel go home to the caller of `run`.
//!
//! Every handoff is a letter in a one-slot mailbox
//! ([`crate::sync`]): the receiver parks on it with
//! [`std::thread::park`], and the sender wakes it with
//! [`Thread::unpark`](std::thread::Thread::unpark).
//!
//! This is SystemC's own scheme: `sc_switch_thread` passes control from
//! one thread process straight to the next runnable one, with no trip
//! through a scheduler coroutine. Because a handoff to another process
//! is a real thread switch, the *relative* cost of process switches — the
//! quantity the DATE 2004 paper's approach-A versus approach-B
//! experiment measures — is faithfully reproduced.
//!
//! # Process threads outlive their kernel
//!
//! SystemC creates its thread processes once, at elaboration. Here a
//! process thread runs one body after another, one kernel at a time, so
//! a thread that builds system after system creates few threads:
//!
//! - Dropping a kernel unwinds each body that has started and not
//!   ended, on its own thread, and waits until every one has unwound and
//!   dropped its captures.
//! - It then parks the kernel's threads in the dropping thread's pool.
//!   The pool keeps exactly the threads of the last kernel with process
//!   threads that this thread dropped: the ones parked before are told
//!   to exit and are joined.
//! - Spawning a thread process
//!   ([`Simulator::spawn`](crate::Simulator::spawn)) takes a thread from
//!   the pool of the thread calling it before it creates one.
//! - A thread's pool is retired, its threads told to exit and joined,
//!   when the thread exits.
//!
//! A process thread therefore does not carry its process's name; a
//! panicking body is still reported by name
//! ([`KernelError::ProcessPanicked`](crate::KernelError::ProcessPanicked)).

use std::any::Any;
use std::cell::RefCell;
use std::fmt;
use std::panic::{self, AssertUnwindSafe};
use std::sync::{Arc, Once};
use std::thread::{self, JoinHandle};

use crate::event::{Event, Wake};
use crate::scheduler::{Kernel, Next};
use crate::segment::{Notifier, SegMachine, SegStep, SegmentCtx, WaitRequest};
use crate::sync::{Latch, Mailbox};
use crate::time::{SimDuration, SimTime};
use crate::world::WorldRef;

/// A lightweight, copyable handle to a simulation process.
///
/// Returned by `Simulator::spawn`. Process ids are dense indices assigned
/// in spawn order; the kernel resumes runnable processes in a deterministic
/// order so simulations are exactly reproducible.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ProcessId(pub(crate) u32);

impl ProcessId {
    /// Returns the raw index of this process within its simulator.
    #[inline]
    pub const fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for ProcessId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "process#{}", self.0)
    }
}

/// Buffered notification operation, applied to the kernel in program order
/// when the issuing process yields.
///
/// Because only one process runs at a time, deferring the application to
/// the next yield point is indistinguishable from applying it eagerly — no
/// other process can observe the intermediate state.
#[derive(Debug, Clone)]
pub(crate) enum NotifyOp {
    /// Immediate notification: wake current waiters in this evaluation phase.
    Immediate(Event),
    /// Delta notification: wake waiters in the next delta cycle.
    Delta(Event),
    /// Timed notification after a non-zero delay.
    Timed(Event, SimDuration),
    /// Cancel any pending delta or timed notification.
    Cancel(Event),
}

/// Why a process yielded control back to the kernel.
#[derive(Debug)]
pub(crate) enum YieldReason<'a> {
    /// A timed sleep or a single-event wait — the same plain value a
    /// segment yields.
    Wait(WaitRequest),
    /// Block on any of several events, optionally bounded by a timeout
    /// (the blocking `wait_any`/`wait_any_for` only).
    WaitAny {
        events: &'a [Event],
        timeout: Option<SimDuration>,
    },
    /// The process body returned normally.
    Terminated,
    /// The process body panicked with this message.
    Panicked(String),
}

/// A process body as its thread runs it.
pub(crate) type Body = Box<dyn FnOnce(&mut ProcessContext) + Send>;

/// A letter to a process thread.
pub(crate) enum Letter {
    /// The process's first dispatch: run `body` as process `pid`, holding
    /// the kernel.
    Start(ProcessId, Body, Box<Kernel>),
    /// A later dispatch: what ended the body's wait, and the kernel
    /// itself, which the body holds until it yields.
    Resume(Wake, Box<Kernel>),
    /// The kernel is being dropped: unwind the body, then count down.
    Shutdown(Arc<Latch>),
    /// The thread is retired from its pool: it ends.
    Exit,
}

/// Panic payload used to unwind the bodies of a kernel being dropped.
struct ShutdownToken;

static SHUTDOWN_HOOK: Once = Once::new();

/// Installs (once per program) a panic hook that silences the intentional
/// teardown unwind while delegating every real panic to the previous hook.
fn install_shutdown_hook() {
    SHUTDOWN_HOOK.call_once(|| {
        let previous = panic::take_hook();
        panic::set_hook(Box::new(move |info| {
            if info.payload().downcast_ref::<ShutdownToken>().is_none() {
                previous(info);
            }
        }));
    });
}

/// The per-process view of the simulation kernel.
///
/// A `ProcessContext` is handed to each process body and is the *only* way
/// process code interacts with simulated time: reading the clock, waiting,
/// and notifying events. All waits are cooperative: at a wait, this
/// process's thread runs the kernel on to the next dispatch, and blocks
/// only if that is another process.
///
/// # Examples
///
/// ```
/// use rtsim_kernel::{SimDuration, Simulator};
///
/// let mut sim = Simulator::new();
/// let done = sim.event("done");
/// sim.spawn("producer", move |ctx| {
///     ctx.wait_for(SimDuration::from_ns(10));
///     ctx.notify(done);
/// });
/// sim.spawn("consumer", move |ctx| {
///     ctx.wait_event(done);
///     assert_eq!(ctx.now().as_ps(), 10_000);
/// });
/// sim.run().unwrap();
/// ```
pub struct ProcessContext {
    pid: ProcessId,
    /// The kernel, held from this process's resume to its next yield:
    /// whenever the body runs.
    kernel: Option<Box<Kernel>>,
    /// This thread's mailbox, where the kernel comes back to the body.
    mailbox: Arc<Mailbox<Letter>>,
    pending: Vec<NotifyOp>,
    /// Set when the kernel is dropped instead: counted down once the body
    /// has unwound.
    teardown: Option<Arc<Latch>>,
}

/// What a process body may rely on whenever it runs.
const RUNNING: &str = "a running process holds the kernel";

impl fmt::Debug for ProcessContext {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ProcessContext")
            .field("pid", &self.pid)
            .field("now", &self.now())
            .field("pending_ops", &self.pending.len())
            .finish()
    }
}

impl ProcessContext {
    /// Returns the current simulation time.
    ///
    /// Time only advances inside the run loop, between this process's
    /// yield and its resume, so within one run slice the value is stable.
    #[inline]
    pub fn now(&self) -> SimTime {
        self.kernel.as_deref().expect(RUNNING).now()
    }

    /// Returns this process's id.
    #[inline]
    pub fn pid(&self) -> ProcessId {
        self.pid
    }

    /// Performs `request` and blocks until it completes — the blocking
    /// form of a segment's [`SegStep::Yield`](crate::SegStep). Returns
    /// what ended the wait.
    pub fn wait(&mut self, request: WaitRequest) -> Wake {
        self.suspend(YieldReason::Wait(request))
    }

    /// Suspends this process for `d` of simulated time.
    ///
    /// A zero duration still yields: the process resumes once all pending
    /// delta activity at the current instant has settled (the SystemC
    /// `wait(SC_ZERO_TIME)` behaviour).
    pub fn wait_for(&mut self, d: SimDuration) {
        let wake = self.wait(WaitRequest::time(d));
        debug_assert!(wake.is_timeout(), "timed sleep woken by an event");
    }

    /// Blocks until `event` is notified.
    ///
    /// The event is *fugitive* (no memorization): a notification issued
    /// while this process was not yet waiting is lost, exactly as with
    /// `sc_event`.
    pub fn wait_event(&mut self, event: Event) {
        let wake = self.wait(WaitRequest::event(event));
        debug_assert_eq!(wake, Wake::Event(event));
    }

    /// Blocks until `event` is notified or `timeout` elapses, whichever
    /// comes first.
    ///
    /// This is the primitive the RTOS model builds *time-accurate
    /// preemption* on: an executing task waits for its remaining
    /// computation time with its preemption event as the escape hatch.
    pub fn wait_event_for(&mut self, event: Event, timeout: SimDuration) -> Wake {
        self.wait(WaitRequest::event_for(event, timeout))
    }

    /// Runs one step of a segment state machine on this thread: `f` gets
    /// a [`SegmentCtx`] whose notifications go to this process's own
    /// buffer (applied at its next yield), whose wake cause is `wake`,
    /// and which lends the simulation world, locked once for the step.
    /// Together with [`wait`](ProcessContext::wait) this hosts a step
    /// machine on a thread: step, perform the yielded wait, step again.
    pub fn step<R>(&mut self, wake: Wake, f: impl FnOnce(&mut SegmentCtx<'_>) -> R) -> R {
        let kernel = self.kernel.as_deref().expect(RUNNING);
        let now = kernel.now();
        let mut world = kernel.world().lock_for("ProcessContext::step");
        let mut ctx = SegmentCtx {
            pid: self.pid,
            now,
            wake,
            ops: &mut self.pending,
            world: &mut world,
        };
        f(&mut ctx)
    }

    /// The simulation world, locked once for the caller, and a notifier
    /// into this process's buffer (see
    /// [`KernelHandle::split`](crate::KernelHandle::split)).
    pub fn split(&mut self) -> (WorldRef<'_>, Notifier<'_>) {
        let kernel = self.kernel.as_deref().expect(RUNNING);
        let now = kernel.now();
        let world = kernel.world().lock_for("ProcessContext::world");
        (
            WorldRef::Locked(world),
            Notifier::ops(now, &mut self.pending),
        )
    }

    /// Blocks until any of `events` is notified; returns the waking event.
    ///
    /// # Panics
    ///
    /// Panics if `events` is empty (the wait could never complete).
    pub fn wait_any(&mut self, events: &[Event]) -> Event {
        assert!(!events.is_empty(), "wait_any on an empty event set");
        let wake = self.suspend(YieldReason::WaitAny {
            events,
            timeout: None,
        });
        match wake {
            Wake::Event(e) => e,
            Wake::Timeout => unreachable!("untimed wait reported a timeout"),
        }
    }

    /// Blocks until any of `events` is notified or `timeout` elapses.
    ///
    /// # Panics
    ///
    /// Panics if `events` is empty.
    pub fn wait_any_for(&mut self, events: &[Event], timeout: SimDuration) -> Wake {
        assert!(!events.is_empty(), "wait_any_for on an empty event set");
        self.suspend(YieldReason::WaitAny {
            events,
            timeout: Some(timeout),
        })
    }

    /// Notifies `event` immediately: processes currently waiting on it
    /// become runnable in the present evaluation phase, at the present
    /// time. Cancels any pending delta/timed notification on the event.
    #[inline]
    pub fn notify(&mut self, event: Event) {
        self.pending.push(NotifyOp::Immediate(event));
    }

    /// Notifies `event` in the next delta cycle (same simulated time).
    #[inline]
    pub fn notify_delta(&mut self, event: Event) {
        self.pending.push(NotifyOp::Delta(event));
    }

    /// Notifies `event` after `delay`. A zero delay is a delta
    /// notification, following `sc_event::notify(SC_ZERO_TIME)`.
    ///
    /// If the event already has a pending notification, the earlier of the
    /// two survives (SystemC override rule).
    #[inline]
    pub fn notify_after(&mut self, event: Event, delay: SimDuration) {
        if delay.is_zero() {
            self.pending.push(NotifyOp::Delta(event));
        } else {
            self.pending.push(NotifyOp::Timed(event, delay));
        }
    }

    /// Cancels any pending delta or timed notification on `event`.
    /// Immediate notifications cannot be cancelled (they never pend).
    #[inline]
    pub fn cancel(&mut self, event: Event) {
        self.pending.push(NotifyOp::Cancel(event));
    }

    /// Yields, and returns once this process is dispatched again: at
    /// once if it is its own successor, else when another thread hands
    /// it the kernel.
    fn suspend(&mut self, reason: YieldReason<'_>) -> Wake {
        if let Some(wake) = self.hand_on(reason) {
            return wake;
        }
        match self.mailbox.take() {
            Letter::Resume(wake, kernel) => {
                self.kernel = Some(kernel);
                wake
            }
            // The kernel is being dropped: unwind the body quietly.
            Letter::Shutdown(done) => {
                self.teardown = Some(done);
                panic::panic_any(ShutdownToken)
            }
            Letter::Start(..) | Letter::Exit => {
                unreachable!("a process thread starts a body or exits only between bodies")
            }
        }
    }

    /// Applies this process's yield to the kernel it holds and runs the
    /// loop to the next dispatch. Returns the wake if that dispatch is
    /// this process; otherwise the kernel has gone on, to the next
    /// thread-backed process or home to the run's caller, and `None`.
    ///
    /// A panic in the kernel code (not in the body) does not unwind this
    /// thread: the kernel goes home with it, and the caller resumes it.
    fn hand_on(&mut self, reason: YieldReason<'_>) -> Option<Wake> {
        let Some(mut kernel) = self.kernel.take() else {
            // Not running, so not holding the kernel: only a body that
            // swallowed its own teardown unwind gets here.
            panic::panic_any(ShutdownToken)
        };
        let (pid, pending) = (self.pid, &mut self.pending);
        let next = panic::catch_unwind(AssertUnwindSafe(|| kernel.yielded(pid, pending, reason)));
        if let Ok(Ok(Next::Dispatch(next, wake))) = next {
            if next == pid {
                self.kernel = Some(kernel);
                return Some(wake);
            }
        }
        kernel.pass(next);
        None
    }
}

/// A segment-process body as the kernel holds it: a boxed
/// [`SegMachine`] it calls inline and copies when the simulator is
/// forked.
pub(crate) trait Machine: Send {
    /// Runs one step.
    fn step(&mut self, ctx: &mut SegmentCtx<'_>) -> SegStep;
    /// Writes a copy of the machine in its current state over `into`: in
    /// place when that is a machine of the same type, else into a new
    /// box.
    fn fork_into(&self, into: &mut Option<SegBody>);
    /// The machine as [`Any`], to tell its type.
    fn as_any_mut(&mut self) -> &mut dyn Any;
}

impl<M: SegMachine> Machine for M {
    fn step(&mut self, ctx: &mut SegmentCtx<'_>) -> SegStep {
        SegMachine::step(self, ctx)
    }

    fn fork_into(&self, into: &mut Option<SegBody>) {
        match into
            .as_mut()
            .and_then(|b| b.as_any_mut().downcast_mut::<M>())
        {
            Some(machine) => machine.clone_from(self),
            None => *into = Some(Box::new(self.clone())),
        }
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

/// A boxed [`Machine`].
pub(crate) type SegBody = Box<dyn Machine>;

/// How one process is executed: the coroutine-style thread handoff, or a
/// run-to-completion state machine dispatched inside the scheduler loop.
pub(crate) enum ProcBackend {
    /// An OS thread that is handed the kernel to run.
    Thread {
        /// The thread, hired for this kernel.
        worker: Worker,
        /// The body, until the first dispatch starts it on the thread.
        body: Option<Body>,
    },
    /// A state machine called directly by the scheduler. `None` while a
    /// dispatch is in flight, and once the segment has panicked. A done
    /// segment keeps its machine, never stepped again, so that a fork
    /// into this kernel can write a live copy over it in place.
    Segment {
        /// The state machine.
        body: Option<SegBody>,
    },
}

/// Kernel-side record of one spawned process.
pub(crate) struct ProcHandle {
    pub backend: ProcBackend,
    pub state: ProcState,
    /// Monotonic wait generation: bumped every time the process is woken,
    /// so stale wait-list and timer entries can be detected lazily.
    pub wait_seq: u64,
}

impl ProcHandle {
    /// A finished segment process: what a fork writes a process over
    /// when its kernel has none at that id yet.
    pub fn finished() -> ProcHandle {
        ProcHandle {
            backend: ProcBackend::Segment { body: None },
            state: ProcState::Dead,
            wait_seq: 0,
        }
    }

    /// Writes a copy of this process over `into`, a segment process of a
    /// forked kernel: a live segment's machine is copied in its current
    /// state (in place when `into` holds one of the same type), and a dead
    /// process of either kind is a dead segment, whose machine, if
    /// `into` has one, is left for a later fork to write over. `false`
    /// for a live thread process, whose state is a stack on another
    /// thread.
    pub fn fork_into(&self, into: &mut ProcHandle) -> bool {
        let ProcBackend::Segment { body } = &mut into.backend else {
            unreachable!("a kernel is forked into segment processes only")
        };
        match &self.backend {
            _ if self.state == ProcState::Dead => {}
            ProcBackend::Segment {
                body: Some(machine),
            } => machine.fork_into(body),
            ProcBackend::Segment { body: None } => {
                unreachable!("a live segment at rest has its machine")
            }
            ProcBackend::Thread { .. } => return false,
        }
        into.state = self.state;
        into.wait_seq = self.wait_seq;
        true
    }

    /// Whether the process is still blocked in wait generation `seq`:
    /// false for every entry an earlier, finished wait left behind.
    #[inline]
    pub fn waits_in(&self, seq: u64) -> bool {
        self.state == ProcState::Waiting && self.wait_seq == seq
    }
}

/// Kernel-side lifecycle state of a process.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ProcState {
    /// Queued for execution in the current evaluation phase.
    Runnable,
    /// Blocked in one of the `wait_*` calls.
    Waiting,
    /// Body returned (or panicked); its thread idles until the kernel is
    /// dropped.
    Dead,
}

/// Renders a panic payload as a message: the one renderer for a
/// panicked process and for a panicked campaign job.
///
/// `&str` and `String` payloads pass through verbatim. Anything else is
/// probed against the common primitive payload types, and failing that is
/// reported with its `TypeId` — enough to say *which* payload type was
/// lost instead of a bare "non-string panic payload".
pub fn describe_panic_payload(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        return (*s).to_owned();
    }
    if let Some(s) = payload.downcast_ref::<String>() {
        return s.clone();
    }
    macro_rules! probe {
        ($($ty:ty),* $(,)?) => {
            $(
                if let Some(v) = payload.downcast_ref::<$ty>() {
                    return format!(
                        "non-string panic payload: {v:?} ({})",
                        stringify!($ty)
                    );
                }
            )*
        };
    }
    probe!(i8, i16, i32, i64, i128, isize, u8, u16, u32, u64, u128, usize, bool, char, f32, f64);
    format!(
        "non-string panic payload (type_id {:?})",
        std::any::Any::type_id(payload)
    )
}

/// An OS thread that runs process bodies, one after another, for one
/// kernel at a time (see the [module docs](self)).
pub(crate) struct Worker {
    mailbox: Arc<Mailbox<Letter>>,
    /// `None` only once joined, as the worker is dropped.
    thread: Option<JoinHandle<()>>,
}

thread_local! {
    /// This thread's pool of parked process threads.
    static POOL: RefCell<Pool> = RefCell::default();
}

/// The process threads a thread keeps parked, and how many it has
/// created and taken from here (for the tests of the pool).
#[derive(Default)]
struct Pool {
    parked: Vec<Worker>,
    created: u64,
    taken: u64,
}

/// What this thread's pool has done, for the tests of the pool.
#[cfg(test)]
pub(crate) struct PoolCounts {
    /// Process threads this thread has created.
    pub created: u64,
    /// Process threads it has taken from its pool.
    pub taken: u64,
    /// The mailboxes of the threads parked in its pool: each lives until
    /// its thread is retired.
    pub parked: Vec<std::sync::Weak<Mailbox<Letter>>>,
}

/// This thread's [`PoolCounts`].
#[cfg(test)]
pub(crate) fn pool_counts() -> PoolCounts {
    POOL.with_borrow(|pool| PoolCounts {
        created: pool.created,
        taken: pool.taken,
        parked: pool
            .parked
            .iter()
            .map(|worker| Arc::downgrade(&worker.mailbox))
            .collect(),
    })
}

impl Worker {
    /// A thread for a new process: one parked in this thread's pool if
    /// there is one, else a new thread.
    pub fn hire() -> Worker {
        let parked = POOL.try_with(|pool| {
            let mut pool = pool.borrow_mut();
            let worker = pool.parked.pop();
            match worker {
                Some(_) => pool.taken += 1,
                None => pool.created += 1,
            }
            worker
        });
        parked.ok().flatten().unwrap_or_else(Worker::spawn)
    }

    fn spawn() -> Worker {
        install_shutdown_hook();
        let mailbox = Arc::new(Mailbox::new());
        let letters = Arc::clone(&mailbox);
        let thread = thread::Builder::new()
            .name("rtsim-process".into())
            .spawn(move || serve(&letters))
            .expect("failed to spawn a simulation process thread");
        mailbox.read_by(thread.thread().clone());
        Worker {
            mailbox,
            thread: Some(thread),
        }
    }

    /// The thread's mailbox.
    pub fn mailbox(&self) -> &Arc<Mailbox<Letter>> {
        &self.mailbox
    }

    /// Parks `workers`, the threads of a kernel being dropped, in this
    /// thread's pool, and retires the threads parked there before. With
    /// no pool left (this thread is exiting), retires `workers` too.
    pub fn park_all(workers: Vec<Worker>) {
        let before =
            POOL.try_with(|pool| std::mem::replace(&mut pool.borrow_mut().parked, workers));
        // Retired here, outside the pool's borrow.
        drop(before);
    }
}

/// Retires the thread: tells it to exit and joins it.
impl Drop for Worker {
    fn drop(&mut self) {
        self.mailbox.post(Letter::Exit);
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}

/// The loop of a process thread: runs one body after another, each from
/// its first dispatch to its end, until the thread is retired.
fn serve(mailbox: &Arc<Mailbox<Letter>>) {
    loop {
        match mailbox.take() {
            Letter::Start(pid, body, kernel) => run_body(mailbox, pid, body, kernel),
            // The kernel never applied the body's last yield (its own code
            // panicked there): the body has ended already.
            Letter::Shutdown(done) => done.count_down(),
            Letter::Exit => return,
            Letter::Resume(..) => unreachable!("a process thread between bodies was dispatched"),
        }
    }
}

/// Runs `body` as process `pid` from its first dispatch, which handed it
/// `kernel`, to its end: its final yield, or its unwind when the kernel
/// is dropped first.
fn run_body(mailbox: &Arc<Mailbox<Letter>>, pid: ProcessId, body: Body, kernel: Box<Kernel>) {
    let mut ctx = ProcessContext {
        pid,
        kernel: Some(kernel),
        mailbox: Arc::clone(mailbox),
        pending: Vec::new(),
        teardown: None,
    };
    let result = panic::catch_unwind(AssertUnwindSafe(|| body(&mut ctx)));
    if let Some(done) = ctx.teardown.take() {
        // The body has unwound, or swallowed the unwind and returned: its
        // captures are dropped either way.
        drop(result);
        done.count_down();
        return;
    }
    let reason = match result {
        Ok(()) => YieldReason::Terminated,
        Err(payload) => YieldReason::Panicked(describe_panic_payload(payload.as_ref())),
    };
    // The final yield passes the kernel on: a finished process is never
    // its own successor.
    let resumed = ctx.hand_on(reason);
    debug_assert!(resumed.is_none(), "a finished process was dispatched");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn process_id_display_and_index() {
        let pid = ProcessId(5);
        assert_eq!(pid.to_string(), "process#5");
        assert_eq!(pid.index(), 5);
    }

    #[test]
    fn panic_payload_descriptions() {
        use std::any::Any;
        let p: Box<dyn Any + Send> = Box::new("boom");
        assert_eq!(describe_panic_payload(p.as_ref()), "boom");
        let p: Box<dyn Any + Send> = Box::new(String::from("ow"));
        assert_eq!(describe_panic_payload(p.as_ref()), "ow");
        let p: Box<dyn Any + Send> = Box::new(42u32);
        assert_eq!(
            describe_panic_payload(p.as_ref()),
            "non-string panic payload: 42 (u32)"
        );
        struct Opaque;
        let p: Box<dyn Any + Send> = Box::new(Opaque);
        let desc = describe_panic_payload(p.as_ref());
        assert!(
            desc.starts_with("non-string panic payload (type_id"),
            "{desc}"
        );
    }
}
