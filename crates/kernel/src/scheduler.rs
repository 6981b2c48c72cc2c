//! The kernel scheduler: timer queue, delta cycles, and the run loop.
//!
//! The scheduler follows the SystemC evaluation model:
//!
//! 1. **Evaluation phase** — resume runnable processes one at a time until
//!    none remain. Immediate notifications issued by running processes can
//!    add more processes to the current phase.
//! 2. **Delta phase** — if any delta notifications are pending, fire them
//!    (waking their waiters into a fresh evaluation phase) without
//!    advancing time. Each pass is one *delta cycle*.
//! 3. **Timed phase** — advance simulation time to the earliest pending
//!    timer and fire everything scheduled at that instant.
//!
//! Timers wait in one queue, in `(time, stamp)` order: a binary heap,
//! with the earliest entry held apart when it was pushed as the earliest.
//! Most waits are short sleeps whose timer is the next to fire, so most
//! timers are pushed and popped without touching the heap. An entry a
//! wait or a notification no longer needs stays queued, and is dropped
//! when it comes to the front.
//!
//! Determinism: runnable processes resume in FIFO wake order, waiters wake
//! in registration order, and simultaneous timers fire in posting order, so
//! a given model always produces the identical schedule.
//!
//! The loop's working sets (the runnable queue, the delta cycle's pending
//! notifications, the instant's ripe timers) and its phase live in the
//! [`Kernel`], so a run can stop at a choice point and resume at the same
//! spot, and a kernel at rest can be copied (see [`crate::choice`]).
//!
//! The loop runs on whichever thread holds the kernel. A run starts on
//! its caller's thread, which dispatches segment processes inline. A
//! thread-backed dispatch posts the kernel itself to that process's
//! thread, in the thread's one-slot mailbox; at its next yield, that
//! thread applies the yield and runs the loop on, carrying on itself if it
//! is its own successor and posting the kernel to the next thread-backed
//! process otherwise. The kernel goes home to the caller, through a
//! mailbox the caller reads, only when the run ends. Dropping a kernel
//! unwinds its live bodies and parks its process threads in the dropping
//! thread's pool, for the next kernel built there (see
//! [`crate::process`]).

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};
use std::ops::{Deref, DerefMut};
use std::panic;
use std::sync::{Arc, LazyLock};
use std::thread;

use crate::choice::{CandidateDetail, ChoiceKind, ChoicePoint};
use crate::error::KernelError;
use crate::event::{Event, Wake};
use crate::process::{
    describe_panic_payload, Letter, NotifyOp, ProcBackend, ProcHandle, ProcState, ProcessContext,
    ProcessId, Worker, YieldReason,
};
use crate::segment::{SegMachine, SegStep, SegmentCtx, WaitRequest};
use crate::sync::{Latch, Mailbox};
use crate::time::{SimDuration, SimTime};
use crate::world::{share, SharedWorld, World};

/// Default bound on consecutive delta cycles at one instant before the
/// kernel declares a zero-time livelock.
pub(crate) const DEFAULT_MAX_DELTAS: u64 = 1_000_000;

/// Pending notification state of one event (SystemC: at most one).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Pending {
    None,
    Delta,
    Timed { time: SimTime, stamp: u64 },
}

struct EventEntry {
    /// `(pid, wait_seq)` pairs; stale entries are skipped lazily.
    waiters: Vec<(ProcessId, u64)>,
    pending: Pending,
}

/// By hand, so that a fork into another kernel reuses its wait lists.
impl Clone for EventEntry {
    fn clone(&self) -> Self {
        EventEntry {
            waiters: self.waiters.clone(),
            pending: self.pending,
        }
    }

    fn clone_from(&mut self, source: &Self) {
        self.waiters.clone_from(&source.waiters);
        self.pending = source.pending;
    }
}

/// Action carried by a timer-queue entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum TimedAction {
    /// Fire the event iff its pending notification still carries `stamp`.
    NotifyEvent(Event, u64),
    /// Wake the process iff it is still in wait generation `seq`.
    WakeProcess(ProcessId, u64),
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct TimedEntry {
    time: SimTime,
    stamp: u64,
    action: TimedAction,
}

impl TimedEntry {
    /// The entry as a timed-phase choice candidate.
    fn detail(&self) -> CandidateDetail {
        match self.action {
            TimedAction::NotifyEvent(e, _) => CandidateDetail::TimerNotify(e),
            TimedAction::WakeProcess(pid, _) => CandidateDetail::TimerWake(pid),
        }
    }
}

/// The kernel's timer store: a binary min-heap in `(time, stamp)` order,
/// whose earliest entry is often held apart in `first`.
///
/// Most timers a step arms are the new earliest and fire next (a short
/// timed wait), so such a timer is pushed into `first` and popped from it
/// without touching the heap. Entries pop in exactly the heap's order,
/// stale ones included: `first`, when set, comes at or before every heap
/// entry.
#[derive(Debug, Default)]
struct TimerQueue {
    first: Option<TimedEntry>,
    heap: BinaryHeap<Reverse<TimedEntry>>,
}

impl TimerQueue {
    /// Holds `e` apart when it is earlier than every entry queued, moving
    /// a displaced held entry into the heap; queues it in the heap
    /// otherwise.
    fn push(&mut self, e: TimedEntry) {
        match self.first {
            Some(held) if e < held => {
                self.first = Some(e);
                self.heap.push(Reverse(held));
            }
            None if self.heap.peek().is_none_or(|Reverse(top)| e < *top) => self.first = Some(e),
            _ => self.heap.push(Reverse(e)),
        }
    }

    /// The earliest entry.
    fn peek(&self) -> Option<TimedEntry> {
        self.first.or_else(|| self.heap.peek().map(|Reverse(e)| *e))
    }

    /// Removes the earliest entry.
    fn pop(&mut self) -> Option<TimedEntry> {
        self.first
            .take()
            .or_else(|| self.heap.pop().map(|Reverse(e)| e))
    }
}

/// By hand, so that a fork into another kernel reuses its heap.
impl Clone for TimerQueue {
    fn clone(&self) -> Self {
        TimerQueue {
            first: self.first,
            heap: self.heap.clone(),
        }
    }

    fn clone_from(&mut self, source: &Self) {
        self.first = source.first;
        self.heap.clone_from(&source.heap);
    }
}

/// Cumulative kernel statistics, used by the approach-A/approach-B
/// simulation-speed experiment (the paper's §4 comparison hinges on
/// *process switch counts*).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct KernelStats {
    /// Process resumptions (coroutine switches into a process).
    pub process_switches: u64,
    /// Delta cycles executed.
    pub delta_cycles: u64,
    /// Distinct time advances.
    pub time_advances: u64,
    /// Event notifications delivered (waiter wakes).
    pub event_wakes: u64,
}

/// What a run returns: the choice point it stopped at, if it did.
pub(crate) type RunResult = Result<Option<ChoicePoint>, KernelError>;

/// A run's outcome on its way home from a process thread: the kernel, and
/// the run's result or the panic of the kernel code that ended it there
/// (resumed on the caller's thread).
type Homecoming = (Box<Kernel>, thread::Result<RunResult>);

/// What the run loop comes to next (see [`Kernel::advance`]).
#[derive(Debug)]
pub(crate) enum Next {
    /// Dispatch a thread-backed process: hand it the kernel.
    Dispatch(ProcessId, Wake),
    /// The run is over, stopped at this choice point or at none.
    Stop(Option<ChoicePoint>),
}

/// The run in progress: its parameters, the world it lends, and its way
/// home once a thread-backed dispatch has taken the kernel away.
struct Run {
    limit: Option<SimTime>,
    stop: bool,
    /// Whether choices go through [`Kernel::pick`]: a stopping run, or
    /// one resuming a decided choice point.
    hooked: bool,
    world: SharedWorld,
    /// The caller's mailbox, set by its first thread-backed dispatch.
    home: Option<Arc<Mailbox<Homecoming>>>,
}

/// How often the kernel changed threads, for tests of the handoff
/// protocol.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct Handoffs {
    /// Resume letters posted: one per thread-backed dispatch, except that
    /// of a process right after its own yield.
    pub resumes: u64,
    /// Runs that ended away from their caller and sent the kernel home.
    pub homecomings: u64,
}

/// Where the run loop stands. Kept in the kernel, with the working set
/// of each phase, so a run stopped at a choice point resumes there.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    /// The evaluation phase, then the start of the next delta or timed
    /// phase.
    Evaluate,
    /// Firing the delta cycle's notifications (`Kernel::pending`).
    Delta,
    /// Firing the instant's ripe timers (`Kernel::ripe`).
    Timed,
}

/// The names of a kernel's events and processes, by index. Fixed at
/// elaboration, so forks share one table; a fork that creates an event or
/// a process copies it first.
#[derive(Clone, Default)]
struct Names {
    events: Vec<Box<str>>,
    procs: Vec<Box<str>>,
}

pub(crate) struct Kernel {
    now: SimTime,
    procs: Vec<ProcHandle>,
    events: Vec<EventEntry>,
    names: Arc<Names>,
    runnable: VecDeque<(ProcessId, Wake)>,
    delta_events: Vec<Event>,
    timers: TimerQueue,
    stamp: u64,
    alive: usize,
    max_deltas: u64,
    phase: Phase,
    /// The delta cycle being fired: the notifications pending when it
    /// began, minus those fired or overridden since.
    pending: Vec<Event>,
    /// The instant's ripe timer entries, in `(time, stamp)` order.
    ripe: Vec<TimedEntry>,
    deltas_at_instant: u64,
    /// The choice point a run stopped at, until it is decided.
    stopped: Option<ChoicePoint>,
    /// The decision for the choice point a run stopped at; the resumed
    /// run applies it.
    decided: Option<usize>,
    /// Scratch buffers reused across steps so the run loop does not
    /// allocate per dispatch: a segment dispatch's notification ops and
    /// the waiter list an event swaps in when it fires. Each is empty
    /// between uses.
    spare_ops: Vec<NotifyOp>,
    spare_waiters: Vec<(ProcessId, u64)>,
    /// The run in progress; `None` at rest.
    run: Option<Run>,
    pub handoffs: Handoffs,
    pub stats: KernelStats,
}

impl Kernel {
    pub fn new() -> Self {
        /// The names of a kernel that has none yet: one table every new
        /// kernel shares, so making one (a fresh fork's) allocates none.
        static NO_NAMES: LazyLock<Arc<Names>> = LazyLock::new(Arc::default);
        Kernel {
            now: SimTime::ZERO,
            procs: Vec::new(),
            events: Vec::new(),
            names: Arc::clone(&NO_NAMES),
            runnable: VecDeque::new(),
            delta_events: Vec::new(),
            timers: TimerQueue::default(),
            stamp: 0,
            alive: 0,
            max_deltas: DEFAULT_MAX_DELTAS,
            phase: Phase::Evaluate,
            pending: Vec::new(),
            ripe: Vec::new(),
            deltas_at_instant: 0,
            stopped: None,
            decided: None,
            spare_ops: Vec::new(),
            spare_waiters: Vec::new(),
            run: None,
            handoffs: Handoffs::default(),
            stats: KernelStats::default(),
        }
    }

    /// Writes a copy of this kernel at rest (between runs, or stopped at
    /// a choice point) over `into`, reusing `into`'s buffers and, where it
    /// runs a machine of the same type at the same id, that machine.
    /// `false` if a live process is thread-backed: its state is a stack
    /// on another thread, which cannot be copied. `into` is then partly
    /// written, and a later fork into it still writes every field.
    pub fn fork_into(&self, into: &mut Kernel) -> bool {
        debug_assert!(
            self.run.is_none() && into.run.is_none(),
            "fork of a kernel in a run"
        );
        if into
            .procs
            .iter()
            .any(|p| matches!(p.backend, ProcBackend::Thread { .. }))
        {
            // Dropping `into` as it was parks its threads.
            *into = Kernel::new();
        }
        into.procs.truncate(self.procs.len());
        into.procs
            .resize_with(self.procs.len(), ProcHandle::finished);
        for (proc, copy) in self.procs.iter().zip(&mut into.procs) {
            if !proc.fork_into(copy) {
                return false;
            }
        }
        into.now = self.now;
        into.events.clone_from(&self.events);
        share(&mut into.names, &self.names);
        into.runnable.clone_from(&self.runnable);
        into.delta_events.clone_from(&self.delta_events);
        into.timers.clone_from(&self.timers);
        into.stamp = self.stamp;
        into.alive = self.alive;
        into.max_deltas = self.max_deltas;
        into.phase = self.phase;
        into.pending.clone_from(&self.pending);
        into.ripe.clone_from(&self.ripe);
        into.deltas_at_instant = self.deltas_at_instant;
        into.stopped = self.stopped;
        into.decided = self.decided;
        // The scratch buffers are empty at rest: `into` keeps its own.
        into.handoffs = self.handoffs;
        into.stats = self.stats;
        true
    }

    /// The number of eligible actions of a `kind` choice: the size of
    /// that phase's working set.
    fn arity(&self, kind: ChoiceKind) -> usize {
        match kind {
            ChoiceKind::Dispatch => self.runnable.len(),
            ChoiceKind::Delta => self.pending.len(),
            ChoiceKind::Timer => self.ripe.len(),
        }
    }

    /// Candidate `index` of a `kind` choice, in the stable order.
    pub fn candidate_detail(&self, kind: ChoiceKind, index: usize) -> CandidateDetail {
        match kind {
            ChoiceKind::Dispatch => {
                let (pid, wake) = self.runnable[index];
                CandidateDetail::Dispatch { pid, wake }
            }
            ChoiceKind::Delta => CandidateDetail::DeltaEvent(self.pending[index]),
            ChoiceKind::Timer => self.ripe[index].detail(),
        }
    }

    /// The human-readable rendering of a candidate, process and event
    /// names resolved.
    pub fn candidate_label(&self, detail: CandidateDetail) -> String {
        let proc = |pid: ProcessId| self.process_name(pid);
        let event = |e: Event| self.event_name(e);
        match detail {
            CandidateDetail::Dispatch {
                pid,
                wake: Wake::Event(e),
            } => format!("dispatch {} <- {}", proc(pid), event(e)),
            CandidateDetail::Dispatch {
                pid,
                wake: Wake::Timeout,
            } => format!("dispatch {} <- timeout", proc(pid)),
            CandidateDetail::DeltaEvent(e) => format!("delta-notify {}", event(e)),
            CandidateDetail::TimerNotify(e) => format!("timed-notify {}", event(e)),
            CandidateDetail::TimerWake(pid) => format!("timer-wake {}", proc(pid)),
        }
    }

    /// The choice point a run stopped at (see [`Kernel::run`]), if it
    /// has not been decided yet.
    pub fn stopped(&self) -> Option<ChoicePoint> {
        self.stopped
    }

    /// Decides the choice point a run stopped at: the next run performs
    /// candidate `index` there.
    ///
    /// # Panics
    ///
    /// Panics if no run is stopped at a choice point, or if `index` is
    /// out of range.
    pub fn decide(&mut self, index: usize) {
        let point = self
            .stopped
            .take()
            .expect("decide: the simulator is not stopped at a choice point");
        assert!(
            index < point.arity,
            "decide: index {index} out of {} candidates",
            point.arity
        );
        self.decided = Some(index);
    }

    /// Resolves a choice among two or more eligible actions: the decision
    /// taken for the point a run stopped at, else `None` to stop there
    /// (`stop`), else the stable 0.
    fn pick(&mut self, kind: ChoiceKind, stop: bool) -> Option<usize> {
        if let Some(index) = self.decided.take() {
            return Some(index);
        }
        if stop {
            self.stopped = Some(ChoicePoint {
                kind,
                at: self.now(),
                arity: self.arity(kind),
            });
            return None;
        }
        Some(0)
    }

    pub fn set_max_deltas(&mut self, limit: u64) {
        self.max_deltas = limit.max(1);
    }

    #[inline]
    pub fn now(&self) -> SimTime {
        self.now
    }

    fn set_now(&mut self, t: SimTime) {
        self.now = t;
    }

    /// The world the run in progress lends to its steps.
    ///
    /// # Panics
    ///
    /// Panics outside a run.
    pub fn world(&self) -> &SharedWorld {
        &self
            .run
            .as_ref()
            .expect("the world is lent inside a run")
            .world
    }

    fn next_stamp(&mut self) -> u64 {
        self.stamp += 1;
        self.stamp
    }

    pub fn create_event(&mut self, name: &str) -> Event {
        let id = Event(u32::try_from(self.events.len()).expect("too many events"));
        self.events.push(EventEntry {
            waiters: Vec::new(),
            pending: Pending::None,
        });
        Arc::make_mut(&mut self.names).events.push(name.into());
        id
    }

    pub fn event_name(&self, event: Event) -> &str {
        &self.names.events[event.index()]
    }

    pub fn event_count(&self) -> usize {
        self.events.len()
    }

    pub fn process_count(&self) -> usize {
        self.procs.len()
    }

    pub fn process_name(&self, pid: ProcessId) -> &str {
        &self.names.procs[pid.index()]
    }

    pub fn spawn<F>(&mut self, name: &str, body: F) -> ProcessId
    where
        F: FnOnce(&mut ProcessContext) + Send + 'static,
    {
        let pid = ProcessId(u32::try_from(self.procs.len()).expect("too many processes"));
        self.procs.push(ProcHandle {
            backend: ProcBackend::Thread {
                worker: Worker::hire(),
                body: Some(Box::new(body)),
            },
            state: ProcState::Runnable,
            wait_seq: 0,
        });
        Arc::make_mut(&mut self.names).procs.push(name.into());
        self.alive += 1;
        // New processes start in the next evaluation phase, like SC_THREADs
        // at elaboration.
        self.runnable.push_back((pid, Wake::Timeout));
        pid
    }

    /// Spawns a run-to-completion segment process: no OS thread, the body
    /// is dispatched inline by the run loop. Scheduling-wise it is
    /// indistinguishable from a thread-backed process.
    pub fn spawn_segment(&mut self, name: &str, body: impl SegMachine) -> ProcessId {
        let pid = ProcessId(u32::try_from(self.procs.len()).expect("too many processes"));
        self.procs.push(ProcHandle {
            backend: ProcBackend::Segment {
                body: Some(Box::new(body)),
            },
            state: ProcState::Runnable,
            wait_seq: 0,
        });
        Arc::make_mut(&mut self.names).procs.push(name.into());
        self.alive += 1;
        self.runnable.push_back((pid, Wake::Timeout));
        pid
    }

    /// Immediate notification from outside any process (testbench code
    /// between `run` calls).
    pub fn notify_external(&mut self, event: Event) {
        self.apply_op(NotifyOp::Immediate(event));
    }

    /// Schedules a notification of `event` at absolute time `at`.
    ///
    /// # Panics
    ///
    /// Panics if `at` is in the simulated past.
    pub fn notify_at(&mut self, event: Event, at: SimTime) {
        assert!(
            at >= self.now(),
            "notify_at: {at} is before current time {}",
            self.now()
        );
        self.post_timed(event, at);
    }

    /// Applies the SystemC earliest-wins override rule for a timed
    /// notification of `event` at absolute time `time`.
    fn post_timed(&mut self, event: Event, time: SimTime) {
        let stamp = self.next_stamp();
        let entry = &mut self.events[event.index()];
        match entry.pending {
            Pending::Delta => {} // delta is earlier; discard
            Pending::Timed { time: existing, .. } if existing <= time => {} // keep earlier
            _ => {
                entry.pending = Pending::Timed { time, stamp };
                self.timers.push(TimedEntry {
                    time,
                    stamp,
                    action: TimedAction::NotifyEvent(event, stamp),
                });
            }
        }
    }

    /// Wakes every valid waiter of `event` into the current evaluation
    /// phase. The event's list is swapped with the empty spare rather
    /// than taken, so both keep their capacity.
    fn fire(&mut self, event: Event) {
        let spare = std::mem::take(&mut self.spare_waiters);
        let mut waiters = std::mem::replace(&mut self.events[event.index()].waiters, spare);
        for &(pid, seq) in &waiters {
            if self.procs[pid.index()].waits_in(seq) {
                self.make_runnable(pid, Wake::Event(event));
            }
        }
        waiters.clear();
        self.spare_waiters = waiters;
    }

    fn make_runnable(&mut self, pid: ProcessId, wake: Wake) {
        let proc = &mut self.procs[pid.index()];
        debug_assert_eq!(proc.state, ProcState::Waiting);
        proc.state = ProcState::Runnable;
        proc.wait_seq += 1;
        self.stats.event_wakes += u64::from(matches!(wake, Wake::Event(_)));
        self.runnable.push_back((pid, wake));
    }

    /// Applies one notification op.
    pub(crate) fn apply_op(&mut self, op: NotifyOp) {
        match op {
            NotifyOp::Immediate(e) => {
                // Immediate notification overrides (cancels) anything
                // pending and fires right now.
                self.events[e.index()].pending = Pending::None;
                self.fire(e);
            }
            NotifyOp::Delta(e) => {
                let entry = &mut self.events[e.index()];
                match entry.pending {
                    Pending::Delta => {}
                    Pending::None | Pending::Timed { .. } => {
                        entry.pending = Pending::Delta;
                        self.delta_events.push(e);
                    }
                }
            }
            NotifyOp::Timed(e, d) => {
                let at = self.now().saturating_add(d);
                self.post_timed(e, at);
            }
            NotifyOp::Cancel(e) => {
                self.events[e.index()].pending = Pending::None;
            }
        }
    }

    /// Parks `pid` on `events` (none for a timed sleep), arming a wake
    /// timer when `timeout` is set.
    fn park(&mut self, pid: ProcessId, events: &[Event], timeout: Option<SimDuration>) {
        let proc = &mut self.procs[pid.index()];
        proc.state = ProcState::Waiting;
        let seq = proc.wait_seq;
        for e in events {
            let waiters = &mut self.events[e.index()].waiters;
            if waiters.len() == waiters.capacity() {
                // A wait that ended another way (timeout, another event)
                // leaves its entry behind until the event fires, so an
                // event that never fires would grow without bound. Drop
                // the stale entries before growing (`fire` skips them
                // anyway, and the live ones keep their order); grow when
                // fewer than half were stale, so this stays amortised O(1).
                let procs = &self.procs;
                waiters.retain(|&(p, s)| procs[p.index()].waits_in(s));
                if waiters.len() * 2 > waiters.capacity() {
                    waiters.reserve(waiters.len());
                }
            }
            waiters.push((pid, seq));
        }
        if let Some(d) = timeout {
            let at = self.now().saturating_add(d);
            let stamp = self.next_stamp();
            self.timers.push(TimedEntry {
                time: at,
                stamp,
                action: TimedAction::WakeProcess(pid, seq),
            });
        }
    }

    fn apply_reason(&mut self, pid: ProcessId, reason: YieldReason<'_>) -> Result<(), KernelError> {
        match reason {
            YieldReason::Wait(WaitRequest::Time(d)) => self.park(pid, &[], Some(d)),
            YieldReason::Wait(WaitRequest::Event(event)) => self.park(pid, &[event], None),
            YieldReason::Wait(WaitRequest::EventFor(event, d)) => self.park(pid, &[event], Some(d)),
            YieldReason::WaitAny { events, timeout } => self.park(pid, events, timeout),
            YieldReason::Terminated => {
                self.procs[pid.index()].state = ProcState::Dead;
                self.alive -= 1;
            }
            YieldReason::Panicked(message) => {
                self.procs[pid.index()].state = ProcState::Dead;
                self.alive -= 1;
                return Err(KernelError::ProcessPanicked {
                    process: self.process_name(pid).to_owned(),
                    message,
                });
            }
        }
        Ok(())
    }

    /// Pops invalid timer entries and returns the time of the next valid
    /// one, if any.
    fn next_timer_time(&mut self) -> Option<SimTime> {
        while let Some(top) = self.timers.peek() {
            if self.timer_valid(&top) {
                return Some(top.time);
            }
            self.timers.pop();
        }
        None
    }

    fn timer_valid(&self, entry: &TimedEntry) -> bool {
        timer_valid(&self.events, &self.procs, entry)
    }

    /// Runs segment process `pid`'s step inline, lending it `world`, and
    /// applies the notifications it buffered; returns what it yielded.
    fn step_segment(
        &mut self,
        pid: ProcessId,
        wake: Wake,
        mut machine: crate::process::SegBody,
        world: &mut World,
    ) -> YieldReason<'static> {
        let now = self.now();
        let mut ops = std::mem::take(&mut self.spare_ops);
        let step = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let mut ctx = SegmentCtx {
                pid,
                now,
                wake,
                ops: &mut ops,
                world,
            };
            machine.step(&mut ctx)
        }));
        let reason = match step {
            Ok(step) => {
                // Park the state machine: for the next wake, or, once it
                // is done, for a fork into this kernel to write over.
                if let ProcBackend::Segment { body } = &mut self.procs[pid.index()].backend {
                    *body = Some(machine);
                }
                match step {
                    SegStep::Yield(req) => YieldReason::Wait(req),
                    SegStep::Done => YieldReason::Terminated,
                }
            }
            Err(payload) => YieldReason::Panicked(describe_panic_payload(payload.as_ref())),
        };
        // Apply in program order; the drained `Vec` is the next spare.
        for op in ops.drain(..) {
            self.apply_op(op);
        }
        self.spare_ops = ops;
        reason
    }

    /// Applies the yield of thread-backed `pid`, whose thread holds this
    /// kernel: its buffered notifications in program order, then its wait
    /// or its end. Then runs the loop on to what comes next.
    pub(crate) fn yielded(
        &mut self,
        pid: ProcessId,
        ops: &mut Vec<NotifyOp>,
        reason: YieldReason<'_>,
    ) -> Result<Next, KernelError> {
        for op in ops.drain(..) {
            self.apply_op(op);
        }
        self.apply_reason(pid, reason)?;
        self.advance()
    }

    /// Runs the loop of the run in progress until it dispatches a
    /// thread-backed process, or until the run ends: starvation, or
    /// simulated time would pass the run's limit (events scheduled exactly
    /// at the limit are processed), or a choice point when the run stops
    /// at them.
    ///
    /// Segment processes are dispatched inline, on this thread, lending
    /// them the run's world: locked at the first of them, kept across the
    /// next, and given back on return.
    fn advance(&mut self) -> Result<Next, KernelError> {
        let run = self.run.as_ref().expect("the loop advances inside a run");
        let (limit, stop, hooked) = (run.limit, run.stop, run.hooked);
        let shared = run.world.clone();
        let mut loan = None;
        loop {
            match self.phase {
                Phase::Evaluate => {
                    loop {
                        let (pid, wake) = if hooked && self.runnable.len() >= 2 {
                            let Some(idx) = self.pick(ChoiceKind::Dispatch, stop) else {
                                return Ok(Next::Stop(self.stopped));
                            };
                            self.runnable.remove(idx).expect("index validated")
                        } else {
                            match self.runnable.pop_front() {
                                Some(next) => next,
                                None => break,
                            }
                        };
                        debug_assert_eq!(self.procs[pid.index()].state, ProcState::Runnable);
                        self.stats.process_switches += 1;
                        let ProcBackend::Segment { body } = &mut self.procs[pid.index()].backend
                        else {
                            return Ok(Next::Dispatch(pid, wake));
                        };
                        let machine = body.take().expect("segment process re-entered");
                        let world = loan.get_or_insert_with(|| shared.lock_for("Simulator::run"));
                        let reason = self.step_segment(pid, wake, machine, world);
                        self.apply_reason(pid, reason)?;
                    }

                    // -- delta phase start ---------------------------------
                    if !self.delta_events.is_empty() {
                        self.deltas_at_instant += 1;
                        self.stats.delta_cycles += 1;
                        if self.deltas_at_instant > self.max_deltas {
                            return Err(KernelError::DeltaCycleOverflow {
                                at: self.now(),
                                limit: self.max_deltas,
                            });
                        }
                        // Firing a delta cannot add or cancel delta
                        // notifications (only running processes post ops),
                        // so the set taken here is the whole cycle. The two
                        // lists swap, keeping both capacities.
                        debug_assert!(self.pending.is_empty());
                        std::mem::swap(&mut self.pending, &mut self.delta_events);
                        self.phase = Phase::Delta;
                        continue;
                    }

                    // -- timed phase start ---------------------------------
                    let Some(t) = self.next_timer_time() else {
                        // Event starvation: nothing left to do.
                        if let Some(end) = limit {
                            if end > self.now() {
                                self.set_now(end);
                            }
                        }
                        return Ok(Next::Stop(None));
                    };
                    if let Some(end) = limit {
                        if t > end {
                            self.set_now(end);
                            return Ok(Next::Stop(None));
                        }
                    }
                    if t > self.now() {
                        self.set_now(t);
                        self.stats.time_advances += 1;
                        self.deltas_at_instant = 0;
                    }
                    // Collect the whole same-instant ripe set up front (a
                    // stable slice, not an eager pop), then fire entries one
                    // at a time. Firing cannot add new ripe entries at `t` —
                    // only running processes post timer ops, and none run
                    // until the next evaluation phase — and cannot
                    // revalidate an entry (wait_seq and pending stamps only
                    // move forward), so the retain per iteration only ever
                    // shrinks the set and the collect-then-fire order equals
                    // an eager pop.
                    self.take_ripe(t);
                    self.phase = Phase::Timed;
                }

                Phase::Delta => {
                    loop {
                        // Drops entries overridden since the cycle began;
                        // a no-op when resuming from a stop.
                        let events = &self.events;
                        self.pending
                            .retain(|e| events[e.index()].pending == Pending::Delta);
                        if self.pending.is_empty() {
                            break;
                        }
                        let idx = if hooked && self.pending.len() >= 2 {
                            let Some(idx) = self.pick(ChoiceKind::Delta, stop) else {
                                return Ok(Next::Stop(self.stopped));
                            };
                            idx
                        } else {
                            0
                        };
                        let e = self.pending.remove(idx);
                        self.events[e.index()].pending = Pending::None;
                        self.fire(e);
                    }
                    debug_assert!(self.delta_events.is_empty());
                    self.phase = Phase::Evaluate;
                }

                Phase::Timed => {
                    loop {
                        let (events, procs) = (&self.events, &self.procs);
                        self.ripe.retain(|e| timer_valid(events, procs, e));
                        if self.ripe.is_empty() {
                            break;
                        }
                        let idx = if hooked && self.ripe.len() >= 2 {
                            let Some(idx) = self.pick(ChoiceKind::Timer, stop) else {
                                return Ok(Next::Stop(self.stopped));
                            };
                            idx
                        } else {
                            0
                        };
                        let entry = self.ripe.remove(idx);
                        match entry.action {
                            TimedAction::NotifyEvent(e, _) => {
                                self.events[e.index()].pending = Pending::None;
                                self.fire(e);
                            }
                            TimedAction::WakeProcess(pid, _) => {
                                self.make_runnable(pid, Wake::Timeout);
                            }
                        }
                    }
                    self.phase = Phase::Evaluate;
                }
            }
        }
    }

    /// Sends the kernel where `next` says: to the thread of the process
    /// it dispatches, or home to the run's caller with the run's outcome.
    pub(crate) fn pass(self: Box<Self>, next: thread::Result<Result<Next, KernelError>>) {
        match next {
            Ok(Ok(Next::Dispatch(pid, wake))) => self.hand_to(pid, wake),
            Ok(Ok(Next::Stop(point))) => self.go_home(Ok(Ok(point))),
            Ok(Err(error)) => self.go_home(Ok(Err(error))),
            Err(payload) => self.go_home(Err(payload)),
        }
    }

    /// Hands the kernel to thread-backed `pid`: one letter, which starts
    /// the body at its first dispatch.
    fn hand_to(mut self: Box<Self>, pid: ProcessId, wake: Wake) {
        let ProcBackend::Thread { worker, body } = &mut self.procs[pid.index()].backend else {
            unreachable!("the loop hands the kernel only to thread-backed processes")
        };
        let (mailbox, body) = (Arc::clone(worker.mailbox()), body.take());
        self.handoffs.resumes += 1;
        mailbox.post(match body {
            Some(body) => Letter::Start(pid, body, self),
            None => Letter::Resume(wake, self),
        });
    }

    /// Ends the run away from its caller: sends the kernel home with the
    /// run's outcome.
    fn go_home(mut self: Box<Self>, outcome: thread::Result<RunResult>) {
        self.handoffs.homecomings += 1;
        let home = self.run.take().and_then(|run| run.home);
        // A run's first handoff opens its way home, and the caller waits
        // there until the kernel arrives.
        home.expect("a run away from its caller has a way home")
            .post((self, outcome));
    }

    /// Pops every timer entry ripe at `t` (valid, `time <= t`) into the
    /// empty `ripe`, in the queue's deterministic ascending `(time, stamp)`
    /// order — the stable same-instant slice a timer choice point
    /// enumerates. Invalid entries are discarded during the pop.
    fn take_ripe(&mut self, t: SimTime) {
        debug_assert!(self.ripe.is_empty());
        while let Some(top) = self.timers.peek() {
            if top.time > t {
                break;
            }
            self.timers.pop();
            if self.timer_valid(&top) {
                self.ripe.push(top);
            }
        }
    }

    pub fn alive_processes(&self) -> usize {
        self.alive
    }

    /// Time of the next pending activity (runnable work counts as "now"),
    /// or `None` when the simulation has starved.
    pub fn next_activity(&mut self) -> Option<SimTime> {
        if !self.runnable.is_empty() || !self.delta_events.is_empty() {
            return Some(self.now());
        }
        self.next_timer_time()
    }
}

/// Whether a timer entry still fires: its event still pends with the
/// entry's stamp, or its process still waits in the entry's generation.
fn timer_valid(events: &[EventEntry], procs: &[ProcHandle], entry: &TimedEntry) -> bool {
    match entry.action {
        TimedAction::NotifyEvent(e, stamp) => {
            matches!(
                events[e.index()].pending,
                Pending::Timed { stamp: s, .. } if s == stamp
            )
        }
        TimedAction::WakeProcess(pid, seq) => procs[pid.index()].waits_in(seq),
    }
}

impl Drop for Kernel {
    /// Unwinds every body that has started and not ended, each on its own
    /// thread, and waits until all have dropped their captures. Then parks
    /// the process threads in this thread's pool. Segment state machines,
    /// and bodies never dispatched, are plain values dropped with their
    /// handles.
    fn drop(&mut self) {
        let running = || {
            self.procs.iter().filter_map(|proc| match &proc.backend {
                ProcBackend::Thread { worker, body: None } if proc.state != ProcState::Dead => {
                    Some(worker)
                }
                _ => None,
            })
        };
        let live = running().count();
        if live > 0 {
            let done = Arc::new(Latch::new(live));
            for worker in running() {
                worker.mailbox().post(Letter::Shutdown(Arc::clone(&done)));
            }
            done.wait();
        }
        let workers: Vec<Worker> = self
            .procs
            .drain(..)
            .filter_map(|proc| match proc.backend {
                ProcBackend::Thread { worker, .. } => Some(worker),
                ProcBackend::Segment { .. } => None,
            })
            .collect();
        if !workers.is_empty() {
            Worker::park_all(workers);
        }
    }
}

/// The simulator's hold on its kernel. Between runs the kernel is here.
/// A run that dispatches a thread-backed process sends it away, from
/// thread to thread, and [`Home::run`] returns once it is back.
pub(crate) struct Home(Option<Box<Kernel>>);

/// What the simulator relies on outside [`Home::run`].
const AT_HOME: &str = "the kernel is home between runs";

impl Home {
    pub fn new(kernel: Kernel) -> Self {
        Home(Some(Box::new(kernel)))
    }

    /// Runs until event starvation or (if given) until simulated time
    /// would pass `limit`. Events scheduled exactly at `limit` are
    /// processed.
    ///
    /// With `stop`, the run stops at the first choice point (two or more
    /// simultaneously eligible actions) and returns it; the kernel keeps
    /// the phase and its working set, so after [`Kernel::decide`] the
    /// next call resumes at that spot and performs the decided action.
    /// Without `stop`, the stable order answers each choice point, and
    /// the result is always `None`.
    ///
    /// The loop starts on this thread, lending `world` to segment
    /// dispatches. At the first thread-backed dispatch the kernel leaves,
    /// and this thread waits for it to come home with the run's outcome.
    /// A panic of the kernel code on a process thread is resumed here.
    pub fn run(&mut self, limit: Option<SimTime>, world: &SharedWorld, stop: bool) -> RunResult {
        let kernel: &mut Kernel = self;
        kernel.stopped = None;
        kernel.run = Some(Run {
            limit,
            stop,
            hooked: stop || kernel.decided.is_some(),
            world: world.clone(),
            home: None,
        });
        let (pid, wake) = match kernel.advance() {
            Ok(Next::Dispatch(pid, wake)) => (pid, wake),
            Ok(Next::Stop(point)) => {
                kernel.run = None;
                return Ok(point);
            }
            Err(error) => {
                kernel.run = None;
                return Err(error);
            }
        };
        let home = Arc::new(Mailbox::new());
        home.read_by(thread::current());
        kernel.run.as_mut().expect("set above").home = Some(Arc::clone(&home));
        self.0.take().expect(AT_HOME).hand_to(pid, wake);
        let (kernel, outcome) = home.take();
        self.0 = Some(kernel);
        outcome.unwrap_or_else(|payload| panic::resume_unwind(payload))
    }
}

impl Deref for Home {
    type Target = Kernel;
    fn deref(&self) -> &Kernel {
        self.0.as_deref().expect(AT_HOME)
    }
}

impl DerefMut for Home {
    fn deref_mut(&mut self) -> &mut Kernel {
        self.0.as_deref_mut().expect(AT_HOME)
    }
}

#[cfg(test)]
mod tests {
    use std::cell::Cell;
    use std::sync::Mutex;

    use super::*;
    use crate::process::pool_counts;
    use crate::testutil::{check, Rng};
    use crate::{ExecMode, Simulator};

    /// The reads the run loop makes of its timer store, over the queue
    /// and over the reference below.
    trait Timers {
        fn earliest(&self) -> Option<TimedEntry>;
        fn pop_earliest(&mut self) -> Option<TimedEntry>;

        /// As [`Kernel::next_timer_time`]: drops stale earliest entries.
        fn next_valid(&mut self, stale: &[u64]) -> Option<SimTime> {
            while let Some(top) = self.earliest() {
                if !stale.contains(&top.stamp) {
                    return Some(top.time);
                }
                self.pop_earliest();
            }
            None
        }

        /// As [`Kernel::take_ripe`]: the valid entries due by `t`.
        fn take_ripe(&mut self, t: SimTime, stale: &[u64]) -> Vec<TimedEntry> {
            let mut ripe = Vec::new();
            while let Some(top) = self.earliest().filter(|top| top.time <= t) {
                self.pop_earliest();
                if !stale.contains(&top.stamp) {
                    ripe.push(top);
                }
            }
            ripe
        }
    }

    impl Timers for TimerQueue {
        fn earliest(&self) -> Option<TimedEntry> {
            self.peek()
        }
        fn pop_earliest(&mut self) -> Option<TimedEntry> {
            self.pop()
        }
    }

    /// The reference: every entry in one sorted `Vec`.
    impl Timers for Vec<TimedEntry> {
        fn earliest(&self) -> Option<TimedEntry> {
            self.first().copied()
        }
        fn pop_earliest(&mut self) -> Option<TimedEntry> {
            (!self.is_empty()).then(|| self.remove(0))
        }
    }

    /// One step of the timer-queue property.
    #[derive(Debug)]
    enum TimerOp {
        /// Arm a timer this many ps after the current instant: few
        /// distinct times, so that many tie and their stamps order them.
        Push(u64),
        /// Make the `k`-th queued entry (modulo the count) stale, as a
        /// wait that ended another way or an overridden notification.
        Invalidate(usize),
        /// The next valid timer's time, stale entries dropped.
        Next,
        /// Advance to the next valid timer and drain its instant.
        Drain,
        /// Remove the earliest entry, valid or not.
        Pop,
        /// Fork: copy the queue into the spare with `clone_from`, and go
        /// on with the copy (the spare is the queue of an earlier fork).
        Fork,
    }

    fn timer_op(rng: &mut Rng) -> TimerOp {
        match rng.gen_range(0u32..20) {
            0..=8 => TimerOp::Push(rng.gen_range(0u64..6)),
            9 | 10 => TimerOp::Invalidate(rng.gen_range(0usize..64)),
            11 | 12 => TimerOp::Next,
            13..=15 => TimerOp::Drain,
            16 | 17 => TimerOp::Pop,
            _ => TimerOp::Fork,
        }
    }

    #[test]
    fn the_timer_queue_pops_in_the_order_of_one_sorted_list() {
        // Steps that met a tie, a displaced held entry, a stale held
        // entry and a fork into a used spare.
        let seen = Cell::new([0u32; 4]);
        let saw = |what: usize| {
            let mut counts = seen.get();
            counts[what] += 1;
            seen.set(counts);
        };
        check(
            128,
            |rng| rng.gen_vec(0..200, timer_op),
            |ops| {
                let (mut queue, mut spare) = (TimerQueue::default(), TimerQueue::default());
                let mut reference: Vec<TimedEntry> = Vec::new();
                let mut stale = Vec::new();
                let (mut now, mut stamp) = (SimTime::ZERO, 0);
                for (step, op) in ops.iter().enumerate() {
                    match *op {
                        TimerOp::Push(after) => {
                            stamp += 1;
                            let e = TimedEntry {
                                time: now.saturating_add(SimDuration::from_ps(after)),
                                stamp,
                                action: TimedAction::WakeProcess(ProcessId(0), stamp),
                            };
                            if reference.iter().any(|r| r.time == e.time) {
                                saw(0);
                            }
                            if queue.first.is_some_and(|held| e < held) {
                                saw(1);
                            }
                            queue.push(e);
                            let at = reference.partition_point(|r| *r < e);
                            reference.insert(at, e);
                        }
                        TimerOp::Invalidate(k) => {
                            if !reference.is_empty() {
                                stale.push(reference[k % reference.len()].stamp);
                            }
                        }
                        TimerOp::Next | TimerOp::Drain => {
                            if queue.first.is_some_and(|held| stale.contains(&held.stamp)) {
                                saw(2);
                            }
                            let next = queue.next_valid(&stale);
                            assert_eq!(next, reference.next_valid(&stale), "step {step}");
                            if let (TimerOp::Drain, Some(t)) = (op, next) {
                                now = t;
                                let ripe = queue.take_ripe(t, &stale);
                                assert_eq!(ripe, reference.take_ripe(t, &stale), "step {step}");
                            }
                        }
                        TimerOp::Pop => {
                            let popped = queue.pop_earliest();
                            assert_eq!(popped, reference.pop_earliest(), "step {step}");
                        }
                        TimerOp::Fork => {
                            if spare.first.is_some() || !spare.heap.is_empty() {
                                saw(3);
                            }
                            spare.clone_from(&queue);
                            std::mem::swap(&mut queue, &mut spare);
                        }
                    }
                    if let Some(held) = queue.first {
                        assert!(
                            queue.heap.iter().all(|Reverse(e)| held < *e),
                            "step {step}: the held entry is not the earliest"
                        );
                    }
                    let mut copy = queue.clone();
                    let all: Vec<TimedEntry> = std::iter::from_fn(|| copy.pop()).collect();
                    assert_eq!(all, reference, "step {step}: the queue's contents");
                }
            },
        );
        // A replay runs one case, which need not meet them all.
        if std::env::var_os("RTSIM_PROP_SEED").is_none() {
            assert!(seen.get().iter().all(|&n| n > 0), "{:?}", seen.get());
        }
    }

    type Log = Arc<Mutex<Vec<usize>>>;

    /// The handoffs a run of `home` makes, given the processes it
    /// dispatched in order (`slice`): one resume for its first dispatch
    /// (from the caller) and for each dispatch of a process other than the
    /// one before, and one homecoming if it dispatched any.
    fn expected(slice: &[usize]) -> Handoffs {
        let changes = slice.windows(2).filter(|w| w[0] != w[1]).count() as u64;
        match slice {
            [] => Handoffs::default(),
            _ => Handoffs {
                resumes: 1 + changes,
                homecomings: 1,
            },
        }
    }

    #[test]
    fn a_process_that_is_its_own_successor_sends_no_message() {
        let mut home = Home::new(Kernel::new());
        home.spawn("lone", |ctx| {
            for _ in 0..1_000 {
                ctx.wait_for(SimDuration::from_ns(1));
            }
        });
        home.run(None, &SharedWorld::new(), false).unwrap();
        assert_eq!(home.stats.process_switches, 1_001);
        assert_eq!(
            home.handoffs,
            Handoffs {
                resumes: 1,
                homecomings: 1
            }
        );
    }

    #[test]
    fn one_resume_per_dispatch_of_another_process_one_homecoming_per_run() {
        let mut home = Home::new(Kernel::new());
        let log: Log = Arc::default();
        let ping = home.create_event("ping");
        // p0 pings every fourth step; p1 never does.
        for (pid, step_ns, steps, every) in [(0, 2, 12, 4), (1, 7, 5, u64::MAX)] {
            let log = Arc::clone(&log);
            home.spawn(&format!("p{pid}"), move |ctx| {
                for k in 1..=steps {
                    log.lock().unwrap().push(pid);
                    if k % every == 0 {
                        ctx.notify(ping);
                    }
                    ctx.wait_for(SimDuration::from_ns(step_ns));
                }
                log.lock().unwrap().push(pid);
            });
        }
        let waiter = Arc::clone(&log);
        home.spawn("p2", move |ctx| loop {
            waiter.lock().unwrap().push(2);
            ctx.wait_event(ping);
        });

        let world = SharedWorld::new();
        let mut seen = 0;
        let mut total = Handoffs::default();
        // Slices of 5 ns, then one past the end: a run that dispatches
        // nothing hands nothing off.
        for end_ns in (5..=40).step_by(5) {
            let before = home.handoffs;
            home.run(Some(SimTime::from_ps(end_ns * 1_000)), &world, false)
                .unwrap();
            let log = log.lock().unwrap();
            let made = Handoffs {
                resumes: home.handoffs.resumes - before.resumes,
                homecomings: home.handoffs.homecomings - before.homecomings,
            };
            assert_eq!(made, expected(&log[seen..]), "run ending at {end_ns} ns");
            seen = log.len();
            total.resumes += made.resumes;
            total.homecomings += made.homecomings;
        }
        assert_eq!(home.handoffs, total);
        let log = log.lock().unwrap();
        assert_eq!(log.len() as u64, home.stats.process_switches);
        // Both kinds of dispatch happened: the pin is not vacuous.
        let selfs = log.windows(2).filter(|w| w[0] == w[1]).count();
        assert!(
            selfs > 0 && total.resumes > 8,
            "{selfs} self-resumes, {total:?}"
        );
        assert!(total.homecomings < 8, "a run with no dispatch came home");
    }

    /// Builds `n` processes in `mode`, where process `i` ends after `i`
    /// steps of 1 ns, runs them to 2 ns, and drops the system with
    /// processes 0 to 2 ended and the others blocked. Returns the run's
    /// statistics.
    fn run_and_drop(mode: ExecMode, n: u32) -> KernelStats {
        let mut sim = Simulator::with_mode(mode);
        for i in 0..n {
            let mut left = i;
            sim.spawn_segment(&format!("p{i}"), move |_| {
                if left == 0 {
                    return SegStep::Done;
                }
                left -= 1;
                SegStep::Yield(WaitRequest::time(SimDuration::from_ns(1)))
            });
        }
        sim.run_until(SimTime::from_ps(2_000)).unwrap();
        assert_eq!(sim.alive_processes(), n.saturating_sub(3) as usize);
        sim.stats()
    }

    /// Runs `f` on a thread of its own, whose pool starts empty.
    fn on_a_new_thread<T: Send + 'static>(f: impl FnOnce() -> T + Send + 'static) -> T {
        thread::spawn(f).join().unwrap()
    }

    #[test]
    fn a_thread_runs_system_after_system_on_the_threads_of_the_last() {
        on_a_new_thread(|| {
            let stats = [(); 3].map(|()| run_and_drop(ExecMode::Thread, 4));
            assert!(stats.iter().all(|s| *s == stats[0]), "{stats:?}");
            let pool = pool_counts();
            assert_eq!((pool.created, pool.taken), (4, 8), "4 threads, not 12");
            assert_eq!(pool.parked.len(), 4);
        });
    }

    #[test]
    fn the_pool_keeps_exactly_the_threads_of_the_last_system_dropped() {
        on_a_new_thread(|| {
            run_and_drop(ExecMode::Thread, 4);
            run_and_drop(ExecMode::Thread, 2);
            let pool = pool_counts();
            assert_eq!((pool.created, pool.taken), (4, 2));
            assert_eq!(
                pool.parked.len(),
                2,
                "the 2 threads the 2-process system left"
            );
        });
    }

    #[test]
    fn a_thread_that_ends_retires_its_pool() {
        let parked = on_a_new_thread(|| {
            run_and_drop(ExecMode::Thread, 3);
            pool_counts().parked
        });
        assert_eq!(parked.len(), 3);
        // Each mailbox lives while its thread is parked.
        assert!(
            parked.iter().all(|mailbox| mailbox.upgrade().is_none()),
            "a thread that ended left process threads parked"
        );
    }

    #[test]
    fn a_segment_mode_system_creates_no_thread() {
        on_a_new_thread(|| {
            run_and_drop(ExecMode::Segment, 4);
            let pool = pool_counts();
            assert_eq!((pool.created, pool.taken, pool.parked.len()), (0, 0, 0));
        });
    }
}
