//! Function bodies as data: a small behaviour script.
//!
//! A closure body (see [`SystemModel::function`](crate::SystemModel::function))
//! blocks, so it needs a thread of its own. A **script** expresses the
//! same behaviour as data — a list of [`Instr`] steps over a tiny
//! register file ([`Regs`]) — and [`ScriptProcess`] interprets it as a
//! step machine over a [`SegTaskRunner`]/[`SegHwRunner`], using the
//! communication relations' non-blocking *attempt* entry points and
//! feeding waits back to the kernel as
//! [`SegStep::Yield`](rtsim_kernel::SegStep).
//!
//! This is the only script interpreter. The execution mode decides only
//! where it runs: inline in the scheduler loop, or on a thread that
//! blocks at each yield (see
//! [`Simulator::spawn_segment`](rtsim_kernel::Simulator::spawn_segment)).
//! So a scripted model produces bit-identical canonical traces in either
//! mode — the property the regression farm's cross-mode differential
//! suite asserts.
//!
//! Rendezvous relations are not scriptable (their transfer handshake is
//! inherently two-sided blocking); functions using them stay closures.

use std::sync::Arc;

use rtsim_comm::{EvWait, ReleaseFollowup};
use rtsim_core::{Agent, SegControl, SegHwRunner, SegTaskRunner};
use rtsim_fault::{FaultInjector, ModeChange};
use rtsim_kernel::world::World;
use rtsim_kernel::{SegStep, SegmentCtx, SimDuration, SimTime};
use rtsim_trace::{CommKind, FaultKind};

use crate::elaborate::Relations;
use crate::model::Message;

/// The fault-injection view of one function: the system's shared
/// [`FaultInjector`] plus this function's name, threaded through the
/// interpreter so [`Instr::Execute`], [`Instr::PeriodicRelease`] and
/// [`Instr::DegradedGate`] can consult the plan. Absent (the common
/// case) the interpreter takes the exact pre-fault paths, byte for byte.
///
/// The injector is immutable plan data (its lanes and monitors live in
/// the simulation world), so a clone shares it.
#[derive(Clone)]
pub struct FaultCtx {
    injector: Arc<FaultInjector>,
    task: Arc<str>,
    /// The nominal relative deadline, saved on entering degraded mode
    /// and restored on recovery.
    saved_deadline: Option<Option<SimDuration>>,
}

impl FaultCtx {
    /// Binds `task`'s interpreter to the system's injector.
    pub fn new(injector: Arc<FaultInjector>, task: &str) -> Self {
        FaultCtx {
            injector,
            task: Arc::from(task),
            saved_deadline: None,
        }
    }

    /// The jitter offset of this task's activation `k` (zero without a
    /// matching jitter spec).
    fn release_offset(&self, k: u64) -> SimDuration {
        self.injector.release_offset(&self.task, k)
    }

    /// Was this activation released with jitter or is it inside a burst
    /// window? (The injector adds watched-channel drops on top.)
    fn locally_faulted(&self, now: SimTime, k: u64) -> bool {
        self.injector.burst_active(&self.task, now)
            || (k > 0 && self.release_offset(k) > SimDuration::ZERO)
    }
}

impl std::fmt::Debug for FaultCtx {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FaultCtx").field("task", &self.task).finish()
    }
}

/// The register file a script computes over.
///
/// Scripts carry no user state of their own; closures embedded in
/// instructions read these registers to derive durations, deadlines and
/// message payloads.
#[derive(Debug, Clone, Copy)]
pub struct Regs {
    /// Innermost loop counter (0-based; saved/restored across nesting).
    pub k: u64,
    /// The last message obtained by a queue read (or try-read hit).
    pub msg: Message,
    /// The last value obtained by a shared-variable read.
    pub var: Message,
    /// Outcome of the last try-operation (`true` on success).
    pub flag: bool,
    /// Simulation time at which the script body began (for tasks: after
    /// the first dispatch) — the anchor of drift-free periodic releases.
    pub started: SimTime,
}

impl Regs {
    fn initial(started: SimTime) -> Self {
        Regs {
            k: 0,
            msg: Message::default(),
            var: Message::default(),
            flag: false,
            started,
        }
    }
}

/// A duration computed from the registers.
pub type DurFn = Arc<dyn Fn(&Regs) -> SimDuration + Send + Sync>;
/// An absolute instant computed from the registers.
pub type TimeFn = Arc<dyn Fn(&Regs) -> SimTime + Send + Sync>;
/// A message computed from the registers.
pub type MsgFn = Arc<dyn Fn(&Regs) -> Message + Send + Sync>;

/// One step of a behaviour script. Build lists with the helper
/// constructors ([`exec`], [`delay`], [`repeat`], ...).
#[derive(Clone)]
pub enum Instr {
    /// Consume CPU time (preemptible on a software processor).
    Execute(DurFn),
    /// Sleep for a duration.
    Delay(DurFn),
    /// Annotate the trace at the current instant.
    Annotate(Arc<str>),
    /// Signal an event relation.
    Signal(Arc<str>),
    /// Wait on an event relation (consuming one token when memorized).
    AwaitEvent(Arc<str>),
    /// Blocking write of a message to a queue relation.
    QueueWrite(Arc<str>, MsgFn),
    /// Blocking read from a queue relation into [`Regs::msg`].
    QueueRead(Arc<str>),
    /// Non-blocking write; success into [`Regs::flag`].
    QueueTryWrite(Arc<str>, MsgFn),
    /// Non-blocking read; success into [`Regs::flag`], the message (when
    /// any) into [`Regs::msg`].
    QueueTryRead(Arc<str>),
    /// Read a shared variable into [`Regs::var`], consuming the given CPU
    /// time under the lock.
    VarRead(Arc<str>, DurFn),
    /// Write a shared variable, consuming the given CPU time under the
    /// lock.
    VarWrite(Arc<str>, DurFn, MsgFn),
    /// Run the body `n` times with [`Regs::k`] = 0..n (saved/restored).
    Repeat(u64, Arc<[Instr]>),
    /// Run the body forever (leave with [`Instr::Return`]); [`Regs::k`]
    /// counts iterations.
    Forever(Arc<[Instr]>),
    /// Run the first body if [`Regs::flag`] is set, else the second.
    IfFlag(Arc<[Instr]>, Arc<[Instr]>),
    /// Run the body if the current time is strictly past the instant.
    IfNowPast(TimeFn, Arc<[Instr]>),
    /// Sleep until the next drift-free periodic release point,
    /// `started + period * (k + 1)` — plus, when a fault plan declares
    /// arrival jitter for this task, a bounded offset that is a pure
    /// function of the activation index (recorded as a `jitter` fault).
    PeriodicRelease(SimDuration),
    /// Once per activation: advance this task's degraded-mode state
    /// machine and run the first body while healthy, the second while
    /// degraded. Entering degraded mode relaxes the task's relative
    /// deadline to the registered value (restored on recovery); without
    /// a fault plan the nominal body always runs.
    DegradedGate(Arc<[Instr]>, Arc<[Instr]>),
    /// End the whole script immediately.
    Return,
}

impl std::fmt::Debug for Instr {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Instr::Execute(_) => f.write_str("Execute"),
            Instr::Delay(_) => f.write_str("Delay"),
            Instr::Annotate(l) => write!(f, "Annotate({l})"),
            Instr::Signal(n) => write!(f, "Signal({n})"),
            Instr::AwaitEvent(n) => write!(f, "AwaitEvent({n})"),
            Instr::QueueWrite(n, _) => write!(f, "QueueWrite({n})"),
            Instr::QueueRead(n) => write!(f, "QueueRead({n})"),
            Instr::QueueTryWrite(n, _) => write!(f, "QueueTryWrite({n})"),
            Instr::QueueTryRead(n) => write!(f, "QueueTryRead({n})"),
            Instr::VarRead(n, _) => write!(f, "VarRead({n})"),
            Instr::VarWrite(n, _, _) => write!(f, "VarWrite({n})"),
            Instr::Repeat(n, b) => write!(f, "Repeat({n}, {} instrs)", b.len()),
            Instr::Forever(b) => write!(f, "Forever({} instrs)", b.len()),
            Instr::IfFlag(t, e) => write!(f, "IfFlag({}/{})", t.len(), e.len()),
            Instr::IfNowPast(_, b) => write!(f, "IfNowPast({} instrs)", b.len()),
            Instr::PeriodicRelease(p) => write!(f, "PeriodicRelease({p})"),
            Instr::DegradedGate(n, d) => write!(f, "DegradedGate({}/{})", n.len(), d.len()),
            Instr::Return => f.write_str("Return"),
        }
    }
}

// ---------------------------------------------------------------------
// Builder helpers
// ---------------------------------------------------------------------

/// Fixed-duration [`Instr::Execute`].
pub fn exec(d: SimDuration) -> Instr {
    Instr::Execute(Arc::new(move |_| d))
}

/// Register-dependent [`Instr::Execute`].
pub fn exec_with(f: impl Fn(&Regs) -> SimDuration + Send + Sync + 'static) -> Instr {
    Instr::Execute(Arc::new(f))
}

/// Fixed-duration [`Instr::Delay`].
pub fn delay(d: SimDuration) -> Instr {
    Instr::Delay(Arc::new(move |_| d))
}

/// Register-dependent [`Instr::Delay`].
pub fn delay_with(f: impl Fn(&Regs) -> SimDuration + Send + Sync + 'static) -> Instr {
    Instr::Delay(Arc::new(f))
}

/// [`Instr::Annotate`].
pub fn note(label: &str) -> Instr {
    Instr::Annotate(Arc::from(label))
}

/// [`Instr::Signal`].
pub fn signal(event: &str) -> Instr {
    Instr::Signal(Arc::from(event))
}

/// [`Instr::AwaitEvent`].
pub fn await_event(event: &str) -> Instr {
    Instr::AwaitEvent(Arc::from(event))
}

/// [`Instr::QueueWrite`] with a register-dependent message.
pub fn q_write(queue: &str, f: impl Fn(&Regs) -> Message + Send + Sync + 'static) -> Instr {
    Instr::QueueWrite(Arc::from(queue), Arc::new(f))
}

/// [`Instr::QueueRead`].
pub fn q_read(queue: &str) -> Instr {
    Instr::QueueRead(Arc::from(queue))
}

/// [`Instr::QueueTryWrite`] with a register-dependent message.
pub fn q_try_write(queue: &str, f: impl Fn(&Regs) -> Message + Send + Sync + 'static) -> Instr {
    Instr::QueueTryWrite(Arc::from(queue), Arc::new(f))
}

/// [`Instr::QueueTryRead`].
pub fn q_try_read(queue: &str) -> Instr {
    Instr::QueueTryRead(Arc::from(queue))
}

/// [`Instr::VarRead`] with a fixed access duration.
pub fn var_read(var: &str, d: SimDuration) -> Instr {
    Instr::VarRead(Arc::from(var), Arc::new(move |_| d))
}

/// [`Instr::VarWrite`] with a fixed access duration and a
/// register-dependent value.
pub fn var_write(
    var: &str,
    d: SimDuration,
    f: impl Fn(&Regs) -> Message + Send + Sync + 'static,
) -> Instr {
    Instr::VarWrite(Arc::from(var), Arc::new(move |_| d), Arc::new(f))
}

/// [`Instr::Repeat`].
pub fn repeat(n: u64, body: Vec<Instr>) -> Instr {
    Instr::Repeat(n, body.into())
}

/// [`Instr::Forever`].
///
/// # Panics
///
/// Panics on an empty body (the loop could never make progress).
pub fn forever(body: Vec<Instr>) -> Instr {
    assert!(!body.is_empty(), "Forever body must not be empty");
    Instr::Forever(body.into())
}

/// [`Instr::IfFlag`].
pub fn if_flag(then_body: Vec<Instr>, else_body: Vec<Instr>) -> Instr {
    Instr::IfFlag(then_body.into(), else_body.into())
}

/// [`Instr::IfNowPast`].
pub fn if_now_past(
    f: impl Fn(&Regs) -> SimTime + Send + Sync + 'static,
    body: Vec<Instr>,
) -> Instr {
    Instr::IfNowPast(Arc::new(f), body.into())
}

/// [`Instr::PeriodicRelease`].
pub fn periodic_release(period: SimDuration) -> Instr {
    Instr::PeriodicRelease(period)
}

/// [`Instr::DegradedGate`].
pub fn degraded_gate(nominal: Vec<Instr>, fallback: Vec<Instr>) -> Instr {
    Instr::DegradedGate(nominal.into(), fallback.into())
}

/// [`Instr::Return`].
pub fn ret() -> Instr {
    Instr::Return
}

// ---------------------------------------------------------------------
// Interpreter
// ---------------------------------------------------------------------

/// The two step-machine runners a script can sit on.
#[derive(Clone)]
enum Runner {
    Task(SegTaskRunner),
    Hw(SegHwRunner),
}

impl Runner {
    fn advance(&mut self, ctx: &mut SegmentCtx<'_>) -> SegControl {
        match self {
            Runner::Task(r) => r.advance(ctx),
            Runner::Hw(r) => r.advance(ctx),
        }
    }

    fn agent<'c, 'a>(&self, ctx: &'c mut SegmentCtx<'a>) -> rtsim_core::SegAgent<'c, 'a> {
        match self {
            Runner::Task(r) => r.agent(ctx),
            Runner::Hw(r) => r.agent(ctx),
        }
    }

    fn execute(&mut self, d: SimDuration) {
        match self {
            Runner::Task(r) => r.execute(d),
            Runner::Hw(r) => r.execute(d),
        }
    }

    fn delay(&mut self, now: SimTime, d: SimDuration) {
        match self {
            Runner::Task(r) => r.delay(now, d),
            Runner::Hw(r) => r.delay(d),
        }
    }

    fn suspend(&mut self, resource: bool) {
        match self {
            Runner::Task(r) => r.suspend(resource),
            Runner::Hw(r) => r.suspend(resource),
        }
    }

    fn finish(&mut self) {
        match self {
            Runner::Task(r) => r.finish(),
            Runner::Hw(r) => r.finish(),
        }
    }

    /// Performs the release follow-up of a shared-variable access.
    /// Returns `true` when the follow-up goes through the RTOS and the
    /// access record must wait for it to complete (hardware functions
    /// treat both follow-ups as no-ops, exactly like
    /// [`HwCtx`](rtsim_core::HwCtx)).
    fn followup(&mut self, f: ReleaseFollowup, world: &mut World, now: SimTime) -> bool {
        match (self, f) {
            (Runner::Task(r), ReleaseFollowup::UnlockPreemption) => {
                r.unlock_preemption(world, now);
                true
            }
            (Runner::Task(r), ReleaseFollowup::Reschedule) => {
                r.reschedule(world, now);
                true
            }
            _ => false,
        }
    }

    /// Records a fault of `kind` against this function at the current
    /// instant, through the step's world.
    fn record_fault(&self, ctx: &mut SegmentCtx<'_>, kind: FaultKind, magnitude_ps: u64) {
        let agent = self.agent(ctx);
        let (actor, now, log) = (agent.trace_actor(), agent.now(), agent.log());
        ctx.world()
            .get_mut(log)
            .fault(actor, now, kind, magnitude_ps);
    }
}

/// One control-stack entry: a list being walked, with loop bookkeeping.
#[derive(Clone)]
struct CtlFrame {
    list: Arc<[Instr]>,
    idx: usize,
    kind: FrameKind,
}

#[derive(Clone)]
enum FrameKind {
    /// Plain sequence (an `If` body): pop when exhausted.
    Seq,
    /// Bounded loop: rewind `left - 1` more times, then restore `k`.
    Repeat { left: u64, saved_k: u64 },
    /// Unbounded loop: always rewind.
    Forever,
}

/// A shared-variable access in flight (the segment decomposition of
/// `read_for`/`write_for`).
#[derive(Clone)]
struct VarAccess {
    name: Arc<str>,
    dur: SimDuration,
    /// `Some(value)` for a write, `None` for a read.
    write: Option<Message>,
}

/// What the interpreter must do when the runner next reports idle.
#[derive(Clone)]
enum Pending {
    /// Re-attempt a memorized-event wait after a wake.
    EventRetry(Arc<str>),
    /// Complete a fugitive-event wait (the wake was the signal).
    EventFinish(Arc<str>),
    /// Re-attempt a blocked queue write (carrying the message and the
    /// seniority ticket back).
    QueueWrite(Arc<str>, Message, Option<u64>),
    /// Re-attempt a blocked queue read (carrying the seniority ticket).
    QueueRead(Arc<str>, Option<u64>),
    /// Re-attempt a shared-variable acquisition.
    VarAcquire(VarAccess),
    /// The under-lock compute finished: store, release, follow up.
    VarHold(VarAccess),
    /// The release follow-up finished: record the access.
    VarRecord(VarAccess),
}

/// Did an instruction feed work to the runner (yield soon) or complete
/// instantaneously?
enum Progress {
    Intent,
    Continue,
}

/// A script bound to a step-machine runner — the script interpreter,
/// embeddable directly in
/// [`Simulator::spawn_segment`](rtsim_kernel::Simulator::spawn_segment).
///
/// Plain data and slot ids (the runner, the [`Relations`] ids, the
/// registers and control stack): a clone is the same script at the same
/// point, which is how a forked simulation gets its own.
#[derive(Clone)]
pub struct ScriptProcess {
    runner: Runner,
    io: Arc<Relations>,
    ctl: Vec<CtlFrame>,
    regs: Regs,
    pending: Option<Pending>,
    begun: bool,
    fctx: Option<FaultCtx>,
}

impl ScriptProcess {
    /// Binds a script to an RTOS task runner (see
    /// [`Processor::register_seg_task`](rtsim_core::Processor::register_seg_task)).
    pub fn task(runner: SegTaskRunner, io: Arc<Relations>, script: Arc<[Instr]>) -> Self {
        Self::new(Runner::Task(runner), io, script)
    }

    /// Binds a script to a hardware-function runner (see
    /// [`register_seg_hw`](rtsim_core::register_seg_hw)).
    pub fn hw(runner: SegHwRunner, io: Arc<Relations>, script: Arc<[Instr]>) -> Self {
        Self::new(Runner::Hw(runner), io, script)
    }

    /// Attaches a fault-injection context (see [`FaultCtx`]); without
    /// one the interpreter is exactly the pre-fault interpreter.
    pub fn with_fault(mut self, fctx: Option<FaultCtx>) -> Self {
        self.fctx = fctx;
        self
    }

    fn new(runner: Runner, io: Arc<Relations>, script: Arc<[Instr]>) -> Self {
        let ctl = if script.is_empty() {
            Vec::new()
        } else {
            vec![CtlFrame {
                list: script,
                idx: 0,
                kind: FrameKind::Seq,
            }]
        };
        ScriptProcess {
            runner,
            io,
            ctl,
            regs: Regs::initial(SimTime::ZERO),
            pending: None,
            begun: false,
            fctx: None,
        }
    }

    /// One kernel dispatch: advances the runner, feeding script steps
    /// whenever it goes idle, until it yields a wait or terminates.
    pub fn poll(&mut self, ctx: &mut SegmentCtx<'_>) -> SegStep {
        loop {
            match self.runner.advance(ctx) {
                SegControl::Yield(req) => return SegStep::Yield(req),
                SegControl::Finished => return SegStep::Done,
                SegControl::Idle => {
                    if !self.begun {
                        self.begun = true;
                        self.regs.started = ctx.now();
                    }
                    self.on_idle(ctx);
                }
            }
        }
    }

    /// The runner is idle: resolve any in-flight operation, then feed
    /// instructions until one hands the runner work or the script ends.
    fn on_idle(&mut self, ctx: &mut SegmentCtx<'_>) {
        if let Some(p) = self.pending.take() {
            if let Progress::Intent = self.resume(ctx, p) {
                return;
            }
        }
        loop {
            let Some(instr) = self.fetch() else {
                self.runner.finish();
                return;
            };
            if let Progress::Intent = self.exec(ctx, instr) {
                return;
            }
        }
    }

    /// Advances the control stack to the next instruction, unwinding and
    /// rewinding loops.
    fn fetch(&mut self) -> Option<Instr> {
        enum Wrap {
            Pop(Option<u64>),
            Again,
        }
        loop {
            let wrap = {
                let frame = self.ctl.last_mut()?;
                if frame.idx < frame.list.len() {
                    let instr = frame.list[frame.idx].clone();
                    frame.idx += 1;
                    return Some(instr);
                }
                match &mut frame.kind {
                    FrameKind::Seq => Wrap::Pop(None),
                    FrameKind::Repeat { left, saved_k } => {
                        *left -= 1;
                        if *left == 0 {
                            Wrap::Pop(Some(*saved_k))
                        } else {
                            frame.idx = 0;
                            Wrap::Again
                        }
                    }
                    FrameKind::Forever => {
                        frame.idx = 0;
                        Wrap::Again
                    }
                }
            };
            match wrap {
                Wrap::Pop(k) => {
                    self.ctl.pop();
                    if let Some(k) = k {
                        self.regs.k = k;
                    }
                }
                Wrap::Again => self.regs.k += 1,
            }
        }
    }

    fn push_body(&mut self, list: Arc<[Instr]>, kind: FrameKind) {
        self.ctl.push(CtlFrame { list, idx: 0, kind });
    }

    fn exec(&mut self, ctx: &mut SegmentCtx<'_>, instr: Instr) -> Progress {
        match instr {
            Instr::Execute(f) => {
                let mut d = f(&self.regs);
                if let Some(fc) = &self.fctx {
                    let now = ctx.now();
                    let extra = fc.injector.burst_extra(&fc.task, now, d);
                    if extra > SimDuration::ZERO {
                        self.runner
                            .record_fault(ctx, FaultKind::Burst, extra.as_ps());
                        d += extra;
                    }
                }
                self.runner.execute(d);
                Progress::Intent
            }
            Instr::Delay(f) => {
                let d = f(&self.regs);
                self.runner.delay(ctx.now(), d);
                Progress::Intent
            }
            Instr::Annotate(label) => {
                let mut agent = self.runner.agent(ctx);
                agent.annotate(&label);
                Progress::Continue
            }
            Instr::Signal(name) => {
                let mut agent = self.runner.agent(ctx);
                self.io.event_ref(&name).signal(&mut agent);
                Progress::Continue
            }
            Instr::AwaitEvent(name) => self.event_wait(ctx, name),
            Instr::QueueWrite(name, f) => {
                let msg = f(&self.regs);
                self.queue_write(ctx, name, msg, None)
            }
            Instr::QueueRead(name) => self.queue_read(ctx, name, None),
            Instr::QueueTryWrite(name, f) => {
                let msg = f(&self.regs);
                let ok = {
                    let mut agent = self.runner.agent(ctx);
                    self.io.queue_ref(&name).try_write(&mut agent, msg).is_ok()
                };
                self.regs.flag = ok;
                Progress::Continue
            }
            Instr::QueueTryRead(name) => {
                let got = {
                    let mut agent = self.runner.agent(ctx);
                    self.io.queue_ref(&name).try_read(&mut agent)
                };
                match got {
                    Some(m) => {
                        self.regs.msg = m;
                        self.regs.flag = true;
                    }
                    None => self.regs.flag = false,
                }
                Progress::Continue
            }
            Instr::VarRead(name, f) => {
                let dur = f(&self.regs);
                self.var_begin(
                    ctx,
                    VarAccess {
                        name,
                        dur,
                        write: None,
                    },
                )
            }
            Instr::VarWrite(name, df, mf) => {
                let dur = df(&self.regs);
                let msg = mf(&self.regs);
                self.var_begin(
                    ctx,
                    VarAccess {
                        name,
                        dur,
                        write: Some(msg),
                    },
                )
            }
            Instr::Repeat(n, body) => {
                if n > 0 {
                    let saved = self.regs.k;
                    self.push_body(
                        body,
                        FrameKind::Repeat {
                            left: n,
                            saved_k: saved,
                        },
                    );
                    self.regs.k = 0;
                }
                Progress::Continue
            }
            Instr::Forever(body) => {
                assert!(!body.is_empty(), "Forever body must not be empty");
                self.push_body(body, FrameKind::Forever);
                self.regs.k = 0;
                Progress::Continue
            }
            Instr::IfFlag(then_body, else_body) => {
                let body = if self.regs.flag { then_body } else { else_body };
                if !body.is_empty() {
                    self.push_body(body, FrameKind::Seq);
                }
                Progress::Continue
            }
            Instr::IfNowPast(f, body) => {
                if ctx.now() > f(&self.regs) && !body.is_empty() {
                    self.push_body(body, FrameKind::Seq);
                }
                Progress::Continue
            }
            Instr::PeriodicRelease(period) => {
                let next_k = self.regs.k + 1;
                let base = self.regs.started + period * next_k;
                let offset = self
                    .fctx
                    .as_ref()
                    .map_or(SimDuration::ZERO, |fc| fc.release_offset(next_k));
                let now = ctx.now();
                if offset > SimDuration::ZERO {
                    self.runner
                        .record_fault(ctx, FaultKind::Jitter, offset.as_ps());
                }
                let next = base + offset;
                if next > now {
                    self.runner.delay(now, next - now);
                    Progress::Intent
                } else {
                    Progress::Continue
                }
            }
            Instr::DegradedGate(nominal, fallback) => {
                let mut use_fallback = false;
                if let Some(fc) = self.fctx.as_mut() {
                    let now = ctx.now();
                    let locally = fc.locally_faulted(now, self.regs.k);
                    let verdict = fc.injector.degraded_tick(ctx.world(), &fc.task, now, locally);
                    if let Some(v) = verdict {
                        // Deadline changes go through the task handle;
                        // hardware functions have no deadline, so for them
                        // this is a no-op (as `Agent::set_relative_deadline`
                        // is for `HwCtx`).
                        let handle = match &self.runner {
                            Runner::Task(r) => Some(r.handle()),
                            Runner::Hw(_) => None,
                        };
                        match v.change {
                            Some(ModeChange::EnterDegraded) => {
                                self.runner.record_fault(ctx, FaultKind::Degraded, 0);
                                if let Some(h) = handle {
                                    let world = ctx.world();
                                    if fc.saved_deadline.is_none() {
                                        fc.saved_deadline = Some(h.relative_deadline_in(world));
                                    }
                                    h.set_relative_deadline_in(world, Some(v.relaxed_deadline));
                                }
                            }
                            Some(ModeChange::Recover) => {
                                self.runner.record_fault(ctx, FaultKind::Recovered, 0);
                                if let Some(h) = handle {
                                    if let Some(orig) = fc.saved_deadline.take() {
                                        h.set_relative_deadline_in(ctx.world(), orig);
                                    }
                                }
                            }
                            None => {}
                        }
                        use_fallback = v.degraded;
                    }
                }
                let body = if use_fallback { fallback } else { nominal };
                if !body.is_empty() {
                    self.push_body(body, FrameKind::Seq);
                }
                Progress::Continue
            }
            Instr::Return => {
                self.ctl.clear();
                Progress::Continue
            }
        }
    }

    fn resume(&mut self, ctx: &mut SegmentCtx<'_>, pending: Pending) -> Progress {
        match pending {
            Pending::EventRetry(name) => self.event_wait(ctx, name),
            Pending::EventFinish(name) => {
                let mut agent = self.runner.agent(ctx);
                self.io.event_ref(&name).finish_fugitive_wait(&mut agent);
                Progress::Continue
            }
            Pending::QueueWrite(name, msg, ticket) => self.queue_write(ctx, name, msg, ticket),
            Pending::QueueRead(name, ticket) => self.queue_read(ctx, name, ticket),
            Pending::VarAcquire(acc) => self.var_begin(ctx, acc),
            Pending::VarHold(acc) => self.var_release(ctx, acc),
            Pending::VarRecord(acc) => {
                self.var_record(ctx, &acc);
                Progress::Continue
            }
        }
    }

    fn event_wait(&mut self, ctx: &mut SegmentCtx<'_>, name: Arc<str>) -> Progress {
        let wait = {
            let mut agent = self.runner.agent(ctx);
            self.io.event_ref(&name).wait_attempt(&mut agent)
        };
        match wait {
            EvWait::Ready => Progress::Continue,
            EvWait::Registered { fugitive } => {
                self.runner.suspend(false);
                self.pending = Some(if fugitive {
                    Pending::EventFinish(name)
                } else {
                    Pending::EventRetry(name)
                });
                Progress::Intent
            }
        }
    }

    fn queue_write(
        &mut self,
        ctx: &mut SegmentCtx<'_>,
        name: Arc<str>,
        msg: Message,
        mut ticket: Option<u64>,
    ) -> Progress {
        let res = {
            let mut agent = self.runner.agent(ctx);
            self.io
                .queue_ref(&name)
                .write_attempt(&mut agent, msg, &mut ticket)
        };
        match res {
            Ok(()) => Progress::Continue,
            Err(m) => {
                self.runner.suspend(false);
                self.pending = Some(Pending::QueueWrite(name, m, ticket));
                Progress::Intent
            }
        }
    }

    fn queue_read(
        &mut self,
        ctx: &mut SegmentCtx<'_>,
        name: Arc<str>,
        mut ticket: Option<u64>,
    ) -> Progress {
        let got = {
            let mut agent = self.runner.agent(ctx);
            self.io
                .queue_ref(&name)
                .read_attempt(&mut agent, &mut ticket)
        };
        match got {
            Some(m) => {
                self.regs.msg = m;
                Progress::Continue
            }
            None => {
                self.runner.suspend(false);
                self.pending = Some(Pending::QueueRead(name, ticket));
                Progress::Intent
            }
        }
    }

    fn var_begin(&mut self, ctx: &mut SegmentCtx<'_>, acc: VarAccess) -> Progress {
        let var = self.io.var_ref(&acc.name);
        let mut agent = self.runner.agent(ctx);
        if !var.acquire_attempt(&mut agent) {
            self.runner.suspend(true);
            self.pending = Some(Pending::VarAcquire(acc));
            return Progress::Intent;
        }
        // Lock acquired: take the value snapshot (exactly where a closure
        // body's `with_lock` clones it), then compute under the lock.
        if acc.write.is_none() {
            self.regs.var = var.locked_get(&mut agent);
        }
        if !acc.dur.is_zero() {
            self.runner.execute(acc.dur);
            self.pending = Some(Pending::VarHold(acc));
            return Progress::Intent;
        }
        self.var_release(ctx, acc)
    }

    fn var_release(&mut self, ctx: &mut SegmentCtx<'_>, acc: VarAccess) -> Progress {
        let followup = {
            let var = self.io.var_ref(&acc.name);
            let mut agent = self.runner.agent(ctx);
            if let Some(m) = acc.write {
                var.locked_set(&mut agent, m);
            }
            var.release_attempt(&mut agent)
        };
        let now = ctx.now();
        if self.runner.followup(followup, ctx.world(), now) {
            self.pending = Some(Pending::VarRecord(acc));
            return Progress::Intent;
        }
        self.var_record(ctx, &acc);
        Progress::Continue
    }

    fn var_record(&mut self, ctx: &mut SegmentCtx<'_>, acc: &VarAccess) {
        let kind = if acc.write.is_some() {
            CommKind::Write
        } else {
            CommKind::Read
        };
        let mut agent = self.runner.agent(ctx);
        self.io.var_ref(&acc.name).record_access(&mut agent, kind);
    }
}

impl std::fmt::Debug for ScriptProcess {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ScriptProcess")
            .field("frames", &self.ctl.len())
            .field("regs", &self.regs)
            .field("pending", &self.pending.is_some())
            .finish()
    }
}
