//! Function bodies as data: a small behaviour script.
//!
//! A closure body (see [`SystemModel::function`](crate::SystemModel::function))
//! blocks, so it needs a thread of its own. A **script** expresses the
//! same behaviour as data — a list of [`Instr`] steps over a tiny
//! register file ([`Regs`]) — and [`ScriptProcess`] interprets it as a
//! step machine over a [`SegTaskRunner`]/[`SegHwRunner`], feeding waits
//! back to the kernel as [`SegStep::Yield`](rtsim_kernel::SegStep). A
//! blocking relation instruction starts the relation's [`Op`] (the one
//! implementation a closure body's blocking call runs too), feeds each
//! [`Need`] it returns to the runner as an intent, and steps it again at
//! the next idle.
//!
//! This is the only script interpreter. The execution mode decides only
//! where it runs: inline in the scheduler loop, or on a thread of its
//! own that is handed the kernel when it is dispatched (see
//! [`Simulator::spawn_machine`](rtsim_kernel::Simulator::spawn_machine)).
//! So a scripted model produces bit-identical canonical traces in either
//! mode — the property the regression farm's cross-mode differential
//! suite asserts.

use std::sync::Arc;

use rtsim_comm::{Need, Op};
use rtsim_core::{Party, SegControl, SegHwRunner, SegTaskRunner};
use rtsim_fault::{FaultInjector, ModeChange};
use rtsim_kernel::world::share;
use rtsim_kernel::{SegMachine, SegStep, SegmentCtx, SimDuration, SimTime};
use rtsim_trace::FaultKind;

use crate::elaborate::Io;
use crate::model::Message;

/// The fault-injection view of one function: the system's shared
/// [`FaultInjector`] plus this function's name, threaded through the
/// interpreter so [`Instr::Execute`], [`Instr::PeriodicRelease`] and
/// [`Instr::DegradedGate`] can consult the plan. Absent (the common
/// case) the interpreter takes the exact pre-fault paths, byte for byte.
///
/// The injector is immutable plan data (its lanes and monitors live in
/// the simulation world), so a clone shares it.
pub struct FaultCtx {
    injector: Arc<FaultInjector>,
    task: Arc<str>,
    /// The nominal relative deadline, saved on entering degraded mode
    /// and restored on recovery.
    saved_deadline: Option<Option<SimDuration>>,
}

/// By hand, so that a fork leaves the shared names' counts alone.
impl Clone for FaultCtx {
    fn clone(&self) -> Self {
        FaultCtx {
            injector: Arc::clone(&self.injector),
            task: Arc::clone(&self.task),
            saved_deadline: self.saved_deadline,
        }
    }

    fn clone_from(&mut self, source: &Self) {
        share(&mut self.injector, &source.injector);
        share(&mut self.task, &source.task);
        self.saved_deadline = source.saved_deadline;
    }
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
        f.debug_struct("FaultCtx")
            .field("task", &self.task)
            .finish()
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
enum Runner {
    Task(SegTaskRunner),
    Hw(SegHwRunner),
}

/// By hand, so that a runner of the same kind is written in place.
impl Clone for Runner {
    fn clone(&self) -> Self {
        match self {
            Runner::Task(r) => Runner::Task(r.clone()),
            Runner::Hw(r) => Runner::Hw(r.clone()),
        }
    }

    fn clone_from(&mut self, source: &Self) {
        match (self, source) {
            (Runner::Task(r), Runner::Task(s)) => r.clone_from(s),
            (Runner::Hw(r), Runner::Hw(s)) => r.clone_from(s),
            (runner, source) => *runner = source.clone(),
        }
    }
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

    fn finish(&mut self) {
        match self {
            Runner::Task(r) => r.finish(),
            Runner::Hw(r) => r.finish(),
        }
    }

    /// Feeds a relation operation's need as an intent. A hardware
    /// function's follow-ups are no-ops, as on
    /// [`HwCtx`](rtsim_core::HwCtx): it feeds nothing, and the next idle
    /// steps the operation on.
    fn feed(&mut self, need: Need, ctx: &mut SegmentCtx<'_>) {
        let now = ctx.now();
        match (self, need) {
            (Runner::Task(r), Need::Suspend { resource }) => r.suspend(resource),
            (Runner::Hw(r), Need::Suspend { resource }) => r.suspend(resource),
            (runner, Need::Execute(d)) => runner.execute(d),
            (Runner::Task(r), Need::UnlockPreemption) => r.unlock_preemption(ctx.world(), now),
            (Runner::Task(r), Need::Reschedule) => r.reschedule(ctx.world(), now),
            (Runner::Hw(_), Need::UnlockPreemption | Need::Reschedule) => {}
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
struct CtlFrame {
    list: Arc<[Instr]>,
    idx: usize,
    kind: FrameKind,
}

/// By hand, so that a fork leaves the shared list's count alone.
impl Clone for CtlFrame {
    fn clone(&self) -> Self {
        CtlFrame {
            list: Arc::clone(&self.list),
            idx: self.idx,
            kind: self.kind,
        }
    }

    fn clone_from(&mut self, source: &Self) {
        share(&mut self.list, &source.list);
        self.idx = source.idx;
        self.kind = source.kind;
    }
}

#[derive(Clone, Copy)]
enum FrameKind {
    /// Plain sequence (an `If` body): pop when exhausted.
    Seq,
    /// Bounded loop: rewind `left - 1` more times, then restore `k`.
    Repeat { left: u64, saved_k: u64 },
    /// Unbounded loop: always rewind.
    Forever,
}

/// Did an instruction feed work to the runner (yield soon) or complete
/// instantaneously, and what does the control stack do next?
enum Progress<'i> {
    Intent,
    Continue,
    /// Walk `body` next.
    Enter(&'i Arc<[Instr]>, FrameKind),
    /// End the script.
    Return,
}

/// A script bound to a step-machine runner — the script interpreter,
/// spawned as it is with
/// [`Simulator::spawn_machine`](rtsim_kernel::Simulator::spawn_machine).
///
/// Plain data and slot ids (the runner, the [`Io`] ids, the registers,
/// the control stack and the operation in flight): a clone is the same
/// script at the same point, which is how a forked simulation gets its
/// own. It is spawned as a named [`SegMachine`], so a fork into
/// another simulation writes it with `clone_from`, into the control and
/// frame stacks that simulation's script already has.
pub struct ScriptProcess {
    runner: Runner,
    io: Arc<Io>,
    ctl: Vec<CtlFrame>,
    regs: Regs,
    /// The blocking relation operation in flight, stepped at each idle,
    /// and where the value a read gets lands.
    op: Option<(Op<Message>, Land)>,
    begun: bool,
    fctx: Option<FaultCtx>,
}

/// Stores the value a completed read got into its register.
type Land = fn(&mut Regs, Message);

impl Clone for ScriptProcess {
    fn clone(&self) -> Self {
        ScriptProcess {
            runner: self.runner.clone(),
            io: Arc::clone(&self.io),
            ctl: self.ctl.clone(),
            regs: self.regs,
            op: self.op.clone(),
            begun: self.begun,
            fctx: self.fctx.clone(),
        }
    }

    fn clone_from(&mut self, source: &Self) {
        self.runner.clone_from(&source.runner);
        share(&mut self.io, &source.io);
        self.ctl.clone_from(&source.ctl);
        self.regs = source.regs;
        self.op.clone_from(&source.op);
        self.begun = source.begun;
        self.fctx.clone_from(&source.fctx);
    }
}

impl SegMachine for ScriptProcess {
    /// One kernel dispatch: advances the runner, feeding script steps
    /// whenever it goes idle, until it yields a wait or terminates.
    fn step(&mut self, ctx: &mut SegmentCtx<'_>) -> SegStep {
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
}

impl ScriptProcess {
    /// Binds a script to an RTOS task runner (see
    /// [`Processor::register_seg_task`](rtsim_core::Processor::register_seg_task)).
    pub fn task(runner: SegTaskRunner, io: Arc<Io>, script: Arc<[Instr]>) -> Self {
        Self::new(Runner::Task(runner), io, script)
    }

    /// Binds a script to a hardware-function runner (see
    /// [`register_seg_hw`](rtsim_core::register_seg_hw)).
    pub fn hw(runner: SegHwRunner, io: Arc<Io>, script: Arc<[Instr]>) -> Self {
        Self::new(Runner::Hw(runner), io, script)
    }

    /// Attaches a fault-injection context (see [`FaultCtx`]); without
    /// one the interpreter is exactly the pre-fault interpreter.
    pub fn with_fault(mut self, fctx: Option<FaultCtx>) -> Self {
        self.fctx = fctx;
        self
    }

    fn new(runner: Runner, io: Arc<Io>, script: Arc<[Instr]>) -> Self {
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
            op: None,
            begun: false,
            fctx: None,
        }
    }

    /// The runner is idle: step the operation in flight, then feed
    /// instructions until one hands the runner work or the script ends.
    /// The control stack is taken out for the walk, so that each
    /// instruction runs where it lies in its list.
    fn on_idle(&mut self, ctx: &mut SegmentCtx<'_>) {
        if let Some((op, land)) = self.op.take() {
            if let Progress::Intent = self.step_op(ctx, op, land) {
                return;
            }
        }
        let mut ctl = std::mem::take(&mut self.ctl);
        loop {
            let Some(instr) = fetch(&mut ctl, &mut self.regs.k) else {
                self.runner.finish();
                break;
            };
            match self.exec(ctx, instr) {
                Progress::Intent => break,
                Progress::Continue => {}
                Progress::Enter(body, kind) => {
                    let list = Arc::clone(body);
                    ctl.push(CtlFrame { list, idx: 0, kind });
                }
                Progress::Return => ctl.clear(),
            }
        }
        self.ctl = ctl;
    }

    fn exec<'i>(&mut self, ctx: &mut SegmentCtx<'_>, instr: &'i Instr) -> Progress<'i> {
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
                agent.annotate(label);
                Progress::Continue
            }
            Instr::Signal(name) => {
                let mut agent = self.runner.agent(ctx);
                self.io.event(name).signal(&mut agent);
                Progress::Continue
            }
            Instr::AwaitEvent(name) => {
                let op = Op::wait(&self.io.event(name));
                self.step_op(ctx, op, |_, _| {})
            }
            Instr::QueueWrite(name, f) => {
                let op = Op::write(&self.io.queue(name), f(&self.regs));
                self.step_op(ctx, op, |_, _| {})
            }
            Instr::QueueRead(name) => {
                let op = Op::read(&self.io.queue(name));
                self.step_op(ctx, op, |regs, m| regs.msg = m)
            }
            Instr::QueueTryWrite(name, f) => {
                let msg = f(&self.regs);
                let ok = {
                    let mut agent = self.runner.agent(ctx);
                    self.io.queue(name).try_write(&mut agent, msg).is_ok()
                };
                self.regs.flag = ok;
                Progress::Continue
            }
            Instr::QueueTryRead(name) => {
                let got = {
                    let mut agent = self.runner.agent(ctx);
                    self.io.queue(name).try_read(&mut agent)
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
                let op = Op::read_for(&self.io.var(name), f(&self.regs));
                self.step_op(ctx, op, |regs, m| regs.var = m)
            }
            Instr::VarWrite(name, df, mf) => {
                let op = Op::write_for(&self.io.var(name), df(&self.regs), mf(&self.regs));
                self.step_op(ctx, op, |_, _| {})
            }
            &Instr::Repeat(n, ref body) => {
                if n == 0 {
                    return Progress::Continue;
                }
                let saved_k = self.regs.k;
                self.regs.k = 0;
                Progress::Enter(body, FrameKind::Repeat { left: n, saved_k })
            }
            Instr::Forever(body) => {
                assert!(!body.is_empty(), "Forever body must not be empty");
                self.regs.k = 0;
                Progress::Enter(body, FrameKind::Forever)
            }
            Instr::IfFlag(then_body, else_body) => {
                seq(if self.regs.flag { then_body } else { else_body })
            }
            Instr::IfNowPast(f, body) => {
                if ctx.now() > f(&self.regs) {
                    seq(body)
                } else {
                    Progress::Continue
                }
            }
            &Instr::PeriodicRelease(period) => {
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
                    let verdict = fc
                        .injector
                        .degraded_tick(ctx.world(), &fc.task, now, locally);
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
                seq(if use_fallback { fallback } else { nominal })
            }
            Instr::Return => Progress::Return,
        }
    }

    /// Steps a blocking relation operation: feeds its need to the runner
    /// and keeps it in flight, or completes it, `land`ing a read's value.
    fn step_op(
        &mut self,
        ctx: &mut SegmentCtx<'_>,
        mut op: Op<Message>,
        land: Land,
    ) -> Progress<'static> {
        match op.step(&mut self.runner.agent(ctx)) {
            Err(need) => {
                self.runner.feed(need, ctx);
                self.op = Some((op, land));
                Progress::Intent
            }
            Ok(got) => {
                if let Some(m) = got {
                    land(&mut self.regs, m);
                }
                Progress::Continue
            }
        }
    }
}

/// Walking `body` next, as a plain sequence, unless it is empty.
fn seq(body: &Arc<[Instr]>) -> Progress<'_> {
    if body.is_empty() {
        Progress::Continue
    } else {
        Progress::Enter(body, FrameKind::Seq)
    }
}

/// Advances the control stack `ctl` to the next instruction, unwinding
/// and rewinding loops (`k` counts a loop's iterations).
fn fetch<'c>(ctl: &'c mut Vec<CtlFrame>, k: &mut u64) -> Option<&'c Instr> {
    loop {
        let frame = ctl.last_mut()?;
        if frame.idx < frame.list.len() {
            frame.idx += 1;
            break;
        }
        match &mut frame.kind {
            FrameKind::Seq => {
                ctl.pop();
            }
            FrameKind::Repeat { left, saved_k } => {
                *left -= 1;
                if *left == 0 {
                    *k = *saved_k;
                    ctl.pop();
                } else {
                    frame.idx = 0;
                    *k += 1;
                }
            }
            FrameKind::Forever => {
                frame.idx = 0;
                *k += 1;
            }
        }
    }
    let frame = ctl.last()?;
    Some(&frame.list[frame.idx - 1])
}

impl std::fmt::Debug for ScriptProcess {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ScriptProcess")
            .field("frames", &self.ctl.len())
            .field("regs", &self.regs)
            .field("op", &self.op.as_ref().map(|(op, _)| op))
            .finish()
    }
}
