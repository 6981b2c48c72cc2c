//! A Segment-mode run takes no lock per step: the simulator lends its
//! world once, and every RTOS frame, trace record and relation access of
//! every step reaches the state through that loan.
//!
//! The system is the one of `alloc_steady_state.rs` — a priority-
//! preemptive processor with uniform overheads and a round-robin one —
//! extended with a capacity-2 message queue, a priority-inheritance
//! shared variable and a counter event, so producers block on a full
//! queue, tasks block on the held variable (boosting its owner) and a
//! task waits for memorized signals. Bringing back a lock per trace
//! record, per RTOS frame or per relation access makes the Segment-mode
//! count fail.

use rtsim_comm::{EventPolicy, LockMode, MessageQueue, Need, Op, RtEvent, SharedVar};
use rtsim_core::policies::RoundRobin;
use rtsim_core::{
    Overheads, Processor, ProcessorConfig, SchedulerStats, SegControl, SegTaskRunner, TaskConfig,
};
use rtsim_kernel::sync::locks_taken;
use rtsim_kernel::{ExecMode, KernelError, SegStep, SegmentCtx, SimDuration, SimTime, Simulator};
use rtsim_trace::{ActorKind, CommKind, TaskState, TraceData, TraceRecorder};

fn us(n: u64) -> SimDuration {
    SimDuration::from_us(n)
}

/// One step of a task's endless program.
#[derive(Debug, Clone, Copy)]
enum Step {
    /// Compute for this many µs.
    Exec(u64),
    /// Sleep until the next release, this many µs after the previous one.
    Release(u64),
    /// Blocking write of one message to the queue.
    Write,
    /// Blocking read of one message from the queue.
    Read,
    /// Write the shared variable while computing for this many µs under
    /// its lock.
    Hold(u64),
    /// Signal the counter event.
    Signal,
    /// Wait for one memorized signal of the counter event.
    Await,
}

/// The relations every task program may use.
#[derive(Clone)]
struct Channels {
    queue: MessageQueue<u32>,
    var: SharedVar<u32>,
    event: RtEvent,
}

/// A task running `steps` in a loop, driving its runner the way the
/// script interpreter does: a blocking step starts the relation's `Op`,
/// each need the op returns is fed to the runner as an intent, and the
/// op steps again at the next idle.
#[derive(Clone)]
struct Program {
    runner: SegTaskRunner,
    rel: Channels,
    steps: Vec<Step>,
    pc: usize,
    release: SimTime,
    op: Option<Op<u32>>,
}

impl Program {
    /// Feeds steps until one hands the runner work.
    fn feed(&mut self, ctx: &mut SegmentCtx<'_>) {
        loop {
            if self.op.is_none() {
                let step = self.steps[self.pc];
                self.pc = (self.pc + 1) % self.steps.len();
                self.op = Some(match step {
                    Step::Exec(n) => return self.runner.execute(us(n)),
                    Step::Release(period) => {
                        self.release += us(period);
                        let now = ctx.now();
                        let sleep = if self.release > now {
                            self.release - now
                        } else {
                            SimDuration::ZERO
                        };
                        return self.runner.delay(now, sleep);
                    }
                    Step::Signal => {
                        self.rel.event.signal(&mut self.runner.agent(ctx));
                        continue;
                    }
                    Step::Write => Op::write(&self.rel.queue, 1),
                    Step::Read => Op::read(&self.rel.queue),
                    Step::Hold(n) => Op::write_for(&self.rel.var, us(n), 1),
                    Step::Await => Op::wait(&self.rel.event),
                });
            }
            let op = self.op.as_mut().expect("an op in flight");
            match op.step(&mut self.runner.agent(ctx)) {
                Ok(_) => self.op = None,
                Err(Need::Suspend { resource }) => return self.runner.suspend(resource),
                Err(Need::Execute(d)) => return self.runner.execute(d),
                Err(need) => panic!("a priority-inheritance variable needs no {need:?}"),
            }
        }
    }
}

/// Registers a task running `steps` forever on `cpu`.
fn task(
    sim: &mut Simulator,
    cpu: &Processor,
    rel: &Channels,
    name: &str,
    priority: u32,
    steps: &[Step],
) {
    let runner = cpu.register_seg_task(sim, TaskConfig::new(name).priority(priority));
    let mut program = Program {
        runner,
        rel: rel.clone(),
        steps: steps.to_vec(),
        pc: 0,
        release: SimTime::ZERO,
        op: None,
    };
    sim.spawn_segment(name, move |ctx| loop {
        match program.runner.advance(ctx) {
            SegControl::Yield(req) => return SegStep::Yield(req),
            SegControl::Finished => return SegStep::Done,
            SegControl::Idle => program.feed(ctx),
        }
    });
}

/// The scenario, built on `rec` in `mode`.
fn system(mode: ExecMode, rec: &TraceRecorder) -> (Simulator, Processor, Processor) {
    use Step::*;
    let mut sim = Simulator::with_mode(mode);
    let rel = Channels {
        queue: MessageQueue::new(rec, "q", 2),
        var: SharedVar::new(rec, "v", 0, LockMode::PriorityInheritance),
        event: RtEvent::new(rec, "ev", EventPolicy::Counter),
    };
    let fixed = Processor::new(
        &mut sim,
        rec,
        ProcessorConfig::new("FP").overheads(Overheads::uniform(us(2))),
    );
    task(
        &mut sim,
        &fixed,
        &rel,
        "hi",
        5,
        &[Exec(8), Hold(4), Release(100)],
    );
    task(&mut sim, &fixed, &rel, "sink", 4, &[Await, Exec(3)]);
    task(
        &mut sim,
        &fixed,
        &rel,
        "mid",
        3,
        &[Exec(20), Write, Write, Write, Signal, Release(170)],
    );
    task(&mut sim, &fixed, &rel, "consumer", 2, &[Read, Exec(3)]);
    task(
        &mut sim,
        &fixed,
        &rel,
        "lo",
        1,
        &[Hold(15), Exec(30), Release(430)],
    );
    let shared = Processor::new(
        &mut sim,
        rec,
        ProcessorConfig::new("RR").policy(RoundRobin::new(us(5))),
    );
    task(&mut sim, &shared, &rel, "a", 1, &[Exec(30), Release(100)]);
    task(&mut sim, &shared, &rel, "b", 1, &[Exec(40), Release(150)]);
    (sim, fixed, shared)
}

fn dispatches(a: SchedulerStats, b: SchedulerStats) -> u64 {
    b.dispatches - a.dispatches
}

#[test]
fn segment_mode_run_takes_one_lock_the_loan() {
    let rec = TraceRecorder::new();
    let (mut sim, fixed, shared) = system(ExecMode::Segment, &rec);
    sim.run_until(SimTime::ZERO + us(5_000)).unwrap();
    let (fp0, rr0) = (fixed.stats(), shared.stats());

    let before = locks_taken();
    sim.run_until(SimTime::ZERO + us(105_000)).unwrap();
    let locks = locks_taken() - before;

    let n = dispatches(fp0, fixed.stats()) + dispatches(rr0, shared.stats());
    assert!(n > 10_000, "only {n} RTOS dispatches measured");
    assert!(
        locks <= 1,
        "{locks} locks over {n} RTOS dispatches: a Segment-mode step must reach \
         the world through the run's one loan"
    );

    // The extensions were exercised: the queue filled up, the variable
    // was contended, the event delivered memorized signals.
    let trace = rec.snapshot();
    let q = trace.actor_by_name("q").unwrap();
    let ev = trace.actor_by_name("ev").unwrap();
    assert!(trace
        .records_for(q)
        .any(|r| matches!(r.data, TraceData::QueueDepth { depth: 2, .. })));
    assert!(trace.actors_of_kind(ActorKind::Task).any(|t| trace
        .records_for(t)
        .any(|r| r.data == TraceData::State(TaskState::WaitingResource))));
    assert!(trace.records().iter().any(|r| matches!(
        r.data,
        TraceData::Comm { relation, kind: CommKind::Read } if relation == ev
    )));
}

#[test]
fn thread_mode_lends_the_world_at_most_once_per_switch() {
    let rec = TraceRecorder::new();
    let (mut sim, _fixed, _shared) = system(ExecMode::Thread, &rec);
    sim.run_until(SimTime::ZERO + us(1_000)).unwrap();
    let loans0 = rec.world().lock_for("test").loans();
    let switches0 = sim.stats().process_switches;

    sim.run_until(SimTime::ZERO + us(11_000)).unwrap();
    // Minus the loan that reads the count itself.
    let loans = rec.world().lock_for("test").loans() - loans0 - 1;
    let switches = sim.stats().process_switches - switches0;
    assert!(switches > 1_000, "only {switches} process switches");
    assert!(
        loans <= switches,
        "{loans} world loans over {switches} process switches"
    );
}

/// Runs a system whose one step calls `accessor` — with a queue and the
/// recorder of the system's own world — and returns the run's error.
fn misuse(
    mode: ExecMode,
    accessor: impl Fn(&TraceRecorder, &MessageQueue<u32>) + Clone + Send + 'static,
) -> String {
    let rec = TraceRecorder::new();
    let queue = MessageQueue::new(&rec, "q", 2);
    let mut sim = Simulator::with_mode(mode);
    let cpu = Processor::new(&mut sim, &rec, ProcessorConfig::new("CPU"));
    let mut runner = cpu.register_seg_task(&mut sim, TaskConfig::new("t"));
    let probe = rec.clone();
    sim.spawn_segment("t", move |ctx| loop {
        match runner.advance(ctx) {
            SegControl::Yield(req) => return SegStep::Yield(req),
            SegControl::Finished => return SegStep::Done,
            SegControl::Idle => {
                accessor(&probe, &queue);
                runner.finish();
            }
        }
    });
    match sim.run() {
        Err(KernelError::ProcessPanicked { message, .. }) => message,
        other => panic!("[{mode}] the misuse must fail the run, got {other:?}"),
    }
}

#[test]
fn cold_path_accessors_inside_a_step_panic_with_their_name() {
    for mode in [ExecMode::Segment, ExecMode::Thread] {
        let message = misuse(mode, |rec, _| {
            let _ = rec.len();
        });
        assert!(
            message.contains("TraceRecorder::len called inside a simulation step"),
            "[{mode}] {message}"
        );
        let message = misuse(mode, |_, queue| {
            let _ = queue.len();
        });
        assert!(
            message.contains("MessageQueue::len called inside a simulation step"),
            "[{mode}] {message}"
        );
    }
}
