//! How often the engine calls user code. Goldens pin what a schedule
//! does, not the questions asked on the way: an extra `select`, or an
//! overhead formula evaluated for a scheduler pass that never happens,
//! changes no decision, yet a policy or formula with state (a counter, a
//! random draw) sees it. These tests pin both kinds of call exactly.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use rtsim_core::policies::{from_fn, EarliestDeadlineFirst, PriorityPreemptive, RoundRobin};
use rtsim_core::{
    EngineKind, OverheadSpec, Overheads, PolicyView, Processor, ProcessorConfig, SchedulingPolicy,
    TaskConfig, TaskId, TaskView,
};
use rtsim_kernel::{ExecMode, SimDuration, SimTime, Simulator};
use rtsim_trace::{OverheadKind, Trace, TraceData, TraceRecorder};

const A: EngineKind = EngineKind::DedicatedThread;
const B: EngineKind = EngineKind::ProcedureCall;

fn us(v: u64) -> SimDuration {
    SimDuration::from_us(v)
}

/// The periodic task set: (priority, period µs, cost µs, jobs). Every
/// task releases its last job before 1.2 ms; the total utilization is
/// just above one core's capacity.
const TASKS: [(u32, u64, u64, u32); 5] = [
    (5, 200, 40, 6),
    (4, 300, 70, 4),
    (3, 400, 90, 3),
    (2, 600, 120, 2),
    (1, 1_200, 200, 1),
];

/// Runs `tasks` to completion on one processor built from `config` and
/// returns the trace.
fn run(config: ProcessorConfig, tasks: &[(u32, u64, u64, u32)]) -> Trace {
    let mut sim = Simulator::new();
    let rec = TraceRecorder::new();
    let cpu = Processor::new(&mut sim, &rec, config);
    for (i, &(priority, period_us, cost_us, jobs)) in tasks.iter().enumerate() {
        let period = us(period_us);
        let config = TaskConfig::new(&format!("t{i}"))
            .priority(priority)
            .period(period)
            .deadline(period);
        cpu.spawn_task(&mut sim, config, move |task| {
            let mut release = SimTime::ZERO;
            for _ in 0..jobs {
                task.execute(us(cost_us));
                release += period;
                let now = task.now();
                task.delay(if release > now {
                    release - now
                } else {
                    SimDuration::ZERO
                });
            }
        });
    }
    sim.run().unwrap();
    rec.snapshot()
}

/// Counts the calls of each `SchedulingPolicy` method, delegating the
/// decisions to `inner`.
#[derive(Debug, Clone)]
struct Counting {
    inner: Box<dyn SchedulingPolicy>,
    /// `select`, `should_preempt`, `time_slice`.
    calls: Arc<[AtomicU64; 3]>,
}

impl Counting {
    /// Wraps the policy named `name`; returns it and its counters.
    fn new(name: &str) -> (Self, Arc<[AtomicU64; 3]>) {
        let calls = Arc::new([AtomicU64::new(0), AtomicU64::new(0), AtomicU64::new(0)]);
        let inner = policy(name);
        let counting = Counting {
            inner,
            calls: Arc::clone(&calls),
        };
        (counting, calls)
    }

    fn bump(&self, method: usize) {
        self.calls[method].fetch_add(1, Ordering::Relaxed);
    }
}

/// The `(select, should_preempt, time_slice)` counts so far.
fn counts(calls: &[AtomicU64; 3]) -> [u64; 3] {
    calls.each_ref().map(|c| c.load(Ordering::Relaxed))
}

impl SchedulingPolicy for Counting {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn select(&mut self, view: &PolicyView<'_>) -> Option<TaskId> {
        self.bump(0);
        self.inner.select(view)
    }

    fn should_preempt(
        &mut self,
        view: &PolicyView<'_>,
        candidate: &TaskView,
        running: &TaskView,
    ) -> bool {
        self.bump(1);
        self.inner.should_preempt(view, candidate, running)
    }

    fn time_slice(&self, view: &PolicyView<'_>, task: &TaskView) -> Option<SimDuration> {
        self.bump(2);
        self.inner.time_slice(view, task)
    }
}

/// One pinned combination: engine, cores, policy, preemptive, and the
/// `(select, should_preempt, time_slice)` call counts.
type Pin = (EngineKind, usize, &'static str, bool, [u64; 3]);

/// The policy's call counts over [`TASKS`] for every engine and core
/// count (approach A supports one core only) × policy × mode.
const POLICY_CALLS: [Pin; 24] = [
    (B, 1, "priority", true, [30, 15, 25]),
    (B, 1, "priority", false, [21, 0, 16]),
    (B, 1, "round-robin", true, [53, 16, 48]),
    (B, 1, "round-robin", false, [53, 0, 48]),
    (B, 1, "edf", true, [22, 16, 17]),
    (B, 1, "edf", false, [21, 0, 16]),
    (B, 2, "priority", true, [23, 15, 18]),
    (B, 2, "priority", false, [21, 0, 16]),
    (B, 2, "round-robin", true, [53, 11, 48]),
    (B, 2, "round-robin", false, [53, 0, 48]),
    (B, 2, "edf", true, [23, 15, 18]),
    (B, 2, "edf", false, [21, 0, 16]),
    (B, 3, "priority", true, [21, 10, 16]),
    (B, 3, "priority", false, [21, 0, 16]),
    (B, 3, "round-robin", true, [53, 6, 48]),
    (B, 3, "round-robin", false, [53, 0, 48]),
    (B, 3, "edf", true, [21, 10, 16]),
    (B, 3, "edf", false, [21, 0, 16]),
    (A, 1, "priority", true, [29, 14, 24]),
    (A, 1, "priority", false, [21, 0, 16]),
    (A, 1, "round-robin", true, [53, 2, 48]),
    (A, 1, "round-robin", false, [53, 0, 48]),
    (A, 1, "edf", true, [22, 13, 17]),
    (A, 1, "edf", false, [21, 0, 16]),
];

fn policy(name: &str) -> Box<dyn SchedulingPolicy> {
    match name {
        "priority" => Box::new(PriorityPreemptive::new()),
        "round-robin" => Box::new(RoundRobin::new(us(30))),
        "edf" => Box::new(EarliestDeadlineFirst::new()),
        other => unreachable!("no policy `{other}`"),
    }
}

#[test]
fn policy_call_counts_are_pinned() {
    let mut measured = Vec::new();
    for (engine, cores, name, preemptive, _) in POLICY_CALLS {
        let (policy, calls) = Counting::new(name);
        let mut config = ProcessorConfig::new("CPU")
            .policy(policy)
            .overheads(Overheads::uniform(us(2)))
            .engine(engine)
            .cores(cores);
        if !preemptive {
            config = config.non_preemptive();
        }
        run(config, &TASKS);
        measured.push((engine, cores, name, preemptive, counts(&calls)));
    }
    let table: Vec<String> = measured
        .iter()
        .map(|(engine, cores, name, preemptive, calls)| {
            let engine = if *engine == A { "A" } else { "B" };
            format!("    ({engine}, {cores}, {name:?}, {preemptive}, {calls:?}),")
        })
        .collect();
    assert!(
        measured == POLICY_CALLS,
        "policy call counts moved; measured:\n{}",
        table.join("\n")
    );
}

/// `unlock_preemption` and `reschedule` consult the policy only when a
/// ready task could take the caller's core: with nothing else ready they
/// ask nothing, at any core count and in both engines.
#[test]
fn no_policy_call_over_an_empty_ready_queue() {
    for (engine, cores) in [(B, 1), (B, 2), (A, 1)] {
        let (policy, calls) = Counting::new("priority");
        let config = ProcessorConfig::new("CPU")
            .policy(policy)
            .engine(engine)
            .cores(cores);
        let mut sim = Simulator::new();
        let rec = TraceRecorder::disabled();
        let cpu = Processor::new(&mut sim, &rec, config);
        cpu.spawn_task(&mut sim, TaskConfig::new("alone"), |task| {
            task.lock_preemption();
            task.execute(us(10));
            task.unlock_preemption();
            task.reschedule();
        });
        sim.run().unwrap();
        // One election (the initial dispatch) and one time slice (the
        // `execute`).
        assert_eq!(counts(&calls), [1, 0, 1], "{engine} on {cores} core(s)");
    }
}

/// Every evaluation of the scheduling formula must be charged: recorded
/// as one `O scheduling` segment, whoever pays for it (the relinquishing
/// task, the awakened one or approach A's RTOS coroutine). A formula
/// evaluated for an election that elects nothing sees a scheduler pass
/// that never happens.
#[test]
fn scheduling_formula_is_evaluated_once_per_charged_pass() {
    for (engine, cores) in [(B, 1), (B, 2), (B, 3), (A, 1)] {
        let evaluations = Arc::new(AtomicU64::new(0));
        let counter = Arc::clone(&evaluations);
        let overheads = Overheads {
            scheduling: OverheadSpec::formula(move |_| {
                counter.fetch_add(1, Ordering::Relaxed);
                us(1)
            }),
            ..Overheads::uniform(us(1))
        };
        let config = ProcessorConfig::new("CPU")
            .overheads(overheads)
            .engine(engine)
            .cores(cores);
        let trace = run(config, &TASKS[..4]);
        let charged = trace
            .records()
            .iter()
            .filter(|r| {
                matches!(
                    r.data,
                    TraceData::Overhead {
                        kind: OverheadKind::Scheduling,
                        ..
                    }
                )
            })
            .count() as u64;
        assert!(
            charged > 0,
            "{engine} on {cores} core(s): no scheduler pass"
        );
        assert_eq!(
            evaluations.load(Ordering::Relaxed),
            charged,
            "{engine} on {cores} core(s): formula evaluations vs `O scheduling` records"
        );
    }
}

/// A policy may leave the core idle while a task is ready (`select`
/// returns `None`). Both engines then ask again only at the next request
/// (a task becomes ready or gives its core up), so on this probe, where
/// none comes, each asks once, with overheads or without, in both exec
/// modes, and the run returns. A re-election at once would ask every
/// overhead period (100 times over 100 µs with 1 µs overheads) and never
/// let a zero-overhead run pass its first instant; the policy fails the
/// run when asked 1,000 times, so that shows as a failure, not a hang.
#[test]
fn a_policy_that_elects_nothing_is_asked_again_only_at_the_next_request() {
    for mode in [ExecMode::Segment, ExecMode::Thread] {
        for overhead in [us(1), SimDuration::ZERO] {
            for engine in [B, A] {
                let selects = Arc::new(AtomicU64::new(0));
                let counter = Arc::clone(&selects);
                let policy = from_fn(
                    "idle-until-100us",
                    move |view: &PolicyView<'_>| {
                        let asked = counter.fetch_add(1, Ordering::Relaxed) + 1;
                        assert!(asked < 1_000, "select asked {asked} times");
                        (view.now >= SimTime::ZERO + us(100))
                            .then(|| view.ready.first().map(|t| t.id))
                            .flatten()
                    },
                    |_, _, _| false,
                );
                let config = ProcessorConfig::new("CPU")
                    .policy(policy)
                    .overheads(Overheads::uniform(overhead))
                    .engine(engine);
                let mut sim = Simulator::with_mode(mode);
                let rec = TraceRecorder::disabled();
                let cpu = Processor::new(&mut sim, &rec, config);
                cpu.spawn_task(&mut sim, TaskConfig::new("ready"), |task| {
                    task.execute(us(10));
                });
                sim.run_until(SimTime::ZERO + us(1_000)).unwrap();
                assert_eq!(
                    selects.load(Ordering::Relaxed),
                    1,
                    "{engine} in {mode} mode with {overhead} overheads"
                );
            }
        }
    }
}
