//! The policy's view of the ready queue is one buffer the engine refills
//! for every decision. Whatever the decision — an election, a preemption
//! check, a time slice, an SMP placement or victim search — a policy must
//! see the ready tasks in enqueue order, each once, and never the running
//! task. A buffer that is not cleared between decisions shows stale and
//! duplicate entries, which this test reports.

use std::sync::{Arc, Mutex};

use rtsim_core::policies::{
    EarliestDeadlineFirst, Fifo, PriorityPreemptive, RateMonotonic, RoundRobin,
};
use rtsim_core::{
    EngineKind, Overheads, PolicyView, Processor, ProcessorConfig, SchedulingPolicy, SegControl,
    TaskConfig, TaskId, TaskView,
};
use rtsim_kernel::testutil::{check, Rng};
use rtsim_kernel::{ExecMode, SegStep, SimDuration, SimTime, Simulator};
use rtsim_trace::TraceRecorder;

/// What the recording policy saw over one run.
#[derive(Debug, Default)]
struct Log {
    calls: u64,
    faults: Vec<String>,
    /// How the run ended, if not cleanly (a bad view can make the engine
    /// panic; the faults explain why, so they are checked first).
    error: Option<String>,
}

/// Delegates every decision to `inner` after checking the view it got.
#[derive(Debug, Clone)]
struct Recording {
    inner: Box<dyn SchedulingPolicy>,
    log: Arc<Mutex<Log>>,
}

impl Recording {
    fn check(&self, call: &str, view: &PolicyView<'_>) {
        let mut log = self.log.lock().expect("log lock");
        log.calls += 1;
        let seqs: Vec<u64> = view.ready.iter().map(|t| t.enqueue_seq).collect();
        if !seqs.windows(2).all(|w| w[0] < w[1]) {
            log.faults
                .push(format!("{call}: ready not in enqueue order: {seqs:?}"));
        }
        let mut ids: Vec<TaskId> = view.ready.iter().map(|t| t.id).collect();
        ids.sort_unstable();
        ids.dedup();
        if ids.len() != view.ready.len() {
            log.faults
                .push(format!("{call}: duplicate ready ids: {:?}", view.ready));
        }
        if let Some(running) = view.running {
            if view.ready.iter().any(|t| t.id == running.id) {
                log.faults
                    .push(format!("{call}: running {} is in ready", running.id));
            }
        }
    }
}

impl SchedulingPolicy for Recording {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn select(&mut self, view: &PolicyView<'_>) -> Option<TaskId> {
        self.check("select", view);
        self.inner.select(view)
    }

    fn should_preempt(
        &mut self,
        view: &PolicyView<'_>,
        candidate: &TaskView,
        running: &TaskView,
    ) -> bool {
        self.check("should_preempt", view);
        self.inner.should_preempt(view, candidate, running)
    }

    fn time_slice(&self, view: &PolicyView<'_>, task: &TaskView) -> Option<SimDuration> {
        self.check("time_slice", view);
        self.inner.time_slice(view, task)
    }
}

#[derive(Debug)]
struct TaskSpec {
    priority: u32,
    period_us: u64,
    cost_us: u64,
    jobs: u32,
    /// Core mask; only applied on SMP processors.
    affinity: u64,
}

#[derive(Debug)]
struct Case {
    /// Index into [`policy`].
    policy: u8,
    quantum_us: u64,
    overhead_ns: u64,
    preemptive: bool,
    cores: usize,
    tasks: Vec<TaskSpec>,
}

fn policy(case: &Case) -> Box<dyn SchedulingPolicy> {
    match case.policy {
        0 => Box::new(PriorityPreemptive::new()),
        1 => Box::new(RoundRobin::new(SimDuration::from_us(case.quantum_us))),
        2 => Box::new(EarliestDeadlineFirst::new()),
        3 => Box::new(RateMonotonic::new()),
        _ => Box::new(Fifo::new()),
    }
}

fn generate(rng: &mut Rng) -> Case {
    let cores = rng.gen_range(1..=3usize);
    let all = (1u64 << cores) - 1;
    let tasks = rng.gen_vec(2..7, |r| {
        let period_us = r.gen_range(20..=300u64);
        TaskSpec {
            priority: r.gen_range(1..=4u32),
            period_us,
            cost_us: r.gen_range(1..=period_us / 2),
            jobs: r.gen_range(1..=8u32),
            affinity: r.gen_range(1..=all),
        }
    });
    Case {
        policy: rng.gen_range(0..5u8),
        quantum_us: rng.gen_range(2..=20u64),
        overhead_ns: rng.gen_range(0..=3_000u64),
        preemptive: rng.gen_bool(0.75),
        cores,
        tasks,
    }
}

fn config(t: &TaskSpec, name: &str, cores: usize) -> TaskConfig {
    let period = SimDuration::from_us(t.period_us);
    let config = TaskConfig::new(name)
        .priority(t.priority)
        .period(period)
        .deadline(period);
    if cores > 1 {
        config.affinity(t.affinity)
    } else {
        config
    }
}

/// How long to sleep after a job so the next release lands on `release`.
fn until(release: SimTime, now: SimTime) -> SimDuration {
    if release > now {
        release - now
    } else {
        SimDuration::ZERO
    }
}

/// Runs `case` on one processor and returns what its policy saw.
fn run(case: &Case, mode: ExecMode, engine: EngineKind) -> Log {
    let log = Arc::new(Mutex::new(Log::default()));
    let mut sim = Simulator::with_mode(mode);
    let rec = TraceRecorder::disabled();
    let mut cfg = ProcessorConfig::new("CPU")
        .policy(Recording {
            inner: policy(case),
            log: Arc::clone(&log),
        })
        .overheads(Overheads::uniform(SimDuration::from_ns(case.overhead_ns)))
        .engine(engine)
        .cores(case.cores);
    if !case.preemptive {
        cfg = cfg.non_preemptive();
    }
    let cpu = Processor::new(&mut sim, &rec, cfg);
    for (i, t) in case.tasks.iter().enumerate() {
        let name = format!("t{i}");
        let config = config(t, &name, case.cores);
        let period = SimDuration::from_us(t.period_us);
        let cost = SimDuration::from_us(t.cost_us);
        let jobs = t.jobs;
        match mode {
            ExecMode::Thread => {
                cpu.spawn_task(&mut sim, config, move |task| {
                    let mut release = SimTime::ZERO;
                    for _ in 0..jobs {
                        task.execute(cost);
                        release += period;
                        let wait = until(release, task.now());
                        task.delay(wait);
                    }
                });
            }
            ExecMode::Segment => {
                let mut runner = cpu.register_seg_task(&mut sim, config);
                let mut release = SimTime::ZERO;
                let mut left = jobs;
                let mut computed = false;
                sim.spawn_segment(&name, move |ctx| loop {
                    match runner.advance(ctx) {
                        SegControl::Yield(req) => return SegStep::Yield(req),
                        SegControl::Finished => return SegStep::Done,
                        SegControl::Idle if computed => {
                            release += period;
                            runner.delay(ctx.now(), until(release, ctx.now()));
                            left -= 1;
                            computed = false;
                        }
                        SegControl::Idle if left == 0 => runner.finish(),
                        SegControl::Idle => {
                            runner.execute(cost);
                            computed = true;
                        }
                    }
                });
            }
        }
    }
    let outcome = sim.run();
    let mut seen = std::mem::take(&mut *log.lock().expect("log lock"));
    seen.error = outcome.err().map(|e| format!("{e:?}"));
    seen
}

#[test]
fn every_decision_sees_a_fresh_ready_view() {
    check(24, generate, |case| {
        for engine in [EngineKind::ProcedureCall, EngineKind::DedicatedThread] {
            if engine == EngineKind::DedicatedThread && case.cores > 1 {
                continue; // SMP needs the procedure-call engine
            }
            let [thread, segment] = [ExecMode::Thread, ExecMode::Segment].map(|mode| {
                let log = run(case, mode, engine);
                assert!(
                    log.faults.is_empty(),
                    "{mode}/{engine}: {} bad views, first: {}",
                    log.faults.len(),
                    log.faults[0]
                );
                assert_eq!(log.error, None, "{mode}/{engine}: the run failed");
                assert!(log.calls > 0, "{mode}/{engine}: the policy was never asked");
                log.calls
            });
            // Both exec modes ask the policy the same questions.
            assert_eq!(
                thread, segment,
                "{engine}: decisions in thread vs segment mode"
            );
        }
    });
}
