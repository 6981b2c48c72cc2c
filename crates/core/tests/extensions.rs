//! Tests for the extension features layered on the paper's model:
//! the POSIX-`SCHED_RR` policy, schedule-driven interrupt sources, and
//! dynamic priorities.

use rtsim_core::agent::Waiter;
use rtsim_core::policies::PriorityRoundRobin;
use rtsim_core::{
    spawn_interrupt_schedule, EngineKind, Priority, Processor, ProcessorConfig, TaskConfig,
    TaskState,
};
use rtsim_kernel::{SimDuration, SimTime, Simulator};
use rtsim_trace::{Trace, TraceRecorder};

fn us(v: u64) -> SimDuration {
    SimDuration::from_us(v)
}

fn times_us(trace: &Trace, task: &str, state: TaskState) -> Vec<u64> {
    let actor = trace.actor_by_name(task).expect("actor");
    trace
        .records_for(actor)
        .filter_map(|r| match r.data {
            rtsim_trace::TraceData::State(s) if s == state => Some(r.at.as_us()),
            _ => None,
        })
        .collect()
}

#[test]
fn sched_rr_rotates_equals_but_respects_priority() {
    for engine in [EngineKind::ProcedureCall, EngineKind::DedicatedThread] {
        let mut sim = Simulator::new();
        let rec = TraceRecorder::new();
        let cpu = Processor::new(
            &mut sim,
            &rec,
            ProcessorConfig::new("CPU")
                .engine(engine)
                .policy(PriorityRoundRobin::new(us(10))),
        );
        // Two equal-priority workers time-share; one high-priority task
        // arrives later and preempts whoever runs.
        cpu.spawn_task(&mut sim, TaskConfig::new("w1").priority(2), |t| {
            t.execute(us(25));
        });
        cpu.spawn_task(&mut sim, TaskConfig::new("w2").priority(2), |t| {
            t.execute(us(25));
        });
        let boss = cpu.spawn_task(&mut sim, TaskConfig::new("boss").priority(9), |t| {
            t.suspend(false);
            t.execute(us(5));
        });
        rtsim_core::spawn_interrupt_at(&mut sim, "irq", us(15), Waiter::Task(boss));
        sim.run().unwrap();
        let trace = rec.snapshot();
        // w1: 0-10 (quantum), preempt-free; w2: 10-15 then boss preempts
        // at 15 (5 µs), w2 resumes 20-25 (quantum end at 25 after 10 µs
        // of its slice), w1 25-35, w2 35-40, w1 40-45.
        assert_eq!(
            times_us(&trace, "boss", TaskState::Running),
            vec![0, 15],
            "{engine}"
        );
        // Both workers complete their full 25 µs.
        let w1_run: Vec<u64> = times_us(&trace, "w1", TaskState::Running);
        let w2_run: Vec<u64> = times_us(&trace, "w2", TaskState::Running);
        assert!(w1_run.len() >= 2, "{engine}: w1 must rotate ({w1_run:?})");
        assert!(w2_run.len() >= 2, "{engine}: w2 must rotate ({w2_run:?})");
        assert_eq!(sim.now(), SimTime::ZERO + us(55), "{engine}");
    }
}

#[test]
fn sched_rr_sole_task_keeps_the_cpu() {
    // SCHED_RR semantics: with no equal-priority peer ready, no quantum
    // applies and the task runs to completion without rotations.
    let mut sim = Simulator::new();
    let rec = TraceRecorder::new();
    let cpu = Processor::new(
        &mut sim,
        &rec,
        ProcessorConfig::new("CPU").policy(PriorityRoundRobin::new(us(10))),
    );
    cpu.spawn_task(&mut sim, TaskConfig::new("only").priority(2), |t| {
        t.execute(us(100));
    });
    cpu.spawn_task(&mut sim, TaskConfig::new("lower").priority(1), |t| {
        t.execute(us(10));
    });
    sim.run().unwrap();
    let trace = rec.snapshot();
    assert_eq!(times_us(&trace, "only", TaskState::Running), vec![0]);
    assert_eq!(cpu.stats().quantum_expirations, 0);
}

#[test]
fn interrupt_schedule_fires_at_cumulative_gaps() {
    let mut sim = Simulator::new();
    let rec = TraceRecorder::new();
    let cpu = Processor::new(&mut sim, &rec, ProcessorConfig::new("CPU"));
    let isr = cpu.spawn_task(&mut sim, TaskConfig::new("isr").priority(9), |t| {
        for _ in 0..3 {
            t.suspend(false);
            t.execute(us(1));
        }
    });
    // Jittered gaps: 13, then 4, then 30 → firings at 13, 17, 47.
    spawn_interrupt_schedule(
        &mut sim,
        "jitter",
        vec![us(13), us(4), us(30)],
        Waiter::Task(isr),
    );
    sim.run().unwrap();
    let trace = rec.snapshot();
    assert_eq!(
        times_us(&trace, "isr", TaskState::Running),
        vec![0, 13, 17, 47]
    );
}

#[test]
fn dynamic_priority_change_takes_effect_at_next_decision() {
    let mut sim = Simulator::new();
    let rec = TraceRecorder::new();
    let cpu = Processor::new(&mut sim, &rec, ProcessorConfig::new("CPU"));
    let victim = cpu.spawn_task(&mut sim, TaskConfig::new("victim").priority(5), |t| {
        t.execute(us(20));
        t.delay(us(20));
        t.execute(us(20));
    });
    cpu.spawn_task(&mut sim, TaskConfig::new("rival").priority(3), |t| {
        t.execute(us(100));
    });
    assert_eq!(victim.priority(&mut sim), Priority(5));
    // Demote the victim before the run: the rival should win the second
    // round even though the victim wakes from its delay.
    victim.set_priority(&mut sim, Priority(1));
    assert_eq!(victim.priority(&mut sim), Priority(1));
    sim.run().unwrap();
    let trace = rec.snapshot();
    // The demotion applied before the first election, so the rival runs
    // first and the victim only gets the CPU when the rival is done.
    assert_eq!(times_us(&trace, "rival", TaskState::Running), vec![0]);
    assert_eq!(
        times_us(&trace, "victim", TaskState::Running),
        vec![100, 140]
    );
}

#[test]
fn deadline_misses_are_counted_and_annotated() {
    let mut sim = Simulator::new();
    let rec = TraceRecorder::new();
    let cpu = Processor::new(&mut sim, &rec, ProcessorConfig::new("CPU"));
    // Two jobs with a 50 µs deadline: the first (20 µs alone) meets it,
    // the second is delayed past it by a higher-priority hog.
    let victim = cpu.spawn_task(
        &mut sim,
        TaskConfig::new("victim").priority(2).deadline(us(50)),
        |t| {
            for _ in 0..2 {
                t.suspend(false);
                t.execute(us(20));
            }
        },
    );
    let hog = cpu.spawn_task(&mut sim, TaskConfig::new("hog").priority(9), |t| {
        t.suspend(false);
        t.execute(us(100));
    });
    rtsim_core::spawn_interrupt_at(&mut sim, "v1", us(10), Waiter::Task(victim));
    rtsim_core::spawn_interrupt_at(&mut sim, "v2", us(200), Waiter::Task(victim));
    rtsim_core::spawn_interrupt_at(&mut sim, "h", us(205), Waiter::Task(hog));
    sim.run().unwrap();
    // Job 1: 10..30, met. Job 2: activated 200, preempted by hog 205..305,
    // completes ~320 > 250 deadline: one miss.
    assert_eq!(cpu.stats().deadline_misses, 1);
    let trace = rec.snapshot();
    assert_eq!(trace.annotation_times("deadline_miss").len(), 1);
}

#[test]
fn policy_sees_ready_queue_in_enqueue_order_with_running_context() {
    use rtsim_core::policies::from_fn;
    let seen = std::sync::Arc::new(rtsim_kernel::sync::Mutex::new(Vec::new()));
    let log = std::sync::Arc::clone(&seen);
    let policy = from_fn(
        "observer",
        move |view: &rtsim_core::PolicyView<'_>| {
            let seqs: Vec<u64> = view.ready.iter().map(|t| t.enqueue_seq).collect();
            log.lock().push((seqs, view.running.map(|r| r.id)));
            // Plain FIFO election.
            view.ready
                .iter()
                .min_by_key(|t| t.enqueue_seq)
                .map(|t| t.id)
        },
        |_v, _c, _r| false,
    );
    let mut sim = Simulator::new();
    let rec = TraceRecorder::new();
    let cpu = Processor::new(&mut sim, &rec, ProcessorConfig::new("CPU").policy(policy));
    for i in 0..3u32 {
        cpu.spawn_task(&mut sim, TaskConfig::new(&format!("t{i}")), move |t| {
            t.execute(us(5));
        });
    }
    sim.run().unwrap();
    let seen = seen.lock();
    assert!(!seen.is_empty());
    for (seqs, _running) in seen.iter() {
        let mut sorted = seqs.clone();
        sorted.sort_unstable();
        assert_eq!(seqs, &sorted, "ready view must be in enqueue order");
    }
}

#[test]
fn quantized_preemption_defers_to_chunk_boundaries() {
    // The clock-driven baseline (the SpecC-style model the paper argues
    // against): an interrupt at 133 µs is only honored at the next
    // 100 µs chunk boundary, 67 µs late. The paper's time-accurate model
    // reacts at 133 exactly (see interrupt_preemption_is_time_accurate).
    let mut sim = Simulator::new();
    let rec = TraceRecorder::new();
    let cpu = Processor::new(
        &mut sim,
        &rec,
        ProcessorConfig::new("CPU").quantized_preemption(us(100)),
    );
    let isr = cpu.spawn_task(&mut sim, TaskConfig::new("isr").priority(9), |t| {
        t.suspend(false);
        t.execute(us(7));
    });
    cpu.spawn_task(&mut sim, TaskConfig::new("bg").priority(1), |t| {
        t.execute(us(1_000));
    });
    rtsim_core::spawn_interrupt_at(&mut sim, "irq", us(133), Waiter::Task(isr));
    sim.run().unwrap();
    let trace = rec.snapshot();
    // isr reacts only at the 200 µs boundary.
    assert_eq!(times_us(&trace, "isr", TaskState::Running), vec![0, 200]);
    assert_eq!(times_us(&trace, "bg", TaskState::Ready), vec![0, 200]);
    // bg's 1000 µs of work is still conserved exactly: 200 computed
    // before the preemption, 800 after the isr's 7 µs.
    assert_eq!(times_us(&trace, "bg", TaskState::Terminated), vec![1_007]);
}

#[test]
fn quantized_and_accurate_agree_without_interrupts() {
    // Without asynchronous events, the baseline and the paper's model
    // must produce identical schedules.
    fn end(quantized: bool) -> SimTime {
        let mut sim = Simulator::new();
        let rec = TraceRecorder::new();
        let mut config = ProcessorConfig::new("CPU");
        if quantized {
            config = config.quantized_preemption(us(10));
        }
        let cpu = Processor::new(&mut sim, &rec, config);
        for i in 0..3u32 {
            cpu.spawn_task(
                &mut sim,
                TaskConfig::new(&format!("t{i}")).priority(i + 1),
                move |t| {
                    t.execute(us(35));
                    t.delay(us(10));
                    t.execute(us(15));
                },
            );
        }
        sim.run().unwrap();
        sim.now()
    }
    assert_eq!(end(false), end(true));
}

#[test]
fn waiter_wake_is_idempotent_for_ready_tasks() {
    // Double-waking a task that is already ready must not duplicate its
    // activation (real interrupt lines coalesce).
    let mut sim = Simulator::new();
    let rec = TraceRecorder::new();
    let cpu = Processor::new(&mut sim, &rec, ProcessorConfig::new("CPU"));
    let isr = cpu.spawn_task(&mut sim, TaskConfig::new("isr").priority(1), |t| {
        t.suspend(false);
        t.execute(us(5));
    });
    cpu.spawn_task(&mut sim, TaskConfig::new("hog").priority(9), |t| {
        t.delay(us(1)); // let the isr reach its suspend
        t.execute(us(50));
    });
    // Two wakes land at 10 and 20 while the hog runs and the isr already
    // sits Ready: they must coalesce into a single activation.
    rtsim_core::spawn_interrupt_at(&mut sim, "irq1", us(10), Waiter::Task(isr));
    rtsim_core::spawn_interrupt_at(&mut sim, "irq2", us(20), Waiter::Task(isr));
    sim.run().unwrap();
    let trace = rec.snapshot();
    assert_eq!(times_us(&trace, "isr", TaskState::Ready), vec![0, 10]);
    assert_eq!(times_us(&trace, "isr", TaskState::Running), vec![0, 51]);
    assert_eq!(sim.now(), SimTime::ZERO + us(56));
}
