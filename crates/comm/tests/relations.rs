//! Integration tests for the MCSE communication relations, including the
//! paper's Figure 7 mutual-exclusion/priority-inversion scenario and its
//! two remedies.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use rtsim_comm::{EventPolicy, LockMode, MessageQueue, RtEvent, SharedVar};
use rtsim_core::{
    spawn_hw_function, Agent, EngineKind, Processor, ProcessorConfig, TaskConfig, TaskState,
};
use rtsim_kernel::{SimDuration, SimTime, Simulator};
use rtsim_trace::{Trace, TraceRecorder};

const ENGINES: [EngineKind; 2] = [EngineKind::ProcedureCall, EngineKind::DedicatedThread];

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
fn boolean_event_memorizes_one_signal() {
    for engine in ENGINES {
        let mut sim = Simulator::new();
        let rec = TraceRecorder::new();
        let cpu = Processor::new(&mut sim, &rec, ProcessorConfig::new("CPU").engine(engine));
        let ev = RtEvent::new(&rec, "ev", EventPolicy::Boolean);
        let finish = Arc::new(AtomicU64::new(0));

        // Producer signals twice *before* the consumer ever waits: boolean
        // memorization collapses them into one.
        let tx = ev.clone();
        cpu.spawn_task(
            &mut sim,
            TaskConfig::new("producer").priority(9),
            move |t| {
                tx.signal(t);
                tx.signal(t);
                t.execute(us(10));
            },
        );
        let done = Arc::clone(&finish);
        cpu.spawn_task(
            &mut sim,
            TaskConfig::new("consumer").priority(1),
            move |t| {
                ev.wait(t); // satisfied from memory, at ~10 (after producer)
                let first = t.now().as_us();
                ev.wait(t); // never signalled again: blocks forever
                let _ = first;
                done.store(1, Ordering::Relaxed);
            },
        );
        sim.run_until(SimTime::ZERO + us(1_000)).unwrap();
        // The consumer's second wait never completes: only one signal was
        // memorized.
        assert_eq!(finish.load(Ordering::Relaxed), 0, "{engine}");
    }
}

#[test]
fn counter_event_memorizes_all_signals() {
    for engine in ENGINES {
        let mut sim = Simulator::new();
        let rec = TraceRecorder::new();
        let cpu = Processor::new(&mut sim, &rec, ProcessorConfig::new("CPU").engine(engine));
        let ev = RtEvent::new(&rec, "ev", EventPolicy::Counter);
        let consumed = Arc::new(AtomicU64::new(0));

        let tx = ev.clone();
        cpu.spawn_task(
            &mut sim,
            TaskConfig::new("producer").priority(9),
            move |t| {
                for _ in 0..3 {
                    tx.signal(t);
                }
            },
        );
        let counter = Arc::clone(&consumed);
        cpu.spawn_task(
            &mut sim,
            TaskConfig::new("consumer").priority(1),
            move |t| {
                for _ in 0..3 {
                    ev.wait(t);
                    counter.fetch_add(1, Ordering::Relaxed);
                }
            },
        );
        sim.run().unwrap();
        assert_eq!(consumed.load(Ordering::Relaxed), 3, "{engine}");
    }
}

#[test]
fn fugitive_signal_without_waiter_is_lost() {
    for engine in ENGINES {
        let mut sim = Simulator::new();
        let rec = TraceRecorder::new();
        let cpu = Processor::new(&mut sim, &rec, ProcessorConfig::new("CPU").engine(engine));
        let ev = RtEvent::new(&rec, "ev", EventPolicy::Fugitive);
        let reached = Arc::new(AtomicU64::new(0));

        let tx = ev.clone();
        cpu.spawn_task(&mut sim, TaskConfig::new("early").priority(9), move |t| {
            tx.signal(t); // nobody waits yet: lost
        });
        let flag = Arc::clone(&reached);
        cpu.spawn_task(&mut sim, TaskConfig::new("late").priority(1), move |t| {
            t.delay(us(10));
            ev.wait(t); // blocks forever
            flag.store(1, Ordering::Relaxed);
        });
        sim.run_until(SimTime::ZERO + us(1_000)).unwrap();
        assert_eq!(reached.load(Ordering::Relaxed), 0, "{engine}");
    }
}

#[test]
fn fugitive_signal_broadcasts_to_all_waiters() {
    for engine in ENGINES {
        let mut sim = Simulator::new();
        let rec = TraceRecorder::new();
        let cpu = Processor::new(&mut sim, &rec, ProcessorConfig::new("CPU").engine(engine));
        let ev = RtEvent::new(&rec, "go", EventPolicy::Fugitive);
        let woken = Arc::new(AtomicU64::new(0));

        for (name, prio) in [("w1", 3), ("w2", 2)] {
            let ev = ev.clone();
            let woken = Arc::clone(&woken);
            cpu.spawn_task(&mut sim, TaskConfig::new(name).priority(prio), move |t| {
                ev.wait(t);
                woken.fetch_add(1, Ordering::Relaxed);
                t.execute(us(5));
            });
        }
        let tx = ev.clone();
        spawn_hw_function(&mut sim, &rec, "stim", move |hw| {
            hw.delay(us(10));
            tx.signal(hw);
        });
        sim.run().unwrap();
        assert_eq!(woken.load(Ordering::Relaxed), 2, "{engine}");
        // Both ran after the signal, serialized by priority: 10..15, 15..20.
        assert_eq!(sim.now(), SimTime::ZERO + us(20), "{engine}");
    }
}

#[test]
fn queue_delivers_fifo_and_blocks_reader() {
    for engine in ENGINES {
        let mut sim = Simulator::new();
        let rec = TraceRecorder::new();
        let cpu = Processor::new(&mut sim, &rec, ProcessorConfig::new("CPU").engine(engine));
        let q: MessageQueue<u32> = MessageQueue::new(&rec, "q", 8);
        let order = Arc::new(rtsim_kernel::sync::Mutex::new(Vec::new()));

        let tx = q.clone();
        cpu.spawn_task(
            &mut sim,
            TaskConfig::new("producer").priority(1),
            move |t| {
                for v in 0..5 {
                    t.execute(us(10));
                    tx.write(t, v);
                }
            },
        );
        let sink = Arc::clone(&order);
        cpu.spawn_task(
            &mut sim,
            TaskConfig::new("consumer").priority(9),
            move |t| {
                for _ in 0..5 {
                    let v = q.read(t);
                    sink.lock().push((v, t.now().as_us()));
                }
            },
        );
        sim.run().unwrap();
        let order = order.lock();
        assert_eq!(
            *order,
            vec![(0, 10), (1, 20), (2, 30), (3, 40), (4, 50)],
            "{engine}"
        );
    }
}

#[test]
fn full_queue_blocks_writer_until_read() {
    for engine in ENGINES {
        let mut sim = Simulator::new();
        let rec = TraceRecorder::new();
        let cpu = Processor::new(&mut sim, &rec, ProcessorConfig::new("CPU").engine(engine));
        let q: MessageQueue<u32> = MessageQueue::new(&rec, "q", 2);

        let tx = q.clone();
        cpu.spawn_task(
            &mut sim,
            TaskConfig::new("producer").priority(9),
            move |t| {
                for v in 0..4 {
                    tx.write(t, v); // 3rd write blocks until the consumer reads
                }
                assert_eq!(t.now().as_us(), 100);
            },
        );
        cpu.spawn_task(
            &mut sim,
            TaskConfig::new("consumer").priority(1),
            move |t| {
                t.delay(us(100));
                for _ in 0..4 {
                    let _ = q.read(t);
                }
            },
        );
        sim.run().unwrap();
    }
}

#[test]
fn try_variants_do_not_block() {
    let mut sim = Simulator::new();
    let rec = TraceRecorder::new();
    let cpu = Processor::new(&mut sim, &rec, ProcessorConfig::new("CPU"));
    let q: MessageQueue<u32> = MessageQueue::new(&rec, "q", 1);
    let ev = RtEvent::new(&rec, "ev", EventPolicy::Counter);

    cpu.spawn_task(&mut sim, TaskConfig::new("t").priority(1), move |t| {
        assert_eq!(q.try_read(t), None);
        assert_eq!(q.try_write(t, 1), Ok(()));
        assert_eq!(q.try_write(t, 2), Err(2)); // full
        assert_eq!(q.try_read(t), Some(1));
        assert!(!ev.try_wait(t));
        ev.signal(t);
        assert!(ev.try_wait(t));
        assert!(!ev.try_wait(t));
    });
    sim.run().unwrap();
}

#[test]
fn queue_connects_hardware_to_software() {
    for engine in ENGINES {
        let mut sim = Simulator::new();
        let rec = TraceRecorder::new();
        let cpu = Processor::new(&mut sim, &rec, ProcessorConfig::new("CPU").engine(engine));
        let q: MessageQueue<u64> = MessageQueue::new(&rec, "dma", 4);
        let seen = Arc::new(rtsim_kernel::sync::Mutex::new(Vec::new()));

        let tx = q.clone();
        spawn_hw_function(&mut sim, &rec, "dma_engine", move |hw| {
            for v in 0..3 {
                hw.delay(us(20));
                tx.write(hw, v);
            }
        });
        let sink = Arc::clone(&seen);
        cpu.spawn_task(&mut sim, TaskConfig::new("driver").priority(5), move |t| {
            for _ in 0..3 {
                let v = q.read(t);
                sink.lock().push((v, t.now().as_us()));
                t.execute(us(5));
            }
        });
        sim.run().unwrap();
        assert_eq!(*seen.lock(), vec![(0, 20), (1, 40), (2, 60)], "{engine}");
    }
}

/// Builds the Figure 7 cast: `low` (priority 1) holds `SharedVar_1` for
/// 50 µs of in-lock computation starting at t=0; `high` (priority 9)
/// arrives at t=10 and wants the variable; `mid` (priority 5) arrives at
/// t=20 with 30 µs of unrelated computation.
///
/// Returns the time at which `high` finished its access.
fn inversion_scenario(mode: LockMode, engine: EngineKind) -> (u64, Trace) {
    let mut sim = Simulator::new();
    let rec = TraceRecorder::new();
    let cpu = Processor::new(&mut sim, &rec, ProcessorConfig::new("CPU").engine(engine));
    let var = SharedVar::new(&rec, "SharedVar_1", 0u32, mode);
    let high_done = Arc::new(AtomicU64::new(0));

    let v = var.clone();
    let done = Arc::clone(&high_done);
    cpu.spawn_task(&mut sim, TaskConfig::new("high").priority(9), move |t| {
        t.delay(us(10));
        let _ = v.read_for(t, us(5));
        done.store(t.now().as_us(), Ordering::Relaxed);
    });
    cpu.spawn_task(&mut sim, TaskConfig::new("mid").priority(5), move |t| {
        t.delay(us(20));
        t.execute(us(30));
    });
    let v = var.clone();
    cpu.spawn_task(&mut sim, TaskConfig::new("low").priority(1), move |t| {
        v.write_for(t, us(50), 1);
        t.execute(us(5));
    });
    sim.run().unwrap();
    (high_done.load(Ordering::Relaxed), rec.snapshot())
}

#[test]
fn figure7_plain_mutex_exhibits_priority_inversion() {
    for engine in ENGINES {
        let (high_done, trace) = inversion_scenario(LockMode::Plain, engine);
        // low computes 0..10 (high preempts at 10 and blocks on the
        // resource), 10..20 (mid preempts), mid runs 20..50, low finishes
        // its remaining 30 at 50..80, releases; high reads 80..85.
        assert_eq!(high_done, 85, "{engine}");
        // high really blocked on the resource...
        let hw = times_us(&trace, "high", TaskState::WaitingResource);
        assert_eq!(hw, vec![10], "{engine}");
        // ...and mid ran while high was blocked: the inversion. (The
        // leading 0 is mid's zero-length run before its initial delay.)
        assert_eq!(times_us(&trace, "mid", TaskState::Running), vec![0, 20]);
    }
}

#[test]
fn figure7_preemption_masking_avoids_inversion() {
    // The paper's fix: "disabling preemption during access to shared
    // data". Nothing can preempt low inside the region; high runs at
    // release.
    for engine in ENGINES {
        let (high_done, trace) = inversion_scenario(LockMode::PreemptionMasked, engine);
        // low holds 0..50 uninterrupted; at release high preempts (50),
        // reads 50..55.
        assert_eq!(high_done, 55, "{engine}");
        // high never even reached the resource wait: the lock was free by
        // the time it ran.
        assert_eq!(
            times_us(&trace, "high", TaskState::WaitingResource),
            Vec::<u64>::new(),
            "{engine}"
        );
        // mid ran only after high completed.
        assert_eq!(times_us(&trace, "mid", TaskState::Running), vec![0, 55]);
    }
}

#[test]
fn figure7_priority_inheritance_bounds_the_inversion() {
    for engine in ENGINES {
        let (high_done, trace) = inversion_scenario(LockMode::PriorityInheritance, engine);
        // high blocks at 10, boosting low to priority 9; mid (5) cannot
        // preempt the boosted owner; low finishes its 50 µs region at 50
        // (high's arrival consumed zero CPU), releases and is restored to
        // priority 1; high reads 50..55.
        assert_eq!(high_done, 55, "{engine}");
        assert_eq!(
            times_us(&trace, "high", TaskState::WaitingResource),
            vec![10]
        );
        // mid ran only after high: the inversion is bounded by low's
        // critical section alone.
        assert_eq!(times_us(&trace, "mid", TaskState::Running), vec![0, 55]);
    }
}

#[test]
fn priority_ceiling_blocks_up_to_ceiling_only() {
    // A ceiling-5 variable boosts its low-priority owner to 5: a woken
    // priority-4 task cannot preempt the critical section, but a
    // priority-9 task still can — the distinguishing behaviour versus
    // preemption masking (which would block even the urgent task).
    use rtsim_core::Priority;
    for engine in ENGINES {
        let mut sim = Simulator::new();
        let rec = TraceRecorder::new();
        let cpu = Processor::new(&mut sim, &rec, ProcessorConfig::new("CPU").engine(engine));
        let var = SharedVar::new(&rec, "v", 0u32, LockMode::PriorityCeiling(Priority(5)));

        let v = var.clone();
        cpu.spawn_task(&mut sim, TaskConfig::new("low").priority(1), move |t| {
            v.write_for(t, us(50), 1);
        });
        cpu.spawn_task(&mut sim, TaskConfig::new("mid").priority(4), |t| {
            t.delay(us(10));
            t.execute(us(5));
        });
        cpu.spawn_task(&mut sim, TaskConfig::new("urgent").priority(9), |t| {
            t.delay(us(20));
            t.execute(us(5));
        });
        sim.run().unwrap();
        let trace = rec.snapshot();
        // mid wakes at 10 but cannot preempt the boosted owner: it runs
        // only after the critical section ends (55: urgent went first).
        assert_eq!(
            times_us(&trace, "mid", TaskState::Running),
            vec![0, 55],
            "{engine}"
        );
        // urgent (above the ceiling) preempts the section at 20.
        assert_eq!(
            times_us(&trace, "urgent", TaskState::Running),
            vec![0, 20],
            "{engine}"
        );
        // low: holds 0..20, preempted 20..25, resumes 25..55; at the
        // release its ceiling boost is dropped and the release-time
        // reschedule hands the CPU to mid, so low finishes at 60.
        assert_eq!(
            times_us(&trace, "low", TaskState::Running),
            vec![0, 25, 60],
            "{engine}"
        );
    }
}

#[test]
fn resource_wait_state_is_traced_for_statistics() {
    // Figure 8 item (3): ratio of time waiting on resources.
    let (_, trace) = inversion_scenario(LockMode::Plain, EngineKind::ProcedureCall);
    let stats = rtsim_trace::Statistics::from_trace(&trace, SimTime::ZERO + us(100));
    let high = trace.actor_by_name("high").unwrap();
    let s = stats.task(high).unwrap();
    // Blocked on the resource 10..80 = 70% of the 100 µs horizon.
    assert!(
        (s.resource_ratio - 0.70).abs() < 1e-9,
        "{}",
        s.resource_ratio
    );
    let var = trace.actor_by_name("SharedVar_1").unwrap();
    let rs = stats.relation(var).unwrap();
    assert!(rs.held_ratio > 0.5);
    assert_eq!(rs.reads, 1);
}
