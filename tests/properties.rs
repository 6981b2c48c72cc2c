//! Property-based tests over the full stack: randomized task sets checked
//! against structural invariants (one running task per processor, CPU
//! time conservation, message conservation, determinism) and against
//! classical fixed-priority response-time analysis — at the synchronous
//! critical instant the simulation must agree with the theory *exactly*.
//!
//! Runs on the in-tree `testutil` harness (seeded cases, no external
//! crates); a failure prints its `RTSIM_PROP_SEED` reproduction seed.

use rtsim::policies::PriorityPreemptive;
use rtsim::testutil::check;
use rtsim::{
    response_time_analysis, EngineKind, MessageQueue, Overheads, PeriodicTask, Priority, Processor,
    ProcessorConfig, SimDuration, SimTime, TaskConfig, TaskState, Trace, TraceRecorder,
};

fn us(v: u64) -> SimDuration {
    SimDuration::from_us(v)
}

/// Scans a trace record-by-record and asserts that at no point two tasks
/// of the traced system are Running simultaneously.
fn assert_single_runner(trace: &Trace) {
    let mut states = vec![TaskState::Created; trace.actors().len()];
    let mut running = 0usize;
    for rec in trace.records() {
        if let rtsim::trace::TraceData::State(next) = rec.data {
            let idx = rec.actor.index();
            if states[idx] == TaskState::Running && next != TaskState::Running {
                running -= 1;
            }
            if states[idx] != TaskState::Running && next == TaskState::Running {
                running += 1;
            }
            states[idx] = next;
            assert!(
                running <= 1,
                "two tasks running at {} (record seq {})",
                rec.at,
                rec.seq
            );
        }
    }
}

/// Total Running time of one task over the whole trace.
fn running_time(trace: &Trace, name: &str) -> SimDuration {
    let actor = trace.actor_by_name(name).expect("actor");
    trace
        .state_intervals(actor, trace.horizon())
        .into_iter()
        .filter(|&(_, _, s)| s == TaskState::Running)
        .map(|(start, end, _)| end - start)
        .sum()
}

/// First-job response time: first Ready instant to the first subsequent
/// Waiting/Terminated instant.
fn first_response(trace: &Trace, name: &str) -> Option<SimDuration> {
    let actor = trace.actor_by_name(name)?;
    let mut activation = None;
    for rec in trace.records_for(actor) {
        match rec.data {
            rtsim::trace::TraceData::State(TaskState::Ready) if activation.is_none() => {
                activation = Some(rec.at);
            }
            rtsim::trace::TraceData::State(TaskState::Waiting | TaskState::Terminated) => {
                return activation.map(|a| rec.at - a);
            }
            _ => {}
        }
    }
    None
}

/// Invariant: one processor never runs two tasks at once, whatever the
/// workload, and every task's total Running time equals exactly the
/// CPU time it asked for (zero overheads, run to completion).
#[test]
fn single_runner_and_cpu_conservation() {
    check(
        24,
        |rng| {
            (
                // (execute us, delay us, priority)
                rng.gen_vec(1..6, |r| {
                    (
                        r.gen_range(1u64..50),
                        r.gen_range(0u64..30),
                        r.gen_range(1u32..10),
                    )
                }),
                rng.gen_range(1u64..4),
            )
        },
        |(specs, rounds)| {
            let rounds = *rounds;
            let mut sim = rtsim::Simulator::new();
            let rec = TraceRecorder::new();
            let cpu = Processor::new(&mut sim, &rec, ProcessorConfig::new("CPU"));
            for (i, &(exec_us, delay_us, prio)) in specs.iter().enumerate() {
                cpu.spawn_task(
                    &mut sim,
                    TaskConfig::new(&format!("t{i}")).priority(prio),
                    move |t| {
                        for _ in 0..rounds {
                            t.execute(us(exec_us));
                            t.delay(us(delay_us));
                        }
                    },
                );
            }
            sim.run().unwrap();
            let trace = rec.snapshot();
            assert_single_runner(&trace);
            for (i, &(exec_us, _, _)) in specs.iter().enumerate() {
                let expected = us(exec_us) * rounds;
                assert_eq!(
                    running_time(&trace, &format!("t{i}")),
                    expected,
                    "task t{i} CPU time not conserved"
                );
            }
        },
    );
}

/// At the synchronous critical instant, simulated first-job response
/// times equal exact fixed-priority response-time analysis, for any
/// schedulable task set with distinct priorities.
#[test]
fn simulation_matches_response_time_analysis() {
    check(
        24,
        |rng| rng.gen_vec(1..5, |r| (r.gen_range(1u64..20), r.gen_range(50u64..200))),
        |raw| {
            // Build tasks with distinct priorities: index 0 = highest.
            let n = raw.len() as u32;
            let tasks: Vec<PeriodicTask> = raw
                .iter()
                .enumerate()
                .map(|(i, &(wcet, period))| {
                    PeriodicTask::new(
                        &format!("t{i}"),
                        us(wcet),
                        us(period),
                        Priority(n - i as u32),
                    )
                })
                .collect();
            let rta = response_time_analysis(&tasks, SimDuration::ZERO);
            if !rta.iter().all(|r| r.schedulable) {
                // The proptest version discarded unschedulable sets via
                // prop_assume!; here the case simply passes vacuously.
                return;
            }

            // Simulate with *periodic* re-arrivals: the analysis charges a
            // job with every re-activation of its interferers, so the
            // simulation must produce them. All tasks release synchronously
            // at t = 0 — the critical instant.
            let mut sim = rtsim::Simulator::new();
            let rec = TraceRecorder::new();
            let cpu = Processor::new(
                &mut sim,
                &rec,
                ProcessorConfig::new("CPU").policy(PriorityPreemptive::new()),
            );
            let horizon = tasks.iter().map(|t| t.period).max().expect("tasks") * 2;
            for task in &tasks {
                let wcet = task.wcet;
                let period = task.period;
                let jobs = horizon / period + 1;
                cpu.spawn_task(
                    &mut sim,
                    TaskConfig::new(&task.name).priority(task.priority.0),
                    move |t| {
                        // Anchor releases at absolute time zero (synchronous
                        // release): job k is released at k*T, exactly as the
                        // analysis assumes. Anchoring at first dispatch would
                        // skew every re-arrival by the initial queueing delay.
                        for k in 1..=jobs {
                            t.execute(wcet);
                            let next = rtsim::SimTime::ZERO + period * k;
                            let now = t.now();
                            if next > now {
                                t.delay(next - now);
                            }
                        }
                    },
                );
            }
            sim.run().unwrap();
            let trace = rec.snapshot();
            for (task, analysis) in tasks.iter().zip(&rta) {
                let simulated = first_response(&trace, &task.name).expect("job completed");
                assert_eq!(
                    Some(simulated),
                    analysis.worst,
                    "task {} at the critical instant",
                    task.name
                );
            }
        },
    );
}

/// Messages cross a queue between two processors unduplicated, in
/// order, and completely, for any producer/consumer timing.
#[test]
fn queue_conservation_across_processors() {
    check(
        24,
        |rng| {
            (
                rng.gen_range(1usize..20),
                rng.gen_range(1usize..8),
                rng.gen_range(0u64..20),
                rng.gen_range(0u64..20),
            )
        },
        |&(count, capacity, producer_gap, consumer_cost)| {
            let mut sim = rtsim::Simulator::new();
            let rec = TraceRecorder::new();
            let cpu_a = Processor::new(&mut sim, &rec, ProcessorConfig::new("A"));
            let cpu_b = Processor::new(&mut sim, &rec, ProcessorConfig::new("B"));
            let q: MessageQueue<usize> = MessageQueue::new(&rec, "link", capacity);
            let received = std::sync::Arc::new(std::sync::Mutex::new(Vec::new()));

            let tx = q.clone();
            cpu_a.spawn_task(
                &mut sim,
                TaskConfig::new("producer").priority(1),
                move |t| {
                    for k in 0..count {
                        if producer_gap > 0 {
                            t.delay(us(producer_gap));
                        }
                        tx.write(t, k);
                    }
                },
            );
            let sink = std::sync::Arc::clone(&received);
            cpu_b.spawn_task(
                &mut sim,
                TaskConfig::new("consumer").priority(1),
                move |t| {
                    for _ in 0..count {
                        let k = q.read(t);
                        if consumer_cost > 0 {
                            t.execute(us(consumer_cost));
                        }
                        sink.lock().unwrap().push(k);
                    }
                },
            );
            sim.run().unwrap();
            let received = received.lock().unwrap();
            assert_eq!(&*received, &(0..count).collect::<Vec<_>>());
        },
    );
}

/// The full stack is deterministic: the same random model produces a
/// bit-identical trace on every run, under both engines separately.
#[test]
fn full_stack_determinism() {
    check(
        24,
        |rng| {
            rng.gen_vec(2..5, |r| {
                (
                    r.gen_range(1u64..30),
                    r.gen_range(1u64..30),
                    r.gen_range(1u32..8),
                )
            })
        },
        |specs| {
            for engine in [EngineKind::ProcedureCall, EngineKind::DedicatedThread] {
                let run = |specs: &[(u64, u64, u32)]| {
                    let mut sim = rtsim::Simulator::new();
                    let rec = TraceRecorder::new();
                    let cpu = Processor::new(
                        &mut sim,
                        &rec,
                        ProcessorConfig::new("CPU")
                            .engine(engine)
                            .overheads(Overheads::uniform(SimDuration::from_ns(700))),
                    );
                    for (i, &(exec_us, delay_us, prio)) in specs.iter().enumerate() {
                        cpu.spawn_task(
                            &mut sim,
                            TaskConfig::new(&format!("t{i}")).priority(prio),
                            move |t| {
                                for _ in 0..3 {
                                    t.execute(us(exec_us));
                                    t.delay(us(delay_us));
                                }
                            },
                        );
                    }
                    sim.run().unwrap();
                    let trace = rec.snapshot();
                    let summary: Vec<(u64, u32, String)> = trace
                        .records()
                        .iter()
                        .map(|r| {
                            (
                                r.at.as_ps(),
                                r.actor.index() as u32,
                                format!("{:?}", r.data),
                            )
                        })
                        .collect();
                    (summary, sim.now())
                };
                assert_eq!(run(specs), run(specs));
            }
        },
    );
}

/// Round-robin fairness: equal-priority, always-ready tasks receive
/// CPU shares within one quantum of each other.
#[test]
fn round_robin_is_fair() {
    check(
        24,
        |rng| (rng.gen_range(2usize..5), rng.gen_range(5u64..20)),
        |&(n_tasks, quantum_us)| {
            use rtsim::policies::RoundRobin;
            let total = us(200);
            let mut sim = rtsim::Simulator::new();
            let rec = TraceRecorder::new();
            let cpu = Processor::new(
                &mut sim,
                &rec,
                ProcessorConfig::new("CPU").policy(RoundRobin::new(us(quantum_us))),
            );
            for i in 0..n_tasks {
                cpu.spawn_task(&mut sim, TaskConfig::new(&format!("t{i}")), move |t| {
                    t.execute(total);
                });
            }
            // Stop mid-flight, while everyone still has work.
            sim.run_until(SimTime::ZERO + us(150)).unwrap();
            let trace = rec.snapshot();
            let shares: Vec<u64> = (0..n_tasks)
                .map(|i| running_time(&trace, &format!("t{i}")).as_us())
                .collect();
            let max = *shares.iter().max().unwrap();
            let min = *shares.iter().min().unwrap();
            assert!(
                max - min <= quantum_us,
                "unfair shares {shares:?} with quantum {quantum_us}"
            );
        },
    );
}
