//! Property tests for the communication relations: random operation
//! sequences checked against reference models. Runs on the in-tree
//! `testutil` harness (seeded cases, no external crates).

use rtsim_comm::{EventPolicy, LockMode, MessageQueue, RtEvent, SharedVar};
use rtsim_core::{Processor, ProcessorConfig, TaskConfig};
use rtsim_kernel::testutil::{check, Rng};
use rtsim_kernel::Simulator;
use rtsim_trace::TraceRecorder;
use std::collections::VecDeque;
use std::sync::{Arc, Mutex};

/// Operations a single task performs against one queue.
#[derive(Debug, Clone, Copy)]
enum QueueOp {
    TryWrite(u32),
    TryRead,
}

fn gen_op(rng: &mut Rng) -> QueueOp {
    if rng.gen_bool(0.5) {
        QueueOp::TryWrite(rng.gen_range(0u32..1000))
    } else {
        QueueOp::TryRead
    }
}

/// A message queue driven by one task behaves exactly like a bounded
/// VecDeque, for any operation sequence and capacity.
#[test]
fn queue_matches_reference_model() {
    check(
        32,
        |rng| (rng.gen_vec(1..60, gen_op), rng.gen_range(1u32..6)),
        |(ops, capacity)| {
            let capacity = *capacity;
            let observed = Arc::new(Mutex::new(Vec::new()));
            let mut sim = Simulator::new();
            let rec = TraceRecorder::disabled();
            let cpu = Processor::new(&mut sim, &rec, ProcessorConfig::new("CPU"));
            let q: MessageQueue<u32> = MessageQueue::new(&rec, "q", capacity);
            let task_ops = ops.clone();
            let sink = Arc::clone(&observed);
            cpu.spawn_task(&mut sim, TaskConfig::new("driver").priority(1), move |t| {
                for op in task_ops {
                    let outcome = match op {
                        QueueOp::TryWrite(v) => q.try_write(t, v).is_ok() as i64,
                        QueueOp::TryRead => q.try_read(t).map_or(-1, i64::from),
                    };
                    sink.lock().unwrap().push(outcome);
                }
            });
            sim.run().unwrap();

            // Reference: a plain bounded deque.
            let mut reference = VecDeque::new();
            let mut expected = Vec::new();
            for op in ops {
                match op {
                    QueueOp::TryWrite(v) => {
                        if reference.len() < capacity as usize {
                            reference.push_back(*v);
                            expected.push(1);
                        } else {
                            expected.push(0);
                        }
                    }
                    QueueOp::TryRead => {
                        expected.push(reference.pop_front().map_or(-1, i64::from));
                    }
                }
            }
            assert_eq!(&*observed.lock().unwrap(), &expected);
        },
    );
}

/// Whatever the protection mode, number of contenders and section
/// lengths, a shared variable's hold/release records strictly
/// alternate — no double acquisition ever.
#[test]
fn shared_var_holds_alternate() {
    check(
        32,
        |rng| {
            (
                rng.gen_range(0usize..4),
                rng.gen_vec(2..5, |r| (r.gen_range(1u64..30), r.gen_range(1u32..9))),
            )
        },
        |(mode_pick, sections)| {
            let mode = [
                LockMode::Plain,
                LockMode::PreemptionMasked,
                LockMode::PriorityInheritance,
                LockMode::PriorityCeiling(rtsim_core::Priority(9)),
            ][*mode_pick];
            let mut sim = Simulator::new();
            let rec = TraceRecorder::new();
            let cpu = Processor::new(&mut sim, &rec, ProcessorConfig::new("CPU"));
            let var = SharedVar::new(&rec, "v", 0u64, mode);
            for (i, &(len, prio)) in sections.iter().enumerate() {
                let var = var.clone();
                cpu.spawn_task(
                    &mut sim,
                    TaskConfig::new(&format!("t{i}")).priority(prio),
                    move |t| {
                        for k in 0..3 {
                            var.write_for(t, rtsim_kernel::SimDuration::from_us(len), k);
                            t.delay(rtsim_kernel::SimDuration::from_us(1));
                        }
                    },
                );
            }
            sim.run().unwrap();
            let trace = rec.snapshot();
            let actor = trace.actor_by_name("v").unwrap();
            let mut held = false;
            let mut transitions = 0usize;
            for r in trace.records_for(actor) {
                if let rtsim_trace::TraceData::ResourceHeld(h) = r.data {
                    assert_ne!(h, held, "hold/release must alternate");
                    held = h;
                    transitions += 1;
                }
            }
            assert!(!held, "released at the end");
            assert_eq!(transitions, sections.len() * 3 * 2);
        },
    );
}

/// Counter events conserve tokens: consumed = min(signalled, waits),
/// and leftover tokens equal the difference.
#[test]
fn counter_event_token_conservation() {
    check(
        32,
        |rng| (rng.gen_range(0u64..30), rng.gen_range(0u64..30)),
        |&(signals, waits)| {
            let consumed = Arc::new(Mutex::new(0u64));
            let mut sim = Simulator::new();
            let rec = TraceRecorder::disabled();
            let cpu = Processor::new(&mut sim, &rec, ProcessorConfig::new("CPU"));
            let ev = RtEvent::new(&rec, "ev", EventPolicy::Counter);
            let tx = ev.clone();
            cpu.spawn_task(
                &mut sim,
                TaskConfig::new("producer").priority(2),
                move |t| {
                    for _ in 0..signals {
                        tx.signal(t);
                    }
                },
            );
            let ev_wait = ev.clone();
            let count = Arc::clone(&consumed);
            cpu.spawn_task(
                &mut sim,
                TaskConfig::new("consumer").priority(1),
                move |t| {
                    for _ in 0..waits {
                        if !ev_wait.try_wait(t) {
                            // Avoid blocking forever when tokens run out: poll
                            // with try_wait after giving the producer a chance.
                            break;
                        }
                        *count.lock().unwrap() += 1;
                    }
                },
            );
            sim.run().unwrap();
            let consumed = *consumed.lock().unwrap();
            assert_eq!(consumed, signals.min(waits));
            assert_eq!(ev.pending(), signals - consumed);
        },
    );
}
