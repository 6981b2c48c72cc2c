//! Aperiodic servers: serving event-driven work inside a fixed-priority
//! periodic schedule.
//!
//! Classical real-time design (Buttazzo, the paper's reference \[10\])
//! handles aperiodic requests with *server* tasks: a periodic task with a
//! CPU **budget** that serves queued requests when it activates. This
//! module provides the two classic fixed-priority members of the family:
//!
//! - the **polling server** ([`spawn_polling_server`]): at each period
//!   start it serves pending requests until its budget is exhausted or
//!   the queue empties — budget left over when the queue is empty is
//!   *lost*;
//! - the **deferrable server** ([`spawn_deferrable_server`]): its budget
//!   is *preserved* while idle and replenished to full at every period
//!   boundary, so a request arriving mid-period is served immediately —
//!   lower aperiodic latency for the same bandwidth.
//!
//! Requests larger than the remaining budget are served *partially* and
//! resume after the next replenishment.
//!
//! # Examples
//!
//! ```
//! use rtsim_core::server::{AperiodicQueue, PollingServerConfig, spawn_polling_server};
//! use rtsim_core::{Processor, ProcessorConfig, TaskConfig};
//! use rtsim_kernel::{SimDuration, Simulator};
//! use rtsim_trace::TraceRecorder;
//!
//! # fn main() -> Result<(), rtsim_kernel::KernelError> {
//! let mut sim = Simulator::new();
//! let rec = TraceRecorder::new();
//! let cpu = Processor::new(&mut sim, &rec, ProcessorConfig::new("CPU"));
//! let queue = AperiodicQueue::new(&rec);
//!
//! // A server with a 2 ms period and 500 µs budget, priority 5.
//! spawn_polling_server(
//!     &cpu,
//!     &mut sim,
//!     PollingServerConfig {
//!         name: "poller".into(),
//!         priority: 5,
//!         period: SimDuration::from_ms(2),
//!         budget: SimDuration::from_us(500),
//!         cycles: 10,
//!     },
//!     queue.clone(),
//! );
//!
//! // A hardware source submitting an aperiodic request.
//! let submit = queue.clone();
//! sim.spawn("stimulus", move |ctx| {
//!     ctx.wait_for(SimDuration::from_us(300));
//!     submit.submit(ctx.now(), 1, SimDuration::from_us(200));
//! });
//!
//! sim.run()?;
//! assert_eq!(queue.completions().len(), 1);
//! # Ok(())
//! # }
//! ```

use std::collections::VecDeque;
use std::fmt;

use rtsim_kernel::world::Slot;
use rtsim_kernel::{KernelHandle, SimDuration, SimTime, Simulator};
use rtsim_trace::TraceRecorder;

use crate::agent::{Party, Waiter};
use crate::processor::{Processor, TaskHandle};
use crate::task::TaskConfig;

/// A completed aperiodic request, with its service history.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CompletedRequest {
    /// Caller-chosen request id.
    pub id: u64,
    /// When the request was submitted.
    pub submitted: SimTime,
    /// When its last slice of service finished.
    pub completed: SimTime,
}

impl CompletedRequest {
    /// Submission-to-completion latency.
    pub fn latency(&self) -> SimDuration {
        self.completed - self.submitted
    }
}

#[derive(Debug, Clone)]
struct PendingRequest {
    id: u64,
    submitted: SimTime,
    remaining: SimDuration,
}

#[derive(Default, Clone)]
struct QueueState {
    pending: VecDeque<PendingRequest>,
    completed: Vec<CompletedRequest>,
    /// Set by a deferrable server: woken on every submission.
    waiter: Option<Waiter>,
}

/// The request queue feeding a polling server.
///
/// Cloning yields another handle to the same queue, whose state lives in
/// the simulation world. Submission is non-blocking and callable from
/// any simulation process — typically a hardware function modeling an
/// unpredictable event source.
#[derive(Clone)]
pub struct AperiodicQueue {
    recorder: TraceRecorder,
    state: Slot<QueueState>,
}

impl AperiodicQueue {
    /// Creates an empty queue in `recorder`'s world (the one its server's
    /// processor is built on).
    pub fn new(recorder: &TraceRecorder) -> Self {
        let state = recorder
            .world()
            .lock_for("AperiodicQueue::new")
            .insert(QueueState::default());
        AperiodicQueue {
            recorder: recorder.clone(),
            state,
        }
    }

    /// Runs `f` on the queue state, locking the world (code outside a
    /// step: the testbench and the servers' closure bodies).
    fn with_state<R>(&self, accessor: &'static str, f: impl FnOnce(&mut QueueState) -> R) -> R {
        f(self.recorder.world().lock_for(accessor).get_mut(self.state))
    }

    /// Submits a request of `cost` CPU time, identified by `id`.
    ///
    /// A polling server will notice it at its next activation. To reach a
    /// deferrable server immediately, use
    /// [`submit_from`](AperiodicQueue::submit_from).
    ///
    /// # Panics
    ///
    /// Panics if `cost` is zero.
    pub fn submit(&self, now: SimTime, id: u64, cost: SimDuration) {
        assert!(!cost.is_zero(), "aperiodic request needs a non-zero cost");
        self.with_state("AperiodicQueue::submit", |st| {
            st.pending.push_back(PendingRequest {
                id,
                submitted: now,
                remaining: cost,
            })
        });
    }

    /// Submits a request and wakes the serving task (required for a
    /// deferrable server to honor its arrival-time service). `h` is the
    /// submitting simulation process's kernel handle.
    ///
    /// # Panics
    ///
    /// Panics if `cost` is zero.
    pub fn submit_from(&self, h: &mut dyn KernelHandle, id: u64, cost: SimDuration) {
        assert!(!cost.is_zero(), "aperiodic request needs a non-zero cost");
        let now = h.now();
        let waiter = {
            let mut world = h.world();
            let st = world.get_mut(self.state);
            st.pending.push_back(PendingRequest {
                id,
                submitted: now,
                remaining: cost,
            });
            st.waiter
        };
        if let Some(w) = waiter {
            w.wake(h);
        }
    }

    /// Requests not yet fully served.
    pub fn pending(&self) -> usize {
        self.with_state("AperiodicQueue::pending", |st| st.pending.len())
    }

    /// Requests fully served so far, in completion order.
    pub fn completions(&self) -> Vec<CompletedRequest> {
        self.with_state("AperiodicQueue::completions", |st| st.completed.clone())
    }

    /// Takes up to `budget` of service from the oldest pending request:
    /// `(slice, finished, id, submitted)`, or `None` on an empty queue.
    fn take_slice(
        st: &mut QueueState,
        budget: SimDuration,
    ) -> Option<(SimDuration, bool, u64, SimTime)> {
        let req = st.pending.front_mut()?;
        let slice = req.remaining.min(budget);
        req.remaining -= slice;
        let finished = req.remaining.is_zero();
        let (id, submitted) = (req.id, req.submitted);
        if finished {
            st.pending.pop_front();
        }
        Some((slice, finished, id, submitted))
    }

    fn complete(&self, id: u64, submitted: SimTime, completed: SimTime) {
        self.with_state("AperiodicQueue::complete", |st| {
            st.completed.push(CompletedRequest {
                id,
                submitted,
                completed,
            })
        });
    }
}

impl fmt::Debug for AperiodicQueue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (pending, completed) = self.with_state("AperiodicQueue::fmt", |st| {
            (st.pending.len(), st.completed.len())
        });
        f.debug_struct("AperiodicQueue")
            .field("pending", &pending)
            .field("completed", &completed)
            .finish()
    }
}

/// Configuration of a polling server.
#[derive(Debug, Clone)]
pub struct PollingServerConfig {
    /// Server task name.
    pub name: String,
    /// Server priority (it competes like any task).
    pub priority: u32,
    /// Replenishment period.
    pub period: SimDuration,
    /// CPU budget per period.
    pub budget: SimDuration,
    /// Number of polling cycles to run (bounds the simulation).
    pub cycles: u64,
}

/// Spawns a polling server on `processor`, serving `queue`.
///
/// Polling semantics: the server activates every `period`; if requests
/// are pending it serves them (including arrivals during the service
/// burst) until the budget is exhausted, then sleeps until the next
/// activation. If it finds the queue empty, the whole budget is lost.
///
/// # Panics
///
/// Panics if `budget` is zero or exceeds `period`.
pub fn spawn_polling_server(
    processor: &Processor,
    sim: &mut Simulator,
    config: PollingServerConfig,
    queue: AperiodicQueue,
) -> TaskHandle {
    assert!(!config.budget.is_zero(), "polling server needs a budget");
    assert!(
        config.budget <= config.period,
        "polling server budget exceeds its period"
    );
    let task_config = TaskConfig::new(&config.name)
        .priority(config.priority)
        .period(config.period);
    let period = config.period;
    let budget = config.budget;
    let cycles = config.cycles;
    processor.spawn_task(sim, task_config, move |t| {
        let start = t.now();
        for k in 1..=cycles {
            let mut remaining_budget = budget;
            loop {
                // Take (part of) the oldest pending request.
                let slice = queue.with_state("AperiodicQueue::serve", |st| {
                    AperiodicQueue::take_slice(st, remaining_budget)
                });
                let Some((slice, finished, id, submitted)) = slice else {
                    break; // queue empty: the rest of the budget is lost
                };
                t.execute(slice);
                remaining_budget -= slice;
                if finished {
                    queue.complete(id, submitted, t.now());
                }
                if remaining_budget.is_zero() {
                    break; // budget exhausted until the next period
                }
            }
            if k < cycles {
                let next = start + period * k;
                let now = t.now();
                if next > now {
                    t.delay(next - now);
                }
            }
        }
    })
}

/// Spawns a deferrable server on `processor`, serving `queue`.
///
/// Deferrable semantics: the budget replenishes to full at every period
/// boundary and is *preserved* while the server idles, so requests
/// submitted via [`AperiodicQueue::submit_from`] are served on arrival
/// (at the server's priority) as long as budget remains; with the budget
/// exhausted, service resumes at the next replenishment.
///
/// # Panics
///
/// Panics if `budget` is zero or exceeds `period`.
pub fn spawn_deferrable_server(
    processor: &Processor,
    sim: &mut Simulator,
    config: PollingServerConfig,
    queue: AperiodicQueue,
) -> TaskHandle {
    assert!(!config.budget.is_zero(), "deferrable server needs a budget");
    assert!(
        config.budget <= config.period,
        "deferrable server budget exceeds its period"
    );
    let task_config = TaskConfig::new(&config.name)
        .priority(config.priority)
        .period(config.period);
    let period = config.period;
    let full_budget = config.budget;
    let cycles = config.cycles;
    processor.spawn_task(sim, task_config, move |t| {
        let start = t.now();
        let horizon = start + period * cycles;
        let mut budget = full_budget;
        let mut replenish_epoch = 0u64;
        loop {
            let now = t.now();
            if now >= horizon {
                return;
            }
            // Lazy replenishment: the budget refills to C at every period
            // boundary crossed since the last service.
            let epoch = (now - start) / period;
            if epoch > replenish_epoch {
                replenish_epoch = epoch;
                budget = full_budget;
            }
            if budget.is_zero() {
                // Sleep to the next replenishment boundary.
                let next = start + period * (epoch + 1);
                t.delay(next - now);
                continue;
            }
            // Serve one slice, or suspend (budget preserved!) until a
            // submission wakes us. The waiter is armed *in the same
            // access as the emptiness check* (no lost wakeup) and only for
            // this idle wait: were it armed permanently, a submission
            // landing during the replenishment sleep above would mark
            // the still-sleeping task Ready, and the grant would hold
            // the CPU idle until the timer fires — starving lower-
            // priority work for up to a full period.
            let waiter = t.waiter();
            let slice = queue.with_state("AperiodicQueue::serve", |st| {
                let slice = AperiodicQueue::take_slice(st, budget);
                if slice.is_none() {
                    st.waiter = Some(waiter);
                }
                slice
            });
            match slice {
                None => {
                    t.suspend(false);
                    queue.with_state("AperiodicQueue::serve", |st| st.waiter = None);
                }
                Some((slice, finished, id, submitted)) => {
                    t.execute(slice);
                    budget -= slice;
                    if finished {
                        queue.complete(id, submitted, t.now());
                    }
                }
            }
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::processor::ProcessorConfig;
    use rtsim_trace::TraceRecorder;

    fn us(v: u64) -> SimDuration {
        SimDuration::from_us(v)
    }

    fn harness() -> (Simulator, TraceRecorder, Processor) {
        let mut sim = Simulator::new();
        let rec = TraceRecorder::new();
        let cpu = Processor::new(&mut sim, &rec, ProcessorConfig::new("CPU"));
        (sim, rec, cpu)
    }

    #[test]
    fn request_waits_for_the_next_poll() {
        let (mut sim, rec, cpu) = harness();
        let queue = AperiodicQueue::new(&rec);
        spawn_polling_server(
            &cpu,
            &mut sim,
            PollingServerConfig {
                name: "srv".into(),
                priority: 5,
                period: us(100),
                budget: us(40),
                cycles: 5,
            },
            queue.clone(),
        );
        // Arrives at 30, after the (empty) poll at 0: served at the 100 µs
        // activation, completes at 120.
        let submit = queue.clone();
        sim.spawn("stim", move |ctx| {
            ctx.wait_for(us(30));
            submit.submit(ctx.now(), 7, us(20));
        });
        sim.run().unwrap();
        let done = queue.completions();
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].id, 7);
        assert_eq!(done[0].completed, SimTime::ZERO + us(120));
        assert_eq!(done[0].latency(), us(90));
    }

    #[test]
    fn oversized_request_spans_periods() {
        let (mut sim, rec, cpu) = harness();
        let queue = AperiodicQueue::new(&rec);
        spawn_polling_server(
            &cpu,
            &mut sim,
            PollingServerConfig {
                name: "srv".into(),
                priority: 5,
                period: us(100),
                budget: us(30),
                cycles: 6,
            },
            queue.clone(),
        );
        queue.submit(SimTime::ZERO, 1, us(70));
        sim.run().unwrap();
        let done = queue.completions();
        assert_eq!(done.len(), 1);
        // 30 µs at 0, 30 µs at 100, final 10 µs at 200: done at 210.
        assert_eq!(done[0].completed, SimTime::ZERO + us(210));
    }

    #[test]
    fn budget_bounds_interference_on_background_work() {
        let (mut sim, rec, cpu) = harness();
        let queue = AperiodicQueue::new(&rec);
        spawn_polling_server(
            &cpu,
            &mut sim,
            PollingServerConfig {
                name: "srv".into(),
                priority: 9, // outranks the background task
                period: us(100),
                budget: us(20),
                cycles: 10,
            },
            queue.clone(),
        );
        cpu.spawn_task(&mut sim, TaskConfig::new("bg").priority(1), |t| {
            t.execute(us(400));
        });
        // A flood of aperiodic work: without the budget it would starve bg.
        for k in 0..20 {
            queue.submit(SimTime::ZERO, k, us(50));
        }
        sim.run().unwrap();
        let trace = rec.snapshot();
        let bg = trace.actor_by_name("bg").unwrap();
        let done = trace
            .records_for(bg)
            .find_map(|r| match r.data {
                rtsim_trace::TraceData::State(rtsim_trace::TaskState::Terminated) => Some(r.at),
                _ => None,
            })
            .expect("bg finished");
        // bg needs 400 µs; the server steals at most 20 µs per 100 µs, so
        // bg completes by 400 / (1 - 0.2) = 500.
        assert_eq!(done, SimTime::ZERO + us(500));
    }

    #[test]
    fn arrivals_during_service_are_served_same_period() {
        let (mut sim, rec, cpu) = harness();
        let queue = AperiodicQueue::new(&rec);
        spawn_polling_server(
            &cpu,
            &mut sim,
            PollingServerConfig {
                name: "srv".into(),
                priority: 5,
                period: us(100),
                budget: us(50),
                cycles: 3,
            },
            queue.clone(),
        );
        queue.submit(SimTime::ZERO, 1, us(10));
        let submit = queue.clone();
        sim.spawn("stim", move |ctx| {
            ctx.wait_for(us(5)); // lands mid-burst, budget remains
            submit.submit(ctx.now(), 2, us(10));
        });
        sim.run().unwrap();
        let done = queue.completions();
        assert_eq!(done.len(), 2);
        assert_eq!(done[1].completed, SimTime::ZERO + us(20));
    }

    #[test]
    fn deferrable_server_serves_on_arrival() {
        let (mut sim, rec, cpu) = harness();
        let queue = AperiodicQueue::new(&rec);
        spawn_deferrable_server(
            &cpu,
            &mut sim,
            PollingServerConfig {
                name: "dsrv".into(),
                priority: 5,
                period: us(100),
                budget: us(40),
                cycles: 5,
            },
            queue.clone(),
        );
        // Arrives at 30: the deferrable server (budget preserved) serves
        // it immediately, completing at 50 — a polling server would have
        // waited until 100.
        let submit = queue.clone();
        sim.spawn("stim", move |ctx| {
            ctx.wait_for(us(30));
            submit.submit_from(ctx, 7, us(20));
        });
        sim.run().unwrap();
        let done = queue.completions();
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].completed, SimTime::ZERO + us(50));
        assert_eq!(done[0].latency(), us(20));
    }

    #[test]
    fn deferrable_budget_exhaustion_defers_to_replenishment() {
        let (mut sim, rec, cpu) = harness();
        let queue = AperiodicQueue::new(&rec);
        spawn_deferrable_server(
            &cpu,
            &mut sim,
            PollingServerConfig {
                name: "dsrv".into(),
                priority: 5,
                period: us(100),
                budget: us(30),
                cycles: 5,
            },
            queue.clone(),
        );
        let submit = queue.clone();
        sim.spawn("stim", move |ctx| {
            ctx.wait_for(us(10));
            submit.submit_from(ctx, 1, us(50));
        });
        sim.run().unwrap();
        let done = queue.completions();
        assert_eq!(done.len(), 1);
        // 30 µs served 10..40, budget out; replenish at 100, final 20 µs
        // served 100..120.
        assert_eq!(done[0].completed, SimTime::ZERO + us(120));
    }

    #[test]
    fn deferrable_request_at_replenishment_instant_sees_fresh_budget() {
        // Regression: a request arriving at exactly the replenishment
        // boundary must be served with the refilled budget, not deferred
        // a full period. Pinned in both kernel execution modes (the
        // server is a thread-backed closure either way; the scheduler
        // loop differs).
        for mode in [
            rtsim_kernel::ExecMode::Thread,
            rtsim_kernel::ExecMode::Segment,
        ] {
            let mut sim = Simulator::with_mode(mode);
            let rec = TraceRecorder::new();
            let cpu = Processor::new(&mut sim, &rec, ProcessorConfig::new("CPU"));
            let queue = AperiodicQueue::new(&rec);
            spawn_deferrable_server(
                &cpu,
                &mut sim,
                PollingServerConfig {
                    name: "dsrv".into(),
                    priority: 5,
                    period: us(100),
                    budget: us(30),
                    cycles: 4,
                },
                queue.clone(),
            );
            // Exhaust the whole budget mid-period, then land a request at
            // exactly t = 100 — the replenishment instant.
            let submit = queue.clone();
            sim.spawn("stim", move |ctx| {
                ctx.wait_for(us(10));
                submit.submit_from(ctx, 1, us(30)); // served 10..40, budget out
                ctx.wait_for(us(90)); // now exactly at the boundary
                submit.submit_from(ctx, 2, us(20));
            });
            sim.run().unwrap();
            let done = queue.completions();
            assert_eq!(done.len(), 2, "[{mode:?}] both requests served");
            assert_eq!(done[0].completed, SimTime::ZERO + us(40), "[{mode:?}]");
            // The boundary request sees the t=100 refill: served 100..120.
            assert_eq!(
                done[1].completed,
                SimTime::ZERO + us(120),
                "[{mode:?}] boundary arrival must not defer a full period"
            );
        }
    }

    #[test]
    fn submission_during_replenishment_sleep_does_not_hold_the_cpu() {
        // Regression: with the queue waiter armed permanently, a
        // submission landing while the server slept out its exhausted
        // budget marked the sleeping task Ready — the grant held the
        // CPU idle until the replenishment timer fired, starving
        // lower-priority work for the rest of the period. Pinned in
        // both kernel execution modes.
        for mode in [
            rtsim_kernel::ExecMode::Thread,
            rtsim_kernel::ExecMode::Segment,
        ] {
            let mut sim = Simulator::with_mode(mode);
            let rec = TraceRecorder::new();
            let cpu = Processor::new(&mut sim, &rec, ProcessorConfig::new("CPU"));
            let queue = AperiodicQueue::new(&rec);
            spawn_deferrable_server(
                &cpu,
                &mut sim,
                PollingServerConfig {
                    name: "dsrv".into(),
                    priority: 5,
                    period: us(100),
                    budget: us(30),
                    cycles: 3,
                },
                queue.clone(),
            );
            cpu.spawn_task(&mut sim, TaskConfig::new("bg").priority(1), |t| {
                t.execute(us(200));
            });
            let submit = queue.clone();
            sim.spawn("stim", move |ctx| {
                ctx.wait_for(us(10));
                submit.submit_from(ctx, 1, us(30)); // exhausts the budget 10..40
                ctx.wait_for(us(50)); // t = 60: mid replenishment sleep
                submit.submit_from(ctx, 2, us(10));
            });
            sim.run().unwrap();
            let done = queue.completions();
            assert_eq!(done.len(), 2, "[{mode:?}]");
            // The mid-sleep arrival is served right after the t=100 refill.
            assert_eq!(done[1].completed, SimTime::ZERO + us(110), "[{mode:?}]");
            // bg needs 200 µs; the server consumes 40 µs total, so bg must
            // finish at 240 — not 280 (the phantom grant wasted 60..100).
            let trace = rec.snapshot();
            let bg = trace.actor_by_name("bg").unwrap();
            let bg_done = trace
                .records_for(bg)
                .find_map(|r| match r.data {
                    rtsim_trace::TraceData::State(rtsim_trace::TaskState::Terminated) => Some(r.at),
                    _ => None,
                })
                .expect("bg finished");
            assert_eq!(
                bg_done,
                SimTime::ZERO + us(240),
                "[{mode:?}] sleeping server must not hold the CPU"
            );
        }
    }

    #[test]
    fn deferrable_beats_polling_on_latency_for_the_same_bandwidth() {
        fn run(deferrable: bool) -> SimDuration {
            let (mut sim, rec, cpu) = harness();
            let queue = AperiodicQueue::new(&rec);
            let config = PollingServerConfig {
                name: "srv".into(),
                priority: 5,
                period: us(100),
                budget: us(40),
                cycles: 10,
            };
            if deferrable {
                spawn_deferrable_server(&cpu, &mut sim, config, queue.clone());
            } else {
                spawn_polling_server(&cpu, &mut sim, config, queue.clone());
            }
            let submit = queue.clone();
            sim.spawn("stim", move |ctx| {
                for k in 0..4u64 {
                    ctx.wait_for(us(130)); // always lands mid-period
                    submit.submit_from(ctx, k, us(10));
                }
            });
            sim.run().unwrap();
            let worst = queue
                .completions()
                .iter()
                .map(CompletedRequest::latency)
                .max()
                .expect("requests served");
            worst
        }
        let deferrable = run(true);
        let polling = run(false);
        assert!(
            deferrable < polling,
            "deferrable {deferrable} should beat polling {polling}"
        );
        assert_eq!(deferrable, us(10)); // served on arrival
    }

    #[test]
    #[should_panic(expected = "budget exceeds")]
    fn overcommitted_server_rejected() {
        let (mut sim, rec, cpu) = harness();
        let _ = spawn_polling_server(
            &cpu,
            &mut sim,
            PollingServerConfig {
                name: "srv".into(),
                priority: 1,
                period: us(10),
                budget: us(20),
                cycles: 1,
            },
            AperiodicQueue::new(&rec),
        );
    }

    #[test]
    #[should_panic(expected = "non-zero cost")]
    fn zero_cost_request_rejected() {
        AperiodicQueue::new(&TraceRecorder::new()).submit(SimTime::ZERO, 1, SimDuration::ZERO);
    }
}
