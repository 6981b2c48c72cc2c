//! Approach A (paper §4.1): task scheduling using a dedicated RTOS thread.
//!
//! The RTOS behaviour is modeled by its own simulation coroutine, woken by
//! an `RTKRun` event whenever a task enters or leaves the Waiting state.
//! The RTOS coroutine applies the state change, runs the scheduling
//! algorithm, consumes all overhead durations on its own timeline, and
//! dispatches the elected task via its `TaskRun` event (Figure 3).
//!
//! Every scheduling action therefore costs two extra coroutine switches
//! (task → RTOS → task) compared with the procedure-call model — the
//! simulation-speed penalty quantified in the paper's §4 and reproduced by
//! the `ab_speed_table` harness binary.
//!
//! Requests are carried in a queue in the processor's RTOS state rather
//! than in the event itself, so notifications that land while the RTOS
//! coroutine is busy consuming overhead time are never lost.
//!
//! The coroutine is a step machine ([`RtosPhase`]) spawned through
//! [`Simulator::spawn_segment`], so the execution mode decides only
//! whether it runs on its own thread or inline in the scheduler loop.
//!
//! It decides with the same election as the procedure-call engine
//! ([`RtosState::elect`], [`RtosState::pick_victim`]), over the one core
//! approach A supports (`Processor::new` rejects more).

use rtsim_kernel::{Event, Notifier, SegStep, SimDuration, SimTime, Simulator, WaitRequest};
use rtsim_trace::{OverheadKind, TaskState, TraceLog};

use crate::engine::{CoreSlot, Rtos, RtosState};
use crate::task::TaskId;

/// A message from a task (or hardware function) to the RTOS coroutine.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Request {
    /// `TaskIsReady`: the task left the Waiting state.
    Ready(TaskId),
    /// `TaskIsBlocked` / `TaskIsPreempted` / destruction: the running task
    /// gives the CPU up, entering `next_state`.
    GiveUp {
        me: TaskId,
        next_state: TaskState,
        requeue: bool,
    },
}

/// Posts `request` to the RTOS coroutine and wakes it.
pub(crate) fn post(st: &mut RtosState, n: &mut Notifier<'_>, request: Request) {
    st.requests.push_back(request);
    n.notify(
        st.rtk_run
            .expect("dedicated-thread engine without its RTKRun event"),
    );
}

/// Creates the `RTKRun` event and spawns the RTOS coroutine of processor
/// `name`; returns the event, which the caller stores in the processor's
/// state.
pub(crate) fn spawn_rtos(sim: &mut Simulator, rtos: Rtos, name: &str) -> Event {
    let rtk_run = sim.event(&format!("{name}.RTKRun"));
    let mut phase = RtosPhase::Boot;
    sim.spawn_segment(&format!("{name}.rtos"), move |ctx| {
        let (world, mut n) = ctx.split();
        let (st, log) = rtos.borrow(world);
        loop {
            match phase {
                RtosPhase::Boot => {
                    // Let all t=0 activations register before the first
                    // election.
                    phase = RtosPhase::Main;
                    return SegStep::Yield(WaitRequest::time(SimDuration::ZERO));
                }
                RtosPhase::Main => match st.requests.pop_front() {
                    Some(Request::Ready(t)) => apply_ready(st, log, &mut n, t),
                    Some(Request::GiveUp {
                        me,
                        next_state,
                        requeue,
                    }) => {
                        // The core is free at once: only this coroutine
                        // elects, after the save and scheduling waits.
                        let save =
                            st.give_up(log, n.now(), me, next_state, requeue, CoreSlot::Idle);
                        phase = RtosPhase::AfterSave { me };
                        return SegStep::Yield(WaitRequest::time(save));
                    }
                    None => {
                        if st.core_slots.contains(&CoreSlot::Idle) && !st.ready.is_empty() {
                            // Idle with work queued: the scheduling
                            // duration is back-attributed to the elected
                            // task once known (see `load_context`).
                            let start = n.now();
                            let sched = st.overheads.scheduling.eval(&st.rtos_view(start));
                            phase = RtosPhase::AfterSched {
                                attr: Some((start, sched)),
                            };
                            return SegStep::Yield(WaitRequest::time(sched));
                        }
                        return SegStep::Yield(WaitRequest::event(rtk_run));
                    }
                },
                RtosPhase::AfterSave { me } => {
                    let sched = st.scheduler_pass(log, n.now(), me);
                    phase = RtosPhase::AfterSched { attr: None };
                    return SegStep::Yield(WaitRequest::time(sched));
                }
                RtosPhase::AfterSched { attr } => {
                    drain_ready_requests(st, log, &mut n);
                    match st.elect(n.now()) {
                        Some(next) => {
                            let load = load_context(st, log, n.now(), next, attr);
                            phase = RtosPhase::AfterLoad { next };
                            return SegStep::Yield(WaitRequest::time(load));
                        }
                        None => {
                            // A policy may leave the core idle with tasks
                            // ready: elect again only after the next
                            // request, as the procedure-call engine does.
                            phase = RtosPhase::Main;
                            if st.requests.is_empty() {
                                return SegStep::Yield(WaitRequest::event(rtk_run));
                            }
                        }
                    }
                }
                RtosPhase::AfterLoad { next } => {
                    // Every overhead was consumed on this coroutine.
                    n.notify(st.grant(next, [None; 3]));
                    phase = RtosPhase::Main;
                }
            }
        }
    });
    rtk_run
}

/// Resume point of the RTOS coroutine's step machine.
#[derive(Debug, Clone, Copy)]
enum RtosPhase {
    /// Not yet yielded the t=0 settling wait.
    Boot,
    /// Top of the request loop.
    Main,
    /// Context-save wait of a give-up elapsed.
    AfterSave { me: TaskId },
    /// Scheduling wait elapsed; `attr` carries the idle-dispatch
    /// back-attribution of the already-consumed scheduling segment.
    AfterSched {
        attr: Option<(SimTime, SimDuration)>,
    },
    /// Context-load wait elapsed; grant the CPU.
    AfterLoad { next: TaskId },
}

/// Applies a `TaskIsReady` notification (no simulated time passes).
fn apply_ready(st: &mut RtosState, log: &mut TraceLog, n: &mut Notifier<'_>, target: TaskId) {
    let now = n.now();
    match st.entry(target).state {
        TaskState::Ready | TaskState::Running | TaskState::Terminated => return,
        _ => {}
    }
    st.enqueue_ready(log, target, now, true);
    if let Some(ev) = st.pick_victim(target, now) {
        n.notify(ev);
    }
}

/// Applies every queued `Ready` request without consuming time, so the
/// imminent election sees the same ready queue the procedure-call engine
/// would (arrivals during the overhead window are visible to the pending
/// scheduler pass in both strategies).
fn drain_ready_requests(st: &mut RtosState, log: &mut TraceLog, n: &mut Notifier<'_>) {
    while let Some(&Request::Ready(t)) = st.requests.front() {
        st.requests.pop_front();
        apply_ready(st, log, n, t);
    }
}

/// Records the overhead segments of elected task `next`: `sched_attr`
/// back-attributes an already consumed scheduling segment to it, then
/// the context load is recorded and returned, to be consumed on the RTOS
/// timeline before granting.
fn load_context(
    st: &RtosState,
    log: &mut TraceLog,
    now: SimTime,
    next: TaskId,
    sched_attr: Option<(SimTime, SimDuration)>,
) -> SimDuration {
    if let Some((at, d)) = sched_attr {
        st.record_overhead(log, next, at, OverheadKind::Scheduling, d);
    }
    let load = st.overheads.context_load.eval(&st.rtos_view(now));
    st.record_overhead(log, next, now, OverheadKind::ContextLoad, load);
    load
}
