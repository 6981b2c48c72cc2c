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
//! the `ab_speed` benchmark.
//!
//! Requests are carried in a queue in the processor's RTOS state rather
//! than in the event itself, so notifications that land while the RTOS
//! coroutine is busy consuming overhead time are never lost.
//!
//! The coroutine is a step machine ([`RtosPhase`]) spawned through
//! [`Simulator::spawn_segment`], so the execution mode decides only
//! whether it runs on its own thread or inline in the scheduler loop.

use rtsim_kernel::{Event, Notifier, SegStep, SimDuration, SimTime, Simulator, WaitRequest};
use rtsim_trace::{OverheadKind, TaskState, TraceLog};

use crate::engine::{Rtos, RtosState};
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
                    phase = RtosPhase::Start;
                    return SegStep::Yield(WaitRequest::time(SimDuration::ZERO));
                }
                RtosPhase::Start => {
                    st.started = true;
                    phase = RtosPhase::Main;
                }
                RtosPhase::Main => match st.requests.pop_front() {
                    Some(Request::Ready(t)) => apply_ready(st, log, &mut n, t),
                    Some(Request::GiveUp {
                        me,
                        next_state,
                        requeue,
                    }) => {
                        let save = give_up_begin(st, log, n.now(), me, next_state, requeue);
                        phase = RtosPhase::AfterSave { me };
                        return SegStep::Yield(WaitRequest::time(save));
                    }
                    None => {
                        if st.started && st.running.is_none() && !st.ready.is_empty() {
                            // Idle with work queued: the scheduling
                            // duration is back-attributed to the elected
                            // task once known (see `elect`).
                            let start = n.now();
                            let sched = st.overheads.scheduling.eval(&st.rtos_view(start));
                            phase = RtosPhase::AfterSched {
                                attr: Some((start, sched)),
                            };
                            return SegStep::Yield(WaitRequest::time(sched));
                        }
                        return SegStep::Yield(WaitRequest::event(rtk_run));
                    }
                }
                RtosPhase::AfterSave { me } => {
                    let sched = give_up_sched(st, log, n.now(), me);
                    phase = RtosPhase::AfterSched { attr: None };
                    return SegStep::Yield(WaitRequest::time(sched));
                }
                RtosPhase::AfterSched { attr } => {
                    drain_ready_requests(st, log, &mut n);
                    match elect(st, log, n.now(), attr) {
                        Some((next, load)) => {
                            phase = RtosPhase::AfterLoad { next };
                            return SegStep::Yield(WaitRequest::time(load));
                        }
                        None => phase = RtosPhase::Main,
                    }
                }
                RtosPhase::AfterLoad { next } => {
                    n.notify(st.grant(next, None, None));
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
    /// The settling wait elapsed; mark the RTOS started.
    Start,
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
    if let Some(running) = st.running {
        if st.preemption_check(target, now) {
            st.entry_mut(running).preempt_pending = true;
            st.stats.preemptions += 1;
            n.notify(st.entry(running).preempt_event);
        }
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

/// First half of a give-up: leave Running, record + return the
/// context-save duration (Figure 3, on the RTOS timeline).
fn give_up_begin(
    st: &mut RtosState,
    log: &mut TraceLog,
    now: SimTime,
    me: TaskId,
    next_state: TaskState,
    requeue: bool,
) -> SimDuration {
    debug_assert_eq!(st.running, Some(me), "give-up from a non-running task");
    st.stats.scheduler_runs += 1;
    st.running = None;
    if requeue {
        st.enqueue_ready(log, me, now, false);
    } else {
        st.set_task_state(log, me, now, next_state);
    }
    let view = st.rtos_view(now);
    let save = st.overheads.context_save.eval(&view);
    st.record_overhead(log, me, now, OverheadKind::ContextSave, save);
    save
}

/// Second half of a give-up: record + return the scheduling duration.
fn give_up_sched(st: &RtosState, log: &mut TraceLog, now: SimTime, me: TaskId) -> SimDuration {
    let view = st.rtos_view(now);
    let sched = st.overheads.scheduling.eval(&view);
    st.record_overhead(log, me, now, OverheadKind::Scheduling, sched);
    sched
}

/// Elects the next task and records its overhead segments. `sched_attr`
/// back-attributes an already consumed scheduling segment to the elected
/// task. Returns the winner and the context-load duration to consume on
/// the RTOS timeline before granting.
fn elect(
    st: &mut RtosState,
    log: &mut TraceLog,
    now: SimTime,
    sched_attr: Option<(SimTime, SimDuration)>,
) -> Option<(TaskId, SimDuration)> {
    let next = st.pick_next(now)?;
    if let Some((at, d)) = sched_attr {
        st.record_overhead(log, next, at, OverheadKind::Scheduling, d);
    }
    let view = st.rtos_view(now);
    let load = st.overheads.context_load.eval(&view);
    st.record_overhead(log, next, now, OverheadKind::ContextLoad, load);
    Some((next, load))
}
