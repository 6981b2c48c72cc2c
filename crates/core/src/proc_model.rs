//! Approach B (paper §4.2): the RTOS as a set of procedure calls.
//!
//! No dedicated RTOS coroutine exists. The RTOS is a passive object whose
//! primitives — the paper's `TaskIsReady()`, `TaskIsBlocked()`,
//! `TaskIsPreempted()` — execute on the coroutine of the task that calls
//! them, "close to the real implementation of a RTOS which is based on a
//! set of procedures (primitives)". Per Figure 5:
//!
//! - the coroutine of the task *giving up* the CPU consumes the
//!   context-save and scheduling durations, then notifies the elected
//!   task's `TaskRun` event;
//! - the coroutine of the *awakened* task consumes the context-load
//!   duration (plus the scheduling duration on an idle dispatch, where no
//!   other coroutine is available to pay for it).
//!
//! The only coroutine switches are between application tasks — the source
//! of this model's simulation-speed advantage over approach A.
//!
//! The relinquish protocol is written as phase functions
//! ([`relinquish_step`]): each phase mutates state and reports the wait
//! to perform, and the caller (the relinquish frame of [`crate::seg`])
//! sleeps it.

use rtsim_kernel::{Notifier, SegStep, SimDuration, Simulator, WaitRequest};
use rtsim_trace::{OverheadKind, TaskState, TraceLog};

use crate::engine::{CoreSlot, RelStep, Rtos, RtosState};
use crate::task::TaskId;

/// The initial dispatcher's one shot: after the t=0 registrations settle,
/// elect the first running task.
///
/// Here and below, run events are notified where they are decided:
/// [`Notifier::notify`] only buffers the op for the caller's yield and
/// never re-enters the engine.
fn dispatcher_fire(st: &mut RtosState, n: &mut Notifier<'_>) {
    st.started = true;
    if st.cores > 1 {
        st.smp_fill_idle(n, true);
    } else if st.running.is_none() {
        let now = n.now();
        // Evaluate the scheduling duration against the full ready queue,
        // before the election removes the winner (paper §3.2: the
        // duration depends on the number of ready tasks *when the
        // algorithm runs*).
        let view = st.rtos_view(now);
        let sched = st.overheads.scheduling.eval(&view);
        if let Some(next) = st.pick_next(now) {
            let view = st.rtos_view(now);
            let load = st.overheads.context_load.eval(&view);
            n.notify(st.grant(next, Some(sched), Some(load)));
        }
    }
}

/// Spawns the engine's one helper process: the initial dispatcher, which
/// waits for all t=0 registrations to settle (one zero-time step) and
/// then elects the first running task.
pub(crate) fn spawn_dispatcher(sim: &mut Simulator, rtos: Rtos, name: &str) {
    let mut fired = false;
    sim.spawn_segment(&format!("{name}.dispatcher"), move |ctx| {
        if !fired {
            fired = true;
            return SegStep::Yield(WaitRequest::time(SimDuration::ZERO));
        }
        let (world, mut n) = ctx.split();
        dispatcher_fire(world.get_mut(rtos.state), &mut n);
        SegStep::Done
    });
}

/// Phase `phase` of the procedure-call relinquish protocol (see
/// [`crate::engine::relinquish_step`]).
pub(crate) fn relinquish_step(
    st: &mut RtosState,
    log: &mut TraceLog,
    n: &mut Notifier<'_>,
    me: TaskId,
    next_state: TaskState,
    requeue: bool,
    phase: u8,
) -> RelStep {
    let now = n.now();
    match phase {
        // Phase 0: leave the Running state, pay the context save. On
        // SMP the task vacates its core slot, which stays `Electing`
        // (unelectable) until this relinquish's phase 2 frees it;
        // other cores keep running and dispatching throughout.
        0 => {
            st.stats.scheduler_runs += 1;
            if st.cores > 1 {
                let core = st
                    .entry(me)
                    .core
                    .expect("relinquish by a task that holds no core");
                debug_assert_eq!(st.core_slots[core], CoreSlot::Busy(me));
                st.core_slots[core] = CoreSlot::Electing;
                let entry = st.entry_mut(me);
                entry.core = None;
                entry.last_core = Some(core);
            } else {
                debug_assert_eq!(st.running, Some(me), "relinquish by a non-running task");
                st.in_overhead = true;
                st.running = None;
            }
            if requeue {
                st.enqueue_ready(log, me, now, false);
            } else {
                st.set_task_state(log, me, now, next_state);
            }
            let view = st.rtos_view(now);
            let save = st.overheads.context_save.eval(&view);
            st.record_overhead(log, me, now, OverheadKind::ContextSave, save);
            RelStep::Wait(save)
        }
        // Phase 1: run the scheduling algorithm. Its duration is
        // evaluated *now*, against the ready queue the algorithm
        // actually sees (paper §3.2: the duration "depends ... on the
        // number of ready tasks when the algorithm runs").
        1 => {
            let view = st.rtos_view(now);
            let sched = st.overheads.scheduling.eval(&view);
            st.record_overhead(log, me, now, OverheadKind::Scheduling, sched);
            RelStep::Wait(sched)
        }
        // Phase 2: elect the successor; it pays its own context load
        // when it wakes (Figure 5). On SMP the relinquisher's core is
        // freed and every fillable idle core is dispatched; the
        // successors skip the scheduling charge because this task
        // already paid for the scheduler pass in phase 1.
        _ => {
            if st.cores > 1 {
                let core = st
                    .entry(me)
                    .last_core
                    .expect("phase 0 recorded the vacated core");
                debug_assert_eq!(st.core_slots[core], CoreSlot::Electing);
                st.core_slots[core] = CoreSlot::Idle;
                st.smp_fill_idle(n, false);
            } else {
                st.in_overhead = false;
                if let Some(next) = st.pick_next(now) {
                    let view = st.rtos_view(now);
                    let load = st.overheads.context_load.eval(&view);
                    n.notify(st.grant(next, None, Some(load)));
                }
            }
            RelStep::Done
        }
    }
}

/// The procedure-call `TaskIsReady` (see [`crate::engine::make_ready`]).
pub(crate) fn make_ready(
    st: &mut RtosState,
    log: &mut TraceLog,
    n: &mut Notifier<'_>,
    target: TaskId,
) {
    let now = n.now();
    match st.entry(target).state {
        TaskState::Ready | TaskState::Running => return, // already awake
        TaskState::Terminated => return,                 // nothing to wake
        _ => {}
    }
    st.enqueue_ready(log, target, now, true);
    if !st.started {
        // The initial dispatcher will see this arrival.
    } else if st.cores > 1 {
        // Fill any idle core first (the arrival may slot in without
        // disturbing anyone); if the target is still queued, look for
        // a busy core whose occupant it should preempt.
        st.smp_fill_idle(n, true);
        if st.ready.contains(&target) {
            if let Some(ev) = st.smp_pick_victim(target, now) {
                n.notify(ev);
            }
        }
    } else if st.in_overhead {
        // The pending scheduler pass will see this arrival.
    } else if let Some(running) = st.running {
        if st.preemption_check(target, now) {
            st.entry_mut(running).preempt_pending = true;
            st.stats.preemptions += 1;
            n.notify(st.entry(running).preempt_event);
        }
    } else {
        // Idle processor: dispatch directly. The awakened task's
        // coroutine consumes both the scheduling and the context-load
        // durations. The scheduling duration sees the full ready
        // queue, pre-election.
        let view = st.rtos_view(now);
        let sched = st.overheads.scheduling.eval(&view);
        let next = st.pick_next(now).expect("ready queue is non-empty");
        let view = st.rtos_view(now);
        let load = st.overheads.context_load.eval(&view);
        n.notify(st.grant(next, Some(sched), Some(load)));
    }
}
