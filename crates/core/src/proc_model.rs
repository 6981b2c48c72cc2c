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
//!   other coroutine is available to pay for it, and the migration
//!   duration when it lands on another core than it last ran on).
//!
//! The only coroutine switches are between application tasks — the source
//! of this model's simulation-speed advantage over approach A.
//!
//! Every decision takes the same path for any core count: the initial
//! dispatcher, the end of a relinquish and `TaskIsReady` fill idle cores
//! through [`RtosState::fill_idle`], and an arrival that finds none looks
//! for a victim through [`RtosState::pick_victim`].
//!
//! The relinquish protocol is written as phase functions
//! ([`relinquish_step`]): each phase mutates state and reports the wait
//! to perform, and the caller (the relinquish frame of [`crate::seg`])
//! sleeps it.

use rtsim_kernel::{Notifier, SegStep, SimDuration, Simulator, WaitRequest};
use rtsim_trace::{TaskState, TraceLog};

use crate::engine::{CoreSlot, RelStep, Rtos, RtosState};
use crate::task::TaskId;

/// Spawns the engine's one helper process: the initial dispatcher, which
/// waits for all t=0 registrations to settle (one zero-time step) and
/// then fills the idle cores.
///
/// Here and below, run events are notified where they are decided:
/// [`Notifier::notify`] only buffers the op for the caller's yield and
/// never re-enters the engine.
pub(crate) fn spawn_dispatcher(sim: &mut Simulator, rtos: Rtos, name: &str) {
    let mut fired = false;
    sim.spawn_segment(&format!("{name}.dispatcher"), move |ctx| {
        if !fired {
            fired = true;
            return SegStep::Yield(WaitRequest::time(SimDuration::ZERO));
        }
        let (world, mut n) = ctx.split();
        let st = world.get_mut(rtos.state);
        st.started = true;
        st.fill_idle(&mut n, true);
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
        // Phase 0: leave the Running state, pay the context save. The
        // vacated core stays `Electing` (unelectable) until phase 2
        // frees it; other cores keep running and dispatching throughout.
        0 => RelStep::Wait(st.give_up(log, now, me, next_state, requeue, CoreSlot::Electing)),
        // Phase 1: run the scheduling algorithm.
        1 => RelStep::Wait(st.scheduler_pass(log, now, me)),
        // Phase 2: free the core and fill every idle core; each
        // successor pays its own context load when it wakes (Figure 5),
        // but not the scheduling duration, which this task already paid
        // for in phase 1.
        _ => {
            let core = st
                .entry(me)
                .last_core
                .expect("phase 0 recorded the vacated core");
            debug_assert_eq!(st.core_slots[core], CoreSlot::Electing);
            st.core_slots[core] = CoreSlot::Idle;
            st.fill_idle(n, false);
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
    // Before the initial dispatch, arrivals only queue for the
    // dispatcher. After it, fill any idle core first (the arrival may
    // slot in without disturbing anyone); if the target got no core,
    // look for a busy core whose occupant it should preempt. A core
    // mid-relinquish is neither: its pending scheduler pass sees the
    // arrival.
    if st.started {
        st.fill_idle(n, true);
        if st.entry(target).core.is_none() {
            if let Some(ev) = st.pick_victim(target, now) {
                n.notify(ev);
            }
        }
    }
}
