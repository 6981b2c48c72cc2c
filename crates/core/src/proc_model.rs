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
//! ([`Engine::relinquish_step`]): each phase mutates state and reports
//! the wait to perform, and the caller (the relinquish frame of
//! [`crate::seg`]) sleeps it.

use std::sync::Arc;

use rtsim_kernel::sync::Mutex;
use rtsim_kernel::{KernelHandle, SegStep, SimDuration, Simulator, WaitRequest};
use rtsim_trace::{OverheadKind, TaskState};

use crate::engine::{CoreSlot, Engine, EngineKind, RelStep, RtosState};
use crate::task::TaskId;

/// The procedure-call engine.
pub(crate) struct ProcEngine {
    shared: Arc<Mutex<RtosState>>,
}

/// The initial dispatcher's one shot: after the t=0 registrations settle,
/// elect the first running task.
///
/// Here and below, run events are notified under the state lock, where
/// they are decided: [`KernelHandle::notify`] only buffers the op for the
/// caller's yield and never re-enters the engine.
fn dispatcher_fire(shared: &Mutex<RtosState>, h: &mut dyn KernelHandle) {
    let mut st = shared.lock();
    st.started = true;
    if st.cores > 1 {
        st.smp_fill_idle(h, true);
    } else if st.running.is_none() {
        let now = h.now();
        // Evaluate the scheduling duration against the full ready queue,
        // before the election removes the winner (paper §3.2: the
        // duration depends on the number of ready tasks *when the
        // algorithm runs*).
        let view = st.rtos_view(now);
        let sched = st.overheads.scheduling.eval(&view);
        if let Some(next) = st.pick_next(now) {
            let view = st.rtos_view(now);
            let load = st.overheads.context_load.eval(&view);
            h.notify(st.grant(next, Some(sched), Some(load)));
        }
    }
}

impl ProcEngine {
    /// Creates the engine and spawns its one helper process: the initial
    /// dispatcher, which waits for all t=0 registrations to settle (one
    /// zero-time step) and then elects the first running task.
    pub fn new(sim: &mut Simulator, shared: Arc<Mutex<RtosState>>) -> Arc<Self> {
        let engine = Arc::new(ProcEngine {
            shared: Arc::clone(&shared),
        });
        let name = shared.lock().name.clone();
        let mut fired = false;
        sim.spawn_segment(&format!("{name}.dispatcher"), move |ctx| {
            if !fired {
                fired = true;
                return SegStep::Yield(WaitRequest::time(SimDuration::ZERO));
            }
            dispatcher_fire(&shared, ctx);
            SegStep::Done
        });
        engine
    }
}

impl Engine for ProcEngine {
    fn shared(&self) -> &Arc<Mutex<RtosState>> {
        &self.shared
    }

    fn kind(&self) -> EngineKind {
        EngineKind::ProcedureCall
    }

    fn relinquish_step(
        &self,
        h: &mut dyn KernelHandle,
        me: TaskId,
        next_state: TaskState,
        requeue: bool,
        phase: u8,
    ) -> RelStep {
        match phase {
            // Phase 0: leave the Running state, pay the context save. On
            // SMP the task vacates its core slot, which stays `Electing`
            // (unelectable) until this relinquish's phase 2 frees it;
            // other cores keep running and dispatching throughout.
            0 => {
                let mut st = self.shared.lock();
                let now = h.now();
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
                    st.enqueue_ready(me, now, false);
                } else {
                    st.set_task_state(me, now, next_state);
                }
                let view = st.rtos_view(now);
                let save = st.overheads.context_save.eval(&view);
                st.record_overhead(me, now, OverheadKind::ContextSave, save);
                RelStep::Wait(save)
            }
            // Phase 1: run the scheduling algorithm. Its duration is
            // evaluated *now*, against the ready queue the algorithm
            // actually sees (paper §3.2: the duration "depends ... on the
            // number of ready tasks when the algorithm runs").
            1 => {
                let mut st = self.shared.lock();
                let now = h.now();
                let view = st.rtos_view(now);
                let sched = st.overheads.scheduling.eval(&view);
                st.record_overhead(me, now, OverheadKind::Scheduling, sched);
                RelStep::Wait(sched)
            }
            // Phase 2: elect the successor; it pays its own context load
            // when it wakes (Figure 5). On SMP the relinquisher's core is
            // freed and every fillable idle core is dispatched; the
            // successors skip the scheduling charge because this task
            // already paid for the scheduler pass in phase 1.
            _ => {
                let mut st = self.shared.lock();
                if st.cores > 1 {
                    let core = st
                        .entry(me)
                        .last_core
                        .expect("phase 0 recorded the vacated core");
                    debug_assert_eq!(st.core_slots[core], CoreSlot::Electing);
                    st.core_slots[core] = CoreSlot::Idle;
                    st.smp_fill_idle(h, false);
                } else {
                    let now = h.now();
                    st.in_overhead = false;
                    if let Some(next) = st.pick_next(now) {
                        let view = st.rtos_view(now);
                        let load = st.overheads.context_load.eval(&view);
                        h.notify(st.grant(next, None, Some(load)));
                    }
                }
                RelStep::Done
            }
        }
    }

    fn make_ready(&self, h: &mut dyn KernelHandle, target: TaskId) {
        let mut st = self.shared.lock();
        let now = h.now();
        match st.entry(target).state {
            TaskState::Ready | TaskState::Running => return, // already awake
            TaskState::Terminated => return,                 // nothing to wake
            _ => {}
        }
        st.enqueue_ready(target, now, true);
        if !st.started {
            // The initial dispatcher will see this arrival.
        } else if st.cores > 1 {
            // Fill any idle core first (the arrival may slot in without
            // disturbing anyone); if the target is still queued, look for
            // a busy core whose occupant it should preempt.
            st.smp_fill_idle(h, true);
            if st.ready.contains(&target) {
                if let Some(ev) = st.smp_pick_victim(target, now) {
                    h.notify(ev);
                }
            }
        } else if st.in_overhead {
            // The pending scheduler pass will see this arrival.
        } else if let Some(running) = st.running {
            if st.preemption_check(target, now) {
                st.entry_mut(running).preempt_pending = true;
                st.stats.preemptions += 1;
                h.notify(st.entry(running).preempt_event);
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
            h.notify(st.grant(next, Some(sched), Some(load)));
        }
    }
}
