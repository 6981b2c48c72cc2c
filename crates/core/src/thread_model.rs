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
//! Requests are carried in a shared queue rather than in the event itself,
//! so notifications that land while the RTOS coroutine is busy consuming
//! overhead time are never lost.
//!
//! The coroutine is a step machine ([`RtosPhase`]) spawned through
//! [`Simulator::spawn_segment`], so the execution mode decides only
//! whether it runs on its own thread or inline in the scheduler loop.

use std::collections::VecDeque;
use std::sync::Arc;

use rtsim_kernel::sync::Mutex;
use rtsim_kernel::{Event, KernelHandle, SegStep, SimDuration, SimTime, Simulator, WaitRequest};
use rtsim_trace::{OverheadKind, TaskState};

use crate::engine::{Engine, EngineKind, RelStep, RtosState};
use crate::task::TaskId;

/// A message from a task (or hardware function) to the RTOS coroutine.
#[derive(Debug, Clone, Copy)]
enum Request {
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

/// The dedicated-thread engine.
pub(crate) struct ThreadEngine {
    shared: Arc<Mutex<RtosState>>,
    requests: Arc<Mutex<VecDeque<Request>>>,
    rtk_run: Event,
}

impl ThreadEngine {
    /// Creates the engine and spawns the RTOS coroutine.
    pub fn new(sim: &mut Simulator, shared: Arc<Mutex<RtosState>>) -> Arc<Self> {
        let name = shared.lock().name.clone();
        let rtk_run = sim.event(&format!("{name}.RTKRun"));
        let engine = Arc::new(ThreadEngine {
            shared: Arc::clone(&shared),
            requests: Arc::new(Mutex::new(VecDeque::new())),
            rtk_run,
        });
        let requests = Arc::clone(&engine.requests);
        let mut phase = RtosPhase::Boot;
        sim.spawn_segment(&format!("{name}.rtos"), move |ctx| loop {
            match phase {
                RtosPhase::Boot => {
                    // Let all t=0 activations register before the first
                    // election.
                    phase = RtosPhase::Start;
                    return SegStep::Yield(WaitRequest::time(SimDuration::ZERO));
                }
                RtosPhase::Start => {
                    shared.lock().started = true;
                    phase = RtosPhase::Main;
                }
                RtosPhase::Main => {
                    let req = requests.lock().pop_front();
                    match req {
                        Some(Request::Ready(t)) => apply_ready(&shared, ctx, t),
                        Some(Request::GiveUp {
                            me,
                            next_state,
                            requeue,
                        }) => {
                            let save = give_up_begin(&shared, ctx.now(), me, next_state, requeue);
                            phase = RtosPhase::AfterSave { me };
                            return SegStep::Yield(WaitRequest::time(save));
                        }
                        None => {
                            if needs_dispatch(&shared) {
                                let start = ctx.now();
                                let sched = idle_sched_eval(&shared, start);
                                phase = RtosPhase::AfterSched {
                                    attr: Some((start, sched)),
                                };
                                return SegStep::Yield(WaitRequest::time(sched));
                            }
                            return SegStep::Yield(WaitRequest::event(rtk_run));
                        }
                    }
                }
                RtosPhase::AfterSave { me } => {
                    let sched = give_up_sched(&shared, ctx.now(), me);
                    phase = RtosPhase::AfterSched { attr: None };
                    return SegStep::Yield(WaitRequest::time(sched));
                }
                RtosPhase::AfterSched { attr } => {
                    drain_ready_requests(&shared, &requests, ctx);
                    match elect(&shared, ctx.now(), attr) {
                        Some((next, load)) => {
                            phase = RtosPhase::AfterLoad { next };
                            return SegStep::Yield(WaitRequest::time(load));
                        }
                        None => phase = RtosPhase::Main,
                    }
                }
                RtosPhase::AfterLoad { next } => {
                    grant_and_notify(&shared, ctx, next);
                    phase = RtosPhase::Main;
                }
            }
        });
        engine
    }

    fn post(&self, h: &mut dyn KernelHandle, request: Request) {
        self.requests.lock().push_back(request);
        h.notify(self.rtk_run);
    }
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
fn apply_ready(shared: &Mutex<RtosState>, h: &mut dyn KernelHandle, target: TaskId) {
    let notify = {
        let mut st = shared.lock();
        let now = h.now();
        match st.entry(target).state {
            TaskState::Ready | TaskState::Running | TaskState::Terminated => return,
            _ => {}
        }
        st.enqueue_ready(target, now, true);
        if st.running.is_some() && st.preemption_check(target, now) {
            let running = st.running.expect("checked running");
            st.entry_mut(running).preempt_pending = true;
            st.stats.preemptions += 1;
            Some(st.entry(running).preempt_event)
        } else {
            None
        }
    };
    if let Some(ev) = notify {
        h.notify(ev);
    }
}

/// Applies every queued `Ready` request without consuming time, so the
/// imminent election sees the same ready queue the procedure-call engine
/// would (arrivals during the overhead window are visible to the pending
/// scheduler pass in both strategies).
fn drain_ready_requests(
    shared: &Mutex<RtosState>,
    requests: &Mutex<VecDeque<Request>>,
    h: &mut dyn KernelHandle,
) {
    loop {
        let next = {
            let mut q = requests.lock();
            match q.front() {
                Some(Request::Ready(_)) => q.pop_front(),
                _ => None,
            }
        };
        match next {
            Some(Request::Ready(t)) => apply_ready(shared, h, t),
            _ => return,
        }
    }
}

/// First half of a give-up: leave Running, record + return the
/// context-save duration (Figure 3, on the RTOS timeline).
fn give_up_begin(
    shared: &Mutex<RtosState>,
    now: SimTime,
    me: TaskId,
    next_state: TaskState,
    requeue: bool,
) -> SimDuration {
    let mut st = shared.lock();
    debug_assert_eq!(st.running, Some(me), "give-up from a non-running task");
    st.stats.scheduler_runs += 1;
    st.running = None;
    if requeue {
        st.enqueue_ready(me, now, false);
    } else {
        st.set_task_state(me, now, next_state);
    }
    let view = st.rtos_view(now);
    let save = st.overheads.context_save.eval(&view);
    st.record_overhead(me, now, OverheadKind::ContextSave, save);
    save
}

/// Second half of a give-up: record + return the scheduling duration.
fn give_up_sched(shared: &Mutex<RtosState>, now: SimTime, me: TaskId) -> SimDuration {
    let mut st = shared.lock();
    let view = st.rtos_view(now);
    let sched = st.overheads.scheduling.eval(&view);
    st.record_overhead(me, now, OverheadKind::Scheduling, sched);
    sched
}

/// True when the processor is idle with work queued.
fn needs_dispatch(shared: &Mutex<RtosState>) -> bool {
    let st = shared.lock();
    st.started && st.running.is_none() && !st.ready.is_empty()
}

/// Scheduling duration for an idle dispatch. Not recorded yet — it is
/// back-attributed to the elected task once known (see [`elect`]).
fn idle_sched_eval(shared: &Mutex<RtosState>, start: SimTime) -> SimDuration {
    let st = shared.lock();
    let view = st.rtos_view(start);
    st.overheads.scheduling.eval(&view)
}

/// Elects the next task and records its overhead segments. `sched_attr`
/// back-attributes an already consumed scheduling segment to the elected
/// task. Returns the winner and the context-load duration to consume on
/// the RTOS timeline before granting.
fn elect(
    shared: &Mutex<RtosState>,
    now: SimTime,
    sched_attr: Option<(SimTime, SimDuration)>,
) -> Option<(TaskId, SimDuration)> {
    let mut st = shared.lock();
    st.pick_next(now).map(|next| {
        if let Some((at, d)) = sched_attr {
            st.record_overhead(next, at, OverheadKind::Scheduling, d);
        }
        let view = st.rtos_view(now);
        let load = st.overheads.context_load.eval(&view);
        st.record_overhead(next, now, OverheadKind::ContextLoad, load);
        (next, load)
    })
}

/// Grants the CPU to `next` and notifies its run event.
fn grant_and_notify(shared: &Mutex<RtosState>, h: &mut dyn KernelHandle, next: TaskId) {
    let ev = shared.lock().grant(next, None, None);
    h.notify(ev);
}

impl Engine for ThreadEngine {
    fn shared(&self) -> &Arc<Mutex<RtosState>> {
        &self.shared
    }

    fn kind(&self) -> EngineKind {
        EngineKind::DedicatedThread
    }

    fn relinquish_step(
        &self,
        h: &mut dyn KernelHandle,
        me: TaskId,
        next_state: TaskState,
        requeue: bool,
        _phase: u8,
    ) -> RelStep {
        // Approach A gives up by messaging the RTOS coroutine; the caller
        // has nothing to wait for here (it blocks in `acquire` instead).
        self.post(
            h,
            Request::GiveUp {
                me,
                next_state,
                requeue,
            },
        );
        RelStep::Done
    }

    fn make_ready(&self, h: &mut dyn KernelHandle, target: TaskId) {
        self.post(h, Request::Ready(target));
    }
}
