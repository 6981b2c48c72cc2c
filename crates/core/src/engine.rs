//! Shared RTOS engine machinery.
//!
//! Both implementation strategies of the paper's §4 — the dedicated RTOS
//! thread (approach A, [`crate::thread_model`]) and the procedure-call
//! model (approach B, [`crate::proc_model`]) — operate on the same
//! state defined here, one [`RtosState`] per processor, kept in the
//! simulation world. The task-side primitives (`execute`, `delay`,
//! `suspend`, ...) are the frames of [`crate::seg`], written once against
//! [`make_ready`] and [`relinquish_step`], the two operations where the
//! approaches differ: *who runs the scheduler and consumes the RTOS
//! overhead time*.
//!
//! Scheduling decisions have one implementation for every core count: a
//! processor is a set of cores (one by default), [`RtosState::elect`]
//! places the policy's choice on an idle core, and
//! [`RtosState::pick_victim`] finds the occupant a fresh arrival should
//! preempt. A one-core processor is simply the election with one core;
//! only [`RtosState::note_core`] and the migration charge can tell a
//! second core exists, so one-core traces carry no core records.

use std::collections::VecDeque;

use rtsim_kernel::world::{Slot, World};
use rtsim_kernel::{Event, Notifier, SimDuration, SimTime};
use rtsim_trace::{ActorId, OverheadKind, TaskState, TraceLog};

use crate::overhead::{Overheads, RtosView};
use crate::policy::{PolicyView, SchedulingPolicy, TaskView};
use crate::task::{Priority, TaskConfig, TaskId};
use crate::thread_model::Request;
use crate::{proc_model, thread_model};

/// Which of the paper's two RTOS model implementations a processor uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum EngineKind {
    /// §4.2 — the RTOS is a passive object whose primitives run on the
    /// calling task's coroutine. Fewer coroutine switches; the paper's
    /// production choice and our default.
    #[default]
    ProcedureCall,
    /// §4.1 — a dedicated RTOS coroutine woken by `RTKRun` performs all
    /// scheduling. More switches, slower simulation; kept for the paper's
    /// speed comparison.
    DedicatedThread,
}

impl std::fmt::Display for EngineKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EngineKind::ProcedureCall => f.write_str("procedure-call"),
            EngineKind::DedicatedThread => f.write_str("dedicated-thread"),
        }
    }
}

/// Cumulative scheduler statistics for one processor.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SchedulerStats {
    /// Tasks dispatched (transitions into Running).
    pub dispatches: u64,
    /// Preemptions initiated (a ready task evicting the running one).
    pub preemptions: u64,
    /// Scheduler invocations (relinquish operations processed).
    pub scheduler_runs: u64,
    /// Round-robin quantum expirations.
    pub quantum_expirations: u64,
    /// Jobs that completed after their absolute deadline (tasks declaring
    /// a relative deadline only). Each miss is also annotated in the
    /// trace as `deadline_miss`.
    pub deadline_misses: u64,
}

/// Kernel-facing bookkeeping for one task: the scheduling parameters of
/// its [`TaskConfig`] (the priority and the relative deadline may change
/// at run time) and its run state. Its name is its trace actor's.
#[derive(Clone)]
pub(crate) struct TaskEntry {
    pub priority: Priority,
    pub period: Option<SimDuration>,
    pub relative_deadline: Option<SimDuration>,
    pub affinity: u64,
    pub state: TaskState,
    pub run_event: Event,
    pub preempt_event: Event,
    /// The CPU has been granted; consumed by the acquire frame.
    pub run_granted: bool,
    /// A preemption was requested; consumed by the execute frame.
    pub preempt_pending: bool,
    /// The overheads this task consumes on its own coroutine when it
    /// wakes, in [`WAKE_ORDER`]. Only the procedure-call engine arms them
    /// (Figure 5): scheduling on an idle dispatch, where the awakened
    /// task pays for the scheduler run; migration when the task lands on
    /// another core than [`TaskEntry::last_core`]; context load always
    /// ("the thread of the task which was awaked" loads its context).
    pub wake: [Option<SimDuration>; 3],
    /// The core this task occupies while dispatched (`None` otherwise).
    pub core: Option<usize>,
    /// The core this task last ran on, for migration-cost accounting.
    pub last_core: Option<usize>,
    pub absolute_deadline: Option<SimTime>,
    pub enqueued_at: SimTime,
    pub enqueue_seq: u64,
    /// When the task last entered Running (for time-slice accounting).
    pub dispatched_at: SimTime,
    pub actor: ActorId,
}

impl TaskEntry {
    fn view(&self, id: TaskId) -> TaskView {
        TaskView {
            id,
            priority: self.priority,
            period: self.period,
            absolute_deadline: self.absolute_deadline,
            enqueued_at: self.enqueued_at,
            enqueue_seq: self.enqueue_seq,
        }
    }
}

/// The kinds of the [`TaskEntry::wake`] overheads, in the order the
/// acquire frame consumes them.
pub(crate) const WAKE_ORDER: [OverheadKind; 3] = [
    OverheadKind::Scheduling,
    OverheadKind::Migration,
    OverheadKind::ContextLoad,
];

/// Occupancy of one core of a processor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum CoreSlot {
    /// No task holds the core; the next election may fill it.
    Idle,
    /// The task is dispatched on (or acquiring) the core.
    Busy(TaskId),
    /// The previous occupant is mid-relinquish in the procedure-call
    /// engine (save/scheduling overhead window): the core is neither
    /// elected onto nor searched for a victim until the relinquish
    /// completes, so arrivals meanwhile are seen by its scheduler pass.
    Electing,
}

/// Where one processor's RTOS lives in the simulation world: its tables
/// and the trace log it records into. Two plain slot ids.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) struct Rtos {
    pub state: Slot<RtosState>,
    pub log: Slot<TraceLog>,
}

impl Rtos {
    /// The processor's tables and the trace log, borrowed together.
    #[inline]
    pub fn borrow(self, world: &mut World) -> (&mut RtosState, &mut TraceLog) {
        world.pair_mut(self.state, self.log)
    }
}

/// The mutable RTOS state shared by all tasks of one processor. Its name
/// is its [`Processor`](crate::Processor)'s.
pub(crate) struct RtosState {
    /// Which of the paper's two implementations runs this processor.
    pub kind: EngineKind,
    pub policy: Box<dyn SchedulingPolicy>,
    pub overheads: Overheads,
    /// `Some(q)`: preemption checked only at `q` boundaries (the clock-
    /// driven baseline the paper argues against); `None`: time-accurate.
    pub preemption_granularity: Option<SimDuration>,
    pub preemptive: bool,
    pub lock_depth: u32,
    /// Initial dispatch performed; before this, ready tasks only queue
    /// (procedure-call engine; approach A's coroutine queues them itself).
    pub started: bool,
    pub tasks: Vec<TaskEntry>,
    /// Ready queue in enqueue order: only [`RtosState::enqueue_ready`]
    /// appends (taking the next sequence number), and elections remove
    /// with the order-preserving `remove`, so policies see it through
    /// [`RtosState::fill_view`] without a sort.
    pub ready: Vec<TaskId>,
    /// The ready tasks as the policy sees them, refilled by each decision
    /// so that no decision allocates.
    ready_view: Vec<TaskView>,
    /// Number of cores, 1..=64.
    pub cores: usize,
    /// Per-core occupancy, `cores` entries.
    pub core_slots: Vec<CoreSlot>,
    pub enqueue_counter: u64,
    /// Approach A only: requests posted to the RTOS coroutine, which
    /// `rtk_run` wakes. A queue rather than the event alone, so requests
    /// landing while the coroutine consumes overhead time are kept.
    pub requests: VecDeque<Request>,
    pub rtk_run: Option<Event>,
    pub stats: SchedulerStats,
}

/// By hand, so that a fork into another simulation's world writes the
/// tables, and the policy when it is of the same type, into the ones it
/// has. The decision scratch `ready_view` is refilled before each use, so
/// it is never copied.
impl Clone for RtosState {
    fn clone(&self) -> Self {
        RtosState {
            kind: self.kind,
            policy: self.policy.clone(),
            overheads: self.overheads.clone(),
            preemption_granularity: self.preemption_granularity,
            preemptive: self.preemptive,
            lock_depth: self.lock_depth,
            started: self.started,
            tasks: self.tasks.clone(),
            ready: self.ready.clone(),
            ready_view: Vec::new(),
            cores: self.cores,
            core_slots: self.core_slots.clone(),
            enqueue_counter: self.enqueue_counter,
            requests: self.requests.clone(),
            rtk_run: self.rtk_run,
            stats: self.stats,
        }
    }

    fn clone_from(&mut self, source: &Self) {
        self.kind = source.kind;
        self.policy.clone_from(&source.policy);
        self.overheads.clone_from(&source.overheads);
        self.preemption_granularity = source.preemption_granularity;
        self.preemptive = source.preemptive;
        self.lock_depth = source.lock_depth;
        self.started = source.started;
        self.tasks.clone_from(&source.tasks);
        self.ready.clone_from(&source.ready);
        self.cores = source.cores;
        self.core_slots.clone_from(&source.core_slots);
        self.enqueue_counter = source.enqueue_counter;
        self.requests.clone_from(&source.requests);
        self.rtk_run = source.rtk_run;
        self.stats = source.stats;
    }
}

impl RtosState {
    pub fn new(
        kind: EngineKind,
        policy: Box<dyn SchedulingPolicy>,
        overheads: Overheads,
        preemption_granularity: Option<SimDuration>,
        preemptive: bool,
        cores: usize,
    ) -> Self {
        assert!(cores >= 1, "a processor needs at least one core");
        assert!(cores <= 64, "affinity masks cover at most 64 cores");
        RtosState {
            kind,
            policy,
            overheads,
            preemption_granularity,
            preemptive,
            lock_depth: 0,
            started: false,
            tasks: Vec::new(),
            ready: Vec::new(),
            ready_view: Vec::new(),
            cores,
            core_slots: vec![CoreSlot::Idle; cores],
            enqueue_counter: 0,
            requests: VecDeque::new(),
            rtk_run: None,
            stats: SchedulerStats::default(),
        }
    }

    /// Adds a task of `processor` (its name, for the panic message).
    pub fn add_task(
        &mut self,
        processor: &str,
        config: &TaskConfig,
        run_event: Event,
        preempt_event: Event,
        actor: ActorId,
    ) -> TaskId {
        let id = TaskId(u32::try_from(self.tasks.len()).expect("too many tasks"));
        let core_mask = u64::MAX >> (64 - self.cores);
        assert!(
            config.affinity & core_mask != 0,
            "task `{}` affinity {:#x} allows none of processor `{processor}`'s {} cores",
            config.name,
            config.affinity,
            self.cores,
        );
        self.tasks.push(TaskEntry {
            priority: config.priority,
            period: config.period,
            relative_deadline: config.relative_deadline,
            affinity: config.affinity,
            state: TaskState::Created,
            run_event,
            preempt_event,
            run_granted: false,
            preempt_pending: false,
            wake: [None; 3],
            core: None,
            last_core: None,
            absolute_deadline: None,
            enqueued_at: SimTime::ZERO,
            enqueue_seq: 0,
            dispatched_at: SimTime::ZERO,
            actor,
        });
        id
    }

    pub fn entry(&self, id: TaskId) -> &TaskEntry {
        &self.tasks[id.index()]
    }

    pub fn entry_mut(&mut self, id: TaskId) -> &mut TaskEntry {
        &mut self.tasks[id.index()]
    }

    pub fn rtos_view(&self, now: SimTime) -> RtosView {
        RtosView {
            ready_tasks: self.ready.len(),
            total_tasks: self.tasks.len(),
            now,
        }
    }

    /// Refills the reused [`RtosState::ready_view`] with the `eligible` ready
    /// tasks, in enqueue order — the ready queue's own order, so no sort.
    fn fill_view(&mut self, eligible: impl Fn(&TaskEntry) -> bool) {
        let tasks = &self.tasks;
        self.ready_view.clear();
        self.ready_view.extend(self.ready.iter().filter_map(|&id| {
            let entry = &tasks[id.index()];
            eligible(entry).then(|| entry.view(id))
        }));
        debug_assert!(
            self.ready_view
                .windows(2)
                .all(|w| w[0].enqueue_seq < w[1].enqueue_seq),
            "ready queue out of enqueue order"
        );
    }

    /// Records and applies a task state change. Completing a job (entering
    /// Waiting or Terminated) past the task's absolute deadline counts and
    /// annotates a deadline miss.
    pub fn set_task_state(
        &mut self,
        log: &mut TraceLog,
        id: TaskId,
        now: SimTime,
        state: TaskState,
    ) {
        let actor = self.entry(id).actor;
        self.entry_mut(id).state = state;
        log.state(actor, now, state);
        if matches!(state, TaskState::Waiting | TaskState::Terminated) {
            if let Some(deadline) = self.entry_mut(id).absolute_deadline.take() {
                if now > deadline {
                    self.stats.deadline_misses += 1;
                    log.annotate(actor, now, "deadline_miss");
                }
            }
        }
    }

    /// Marks `id` Ready and queues it. `refresh_deadline` recomputes the
    /// EDF absolute deadline (done on real activations, not on round-robin
    /// rotations).
    pub fn enqueue_ready(
        &mut self,
        log: &mut TraceLog,
        id: TaskId,
        now: SimTime,
        refresh_deadline: bool,
    ) {
        self.set_task_state(log, id, now, TaskState::Ready);
        let seq = self.enqueue_counter;
        self.enqueue_counter += 1;
        let entry = self.entry_mut(id);
        entry.enqueued_at = now;
        entry.enqueue_seq = seq;
        if refresh_deadline {
            if let Some(rd) = entry.relative_deadline {
                entry.absolute_deadline = Some(now + rd);
            }
        }
        self.ready.push(id);
    }

    /// The policy's time slice for running task `id`, minus what it
    /// already consumed since dispatch.
    pub fn remaining_slice(&mut self, id: TaskId, now: SimTime) -> Option<SimDuration> {
        self.fill_view(|_| true);
        let entry = self.entry(id);
        let task = entry.view(id);
        let view = PolicyView {
            now,
            ready: &self.ready_view,
            running: Some(&task),
        };
        let quantum = self.policy.time_slice(&view, &task)?;
        Some(quantum.saturating_sub(now - entry.dispatched_at))
    }

    /// Grants the CPU to `id`, whose acquire frame then consumes the
    /// wake-time overheads `wake` (see [`TaskEntry::wake`]); returns the
    /// run event to notify.
    pub fn grant(&mut self, id: TaskId, wake: [Option<SimDuration>; 3]) -> Event {
        let entry = self.entry_mut(id);
        entry.run_granted = true;
        entry.wake = wake;
        entry.run_event
    }

    /// Records an overhead segment attributed to `id`.
    pub fn record_overhead(
        &self,
        log: &mut TraceLog,
        id: TaskId,
        now: SimTime,
        kind: OverheadKind,
        duration: SimDuration,
    ) {
        log.overhead(self.entry(id).actor, now, kind, duration);
    }

    /// Whether `id`'s affinity mask admits `core`.
    pub fn affinity_allows(&self, id: TaskId, core: usize) -> bool {
        self.entry(id).affinity & (1u64 << core) != 0
    }

    /// Whether `id` currently holds a core.
    pub fn is_running(&self, id: TaskId) -> bool {
        self.entry(id)
            .core
            .is_some_and(|c| self.core_slots[c] == CoreSlot::Busy(id))
    }

    /// Records which core `id` was dispatched on. Only a processor with
    /// more than one core records it, which keeps one-core traces free of
    /// core records.
    pub fn note_core(&self, log: &mut TraceLog, id: TaskId, now: SimTime) {
        if self.cores > 1 {
            if let Some(core) = self.entry(id).core {
                log.core(self.entry(id).actor, now, core);
            }
        }
    }

    /// Elects a ready task onto an idle core: runs the policy over the
    /// ready tasks eligible for at least one idle core, places the winner
    /// on its previous core when that core is idle (avoiding a migration
    /// charge) or else on the lowest-numbered eligible idle core, and
    /// claims the core — the winner leaves the ready queue and holds the
    /// core from now on. Returns `None` when no idle core has an eligible
    /// ready task or the policy leaves the cores idle.
    ///
    /// # Panics
    ///
    /// Panics if the policy returns a task that was not offered.
    pub fn elect(&mut self, now: SimTime) -> Option<TaskId> {
        // Bit `c` set: core `c` is idle.
        let idle = (0..self.cores)
            .filter(|&c| self.core_slots[c] == CoreSlot::Idle)
            .fold(0u64, |mask, c| mask | (1 << c));
        if idle == 0 {
            return None;
        }
        self.fill_view(|t| t.affinity & idle != 0);
        if self.ready_view.is_empty() {
            return None;
        }
        let view = PolicyView {
            now,
            ready: &self.ready_view,
            running: None,
        };
        let choice = self.policy.select(&view)?;
        let offered = self
            .ready
            .iter()
            .position(|&t| t == choice)
            .filter(|_| self.entry(choice).affinity & idle != 0);
        let Some(pos) = offered else {
            panic!(
                "policy `{}` selected {choice}, which was not offered",
                self.policy.name()
            );
        };
        self.ready.remove(pos);
        let entry = self.entry_mut(choice);
        let eligible = idle & entry.affinity;
        let core = match entry.last_core {
            Some(c) if eligible & (1 << c) != 0 => c,
            // The lowest-numbered eligible idle core.
            _ => eligible.trailing_zeros() as usize,
        };
        entry.core = Some(core);
        self.core_slots[core] = CoreSlot::Busy(choice);
        self.stats.dispatches += 1;
        Some(choice)
    }

    /// Fills idle cores with eligible ready tasks, one election per
    /// dispatch, until no idle core can be matched (the procedure-call
    /// engine's dispatch). Each elected task is granted the CPU with the
    /// wake-time overheads its own coroutine consumes (Figure 5): the
    /// scheduling duration if `charge_sched`, migration if it changed
    /// cores, then context load. Idle dispatches and wake-ups charge the
    /// scheduling duration; the tail of a relinquish does not, because
    /// the relinquisher already paid for that scheduler pass. The
    /// duration is evaluated only for a pass that elects a task, against
    /// the ready queue the election ran on (paper §3.2: it depends "on
    /// the number of ready tasks when the algorithm runs").
    ///
    /// Notifies each elected task's run event through `n`, in election
    /// order (notifying only buffers the op; it never re-enters the
    /// engine).
    pub fn fill_idle(&mut self, n: &mut Notifier<'_>, charge_sched: bool) {
        let now = n.now();
        loop {
            let before = self.rtos_view(now);
            let Some(task) = self.elect(now) else {
                break;
            };
            let sched = charge_sched.then(|| self.overheads.scheduling.eval(&before));
            let view = self.rtos_view(now);
            let load = self.overheads.context_load.eval(&view);
            let entry = self.entry(task);
            let migration = match (entry.last_core, entry.core) {
                (Some(prev), Some(core)) if prev != core => {
                    Some(self.overheads.migration.eval(&view))
                }
                _ => None,
            };
            n.notify(self.grant(task, [sched, migration, Some(load)]));
        }
    }

    /// The first step of giving the CPU up, in both engines: `me` leaves
    /// its core, which becomes `vacated`, and enters `next_state`
    /// (requeued as Ready if `requeue`). Records and returns the
    /// context-save duration.
    pub fn give_up(
        &mut self,
        log: &mut TraceLog,
        now: SimTime,
        me: TaskId,
        next_state: TaskState,
        requeue: bool,
        vacated: CoreSlot,
    ) -> SimDuration {
        self.stats.scheduler_runs += 1;
        let entry = self.entry_mut(me);
        let core = entry
            .core
            .take()
            .expect("give-up by a task that holds no core");
        entry.last_core = Some(core);
        debug_assert_eq!(self.core_slots[core], CoreSlot::Busy(me));
        self.core_slots[core] = vacated;
        if requeue {
            self.enqueue_ready(log, me, now, false);
        } else {
            self.set_task_state(log, me, now, next_state);
        }
        let save = self.overheads.context_save.eval(&self.rtos_view(now));
        self.record_overhead(log, me, now, OverheadKind::ContextSave, save);
        save
    }

    /// The scheduler pass of a give-up by `me`: records and returns its
    /// duration, evaluated *now*, against the ready queue the algorithm
    /// actually sees (paper §3.2: the duration "depends ... on the number
    /// of ready tasks when the algorithm runs").
    pub fn scheduler_pass(&self, log: &mut TraceLog, now: SimTime, me: TaskId) -> SimDuration {
        let sched = self.overheads.scheduling.eval(&self.rtos_view(now));
        self.record_overhead(log, me, now, OverheadKind::Scheduling, sched);
        sched
    }

    /// Preemption: among the cores `candidate` may run on, finds the
    /// occupied core whose task the policy would preempt, preferring the
    /// least urgent such occupant (the one every other preemptible
    /// occupant would itself preempt). Marks the victim and returns its
    /// preempt event, or `None` when no occupant should yield.
    pub fn pick_victim(&mut self, candidate: TaskId, now: SimTime) -> Option<Event> {
        if !self.preemptive || self.lock_depth > 0 {
            return None;
        }
        // Nothing to preempt, e.g. while the only core is mid-relinquish.
        if !self
            .core_slots
            .iter()
            .any(|s| matches!(s, CoreSlot::Busy(_)))
        {
            return None;
        }
        let cand_view = self.entry(candidate).view(candidate);
        self.fill_view(|_| true);
        let mut victim: Option<TaskView> = None;
        for core in 0..self.cores {
            let CoreSlot::Busy(running) = self.core_slots[core] else {
                continue;
            };
            if !self.affinity_allows(candidate, core) {
                continue;
            }
            let run_view = self.entry(running).view(running);
            let view = PolicyView {
                now,
                ready: &self.ready_view,
                running: Some(&run_view),
            };
            if !self.policy.should_preempt(&view, &cand_view, &run_view) {
                continue;
            }
            victim = match victim {
                None => Some(run_view),
                Some(v) => {
                    // Keep the less urgent of the two occupants: if the
                    // current victim would itself preempt this occupant,
                    // this occupant ranks lower and becomes the victim.
                    if self.policy.should_preempt(&view, &v, &run_view) {
                        Some(run_view)
                    } else {
                        Some(v)
                    }
                }
            };
        }
        let v = victim?;
        self.stats.preemptions += 1;
        let entry = self.entry_mut(v.id);
        entry.preempt_pending = true;
        Some(entry.preempt_event)
    }
}

/// One step of the relinquish protocol, as seen by the relinquish frame
/// that drives it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum RelStep {
    /// Wait this long, then call `relinquish_step` with the next phase.
    Wait(SimDuration),
    /// The protocol is complete.
    Done,
}

/// Phase `phase` of task `me` giving up the CPU, entering `next_state`
/// (requeued as Ready if `requeue`). Phase 0 leaves the Running state;
/// each returned [`RelStep::Wait`] must be slept by the caller (the
/// relinquish frame of [`crate::seg`]) before invoking the next phase.
/// In approach B the phases run on the caller; in approach A phase 0
/// merely posts a request to the RTOS coroutine and completes.
pub(crate) fn relinquish_step(
    st: &mut RtosState,
    log: &mut TraceLog,
    n: &mut Notifier<'_>,
    me: TaskId,
    next_state: TaskState,
    requeue: bool,
    phase: u8,
) -> RelStep {
    match st.kind {
        EngineKind::ProcedureCall => {
            proc_model::relinquish_step(st, log, n, me, next_state, requeue, phase)
        }
        EngineKind::DedicatedThread => {
            // Approach A gives up by messaging the RTOS coroutine; the
            // caller has nothing to wait for here (it blocks in the
            // acquire frame instead).
            thread_model::post(
                st,
                n,
                Request::GiveUp {
                    me,
                    next_state,
                    requeue,
                },
            );
            RelStep::Done
        }
    }
}

/// Marks `target` ready, possibly triggering preemption of the running
/// task or an idle dispatch. Callable from any simulation process (tasks
/// of this or another processor, hardware functions) in either execution
/// mode — it never blocks.
pub(crate) fn make_ready(
    st: &mut RtosState,
    log: &mut TraceLog,
    n: &mut Notifier<'_>,
    target: TaskId,
) {
    match st.kind {
        EngineKind::ProcedureCall => proc_model::make_ready(st, log, n, target),
        EngineKind::DedicatedThread => thread_model::post(st, n, Request::Ready(target)),
    }
}

/// Enters a critical region during which this task cannot be preempted
/// (paper §3.1: the preemptive mode "can be changed during the simulation
/// ... to model critical regions").
pub(crate) fn lock_preemption(st: &mut RtosState, me: TaskId) {
    debug_assert!(st.is_running(me), "preemption lock by a non-running task");
    st.lock_depth += 1;
}

/// Leaves a critical region. Returns whether a more urgent task became
/// ready meanwhile, in which case the preemption is already counted and
/// the caller must give the CPU up on the spot (the paper's Figure 7
/// point (3)).
pub(crate) fn unlock_preemption_yields(st: &mut RtosState, me: TaskId, now: SimTime) -> bool {
    assert!(st.lock_depth > 0, "preemption unlock without a lock");
    st.lock_depth -= 1;
    let must_yield = st.lock_depth == 0 && st.preemptive && best_candidate_preempts(st, me, now);
    if must_yield {
        st.stats.preemptions += 1;
        st.entry_mut(me).preempt_pending = false;
    }
    must_yield
}

/// Forces a scheduling decision: returns whether the policy's best ready
/// candidate now outranks the caller (e.g. after the caller's priority was
/// restored at the end of a ceiling section), in which case the
/// preemption is already counted and the caller must give the CPU up.
pub(crate) fn reschedule_yields(st: &mut RtosState, me: TaskId, now: SimTime) -> bool {
    let must_yield = st.preemptive && st.lock_depth == 0 && best_candidate_preempts(st, me, now);
    if must_yield {
        st.stats.preemptions += 1;
        st.entry_mut(me).preempt_pending = false;
    }
    must_yield
}

/// Consumes a pending preemption request, returning whether one was set.
pub(crate) fn take_preempt_pending(st: &mut RtosState, me: TaskId) -> bool {
    std::mem::take(&mut st.entry_mut(me).preempt_pending)
}

/// Whether the policy's best ready candidate for the caller `me`'s core
/// (only ready tasks whose affinity admits that core compete for it)
/// would preempt `me`.
fn best_candidate_preempts(st: &mut RtosState, me: TaskId, now: SimTime) -> bool {
    let Some(core) = st.entry(me).core else {
        return false;
    };
    st.fill_view(|t| t.affinity & (1 << core) != 0);
    if st.ready_view.is_empty() {
        return false;
    }
    let running = st.entry(me).view(me);
    let view = PolicyView {
        now,
        ready: &st.ready_view,
        running: Some(&running),
    };
    let Some(best) = st.policy.select(&view) else {
        return false;
    };
    let cand = view
        .ready
        .iter()
        .find(|t| t.id == best)
        .copied()
        .expect("policy selected a non-ready task");
    st.policy.should_preempt(&view, &cand, &running)
}
