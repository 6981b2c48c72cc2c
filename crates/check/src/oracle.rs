//! Invariant oracles: [properties](Property) that report one failing
//! [`Finding`] per breach, and none when the invariant holds.
//!
//! A model declares its oracles with [`SystemModel::constraint`], next
//! to its timing constraints. The explorer checks every declared
//! property on every leaf of the choice tree, so an invariant holding
//! means it holds over *all* enumerated interleavings, not just the
//! stable one the regression farm pins.
//!
//! Each oracle is a monitor: it folds records into a plain-data state,
//! most often an [`ActorTable`] sized to the actors, and reads its
//! findings off that state when the run ends. The explorer folds at
//! every choice point it snapshots, so a leaf folds only the records
//! its own run added.
//!
//! The built-ins: no missed deadline, no lost queue message, no lost
//! task (a fugitive event swallowed while nobody was waiting strands its
//! waiter forever), mutual exclusion on shared resources,
//! critical-section exclusion by annotation, and a priority-inversion
//! bound.

use std::sync::LazyLock;

use rtsim_kernel::{SimDuration, SimTime};
use rtsim_mcse::SystemModel;
use rtsim_trace::{
    ActorId, ActorInfo, ActorKind, ActorTable, CommKind, Finding, Label, Property, Record,
    TaskState, TraceData,
};

/// The annotations the oracles look for, interned once.
static DEADLINE_MISS: LazyLock<Label> = LazyLock::new(|| Label::new("deadline_miss"));
static CS_ENTER: LazyLock<Label> = LazyLock::new(|| Label::new("cs_enter"));
static CS_EXIT: LazyLock<Label> = LazyLock::new(|| Label::new("cs_exit"));

/// No task ever completes past its deadline: the trace must not carry a
/// `deadline_miss` annotation (the RTOS engine stamps one on every
/// late completion).
#[derive(Debug, Clone, Copy, Default)]
pub struct NoMissedDeadline;

impl Property for NoMissedDeadline {
    /// The instants of the misses, in trace order.
    type State = Vec<SimTime>;

    fn name(&self) -> &str {
        "no-missed-deadline"
    }

    fn observe(&self, misses: &mut Vec<SimTime>, _actors: &[ActorInfo], records: &[Record]) {
        let miss = TraceData::Annotation(*DEADLINE_MISS);
        misses.extend(records.iter().filter(|r| r.data == miss).map(|r| r.at));
    }

    fn finish(&self, misses: &Vec<SimTime>, _: &[ActorInfo], _: SimTime) -> Vec<Finding> {
        misses
            .iter()
            .map(|at| self.finding(false, format!("deadline missed at {}ps", at.as_ps())))
            .collect()
    }
}

/// No queue message is lost: for every relation actor that reports
/// queue depths, writes must equal reads and the final depth must be
/// zero — a dangling depth or a write/read imbalance is a dropped or
/// stuck message.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoLostMessage;

/// What [`NoLostMessage`] keeps of one actor: its last reported queue
/// depth, and the writes and reads that name it.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub struct QueueTally {
    depth: Option<u32>,
    writes: u64,
    reads: u64,
}

impl Property for NoLostMessage {
    type State = ActorTable<QueueTally>;

    fn name(&self) -> &str {
        "no-lost-message"
    }

    fn observe(&self, state: &mut Self::State, actors: &[ActorInfo], records: &[Record]) {
        state.fit(actors);
        for r in records {
            match r.data {
                TraceData::QueueDepth { depth, .. } => {
                    if let Some(queue) = state.rows.get_mut(r.actor.index()) {
                        queue.depth = Some(depth);
                    }
                }
                TraceData::Comm { relation, kind } => {
                    if let Some(queue) = state.rows.get_mut(relation.index()) {
                        match kind {
                            CommKind::Write => queue.writes += 1,
                            CommKind::Read => queue.reads += 1,
                            CommKind::Signal => {}
                        }
                    }
                }
                _ => {}
            }
        }
    }

    fn finish(&self, state: &Self::State, actors: &[ActorInfo], _: SimTime) -> Vec<Finding> {
        let mut violations = Vec::new();
        for (queue, actor) in state.rows.iter().zip(actors) {
            // Not a queue unless it is a relation that reported a depth.
            let (ActorKind::Relation, Some(final_depth)) = (actor.kind, queue.depth) else {
                continue;
            };
            let name = &actor.name;
            if final_depth != 0 {
                violations.push(self.finding(
                    false,
                    format!("queue `{name}` ends with {final_depth} unread message(s)"),
                ));
            }
            if queue.writes != queue.reads {
                violations.push(self.finding(
                    false,
                    format!(
                        "queue `{name}` saw {} write(s) but {} read(s)",
                        queue.writes, queue.reads
                    ),
                ));
            }
        }
        violations
    }
}

/// Every task that ever ran reaches `Terminated`: a task stranded in a
/// wait at the end of the horizon points at a lost wake — e.g. a
/// fugitive event signalled while nobody was waiting.
#[derive(Debug, Clone, Copy, Default)]
pub struct AllTasksTerminate;

impl Property for AllTasksTerminate {
    /// Per actor: the last state it entered.
    type State = ActorTable<Option<TaskState>>;

    fn name(&self) -> &str {
        "all-tasks-terminate"
    }

    fn observe(&self, state: &mut Self::State, actors: &[ActorInfo], records: &[Record]) {
        state.fit(actors);
        for r in records {
            if let TraceData::State(entered) = r.data {
                if let Some(task) = state.rows.get_mut(r.actor.index()) {
                    *task = Some(entered);
                }
            }
        }
    }

    fn finish(&self, state: &Self::State, actors: &[ActorInfo], _: SimTime) -> Vec<Finding> {
        state
            .rows
            .iter()
            .zip(actors)
            .filter_map(|(last, actor)| match (actor.kind, last) {
                (ActorKind::Task, Some(state)) if *state != TaskState::Terminated => {
                    Some(self.finding(
                        false,
                        format!(
                            "task `{}` ends the horizon in state {state} (lost wake?)",
                            actor.name
                        ),
                    ))
                }
                _ => None,
            })
            .collect()
    }
}

/// Mutual exclusion on shared resources: every relation actor's
/// `ResourceHeld` stream must strictly alternate acquired/released and
/// end released — a double acquire or a never-released hold breaks it.
#[derive(Debug, Clone, Copy, Default)]
pub struct MutexExclusion;

/// A repeated acquire (`held`) or release of a resource, noted by
/// [`MutexExclusion`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Breach {
    resource: ActorId,
    at: SimTime,
    held: bool,
}

impl Property for MutexExclusion {
    /// Per actor: whether it is held; the breaches in trace order.
    type State = ActorTable<bool, Breach>;

    fn name(&self) -> &str {
        "mutex-exclusion"
    }

    fn observe(&self, state: &mut Self::State, actors: &[ActorInfo], records: &[Record]) {
        state.fit(actors);
        for r in records {
            let TraceData::ResourceHeld(h) = r.data else {
                continue;
            };
            if !is(actors, r.actor, ActorKind::Relation) {
                continue;
            }
            let held = &mut state.rows[r.actor.index()];
            if h == *held {
                state.notes.push(Breach {
                    resource: r.actor,
                    at: r.at,
                    held: h,
                });
            }
            *held = h;
        }
    }

    fn finish(&self, state: &Self::State, actors: &[ActorInfo], _: SimTime) -> Vec<Finding> {
        let mut violations = Vec::new();
        for (i, actor) in actors.iter().enumerate() {
            let name = &actor.name;
            let breaches = state.notes.iter().filter(|b| b.resource.index() == i);
            violations.extend(breaches.map(|b| {
                self.finding(
                    false,
                    format!(
                        "resource `{name}` {} twice in a row at {}ps",
                        if b.held { "acquired" } else { "released" },
                        b.at.as_ps()
                    ),
                )
            }));
            if state.rows.get(i) == Some(&true) {
                violations.push(self.finding(
                    false,
                    format!("resource `{name}` still held at end of horizon"),
                ));
            }
        }
        violations
    }
}

/// Critical-section exclusion by annotation: tasks bracket their
/// critical sections with `cs_enter` / `cs_exit` annotations, and no
/// two tasks' bracketed intervals may overlap in time. This is the
/// application-level mutex oracle — it catches a client that *bypasses*
/// the lock (the comm layer's own bookkeeping stays consistent then,
/// so [`MutexExclusion`] cannot see it).
#[derive(Debug, Clone, Copy, Default)]
pub struct CriticalSectionExclusion;

/// One closed `[enter, exit)` critical section of a task, noted by
/// [`CriticalSectionExclusion`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Section {
    task: ActorId,
    enter: SimTime,
    exit: SimTime,
}

impl Property for CriticalSectionExclusion {
    /// Per actor: the open section's entry, if any; the closed sections
    /// by task, each task's in closing order.
    type State = ActorTable<Option<SimTime>, Section>;

    fn name(&self) -> &str {
        "critical-section-exclusion"
    }

    fn observe(&self, state: &mut Self::State, actors: &[ActorInfo], records: &[Record]) {
        state.fit(actors);
        let (enter_label, exit_label) = (*CS_ENTER, *CS_EXIT);
        for r in records {
            let TraceData::Annotation(label) = r.data else {
                continue;
            };
            if !is(actors, r.actor, ActorKind::Task) {
                continue;
            }
            let open = &mut state.rows[r.actor.index()];
            if label == enter_label {
                *open = Some(r.at);
            } else if label == exit_label {
                if let Some(enter) = open.take() {
                    let after = state.notes.partition_point(|s| s.task <= r.actor);
                    let section = Section {
                        task: r.actor,
                        enter,
                        exit: r.at,
                    };
                    state.notes.insert(after, section);
                }
            }
        }
    }

    fn finish(&self, state: &Self::State, actors: &[ActorInfo], _: SimTime) -> Vec<Finding> {
        let mut violations: Vec<Finding> = state
            .rows
            .iter()
            .zip(actors)
            .filter(|(open, _)| open.is_some())
            .map(|(_, actor)| {
                self.finding(
                    false,
                    format!("task `{}` never exits its critical section", actor.name),
                )
            })
            .collect();
        let name = |s: &Section| &actors[s.task.index()].name;
        for (i, a) in state.notes.iter().enumerate() {
            for b in &state.notes[i + 1..] {
                let (a_name, b_name) = (name(a), name(b));
                if a_name != b_name && a.enter < b.exit && b.enter < a.exit {
                    violations.push(self.finding(
                        false,
                        format!(
                            "critical sections overlap: `{a_name}` [{}..{}ps] and `{b_name}` [{}..{}ps]",
                            a.enter.as_ps(),
                            a.exit.as_ps(),
                            b.enter.as_ps(),
                            b.exit.as_ps()
                        ),
                    ));
                }
            }
        }
        violations
    }
}

/// Bounded priority inversion: the total time `victim` spends Ready
/// while `offender` runs must not exceed `bound`, with the last
/// intervals closed at the trace's last record. Pin it on a scenario
/// with an inversion-avoidance protocol (priority inheritance /
/// preemption masking) to verify the protocol holds under *every*
/// schedule, not just the stable one.
#[derive(Debug, Clone)]
pub struct PriorityInversionBound {
    /// High-priority task name (the potential victim).
    pub victim: String,
    /// Low-priority task name (the potential offender).
    pub offender: String,
    /// Maximum tolerated Ready-while-offender-Running overlap.
    pub bound: SimDuration,
}

/// What [`PriorityInversionBound`] keeps of a run: each of the two
/// tasks once registered, whether the victim waits and the offender
/// runs since the last change of either, the overlap before it, and the
/// last record's instant.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub struct InversionTally {
    victim: Option<ActorId>,
    offender: Option<ActorId>,
    blocked: bool,
    running: bool,
    since: SimTime,
    overlap_ps: u64,
    last: SimTime,
}

impl Property for PriorityInversionBound {
    type State = InversionTally;

    fn name(&self) -> &str {
        "priority-inversion-bound"
    }

    fn observe(&self, tally: &mut InversionTally, actors: &[ActorInfo], records: &[Record]) {
        tally.victim = tally.victim.or_else(|| ActorId::find(actors, &self.victim));
        tally.offender = tally
            .offender
            .or_else(|| ActorId::find(actors, &self.offender));
        for r in records {
            tally.last = tally.last.max(r.at);
            let TraceData::State(state) = r.data else {
                continue;
            };
            let (victim, offender) = (
                Some(r.actor) == tally.victim,
                Some(r.actor) == tally.offender,
            );
            if !victim && !offender {
                continue;
            }
            if tally.blocked && tally.running {
                tally.overlap_ps += r.at.as_ps() - tally.since.as_ps();
            }
            tally.since = r.at;
            if victim {
                tally.blocked = matches!(state, TaskState::Ready | TaskState::WaitingResource);
            }
            if offender {
                tally.running = state == TaskState::Running;
            }
        }
    }

    fn finish(&self, tally: &InversionTally, _: &[ActorInfo], _: SimTime) -> Vec<Finding> {
        if tally.victim.is_none() || tally.offender.is_none() {
            return vec![self.finding(
                false,
                format!(
                    "tasks `{}`/`{}` not present in trace",
                    self.victim, self.offender
                ),
            )];
        }
        let mut overlap_ps = tally.overlap_ps;
        if tally.blocked && tally.running {
            overlap_ps += tally.last.as_ps() - tally.since.as_ps();
        }
        if overlap_ps > self.bound.as_ps() {
            vec![self.finding(
                false,
                format!(
                    "`{}` blocked {}ps while `{}` ran (bound {}ps)",
                    self.victim,
                    overlap_ps,
                    self.offender,
                    self.bound.as_ps()
                ),
            )]
        } else {
            Vec::new()
        }
    }
}

/// Whether `actor` is registered in `actors` as a `kind`.
fn is(actors: &[ActorInfo], actor: ActorId, kind: ActorKind) -> bool {
    actors.get(actor.index()).is_some_and(|a| a.kind == kind)
}

/// Declares the default oracle suite on `model`: every
/// scenario-independent built-in.
pub fn built_ins(model: &mut SystemModel) -> &mut SystemModel {
    model
        .constraint(NoMissedDeadline)
        .constraint(NoLostMessage)
        .constraint(AllTasksTerminate)
        .constraint(MutexExclusion)
        .constraint(CriticalSectionExclusion)
}
