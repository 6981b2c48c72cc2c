//! Invariant oracles: [properties](Property) that report one failing
//! [`Finding`] per breach, and none when the invariant holds.
//!
//! A model declares its oracles with [`SystemModel::constraint`], next
//! to its timing constraints. The explorer checks every declared
//! property on every leaf of the choice tree, so an invariant holding
//! means it holds over *all* enumerated interleavings, not just the
//! stable one the regression farm pins.
//!
//! The built-ins: no missed deadline, no lost queue message, no lost
//! task (a fugitive event swallowed while nobody was waiting strands its
//! waiter forever), mutual exclusion on shared resources,
//! critical-section exclusion by annotation, and a priority-inversion
//! bound.

use rtsim_kernel::{SimDuration, SimTime};
use rtsim_mcse::SystemModel;
use rtsim_trace::{ActorKind, CommKind, Finding, Property, TaskState, Trace, TraceData};

/// No task ever completes past its deadline: the trace must not carry a
/// `deadline_miss` annotation (the RTOS engine stamps one on every
/// late completion).
#[derive(Debug, Clone, Copy, Default)]
pub struct NoMissedDeadline;

impl Property for NoMissedDeadline {
    fn name(&self) -> &str {
        "no-missed-deadline"
    }

    fn check(&self, trace: &Trace, _horizon: SimTime) -> Vec<Finding> {
        trace
            .annotation_times("deadline_miss")
            .into_iter()
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

impl Property for NoLostMessage {
    fn name(&self) -> &str {
        "no-lost-message"
    }

    fn check(&self, trace: &Trace, _horizon: SimTime) -> Vec<Finding> {
        // Per relation actor: its last reported depth and the writes and
        // reads that name it.
        let mut queues = per_actor(trace, ActorKind::Relation, (None, 0u64, 0u64));
        for r in trace.records() {
            match r.data {
                TraceData::QueueDepth { depth, .. } => {
                    if let Some(Some(queue)) = queues.get_mut(r.actor.index()) {
                        queue.0 = Some(depth);
                    }
                }
                TraceData::Comm { relation, kind } => {
                    if let Some(Some(queue)) = queues.get_mut(relation.index()) {
                        match kind {
                            CommKind::Write => queue.1 += 1,
                            CommKind::Read => queue.2 += 1,
                            CommKind::Signal => {}
                        }
                    }
                }
                _ => {}
            }
        }
        let mut violations = Vec::new();
        for (queue, actor) in queues.into_iter().zip(trace.actors()) {
            // Not a queue unless it reported a depth.
            let Some((Some(final_depth), writes, reads)) = queue else {
                continue;
            };
            let name = &actor.name;
            if final_depth != 0 {
                violations.push(self.finding(
                    false,
                    format!("queue `{name}` ends with {final_depth} unread message(s)"),
                ));
            }
            if writes != reads {
                violations.push(self.finding(
                    false,
                    format!("queue `{name}` saw {writes} write(s) but {reads} read(s)"),
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
    fn name(&self) -> &str {
        "all-tasks-terminate"
    }

    fn check(&self, trace: &Trace, _horizon: SimTime) -> Vec<Finding> {
        // Per task actor: the last state it entered.
        let mut last = per_actor(trace, ActorKind::Task, None);
        for r in trace.records() {
            if let TraceData::State(state) = r.data {
                if let Some(Some(task)) = last.get_mut(r.actor.index()) {
                    *task = Some(state);
                }
            }
        }
        last.into_iter()
            .zip(trace.actors())
            .filter_map(|(last, actor)| match last {
                Some(Some(state)) if state != TaskState::Terminated => Some(self.finding(
                    false,
                    format!(
                        "task `{}` ends the horizon in state {state} (lost wake?)",
                        actor.name
                    ),
                )),
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

impl Property for MutexExclusion {
    fn name(&self) -> &str {
        "mutex-exclusion"
    }

    fn check(&self, trace: &Trace, _horizon: SimTime) -> Vec<Finding> {
        // Per relation actor: whether it is held, and its breaches in
        // trace order.
        let mut resources = per_actor(trace, ActorKind::Relation, (false, Vec::new()));
        for r in trace.records() {
            let TraceData::ResourceHeld(h) = r.data else {
                continue;
            };
            let Some(Some((held, breaches))) = resources.get_mut(r.actor.index()) else {
                continue;
            };
            if h == *held {
                breaches.push(format!(
                    "resource `{}` {} twice in a row at {}ps",
                    trace.actor_name(r.actor),
                    if h { "acquired" } else { "released" },
                    r.at.as_ps()
                ));
            }
            *held = h;
        }
        let mut violations = Vec::new();
        for (resource, actor) in resources.into_iter().zip(trace.actors()) {
            let Some((held, mut breaches)) = resource else {
                continue;
            };
            if held {
                breaches.push(format!(
                    "resource `{}` still held at end of horizon",
                    actor.name
                ));
            }
            violations.extend(
                breaches
                    .into_iter()
                    .map(|message| self.finding(false, message)),
            );
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

impl Property for CriticalSectionExclusion {
    fn name(&self) -> &str {
        "critical-section-exclusion"
    }

    fn check(&self, trace: &Trace, _horizon: SimTime) -> Vec<Finding> {
        // Per task actor: the open section's entry, if any, and its
        // closed [enter, exit) intervals.
        let mut tasks = per_actor(trace, ActorKind::Task, (None, Vec::new()));
        for r in trace.records() {
            let TraceData::Annotation(label) = &r.data else {
                continue;
            };
            let Some(Some((open, closed))) = tasks.get_mut(r.actor.index()) else {
                continue;
            };
            match label.as_str() {
                "cs_enter" => *open = Some(r.at),
                "cs_exit" => {
                    if let Some(start) = open.take() {
                        closed.push((start, r.at));
                    }
                }
                _ => {}
            }
        }
        let mut violations = Vec::new();
        let mut sections = Vec::new();
        for (task, actor) in tasks.into_iter().zip(trace.actors()) {
            let Some((open, closed)) = task else {
                continue;
            };
            if open.is_some() {
                violations.push(self.finding(
                    false,
                    format!("task `{}` never exits its critical section", actor.name),
                ));
            }
            sections.extend(
                closed
                    .into_iter()
                    .map(|(start, end)| (&actor.name, start, end)),
            );
        }
        for (i, (a_name, a_start, a_end)) in sections.iter().enumerate() {
            for (b_name, b_start, b_end) in &sections[i + 1..] {
                if a_name == b_name {
                    continue;
                }
                if a_start < b_end && b_start < a_end {
                    violations.push(self.finding(
                        false,
                        format!(
                            "critical sections overlap: `{a_name}` [{}..{}ps] and `{b_name}` [{}..{}ps]",
                            a_start.as_ps(),
                            a_end.as_ps(),
                            b_start.as_ps(),
                            b_end.as_ps()
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
/// intervals closed at [`Trace::horizon`]. Pin it on a scenario
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

impl Property for PriorityInversionBound {
    fn name(&self) -> &str {
        "priority-inversion-bound"
    }

    fn check(&self, trace: &Trace, _horizon: SimTime) -> Vec<Finding> {
        let horizon = trace.horizon();
        let (Some(victim), Some(offender)) = (
            trace.actor_by_name(&self.victim),
            trace.actor_by_name(&self.offender),
        ) else {
            return vec![self.finding(
                false,
                format!(
                    "tasks `{}`/`{}` not present in trace",
                    self.victim, self.offender
                ),
            )];
        };
        let blocked: Vec<(SimTime, SimTime)> = trace
            .state_intervals(victim, horizon)
            .into_iter()
            .filter(|(_, _, s)| matches!(s, TaskState::Ready | TaskState::WaitingResource))
            .map(|(a, b, _)| (a, b))
            .collect();
        let running: Vec<(SimTime, SimTime)> = trace
            .state_intervals(offender, horizon)
            .into_iter()
            .filter(|(_, _, s)| *s == TaskState::Running)
            .map(|(a, b, _)| (a, b))
            .collect();
        let mut overlap_ps: u64 = 0;
        for &(a0, a1) in &blocked {
            for &(b0, b1) in &running {
                let lo = a0.max(b0);
                let hi = a1.min(b1);
                if lo < hi {
                    overlap_ps += hi.as_ps() - lo.as_ps();
                }
            }
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

/// One `init` per actor of `kind` and `None` for every other actor: the
/// per-actor state of a one-pass oracle, indexed by
/// [`ActorId::index`](rtsim_trace::ActorId::index).
fn per_actor<T: Clone>(trace: &Trace, kind: ActorKind, init: T) -> Vec<Option<T>> {
    trace
        .actors()
        .iter()
        .map(|a| (a.kind == kind).then(|| init.clone()))
        .collect()
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
