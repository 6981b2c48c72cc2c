//! Invariant oracles: predicates over a finished run's trace.
//!
//! An oracle inspects the final [`Trace`] of one explored schedule and
//! reports zero or more [`Violation`]s. The explorer evaluates every
//! registered oracle on every leaf of the choice tree, so an invariant
//! holding means it holds over *all* enumerated interleavings, not just
//! the stable one the regression farm pins.
//!
//! The built-ins cover the checks the ISSUE names: no missed deadline,
//! no lost queue message, no lost task (a fugitive event swallowed while
//! nobody was waiting strands its waiter forever), mutual exclusion on
//! shared resources, critical-section exclusion by annotation, and a
//! priority-inversion bound.

use rtsim_kernel::{SimDuration, SimTime};
use rtsim_trace::{ActorKind, CommKind, TaskState, Trace, TraceData};

/// One invariant breach on one trace.
#[derive(Debug, Clone)]
pub struct Violation {
    /// Which oracle (or `"kernel"` for a kernel error) reported it.
    pub oracle: &'static str,
    /// Human-readable description of the breach.
    pub message: String,
}

/// A trace invariant.
pub trait Oracle: Send {
    /// Stable oracle name used in reports and counterexamples.
    fn name(&self) -> &'static str;
    /// Checks `trace`; an empty vec means the invariant holds.
    fn check(&self, trace: &Trace) -> Vec<Violation>;
}

/// No task ever completes past its deadline: the trace must not carry a
/// `deadline_miss` annotation (the RTOS engine stamps one on every
/// late completion).
#[derive(Debug, Clone, Copy, Default)]
pub struct NoMissedDeadline;

impl Oracle for NoMissedDeadline {
    fn name(&self) -> &'static str {
        "no-missed-deadline"
    }

    fn check(&self, trace: &Trace) -> Vec<Violation> {
        trace
            .annotation_times("deadline_miss")
            .into_iter()
            .map(|at| Violation {
                oracle: self.name(),
                message: format!("deadline missed at {}ps", at.as_ps()),
            })
            .collect()
    }
}

/// No queue message is lost: for every relation actor that reports
/// queue depths, writes must equal reads and the final depth must be
/// zero — a dangling depth or a write/read imbalance is a dropped or
/// stuck message.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoLostMessage;

impl Oracle for NoLostMessage {
    fn name(&self) -> &'static str {
        "no-lost-message"
    }

    fn check(&self, trace: &Trace) -> Vec<Violation> {
        let mut violations = Vec::new();
        for actor in trace.actors_of_kind(ActorKind::Relation) {
            let mut final_depth = None;
            for r in trace.records_for(actor) {
                if let TraceData::QueueDepth { depth, .. } = r.data {
                    final_depth = Some(depth);
                }
            }
            let Some(final_depth) = final_depth else {
                continue; // not a queue (no depth reports)
            };
            let mut writes = 0u64;
            let mut reads = 0u64;
            for r in trace.records() {
                if let TraceData::Comm { relation, kind } = r.data {
                    if relation == actor {
                        match kind {
                            CommKind::Write => writes += 1,
                            CommKind::Read => reads += 1,
                            CommKind::Signal => {}
                        }
                    }
                }
            }
            let name = trace.actor_name(actor);
            if final_depth != 0 {
                violations.push(Violation {
                    oracle: self.name(),
                    message: format!("queue `{name}` ends with {final_depth} unread message(s)"),
                });
            }
            if writes != reads {
                violations.push(Violation {
                    oracle: self.name(),
                    message: format!("queue `{name}` saw {writes} write(s) but {reads} read(s)"),
                });
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

impl Oracle for AllTasksTerminate {
    fn name(&self) -> &'static str {
        "all-tasks-terminate"
    }

    fn check(&self, trace: &Trace) -> Vec<Violation> {
        let mut violations = Vec::new();
        for actor in trace.actors_of_kind(ActorKind::Task) {
            let last = trace
                .records_for(actor)
                .filter_map(|r| match r.data {
                    TraceData::State(s) => Some(s),
                    _ => None,
                })
                .last();
            if let Some(state) = last {
                if state != TaskState::Terminated {
                    violations.push(Violation {
                        oracle: self.name(),
                        message: format!(
                            "task `{}` ends the horizon in state {state} (lost wake?)",
                            trace.actor_name(actor)
                        ),
                    });
                }
            }
        }
        violations
    }
}

/// Mutual exclusion on shared resources: every relation actor's
/// `ResourceHeld` stream must strictly alternate acquired/released and
/// end released — a double acquire or a never-released hold breaks it.
#[derive(Debug, Clone, Copy, Default)]
pub struct MutexExclusion;

impl Oracle for MutexExclusion {
    fn name(&self) -> &'static str {
        "mutex-exclusion"
    }

    fn check(&self, trace: &Trace) -> Vec<Violation> {
        let mut violations = Vec::new();
        for actor in trace.actors_of_kind(ActorKind::Relation) {
            let mut held = false;
            let mut seen_any = false;
            for r in trace.records_for(actor) {
                if let TraceData::ResourceHeld(h) = r.data {
                    seen_any = true;
                    if h == held {
                        violations.push(Violation {
                            oracle: self.name(),
                            message: format!(
                                "resource `{}` {} twice in a row at {}ps",
                                trace.actor_name(actor),
                                if h { "acquired" } else { "released" },
                                r.at.as_ps()
                            ),
                        });
                    }
                    held = h;
                }
            }
            if seen_any && held {
                violations.push(Violation {
                    oracle: self.name(),
                    message: format!(
                        "resource `{}` still held at end of horizon",
                        trace.actor_name(actor)
                    ),
                });
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

impl Oracle for CriticalSectionExclusion {
    fn name(&self) -> &'static str {
        "critical-section-exclusion"
    }

    fn check(&self, trace: &Trace) -> Vec<Violation> {
        // Gather per-actor [enter, exit) intervals.
        let mut sections: Vec<(String, SimTime, SimTime)> = Vec::new();
        let mut violations = Vec::new();
        for actor in trace.actors_of_kind(ActorKind::Task) {
            let mut open: Option<SimTime> = None;
            for r in trace.records_for(actor) {
                let TraceData::Annotation(label) = &r.data else {
                    continue;
                };
                match label.as_str() {
                    "cs_enter" => open = Some(r.at),
                    "cs_exit" => {
                        if let Some(start) = open.take() {
                            sections.push((trace.actor_name(actor).to_owned(), start, r.at));
                        }
                    }
                    _ => {}
                }
            }
            if open.is_some() {
                violations.push(Violation {
                    oracle: self.name(),
                    message: format!(
                        "task `{}` never exits its critical section",
                        trace.actor_name(actor)
                    ),
                });
            }
        }
        for (i, (a_name, a_start, a_end)) in sections.iter().enumerate() {
            for (b_name, b_start, b_end) in &sections[i + 1..] {
                if a_name == b_name {
                    continue;
                }
                if a_start < b_end && b_start < a_end {
                    violations.push(Violation {
                        oracle: self.name(),
                        message: format!(
                            "critical sections overlap: `{a_name}` [{}..{}ps] and `{b_name}` [{}..{}ps]",
                            a_start.as_ps(),
                            a_end.as_ps(),
                            b_start.as_ps(),
                            b_end.as_ps()
                        ),
                    });
                }
            }
        }
        violations
    }
}

/// Bounded priority inversion: the total time `victim` spends Ready
/// while `offender` runs must not exceed `bound`. Pin it on a scenario
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

impl Oracle for PriorityInversionBound {
    fn name(&self) -> &'static str {
        "priority-inversion-bound"
    }

    fn check(&self, trace: &Trace) -> Vec<Violation> {
        let horizon = trace.horizon();
        let (Some(victim), Some(offender)) = (
            trace.actor_by_name(&self.victim),
            trace.actor_by_name(&self.offender),
        ) else {
            return vec![Violation {
                oracle: self.name(),
                message: format!(
                    "tasks `{}`/`{}` not present in trace",
                    self.victim, self.offender
                ),
            }];
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
            vec![Violation {
                oracle: self.name(),
                message: format!(
                    "`{}` blocked {}ps while `{}` ran (bound {}ps)",
                    self.victim,
                    overlap_ps,
                    self.offender,
                    self.bound.as_ps()
                ),
            }]
        } else {
            Vec::new()
        }
    }
}

/// The default oracle suite: every scenario-independent built-in.
pub fn built_ins() -> Vec<Box<dyn Oracle>> {
    vec![
        Box::new(NoMissedDeadline),
        Box::new(NoLostMessage),
        Box::new(AllTasksTerminate),
        Box::new(MutexExclusion),
        Box::new(CriticalSectionExclusion),
    ]
}
