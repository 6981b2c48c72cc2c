//! Timing constraints and their post-simulation verification.
//!
//! The paper closes with: *"Another improvement we can imagine now is
//! automatic verification of timing constraints by simulation after
//! setting these constraints in the initial system model."* This module
//! implements that improvement: constraints are declared on the
//! [`SystemModel`](crate::SystemModel) and checked against the recorded
//! trace after a run.

use std::fmt;

use rtsim_kernel::{SimDuration, SimTime};
use rtsim_trace::{Measure, TaskState, Trace};

/// A declarative timing requirement on the modeled system.
#[derive(Debug, Clone, PartialEq)]
pub enum TimingConstraint {
    /// Every occurrence of the trace annotation `stimulus` must be
    /// followed by `reactor` entering Running within `bound` — the
    /// external-event-to-reaction latency the paper measures on the
    /// TimeLine chart.
    ReactionWithin {
        /// Constraint name for the report.
        name: String,
        /// Annotation label marking the stimulus.
        stimulus: String,
        /// The reacting function's name.
        reactor: String,
        /// Maximum admissible latency.
        bound: SimDuration,
    },
    /// Every activation of `function` (each transition into Ready from a
    /// non-ready state) must reach Waiting or Terminated within `bound` —
    /// a per-job deadline.
    CompletionWithin {
        /// Constraint name for the report.
        name: String,
        /// The constrained function's name.
        function: String,
        /// Maximum admissible response time.
        bound: SimDuration,
    },
    /// `function` must accumulate at least `min_ratio` of the horizon in
    /// the Running state — a progress/starvation guard.
    MinActivity {
        /// Constraint name for the report.
        name: String,
        /// The constrained function's name.
        function: String,
        /// Minimum running-time ratio over the verified horizon (0..=1).
        min_ratio: f64,
    },
}

impl TimingConstraint {
    /// The constraint's report name.
    pub fn name(&self) -> &str {
        match self {
            TimingConstraint::ReactionWithin { name, .. }
            | TimingConstraint::CompletionWithin { name, .. }
            | TimingConstraint::MinActivity { name, .. } => name,
        }
    }
}

/// Outcome of checking one constraint.
#[derive(Debug, Clone, PartialEq)]
pub struct ConstraintResult {
    /// The constraint's name.
    pub name: String,
    /// Whether the trace satisfies it.
    pub satisfied: bool,
    /// Worst observed value (latency / response time), when applicable.
    pub worst: Option<SimDuration>,
    /// Number of occurrences checked.
    pub checked: u64,
    /// Human-readable explanation.
    pub detail: String,
}

/// The verification report over all declared constraints.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ConstraintReport {
    /// Per-constraint outcomes, in declaration order.
    pub results: Vec<ConstraintResult>,
}

impl ConstraintReport {
    /// `true` when every constraint is satisfied.
    pub fn all_satisfied(&self) -> bool {
        self.results.iter().all(|r| r.satisfied)
    }

    /// Constraints that failed.
    pub fn violations(&self) -> impl Iterator<Item = &ConstraintResult> + '_ {
        self.results.iter().filter(|r| !r.satisfied)
    }
}

impl fmt::Display for ConstraintReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for r in &self.results {
            writeln!(
                f,
                "[{}] {} — {}",
                if r.satisfied { "PASS" } else { "FAIL" },
                r.name,
                r.detail
            )?;
        }
        Ok(())
    }
}

/// Checks `constraints` against `trace` over `[0, horizon]`.
pub fn verify(
    constraints: &[TimingConstraint],
    trace: &Trace,
    horizon: SimTime,
) -> ConstraintReport {
    let measure = Measure::new(trace);
    let results = constraints
        .iter()
        .map(|c| check_one(c, trace, &measure, horizon))
        .collect();
    ConstraintReport { results }
}

fn check_one(
    constraint: &TimingConstraint,
    trace: &Trace,
    measure: &Measure<'_>,
    horizon: SimTime,
) -> ConstraintResult {
    match constraint {
        TimingConstraint::ReactionWithin {
            name,
            stimulus,
            reactor,
            bound,
        } => {
            let Some(actor) = trace.actor_by_name(reactor) else {
                return missing_actor(name, reactor);
            };
            let latencies = measure.reaction_times(stimulus, actor);
            let stimuli = trace.annotation_times(stimulus).len() as u64;
            let unanswered = stimuli - latencies.len() as u64;
            let worst = latencies.iter().copied().max();
            let satisfied = unanswered == 0 && worst.is_none_or(|w| w <= *bound);
            ConstraintResult {
                name: name.clone(),
                satisfied,
                worst,
                checked: stimuli,
                detail: match worst {
                    Some(w) => format!(
                        "worst reaction {w} (bound {bound}), {stimuli} stimuli, {unanswered} unanswered"
                    ),
                    None => format!("{stimuli} stimuli, none answered"),
                },
            }
        }
        TimingConstraint::CompletionWithin {
            name,
            function,
            bound,
        } => {
            let Some(actor) = trace.actor_by_name(function) else {
                return missing_actor(name, function);
            };
            // Job segmentation (activation out of a synchronization wait,
            // completion at the next block) comes from `Measure::jobs`.
            let jobs = measure.jobs(actor);
            let mut worst: Option<SimDuration> = None;
            let checked = jobs.len() as u64;
            let mut satisfied = true;
            for job in jobs {
                match job.response() {
                    Some(response) => {
                        if worst.is_none_or(|w| response > w) {
                            worst = Some(response);
                        }
                        if response > *bound {
                            satisfied = false;
                        }
                    }
                    None => {
                        // Still incomplete at the horizon: violated if the
                        // bound already expired.
                        if job.activated.saturating_add(*bound) < horizon {
                            satisfied = false;
                        }
                    }
                }
            }
            ConstraintResult {
                name: name.clone(),
                satisfied,
                worst,
                checked,
                detail: format!(
                    "worst response {} over {checked} activations (bound {bound})",
                    worst.map_or_else(|| "n/a".to_owned(), |w| w.to_string())
                ),
            }
        }
        TimingConstraint::MinActivity {
            name,
            function,
            min_ratio,
        } => {
            let Some(actor) = trace.actor_by_name(function) else {
                return missing_actor(name, function);
            };
            let running = measure.time_in_state(actor, TaskState::Running, SimTime::ZERO, horizon);
            let ratio = running.as_ps() as f64 / horizon.as_ps().max(1) as f64;
            ConstraintResult {
                name: name.clone(),
                satisfied: ratio >= *min_ratio,
                worst: None,
                checked: 1,
                detail: format!(
                    "activity {:.1}% (min {:.1}%)",
                    ratio * 100.0,
                    min_ratio * 100.0
                ),
            }
        }
    }
}

fn missing_actor(name: &str, actor: &str) -> ConstraintResult {
    ConstraintResult {
        name: name.to_owned(),
        satisfied: false,
        worst: None,
        checked: 0,
        detail: format!("function `{actor}` not present in the trace"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtsim_trace::{ActorKind, TraceRecorder};

    fn ps(v: u64) -> SimTime {
        SimTime::from_ps(v)
    }

    #[test]
    fn reaction_constraint_pass_and_fail() {
        let rec = TraceRecorder::new();
        let clk = rec.register("clk", ActorKind::Task);
        let f = rec.register("F", ActorKind::Task);
        rec.annotate(clk, ps(100), "tick");
        rec.state(f, ps(130), TaskState::Running);
        let trace = rec.snapshot();
        let pass = verify(
            &[TimingConstraint::ReactionWithin {
                name: "c1".into(),
                stimulus: "tick".into(),
                reactor: "F".into(),
                bound: SimDuration::from_ps(50),
            }],
            &trace,
            ps(1_000),
        );
        assert!(pass.all_satisfied(), "{pass}");
        let fail = verify(
            &[TimingConstraint::ReactionWithin {
                name: "c1".into(),
                stimulus: "tick".into(),
                reactor: "F".into(),
                bound: SimDuration::from_ps(10),
            }],
            &trace,
            ps(1_000),
        );
        assert!(!fail.all_satisfied());
        assert_eq!(fail.violations().count(), 1);
        assert_eq!(fail.results[0].worst, Some(SimDuration::from_ps(30)));
    }

    #[test]
    fn unanswered_stimulus_fails_reaction_constraint() {
        let rec = TraceRecorder::new();
        let clk = rec.register("clk", ActorKind::Task);
        let _f = rec.register("F", ActorKind::Task);
        rec.annotate(clk, ps(100), "tick");
        let trace = rec.snapshot();
        let report = verify(
            &[TimingConstraint::ReactionWithin {
                name: "c".into(),
                stimulus: "tick".into(),
                reactor: "F".into(),
                bound: SimDuration::from_ps(10),
            }],
            &trace,
            ps(1_000),
        );
        assert!(!report.all_satisfied());
    }

    #[test]
    fn completion_constraint_measures_activations() {
        let rec = TraceRecorder::new();
        let f = rec.register("F", ActorKind::Task);
        rec.state(f, ps(0), TaskState::Created);
        rec.state(f, ps(0), TaskState::Ready);
        rec.state(f, ps(10), TaskState::Running);
        rec.state(f, ps(50), TaskState::Waiting); // response 50
        rec.state(f, ps(100), TaskState::Ready);
        rec.state(f, ps(110), TaskState::Running);
        rec.state(f, ps(120), TaskState::Ready); // preemption: NOT an activation
        rec.state(f, ps(130), TaskState::Running);
        rec.state(f, ps(190), TaskState::Terminated); // response 90
        let trace = rec.snapshot();
        let report = verify(
            &[TimingConstraint::CompletionWithin {
                name: "deadline".into(),
                function: "F".into(),
                bound: SimDuration::from_ps(95),
            }],
            &trace,
            ps(1_000),
        );
        assert!(report.all_satisfied(), "{report}");
        assert_eq!(report.results[0].checked, 2);
        assert_eq!(report.results[0].worst, Some(SimDuration::from_ps(90)));
        let tight = verify(
            &[TimingConstraint::CompletionWithin {
                name: "deadline".into(),
                function: "F".into(),
                bound: SimDuration::from_ps(60),
            }],
            &trace,
            ps(1_000),
        );
        assert!(!tight.all_satisfied());
    }

    #[test]
    fn incomplete_activation_violates_after_bound() {
        let rec = TraceRecorder::new();
        let f = rec.register("F", ActorKind::Task);
        rec.state(f, ps(0), TaskState::Ready);
        rec.state(f, ps(10), TaskState::Running); // never completes
        let trace = rec.snapshot();
        let report = verify(
            &[TimingConstraint::CompletionWithin {
                name: "d".into(),
                function: "F".into(),
                bound: SimDuration::from_ps(100),
            }],
            &trace,
            ps(10_000),
        );
        assert!(!report.all_satisfied());
    }

    #[test]
    fn min_activity_constraint() {
        let rec = TraceRecorder::new();
        let f = rec.register("F", ActorKind::Task);
        rec.state(f, ps(0), TaskState::Running);
        rec.state(f, ps(300), TaskState::Waiting);
        let trace = rec.snapshot();
        let report = verify(
            &[TimingConstraint::MinActivity {
                name: "busy".into(),
                function: "F".into(),
                min_ratio: 0.25,
            }],
            &trace,
            ps(1_000),
        );
        assert!(report.all_satisfied());
        let report = verify(
            &[TimingConstraint::MinActivity {
                name: "busy".into(),
                function: "F".into(),
                min_ratio: 0.5,
            }],
            &trace,
            ps(1_000),
        );
        assert!(!report.all_satisfied());
    }

    #[test]
    fn missing_actor_fails_gracefully() {
        let rec = TraceRecorder::new();
        let trace = rec.snapshot();
        let report = verify(
            &[TimingConstraint::MinActivity {
                name: "x".into(),
                function: "ghost".into(),
                min_ratio: 0.1,
            }],
            &trace,
            ps(100),
        );
        assert!(!report.all_satisfied());
        assert!(report.results[0].detail.contains("ghost"));
    }
}
