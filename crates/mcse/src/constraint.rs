//! Timing constraints and the report of a model's properties.
//!
//! The paper closes with: *"Another improvement we can imagine now is
//! automatic verification of timing constraints by simulation after
//! setting these constraints in the initial system model."* This module
//! implements that improvement: a [`TimingConstraint`] is a
//! [`Property`] declared on the [`SystemModel`](crate::SystemModel), and
//! [`ConstraintReport`] collects what a model's properties find on a
//! trace, after a plain run or on each schedule the explorer reaches.

use std::fmt;

use rtsim_kernel::{SimDuration, SimTime};
use rtsim_trace::{Finding, Job, Measure, Property, TaskState, Trace};

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
    /// Whether `trace` satisfies the constraint over `[0, horizon]`, and
    /// the detail the report prints.
    fn verdict(&self, trace: &Trace, horizon: SimTime) -> (bool, String) {
        let (TimingConstraint::ReactionWithin {
            reactor: function, ..
        }
        | TimingConstraint::CompletionWithin { function, .. }
        | TimingConstraint::MinActivity { function, .. }) = self;
        let Some(actor) = trace.actor_by_name(function) else {
            return (
                false,
                format!("function `{function}` not present in the trace"),
            );
        };
        let measure = Measure::new(trace);
        match self {
            TimingConstraint::ReactionWithin {
                stimulus, bound, ..
            } => {
                let latencies = measure.reaction_times(stimulus, actor);
                let stimuli = trace.annotation_times(stimulus).len();
                let unanswered = stimuli - latencies.len();
                match latencies.into_iter().max() {
                    Some(w) => (
                        unanswered == 0 && w <= *bound,
                        format!(
                            "worst reaction {w} (bound {bound}), {stimuli} stimuli, {unanswered} unanswered"
                        ),
                    ),
                    None => (stimuli == 0, format!("{stimuli} stimuli, none answered")),
                }
            }
            TimingConstraint::CompletionWithin { bound, .. } => {
                // Job segmentation (activation out of a synchronization
                // wait, completion at the next block) comes from
                // `Measure::jobs`. A job still open at the horizon is
                // violated once its bound has expired.
                let jobs = measure.jobs(actor);
                let holds = jobs.iter().all(|job| match job.response() {
                    Some(response) => response <= *bound,
                    None => job.activated.saturating_add(*bound) >= horizon,
                });
                let worst = jobs.iter().filter_map(Job::response).max();
                (
                    holds,
                    format!(
                        "worst response {} over {} activations (bound {bound})",
                        worst.map_or_else(|| "n/a".to_owned(), |w| w.to_string()),
                        jobs.len()
                    ),
                )
            }
            TimingConstraint::MinActivity { min_ratio, .. } => {
                let running =
                    measure.time_in_state(actor, TaskState::Running, SimTime::ZERO, horizon);
                let ratio = running.as_ps() as f64 / horizon.as_ps().max(1) as f64;
                (
                    ratio >= *min_ratio,
                    format!(
                        "activity {:.1}% (min {:.1}%)",
                        ratio * 100.0,
                        min_ratio * 100.0
                    ),
                )
            }
        }
    }
}

/// A timing constraint reports exactly one finding, pass or fail.
impl Property for TimingConstraint {
    fn name(&self) -> &str {
        match self {
            TimingConstraint::ReactionWithin { name, .. }
            | TimingConstraint::CompletionWithin { name, .. }
            | TimingConstraint::MinActivity { name, .. } => name,
        }
    }

    fn check(&self, trace: &Trace, horizon: SimTime) -> Vec<Finding> {
        let (holds, message) = self.verdict(trace, horizon);
        vec![self.finding(holds, message)]
    }
}

/// What a model's properties found on one trace.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ConstraintReport {
    /// Every property's findings, in declaration order.
    pub findings: Vec<Finding>,
}

impl ConstraintReport {
    /// Checks `properties` against `trace` over `[0, horizon]`.
    pub(crate) fn new(properties: &[Box<dyn Property>], trace: &Trace, horizon: SimTime) -> Self {
        ConstraintReport {
            findings: properties
                .iter()
                .flat_map(|p| p.check(trace, horizon))
                .collect(),
        }
    }

    /// `true` when every finding holds.
    pub fn all_satisfied(&self) -> bool {
        self.findings.iter().all(|f| f.holds)
    }

    /// The findings that do not hold.
    pub fn violations(&self) -> impl Iterator<Item = &Finding> + '_ {
        self.findings.iter().filter(|f| !f.holds)
    }
}

impl fmt::Display for ConstraintReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for finding in &self.findings {
            writeln!(
                f,
                "[{}] {} — {}",
                if finding.holds { "PASS" } else { "FAIL" },
                finding.property,
                finding.message
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtsim_trace::{ActorKind, TraceRecorder};

    fn ps(v: u64) -> SimTime {
        SimTime::from_ps(v)
    }

    /// The one finding `constraint` reports on `trace` over `[0, horizon]`.
    fn check(constraint: TimingConstraint, trace: &Trace, horizon: u64) -> Finding {
        let mut findings = constraint.check(trace, ps(horizon));
        assert_eq!(findings.len(), 1, "{findings:?}");
        findings.remove(0)
    }

    fn reaction(bound: u64) -> TimingConstraint {
        TimingConstraint::ReactionWithin {
            name: "c1".into(),
            stimulus: "tick".into(),
            reactor: "F".into(),
            bound: SimDuration::from_ps(bound),
        }
    }

    fn completion(bound: u64) -> TimingConstraint {
        TimingConstraint::CompletionWithin {
            name: "deadline".into(),
            function: "F".into(),
            bound: SimDuration::from_ps(bound),
        }
    }

    fn activity(function: &str, min_ratio: f64) -> TimingConstraint {
        TimingConstraint::MinActivity {
            name: "busy".into(),
            function: function.into(),
            min_ratio,
        }
    }

    #[test]
    fn reaction_constraint_pass_and_fail() {
        let rec = TraceRecorder::new();
        let clk = rec.register("clk", ActorKind::Task);
        let f = rec.register("F", ActorKind::Task);
        rec.annotate(clk, ps(100), "tick");
        rec.state(f, ps(130), TaskState::Running);
        let trace = rec.snapshot();
        let pass = check(reaction(50), &trace, 1_000);
        assert!(pass.holds, "{pass:?}");
        assert_eq!(pass.property, "c1");
        let fail = check(reaction(10), &trace, 1_000);
        assert!(!fail.holds);
        assert_eq!(
            fail.message,
            "worst reaction 30 ps (bound 10 ps), 1 stimuli, 0 unanswered"
        );
    }

    #[test]
    fn unanswered_stimulus_fails_reaction_constraint() {
        let rec = TraceRecorder::new();
        let clk = rec.register("clk", ActorKind::Task);
        let _f = rec.register("F", ActorKind::Task);
        rec.annotate(clk, ps(100), "tick");
        let finding = check(reaction(10), &rec.snapshot(), 1_000);
        assert!(!finding.holds);
        assert_eq!(finding.message, "1 stimuli, none answered");
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
        let finding = check(completion(95), &trace, 1_000);
        assert!(finding.holds, "{finding:?}");
        assert_eq!(
            finding.message,
            "worst response 90 ps over 2 activations (bound 95 ps)"
        );
        assert!(!check(completion(60), &trace, 1_000).holds);
    }

    #[test]
    fn incomplete_activation_violates_after_bound() {
        let rec = TraceRecorder::new();
        let f = rec.register("F", ActorKind::Task);
        rec.state(f, ps(0), TaskState::Ready);
        rec.state(f, ps(10), TaskState::Running); // never completes
        let trace = rec.snapshot();
        assert!(!check(completion(100), &trace, 10_000).holds);
        // Still within its bound at the horizon: not (yet) violated.
        assert!(check(completion(100), &trace, 100).holds);
    }

    #[test]
    fn min_activity_constraint() {
        let rec = TraceRecorder::new();
        let f = rec.register("F", ActorKind::Task);
        rec.state(f, ps(0), TaskState::Running);
        rec.state(f, ps(300), TaskState::Waiting);
        let trace = rec.snapshot();
        assert!(check(activity("F", 0.25), &trace, 1_000).holds);
        let fail = check(activity("F", 0.5), &trace, 1_000);
        assert!(!fail.holds);
        assert_eq!(fail.message, "activity 30.0% (min 50.0%)");
    }

    #[test]
    fn missing_actor_fails_gracefully() {
        let trace = TraceRecorder::new().snapshot();
        let finding = check(activity("ghost", 0.1), &trace, 100);
        assert!(!finding.holds);
        assert_eq!(finding.message, "function `ghost` not present in the trace");
    }
}
