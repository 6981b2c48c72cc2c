//! Timing constraints and the report of a model's properties.
//!
//! The paper closes with: *"Another improvement we can imagine now is
//! automatic verification of timing constraints by simulation after
//! setting these constraints in the initial system model."* This module
//! implements that improvement: a [`TimingConstraint`] is a
//! [`Property`] declared on the [`SystemModel`](crate::SystemModel), and
//! [`ConstraintReport`] collects what a model's properties find on a
//! trace, after a plain run or on each schedule the explorer reaches.
//! An elaborated system keeps one state per declared property in its
//! world, where a fork copies it like any model state, and folds its
//! trace into them as it grows.

use std::fmt;

use rtsim_kernel::world::{Slot, World};
use rtsim_kernel::{SimDuration, SimTime};
use rtsim_trace::{
    ActorId, ActorInfo, Finding, JobFold, Label, Property, Record, TaskState, TraceData, TraceLog,
};

/// A declarative timing requirement on the modeled system.
#[derive(Debug, Clone, PartialEq)]
pub enum TimingConstraint {
    /// Every occurrence of the trace annotation `stimulus` must be
    /// followed by `reactor` entering Running within `bound` — the
    /// external-event-to-reaction latency the paper measures on the
    /// TimeLine chart. A Running entered at the stimulus's own instant
    /// answers it, recorded before it or after.
    ReactionWithin {
        /// Constraint name for the report.
        name: String,
        /// Annotation label marking the stimulus, interned once (build it
        /// from the text with `.into()`).
        stimulus: Label,
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

/// What a [`TimingConstraint`] keeps of a run: its function once
/// registered, and the tallies of its kind.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub struct ConstraintTally {
    function: Option<ActorId>,
    /// Stimuli seen, and how many of them wait for the reactor.
    stimuli: u64,
    pending: u64,
    /// The oldest waiting stimulus.
    pending_since: SimTime,
    /// The worst latency of an answered stimulus.
    worst: Option<SimDuration>,
    /// When the function last entered Running, and whether it still runs.
    ran_at: Option<SimTime>,
    running: bool,
    /// The function's completed Running time before `ran_at`.
    running_ps: u64,
    /// The function's jobs.
    jobs: JobFold,
}

impl TimingConstraint {
    /// The constrained function's name.
    fn function(&self) -> &str {
        let (TimingConstraint::ReactionWithin { reactor: f, .. }
        | TimingConstraint::CompletionWithin { function: f, .. }
        | TimingConstraint::MinActivity { function: f, .. }) = self;
        f
    }

    /// Whether the run folded into `tally` satisfies the constraint over
    /// `[0, horizon]`, and the detail the report prints.
    fn verdict(&self, tally: &ConstraintTally, horizon: SimTime) -> (bool, String) {
        match self {
            TimingConstraint::ReactionWithin { bound, .. } => {
                let (stimuli, unanswered) = (tally.stimuli, tally.pending);
                match tally.worst {
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
                // A job still open at the horizon is violated once its
                // bound has expired.
                let jobs = &tally.jobs;
                let worst = (jobs.jobs() > 0).then(|| SimDuration::from_ps(jobs.max_ps()));
                let holds = worst.is_none_or(|w| w <= *bound)
                    && jobs.oldest_open_ps().is_none_or(|activated| {
                        SimTime::from_ps(activated).saturating_add(*bound) >= horizon
                    });
                (
                    holds,
                    format!(
                        "worst response {} over {} activations (bound {bound})",
                        worst.map_or_else(|| "n/a".to_owned(), |w| w.to_string()),
                        jobs.jobs() + jobs.open_jobs()
                    ),
                )
            }
            TimingConstraint::MinActivity { min_ratio, .. } => {
                let mut running = tally.running_ps;
                if let (true, Some(since)) = (tally.running, tally.ran_at) {
                    running += horizon.as_ps().saturating_sub(since.as_ps());
                }
                let ratio = running as f64 / horizon.as_ps().max(1) as f64;
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
    type State = ConstraintTally;

    fn name(&self) -> &str {
        match self {
            TimingConstraint::ReactionWithin { name, .. }
            | TimingConstraint::CompletionWithin { name, .. }
            | TimingConstraint::MinActivity { name, .. } => name,
        }
    }

    fn observe(&self, tally: &mut ConstraintTally, actors: &[ActorInfo], records: &[Record]) {
        tally.function = tally
            .function
            .or_else(|| ActorId::find(actors, self.function()));
        let stimulus = match self {
            TimingConstraint::ReactionWithin { stimulus, .. } => Some(*stimulus),
            _ => None,
        };
        for r in records {
            match r.data {
                TraceData::Annotation(label) if Some(label) == stimulus => {
                    tally.stimuli += 1;
                    if tally.ran_at == Some(r.at) {
                        tally.worst = tally.worst.max(Some(SimDuration::ZERO));
                    } else {
                        if tally.pending == 0 {
                            tally.pending_since = r.at;
                        }
                        tally.pending += 1;
                    }
                }
                TraceData::State(state) if Some(r.actor) == tally.function => {
                    tally.jobs.observe(r.at, state);
                    if let (true, Some(since)) = (tally.running, tally.ran_at) {
                        tally.running_ps += r.at.as_ps() - since.as_ps();
                    }
                    tally.running = state == TaskState::Running;
                    if tally.running {
                        tally.ran_at = Some(r.at);
                        if tally.pending > 0 {
                            let latency = r.at - tally.pending_since;
                            tally.worst = tally.worst.max(Some(latency));
                            tally.pending = 0;
                        }
                    }
                }
                _ => {}
            }
        }
    }

    fn finish(&self, tally: &ConstraintTally, _: &[ActorInfo], horizon: SimTime) -> Vec<Finding> {
        let (holds, message) = if tally.function.is_some() {
            self.verdict(tally, horizon)
        } else {
            let function = self.function();
            (
                false,
                format!("function `{function}` not present in the trace"),
            )
        };
        vec![self.finding(holds, message)]
    }
}

/// A declared [`Property`], its type erased: how a model keeps
/// properties of every kind side by side until elaboration.
pub(crate) trait Declared: Send + Sync {
    /// Puts an empty state of the property in `world`, where a fork of
    /// the world copies it with `clone_from` like any model state, and
    /// returns the property bound to it.
    fn install(self: Box<Self>, world: &mut World) -> Box<dyn Monitor>;
}

impl<P: Property> Declared for P {
    fn install(self: Box<Self>, world: &mut World) -> Box<dyn Monitor> {
        let state = world.insert(P::State::default());
        Box::new((*self, state))
    }
}

/// A property of an elaborated system, bound to its state's world slot.
/// One dynamic call folds a whole slice of records.
pub(crate) trait Monitor: Send + Sync {
    /// Folds `log`'s records from `from` on into the state.
    fn fold(&self, world: &mut World, log: Slot<TraceLog>, from: usize);

    /// The findings on the state, for a run over `[0, horizon]`.
    fn report(&self, world: &World, log: Slot<TraceLog>, horizon: SimTime) -> Vec<Finding>;
}

impl<P: Property> Monitor for (P, Slot<P::State>) {
    fn fold(&self, world: &mut World, log: Slot<TraceLog>, from: usize) {
        let (log, state) = world.pair_mut(log, self.1);
        self.0.observe(state, log.actors(), &log.records()[from..]);
    }

    fn report(&self, world: &World, log: Slot<TraceLog>, horizon: SimTime) -> Vec<Finding> {
        let actors = world.get(log).actors();
        self.0.finish(world.get(self.1), actors, horizon)
    }
}

/// What a model's properties found on one trace.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ConstraintReport {
    /// Every property's findings, in declaration order.
    pub findings: Vec<Finding>,
}

impl ConstraintReport {
    /// Folds the records of `log` not folded yet (the `folded` first are)
    /// into the `monitors`' states in `world`, and finishes them for a run
    /// over `[0, horizon]`.
    pub(crate) fn new(
        monitors: &[Box<dyn Monitor>],
        folded: Slot<usize>,
        log: Slot<TraceLog>,
        world: &mut World,
        horizon: SimTime,
    ) -> Self {
        fold(monitors, folded, log, world);
        ConstraintReport {
            findings: monitors
                .iter()
                .flat_map(|m| m.report(world, log, horizon))
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

/// Folds the records of `log` not folded yet (the `folded` first are)
/// into the `monitors`' states in `world`: one call per property.
pub(crate) fn fold(
    monitors: &[Box<dyn Monitor>],
    folded: Slot<usize>,
    log: Slot<TraceLog>,
    world: &mut World,
) {
    let from = *world.get(folded);
    for monitor in monitors {
        monitor.fold(world, log, from);
    }
    *world.get_mut(folded) = world.get(log).records().len();
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
    use rtsim_trace::{ActorKind, Trace, TraceRecorder};

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
