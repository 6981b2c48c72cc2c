//! Properties are folds: checking a trace whole gives the findings of
//! folding it in slices, with the monitor state copied by `clone_from`
//! into a used state at every cut, as the explorer's fork into a spare
//! copies it. Random traces mix every actor kind, the records the
//! properties read, and actors registered between slices; several
//! records share an instant, in any order. A failure prints the
//! `RTSIM_PROP_SEED` that replays it.
//!
//! The subtle orders of the findings are pinned on hand-made traces
//! below.

use rtsim_check::{
    AllTasksTerminate, CriticalSectionExclusion, MutexExclusion, NoLostMessage, NoMissedDeadline,
    PriorityInversionBound,
};
use rtsim_kernel::testutil::{check, Rng};
use rtsim_kernel::{SimDuration, SimTime};
use rtsim_mcse::TimingConstraint;
use rtsim_trace::{ActorKind, CommKind, Finding, Property, TaskState, Trace, TraceRecorder};

/// One step of a random run: register an actor, or record at `dt` after
/// the previous record on the `pick`-th registered actor.
#[derive(Debug, Clone)]
enum Step {
    Register(ActorKind),
    Record { dt: u64, pick: usize, what: u8 },
}

const KINDS: [ActorKind; 3] = [ActorKind::Task, ActorKind::Processor, ActorKind::Relation];
const STATES: [TaskState; 6] = [
    TaskState::Created,
    TaskState::Ready,
    TaskState::Running,
    TaskState::Waiting,
    TaskState::WaitingResource,
    TaskState::Terminated,
];
const LABELS: [&str; 5] = ["cs_enter", "cs_exit", "deadline_miss", "tick", "other"];

fn gen_steps(rng: &mut Rng) -> Vec<Step> {
    let mut steps = vec![Step::Register(*rng.choose(&KINDS))];
    for _ in 0..rng.gen_range(0usize..60) {
        steps.push(if rng.gen_bool(0.1) {
            Step::Register(*rng.choose(&KINDS))
        } else {
            Step::Record {
                dt: if rng.gen_bool(0.5) {
                    0
                } else {
                    rng.gen_range(1u64..40)
                },
                pick: rng.gen_range(0usize..8),
                what: rng.gen_range(0u8..20),
            }
        });
    }
    steps
}

/// A run's trace, and after each step the records and actors it had.
struct Run {
    trace: Trace,
    counts: Vec<(usize, usize)>,
}

fn record(steps: &[Step]) -> Run {
    let rec = TraceRecorder::new();
    let (mut actors, mut at, mut counts) = (Vec::new(), 0, Vec::new());
    for step in steps {
        match *step {
            Step::Register(kind) => {
                actors.push(rec.register(&format!("a{}", actors.len()), kind));
            }
            Step::Record { dt, pick, what } => {
                at += dt;
                let (actor, t) = (actors[pick % actors.len()], SimTime::from_ps(at));
                let other = actors[usize::from(what) % actors.len()];
                match what % 5 {
                    0 | 1 => rec.state(actor, t, STATES[usize::from(what) % 6]),
                    2 => rec.annotate(actor, t, LABELS[usize::from(what) % 5]),
                    3 => {
                        let kind = [CommKind::Read, CommKind::Write, CommKind::Signal];
                        rec.comm(actor, t, other, kind[usize::from(what) % 3]);
                    }
                    _ if what % 2 == 0 => rec.queue_depth(actor, t, usize::from(what) % 3, 4),
                    _ => rec.resource_held(actor, t, what % 3 == 0),
                }
            }
        }
        counts.push((rec.len(), actors.len()));
    }
    Run {
        trace: rec.snapshot(),
        counts,
    }
}

/// `property`'s findings on `run`, folded in slices cut after the steps
/// `cuts` names, each slice seeing only the actors registered by then;
/// at each cut the state moves by `clone_from` into a copy of `used`.
fn fold_in_slices<P: Property>(
    property: &P,
    run: &Run,
    cuts: &[usize],
    used: &P::State,
    horizon: SimTime,
) -> Vec<Finding> {
    let (actors, records) = (run.trace.actors(), run.trace.records());
    let mut state = P::State::default();
    let mut from = 0;
    for &cut in cuts {
        let (to, registered) = run.counts[cut % run.counts.len()];
        if to < from {
            continue;
        }
        property.observe(&mut state, &actors[..registered], &records[from..to]);
        let mut spare = used.clone();
        spare.clone_from(&state);
        state = spare;
        from = to;
    }
    property.observe(&mut state, actors, &records[from..]);
    property.finish(&state, actors, horizon)
}

/// Whole-trace findings equal the sliced fold's, for `property`.
fn agrees<P: Property>(property: &P, run: &Run, other: &Run, cuts: &[usize], slack: u64) {
    let horizon = run.trace.horizon() + SimDuration::from_ps(slack);
    let mut used = P::State::default();
    property.observe(&mut used, other.trace.actors(), other.trace.records());
    assert_eq!(
        property.check(&run.trace, horizon),
        fold_in_slices(property, run, cuts, &used, horizon),
        "{}",
        property.name()
    );
}

#[test]
fn a_fold_in_slices_finds_what_the_whole_trace_check_finds() {
    check(
        256,
        |rng| {
            let steps = gen_steps(rng);
            let mut cuts = rng.gen_vec(0..6, |r| r.gen_range(0usize..64));
            cuts.sort_unstable();
            let other = gen_steps(rng);
            let bound = rng.gen_range(0u64..80);
            (steps, cuts, other, bound, rng.gen_range(0u64..50))
        },
        |(steps, cuts, other, bound, slack)| {
            let (run, other) = (record(steps), record(other));
            let bound = SimDuration::from_ps(*bound);
            agrees(&NoMissedDeadline, &run, &other, cuts, *slack);
            agrees(&NoLostMessage, &run, &other, cuts, *slack);
            agrees(&AllTasksTerminate, &run, &other, cuts, *slack);
            agrees(&MutexExclusion, &run, &other, cuts, *slack);
            agrees(&CriticalSectionExclusion, &run, &other, cuts, *slack);
            let inversion = PriorityInversionBound {
                victim: "a0".into(),
                offender: "a2".into(),
                bound,
            };
            agrees(&inversion, &run, &other, cuts, *slack);
            let constraints = [
                TimingConstraint::ReactionWithin {
                    name: "reaction".into(),
                    stimulus: "tick".into(),
                    reactor: "a1".into(),
                    bound,
                },
                TimingConstraint::CompletionWithin {
                    name: "completion".into(),
                    function: "a2".into(),
                    bound,
                },
                TimingConstraint::MinActivity {
                    name: "activity".into(),
                    function: "a0".into(),
                    min_ratio: 0.25,
                },
            ];
            for constraint in &constraints {
                agrees(constraint, &run, &other, cuts, *slack);
            }
        },
    );
}

fn ps(v: u64) -> SimTime {
    SimTime::from_ps(v)
}

fn messages<P: Property>(property: &P, trace: &Trace, horizon: u64) -> Vec<String> {
    let findings = property.check(trace, ps(horizon));
    findings.into_iter().map(|f| f.message).collect()
}

#[test]
fn mutex_breaches_come_per_resource_then_its_hold() {
    let rec = TraceRecorder::new();
    let (a, b) = (
        rec.register("A", ActorKind::Relation),
        rec.register("B", ActorKind::Relation),
    );
    rec.resource_held(b, ps(1), true);
    rec.resource_held(a, ps(2), true);
    rec.resource_held(b, ps(3), true);
    rec.resource_held(a, ps(4), true);
    assert_eq!(
        messages(&MutexExclusion, &rec.snapshot(), 10),
        [
            "resource `A` acquired twice in a row at 4ps",
            "resource `A` still held at end of horizon",
            "resource `B` acquired twice in a row at 3ps",
            "resource `B` still held at end of horizon",
        ]
    );
}

#[test]
fn a_section_never_exited_comes_before_any_overlap() {
    let rec = TraceRecorder::new();
    let (x, y, z) = (
        rec.register("X", ActorKind::Task),
        rec.register("Y", ActorKind::Task),
        rec.register("Z", ActorKind::Task),
    );
    rec.annotate(y, ps(0), "cs_enter");
    rec.annotate(x, ps(1), "cs_enter");
    rec.annotate(y, ps(5), "cs_exit");
    rec.annotate(x, ps(6), "cs_exit");
    rec.annotate(z, ps(7), "cs_enter");
    assert_eq!(
        messages(&CriticalSectionExclusion, &rec.snapshot(), 10),
        [
            "task `Z` never exits its critical section",
            "critical sections overlap: `X` [1..6ps] and `Y` [0..5ps]",
        ]
    );
}

#[test]
fn a_reaction_at_the_stimulus_instant_answers_it_even_recorded_before() {
    let rec = TraceRecorder::new();
    let (clk, f) = (
        rec.register("clk", ActorKind::Task),
        rec.register("F", ActorKind::Task),
    );
    rec.state(f, ps(10), TaskState::Running);
    rec.annotate(clk, ps(10), "tick");
    rec.state(f, ps(12), TaskState::Waiting);
    rec.annotate(clk, ps(20), "tick");
    rec.state(f, ps(27), TaskState::Running);
    let reaction = TimingConstraint::ReactionWithin {
        name: "r".into(),
        stimulus: "tick".into(),
        reactor: "F".into(),
        bound: SimDuration::from_ps(7),
    };
    assert_eq!(
        messages(&reaction, &rec.snapshot(), 30),
        ["worst reaction 7 ps (bound 7 ps), 2 stimuli, 0 unanswered"]
    );
}

#[test]
fn an_inversion_closes_at_the_last_record_not_the_horizon() {
    let rec = TraceRecorder::new();
    let (hi, lo) = (
        rec.register("Hi", ActorKind::Task),
        rec.register("Lo", ActorKind::Task),
    );
    rec.state(hi, ps(0), TaskState::Ready);
    rec.state(lo, ps(5), TaskState::Running);
    rec.annotate(hi, ps(30), "mark");
    let bound = PriorityInversionBound {
        victim: "Hi".into(),
        offender: "Lo".into(),
        bound: SimDuration::from_ps(10),
    };
    assert_eq!(
        messages(&bound, &rec.snapshot(), 1_000),
        ["`Hi` blocked 25ps while `Lo` ran (bound 10ps)"]
    );
}
