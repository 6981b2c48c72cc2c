//! The scheduler choice-point hook: the event wheel exposes its
//! same-timestamp ready set as a stable slice, an installed policy really
//! redirects every tie-break, and the identity policy is observationally
//! equal to no policy at all.

use std::sync::{Arc, Mutex as StdMutex};

use rtsim_kernel::choice::{Candidate, ChoiceKind, ChoicePolicy, StableTieBreak};
use rtsim_kernel::{SimDuration, SimTime, Simulator};

fn us(n: u64) -> SimDuration {
    SimDuration::from_us(n)
}

/// Every choice a policy was asked: its kind and the candidate labels.
type ChoiceLog = Arc<StdMutex<Vec<(ChoiceKind, Vec<String>)>>>;

/// Picks the LAST candidate for one targeted choice kind (the built-in
/// stable order's mirror image) and candidate 0 everywhere else, so each
/// test flips exactly the tie it is about — reversing every choice at
/// once also reverses wait-registration order and the flips cancel out.
struct PickLastFor {
    target: ChoiceKind,
    seen: ChoiceLog,
}

impl ChoicePolicy for PickLastFor {
    fn choose(&mut self, _now: SimTime, kind: ChoiceKind, candidates: &[Candidate]) -> usize {
        self.seen
            .lock()
            .unwrap()
            .push((kind, candidates.iter().map(|c| c.label.clone()).collect()));
        if kind == self.target {
            candidates.len() - 1
        } else {
            0
        }
    }
}

/// Two timed notifications land at the same instant: `ripe_timers` must
/// expose both as a slice in posting order, without consuming the wheel.
#[test]
fn ripe_timers_exposes_same_instant_set_as_stable_slice() {
    let mut sim = Simulator::new();
    let a = sim.event("alpha");
    let b = sim.event("beta");
    sim.notify_at(a, SimTime::from_ps(us(10).as_ps()));
    sim.notify_at(b, SimTime::from_ps(us(10).as_ps()));

    let (t, candidates) = sim.ripe_timers().expect("two timers pending");
    assert_eq!(t.as_us(), 10);
    let labels: Vec<&str> = candidates.iter().map(|c| c.label.as_str()).collect();
    assert_eq!(labels, vec!["timed-notify alpha", "timed-notify beta"]);

    // Read-only: asking twice gives the same answer, and the wheel still
    // fires both notifications when the simulation runs.
    let again = sim.ripe_timers().expect("still pending");
    assert_eq!(again.0, t);
    assert_eq!(again.1, candidates);

    let fired = Arc::new(StdMutex::new(Vec::new()));
    let log = Arc::clone(&fired);
    sim.spawn("watch", move |ctx| {
        let first = ctx.wait_any(&[a, b]);
        log.lock().unwrap().push(first.index());
    });
    sim.run().unwrap();
    assert_eq!(fired.lock().unwrap().len(), 1);
    assert!(sim.ripe_timers().is_none(), "wheel drained after the run");
}

/// One shared event wakes two equal processes; with no policy (or the
/// identity policy) they resume in registration order, while reversing
/// the Dispatch tie flips the order — and the policy saw a real two-way
/// dispatch choice. The waiters register at staggered times so the
/// wait-registration order itself is not policy-dependent.
#[test]
fn policy_redirects_dispatch_ties_and_stable_matches_no_policy() {
    fn run(policy: Option<Box<dyn ChoicePolicy>>) -> Vec<&'static str> {
        let order = Arc::new(StdMutex::new(Vec::new()));
        let mut sim = Simulator::new();
        let tick = sim.event("tick");
        for (name, delay) in [("first", 1), ("second", 2)] {
            let order = Arc::clone(&order);
            sim.spawn(name, move |ctx| {
                ctx.wait_for(us(delay));
                ctx.wait_event(tick);
                order.lock().unwrap().push(name);
            });
        }
        sim.spawn("driver", move |ctx| {
            ctx.wait_for(us(5));
            ctx.notify(tick);
        });
        sim.set_choice_policy(policy);
        sim.run().unwrap();
        let got = order.lock().unwrap().clone();
        got
    }

    let baseline = run(None);
    assert_eq!(baseline, vec!["first", "second"]);

    let stable = run(Some(Box::new(StableTieBreak)));
    assert_eq!(stable, baseline, "identity policy must change nothing");

    let seen = Arc::new(StdMutex::new(Vec::new()));
    let reversed = run(Some(Box::new(PickLastFor {
        target: ChoiceKind::Dispatch,
        seen: Arc::clone(&seen),
    })));
    assert_eq!(reversed, vec!["second", "first"]);
    let seen = seen.lock().unwrap();
    assert!(
        seen.iter().any(|(kind, labels)| *kind == ChoiceKind::Dispatch
            && labels
                .iter()
                .any(|l| l.starts_with("dispatch") && l.contains("tick"))),
        "policy never saw the dispatch tie: {seen:?}"
    );
}

/// Two same-instant timed notifications under a reversed Timer tie fire
/// in reverse posting order; the policy records a Timer-kind choice with
/// both candidates labelled.
#[test]
fn policy_redirects_same_instant_timer_ties() {
    fn run(reverse: bool) -> (Vec<usize>, Vec<(ChoiceKind, Vec<String>)>) {
        let seen = Arc::new(StdMutex::new(Vec::new()));
        let fired = Arc::new(StdMutex::new(Vec::new()));
        let mut sim = Simulator::new();
        let a = sim.event("alpha");
        let b = sim.event("beta");
        sim.notify_at(a, SimTime::from_ps(us(5).as_ps()));
        sim.notify_at(b, SimTime::from_ps(us(5).as_ps()));
        for (name, e) in [("wa", a), ("wb", b)] {
            let fired = Arc::clone(&fired);
            sim.spawn(name, move |ctx| {
                ctx.wait_event(e);
                fired.lock().unwrap().push(e.index());
            });
        }
        if reverse {
            sim.set_choice_policy(Some(Box::new(PickLastFor {
                target: ChoiceKind::Timer,
                seen: Arc::clone(&seen),
            })));
        }
        sim.run().unwrap();
        let f = fired.lock().unwrap().clone();
        let s = seen.lock().unwrap().clone();
        (f, s)
    }

    let (baseline, _) = run(false);
    let (reversed, seen) = run(true);
    assert_eq!(baseline.len(), 2);
    assert_eq!(
        reversed,
        baseline.iter().rev().copied().collect::<Vec<_>>(),
        "reversing the timer tie must reverse the wake order"
    );
    assert!(
        seen.iter().any(|(kind, labels)| *kind == ChoiceKind::Timer
            && labels.contains(&"timed-notify alpha".to_owned())
            && labels.contains(&"timed-notify beta".to_owned())),
        "policy never saw the timer tie: {seen:?}"
    );
}

/// Two delta notifications posted in the same evaluation phase form a
/// Delta-kind choice; reversing it flips which event's waiter runs first.
#[test]
fn policy_redirects_delta_ties() {
    fn run(reverse: bool) -> (Vec<&'static str>, Vec<(ChoiceKind, Vec<String>)>) {
        let seen = Arc::new(StdMutex::new(Vec::new()));
        let order = Arc::new(StdMutex::new(Vec::new()));
        let mut sim = Simulator::new();
        let a = sim.event("da");
        let b = sim.event("db");
        for (name, e) in [("wa", a), ("wb", b)] {
            let order = Arc::clone(&order);
            sim.spawn(name, move |ctx| {
                ctx.wait_event(e);
                order.lock().unwrap().push(name);
            });
        }
        sim.spawn("poster", move |ctx| {
            ctx.wait_for(us(1));
            ctx.notify_delta(a);
            ctx.notify_delta(b);
        });
        if reverse {
            sim.set_choice_policy(Some(Box::new(PickLastFor {
                target: ChoiceKind::Delta,
                seen: Arc::clone(&seen),
            })));
        }
        sim.run().unwrap();
        let o = order.lock().unwrap().clone();
        let s = seen.lock().unwrap().clone();
        (o, s)
    }

    let (baseline, _) = run(false);
    assert_eq!(baseline, vec!["wa", "wb"]);
    let (reversed, seen) = run(true);
    assert_eq!(reversed, vec!["wb", "wa"]);
    assert!(
        seen.iter().any(|(kind, labels)| *kind == ChoiceKind::Delta
            && labels.contains(&"delta-notify da".to_owned())
            && labels.contains(&"delta-notify db".to_owned())),
        "policy never saw the delta tie: {seen:?}"
    );
}
