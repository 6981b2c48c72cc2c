//! Stopping at scheduler choice points: `run_to_choice` presents every
//! tie kind with its candidates in the stable order, and deciding another
//! candidate really redirects the tie-break, while deciding candidate 0
//! everywhere equals a run that never stops.

use std::sync::{Arc, Mutex as StdMutex};

use rtsim_kernel::{ChoiceKind, SimDuration, SimTime, Simulator};

fn us(n: u64) -> SimDuration {
    SimDuration::from_us(n)
}

/// Every choice point a run stopped at: its kind and the candidate labels.
type ChoiceLog = Vec<(ChoiceKind, Vec<String>)>;

/// Runs `sim` to starvation without stopping.
fn run_plain(sim: &mut Simulator) -> ChoiceLog {
    sim.run().unwrap();
    Vec::new()
}

/// Runs `sim` to starvation, stopping at every choice point. A tie of
/// kind `reverse` takes its LAST candidate (the stable order's mirror
/// image) and every other tie candidate 0, so each test flips exactly the
/// tie it is about — reversing every choice at once also reverses
/// wait-registration order and the flips cancel out. Asking again
/// before deciding must stop at the same point.
fn run_deciding(sim: &mut Simulator, reverse: Option<ChoiceKind>) -> ChoiceLog {
    let mut seen = Vec::new();
    while let Some(point) = sim.run_to_choice(SimTime::MAX).unwrap() {
        assert_eq!(sim.run_to_choice(SimTime::MAX).unwrap(), Some(point));
        let labels = (0..point.arity)
            .map(|i| sim.candidate_label(sim.candidate(i)))
            .collect();
        seen.push((point.kind, labels));
        sim.decide(if Some(point.kind) == reverse {
            point.arity - 1
        } else {
            0
        });
    }
    seen
}

/// One shared event wakes two equal processes: they resume in
/// registration order, deciding candidate 0 at every stop changes
/// nothing, and reversing the Dispatch tie flips the order — at a real
/// two-way dispatch choice. The waiters register at staggered times so
/// the wait-registration order itself does not depend on a decision.
#[test]
fn deciding_redirects_dispatch_ties_and_stable_matches_no_stop() {
    fn run(drive: impl FnOnce(&mut Simulator) -> ChoiceLog) -> (Vec<&'static str>, ChoiceLog) {
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
        let seen = drive(&mut sim);
        let got = order.lock().unwrap().clone();
        (got, seen)
    }

    let (baseline, _) = run(run_plain);
    assert_eq!(baseline, vec!["first", "second"]);

    let (stable, _) = run(|sim| run_deciding(sim, None));
    assert_eq!(stable, baseline, "deciding candidate 0 must change nothing");

    let (reversed, seen) = run(|sim| run_deciding(sim, Some(ChoiceKind::Dispatch)));
    assert_eq!(reversed, vec!["second", "first"]);
    assert!(
        seen.iter()
            .any(|(kind, labels)| *kind == ChoiceKind::Dispatch
                && labels
                    .iter()
                    .any(|l| l.starts_with("dispatch") && l.contains("tick"))),
        "the run never stopped at the dispatch tie: {seen:?}"
    );
}

/// Two timed notifications land at the same instant: the run stops
/// before either fires, with both candidates in posting order, and
/// reversing the Timer tie fires them in reverse posting order.
#[test]
fn deciding_redirects_same_instant_timer_ties() {
    fn run(drive: impl FnOnce(&mut Simulator) -> ChoiceLog) -> (Vec<usize>, ChoiceLog) {
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
        let seen = drive(&mut sim);
        let f = fired.lock().unwrap().clone();
        (f, seen)
    }

    let (baseline, _) = run(run_plain);
    assert_eq!(baseline.len(), 2);
    let (reversed, seen) = run(|sim| run_deciding(sim, Some(ChoiceKind::Timer)));
    assert_eq!(
        reversed,
        baseline.iter().rev().copied().collect::<Vec<_>>(),
        "reversing the timer tie must reverse the wake order"
    );
    let timer: Vec<&Vec<String>> = seen
        .iter()
        .filter(|(kind, _)| *kind == ChoiceKind::Timer)
        .map(|(_, labels)| labels)
        .collect();
    assert_eq!(
        timer,
        [&vec![
            "timed-notify alpha".to_owned(),
            "timed-notify beta".to_owned()
        ]],
        "one timer tie, candidates in posting order: {seen:?}"
    );
}

/// Two delta notifications posted in the same evaluation phase form a
/// Delta-kind choice; reversing it flips which event's waiter runs first.
#[test]
fn deciding_redirects_delta_ties() {
    fn run(drive: impl FnOnce(&mut Simulator) -> ChoiceLog) -> (Vec<&'static str>, ChoiceLog) {
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
        let seen = drive(&mut sim);
        let o = order.lock().unwrap().clone();
        (o, seen)
    }

    let (baseline, _) = run(run_plain);
    assert_eq!(baseline, vec!["wa", "wb"]);
    let (reversed, seen) = run(|sim| run_deciding(sim, Some(ChoiceKind::Delta)));
    assert_eq!(reversed, vec!["wb", "wa"]);
    assert!(
        seen.iter().any(|(kind, labels)| *kind == ChoiceKind::Delta
            && labels.contains(&"delta-notify da".to_owned())
            && labels.contains(&"delta-notify db".to_owned())),
        "the run never stopped at the delta tie: {seen:?}"
    );
}
