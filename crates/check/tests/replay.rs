//! A choice sequence that does not fit its scenario is an error, never a
//! panic or a silent success: `try_replay` names the out-of-range choice
//! (its depth and the choice point's arity) or counts the surplus, and
//! `rtsim-check --replay` prints that and exits 2. A counterexample the
//! explorer found still replays to its violation, one found past the
//! stable order names the candidates of its own schedule, and the replay
//! line it prints works: the CLI's for a scenario of the registry, the
//! library's for any other, even one that shares a registered name.

use std::process::Command;

use rtsim_check::scenarios::{toy_scenario, toy_system};
use rtsim_check::{
    explore, replay, scenario_by_name, try_replay, Budget, CheckScenario, Expectation, ReplayError,
    SCENARIOS,
};
use rtsim_kernel::SimTime;
use rtsim_mcse::SystemModel;
use rtsim_trace::CommKind::Read;
use rtsim_trace::TraceData::Comm;
use rtsim_trace::{ActorInfo, Finding, Property, Record};

#[test]
fn an_out_of_range_choice_names_its_depth_and_arity() {
    let rivals = scenario_by_name("rivals").unwrap();
    let err = try_replay(rivals, &[9]).unwrap_err();
    assert_eq!(
        err,
        ReplayError::OutOfRange {
            depth: 0,
            choice: 9,
            arity: 4
        }
    );
    let text = err.to_string();
    assert!(
        text.contains("depth 0") && text.contains("4 candidates"),
        "{text}"
    );
}

#[test]
fn surplus_choices_are_counted() {
    let rivals = scenario_by_name("rivals").unwrap();
    // The stable schedule of `rivals` meets 11 choice points.
    let err = try_replay(rivals, &[0; 30]).unwrap_err();
    assert_eq!(
        err,
        ReplayError::Surplus {
            used: 11,
            surplus: 19
        }
    );
    assert!(try_replay(rivals, &[0; 11]).is_ok());
}

#[test]
#[should_panic(expected = "replay diverged: choice 9 at depth 0 is out of range")]
fn replay_panics_on_a_sequence_that_does_not_fit() {
    replay(scenario_by_name("rivals").unwrap(), &[9]);
}

#[test]
fn a_mutant_counterexample_still_replays() {
    for name in ["mutant_deadline", "mutant_lost", "mutant_mutex"] {
        let scenario = scenario_by_name(name).unwrap();
        let cx = explore(scenario, &Budget::default())
            .counterexample
            .unwrap_or_else(|| panic!("{name} was not flagged"));
        let (_, violations) = try_replay(scenario, &cx.choices).expect("the witness fits");
        assert!(
            !violations.is_empty(),
            "{name}: the witness no longer violates"
        );
    }
}

/// Flags a toy run in which `W1` takes a tick before `W0` does. The
/// stable order dispatches `W0` first at every tie, so only a schedule
/// past it violates this.
struct TickOrder;

/// The ticks `W0` and `W1` have read, and the rounds `W1` read first.
#[derive(Clone, Default, Hash)]
struct Ticks {
    reads: [usize; 2],
    late: Vec<usize>,
}

impl Property for TickOrder {
    type State = Ticks;

    fn name(&self) -> &str {
        "tick-order"
    }

    fn observe(&self, ticks: &mut Ticks, actors: &[ActorInfo], records: &[Record]) {
        for r in records {
            if !matches!(r.data, Comm { kind: Read, .. }) {
                continue;
            }
            match actors[r.actor.index()].name.as_str() {
                "W0" => {
                    ticks.reads[0] += 1;
                    if ticks.reads[0] <= ticks.reads[1] {
                        ticks.late.push(ticks.reads[0]);
                    }
                }
                "W1" => ticks.reads[1] += 1,
                _ => {}
            }
        }
    }

    fn finish(&self, ticks: &Ticks, _: &[ActorInfo], _: SimTime) -> Vec<Finding> {
        ticks
            .late
            .iter()
            .map(|round| {
                self.finding(
                    false,
                    format!("round {round}: `W1` took the tick before `W0`"),
                )
            })
            .collect()
    }
}

/// The two-worker, two-round toy with [`TickOrder`] declared next to its
/// built-in oracles.
fn toy_with_tick_order() -> SystemModel {
    let mut model = toy_system(2, 2);
    model.constraint(TickOrder);
    model
}

#[test]
fn a_counterexample_past_the_stable_order_labels_its_own_schedule() {
    let scenario = CheckScenario {
        build: toy_with_tick_order,
        ..toy_scenario(2, 2)
    };
    let outcome = explore(&scenario, &Budget::default());
    let cx = outcome.counterexample.expect("the second round is raced");
    // Found on a schedule resumed from a fork, not on the first run.
    assert_eq!((outcome.runs, outcome.fresh), (5, 1));
    // From frame #5 on, the labels are those of the run that took `W1`
    // first, not of the stable order that first branched there.
    assert_eq!(
        cx.render(),
        "counterexample for `toy`:
  violated [tick-order]: round 2: `W1` took the tick before `W0`
  choice stack (8 decisions, 8 branching):
    #0 @0ps dispatch: took [0] dispatch Clock <- timeout (of 3)
    #1 @0ps dispatch: took [0] dispatch W0 <- timeout (of 2)
    #2 @50000000ps dispatch: took [0] dispatch W0 <- W0.hw_wake (of 2)
    #3 @55000000ps timer: took [0] timer-wake W0 (of 2)
    #4 @55000000ps dispatch: took [0] dispatch W0 <- timeout (of 2)
    #5 @100000000ps dispatch: took [1] dispatch W1 <- W1.hw_wake (of 2)
    #6 @105000000ps timer: took [0] timer-wake W1 (of 2)
    #7 @105000000ps dispatch: took [0] dispatch W1 <- timeout (of 2)
  replay: rtsim_check::replay(&scenario, &[0, 0, 0, 0, 0, 1, 0, 0])
"
    );
    let (_, violations) = replay(&scenario, &cx.choices);
    assert_eq!(violations.len(), 1, "{violations:?}");
}

/// A scenario that only shares a registered name is not what
/// `rtsim-check --replay` of that name replays: its counterexample prints
/// the library's replay line.
#[test]
fn a_scenario_sharing_a_registered_name_prints_the_library_replay_line() {
    let scenario = CheckScenario {
        name: "mutant_lost",
        ..*scenario_by_name("mutant_deadline").unwrap()
    };
    let cx = explore(&scenario, &Budget::default())
        .counterexample
        .expect("the deadline mutant is flagged under another name");
    assert_eq!(
        cx.render(),
        "counterexample for `mutant_lost`:
  violated [no-missed-deadline]: deadline missed at 100000000ps
  choice stack (1 decisions, 1 branching):
    #0 @0ps dispatch: took [0] dispatch CPU.dispatcher <- timeout (of 2)
  replay: rtsim_check::replay(&scenario, &[0])
"
    );
    let (_, violations) = replay(&scenario, &cx.choices);
    assert_eq!(violations, cx.violations);
}

/// Runs the CLI: its exit status, stdout and stderr.
fn rtsim_check(args: &[&str]) -> (Option<i32>, String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_rtsim-check"))
        .args(args)
        .output()
        .expect("rtsim-check runs");
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn each_mutant_replays_through_the_cli_line_its_counterexample_prints() {
    for scenario in SCENARIOS
        .iter()
        .filter(|s| s.expect == Expectation::Violate)
    {
        let cx = explore(scenario, &Budget::default())
            .counterexample
            .unwrap_or_else(|| panic!("{} was not flagged", scenario.name));
        let render = cx.render();
        let line = render
            .lines()
            .find_map(|l| l.strip_prefix("  replay: "))
            .unwrap_or_else(|| panic!("no replay line in\n{render}"));
        let args: Vec<&str> = line
            .strip_prefix("rtsim-check ")
            .unwrap_or_else(|| panic!("not a CLI line: {line}"))
            .split(' ')
            .collect();
        let (code, stdout, stderr) = rtsim_check(&args);
        assert_eq!(code, Some(1), "{line}: {stderr}");
        // The line carries the whole choice stack.
        let forced = format!(
            "replayed `{}` with {} forced choices:",
            scenario.name,
            cx.choices.len()
        );
        assert!(stdout.starts_with(&forced), "{line}: {stdout}");
        let violated = |text: &str| -> Vec<String> {
            text.lines()
                .map(str::trim_start)
                .filter(|l| l.starts_with("violated ["))
                .map(str::to_owned)
                .collect()
        };
        assert!(!violated(&render).is_empty(), "{render}");
        assert_eq!(violated(&stdout), violated(&render), "{line}");
    }
}

#[test]
fn the_cli_rejects_a_bad_replay_with_exit_status_2() {
    let (code, _, stderr) = rtsim_check(&["--replay", "rivals:9"]);
    assert_eq!(code, Some(2), "{stderr}");
    assert!(stderr.contains("out of range"), "{stderr}");

    let zeros = vec!["0"; 30].join(",");
    let (code, _, stderr) = rtsim_check(&["--replay", &format!("rivals:{zeros}")]);
    assert_eq!(code, Some(2), "{stderr}");
    assert!(stderr.contains("19 surplus choices"), "{stderr}");

    // A fitting sequence still replays (a mutant's violation: exit 1).
    let (code, _, _) = rtsim_check(&["--replay", "mutant_deadline:"]);
    assert_eq!(code, Some(1));
}
