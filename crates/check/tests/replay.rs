//! A choice sequence that does not fit its scenario is an error, never a
//! panic or a silent success: `try_replay` names the out-of-range choice
//! (its depth and the choice point's arity) or counts the surplus, and
//! `rtsim-check --replay` prints that and exits 2. A counterexample the
//! explorer found still replays to its violation.

use std::process::Command;

use rtsim_check::{explore, replay, scenario_by_name, try_replay, Budget, ReplayError};

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

fn rtsim_check(args: &[&str]) -> (Option<i32>, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_rtsim-check"))
        .args(args)
        .output()
        .expect("rtsim-check runs");
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn the_cli_rejects_a_bad_replay_with_exit_status_2() {
    let (code, stderr) = rtsim_check(&["--replay", "rivals:9"]);
    assert_eq!(code, Some(2), "{stderr}");
    assert!(stderr.contains("out of range"), "{stderr}");

    let zeros = vec!["0"; 30].join(",");
    let (code, stderr) = rtsim_check(&["--replay", &format!("rivals:{zeros}")]);
    assert_eq!(code, Some(2), "{stderr}");
    assert!(stderr.contains("19 surplus choices"), "{stderr}");

    // A fitting sequence still replays (a mutant's violation: exit 1).
    let (code, _) = rtsim_check(&["--replay", "mutant_deadline:"]);
    assert_eq!(code, Some(1));
}
