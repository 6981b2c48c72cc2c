//! Explorer coverage pinned exactly: exploring every healthy check
//! scenario under the default budget must complete and reproduce every
//! count in [`PINS`], the same counts `rtsim-benchmark/explore.pins`
//! holds. Exploration is deterministic, so any difference is a behaviour
//! change in the kernel's choice points, the fault model or the state
//! hash, and a count that falls fails as surely as one that rises.
//!
//! `fresh` is 1 when the explorer forks (only the first run starts from
//! a new elaboration), so a change that silently stops forking fails
//! here too. Re-pin an intentional change from the counts `rtsim-check`
//! prints at its default budget.

use rtsim_check::{explore, scenario_by_name, Budget, Expectation, SCENARIOS};

/// Per scenario: runs, states, distinct traces, choice points, fresh
/// elaborations.
const PINS: [(&str, u64, usize, usize, u64, u64); 7] = [
    ("rivals", 31_104, 24_881, 31_104, 342_144, 1),
    ("burst_queue", 28_224, 20_417, 13_824, 391_248, 1),
    ("irq_races", 7_248, 7_241, 5_184, 102_288, 1),
    ("var_ceiling", 88, 58, 24, 352, 1),
    ("pipeline", 192, 185, 192, 1_152, 1),
    ("smp_migration", 17_632, 17_602, 6_144, 335_008, 1),
    ("fault_dropout", 348, 346, 192, 3_480, 1),
];

#[test]
fn exploration_reproduces_the_committed_coverage_baseline() {
    let healthy: Vec<&str> = SCENARIOS
        .iter()
        .filter(|s| s.expect == Expectation::Hold)
        .map(|s| s.name)
        .collect();
    assert_eq!(
        PINS.map(|pin| pin.0).to_vec(),
        healthy,
        "the healthy registry changed: update PINS"
    );
    let mut problems = Vec::new();
    for (name, runs, states, traces, choices, fresh) in PINS {
        let scenario = scenario_by_name(name).expect("registered check scenario");
        let e = explore(scenario, &Budget::default());
        let got = (
            e.runs,
            e.states,
            e.distinct_traces,
            e.choice_points,
            e.fresh,
        );
        if got != (runs, states, traces, choices, fresh) || !e.complete {
            problems.push(format!(
                "{name}: pinned runs/states/traces/choices/fresh \
                 {runs}/{states}/{traces}/{choices}/{fresh}, explored {}/{}/{}/{}/{} \
                 (complete {})",
                got.0, got.1, got.2, got.3, got.4, e.complete
            ));
        }
    }
    assert!(
        problems.is_empty(),
        "exploration drifted from the pinned coverage:\n{}",
        problems.join("\n")
    );
}
