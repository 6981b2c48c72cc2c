//! Explorer coverage pinned exactly: exploring four check scenarios
//! under a 20,000-run budget must reproduce every count in [`PINS`].
//! Exploration is deterministic, so any difference is a behaviour change
//! in the kernel's choice points or the fault model, and a count that
//! falls fails as surely as one that rises.
//!
//! `fresh` is 1 when the explorer forks (only the first run starts from
//! a new elaboration), so a change that silently stops forking fails
//! here too. Re-pin an intentional change from the counts `rtsim-check
//! --budget 20000` prints for these four `--scenario`s.

use rtsim_check::{explore, scenario_by_name, Budget};

/// Per scenario: runs, states, distinct traces, fresh elaborations.
const PINS: [(&str, u64, usize, usize, u64); 4] = [
    ("irq_races", 7_248, 7_241, 5_184, 1),
    ("pipeline", 192, 185, 192, 1),
    ("smp_migration", 17_632, 17_602, 6_144, 1),
    ("fault_dropout", 348, 346, 192, 1),
];
const RUNS: u64 = 20_000;

#[test]
fn exploration_reproduces_the_committed_coverage_baseline() {
    let mut problems = Vec::new();
    for (name, runs, states, traces, fresh) in PINS {
        let scenario = scenario_by_name(name).expect("registered check scenario");
        let e = explore(scenario, &Budget::runs(RUNS));
        let got = (e.runs, e.states, e.distinct_traces, e.fresh);
        if got != (runs, states, traces, fresh) {
            problems.push(format!(
                "{name}: pinned runs/states/traces/fresh {runs}/{states}/{traces}/{fresh}, \
                 explored {}/{}/{}/{}",
                got.0, got.1, got.2, got.3
            ));
        }
    }
    assert!(
        problems.is_empty(),
        "exploration drifted from the pinned coverage:\n{}",
        problems.join("\n")
    );
}
