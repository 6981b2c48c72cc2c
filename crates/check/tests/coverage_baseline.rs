//! Explorer coverage pinned exactly: exploring every healthy check
//! scenario under the default budget must complete and reproduce every
//! count in [`PINS`], the same counts `rtsim-benchmark/explore.pins`
//! holds. Exploration is deterministic, so any difference is a behaviour
//! change in the kernel's choice points, the fault model or the state
//! hash, and a count that falls fails as surely as one that rises.
//!
//! `fresh` is 1 when the explorer forks (only the first run starts from
//! a new elaboration), so a change that silently stops forking fails
//! here too. `merged` counts the runs that ended at a state an earlier
//! run explored; every other count must read as if they had run on.
//! Re-pin an intentional change from the counts `rtsim-check` prints at
//! its default budget (`merged` from [`Exploration::merged`]).
//!
//! Two more tables pin searches the default budget does not show: three
//! scenarios cut off at 5,000 runs ([`CAPPED`]), where the budget ends
//! the search mid-tree, and the complete pruning toys ([`TOYS`]).

use rtsim_check::scenarios::toy_scenario;
use rtsim_check::{explore, scenario_by_name, Budget, Expectation, Exploration, SCENARIOS};

/// Per scenario: runs, states, distinct traces, choice points, fresh
/// elaborations, merged runs.
const PINS: [(&str, u64, usize, usize, u64, u64, u64); 7] = [
    ("rivals", 31_104, 24_881, 31_104, 342_144, 1, 0),
    ("burst_queue", 28_224, 20_417, 13_824, 391_248, 1, 14_400),
    ("irq_races", 7_248, 7_241, 5_184, 102_288, 1, 2_064),
    ("var_ceiling", 88, 58, 24, 352, 1, 16),
    ("pipeline", 192, 185, 192, 1_152, 1, 0),
    ("smp_migration", 17_632, 17_602, 6_144, 335_008, 1, 5_344),
    ("fault_dropout", 348, 346, 192, 3_480, 1, 156),
];

/// The run cap of the [`CAPPED`] searches.
const CAP: u64 = 5_000;

/// A search's runs, states, distinct traces, choice points and merged
/// runs.
type Counts = (u64, usize, usize, u64, u64);

/// Searches capped at [`CAP`] runs, none complete, per scenario.
const CAPPED: [(&str, Counts); 3] = [
    ("burst_queue", (5_000, 3_627, 2_456, 69_272, 2_544)),
    ("smp_migration", (5_000, 5_010, 1_752, 95_000, 1_498)),
    ("rivals", (5_000, 4_004, 5_000, 55_000, 0)),
];

/// The pruning toys whose brute-force trees complete, searched to the end
/// under `Budget::runs(100_000)`, per (tasks, rounds).
const TOYS: [((usize, u64), Counts); 3] = [
    ((2, 1), (48, 46, 24, 240, 0)),
    ((2, 2), (216, 214, 96, 1_728, 24)),
    ((3, 1), (3_456, 2_417, 864, 31_104, 1_728)),
];

/// `what`'s counts, unless they are `pinned` and the search's
/// completeness is `complete`.
fn drift(what: &str, e: &Exploration, pinned: Counts, complete: bool) -> Option<String> {
    let got = (
        e.runs,
        e.states,
        e.distinct_traces,
        e.choice_points,
        e.merged,
    );
    (got != pinned || e.complete != complete).then(|| {
        format!(
            "{what}: pinned runs/states/traces/choices/merged {pinned:?} (complete {complete}), \
             explored {got:?} (complete {})",
            e.complete
        )
    })
}

#[test]
fn a_capped_search_reproduces_its_pinned_counts() {
    let problems: Vec<String> = CAPPED
        .iter()
        .filter_map(|&(name, pinned)| {
            let scenario = scenario_by_name(name).expect("registered check scenario");
            drift(name, &explore(scenario, &Budget::runs(CAP)), pinned, false)
        })
        .collect();
    assert!(problems.is_empty(), "{}", problems.join("\n"));
}

#[test]
fn the_complete_toys_reproduce_their_pinned_counts() {
    let problems: Vec<String> = TOYS
        .iter()
        .filter_map(|&((tasks, rounds), pinned)| {
            let e = explore(&toy_scenario(tasks, rounds), &Budget::runs(100_000));
            drift(&format!("toy ({tasks}, {rounds})"), &e, pinned, true)
        })
        .collect();
    assert!(problems.is_empty(), "{}", problems.join("\n"));
}

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
    for (name, runs, states, traces, choices, fresh, merged) in PINS {
        let scenario = scenario_by_name(name).expect("registered check scenario");
        let e = explore(scenario, &Budget::default());
        problems.extend(drift(
            name,
            &e,
            (runs, states, traces, choices, merged),
            true,
        ));
        if e.fresh != fresh {
            problems.push(format!(
                "{name}: pinned fresh {fresh}, explored {}",
                e.fresh
            ));
        }
    }
    assert!(
        problems.is_empty(),
        "exploration drifted from the pinned coverage:\n{}",
        problems.join("\n")
    );
}
