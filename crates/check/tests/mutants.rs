//! The checker is itself checked: every seeded mutant scenario MUST be
//! flagged, its counterexample must carry the responsible oracle, and
//! replaying the counterexample's exact choice stack must reproduce the
//! violation deterministically. A model's timing constraints are checked
//! the same way.

use rtsim_check::{
    explore, replay, scenario_by_name, Budget, CheckScenario, Expectation, SCENARIOS,
};
use rtsim_kernel::SimDuration;
use rtsim_mcse::{SystemModel, TimingConstraint};

fn assert_mutant_flagged(name: &str, expected_oracle: &str) {
    let scenario = scenario_by_name(name).expect("mutant registered");
    assert_eq!(scenario.expect, Expectation::Violate);
    let outcome = explore(scenario, &Budget::runs(10_000));
    let cx = outcome
        .counterexample
        .unwrap_or_else(|| panic!("mutant `{name}` was not flagged"));
    assert!(
        cx.violations.iter().any(|v| v.property == expected_oracle),
        "mutant `{name}` flagged by {:?}, expected `{expected_oracle}`",
        cx.violations
            .iter()
            .map(|v| &v.property)
            .collect::<Vec<_>>()
    );
    // The witness must be replayable: the same forced choices reproduce
    // the same violation.
    let (_, violations) = replay(scenario, &cx.choices);
    assert!(
        violations.iter().any(|v| v.property == expected_oracle),
        "mutant `{name}` counterexample did not replay"
    );
}

#[test]
fn missed_deadline_mutant_is_flagged() {
    assert_mutant_flagged("mutant_deadline", "no-missed-deadline");
}

#[test]
fn lost_message_mutant_is_flagged() {
    assert_mutant_flagged("mutant_lost", "no-lost-message");
}

#[test]
fn mutex_double_entry_mutant_is_flagged() {
    assert_mutant_flagged("mutant_mutex", "critical-section-exclusion");
}

/// Healthy registry entries must elaborate and hold under a smoke
/// budget — the cheap counterpart of the bin's full sweep.
#[test]
fn healthy_scenarios_hold_under_smoke_budget() {
    for scenario in SCENARIOS.iter().filter(|s| s.expect == Expectation::Hold) {
        let outcome = explore(scenario, &Budget::runs(200));
        assert!(
            outcome.counterexample.is_none(),
            "healthy `{}` violated:\n{}",
            scenario.name,
            outcome.counterexample.unwrap().render()
        );
        assert!(outcome.runs > 0);
    }
}

/// The dual-core migration scenario genuinely races: exploration
/// branches on the wake-order ties, every interleaving holds, and the
/// stable schedule uses both cores with at least one charged migration.
#[test]
fn smp_migration_races_hold_and_the_stable_schedule_migrates() {
    let scenario = scenario_by_name("smp_migration").expect("registered");
    let outcome = explore(scenario, &Budget::runs(2_000));
    assert!(
        outcome.counterexample.is_none(),
        "smp_migration violated:\n{}",
        outcome.counterexample.unwrap().render()
    );
    assert!(outcome.runs > 1, "no kernel ties — the race evaporated");

    let (trace, violations) = replay(scenario, &[]);
    assert!(violations.is_empty(), "{violations:?}");
    let cores: std::collections::BTreeSet<usize> = trace
        .records()
        .iter()
        .filter_map(|r| match r.data {
            rtsim_trace::TraceData::Core(c) => Some(c),
            _ => None,
        })
        .collect();
    assert_eq!(cores.len(), 2, "stable schedule never used the second core");
    let migrations = trace
        .records()
        .iter()
        .filter(|r| {
            matches!(
                r.data,
                rtsim_trace::TraceData::Overhead {
                    kind: rtsim_trace::OverheadKind::Migration,
                    ..
                }
            )
        })
        .count();
    assert!(migrations >= 1, "no schedule ever charged a migration");
}

/// An empty replay (no forced choices) of a mutant still violates: the
/// stable schedule itself carries the seeded bug, and `replay` is the
/// public API a user debugs with.
#[test]
fn replay_with_no_choices_takes_the_stable_schedule() {
    let scenario = scenario_by_name("mutant_deadline").expect("registered");
    let (trace, violations) = replay(scenario, &[]);
    assert!(!trace.records().is_empty());
    assert!(violations
        .iter()
        .any(|v| v.property == "no-missed-deadline"));
}

/// `smp_migration`'s model with a completion bound on `Flo_A` that the
/// stable schedule meets exactly.
fn smp_migration_flo_a_bound() -> SystemModel {
    let mut model = (scenario_by_name("smp_migration").expect("registered").build)();
    model.constraint(TimingConstraint::CompletionWithin {
        name: "flo-a-response".into(),
        function: "Flo_A".into(),
        bound: SimDuration::from_us(25),
    });
    model
}

/// A timing constraint declared on a model is checked on every explored
/// schedule, not only on the one a plain run takes: the plain run meets
/// the bound, and the explorer finds a wake order that breaks it.
#[test]
fn a_timing_constraint_is_checked_under_every_tie_order() {
    let mut system = smp_migration_flo_a_bound().elaborate().unwrap();
    system.run().unwrap();
    assert_eq!(
        system.verify_constraints().to_string(),
        "[PASS] flo-a-response — worst response 25 us over 3 activations (bound 25 us)\n"
    );

    let scenario = CheckScenario {
        name: "smp_migration_flo_a",
        build: smp_migration_flo_a_bound,
        horizon: scenario_by_name("smp_migration").unwrap().horizon,
        expect: Expectation::Violate,
    };
    let outcome = explore(&scenario, &Budget::default());
    let cx = outcome
        .counterexample
        .expect("some tie order breaks the bound");
    // Past the stable order: the first run took candidate 0 everywhere.
    assert_eq!(outcome.runs, 2_197);
    assert!(cx.choices.iter().any(|&c| c != 0), "{:?}", cx.choices);
    assert_eq!(cx.violations.len(), 1, "{:?}", cx.violations);
    assert_eq!(cx.violations[0].property, "flo-a-response");
    assert_eq!(
        cx.violations[0].message,
        "worst response 44 us over 3 activations (bound 25 us)"
    );
    let (_, violations) = replay(&scenario, &cx.choices);
    assert_eq!(violations, cx.violations);
}
