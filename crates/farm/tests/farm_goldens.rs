//! The farm's own acceptance criteria, as library-level tests:
//! worker-count invariance, agreement with the committed goldens, and
//! drift detection that names the perturbed cell.

use rtsim_farm::registry::{run_matrix, smoke_matrix, PolicyKind};
use rtsim_farm::{diff, goldens_path, render};

#[test]
fn fingerprints_are_identical_across_worker_counts() {
    let cells = smoke_matrix();
    let one = run_matrix(&cells, 1);
    let four = run_matrix(&cells, 4);
    let eight = run_matrix(&cells, 8);
    assert_eq!(one, four);
    assert_eq!(one, eight);
    // Byte-level too: the golden rendering must not depend on workers.
    assert_eq!(render(&one), render(&eight));
}

#[test]
fn smoke_subset_matches_the_committed_goldens() {
    let goldens = std::fs::read_to_string(goldens_path())
        .expect("tests/goldens/farm.jsonl missing — run `cargo run --bin rtsim-farm -- --bless`");
    let results = run_matrix(&smoke_matrix(), 2);
    let outcome = diff(&goldens, &results, false);
    assert!(
        outcome.is_clean(),
        "behaviour drifted from goldens:\n{}",
        outcome.messages.join("\n")
    );
    assert_eq!(outcome.matched, results.len());
}

#[test]
fn committed_goldens_cover_the_full_matrix() {
    let goldens = std::fs::read_to_string(goldens_path()).expect("goldens");
    let keys: Vec<_> = goldens
        .lines()
        .filter(|l| !l.trim().is_empty())
        .map(|l| rtsim_farm::parse_cell_key(l).expect("well-formed golden line"))
        .collect();
    let expected = rtsim_farm::registry::full_matrix();
    assert_eq!(keys.len(), expected.len());
    for cell in expected {
        let key = (
            cell.scenario.to_owned(),
            cell.policy.key().to_owned(),
            cell.mode().to_owned(),
            cell.cores,
        );
        assert!(keys.contains(&key), "goldens lack {}", cell.label());
    }
}

#[test]
fn perturbed_golden_is_caught_and_named() {
    // Simulate a dispatch-order regression in one cell by corrupting its
    // golden hash: --check-style diffing must fail and name exactly that
    // (scenario, policy, mode) cell.
    let results = run_matrix(&smoke_matrix(), 2);
    let clean = render(&results);
    let victim = "\"scenario\":\"paper_fig6\",\"policy\":\"edf\",\"mode\":\"cooperative\"";
    let tampered: String = clean
        .lines()
        .map(|line| {
            if line.contains(victim) {
                let marker = "\"hash\":\"";
                let start = line.find(marker).unwrap() + marker.len();
                // Overwrite the 16 hex digits with a hash no run produces.
                format!(
                    "{}{}{}",
                    &line[..start],
                    "f".repeat(16),
                    &line[start + 16..]
                )
            } else {
                line.to_owned()
            }
        })
        .collect::<Vec<_>>()
        .join("\n");
    let outcome = diff(&tampered, &results, false);
    assert!(!outcome.is_clean());
    assert_eq!(outcome.messages.len(), 1, "{:?}", outcome.messages);
    assert!(
        outcome.messages[0].contains("paper_fig6/edf/cooperative"),
        "diff does not name the drifted cell: {}",
        outcome.messages[0]
    );
    assert!(
        outcome.messages[0].contains("hash"),
        "{}",
        outcome.messages[0]
    );
}

#[test]
fn policy_choice_is_visible_in_every_scenario_fingerprint() {
    // Sensitivity: for each scenario, fifo and priority fingerprints must
    // differ in preemptive mode — if they ever collide, the fingerprint
    // stopped seeing scheduling behaviour.
    for scenario in rtsim_farm::SCENARIOS {
        // quickstart under fifo/priority genuinely differs because the
        // high-priority handler competes with the background task.
        let make = |policy| rtsim_farm::Cell {
            scenario: scenario.name,
            policy,
            preemptive: true,
            cores: scenario.core_counts[0],
        };
        let results = run_matrix(&[make(PolicyKind::Fifo), make(PolicyKind::Priority)], 2);
        assert_ne!(
            results[0].fingerprint.hash, results[1].fingerprint.hash,
            "{}: fifo and priority produced the same fingerprint",
            scenario.name
        );
    }
}
