//! The explorer's stop/resume path on the full matrix: running every
//! farm cell with `Simulator::run_to_choice`, and deciding candidate 0
//! (the stable order) at every choice point it stops at, must reproduce
//! every golden fingerprint bit-for-bit. If stopping at a tie and
//! resuming it perturbed any kernel ordering — dispatch, delta or timed
//! — some cell's canonical trace (and so its fingerprint) would move,
//! and this test names the cell.

use rtsim_farm::registry::{full_matrix, scenario_by_name, CellResult};
use rtsim_farm::{diff, fingerprint, goldens_path};
use rtsim_kernel::{ExecMode, SimTime};

#[test]
fn deciding_every_stop_stably_reproduces_all_farm_goldens() {
    let goldens = std::fs::read_to_string(goldens_path())
        .expect("pinned goldens at tests/goldens/farm.jsonl");
    let cells = full_matrix();
    assert_eq!(cells.len(), 196, "full matrix drifted");
    let mut stops = 0u64;
    let results: Vec<CellResult> = cells
        .into_iter()
        .map(|cell| {
            let scenario =
                scenario_by_name(cell.scenario).expect("matrix names a registered scenario");
            let mut model = (scenario.build)(cell.cores);
            model.override_schedulers(cell.preemptive, |_| cell.policy.make());
            model.exec_mode(ExecMode::Segment);
            let mut system = model.elaborate().expect("scenario elaborates");
            let until = SimTime::ZERO + scenario.horizon;
            let sim = system.simulator_mut();
            while sim.run_to_choice(until).expect("scenario runs").is_some() {
                sim.decide(0);
                stops += 1;
            }
            CellResult {
                cell,
                fingerprint: fingerprint(&system),
            }
        })
        .collect();
    assert!(stops > 0, "no cell stopped at a choice point");
    let outcome = diff(&goldens, &results, true);
    assert!(
        outcome.is_clean(),
        "stop-and-decide runs ({stops} stops) diverged from the pinned goldens:\n{}",
        outcome.messages.join("\n")
    );
}
