//! Fault-plan determinism properties.
//!
//! A [`FaultPlan`] is part of the model, not of the run: the same seed
//! must replay to the same behaviour no matter how the simulation is
//! hosted. Pinned here:
//!
//! - the fault cells of the farm matrix reduce to bit-identical results
//!   for any worker count (1, 4, 8) of the campaign pool;
//! - both kernel execution modes reduce every fault cell to the same
//!   fingerprint *and* the same [`RobustnessSummary`];
//! - a plan whose injectors can never fire (probability 0, jitter bound
//!   0) leaves the canonical trace byte-identical to a run with no plan
//!   at all — installing the machinery is observationally free.

use rtsim_farm::fingerprint;
use rtsim_farm::registry::{
    full_matrix, run_cell_with_mode, run_matrix, scenario_by_name, Cell, CellResult,
};
use rtsim_farm::scenarios::automotive_system;
use rtsim_kernel::{ExecMode, SimDuration, SimTime};
use rtsim_mcse::FaultPlan;
use rtsim_trace::{canonical, RobustnessSummary};

/// Every fault cell of the full matrix.
fn fault_cells() -> Vec<Cell> {
    full_matrix()
        .into_iter()
        .filter(|c| c.scenario.starts_with("fault_"))
        .collect()
}

#[test]
fn worker_count_does_not_change_fault_cells() {
    let cells = fault_cells();
    assert_eq!(cells.len(), 56);
    let one = run_matrix(&cells, 1);
    let four = run_matrix(&cells, 4);
    let eight = run_matrix(&cells, 8);
    assert_eq!(one, four);
    assert_eq!(one, eight);
    // Every cell really injected something.
    for r in &one {
        assert!(
            r.fingerprint.faults > 0,
            "{} injected nothing",
            r.cell.label()
        );
    }
}

#[test]
fn both_exec_modes_replay_to_the_same_robustness_summary() {
    for scenario in [
        "fault_drop_automotive",
        "fault_jitter_sweep",
        "fault_degraded_sensor",
    ] {
        let cell = fault_cells()
            .into_iter()
            .find(|c| c.scenario == scenario && c.preemptive)
            .unwrap();
        let run = |mode: ExecMode| {
            // Built and run as `run_cell_with_mode` does, keeping the
            // system so its trace can be summarised too.
            let registered = scenario_by_name(scenario).unwrap();
            let mut model = (registered.build)(cell.cores);
            model.override_schedulers(cell.preemptive, |_| cell.policy.make());
            model.exec_mode(mode);
            let mut system = model.elaborate().unwrap();
            system
                .run_until(SimTime::ZERO + registered.horizon)
                .unwrap();
            let result = CellResult {
                cell,
                fingerprint: fingerprint(&system),
            };
            assert_eq!(result, run_cell_with_mode(cell, mode), "{scenario}");
            let summary =
                RobustnessSummary::from_trace(&system.trace(), result.fingerprint.deadline_misses);
            (result, summary)
        };
        let (thread, thread_summary) = run(ExecMode::Thread);
        let (segment, segment_summary) = run(ExecMode::Segment);
        assert_eq!(thread, segment, "{scenario}");
        assert_eq!(thread_summary, segment_summary, "{scenario}");
        assert!(thread_summary.faults > 0, "{scenario}: {thread_summary:?}");
    }
}

#[test]
fn zero_probability_plan_is_byte_identical_to_no_plan() {
    let run = |plan: Option<FaultPlan>| {
        let mut model = automotive_system(&Default::default());
        if let Some(plan) = plan {
            model.fault_plan(plan);
        }
        let mut system = model.elaborate().unwrap();
        system.run().unwrap();
        canonical(&system.trace())
    };
    let nominal = run(None);
    // Injectors that can never fire: probability-0 dropout, zero-width
    // drop window, zero-bound jitter.
    let armed = run(Some(
        FaultPlan::seeded(0, 99)
            .drop_probability("q_telemetry", 0.0)
            .drop_window(
                "q_dash",
                SimTime::ZERO + SimDuration::from_us(10),
                SimTime::ZERO + SimDuration::from_us(10),
            ),
    ));
    assert_eq!(nominal, armed);
    assert!(!nominal.is_empty());
}

#[test]
fn robustness_summary_counts_the_injections() {
    let mut system = rtsim_farm::scenarios::fault_degraded_sensor_system()
        .elaborate()
        .unwrap();
    system.run().unwrap();
    let trace = system.trace();
    let summary = RobustnessSummary::from_trace(&trace, 0);
    assert!(summary.dropped_messages > 0, "{summary:?}");
    assert!(summary.degraded_entries > 0, "{summary:?}");
    assert_eq!(summary.recoveries, summary.degraded_entries, "{summary:?}");
    assert!(summary.worst_recovery_ps > 0, "{summary:?}");
    assert_eq!(
        summary.faults,
        summary.dropped_messages
            + summary.dropped_signals
            + summary.jitter_events
            + summary.bursts
            + summary.degraded_entries
            + summary.recoveries,
        "{summary:?}"
    );
}
