//! A fault plan takes no lock per operation. Its lanes (each channel's
//! random stream and drop count) and its degraded-mode monitors are
//! slots of the simulation world, reached through the one loan a
//! Segment-mode run takes — the pin `lock_free_step.rs` sets for the
//! RTOS tables, the relations and the trace.

use rtsim_comm::EventPolicy;
use rtsim_core::{Overheads, TaskConfig};
use rtsim_kernel::sync::locks_taken;
use rtsim_kernel::{ExecMode, SimDuration, SimTime};
use rtsim_mcse::{script as s, FaultPlan, Mapping, Message, SystemModel};
use rtsim_trace::{FaultKind, TraceData};

fn us(v: u64) -> SimDuration {
    SimDuration::from_us(v)
}

/// A sensor writing samples into a lossy queue (probability lane) and
/// ticking a controller through an event with a blackout window
/// (window lane); the controller's degraded-mode monitor watches the
/// queue's drops.
fn faulty_system() -> SystemModel {
    let mut model = SystemModel::new("faulty");
    model.queue("samples", 64);
    model.event("tick", EventPolicy::Counter);
    model.software_processor("CPU", Overheads::uniform(us(2)));
    model.function_script(
        TaskConfig::new("sensor"),
        vec![s::repeat(
            400,
            vec![
                s::delay(us(100)),
                s::q_write("samples", |r| Message::new(r.k, 8)),
                s::signal("tick"),
            ],
        )],
    );
    model.map("sensor", Mapping::Hardware);
    model.function_script(
        TaskConfig::new("controller").priority(5).deadline(us(80)),
        vec![s::forever(vec![
            s::await_event("tick"),
            s::degraded_gate(
                vec![s::q_try_read("samples"), s::exec(us(20))],
                vec![s::exec(us(5))],
            ),
        ])],
    );
    model.map_to_processor("controller", "CPU");
    model.fault_plan(
        FaultPlan::new(0xFA17)
            .drop_probability("samples", 0.2)
            .drop_window(
                "tick",
                SimTime::ZERO + us(10_000),
                SimTime::ZERO + us(12_000),
            )
            .degraded("controller", &["samples"], 2, 3, us(200)),
    );
    model
}

#[test]
fn a_segment_mode_run_with_a_fault_plan_takes_one_lock() {
    let mut model = faulty_system();
    model.exec_mode(ExecMode::Segment);
    let mut system = model.elaborate().expect("elaborates");

    let before = locks_taken();
    system.run_until(SimTime::ZERO + us(50_000)).expect("runs");
    let locks = locks_taken() - before;
    assert_eq!(
        locks, 1,
        "{locks} locks in one Segment-mode run: a fault lane or monitor \
         must be reached through the run's one loan"
    );

    // Every part of the plan was exercised.
    let kinds: Vec<FaultKind> = system
        .trace()
        .records()
        .iter()
        .filter_map(|r| match r.data {
            TraceData::Fault { kind, .. } => Some(kind),
            _ => None,
        })
        .collect();
    for kind in [
        FaultKind::DropMessage,
        FaultKind::DropSignal,
        FaultKind::Degraded,
        FaultKind::Recovered,
    ] {
        assert!(kinds.contains(&kind), "no {kind:?} fault: {kinds:?}");
    }
    let drops = kinds
        .iter()
        .filter(|k| **k == FaultKind::DropMessage)
        .count();
    assert!(drops > 20, "only {drops} messages dropped");
}
