//! An automotive engine-control system: two ECUs over a CAN link, with a
//! jittered crank-angle interrupt, a hard injection deadline, and a
//! priority-inheritance-protected injection map — the class of real-time
//! question the paper's model exists to answer before hardware exists.
//!
//! Sweeps the engine from idle to redline and reports the
//! crank-to-injection latency distribution plus the timing-constraint
//! verdicts at each operating point.
//!
//! Run with: `cargo run --release --example automotive_ecu`

use rtsim::scenarios::{automotive_system, injection_latencies, AutomotiveConfig};
use rtsim::testutil::Rng;
use rtsim::{DurationSummary, EngineKind, Overheads, SimDuration, TimelineOptions};

/// Crank pulse gaps for an engine at `rpm` with ±3 % cycle-to-cycle
/// jitter (4 pulses per revolution).
fn crank_gaps(rng: &mut Rng, rpm: u64, pulses: usize) -> Vec<SimDuration> {
    let nominal_us = 60_000_000 / (rpm * 4);
    (0..pulses)
        .map(|_| {
            let jitter = rng.gen_range(-3i64..=3) as f64 / 100.0;
            SimDuration::from_us((nominal_us as f64 * (1.0 + jitter)) as u64)
        })
        .collect()
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut rng = Rng::seed_from_u64(7);

    println!("== crank-to-injection latency vs engine speed ==\n");
    println!(
        "{:>6} {:>12} {:>10} {:>10} {:>10} {:>12}",
        "rpm", "pulse gap", "median", "p95", "max", "constraints"
    );
    for rpm in [900u64, 1_800, 3_000, 4_500, 6_000, 7_200] {
        let config = AutomotiveConfig {
            crank_gaps: crank_gaps(&mut rng, rpm, 40),
            engine: EngineKind::ProcedureCall,
            overheads: Overheads::uniform(SimDuration::from_us(5)),
        };
        let mut system = automotive_system(&config).elaborate()?;
        system.run()?;
        let latencies = injection_latencies(&system.trace());
        let summary = DurationSummary::from_durations(latencies).expect("pulses fired");
        let report = system.verify_constraints();
        println!(
            "{:>6} {:>10}us {:>10} {:>10} {:>10} {:>12}",
            rpm,
            60_000_000 / (rpm * 4),
            summary.median.to_string(),
            summary.p95.to_string(),
            summary.max.to_string(),
            if report.all_satisfied() {
                "all PASS"
            } else {
                "VIOLATED"
            },
        );
    }

    // Show one operating point in detail.
    println!("\n== detail at 3000 rpm ==\n");
    let config = AutomotiveConfig {
        crank_gaps: crank_gaps(&mut rng, 3_000, 12),
        ..AutomotiveConfig::default()
    };
    let mut system = automotive_system(&config).elaborate()?;
    system.run()?;
    let trace = system.trace();
    let lanes: Vec<_> = [
        "crank_sensor",
        "crank_isr",
        "injection",
        "knock_monitor",
        "diagnostics",
    ]
    .iter()
    .filter_map(|n| trace.actor_by_name(n))
    .collect();
    println!(
        "{}",
        system.timeline(&TimelineOptions {
            width: 110,
            until: Some(rtsim::SimTime::ZERO + SimDuration::from_us(25_000)),
            actors: Some(lanes),
            ..TimelineOptions::default()
        })
    );
    println!("{}", system.verify_constraints());
    println!(
        "(the injection map is priority-inheritance protected, so while\n\
         diagnostics holds it for its 200 us recalibration nothing of lower\n\
         priority can pile onto the delay — with LockMode::Plain the knock\n\
         monitor's preemptions of diagnostics would add to injection's\n\
         worst-case latency)"
    );
    Ok(())
}
