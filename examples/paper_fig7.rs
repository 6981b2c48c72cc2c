//! Reproduces the paper's Figure 7: mutual-exclusion blocking on
//! `SharedVar_1` and the resulting (bounded) priority inversion — then
//! shows the paper's remedy (disabling preemption during the access) and
//! the classic priority-inheritance protocol side by side.
//!
//! Run with: `cargo run --example paper_fig7`

use rtsim::scenarios::figure7_system;
use rtsim::{EngineKind, LockMode, TimelineOptions};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    for (mode, label) in [
        (
            LockMode::Plain,
            "plain mutual exclusion (the paper's Figure 7)",
        ),
        (
            LockMode::PreemptionMasked,
            "preemption disabled during access (the paper's proposed fix)",
        ),
        (
            LockMode::PriorityInheritance,
            "priority inheritance (extension)",
        ),
    ] {
        let mut system = figure7_system(EngineKind::ProcedureCall, mode).elaborate()?;
        system.run()?;
        let trace = system.trace();

        println!("== SharedVar_1 protected by: {label} ==\n");
        println!(
            "{}",
            system.timeline(&TimelineOptions {
                width: 100,
                ..TimelineOptions::default()
            })
        );

        // How long did high-priority Function_2 wait for the variable?
        let wants = trace.annotation_times("f2_wants_var");
        let got = trace.annotation_times("f2_got_var");
        if let (Some(&w), Some(&g)) = (wants.first(), got.first()) {
            println!(
                "Function_2 requested SharedVar_1 at {w} and obtained it at {g}: blocked {}",
                g - w
            );
        }
        println!("simulation end: {}\n", system.now());
    }

    println!("Summary: with a plain mutex Function_2 (priority 3) is delayed by");
    println!("Function_3's critical section AND by Function_1's preemption of it;");
    println!("masking preemption or priority inheritance bound that delay to the");
    println!("critical section alone — exactly the trade-off the paper discusses.");
    Ok(())
}
