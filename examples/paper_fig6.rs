//! Reproduces the paper's Figure 6: the TimeLine chart of the `Clock` +
//! `Function_1/2/3` system with all three RTOS overheads at 5 µs, and the
//! measurements annotated in the paper — (1) the 15 µs clock-to-reaction
//! latency, (a) the 15 µs end-of-task overhead, (b) the preemption
//! overhead, (c) the no-preemption case.
//!
//! Run with: `cargo run --example paper_fig6`

use rtsim::scenarios::figure6_system;
use rtsim::{EngineKind, Measure, TaskState, TimelineOptions};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut system = figure6_system(EngineKind::ProcedureCall).elaborate()?;
    system.run()?;

    println!("== Figure 6: TimeLine chart ({} at end) ==\n", system.now());
    println!(
        "{}",
        system.timeline(&TimelineOptions {
            width: 110,
            ..TimelineOptions::default()
        })
    );

    let trace = system.trace();
    let measure = Measure::new(&trace);
    let f1 = trace.actor_by_name("Function_1").expect("F1");
    let f2 = trace.actor_by_name("Function_2").expect("F2");
    let f3 = trace.actor_by_name("Function_3").expect("F3");

    println!("== Measurements (cf. the paper's annotations) ==");
    println!(
        "(1) clock edge -> Function_1 running : {} (paper: 15 us)",
        measure.reaction_time("clk_edge", f1).expect("reaction")
    );
    let f1_waits = measure.transitions_to(f1, TaskState::Waiting);
    let f2_runs = measure.transitions_to(f2, TaskState::Running);
    println!(
        "(a) Function_1 ends {} -> Function_2 resumes {} : {} of overhead",
        f1_waits[1],
        f2_runs[1],
        f2_runs[1] - f1_waits[1]
    );
    let f3_ready = measure.transitions_to(f3, TaskState::Ready);
    let f1_runs = measure.transitions_to(f1, TaskState::Running);
    println!(
        "(b) Function_3 preempted {} -> Function_1 runs {} : {} of overhead",
        f3_ready[1],
        f1_runs[1],
        f1_runs[1] - f3_ready[1]
    );
    let f2_ready = measure.transitions_to(f2, TaskState::Ready);
    println!(
        "(c) Event_1 wakes Function_2 {} but (lower priority) it runs only {} — no preemption",
        f2_ready[1], f2_runs[1]
    );

    println!();
    println!("RTOS overheads were SchedulingDuration = TaskContextLoad = TaskContextSave = 5 us,");
    println!("so every full task switch shows the paper's 15 us pattern.");

    // Machine-readable export of the whole TimeLine.
    let mut csv = Vec::new();
    rtsim::write_csv(&trace, &mut csv)?;
    println!(
        "\n(trace: {} records, {} bytes of CSV — use write_csv to save it)",
        trace.records().len(),
        csv.len()
    );

    Ok(())
}
