//! Design-space exploration — the activity the paper's model exists for:
//! "to explore efficiently the design space ... according to RTOS
//! properties such as scheduling policy, context-switch time and
//! scheduling latency".
//!
//! Sweeps the MPEG-2 SoC over scheduling policies and RTOS overheads and
//! tabulates the end-to-end frame latency, showing how implementation
//! choices move the numbers before any hardware exists.
//!
//! Run with: `cargo run --release --example design_space`

use rtsim::policies::{EarliestDeadlineFirst, Fifo, PriorityPreemptive, RoundRobin};
use rtsim::scenarios::{mpeg2_latencies, mpeg2_system, policy_sweep_system, Mpeg2Config};
use rtsim::{EngineKind, Measure, Overheads, SchedulingPolicy, SimDuration};

/// Runs the full MPEG-2 SoC with uniform RTOS overheads of `overhead_us`
/// and returns (average latency, max latency, total preemptions).
fn run_point(overhead_us: u64) -> (SimDuration, SimDuration, u64) {
    let config = Mpeg2Config {
        frames: 15,
        engine: EngineKind::ProcedureCall,
        overheads: Overheads::uniform(SimDuration::from_us(overhead_us)),
        frame_period: SimDuration::from_us(4_000),
        queue_capacity: 4,
    };
    let mut system = mpeg2_system(&config).elaborate().expect("valid model");
    system.run().expect("run");
    let latencies = mpeg2_latencies(&system.trace());
    let max = latencies.iter().copied().max().unwrap_or(SimDuration::ZERO);
    let sum: SimDuration = latencies.iter().copied().sum();
    let avg = if latencies.is_empty() {
        SimDuration::ZERO
    } else {
        sum / latencies.len() as u64
    };
    let preemptions: u64 = ["CPU0", "CPU1", "CPU2"]
        .iter()
        .map(|c| system.processor_stats(c).map_or(0, |s| s.preemptions))
        .sum();
    (avg, max, preemptions)
}

fn main() {
    println!("== MPEG-2 SoC: end-to-end latency vs RTOS overhead ==\n");
    println!(
        "{:>12} {:>14} {:>14} {:>12}",
        "overhead", "avg latency", "max latency", "preemptions"
    );
    for overhead_us in [0u64, 2, 5, 10, 20, 50] {
        let (avg, max, preemptions) = run_point(overhead_us);
        println!(
            "{:>10}us {:>12.1}us {:>12.1}us {:>12}",
            overhead_us,
            avg.as_secs_f64() * 1e6,
            max.as_secs_f64() * 1e6,
            preemptions
        );
    }

    // Policy comparison on a contended single-CPU workload: four periodic
    // tasks with mixed urgency sharing one processor.
    println!("\n== Scheduling-policy comparison (4 periodic tasks, 1 CPU) ==\n");
    println!(
        "{:>18} {:>16} {:>14} {:>12}",
        "policy", "worst response", "quantum exp.", "preemptions"
    );
    type PolicyFactory = Box<dyn Fn() -> Box<dyn SchedulingPolicy>>;
    let policies: Vec<(&str, PolicyFactory)> = vec![
        ("priority", Box::new(|| Box::new(PriorityPreemptive::new()))),
        ("fifo", Box::new(|| Box::new(Fifo::new()))),
        (
            "round-robin 200us",
            Box::new(|| Box::new(RoundRobin::new(SimDuration::from_us(200)))),
        ),
        ("edf", Box::new(|| Box::new(EarliestDeadlineFirst::new()))),
    ];
    for (name, make) in &policies {
        // The shared policy_sweep scenario declares the paper's default
        // RTOS; override_schedulers re-points it at the policy under
        // comparison without touching the functional model.
        let mut model = policy_sweep_system();
        model.override_schedulers(true, |_| make());
        let mut system = model.elaborate().expect("valid model");
        system.run().expect("run");
        let trace = system.trace();
        let task0 = trace.actor_by_name("task0").expect("task0");
        let worst = Measure::new(&trace)
            .response_times(task0)
            .into_iter()
            .max()
            .map_or_else(|| "n/a".to_owned(), |w| w.to_string());
        let stats = system.processor_stats("CPU").expect("cpu");
        println!(
            "{:>18} {:>16} {:>14} {:>12}",
            name, worst, stats.quantum_expirations, stats.preemptions
        );
    }
    println!("\n(Higher overheads stretch the pipeline; policy choice moves the");
    println!("highest-urgency task's worst response — the numbers a designer");
    println!("reads off this table before committing to an RTOS.)");
}
