//! The paper's closing case study: an MPEG-2 compress/decompress SoC —
//! 18 tasks over six processing resources, three of them software
//! processors running the RTOS model.
//!
//! Pushes frames through the whole encode → transmit → decode → display
//! pipeline, prints per-processor utilization, the end-to-end latency
//! distribution, and verifies throughput/deadline constraints.
//!
//! Run with: `cargo run --example mpeg2_soc`

use rtsim::scenarios::{mpeg2_latencies, mpeg2_system, Mpeg2Config};
use rtsim::{EngineKind, Overheads, SimDuration, Statistics, TimelineOptions, TimingConstraint};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let config = Mpeg2Config {
        frames: 25,
        engine: EngineKind::ProcedureCall,
        overheads: Overheads::uniform(SimDuration::from_us(5)),
        frame_period: SimDuration::from_us(4_000),
        queue_capacity: 4,
    };
    let mut model = mpeg2_system(&config);
    model.constraint(TimingConstraint::CompletionWithin {
        name: "motion-estimation-deadline".into(),
        function: "motion_est".into(),
        bound: config.frame_period,
    });
    model.constraint(TimingConstraint::MinActivity {
        name: "decoder-progress".into(),
        function: "demux_vld".into(),
        min_ratio: 0.02,
    });

    let mut system = model.elaborate()?;
    system.run()?;
    println!(
        "== MPEG-2 SoC: {} frames in {} of simulated time ==\n",
        config.frames,
        system.now()
    );

    // End-to-end latency distribution (capture -> display).
    let latencies = mpeg2_latencies(&system.trace());
    let min = latencies.iter().min().expect("frames delivered");
    let max = latencies.iter().max().expect("frames delivered");
    let sum: SimDuration = latencies.iter().copied().sum();
    println!("frames delivered  : {}", latencies.len());
    let avg = sum / latencies.len() as u64;
    println!(
        "latency min/avg/max: {:.1} / {:.1} / {:.1} us",
        min.as_secs_f64() * 1e6,
        avg.as_secs_f64() * 1e6,
        max.as_secs_f64() * 1e6
    );
    println!();

    // Per-processor RTOS statistics.
    println!(
        "{:<6} {:>11} {:>12} {:>15}",
        "CPU", "dispatches", "preemptions", "scheduler runs"
    );
    for cpu in ["CPU0", "CPU1", "CPU2"] {
        let s = system.processor_stats(cpu).expect("declared processor");
        println!(
            "{:<6} {:>11} {:>12} {:>15}",
            cpu, s.dispatches, s.preemptions, s.scheduler_runs
        );
    }
    println!();

    // Figure 8-style statistics over the whole run.
    let stats = Statistics::from_trace(&system.trace(), system.now());
    println!("{stats}");

    // A short TimeLine window around the third frame, encoder side.
    let trace = system.trace();
    let lanes: Vec<_> = ["video_in", "preprocess", "motion_est", "quantize", "vlc"]
        .iter()
        .filter_map(|n| trace.actor_by_name(n))
        .collect();
    println!(
        "{}",
        system.timeline(&TimelineOptions {
            width: 110,
            from: rtsim::SimTime::ZERO + SimDuration::from_us(8_000),
            until: Some(rtsim::SimTime::ZERO + SimDuration::from_us(20_000)),
            actors: Some(lanes),
            legend: true,
        })
    );

    // Timing-constraint verification (the paper's future-work feature).
    let report = system.verify_constraints();
    println!("{report}");
    if !report.all_satisfied() {
        println!("(constraint violations above)");
    }
    Ok(())
}
