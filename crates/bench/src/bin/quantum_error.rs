//! The baseline comparison behind the paper's contribution: reaction-time
//! error of a clock-driven RTOS model versus the paper's time-accurate
//! preemption.
//!
//! The paper dismisses the SpecC-style model because it "does not model
//! RTOS preemption with enough time accuracy since its precision depends
//! on the model's clock accuracy". This harness quantifies exactly that:
//! random hardware interrupts against a busy processor, measuring how
//! late the handler starts under various preemption quanta. The
//! time-accurate model's error is identically zero; the quantized model's
//! error is uniform in [0, quantum).
//!
//! The samples fan out over the `rtsim-campaign` worker pool: each job
//! draws one interrupt offset from its forked stream and measures the
//! reaction delay under every preemption model, so the sampled offsets —
//! and therefore the whole table — are identical for any
//! `RTSIM_WORKERS`. `RTSIM_BENCH_SMOKE=1` shrinks the sample count.
//!
//! Run with: `cargo run --release -p rtsim-bench --bin quantum_error`

use rtsim::campaign::Campaign;
use rtsim::{
    spawn_interrupt_at, DurationSummary, Measure, Processor, ProcessorConfig, SimDuration,
    Simulator, TaskConfig, TaskState, TraceRecorder, Waiter,
};
use rtsim_bench::{report_campaign, scaled};

fn us(v: u64) -> SimDuration {
    SimDuration::from_us(v)
}

/// Reaction delay of a handler woken at `at` while a background task
/// computes, under the given preemption quantum (`None` = accurate).
fn reaction_delay(at: SimDuration, quantum: Option<SimDuration>) -> SimDuration {
    let mut sim = Simulator::new();
    let rec = TraceRecorder::new();
    let mut config = ProcessorConfig::new("CPU");
    if let Some(q) = quantum {
        config = config.quantized_preemption(q);
    }
    let cpu = Processor::new(&mut sim, &rec, config);
    let isr = cpu.spawn_task(&mut sim, TaskConfig::new("isr").priority(9), |t| {
        t.suspend(false);
        t.execute(us(5));
    });
    cpu.spawn_task(&mut sim, TaskConfig::new("bg").priority(1), |t| {
        t.execute(us(50_000));
    });
    spawn_interrupt_at(&mut sim, "irq", at, Waiter::Task(isr));
    sim.run().unwrap();
    let trace = rec.snapshot();
    let actor = trace.actor_by_name("isr").expect("isr");
    let started = *Measure::new(&trace)
        .transitions_to(actor, TaskState::Running)
        .last()
        .expect("handler ran");
    started.since_start() - at
}

const CONFIGS: [(&str, Option<u64>); 5] = [
    ("time-accurate (paper)", None),
    ("quantum 1us", Some(1)),
    ("quantum 10us", Some(10)),
    ("quantum 100us", Some(100)),
    ("quantum 1000us", Some(1_000)),
];

fn main() {
    let samples = scaled(100, 8);
    // One job per sampled interrupt instant: the job draws its offset
    // from its forked stream and measures the reaction error under every
    // preemption model, returning one error column per config.
    let cmp = Campaign::new("quantum_error", 2003).run_vs_serial(samples, |ctx| {
        let at = us(ctx.rng().gen_range(1_000..40_000));
        CONFIGS.map(|(_, quantum)| reaction_delay(at, quantum.map(us)))
    });
    assert_eq!(cmp.report.failed_count(), 0, "a sample panicked");

    println!("== interrupt reaction error vs preemption model granularity ==\n");
    println!("(the paper's model: zero error; clock-driven baseline: up to one quantum)\n");
    println!(
        "{:<22} {:>10} {:>10} {:>10} {:>10}",
        "model", "min err", "mean err", "p95 err", "max err"
    );
    for (column, (label, quantum)) in CONFIGS.into_iter().enumerate() {
        let quantum = quantum.map(us);
        let errors: Vec<SimDuration> = cmp.report.values().map(|row| row[column]).collect();
        let summary = DurationSummary::from_durations(errors).expect("samples");
        println!(
            "{:<22} {:>10} {:>10} {:>10} {:>10}",
            label,
            summary.min.to_string(),
            summary.mean.to_string(),
            summary.p95.to_string(),
            summary.max.to_string()
        );
        if quantum.is_none() {
            assert_eq!(
                summary.max,
                SimDuration::ZERO,
                "accurate model must be exact"
            );
        } else if let Some(q) = quantum {
            assert!(summary.max < q, "error bounded by one quantum");
        }
    }
    report_campaign(&cmp);
    println!("\n(this is Gerstlauer/Gajski's limitation the paper's §2 cites: the");
    println!("clock-driven model's precision 'depends on the model's clock");
    println!("accuracy', while the event-driven wait-with-timeout mechanism");
    println!("reacts at the exact interrupt instant at no simulation cost)");
}
