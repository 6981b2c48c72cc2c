//! Ablation: the polling server's budget/period knob — the classic
//! trade-off between aperiodic latency and periodic-task protection
//! (Buttazzo, the paper's reference \[10\]), demonstrated on the `rtsim`
//! RTOS model.
//!
//! The five server configurations are independent simulations over the
//! same aperiodic load, so they fan out over the `rtsim-campaign`
//! worker pool (`RTSIM_WORKERS` knob); the load itself is drawn once
//! from the campaign root stream so every strategy sees identical
//! arrivals. `RTSIM_BENCH_SMOKE=1` shrinks the arrival count.
//!
//! Run with: `cargo run --release -p rtsim-bench --bin server_ablation`

use rtsim::campaign::Campaign;
use rtsim::testutil::Rng;
use rtsim::{
    spawn_polling_server, AperiodicQueue, DurationSummary, PollingServerConfig, Processor,
    ProcessorConfig, SimDuration, SimTime, Simulator, TaskConfig, TaskState, TraceRecorder,
};
use rtsim_bench::{report_campaign, scaled};

fn us(v: u64) -> SimDuration {
    SimDuration::from_us(v)
}

/// Random aperiodic arrivals: (time, cost) pairs over a 100 ms run.
fn arrivals(rng: &mut Rng, count: usize) -> Vec<(SimDuration, SimDuration)> {
    (0..count)
        .map(|_| (us(rng.gen_range(0..100_000)), us(rng.gen_range(20..200))))
        .collect()
}

#[derive(Debug, Clone, PartialEq)]
struct Outcome {
    aperiodic: Option<DurationSummary>,
    periodic_worst_us: u64,
}

/// Periodic task under test: 1 ms period, 300 µs cost, 100 jobs. Returns
/// its worst observed response and the aperiodic latencies.
fn run(
    arrivals: &[(SimDuration, SimDuration)],
    period: SimDuration,
    budget: SimDuration,
) -> Outcome {
    let mut sim = Simulator::new();
    let rec = TraceRecorder::new();
    let cpu = Processor::new(&mut sim, &rec, ProcessorConfig::new("CPU"));
    let queue = AperiodicQueue::new(&rec);

    spawn_polling_server(
        &cpu,
        &mut sim,
        PollingServerConfig {
            name: "server".into(),
            priority: 9,
            period,
            budget,
            cycles: 150_000 / period.as_us().max(1),
        },
        queue.clone(),
    );

    // The periodic workload whose deadlines the server protects.
    cpu.spawn_task(
        &mut sim,
        TaskConfig::new("periodic").priority(5),
        move |t| {
            for k in 1..=100u64 {
                t.execute(us(300));
                let next = SimTime::ZERO + us(1_000) * k;
                let now = t.now();
                if next > now {
                    t.delay(next - now);
                }
            }
        },
    );

    // Aperiodic stimulus.
    let stim = queue.clone();
    let schedule = arrivals.to_vec();
    sim.spawn("stimulus", move |ctx| {
        let mut sorted = schedule.clone();
        sorted.sort();
        let mut last = SimDuration::ZERO;
        for (id, (at, cost)) in sorted.into_iter().enumerate() {
            ctx.wait_for(at - last);
            last = at;
            stim.submit(ctx.now(), id as u64, cost);
        }
    });

    sim.run_until(SimTime::ZERO + us(200_000)).unwrap();

    // Aperiodic latency distribution.
    let aperiodic =
        DurationSummary::from_durations(queue.completions().iter().map(|c| c.latency()));
    // Periodic worst response (activation = k ms).
    let trace = rec.snapshot();
    let actor = trace.actor_by_name("periodic").expect("actor");
    let mut worst = 0u64;
    let mut activation: Option<SimTime> = Some(SimTime::ZERO);
    for r in trace.records_for(actor) {
        match r.data {
            rtsim::trace::TraceData::State(TaskState::Waiting | TaskState::Terminated) => {
                if let Some(a) = activation.take() {
                    worst = worst.max((r.at - a).as_us());
                }
            }
            rtsim::trace::TraceData::State(TaskState::Ready) if activation.is_none() => {
                activation = Some(r.at);
            }
            _ => {}
        }
    }
    Outcome {
        aperiodic,
        periodic_worst_us: worst,
    }
}

const STRATEGIES: [(&str, u64, u64); 5] = [
    ("polling 1ms/100us", 1_000, 100),
    ("polling 1ms/300us", 1_000, 300),
    ("polling 1ms/500us", 1_000, 500),
    ("polling 5ms/1500us", 5_000, 1_500),
    ("polling 10ms/5000us", 10_000, 5_000),
];

fn main() {
    // The load is drawn from the campaign root stream (seed 42, stream
    // 0) so it is shared by every strategy — the ablation varies only
    // the server parameters.
    let mut rng = Rng::seed_from_u64(42).fork(0);
    let load = arrivals(&mut rng, scaled(60, 12));

    let cmp = Campaign::new("server_ablation", 42).run_vs_serial(STRATEGIES.len(), |ctx| {
        let (_, period, budget) = STRATEGIES[ctx.index()];
        run(&load, us(period), us(budget))
    });
    assert_eq!(cmp.report.failed_count(), 0, "a strategy panicked");

    println!("== aperiodic service: the polling-server budget/period trade-off ==\n");
    println!(
        "{:<28} {:>16} {:>14} {:>16}",
        "strategy", "aperiodic p95", "aperiodic max", "periodic worst"
    );
    for ((label, _, _), outcome) in STRATEGIES.into_iter().zip(cmp.report.values()) {
        let (p95, max) = outcome
            .aperiodic
            .map(|s| (s.p95.to_string(), s.max.to_string()))
            .unwrap_or_else(|| ("n/a".into(), "n/a".into()));
        println!(
            "{:<28} {:>16} {:>14} {:>14}us",
            label, p95, max, outcome.periodic_worst_us
        );
    }
    report_campaign(&cmp);
    println!("\n(bigger budgets serve aperiodics faster but push the periodic");
    println!("task's worst response up — the budget is the knob that trades");
    println!("event latency against deadline margin)");
}
