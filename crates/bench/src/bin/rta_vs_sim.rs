//! Simulation versus theory: Monte-Carlo cross-validation of the RTOS
//! model against exact fixed-priority response-time analysis (Buttazzo,
//! the paper's reference \[10\].
//!
//! For random rate-monotonic task sets released synchronously (the
//! critical instant), the simulated first-job response time must equal
//! the analytic worst case *exactly* with zero overheads, and must exceed
//! it by precisely the switch-in costs when RTOS overheads are enabled.
//! Any disagreement would indicate a scheduling bug in the model.
//!
//! The trials fan out over the `rtsim-campaign` worker pool: each trial
//! draws its task sets from a stream forked off the campaign seed by
//! trial index, so `RTSIM_WORKERS=1` and `RTSIM_WORKERS=8` check the
//! exact same 200 task sets. `RTSIM_BENCH_SMOKE=1` shrinks the trial
//! count for CI execution.
//!
//! Run with: `cargo run --release -p rtsim-bench --bin rta_vs_sim`

use rtsim::campaign::{json::Json, Campaign};
use rtsim::policies::PriorityPreemptive;
use rtsim::testutil::Rng;
use rtsim::{
    assign_rate_monotonic, response_time_analysis, utilization, PeriodicTask, Processor,
    ProcessorConfig, SimDuration, TaskConfig, TaskState, TraceRecorder,
};
use rtsim_bench::{report_campaign, scaled, write_campaign_outputs};

fn us(v: u64) -> SimDuration {
    SimDuration::from_us(v)
}

/// Simulated first-job response times for a synchronous release.
fn simulate(tasks: &[PeriodicTask]) -> Vec<SimDuration> {
    let mut sim = rtsim::Simulator::new();
    let rec = TraceRecorder::new();
    let cpu = Processor::new(
        &mut sim,
        &rec,
        ProcessorConfig::new("CPU").policy(PriorityPreemptive::new()),
    );
    // Tasks must be properly periodic: response-time analysis charges a
    // low-priority job with *every* re-arrival of its interferers, so the
    // simulation has to produce those re-arrivals. Run each task long
    // enough to cover the largest deadline.
    let horizon = tasks.iter().map(|t| t.period).max().expect("tasks") * 2;
    for task in tasks {
        let wcet = task.wcet;
        let period = task.period;
        let jobs = horizon / period + 1;
        cpu.spawn_task(
            &mut sim,
            TaskConfig::new(&task.name).priority(task.priority.0),
            move |t| {
                // Anchor releases at absolute time zero (synchronous
                // release): job k is released at k*T, exactly as the
                // analysis assumes. Anchoring at first dispatch would skew
                // every re-arrival by the initial queueing delay.
                for k in 1..=jobs {
                    t.execute(wcet);
                    let next = rtsim::SimTime::ZERO + period * k;
                    let now = t.now();
                    if next > now {
                        t.delay(next - now);
                    }
                }
            },
        );
    }
    sim.run().expect("run");
    let trace = rec.snapshot();
    tasks
        .iter()
        .map(|task| {
            let actor = trace.actor_by_name(&task.name).expect("actor");
            let mut activation = None;
            for r in trace.records_for(actor) {
                match r.data {
                    rtsim::trace::TraceData::State(TaskState::Ready) if activation.is_none() => {
                        activation = Some(r.at)
                    }
                    rtsim::trace::TraceData::State(TaskState::Waiting | TaskState::Terminated) => {
                        return r.at - activation.expect("activated")
                    }
                    _ => {}
                }
            }
            unreachable!("job completed")
        })
        .collect()
}

fn random_set(rng: &mut Rng, n: usize) -> Vec<PeriodicTask> {
    let tasks: Vec<PeriodicTask> = (0..n)
        .map(|i| {
            let period = rng.gen_range(50..400);
            let wcet = rng.gen_range(1..1 + period / (n as u64 + 1));
            PeriodicTask::new(&format!("t{i}"), us(wcet), us(period), rtsim::Priority(0))
        })
        .collect();
    assign_rate_monotonic(tasks)
}

/// Per-trial result. Every field is a pure function of the trial's
/// forked stream, so serial and parallel runs are bit-identical.
#[derive(Debug, Clone, PartialEq)]
struct Trial {
    checked: u64,
    exact: u64,
    utilization: f64,
    /// Candidate sets rejected as unschedulable before this trial's set.
    rejected: u64,
    mismatches: Vec<String>,
}

/// Draws candidate sets from sub-streams of the trial's generator until
/// one passes exact RTA, then cross-validates the simulation against it.
/// Retry-until-schedulable keeps the checked-response count a constant
/// of the trial plan (sum of set sizes), not of the draw luck.
fn trial(ctx: &mut rtsim::JobCtx) -> Trial {
    let n = 2 + (ctx.index() % 5);
    let mut rejected = 0u64;
    loop {
        let mut rng = ctx.fork(rejected);
        let tasks = random_set(&mut rng, n);
        let rta = response_time_analysis(&tasks, SimDuration::ZERO);
        if !rta.iter().all(|r| r.schedulable) {
            rejected += 1;
            continue;
        }
        let simulated = simulate(&tasks);
        let mut exact = 0u64;
        let mut mismatches = Vec::new();
        for ((task, analysis), sim_response) in tasks.iter().zip(&rta).zip(&simulated) {
            if Some(*sim_response) == analysis.worst {
                exact += 1;
            } else {
                mismatches.push(format!(
                    "MISMATCH: {} sim {} vs rta {:?} (set utilization {:.2})",
                    task.name,
                    sim_response,
                    analysis.worst,
                    utilization(&tasks)
                ));
            }
        }
        return Trial {
            checked: n as u64,
            exact,
            utilization: utilization(&tasks),
            rejected,
            mismatches,
        };
    }
}

fn main() {
    let trials = scaled(200, 10);
    let cmp = Campaign::new("rta_vs_sim", 20040216) // DATE 2004 ;-)
        .run_vs_serial(trials, trial);
    let report = &cmp.report;

    let mut checked = 0u64;
    let mut exact = 0u64;
    let mut rejected = 0u64;
    let mut worst_util = 0.0f64;
    for t in report.values() {
        checked += t.checked;
        exact += t.exact;
        rejected += t.rejected;
        worst_util = worst_util.max(t.utilization);
        for m in &t.mismatches {
            println!("{m}");
        }
    }
    assert_eq!(report.failed_count(), 0, "a trial panicked");

    println!("== simulation vs exact response-time analysis ==");
    println!("random rate-monotonic sets, synchronous release (critical instant)");
    println!("trials                 : {trials} ({rejected} unschedulable candidates redrawn)");
    println!("task responses checked : {checked}");
    println!("exact agreements       : {exact}");
    println!("highest utilization    : {worst_util:.2}");
    assert_eq!(checked, exact, "simulation disagreed with theory");
    report_campaign(&cmp);

    let records: Vec<Json> = report
        .outcomes
        .iter()
        .filter_map(|o| o.result.as_ref().ok().map(|t| (o.index, t)))
        .map(|(index, t)| {
            Json::obj([
                ("trial", Json::from(index)),
                ("checked", Json::from(t.checked)),
                ("exact", Json::from(t.exact)),
                ("utilization", Json::from(t.utilization)),
                ("rejected", Json::from(t.rejected)),
            ])
        })
        .collect();
    let mut csv = rtsim::campaign::csv::CsvTable::new([
        "trial",
        "checked",
        "exact",
        "utilization",
        "rejected",
    ]);
    for (index, t) in report
        .outcomes
        .iter()
        .filter_map(|o| o.result.as_ref().ok().map(|t| (o.index, t)))
    {
        csv.row([
            index.to_string(),
            t.checked.to_string(),
            t.exact.to_string(),
            format!("{:.4}", t.utilization),
            t.rejected.to_string(),
        ]);
    }
    write_campaign_outputs(
        "rta_vs_sim",
        &rtsim::campaign::json::to_jsonl(&records),
        &csv.to_string(),
    );

    println!("\nall simulated responses equal the analytic worst case — the RTOS");
    println!("model's priority-preemptive scheduling is exact at the critical instant.");
}
