//! §3.2 overhead-model experiments: the effect of the three RTOS timing
//! parameters, fixed versus formula-driven.
//!
//! Sweeps a contended workload over (a) uniform fixed overheads and
//! (b) a formula scheduling duration proportional to the ready-queue
//! length (an O(n) scheduler), and tabulates the highest-priority task's
//! worst response time plus total simulated makespan.
//!
//! Run with: `cargo run --release -p rtsim-bench --bin overhead_sweep`

use rtsim::policies::PriorityPreemptive;
use rtsim::{
    EngineKind, OverheadSpec, Overheads, SimDuration, SystemModel, TaskConfig, TimingConstraint,
};

fn us(v: u64) -> SimDuration {
    SimDuration::from_us(v)
}

/// Ten periodic tasks with a priority ladder on one CPU.
fn workload(overheads: Overheads) -> SystemModel {
    let mut model = SystemModel::new("overhead_sweep");
    model.software_processor_with(
        "CPU",
        Box::new(PriorityPreemptive::new()),
        overheads,
        true,
        EngineKind::ProcedureCall,
    );
    for i in 0..10u64 {
        let name = format!("task{i}");
        let period = us(1_000 + 400 * i);
        let cost = us(40 + 15 * i);
        let cfg = TaskConfig::new(&name).priority(10 - i as u32);
        model.periodic_function(cfg, period, cost, 20);
        model.map_to_processor(&name, "CPU");
    }
    model.constraint(TimingConstraint::CompletionWithin {
        name: "task0-response".into(),
        function: "task0".into(),
        bound: us(1_000),
    });
    model
}

fn run(overheads: Overheads) -> (String, String, u64) {
    let mut system = workload(overheads).elaborate().expect("model");
    system.run().expect("run");
    let report = system.verify_constraints();
    let worst = report.results[0]
        .worst
        .map_or_else(|| "n/a".into(), |w| w.to_string());
    let stats = system.processor_stats("CPU").expect("cpu");
    (worst, system.now().to_string(), stats.scheduler_runs)
}

fn main() {
    println!("== §3.2: fixed overhead sweep (save = sched = load) ==\n");
    println!(
        "{:>10} {:>16} {:>14} {:>15}",
        "overhead", "worst response", "makespan", "scheduler runs"
    );
    for ovh_us in [0u64, 1, 2, 5, 10, 20, 50, 100] {
        let (worst, end, runs) = run(Overheads::uniform(us(ovh_us)));
        println!("{:>8}us {:>16} {:>14} {:>15}", ovh_us, worst, end, runs);
    }

    println!("\n== §3.2: formula overheads — O(n) scheduler, cost/ready-task ==\n");
    println!(
        "{:>14} {:>16} {:>14} {:>15}",
        "per-task cost", "worst response", "makespan", "scheduler runs"
    );
    for per_task_us in [0u64, 1, 2, 5, 10, 20] {
        let (worst, end, runs) = run(Overheads {
            context_save: OverheadSpec::fixed(us(2)),
            scheduling: OverheadSpec::formula(move |v| us(per_task_us) * v.ready_tasks as u64),
            context_load: OverheadSpec::fixed(us(2)),
            migration: OverheadSpec::zero(),
        });
        println!("{:>12}us {:>16} {:>14} {:>15}", per_task_us, worst, end, runs);
    }
    println!("\n(the formula column shows scheduling cost growing with contention,");
    println!("the capability §3.2 adds over fixed-overhead RTOS models)");
}
