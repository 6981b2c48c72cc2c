//! Figures 3 & 5: the coroutine-switch behaviour of the two RTOS model
//! implementations.
//!
//! The paper's Figure 3 shows the schedule with a dedicated RTOS thread —
//! every scheduling action bounces through the RTOS coroutine — and
//! Figure 5 the same workload under the procedure-call model, where "the
//! only thread switches are those of the tasks of the system". This
//! harness runs an identical two-task + interrupt workload under both
//! engines and prints the switch counts and the overhead decomposition
//! (context save → scheduling → context load) that Figure 5 annotates.
//! `crates/bench/tests/bin_smoke.rs` pins the switch counts it prints.

use rtsim::scenarios::ab_stress_system;
use rtsim::{
    spawn_interrupt_at, EngineKind, OverheadKind, Overheads, Processor, ProcessorConfig,
    SimDuration, Simulator, TaskConfig, TraceRecorder, Waiter,
};

fn us(v: u64) -> SimDuration {
    SimDuration::from_us(v)
}

/// The Figure 3/5 workload: two tasks, one external interrupt, uniform
/// overheads. Returns (kernel switches, scheduler runs, trace).
fn run(engine: EngineKind) -> (u64, u64, rtsim::Trace) {
    let mut sim = Simulator::new();
    let rec = TraceRecorder::new();
    let cpu = Processor::new(
        &mut sim,
        &rec,
        ProcessorConfig::new("CPU")
            .engine(engine)
            .overheads(Overheads::uniform(us(5))),
    );
    let t1 = cpu.spawn_task(&mut sim, TaskConfig::new("T1").priority(5), |t| {
        for _ in 0..3 {
            t.suspend(false);
            t.execute(us(30));
        }
    });
    cpu.spawn_task(&mut sim, TaskConfig::new("TaskN").priority(1), |t| {
        t.execute(us(400));
    });
    for (i, at) in [100u64, 200, 300].into_iter().enumerate() {
        spawn_interrupt_at(
            &mut sim,
            &format!("hw_irq{i}"),
            us(at),
            Waiter::Task(t1),
        );
    }
    sim.run().expect("run");
    (sim.stats().process_switches, cpu.stats().scheduler_runs, rec.snapshot())
}

fn main() {
    println!("== Figures 3 & 5: thread switching of the two RTOS models ==\n");
    println!("workload: TaskN computing 400 us, T1 woken by 3 HW interrupts,");
    println!("all RTOS overheads 5 us (save / scheduling / load)\n");

    let mut rows = Vec::new();
    for engine in [EngineKind::DedicatedThread, EngineKind::ProcedureCall] {
        let (switches, sched_runs, trace) = run(engine);
        // Tally the overhead decomposition of Figure 5.
        let mut save = 0u64;
        let mut sched = 0u64;
        let mut load = 0u64;
        for r in trace.records() {
            if let rtsim::trace::TraceData::Overhead { kind, .. } = r.data {
                match kind {
                    OverheadKind::ContextSave => save += 1,
                    OverheadKind::Scheduling => sched += 1,
                    OverheadKind::ContextLoad => load += 1,
                    OverheadKind::Migration => {} // single-core: never recorded
                }
            }
        }
        rows.push((engine, switches, sched_runs, save, sched, load));
    }

    println!(
        "{:<18} {:>16} {:>15} {:>6} {:>6} {:>6}",
        "engine", "kernel switches", "scheduler runs", "saves", "scheds", "loads"
    );
    for (engine, switches, sched_runs, save, sched, load) in &rows {
        println!(
            "{:<18} {:>16} {:>15} {:>6} {:>6} {:>6}",
            engine.to_string(),
            switches,
            sched_runs,
            save,
            sched,
            load
        );
    }
    let (_, a, ..) = rows[0];
    let (_, b, ..) = rows[1];
    println!(
        "\nThe dedicated RTOS thread costs {} extra coroutine switches ({:+.0}%)",
        a - b,
        (a as f64 / b as f64 - 1.0) * 100.0
    );
    println!("for the same simulated schedule — the effect the paper's §4 predicts");
    println!("('there is a context switch for each call to the scheduler and each");
    println!("return, what is not the case when we use procedure calls').\n");

    // Larger synthetic workload for a second data point.
    println!("== scheduling-heavy stress (8 tasks x 200 rounds) ==");
    for engine in [EngineKind::DedicatedThread, EngineKind::ProcedureCall] {
        let mut system = ab_stress_system(engine, 8, 200).elaborate().expect("model");
        system.run().expect("run");
        println!(
            "{:<18} kernel switches: {}",
            engine.to_string(),
            system.kernel_stats().process_switches
        );
    }
}
