//! Cross-policy behavioural laws, checked on the shared scenario set.
//!
//! Where `tests/goldens/farm.jsonl` pins *exact* behaviour, these tests
//! pin *relationships* that must hold whatever the exact numbers are:
//! EDF dominating rate-monotonic on an over-utilized workload,
//! round-robin's quantum accounting conserving compute time, and the
//! non-preemptive mode never preempting.

use rtsim::policies::{EarliestDeadlineFirst, Fifo, PriorityPreemptive, RateMonotonic, RoundRobin};
use rtsim::scenarios::contended_system;
use rtsim::trace::TraceData;
use rtsim::{
    assign_rate_monotonic, partition_first_fit, ActorKind, Overheads, PeriodicTask, Priority,
    SchedulingPolicy, SimDuration, SimTime, SystemModel, TaskConfig, TaskState,
};

fn us(v: u64) -> SimDuration {
    SimDuration::from_us(v)
}

/// A full-utilization implicit-deadline pair: T1 = (period 10 ms, cost
/// 5 ms), T2 = (period 14 ms, cost 7 ms). Total utilization is exactly
/// 1.0, above the two-task rate-monotonic bound (~0.828) but within
/// EDF's: the textbook workload EDF schedules and fixed priorities miss.
fn edf_vs_rm_workload() -> SystemModel {
    let mut model = SystemModel::new("edf_vs_rm");
    model.software_processor("CPU", Overheads::zero());
    for (name, period_us, cost_us) in [("t1", 10_000u64, 5_000u64), ("t2", 14_000, 7_000)] {
        let cfg = TaskConfig::new(name).deadline(us(period_us)).priority(1);
        model.periodic_function(cfg, us(period_us), us(cost_us), 10);
        model.map_to_processor(name, "CPU");
    }
    model
}

fn run_misses(policy: impl Fn() -> Box<dyn SchedulingPolicy>) -> u64 {
    let mut model = edf_vs_rm_workload();
    model.override_schedulers(true, |_| policy());
    let mut system = model.elaborate().unwrap();
    system.run().unwrap();
    system.processor_stats("CPU").unwrap().deadline_misses
}

#[test]
fn edf_meets_deadlines_where_rate_monotonic_misses() {
    let edf = run_misses(|| Box::new(EarliestDeadlineFirst::new()));
    let rm = run_misses(|| Box::new(RateMonotonic::new()));
    assert_eq!(edf, 0, "EDF must schedule a U=1.0 implicit-deadline set");
    assert!(
        rm > 0,
        "rate-monotonic must miss above the Liu-Layland bound"
    );
    assert!(edf <= rm);
}

/// Dhall's task set scaled to microseconds: one near-full-utilization
/// heavy task plus two light tasks whose shorter period gives them the
/// earlier deadlines. On two cores, global EDF lets the light jobs hog
/// both cores at every release, so the heavy job starts too late to
/// meet its deadline — while the per-core utilizations are low enough
/// that a first-fit partition under rate-monotonic meets everything.
fn dhall_tasks() -> Vec<PeriodicTask> {
    vec![
        PeriodicTask::new("heavy", us(1_000), us(1_100), Priority(1)),
        PeriodicTask::new("light0", us(400), us(1_000), Priority(1)),
        PeriodicTask::new("light1", us(400), us(1_000), Priority(1)),
    ]
}

fn dhall_misses(model: SystemModel) -> u64 {
    let mut system = model.elaborate().unwrap();
    system.run().unwrap();
    system.processor_stats("CPU").unwrap().deadline_misses
}

#[test]
fn partitioned_rm_beats_global_edf_on_the_dhall_workload() {
    // Global: EDF over one ready queue on both cores, migration allowed.
    let mut global = SystemModel::new("dhall_global");
    global.software_processor("CPU", Overheads::zero());
    global.processor_cores("CPU", 2);
    for t in dhall_tasks() {
        let cfg = TaskConfig::new(&t.name)
            .priority(t.priority.0)
            .deadline(t.deadline);
        global.periodic_function(cfg, t.period, t.wcet, 3);
        global.map_to_processor(&t.name, "CPU");
    }
    global.override_schedulers(true, |_| Box::new(EarliestDeadlineFirst::new()));

    // Partitioned: the analysis helpers place the heavy task alone on
    // core 0 and both light tasks on core 1; pinning makes it so.
    let tasks = assign_rate_monotonic(dhall_tasks());
    let bins = partition_first_fit(&tasks, 2).expect("the Dhall set partitions on two cores");
    let mut partitioned = SystemModel::new("dhall_partitioned");
    partitioned.software_processor("CPU", Overheads::zero());
    partitioned.processor_cores("CPU", 2);
    for (core, bin) in bins.iter().enumerate() {
        for &i in bin {
            let t = &tasks[i];
            let cfg = TaskConfig::new(&t.name)
                .priority(t.priority.0)
                .deadline(t.deadline)
                .pin_to_core(core);
            partitioned.periodic_function(cfg, t.period, t.wcet, 3);
            partitioned.map_to_processor(&t.name, "CPU");
        }
    }
    partitioned.override_schedulers(true, |_| Box::new(RateMonotonic::new()));

    let global_misses = dhall_misses(global);
    let partitioned_misses = dhall_misses(partitioned);
    assert!(
        global_misses > 0,
        "global EDF must exhibit the Dhall effect on this set"
    );
    assert_eq!(
        partitioned_misses, 0,
        "partitioned rate-monotonic must meet every deadline"
    );
}

#[test]
fn round_robin_quantum_accounting_conserves_compute() {
    // Three equal tasks released together, each demanding exactly 1 ms,
    // sliced by a 200 us quantum with zero overheads: however the slices
    // interleave, total Running time must equal total demanded compute,
    // and the quantum must actually expire.
    let mut model = SystemModel::new("rr_accounting");
    model.software_processor("CPU", Overheads::zero());
    for i in 0..3u32 {
        let name = format!("t{i}");
        model.function(TaskConfig::new(&name).priority(1), |agent, _io| {
            agent.execute(us(1_000));
        });
        model.map_to_processor(&name, "CPU");
    }
    model.override_schedulers(true, |_| Box::new(RoundRobin::new(us(200))));
    let mut system = model.elaborate().unwrap();
    system.run().unwrap();

    let end = system.now();
    assert_eq!(end, SimTime::ZERO + us(3_000), "zero-overhead makespan");
    let trace = system.trace();
    let total_running: SimDuration = trace
        .actors_of_kind(ActorKind::Task)
        .flat_map(|a| trace.state_intervals(a, end))
        .filter(|&(_, _, state)| state == TaskState::Running)
        .map(|(start, stop, _)| stop - start)
        .sum();
    assert_eq!(total_running, us(3_000));

    let stats = system.processor_stats("CPU").unwrap();
    // 15 quantums of work; the final quantum of each task completes the
    // task rather than expiring, and nobody is left to displace the last
    // task standing — but plenty of expirations must be counted.
    assert!(stats.quantum_expirations >= 10, "{stats:?}");
    assert_eq!(stats.deadline_misses, 0);
}

#[test]
fn non_preemptive_mode_never_records_a_preemption() {
    type MakePolicy = fn() -> Box<dyn SchedulingPolicy>;
    let policies: [(&str, MakePolicy); 4] = [
        ("priority", || Box::new(PriorityPreemptive::new())),
        ("fifo", || Box::new(Fifo::new())),
        ("edf", || Box::new(EarliestDeadlineFirst::new())),
        ("rr", || Box::new(RoundRobin::new(us(200)))),
    ];
    for (name, make) in policies {
        let mut model = contended_system();
        model.override_schedulers(false, |_| make());
        let mut system = model.elaborate().unwrap();
        system.run().unwrap();
        let stats = system.processor_stats("CPU").unwrap();
        assert_eq!(
            stats.preemptions, 0,
            "cooperative {name} preempted: {stats:?}"
        );
        // The workload still completes: every task reaches Terminated.
        // (Job counts are not comparable here — overrun activations merge
        // into one back-to-back job when nothing preempts them.)
        let trace = system.trace();
        for task in ["urgent", "mid0", "mid1", "bg"] {
            let actor = trace.actor_by_name(task).unwrap();
            let last = trace
                .records_for(actor)
                .filter_map(|r| match r.data {
                    TraceData::State(s) => Some(s),
                    _ => None,
                })
                .last();
            assert_eq!(
                last,
                Some(TaskState::Terminated),
                "cooperative {name}: {task} never finished"
            );
        }
    }
}

#[test]
fn preemptive_priority_does_preempt_the_same_workload() {
    // The control for the test above: same scenario, preemptive mode.
    let mut model = contended_system();
    model.override_schedulers(true, |_| Box::new(PriorityPreemptive::new()));
    let mut system = model.elaborate().unwrap();
    system.run().unwrap();
    assert!(system.processor_stats("CPU").unwrap().preemptions > 0);
}
