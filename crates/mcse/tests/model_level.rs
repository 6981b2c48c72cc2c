//! System-level tests of the MCSE layer: multi-processor pipelines,
//! one-line HW/SW remapping, elaborated-system introspection, codegen on
//! a realistic model, constraint reporting, and closure bodies against
//! scripts.

use rtsim_comm::{EventPolicy, LockMode, Priority};
use rtsim_core::{EngineKind, Overheads, TaskConfig};
use rtsim_kernel::{ExecMode, SimDuration, SimTime};
use rtsim_mcse::script::{
    await_event, delay, exec, note, q_read, q_write, repeat, signal, var_read, var_write, Instr,
};
use rtsim_mcse::{generate_freertos, Mapping, Message, ModelError, SystemModel, TimingConstraint};

fn us(v: u64) -> SimDuration {
    SimDuration::from_us(v)
}

/// A 3-stage pipeline with the middle stage's mapping parameterized.
fn pipeline_model(middle: Mapping, frames: u64) -> SystemModel {
    let mut model = SystemModel::new("pipeline");
    model.queue("in", 4);
    model.queue("out", 4);
    model.software_processor("CPU_A", Overheads::zero());
    model.software_processor("CPU_B", Overheads::zero());
    model.function(TaskConfig::new("source"), move |agent, io| {
        let q = io.queue("in");
        for id in 0..frames {
            agent.delay(us(100));
            q.write(agent, Message::new(id, 64));
        }
    });
    model.function(
        TaskConfig::new("transform").priority(5),
        move |agent, io| {
            let input = io.queue("in");
            let output = io.queue("out");
            for _ in 0..frames {
                let m = input.read(agent);
                agent.execute(us(30));
                output.write(agent, m);
            }
        },
    );
    model.function(TaskConfig::new("sink").priority(5), move |agent, io| {
        let q = io.queue("out");
        for expected in 0..frames {
            let m = q.read(agent);
            assert_eq!(m.id, expected);
            agent.execute(us(10));
        }
    });
    model.map("source", Mapping::Hardware);
    model.map("transform", middle);
    model.map_to_processor("sink", "CPU_B");
    model
}

#[test]
fn pipeline_crosses_processors() {
    let mut system = pipeline_model(Mapping::Software("CPU_A".into()), 5)
        .elaborate()
        .unwrap();
    system.run().unwrap();
    // 5 frames, last produced at 500, +30 transform +10 sink.
    assert_eq!(system.now(), SimTime::ZERO + us(540));
    assert_eq!(system.processor_names().count(), 2);
    assert!(system.task("transform").is_some());
    assert!(system.task("source").is_none()); // hardware has no TaskHandle
}

#[test]
fn remapping_a_function_is_one_line() {
    // The MCSE promise: the same body runs mapped to hardware or to any
    // processor. Timing shifts (hardware is concurrent), message counts
    // do not.
    let mut sw = pipeline_model(Mapping::Software("CPU_B".into()), 5)
        .elaborate()
        .unwrap();
    sw.run().unwrap();
    let mut hw = pipeline_model(Mapping::Hardware, 5).elaborate().unwrap();
    hw.run().unwrap();
    // Both deliver all frames...
    for system in [&sw, &hw] {
        let trace = system.trace();
        let q_out = trace.actor_by_name("out").unwrap();
        let stats = rtsim_trace::Statistics::from_trace(&trace, system.now());
        assert_eq!(stats.relation(q_out).unwrap().writes, 5);
        assert_eq!(stats.relation(q_out).unwrap().reads, 5);
    }
    // ...and here both mappings even finish at the same instant (the
    // pipeline is source-limited), which is exactly the kind of insight
    // the exploration is for.
    assert_eq!(sw.now(), hw.now());
}

#[test]
fn sharing_a_processor_serializes_the_stages() {
    // transform and sink on one CPU: still correct, same end time here
    // (source-limited), but the processor now shows two tasks competing.
    let mut system = pipeline_model(Mapping::Software("CPU_B".into()), 5)
        .elaborate()
        .unwrap();
    system.run().unwrap();
    let stats = system.processor_stats("CPU_B").unwrap();
    assert!(stats.dispatches >= 10, "{stats:?}");
}

#[test]
fn constraints_report_over_the_whole_model() {
    let mut model = pipeline_model(Mapping::Software("CPU_A".into()), 5);
    model.constraint(TimingConstraint::CompletionWithin {
        name: "transform-deadline".into(),
        function: "transform".into(),
        bound: us(30), // each job: read satisfied -> 30 us execute -> block
    });
    model.constraint(TimingConstraint::MinActivity {
        name: "sink-progress".into(),
        function: "sink".into(),
        min_ratio: 0.05,
    });
    model.constraint(TimingConstraint::MinActivity {
        name: "impossible".into(),
        function: "sink".into(),
        min_ratio: 0.99,
    });
    let mut system = model.elaborate().unwrap();
    system.run().unwrap();
    let report = system.verify_constraints();
    assert_eq!(report.violations().count(), 1);
    assert_eq!(
        report.to_string(),
        "[PASS] transform-deadline — worst response 30 us over 6 activations (bound 30 us)
[PASS] sink-progress — activity 9.3% (min 5.0%)
[FAIL] impossible — activity 9.3% (min 99.0%)
"
    );
}

#[test]
fn codegen_covers_multi_processor_models() {
    let model = pipeline_model(Mapping::Software("CPU_A".into()), 5);
    let code = generate_freertos(&model);
    assert!(code.file("CPU_A.c").unwrap().contains("task_transform"));
    assert!(code.file("CPU_B.c").unwrap().contains("task_sink"));
    // The hardware source appears in no skeleton.
    assert!(!code.file("CPU_A.c").unwrap().contains("task_source"));
    assert!(!code.file("CPU_B.c").unwrap().contains("task_source"));
    assert!(code.file("relations.h").unwrap().contains("q_in"));
    assert!(code.file("relations.h").unwrap().contains("q_out"));
}

#[test]
fn periodic_function_helper_is_drift_free() {
    let mut model = SystemModel::new("periodic");
    model.software_processor("CPU", Overheads::zero());
    model.periodic_function(TaskConfig::new("tick").priority(1), us(100), us(10), 5);
    model.map_to_processor("tick", "CPU");
    let mut system = model.elaborate().unwrap();
    system.run().unwrap();
    let trace = system.trace();
    let actor = trace.actor_by_name("tick").unwrap();
    let runs: Vec<u64> = trace
        .records_for(actor)
        .filter_map(|r| match r.data {
            rtsim_trace::TraceData::State(rtsim_trace::TaskState::Running) => Some(r.at.as_us()),
            _ => None,
        })
        .collect();
    assert_eq!(runs, vec![0, 100, 200, 300, 400]);
}

#[test]
fn engine_choice_is_per_processor() {
    let mut model = SystemModel::new("mixed_engines");
    model.software_processor_with(
        "A",
        Box::new(rtsim_core::policies::PriorityPreemptive::new()),
        Overheads::zero(),
        true,
        EngineKind::ProcedureCall,
    );
    model.software_processor_with(
        "B",
        Box::new(rtsim_core::policies::PriorityPreemptive::new()),
        Overheads::zero(),
        true,
        EngineKind::DedicatedThread,
    );
    model.queue("link", 2);
    model.function(TaskConfig::new("tx").priority(1), |agent, io| {
        let q = io.queue("link");
        for id in 0..3 {
            agent.execute(us(10));
            q.write(agent, Message::new(id, 1));
        }
    });
    model.function(TaskConfig::new("rx").priority(1), |agent, io| {
        let q = io.queue("link");
        for _ in 0..3 {
            let _ = q.read(agent);
            agent.execute(us(10));
        }
    });
    model.map_to_processor("tx", "A");
    model.map_to_processor("rx", "B");
    let mut system = model.elaborate().unwrap();
    system.run().unwrap();
    // tx: 10, 20, 30; rx overlaps: last read at 30, done at 40.
    assert_eq!(system.now(), SimTime::ZERO + us(40));
}

#[test]
fn processor_utilization_reflects_the_load() {
    let mut system = pipeline_model(Mapping::Software("CPU_A".into()), 5)
        .elaborate()
        .unwrap();
    system.run().unwrap();
    // transform: 5 × 30 µs on CPU_A over 540 µs ≈ 27.8 %.
    let util_a = system.processor_utilization("CPU_A").unwrap();
    assert!((util_a - 150.0 / 540.0).abs() < 1e-9, "{util_a}");
    // sink: 5 × 10 µs on CPU_B ≈ 9.3 %.
    let util_b = system.processor_utilization("CPU_B").unwrap();
    assert!((util_b - 50.0 / 540.0).abs() < 1e-9, "{util_b}");
    assert_eq!(system.processor_utilization("nope"), None);
    assert_eq!(system.placement("transform"), Some("CPU_A"));
    assert_eq!(system.placement("source"), None);
}

#[test]
fn io_lookup_of_unknown_relation_panics_inside_the_run() {
    let mut model = SystemModel::new("typo");
    model.software_processor("CPU", Overheads::zero());
    model.event("real_event", EventPolicy::Boolean);
    model.function(TaskConfig::new("task"), |agent, io| {
        let _ = io.event("mistyped_event"); // must fail loudly
        agent.execute(us(1));
    });
    model.map_to_processor("task", "CPU");
    let mut system = model.elaborate().unwrap();
    let err = system.run().unwrap_err();
    let message = err.to_string();
    assert!(message.contains("mistyped_event"), "{message}");
}

/// The error elaborating a model whose one task runs `script`, with an
/// event `Tick`, a queue `q` and a shared variable `v` declared.
fn script_error(script: Vec<Instr>) -> ModelError {
    let mut model = SystemModel::new("names");
    model.software_processor("CPU", Overheads::zero());
    model.event("Tick", EventPolicy::Counter);
    model.queue("q", 1);
    model.shared_var("v", Message::new(0, 1), LockMode::Plain);
    model.function_script(TaskConfig::new("T"), script);
    model.map_to_processor("T", "CPU");
    model.elaborate().unwrap_err()
}

#[test]
fn a_script_naming_an_undeclared_relation_fails_at_elaborate() {
    let err = script_error(vec![delay(us(5)), q_read("Nope")]);
    assert_eq!(
        err,
        ModelError::UnknownRelation {
            function: "T".into(),
            relation: "Nope".into(),
            kind: "queue",
        }
    );
    assert_eq!(
        err.to_string(),
        "function `T` names no declared queue relation `Nope`"
    );
    // A declared name of another kind.
    let err = script_error(vec![delay(us(5)), q_read("Tick")]);
    assert_eq!(
        err,
        ModelError::UnknownRelation {
            function: "T".into(),
            relation: "Tick".into(),
            kind: "queue",
        }
    );
    // A name nested in a loop body.
    let err = script_error(vec![repeat(
        2,
        vec![await_event("Tick"), var_write("w", us(1), |r| r.msg)],
    )]);
    assert_eq!(
        err,
        ModelError::UnknownRelation {
            function: "T".into(),
            relation: "w".into(),
            kind: "shared-variable",
        }
    );
}

#[test]
fn an_empty_forever_body_fails_at_elaborate() {
    // Built directly: the `forever` helper already refuses an empty body.
    let empty = || Instr::Forever(Vec::new().into());
    let want = ModelError::EmptyForever {
        function: "T".into(),
    };
    assert_eq!(script_error(vec![delay(us(5)), empty()]), want);
    assert_eq!(
        script_error(vec![repeat(2, vec![delay(us(5)), empty()])]),
        want
    );
    assert_eq!(
        want.to_string(),
        "function `T` has a `Forever` with an empty body"
    );
}

/// One model, its bodies written as closures or as scripts: a hardware
/// source writes a capacity-1 queue and signals an event twice per
/// period; two prioritized tasks on a processor with 2 µs overheads wait
/// on the event, compute, and read or write a shared variable (the
/// high-priority writer also drains the queue, and may block on the
/// variable while the low-priority reader holds it).
fn closure_or_script_model(
    scripted: bool,
    mode: ExecMode,
    lock: LockMode,
    policy: EventPolicy,
) -> SystemModel {
    const N: u64 = 4;
    let mut model = SystemModel::new("closure_or_script");
    model.exec_mode(mode);
    model.queue("q", 1);
    model.event("tick", policy);
    model.shared_var("v", Message::new(0, 1), lock);
    model.software_processor("CPU", Overheads::uniform(us(2)));
    let (src, hi, lo) = (
        TaskConfig::new("src"),
        TaskConfig::new("hi").priority(5),
        TaskConfig::new("lo").priority(1),
    );
    if scripted {
        model.function_script(
            src,
            vec![repeat(
                N,
                vec![
                    delay(us(20)),
                    q_write("q", |r| Message::new(r.k, 8)),
                    signal("tick"),
                    signal("tick"),
                ],
            )],
        );
        model.function_script(
            hi,
            vec![repeat(
                N,
                vec![
                    await_event("tick"),
                    q_read("q"),
                    exec(us(4)),
                    var_write("v", us(3), |r| r.msg),
                ],
            )],
        );
        model.function_script(
            lo,
            vec![repeat(
                N,
                vec![await_event("tick"), var_read("v", us(15)), exec(us(2))],
            )],
        );
    } else {
        model.function(src, |agent, io| {
            let (q, tick) = (io.queue("q"), io.event("tick"));
            for k in 0..N {
                agent.delay(us(20));
                q.write(agent, Message::new(k, 8));
                tick.signal(agent);
                tick.signal(agent);
            }
        });
        model.function(hi, |agent, io| {
            let (q, tick, v) = (io.queue("q"), io.event("tick"), io.var("v"));
            for _ in 0..N {
                tick.wait(agent);
                let msg = q.read(agent);
                agent.execute(us(4));
                v.write_for(agent, us(3), msg);
            }
        });
        model.function(lo, |agent, io| {
            let (tick, v) = (io.event("tick"), io.var("v"));
            for _ in 0..N {
                tick.wait(agent);
                let _ = v.read_for(agent, us(15));
                agent.execute(us(2));
            }
        });
    }
    model.map("src", Mapping::Hardware);
    model.map_to_processor("hi", "CPU");
    model.map_to_processor("lo", "CPU");
    model
}

/// Closure bodies and scripts drive the same step machines and the same
/// relation operations, so the same behaviour written either way gives
/// the same canonical trace and the same kernel counters — closures on
/// threads, scripts on threads, and scripts inline — under every lock
/// mode (the ceiling above `hi`'s priority) and every event policy.
#[test]
fn closure_and_script_bodies_agree_in_both_exec_modes() {
    const LOCKS: [LockMode; 4] = [
        LockMode::Plain,
        LockMode::PreemptionMasked,
        LockMode::PriorityInheritance,
        LockMode::PriorityCeiling(Priority(9)),
    ];
    const POLICIES: [EventPolicy; 3] = [
        EventPolicy::Fugitive,
        EventPolicy::Boolean,
        EventPolicy::Counter,
    ];
    for lock in LOCKS {
        for policy in POLICIES {
            let run = |scripted, mode| {
                let mut system = closure_or_script_model(scripted, mode, lock, policy)
                    .elaborate()
                    .unwrap();
                system.run().unwrap();
                let trace = system.trace();
                let v = trace.actor_by_name("v").unwrap();
                let stats = rtsim_trace::Statistics::from_trace(&trace, system.now());
                let var = stats.relation(v).unwrap();
                // A fugitive or boolean tick can be lost; a counted one
                // releases every job.
                if policy == EventPolicy::Counter {
                    assert_eq!((var.writes, var.reads), (4, 4), "[{lock}] every job ran");
                }
                (rtsim_trace::canonical(&trace), system.kernel_stats())
            };
            let (closures, closure_stats) = run(false, ExecMode::Thread);
            let contended = matches!(lock, LockMode::Plain | LockMode::PriorityInheritance);
            if contended && policy == EventPolicy::Counter {
                assert!(
                    closures.contains("waiting-resource"),
                    "[{lock}] the model never contends for the shared variable:\n{closures}"
                );
            }
            for (label, scripted, mode) in [
                ("scripts/thread", true, ExecMode::Thread),
                ("scripts/segment", true, ExecMode::Segment),
            ] {
                let (trace, stats) = run(scripted, mode);
                assert_eq!(
                    trace, closures,
                    "[{lock}, {policy}] {label}: canonical trace"
                );
                assert_eq!(
                    stats, closure_stats,
                    "[{lock}, {policy}] {label}: kernel statistics"
                );
            }
        }
    }
}

/// A hardware function writing a variable whose release has a follow-up
/// (leave the critical region, reschedule): hardware has no RTOS, so the
/// follow-up does nothing, whether the body is a closure (a no-op
/// `Agent` call) or a script (no intent fed).
#[test]
fn a_hardware_release_follow_up_does_nothing_in_either_body() {
    for lock in [
        LockMode::PreemptionMasked,
        LockMode::PriorityCeiling(Priority(9)),
    ] {
        let run = |scripted, mode| {
            let mut model = SystemModel::new("hw_follow_up");
            model.exec_mode(mode);
            model.event("go", EventPolicy::Counter);
            model.shared_var("v", Message::new(0, 1), lock);
            model.software_processor("CPU", Overheads::uniform(us(2)));
            let (hw, t) = (TaskConfig::new("hw"), TaskConfig::new("t").priority(3));
            if scripted {
                let write = var_write("v", us(5), |r| Message::new(r.k, 1));
                model.function_script(hw, vec![repeat(3, vec![delay(us(7)), write, signal("go")])]);
                model.function_script(
                    t,
                    vec![repeat(3, vec![await_event("go"), var_read("v", us(4))])],
                );
            } else {
                model.function(hw, |agent, io| {
                    let (v, go) = (io.var("v"), io.event("go"));
                    for k in 0..3 {
                        agent.delay(us(7));
                        v.write_for(agent, us(5), Message::new(k, 1));
                        go.signal(agent);
                    }
                });
                model.function(t, |agent, io| {
                    let (v, go) = (io.var("v"), io.event("go"));
                    for _ in 0..3 {
                        go.wait(agent);
                        let _ = v.read_for(agent, us(4));
                    }
                });
            }
            model.map("hw", Mapping::Hardware);
            model.map_to_processor("t", "CPU");
            let mut system = model.elaborate().unwrap();
            system.run().unwrap();
            (
                rtsim_trace::canonical(&system.trace()),
                system.kernel_stats(),
            )
        };
        let closures = run(false, ExecMode::Thread);
        assert_eq!(
            run(true, ExecMode::Thread),
            closures,
            "[{lock}] scripts/thread"
        );
        assert_eq!(
            run(true, ExecMode::Segment),
            closures,
            "[{lock}] scripts/segment"
        );
    }
}

/// Annotations are interned labels, one id per text in the whole
/// process: a scripted model that annotates and misses a deadline keeps
/// equal records and writes equal canonical text whether its steps run
/// inline (Segment) or on process threads (Thread).
#[test]
fn annotations_and_a_deadline_miss_record_alike_in_both_exec_modes() {
    let run = |mode| {
        let mut model = SystemModel::new("annotated");
        model.exec_mode(mode);
        model.software_processor("CPU", Overheads::uniform(us(2)));
        model.function_script(
            TaskConfig::new("late").priority(3).deadline(us(60)),
            vec![
                note("late start"),
                exec(us(40)),
                note("half\\way"),
                exec(us(40)),
            ],
        );
        model.function_script(
            TaskConfig::new("busy").priority(7),
            vec![repeat(3, vec![note("tick"), exec(us(10)), delay(us(15))])],
        );
        model.map_to_processor("late", "CPU");
        model.map_to_processor("busy", "CPU");
        let mut system = model.elaborate().unwrap();
        system.run().unwrap();
        let trace = system.trace();
        (trace.records().to_vec(), rtsim_trace::canonical(&trace))
    };
    let (records, text) = run(ExecMode::Segment);
    for line in [
        " A deadline_miss\n",
        " A late\\sstart\n",
        " A half\\\\way\n",
        " A tick\n",
    ] {
        assert!(text.contains(line), "no `{}` line in\n{text}", line.trim());
    }
    let (thread_records, thread_text) = run(ExecMode::Thread);
    assert_eq!(thread_records, records);
    assert_eq!(thread_text, text);
}
