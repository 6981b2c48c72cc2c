//! Full-stack reproduction of the paper's §5 experiments: the Figure 6
//! TimeLine system (HW `Clock` + `Function_1/2/3` under a 5 µs-overhead
//! priority-preemptive RTOS), the Figure 7 mutual-exclusion scenario, and
//! the Figure 8 statistics — all built through the MCSE model layer, on
//! both RTOS engine implementations.

use rtsim::policies::PriorityPreemptive;
use rtsim::{
    EngineKind, EventPolicy, LockMode, Mapping, Measure, Message, Overheads, SimDuration, SimTime,
    Statistics, SystemModel, TaskConfig, TaskState, TimelineOptions, TimingConstraint, Trace,
};

const ENGINES: [EngineKind; 2] = [EngineKind::ProcedureCall, EngineKind::DedicatedThread];

fn us(v: u64) -> SimDuration {
    SimDuration::from_us(v)
}

fn times_us(trace: &Trace, task: &str, state: TaskState) -> Vec<u64> {
    let actor = trace.actor_by_name(task).expect("actor");
    trace
        .records_for(actor)
        .filter_map(|r| match r.data {
            rtsim::trace::TraceData::State(s) if s == state => Some(r.at.as_us()),
            _ => None,
        })
        .collect()
}

/// Builds the Figure 6 system: one software processor with all three RTOS
/// overheads at 5 µs, priority-preemptive scheduling, three software
/// functions (priorities 5/3/2) and a hardware clock signalling `Clk` at
/// 100 µs and 400 µs.
fn figure6_model(engine: EngineKind) -> SystemModel {
    let mut model = SystemModel::new("figure6");
    model.event("Clk", EventPolicy::Fugitive);
    model.event("Event_1", EventPolicy::Fugitive);
    model.software_processor_with(
        "Processor",
        Box::new(PriorityPreemptive::new()),
        Overheads::uniform(us(5)),
        true,
        engine,
    );
    model.function(TaskConfig::new("Clock"), |agent, io| {
        let clk = io.event("Clk");
        agent.delay(us(100));
        agent.annotate("clk_edge");
        clk.signal(agent);
        agent.delay(us(300));
        agent.annotate("clk_edge");
        clk.signal(agent);
    });
    model.function(TaskConfig::new("Function_1").priority(5), |agent, io| {
        let clk = io.event("Clk");
        let event_1 = io.event("Event_1");
        for _ in 0..2 {
            clk.wait(agent);
            agent.execute(us(20));
            event_1.signal(agent); // point (2): awakes Function_2
            agent.execute(us(20));
        }
    });
    model.function(TaskConfig::new("Function_2").priority(3), |agent, io| {
        let event_1 = io.event("Event_1");
        for _ in 0..2 {
            event_1.wait(agent);
            agent.execute(us(30));
        }
    });
    model.function(TaskConfig::new("Function_3").priority(2), |agent, _io| {
        agent.execute(us(500));
    });
    model.map("Clock", Mapping::Hardware);
    for f in ["Function_1", "Function_2", "Function_3"] {
        model.map_to_processor(f, "Processor");
    }
    model
}

#[test]
fn figure6_timeline_reproduces_the_paper_schedule() {
    for engine in ENGINES {
        let mut system = figure6_model(engine).elaborate().unwrap();
        system.run().unwrap();
        let trace = system.trace();

        // Start of simulation: the three functions are served strictly by
        // priority — Function_1 first (immediately waits), then
        // Function_2 (waits), then Function_3 starts computing at 40
        // (two dispatch overheads of 15 µs, after F1's initial 10 µs).
        assert_eq!(
            times_us(&trace, "Function_1", TaskState::Running),
            vec![10, 115, 415],
            "{engine}"
        );
        assert_eq!(
            times_us(&trace, "Function_2", TaskState::Running),
            vec![25, 170, 470],
            "{engine}"
        );
        assert_eq!(
            times_us(&trace, "Function_3", TaskState::Running),
            vec![40, 215, 515],
            "{engine}"
        );

        // Point (1): the 100 µs clock edge preempts Function_3.
        assert_eq!(
            times_us(&trace, "Function_3", TaskState::Ready),
            vec![0, 100, 400],
            "{engine}"
        );

        // Point (2): Event_1 wakes Function_2 at 135 but does NOT preempt
        // Function_1 (lower priority): Function_2 only runs at 170, after
        // Function_1 finished at 155 — the paper's case (c).
        let f2_ready = times_us(&trace, "Function_2", TaskState::Ready);
        assert!(f2_ready.contains(&135), "{engine}: {f2_ready:?}");
        assert_eq!(
            times_us(&trace, "Function_1", TaskState::Waiting),
            vec![10, 155],
            "{engine}"
        );

        // Measurement (1): clock edge at 100 → Function_1 running at 115:
        // the paper's annotated 15 µs (save + scheduling + load).
        let measure = Measure::new(&trace);
        let f1 = trace.actor_by_name("Function_1").unwrap();
        assert_eq!(measure.reaction_time("clk_edge", f1), Some(us(15)));

        // Measurement (a): Function_1 ends at 155, Function_2 resumes at
        // 170 — again 15 µs of overhead.
        // Measurement (b): Function_3 preempted at 100, preemptor runs at
        // 115 — 15 µs.
        // (All asserted by the Running/Waiting instants above.)

        // Function_3 finishes its 500 µs of work: 60 by 100, 185 more by
        // 400, the rest at 515 + 255 = 770.
        assert_eq!(
            times_us(&trace, "Function_3", TaskState::Terminated),
            vec![770],
            "{engine}"
        );
        assert_eq!(system.now(), SimTime::ZERO + us(780), "{engine}");
    }
}

#[test]
fn figure6_timeline_chart_renders_the_lanes() {
    let mut system = figure6_model(EngineKind::ProcedureCall)
        .elaborate()
        .unwrap();
    system.run().unwrap();
    let chart = system.timeline(&TimelineOptions {
        width: 120,
        ..TimelineOptions::default()
    });
    for lane in ["Clock", "Function_1", "Function_2", "Function_3", "legend"] {
        assert!(chart.contains(lane), "missing lane {lane}:\n{chart}");
    }
    // Function_3's lane must show running (#), ready (+) and overhead (%).
    let f3_lane = chart
        .lines()
        .find(|l| l.trim_start().starts_with("Function_3"))
        .unwrap();
    assert!(
        f3_lane.contains('#') && f3_lane.contains('+') && f3_lane.contains('%'),
        "lane: {f3_lane}"
    );
}

#[test]
fn figure6_constraints_verify_the_reaction_time() {
    let mut model = figure6_model(EngineKind::ProcedureCall);
    model.constraint(TimingConstraint::ReactionWithin {
        name: "clk-to-F1".into(),
        stimulus: "clk_edge".into(),
        reactor: "Function_1".into(),
        bound: us(15),
    });
    model.constraint(TimingConstraint::ReactionWithin {
        name: "clk-to-F1-too-tight".into(),
        stimulus: "clk_edge".into(),
        reactor: "Function_1".into(),
        bound: us(14),
    });
    let mut system = model.elaborate().unwrap();
    system.run().unwrap();
    let report = system.verify_constraints();
    assert_eq!(
        report.to_string(),
        "[PASS] clk-to-F1 — worst reaction 15 us (bound 15 us), 2 stimuli, 0 unanswered
[FAIL] clk-to-F1-too-tight — worst reaction 15 us (bound 14 us), 2 stimuli, 0 unanswered
"
    );
}

#[test]
fn figure8_statistics_match_hand_computed_ratios() {
    let mut system = figure6_model(EngineKind::ProcedureCall)
        .elaborate()
        .unwrap();
    system.run().unwrap();
    let horizon = SimTime::ZERO + us(780);
    let stats = system.statistics(horizon);
    let trace = system.trace();

    // Function_3 ran 500 of 780 µs: activity ratio 64.1%.
    let f3 = stats
        .task(trace.actor_by_name("Function_3").unwrap())
        .unwrap();
    assert!(
        (f3.activity_ratio - 500.0 / 780.0).abs() < 1e-9,
        "{}",
        f3.activity_ratio
    );
    // Function_3 sat preempted/ready 40 + 115 + 115 = 270 µs: 34.6%.
    assert!(
        (f3.preempted_ratio - 270.0 / 780.0).abs() < 1e-9,
        "{}",
        f3.preempted_ratio
    );
    assert_eq!(f3.preemptions, 2);

    // Function_1 ran 2 × 40 µs.
    let f1 = stats
        .task(trace.actor_by_name("Function_1").unwrap())
        .unwrap();
    assert!((f1.activity_ratio - 80.0 / 780.0).abs() < 1e-9);

    // Relation utilization (Figure 8 item (4)): Event_1 was signalled
    // twice and consumed twice.
    let e1 = stats
        .relation(trace.actor_by_name("Event_1").unwrap())
        .unwrap();
    assert_eq!(e1.signals, 2);
    assert_eq!(e1.reads, 2);

    // The statistics table renders.
    let table = stats.to_string();
    assert!(table.contains("Function_3"));
}

/// Figure 7: Function_3 (priority 2) is preempted by Function_1 (5)
/// *during* a read of `SharedVar_1`; Function_2 (3) then blocks on the
/// resource; when Function_3 finally releases, Function_2 preempts it.
#[test]
fn figure7_mutual_exclusion_blocking_through_the_model_layer() {
    for engine in ENGINES {
        let mut model = SystemModel::new("figure7");
        model.event("Clk", EventPolicy::Fugitive);
        model.shared_var("SharedVar_1", Message::new(0, 4), LockMode::Plain);
        model.software_processor_with(
            "Processor",
            Box::new(PriorityPreemptive::new()),
            Overheads::zero(), // keep the arithmetic readable
            true,
            engine,
        );
        model.function(TaskConfig::new("Clock"), |agent, io| {
            let clk = io.event("Clk");
            agent.delay(us(50));
            clk.signal(agent);
        });
        // Function_1: woken by the clock at t=50, computes 30 µs.
        model.function(TaskConfig::new("Function_1").priority(5), |agent, io| {
            io.event("Clk").wait(agent);
            agent.execute(us(30));
        });
        // Function_2: at t=60 (while Function_1 runs) wants the variable.
        model.function(TaskConfig::new("Function_2").priority(3), |agent, io| {
            agent.delay(us(60));
            let _ = io.var("SharedVar_1").read_for(agent, us(10));
            agent.execute(us(10));
        });
        // Function_3: reads the variable with a long 100 µs access,
        // starting immediately.
        model.function(TaskConfig::new("Function_3").priority(2), |agent, io| {
            let _ = io.var("SharedVar_1").read_for(agent, us(100));
            agent.execute(us(50));
        });
        model.map("Clock", Mapping::Hardware);
        for f in ["Function_1", "Function_2", "Function_3"] {
            model.map_to_processor(f, "Processor");
        }
        let mut system = model.elaborate().unwrap();
        system.run().unwrap();
        let trace = system.trace();

        // (1) Function_3 preempted during the read at t=50; (3) preempted
        // again at t=130 when releasing the variable wakes Function_2.
        assert_eq!(
            times_us(&trace, "Function_3", TaskState::Ready),
            vec![0, 50, 130],
            "{engine}"
        );
        // (2) Function_2 blocks on the resource at t=80 (after Function_1
        // finished at 80, Function_2 runs and immediately hits the held
        // variable; Function_3 still owns it).
        assert_eq!(
            times_us(&trace, "Function_2", TaskState::WaitingResource),
            vec![80],
            "{engine}"
        );
        // Function_3 resumes at 80 (Function_2 having just blocked),
        // finishes the 100 µs read at 130 (50 µs were done by the
        // preemption at 50), releases, is preempted by Function_2, and
        // runs its final 50 µs at 150.
        let f3_run = times_us(&trace, "Function_3", TaskState::Running);
        assert_eq!(f3_run, vec![0, 80, 150], "{engine}");
        let f2_run = times_us(&trace, "Function_2", TaskState::Running);
        // 0: zero-length run before its delay; 80: runs and immediately
        // blocks on the held variable; 130: preempts Function_3 at the
        // release — the paper's point (3).
        assert_eq!(f2_run, vec![0, 80, 130], "{engine}");
        // Function_2's access: 130..140 read + 140..150 execute.
        assert_eq!(
            times_us(&trace, "Function_2", TaskState::Terminated),
            vec![150],
            "{engine}"
        );
    }
}

#[test]
fn figure6_exports_csv_and_vcd() {
    let mut system = figure6_model(EngineKind::ProcedureCall)
        .elaborate()
        .unwrap();
    system.run().unwrap();
    let trace = system.trace();
    let mut csv = Vec::new();
    rtsim::write_csv(&trace, &mut csv).unwrap();
    let csv = String::from_utf8(csv).unwrap();
    // One row per record plus the header.
    assert_eq!(csv.lines().count(), trace.records().len() + 1);
    assert!(csv.contains("Function_1,state,running"));
    let mut vcd = Vec::new();
    rtsim::write_vcd(&trace, &mut vcd).unwrap();
    let vcd = String::from_utf8(vcd).unwrap();
    assert!(vcd.contains("$timescale 1 ps $end"));
    // Four task lanes (Clock + three functions), two relation lanes.
    assert_eq!(vcd.matches("$var reg 3 ").count(), 4);
    assert_eq!(vcd.matches("$var reg 32 ").count(), 2);
    // The final state change is Function_3's termination at 770 µs.
    assert!(vcd.contains("#770000000"));
}

#[test]
fn model_validation_errors() {
    let mut model = SystemModel::new("broken");
    model.function(TaskConfig::new("orphan"), |_agent, _io| {});
    let err = model.elaborate().unwrap_err();
    assert!(matches!(err, rtsim::ModelError::UnmappedFunction { .. }));

    let mut model = SystemModel::new("broken2");
    model.function(TaskConfig::new("f"), |_agent, _io| {});
    model.map_to_processor("f", "ghost-cpu");
    let err = model.elaborate().unwrap_err();
    assert!(matches!(err, rtsim::ModelError::UnknownProcessor { .. }));
}

#[test]
fn statistics_respect_engine_equivalence() {
    // Figure 8 numbers must not depend on the implementation strategy.
    fn ratios(engine: EngineKind) -> Vec<(String, f64, f64)> {
        let mut system = figure6_model(engine).elaborate().unwrap();
        system.run().unwrap();
        let trace = system.trace();
        let stats = Statistics::from_trace(&trace, SimTime::ZERO + us(780));
        stats
            .tasks()
            .map(|(id, t)| {
                (
                    trace.actor_name(id).to_owned(),
                    t.activity_ratio,
                    t.preempted_ratio,
                )
            })
            .collect()
    }
    assert_eq!(
        ratios(EngineKind::ProcedureCall),
        ratios(EngineKind::DedicatedThread)
    );
}
