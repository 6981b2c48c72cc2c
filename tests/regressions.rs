//! Golden-number regression pins over the large scenarios.
//!
//! Every number here is fully determined by the model (the stack is
//! deterministic), so any change is a *behavioural* change of the RTOS
//! model, the kernel or a scenario — it must be reviewed, not rubber-
//! stamped. Update a pin only together with an explanation of which
//! semantic change moved it.

use rtsim::farm::fingerprint;
use rtsim::scenarios::{
    ab_stress_system, automotive_system, figure6_system, figure7_system, injection_latencies,
    mpeg2_latencies, mpeg2_system, AutomotiveConfig, Mpeg2Config,
};
use rtsim::{DurationSummary, EngineKind, ExecMode, LockMode, SimDuration, SimTime, SystemModel};

fn us(v: u64) -> SimDuration {
    SimDuration::from_us(v)
}

#[test]
fn figure6_pins() {
    for engine in [EngineKind::ProcedureCall, EngineKind::DedicatedThread] {
        let mut system = figure6_system(engine).elaborate().unwrap();
        system.run().unwrap();
        assert_eq!(system.now(), SimTime::ZERO + us(780), "{engine}");
        let trace = system.trace();
        assert_eq!(trace.records().len(), 73, "{engine}");
        let stats = system.processor_stats("Processor").unwrap();
        assert_eq!(stats.dispatches, 9, "{engine}");
        assert_eq!(stats.preemptions, 2, "{engine}");
        assert_eq!(stats.scheduler_runs, 9, "{engine}");
    }
}

#[test]
fn mpeg2_pins() {
    let config = Mpeg2Config {
        frames: 25,
        ..Mpeg2Config::default()
    };
    let mut system = mpeg2_system(&config).elaborate().unwrap();
    system.run().unwrap();
    assert_eq!(system.now(), SimTime::from_ps(107_840_000_000));
    let latencies = mpeg2_latencies(&system.trace());
    assert_eq!(latencies.len(), 25);
    let summary = DurationSummary::from_durations(latencies).unwrap();
    assert_eq!(summary.min, us(4_278));
    assert_eq!(summary.max, us(4_474));
    // CPU0 is the busiest software processor; its utilization is a pinned
    // fraction of the makespan.
    let util = system.processor_utilization("CPU0").unwrap();
    assert!((util - 0.4107).abs() < 0.001, "{util}");
    let stats = system.processor_stats("CPU0").unwrap();
    assert_eq!(stats.dispatches, 222);
    assert_eq!(stats.preemptions, 41);
}

#[test]
fn automotive_pins() {
    let config = AutomotiveConfig::default();
    let mut system = automotive_system(&config).elaborate().unwrap();
    system.run().unwrap();
    let latencies = injection_latencies(&system.trace());
    assert_eq!(latencies.len(), 20);
    let summary = DurationSummary::from_durations(latencies).unwrap();
    // Steady-state pulses follow a fixed 195 µs path (isr + injection +
    // RTOS overheads); occasional pulses coinciding with knock/diagnostic
    // activity pay one extra 5 µs overhead window.
    assert_eq!(summary.min, us(195));
    assert_eq!(summary.max, us(200));
    let report = system.verify_constraints();
    assert!(report.all_satisfied(), "{report}");
    assert_eq!(
        report.to_string(),
        "[PASS] crank-to-injection-start — worst reaction 50 us (bound 200 us), 20 stimuli, 0 unanswered
[PASS] injection-deadline — worst response 200 us over 21 activations (bound 500 us)
"
    );
}

/// §4's kernel switch counts for engine A (dedicated thread) and engine
/// B (procedure calls) at every (tasks, rounds) point `ab_speed_table`
/// and `fig3_fig5_switches` print, plus 6×50.
const AB_SWITCHES: [(usize, u64, u64, u64); 9] = [
    (2, 50, 919, 715),
    (2, 500, 9_019, 7_015),
    (4, 250, 9_280, 7_525),
    (8, 125, 8_304, 6_795),
    (8, 500, 33_054, 27_045),
    (16, 250, 31_100, 25_710),
    (32, 125, 29_992, 24_909),
    (8, 200, 13_254, 10_845),
    (6, 50, 2_188, 1_783),
];

fn ab_switches(engine: EngineKind, tasks: usize, rounds: u64, mode: Option<ExecMode>) -> u64 {
    let mut model = ab_stress_system(engine, tasks, rounds);
    if let Some(mode) = mode {
        model.exec_mode(mode);
    }
    let mut system = model.elaborate().unwrap();
    system.run().unwrap();
    system.kernel_stats().process_switches
}

#[test]
fn ab_stress_pins() {
    // Wall-clock differs; switch counts are pinned exactly and B's is
    // smaller. Segment mode runs each point in milliseconds; the exec
    // mode does not change the counts (`ab_speed_table` asserts it for
    // B), and 6×50 also runs in the environment's default mode.
    for (tasks, rounds, want_a, want_b) in AB_SWITCHES {
        let point = format!("{tasks}x{rounds}");
        let sw_a = ab_switches(
            EngineKind::DedicatedThread,
            tasks,
            rounds,
            Some(ExecMode::Segment),
        );
        let sw_b = ab_switches(
            EngineKind::ProcedureCall,
            tasks,
            rounds,
            Some(ExecMode::Segment),
        );
        assert_eq!((sw_a, sw_b), (want_a, want_b), "{point}");
        assert!(sw_a > sw_b, "{point}");
    }
    assert_eq!(ab_switches(EngineKind::ProcedureCall, 6, 50, None), 1_783);
    assert_eq!(ab_switches(EngineKind::DedicatedThread, 6, 50, None), 2_188);
}

/// A system, its farm fingerprint, and its (events, dispatches,
/// preemptions).
type FingerprintPin = (&'static str, fn() -> SystemModel, &'static str, [u64; 3]);

/// Approach A's traces. Every golden cell builds the procedure-call
/// engine, so the dedicated-thread engine's trace bytes are pinned here:
/// the fingerprint of each system run to 500 ms, in both exec modes.
#[test]
fn approach_a_fingerprint_pins() {
    const A: EngineKind = EngineKind::DedicatedThread;
    let systems: [FingerprintPin; 5] = [
        ("fig6", || figure6_system(A), "d09ecb4310571de0", [73, 9, 2]),
        (
            "fig7/plain",
            || figure7_system(A, LockMode::Plain),
            "0d0b7251ed58cfd0",
            [65, 8, 2],
        ),
        (
            "fig7/masked",
            || figure7_system(A, LockMode::PreemptionMasked),
            "2ba883d6e8650eff",
            [54, 6, 1],
        ),
        (
            "fig7/inheritance",
            || figure7_system(A, LockMode::PriorityInheritance),
            "0d0b7251ed58cfd0",
            [65, 8, 2],
        ),
        (
            "ab_stress/8x200",
            || ab_stress_system(A, 8, 200),
            "e2eea0cbee1a2a1a",
            [11_327, 1_942, 334],
        ),
    ];
    for (name, build, hash, counts) in systems {
        for mode in [ExecMode::Thread, ExecMode::Segment] {
            let mut model = build();
            model.exec_mode(mode);
            let mut system = model.elaborate().unwrap();
            system
                .run_until(SimTime::ZERO + SimDuration::from_ms(500))
                .unwrap();
            let fp = fingerprint(&system);
            assert_eq!(
                (fp.hash_hex(), [fp.events, fp.dispatches, fp.preemptions]),
                (hash.to_owned(), counts),
                "{name} in {mode} mode"
            );
        }
    }
}
