//! Cross-mode differential suite: the run-to-completion (segment)
//! kernel must be observationally identical to the thread-backed one.
//!
//! Every cell of the farm matrix — every scenario × every policy × both
//! preemption modes — is run under [`ExecMode::Thread`] and
//! [`ExecMode::Segment`] and must reduce to bit-identical fingerprints.
//! The fingerprint hashes the full canonical trace, per-task response
//! summaries and per-processor scheduler counters, so any divergence —
//! one record reordered, one preemption moved by a picosecond — fails
//! the sweep.
//!
//! On top of the fingerprint sweep, one cell per scenario is re-run with
//! direct access to the elaborated system to pin the canonical trace
//! text and the kernel's own counters (process switches, delta cycles,
//! timed advances, event wakes) as equal too.

use rtsim_core::{EngineKind, Overheads, TaskConfig};
use rtsim_farm::registry::{full_matrix, scenario_by_name};
use rtsim_farm::{run_cell_with_mode, Cell, PolicyKind, SCENARIOS};
use rtsim_kernel::{ExecMode, SimDuration, SimTime};
use rtsim_mcse::script as s;
use rtsim_mcse::{Mapping, Message, SystemModel};
use rtsim_trace::canonical;

fn us(v: u64) -> SimDuration {
    SimDuration::from_us(v)
}

#[test]
fn every_farm_cell_fingerprints_identically_in_both_modes() {
    let mut checked = 0usize;
    for cell in full_matrix() {
        let thread = run_cell_with_mode(cell, ExecMode::Thread);
        let segment = run_cell_with_mode(cell, ExecMode::Segment);
        assert_eq!(
            thread.fingerprint,
            segment.fingerprint,
            "exec modes diverged on {}",
            cell.label()
        );
        checked += 1;
    }
    let combos: usize = SCENARIOS.iter().map(|s| s.core_counts.len()).sum();
    assert_eq!(checked, combos * PolicyKind::ALL.len() * 2);
}

#[test]
fn traces_and_kernel_counters_match_per_scenario() {
    for scenario in SCENARIOS {
        let run = |mode: ExecMode| {
            let mut model = (scenario.build)(scenario.core_counts[0]);
            model.exec_mode(mode);
            let mut system = model.elaborate().expect("scenario elaborates");
            system
                .run_until(SimTime::ZERO + scenario.horizon)
                .expect("scenario runs");
            (canonical(&system.trace()), system.kernel_stats())
        };
        let (thread_trace, thread_stats) = run(ExecMode::Thread);
        let (segment_trace, segment_stats) = run(ExecMode::Segment);
        assert_eq!(
            thread_trace, segment_trace,
            "canonical trace diverged on {}",
            scenario.name
        );
        assert_eq!(
            thread_stats, segment_stats,
            "kernel counters diverged on {}",
            scenario.name
        );
    }
}

/// A cell built to contend both queue ends with several blocked tasks
/// at once: three writers race a capacity-1 queue drained slowly from
/// hardware, and three readers starve on a second capacity-1 queue fed
/// slowly from hardware — so multi-waiter FIFO wake order is exercised
/// on the full and the empty side.
fn contended_queue_model(overheads: Overheads, cores: usize) -> SystemModel {
    let mut model = SystemModel::new("contended_queue_cell");
    model.queue("Q", 1);
    model.queue("R", 1);
    model.software_processor("CPU", overheads);
    if cores > 1 {
        model.processor_cores("CPU", cores);
    }
    for (name, prio, id) in [("W_A", 5, 1u64), ("W_B", 4, 2), ("W_C", 3, 3)] {
        model.function_script(
            TaskConfig::new(name)
                .priority(prio)
                .period(us(500))
                .deadline(us(400)),
            vec![s::repeat(
                3,
                vec![
                    s::exec(us(2)),
                    s::q_write("Q", move |_| Message::new(id, 4)),
                ],
            )],
        );
        model.map_to_processor(name, "CPU");
    }
    model.function_script(
        TaskConfig::new("Drain"),
        vec![s::repeat(9, vec![s::delay(us(20)), s::q_read("Q")])],
    );
    model.map("Drain", Mapping::Hardware);
    for (name, prio) in [("R_A", 5), ("R_B", 4), ("R_C", 3)] {
        model.function_script(
            TaskConfig::new(name)
                .priority(prio)
                .period(us(600))
                .deadline(us(300)),
            vec![s::repeat(2, vec![s::q_read("R"), s::exec(us(3))])],
        );
        model.map_to_processor(name, "CPU");
    }
    model.function_script(
        TaskConfig::new("Feed"),
        vec![s::repeat(
            6,
            vec![s::delay(us(15)), s::q_write("R", |_| Message::new(9, 4))],
        )],
    );
    model.map("Feed", Mapping::Hardware);
    model
}

/// The multi-waiter contended-queue cell: every policy × both
/// preemption modes × {1,2} cores × {zero, paper-uniform} overheads
/// must produce byte-identical canonical traces in both exec modes.
#[test]
fn multi_waiter_contended_queue_identical_across_modes() {
    let overhead_sets = [Overheads::zero(), Overheads::uniform(us(5))];
    for oh in &overhead_sets {
        for cores in [1usize, 2] {
            for policy in PolicyKind::ALL {
                for preemptive in [true, false] {
                    let run = |mode: ExecMode| {
                        let mut model = contended_queue_model(oh.clone(), cores);
                        model.override_schedulers(preemptive, |_| policy.make());
                        model.exec_mode(mode);
                        let mut system = model.elaborate().expect("elaborates");
                        system
                            .run_until(SimTime::ZERO + SimDuration::from_ms(2))
                            .expect("runs");
                        canonical(&system.trace())
                    };
                    assert_eq!(
                        run(ExecMode::Thread),
                        run(ExecMode::Segment),
                        "contended queue diverged: cores={cores} policy={} preemptive={preemptive}",
                        policy.key()
                    );
                }
            }
        }
    }
}

/// FIFO grant order survives barging: W1 blocks on the full queue at
/// t=1, W2 at t=3; the t=10 read wakes W1, but the higher-priority Hog
/// (which never blocked) steals the freed slot at t=12, so W1's retry
/// fails and it must re-queue — at its original seniority, ahead of W2.
/// The t=20 read must therefore grant W1, and the t=30 read W2, in both
/// exec modes.
#[test]
fn contended_queue_grants_fifo_despite_barging() {
    for mode in [ExecMode::Thread, ExecMode::Segment] {
        let mut model = SystemModel::new("barging_queue");
        model.queue("Q", 1);
        model.software_processor("CPU", Overheads::zero());
        model.function_script(
            TaskConfig::new("W1").priority(5),
            vec![
                s::exec(us(1)),
                s::q_write("Q", |_| Message::new(11, 4)),
                s::q_write("Q", |_| Message::new(12, 4)),
            ],
        );
        model.map_to_processor("W1", "CPU");
        model.function_script(
            TaskConfig::new("W2").priority(4),
            vec![s::exec(us(2)), s::q_write("Q", |_| Message::new(21, 4))],
        );
        model.map_to_processor("W2", "CPU");
        model.function_script(
            TaskConfig::new("Hog").priority(9),
            vec![
                s::delay(us(8)),
                s::exec(us(4)),
                s::q_write("Q", |_| Message::new(99, 4)),
            ],
        );
        model.map_to_processor("Hog", "CPU");
        model.function_script(
            TaskConfig::new("Drain"),
            vec![s::repeat(4, vec![s::delay(us(10)), s::q_read("Q")])],
        );
        model.map("Drain", Mapping::Hardware);
        model.exec_mode(mode);
        let mut system = model.elaborate().expect("elaborates");
        system
            .run_until(SimTime::ZERO + SimDuration::from_ms(1))
            .expect("runs");
        let text = canonical(&system.trace());
        // Resolve each writer's trace actor from the canonical header,
        // then collect its queue-write instants from the comm records.
        let actor_of = |name: &str| -> String {
            text.lines()
                .find_map(|l| {
                    l.strip_prefix("actor ")
                        .and_then(|rest| rest.strip_suffix(&format!(" task {name}")))
                })
                .unwrap_or_else(|| panic!("no actor line for {name}"))
                .to_string()
        };
        let writes_of = |actor: &str| -> Vec<u64> {
            text.lines()
                .filter(|l| l.ends_with("write"))
                .filter_map(|l| {
                    let mut parts = l.split_whitespace();
                    let ts: u64 = parts.next()?.parse().ok()?;
                    let _seq = parts.next()?;
                    (parts.next()? == actor).then_some(ts)
                })
                .collect()
        };
        // Without seniority tickets W1's barged retry re-queued behind
        // W2 and only wrote at t=30 µs; with them it keeps its place.
        let w1 = actor_of("W1");
        let w2 = actor_of("W2");
        assert_eq!(
            writes_of(&w1),
            vec![1_000_000, 20_000_000],
            "W1's writes moved in {mode:?}"
        );
        assert_eq!(
            writes_of(&w2),
            vec![30_000_000],
            "W2 granted out of FIFO order in {mode:?}"
        );
    }
}

#[test]
fn segment_mode_reproduces_pinned_figure6_facts() {
    let cell = Cell {
        scenario: "paper_fig6",
        policy: PolicyKind::Priority,
        preemptive: true,
        cores: 1,
    };
    let result = run_cell_with_mode(cell, ExecMode::Segment);
    assert_eq!(result.fingerprint.makespan_ps, 775_000_000);
    assert_eq!(result.fingerprint.preemptions, 2);
}

#[test]
fn segment_mode_agrees_for_the_thread_engine_strategy_too() {
    // The farm sweeps EngineKind::ProcedureCall (approach B); the
    // approach-A RTOS model (DedicatedThread) also drives both kernel
    // modes and must agree with itself across them.
    let scenario = scenario_by_name("paper_fig6").expect("registered");
    let run = |mode: ExecMode| {
        let mut model = rtsim_farm::scenarios::figure6_system(EngineKind::DedicatedThread);
        model.exec_mode(mode);
        let mut system = model.elaborate().expect("elaborates");
        system
            .run_until(SimTime::ZERO + scenario.horizon)
            .expect("runs");
        canonical(&system.trace())
    };
    assert_eq!(run(ExecMode::Thread), run(ExecMode::Segment));
}
