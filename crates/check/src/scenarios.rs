//! Check targets: small scenarios registered for exhaustive exploration.
//!
//! Each scenario is deliberately tiny — the value of the checker is
//! *coverage* of every schedule, and the choice tree grows factorially
//! with simultaneous work. Healthy scenarios (`Expectation::Hold`) are
//! engineered to have thousands of legal interleavings through
//! same-instant signals, colliding timers and racing queue clients;
//! mutant scenarios (`Expectation::Violate`) carry a seeded bug that the
//! oracles MUST flag, so the checker is itself checked. Each model
//! declares the oracles it is checked against.

use rtsim_comm::EventPolicy;
use rtsim_comm::LockMode;
use rtsim_core::TaskConfig;
use rtsim_kernel::{SimDuration, SimTime};
use rtsim_mcse::script as s;
use rtsim_mcse::{FaultPlan, Mapping, Message, SystemModel};

use crate::oracle::{
    built_ins, CriticalSectionExclusion, NoLostMessage, NoMissedDeadline, PriorityInversionBound,
};

fn us(v: u64) -> SimDuration {
    SimDuration::from_us(v)
}

/// Whether a scenario's invariants are expected to survive exploration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Expectation {
    /// Every interleaving must satisfy every declared property.
    Hold,
    /// At least one interleaving must be flagged (a seeded mutant).
    Violate,
}

/// One registered check target.
pub struct CheckScenario {
    /// Registry key.
    pub name: &'static str,
    /// Builds the (un-elaborated) model, with the properties checked on
    /// every leaf declared on it.
    pub build: fn() -> SystemModel,
    /// Hang-guard horizon for each replay.
    pub horizon: SimDuration,
    /// Healthy target or seeded mutant.
    pub expect: Expectation,
}

impl std::fmt::Debug for CheckScenario {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CheckScenario")
            .field("name", &self.name)
            .field("horizon", &self.horizon)
            .field("expect", &self.expect)
            .finish_non_exhaustive()
    }
}

/// Three equal hardware workers racing on one broadcast event, round
/// after round: every round the fugitive `Tick` wakes all three at the
/// same instant, a 3-way dispatch tie. Distinct exec times keep the
/// completions apart so the tree stays a clean `6^rounds`.
fn rivals_system() -> SystemModel {
    let mut model = SystemModel::new("rivals");
    model.event("Tick", EventPolicy::Fugitive);
    model.function_script(
        TaskConfig::new("Clock"),
        vec![s::repeat(4, vec![s::delay(us(50)), s::signal("Tick")])],
    );
    for (name, exec) in [("Worker_A", 7), ("Worker_B", 8), ("Worker_C", 9)] {
        model.function_script(
            TaskConfig::new(name),
            vec![s::repeat(
                4,
                vec![s::await_event("Tick"), s::exec(us(exec))],
            )],
        );
        model.map(name, Mapping::Hardware);
    }
    model.map("Clock", Mapping::Hardware);
    built_ins(&mut model);
    model
}

/// Three hardware producers whose delays collide every round (a 3-way
/// timer tie), each writing one message into a shared queue; a consumer
/// drains them all. The write order — and therefore the message order —
/// depends on the tie-breaks, but no message may ever be lost.
fn burst_queue_system() -> SystemModel {
    let mut model = SystemModel::new("burst_queue");
    model.queue("Q", 8);
    for (i, name) in ["Prod_A", "Prod_B", "Prod_C"].iter().enumerate() {
        let id = i as u64;
        model.function_script(
            TaskConfig::new(name),
            vec![s::repeat(
                2,
                vec![
                    s::delay(us(20)),
                    s::q_write("Q", move |_| Message::new(id, 4)),
                ],
            )],
        );
        model.map(name, Mapping::Hardware);
    }
    model.function_script(
        TaskConfig::new("Consumer"),
        vec![s::repeat(6, vec![s::q_read("Q")])],
    );
    model.map("Consumer", Mapping::Hardware);
    built_ins(&mut model);
    model
}

/// Two independent interrupt generators with identical periods: their
/// edges land on the same instants, so every round is a timer tie
/// followed by a dispatch tie between the two handlers.
fn irq_races_system() -> SystemModel {
    let mut model = SystemModel::new("irq_races");
    model.event("IrqA", EventPolicy::Counter);
    model.event("IrqB", EventPolicy::Counter);
    for (genname, irq) in [("Gen_A", "IrqA"), ("Gen_B", "IrqB")] {
        model.function_script(
            TaskConfig::new(genname),
            vec![s::repeat(3, vec![s::delay(us(20)), s::signal(irq)])],
        );
        model.map(genname, Mapping::Hardware);
    }
    for (hname, irq, exec) in [("Handler_A", "IrqA", 3), ("Handler_B", "IrqB", 4)] {
        model.function_script(
            TaskConfig::new(hname),
            vec![s::repeat(3, vec![s::await_event(irq), s::exec(us(exec))])],
        );
        model.map(hname, Mapping::Hardware);
    }
    built_ins(&mut model);
    model
}

/// A priority-inheritance lock under contention on an RTOS processor:
/// `Lo` grabs the shared variable for a long read, `Hi` is woken mid-
/// hold and blocks on it, `Mid` becomes ready and would love to starve
/// `Lo` — inheritance must keep `Hi`'s blocking bounded under **every**
/// schedule, which is exactly what the bound oracle asserts.
fn var_ceiling_system() -> SystemModel {
    let mut model = SystemModel::new("var_ceiling");
    model.event("Go", EventPolicy::Fugitive);
    model.shared_var("V", Message::new(0, 4), LockMode::PriorityInheritance);
    model.software_processor("CPU", rtsim_core::Overheads::zero());
    model.function_script(
        TaskConfig::new("Clock"),
        vec![s::delay(us(30)), s::signal("Go")],
    );
    model.map("Clock", Mapping::Hardware);
    model.function_script(
        TaskConfig::new("Hi").priority(5),
        vec![
            s::await_event("Go"),
            s::var_read("V", us(10)),
            s::exec(us(5)),
        ],
    );
    model.function_script(
        TaskConfig::new("Mid").priority(3),
        vec![s::delay(us(40)), s::exec(us(50))],
    );
    model.function_script(
        TaskConfig::new("Lo").priority(2),
        vec![s::var_read("V", us(80)), s::exec(us(10))],
    );
    for f in ["Hi", "Mid", "Lo"] {
        model.map_to_processor(f, "CPU");
    }
    built_ins(&mut model).constraint(PriorityInversionBound {
        victim: "Hi".to_owned(),
        offender: "Mid".to_owned(),
        bound: us(60),
    });
    model
}

/// A two-worker pipeline: one producer feeds a queue, two hardware
/// workers race to claim items, both feed a second queue drained by a
/// sink. Work assignment depends on the tie-breaks; conservation of
/// messages must not.
fn pipeline_system() -> SystemModel {
    let mut model = SystemModel::new("pipeline");
    model.queue("Q_in", 4);
    model.queue("Q_out", 8);
    model.function_script(
        TaskConfig::new("Source"),
        vec![s::repeat(
            3,
            vec![
                s::delay(us(30)),
                s::q_write("Q_in", |_| Message::new(1, 4)),
                s::q_write("Q_in", |_| Message::new(1, 4)),
            ],
        )],
    );
    model.map("Source", Mapping::Hardware);
    for (name, exec) in [("Stage_A", 6), ("Stage_B", 7)] {
        model.function_script(
            TaskConfig::new(name),
            vec![s::repeat(
                3,
                vec![
                    s::q_read("Q_in"),
                    s::exec(us(exec)),
                    s::q_write("Q_out", |_| Message::new(2, 4)),
                ],
            )],
        );
        model.map(name, Mapping::Hardware);
    }
    model.function_script(
        TaskConfig::new("Sink"),
        vec![s::repeat(6, vec![s::q_read("Q_out")])],
    );
    model.map("Sink", Mapping::Hardware);
    built_ins(&mut model);
    model
}

/// A dual-core migration race: three equal-priority floaters woken by
/// one broadcast on a two-core processor that charges a migration
/// overhead. The wake order — a kernel tie — decides which two tasks
/// win the cores, where the loser resumes after its delay, and hence
/// who pays the migration cost; deadlines and the built-in invariants
/// must hold on **every** core assignment.
fn smp_migration_system() -> SystemModel {
    let mut model = SystemModel::new("smp_migration");
    model.event("Go", EventPolicy::Fugitive);
    model.software_processor("CPU", rtsim_core::Overheads::zero().with_migration(us(5)));
    model.processor_cores("CPU", 2);
    model.function_script(
        TaskConfig::new("Clock"),
        vec![s::delay(us(10)), s::signal("Go")],
    );
    model.map("Clock", Mapping::Hardware);
    // Distinct exec times keep the completion timers apart (the race
    // under test is the wake order, not completion ties), and only one
    // task suspends and resumes. Parallel dispatch makes the tree deep
    // (each core's acquire is its own timer chain), but exploration
    // still completes exhaustively at ~18k runs.
    model.function_script(
        TaskConfig::new("Flo_A").priority(3).deadline(us(400)),
        vec![
            s::await_event("Go"),
            s::exec(us(20)),
            s::delay(us(15)),
            s::exec(us(20)),
        ],
    );
    model.map_to_processor("Flo_A", "CPU");
    for (name, exec) in [("Flo_B", 24), ("Flo_C", 28)] {
        model.function_script(
            TaskConfig::new(name).priority(3).deadline(us(400)),
            vec![s::await_event("Go"), s::exec(us(exec))],
        );
        model.map_to_processor(name, "CPU");
    }
    built_ins(&mut model);
    model
}

/// Two producers colliding into one queue every round, under a fault
/// plan that drops every delivery inside a scripted window covering the
/// second round. The drop decision is a pure function of simulation
/// time — never of the interleaving — so every schedule loses exactly
/// the two round-2 messages, the consumer's expected intake is fixed at
/// four, and the built-in conservation oracles must hold on **every**
/// interleaving of the producer races. (A probability lane would be
/// deterministic per path too, but a time window keeps the loss set
/// identical across the whole tree, which is what the oracles need.)
fn fault_dropout_system() -> SystemModel {
    let mut model = SystemModel::new("fault_dropout");
    model.queue("Q", 8);
    for (i, name) in ["Prod_A", "Prod_B"].iter().enumerate() {
        let id = i as u64;
        model.function_script(
            TaskConfig::new(name),
            vec![s::repeat(
                3,
                vec![
                    s::delay(us(20)),
                    s::q_write("Q", move |_| Message::new(id, 4)),
                ],
            )],
        );
        model.map(name, Mapping::Hardware);
    }
    model.function_script(
        TaskConfig::new("Consumer"),
        vec![s::repeat(4, vec![s::q_read("Q")])],
    );
    model.map("Consumer", Mapping::Hardware);
    model.fault_plan(FaultPlan::new(0xC4EC).drop_window(
        "Q",
        SimTime::ZERO + us(35),
        SimTime::ZERO + us(45),
    ));
    built_ins(&mut model);
    model
}

/// MUTANT: a 100 µs job on a task whose relative deadline is 50 µs —
/// the completion is late on every schedule.
fn mutant_deadline_system() -> SystemModel {
    let mut model = SystemModel::new("mutant_deadline");
    model.software_processor("CPU", rtsim_core::Overheads::zero());
    model.function_script(
        TaskConfig::new("Late").priority(5).deadline(us(50)),
        vec![s::exec(us(100))],
    );
    model.map_to_processor("Late", "CPU");
    model.constraint(NoMissedDeadline);
    model
}

/// MUTANT: three messages written, two read — one message rots in the
/// queue at the end of the horizon.
fn mutant_lost_system() -> SystemModel {
    let mut model = SystemModel::new("mutant_lost");
    model.queue("Q", 4);
    model.function_script(
        TaskConfig::new("Prod"),
        vec![s::repeat(
            3,
            vec![s::delay(us(10)), s::q_write("Q", |_| Message::new(7, 4))],
        )],
    );
    model.function_script(
        TaskConfig::new("Cons"),
        vec![s::repeat(2, vec![s::q_read("Q")])],
    );
    model.map("Prod", Mapping::Hardware);
    model.map("Cons", Mapping::Hardware);
    model.constraint(NoLostMessage);
    model
}

/// MUTANT: a token-queue mutex with one honest client and one that
/// ignores a failed try-acquire and enters the critical section anyway
/// — the classic double-entry, visible as overlapping `cs_enter` /
/// `cs_exit` windows.
fn mutant_mutex_system() -> SystemModel {
    let mut model = SystemModel::new("mutant_mutex");
    model.queue("Lock", 1);
    model.function_script(
        TaskConfig::new("Init"),
        vec![s::q_write("Lock", |_| Message::new(0, 1))],
    );
    model.function_script(
        TaskConfig::new("Honest"),
        vec![
            s::q_read("Lock"),
            s::note("cs_enter"),
            s::delay(us(30)),
            s::note("cs_exit"),
            s::q_write("Lock", |_| Message::new(0, 1)),
        ],
    );
    model.function_script(
        TaskConfig::new("Rogue"),
        vec![
            s::delay(us(10)),
            s::q_try_read("Lock"), // fails — and the result is ignored
            s::note("cs_enter"),
            s::delay(us(5)),
            s::note("cs_exit"),
        ],
    );
    for f in ["Init", "Honest", "Rogue"] {
        model.map(f, Mapping::Hardware);
    }
    model.constraint(CriticalSectionExclusion);
    model
}

/// Every registered check target, healthy scenarios first.
pub static SCENARIOS: &[CheckScenario] = &[
    CheckScenario {
        name: "rivals",
        build: rivals_system,
        horizon: SimDuration::from_ms(10),
        expect: Expectation::Hold,
    },
    CheckScenario {
        name: "burst_queue",
        build: burst_queue_system,
        horizon: SimDuration::from_ms(10),
        expect: Expectation::Hold,
    },
    CheckScenario {
        name: "irq_races",
        build: irq_races_system,
        horizon: SimDuration::from_ms(10),
        expect: Expectation::Hold,
    },
    CheckScenario {
        name: "var_ceiling",
        build: var_ceiling_system,
        horizon: SimDuration::from_ms(10),
        expect: Expectation::Hold,
    },
    CheckScenario {
        name: "pipeline",
        build: pipeline_system,
        horizon: SimDuration::from_ms(10),
        expect: Expectation::Hold,
    },
    CheckScenario {
        name: "smp_migration",
        build: smp_migration_system,
        horizon: SimDuration::from_ms(10),
        expect: Expectation::Hold,
    },
    CheckScenario {
        name: "fault_dropout",
        build: fault_dropout_system,
        horizon: SimDuration::from_ms(10),
        expect: Expectation::Hold,
    },
    CheckScenario {
        name: "mutant_deadline",
        build: mutant_deadline_system,
        horizon: SimDuration::from_ms(10),
        expect: Expectation::Violate,
    },
    CheckScenario {
        name: "mutant_lost",
        build: mutant_lost_system,
        horizon: SimDuration::from_ms(10),
        expect: Expectation::Violate,
    },
    CheckScenario {
        name: "mutant_mutex",
        build: mutant_mutex_system,
        horizon: SimDuration::from_ms(10),
        expect: Expectation::Violate,
    },
];

/// Looks a scenario up by name.
pub fn scenario_by_name(name: &str) -> Option<&'static CheckScenario> {
    SCENARIOS.iter().find(|s| s.name == name)
}

/// A parameterizable toy for the pruning property test: `tasks` equal
/// hardware workers all woken by one broadcast tick, all with the SAME
/// exec time (so completion timers tie too), for `rounds` rounds, with
/// the built-in oracles declared.
pub fn toy_system(tasks: usize, rounds: u64) -> SystemModel {
    let mut model = SystemModel::new("toy");
    model.event("Tick", EventPolicy::Fugitive);
    model.function_script(
        TaskConfig::new("Clock"),
        vec![s::repeat(rounds, vec![s::delay(us(50)), s::signal("Tick")])],
    );
    model.map("Clock", Mapping::Hardware);
    for i in 0..tasks {
        let name = format!("W{i}");
        model.function_script(
            TaskConfig::new(&name),
            vec![s::repeat(
                rounds,
                vec![s::await_event("Tick"), s::exec(us(5))],
            )],
        );
        model.map(&name, Mapping::Hardware);
    }
    built_ins(&mut model);
    model
}

/// A [`CheckScenario`] wrapping [`toy_system`] (expected to hold) —
/// what the pruning property test explores.
pub fn toy_scenario(tasks: usize, rounds: u64) -> CheckScenario {
    // fn-pointer registry fields can't capture, so the toy sizes are
    // threaded through a small fixed table instead.
    let build: fn() -> SystemModel = match (tasks, rounds) {
        (2, 1) => || toy_system(2, 1),
        (2, 2) => || toy_system(2, 2),
        (3, 1) => || toy_system(3, 1),
        (3, 2) => || toy_system(3, 2),
        (3, 3) => || toy_system(3, 3),
        _ => panic!("toy_scenario: unsupported size ({tasks}, {rounds})"),
    };
    CheckScenario {
        name: "toy",
        build,
        horizon: SimDuration::from_ms(10),
        expect: Expectation::Hold,
    }
}

/// Guard: every registered model elaborates (cheap sanity used by the
/// bin's `--list` path and the test suite).
pub fn elaborates(scenario: &CheckScenario) -> bool {
    let mut model = (scenario.build)();
    model.exec_mode(rtsim_kernel::ExecMode::Segment);
    model.elaborate().is_ok()
}
