//! Forking changes the cost of walking the choice tree, never its shape.
//!
//! The explorer resumes each sibling schedule from a fork of the system
//! taken at the sibling's choice point. These tests pin that this is
//! invisible:
//!
//! - the fork search and the replay search (rebuild, then force the
//!   prefix; its distinct-trace hashes render the whole canonical trace)
//!   agree on every count, trace hash and counterexample, for every
//!   registered scenario and every pruning toy, pruning on and off;
//! - a fork is isolated from its parent: running it changes nothing the
//!   parent can observe, a parent finishing after its fork equals the
//!   replay of its own path, and forks of forks work the same;
//! - a fork adds no handle to its parent's world — every step machine
//!   holds slot ids, not a world — and a fault plan's lanes are copied
//!   with the world, not shared;
//! - a system with a closure body, which runs on a thread, cannot fork
//!   and says so, and the explorer replays it; a processor running a
//!   user-defined policy forks like any other;
//! - a fork written over a spare system — one whose run is over, as the
//!   explorer recycles them, or one of another scenario — runs exactly
//!   as a fresh fork does.

use rtsim_check::explore::explore_replaying;
use rtsim_check::scenarios::toy_scenario;
use rtsim_check::{
    explore_with, replay, scenario_by_name, Budget, CheckScenario, Expectation, Exploration,
    SCENARIOS,
};
use rtsim_core::policies::PriorityPreemptive;
use rtsim_core::{
    EngineKind, Overheads, PolicyView, SchedulerStats, SchedulingPolicy, TaskConfig, TaskId,
    TaskView,
};
use rtsim_kernel::{ChoicePoint, ExecMode, KernelStats, SimDuration, SimTime};
use rtsim_mcse::{script as s, ElaboratedSystem, FaultPlan, Mapping, Message, SystemModel};
use rtsim_trace::canonical;

fn us(v: u64) -> SimDuration {
    SimDuration::from_us(v)
}

/// Brute-force (unpruned) searches of the registered scenarios stop
/// here: their full trees are far larger, and a truncated search is
/// compared just as exactly.
const BRUTE_RUNS: u64 = 1_500;

/// Toy sizes to compare: the three whose brute-force trees complete
/// (the pruning property test checks each), and (3, 2), whose searches
/// the run cap cuts off.
const TOY_SIZES: &[(usize, u64)] = &[(2, 1), (2, 2), (3, 1), (3, 2)];

fn assert_same(fork: &Exploration, replay: &Exploration, what: &str) {
    assert_eq!(fork.runs, replay.runs, "{what}: runs");
    assert_eq!(fork.merged, replay.merged, "{what}: merged runs");
    assert_eq!(fork.states, replay.states, "{what}: states");
    assert_eq!(
        fork.choice_points, replay.choice_points,
        "{what}: choice points"
    );
    assert_eq!(
        fork.distinct_traces, replay.distinct_traces,
        "{what}: distinct traces"
    );
    assert_eq!(
        fork.trace_hashes, replay.trace_hashes,
        "{what}: trace hashes"
    );
    assert_eq!(fork.complete, replay.complete, "{what}: complete");
    assert_eq!(
        fork.counterexample
            .as_ref()
            .map(|cx| (&cx.choices, cx.render())),
        replay
            .counterexample
            .as_ref()
            .map(|cx| (&cx.choices, cx.render())),
        "{what}: counterexample"
    );
    // The fork search elaborates once; the replay search every run.
    assert_eq!(fork.fresh, 1, "{what}: the fork search rebuilt a system");
    assert_eq!(
        replay.fresh, replay.runs,
        "{what}: the replay search forked"
    );
}

fn compare(scenario: &CheckScenario, budget: &Budget, prune: bool, what: &str) {
    let fork = explore_with(scenario, budget, prune);
    let replay = explore_replaying(scenario, budget, prune);
    assert_same(&fork, &replay, what);
    if !prune {
        // Without a visited set, no run can end at an explored state.
        assert_eq!(fork.merged, 0, "{what}: a brute-force run merged");
    }
}

/// Pruned (default budget) and brute-force searches of one registered
/// scenario.
fn compare_registered(name: &str) {
    let scenario = scenario_by_name(name).expect("registered");
    compare(
        scenario,
        &Budget::default(),
        true,
        &format!("{name} pruned"),
    );
    compare(
        scenario,
        &Budget::runs(BRUTE_RUNS),
        false,
        &format!("{name} brute force"),
    );
}

/// One test per registered scenario, so they run side by side.
macro_rules! registered {
    ($($test:ident: $name:literal,)*) => {
        const REGISTERED: &[&str] = &[$($name),*];
        $(
            #[test]
            fn $test() {
                compare_registered($name);
            }
        )*
    };
}

registered! {
    fork_equals_replay_rivals: "rivals",
    fork_equals_replay_burst_queue: "burst_queue",
    fork_equals_replay_irq_races: "irq_races",
    fork_equals_replay_var_ceiling: "var_ceiling",
    fork_equals_replay_pipeline: "pipeline",
    fork_equals_replay_smp_migration: "smp_migration",
    fork_equals_replay_fault_dropout: "fault_dropout",
    fork_equals_replay_mutant_deadline: "mutant_deadline",
    fork_equals_replay_mutant_lost: "mutant_lost",
    fork_equals_replay_mutant_mutex: "mutant_mutex",
}

#[test]
fn every_registered_scenario_is_compared() {
    let registry: Vec<&str> = SCENARIOS.iter().map(|s| s.name).collect();
    assert_eq!(
        registry, REGISTERED,
        "the registry changed: update `registered!`"
    );
}

#[test]
fn forking_explores_every_pruning_toy_as_replaying_does() {
    for &(tasks, rounds) in TOY_SIZES {
        let scenario = toy_scenario(tasks, rounds);
        for prune in [true, false] {
            let what = format!("toy ({tasks}, {rounds}) prune {prune}");
            compare(&scenario, &Budget::runs(100_000), prune, &what);
        }
    }
}

/// Two producers race into a queue whose deliveries drop with
/// probability 1/2 while a consumer polls it, all on the same instants:
/// every round has choice points, and every write after them draws from
/// the fault lane's random stream.
fn lossy_system() -> SystemModel {
    let mut model = SystemModel::new("lossy");
    model.queue("Q", 8);
    for (i, name) in ["Prod_A", "Prod_B"].iter().enumerate() {
        let id = i as u64;
        model.function_script(
            TaskConfig::new(name),
            vec![s::repeat(
                5,
                vec![
                    s::delay(us(10)),
                    s::q_write("Q", move |r| Message::new(id, r.k)),
                ],
            )],
        );
        model.map(name, Mapping::Hardware);
    }
    model.function_script(
        TaskConfig::new("Consumer"),
        vec![s::repeat(5, vec![s::delay(us(10)), s::q_try_read("Q")])],
    );
    model.map("Consumer", Mapping::Hardware);
    model.fault_plan(FaultPlan::new(0x105E).drop_probability("Q", 0.5));
    model
}

const LOSSY: CheckScenario = CheckScenario {
    name: "lossy",
    build: lossy_system,
    horizon: SimDuration::from_us(200),
    expect: Expectation::Hold,
};

fn elaborate(scenario: &CheckScenario) -> ElaboratedSystem {
    let mut model = (scenario.build)();
    model.exec_mode(ExecMode::Segment);
    model.elaborate().expect("scenario elaborates")
}

fn horizon(scenario: &CheckScenario) -> SimTime {
    SimTime::ZERO + scenario.horizon
}

/// Runs `system` to choice point number `n` of its run, taking the
/// stable order (and recording it in `path`) at the ones before.
fn to_choice(
    system: &mut ElaboratedSystem,
    until: SimTime,
    path: &mut Vec<usize>,
    n: usize,
) -> ChoicePoint {
    loop {
        let point = system
            .simulator_mut()
            .run_to_choice(until)
            .expect("the run stays healthy")
            .expect("the run meets enough choice points");
        if path.len() == n {
            return point;
        }
        system.simulator_mut().decide(0);
        path.push(0);
    }
}

/// Decides `first` at the choice point `system` is stopped at, then runs
/// it to the end in the stable order, recording every choice in `path`.
fn finish(system: &mut ElaboratedSystem, until: SimTime, path: &mut Vec<usize>, first: usize) {
    system.simulator_mut().decide(first);
    path.push(first);
    while let Some(_point) = system
        .simulator_mut()
        .run_to_choice(until)
        .expect("the run stays healthy")
    {
        system.simulator_mut().decide(0);
        path.push(0);
    }
}

/// Everything a run exposes: the canonical trace and the kernel counters.
fn observe(system: &ElaboratedSystem) -> (String, KernelStats) {
    (canonical(&system.trace()), system.kernel_stats())
}

fn replayed(scenario: &CheckScenario, path: &[usize]) -> String {
    canonical(&replay(scenario, path).0)
}

fn assert_isolated(scenario: &CheckScenario, at: usize) {
    let name = scenario.name;
    let until = horizon(scenario);
    let mut parent = elaborate(scenario);
    let mut path = Vec::new();
    let point = to_choice(&mut parent, until, &mut path, at);
    let before = observe(&parent);
    let handles = parent.recorder().world().handles();

    let mut fork = parent.fork().expect("a script system forks");
    assert_eq!(
        parent.recorder().world().handles(),
        handles,
        "{name}: the fork holds a handle to its parent's world"
    );
    assert_eq!(
        fork.recorder().world().handles(),
        handles,
        "{name}: the fork's world is not reached the way its parent's is"
    );
    let mut fork_path = path.clone();
    finish(&mut fork, until, &mut fork_path, point.arity - 1);
    assert_eq!(
        observe(&parent),
        before,
        "{name}: running the fork changed its parent"
    );

    // A fork of a fork: the child takes sibling 1 and stops at its next
    // choice point, where the grandchild branches off.
    let mut child = parent.fork().expect("the parent forks again");
    let mut child_path = path.clone();
    child.simulator_mut().decide(1);
    child_path.push(1);
    let next = to_choice(&mut child, until, &mut child_path, at + 2);
    let mut grandchild = child.fork().expect("a fork forks");
    let mut grandchild_path = child_path.clone();
    finish(&mut grandchild, until, &mut grandchild_path, next.arity - 1);
    finish(&mut child, until, &mut child_path, 0);

    // The parent finishes last, on its own path.
    finish(&mut parent, until, &mut path, 0);
    for (who, system, path) in [
        ("parent", &parent, &path),
        ("fork", &fork, &fork_path),
        ("fork of a fork", &child, &child_path),
        ("fork of a fork of a fork", &grandchild, &grandchild_path),
    ] {
        assert_eq!(
            canonical(&system.trace()),
            replayed(scenario, path),
            "{name}: the {who} differs from the replay of its path {path:?}"
        );
    }
    assert_ne!(path, fork_path, "{name}: the fork took the same branch");
}

#[test]
fn a_fork_runs_on_without_touching_its_parent() {
    for name in ["rivals", "smp_migration", "fault_dropout"] {
        assert_isolated(scenario_by_name(name).expect("registered"), 3);
    }
}

#[test]
fn a_fork_draws_from_its_own_fault_lane() {
    // Forked after the first round: both copies then draw from the
    // lane's random stream, so a lane shared between them would shift
    // the parent's later drops away from its replay.
    assert_isolated(&LOSSY, 3);
    let trace = replay(&LOSSY, &[]).0;
    let drops = trace
        .records()
        .iter()
        .filter(|r| matches!(r.data, rtsim_trace::TraceData::Fault { .. }))
        .count();
    assert!(drops > 0, "the lossy queue never dropped a message");
}

/// A plain priority election, written outside the crate: deriving
/// `Clone` is all a policy needs to fork.
#[derive(Debug, Clone)]
struct HighestFirst;

impl SchedulingPolicy for HighestFirst {
    fn name(&self) -> &str {
        "highest-first"
    }
    fn select(&mut self, view: &PolicyView<'_>) -> Option<TaskId> {
        view.ready
            .iter()
            .max_by_key(|t| (t.priority, std::cmp::Reverse(t.enqueue_seq)))
            .map(|t| t.id)
    }
    fn should_preempt(
        &mut self,
        _: &PolicyView<'_>,
        candidate: &TaskView,
        running: &TaskView,
    ) -> bool {
        candidate.priority > running.priority
    }
}

/// Two equal tasks released twice by a scripted hardware tick, on a
/// processor running `policy`; the tasks' bodies are scripts, or with
/// `closures` the same behaviour written as closures.
fn ticked_pair(name: &str, policy: Box<dyn SchedulingPolicy>, closures: bool) -> SystemModel {
    let mut model = SystemModel::new(name);
    model.software_processor_with(
        "CPU",
        policy,
        Overheads::zero(),
        true,
        EngineKind::ProcedureCall,
    );
    model.event("Go", rtsim_comm::EventPolicy::Fugitive);
    model.function_script(
        TaskConfig::new("Tick"),
        vec![s::repeat(2, vec![s::delay(us(10)), s::signal("Go")])],
    );
    model.map("Tick", Mapping::Hardware);
    for task in ["A", "B"] {
        let config = TaskConfig::new(task).priority(3);
        if closures {
            model.function(config, |agent, io| {
                let go = io.event("Go");
                for _ in 0..2 {
                    go.wait(agent);
                    agent.execute(us(2));
                }
            });
        } else {
            model.function_script(
                config,
                vec![s::repeat(2, vec![s::await_event("Go"), s::exec(us(2))])],
            );
        }
        model.map_to_processor(task, "CPU");
    }
    model
}

const CLOSURE_PAIR: CheckScenario = CheckScenario {
    name: "closure_pair",
    build: || ticked_pair("closure_pair", Box::new(PriorityPreemptive::new()), true),
    horizon: SimDuration::from_us(100),
    expect: Expectation::Hold,
};

const USER_POLICY: CheckScenario = CheckScenario {
    name: "user_policy",
    build: || ticked_pair("user_policy", Box::new(HighestFirst), false),
    horizon: SimDuration::from_us(100),
    expect: Expectation::Hold,
};

#[test]
fn a_thread_backed_task_cannot_fork() {
    assert!(
        elaborate(&CLOSURE_PAIR).fork().is_none(),
        "a thread-backed task was forked"
    );
    // The explorer replays such a system instead, with the same result.
    let forked = explore_with(&CLOSURE_PAIR, &Budget::default(), true);
    let replayed = explore_replaying(&CLOSURE_PAIR, &Budget::default(), true);
    assert!(forked.complete && forked.runs > 1, "{forked:?}");
    assert_eq!(
        forked.fresh, forked.runs,
        "an unforkable system was not replayed"
    );
    assert_eq!(
        (forked.states, forked.choice_points, &forked.trace_hashes),
        (
            replayed.states,
            replayed.choice_points,
            &replayed.trace_hashes
        )
    );
}

#[test]
fn a_user_policy_forks() {
    assert!(elaborate(&USER_POLICY).fork().is_some());
    compare(&USER_POLICY, &Budget::default(), true, "user policy pruned");
    compare(
        &USER_POLICY,
        &Budget::default(),
        false,
        "user policy brute force",
    );
}

/// Runs `system` to the horizon, taking the stable order at every choice
/// point, the one it is stopped at included.
fn run_out(system: &mut ElaboratedSystem, until: SimTime) {
    while let Some(_point) = system
        .simulator_mut()
        .run_to_choice(until)
        .expect("the run stays healthy")
    {
        system.simulator_mut().decide(0);
    }
}

/// What a run leaves: its canonical trace, kernel and processor
/// counters, and how often its world was lent.
type Outcome = (String, KernelStats, Vec<Option<SchedulerStats>>, u64);

fn outcome(system: &ElaboratedSystem) -> Outcome {
    let processors = system
        .processor_names()
        .map(|name| system.processor_stats(name))
        .collect();
    let loans = system.recorder().world().lock_for("outcome").loans();
    (
        canonical(&system.trace()),
        system.kernel_stats(),
        processors,
        loans,
    )
}

/// At every choice point of each healthy scenario's stable run, the
/// system is forked three ways: fresh, over a spare of the same
/// elaboration that ran to its horizon from the choice point before (or
/// from rest), and over a finished system of the next scenario. Each
/// copy then runs to the horizon in the stable order, and all three must
/// end alike: a field the copy into a spare left as the spare had it
/// would show in the trace or the counters.
#[test]
fn a_fork_into_a_spare_is_a_fork() {
    let healthy: Vec<&CheckScenario> = SCENARIOS
        .iter()
        .filter(|s| s.expect == Expectation::Hold)
        .collect();
    for (i, scenario) in healthy.iter().enumerate() {
        let other = healthy[(i + 1) % healthy.len()];
        let (name, until) = (scenario.name, horizon(scenario));
        let mut parent = elaborate(scenario);
        let mut spare = parent.fork().expect("a script system forks");
        run_out(&mut spare, until);
        let mut point = 0;
        while let Some(_point) = parent
            .simulator_mut()
            .run_to_choice(until)
            .expect("the run stays healthy")
        {
            let mut fresh = parent.fork().expect("a script system forks");
            let mut stranger = elaborate(other);
            run_out(&mut stranger, horizon(other));
            assert!(parent.fork_into(&mut spare), "{name}: into a spare");
            assert!(
                parent.fork_into(&mut stranger),
                "{name}: into a system of {}",
                other.name
            );
            for system in [&mut fresh, &mut spare, &mut stranger] {
                run_out(system, until);
            }
            let want = outcome(&fresh);
            assert!(
                outcome(&spare) == want,
                "{name}: at choice point {point}, the fork into a spare ended unlike a fresh fork"
            );
            assert!(
                outcome(&stranger) == want,
                "{name}: at choice point {point}, the fork into a system of {} ended unlike a \
                 fresh fork",
                other.name
            );
            parent.simulator_mut().decide(0);
            point += 1;
        }
        assert!(point > 0, "{name}: the stable run met no choice point");
    }
}
