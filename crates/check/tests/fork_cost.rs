//! What a fork costs, counted: forking each healthy check scenario at
//! every choice point of its stable run makes exactly the pinned number
//! of allocations, fresh or into a spare, and so does a whole search; a
//! leaf's property check makes none.
//!
//! The explorer resumes every sibling schedule from a fork, so this is
//! the cost of a run's start. A fork copies run state only: what
//! elaboration fixed — the kernel's event and process names, each world
//! slot's copy function, the processors' and tasks' names — is shared or
//! kept elsewhere, never copied. A change that makes a fork copy such a
//! name again, or anything else per event, process, slot or task, moves
//! these counts. A fresh fork does copy the monitor state of each
//! property the model declares: a box per property and the buffers of
//! its actor table.
//!
//! The explorer writes most forks over the system of a run that is over
//! (`ElaboratedSystem::fork_into`), reusing its buffers: such a fork
//! allocates only where the copy needs more room than the spare has. A
//! type that stops writing into its own buffers (a derived `Clone` where
//! a hand-written `clone_from` was, in a world slot, a machine or a
//! property's monitor state), or a machine spawned as a closure again,
//! moves those counts. Each processor's scheduling policy is written over
//! the spare's in place too, a stateful one included.
//!
//! The properties are monitors: the explorer folds each run's records
//! into them at every choice point it snapshots, so a leaf folds only
//! its own suffix and reads the findings off the monitors.
//!
//! This is its own test binary because it installs a counting
//! `#[global_allocator]` over `System`. Counting is per thread and only
//! switched on around what is counted, so the test harness's own threads
//! never show up.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use rtsim_check::{explore, scenario_by_name, Budget, CheckScenario, Expectation, SCENARIOS};
use rtsim_core::policies::{from_fn, RoundRobin};
use rtsim_core::SchedulingPolicy;
use rtsim_kernel::{ExecMode, SimDuration, SimTime};
use rtsim_mcse::{ElaboratedSystem, SystemModel};

struct Counting;

thread_local! {
    static COUNTING: Cell<bool> = const { Cell::new(false) };
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn note_alloc() {
    let _ = COUNTING.try_with(|on| {
        if on.get() {
            ALLOCS.with(|n| n.set(n.get() + 1));
        }
    });
}

// SAFETY: every method forwards its arguments unchanged to `System`, so
// the caller's `GlobalAlloc` contract is exactly `System`'s; counting
// touches only const-initialised thread-locals, which never allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_alloc();
        // SAFETY: the caller upholds the contract, forwarded unchanged.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note_alloc();
        // SAFETY: the caller upholds the contract, forwarded unchanged.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_alloc();
        // SAFETY: the caller upholds the contract, forwarded unchanged.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller upholds the contract, forwarded unchanged.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations made on this thread while `f` runs.
fn allocations_in(f: impl FnOnce()) -> u64 {
    ALLOCS.set(0);
    COUNTING.set(true);
    f();
    COUNTING.set(false);
    ALLOCS.get()
}

/// Per healthy scenario: the choice points of its stable run, and the
/// allocations of forking and dropping the system at all of them.
const PINS: [(&str, u64, u64); 7] = [
    ("rivals", 11, 380),
    ("burst_queue", 13, 458),
    ("irq_races", 15, 557),
    ("var_ceiling", 4, 157),
    ("pipeline", 6, 218),
    ("smp_migration", 19, 718),
    ("fault_dropout", 10, 327),
];

/// Per healthy scenario: the allocations of forking the system into one
/// spare of the same elaboration at every choice point of its stable
/// run, on the spare's first pass over them and on its second.
const SPARE_PINS: [(&str, u64, u64); 7] = [
    ("rivals", 16, 0),
    ("burst_queue", 18, 0),
    ("irq_races", 19, 0),
    ("var_ceiling", 6, 0),
    ("pipeline", 19, 0),
    ("smp_migration", 14, 0),
    ("fault_dropout", 15, 0),
];

/// Runs and allocations of exploring every healthy scenario under the
/// default budget, one after the other.
const EXPLORE_PIN: (u64, u64) = (84_836, 10_275);

/// The healthy scenarios, checked against the names of a pin table.
fn healthy(pinned: impl Iterator<Item = &'static str>) -> Vec<&'static CheckScenario> {
    let healthy: Vec<&CheckScenario> = SCENARIOS
        .iter()
        .filter(|s| s.expect == Expectation::Hold)
        .collect();
    assert_eq!(
        pinned.collect::<Vec<_>>(),
        healthy.iter().map(|s| s.name).collect::<Vec<_>>(),
        "the healthy registry changed: update the pins"
    );
    healthy
}

fn elaborate(scenario: &CheckScenario) -> ElaboratedSystem {
    elaborate_with(scenario, |_| {})
}

/// `scenario` elaborated in Segment mode after `edit` changed its model.
fn elaborate_with(
    scenario: &CheckScenario,
    edit: impl FnOnce(&mut SystemModel),
) -> ElaboratedSystem {
    let mut model = (scenario.build)();
    model.exec_mode(ExecMode::Segment);
    edit(&mut model);
    model.elaborate().expect("check scenario elaborates")
}

/// Runs `system` in the stable order, calling `at_choice` at each choice
/// point; returns the choice points met.
fn stable_run(
    system: &mut ElaboratedSystem,
    until: SimTime,
    mut at_choice: impl FnMut(&ElaboratedSystem),
) -> u64 {
    let mut points = 0;
    while system
        .simulator_mut()
        .run_to_choice(until)
        .expect("a healthy run stays healthy")
        .is_some()
    {
        at_choice(system);
        points += 1;
        system.simulator_mut().decide(0);
    }
    points
}

/// Runs `scenario` in the stable order, forking and dropping it at each
/// choice point: the choice points met and the allocations of the forks.
fn fork_allocations(scenario: &CheckScenario) -> (u64, u64) {
    let mut system = elaborate(scenario);
    let mut allocs = 0;
    let points = stable_run(&mut system, SimTime::ZERO + scenario.horizon, |system| {
        allocs += allocations_in(|| drop(system.fork().expect("a script system forks")));
    });
    (points, allocs)
}

/// Runs two copies of `origin`, taken before either ran, in the stable
/// order up to `horizon` one after the other, forking each into the same
/// spare at every choice point: the allocations of those forks on the
/// first run and on the second.
fn spare_passes(origin: &ElaboratedSystem, horizon: SimDuration) -> (u64, u64) {
    let mut spare = origin.fork().expect("a script system forks");
    let mut passes = [0; 2];
    for allocs in &mut passes {
        let mut system = origin.fork().expect("a script system forks");
        stable_run(&mut system, SimTime::ZERO + horizon, |system| {
            *allocs += allocations_in(|| assert!(system.fork_into(&mut spare)));
        });
    }
    (passes[0], passes[1])
}

fn spare_allocations(scenario: &CheckScenario) -> (u64, u64) {
    spare_passes(&elaborate(scenario), scenario.horizon)
}

/// The pins that `counted` does not reproduce, one line each.
fn drift(
    pins: &[(&'static str, u64, u64)],
    what: &str,
    counted: impl Fn(&CheckScenario) -> (u64, u64),
) -> Vec<String> {
    let scenarios = healthy(pins.iter().map(|pin| pin.0));
    pins.iter()
        .zip(scenarios)
        .filter_map(|(&(name, a, b), scenario)| {
            let got = counted(scenario);
            (got != (a, b)).then(|| format!("{name}: {what} pinned {:?}, counted {got:?}", (a, b)))
        })
        .collect()
}

#[test]
fn a_fork_makes_the_pinned_allocations() {
    let problems = drift(&PINS, "(forks, allocations)", fork_allocations);
    assert!(problems.is_empty(), "{}", problems.join("\n"));
}

#[test]
fn a_fork_into_a_spare_makes_the_pinned_allocations() {
    let problems = drift(
        &SPARE_PINS,
        "(first pass, second pass) allocations",
        spare_allocations,
    );
    assert!(problems.is_empty(), "{}", problems.join("\n"));
}

fn round_robin(_processor: &str) -> Box<dyn SchedulingPolicy> {
    Box::new(RoundRobin::new(SimDuration::from_us(200)))
}

fn closures(_processor: &str) -> Box<dyn SchedulingPolicy> {
    Box::new(from_fn(
        "oldest-first",
        |view| {
            view.ready
                .iter()
                .min_by_key(|t| t.enqueue_seq)
                .map(|t| t.id)
        },
        |_, _, _| false,
    ))
}

/// A policy with state (a quantum; a name and two closures) is written
/// over the spare's policy in place: with every processor running one,
/// the second pass of `spare_passes` allocates nothing.
#[test]
fn a_fork_into_a_spare_copies_each_policy_in_place() {
    type Make = fn(&str) -> Box<dyn SchedulingPolicy>;
    for name in ["var_ceiling", "smp_migration"] {
        let scenario = scenario_by_name(name).expect("registered");
        for (policy, make) in [("RoundRobin", round_robin as Make), ("from_fn", closures)] {
            let origin = elaborate_with(scenario, |model| {
                model.override_schedulers(true, make);
            });
            let (_, second) = spare_passes(&origin, scenario.horizon);
            assert_eq!(
                second, 0,
                "{name} under {policy}: the second pass allocated"
            );
        }
    }
}

/// A leaf's check, as the explorer makes it: the stable run of each
/// healthy scenario, its monitors folded at every choice point, then
/// `verify_constraints`, which folds the rest of the trace and finishes
/// the monitors.
#[test]
fn a_healthy_leaf_finishes_without_allocating() {
    for scenario in healthy(PINS.iter().map(|pin| pin.0)) {
        let mut system = elaborate(scenario);
        let until = SimTime::ZERO + scenario.horizon;
        stable_run(&mut system, until, ElaboratedSystem::fold);
        let allocs = allocations_in(|| assert!(system.verify_constraints().all_satisfied()));
        assert_eq!(allocs, 0, "{}: a leaf's check allocated", scenario.name);
    }
}

/// What the benchmark's `alloc.count_per_item` reads on `explore`, pinned
/// as a whole: every allocation of a default-budget search of each
/// healthy scenario, elaboration, visited set and leaf checks included.
#[test]
fn an_exploration_makes_the_pinned_allocations() {
    let (mut runs, mut allocs) = (0, 0);
    for scenario in healthy(PINS.iter().map(|pin| pin.0)) {
        allocs += allocations_in(|| runs += explore(scenario, &Budget::default()).runs);
    }
    assert!(
        (runs, allocs) == EXPLORE_PIN,
        "(runs, allocations) pinned {EXPLORE_PIN:?}, counted {:?}: {:.2} per run",
        (runs, allocs),
        allocs as f64 / runs as f64
    );
}
