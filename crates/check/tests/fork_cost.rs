//! What a fork costs, counted: forking and dropping each healthy check
//! scenario at every choice point of its stable run makes exactly the
//! pinned number of allocations.
//!
//! The explorer resumes every sibling schedule from a fork, so this is
//! the cost of a run's start. A fork copies run state only: what
//! elaboration fixed — the kernel's event and process names, each world
//! slot's copy function, the processors' and tasks' names — is shared or
//! kept elsewhere, never copied. A change that makes a fork copy such a
//! name again, or anything else per event, process, slot or task, moves
//! these counts.
//!
//! This is its own test binary because it installs a counting
//! `#[global_allocator]` over `System`. Counting is per thread and only
//! switched on around each fork and its drop, so the test harness's own
//! threads never show up.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use rtsim_check::{scenario_by_name, CheckScenario, Expectation, SCENARIOS};
use rtsim_kernel::{ExecMode, SimTime};

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
    ("rivals", 11, 281),
    ("burst_queue", 13, 341),
    ("irq_races", 15, 422),
    ("var_ceiling", 4, 121),
    ("pipeline", 6, 164),
    ("smp_migration", 19, 562),
    ("fault_dropout", 10, 247),
];

/// Runs `scenario` in the stable order, forking and dropping it at each
/// choice point: the choice points met and the allocations of the forks.
fn fork_allocations(scenario: &CheckScenario) -> (u64, u64) {
    let mut model = (scenario.build)();
    model.exec_mode(ExecMode::Segment);
    let mut system = model.elaborate().expect("check scenario elaborates");
    let until = SimTime::ZERO + scenario.horizon;
    let (mut points, mut allocs) = (0, 0);
    while system
        .simulator_mut()
        .run_to_choice(until)
        .expect("a healthy run stays healthy")
        .is_some()
    {
        allocs += allocations_in(|| drop(system.fork().expect("a script system forks")));
        points += 1;
        system.simulator_mut().decide(0);
    }
    (points, allocs)
}

#[test]
fn a_fork_makes_the_pinned_allocations() {
    let healthy: Vec<&str> = SCENARIOS
        .iter()
        .filter(|s| s.expect == Expectation::Hold)
        .map(|s| s.name)
        .collect();
    assert_eq!(
        PINS.map(|pin| pin.0).to_vec(),
        healthy,
        "the healthy registry changed: update PINS"
    );
    let problems: Vec<String> = PINS
        .iter()
        .filter_map(|&(name, points, allocs)| {
            let got = fork_allocations(scenario_by_name(name).expect("registered"));
            (got != (points, allocs)).then(|| {
                format!(
                    "{name}: pinned {allocs} allocations over {points} forks, counted {} over {}",
                    got.1, got.0
                )
            })
        })
        .collect();
    assert!(problems.is_empty(), "{}", problems.join("\n"));
}
