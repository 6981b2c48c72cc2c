//! One Segment-mode RTOS step — from the kernel's yield to the policy's
//! decision — allocates nothing once warm.
//!
//! This is its own test binary because it installs a counting
//! `#[global_allocator]` over `System`. Counting is per thread and only
//! switched on around the measured `run_until`, so the test harness's
//! own threads never show up. The trace recorder is disabled, so its
//! record buffer does not count either.
//!
//! Two processors run periodic tasks driven through [`SegTaskRunner`]: a
//! priority-preemptive one with uniform overheads, whose tasks execute,
//! delay and preempt each other, and a round-robin one, whose tasks run
//! out their time slice. A step that builds a temporary again — a `Vec`
//! in a wait request, a freshly collected policy view, a vector of frames
//! to push, a list of events to notify after the lock drops — makes this
//! test fail.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use rtsim_core::policies::RoundRobin;
use rtsim_core::{
    Overheads, Processor, ProcessorConfig, SchedulerStats, SegControl, SegTaskRunner, TaskConfig,
};
use rtsim_kernel::{ExecMode, SegStep, SimDuration, SimTime, Simulator};
use rtsim_trace::TraceRecorder;

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

fn us(n: u64) -> SimDuration {
    SimDuration::from_us(n)
}

/// Registers a task that computes `cost` once per `period`, released at
/// absolute multiples of the period, forever.
fn periodic(
    sim: &mut Simulator,
    cpu: &Processor,
    name: &str,
    priority: u32,
    period: u64,
    cost: u64,
) {
    let mut runner: SegTaskRunner =
        cpu.register_seg_task(sim, TaskConfig::new(name).priority(priority));
    let mut release = SimTime::ZERO;
    let mut computed = false;
    sim.spawn_segment(name, move |ctx| loop {
        match runner.advance(ctx) {
            SegControl::Yield(req) => return SegStep::Yield(req),
            SegControl::Finished => return SegStep::Done,
            SegControl::Idle if computed => {
                release += us(period);
                let now = ctx.now();
                let sleep = if release > now {
                    release - now
                } else {
                    SimDuration::ZERO
                };
                runner.delay(now, sleep);
                computed = false;
            }
            SegControl::Idle => {
                runner.execute(us(cost));
                computed = true;
            }
        }
    });
}

#[test]
fn segment_rtos_step_allocates_nothing_once_warm() {
    let mut sim = Simulator::with_mode(ExecMode::Segment);
    let rec = TraceRecorder::disabled();
    let fixed = Processor::new(
        &mut sim,
        &rec,
        ProcessorConfig::new("FP").overheads(Overheads::uniform(us(2))),
    );
    periodic(&mut sim, &fixed, "hi", 3, 100, 10);
    periodic(&mut sim, &fixed, "mid", 2, 170, 25);
    periodic(&mut sim, &fixed, "lo", 1, 430, 60);
    let shared = Processor::new(
        &mut sim,
        &rec,
        ProcessorConfig::new("RR").policy(RoundRobin::new(us(5))),
    );
    periodic(&mut sim, &shared, "a", 1, 100, 30);
    periodic(&mut sim, &shared, "b", 1, 150, 40);

    // Warm-up: every queue, heap, stack and view reaches its steady
    // capacity.
    sim.run_until(SimTime::ZERO + us(5_000)).unwrap();
    let (k0, fp0, rr0) = (sim.stats(), fixed.stats(), shared.stats());

    let allocs = allocations_in(|| sim.run_until(SimTime::ZERO + us(105_000)).unwrap());
    let (k1, fp1, rr1) = (sim.stats(), fixed.stats(), shared.stats());

    let delta = |a: SchedulerStats, b: SchedulerStats| SchedulerStats {
        dispatches: b.dispatches - a.dispatches,
        preemptions: b.preemptions - a.preemptions,
        scheduler_runs: b.scheduler_runs - a.scheduler_runs,
        quantum_expirations: b.quantum_expirations - a.quantum_expirations,
        deadline_misses: b.deadline_misses - a.deadline_misses,
    };
    let (fp, rr) = (delta(fp0, fp1), delta(rr0, rr1));
    let switches = k1.process_switches - k0.process_switches;
    let dispatches = fp.dispatches + rr.dispatches;
    assert!(
        dispatches > 10_000,
        "only {dispatches} RTOS dispatches measured"
    );
    assert!(fp.preemptions > 0, "no preemption measured: {fp:?}");
    assert!(rr.quantum_expirations > 0, "no slice expired: {rr:?}");
    assert_eq!(
        allocs, 0,
        "{allocs} allocations over {dispatches} RTOS dispatches ({switches} kernel switches)"
    );
}
