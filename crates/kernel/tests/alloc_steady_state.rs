//! The Segment-mode run loop allocates nothing per dispatch once warm.
//!
//! This is its own test binary because it installs a counting
//! `#[global_allocator]` over `System`. Counting is per thread and only
//! switched on around the measured `run_until`, so the test harness's
//! own threads never show up. The process bodies' own yields are counted
//! too, so the test pins the whole request path: building a
//! `WaitRequest`, parking on an event's waiter list, and firing it.
//!
//! A change that puts a per-step `Vec::new()` back into `Kernel::run` —
//! per-dispatch notify ops, the ripe-timer set, the delta list, an
//! event's waiter list — or into a single-event wait request makes this
//! test fail, and so does one that lets the stale entries of timed-out
//! waits pile up on an event that never fires.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use rtsim_kernel::{ExecMode, SegStep, SimDuration, SimTime, Simulator, WaitRequest};

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

#[test]
fn segment_run_loop_allocates_nothing_per_dispatch_once_warm() {
    let mut sim = Simulator::with_mode(ExecMode::Segment);
    let tick = sim.event("tick");
    let soon = sim.event("soon");
    let later = sim.event("later");

    // Every microsecond: one immediate, one delta and one timed notify,
    // then a timed wait.
    sim.spawn_segment("notifier", move |ctx| {
        ctx.notify(tick);
        ctx.notify_delta(soon);
        ctx.notify_after(later, us(2));
        SegStep::Yield(WaitRequest::time(us(1)))
    });
    // One waiter per notification kind; `later`'s waiter also arms a
    // timeout that never wins, so stale timer entries are popped too.
    sim.spawn_segment("on_tick", move |_| SegStep::Yield(WaitRequest::event(tick)));
    sim.spawn_segment("on_soon", move |_| SegStep::Yield(WaitRequest::event(soon)));
    sim.spawn_segment("on_later", move |_| {
        SegStep::Yield(WaitRequest::event_for(later, us(5)))
    });
    // Every wait on `never` times out and leaves a stale waiter entry.
    let never = sim.event("never");
    sim.spawn_segment("on_never", move |_| {
        SegStep::Yield(WaitRequest::event_for(never, us(1)))
    });

    // Warm-up: every scratch buffer, waiter list and queue reaches its
    // steady-state capacity.
    sim.run_until(SimTime::ZERO + us(100)).unwrap();
    let before = sim.stats();

    let allocs = allocations_in(|| sim.run_until(SimTime::ZERO + us(5_000)).unwrap());
    let after = sim.stats();

    let dispatches = after.process_switches - before.process_switches;
    assert!(dispatches > 10_000, "only {dispatches} dispatches measured");
    assert!(after.event_wakes - before.event_wakes > 5_000);
    assert!(after.delta_cycles > before.delta_cycles);
    assert_eq!(
        allocs, 0,
        "{allocs} allocations over {dispatches} steady-state dispatches"
    );
}
