//! Stress and corner-case tests for the kernel: many processes, many
//! waiters, notification churn, re-running, and concurrent simulators.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use rtsim_kernel::{SimDuration, SimTime, Simulator, Wake};

#[test]
fn hundred_processes_thousand_sleeps() {
    let mut sim = Simulator::new();
    let total = Arc::new(AtomicU64::new(0));
    for i in 0..100u64 {
        let total = Arc::clone(&total);
        sim.spawn(&format!("p{i}"), move |ctx| {
            for k in 0..10u64 {
                ctx.wait_for(SimDuration::from_ps(1 + (i * 13 + k * 7) % 97));
            }
            total.fetch_add(1, Ordering::Relaxed);
        });
    }
    sim.run().unwrap();
    assert_eq!(total.load(Ordering::Relaxed), 100);
    assert_eq!(sim.alive_processes(), 0);
    // Each process was resumed once at start + once per sleep.
    assert_eq!(sim.stats().process_switches, 100 * 11);
}

#[test]
fn fifty_waiters_wake_in_registration_order() {
    let mut sim = Simulator::new();
    let gate = sim.event("gate");
    let order = Arc::new(rtsim_kernel::sync::Mutex::new(Vec::new()));
    for i in 0..50u32 {
        let order = Arc::clone(&order);
        sim.spawn(&format!("w{i}"), move |ctx| {
            ctx.wait_event(gate);
            order.lock().push(i);
        });
    }
    sim.spawn("opener", move |ctx| {
        ctx.wait_for(SimDuration::from_ns(1));
        ctx.notify(gate);
    });
    sim.run().unwrap();
    let order = order.lock();
    assert_eq!(*order, (0..50).collect::<Vec<_>>());
}

#[test]
fn cancel_then_renotify_works() {
    let mut sim = Simulator::new();
    let e = sim.event("e");
    let woken_at = Arc::new(AtomicU64::new(0));
    let woken = Arc::clone(&woken_at);
    sim.spawn("waiter", move |ctx| {
        ctx.wait_event(e);
        woken.store(ctx.now().as_ps(), Ordering::Relaxed);
    });
    sim.spawn("driver", move |ctx| {
        ctx.notify_after(e, SimDuration::from_ps(100));
        ctx.wait_for(SimDuration::from_ps(10));
        ctx.cancel(e);
        // Renotify later: the cancel must not poison the event.
        ctx.wait_for(SimDuration::from_ps(10));
        ctx.notify_after(e, SimDuration::from_ps(30));
    });
    sim.run().unwrap();
    assert_eq!(woken_at.load(Ordering::Relaxed), 50);
}

#[test]
fn duplicate_events_in_wait_any_are_harmless() {
    let mut sim = Simulator::new();
    let e = sim.event("e");
    let hits = Arc::new(AtomicU64::new(0));
    let hits2 = Arc::clone(&hits);
    sim.spawn("waiter", move |ctx| {
        let winner = ctx.wait_any(&[e, e, e]);
        assert_eq!(winner, e);
        hits2.fetch_add(1, Ordering::Relaxed);
    });
    sim.notify_at(e, SimTime::from_ps(5));
    sim.run().unwrap();
    assert_eq!(hits.load(Ordering::Relaxed), 1);
}

#[test]
fn run_until_now_is_a_no_op() {
    let mut sim = Simulator::new();
    sim.spawn("p", |ctx| ctx.wait_for(SimDuration::from_ns(100)));
    sim.run_until(SimTime::from_ps(50_000)).unwrap();
    let t = sim.now();
    sim.run_until(t).unwrap();
    assert_eq!(sim.now(), t);
    // The pending wake at 100 ns still happens afterwards.
    sim.run().unwrap();
    assert_eq!(sim.now().as_ns(), 100);
}

#[test]
fn two_simulators_coexist_independently() {
    let mut a = Simulator::new();
    let mut b = Simulator::new();
    a.spawn("pa", |ctx| ctx.wait_for(SimDuration::from_ns(10)));
    b.spawn("pb", |ctx| ctx.wait_for(SimDuration::from_ns(20)));
    a.run().unwrap();
    b.run().unwrap();
    assert_eq!(a.now().as_ns(), 10);
    assert_eq!(b.now().as_ns(), 20);
}

#[test]
fn simulators_run_in_parallel_threads() {
    let handles: Vec<_> = (0..4)
        .map(|i| {
            std::thread::spawn(move || {
                let mut sim = Simulator::new();
                let e = sim.event("e");
                sim.spawn("waiter", move |ctx| {
                    let w = ctx.wait_event_for(e, SimDuration::from_ns(i + 1));
                    assert_eq!(w, Wake::Timeout);
                });
                sim.run().unwrap();
                sim.now().as_ns()
            })
        })
        .collect();
    let ends: Vec<u64> = handles.into_iter().map(|h| h.join().unwrap()).collect();
    assert_eq!(ends, vec![1, 2, 3, 4]);
}

#[test]
fn notification_churn_settles_deterministically() {
    // Heavy mixed immediate/delta/timed churn on shared events must give
    // the same final state on repeated runs.
    fn run() -> (u64, u64) {
        let mut sim = Simulator::new();
        let events: Vec<_> = (0..8).map(|i| sim.event(&format!("e{i}"))).collect();
        let hits = Arc::new(AtomicU64::new(0));
        for i in 0..8usize {
            let events = events.clone();
            let hits = Arc::clone(&hits);
            sim.spawn(&format!("p{i}"), move |ctx| {
                for k in 0..20u64 {
                    let target = events[(i + k as usize) % events.len()];
                    match k % 3 {
                        0 => ctx.notify(target),
                        1 => ctx.notify_delta(target),
                        _ => ctx.notify_after(target, SimDuration::from_ps(k)),
                    }
                    let w = ctx
                        .wait_event_for(events[i], SimDuration::from_ps(3 + (k * i as u64) % 11));
                    if matches!(w, Wake::Event(_)) {
                        hits.fetch_add(1, Ordering::Relaxed);
                    }
                }
            });
        }
        sim.run().unwrap();
        (hits.load(Ordering::Relaxed), sim.now().as_ps())
    }
    assert_eq!(run(), run());
}

#[test]
fn next_activity_supports_lockstep_costimulation() {
    let mut sim = Simulator::new();
    sim.spawn("p", |ctx| {
        ctx.wait_for(SimDuration::from_ns(10));
        ctx.wait_for(SimDuration::from_ns(25));
    });
    // Before running: the spawned process is pending at t=0.
    assert_eq!(sim.next_activity(), Some(SimTime::ZERO));
    sim.run_until(SimTime::ZERO).unwrap();
    // Next wake at 10 ns, then 35 ns, then starvation.
    assert_eq!(sim.next_activity(), Some(SimTime::from_ps(10_000)));
    let t = sim.next_activity().unwrap();
    sim.run_until(t).unwrap();
    assert_eq!(sim.next_activity(), Some(SimTime::from_ps(35_000)));
    let t = sim.next_activity().unwrap();
    sim.run_until(t).unwrap();
    assert_eq!(sim.next_activity(), None);
}

#[test]
fn zero_duration_stress_does_not_livelock_legitimate_models() {
    // Many zero-time waits in sequence are fine; only unbounded delta
    // loops trip the livelock guard.
    let mut sim = Simulator::new();
    sim.spawn("p", |ctx| {
        for _ in 0..10_000 {
            ctx.wait_for(SimDuration::ZERO);
        }
    });
    sim.run().unwrap();
    assert_eq!(sim.now(), SimTime::ZERO);
}
