//! Integration tests pinning down the kernel's SystemC-like semantics:
//! notification kinds, override rules, timeouts, delta cycles, determinism
//! and error reporting.

use std::sync::mpsc;
use std::sync::{Arc, Mutex};

use rtsim_kernel::{KernelError, SimDuration, SimTime, Simulator, Wake};

type Log = Arc<Mutex<Vec<String>>>;

fn log() -> Log {
    Arc::new(Mutex::new(Vec::new()))
}

fn push(log: &Log, s: impl Into<String>) {
    log.lock().unwrap().push(s.into());
}

fn entries(log: &Log) -> Vec<String> {
    log.lock().unwrap().clone()
}

#[test]
fn empty_simulator_runs_to_starvation() {
    let mut sim = Simulator::new();
    sim.run().unwrap();
    assert_eq!(sim.now(), SimTime::ZERO);
    assert_eq!(sim.alive_processes(), 0);
}

#[test]
fn wait_for_advances_time() {
    let mut sim = Simulator::new();
    let l = log();
    let l2 = Arc::clone(&l);
    sim.spawn("p", move |ctx| {
        ctx.wait_for(SimDuration::from_ns(100));
        push(&l2, format!("t={}", ctx.now().as_ns()));
        ctx.wait_for(SimDuration::from_ns(50));
        push(&l2, format!("t={}", ctx.now().as_ns()));
    });
    sim.run().unwrap();
    assert_eq!(entries(&l), vec!["t=100", "t=150"]);
    assert_eq!(sim.now().as_ns(), 150);
}

#[test]
fn processes_start_at_time_zero() {
    let mut sim = Simulator::new();
    let l = log();
    for name in ["a", "b", "c"] {
        let l = Arc::clone(&l);
        sim.spawn(name, move |ctx| {
            push(&l, format!("{name}@{}", ctx.now().as_ps()));
        });
    }
    sim.run().unwrap();
    // Spawn order is resume order.
    assert_eq!(entries(&l), vec!["a@0", "b@0", "c@0"]);
}

#[test]
fn immediate_notify_wakes_in_same_evaluation_phase() {
    let mut sim = Simulator::new();
    let e = sim.event("e");
    let l = log();
    let l1 = Arc::clone(&l);
    let l2 = Arc::clone(&l);
    sim.spawn("waiter", move |ctx| {
        ctx.wait_event(e);
        push(&l1, format!("woken@{}", ctx.now().as_ns()));
    });
    sim.spawn("notifier", move |ctx| {
        ctx.wait_for(SimDuration::from_ns(10));
        ctx.notify(e);
        push(&l2, "notified");
    });
    sim.run().unwrap();
    // Notifier continues to completion before waiter resumes (notification
    // buffered until the notifier yields), then waiter wakes at the same
    // simulated time.
    assert_eq!(entries(&l), vec!["notified", "woken@10"]);
}

#[test]
fn fugitive_event_notification_is_lost_without_waiter() {
    let mut sim = Simulator::new();
    let e = sim.event("e");
    let l = log();
    let l1 = Arc::clone(&l);
    sim.spawn("notifier", move |ctx| {
        // Nobody waits yet: this notification must be lost (sc_event has
        // no memory).
        ctx.notify(e);
        ctx.wait_for(SimDuration::from_ns(1));
    });
    let l2 = Arc::clone(&l);
    sim.spawn("late_waiter", move |ctx| {
        let wake = ctx.wait_event_for(e, SimDuration::from_ns(100));
        push(&l2, format!("{wake:?}"));
        let _ = &l1;
    });
    sim.run().unwrap();
    assert_eq!(entries(&l), vec!["Timeout"]);
}

#[test]
fn delta_notification_wakes_next_delta_same_time() {
    let mut sim = Simulator::new();
    let e = sim.event("e");
    let l = log();
    let l1 = Arc::clone(&l);
    sim.spawn("waiter", move |ctx| {
        ctx.wait_event(e);
        push(&l1, format!("woken@{}", ctx.now().as_ns()));
    });
    let l2 = Arc::clone(&l);
    sim.spawn("notifier", move |ctx| {
        ctx.notify_delta(e);
        push(&l2, format!("notified@{}", ctx.now().as_ns()));
        ctx.wait_for(SimDuration::from_ns(5));
        push(&l2, "later");
    });
    let before = sim.stats().delta_cycles;
    sim.run().unwrap();
    assert_eq!(entries(&l), vec!["notified@0", "woken@0", "later"]);
    assert!(sim.stats().delta_cycles > before);
}

#[test]
fn timed_notification_and_timeout_interplay() {
    let mut sim = Simulator::new();
    let e = sim.event("e");
    let l = log();
    let l1 = Arc::clone(&l);
    sim.spawn("waiter", move |ctx| {
        // Event arrives at 30 ns, before the 50 ns timeout.
        let w = ctx.wait_event_for(e, SimDuration::from_ns(50));
        push(&l1, format!("{w:?}@{}", ctx.now().as_ns()));
        // Now nothing is coming: timeout fires.
        let w = ctx.wait_event_for(e, SimDuration::from_ns(20));
        push(&l1, format!("{w:?}@{}", ctx.now().as_ns()));
    });
    sim.spawn("notifier", move |ctx| {
        ctx.notify_after(e, SimDuration::from_ns(30));
    });
    sim.run().unwrap();
    assert_eq!(
        entries(&l),
        vec![format!("Event(Event(0))@30"), "Timeout@50".to_string()]
    );
}

#[test]
fn earliest_wins_override_rule_for_timed_notifications() {
    let mut sim = Simulator::new();
    let e = sim.event("e");
    let l = log();
    let l1 = Arc::clone(&l);
    sim.spawn("waiter", move |ctx| {
        ctx.wait_event(e);
        push(&l1, format!("woken@{}", ctx.now().as_ns()));
    });
    sim.spawn("notifier", move |ctx| {
        // Later first, then earlier: the earlier one must win.
        ctx.notify_after(e, SimDuration::from_ns(100));
        ctx.notify_after(e, SimDuration::from_ns(40));
        // This even-later one must be discarded.
        ctx.notify_after(e, SimDuration::from_ns(200));
    });
    sim.run().unwrap();
    assert_eq!(entries(&l), vec!["woken@40"]);
}

#[test]
fn delta_notification_overrides_timed() {
    let mut sim = Simulator::new();
    let e = sim.event("e");
    let l = log();
    let l1 = Arc::clone(&l);
    sim.spawn("waiter", move |ctx| {
        ctx.wait_event(e);
        push(&l1, format!("woken@{}", ctx.now().as_ns()));
    });
    sim.spawn("notifier", move |ctx| {
        ctx.notify_after(e, SimDuration::from_ns(100));
        ctx.notify_delta(e); // delta is earlier -> overrides
    });
    sim.run().unwrap();
    assert_eq!(entries(&l), vec!["woken@0"]);
}

#[test]
fn cancel_discards_pending_notification() {
    let mut sim = Simulator::new();
    let e = sim.event("e");
    let l = log();
    let l1 = Arc::clone(&l);
    sim.spawn("waiter", move |ctx| {
        let w = ctx.wait_event_for(e, SimDuration::from_ns(500));
        push(&l1, format!("{w:?}@{}", ctx.now().as_ns()));
    });
    sim.spawn("notifier", move |ctx| {
        ctx.notify_after(e, SimDuration::from_ns(50));
        ctx.wait_for(SimDuration::from_ns(10));
        ctx.cancel(e);
    });
    sim.run().unwrap();
    assert_eq!(entries(&l), vec!["Timeout@500"]);
}

#[test]
fn immediate_notification_cancels_pending_timed() {
    let mut sim = Simulator::new();
    let e = sim.event("e");
    let l = log();
    let l1 = Arc::clone(&l);
    sim.spawn("waiter", move |ctx| {
        ctx.wait_event(e);
        push(&l1, format!("first@{}", ctx.now().as_ns()));
        // If the timed notification (due at 100 ns) were still pending it
        // would wake this second wait; it must not.
        let w = ctx.wait_event_for(e, SimDuration::from_ns(1000));
        push(&l1, format!("{w:?}@{}", ctx.now().as_ns()));
    });
    sim.spawn("notifier", move |ctx| {
        ctx.notify_after(e, SimDuration::from_ns(100));
        ctx.wait_for(SimDuration::from_ns(10));
        ctx.notify(e); // immediate at 10 ns: fires now, cancels the 100 ns one
    });
    sim.run().unwrap();
    assert_eq!(entries(&l), vec!["first@10", "Timeout@1010"]);
}

#[test]
fn wait_any_reports_the_waking_event() {
    let mut sim = Simulator::new();
    let a = sim.event("a");
    let b = sim.event("b");
    let l = log();
    let l1 = Arc::clone(&l);
    sim.spawn("waiter", move |ctx| {
        let winner = ctx.wait_any(&[a, b]);
        push(&l1, format!("won:{}", if winner == a { "a" } else { "b" }));
    });
    sim.spawn("notifier", move |ctx| {
        ctx.wait_for(SimDuration::from_ns(5));
        ctx.notify(b);
    });
    sim.run().unwrap();
    assert_eq!(entries(&l), vec!["won:b"]);
}

#[test]
fn wait_any_for_times_out() {
    let mut sim = Simulator::new();
    let a = sim.event("a");
    let b = sim.event("b");
    let l = log();
    let l1 = Arc::clone(&l);
    sim.spawn("waiter", move |ctx| {
        let w = ctx.wait_any_for(&[a, b], SimDuration::from_ns(7));
        push(&l1, format!("{w:?}@{}", ctx.now().as_ns()));
    });
    sim.run().unwrap();
    assert_eq!(entries(&l), vec!["Timeout@7"]);
}

#[test]
fn stale_wait_registrations_do_not_wake_later_waits() {
    // A process waits on {a, b}; a fires. Later b fires while the process
    // waits on {c}: the stale registration on b must not wake it.
    let mut sim = Simulator::new();
    let a = sim.event("a");
    let b = sim.event("b");
    let c = sim.event("c");
    let l = log();
    let l1 = Arc::clone(&l);
    sim.spawn("waiter", move |ctx| {
        let first = ctx.wait_any(&[a, b]);
        push(&l1, format!("first={}", if first == a { "a" } else { "b" }));
        let w = ctx.wait_event_for(c, SimDuration::from_ns(100));
        push(&l1, format!("second={w:?}@{}", ctx.now().as_ns()));
    });
    sim.spawn("notifier", move |ctx| {
        ctx.wait_for(SimDuration::from_ns(5));
        ctx.notify(a);
        ctx.wait_for(SimDuration::from_ns(5));
        ctx.notify(b); // must be ignored by the waiter (now waiting on c)
    });
    sim.run().unwrap();
    assert_eq!(entries(&l), vec!["first=a", "second=Timeout@105"]);
}

#[test]
fn run_until_stops_exactly_at_the_limit() {
    let mut sim = Simulator::new();
    let l = log();
    let l1 = Arc::clone(&l);
    sim.spawn("ticker", move |ctx| {
        for _ in 0..10 {
            ctx.wait_for(SimDuration::from_ns(10));
            push(&l1, format!("tick@{}", ctx.now().as_ns()));
        }
    });
    sim.run_until(SimTime::from_ps(35_000)).unwrap();
    assert_eq!(entries(&l), vec!["tick@10", "tick@20", "tick@30"]);
    assert_eq!(sim.now().as_ns(), 35);
    // Resume: the 40 ns tick still happens.
    sim.run_until(SimTime::from_ps(40_000)).unwrap();
    assert_eq!(entries(&l).len(), 4);
    assert_eq!(sim.now().as_ns(), 40);
}

#[test]
fn run_until_processes_events_at_the_boundary() {
    let mut sim = Simulator::new();
    let l = log();
    let l1 = Arc::clone(&l);
    sim.spawn("p", move |ctx| {
        ctx.wait_for(SimDuration::from_ns(50));
        push(&l1, "at50");
    });
    sim.run_until(SimTime::from_ps(50_000)).unwrap();
    assert_eq!(entries(&l), vec!["at50"]);
}

#[test]
fn notify_at_from_testbench() {
    let mut sim = Simulator::new();
    let e = sim.event("e");
    let l = log();
    let l1 = Arc::clone(&l);
    sim.spawn("waiter", move |ctx| {
        ctx.wait_event(e);
        push(&l1, format!("woken@{}", ctx.now().as_ns()));
    });
    sim.notify_at(e, SimTime::from_ps(123_000));
    sim.run().unwrap();
    assert_eq!(entries(&l), vec!["woken@123"]);
}

#[test]
#[should_panic(expected = "notify_at")]
fn notify_at_in_the_past_panics() {
    let mut sim = Simulator::new();
    let e = sim.event("e");
    sim.spawn("p", |ctx| ctx.wait_for(SimDuration::from_ns(100)));
    sim.run().unwrap();
    sim.notify_at(e, SimTime::from_ps(1));
}

#[test]
fn zero_time_wait_resumes_after_deltas_settle() {
    let mut sim = Simulator::new();
    let e = sim.event("e");
    let l = log();
    let l1 = Arc::clone(&l);
    let l2 = Arc::clone(&l);
    sim.spawn("zero_waiter", move |ctx| {
        ctx.wait_for(SimDuration::ZERO);
        push(&l1, "zero-resumed");
    });
    sim.spawn("delta_chain", move |ctx| {
        ctx.notify_delta(e);
        ctx.wait_event(e);
        push(&l2, "delta-done");
    });
    sim.run().unwrap();
    // All delta activity at t=0 settles before the zero-time timer fires.
    assert_eq!(entries(&l), vec!["delta-done", "zero-resumed"]);
}

#[test]
fn process_panic_is_reported_with_name_and_message() {
    let mut sim = Simulator::new();
    sim.spawn("bad_task", |_ctx| panic!("deliberate failure"));
    let err = sim.run().unwrap_err();
    match err {
        KernelError::ProcessPanicked { process, message } => {
            assert_eq!(process, "bad_task");
            assert!(message.contains("deliberate failure"));
        }
        other => panic!("unexpected error: {other:?}"),
    }
}

#[test]
fn delta_livelock_is_detected() {
    let mut sim = Simulator::new();
    let a = sim.event("a");
    let b = sim.event("b");
    sim.set_max_delta_cycles(100);
    sim.spawn("ping", move |ctx| loop {
        ctx.notify_delta(a);
        ctx.wait_event(b);
    });
    sim.spawn("pong", move |ctx| loop {
        ctx.wait_event(a);
        ctx.notify_delta(b);
    });
    let err = sim.run().unwrap_err();
    assert!(matches!(
        err,
        KernelError::DeltaCycleOverflow { limit: 100, .. }
    ));
}

#[test]
fn deterministic_schedules_across_runs() {
    fn run_once() -> (Vec<String>, u64) {
        let mut sim = Simulator::new();
        let e = sim.event("e");
        let l = log();
        for i in 0..5u32 {
            let l = Arc::clone(&l);
            sim.spawn(&format!("p{i}"), move |ctx| {
                for k in 0..3u32 {
                    ctx.wait_for(SimDuration::from_ns(u64::from(i * 7 + k)));
                    ctx.notify(e);
                    push(&l, format!("p{i}.{k}@{}", ctx.now().as_ps()));
                }
            });
        }
        sim.run().unwrap();
        (entries(&l), sim.stats().process_switches)
    }
    let (log1, sw1) = run_once();
    let (log2, sw2) = run_once();
    assert_eq!(log1, log2);
    assert_eq!(sw1, sw2);
}

#[test]
fn stats_count_switches_and_advances() {
    let mut sim = Simulator::new();
    sim.spawn("p", |ctx| {
        ctx.wait_for(SimDuration::from_ns(1));
        ctx.wait_for(SimDuration::from_ns(1));
    });
    sim.run().unwrap();
    let stats = sim.stats();
    // start + 2 timed wakes = 3 switches, 2 time advances.
    assert_eq!(stats.process_switches, 3);
    assert_eq!(stats.time_advances, 2);
}

#[test]
fn spawning_between_runs_works() {
    let mut sim = Simulator::new();
    let l = log();
    let l1 = Arc::clone(&l);
    sim.spawn("first", move |ctx| {
        ctx.wait_for(SimDuration::from_ns(10));
        push(&l1, format!("first@{}", ctx.now().as_ns()));
    });
    sim.run().unwrap();
    let l2 = Arc::clone(&l);
    sim.spawn("second", move |ctx| {
        ctx.wait_for(SimDuration::from_ns(10));
        push(&l2, format!("second@{}", ctx.now().as_ns()));
    });
    sim.run().unwrap();
    // The second process starts at the time the first run ended (10 ns).
    assert_eq!(entries(&l), vec!["first@10", "second@20"]);
}

#[test]
fn dropping_a_simulator_with_blocked_processes_does_not_hang() {
    let (tx, rx) = mpsc::channel::<()>();
    {
        let mut sim = Simulator::new();
        let e = sim.event("never");
        sim.spawn("blocked", move |ctx| {
            ctx.wait_event(e); // never notified
            drop(tx); // unreachable
        });
        sim.run_until(SimTime::from_ps(1)).unwrap();
        // sim dropped here; the blocked thread must be torn down.
    }
    // If teardown failed to unwind the process, tx would still be alive.
    assert!(rx.recv().is_err());
}

#[test]
fn wake_display_names_are_stable() {
    let mut sim = Simulator::new();
    let e = sim.event("irq");
    assert_eq!(sim.event_name(e), "irq");
    let pid = sim.spawn("task", |_ctx| {});
    assert_eq!(sim.process_name(pid), "task");
    assert_eq!(sim.process_count(), 1);
    assert_eq!(sim.event_count(), 1);
    sim.run().unwrap();
    assert_eq!(sim.alive_processes(), 0);
    let _ = Wake::Timeout; // re-exported
}
