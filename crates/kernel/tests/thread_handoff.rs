//! The thread handoff seen from outside: thread-backed processes pass the
//! kernel straight to one another, and it comes home to the caller only
//! when a run ends. A failure must still end the run as a `KernelError`,
//! with the kernel back on the simulator's own thread, and a run cut into
//! slices must do exactly what one long run does.

use std::sync::mpsc;
use std::sync::{Arc, Mutex};
use std::time::Duration;

use rtsim_kernel::{ExecMode, KernelError, SegStep, SimDuration, SimTime, Simulator, WaitRequest};

type Log = Arc<Mutex<Vec<String>>>;

fn ns(n: u64) -> SimDuration {
    SimDuration::from_ns(n)
}

/// Runs `f` on a helper thread and fails the test if it has not finished
/// within a minute: a lost kernel or a teardown that waits on itself
/// shows as a failure, not a hung test binary.
fn within_a_minute(f: impl FnOnce() + Send + 'static) {
    let (done_tx, done_rx) = mpsc::channel();
    std::thread::spawn(move || {
        f();
        let _ = done_tx.send(());
    });
    done_rx
        .recv_timeout(Duration::from_secs(60))
        .expect("the run or the simulator's teardown hung (or panicked)");
}

#[test]
fn a_panic_after_handoffs_is_reported_and_the_simulator_drops() {
    within_a_minute(|| {
        let (alive_tx, alive_rx) = mpsc::channel::<()>();
        let mut sim = Simulator::with_mode(ExecMode::Thread);
        let ping = sim.event("ping");
        let pong = sim.event("pong");
        let rounds = Arc::new(Mutex::new(0u32));
        let (alive, count) = (alive_tx.clone(), Arc::clone(&rounds));
        sim.spawn("pinger", move |ctx| {
            let _alive = alive;
            loop {
                ctx.wait_for(ns(1));
                ctx.notify(ping);
                ctx.wait_event(pong);
                *count.lock().unwrap() += 1;
            }
        });
        let (alive, count) = (alive_tx.clone(), Arc::clone(&rounds));
        sim.spawn("ponger", move |ctx| {
            let _alive = alive;
            loop {
                ctx.wait_event(ping);
                assert!(*count.lock().unwrap() < 5, "ponger gives up");
                ctx.notify(pong);
            }
        });
        let alive = alive_tx;
        sim.spawn("bystander", move |ctx| {
            let _alive = alive;
            loop {
                ctx.wait_for(ns(3));
            }
        });

        let err = sim.run().unwrap_err();
        match err {
            KernelError::ProcessPanicked { process, message } => {
                assert_eq!(process, "ponger");
                assert!(message.contains("ponger gives up"), "{message}");
            }
            other => panic!("unexpected error: {other:?}"),
        }
        // The panic came after handoffs in both directions.
        assert_eq!(*rounds.lock().unwrap(), 5);
        assert!(sim.stats().process_switches > 10, "{:?}", sim.stats());
        drop(sim);
        // Every process thread has ended, dropping its sender.
        assert!(alive_rx.recv().is_err());
    });
}

/// A system of thread processes (and, in Segment mode, inline segment
/// processes beside them) logging what they do.
fn system(mode: ExecMode, log: &Log) -> Simulator {
    let mut sim = Simulator::with_mode(mode);
    let tick = sim.event("tick");
    let done = sim.event("done");
    for (name, period) in [("fast", 2), ("slow", 5)] {
        let log = Arc::clone(log);
        sim.spawn(name, move |ctx| {
            for k in 0..8 {
                log.lock()
                    .unwrap()
                    .push(format!("{name}.{k}@{}", ctx.now().as_ps()));
                if k % 3 == 2 {
                    ctx.notify_delta(tick);
                }
                ctx.wait_for(ns(period));
            }
            ctx.notify(done);
        });
    }
    let l = Arc::clone(log);
    sim.spawn("listener", move |ctx| loop {
        let woke = ctx.wait_any_for(&[tick, done], ns(7));
        l.lock()
            .unwrap()
            .push(format!("listener {woke:?}@{}", ctx.now().as_ps()));
    });
    let l = Arc::clone(log);
    let mut steps = 0u32;
    sim.spawn_segment("segment", move |ctx| {
        l.lock().unwrap().push(format!(
            "segment.{steps} {:?}@{}",
            ctx.wake(),
            ctx.now().as_ps()
        ));
        steps += 1;
        if steps == 6 {
            return SegStep::Done;
        }
        SegStep::Yield(WaitRequest::event_for(tick, ns(4)))
    });
    sim
}

#[test]
fn sliced_runs_log_what_one_long_run_logs() {
    for mode in [ExecMode::Thread, ExecMode::Segment] {
        let end = SimTime::ZERO + ns(60);
        let whole: Log = Arc::default();
        let mut sim = system(mode, &whole);
        sim.run_until(end).unwrap();
        let whole_stats = sim.stats();

        // Slices of 1 ps to 3 ns: most end between two activities, with
        // every process parked, and some dispatch nothing at all.
        let sliced: Log = Arc::default();
        let mut sim = system(mode, &sliced);
        let mut at = SimTime::ZERO;
        let mut runs = 0;
        for step_ps in [1, 999, 2_000, 3_000].into_iter().cycle() {
            if at >= end {
                break;
            }
            at = (at + SimDuration::from_ps(step_ps)).min(end);
            sim.run_until(at).unwrap();
            runs += 1;
        }
        assert!(runs > 30, "{runs} runs");
        assert_eq!(*sliced.lock().unwrap(), *whole.lock().unwrap(), "[{mode}]");
        assert_eq!(sim.stats(), whole_stats, "[{mode}]");
        assert!(whole.lock().unwrap().len() >= 30, "[{mode}] a thin log");
    }
}

#[test]
fn a_kernel_panic_on_a_process_thread_resumes_on_the_callers_thread() {
    within_a_minute(|| {
        // An event of another, larger simulator: applying its
        // notification indexes past this kernel's events, in the loop
        // that the notifying process's own thread runs.
        let mut other = Simulator::with_mode(ExecMode::Thread);
        let foreign = (0..4).map(|i| other.event(&format!("e{i}"))).last();
        let foreign = foreign.expect("four events");
        let mut sim = Simulator::with_mode(ExecMode::Thread);
        sim.spawn("steady", |ctx| loop {
            ctx.wait_for(ns(1));
        });
        sim.spawn("stray", move |ctx| {
            ctx.wait_for(ns(2));
            ctx.notify(foreign);
            ctx.wait_for(ns(1));
        });
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| sim.run()));
        assert!(outcome.is_err(), "the run must panic here, got {outcome:?}");
        // The kernel came home: the simulator still answers, and drops.
        assert_eq!(sim.now(), SimTime::ZERO + ns(2));
        drop(sim);
    });
}

/// A system of three thread processes that, at any run limit, are all
/// blocked: on an event, on a timer, and on a long sleep.
fn all_blocked(log: &Log) -> Simulator {
    let mut sim = Simulator::with_mode(ExecMode::Thread);
    let go = sim.event("go");
    let l = Arc::clone(log);
    sim.spawn("waiter", move |ctx| loop {
        l.lock()
            .unwrap()
            .push(format!("waiter@{}", ctx.now().as_ps()));
        ctx.wait_event(go);
    });
    let l = Arc::clone(log);
    sim.spawn("ticker", move |ctx| loop {
        l.lock()
            .unwrap()
            .push(format!("ticker@{}", ctx.now().as_ps()));
        ctx.wait_for(ns(3));
        ctx.notify(go);
    });
    let l = Arc::clone(log);
    sim.spawn("sleeper", move |ctx| {
        l.lock()
            .unwrap()
            .push(format!("sleeper@{}", ctx.now().as_ps()));
        ctx.wait_for(ns(1_000));
        l.lock().unwrap().push("sleeper woke".into());
    });
    sim
}

/// The ping-pong of the first test, logging each pong and each bystander
/// wake: `ponger` panics once there are five lines.
fn ping_pong(log: &Log) -> Simulator {
    let mut sim = Simulator::with_mode(ExecMode::Thread);
    let ping = sim.event("ping");
    let pong = sim.event("pong");
    let l = Arc::clone(log);
    sim.spawn("pinger", move |ctx| loop {
        ctx.wait_for(ns(1));
        ctx.notify(ping);
        ctx.wait_event(pong);
        l.lock()
            .unwrap()
            .push(format!("pong@{}", ctx.now().as_ps()));
    });
    let l = Arc::clone(log);
    sim.spawn("ponger", move |ctx| loop {
        ctx.wait_event(ping);
        assert!(l.lock().unwrap().len() < 5, "ponger gives up");
        ctx.notify(pong);
    });
    let l = Arc::clone(log);
    sim.spawn("bystander", move |ctx| loop {
        ctx.wait_for(ns(3));
        l.lock()
            .unwrap()
            .push(format!("bystander@{}", ctx.now().as_ps()));
    });
    sim
}

/// Builds and runs system `k` of [`all_blocked`] (dropped mid-run),
/// [`ping_pong`] and [`system`], drops it, and returns its log with the
/// run's outcome and statistics. Every body holds a
/// clone of the log, so the log's own count shows whether dropping the
/// simulator dropped every body's captures.
fn turn(k: usize) -> Vec<String> {
    let log: Log = Arc::default();
    let (sim, outcome) = match k {
        0 => {
            let mut sim = all_blocked(&log);
            let outcome = sim.run_until(SimTime::ZERO + ns(10));
            (sim, outcome)
        }
        1 => {
            let mut sim = ping_pong(&log);
            let outcome = sim.run();
            (sim, outcome)
        }
        _ => {
            let mut sim = system(ExecMode::Thread, &log);
            let outcome = sim.run_until(SimTime::ZERO + ns(60));
            (sim, outcome)
        }
    };
    let stats = sim.stats();
    let alive = sim.alive_processes();
    drop(sim);
    assert_eq!(
        Arc::strong_count(&log),
        1,
        "[system {k}] the simulator dropped before its bodies' captures"
    );
    let mut log = Arc::into_inner(log).unwrap().into_inner().unwrap();
    log.push(format!("{outcome:?} {stats:?} alive {alive}"));
    log
}

#[test]
fn process_threads_reused_across_systems_change_nothing() {
    let fresh = Arc::new(Mutex::new(Vec::new()));
    for k in 0..3 {
        let fresh = Arc::clone(&fresh);
        within_a_minute(move || fresh.lock().unwrap().push(turn(k)));
    }
    let in_turn = Arc::new(Mutex::new(Vec::new()));
    let logs = Arc::clone(&in_turn);
    // One thread: each system after the first runs on the process
    // threads the one before left parked.
    within_a_minute(move || logs.lock().unwrap().extend((0..3).map(turn)));
    let (fresh, in_turn) = (fresh.lock().unwrap(), in_turn.lock().unwrap());
    assert_eq!(*in_turn, *fresh);
    // The three systems did what they are for.
    assert!(
        fresh[0].last().unwrap().ends_with("alive 3"),
        "{:?}",
        fresh[0]
    );
    assert!(
        fresh[1].last().unwrap().contains("ponger gives up"),
        "{:?}",
        fresh[1]
    );
    assert!(fresh[2].len() >= 30, "{:?}", fresh[2]);
}

#[test]
fn a_kernel_panic_at_a_bodys_last_yield_still_lets_the_simulator_drop() {
    within_a_minute(|| {
        let mut other = Simulator::with_mode(ExecMode::Thread);
        let foreign = (0..4).map(|i| other.event(&format!("e{i}"))).last();
        let foreign = foreign.expect("four events");
        for _ in 0..2 {
            // The body ends right after its notification, so the kernel
            // code panics in its final yield, which never takes effect.
            let mut sim = Simulator::with_mode(ExecMode::Thread);
            sim.spawn("steady", |ctx| loop {
                ctx.wait_for(ns(1));
            });
            sim.spawn("stray", move |ctx| {
                ctx.wait_for(ns(2));
                ctx.notify(foreign);
            });
            let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| sim.run()));
            assert!(outcome.is_err(), "the run must panic here, got {outcome:?}");
            assert_eq!(sim.alive_processes(), 2);
            drop(sim);
        }
    });
}
