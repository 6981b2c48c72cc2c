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
