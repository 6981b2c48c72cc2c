//! Segment processes: substrate-level equivalence with thread-backed
//! processes in both hosts, plus the stale-wake regression audit.

use rtsim_kernel::{
    ExecMode, SegStep, SegmentCtx, SimDuration, SimTime, Simulator, WaitRequest, Wake,
};

fn us(n: u64) -> SimDuration {
    SimDuration::from_us(n)
}

/// The kernel quick-start model (timer + handler) written once as
/// blocking closures and once as segment state machines, the machines
/// run both inline and hosted on threads; every observable (final time,
/// statistics, liveness) must agree.
#[test]
fn segment_and_thread_substrates_agree() {
    fn run_thread() -> (SimTime, rtsim_kernel::KernelStats) {
        let mut sim = Simulator::with_mode(ExecMode::Thread);
        let irq = sim.event("irq");
        sim.spawn("timer", move |ctx| {
            for _ in 0..4 {
                ctx.wait_for(us(10));
                ctx.notify(irq);
            }
        });
        sim.spawn("handler", move |ctx| {
            for _ in 0..4 {
                ctx.wait_event(irq);
            }
        });
        sim.run().unwrap();
        (sim.now(), sim.stats())
    }

    fn run_segment(mode: ExecMode) -> (SimTime, rtsim_kernel::KernelStats) {
        let mut sim = Simulator::with_mode(mode);
        let irq = sim.event("irq");
        let mut fired = 0u32;
        sim.spawn_segment("timer", move |ctx| {
            // First dispatch arrives before any wait; afterwards each
            // dispatch means one sleep elapsed.
            if fired > 0 {
                ctx.notify(irq);
            }
            if fired == 4 {
                return SegStep::Done;
            }
            fired += 1;
            SegStep::Yield(WaitRequest::time(us(10)))
        });
        let mut seen = 0u32;
        sim.spawn_segment("handler", move |_ctx| {
            seen += 1;
            if seen > 4 {
                return SegStep::Done;
            }
            SegStep::Yield(WaitRequest::event(irq))
        });
        sim.run().unwrap();
        (sim.now(), sim.stats())
    }

    let (t_now, t_stats) = run_thread();
    assert_eq!(t_now.as_us(), 40);
    for mode in [ExecMode::Segment, ExecMode::Thread] {
        let (s_now, s_stats) = run_segment(mode);
        assert_eq!(t_now, s_now, "{mode}");
        assert_eq!(
            t_stats, s_stats,
            "{mode}: kernel statistics must be bit-identical"
        );
    }
}

/// A segment that panics is isolated exactly like a panicking thread
/// body, inline or hosted on a thread, and the panic payload description
/// includes a type hint for non-string payloads.
#[test]
fn segment_panic_is_isolated_with_typed_payload() {
    for mode in [ExecMode::Segment, ExecMode::Thread] {
        let mut sim = Simulator::with_mode(mode);
        sim.spawn_segment("bomb", |_ctx| -> SegStep {
            std::panic::panic_any(7u32);
        });
        let err = sim.run().unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("bomb"), "{mode}: {msg}");
        assert!(msg.contains("7 (u32)"), "{mode}: {msg}");
    }
}

/// Satellite audit: a timer armed for an earlier wait must not fire into
/// a *later* wait of the same process.
///
/// `victim` waits on `ev` with a 100 µs timeout, is woken by the event at
/// t = 10 µs, and immediately re-blocks on `ev2` with a 500 µs timeout.
/// The stale timer entry from the first wait still sits in the wheel for
/// t = 100 µs; if the `wait_seq` generation check ever regressed, it
/// would wake the second wait 410 µs early.
#[test]
fn stale_timer_does_not_wake_a_rearmed_wait() {
    let mut sim = Simulator::new();
    let ev = sim.event("ev");
    let ev2 = sim.event("ev2");
    sim.spawn("victim", move |ctx| {
        let first = ctx.wait_event_for(ev, us(100));
        assert_eq!(first, Wake::Event(ev), "event should win the race");
        assert_eq!(ctx.now().as_us(), 10);
        let second = ctx.wait_event_for(ev2, us(500));
        assert!(
            second.is_timeout(),
            "ev2 is never notified; only the fresh timeout may wake us"
        );
        assert_eq!(
            ctx.now().as_us(),
            510,
            "the stale t=100us timer from the first wait fired into the second"
        );
    });
    sim.spawn("waker", move |ctx| {
        ctx.wait_for(us(10));
        ctx.notify(ev);
    });
    sim.run().unwrap();
    assert_eq!(sim.now().as_us(), 510);
}

/// The same audit for a wait re-armed on the *same* event with the same
/// timeout length — the generation counter, not the (event, deadline)
/// pair, must be what distinguishes the two waits.
#[test]
fn stale_timer_same_event_rearm() {
    let mut sim = Simulator::new();
    let ev = sim.event("ev");
    sim.spawn("victim", move |ctx| {
        let first = ctx.wait_event_for(ev, us(100));
        assert_eq!(first, Wake::Event(ev));
        assert_eq!(ctx.now().as_us(), 60);
        // Re-block on the identical event and timeout. The stale timer
        // (armed for t=100) must be discarded; the fresh one ends at 160.
        let second = ctx.wait_event_for(ev, us(100));
        assert!(second.is_timeout());
        assert_eq!(ctx.now().as_us(), 160);
    });
    sim.spawn("waker", move |ctx| {
        ctx.wait_for(us(60));
        ctx.notify(ev);
    });
    sim.run().unwrap();
    assert_eq!(sim.now().as_us(), 160);
}

/// And in segment mode: the identical stale-wake schedule, driven through
/// the inline dispatcher.
#[test]
fn stale_timer_discarded_in_segment_mode() {
    let mut sim = Simulator::with_mode(ExecMode::Segment);
    let ev = sim.event("ev");
    let ev2 = sim.event("ev2");
    let mut step = 0u32;
    sim.spawn_segment("victim", move |ctx| {
        step += 1;
        match step {
            1 => SegStep::Yield(WaitRequest::event_for(ev, us(100))),
            2 => {
                assert_eq!(ctx.wake(), Wake::Event(ev));
                assert_eq!(ctx.now().as_us(), 10);
                SegStep::Yield(WaitRequest::event_for(ev2, us(500)))
            }
            _ => {
                assert_eq!(ctx.wake(), Wake::Timeout);
                assert_eq!(ctx.now().as_us(), 510);
                SegStep::Done
            }
        }
    });
    let mut armed = false;
    sim.spawn_segment("waker", move |ctx| {
        if armed {
            ctx.notify(ev);
            return SegStep::Done;
        }
        armed = true;
        SegStep::Yield(WaitRequest::time(us(10)))
    });
    sim.run().unwrap();
    assert_eq!(sim.now().as_us(), 510);
}

/// Forks share the names events and processes were given before the
/// fork. One that creates an event or spawns a process afterwards gets
/// names of its own: the other side's counts and names stay as they were,
/// whichever side adds, and each reads its own name under the same id.
#[test]
fn names_added_after_a_fork_stay_on_their_side() {
    fn done(_: &mut SegmentCtx<'_>) -> SegStep {
        SegStep::Done
    }
    let counts = |sim: &Simulator| (sim.event_count(), sim.process_count());
    let mut parent = Simulator::with_mode(ExecMode::Segment);
    let tick = parent.event("tick");
    let worker = parent.spawn_segment("worker", done);

    // The fork adds.
    let mut fork = parent.fork().expect("a segment simulator forks");
    let fork_event = fork.event("fork_event");
    let fork_proc = fork.spawn_segment("fork_proc", done);
    assert_eq!((counts(&parent), counts(&fork)), ((1, 1), (2, 2)));

    // The parent adds, under the same ids the fork used.
    let child = parent.fork().expect("a segment simulator forks");
    let parent_event = parent.event("parent_event");
    let parent_proc = parent.spawn_segment("parent_proc", done);
    assert_eq!((parent_event, parent_proc), (fork_event, fork_proc));
    assert_eq!((counts(&parent), counts(&child)), ((2, 2), (1, 1)));

    for (sim, event, proc) in [
        (&parent, "parent_event", "parent_proc"),
        (&fork, "fork_event", "fork_proc"),
    ] {
        assert_eq!(sim.event_name(tick), "tick");
        assert_eq!(sim.process_name(worker), "worker");
        assert_eq!(sim.event_name(fork_event), event);
        assert_eq!(sim.process_name(fork_proc), proc);
    }
    assert_eq!(
        (child.event_name(tick), child.process_name(worker)),
        ("tick", "worker")
    );
}

/// A fork written over a simulator with thread-backed processes, one of
/// them still blocked, replaces that simulator's kernel (joining its
/// threads) instead of writing over it, and the copy runs on exactly as
/// a fresh fork does.
#[test]
fn a_fork_into_a_simulator_with_threads_replaces_them() {
    let mut source = Simulator::with_mode(ExecMode::Segment);
    let tick = source.event("tick");
    let mut left = 3;
    source.spawn_segment("ticker", move |ctx| {
        if left == 0 {
            return SegStep::Done;
        }
        left -= 1;
        ctx.notify(tick);
        SegStep::Yield(WaitRequest::time(us(10)))
    });
    source.spawn_segment("listener", move |_ctx| {
        SegStep::Yield(WaitRequest::event(tick))
    });
    source.run_until(SimTime::ZERO + us(15)).unwrap();

    let mut into = Simulator::with_mode(ExecMode::Thread);
    let never = into.event("never");
    into.spawn("finished", |_ctx| {});
    into.spawn("blocked", move |ctx| ctx.wait_event(never));
    into.run().unwrap();
    assert_eq!(into.alive_processes(), 1);

    let mut fresh = source.fork().expect("segment processes copy");
    assert!(source.fork_into(&mut into));
    for sim in [&mut fresh, &mut into] {
        sim.run().unwrap();
    }
    let observe = |sim: &Simulator| {
        (
            sim.now(),
            sim.stats(),
            sim.alive_processes(),
            sim.exec_mode(),
            sim.event_name(tick).to_owned(),
        )
    };
    assert_eq!(observe(&into), observe(&fresh));
    assert_eq!(observe(&fresh).0, SimTime::ZERO + us(30));
}
