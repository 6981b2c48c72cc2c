//! Hardware interrupt sources.
//!
//! The paper's model "accurately depicts task preemption by a hardware
//! event without adding any delay due to simulation technique": an
//! interrupt raised at an arbitrary instant wakes its handler task at
//! exactly that instant, preempting whatever was running (modulo the RTOS
//! overheads). This module provides stimulus helpers for building such
//! hardware events in testbenches and experiments.

use rtsim_kernel::{SegStep, SimDuration, Simulator, WaitRequest};

use crate::agent::Waiter;

/// Spawns a periodic interrupt source: after `phase`, wakes `target`
/// every `period`, `count` times.
///
/// The target is typically an interrupt-handler task
/// ([`Waiter::Task`]) that loops `suspend()` → handle → repeat.
///
/// # Panics
///
/// Panics if `period` is zero and `count > 1` (the source would livelock).
///
/// # Examples
///
/// ```
/// use rtsim_core::{spawn_periodic_interrupt, Processor, ProcessorConfig, TaskConfig};
/// use rtsim_core::agent::{Agent, Waiter};
/// use rtsim_kernel::{SimDuration, Simulator};
/// use rtsim_trace::TraceRecorder;
///
/// # fn main() -> Result<(), rtsim_kernel::KernelError> {
/// let mut sim = Simulator::new();
/// let rec = TraceRecorder::new();
/// let cpu = Processor::new(&mut sim, &rec, ProcessorConfig::new("CPU"));
/// let handler = cpu.spawn_task(&mut sim, TaskConfig::new("isr").priority(9), |task| {
///     for _ in 0..4 {
///         task.suspend(false);
///         task.execute(SimDuration::from_us(2));
///     }
/// });
/// spawn_periodic_interrupt(
///     &mut sim,
///     "timer_irq",
///     SimDuration::from_us(10),
///     SimDuration::from_us(10),
///     4,
///     Waiter::Task(handler),
/// );
/// sim.run()?;
/// # Ok(())
/// # }
/// ```
pub fn spawn_periodic_interrupt(
    sim: &mut Simulator,
    name: &str,
    phase: SimDuration,
    period: SimDuration,
    count: u64,
    target: Waiter,
) {
    assert!(
        count <= 1 || !period.is_zero(),
        "zero-period interrupt source would livelock"
    );
    let mut fired = 0u64;
    sim.spawn_segment(name, move |ctx| {
        if fired == 0 {
            if count == 0 {
                return SegStep::Done;
            }
            fired = 1;
            return SegStep::Yield(WaitRequest::time(phase));
        }
        target.wake(ctx);
        if fired >= count {
            return SegStep::Done;
        }
        fired += 1;
        SegStep::Yield(WaitRequest::time(period))
    });
}

/// Spawns a one-shot interrupt at an absolute delay from time zero.
pub fn spawn_interrupt_at(sim: &mut Simulator, name: &str, at: SimDuration, target: Waiter) {
    spawn_periodic_interrupt(sim, name, at, SimDuration::ZERO, 1, target);
}

/// Spawns an interrupt source firing at an arbitrary schedule of
/// inter-arrival gaps — the tool for jittered, bursty or trace-driven
/// stimulus (generate the gaps with any RNG in the testbench; the source
/// itself stays deterministic).
///
/// Each element of `gaps` is the delay from the previous firing (the
/// first is measured from time zero). Zero gaps are allowed: the target
/// is woken once per firing instant (wakes of an already-ready task
/// coalesce, like real interrupt lines).
pub fn spawn_interrupt_schedule(
    sim: &mut Simulator,
    name: &str,
    gaps: Vec<SimDuration>,
    target: Waiter,
) {
    let mut idx = 0usize;
    let mut waited = false;
    sim.spawn_segment(name, move |ctx| {
        if waited {
            target.wake(ctx);
            idx += 1;
        }
        if idx >= gaps.len() {
            return SegStep::Done;
        }
        waited = true;
        SegStep::Yield(WaitRequest::time(gaps[idx]))
    });
}
