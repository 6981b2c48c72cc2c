//! Probes shared by the workloads: the deterministic counters read from
//! a finished system, and the split of one simulation into its layer
//! calls in both exec modes.

use std::collections::BTreeMap;
use std::hint::black_box;

use rtsim::farm::{fingerprint, Fingerprint};
use rtsim::kernel::testutil::Rng;
use rtsim::trace::{canonical, ActorKind, Measure, TraceData};
use rtsim::{ElaboratedSystem, ExecMode, SimTime, SystemModel};

use crate::spans::Tracer;
use crate::Checks;

/// Exact work counters, by metric name. Every one must repeat exactly
/// across the passes of a run and across runs with the same seed.
pub type Counts = BTreeMap<&'static str, u64>;

/// Adds `value` to counter `name`.
pub fn bump(counts: &mut Counts, name: &'static str, value: u64) {
    *counts.entry(name).or_insert(0) += value;
}

/// Adds a finished system's kernel and scheduler counters and its trace
/// length to `counts`. Reads only cheap public counters (no snapshot).
pub fn add_system_counts(counts: &mut Counts, system: &ElaboratedSystem) {
    let k = system.kernel_stats();
    bump(counts, "kernel.process_switches", k.process_switches);
    bump(counts, "kernel.delta_cycles", k.delta_cycles);
    bump(counts, "kernel.time_advances", k.time_advances);
    bump(counts, "kernel.event_wakes", k.event_wakes);
    for name in system.processor_names() {
        let p = system.processor_stats(name).expect("declared processor");
        bump(counts, "core.dispatches", p.dispatches);
        bump(counts, "core.preemptions", p.preemptions);
        bump(counts, "core.scheduler_runs", p.scheduler_runs);
        bump(counts, "core.deadline_misses", p.deadline_misses);
    }
    bump(counts, "trace.records", system.recorder().len() as u64);
}

/// A seeded Fisher-Yates shuffle of `items`.
pub fn shuffled<T: Clone>(items: &[T], rng: &mut Rng) -> Vec<T> {
    let mut out = items.to_vec();
    for i in (1..out.len()).rev() {
        out.swap(i, rng.gen_range(0..=i));
    }
    out
}

/// Checks that both exec modes reduced `what` to the same fingerprint.
pub(crate) fn check_modes(what: &str, d: &Dissected, checks: &mut Checks) {
    checks.check(d.segment == d.thread, || {
        format!("{what}: the Thread-mode fingerprint differs from Segment mode")
    });
}

/// Fingerprints of one model run in both exec modes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Dissected {
    /// Fingerprint of the Segment-mode run.
    pub segment: Fingerprint,
    /// Fingerprint of the Thread-mode run.
    pub thread: Fingerprint,
}

/// Runs the model `build` makes once per exec mode and takes the
/// Segment-mode run apart: `sim.run_until` and `sim.run_until_thread`
/// time the two runs, and `trace.snapshot`, `trace.canonical`,
/// `trace.measure` and `farm.fingerprint` time the pieces of the
/// fingerprint. Adds the Segment-mode run's counters, its comm
/// operations and its canonical trace length to `counts`.
pub fn dissect(
    build: &dyn Fn(ExecMode) -> SystemModel,
    horizon: SimTime,
    tracer: &Tracer,
    parent: u64,
    counts: &mut Counts,
) -> Dissected {
    let mut seg = build(ExecMode::Segment)
        .elaborate()
        .expect("model elaborates");
    tracer
        .span("sim.run_until", parent, |_| seg.run_until(horizon))
        .expect("segment run");
    let mut thr = build(ExecMode::Thread)
        .elaborate()
        .expect("model elaborates");
    tracer
        .span("sim.run_until_thread", parent, |_| thr.run_until(horizon))
        .expect("thread run");

    let trace = tracer.span("trace.snapshot", parent, |_| seg.trace());
    let text = tracer.span("trace.canonical", parent, |_| canonical(&trace));
    tracer.span("trace.measure", parent, |_| {
        let measure = Measure::new(&trace);
        for actor in trace.actors_of_kind(ActorKind::Task) {
            black_box(measure.response_times(actor));
        }
    });
    let segment = tracer.span("farm.fingerprint", parent, |_| fingerprint(&seg));
    let thread = fingerprint(&thr);

    let comm = trace
        .records()
        .iter()
        .filter(|r| matches!(r.data, TraceData::Comm { .. }))
        .count();
    bump(counts, "comm.ops", comm as u64);
    bump(counts, "trace.canonical_bytes", text.len() as u64);
    add_system_counts(counts, &seg);
    Dissected { segment, thread }
}
