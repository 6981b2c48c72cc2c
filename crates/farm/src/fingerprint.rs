//! Reducing a finished simulation to a stable 64-bit fingerprint.
//!
//! The hash input is the canonical trace text ([`rtsim_trace::canonical`])
//! followed by integer summary lines: per-task response-time min/mean/max
//! (picoseconds), per-processor scheduler counters, and the makespan.
//! Everything hashed is an integer rendered in decimal, so the
//! fingerprint is immune to float-formatting differences and identical
//! across platforms; any behavioural change — one event reordered, one
//! preemption moved by a picosecond — changes it.
//!
//! The reduction is one pass over the recorder's own records
//! ([`TraceRecorder::with_records`](rtsim_trace::TraceRecorder::with_records)):
//! each canonical line is written into one reused line buffer and hashed
//! at once, and the same loop folds the response summaries, the horizon
//! and the fault count. No trace copy and no whole-trace text is built.
//! Hashing line by line, rather than in larger chunks, lets the CPU write
//! the next line while the latency-bound FNV-1a chain of the previous one
//! is still running; FNV-1a is byte-serial, so where the text is cut never
//! changes the hash.

use std::io::Write as _;

use rtsim_mcse::ElaboratedSystem;
use rtsim_trace::{canonical_actor_into, canonical_record_into, ActorKind, JobFold, TraceData};

// The hasher itself moved down into `rtsim_campaign::hash` so the
// grid's cache keys and the farm's fingerprints share one primitive;
// re-exported here because `rtsim_farm::Fnv1a` is the historical path.
pub use rtsim_campaign::Fnv1a;

/// The reduction of one finished run: a behaviour hash plus the integer
/// summary metrics pinned alongside it in the goldens (so a drift report
/// can say *what kind* of change happened, not just that one did).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fingerprint {
    /// FNV-1a over the canonical trace and the summary lines below.
    pub hash: u64,
    /// Number of trace records.
    pub events: u64,
    /// Time of the last trace record in picoseconds (the instant all
    /// activity ceased).
    pub makespan_ps: u64,
    /// Task dispatches summed over all software processors.
    pub dispatches: u64,
    /// Preemptions summed over all software processors.
    pub preemptions: u64,
    /// Deadline misses summed over all software processors.
    pub deadline_misses: u64,
    /// Fault-injection records in the trace (drops, jitter, bursts, mode
    /// changes). Zero for every cell without a fault plan, so the
    /// pre-fault golden lines stay byte-identical (the field is omitted
    /// from golden lines when zero).
    pub faults: u64,
}

impl Fingerprint {
    /// The hash as the 16-digit hex string used in golden files.
    pub fn hash_hex(&self) -> String {
        format!("{:016x}", self.hash)
    }
}

/// Fingerprints a finished system: canonical trace + per-task response
/// summaries + per-processor scheduler counters + makespan.
///
/// The system must already have been run; the fingerprint covers exactly
/// what has been recorded so far.
pub fn fingerprint(system: &ElaboratedSystem) -> Fingerprint {
    let mut line = Vec::with_capacity(256);
    let mut hasher = Fnv1a::new();
    let mut hash_line = |line: &mut Vec<u8>| {
        line.push(b'\n');
        hasher.write(line);
        line.clear();
    };

    // One pass: the canonical text, plus per-task response folds (`None`
    // for non-task actors), the horizon and the fault count.
    let (events, horizon, faults, tasks) = system.recorder().with_records(|actors, records| {
        let mut tasks: Vec<Option<JobFold>> = Vec::with_capacity(actors.len());
        for (index, info) in actors.iter().enumerate() {
            canonical_actor_into(&mut line, index, info);
            hash_line(&mut line);
            tasks.push((info.kind == ActorKind::Task).then(JobFold::default));
        }
        let (mut horizon, mut faults) = (0, 0);
        for r in records {
            canonical_record_into(&mut line, r);
            hash_line(&mut line);
            horizon = horizon.max(r.at.as_ps());
            match r.data {
                TraceData::State(state) => {
                    if let Some(Some(fold)) = tasks.get_mut(r.actor.index()) {
                        fold.observe(r.at, state);
                    }
                }
                // Fault records are already hashed through the canonical
                // `F` lines; the count is carried alongside so a fault-cell
                // drift report can say "the injection pattern moved", not
                // just "the hash moved".
                TraceData::Fault { .. } => faults += 1,
                _ => {}
            }
        }
        (records.len() as u64, horizon, faults, tasks)
    });

    // The trailer collects in the (now empty) line buffer and is hashed
    // last. Per-task response-time summaries, in actor-index order. All values
    // are integer picoseconds; the mean uses integer division so no float
    // ever enters the hash input.
    for (index, fold) in tasks.iter().enumerate() {
        if let Some(fold) = fold {
            let _ = writeln!(
                line,
                "task {index} jobs {} response {} {} {}",
                fold.jobs(),
                fold.min_ps(),
                fold.mean_ps(),
                fold.max_ps(),
            );
        }
    }

    // Per-processor scheduler counters. processor_names() iterates the
    // declaration order of the model, which is itself deterministic.
    let mut dispatches = 0;
    let mut preemptions = 0;
    let mut deadline_misses = 0;
    for name in system.processor_names() {
        let stats = system.processor_stats(name).expect("declared processor");
        let _ = writeln!(
            line,
            "proc {name} {} {} {} {} {}",
            stats.dispatches,
            stats.preemptions,
            stats.scheduler_runs,
            stats.quantum_expirations,
            stats.deadline_misses,
        );
        dispatches += stats.dispatches;
        preemptions += stats.preemptions;
        deadline_misses += stats.deadline_misses;
    }

    // The time of the last recorded event, not `system.now()`: the farm
    // drives runs through `run_until(horizon)`, which leaves the clock at
    // the hang-guard horizon rather than at the instant activity ceased.
    let _ = writeln!(line, "makespan {horizon}");

    hasher.write(&line);
    Fingerprint {
        hash: hasher.finish(),
        events,
        makespan_ps: horizon,
        dispatches,
        preemptions,
        deadline_misses,
        faults,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenarios::figure6_system;
    use rtsim_core::EngineKind;

    fn run_figure6() -> Fingerprint {
        let mut system = figure6_system(EngineKind::ProcedureCall)
            .elaborate()
            .unwrap();
        system.run().unwrap();
        fingerprint(&system)
    }

    #[test]
    fn fingerprint_is_reproducible() {
        let a = run_figure6();
        let b = run_figure6();
        assert_eq!(a, b);
    }

    #[test]
    fn fingerprint_reflects_known_figure6_facts() {
        let f = run_figure6();
        assert_eq!(f.makespan_ps, 775_000_000); // last record; run ends 780 us
        assert_eq!(f.events, 73);
        assert_eq!(f.dispatches, 9);
        assert_eq!(f.preemptions, 2);
        assert_eq!(f.deadline_misses, 0);
        assert_eq!(f.faults, 0); // no fault plan: no fault records
    }

    #[test]
    fn different_engines_differ() {
        let b = run_figure6();
        let mut system = figure6_system(EngineKind::DedicatedThread)
            .elaborate()
            .unwrap();
        system.run().unwrap();
        let a = fingerprint(&system);
        assert_ne!(a.hash, b.hash);
    }

    #[test]
    fn hash_hex_is_16_digits() {
        assert_eq!(run_figure6().hash_hex().len(), 16);
    }
}
