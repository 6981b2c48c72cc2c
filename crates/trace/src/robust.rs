//! Robustness metrics under fault injection.
//!
//! A run with a fault plan installed (see the `rtsim-fault` crate)
//! records [`TraceData::Fault`] events alongside the nominal trace;
//! [`RobustnessSummary`] reduces them — together with the response
//! times the trace already carries — to the handful of integers a
//! design is judged by when sensors drop out and load bursts past the
//! schedulability bound: how many deliveries were lost, how late the
//! worst response got, how much the arrivals jittered, and how long
//! degraded tasks took to recover.
//!
//! All fields are integer picoseconds or counts, so summaries compare
//! bit-exactly across exec modes and worker counts — the farm pins the
//! fault cells on exactly that.

use rtsim_kernel::SimTime;

use crate::measure::Measure;
use crate::record::{ActorKind, FaultKind, TraceData};
use crate::recorder::Trace;

/// The fault-response metrics of one finished run.
///
/// Deadline misses are counted by the RTOS schedulers, not the trace,
/// so the caller passes the summed miss count in (the farm already
/// collects it for its fingerprints).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RobustnessSummary {
    /// Total fault records of every kind.
    pub faults: u64,
    /// Queue messages silently lost.
    pub dropped_messages: u64,
    /// Event notifications silently lost.
    pub dropped_signals: u64,
    /// Releases delayed by injected arrival jitter.
    pub jitter_events: u64,
    /// Largest injected release offset, in picoseconds.
    pub worst_jitter_ps: u64,
    /// Execution segments scaled up by an overload burst.
    pub bursts: u64,
    /// Extra execution cost injected by bursts, in picoseconds.
    pub burst_extra_ps: u64,
    /// Degraded-mode entries across all tasks.
    pub degraded_entries: u64,
    /// Degraded-mode recoveries across all tasks.
    pub recoveries: u64,
    /// Longest fault-onset-to-recovery span of any task, in
    /// picoseconds (zero when no task recovered).
    pub worst_recovery_ps: u64,
    /// Deadline misses summed over all software processors (supplied by
    /// the caller; schedulers count misses, traces do not record them).
    pub missed_deadlines: u64,
    /// Worst task response time observed anywhere in the run, in
    /// picoseconds — under a fault plan this is the worst-case latency
    /// under fault.
    pub worst_response_ps: u64,
}

impl RobustnessSummary {
    /// Reduces `trace` to its robustness metrics. `missed_deadlines` is
    /// the schedulers' summed miss count for the same run.
    pub fn from_trace(trace: &Trace, missed_deadlines: u64) -> RobustnessSummary {
        let mut summary = RobustnessSummary {
            missed_deadlines,
            ..RobustnessSummary::default()
        };
        // Per-actor degraded-entry instant, for recovery spans.
        let mut degraded_since: Vec<(u32, SimTime)> = Vec::new();
        for r in trace.records() {
            let TraceData::Fault { kind, magnitude_ps } = &r.data else {
                continue;
            };
            summary.faults += 1;
            match kind {
                FaultKind::DropMessage => summary.dropped_messages += 1,
                FaultKind::DropSignal => summary.dropped_signals += 1,
                FaultKind::Jitter => {
                    summary.jitter_events += 1;
                    summary.worst_jitter_ps = summary.worst_jitter_ps.max(*magnitude_ps);
                }
                FaultKind::Burst => {
                    summary.bursts += 1;
                    summary.burst_extra_ps += magnitude_ps;
                }
                FaultKind::Degraded => {
                    summary.degraded_entries += 1;
                    let idx = r.actor.index() as u32;
                    if !degraded_since.iter().any(|(a, _)| *a == idx) {
                        degraded_since.push((idx, r.at));
                    }
                }
                FaultKind::Recovered => {
                    summary.recoveries += 1;
                    let idx = r.actor.index() as u32;
                    if let Some(pos) = degraded_since.iter().position(|(a, _)| *a == idx) {
                        let (_, since) = degraded_since.swap_remove(pos);
                        let span = (r.at - since).as_ps();
                        summary.worst_recovery_ps = summary.worst_recovery_ps.max(span);
                    }
                }
            }
        }
        let measure = Measure::new(trace);
        for actor in trace.actors_of_kind(ActorKind::Task) {
            for response in measure.response_times(actor) {
                summary.worst_response_ps = summary.worst_response_ps.max(response.as_ps());
            }
        }
        summary
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::TaskState;
    use crate::recorder::TraceRecorder;

    #[test]
    fn empty_trace_is_all_zero() {
        let rec = TraceRecorder::new();
        let summary = RobustnessSummary::from_trace(&rec.snapshot(), 0);
        assert_eq!(summary, RobustnessSummary::default());
    }

    #[test]
    fn counts_each_fault_family_and_recovery_span() {
        let rec = TraceRecorder::new();
        let t = rec.register("T", ActorKind::Task);
        let q = rec.register("Q", ActorKind::Relation);
        rec.fault(q, SimTime::from_ps(10), FaultKind::DropMessage, 0);
        rec.fault(q, SimTime::from_ps(20), FaultKind::DropSignal, 0);
        rec.fault(t, SimTime::from_ps(30), FaultKind::Jitter, 500);
        rec.fault(t, SimTime::from_ps(40), FaultKind::Burst, 2_000);
        rec.fault(t, SimTime::from_ps(50), FaultKind::Degraded, 0);
        rec.fault(t, SimTime::from_ps(80), FaultKind::Recovered, 0);
        let summary = RobustnessSummary::from_trace(&rec.snapshot(), 3);
        assert_eq!(summary.faults, 6);
        assert_eq!(summary.dropped_messages, 1);
        assert_eq!(summary.dropped_signals, 1);
        assert_eq!(summary.jitter_events, 1);
        assert_eq!(summary.worst_jitter_ps, 500);
        assert_eq!(summary.bursts, 1);
        assert_eq!(summary.burst_extra_ps, 2_000);
        assert_eq!(summary.degraded_entries, 1);
        assert_eq!(summary.recoveries, 1);
        assert_eq!(summary.worst_recovery_ps, 30);
        assert_eq!(summary.missed_deadlines, 3);
    }

    #[test]
    fn worst_response_covers_task_jobs() {
        let rec = TraceRecorder::new();
        let t = rec.register("T", ActorKind::Task);
        rec.state(t, SimTime::from_ps(0), TaskState::Ready);
        rec.state(t, SimTime::from_ps(5), TaskState::Running);
        rec.state(t, SimTime::from_ps(25), TaskState::Terminated);
        let summary = RobustnessSummary::from_trace(&rec.snapshot(), 0);
        assert_eq!(summary.worst_response_ps, 25);
    }
}
