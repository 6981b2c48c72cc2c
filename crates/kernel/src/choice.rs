//! Scheduler tie-breaks (choice points) and how a run stops at them.
//!
//! The kernel is deterministic by construction: runnable processes
//! resume in FIFO wake order, simultaneous delta notifications fire in
//! posting order, and same-instant timers fire in posting order. Those
//! fixed tie-breaks pick *one* legal schedule out of many — real
//! hardware and real RTOSes are free to serialize simultaneous work in
//! any order.
//!
//! A search takes the choice points one at a time:
//! `Simulator::run_to_choice` runs until the next set of two or more
//! simultaneously eligible actions and returns it as a [`ChoicePoint`].
//! The kernel keeps the phase it stopped in and that phase's working set
//! (the runnable queue, the delta cycle's pending notifications, or the
//! instant's ripe timers), so nothing has happened yet:
//! `Simulator::candidate` names each eligible action as a
//! [`CandidateDetail`], `Simulator::decide` picks one, and the next
//! `run_to_choice` performs it and runs on to the following choice
//! point. One run loop serves both ways of resolving a tie — the
//! decision of a stopped point, or the stable order (candidate 0), which
//! a run that does not stop takes with no candidate built.
//!
//! The `rtsim-check` crate's depth-first explorer drives this to
//! enumerate *every* legal ordering and check invariants over all of
//! them. A simulator stopped at a choice point is at rest, so it can be
//! copied (`Simulator::fork`): the explorer keeps one copy per open
//! choice point and resumes each sibling schedule from it instead of
//! replaying the prefix that led there.

use std::fmt;

use crate::event::{Event, Wake};
use crate::process::ProcessId;
use crate::time::SimTime;

/// Which scheduler phase a choice point occurs in.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ChoiceKind {
    /// Evaluation phase: which runnable process to dispatch next.
    Dispatch,
    /// Delta phase: which pending delta notification fires next.
    Delta,
    /// Timed phase: which same-instant ripe timer entry fires next.
    Timer,
}

impl ChoiceKind {
    /// Short stable key (`dispatch` / `delta` / `timer`), used in
    /// counterexample rendering.
    pub const fn key(self) -> &'static str {
        match self {
            ChoiceKind::Dispatch => "dispatch",
            ChoiceKind::Delta => "delta",
            ChoiceKind::Timer => "timer",
        }
    }
}

impl fmt::Display for ChoiceKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.key())
    }
}

/// The machine-readable identity of one eligible action.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CandidateDetail {
    /// Resume this runnable process (evaluation phase).
    Dispatch {
        /// The process to resume.
        pid: ProcessId,
        /// What woke it.
        wake: Wake,
    },
    /// Fire this pending delta notification (delta phase).
    DeltaEvent(Event),
    /// Fire this event's timed notification (timed phase).
    TimerNotify(Event),
    /// Wake this process from a timed wait (timed phase).
    TimerWake(ProcessId),
}

impl CandidateDetail {
    /// A stable 64-bit token identifying this action, independent of
    /// allocation order and label text — the unit a state hash mixes in.
    pub fn hash_token(self) -> u64 {
        let (tag, a, b): (u64, u64, u64) = match self {
            CandidateDetail::Dispatch { pid, wake } => {
                let w = match wake {
                    Wake::Event(e) => e.index() as u64,
                    Wake::Timeout => u64::from(u32::MAX),
                };
                (1, pid.index() as u64, w)
            }
            CandidateDetail::DeltaEvent(e) => (2, e.index() as u64, 0),
            CandidateDetail::TimerNotify(e) => (3, e.index() as u64, 0),
            CandidateDetail::TimerWake(pid) => (4, pid.index() as u64, 0),
        };
        (tag << 60) ^ (a << 30) ^ b
    }
}

/// A choice point a run stopped at (see `Simulator::run_to_choice`):
/// two or more simultaneously eligible actions, none performed yet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChoicePoint {
    /// The scheduler phase of the choice.
    pub kind: ChoiceKind,
    /// The simulated instant of the choice.
    pub at: SimTime,
    /// How many actions are eligible (at least two).
    pub arity: usize,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hash_tokens_distinguish_kinds_and_identities() {
        let tokens: Vec<u64> = [
            CandidateDetail::Dispatch {
                pid: ProcessId(0),
                wake: Wake::Timeout,
            },
            CandidateDetail::Dispatch {
                pid: ProcessId(0),
                wake: Wake::Event(Event(0)),
            },
            CandidateDetail::Dispatch {
                pid: ProcessId(1),
                wake: Wake::Timeout,
            },
            CandidateDetail::DeltaEvent(Event(0)),
            CandidateDetail::TimerNotify(Event(0)),
            CandidateDetail::TimerWake(ProcessId(0)),
        ]
        .into_iter()
        .map(CandidateDetail::hash_token)
        .collect();
        let mut unique = tokens.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), tokens.len(), "{tokens:?}");
    }
}
