//! Pluggable resolution of scheduler tie-breaks (choice points).
//!
//! The kernel is deterministic by construction: runnable processes
//! resume in FIFO wake order, simultaneous delta notifications fire in
//! posting order, and same-instant timers fire in posting order. Those
//! fixed tie-breaks pick *one* legal schedule out of many — real
//! hardware and real RTOSes are free to serialize simultaneous work in
//! any order. A [`ChoicePolicy`] makes the tie-break pluggable: when a
//! policy is installed (see `Simulator::set_choice_policy`) the kernel
//! presents every set of two-or-more simultaneously eligible actions as
//! a [`Candidate`] slice and lets the policy pick which one happens
//! next.
//!
//! The `rtsim-check` crate's depth-first explorer drives this hook to
//! enumerate *every* legal ordering and check invariants over all of
//! them; [`StableTieBreak`] is the identity policy that reproduces the
//! kernel's built-in order (it always picks candidate 0), used to pin
//! that installing the hook changes nothing.
//!
//! With no policy installed the kernel takes its original zero-cost
//! fast path — no candidate vectors are built and no labels are
//! rendered.
//!
//! # Resumable choice points
//!
//! A search can also take the choice points one at a time instead of
//! installing a policy: `Simulator::run_to_choice` runs until the next
//! choice point and returns it as a [`ChoicePoint`]. The kernel keeps
//! the phase it stopped in and that phase's working set (the runnable
//! queue, the delta cycle's pending notifications, or the instant's ripe
//! timers), so nothing has happened yet: `Simulator::candidate` names
//! each eligible action, `Simulator::decide` picks one, and the next
//! `run_to_choice` performs it and runs on to the following choice
//! point. One run loop serves all three ways of resolving a tie — the
//! decision of a stopped point, an installed policy, or the stable
//! order.
//!
//! A simulator stopped at a choice point is at rest, so it can be
//! copied (`Simulator::fork`): the schedule explorer keeps one copy per
//! open choice point and resumes each sibling schedule from it instead
//! of replaying the prefix that led there.

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
    /// counterexample rendering and state hashing.
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

/// One eligible action at a choice point: a stable machine-readable
/// identity plus a human-readable label (process and event names
/// resolved) for counterexample rendering.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Candidate {
    /// What the action is, in kernel terms.
    pub detail: CandidateDetail,
    /// Human-readable rendering, e.g. `dispatch Processor.Task_1 <- Clk`.
    pub label: String,
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

impl Candidate {
    /// The [`CandidateDetail::hash_token`] of this candidate's action.
    pub fn hash_token(&self) -> u64 {
        self.detail.hash_token()
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

impl fmt::Display for Candidate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.label)
    }
}

/// A pluggable tie-break: picks which of several simultaneously
/// eligible actions the kernel performs next.
///
/// The kernel only consults the policy when there is a real choice —
/// `candidates` always holds at least two entries. The returned index
/// must be in range (the kernel panics otherwise, naming the policy's
/// answer). Implementations must be deterministic functions of their
/// own state and the arguments if the run is to be reproducible.
pub trait ChoicePolicy: Send {
    /// Picks the index of the candidate to perform next.
    fn choose(&mut self, now: SimTime, kind: ChoiceKind, candidates: &[Candidate]) -> usize;
}

/// The identity policy: always picks candidate 0, reproducing the
/// kernel's built-in stable tie-break (FIFO wake order, posting order).
///
/// Installing `StableTieBreak` must be observationally identical to
/// installing no policy at all — the regression pin for the choice
/// hook itself.
#[derive(Debug, Clone, Copy, Default)]
pub struct StableTieBreak;

impl ChoicePolicy for StableTieBreak {
    fn choose(&mut self, _now: SimTime, _kind: ChoiceKind, _candidates: &[Candidate]) -> usize {
        0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hash_tokens_distinguish_kinds_and_identities() {
        let mk = |detail| Candidate {
            detail,
            label: String::new(),
        };
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
        .map(|d| mk(d).hash_token())
        .collect();
        let mut unique = tokens.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), tokens.len(), "{tokens:?}");
    }

    #[test]
    fn stable_tie_break_always_picks_zero() {
        let c = Candidate {
            detail: CandidateDetail::DeltaEvent(Event(3)),
            label: "delta-notify e".to_owned(),
        };
        let mut p = StableTieBreak;
        assert_eq!(
            p.choose(SimTime::ZERO, ChoiceKind::Delta, &[c.clone(), c]),
            0
        );
    }
}
