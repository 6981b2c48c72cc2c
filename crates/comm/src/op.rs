//! Blocking relation operations as resumable values.
//!
//! Each blocking operation on a relation (event wait, queue write and
//! read, shared-variable read and write) is written once, as an [`Op`]:
//! slot ids, operands and how far it got. [`Op::step`] advances it through
//! a non-blocking [`Party`] until it completes or returns the [`Need`] to
//! perform first. A closure body's blocking call ([`EventRef::wait`],
//! [`QueueRef::write`], [`VarRef::read_for`], ...) performs each need on
//! its [`Agent`]; a step machine feeds it to its runner as an intent and
//! steps the operation again at its next idle. Either way the relation's
//! state code runs in the same order, so both give the same trace.

use rtsim_core::agent::{Agent, Party};
use rtsim_kernel::SimDuration;
use rtsim_trace::CommKind;

use crate::{EventRef, QueueRef, VarRef};

/// What an [`Op`] needs done before it can step on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Need {
    /// Block until woken through the party's waiter.
    Suspend {
        /// Selects the waiting-for-resource trace state (a held shared
        /// variable) over plain Waiting.
        resource: bool,
    },
    /// Consume this much CPU time, holding a shared variable.
    Execute(SimDuration),
    /// Leave the critical region a preemption-masked variable entered.
    UnlockPreemption,
    /// Force a scheduling decision: a priority-ceiling boost just ended.
    Reschedule,
}

impl Need {
    /// Performs the need on a blocking agent.
    pub(crate) fn perform(self, agent: &mut dyn Agent) {
        match self {
            Need::Suspend { resource } => agent.suspend(resource),
            Need::Execute(d) => agent.execute(d),
            Need::UnlockPreemption => agent.unlock_preemption(),
            Need::Reschedule => agent.reschedule(),
        }
    }
}

/// One blocking relation operation in flight.
///
/// Plain data and slot ids: a copy is the same operation at the same
/// point, so a forked step machine's copy works on the fork's relation.
#[derive(Debug, Clone)]
pub struct Op<T>(Kind<T>);

#[derive(Debug, Clone)]
enum Kind<T> {
    /// The event, and whether the waiter is registered: a fugitive wait
    /// is over at the wake.
    Wait(EventRef, bool),
    /// The queue, the message (taken by each attempt, handed back by a
    /// full queue) and the seniority ticket kept across retries.
    Write(QueueRef<T>, Option<T>, Option<u64>),
    /// The queue and the seniority ticket.
    Read(QueueRef<T>, Option<u64>),
    Access {
        var: VarRef<T>,
        duration: SimDuration,
        /// A write's value until it is stored; a read's snapshot.
        value: Option<T>,
        /// `Read` or `Write`: what the access records.
        kind: CommKind,
        stage: Stage,
    },
}

/// How far a shared-variable access got.
#[derive(Debug, Clone, Copy)]
enum Stage {
    Acquire,
    Hold,
    Record,
}

impl<T: Clone + Send + 'static> Op<T> {
    /// Waits for `event` (consuming one token when it is memorized).
    pub fn wait(event: &EventRef) -> Self {
        Op(Kind::Wait(*event, false))
    }

    /// Appends `message` to `queue`, waiting while it is full.
    pub fn write(queue: &QueueRef<T>, message: T) -> Self {
        Op(Kind::Write(*queue, Some(message), None))
    }

    /// Removes the oldest message of `queue`, waiting while it is empty.
    pub fn read(queue: &QueueRef<T>) -> Self {
        Op(Kind::Read(*queue, None))
    }

    /// Reads `var`, consuming `duration` of CPU time under its lock.
    pub fn read_for(var: &VarRef<T>, duration: SimDuration) -> Self {
        Self::access(var, duration, None, CommKind::Read)
    }

    /// Writes `value` to `var`, consuming `duration` of CPU time under its
    /// lock.
    pub fn write_for(var: &VarRef<T>, duration: SimDuration, value: T) -> Self {
        Self::access(var, duration, Some(value), CommKind::Write)
    }

    fn access(var: &VarRef<T>, duration: SimDuration, value: Option<T>, kind: CommKind) -> Self {
        Op(Kind::Access {
            var: *var,
            duration,
            value,
            kind,
            stage: Stage::Acquire,
        })
    }

    /// Advances the operation as far as `party` can take it without
    /// blocking: `Ok` with the value a read got (`None` for the other
    /// operations) once it completes, or the [`Need`] to perform before
    /// the next step. Step a completed operation no more.
    pub fn step(&mut self, party: &mut dyn Party) -> Result<Option<T>, Need> {
        const WAIT: Need = Need::Suspend { resource: false };
        match &mut self.0 {
            Kind::Wait(event, registered) => event
                .consume(party, Some(registered))
                .then_some(None)
                .ok_or(WAIT),
            Kind::Write(queue, message, ticket) => {
                let m = message.take().expect("a completed queue write stepped");
                match queue.write_step(party, m, ticket) {
                    Ok(()) => Ok(None),
                    Err(m) => {
                        *message = Some(m);
                        Err(WAIT)
                    }
                }
            }
            Kind::Read(queue, ticket) => queue.take(party, Some(ticket)).map(Some).ok_or(WAIT),
            Kind::Access {
                var,
                duration,
                value,
                kind,
                stage,
            } => loop {
                match stage {
                    Stage::Acquire => {
                        if !var.acquire_step(party) {
                            return Err(Need::Suspend { resource: true });
                        }
                        if *kind == CommKind::Read {
                            *value = Some(var.get(party));
                        }
                        *stage = Stage::Hold;
                        if !duration.is_zero() {
                            return Err(Need::Execute(*duration));
                        }
                    }
                    Stage::Hold => {
                        if *kind == CommKind::Write {
                            var.set(party, value.take().expect("a write holds its value"));
                        }
                        *stage = Stage::Record;
                        if let Some(need) = var.release_step(party) {
                            return Err(need);
                        }
                    }
                    Stage::Record => {
                        var.record(party, *kind);
                        return Ok(value.take());
                    }
                }
            },
        }
    }

    /// Runs the operation to completion on a blocking agent, performing
    /// each need as it comes.
    pub(crate) fn run(mut self, agent: &mut dyn Agent) -> Option<T> {
        loop {
            match self.step(agent) {
                Ok(got) => return got,
                Err(need) => need.perform(agent),
            }
        }
    }
}
