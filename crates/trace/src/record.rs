//! Trace record types: what the simulation reports about itself.
//!
//! The vocabulary mirrors the paper's TimeLine chart (§5): task state
//! lanes, RTOS overhead segments, and communication accesses drawn as
//! arrows whose style tells read from write from signal.

use std::fmt;
use std::hash::{Hash, Hasher};

use rtsim_kernel::{SimDuration, SimTime};

use crate::label::Label;

/// Identifies a traced entity (task, processor, or communication relation).
///
/// Assigned densely by [`TraceRecorder::register`] in registration order.
///
/// [`TraceRecorder::register`]: crate::TraceRecorder::register
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ActorId(pub(crate) u32);

impl ActorId {
    /// Returns the raw index of this actor.
    #[inline]
    pub const fn index(self) -> usize {
        self.0 as usize
    }

    /// The first actor of `actors` called `name`.
    pub fn find(actors: &[ActorInfo], name: &str) -> Option<ActorId> {
        actors
            .iter()
            .position(|a| a.name == name)
            .map(|i| ActorId(i as u32))
    }
}

impl fmt::Display for ActorId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "actor#{}", self.0)
    }
}

/// What kind of entity an actor is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ActorKind {
    /// A software task (an MCSE *function* mapped on a processor) or a
    /// hardware function.
    Task,
    /// A processor running an RTOS.
    Processor,
    /// A communication relation (event, message queue, shared variable).
    Relation,
}

impl ActorKind {
    /// Stable key used in the canonical trace format.
    pub const fn key(self) -> &'static str {
        match self {
            ActorKind::Task => "task",
            ActorKind::Processor => "processor",
            ActorKind::Relation => "relation",
        }
    }
}

impl fmt::Display for ActorKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.key())
    }
}

/// Task lifecycle states, exactly the lanes of the paper's TimeLine chart:
/// *Creation, Running, Destruction, Waiting for processor availability
/// (Ready), Waiting for a synchronization (Waiting), Waiting for
/// resource*.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TaskState {
    /// Task exists but has not started (paper: *Creation*).
    Created,
    /// Executing on its processor.
    Running,
    /// Ready to run, waiting for the processor (e.g. preempted).
    Ready,
    /// Blocked on a synchronization (event wait, empty queue...).
    Waiting,
    /// Blocked on a mutual-exclusion resource (shared variable).
    WaitingResource,
    /// Task body finished (paper: *Destruction*).
    Terminated,
}

impl TaskState {
    /// Single-character glyph used by the ASCII TimeLine renderer.
    pub const fn glyph(self) -> char {
        match self {
            TaskState::Created => ' ',
            TaskState::Running => '#',
            TaskState::Ready => '+',
            TaskState::Waiting => '.',
            TaskState::WaitingResource => 'x',
            TaskState::Terminated => ' ',
        }
    }

    /// Stable key used in the canonical trace format.
    pub const fn key(self) -> &'static str {
        match self {
            TaskState::Created => "created",
            TaskState::Running => "running",
            TaskState::Ready => "ready",
            TaskState::Waiting => "waiting",
            TaskState::WaitingResource => "waiting-resource",
            TaskState::Terminated => "terminated",
        }
    }
}

impl fmt::Display for TaskState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.key())
    }
}

/// The components of RTOS overhead the paper models (§3.2), extended
/// with the migration cost of the SMP processor model.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OverheadKind {
    /// Copying the suspended task's context out of the processor registers.
    ContextSave,
    /// Running the scheduling algorithm to pick the next task.
    Scheduling,
    /// Loading the elected task's context into the processor registers.
    ContextLoad,
    /// Moving a task's context to a different core than the one it last
    /// ran on (SMP processors only; never recorded on single-core runs).
    Migration,
}

impl OverheadKind {
    /// Stable key used in the canonical trace format.
    pub const fn key(self) -> &'static str {
        match self {
            OverheadKind::ContextSave => "context-save",
            OverheadKind::Scheduling => "scheduling",
            OverheadKind::ContextLoad => "context-load",
            OverheadKind::Migration => "migration",
        }
    }
}

impl fmt::Display for OverheadKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.key())
    }
}

/// Kind of access to a communication relation (the arrow style in the
/// paper's TimeLine: read, write, signal).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CommKind {
    /// Consuming access (queue read, shared-variable read, event wait
    /// satisfied).
    Read,
    /// Producing access (queue write, shared-variable write).
    Write,
    /// Event signalling.
    Signal,
}

impl CommKind {
    /// Single-character glyph used by the ASCII TimeLine renderer.
    pub const fn glyph(self) -> char {
        match self {
            CommKind::Read => 'R',
            CommKind::Write => 'W',
            CommKind::Signal => 'S',
        }
    }

    /// Stable key used in the canonical trace format.
    pub const fn key(self) -> &'static str {
        match self {
            CommKind::Read => "read",
            CommKind::Write => "write",
            CommKind::Signal => "signal",
        }
    }
}

impl fmt::Display for CommKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.key())
    }
}

/// Kind of injected fault or fault-response transition (see the
/// `rtsim-fault` crate). Fault records only appear in runs that install
/// a fault plan, so nominal traces — and every pre-fault golden — keep
/// their canonical form unchanged.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultKind {
    /// A queue message was silently lost on its channel.
    DropMessage,
    /// An event notification was silently lost.
    DropSignal,
    /// A release was delayed by an injected arrival-jitter offset.
    Jitter,
    /// An execution segment's cost was scaled up by an overload burst.
    Burst,
    /// The task entered its degraded mode.
    Degraded,
    /// The task recovered to nominal mode.
    Recovered,
}

impl FaultKind {
    /// Short stable key used in the canonical trace format.
    pub const fn key(self) -> &'static str {
        match self {
            FaultKind::DropMessage => "drop-message",
            FaultKind::DropSignal => "drop-signal",
            FaultKind::Jitter => "jitter",
            FaultKind::Burst => "burst",
            FaultKind::Degraded => "degraded",
            FaultKind::Recovered => "recovered",
        }
    }
}

impl fmt::Display for FaultKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.key())
    }
}

/// Payload of one trace record.
///
/// Plain data, 16 bytes: an annotation carries its interned [`Label`],
/// not its text.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceData {
    /// The actor (a task) entered `state`.
    State(TaskState),
    /// RTOS overhead of `kind` lasting `duration` began, attributed to the
    /// actor on whose behalf it is spent.
    Overhead {
        /// Which of the three overhead components.
        kind: OverheadKind,
        /// Length of the overhead segment.
        duration: SimDuration,
    },
    /// The actor accessed communication relation `relation`.
    Comm {
        /// The relation being accessed.
        relation: ActorId,
        /// Read, write or signal.
        kind: CommKind,
    },
    /// A message queue's occupancy changed (for utilization statistics).
    /// A queue's capacity is a `u32` where it is declared, so both fit.
    QueueDepth {
        /// Messages in the queue after the operation, at most `capacity`.
        depth: u32,
        /// Queue capacity.
        capacity: u32,
    },
    /// A mutual-exclusion resource was acquired (`true`) or released.
    ResourceHeld(bool),
    /// Free-form user annotation, the anchor for TimeLine measurements.
    Annotation(Label),
    /// The actor (a task) was dispatched on processor core `core`.
    /// Recorded by SMP processors only — single-core traces never carry
    /// it, keeping their canonical form unchanged.
    Core(usize),
    /// A fault was injected (or a degraded-mode transition taken) at the
    /// actor. `magnitude_ps` carries the fault's size where one exists —
    /// the jitter offset or the extra burst cost in picoseconds — and is
    /// zero for drops and mode transitions. Recorded only in runs with a
    /// fault plan installed, keeping nominal traces unchanged.
    Fault {
        /// What kind of fault.
        kind: FaultKind,
        /// Fault size in picoseconds (zero when not applicable).
        magnitude_ps: u64,
    },
}

/// One timestamped trace record: plain data, 32 bytes.
///
/// A record's sequence number, the total order among same-instant
/// records, is its index in its log; the record does not store it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Record {
    /// When it happened.
    pub at: SimTime,
    /// Who it happened to.
    pub actor: ActorId,
    /// What happened.
    pub data: TraceData,
}

/// Three words per record: the instant; the actor, the variant and its
/// small field; the wide payload. Only equal records write equal words:
/// every small field fits in its 8 bits, and the variant tells how the
/// wide word reads.
impl Hash for Record {
    fn hash<H: Hasher>(&self, state: &mut H) {
        let (variant, small, wide): (u8, u8, u64) = match self.data {
            TraceData::State(s) => (0, s as u8, 0),
            TraceData::Overhead { kind, duration } => (1, kind as u8, duration.as_ps()),
            TraceData::Comm { relation, kind } => (2, kind as u8, relation.0.into()),
            TraceData::QueueDepth { depth, capacity } => {
                (3, 0, u64::from(depth) << 32 | u64::from(capacity))
            }
            TraceData::ResourceHeld(held) => (4, held.into(), 0),
            TraceData::Annotation(label) => (5, 0, label.0.into()),
            TraceData::Core(core) => (6, 0, core as u64),
            TraceData::Fault { kind, magnitude_ps } => (7, kind as u8, magnitude_ps),
        };
        state.write_u64(self.at.as_ps());
        state.write_u64(u64::from(self.actor.0) << 32 | u64::from(variant) << 8 | u64::from(small));
        state.write_u64(wide);
    }
}

/// Static description of one registered actor.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ActorInfo {
    /// Display name (task/function/relation name).
    pub name: String,
    /// Entity kind.
    pub kind: ActorKind,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn glyphs_are_distinct_for_visible_states() {
        let glyphs = [
            TaskState::Running.glyph(),
            TaskState::Ready.glyph(),
            TaskState::Waiting.glyph(),
            TaskState::WaitingResource.glyph(),
        ];
        for (i, a) in glyphs.iter().enumerate() {
            for b in &glyphs[i + 1..] {
                assert_ne!(a, b);
            }
        }
    }

    #[test]
    fn display_strings() {
        assert_eq!(TaskState::WaitingResource.to_string(), "waiting-resource");
        assert_eq!(OverheadKind::Scheduling.to_string(), "scheduling");
        assert_eq!(CommKind::Signal.to_string(), "signal");
        assert_eq!(ActorKind::Processor.to_string(), "processor");
        assert_eq!(ActorId(3).to_string(), "actor#3");
    }

    /// Every trace buffer, snapshot and fork copy moves records of this
    /// size: an annotation's text or a wider field would grow them all.
    #[test]
    fn records_are_32_bytes() {
        assert_eq!(std::mem::size_of::<TraceData>(), 16);
        assert_eq!(std::mem::size_of::<Record>(), 32);
    }
}
