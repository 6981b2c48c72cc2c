//! The trace recorder: the record buffer every simulation layer writes
//! into, kept in the simulation's world.

use std::fmt;
use std::sync::Arc;

use rtsim_kernel::world::{share, SharedWorld, Slot};
use rtsim_kernel::{SimDuration, SimTime};

use crate::record::{
    ActorId, ActorInfo, ActorKind, CommKind, OverheadKind, Record, TaskState, TraceData,
};

/// The record buffer itself: a slot of the simulation
/// [`World`](rtsim_kernel::World).
///
/// A running step reaches it through the world its
/// [`KernelHandle`](rtsim_kernel::KernelHandle) lends, so recording is a
/// plain `Vec::push`. Code outside a step records through the
/// [`TraceRecorder`] handle instead.
///
/// The actor table is registered before a run and shared, not copied,
/// by the logs of forked simulations and by snapshots.
#[derive(Debug, Default)]
pub struct TraceLog {
    actors: Arc<Vec<ActorInfo>>,
    records: Vec<Record>,
    seq: u64,
    enabled: bool,
}

/// By hand, so that a fork into another simulation's world writes the
/// records into the record buffer that log already has.
impl Clone for TraceLog {
    fn clone(&self) -> Self {
        TraceLog {
            actors: Arc::clone(&self.actors),
            records: self.records.clone(),
            seq: self.seq,
            enabled: self.enabled,
        }
    }

    fn clone_from(&mut self, source: &Self) {
        share(&mut self.actors, &source.actors);
        self.records.clone_from(&source.records);
        self.seq = source.seq;
        self.enabled = source.enabled;
    }
}

impl TraceLog {
    /// Returns `true` if records are being kept.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Registers a traced entity and returns its id.
    pub fn register(&mut self, name: &str, kind: ActorKind) -> ActorId {
        let id = ActorId(u32::try_from(self.actors.len()).expect("too many actors"));
        Arc::make_mut(&mut self.actors).push(ActorInfo {
            name: name.to_owned(),
            kind,
        });
        id
    }

    #[inline]
    fn push(&mut self, at: SimTime, actor: ActorId, data: TraceData) {
        if !self.enabled {
            return;
        }
        let seq = self.seq;
        self.seq += 1;
        self.records.push(Record {
            at,
            seq,
            actor,
            data,
        });
    }

    /// Records a task state change.
    #[inline]
    pub fn state(&mut self, actor: ActorId, at: SimTime, state: TaskState) {
        self.push(at, actor, TraceData::State(state));
    }

    /// Records the start of an RTOS overhead segment of `kind` lasting
    /// `duration`, attributed to `actor`.
    #[inline]
    pub fn overhead(
        &mut self,
        actor: ActorId,
        at: SimTime,
        kind: OverheadKind,
        duration: SimDuration,
    ) {
        self.push(at, actor, TraceData::Overhead { kind, duration });
    }

    /// Records an access by `actor` to communication `relation`.
    #[inline]
    pub fn comm(&mut self, actor: ActorId, at: SimTime, relation: ActorId, kind: CommKind) {
        self.push(at, actor, TraceData::Comm { relation, kind });
    }

    /// Records a queue occupancy change on relation `actor`.
    #[inline]
    pub fn queue_depth(&mut self, actor: ActorId, at: SimTime, depth: usize, capacity: usize) {
        self.push(at, actor, TraceData::QueueDepth { depth, capacity });
    }

    /// Records acquisition (`true`) or release of resource `actor`.
    #[inline]
    pub fn resource_held(&mut self, actor: ActorId, at: SimTime, held: bool) {
        self.push(at, actor, TraceData::ResourceHeld(held));
    }

    /// Records a free-form annotation on `actor`.
    pub fn annotate(&mut self, actor: ActorId, at: SimTime, label: &str) {
        if self.enabled {
            self.push(at, actor, TraceData::Annotation(label.to_owned()));
        }
    }

    /// Records the core `actor` was dispatched on (SMP processors; never
    /// recorded by single-core processors).
    #[inline]
    pub fn core(&mut self, actor: ActorId, at: SimTime, core: usize) {
        self.push(at, actor, TraceData::Core(core));
    }

    /// Records an injected fault (or degraded-mode transition) at
    /// `actor`. Only fault-plan runs ever call this, so nominal traces
    /// never carry fault records.
    pub fn fault(
        &mut self,
        actor: ActorId,
        at: SimTime,
        kind: crate::record::FaultKind,
        magnitude_ps: u64,
    ) {
        self.push(at, actor, TraceData::Fault { kind, magnitude_ps });
    }

    /// The registered actors, indexable by [`ActorId::index`].
    pub fn actors(&self) -> &[ActorInfo] {
        &self.actors
    }

    /// The records so far, in global order.
    pub fn records(&self) -> &[Record] {
        &self.records
    }
}

/// A cheaply cloneable handle to a simulation's trace: the world that
/// holds the [`TraceLog`] and its slot there.
///
/// Every layer of the simulation (RTOS engines, communication relations,
/// user task code) records into the same log; afterwards
/// [`snapshot`](TraceRecorder::snapshot) yields an immutable [`Trace`] for
/// rendering, statistics and assertions.
///
/// [`TraceRecorder::new`] creates a fresh world holding only the log.
/// The processors, relations and hardware functions built on a recorder
/// keep their state in its world, and the first of them built on a
/// simulator attaches that world to it
/// ([`Simulator::attach_world`](rtsim_kernel::Simulator::attach_world)).
///
/// The methods here lock the world, for code outside a simulation step
/// (the testbench, closure bodies). Called inside a step, whose thread
/// holds the world on loan, they panic naming themselves: a step records
/// through the lent world instead.
///
/// # Examples
///
/// ```
/// use rtsim_kernel::SimTime;
/// use rtsim_trace::{ActorKind, TaskState, TraceRecorder};
///
/// let rec = TraceRecorder::new();
/// let t1 = rec.register("Function_1", ActorKind::Task);
/// rec.state(t1, SimTime::ZERO, TaskState::Running);
/// let trace = rec.snapshot();
/// assert_eq!(trace.records().len(), 1);
/// assert_eq!(trace.actor_name(t1), "Function_1");
/// ```
#[derive(Clone)]
pub struct TraceRecorder {
    world: SharedWorld,
    log: Slot<TraceLog>,
}

impl TraceRecorder {
    fn with_enabled(enabled: bool) -> Self {
        let world = SharedWorld::new();
        let log = world.lock_for("TraceRecorder::new").insert(TraceLog {
            enabled,
            ..TraceLog::default()
        });
        TraceRecorder { world, log }
    }

    /// Creates an empty, enabled recorder in a world of its own.
    pub fn new() -> Self {
        TraceRecorder::with_enabled(true)
    }

    /// Creates a recorder that drops all records (for speed benchmarks
    /// where tracing overhead must be excluded).
    pub fn disabled() -> Self {
        TraceRecorder::with_enabled(false)
    }

    /// The world holding this recorder's log.
    pub fn world(&self) -> &SharedWorld {
        &self.world
    }

    /// The log's slot in [`world`](TraceRecorder::world).
    pub fn log(&self) -> Slot<TraceLog> {
        self.log
    }

    /// The recorder of the same log slot in `world` — a fork of this
    /// recorder's world (see
    /// [`Simulator::fork`](rtsim_kernel::Simulator::fork)).
    pub fn rebind(&self, world: &SharedWorld) -> TraceRecorder {
        TraceRecorder {
            world: world.clone(),
            log: self.log,
        }
    }

    fn with_log<R>(&self, accessor: &'static str, f: impl FnOnce(&mut TraceLog) -> R) -> R {
        f(self.world.lock_for(accessor).get_mut(self.log))
    }

    /// Returns `true` if records are being kept.
    pub fn is_enabled(&self) -> bool {
        self.with_log("TraceRecorder::is_enabled", |log| log.enabled)
    }

    /// Registers a traced entity and returns its id.
    pub fn register(&self, name: &str, kind: ActorKind) -> ActorId {
        self.with_log("TraceRecorder::register", |log| log.register(name, kind))
    }

    /// Records a task state change.
    pub fn state(&self, actor: ActorId, at: SimTime, state: TaskState) {
        self.with_log("TraceRecorder::state", |log| log.state(actor, at, state));
    }

    /// Records the start of an RTOS overhead segment of `kind` lasting
    /// `duration`, attributed to `actor`.
    pub fn overhead(&self, actor: ActorId, at: SimTime, kind: OverheadKind, duration: SimDuration) {
        self.with_log("TraceRecorder::overhead", |log| {
            log.overhead(actor, at, kind, duration)
        });
    }

    /// Records an access by `actor` to communication `relation`.
    pub fn comm(&self, actor: ActorId, at: SimTime, relation: ActorId, kind: CommKind) {
        self.with_log("TraceRecorder::comm", |log| {
            log.comm(actor, at, relation, kind)
        });
    }

    /// Records a queue occupancy change on relation `actor`.
    pub fn queue_depth(&self, actor: ActorId, at: SimTime, depth: usize, capacity: usize) {
        self.with_log("TraceRecorder::queue_depth", |log| {
            log.queue_depth(actor, at, depth, capacity)
        });
    }

    /// Records acquisition (`true`) or release of resource `actor`.
    pub fn resource_held(&self, actor: ActorId, at: SimTime, held: bool) {
        self.with_log("TraceRecorder::resource_held", |log| {
            log.resource_held(actor, at, held)
        });
    }

    /// Records a free-form annotation on `actor`.
    pub fn annotate(&self, actor: ActorId, at: SimTime, label: &str) {
        self.with_log("TraceRecorder::annotate", |log| {
            log.annotate(actor, at, label)
        });
    }

    /// Records the core `actor` was dispatched on (SMP processors; never
    /// recorded by single-core processors).
    pub fn core(&self, actor: ActorId, at: SimTime, core: usize) {
        self.with_log("TraceRecorder::core", |log| log.core(actor, at, core));
    }

    /// Records an injected fault (or degraded-mode transition) at
    /// `actor`. Only fault-plan runs ever call this, so nominal traces
    /// never carry fault records.
    pub fn fault(
        &self,
        actor: ActorId,
        at: SimTime,
        kind: crate::record::FaultKind,
        magnitude_ps: u64,
    ) {
        self.with_log("TraceRecorder::fault", |log| {
            log.fault(actor, at, kind, magnitude_ps)
        });
    }

    /// Takes an immutable snapshot of everything recorded so far.
    pub fn snapshot(&self) -> Trace {
        self.with_log("TraceRecorder::snapshot", |log| Trace {
            actors: Arc::clone(&log.actors),
            records: log.records.clone(),
        })
    }

    /// Runs `f` over the log's own actor table and records, with the
    /// world locked, without copying them — the zero-copy alternative to
    /// [`snapshot`](TraceRecorder::snapshot) for one-pass consumers such
    /// as fingerprints and state hashes.
    ///
    /// `f` must not use this recorder (or any clone of it): the world is
    /// locked for the whole call, so that panics.
    ///
    /// # Examples
    ///
    /// ```
    /// use rtsim_kernel::SimTime;
    /// use rtsim_trace::{ActorKind, TaskState, TraceRecorder};
    ///
    /// let rec = TraceRecorder::new();
    /// let t = rec.register("T", ActorKind::Task);
    /// rec.state(t, SimTime::ZERO, TaskState::Running);
    /// let (actors, records) = rec.with_records(|a, r| (a.len(), r.len()));
    /// assert_eq!((actors, records), (1, 1));
    /// ```
    pub fn with_records<R>(&self, f: impl FnOnce(&[ActorInfo], &[Record]) -> R) -> R {
        self.with_log("TraceRecorder::with_records", |log| {
            f(&log.actors, &log.records)
        })
    }

    /// Number of records currently held.
    pub fn len(&self) -> usize {
        self.with_log("TraceRecorder::len", |log| log.records.len())
    }

    /// Returns `true` if nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl Default for TraceRecorder {
    fn default() -> Self {
        TraceRecorder::new()
    }
}

impl fmt::Debug for TraceRecorder {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TraceRecorder")
            .field("world", &self.world)
            .field("log", &self.log)
            .finish()
    }
}

/// An immutable snapshot of a recorded simulation.
///
/// Produced by [`TraceRecorder::snapshot`]; consumed by the TimeLine
/// renderer, the statistics aggregator, the measurement helpers, and test
/// assertions.
#[derive(Debug, Clone, PartialEq)]
pub struct Trace {
    actors: Arc<Vec<ActorInfo>>,
    records: Vec<Record>,
}

impl Trace {
    /// All records, in global order.
    pub fn records(&self) -> &[Record] {
        &self.records
    }

    /// All registered actors, indexable by [`ActorId::index`].
    pub fn actors(&self) -> &[ActorInfo] {
        &self.actors
    }

    /// Name of `actor`.
    ///
    /// # Panics
    ///
    /// Panics if `actor` was not registered with the recorder that produced
    /// this trace.
    pub fn actor_name(&self, actor: ActorId) -> &str {
        &self.actors[actor.index()].name
    }

    /// Looks an actor up by name.
    pub fn actor_by_name(&self, name: &str) -> Option<ActorId> {
        ActorId::find(&self.actors, name)
    }

    /// Iterates over actors of one kind.
    pub fn actors_of_kind(&self, kind: ActorKind) -> impl Iterator<Item = ActorId> + '_ {
        self.actors
            .iter()
            .enumerate()
            .filter(move |(_, a)| a.kind == kind)
            .map(|(i, _)| ActorId(i as u32))
    }

    /// Records concerning `actor`, in order.
    pub fn records_for(&self, actor: ActorId) -> impl Iterator<Item = &Record> + '_ {
        self.records.iter().filter(move |r| r.actor == actor)
    }

    /// The time of the last record, or zero for an empty trace.
    pub fn horizon(&self) -> SimTime {
        self.records
            .iter()
            .map(|r| r.at)
            .max()
            .unwrap_or(SimTime::ZERO)
    }

    /// Consecutive `(start, end, state)` intervals for a task actor,
    /// closing the final interval at `horizon`.
    ///
    /// Intervals of zero length (several state changes at one instant) are
    /// kept: they matter for transition-order assertions even though they
    /// occupy no time.
    pub fn state_intervals(
        &self,
        actor: ActorId,
        horizon: SimTime,
    ) -> Vec<(SimTime, SimTime, TaskState)> {
        let changes: Vec<(SimTime, TaskState)> = self
            .records_for(actor)
            .filter_map(|r| match r.data {
                TraceData::State(s) => Some((r.at, s)),
                _ => None,
            })
            .collect();
        let mut intervals = Vec::with_capacity(changes.len());
        for (i, &(start, state)) in changes.iter().enumerate() {
            let end = changes.get(i + 1).map_or(horizon, |&(t, _)| t);
            intervals.push((start, end.max(start), state));
        }
        intervals
    }

    /// Times at which annotation `label` was recorded (any actor).
    pub fn annotation_times(&self, label: &str) -> Vec<SimTime> {
        self.records
            .iter()
            .filter_map(|r| match &r.data {
                TraceData::Annotation(l) if l == label => Some(r.at),
                _ => None,
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn register_and_lookup() {
        let rec = TraceRecorder::new();
        let a = rec.register("A", ActorKind::Task);
        let b = rec.register("B", ActorKind::Relation);
        let trace = rec.snapshot();
        assert_eq!(trace.actor_name(a), "A");
        assert_eq!(trace.actor_by_name("B"), Some(b));
        assert_eq!(trace.actor_by_name("missing"), None);
        assert_eq!(trace.actors_of_kind(ActorKind::Task).count(), 1);
    }

    #[test]
    fn records_are_globally_ordered() {
        let rec = TraceRecorder::new();
        let a = rec.register("A", ActorKind::Task);
        rec.state(a, SimTime::from_ps(10), TaskState::Running);
        rec.state(a, SimTime::from_ps(10), TaskState::Ready);
        rec.state(a, SimTime::from_ps(20), TaskState::Running);
        let trace = rec.snapshot();
        let seqs: Vec<u64> = trace.records().iter().map(|r| r.seq).collect();
        assert_eq!(seqs, vec![0, 1, 2]);
        assert_eq!(trace.horizon(), SimTime::from_ps(20));
    }

    #[test]
    fn disabled_recorder_drops_records() {
        let rec = TraceRecorder::disabled();
        let a = rec.register("A", ActorKind::Task);
        rec.state(a, SimTime::ZERO, TaskState::Running);
        assert!(rec.is_empty());
        assert!(!rec.is_enabled());
    }

    #[test]
    fn state_intervals_close_at_horizon() {
        let rec = TraceRecorder::new();
        let a = rec.register("A", ActorKind::Task);
        rec.state(a, SimTime::from_ps(0), TaskState::Ready);
        rec.state(a, SimTime::from_ps(5), TaskState::Running);
        rec.state(a, SimTime::from_ps(15), TaskState::Waiting);
        let trace = rec.snapshot();
        let iv = trace.state_intervals(a, SimTime::from_ps(20));
        assert_eq!(
            iv,
            vec![
                (SimTime::from_ps(0), SimTime::from_ps(5), TaskState::Ready),
                (
                    SimTime::from_ps(5),
                    SimTime::from_ps(15),
                    TaskState::Running
                ),
                (
                    SimTime::from_ps(15),
                    SimTime::from_ps(20),
                    TaskState::Waiting
                ),
            ]
        );
    }

    #[test]
    fn annotations_are_searchable() {
        let rec = TraceRecorder::new();
        let a = rec.register("A", ActorKind::Task);
        rec.annotate(a, SimTime::from_ps(7), "mark");
        rec.annotate(a, SimTime::from_ps(9), "other");
        rec.annotate(a, SimTime::from_ps(11), "mark");
        let trace = rec.snapshot();
        assert_eq!(
            trace.annotation_times("mark"),
            vec![SimTime::from_ps(7), SimTime::from_ps(11)]
        );
    }

    #[test]
    fn clones_share_the_sink() {
        let rec = TraceRecorder::new();
        let a = rec.register("A", ActorKind::Task);
        let rec2 = rec.clone();
        rec2.state(a, SimTime::ZERO, TaskState::Running);
        assert_eq!(rec.len(), 1);
    }
}
