//! The trace recorder: the shared sink all simulation layers write into.

use std::fmt;
use std::sync::Arc;

use rtsim_kernel::sync::Mutex;
use rtsim_kernel::{SimDuration, SimTime};

use crate::record::{ActorId, ActorInfo, ActorKind, CommKind, OverheadKind, Record, TaskState, TraceData};

#[derive(Default)]
struct Inner {
    actors: Vec<ActorInfo>,
    records: Vec<Record>,
    seq: u64,
    enabled: bool,
}

/// A cheaply cloneable handle to a shared trace sink.
///
/// Every layer of the simulation (RTOS engines, communication relations,
/// user task code) records into the same `TraceRecorder`; afterwards
/// [`snapshot`](TraceRecorder::snapshot) yields an immutable [`Trace`] for
/// rendering, statistics and assertions.
///
/// Recording is thread-safe; because the kernel runs exactly one process at
/// a time, records are globally ordered by their sequence number.
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
    inner: Arc<Mutex<Inner>>,
}

impl TraceRecorder {
    /// Creates an empty, enabled recorder.
    pub fn new() -> Self {
        TraceRecorder {
            inner: Arc::new(Mutex::new(Inner {
                enabled: true,
                ..Inner::default()
            })),
        }
    }

    /// Creates a recorder that drops all records (for speed benchmarks
    /// where tracing overhead must be excluded).
    pub fn disabled() -> Self {
        TraceRecorder {
            inner: Arc::new(Mutex::new(Inner::default())),
        }
    }

    /// Returns `true` if records are being kept.
    pub fn is_enabled(&self) -> bool {
        self.inner.lock().enabled
    }

    /// Registers a traced entity and returns its id.
    pub fn register(&self, name: &str, kind: ActorKind) -> ActorId {
        let mut inner = self.inner.lock();
        let id = ActorId(u32::try_from(inner.actors.len()).expect("too many actors"));
        inner.actors.push(ActorInfo {
            name: name.to_owned(),
            kind,
        });
        id
    }

    fn push(&self, at: SimTime, actor: ActorId, data: TraceData) {
        let mut inner = self.inner.lock();
        if !inner.enabled {
            return;
        }
        let seq = inner.seq;
        inner.seq += 1;
        inner.records.push(Record {
            at,
            seq,
            actor,
            data,
        });
    }

    /// Records a task state change.
    pub fn state(&self, actor: ActorId, at: SimTime, state: TaskState) {
        self.push(at, actor, TraceData::State(state));
    }

    /// Records the start of an RTOS overhead segment of `kind` lasting
    /// `duration`, attributed to `actor`.
    pub fn overhead(
        &self,
        actor: ActorId,
        at: SimTime,
        kind: OverheadKind,
        duration: SimDuration,
    ) {
        self.push(at, actor, TraceData::Overhead { kind, duration });
    }

    /// Records an access by `actor` to communication `relation`.
    pub fn comm(&self, actor: ActorId, at: SimTime, relation: ActorId, kind: CommKind) {
        self.push(at, actor, TraceData::Comm { relation, kind });
    }

    /// Records a queue occupancy change on relation `actor`.
    pub fn queue_depth(&self, actor: ActorId, at: SimTime, depth: usize, capacity: usize) {
        self.push(at, actor, TraceData::QueueDepth { depth, capacity });
    }

    /// Records acquisition (`true`) or release of resource `actor`.
    pub fn resource_held(&self, actor: ActorId, at: SimTime, held: bool) {
        self.push(at, actor, TraceData::ResourceHeld(held));
    }

    /// Records a free-form annotation on `actor`.
    pub fn annotate(&self, actor: ActorId, at: SimTime, label: &str) {
        self.push(at, actor, TraceData::Annotation(label.to_owned()));
    }

    /// Records the core `actor` was dispatched on (SMP processors; never
    /// recorded by single-core processors).
    pub fn core(&self, actor: ActorId, at: SimTime, core: usize) {
        self.push(at, actor, TraceData::Core(core));
    }

    /// Records an injected fault (or degraded-mode transition) at
    /// `actor`. Only fault-plan runs ever call this, so nominal traces
    /// never carry fault records.
    pub fn fault(&self, actor: ActorId, at: SimTime, kind: crate::record::FaultKind, magnitude_ps: u64) {
        self.push(at, actor, TraceData::Fault { kind, magnitude_ps });
    }

    /// Takes an immutable snapshot of everything recorded so far.
    pub fn snapshot(&self) -> Trace {
        let inner = self.inner.lock();
        Trace {
            actors: inner.actors.clone(),
            records: inner.records.clone(),
        }
    }

    /// Runs `f` over the recorder's own actor table and records, under
    /// its lock, without copying them — the zero-copy alternative to
    /// [`snapshot`](TraceRecorder::snapshot) for one-pass consumers such
    /// as fingerprints and state hashes.
    ///
    /// `f` must not record into this recorder (or any clone of it): the
    /// lock is held for the whole call, so that would deadlock.
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
        let inner = self.inner.lock();
        f(&inner.actors, &inner.records)
    }

    /// Number of records currently held.
    pub fn len(&self) -> usize {
        self.inner.lock().records.len()
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
        let inner = self.inner.lock();
        f.debug_struct("TraceRecorder")
            .field("actors", &inner.actors.len())
            .field("records", &inner.records.len())
            .field("enabled", &inner.enabled)
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
    actors: Vec<ActorInfo>,
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
        self.actors
            .iter()
            .position(|a| a.name == name)
            .map(|i| ActorId(i as u32))
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

    /// The sequence of states a task actor went through, without times —
    /// convenient for exact transition-order assertions.
    pub fn state_sequence(&self, actor: ActorId) -> Vec<TaskState> {
        self.records_for(actor)
            .filter_map(|r| match r.data {
                TraceData::State(s) => Some(s),
                _ => None,
            })
            .collect()
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
                (SimTime::from_ps(5), SimTime::from_ps(15), TaskState::Running),
                (SimTime::from_ps(15), SimTime::from_ps(20), TaskState::Waiting),
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
