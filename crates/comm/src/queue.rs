//! The MCSE **message queue** relation: producer/consumer message passing.
//!
//! A bounded FIFO whose capacity is a parameter (paper §2). Readers block
//! on an empty queue, writers on a full one; both ends work from software
//! tasks (blocking through the RTOS) and hardware functions (blocking on a
//! kernel event), on the same or different processors — which is how the
//! multi-processor examples (e.g. the MPEG-2 SoC) pass data between
//! pipeline stages.

use std::collections::VecDeque;
use std::fmt;
use std::ops::Deref;
use std::sync::Arc;

use rtsim_core::agent::{Agent, Party, Waiter};
use rtsim_fault::ChannelLane;
use rtsim_kernel::world::Slot;
use rtsim_trace::{ActorId, ActorKind, CommKind, FaultKind, TraceLog, TraceRecorder};

use crate::op::Op;

struct QState<T> {
    buffer: VecDeque<T>,
    capacity: u32,
    readers: VecDeque<(u64, Waiter)>,
    writers: VecDeque<(u64, Waiter)>,
    /// Installed by a fault plan: consulted once per message, on the
    /// first attempt of each write (never on blocked retries).
    lane: Option<Slot<ChannelLane>>,
    /// Seniority counter for blocked ends: each *first* registration
    /// takes the next ticket, and a waiter that is woken but loses the
    /// race for the freed slot (a running task wrote/read first without
    /// ever blocking) re-registers under its original ticket, so the
    /// wait lists stay ordered by who blocked first — not by who
    /// happened to retry last.
    next_ticket: u64,
}

/// By hand, so that a fork into another simulation's world reuses the
/// buffer and the wait lists.
impl<T: Clone> Clone for QState<T> {
    fn clone(&self) -> Self {
        QState {
            buffer: self.buffer.clone(),
            capacity: self.capacity,
            readers: self.readers.clone(),
            writers: self.writers.clone(),
            lane: self.lane,
            next_ticket: self.next_ticket,
        }
    }

    fn clone_from(&mut self, source: &Self) {
        self.buffer.clone_from(&source.buffer);
        self.capacity = source.capacity;
        self.readers.clone_from(&source.readers);
        self.writers.clone_from(&source.writers);
        self.lane = source.lane;
        self.next_ticket = source.next_ticket;
    }
}

impl<T> QState<T> {
    /// Messages buffered: at most `capacity`, so a `u32` too.
    fn depth(&self) -> u32 {
        u32::try_from(self.buffer.len()).expect("a queue holds at most its capacity")
    }

    /// The ticket of a blocked end: its own on a retry, the next fresh
    /// one on its first registration.
    fn ticket(&mut self, ticket: &mut Option<u64>) -> u64 {
        *ticket.get_or_insert_with(|| {
            let t = self.next_ticket;
            self.next_ticket += 1;
            t
        })
    }
}

/// Inserts a waiter keeping the list sorted by ticket. Fresh tickets are
/// monotonically increasing, so this is a plain append except when a
/// barged waiter re-registers with its old (lower) ticket.
fn enqueue_waiter(list: &mut VecDeque<(u64, Waiter)>, ticket: u64, waiter: Waiter) {
    let pos = list.partition_point(|(t, _)| *t < ticket);
    list.insert(pos, (ticket, waiter));
}

/// A bounded, blocking message queue between MCSE functions.
///
/// Cloning yields another handle to the same queue. The operations live
/// on the queue's [`QueueRef`] (reached through `Deref`); the handle adds
/// the accessors for code outside a step.
///
/// # Examples
///
/// ```
/// use rtsim_comm::MessageQueue;
/// use rtsim_core::{Processor, ProcessorConfig, TaskConfig};
/// use rtsim_kernel::{SimDuration, Simulator};
/// use rtsim_trace::TraceRecorder;
///
/// # fn main() -> Result<(), rtsim_kernel::KernelError> {
/// let mut sim = Simulator::new();
/// let rec = TraceRecorder::new();
/// let cpu = Processor::new(&mut sim, &rec, ProcessorConfig::new("CPU"));
/// let q: MessageQueue<u32> = MessageQueue::new(&rec, "frames", 4);
///
/// let tx = q.clone();
/// cpu.spawn_task(&mut sim, TaskConfig::new("producer").priority(5), move |t| {
///     for frame in 0..3 {
///         t.execute(SimDuration::from_us(10));
///         tx.write(t, frame);
///     }
/// });
/// cpu.spawn_task(&mut sim, TaskConfig::new("consumer").priority(3), move |t| {
///     for expected in 0..3 {
///         let frame = q.read(t);
///         assert_eq!(frame, expected);
///         t.execute(SimDuration::from_us(5));
///     }
/// });
/// sim.run()?;
/// # Ok(())
/// # }
/// ```
pub struct MessageQueue<T> {
    ids: QueueRef<T>,
    recorder: TraceRecorder,
    name: Arc<str>,
}

impl<T> Clone for MessageQueue<T> {
    fn clone(&self) -> Self {
        MessageQueue {
            ids: self.ids,
            recorder: self.recorder.clone(),
            name: Arc::clone(&self.name),
        }
    }
}

impl<T> Deref for MessageQueue<T> {
    type Target = QueueRef<T>;
    fn deref(&self) -> &QueueRef<T> {
        &self.ids
    }
}

/// The slot ids of a [`MessageQueue`]: every operation a simulation
/// step performs on the queue, and nothing that reaches a world. A step
/// machine holds this, so a forked simulation's copy of the machine
/// works on the fork's queue.
pub struct QueueRef<T> {
    state: Slot<QState<T>>,
    actor: ActorId,
    log: Slot<TraceLog>,
}

impl<T> Clone for QueueRef<T> {
    fn clone(&self) -> Self {
        *self
    }
}

impl<T> Copy for QueueRef<T> {}

impl<T> fmt::Debug for QueueRef<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("QueueRef")
            .field("state", &self.state)
            .field("actor", &self.actor)
            .finish()
    }
}

impl<T: Clone + Send + 'static> MessageQueue<T> {
    /// Creates a queue holding at most `capacity` messages, its state in
    /// `recorder`'s world. The capacity is a `u32`, as is every depth the
    /// queue records (see `TraceData::QueueDepth`).
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(recorder: &TraceRecorder, name: &str, capacity: u32) -> Self {
        assert!(capacity > 0, "message queue capacity must be positive");
        let actor = recorder.register(name, ActorKind::Relation);
        let state = recorder
            .world()
            .lock_for("MessageQueue::new")
            .insert(QState {
                buffer: VecDeque::with_capacity(capacity as usize),
                capacity,
                readers: VecDeque::new(),
                writers: VecDeque::new(),
                lane: None,
                next_ticket: 0,
            });
        MessageQueue {
            ids: QueueRef {
                state,
                actor,
                log: recorder.log(),
            },
            recorder: recorder.clone(),
            name: Arc::from(name),
        }
    }

    /// The queue's slot ids, for a step machine.
    pub fn ids(&self) -> QueueRef<T> {
        self.ids
    }

    /// Runs `f` on the queue state, locking the world (code outside a
    /// step only).
    fn with_state<R>(&self, accessor: &'static str, f: impl FnOnce(&mut QState<T>) -> R) -> R {
        f(self
            .recorder
            .world()
            .lock_for(accessor)
            .get_mut(self.ids.state))
    }

    /// The relation's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The configured capacity.
    pub fn capacity(&self) -> u32 {
        self.with_state("MessageQueue::capacity", |st| st.capacity)
    }

    /// Installs a fault plan's dropout lane (a slot of this queue's
    /// world): every subsequent write's *first* attempt consults it, and
    /// a dropped message vanishes in transit — the writer proceeds as if
    /// delivered, the buffer never sees it, and the trace gains a
    /// `drop-message` fault record on this relation.
    pub fn install_fault_lane(&self, lane: Slot<ChannelLane>) {
        self.with_state("MessageQueue::install_fault_lane", |st| {
            st.lane = Some(lane)
        });
    }

    /// Messages currently buffered.
    pub fn len(&self) -> usize {
        self.with_state("MessageQueue::len", |st| st.buffer.len())
    }

    /// Returns `true` if no message is buffered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl<T: Clone + Send + 'static> QueueRef<T> {
    /// The relation's trace actor.
    pub fn actor(&self) -> ActorId {
        self.actor
    }

    /// Appends `message` if there is room, recording the write and waking
    /// the first blocked reader; on a full queue hands the message back,
    /// after registering the agent's waiter as a blocked writer when given
    /// its seniority ticket (`blocked`).
    ///
    /// The ticket threads through every retry of the *same* write: the
    /// queue stores the waiter's seniority there on first registration,
    /// and a retry that loses the freed slot to a barging task re-queues
    /// at its original FIFO position instead of the back.
    fn put(
        &self,
        agent: &mut dyn Party,
        message: T,
        blocked: Option<&mut Option<u64>>,
    ) -> Result<(), T> {
        let (now, me, waiter) = (agent.now(), agent.trace_actor(), agent.waiter());
        let reader = {
            let mut world = agent.kernel().world();
            let (st, log) = world.pair_mut(self.state, self.log);
            if st.depth() >= st.capacity {
                if let Some(ticket) = blocked {
                    let t = st.ticket(ticket);
                    enqueue_waiter(&mut st.writers, t, waiter);
                }
                return Err(message);
            }
            st.buffer.push_back(message);
            log.comm(me, now, self.actor, CommKind::Write);
            log.queue_depth(self.actor, now, st.depth(), st.capacity);
            st.readers.pop_front()
        };
        if let Some((_, w)) = reader {
            w.wake(agent.kernel());
        }
        Ok(())
    }

    /// Removes the oldest message, recording the read and waking the
    /// first blocked writer; on an empty queue registers the agent's
    /// waiter as a blocked reader when given its seniority ticket
    /// (`blocked`, threaded as in [`put`](QueueRef::put)).
    pub(crate) fn take(
        &self,
        agent: &mut dyn Party,
        blocked: Option<&mut Option<u64>>,
    ) -> Option<T> {
        let (now, me, waiter) = (agent.now(), agent.trace_actor(), agent.waiter());
        let (message, writer) = {
            let mut world = agent.kernel().world();
            let (st, log) = world.pair_mut(self.state, self.log);
            let Some(message) = st.buffer.pop_front() else {
                if let Some(ticket) = blocked {
                    let t = st.ticket(ticket);
                    enqueue_waiter(&mut st.readers, t, waiter);
                }
                return None;
            };
            log.comm(me, now, self.actor, CommKind::Read);
            log.queue_depth(self.actor, now, st.depth(), st.capacity);
            (message, st.writers.pop_front())
        };
        if let Some((_, w)) = writer {
            w.wake(agent.kernel());
        }
        Some(message)
    }

    /// One attempt of a write ([`Op::write`]): decides the message's
    /// fault-lane fate on the first attempt (a retry after blocking is
    /// the same message), then [`put`](QueueRef::put)s it as a blocked
    /// writer.
    pub(crate) fn write_step(
        &self,
        party: &mut dyn Party,
        message: T,
        ticket: &mut Option<u64>,
    ) -> Result<(), T> {
        if ticket.is_none() {
            let now = party.now();
            let mut world = party.kernel().world();
            if let Some(lane) = world.get(self.state).lane {
                if world.get_mut(lane).should_drop(now) {
                    world
                        .get_mut(self.log)
                        .fault(self.actor, now, FaultKind::DropMessage, 0);
                    return Ok(());
                }
            }
        }
        self.put(party, message, Some(ticket))
    }

    /// Appends `message`, blocking while the queue is full.
    pub fn write(&self, agent: &mut dyn Agent, message: T) {
        Op::write(self, message).run(agent);
    }

    /// Removes the oldest message, blocking while the queue is empty.
    pub fn read(&self, agent: &mut dyn Agent) -> T {
        Op::read(self)
            .run(agent)
            .expect("a queue read gets a message")
    }

    /// Appends without blocking; returns the message back on a full queue.
    pub fn try_write(&self, agent: &mut dyn Party, message: T) -> Result<(), T> {
        self.put(agent, message, None)
    }

    /// Removes the oldest message without blocking.
    pub fn try_read(&self, agent: &mut dyn Party) -> Option<T> {
        self.take(agent, None)
    }
}

impl<T: Clone + Send + 'static> fmt::Debug for MessageQueue<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (depth, capacity, readers, writers) = self.with_state("MessageQueue::fmt", |st| {
            (
                st.buffer.len(),
                st.capacity,
                st.readers.len(),
                st.writers.len(),
            )
        });
        f.debug_struct("MessageQueue")
            .field("name", &self.name)
            .field("depth", &depth)
            .field("capacity", &capacity)
            .field("blocked_readers", &readers)
            .field("blocked_writers", &writers)
            .finish()
    }
}
