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
use std::sync::Arc;

use rtsim_kernel::sync::Mutex;
use rtsim_core::agent::{Agent, Waiter};
use rtsim_fault::ChannelLane;
use rtsim_trace::{ActorKind, CommKind, FaultKind, TraceRecorder};

struct QState<T> {
    buffer: VecDeque<T>,
    capacity: usize,
    readers: VecDeque<(u64, Waiter)>,
    writers: VecDeque<(u64, Waiter)>,
    /// Installed by a fault plan: consulted once per message, on the
    /// first attempt of each write (never on blocked retries).
    lane: Option<Arc<ChannelLane>>,
    /// Seniority counter for blocked ends: each *first* registration
    /// takes the next ticket, and a waiter that is woken but loses the
    /// race for the freed slot (a running task wrote/read first without
    /// ever blocking) re-registers under its original ticket, so the
    /// wait lists stay ordered by who blocked first — not by who
    /// happened to retry last.
    next_ticket: u64,
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
/// Cloning yields another handle to the same queue.
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
    state: Arc<Mutex<QState<T>>>,
    actor: rtsim_trace::ActorId,
    recorder: TraceRecorder,
    name: Arc<str>,
}

impl<T> Clone for MessageQueue<T> {
    fn clone(&self) -> Self {
        MessageQueue {
            state: Arc::clone(&self.state),
            actor: self.actor,
            recorder: self.recorder.clone(),
            name: Arc::clone(&self.name),
        }
    }
}

impl<T: Send> MessageQueue<T> {
    /// Creates a queue holding at most `capacity` messages.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero — use [`Rendezvous`](crate::Rendezvous)
    /// for unbuffered, fully synchronizing transfers.
    pub fn new(recorder: &TraceRecorder, name: &str, capacity: usize) -> Self {
        assert!(capacity > 0, "message queue capacity must be positive");
        let actor = recorder.register(name, ActorKind::Relation);
        MessageQueue {
            state: Arc::new(Mutex::new(QState {
                buffer: VecDeque::with_capacity(capacity),
                capacity,
                readers: VecDeque::new(),
                writers: VecDeque::new(),
                lane: None,
                next_ticket: 0,
            })),
            actor,
            recorder: recorder.clone(),
            name: Arc::from(name),
        }
    }

    /// The relation's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The relation's trace actor.
    pub fn actor(&self) -> rtsim_trace::ActorId {
        self.actor
    }

    /// The configured capacity.
    pub fn capacity(&self) -> usize {
        self.state.lock().capacity
    }

    /// Installs a fault plan's dropout lane: every subsequent write's
    /// *first* attempt consults it, and a dropped message vanishes in
    /// transit — the writer proceeds as if delivered, the buffer never
    /// sees it, and the trace gains a `drop-message` fault record on
    /// this relation.
    pub fn install_fault_lane(&self, lane: Arc<ChannelLane>) {
        self.state.lock().lane = Some(lane);
    }

    /// Messages currently buffered.
    pub fn len(&self) -> usize {
        self.state.lock().buffer.len()
    }

    /// Returns `true` if no message is buffered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Non-blocking step of [`write`](MessageQueue::write): appends the
    /// message, or — on a full queue — registers the agent's waiter (the
    /// next read will wake it) and hands the message back. The caller
    /// must then suspend and retry, threading `ticket` through every
    /// retry of the *same* write: the queue stores the waiter's
    /// seniority there on first registration, and a retry that loses the
    /// freed slot to a barging task re-queues at its original FIFO
    /// position instead of the back. Used directly by the script
    /// interpreter; [`write`](MessageQueue::write) is the blocking
    /// wrapper.
    pub fn write_attempt(
        &self,
        agent: &mut dyn Agent,
        message: T,
        ticket: &mut Option<u64>,
    ) -> Result<(), T> {
        // Fault lane: decide each message's fate exactly once, on its
        // first attempt — a retry after blocking is the same message.
        if ticket.is_none() {
            let lane = self.state.lock().lane.clone();
            if let Some(lane) = lane {
                let now = agent.now();
                if lane.should_drop(now) {
                    self.recorder
                        .fault(self.actor, now, FaultKind::DropMessage, 0);
                    return Ok(());
                }
            }
        }
        let wake = {
            let mut st = self.state.lock();
            if st.buffer.len() < st.capacity {
                st.buffer.push_back(message);
                let depth = st.buffer.len();
                let cap = st.capacity;
                let reader = st.readers.pop_front().map(|(_, w)| w);
                drop(st);
                let now = agent.now();
                self.recorder
                    .comm(agent.trace_actor(), now, self.actor, CommKind::Write);
                self.recorder.queue_depth(self.actor, now, depth, cap);
                reader
            } else {
                let t = match *ticket {
                    Some(t) => t,
                    None => {
                        let t = st.next_ticket;
                        st.next_ticket += 1;
                        *ticket = Some(t);
                        t
                    }
                };
                enqueue_waiter(&mut st.writers, t, agent.waiter());
                return Err(message);
            }
        };
        if let Some(w) = wake {
            w.wake(agent.kernel());
        }
        Ok(())
    }

    /// Appends `message`, blocking while the queue is full.
    pub fn write(&self, agent: &mut dyn Agent, message: T) {
        let mut message = message;
        let mut ticket = None;
        loop {
            match self.write_attempt(agent, message, &mut ticket) {
                Ok(()) => return,
                Err(m) => {
                    message = m;
                    agent.suspend(false);
                }
            }
        }
    }

    /// Non-blocking step of [`read`](MessageQueue::read): removes the
    /// oldest message, or — on an empty queue — registers the agent's
    /// waiter and returns `None`; the caller must suspend and retry,
    /// threading `ticket` exactly as in
    /// [`write_attempt`](MessageQueue::write_attempt).
    pub fn read_attempt(&self, agent: &mut dyn Agent, ticket: &mut Option<u64>) -> Option<T> {
        let (message, wake) = {
            let mut st = self.state.lock();
            match st.buffer.pop_front() {
                Some(m) => {
                    let depth = st.buffer.len();
                    let cap = st.capacity;
                    let writer = st.writers.pop_front().map(|(_, w)| w);
                    drop(st);
                    let now = agent.now();
                    self.recorder
                        .comm(agent.trace_actor(), now, self.actor, CommKind::Read);
                    self.recorder.queue_depth(self.actor, now, depth, cap);
                    (m, writer)
                }
                None => {
                    let t = match *ticket {
                        Some(t) => t,
                        None => {
                            let t = st.next_ticket;
                            st.next_ticket += 1;
                            *ticket = Some(t);
                            t
                        }
                    };
                    enqueue_waiter(&mut st.readers, t, agent.waiter());
                    return None;
                }
            }
        };
        if let Some(w) = wake {
            w.wake(agent.kernel());
        }
        Some(message)
    }

    /// Removes the oldest message, blocking while the queue is empty.
    pub fn read(&self, agent: &mut dyn Agent) -> T {
        let mut ticket = None;
        loop {
            match self.read_attempt(agent, &mut ticket) {
                Some(m) => return m,
                None => agent.suspend(false),
            }
        }
    }

    /// Appends without blocking; returns the message back on a full queue.
    pub fn try_write(&self, agent: &mut dyn Agent, message: T) -> Result<(), T> {
        let wake = {
            let mut st = self.state.lock();
            if st.buffer.len() >= st.capacity {
                return Err(message);
            }
            st.buffer.push_back(message);
            let depth = st.buffer.len();
            let cap = st.capacity;
            let reader = st.readers.pop_front().map(|(_, w)| w);
            drop(st);
            let now = agent.now();
            self.recorder
                .comm(agent.trace_actor(), now, self.actor, CommKind::Write);
            self.recorder.queue_depth(self.actor, now, depth, cap);
            reader
        };
        if let Some(w) = wake {
            w.wake(agent.kernel());
        }
        Ok(())
    }

    /// Removes the oldest message without blocking.
    pub fn try_read(&self, agent: &mut dyn Agent) -> Option<T> {
        let (message, wake) = {
            let mut st = self.state.lock();
            let m = st.buffer.pop_front()?;
            let depth = st.buffer.len();
            let cap = st.capacity;
            let writer = st.writers.pop_front().map(|(_, w)| w);
            drop(st);
            let now = agent.now();
            self.recorder
                .comm(agent.trace_actor(), now, self.actor, CommKind::Read);
            self.recorder.queue_depth(self.actor, now, depth, cap);
            (m, writer)
        };
        if let Some(w) = wake {
            w.wake(agent.kernel());
        }
        Some(message)
    }
}

impl<T> fmt::Debug for MessageQueue<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let st = self.state.lock();
        f.debug_struct("MessageQueue")
            .field("name", &self.name)
            .field("depth", &st.buffer.len())
            .field("capacity", &st.capacity)
            .field("blocked_readers", &st.readers.len())
            .field("blocked_writers", &st.writers.len())
            .finish()
    }
}
