//! Rendezvous (unbuffered) message passing.
//!
//! The paper's message queue carries a *capacity* parameter; the
//! degenerate capacity-zero point is the classic **rendezvous**: a write
//! blocks until a reader takes the message, and a read blocks until a
//! writer offers one — both sides synchronize at the transfer instant
//! (Ada rendezvous / CSP channel semantics). [`MessageQueue`] rejects
//! capacity 0 and points here instead.
//!
//! [`MessageQueue`]: crate::MessageQueue

use std::collections::VecDeque;
use std::fmt;
use std::sync::Arc;

use rtsim_core::agent::{Agent, Waiter};
use rtsim_kernel::world::Slot;
use rtsim_trace::{ActorKind, CommKind, TraceRecorder};

#[derive(Clone)]
struct RvState<T> {
    /// The in-flight message and the writer to acknowledge on take-over.
    slot: Option<(T, Waiter)>,
    readers: VecDeque<Waiter>,
    writers: VecDeque<Waiter>,
}

/// An unbuffered, fully synchronizing channel between MCSE functions.
///
/// Cloning yields another handle to the same channel. Multiple writers
/// and readers are served first-come-first-served.
///
/// # Examples
///
/// ```
/// use rtsim_comm::Rendezvous;
/// use rtsim_core::{Processor, ProcessorConfig, TaskConfig};
/// use rtsim_kernel::{SimDuration, Simulator};
/// use rtsim_trace::TraceRecorder;
///
/// # fn main() -> Result<(), rtsim_kernel::KernelError> {
/// let mut sim = Simulator::new();
/// let rec = TraceRecorder::new();
/// let cpu = Processor::new(&mut sim, &rec, ProcessorConfig::new("CPU"));
/// let rv: Rendezvous<u32> = Rendezvous::new(&rec, "handoff");
///
/// let tx = rv.clone();
/// cpu.spawn_task(&mut sim, TaskConfig::new("offer").priority(2), move |t| {
///     tx.write(t, 7); // blocks until `take` reads, at 100 µs
///     assert_eq!(t.now().as_us(), 100);
/// });
/// cpu.spawn_task(&mut sim, TaskConfig::new("take").priority(1), move |t| {
///     t.delay(SimDuration::from_us(100));
///     assert_eq!(rv.read(t), 7);
/// });
/// sim.run()?;
/// # Ok(())
/// # }
/// ```
pub struct Rendezvous<T> {
    state: Slot<RvState<T>>,
    actor: rtsim_trace::ActorId,
    recorder: TraceRecorder,
    name: Arc<str>,
}

impl<T> Clone for Rendezvous<T> {
    fn clone(&self) -> Self {
        Rendezvous {
            state: self.state,
            actor: self.actor,
            recorder: self.recorder.clone(),
            name: Arc::clone(&self.name),
        }
    }
}

impl<T: Clone + Send + 'static> Rendezvous<T> {
    /// Creates a rendezvous channel, its state in `recorder`'s world.
    pub fn new(recorder: &TraceRecorder, name: &str) -> Self {
        let actor = recorder.register(name, ActorKind::Relation);
        let state = recorder
            .world()
            .lock_for("Rendezvous::new")
            .insert(RvState {
                slot: None,
                readers: VecDeque::new(),
                writers: VecDeque::new(),
            });
        Rendezvous {
            state,
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

    /// Records an access by `agent`.
    fn record(&self, agent: &mut dyn Agent, kind: CommKind) {
        let (now, me) = (agent.now(), agent.trace_actor());
        agent
            .kernel()
            .world()
            .get_mut(self.recorder.log())
            .comm(me, now, self.actor, kind);
    }

    /// Offers `message` and blocks until a reader takes it.
    pub fn write(&self, agent: &mut dyn Agent, message: T) {
        let mut message = Some(message);
        loop {
            let waiter = agent.waiter();
            let reader = {
                let mut world = agent.kernel().world();
                let st = world.get_mut(self.state);
                if st.slot.is_none() {
                    st.slot = Some((message.take().expect("message present"), waiter));
                    st.readers.pop_front()
                } else {
                    // Another writer is mid-handshake: queue up.
                    st.writers.push_back(waiter);
                    None
                }
            };
            if message.is_none() {
                self.record(agent, CommKind::Write);
                if let Some(r) = reader {
                    r.wake(agent.kernel());
                }
                // Block until the reader acknowledges the take-over.
                agent.suspend(false);
                return;
            }
            agent.suspend(false);
            // Retry: the slot freed up.
        }
    }

    /// Blocks until a writer offers a message and takes it, releasing the
    /// writer at the same instant.
    pub fn read(&self, agent: &mut dyn Agent) -> T {
        loop {
            let waiter = agent.waiter();
            let taken = {
                let mut world = agent.kernel().world();
                let st = world.get_mut(self.state);
                match st.slot.take() {
                    Some((message, writer)) => Some((message, writer, st.writers.pop_front())),
                    None => {
                        st.readers.push_back(waiter);
                        None
                    }
                }
            };
            match taken {
                Some((message, writer, next_writer)) => {
                    self.record(agent, CommKind::Read);
                    writer.wake(agent.kernel());
                    if let Some(w) = next_writer {
                        w.wake(agent.kernel());
                    }
                    return message;
                }
                None => agent.suspend(false),
            }
        }
    }
}

impl<T: Clone + Send + 'static> fmt::Debug for Rendezvous<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let world = self.recorder.world().lock_for("Rendezvous::fmt");
        let st = world.get(self.state);
        f.debug_struct("Rendezvous")
            .field("name", &self.name)
            .field("offer_pending", &st.slot.is_some())
            .field("blocked_readers", &st.readers.len())
            .field("blocked_writers", &st.writers.len())
            .finish()
    }
}
