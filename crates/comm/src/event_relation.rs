//! The MCSE **event** relation: synchronization between functions.
//!
//! The paper (§2) models synchronization events with three memorization
//! policies:
//!
//! - **fugitive** — no memorization, "like SystemC `sc_event`": a signal
//!   with no waiter is lost;
//! - **boolean** — one level of memorization: a signal sets a flag that
//!   the next wait consumes;
//! - **counter** — every signal increments a count; every wait consumes
//!   one unit.
//!
//! Signalling a memorized event wakes at most one waiter per token;
//! signalling a fugitive event wakes every current waiter (broadcast
//! synchronization, as `sc_event::notify`).

use std::collections::VecDeque;
use std::fmt;
use std::ops::Deref;
use std::sync::Arc;

use rtsim_core::agent::{Agent, Party, Waiter};
use rtsim_fault::ChannelLane;
use rtsim_kernel::world::Slot;
use rtsim_trace::{ActorId, ActorKind, CommKind, FaultKind, TraceLog, TraceRecorder};

use crate::op::Op;

/// Memorization policy of an [`RtEvent`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum EventPolicy {
    /// No memory (SystemC `sc_event`); signals without waiters are lost.
    #[default]
    Fugitive,
    /// One memorized signal (a flag).
    Boolean,
    /// Counted signals (a semaphore-like token count).
    Counter,
}

impl fmt::Display for EventPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            EventPolicy::Fugitive => "fugitive",
            EventPolicy::Boolean => "boolean",
            EventPolicy::Counter => "counter",
        };
        f.write_str(s)
    }
}

struct EvState {
    policy: EventPolicy,
    tokens: u64,
    waiters: VecDeque<Waiter>,
    /// Installed by a fault plan: consulted once per signal.
    lane: Option<Slot<ChannelLane>>,
}

/// By hand, so that a fork into another simulation's world reuses its
/// wait list.
impl Clone for EvState {
    fn clone(&self) -> Self {
        EvState {
            policy: self.policy,
            tokens: self.tokens,
            waiters: self.waiters.clone(),
            lane: self.lane,
        }
    }

    fn clone_from(&mut self, source: &Self) {
        self.policy = source.policy;
        self.tokens = source.tokens;
        self.waiters.clone_from(&source.waiters);
        self.lane = source.lane;
    }
}

/// A synchronization event between MCSE functions, usable across
/// processors and between hardware and software.
///
/// Cloning yields another handle to the same event. The operations live
/// on the event's [`EventRef`] (reached through `Deref`); the handle adds
/// the accessors for code outside a step.
///
/// # Examples
///
/// ```
/// use rtsim_comm::{EventPolicy, RtEvent};
/// use rtsim_core::{Processor, ProcessorConfig, TaskConfig};
/// use rtsim_kernel::{SimDuration, Simulator};
/// use rtsim_trace::TraceRecorder;
///
/// # fn main() -> Result<(), rtsim_kernel::KernelError> {
/// let mut sim = Simulator::new();
/// let rec = TraceRecorder::new();
/// let cpu = Processor::new(&mut sim, &rec, ProcessorConfig::new("CPU"));
/// let ev = RtEvent::new(&rec, "Event_1", EventPolicy::Boolean);
///
/// let producer_ev = ev.clone();
/// cpu.spawn_task(&mut sim, TaskConfig::new("producer").priority(5), move |t| {
///     t.execute(SimDuration::from_us(10));
///     producer_ev.signal(t);
/// });
/// cpu.spawn_task(&mut sim, TaskConfig::new("consumer").priority(3), move |t| {
///     ev.wait(t);
///     t.execute(SimDuration::from_us(5));
/// });
/// sim.run()?;
/// assert_eq!(sim.now().as_us(), 15);
/// # Ok(())
/// # }
/// ```
#[derive(Clone)]
pub struct RtEvent {
    ids: EventRef,
    recorder: TraceRecorder,
    name: Arc<str>,
}

impl Deref for RtEvent {
    type Target = EventRef;
    fn deref(&self) -> &EventRef {
        &self.ids
    }
}

/// The slot ids of an [`RtEvent`]: every operation a simulation step
/// performs on the event, and nothing that reaches a world. A step
/// machine holds this, so a forked simulation's copy of the machine
/// works on the fork's event.
#[derive(Debug, Clone, Copy)]
pub struct EventRef {
    state: Slot<EvState>,
    actor: ActorId,
    log: Slot<TraceLog>,
}

impl RtEvent {
    /// Creates an event relation with the given memorization policy, its
    /// state in `recorder`'s world.
    pub fn new(recorder: &TraceRecorder, name: &str, policy: EventPolicy) -> Self {
        let actor = recorder.register(name, ActorKind::Relation);
        let state = recorder.world().lock_for("RtEvent::new").insert(EvState {
            policy,
            tokens: 0,
            waiters: VecDeque::new(),
            lane: None,
        });
        RtEvent {
            ids: EventRef {
                state,
                actor,
                log: recorder.log(),
            },
            recorder: recorder.clone(),
            name: Arc::from(name),
        }
    }

    /// The event's slot ids, for a step machine.
    pub fn ids(&self) -> EventRef {
        self.ids
    }

    /// Runs `f` on the event state, locking the world (code outside a
    /// step only).
    fn with_state<R>(&self, accessor: &'static str, f: impl FnOnce(&mut EvState) -> R) -> R {
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

    /// The configured policy.
    pub fn policy(&self) -> EventPolicy {
        self.with_state("RtEvent::policy", |st| st.policy)
    }

    /// Number of memorized signals (always 0 for fugitive events).
    pub fn pending(&self) -> u64 {
        self.with_state("RtEvent::pending", |st| st.tokens)
    }

    /// Installs a fault plan's dropout lane (a slot of this event's
    /// world): every subsequent signal consults it, and a dropped
    /// notification vanishes in transit — no token is memorized, no
    /// waiter wakes, and the trace gains a `drop-signal` fault record on
    /// this relation.
    pub fn install_fault_lane(&self, lane: Slot<ChannelLane>) {
        self.with_state("RtEvent::install_fault_lane", |st| st.lane = Some(lane));
    }
}

impl EventRef {
    /// The relation's trace actor.
    pub fn actor(&self) -> ActorId {
        self.actor
    }

    /// Signals the event from `agent`.
    ///
    /// Fugitive: wakes every current waiter, remembers nothing. Boolean:
    /// sets the flag (saturating) and wakes one waiter. Counter: adds a
    /// token and wakes one waiter.
    pub fn signal(&self, agent: &mut dyn Party) {
        let (now, me, log) = (agent.now(), agent.trace_actor(), self.log);
        let fugitive = {
            let mut world = agent.kernel().world();
            let lane = world.get(self.state).lane;
            if lane.is_some_and(|lane| world.get_mut(lane).should_drop(now)) {
                world
                    .get_mut(log)
                    .fault(self.actor, now, FaultKind::DropSignal, 0);
                return;
            }
            let (st, log) = world.pair_mut(self.state, log);
            log.comm(me, now, self.actor, CommKind::Signal);
            match st.policy {
                EventPolicy::Fugitive => true,
                EventPolicy::Boolean => {
                    st.tokens = 1;
                    false
                }
                EventPolicy::Counter => {
                    st.tokens += 1;
                    false
                }
            }
        };
        if fugitive {
            // Every current waiter. The list moves out whole and its
            // drained buffer goes back, so nothing allocates; waking never
            // registers a waiter, so the slot is still empty then.
            let mut waiters =
                std::mem::take(&mut agent.kernel().world().get_mut(self.state).waiters);
            for waiter in waiters.drain(..) {
                waiter.wake(agent.kernel());
            }
            let mut world = agent.kernel().world();
            let st = world.get_mut(self.state);
            debug_assert!(st.waiters.is_empty());
            st.waiters = waiters;
        } else {
            let next = agent
                .kernel()
                .world()
                .get_mut(self.state)
                .waiters
                .pop_front();
            if let Some(waiter) = next {
                waiter.wake(agent.kernel());
            }
        }
    }

    /// Consumes a token and records the read; with no token, registers
    /// the party's waiter when given `registered` (a blocking wait,
    /// [`Op::wait`]) and returns `false`. A memorized wait attempts again
    /// after the wake, since another task may have consumed the token in
    /// between; a fugitive wait, once `registered`, is over at the wake
    /// (the wake *is* the signal) and records its read then.
    pub(crate) fn consume(&self, party: &mut dyn Party, registered: Option<&mut bool>) -> bool {
        let (now, me, waiter) = (party.now(), party.trace_actor(), party.waiter());
        let mut world = party.kernel().world();
        let (st, log) = world.pair_mut(self.state, self.log);
        let fugitive = st.policy == EventPolicy::Fugitive;
        if fugitive && registered.as_deref() == Some(&true) || !fugitive && st.tokens > 0 {
            if !fugitive {
                st.tokens -= 1;
            }
            log.comm(me, now, self.actor, CommKind::Read);
            return true;
        }
        if let Some(registered) = registered {
            st.waiters.push_back(waiter);
            *registered = true;
        }
        false
    }

    /// Blocks `agent` until the event is signalled (consuming one token
    /// for memorized policies). Returns immediately if a token is already
    /// memorized.
    pub fn wait(&self, agent: &mut dyn Agent) {
        Op::<()>::wait(self).run(agent);
    }

    /// Consumes a token without blocking; `true` on success. Always
    /// `false` for fugitive events (they cannot be polled).
    pub fn try_wait(&self, agent: &mut dyn Party) -> bool {
        self.consume(agent, None)
    }
}

impl fmt::Debug for RtEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (policy, tokens, waiters) = self.with_state("RtEvent::fmt", |st| {
            (st.policy, st.tokens, st.waiters.len())
        });
        f.debug_struct("RtEvent")
            .field("name", &self.name)
            .field("policy", &policy)
            .field("tokens", &tokens)
            .field("waiters", &waiters)
            .finish()
    }
}
