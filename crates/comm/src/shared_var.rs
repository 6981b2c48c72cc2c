//! The MCSE **shared variable** relation: data sharing under mutual
//! exclusion.
//!
//! "It exchanges data without any synchronization except mutual exclusion"
//! (paper §2). Accesses take CPU time while holding the lock, which is how
//! the paper's Figure 7 scenario arises: `Function_3` is preempted *inside*
//! a read of `SharedVar_1`, `Function_2` then blocks on the resource, and
//! on release is scheduled first — a bounded priority inversion.
//!
//! The paper proposes disabling preemption during the access as the fix
//! ([`LockMode::PreemptionMasked`]); we additionally provide the classic
//! priority-inheritance protocol ([`LockMode::PriorityInheritance`]) and
//! the immediate priority ceiling ([`LockMode::PriorityCeiling`]) as
//! extensions.

use std::collections::VecDeque;
use std::fmt;
use std::ops::Deref;
use std::sync::Arc;

use rtsim_core::agent::{Agent, Party, Waiter};
use rtsim_core::{Priority, TaskHandle};
use rtsim_kernel::world::Slot;
use rtsim_kernel::SimDuration;
use rtsim_trace::{ActorId, ActorKind, CommKind, TraceLog, TraceRecorder};

use crate::op::{Need, Op};

/// How a [`SharedVar`] protects its critical sections.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum LockMode {
    /// Plain mutual exclusion: the Figure 7 priority inversion is
    /// observable.
    #[default]
    Plain,
    /// Preemption is disabled while the lock is held (the paper's
    /// suggested fix: "disabling preemption during access to shared
    /// data").
    PreemptionMasked,
    /// The owner inherits the highest priority among blocked tasks
    /// (classic priority-inheritance protocol; extension).
    PriorityInheritance,
    /// Immediate priority ceiling ("highest locker"): a task acquiring
    /// the variable is boosted to the given ceiling priority for the
    /// whole critical section, so no task of priority up to the ceiling
    /// can even start contending — blocking is prevented rather than
    /// inherited away (OSEK/AUTOSAR-style; extension).
    PriorityCeiling(Priority),
}

impl fmt::Display for LockMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LockMode::Plain => f.write_str("plain"),
            LockMode::PreemptionMasked => f.write_str("preemption-masked"),
            LockMode::PriorityInheritance => f.write_str("priority-inheritance"),
            LockMode::PriorityCeiling(ceiling) => {
                write!(f, "priority-ceiling({})", ceiling.0)
            }
        }
    }
}

struct VState<T> {
    value: T,
    held: bool,
    owner: Option<TaskHandle>,
    owner_base_priority: Option<Priority>,
    waiters: VecDeque<Waiter>,
}

/// By hand, so that a fork into another simulation's world reuses the
/// wait list.
impl<T: Clone> Clone for VState<T> {
    fn clone(&self) -> Self {
        VState {
            value: self.value.clone(),
            held: self.held,
            owner: self.owner,
            owner_base_priority: self.owner_base_priority,
            waiters: self.waiters.clone(),
        }
    }

    fn clone_from(&mut self, source: &Self) {
        self.value.clone_from(&source.value);
        self.held = source.held;
        self.owner = source.owner;
        self.owner_base_priority = source.owner_base_priority;
        self.waiters.clone_from(&source.waiters);
    }
}

/// A shared variable with mutual exclusion, connecting MCSE functions.
///
/// Cloning yields another handle to the same variable.
///
/// # Examples
///
/// ```
/// use rtsim_comm::{LockMode, SharedVar};
/// use rtsim_core::{Processor, ProcessorConfig, TaskConfig};
/// use rtsim_kernel::{SimDuration, Simulator};
/// use rtsim_trace::TraceRecorder;
///
/// # fn main() -> Result<(), rtsim_kernel::KernelError> {
/// let mut sim = Simulator::new();
/// let rec = TraceRecorder::new();
/// let cpu = Processor::new(&mut sim, &rec, ProcessorConfig::new("CPU"));
/// let var = SharedVar::new(&rec, "SharedVar_1", 0u32, LockMode::Plain);
///
/// let writer = var.clone();
/// cpu.spawn_task(&mut sim, TaskConfig::new("writer").priority(5), move |t| {
///     writer.write_for(t, SimDuration::from_us(10), 42);
/// });
/// cpu.spawn_task(&mut sim, TaskConfig::new("reader").priority(3), move |t| {
///     let v = var.read_for(t, SimDuration::from_us(10));
///     assert_eq!(v, 42);
/// });
/// sim.run()?;
/// # Ok(())
/// # }
/// ```
pub struct SharedVar<T> {
    ids: VarRef<T>,
    recorder: TraceRecorder,
    name: Arc<str>,
}

impl<T> Clone for SharedVar<T> {
    fn clone(&self) -> Self {
        SharedVar {
            ids: self.ids,
            recorder: self.recorder.clone(),
            name: Arc::clone(&self.name),
        }
    }
}

impl<T> Deref for SharedVar<T> {
    type Target = VarRef<T>;
    fn deref(&self) -> &VarRef<T> {
        &self.ids
    }
}

/// The slot ids of a [`SharedVar`]: every operation a simulation step
/// performs on the variable, and nothing that reaches a world. A step
/// machine holds this, so a forked simulation's copy of the machine
/// works on the fork's variable.
pub struct VarRef<T> {
    state: Slot<VState<T>>,
    mode: LockMode,
    actor: ActorId,
    log: Slot<TraceLog>,
}

impl<T> Clone for VarRef<T> {
    fn clone(&self) -> Self {
        *self
    }
}

impl<T> Copy for VarRef<T> {}

impl<T> fmt::Debug for VarRef<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("VarRef")
            .field("state", &self.state)
            .field("mode", &self.mode)
            .field("actor", &self.actor)
            .finish()
    }
}

impl<T: Clone + Send + 'static> SharedVar<T> {
    /// Creates a shared variable with the given initial value and
    /// protection mode, its state in `recorder`'s world.
    pub fn new(recorder: &TraceRecorder, name: &str, initial: T, mode: LockMode) -> Self {
        let actor = recorder.register(name, ActorKind::Relation);
        let state = recorder.world().lock_for("SharedVar::new").insert(VState {
            value: initial,
            held: false,
            owner: None,
            owner_base_priority: None,
            waiters: VecDeque::new(),
        });
        SharedVar {
            ids: VarRef {
                state,
                mode,
                actor,
                log: recorder.log(),
            },
            recorder: recorder.clone(),
            name: Arc::from(name),
        }
    }

    /// The relation's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The variable's slot ids, for a step machine.
    pub fn ids(&self) -> VarRef<T> {
        self.ids
    }
}

impl<T: Clone + Send + 'static> VarRef<T> {
    /// The relation's trace actor.
    pub fn actor(&self) -> ActorId {
        self.actor
    }

    /// The protection mode.
    pub fn mode(&self) -> LockMode {
        self.mode
    }

    /// One acquisition attempt: takes the lock (applying the ceiling
    /// boost, the held record and the preemption mask) and returns
    /// `true`, or registers the party's waiter (applying the inheritance
    /// boost) and returns `false` — the caller must then suspend in the
    /// waiting-for-resource state and attempt again.
    pub(crate) fn acquire_step(&self, agent: &mut dyn Party) -> bool {
        let (now, me) = (agent.now(), agent.waiter());
        {
            let mut world = agent.kernel().world();
            let held = world.get(self.state).held;
            if held {
                // Priority inheritance: boost the owner if we outrank it.
                let owner = world.get(self.state).owner;
                if let (LockMode::PriorityInheritance, Some(owner), Waiter::Task(me)) =
                    (self.mode, owner, me)
                {
                    let mine = me.priority_in(&world);
                    if mine > owner.priority_in(&world) {
                        owner.set_priority_in(&mut world, mine);
                    }
                }
                world.get_mut(self.state).waiters.push_back(me);
                return false;
            }
            let owner = match me {
                Waiter::Task(handle) => {
                    let base = handle.priority_in(&world);
                    // Immediate priority ceiling: boost for the whole
                    // critical section, before any contender appears.
                    if let LockMode::PriorityCeiling(ceiling) = self.mode {
                        if ceiling > base {
                            handle.set_priority_in(&mut world, ceiling);
                        }
                    }
                    Some((handle, base))
                }
                Waiter::Hw(_) => None,
            };
            let (st, log) = world.pair_mut(self.state, self.log);
            st.held = true;
            if let Some((handle, base)) = owner {
                st.owner_base_priority = Some(base);
                st.owner = Some(handle);
            }
            log.resource_held(self.actor, now, true);
        }
        if self.mode == LockMode::PreemptionMasked {
            agent.lock_preemption();
        }
        true
    }

    /// Releases the lock: restores the owner's base priority, wakes the
    /// next waiter, and returns the mode's follow-up — which the caller
    /// must perform (it may yield the CPU).
    pub(crate) fn release_step(&self, agent: &mut dyn Party) -> Option<Need> {
        let now = agent.now();
        let next = {
            let mut world = agent.kernel().world();
            let st = world.get_mut(self.state);
            debug_assert!(st.held, "release of a free shared variable");
            st.held = false;
            let owner = st.owner.take().zip(st.owner_base_priority.take());
            let next = st.waiters.pop_front();
            // Restore the owner's base priority (inheritance or ceiling).
            if matches!(
                self.mode,
                LockMode::PriorityInheritance | LockMode::PriorityCeiling(_)
            ) {
                if let Some((owner, base)) = owner {
                    owner.set_priority_in(&mut world, base);
                }
            }
            world
                .get_mut(self.log)
                .resource_held(self.actor, now, false);
            next
        };
        if let Some(w) = next {
            w.wake(agent.kernel());
        }
        match self.mode {
            // Leaving the critical region may preempt the caller on the
            // spot if the woken waiter outranks it.
            LockMode::PreemptionMasked => Some(Need::UnlockPreemption),
            // The caller just dropped back to its base priority: a ready
            // task it was shielding may now outrank it.
            LockMode::PriorityCeiling(_) => Some(Need::Reschedule),
            LockMode::Plain | LockMode::PriorityInheritance => None,
        }
    }

    /// Clones the value. Meaningful only while `agent` holds the lock.
    pub(crate) fn get(&self, agent: &mut dyn Party) -> T {
        agent.kernel().world().get(self.state).value.clone()
    }

    /// Stores a value. Meaningful only while `agent` holds the lock.
    pub(crate) fn set(&self, agent: &mut dyn Party, value: T) {
        agent.kernel().world().get_mut(self.state).value = value;
    }

    /// Records a completed access (the `CommKind::Read`/`Write` record
    /// that follows the release).
    pub(crate) fn record(&self, agent: &mut dyn Party, kind: CommKind) {
        let (now, me) = (agent.now(), agent.trace_actor());
        agent
            .kernel()
            .world()
            .get_mut(self.log)
            .comm(me, now, self.actor, kind);
    }

    /// Reads the value instantaneously (still subject to mutual
    /// exclusion).
    pub fn read(&self, agent: &mut dyn Agent) -> T {
        self.read_for(agent, SimDuration::ZERO)
    }

    /// Reads the value, consuming `duration` of CPU time while holding
    /// the lock — the shape of the paper's Figure 7 read operation.
    pub fn read_for(&self, agent: &mut dyn Agent, duration: SimDuration) -> T {
        Op::read_for(self, duration)
            .run(agent)
            .expect("a shared-variable read gets the value")
    }

    /// Writes the value instantaneously (still subject to mutual
    /// exclusion).
    pub fn write(&self, agent: &mut dyn Agent, value: T) {
        self.write_for(agent, SimDuration::ZERO, value);
    }

    /// Writes the value, consuming `duration` of CPU time while holding
    /// the lock.
    pub fn write_for(&self, agent: &mut dyn Agent, duration: SimDuration, value: T) {
        Op::write_for(self, duration, value).run(agent);
    }
}

impl<T: Send + 'static> fmt::Debug for SharedVar<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let world = self.recorder.world().lock_for("SharedVar::fmt");
        let st = world.get(self.ids.state);
        f.debug_struct("SharedVar")
            .field("name", &self.name)
            .field("mode", &self.ids.mode)
            .field("held", &st.held)
            .field("waiters", &st.waiters.len())
            .finish()
    }
}
