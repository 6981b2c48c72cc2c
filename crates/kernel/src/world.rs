//! The simulation world: every piece of mutable model state, owned in
//! one place and lent to whichever process holds the baton.
//!
//! The DATE 2004 paper picks approach B so that an RTOS service costs a
//! procedure call on the caller, not a synchronisation. The kernel runs
//! exactly one process at a time, so the model state (each processor's
//! RTOS tables, the communication relations, the trace buffer) needs no
//! lock per operation: it needs one owner. A [`World`] is that owner, a
//! slot arena of type-erased values addressed by typed [`Slot`] ids,
//! the way a kernel keeps every TCB in one table it owns.
//!
//! A [`SharedWorld`] is the world behind one lock. The
//! [`Simulator`](crate::Simulator) owns it and lends it:
//!
//! - in [`ExecMode::Segment`](crate::ExecMode) the run loop locks it once
//!   and hands `&mut World` to every inline step through
//!   [`SegmentCtx`](crate::SegmentCtx), so a step takes no lock;
//! - a thread-hosted step ([`ProcessContext::step`]) locks it once;
//! - the run loop, on whichever thread holds the kernel, gives its loan
//!   back before each thread-backed dispatch and when a run ends.
//!
//! Code outside a step (testbench accessors such as a trace snapshot or a
//! processor's statistics) locks it through
//! [`SharedWorld::lock_for`]. Called from inside a step, whose thread
//! already holds the world, such an accessor panics with its own name
//! instead of deadlocking.
//!
//! A world can be **forked** ([`World::fork`]): every slot knows how to
//! copy itself, because [`World::insert`] takes a `Clone` value. That is
//! what lets a simulator be copied at a choice point (see
//! [`Simulator::fork`](crate::Simulator::fork)). A fork can also be
//! written over another world of the same layout ([`World::fork_into`]),
//! slot by slot in place, so copying into a spare allocates next to
//! nothing. Step machines and the handles they carry therefore hold slot
//! ids, never a world: the ids mean the same slots in the fork.
//!
//! [`ProcessContext::step`]: crate::ProcessContext::step

use std::any::Any;
use std::cell::Cell;
use std::fmt;
use std::marker::PhantomData;
use std::ops::{Deref, DerefMut};
use std::sync::Arc;

use crate::sync::{Mutex, MutexGuard};

/// A typed id of one value stored in a [`World`].
///
/// A plain index: copying it is free, and it is only meaningful for the
/// world that issued it (like an [`Event`](crate::Event) for its
/// simulator).
pub struct Slot<T> {
    index: u32,
    marker: PhantomData<fn() -> T>,
}

impl<T> Slot<T> {
    /// The slot's position in its world.
    #[inline]
    pub const fn index(self) -> usize {
        self.index as usize
    }
}

impl<T> Clone for Slot<T> {
    fn clone(&self) -> Self {
        *self
    }
}

impl<T> Copy for Slot<T> {}

impl<T> PartialEq for Slot<T> {
    fn eq(&self, other: &Self) -> bool {
        self.index == other.index
    }
}

impl<T> Eq for Slot<T> {}

impl<T> std::hash::Hash for Slot<T> {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.index.hash(state);
    }
}

impl<T> fmt::Debug for Slot<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Slot#{}", self.index)
    }
}

/// Points `into` at `source`'s value, as `into.clone_from(source)` does,
/// but leaves both counts alone when they already share it: an `Arc`'s
/// `clone_from` clones and assigns, an atomic increment and decrement
/// even then. What a fork copies and elaboration fixed (names, scripts)
/// is shared this way.
pub fn share<T: ?Sized>(into: &mut Arc<T>, source: &Arc<T>) {
    if !Arc::ptr_eq(into, source) {
        *into = Arc::clone(source);
    }
}

/// Copies one type-erased slot over another (monomorphised per slot type
/// at insert): in place when `into` holds the same type, else into a new
/// box.
type CopyFn = fn(&(dyn Any + Send), &mut Box<dyn Any + Send>);

fn copy_clone<T: Any + Send + Clone>(value: &(dyn Any + Send), into: &mut Box<dyn Any + Send>) {
    let value: &T = value.downcast_ref().expect("slot holds its inserted type");
    match into.downcast_mut::<T>() {
        Some(into) => into.clone_from(value),
        None => *into = Box::new(value.clone()),
    }
}

/// The slot arena holding a simulation's mutable model state.
///
/// # Examples
///
/// ```
/// use rtsim_kernel::world::World;
///
/// let mut world = World::new();
/// let count = world.insert(0u64);
/// let names = world.insert(Vec::<String>::new());
/// let (n, list) = world.pair_mut(count, names);
/// *n += 1;
/// list.push("a".into());
/// assert_eq!((*world.get(count), world.get(names).len()), (1, 1));
/// ```
#[derive(Default)]
pub struct World {
    /// Each slot's value, and how to copy it.
    slots: Vec<(Box<dyn Any + Send>, CopyFn)>,
    loans: u64,
}

impl World {
    /// An empty world.
    pub fn new() -> Self {
        World::default()
    }

    /// An empty world with room for `slots` slots before its slot table
    /// grows.
    pub fn with_capacity(slots: usize) -> Self {
        World {
            slots: Vec::with_capacity(slots),
            loans: 0,
        }
    }

    /// Stores `value` and returns its slot. A fork of this world gets a
    /// clone of the value; a fork into another world writes it over that
    /// world's value with [`Clone::clone_from`]. A derived `Clone` does
    /// that by cloning anew, so a type whose buffers are non-empty when
    /// its world is forked should write `clone_from` by hand.
    pub fn insert<T: Any + Send + Clone>(&mut self, value: T) -> Slot<T> {
        let index = u32::try_from(self.slots.len()).expect("too many world slots");
        self.slots.push((Box::new(value), copy_clone::<T>));
        Slot {
            index,
            marker: PhantomData,
        }
    }

    /// A copy of every slot, under the same slot ids. The loan count
    /// carries over. It is [`fork_into`](World::fork_into) an empty world.
    pub fn fork(&self) -> World {
        let mut fork = World::new();
        self.fork_into(&mut fork);
        fork
    }

    /// Writes a [fork](World::fork) of this world over `into`: each slot
    /// in place where `into` holds a value of the same type under its id
    /// (a world of the same layout: no allocation but what the values'
    /// own copies make), else into a new box.
    pub fn fork_into(&self, into: &mut World) {
        let World { slots, loans } = self;
        // A placeholder a slot's copy replaces; a box of `()` allocates
        // nothing.
        into.slots.truncate(slots.len());
        into.slots
            .resize_with(slots.len(), || (Box::new(()), copy_clone::<()>));
        for ((value, copy), (target, target_copy)) in slots.iter().zip(&mut into.slots) {
            copy(value.as_ref(), target);
            *target_copy = *copy;
        }
        into.loans = *loans;
    }

    /// Number of slots.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// Whether the world holds no slot.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// How many times this world has been locked: run-loop loans,
    /// thread-hosted steps and accessors outside a step. Deterministic
    /// for a given run, so tests can bound it.
    pub fn loans(&self) -> u64 {
        self.loans
    }

    /// The value in `slot`.
    ///
    /// # Panics
    ///
    /// Panics if `slot` belongs to another world (wrong index or type).
    #[inline]
    pub fn get<T: Any>(&self, slot: Slot<T>) -> &T {
        self.slots[slot.index()]
            .0
            .downcast_ref()
            .expect("slot of another world")
    }

    /// The value in `slot`, mutably.
    ///
    /// # Panics
    ///
    /// Panics if `slot` belongs to another world (wrong index or type).
    #[inline]
    pub fn get_mut<T: Any>(&mut self, slot: Slot<T>) -> &mut T {
        self.slots[slot.index()]
            .0
            .downcast_mut()
            .expect("slot of another world")
    }

    /// Two distinct slots at once, such as an RTOS table and the trace
    /// buffer it records into.
    ///
    /// # Panics
    ///
    /// Panics if `a` and `b` are the same slot, or either belongs to
    /// another world.
    #[inline]
    pub fn pair_mut<A: Any, B: Any>(&mut self, a: Slot<A>, b: Slot<B>) -> (&mut A, &mut B) {
        let [x, y] = self
            .slots
            .get_disjoint_mut([a.index(), b.index()])
            .expect("two distinct slots of this world");
        (
            x.0.downcast_mut().expect("slot of another world"),
            y.0.downcast_mut().expect("slot of another world"),
        )
    }
}

impl fmt::Debug for World {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("World")
            .field("slots", &self.slots.len())
            .field("loans", &self.loans)
            .finish()
    }
}

thread_local! {
    /// Address of the world this thread currently holds (0: none), so a
    /// nested lock can tell "this thread is inside a step" from "another
    /// thread holds it".
    static HELD: Cell<usize> = const { Cell::new(0) };
}

/// A [`World`] behind one lock: what a simulator owns and what the
/// handles built on it (trace recorders, processors, relations) reach
/// it through. Cloning shares the same world.
#[derive(Clone, Default)]
pub struct SharedWorld(Arc<Mutex<World>>);

impl SharedWorld {
    /// A new, empty world.
    pub fn new() -> Self {
        SharedWorld::default()
    }

    /// A new, empty world with room for `slots` slots (see
    /// [`World::with_capacity`]).
    pub fn with_capacity(slots: usize) -> Self {
        SharedWorld(Arc::new(Mutex::new(World::with_capacity(slots))))
    }

    /// Whether both handles designate the same world.
    pub fn same(&self, other: &SharedWorld) -> bool {
        Arc::ptr_eq(&self.0, &other.0)
    }

    /// How many handles (this one included) share this world: the
    /// simulator's, and one per recorder, processor or relation handle
    /// built on it. Forking a simulation adds none to its world.
    pub fn handles(&self) -> usize {
        Arc::strong_count(&self.0)
    }

    /// Writes a [`World::fork`] of this world over `into`'s world (see
    /// [`World::fork_into`]). A fork is not a loan: it counts in neither
    /// world, so every fork of a world at rest starts from its count.
    ///
    /// # Panics
    ///
    /// Panics if both handles designate the same world.
    pub fn fork_into(&self, into: &SharedWorld) {
        assert!(!self.same(into), "a world cannot be forked into itself");
        let source = self.hold("SharedWorld::fork_into");
        let mut target = into.hold("SharedWorld::fork_into");
        source.fork_into(&mut target);
    }

    fn address(&self) -> usize {
        Arc::as_ptr(&self.0) as usize
    }

    /// Locks the world for `accessor`, the name of the calling function.
    ///
    /// # Panics
    ///
    /// Panics, naming `accessor`, if this thread already holds the world:
    /// that is a step calling an accessor meant for code outside a step,
    /// which would otherwise deadlock. Inside a step, reach the state
    /// through the step's [`KernelHandle::world`](crate::KernelHandle::world).
    pub fn lock_for(&self, accessor: &'static str) -> WorldGuard<'_> {
        let mut guard = self.hold(accessor);
        guard.loans += 1;
        guard
    }

    /// [`lock_for`](SharedWorld::lock_for) without counting a loan.
    fn hold(&self, accessor: &'static str) -> WorldGuard<'_> {
        let addr = self.address();
        let guard = match self.0.try_lock() {
            Some(guard) => guard,
            None if HELD.get() == addr => panic!(
                "{accessor} called inside a simulation step: this thread already \
                 holds the world on loan; use the step's KernelHandle::world() instead"
            ),
            None => self.0.lock(),
        };
        WorldGuard {
            guard,
            previous: HELD.replace(addr),
        }
    }
}

impl fmt::Debug for SharedWorld {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_tuple("SharedWorld").field(&self.0).finish()
    }
}

/// The world locked by one holder (see [`SharedWorld::lock_for`]).
pub struct WorldGuard<'a> {
    guard: MutexGuard<'a, World>,
    previous: usize,
}

impl Drop for WorldGuard<'_> {
    fn drop(&mut self) {
        HELD.set(self.previous);
    }
}

impl Deref for WorldGuard<'_> {
    type Target = World;
    fn deref(&self) -> &World {
        &self.guard
    }
}

impl DerefMut for WorldGuard<'_> {
    fn deref_mut(&mut self) -> &mut World {
        &mut self.guard
    }
}

impl fmt::Debug for WorldGuard<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_tuple("WorldGuard").field(&*self.guard).finish()
    }
}

/// The world as [`KernelHandle::world`](crate::KernelHandle::world) hands
/// it out: lent by the running step, or locked for code outside a step.
#[derive(Debug)]
pub enum WorldRef<'a> {
    /// The world a running step holds on loan.
    Lent(&'a mut World),
    /// The world locked for one call outside a step.
    Locked(WorldGuard<'a>),
}

impl Deref for WorldRef<'_> {
    type Target = World;
    #[inline]
    fn deref(&self) -> &World {
        match self {
            WorldRef::Lent(w) => w,
            WorldRef::Locked(g) => g,
        }
    }
}

impl DerefMut for WorldRef<'_> {
    #[inline]
    fn deref_mut(&mut self) -> &mut World {
        match self {
            WorldRef::Lent(w) => w,
            WorldRef::Locked(g) => g,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slots_are_typed_and_disjoint() {
        let mut w = World::new();
        let a = w.insert(1u32);
        let b = w.insert(String::from("x"));
        let (x, y) = w.pair_mut(a, b);
        *x += 1;
        y.push('y');
        assert_eq!(*w.get(a), 2);
        assert_eq!(w.get(b), "xy");
        assert_eq!(w.len(), 2);
    }

    #[test]
    #[should_panic(expected = "two distinct slots")]
    fn pair_of_one_slot_panics() {
        let mut w = World::new();
        let a = w.insert(1u32);
        let _ = w.pair_mut(a, a);
    }

    #[test]
    fn locking_counts_loans_and_clears_the_holder() {
        let shared = SharedWorld::new();
        {
            let mut g = shared.lock_for("test");
            g.insert(0u8);
        }
        assert_eq!(shared.lock_for("test").loans(), 2);
        // Not held any more: another lock on this thread succeeds.
        drop(shared.lock_for("again"));
    }

    #[test]
    #[should_panic(expected = "Nested::accessor called inside a simulation step")]
    fn nested_lock_on_the_holding_thread_panics_with_the_accessor() {
        let shared = SharedWorld::new();
        let _held = shared.lock_for("outer");
        let _ = shared.lock_for("Nested::accessor");
    }

    #[test]
    fn a_fork_copies_every_slot_under_the_same_ids() {
        let mut w = World::new();
        let a = w.insert(vec![1u32]);
        let b = w.insert(String::from("b"));
        let mut copy = w.fork();
        copy.get_mut(a).push(2);
        assert_eq!((w.get(a).len(), copy.get(a).len()), (1, 2));
        assert_eq!(copy.get(b), "b");
    }

    #[test]
    fn a_shared_fork_is_a_world_of_its_own() {
        let shared = SharedWorld::new();
        let slot = shared.lock_for("test").insert(0u8);
        let fork = SharedWorld::new();
        shared.fork_into(&fork);
        *fork.lock_for("test").get_mut(slot) = 7;
        assert!(!fork.same(&shared));
        assert_eq!((shared.handles(), fork.handles()), (1, 1));
        assert_eq!(*shared.lock_for("test").get(slot), 0);
    }

    #[test]
    fn another_thread_waits_instead_of_panicking() {
        let shared = SharedWorld::new();
        let held = shared.lock_for("outer");
        let other = shared.clone();
        let t = std::thread::spawn(move || other.lock_for("inner").loans());
        std::thread::sleep(std::time::Duration::from_millis(20));
        drop(held);
        assert_eq!(t.join().unwrap(), 2);
    }
}
