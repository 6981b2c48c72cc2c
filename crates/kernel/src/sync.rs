//! Hermetic std-only synchronization: a poison-recovering mutex, and the
//! kernel's one-slot mailboxes.
//!
//! The workspace builds with an empty cargo registry, so the external
//! `parking_lot` crate is replaced by [`Mutex`], a newtype over
//! [`std::sync::Mutex`] whose [`lock`] recovers from poisoning. In this
//! kernel a panicking simulated process is an *expected* event (the
//! scheduler converts it into `KernelError::ProcessPanicked`), so a
//! poisoned lock must not cascade the failure into unrelated processes or
//! tests. Every acquisition bumps a per-thread counter ([`locks_taken`]),
//! so tests can pin how many locks a hot path takes.
//!
//! Thread mode hands the kernel itself from process thread to process
//! thread, and home to the caller of a run, through crate-private
//! one-slot mailboxes: the sender puts the letter in the slot and
//! unparks the one thread that reads it, which parks
//! ([`std::thread::park`]) while the slot is empty. A mailbox takes every
//! letter: the handoff protocol posts only to a reader that has taken its
//! last one. Their locks are plain `std` locks and count in no
//! [`locks_taken`].
//!
//! [`lock`]: Mutex::lock

use std::cell::Cell;
use std::fmt;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{OnceLock, PoisonError};
use std::thread::{self, Thread};

thread_local! {
    static LOCKS: Cell<u64> = const { Cell::new(0) };
}

/// How many [`Mutex`] acquisitions this thread has made so far (both
/// [`Mutex::lock`] and successful [`Mutex::try_lock`] calls).
///
/// # Examples
///
/// ```
/// use rtsim_kernel::sync::{locks_taken, Mutex};
///
/// let m = Mutex::new(0);
/// let before = locks_taken();
/// *m.lock() += 1;
/// assert_eq!(locks_taken() - before, 1);
/// ```
pub fn locks_taken() -> u64 {
    LOCKS.get()
}

#[inline]
fn count_lock() {
    LOCKS.set(LOCKS.get() + 1);
}

/// A mutual-exclusion lock that shrugs off poisoning.
///
/// Semantically identical to [`std::sync::Mutex`] except that `lock`
/// returns the guard directly: if a previous holder panicked, the data is
/// still handed out. That is sound here because every protected structure
/// in the simulator is updated transactionally under the one-runner
/// protocol — a panic cannot leave it half-written in a way another
/// process could observe mid-update.
pub struct Mutex<T: ?Sized>(std::sync::Mutex<T>);

/// Guard type returned by [`Mutex::lock`].
pub type MutexGuard<'a, T> = std::sync::MutexGuard<'a, T>;

impl<T> Mutex<T> {
    /// Creates a new unlocked mutex holding `value`.
    #[inline]
    pub const fn new(value: T) -> Self {
        Mutex(std::sync::Mutex::new(value))
    }

    /// Consumes the mutex, returning the inner value (poison-recovering).
    #[inline]
    pub fn into_inner(self) -> T {
        self.0.into_inner().unwrap_or_else(|e| e.into_inner())
    }
}

impl<T: ?Sized> Mutex<T> {
    /// Acquires the lock, blocking until available.
    ///
    /// Unlike `std`, a poisoned lock (previous holder panicked) is
    /// recovered rather than propagated: the guard is returned anyway.
    #[inline]
    pub fn lock(&self) -> MutexGuard<'_, T> {
        count_lock();
        self.0.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Acquires the lock if it is free right now, `None` if another
    /// holder has it (poisoning is recovered, as in [`lock`](Self::lock)).
    #[inline]
    pub fn try_lock(&self) -> Option<MutexGuard<'_, T>> {
        let guard = match self.0.try_lock() {
            Ok(guard) => guard,
            Err(std::sync::TryLockError::Poisoned(e)) => e.into_inner(),
            Err(std::sync::TryLockError::WouldBlock) => return None,
        };
        count_lock();
        Some(guard)
    }

    /// Mutable access without locking (requires exclusive ownership).
    #[inline]
    pub fn get_mut(&mut self) -> &mut T {
        self.0.get_mut().unwrap_or_else(|e| e.into_inner())
    }
}

impl<T: Default> Default for Mutex<T> {
    fn default() -> Self {
        Mutex::new(T::default())
    }
}

impl<T: fmt::Debug> fmt::Debug for Mutex<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.0.try_lock() {
            Ok(guard) => f.debug_tuple("Mutex").field(&&*guard).finish(),
            Err(_) => f.write_str("Mutex(<locked>)"),
        }
    }
}

/// A one-slot mailbox read by one thread.
///
/// Its lock is held only to put a letter in or take it out, which cannot
/// panic, so a poisoned lock would still guard a whole slot: it is taken
/// as it is, and posting, which dropping a kernel and retiring a thread
/// do, never panics on it.
pub(crate) struct Mailbox<T> {
    slot: std::sync::Mutex<Option<T>>,
    /// The thread that takes the letters, named before the first one.
    reader: OnceLock<Thread>,
}

impl<T> Mailbox<T> {
    /// An empty mailbox whose reader is named later, with
    /// [`read_by`](Mailbox::read_by).
    pub const fn new() -> Self {
        Mailbox {
            slot: std::sync::Mutex::new(None),
            reader: OnceLock::new(),
        }
    }

    /// Names the thread that takes this mailbox's letters.
    ///
    /// # Panics
    ///
    /// Panics if the mailbox has a reader already.
    pub fn read_by(&self, reader: Thread) {
        assert!(self.reader.set(reader).is_ok(), "a mailbox has one reader");
    }

    /// Puts `letter` in the slot, which is empty, and wakes the reader.
    pub fn post(&self, letter: T) {
        let old = self
            .slot
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .replace(letter);
        debug_assert!(old.is_none(), "a mailbox holds one letter");
        self.reader
            .get()
            .expect("a mailbox's reader is named before its first letter")
            .unpark();
    }

    /// Takes the letter, parking this thread, the reader, until there is
    /// one.
    pub fn take(&self) -> T {
        loop {
            if let Some(letter) = self
                .slot
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .take()
            {
                return letter;
            }
            thread::park();
        }
    }
}

/// A count that many threads take down and one thread waits to see at
/// zero.
pub(crate) struct Latch {
    left: AtomicUsize,
    waiter: Thread,
}

impl Latch {
    /// A latch at `count`, waited on by this thread.
    pub fn new(count: usize) -> Self {
        Latch {
            left: AtomicUsize::new(count),
            waiter: thread::current(),
        }
    }

    /// Takes one off the count, and wakes the waiter at zero. What this
    /// thread did before happens before the waiter's return.
    pub fn count_down(&self) {
        if self.left.fetch_sub(1, Ordering::AcqRel) == 1 {
            self.waiter.unpark();
        }
    }

    /// Parks this thread, the waiter, until the count is zero.
    pub fn wait(&self) {
        while self.left.load(Ordering::Acquire) > 0 {
            thread::park();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn mutex_recovers_from_poisoning() {
        let m = Arc::new(Mutex::new(7u32));
        let m2 = Arc::clone(&m);
        let _ = std::thread::spawn(move || {
            let _guard = m2.lock();
            panic!("poison it");
        })
        .join();
        // A std mutex would now return Err(PoisonError); ours hands the
        // data back so later users are unaffected.
        assert_eq!(*m.lock(), 7);
        *m.lock() = 8;
        assert_eq!(*m.lock(), 8);
    }
}
