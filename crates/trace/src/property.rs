//! Properties: named checks over a run's trace, folded as it grows.
//!
//! One interface serves every check the project makes of a simulated
//! system: the timing constraints a model declares (the paper's
//! "automatic verification of timing constraints by simulation") and the
//! schedule explorer's invariant oracles. A model declares its properties
//! once; the same ones are then checked after a plain run and on every
//! schedule the explorer reaches.
//!
//! A property is a monitor, the way Spin steps a never claim with the
//! model instead of reading a finished log: it folds the records a run
//! appends into a plain-data [state](Property::State), a slice at a
//! time, and [finishes](Property::finish) that state into findings. A
//! simulated system keeps one state per declared property, so a fork of
//! it carries what its properties have seen, and the schedule explorer
//! checks a leaf by folding only the records its own run added.
//! [`check`](Property::check) over a whole [`Trace`] is the same fold.

use std::hash::Hash;

use rtsim_kernel::SimTime;

use crate::record::{ActorInfo, Record};
use crate::recorder::Trace;

/// One verdict of a property on one trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// The reporting property's [name](Property::name).
    pub property: String,
    /// Whether the trace satisfies what this finding checked.
    pub holds: bool,
    /// Human-readable detail: the measured value, or the breach.
    pub message: String,
}

/// A named check over a trace, folded one slice of records at a time.
///
/// A property reports as many findings as suits it: a timing constraint
/// one verdict, pass or fail; an invariant oracle one failing finding per
/// breach, and none when it holds.
///
/// Folding a trace in any number of slices, with the state copied by
/// `clone_from` in between, finishes with the findings of folding it
/// whole: the explorer relies on that.
pub trait Property: Send + Sync + 'static {
    /// What the property keeps of the records folded so far: plain data,
    /// empty by default. A run's fork copies it with
    /// [`Clone::clone_from`], so a state holding buffers writes
    /// `clone_from` by hand (see [`ActorTable`]); a derived `Clone`'s
    /// clones anew.
    type State: Clone + Default + Hash + Send + Sync + 'static;

    /// Stable name used in reports and counterexamples.
    fn name(&self) -> &str;

    /// Folds `records`, the next records of the run, into `state`.
    /// `actors` is the run's actor table so far: it may have grown since
    /// the last call, never shrunk.
    fn observe(&self, state: &mut Self::State, actors: &[ActorInfo], records: &[Record]);

    /// The findings on the records folded into `state`, recorded over
    /// `[0, horizon]`, a horizon at or after the last of them. `actors`
    /// is the actor table the last `observe` saw.
    fn finish(&self, state: &Self::State, actors: &[ActorInfo], horizon: SimTime) -> Vec<Finding>;

    /// Checks `trace`, recorded over `[0, horizon]`: folds it whole, then
    /// finishes.
    fn check(&self, trace: &Trace, horizon: SimTime) -> Vec<Finding> {
        let mut state = Self::State::default();
        self.observe(&mut state, trace.actors(), trace.records());
        self.finish(&state, trace.actors(), horizon)
    }

    /// A finding of this property.
    fn finding(&self, holds: bool, message: String) -> Finding {
        Finding {
            property: self.name().to_owned(),
            holds,
            message,
        }
    }
}

/// A monitor state of the common shape: one row per registered actor,
/// indexed by [`ActorId::index`](crate::ActorId::index), and the notes
/// its findings will cite. Both are flat buffers, and `clone_from`
/// writes into the ones the target already has.
#[derive(Debug, PartialEq, Eq, Hash)]
pub struct ActorTable<R, N = ()> {
    /// One row per actor [fitted](ActorTable::fit) so far.
    pub rows: Vec<R>,
    /// What the property noted for its findings, in the order it chose.
    pub notes: Vec<N>,
}

impl<R: Clone + Default, N> ActorTable<R, N> {
    /// Gives every actor of `actors` a row: one registered since the
    /// last call gets a default row.
    pub fn fit(&mut self, actors: &[ActorInfo]) {
        if self.rows.len() < actors.len() {
            self.rows.resize(actors.len(), R::default());
        }
    }
}

impl<R, N> Default for ActorTable<R, N> {
    fn default() -> Self {
        ActorTable {
            rows: Vec::new(),
            notes: Vec::new(),
        }
    }
}

/// By hand, so that a fork writes into the target's buffers.
impl<R: Clone, N: Clone> Clone for ActorTable<R, N> {
    fn clone(&self) -> Self {
        ActorTable {
            rows: self.rows.clone(),
            notes: self.notes.clone(),
        }
    }

    fn clone_from(&mut self, source: &Self) {
        self.rows.clone_from(&source.rows);
        self.notes.clone_from(&source.notes);
    }
}
