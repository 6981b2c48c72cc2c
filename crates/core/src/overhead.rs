//! The RTOS timing model (paper §3.2).
//!
//! RTOS overhead is decomposed into three parameters — *scheduling
//! duration*, *context-load duration* and *context-save duration* — each of
//! which may be a fixed time or a **user formula computed during the
//! simulation according to the current state of the simulated system**
//! (e.g. the number of ready tasks). [`OverheadSpec`] captures exactly
//! that choice, and [`RtosView`] is the state snapshot a formula sees.

use std::fmt;
use std::sync::Arc;

use rtsim_kernel::{SimDuration, SimTime};

/// The simulated-system state visible to overhead formulas, corresponding
/// to the paper's "current state of the simulated system (number of ready
/// tasks for example)".
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RtosView {
    /// Number of tasks currently in the Ready state.
    pub ready_tasks: usize,
    /// Total number of tasks on the processor (any state).
    pub total_tasks: usize,
    /// Current simulation time.
    pub now: SimTime,
}

/// One of the three RTOS overhead durations: fixed, or computed by a user
/// formula at the moment the overhead is incurred.
///
/// # Examples
///
/// A scheduler whose cost grows linearly with the ready-queue length
/// (typical of an O(n) ready-list scan):
///
/// ```
/// use rtsim_core::{OverheadSpec, RtosView};
/// use rtsim_kernel::{SimDuration, SimTime};
///
/// let spec = OverheadSpec::formula(|view: &RtosView| {
///     SimDuration::from_ns(500) + SimDuration::from_ns(100) * view.ready_tasks as u64
/// });
/// let view = RtosView { ready_tasks: 3, total_tasks: 5, now: SimTime::ZERO };
/// assert_eq!(spec.eval(&view), SimDuration::from_ns(800));
/// ```
#[derive(Clone)]
pub enum OverheadSpec {
    /// A constant duration.
    Fixed(SimDuration),
    /// A formula evaluated against the live [`RtosView`].
    Formula(Arc<dyn Fn(&RtosView) -> SimDuration + Send + Sync>),
}

impl OverheadSpec {
    /// Zero overhead (the "neglect the RTOS" configuration of §3.2).
    pub const fn zero() -> Self {
        OverheadSpec::Fixed(SimDuration::ZERO)
    }

    /// A fixed duration.
    pub const fn fixed(d: SimDuration) -> Self {
        OverheadSpec::Fixed(d)
    }

    /// A user formula.
    pub fn formula<F>(f: F) -> Self
    where
        F: Fn(&RtosView) -> SimDuration + Send + Sync + 'static,
    {
        OverheadSpec::Formula(Arc::new(f))
    }

    /// Evaluates the overhead for the given system state.
    pub fn eval(&self, view: &RtosView) -> SimDuration {
        match self {
            OverheadSpec::Fixed(d) => *d,
            OverheadSpec::Formula(f) => f(view),
        }
    }
}

impl fmt::Debug for OverheadSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OverheadSpec::Fixed(d) => write!(f, "Fixed({d})"),
            OverheadSpec::Formula(_) => f.write_str("Formula(..)"),
        }
    }
}

impl From<SimDuration> for OverheadSpec {
    fn from(d: SimDuration) -> Self {
        OverheadSpec::Fixed(d)
    }
}

/// The full RTOS overhead configuration: the three durations of §3.2.
///
/// # Examples
///
/// The paper's Figure 6 experiment sets all three to 5 µs:
///
/// ```
/// use rtsim_core::Overheads;
/// use rtsim_kernel::SimDuration;
///
/// let ovh = Overheads::uniform(SimDuration::from_us(5));
/// ```
#[derive(Debug, Clone)]
pub struct Overheads {
    /// Time to save the suspended task's context.
    pub context_save: OverheadSpec,
    /// Time to run the scheduling algorithm.
    pub scheduling: OverheadSpec,
    /// Time to load the elected task's context.
    pub context_load: OverheadSpec,
    /// Time to move a task's context to a different core than the one it
    /// last ran on. Charged by SMP processors between the scheduling and
    /// context-load segments of a migrating dispatch; single-core
    /// processors never incur it. Defaults to zero.
    pub migration: OverheadSpec,
}

impl Overheads {
    /// All overheads zero — an ideal, cost-free RTOS.
    pub const fn zero() -> Self {
        Overheads {
            context_save: OverheadSpec::zero(),
            scheduling: OverheadSpec::zero(),
            context_load: OverheadSpec::zero(),
            migration: OverheadSpec::zero(),
        }
    }

    /// The paper's three overheads set to the same fixed duration (as in
    /// Figure 6: 5 µs each); migration stays zero.
    pub const fn uniform(d: SimDuration) -> Self {
        Overheads {
            context_save: OverheadSpec::fixed(d),
            scheduling: OverheadSpec::fixed(d),
            context_load: OverheadSpec::fixed(d),
            migration: OverheadSpec::zero(),
        }
    }

    /// Fixed save / scheduling / load durations; migration stays zero.
    pub const fn fixed(save: SimDuration, scheduling: SimDuration, load: SimDuration) -> Self {
        Overheads {
            context_save: OverheadSpec::fixed(save),
            scheduling: OverheadSpec::fixed(scheduling),
            context_load: OverheadSpec::fixed(load),
            migration: OverheadSpec::zero(),
        }
    }

    /// Sets the migration cost (builder style).
    pub fn with_migration(mut self, migration: impl Into<OverheadSpec>) -> Self {
        self.migration = migration.into();
        self
    }
}

impl Default for Overheads {
    fn default() -> Self {
        Overheads::zero()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn view(ready: usize) -> RtosView {
        RtosView {
            ready_tasks: ready,
            total_tasks: 10,
            now: SimTime::from_ps(42),
        }
    }

    #[test]
    fn fixed_ignores_state() {
        let s = OverheadSpec::fixed(SimDuration::from_us(5));
        assert_eq!(s.eval(&view(0)), SimDuration::from_us(5));
        assert_eq!(s.eval(&view(9)), SimDuration::from_us(5));
    }

    #[test]
    fn formula_sees_ready_count() {
        let s =
            OverheadSpec::formula(|v: &RtosView| SimDuration::from_ns(10) * v.ready_tasks as u64);
        assert_eq!(s.eval(&view(4)), SimDuration::from_ns(40));
    }

    #[test]
    fn uniform_sets_all_three() {
        let o = Overheads::uniform(SimDuration::from_us(5));
        let v = view(1);
        assert_eq!(o.context_save.eval(&v), SimDuration::from_us(5));
        assert_eq!(o.scheduling.eval(&v), SimDuration::from_us(5));
        assert_eq!(o.context_load.eval(&v), SimDuration::from_us(5));
    }

    #[test]
    fn zero_is_default() {
        let o = Overheads::default();
        assert_eq!(o.context_save.eval(&view(3)), SimDuration::ZERO);
        assert_eq!(o.migration.eval(&view(3)), SimDuration::ZERO);
    }

    #[test]
    fn migration_defaults_zero_and_builds() {
        let o = Overheads::uniform(SimDuration::from_us(5));
        assert_eq!(o.migration.eval(&view(2)), SimDuration::ZERO);
        let o = o.with_migration(SimDuration::from_us(3));
        assert_eq!(o.migration.eval(&view(2)), SimDuration::from_us(3));
        let f = Overheads::fixed(
            SimDuration::from_us(1),
            SimDuration::from_us(2),
            SimDuration::from_us(3),
        );
        assert_eq!(f.migration.eval(&view(0)), SimDuration::ZERO);
    }

    #[test]
    fn debug_and_from() {
        let s: OverheadSpec = SimDuration::from_ns(7).into();
        assert!(format!("{s:?}").contains("Fixed"));
        let f = OverheadSpec::formula(|_| SimDuration::ZERO);
        assert_eq!(format!("{f:?}"), "Formula(..)");
    }
}
