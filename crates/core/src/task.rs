//! Task identities and configuration.
//!
//! A *task* is the paper's MCSE **function** mapped onto a software
//! processor: a sequential behaviour whose CPU time is serialized by the
//! RTOS model. At every instant a task is in exactly one of the states of
//! the paper's Figure 2 — Waiting, Ready or Running — extended with the
//! Created / Terminated / Waiting-for-resource states the TimeLine chart
//! distinguishes.

use std::fmt;

use rtsim_kernel::SimDuration;

/// Identifies a task within its [`Processor`](crate::Processor).
///
/// Dense indices in spawn order; a `TaskId` from one processor must not be
/// used with another.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TaskId(pub(crate) u32);

impl TaskId {
    /// Returns the raw index of this task within its processor.
    #[inline]
    pub const fn index(self) -> usize {
        self.0 as usize
    }

    /// Builds a `TaskId` from a raw index.
    ///
    /// Intended for unit-testing and benchmarking custom
    /// [`SchedulingPolicy`](crate::SchedulingPolicy) implementations with
    /// synthetic [`TaskView`](crate::TaskView)s; ids handed to a live
    /// processor must come from `Processor::spawn_task`.
    #[inline]
    pub const fn from_raw(index: u32) -> Self {
        TaskId(index)
    }
}

impl fmt::Display for TaskId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "task#{}", self.0)
    }
}

/// A task's scheduling priority. **Larger values are more urgent**, as in
/// the paper's example where `Function_1` (priority 5) preempts
/// `Function_3` (priority 2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Priority(pub u32);

impl fmt::Display for Priority {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "prio{}", self.0)
    }
}

/// Static configuration of one task.
///
/// Built with struct-update syntax from [`TaskConfig::new`]:
///
/// ```
/// use rtsim_core::{Priority, TaskConfig};
/// use rtsim_kernel::SimDuration;
///
/// let cfg = TaskConfig {
///     priority: Priority(5),
///     period: Some(SimDuration::from_ms(10)),
///     ..TaskConfig::new("Function_1")
/// };
/// assert_eq!(cfg.name, "Function_1");
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TaskConfig {
    /// Display name, used in traces and diagnostics.
    pub name: String,
    /// Scheduling priority (larger = more urgent). Used by the
    /// priority-based policies; ignored by FIFO/EDF.
    pub priority: Priority,
    /// Activation period, if the task is periodic. Used by the
    /// rate-monotonic policy and available to custom policies.
    pub period: Option<SimDuration>,
    /// Relative deadline: when the task becomes Ready its absolute
    /// deadline is set to `now + relative_deadline`. Used by EDF.
    pub relative_deadline: Option<SimDuration>,
    /// Core-affinity bitmask: bit `c` set means the task may run on core
    /// `c` of its processor. Defaults to all-ones (any core); a mask that
    /// admits none of the processor's cores is rejected when the task is
    /// spawned, whatever the core count. Partitioned scheduling pins each
    /// task to one core with [`TaskConfig::pin_to_core`].
    pub affinity: u64,
}

impl TaskConfig {
    /// Creates a configuration with default priority 0 and no timing
    /// attributes.
    pub fn new(name: &str) -> Self {
        TaskConfig {
            name: name.to_owned(),
            priority: Priority(0),
            period: None,
            relative_deadline: None,
            affinity: u64::MAX,
        }
    }

    /// Sets the priority (builder style).
    pub fn priority(mut self, priority: u32) -> Self {
        self.priority = Priority(priority);
        self
    }

    /// Sets the period (builder style).
    pub fn period(mut self, period: SimDuration) -> Self {
        self.period = Some(period);
        self
    }

    /// Sets the relative deadline (builder style).
    pub fn deadline(mut self, relative_deadline: SimDuration) -> Self {
        self.relative_deadline = Some(relative_deadline);
        self
    }

    /// Sets the core-affinity bitmask (builder style).
    ///
    /// # Panics
    ///
    /// Panics if `mask` is zero (a task must be runnable somewhere).
    pub fn affinity(mut self, mask: u64) -> Self {
        assert!(mask != 0, "affinity mask must allow at least one core");
        self.affinity = mask;
        self
    }

    /// Pins the task to a single core (builder style) — the partitioned-
    /// scheduling form of [`affinity`](TaskConfig::affinity).
    ///
    /// # Panics
    ///
    /// Panics if `core >= 64` (affinity masks cover 64 cores).
    pub fn pin_to_core(mut self, core: usize) -> Self {
        assert!(core < 64, "affinity masks cover cores 0..64");
        self.affinity = 1u64 << core;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_style_configuration() {
        let cfg = TaskConfig::new("t")
            .priority(3)
            .period(SimDuration::from_us(100))
            .deadline(SimDuration::from_us(80));
        assert_eq!(cfg.priority, Priority(3));
        assert_eq!(cfg.period, Some(SimDuration::from_us(100)));
        assert_eq!(cfg.relative_deadline, Some(SimDuration::from_us(80)));
    }

    #[test]
    fn priority_orders_by_value() {
        assert!(Priority(5) > Priority(3));
        assert_eq!(Priority(2).to_string(), "prio2");
    }

    #[test]
    fn task_id_display() {
        assert_eq!(TaskId(4).to_string(), "task#4");
        assert_eq!(TaskId(4).index(), 4);
    }
}
