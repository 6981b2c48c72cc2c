//! The scheduling-policy abstraction (paper §3.1).
//!
//! A RTOS behaviour is characterized by its **scheduling policy** — the
//! algorithm selecting the running task among the ready ones — and its
//! **preemptive / non-preemptive mode**. The paper ships several policies
//! and lets designers define their own "by overloading the
//! `SchedulingPolicy` method of our Processor class"; here the same
//! extension point is the [`SchedulingPolicy`] trait, implementable by
//! downstream crates.
//!
//! Built-in policies live in [`crate::policies`].

use std::any::Any;
use std::fmt;

use rtsim_kernel::{SimDuration, SimTime};

use crate::task::{Priority, TaskId};

/// A read-only snapshot of one task's scheduling attributes, as seen by a
/// policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TaskView {
    /// The task's id.
    pub id: TaskId,
    /// Static priority (larger = more urgent).
    pub priority: Priority,
    /// Activation period, if declared.
    pub period: Option<SimDuration>,
    /// Current absolute deadline, if the task declared a relative deadline
    /// (recomputed each time the task becomes Ready).
    pub absolute_deadline: Option<SimTime>,
    /// When the task last entered the Ready state.
    pub enqueued_at: SimTime,
    /// Monotonic enqueue sequence number — the FIFO tie-breaker.
    pub enqueue_seq: u64,
}

/// What a policy sees when making a decision: the ready tasks (in enqueue
/// order), the running task if any, and the current time.
#[derive(Debug, Clone, Copy)]
pub struct PolicyView<'a> {
    /// Current simulation time.
    pub now: SimTime,
    /// Ready tasks, in the order they became ready.
    pub ready: &'a [TaskView],
    /// The currently running task, if any.
    pub running: Option<&'a TaskView>,
}

/// A scheduling algorithm: the paper's pluggable `SchedulingPolicy`.
///
/// Implementations must be deterministic — given the same view, return the
/// same decision — or simulations stop being reproducible. A policy is a
/// `Clone` value (see [`PolicyClone`]), so a processor running it copies
/// with the rest of a forked simulation.
///
/// # Examples
///
/// A custom "longest-waiting-first" policy:
///
/// ```
/// use rtsim_core::policy::{PolicyView, SchedulingPolicy, TaskView};
/// use rtsim_core::TaskId;
///
/// #[derive(Debug, Clone)]
/// struct LongestWaiting;
///
/// impl SchedulingPolicy for LongestWaiting {
///     fn name(&self) -> &str {
///         "longest-waiting"
///     }
///     fn select(&mut self, view: &PolicyView<'_>) -> Option<TaskId> {
///         view.ready.iter().min_by_key(|t| t.enqueue_seq).map(|t| t.id)
///     }
///     fn should_preempt(
///         &mut self,
///         _view: &PolicyView<'_>,
///         _candidate: &TaskView,
///         _running: &TaskView,
///     ) -> bool {
///         false
///     }
/// }
/// ```
pub trait SchedulingPolicy: Send + fmt::Debug + PolicyClone {
    /// Human-readable policy name, used in diagnostics.
    fn name(&self) -> &str;

    /// Picks the next task to dispatch among `view.ready`, or `None` to
    /// leave the processor idle. Returning a task not in `view.ready` is a
    /// logic error (the engine panics).
    fn select(&mut self, view: &PolicyView<'_>) -> Option<TaskId>;

    /// Decides whether `candidate`, which just became ready, should
    /// preempt `running`. Only consulted when the RTOS is in preemptive
    /// mode and no critical region is active.
    fn should_preempt(
        &mut self,
        view: &PolicyView<'_>,
        candidate: &TaskView,
        running: &TaskView,
    ) -> bool;

    /// Maximum contiguous CPU slice for `task` before the scheduler
    /// rotates it back into the ready queue (`None` = run to completion).
    /// Used by time-sharing policies.
    fn time_slice(&self, _view: &PolicyView<'_>, _task: &TaskView) -> Option<SimDuration> {
        None
    }
}

/// Copies a boxed [`SchedulingPolicy`] in its current state, for a forked
/// simulation (see `Simulator::fork`). Implemented for every `Clone +
/// 'static` policy, so a policy needs only `#[derive(Clone)]`.
pub trait PolicyClone: Any {
    /// A copy of this policy in a new box.
    fn clone_box(&self) -> Box<dyn SchedulingPolicy>;

    /// Writes a copy of this policy over `into`: with
    /// [`Clone::clone_from`] in place when `into` holds a policy of the
    /// same type, else into a new box.
    fn clone_into_box(&self, into: &mut Box<dyn SchedulingPolicy>);
}

impl<P: SchedulingPolicy + Clone + 'static> PolicyClone for P {
    fn clone_box(&self) -> Box<dyn SchedulingPolicy> {
        Box::new(self.clone())
    }

    fn clone_into_box(&self, into: &mut Box<dyn SchedulingPolicy>) {
        match (&mut **into as &mut dyn Any).downcast_mut::<P>() {
            Some(into) => into.clone_from(self),
            None => *into = self.clone_box(),
        }
    }
}

impl Clone for Box<dyn SchedulingPolicy> {
    fn clone(&self) -> Self {
        (**self).clone_box()
    }

    fn clone_from(&mut self, source: &Self) {
        (**source).clone_into_box(self);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug, Clone)]
    struct First;
    impl SchedulingPolicy for First {
        fn name(&self) -> &str {
            "first"
        }
        fn select(&mut self, view: &PolicyView<'_>) -> Option<TaskId> {
            view.ready.first().map(|t| t.id)
        }
        fn should_preempt(
            &mut self,
            _view: &PolicyView<'_>,
            _candidate: &TaskView,
            _running: &TaskView,
        ) -> bool {
            false
        }
    }

    fn tv(id: u32, seq: u64) -> TaskView {
        TaskView {
            id: TaskId(id),
            priority: Priority(0),
            period: None,
            absolute_deadline: None,
            enqueued_at: SimTime::ZERO,
            enqueue_seq: seq,
        }
    }

    #[test]
    fn trait_is_object_safe_and_has_default_slice() {
        let mut p: Box<dyn SchedulingPolicy> = Box::new(First);
        let ready = [tv(1, 0), tv(2, 1)];
        let view = PolicyView {
            now: SimTime::ZERO,
            ready: &ready,
            running: None,
        };
        assert_eq!(p.select(&view), Some(TaskId(1)));
        assert_eq!(p.time_slice(&view, &ready[0]), None);
        assert_eq!(p.name(), "first");
    }
}
