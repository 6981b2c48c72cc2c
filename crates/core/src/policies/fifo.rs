//! First-come-first-served scheduling.

use crate::policy::{PolicyView, SchedulingPolicy, TaskView};
use crate::task::TaskId;

/// FIFO / FCFS: tasks run in the order they became ready, to completion,
/// with no preemption. The simplest cooperative baseline.
///
/// # Examples
///
/// ```
/// use rtsim_core::policies::Fifo;
/// use rtsim_core::policy::SchedulingPolicy;
///
/// assert_eq!(Fifo::new().name(), "fifo");
/// ```
#[derive(Debug, Clone, Copy, Default)]
pub struct Fifo;

impl Fifo {
    /// Creates the policy.
    pub fn new() -> Self {
        Fifo
    }
}

impl SchedulingPolicy for Fifo {
    fn name(&self) -> &str {
        "fifo"
    }

    fn select(&mut self, view: &PolicyView<'_>) -> Option<TaskId> {
        view.ready
            .iter()
            .min_by_key(|t| t.enqueue_seq)
            .map(|t| t.id)
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::task::Priority;
    use rtsim_kernel::SimTime;

    fn tv(id: u32, seq: u64) -> TaskView {
        TaskView {
            id: TaskId(id),
            priority: Priority(id), // priority must be ignored
            period: None,
            absolute_deadline: None,
            enqueued_at: SimTime::ZERO,
            enqueue_seq: seq,
        }
    }

    #[test]
    fn selects_earliest_arrival_ignoring_priority() {
        let mut p = Fifo::new();
        let ready = [tv(9, 3), tv(1, 1), tv(5, 2)];
        let view = PolicyView {
            now: SimTime::ZERO,
            ready: &ready,
            running: None,
        };
        assert_eq!(p.select(&view), Some(TaskId(1)));
    }

    #[test]
    fn never_preempts() {
        let mut p = Fifo::new();
        let view = PolicyView {
            now: SimTime::ZERO,
            ready: &[],
            running: None,
        };
        assert!(!p.should_preempt(&view, &tv(9, 1), &tv(0, 0)));
    }
}
