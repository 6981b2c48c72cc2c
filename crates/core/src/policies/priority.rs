//! Fixed-priority scheduling, the paper's default policy.

use crate::policy::{PolicyView, SchedulingPolicy, TaskView};
use crate::task::TaskId;

/// Priority-based scheduling: the highest-priority ready task runs; ties
/// break FIFO. In preemptive mode a strictly higher-priority arrival
/// preempts the running task (the paper's Figure 6: `Function_1`, priority
/// 5, preempts `Function_3`, priority 2; `Function_2`, priority 3, does
/// *not* preempt `Function_1`).
///
/// # Examples
///
/// ```
/// use rtsim_core::policies::PriorityPreemptive;
/// use rtsim_core::policy::SchedulingPolicy;
///
/// let policy = PriorityPreemptive::new();
/// assert_eq!(policy.name(), "priority-preemptive");
/// ```
#[derive(Debug, Clone, Copy, Default)]
pub struct PriorityPreemptive;

impl PriorityPreemptive {
    /// Creates the policy.
    pub fn new() -> Self {
        PriorityPreemptive
    }
}

impl SchedulingPolicy for PriorityPreemptive {
    fn name(&self) -> &str {
        "priority-preemptive"
    }

    fn select(&mut self, view: &PolicyView<'_>) -> Option<TaskId> {
        view.ready
            .iter()
            .max_by(|a, b| {
                a.priority
                    .cmp(&b.priority)
                    // Earlier arrival wins ties: smaller seq = "greater".
                    .then(b.enqueue_seq.cmp(&a.enqueue_seq))
            })
            .map(|t| t.id)
    }

    fn should_preempt(
        &mut self,
        _view: &PolicyView<'_>,
        candidate: &TaskView,
        running: &TaskView,
    ) -> bool {
        candidate.priority > running.priority
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::task::Priority;
    use rtsim_kernel::SimTime;

    fn tv(id: u32, prio: u32, seq: u64) -> TaskView {
        TaskView {
            id: TaskId(id),
            priority: Priority(prio),
            period: None,
            absolute_deadline: None,
            enqueued_at: SimTime::ZERO,
            enqueue_seq: seq,
        }
    }

    #[test]
    fn selects_highest_priority() {
        let mut p = PriorityPreemptive::new();
        let ready = [tv(0, 2, 0), tv(1, 5, 1), tv(2, 3, 2)];
        let view = PolicyView {
            now: SimTime::ZERO,
            ready: &ready,
            running: None,
        };
        assert_eq!(p.select(&view), Some(TaskId(1)));
    }

    #[test]
    fn ties_break_fifo() {
        let mut p = PriorityPreemptive::new();
        let ready = [tv(0, 3, 5), tv(1, 3, 2)];
        let view = PolicyView {
            now: SimTime::ZERO,
            ready: &ready,
            running: None,
        };
        assert_eq!(p.select(&view), Some(TaskId(1)));
    }

    #[test]
    fn preempts_only_strictly_higher() {
        let mut p = PriorityPreemptive::new();
        let view = PolicyView {
            now: SimTime::ZERO,
            ready: &[],
            running: None,
        };
        assert!(p.should_preempt(&view, &tv(0, 5, 0), &tv(1, 2, 1)));
        assert!(!p.should_preempt(&view, &tv(0, 3, 0), &tv(1, 5, 1)));
        assert!(!p.should_preempt(&view, &tv(0, 3, 0), &tv(1, 3, 1)));
    }

    #[test]
    fn empty_ready_selects_none() {
        let mut p = PriorityPreemptive::new();
        let view = PolicyView {
            now: SimTime::ZERO,
            ready: &[],
            running: None,
        };
        assert_eq!(p.select(&view), None);
    }
}
