//! Earliest-deadline-first scheduling.

use rtsim_kernel::SimTime;

use crate::policy::{PolicyView, SchedulingPolicy, TaskView};
use crate::task::TaskId;

/// EDF: the ready task with the earliest absolute deadline runs; an
/// arrival with a strictly earlier deadline preempts. Tasks without a
/// declared deadline rank last (treated as deadline = ∞) and tie-break
/// FIFO.
///
/// A task's absolute deadline is refreshed to `now + relative_deadline`
/// each time it becomes Ready (see
/// [`TaskConfig::deadline`](crate::TaskConfig::deadline)).
///
/// On an SMP processor this is global EDF: the engine elects once per
/// idle core from the one shared ready queue, so the earliest deadlines
/// occupy the cores, and an arrival preempts the least urgent occupant
/// among the cores its affinity allows. A resumed task takes any idle
/// core, paying the migration overhead when it lands away from its last
/// one.
///
/// # Examples
///
/// ```
/// use rtsim_core::policies::EarliestDeadlineFirst;
/// use rtsim_core::policy::SchedulingPolicy;
///
/// assert_eq!(EarliestDeadlineFirst::new().name(), "edf");
/// ```
#[derive(Debug, Clone, Copy, Default)]
pub struct EarliestDeadlineFirst;

impl EarliestDeadlineFirst {
    /// Creates the policy.
    pub fn new() -> Self {
        EarliestDeadlineFirst
    }
}

fn deadline_key(t: &TaskView) -> (SimTime, u64) {
    (t.absolute_deadline.unwrap_or(SimTime::MAX), t.enqueue_seq)
}

impl SchedulingPolicy for EarliestDeadlineFirst {
    fn name(&self) -> &str {
        "edf"
    }

    fn select(&mut self, view: &PolicyView<'_>) -> Option<TaskId> {
        view.ready
            .iter()
            .min_by_key(|t| deadline_key(t))
            .map(|t| t.id)
    }

    fn should_preempt(
        &mut self,
        _view: &PolicyView<'_>,
        candidate: &TaskView,
        running: &TaskView,
    ) -> bool {
        candidate.absolute_deadline.unwrap_or(SimTime::MAX)
            < running.absolute_deadline.unwrap_or(SimTime::MAX)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::task::Priority;

    fn tv(id: u32, deadline_ps: Option<u64>, seq: u64) -> TaskView {
        TaskView {
            id: TaskId(id),
            priority: Priority(0),
            period: None,
            absolute_deadline: deadline_ps.map(SimTime::from_ps),
            enqueued_at: SimTime::ZERO,
            enqueue_seq: seq,
        }
    }

    #[test]
    fn selects_earliest_deadline() {
        let mut p = EarliestDeadlineFirst::new();
        let ready = [tv(0, Some(300), 0), tv(1, Some(100), 1), tv(2, None, 2)];
        let view = PolicyView {
            now: SimTime::ZERO,
            ready: &ready,
            running: None,
        };
        assert_eq!(p.select(&view), Some(TaskId(1)));
    }

    #[test]
    fn no_deadline_ranks_last_and_ties_fifo() {
        let mut p = EarliestDeadlineFirst::new();
        let ready = [tv(0, None, 4), tv(1, None, 2)];
        let view = PolicyView {
            now: SimTime::ZERO,
            ready: &ready,
            running: None,
        };
        assert_eq!(p.select(&view), Some(TaskId(1)));
    }

    #[test]
    fn preempts_on_strictly_earlier_deadline() {
        let mut p = EarliestDeadlineFirst::new();
        let view = PolicyView {
            now: SimTime::ZERO,
            ready: &[],
            running: None,
        };
        assert!(p.should_preempt(&view, &tv(0, Some(50), 0), &tv(1, Some(100), 1)));
        assert!(!p.should_preempt(&view, &tv(0, Some(100), 0), &tv(1, Some(100), 1)));
        assert!(p.should_preempt(&view, &tv(0, Some(100), 0), &tv(1, None, 1)));
        assert!(!p.should_preempt(&view, &tv(0, None, 0), &tv(1, Some(1), 1)));
    }

    #[test]
    fn repeated_election_yields_top_k() {
        // The engine's idle-core fill loop calls select once per core;
        // removing each winner must surface the next deadline in order.
        let mut p = EarliestDeadlineFirst::new();
        let mut ready = vec![
            tv(0, Some(300), 0),
            tv(1, Some(100), 1),
            tv(2, Some(200), 2),
        ];
        let mut order = Vec::new();
        while !ready.is_empty() {
            let view = PolicyView {
                now: SimTime::ZERO,
                ready: &ready,
                running: None,
            };
            let id = p.select(&view).unwrap();
            order.push(id);
            ready.retain(|t| t.id != id);
        }
        assert_eq!(order, vec![TaskId(1), TaskId(2), TaskId(0)]);
    }
}
