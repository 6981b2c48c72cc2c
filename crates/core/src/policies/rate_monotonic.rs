//! Rate-monotonic scheduling.

use rtsim_kernel::SimDuration;

use crate::policy::{PolicyView, SchedulingPolicy, TaskView};
use crate::task::TaskId;

/// Rate-monotonic: static priorities derived from declared periods — the
/// shorter the period, the more urgent the task. Preemptive. Tasks with no
/// declared period rank last (period = ∞); ties break FIFO.
///
/// Periods come from [`TaskConfig::period`](crate::TaskConfig::period).
///
/// # Examples
///
/// ```
/// use rtsim_core::policies::RateMonotonic;
/// use rtsim_core::policy::SchedulingPolicy;
///
/// assert_eq!(RateMonotonic::new().name(), "rate-monotonic");
/// ```
#[derive(Debug, Clone, Copy, Default)]
pub struct RateMonotonic;

impl RateMonotonic {
    /// Creates the policy.
    pub fn new() -> Self {
        RateMonotonic
    }
}

fn period_key(t: &TaskView) -> (SimDuration, u64) {
    (t.period.unwrap_or(SimDuration::MAX), t.enqueue_seq)
}

impl SchedulingPolicy for RateMonotonic {
    fn name(&self) -> &str {
        "rate-monotonic"
    }

    fn select(&mut self, view: &PolicyView<'_>) -> Option<TaskId> {
        view.ready
            .iter()
            .min_by_key(|t| period_key(t))
            .map(|t| t.id)
    }

    fn should_preempt(
        &mut self,
        _view: &PolicyView<'_>,
        candidate: &TaskView,
        running: &TaskView,
    ) -> bool {
        candidate.period.unwrap_or(SimDuration::MAX) < running.period.unwrap_or(SimDuration::MAX)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::task::Priority;
    use rtsim_kernel::SimTime;

    fn tv(id: u32, period_us: Option<u64>, seq: u64) -> TaskView {
        TaskView {
            id: TaskId(id),
            priority: Priority(0),
            period: period_us.map(SimDuration::from_us),
            absolute_deadline: None,
            enqueued_at: SimTime::ZERO,
            enqueue_seq: seq,
        }
    }

    #[test]
    fn shortest_period_wins() {
        let mut p = RateMonotonic::new();
        let ready = [tv(0, Some(100), 0), tv(1, Some(10), 1), tv(2, None, 2)];
        let view = PolicyView {
            now: SimTime::ZERO,
            ready: &ready,
            running: None,
        };
        assert_eq!(p.select(&view), Some(TaskId(1)));
    }

    #[test]
    fn preemption_follows_periods() {
        let mut p = RateMonotonic::new();
        let view = PolicyView {
            now: SimTime::ZERO,
            ready: &[],
            running: None,
        };
        assert!(p.should_preempt(&view, &tv(0, Some(5), 0), &tv(1, Some(50), 1)));
        assert!(!p.should_preempt(&view, &tv(0, Some(50), 0), &tv(1, Some(5), 1)));
        assert!(!p.should_preempt(&view, &tv(0, None, 0), &tv(1, Some(5), 1)));
    }
}
