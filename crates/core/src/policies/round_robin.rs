//! Round-robin time-sharing.

use rtsim_kernel::SimDuration;

use crate::policy::{PolicyView, SchedulingPolicy, TaskView};
use crate::task::TaskId;

/// Round-robin: FIFO dispatch with a fixed time quantum; when the quantum
/// expires the task rotates to the back of the ready queue.
///
/// This is the *Time Sharing* algorithm the paper singles out in §4 as
/// easier to model with a dedicated RTOS thread — both `rtsim` engines
/// support it via the [`SchedulingPolicy::time_slice`] hook.
///
/// # Examples
///
/// ```
/// use rtsim_core::policies::RoundRobin;
/// use rtsim_kernel::SimDuration;
///
/// let policy = RoundRobin::new(SimDuration::from_us(100));
/// assert_eq!(policy.quantum(), SimDuration::from_us(100));
/// ```
#[derive(Debug, Clone, Copy)]
pub struct RoundRobin {
    quantum: SimDuration,
}

impl RoundRobin {
    /// Creates the policy with the given quantum.
    ///
    /// # Panics
    ///
    /// Panics if `quantum` is zero (the processor would never progress).
    pub fn new(quantum: SimDuration) -> Self {
        assert!(!quantum.is_zero(), "round-robin quantum must be non-zero");
        RoundRobin { quantum }
    }

    /// The configured quantum.
    pub fn quantum(&self) -> SimDuration {
        self.quantum
    }
}

impl SchedulingPolicy for RoundRobin {
    fn name(&self) -> &str {
        "round-robin"
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

    fn time_slice(&self, _view: &PolicyView<'_>, _task: &TaskView) -> Option<SimDuration> {
        Some(self.quantum)
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
            priority: Priority(0),
            period: None,
            absolute_deadline: None,
            enqueued_at: SimTime::ZERO,
            enqueue_seq: seq,
        }
    }

    #[test]
    fn dispatches_fifo_with_slice() {
        let mut p = RoundRobin::new(SimDuration::from_us(10));
        let ready = [tv(0, 1), tv(1, 0)];
        let view = PolicyView {
            now: SimTime::ZERO,
            ready: &ready,
            running: None,
        };
        assert_eq!(p.select(&view), Some(TaskId(1)));
        assert_eq!(
            p.time_slice(&view, &ready[0]),
            Some(SimDuration::from_us(10))
        );
    }

    #[test]
    #[should_panic(expected = "quantum")]
    fn zero_quantum_rejected() {
        let _ = RoundRobin::new(SimDuration::ZERO);
    }
}
