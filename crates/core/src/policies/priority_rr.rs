//! Fixed priorities with round-robin among equals (POSIX `SCHED_RR`).

use rtsim_kernel::SimDuration;

use crate::policy::{PolicyView, SchedulingPolicy, TaskView};
use crate::task::TaskId;

/// Priority scheduling with time-sharing inside each priority level:
/// the highest-priority ready task runs; a strictly higher-priority
/// arrival preempts; and a task exhausting its quantum rotates behind
/// its equal-priority peers — the `SCHED_RR` behaviour of POSIX and of
/// most commercial RTOS "priority + time-slice" modes.
///
/// The quantum only applies while an equal-priority peer is ready;
/// otherwise the running task keeps the CPU (as `SCHED_RR` does).
///
/// # Examples
///
/// ```
/// use rtsim_core::policies::PriorityRoundRobin;
/// use rtsim_core::policy::SchedulingPolicy;
/// use rtsim_kernel::SimDuration;
///
/// let p = PriorityRoundRobin::new(SimDuration::from_us(100));
/// assert_eq!(p.name(), "priority-round-robin");
/// ```
#[derive(Debug, Clone, Copy)]
pub struct PriorityRoundRobin {
    quantum: SimDuration,
}

impl PriorityRoundRobin {
    /// Creates the policy with the given quantum.
    ///
    /// # Panics
    ///
    /// Panics if `quantum` is zero.
    pub fn new(quantum: SimDuration) -> Self {
        assert!(
            !quantum.is_zero(),
            "priority-round-robin quantum must be non-zero"
        );
        PriorityRoundRobin { quantum }
    }

    /// The configured quantum.
    pub fn quantum(&self) -> SimDuration {
        self.quantum
    }
}

impl SchedulingPolicy for PriorityRoundRobin {
    fn name(&self) -> &str {
        "priority-round-robin"
    }

    fn select(&mut self, view: &PolicyView<'_>) -> Option<TaskId> {
        view.ready
            .iter()
            .max_by(|a, b| {
                a.priority
                    .cmp(&b.priority)
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

    fn time_slice(&self, view: &PolicyView<'_>, task: &TaskView) -> Option<SimDuration> {
        let peer_ready = view
            .ready
            .iter()
            .any(|t| t.id != task.id && t.priority == task.priority);
        peer_ready.then_some(self.quantum)
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
    fn highest_priority_wins_fifo_within_level() {
        let mut p = PriorityRoundRobin::new(SimDuration::from_us(10));
        let ready = [tv(0, 5, 2), tv(1, 5, 1), tv(2, 3, 0)];
        let view = PolicyView {
            now: SimTime::ZERO,
            ready: &ready,
            running: None,
        };
        assert_eq!(p.select(&view), Some(TaskId(1)));
    }

    #[test]
    fn quantum_only_with_equal_priority_peer() {
        let p = PriorityRoundRobin::new(SimDuration::from_us(10));
        let running = tv(0, 5, 0);
        let peers = [tv(1, 5, 1)];
        let lower = [tv(1, 3, 1)];
        let with_peer = PolicyView {
            now: SimTime::ZERO,
            ready: &peers,
            running: Some(&running),
        };
        let without_peer = PolicyView {
            now: SimTime::ZERO,
            ready: &lower,
            running: Some(&running),
        };
        assert_eq!(
            p.time_slice(&with_peer, &running),
            Some(SimDuration::from_us(10))
        );
        assert_eq!(p.time_slice(&without_peer, &running), None);
    }

    #[test]
    fn preempts_only_strictly_higher() {
        let mut p = PriorityRoundRobin::new(SimDuration::from_us(10));
        let view = PolicyView {
            now: SimTime::ZERO,
            ready: &[],
            running: None,
        };
        assert!(p.should_preempt(&view, &tv(0, 6, 0), &tv(1, 5, 1)));
        assert!(!p.should_preempt(&view, &tv(0, 5, 0), &tv(1, 5, 1)));
    }

    #[test]
    #[should_panic(expected = "quantum")]
    fn zero_quantum_rejected() {
        let _ = PriorityRoundRobin::new(SimDuration::ZERO);
    }
}
