//! Global earliest-deadline-first scheduling for SMP processors.

use rtsim_kernel::SimTime;

use crate::policy::{PolicyView, SchedulingPolicy, TaskView};
use crate::task::TaskId;

/// Global EDF: on an SMP processor, the earliest-deadline ready tasks run
/// on the idle cores — one ready queue, top-K dispatch. The engine
/// provides the globality: it elects repeatedly while idle, eligible
/// cores remain, and on every arrival asks this policy whether the new
/// task's deadline beats the *least urgent* occupant among the cores the
/// task may run on. The per-election ordering is therefore exactly EDF's
/// (earliest absolute deadline, missing deadline = ∞, FIFO tie-break);
/// the two policies differ in where they are meant to run, and keeping
/// them distinct keeps single-core `edf` results untouched while giving
/// the global variant its own name in sweeps.
///
/// Migration is unrestricted (the classic global-EDF assumption) — a
/// resumed task takes any idle core, paying the migration overhead when
/// it lands away from its last one.
///
/// # Examples
///
/// ```
/// use rtsim_core::policies::GlobalEdf;
/// use rtsim_core::policy::SchedulingPolicy;
///
/// assert_eq!(GlobalEdf::new().name(), "global_edf");
/// ```
#[derive(Debug, Clone, Copy, Default)]
pub struct GlobalEdf;

impl GlobalEdf {
    /// Creates the policy.
    pub fn new() -> Self {
        GlobalEdf
    }
}

fn deadline_key(t: &TaskView) -> (SimTime, u64) {
    (t.absolute_deadline.unwrap_or(SimTime::MAX), t.enqueue_seq)
}

impl SchedulingPolicy for GlobalEdf {
    fn fork(&self) -> Option<Box<dyn SchedulingPolicy>> {
        Some(Box::new(*self))
    }

    fn name(&self) -> &str {
        "global_edf"
    }

    fn select(&mut self, view: &PolicyView<'_>) -> Option<TaskId> {
        view.ready.iter().min_by_key(|t| deadline_key(t)).map(|t| t.id)
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
    fn orders_like_edf() {
        let mut p = GlobalEdf::new();
        let ready = [tv(0, Some(300), 0), tv(1, Some(100), 1), tv(2, None, 2)];
        let view = PolicyView {
            now: SimTime::ZERO,
            ready: &ready,
            running: None,
        };
        assert_eq!(p.select(&view), Some(TaskId(1)));
        assert!(p.should_preempt(&view, &tv(3, Some(50), 3), &tv(0, Some(300), 0)));
        assert!(!p.should_preempt(&view, &tv(3, Some(300), 3), &tv(0, Some(300), 0)));
    }

    #[test]
    fn repeated_election_yields_top_k() {
        // The engine's idle-core fill loop calls select once per core;
        // removing each winner must surface the next deadline in order.
        let mut p = GlobalEdf::new();
        let mut ready = vec![tv(0, Some(300), 0), tv(1, Some(100), 1), tv(2, Some(200), 2)];
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
