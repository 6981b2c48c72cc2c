//! Ad-hoc scheduling policies from closures.

use std::fmt;
use std::sync::Arc;

use rtsim_kernel::SimDuration;

use crate::policy::{PolicyView, SchedulingPolicy, TaskView};
use crate::task::TaskId;

/// A scheduling policy assembled from closures — the lightest way to
/// honor the paper's "designers can also define their own policies"
/// without a new type.
///
/// `select` picks the next task from the view's ready set; `preempt`
/// decides whether a fresh arrival evicts the running task. A time slice
/// can be added with [`FnPolicy::with_time_slice`].
///
/// # Examples
///
/// A "shortest-period-first, never preempt" policy in four lines:
///
/// ```
/// use rtsim_core::policies::from_fn;
/// use rtsim_kernel::SimDuration;
///
/// let policy = from_fn(
///     "shortest-period-cooperative",
///     |view| {
///         view.ready
///             .iter()
///             .min_by_key(|t| (t.period.unwrap_or(SimDuration::MAX), t.enqueue_seq))
///             .map(|t| t.id)
///     },
///     |_view, _candidate, _running| false,
/// );
/// # use rtsim_core::SchedulingPolicy;
/// assert_eq!(policy.name(), "shortest-period-cooperative");
/// ```
#[derive(Clone)]
pub struct FnPolicy<S, P> {
    /// Shared by every copy, so that copying the policy allocates
    /// nothing.
    name: Arc<str>,
    select: S,
    preempt: P,
    time_slice: Option<SimDuration>,
}

/// Builds an [`FnPolicy`] (see the type-level example).
pub fn from_fn<S, P>(name: &str, select: S, preempt: P) -> FnPolicy<S, P>
where
    S: FnMut(&PolicyView<'_>) -> Option<TaskId> + Send,
    P: FnMut(&PolicyView<'_>, &TaskView, &TaskView) -> bool + Send,
{
    FnPolicy {
        name: Arc::from(name),
        select,
        preempt,
        time_slice: None,
    }
}

impl<S, P> FnPolicy<S, P> {
    /// Adds a fixed time slice to the policy.
    pub fn with_time_slice(mut self, quantum: SimDuration) -> Self {
        self.time_slice = Some(quantum);
        self
    }
}

impl<S, P> fmt::Debug for FnPolicy<S, P> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("FnPolicy")
            .field("name", &self.name)
            .finish()
    }
}

impl<S, P> SchedulingPolicy for FnPolicy<S, P>
where
    S: FnMut(&PolicyView<'_>) -> Option<TaskId> + Clone + Send + 'static,
    P: FnMut(&PolicyView<'_>, &TaskView, &TaskView) -> bool + Clone + Send + 'static,
{
    fn name(&self) -> &str {
        &self.name
    }

    fn select(&mut self, view: &PolicyView<'_>) -> Option<TaskId> {
        (self.select)(view)
    }

    fn should_preempt(
        &mut self,
        view: &PolicyView<'_>,
        candidate: &TaskView,
        running: &TaskView,
    ) -> bool {
        (self.preempt)(view, candidate, running)
    }

    fn time_slice(&self, _view: &PolicyView<'_>, _task: &TaskView) -> Option<SimDuration> {
        self.time_slice
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::processor::{Processor, ProcessorConfig};
    use crate::task::TaskConfig;
    use rtsim_kernel::Simulator;
    use rtsim_trace::TraceRecorder;

    #[test]
    fn closure_policy_drives_a_processor() {
        // Lowest-id-first regardless of priority.
        let policy = from_fn(
            "lowest-id",
            |view: &PolicyView<'_>| view.ready.iter().map(|t| t.id).min(),
            |_v, _c, _r| false,
        );
        let mut sim = Simulator::new();
        let rec = TraceRecorder::new();
        let cpu = Processor::new(&mut sim, &rec, ProcessorConfig::new("CPU").policy(policy));
        let order = std::sync::Arc::new(rtsim_kernel::sync::Mutex::new(Vec::new()));
        for (i, prio) in [(0u32, 1u32), (1, 9), (2, 5)] {
            let order = std::sync::Arc::clone(&order);
            cpu.spawn_task(
                &mut sim,
                TaskConfig::new(&format!("t{i}")).priority(prio),
                move |t| {
                    order.lock().push(i);
                    t.execute(SimDuration::from_us(10));
                },
            );
        }
        sim.run().unwrap();
        // Spawn order == id order, not priority order.
        assert_eq!(*order.lock(), vec![0, 1, 2]);
    }

    #[test]
    fn time_slice_attachment() {
        let policy = from_fn(
            "rr-ish",
            |view: &PolicyView<'_>| {
                view.ready
                    .iter()
                    .min_by_key(|t| t.enqueue_seq)
                    .map(|t| t.id)
            },
            |_v, _c, _r| false,
        )
        .with_time_slice(SimDuration::from_us(7));
        let view = PolicyView {
            now: rtsim_kernel::SimTime::ZERO,
            ready: &[],
            running: None,
        };
        let probe = TaskView {
            id: TaskId::from_raw(0),
            priority: crate::task::Priority(0),
            period: None,
            absolute_deadline: None,
            enqueued_at: rtsim_kernel::SimTime::ZERO,
            enqueue_seq: 0,
        };
        assert_eq!(
            policy.time_slice(&view, &probe),
            Some(SimDuration::from_us(7))
        );
        assert!(format!("{policy:?}").contains("rr-ish"));
    }
}
