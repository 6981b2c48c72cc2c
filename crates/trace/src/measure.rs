//! TimeLine measurements: the programmatic version of "measuring with the
//! cursor" on the paper's TimeLine chart (§5: *"we can measure the time
//! spent between an external event and the system's reaction"*).

use rtsim_kernel::{SimDuration, SimTime};

use crate::record::{ActorId, TaskState, TraceData};
use crate::recorder::Trace;

/// Measurement helpers over a [`Trace`].
///
/// # Examples
///
/// ```
/// use rtsim_kernel::SimTime;
/// use rtsim_trace::{ActorKind, Measure, TaskState, TraceRecorder};
///
/// let rec = TraceRecorder::new();
/// let clk = rec.register("Clock", ActorKind::Task);
/// let f1 = rec.register("Function_1", ActorKind::Task);
/// rec.annotate(clk, SimTime::from_ps(100), "clk");
/// rec.state(f1, SimTime::from_ps(115), TaskState::Running);
/// let trace = rec.snapshot();
/// let m = Measure::new(&trace);
/// let latency = m.reaction_time("clk", f1).unwrap();
/// assert_eq!(latency.as_ps(), 15);
/// ```
#[derive(Debug, Clone, Copy)]
pub struct Measure<'a> {
    trace: &'a Trace,
}

impl<'a> Measure<'a> {
    /// Wraps a trace for measurement.
    pub fn new(trace: &'a Trace) -> Self {
        Measure { trace }
    }

    /// First time `actor` enters `state` at or after `after`.
    pub fn first_transition_to(
        &self,
        actor: ActorId,
        state: TaskState,
        after: SimTime,
    ) -> Option<SimTime> {
        self.trace.records_for(actor).find_map(|r| match r.data {
            TraceData::State(s) if s == state && r.at >= after => Some(r.at),
            _ => None,
        })
    }

    /// Every time `actor` enters `state`.
    pub fn transitions_to(&self, actor: ActorId, state: TaskState) -> Vec<SimTime> {
        self.trace
            .records_for(actor)
            .filter_map(|r| match r.data {
                TraceData::State(s) if s == state => Some(r.at),
                _ => None,
            })
            .collect()
    }

    /// Latency from the first occurrence of annotation `label` to the next
    /// time `reactor` starts Running — the paper's external-event-to-
    /// reaction measurement.
    pub fn reaction_time(&self, label: &str, reactor: ActorId) -> Option<SimDuration> {
        let stimulus = *self.trace.annotation_times(label).first()?;
        let reaction = self.first_transition_to(reactor, TaskState::Running, stimulus)?;
        Some(reaction - stimulus)
    }

    /// Latencies from *every* occurrence of annotation `label` to the next
    /// Running transition of `reactor`. Occurrences with no subsequent
    /// reaction are omitted.
    pub fn reaction_times(&self, label: &str, reactor: ActorId) -> Vec<SimDuration> {
        self.trace
            .annotation_times(label)
            .into_iter()
            .filter_map(|stim| {
                self.first_transition_to(reactor, TaskState::Running, stim)
                    .map(|r| r - stim)
            })
            .collect()
    }

    /// Total time `actor` spent in `state` within `[from, until]`.
    pub fn time_in_state(
        &self,
        actor: ActorId,
        state: TaskState,
        from: SimTime,
        until: SimTime,
    ) -> SimDuration {
        self.trace
            .state_intervals(actor, until)
            .into_iter()
            .filter(|&(_, _, s)| s == state)
            .map(|(s, e, _)| {
                let s = s.max(from).min(until);
                let e = e.max(from).min(until);
                e - s
            })
            .sum()
    }

    /// Splits a task's trace into *jobs* by folding its state changes
    /// through [`JobFold`], the one rule for where a job starts and
    /// ends: a job starts when the task becomes Ready out of a
    /// synchronization wait (or at creation) and completes at the next
    /// Waiting/Terminated record. Preemptions and resource waits are
    /// within-job; a job has started at its first Running in between.
    pub fn jobs(&self, actor: ActorId) -> Vec<Job> {
        let mut fold = JobFold::default();
        let mut jobs: Vec<Job> = Vec::new();
        // `jobs[open..]` are the jobs not completed yet.
        let mut open = 0;
        for r in self.trace.records_for(actor) {
            let TraceData::State(state) = r.data else {
                continue;
            };
            match fold.observe(r.at, state) {
                Some(JobEdge::Opened) => jobs.push(Job {
                    activated: r.at,
                    started: None,
                    completed: None,
                }),
                Some(JobEdge::Completed) => {
                    for job in &mut jobs[open..] {
                        job.completed = Some(r.at);
                    }
                    open = jobs.len();
                }
                None if state == TaskState::Running => {
                    for job in &mut jobs[open..] {
                        job.started.get_or_insert(r.at);
                    }
                }
                None => {}
            }
        }
        jobs
    }

    /// Per-job response times (activation → completion) of a task.
    /// Incomplete final jobs are omitted.
    pub fn response_times(&self, actor: ActorId) -> Vec<SimDuration> {
        self.jobs(actor)
            .into_iter()
            .filter_map(|j| j.response())
            .collect()
    }

    /// Per-job start latencies (activation → first Running), the release
    /// jitter observed by the task's output.
    pub fn start_latencies(&self, actor: ActorId) -> Vec<SimDuration> {
        self.jobs(actor)
            .into_iter()
            .filter_map(|j| j.started.map(|s| s - j.activated))
            .collect()
    }
}

/// One activation of a task, as recovered from the trace by
/// [`Measure::jobs`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Job {
    /// When the task became Ready.
    pub activated: SimTime,
    /// When it first ran for this job, if it did.
    pub started: Option<SimTime>,
    /// When it blocked or terminated again, if it did.
    pub completed: Option<SimTime>,
}

impl Job {
    /// Activation-to-completion response time, if the job completed.
    pub fn response(&self) -> Option<SimDuration> {
        self.completed.map(|c| c - self.activated)
    }
}

/// The job rule: one task's state changes, folded one record at a time
/// into its jobs' response times (a count and the min, total and max).
///
/// Feed it the task's state changes in trace order. A job opens at
/// every activation (a `Ready` whose previous state is none, `Created`
/// or `Waiting`), every open job completes at the next `Waiting` or
/// `Terminated`, and jobs still open at the end are left out.
/// [`observe`](JobFold::observe) reports each opening and completion,
/// which is how [`Measure::jobs`] splits a trace into [`Job`]s; the
/// farm fingerprint keeps only the summary. Open jobs are kept as a
/// count plus their earliest, latest and summed activation times —
/// exact, because trace times never decrease.
///
/// # Examples
///
/// ```
/// use rtsim_kernel::SimTime;
/// use rtsim_trace::{JobFold, TaskState};
///
/// let mut fold = JobFold::default();
/// for (at, state) in [(0, TaskState::Ready), (5, TaskState::Running), (20, TaskState::Waiting)] {
///     fold.observe(SimTime::from_ps(at), state);
/// }
/// assert_eq!((fold.jobs(), fold.min_ps(), fold.mean_ps(), fold.max_ps()), (1, 20, 20, 20));
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct JobFold {
    prev: Option<TaskState>,
    open: u64,
    open_first: u64,
    open_last: u64,
    open_sum: u128,
    jobs: u64,
    min: u64,
    total: u128,
    max: u64,
}

/// What one state change did to a task's jobs, as
/// [`JobFold::observe`] reports it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobEdge {
    /// The change activated a job.
    Opened,
    /// The change completed every open job.
    Completed,
}

impl JobFold {
    /// Folds in the task's next state change and reports whether it
    /// opened a job or completed the open ones.
    pub fn observe(&mut self, at: SimTime, state: TaskState) -> Option<JobEdge> {
        let at = at.as_ps();
        let edge = match state {
            TaskState::Ready
                if matches!(
                    self.prev,
                    None | Some(TaskState::Created | TaskState::Waiting)
                ) =>
            {
                if self.open == 0 {
                    self.open_first = at;
                }
                self.open += 1;
                self.open_last = at;
                self.open_sum += u128::from(at);
                Some(JobEdge::Opened)
            }
            TaskState::Waiting | TaskState::Terminated if self.open > 0 => {
                let (shortest, longest) = (at - self.open_last, at - self.open_first);
                if self.jobs == 0 {
                    (self.min, self.max) = (shortest, longest);
                } else {
                    self.min = self.min.min(shortest);
                    self.max = self.max.max(longest);
                }
                self.jobs += self.open;
                self.total += u128::from(self.open) * u128::from(at) - self.open_sum;
                self.open = 0;
                self.open_sum = 0;
                Some(JobEdge::Completed)
            }
            _ => None,
        };
        self.prev = Some(state);
        edge
    }

    /// Completed jobs so far.
    pub fn jobs(&self) -> u64 {
        self.jobs
    }

    /// Shortest response time in picoseconds (0 without jobs).
    pub fn min_ps(&self) -> u64 {
        self.min
    }

    /// Longest response time in picoseconds (0 without jobs).
    pub fn max_ps(&self) -> u64 {
        self.max
    }

    /// Sum of all response times in picoseconds.
    pub fn total_ps(&self) -> u128 {
        self.total
    }

    /// Mean response time in picoseconds, rounded down (0 without jobs).
    pub fn mean_ps(&self) -> u64 {
        match self.jobs {
            0 => 0,
            n => (self.total / u128::from(n)) as u64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::ActorKind;
    use crate::recorder::TraceRecorder;

    fn ps(v: u64) -> SimTime {
        SimTime::from_ps(v)
    }

    #[test]
    fn transitions_and_first_transition() {
        let rec = TraceRecorder::new();
        let t = rec.register("T", ActorKind::Task);
        rec.state(t, ps(10), TaskState::Running);
        rec.state(t, ps(20), TaskState::Waiting);
        rec.state(t, ps(30), TaskState::Running);
        let trace = rec.snapshot();
        let m = Measure::new(&trace);
        assert_eq!(
            m.transitions_to(t, TaskState::Running),
            vec![ps(10), ps(30)]
        );
        assert_eq!(
            m.first_transition_to(t, TaskState::Running, ps(11)),
            Some(ps(30))
        );
        assert_eq!(m.first_transition_to(t, TaskState::Ready, ps(0)), None);
    }

    #[test]
    fn reaction_times_per_stimulus() {
        let rec = TraceRecorder::new();
        let clk = rec.register("clk", ActorKind::Task);
        let t = rec.register("T", ActorKind::Task);
        rec.annotate(clk, ps(0), "tick");
        rec.state(t, ps(5), TaskState::Running);
        rec.state(t, ps(10), TaskState::Waiting);
        rec.annotate(clk, ps(100), "tick");
        rec.state(t, ps(120), TaskState::Running);
        let trace = rec.snapshot();
        let m = Measure::new(&trace);
        assert_eq!(
            m.reaction_times("tick", t),
            vec![SimDuration::from_ps(5), SimDuration::from_ps(20)]
        );
        assert_eq!(m.reaction_time("tick", t), Some(SimDuration::from_ps(5)));
        assert_eq!(m.reaction_time("missing", t), None);
    }

    #[test]
    fn time_in_state_is_window_clipped() {
        let rec = TraceRecorder::new();
        let t = rec.register("T", ActorKind::Task);
        rec.state(t, ps(0), TaskState::Running);
        rec.state(t, ps(100), TaskState::Waiting);
        let trace = rec.snapshot();
        let m = Measure::new(&trace);
        assert_eq!(
            m.time_in_state(t, TaskState::Running, ps(25), ps(75)),
            SimDuration::from_ps(50)
        );
    }

    #[test]
    fn jobs_and_response_times() {
        let rec = TraceRecorder::new();
        let t = rec.register("T", ActorKind::Task);
        rec.state(t, ps(0), TaskState::Created);
        rec.state(t, ps(0), TaskState::Ready);
        rec.state(t, ps(5), TaskState::Running);
        rec.state(t, ps(20), TaskState::Waiting); // job 1: response 20
        rec.state(t, ps(50), TaskState::Ready);
        rec.state(t, ps(50), TaskState::Running);
        rec.state(t, ps(60), TaskState::Ready); // preemption: same job
        rec.state(t, ps(70), TaskState::Running);
        rec.state(t, ps(95), TaskState::Terminated); // job 2: response 45
        let trace = rec.snapshot();
        let m = Measure::new(&trace);
        let jobs = m.jobs(t);
        assert_eq!(jobs.len(), 2);
        assert_eq!(jobs[0].started, Some(ps(5)));
        assert_eq!(
            m.response_times(t),
            vec![SimDuration::from_ps(20), SimDuration::from_ps(45)]
        );
        assert_eq!(
            m.start_latencies(t),
            vec![SimDuration::from_ps(5), SimDuration::from_ps(0)]
        );
    }

    #[test]
    fn incomplete_job_has_no_response() {
        let rec = TraceRecorder::new();
        let t = rec.register("T", ActorKind::Task);
        rec.state(t, ps(0), TaskState::Ready);
        rec.state(t, ps(5), TaskState::Running); // never completes
        let trace = rec.snapshot();
        let m = Measure::new(&trace);
        let jobs = m.jobs(t);
        assert_eq!(jobs.len(), 1);
        assert_eq!(jobs[0].response(), None);
        assert!(m.response_times(t).is_empty());
    }
}
