//! Whole-run statistics, reproducing the paper's Figure 8: per-task
//! activity / preempted / waiting-for-resource ratios and communication
//! utilization.

use std::collections::BTreeMap;
use std::fmt;

use rtsim_kernel::{SimDuration, SimTime};

use crate::record::{ActorId, ActorKind, CommKind, TaskState, TraceData};
use crate::recorder::Trace;

/// Time-in-state breakdown and derived ratios for one task.
///
/// Ratios are fractions of the statistics horizon, so across one task
/// `activity + preempted + waiting + resource ≤ 1` (the remainder being
/// time before creation / after termination and overhead time).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct TaskStats {
    /// Time spent Running (paper: *activity ratio* numerator).
    pub running: SimDuration,
    /// Time spent Ready — i.e. preempted or waiting for the processor.
    pub ready: SimDuration,
    /// Time spent Waiting on a synchronization.
    pub waiting: SimDuration,
    /// Time spent waiting on a mutual-exclusion resource.
    pub waiting_resource: SimDuration,
    /// Total RTOS overhead attributed to this task.
    pub overhead: SimDuration,
    /// Number of Running → Ready transitions (preemption count).
    pub preemptions: u64,
    /// Number of state changes of any kind.
    pub state_changes: u64,
    /// Fraction of the horizon spent Running (Figure 8 item (1)).
    pub activity_ratio: f64,
    /// Fraction of the horizon spent Ready (Figure 8 item (2)).
    pub preempted_ratio: f64,
    /// Fraction of the horizon spent Waiting on synchronizations.
    pub waiting_ratio: f64,
    /// Fraction of the horizon spent waiting on resources (Figure 8 (3)).
    pub resource_ratio: f64,
    /// Fraction of the horizon spent in RTOS overhead for this task.
    pub overhead_ratio: f64,
}

/// Usage statistics for one communication relation.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct RelationStats {
    /// Read accesses.
    pub reads: u64,
    /// Write accesses.
    pub writes: u64,
    /// Signal accesses.
    pub signals: u64,
    /// Time-weighted mean queue occupancy divided by capacity, if the
    /// relation reported depths (Figure 8 item (4) for queues).
    pub utilization: f64,
    /// Fraction of the horizon a mutual-exclusion resource was held, if
    /// the relation reported holds.
    pub held_ratio: f64,
}

impl RelationStats {
    /// Total accesses of all kinds.
    pub fn accesses(&self) -> u64 {
        self.reads + self.writes + self.signals
    }
}

/// Aggregated statistics over a whole trace, the programmatic equivalent
/// of the paper's Figure 8 panel.
///
/// # Examples
///
/// ```
/// use rtsim_kernel::SimTime;
/// use rtsim_trace::{ActorKind, Statistics, TaskState, TraceRecorder};
///
/// let rec = TraceRecorder::new();
/// let t = rec.register("T", ActorKind::Task);
/// rec.state(t, SimTime::from_ps(0), TaskState::Running);
/// rec.state(t, SimTime::from_ps(60), TaskState::Waiting);
/// let stats = Statistics::from_trace(&rec.snapshot(), SimTime::from_ps(100));
/// assert!((stats.task(t).unwrap().activity_ratio - 0.6).abs() < 1e-9);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Statistics {
    horizon: SimTime,
    tasks: BTreeMap<ActorId, TaskStats>,
    relations: BTreeMap<ActorId, RelationStats>,
    names: BTreeMap<ActorId, String>,
}

impl Statistics {
    /// Computes statistics over `[0, horizon]` in one pass over the
    /// records. Time in each state, overheads, accesses and relation
    /// levels count up to `horizon`; the preemption and state-change
    /// counts cover the whole trace.
    ///
    /// # Panics
    ///
    /// Panics if `horizon` is zero (no interval to form ratios over).
    pub fn from_trace(trace: &Trace, horizon: SimTime) -> Self {
        assert!(horizon > SimTime::ZERO, "statistics over an empty window");
        let actors = trace.actors();
        let mut tasks: Vec<Option<TaskFold>> = actors
            .iter()
            .map(|a| (a.kind == ActorKind::Task).then(TaskFold::default))
            .collect();
        let mut relations: Vec<Option<RelationFold>> = actors
            .iter()
            .map(|a| (a.kind == ActorKind::Relation).then(RelationFold::default))
            .collect();
        for r in trace.records() {
            let actor = r.actor.index();
            match r.data {
                TraceData::State(state) => {
                    if let Some(Some(task)) = tasks.get_mut(actor) {
                        task.change(r.at, state, horizon);
                    }
                }
                TraceData::Overhead { duration, .. } if r.at < horizon => {
                    if let Some(Some(task)) = tasks.get_mut(actor) {
                        task.stats.overhead += duration;
                    }
                }
                // Access counts come from Comm records on *task* actors
                // that reference the relation.
                TraceData::Comm { relation, kind } if r.at < horizon => {
                    if let Some(Some(rel)) = relations.get_mut(relation.index()) {
                        match kind {
                            CommKind::Read => rel.stats.reads += 1,
                            CommKind::Write => rel.stats.writes += 1,
                            CommKind::Signal => rel.stats.signals += 1,
                        }
                    }
                }
                TraceData::QueueDepth { depth, capacity } => {
                    if let Some(Some(rel)) = relations.get_mut(actor) {
                        let fill = if capacity == 0 {
                            0.0
                        } else {
                            f64::from(depth) / f64::from(capacity)
                        };
                        rel.depth.step(r.at, horizon, fill);
                    }
                }
                TraceData::ResourceHeld(held) => {
                    if let Some(Some(rel)) = relations.get_mut(actor) {
                        rel.held.step(r.at, horizon, if held { 1.0 } else { 0.0 });
                    }
                }
                _ => {}
            }
        }

        let ratio = |d: SimDuration| d.as_ps() as f64 / horizon.as_ps() as f64;
        let mut stats = Statistics {
            horizon,
            tasks: BTreeMap::new(),
            relations: BTreeMap::new(),
            names: BTreeMap::new(),
        };
        for (index, (task, relation)) in tasks.into_iter().zip(relations).enumerate() {
            let id = ActorId(index as u32);
            if let Some(mut task) = task {
                task.close(horizon, horizon);
                let ts = &mut task.stats;
                ts.activity_ratio = ratio(ts.running);
                ts.preempted_ratio = ratio(ts.ready);
                ts.waiting_ratio = ratio(ts.waiting);
                ts.resource_ratio = ratio(ts.waiting_resource);
                ts.overhead_ratio = ratio(ts.overhead);
                stats.tasks.insert(id, task.stats);
            } else if let Some(mut rel) = relation {
                rel.stats.utilization = rel.depth.mean(horizon);
                rel.stats.held_ratio = rel.held.mean(horizon);
                stats.relations.insert(id, rel.stats);
            } else {
                continue;
            }
            stats.names.insert(id, actors[index].name.clone());
        }
        stats
    }

    /// The horizon the ratios are relative to.
    pub fn horizon(&self) -> SimTime {
        self.horizon
    }

    /// Statistics for one task actor, if it is a task.
    pub fn task(&self, actor: ActorId) -> Option<&TaskStats> {
        self.tasks.get(&actor)
    }

    /// Statistics for one relation actor, if it is a relation.
    pub fn relation(&self, actor: ActorId) -> Option<&RelationStats> {
        self.relations.get(&actor)
    }

    /// All task statistics in actor order.
    pub fn tasks(&self) -> impl Iterator<Item = (ActorId, &TaskStats)> + '_ {
        self.tasks.iter().map(|(&id, s)| (id, s))
    }

    /// All relation statistics in actor order.
    pub fn relations(&self) -> impl Iterator<Item = (ActorId, &RelationStats)> + '_ {
        self.relations.iter().map(|(&id, s)| (id, s))
    }

    fn name(&self, id: ActorId) -> &str {
        self.names.get(&id).map_or("?", String::as_str)
    }
}

impl fmt::Display for Statistics {
    /// Renders the Figure 8 panel as a text table.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "statistics over {} :", self.horizon)?;
        writeln!(
            f,
            "{:<16} {:>9} {:>10} {:>9} {:>10} {:>10} {:>6}",
            "task", "activity", "preempted", "waiting", "resource", "overhead", "#pre"
        )?;
        for (id, t) in &self.tasks {
            writeln!(
                f,
                "{:<16} {:>8.1}% {:>9.1}% {:>8.1}% {:>9.1}% {:>9.1}% {:>6}",
                self.name(*id),
                t.activity_ratio * 100.0,
                t.preempted_ratio * 100.0,
                t.waiting_ratio * 100.0,
                t.resource_ratio * 100.0,
                t.overhead_ratio * 100.0,
                t.preemptions,
            )?;
        }
        if !self.relations.is_empty() {
            writeln!(
                f,
                "{:<16} {:>6} {:>6} {:>7} {:>12} {:>10}",
                "relation", "reads", "writes", "signals", "utilization", "held"
            )?;
            for (id, r) in &self.relations {
                writeln!(
                    f,
                    "{:<16} {:>6} {:>6} {:>7} {:>11.1}% {:>9.1}%",
                    self.name(*id),
                    r.reads,
                    r.writes,
                    r.signals,
                    r.utilization * 100.0,
                    r.held_ratio * 100.0,
                )?;
            }
        }
        Ok(())
    }
}

/// Summary statistics of a set of durations (latencies, response times),
/// the number-crunching behind exploration tables.
///
/// # Examples
///
/// ```
/// use rtsim_kernel::SimDuration;
/// use rtsim_trace::DurationSummary;
///
/// let latencies = [5u64, 1, 3, 2, 4].map(SimDuration::from_us);
/// let summary = DurationSummary::from_durations(latencies).unwrap();
/// assert_eq!(summary.min, SimDuration::from_us(1));
/// assert_eq!(summary.max, SimDuration::from_us(5));
/// assert_eq!(summary.median, SimDuration::from_us(3));
/// assert_eq!(summary.count, 5);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DurationSummary {
    /// Number of samples.
    pub count: usize,
    /// Smallest sample.
    pub min: SimDuration,
    /// Largest sample.
    pub max: SimDuration,
    /// Arithmetic mean (truncating).
    pub mean: SimDuration,
    /// Median (lower median for even counts).
    pub median: SimDuration,
    /// 95th percentile (nearest-rank).
    pub p95: SimDuration,
}

impl DurationSummary {
    /// Summarizes a collection of durations; `None` when empty.
    pub fn from_durations<I: IntoIterator<Item = SimDuration>>(values: I) -> Option<Self> {
        let mut sorted: Vec<SimDuration> = values.into_iter().collect();
        if sorted.is_empty() {
            return None;
        }
        sorted.sort_unstable();
        let count = sorted.len();
        let total_ps: u128 = sorted.iter().map(|d| u128::from(d.as_ps())).sum();
        let rank = |q_num: u64, q_den: u64| -> SimDuration {
            sorted[nearest_rank_index(q_num, q_den, count)]
        };
        Some(DurationSummary {
            count,
            min: sorted[0],
            max: sorted[count - 1],
            mean: SimDuration::from_ps((total_ps / count as u128) as u64),
            median: rank(1, 2),
            p95: rank(95, 100),
        })
    }
}

/// Index of the nearest-rank `q_num/q_den` quantile among `count` sorted
/// samples: `ceil(q * count) - 1`, clamped to `0..count`.
///
/// Computed in `u128` so `q_num * count` cannot overflow even for counts
/// near `usize::MAX` (on 64-bit, `95 * count` overflows for counts
/// beyond `usize::MAX / 95`). By construction `p0` is index 0 (the
/// minimum), `p50` the *lower* median, and `p100` index `count - 1`
/// (the maximum) — property-tested below.
///
/// # Examples
///
/// ```
/// use rtsim_trace::stats::nearest_rank_index;
///
/// assert_eq!(nearest_rank_index(1, 2, 10), 4); // lower median
/// assert_eq!(nearest_rank_index(95, 100, 100), 94);
/// ```
pub fn nearest_rank_index(q_num: u64, q_den: u64, count: usize) -> usize {
    let idx = (u128::from(q_num) * count as u128)
        .div_ceil(u128::from(q_den))
        .saturating_sub(1);
    idx.min((count - 1) as u128) as usize
}

impl fmt::Display for DurationSummary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "n={} min={} mean={} median={} p95={} max={}",
            self.count, self.min, self.mean, self.median, self.p95, self.max
        )
    }
}

/// One task's totals while [`Statistics::from_trace`] walks the trace.
#[derive(Default)]
struct TaskFold {
    stats: TaskStats,
    /// The state the task is in, and since when.
    current: Option<(SimTime, TaskState)>,
}

impl TaskFold {
    /// Ends the current state at `until`, counting its time up to
    /// `horizon`.
    fn close(&mut self, until: SimTime, horizon: SimTime) {
        let Some((since, state)) = self.current else {
            return;
        };
        let span = until.max(since).min(horizon) - since.min(horizon);
        match state {
            TaskState::Running => self.stats.running += span,
            TaskState::Ready => self.stats.ready += span,
            TaskState::Waiting => self.stats.waiting += span,
            TaskState::WaitingResource => self.stats.waiting_resource += span,
            TaskState::Created | TaskState::Terminated => {}
        }
    }

    fn change(&mut self, at: SimTime, state: TaskState, horizon: SimTime) {
        self.close(at, horizon);
        if state == TaskState::Ready && matches!(self.current, Some((_, TaskState::Running))) {
            self.stats.preemptions += 1;
        }
        self.stats.state_changes += 1;
        self.current = Some((at, state));
    }
}

/// One relation's totals while [`Statistics::from_trace`] walks the
/// trace.
#[derive(Default)]
struct RelationFold {
    stats: RelationStats,
    /// Queue fill, `depth / capacity`.
    depth: Level,
    /// Resource hold: 1 while held, 0 while free.
    held: Level,
}

/// A piecewise-constant level a relation reports, integrated over time
/// up to the statistics horizon.
#[derive(Default)]
struct Level {
    since: SimTime,
    value: f64,
    area: f64,
    reported: bool,
}

impl Level {
    /// The level becomes `value` at `at`.
    fn step(&mut self, at: SimTime, horizon: SimTime, value: f64) {
        let at = at.min(horizon);
        self.area += self.value * (at - self.since).as_ps() as f64;
        (self.since, self.value, self.reported) = (at, value, true);
    }

    /// Time-weighted mean over `[0, horizon]` (0 if never reported).
    fn mean(&self, horizon: SimTime) -> f64 {
        if !self.reported {
            return 0.0;
        }
        let tail = self.value * (horizon - self.since).as_ps() as f64;
        (self.area + tail) / horizon.as_ps() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::OverheadKind;
    use crate::recorder::TraceRecorder;

    fn ps(v: u64) -> SimTime {
        SimTime::from_ps(v)
    }

    #[test]
    fn task_ratios_sum_over_states() {
        let rec = TraceRecorder::new();
        let t = rec.register("T", ActorKind::Task);
        rec.state(t, ps(0), TaskState::Running);
        rec.state(t, ps(40), TaskState::Ready);
        rec.state(t, ps(60), TaskState::Running);
        rec.state(t, ps(70), TaskState::Waiting);
        rec.state(t, ps(90), TaskState::WaitingResource);
        let stats = Statistics::from_trace(&rec.snapshot(), ps(100));
        let s = stats.task(t).unwrap();
        assert_eq!(s.running, SimDuration::from_ps(50));
        assert_eq!(s.ready, SimDuration::from_ps(20));
        assert_eq!(s.waiting, SimDuration::from_ps(20));
        assert_eq!(s.waiting_resource, SimDuration::from_ps(10));
        assert!((s.activity_ratio - 0.5).abs() < 1e-12);
        assert!((s.preempted_ratio - 0.2).abs() < 1e-12);
        assert_eq!(s.preemptions, 1);
        assert_eq!(s.state_changes, 5);
    }

    #[test]
    fn overhead_is_summed() {
        let rec = TraceRecorder::new();
        let t = rec.register("T", ActorKind::Task);
        rec.state(t, ps(0), TaskState::Running);
        rec.overhead(
            t,
            ps(10),
            OverheadKind::ContextSave,
            SimDuration::from_ps(5),
        );
        rec.overhead(t, ps(15), OverheadKind::Scheduling, SimDuration::from_ps(5));
        let stats = Statistics::from_trace(&rec.snapshot(), ps(100));
        assert_eq!(stats.task(t).unwrap().overhead, SimDuration::from_ps(10));
        assert!((stats.task(t).unwrap().overhead_ratio - 0.1).abs() < 1e-12);
    }

    #[test]
    fn relation_access_counts_and_utilization() {
        let rec = TraceRecorder::new();
        let t = rec.register("T", ActorKind::Task);
        let q = rec.register("Q", ActorKind::Relation);
        rec.comm(t, ps(0), q, CommKind::Write);
        rec.queue_depth(q, ps(0), 1, 2);
        rec.comm(t, ps(50), q, CommKind::Read);
        rec.queue_depth(q, ps(50), 0, 2);
        let stats = Statistics::from_trace(&rec.snapshot(), ps(100));
        let r = stats.relation(q).unwrap();
        assert_eq!(r.writes, 1);
        assert_eq!(r.reads, 1);
        assert_eq!(r.accesses(), 2);
        // Depth 1/2 for half the horizon: utilization 0.25.
        assert!((r.utilization - 0.25).abs() < 1e-12);
    }

    #[test]
    fn held_ratio_integrates_lock_spans() {
        let rec = TraceRecorder::new();
        let v = rec.register("V", ActorKind::Relation);
        rec.resource_held(v, ps(10), true);
        rec.resource_held(v, ps(30), false);
        rec.resource_held(v, ps(80), true);
        let stats = Statistics::from_trace(&rec.snapshot(), ps(100));
        // Held 10..30 and 80..100 = 40 of 100.
        assert!((stats.relation(v).unwrap().held_ratio - 0.4).abs() < 1e-12);
    }

    #[test]
    fn display_renders_a_table() {
        let rec = TraceRecorder::new();
        let t = rec.register("Function_1", ActorKind::Task);
        rec.state(t, ps(0), TaskState::Running);
        let stats = Statistics::from_trace(&rec.snapshot(), ps(100));
        let table = stats.to_string();
        assert!(table.contains("Function_1"));
        assert!(table.contains("activity"));
    }

    #[test]
    #[should_panic(expected = "empty window")]
    fn zero_horizon_panics() {
        let rec = TraceRecorder::new();
        let _ = Statistics::from_trace(&rec.snapshot(), SimTime::ZERO);
    }

    /// Time in each state counts inside `[0, horizon]` only; the
    /// preemption and state-change counts cover the whole trace.
    #[test]
    fn window_statistics_exclude_outside_activity() {
        let rec = TraceRecorder::new();
        let t = rec.register("T", ActorKind::Task);
        rec.state(t, ps(0), TaskState::Running); // running 0..50
        rec.state(t, ps(50), TaskState::Waiting); // waiting 50..100 inside
        rec.state(t, ps(150), TaskState::Running); // past the horizon
        rec.state(t, ps(180), TaskState::Ready);
        let stats = Statistics::from_trace(&rec.snapshot(), ps(100));
        let s = stats.task(t).unwrap();
        assert_eq!(s.running, SimDuration::from_ps(50));
        assert_eq!(s.waiting, SimDuration::from_ps(50));
        assert_eq!(s.ready, SimDuration::ZERO);
        assert!((s.activity_ratio - 0.5).abs() < 1e-12);
        assert_eq!((s.preemptions, s.state_changes), (1, 4));
    }

    /// A level reported at time zero holds from the window start, and a
    /// level still up at the horizon counts to it.
    #[test]
    fn window_held_ratio_uses_level_at_window_start() {
        let rec = TraceRecorder::new();
        let v = rec.register("V", ActorKind::Relation);
        let q = rec.register("Q", ActorKind::Relation);
        rec.resource_held(v, ps(0), true); // held from 0
        rec.queue_depth(q, ps(0), 2, 2); // full from 0
        rec.queue_depth(q, ps(50), 0, 2);
        rec.resource_held(v, ps(150), false); // released past the horizon
        let stats = Statistics::from_trace(&rec.snapshot(), ps(100));
        assert!((stats.relation(v).unwrap().held_ratio - 1.0).abs() < 1e-12);
        assert!((stats.relation(q).unwrap().utilization - 0.5).abs() < 1e-12);
    }

    /// Accesses and overheads at or past the horizon fall outside the
    /// statistics window `[0, horizon)`.
    #[test]
    fn window_comm_counts_are_clipped() {
        let rec = TraceRecorder::new();
        let t = rec.register("T", ActorKind::Task);
        let q = rec.register("Q", ActorKind::Relation);
        rec.comm(t, ps(50), q, CommKind::Write); // inside
        rec.overhead(t, ps(50), OverheadKind::Scheduling, SimDuration::from_ps(5));
        rec.comm(t, ps(100), q, CommKind::Write); // at the horizon
        rec.overhead(
            t,
            ps(100),
            OverheadKind::Scheduling,
            SimDuration::from_ps(5),
        );
        rec.comm(t, ps(250), q, CommKind::Read); // after
        let stats = Statistics::from_trace(&rec.snapshot(), ps(100));
        assert_eq!(stats.relation(q).unwrap().accesses(), 1);
        assert_eq!(stats.task(t).unwrap().overhead, SimDuration::from_ps(5));
    }

    #[test]
    fn duration_summary_percentiles() {
        let values: Vec<SimDuration> = (1..=100).map(SimDuration::from_us).collect();
        let s = DurationSummary::from_durations(values).unwrap();
        assert_eq!(s.count, 100);
        assert_eq!(s.min, SimDuration::from_us(1));
        assert_eq!(s.max, SimDuration::from_us(100));
        assert_eq!(s.median, SimDuration::from_us(50));
        assert_eq!(s.p95, SimDuration::from_us(95));
        assert_eq!(s.mean, SimDuration::from_ps(50_500_000));
        assert!(s.to_string().contains("p95=95 us"));
    }

    #[test]
    fn duration_summary_empty_and_singleton() {
        assert_eq!(DurationSummary::from_durations([]), None);
        let s = DurationSummary::from_durations([SimDuration::from_ns(7)]).unwrap();
        assert_eq!(s.min, s.max);
        assert_eq!(s.median, SimDuration::from_ns(7));
        assert_eq!(s.p95, SimDuration::from_ns(7));
    }

    #[test]
    fn intervals_past_horizon_are_clipped() {
        let rec = TraceRecorder::new();
        let t = rec.register("T", ActorKind::Task);
        rec.state(t, ps(0), TaskState::Running);
        rec.state(t, ps(150), TaskState::Waiting); // beyond horizon
        let stats = Statistics::from_trace(&rec.snapshot(), ps(100));
        assert_eq!(stats.task(t).unwrap().running, SimDuration::from_ps(100));
        assert_eq!(stats.task(t).unwrap().waiting, SimDuration::ZERO);
    }

    #[test]
    fn nearest_rank_survives_extreme_counts() {
        // `95 * count` would overflow usize for counts past
        // usize::MAX / 95; the u128 arithmetic must not.
        let count = usize::MAX;
        assert_eq!(nearest_rank_index(1, 2, count), count.div_ceil(2) - 1);
        assert_eq!(nearest_rank_index(100, 100, count), count - 1);
        let p95 = nearest_rank_index(95, 100, count);
        assert!(p95 < count && p95 > count / 2);
        // Small-count sanity: ranks match the closure they replaced.
        assert_eq!(nearest_rank_index(1, 2, 100), 49);
        assert_eq!(nearest_rank_index(95, 100, 100), 94);
        assert_eq!(nearest_rank_index(95, 100, 1), 0);
    }

    /// The anchor identities of the rank formula: on any sorted input,
    /// p0 is the minimum, p50 the lower median, p100 the maximum.
    #[test]
    fn nearest_rank_anchors_hold_for_all_counts() {
        use rtsim_kernel::testutil::check;
        check(
            128,
            |rng| {
                let count = rng.gen_range(1usize..500);
                let mut values = rng.gen_vec(count..count + 1, |r| r.gen_range(0u64..1_000));
                values.sort_unstable();
                values
            },
            |sorted| {
                let n = sorted.len();
                // p0 = min, p100 = max, exactly.
                assert_eq!(nearest_rank_index(0, 100, n), 0);
                assert_eq!(nearest_rank_index(100, 100, n), n - 1);
                // p50 = lower median: index ceil(n/2) - 1.
                assert_eq!(nearest_rank_index(50, 100, n), n.div_ceil(2) - 1);
                // 1/2 and 50/100 must agree (same quantile, different form).
                assert_eq!(nearest_rank_index(1, 2, n), nearest_rank_index(50, 100, n));
                // Via the summary: the selected samples are min/median/max.
                let s = DurationSummary::from_durations(
                    sorted.iter().map(|&v| SimDuration::from_ps(v)),
                )
                .unwrap();
                assert_eq!(s.min.as_ps(), sorted[0]);
                assert_eq!(s.max.as_ps(), sorted[n - 1]);
                assert_eq!(s.median.as_ps(), sorted[n.div_ceil(2) - 1]);
                // Monotonicity across the whole percentile range.
                let mut last = 0usize;
                for p in 0..=100u64 {
                    let idx = nearest_rank_index(p, 100, n);
                    assert!(idx >= last && idx < n);
                    last = idx;
                }
            },
        );
    }
}
