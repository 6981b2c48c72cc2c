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
    /// Computes statistics over `[0, horizon]`.
    ///
    /// # Panics
    ///
    /// Panics if `horizon` is zero (no interval to form ratios over).
    pub fn from_trace(trace: &Trace, horizon: SimTime) -> Self {
        Statistics::over_window(trace, SimTime::ZERO, horizon)
    }

    /// Computes statistics over the window `[from, until]` — e.g. the
    /// steady-state portion of a run, excluding startup transients.
    ///
    /// # Panics
    ///
    /// Panics if the window is empty.
    pub fn over_window(trace: &Trace, from: SimTime, until: SimTime) -> Self {
        assert!(until > from, "statistics over an empty window");
        let horizon = until;
        let horizon_ps = (until - from).as_ps() as f64;
        let mut tasks = BTreeMap::new();
        let mut names = BTreeMap::new();

        for actor in trace.actors_of_kind(ActorKind::Task) {
            let mut ts = TaskStats::default();
            for (start, end, state) in trace.state_intervals(actor, horizon) {
                let start = start.clamp(from, until);
                let end = end.clamp(from, until);
                let span = end - start;
                match state {
                    TaskState::Running => ts.running += span,
                    TaskState::Ready => ts.ready += span,
                    TaskState::Waiting => ts.waiting += span,
                    TaskState::WaitingResource => ts.waiting_resource += span,
                    TaskState::Created | TaskState::Terminated => {}
                }
            }
            let seq = trace.state_sequence(actor);
            ts.state_changes = seq.len() as u64;
            ts.preemptions = seq
                .windows(2)
                .filter(|w| w[0] == TaskState::Running && w[1] == TaskState::Ready)
                .count() as u64;
            ts.overhead = trace
                .records_for(actor)
                .filter_map(|r| match r.data {
                    TraceData::Overhead { duration, .. } if r.at >= from && r.at < until => {
                        Some(duration)
                    }
                    _ => None,
                })
                .sum();
            ts.activity_ratio = ts.running.as_ps() as f64 / horizon_ps;
            ts.preempted_ratio = ts.ready.as_ps() as f64 / horizon_ps;
            ts.waiting_ratio = ts.waiting.as_ps() as f64 / horizon_ps;
            ts.resource_ratio = ts.waiting_resource.as_ps() as f64 / horizon_ps;
            ts.overhead_ratio = ts.overhead.as_ps() as f64 / horizon_ps;
            names.insert(actor, trace.actor_name(actor).to_owned());
            tasks.insert(actor, ts);
        }

        let mut relations = BTreeMap::new();
        for actor in trace.actors_of_kind(ActorKind::Relation) {
            let mut rs = RelationStats::default();
            // Access counts come from Comm records on *task* actors that
            // reference this relation.
            for rec in trace.records() {
                if rec.at < from || rec.at >= until {
                    continue;
                }
                if let TraceData::Comm { relation, kind } = rec.data {
                    if relation == actor {
                        match kind {
                            CommKind::Read => rs.reads += 1,
                            CommKind::Write => rs.writes += 1,
                            CommKind::Signal => rs.signals += 1,
                        }
                    }
                }
            }
            rs.utilization = integrate_depth(trace, actor, from, until);
            rs.held_ratio = integrate_held(trace, actor, from, until);
            names.insert(actor, trace.actor_name(actor).to_owned());
            relations.insert(actor, rs);
        }

        Statistics {
            horizon,
            tasks,
            relations,
            names,
        }
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
        // The workspace-wide nearest-rank formula (ceil(q*n) - 1,
        // clamped, overflow-safe) — shared with `StatSummary` so the
        // two summaries can never disagree on what "p95" means.
        let rank = |q_num: u64, q_den: u64| -> SimDuration {
            sorted[rtsim_campaign::nearest_rank_index(q_num, q_den, count)]
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

impl fmt::Display for DurationSummary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "n={} min={} mean={} median={} p95={} max={}",
            self.count, self.min, self.mean, self.median, self.p95, self.max
        )
    }
}

/// Time-weighted mean of `depth/capacity` over `[from, until]`.
fn integrate_depth(trace: &Trace, actor: ActorId, from: SimTime, until: SimTime) -> f64 {
    let mut last_t = from;
    let mut last_frac = 0.0f64;
    let mut acc = 0.0f64;
    let mut saw_any = false;
    for rec in trace.records_for(actor) {
        if let TraceData::QueueDepth { depth, capacity } = rec.data {
            saw_any = true;
            let frac = if capacity == 0 {
                0.0
            } else {
                depth as f64 / capacity as f64
            };
            if rec.at <= from {
                // Establishes the level at the window start.
                last_frac = frac;
                continue;
            }
            let t = rec.at.min(until);
            acc += last_frac * (t - last_t).as_ps() as f64;
            last_t = t;
            last_frac = frac;
        }
    }
    if !saw_any {
        return 0.0;
    }
    acc += last_frac * (until - last_t.min(until)).as_ps() as f64;
    acc / (until - from).as_ps() as f64
}

/// Fraction of `[from, until]` during which the resource was held.
fn integrate_held(trace: &Trace, actor: ActorId, from: SimTime, until: SimTime) -> f64 {
    let mut last_t = from;
    let mut held = false;
    let mut acc = SimDuration::ZERO;
    let mut saw_any = false;
    for rec in trace.records_for(actor) {
        if let TraceData::ResourceHeld(h) = rec.data {
            saw_any = true;
            if rec.at <= from {
                held = h;
                continue;
            }
            let t = rec.at.min(until);
            if held {
                acc += t - last_t;
            }
            last_t = t;
            held = h;
        }
    }
    if !saw_any {
        return 0.0;
    }
    if held {
        acc += until - last_t.min(until);
    }
    acc.as_ps() as f64 / (until - from).as_ps() as f64
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

    #[test]
    fn window_statistics_exclude_outside_activity() {
        let rec = TraceRecorder::new();
        let t = rec.register("T", ActorKind::Task);
        rec.state(t, ps(0), TaskState::Running); // 0..50 outside
        rec.state(t, ps(50), TaskState::Waiting); // inside: waiting 50..150
        rec.state(t, ps(150), TaskState::Running); // inside: running 150..200
        rec.state(t, ps(250), TaskState::Waiting); // 200.. outside
        let stats = Statistics::over_window(&rec.snapshot(), ps(100), ps(200));
        let s = stats.task(t).unwrap();
        // Window is 100 ps long: waiting 100..150 (50%), running 150..200.
        assert!((s.waiting_ratio - 0.5).abs() < 1e-12, "{}", s.waiting_ratio);
        assert!(
            (s.activity_ratio - 0.5).abs() < 1e-12,
            "{}",
            s.activity_ratio
        );
    }

    #[test]
    fn window_held_ratio_uses_level_at_window_start() {
        let rec = TraceRecorder::new();
        let v = rec.register("V", ActorKind::Relation);
        rec.resource_held(v, ps(10), true); // held from 10
        rec.resource_held(v, ps(150), false); // released at 150
        let stats = Statistics::over_window(&rec.snapshot(), ps(100), ps(200));
        // Held 100..150 of a 100 ps window.
        assert!((stats.relation(v).unwrap().held_ratio - 0.5).abs() < 1e-12);
    }

    #[test]
    fn window_comm_counts_are_clipped() {
        let rec = TraceRecorder::new();
        let t = rec.register("T", ActorKind::Task);
        let q = rec.register("Q", ActorKind::Relation);
        rec.comm(t, ps(50), q, CommKind::Write); // before window
        rec.comm(t, ps(150), q, CommKind::Write); // inside
        rec.comm(t, ps(250), q, CommKind::Write); // after
        let stats = Statistics::over_window(&rec.snapshot(), ps(100), ps(200));
        assert_eq!(stats.relation(q).unwrap().writes, 1);
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

    /// Both summary types rank through the one shared nearest-rank
    /// implementation, so median/p95 must agree between them on the
    /// same samples — for every count, including the even-count case
    /// whose two formulas once drifted.
    #[test]
    fn duration_summary_agrees_with_campaign_summary() {
        use rtsim_campaign::StatSummary;
        for count in 1..=32u64 {
            let durations: Vec<SimDuration> = (0..count)
                .map(|k| SimDuration::from_us(3 * k + 1))
                .collect();
            let floats = durations.iter().map(|d| d.as_ps() as f64);
            let ours = DurationSummary::from_durations(durations.clone()).unwrap();
            let theirs = StatSummary::from_values(floats).unwrap();
            assert_eq!(ours.median.as_ps() as f64, theirs.median, "count {count}");
            assert_eq!(ours.p95.as_ps() as f64, theirs.p95, "count {count}");
            assert_eq!(ours.min.as_ps() as f64, theirs.min, "count {count}");
            assert_eq!(ours.max.as_ps() as f64, theirs.max, "count {count}");
        }
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
}
