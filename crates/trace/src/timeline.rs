//! ASCII TimeLine chart rendering — the text equivalent of the paper's
//! Figure 6/7 display tool.
//!
//! Each task actor gets one lane. Lane characters show the task state
//! (`#` running, `+` ready, `.` waiting, `x` waiting-for-resource), `%`
//! marks RTOS overhead segments, and `R`/`W`/`S` mark communication
//! accesses, like the arrows of the original tool.

use std::fmt::Write as _;

use rtsim_kernel::{SimDuration, SimTime};

use crate::record::{ActorId, ActorKind, TraceData};
use crate::recorder::Trace;

/// Configuration for [`render`].
#[derive(Debug, Clone)]
pub struct TimelineOptions {
    /// Chart width in character columns (the time axis resolution).
    pub width: usize,
    /// Start of the displayed window; defaults to time zero.
    pub from: SimTime,
    /// End of the displayed window; defaults to the trace horizon.
    pub until: Option<SimTime>,
    /// Restrict to these actors (in the given order); default: all task
    /// actors in registration order.
    pub actors: Option<Vec<ActorId>>,
    /// Include the legend below the chart.
    pub legend: bool,
}

impl Default for TimelineOptions {
    fn default() -> Self {
        TimelineOptions {
            width: 100,
            from: SimTime::ZERO,
            until: None,
            actors: None,
            legend: true,
        }
    }
}

/// Renders a trace as an ASCII TimeLine chart.
///
/// # Examples
///
/// ```
/// use rtsim_kernel::SimTime;
/// use rtsim_trace::{ActorKind, TaskState, TraceRecorder};
/// use rtsim_trace::timeline::{render, TimelineOptions};
///
/// let rec = TraceRecorder::new();
/// let t = rec.register("Function_1", ActorKind::Task);
/// rec.state(t, SimTime::from_ps(0), TaskState::Running);
/// rec.state(t, SimTime::from_ps(500), TaskState::Waiting);
/// let chart = render(&rec.snapshot(), &TimelineOptions {
///     width: 40,
///     until: Some(SimTime::from_ps(1_000)),
///     ..TimelineOptions::default()
/// });
/// assert!(chart.contains("Function_1"));
/// ```
///
/// # Panics
///
/// Panics if `options.width` is zero or the selected window is empty.
pub fn render(trace: &Trace, options: &TimelineOptions) -> String {
    assert!(options.width > 0, "timeline width must be positive");
    let from = options.from;
    let until = options.until.unwrap_or_else(|| trace.horizon());
    assert!(until > from, "timeline window is empty");
    let span = (until - from).as_ps();
    let width = options.width;

    let col_of = |t: SimTime| -> usize {
        let t = t.clamp(from, until);
        let off = (t - from).as_ps();
        ((off as u128 * width as u128) / span as u128) as usize
    };

    let actors: Vec<ActorId> = options
        .actors
        .clone()
        .unwrap_or_else(|| trace.actors_of_kind(ActorKind::Task).collect());
    let label_width = actors
        .iter()
        .map(|&a| trace.actor_name(a).len())
        .max()
        .unwrap_or(4)
        .max(4);

    let mut out = String::new();
    // Time axis header.
    let _ = writeln!(
        out,
        "{:>label_width$} |{}|",
        "time",
        axis_line(from, until, width),
        label_width = label_width
    );

    for &actor in &actors {
        let mut lane = vec![' '; width];
        // Paint state intervals first (instantaneous states paint
        // nothing)...
        for (start, end, state) in trace.state_intervals(actor, until) {
            if end <= from || start >= until {
                continue;
            }
            paint_span(&mut lane, col_of(start), col_of(end), state.glyph(), false);
        }
        // ...then overhead segments on top (kept at least one column wide
        // so short overheads stay visible)...
        for rec in trace.records_for(actor) {
            if let TraceData::Overhead { duration, .. } = rec.data {
                let end = rec.at.saturating_add(duration);
                if end <= from || rec.at >= until {
                    continue;
                }
                paint_span(&mut lane, col_of(rec.at), col_of(end), '%', true);
            }
        }
        // ...then communication markers on top of everything.
        for rec in trace.records_for(actor) {
            if let TraceData::Comm { kind, .. } = rec.data {
                if rec.at >= from && rec.at < until {
                    lane[col_of(rec.at).min(width - 1)] = kind.glyph();
                }
            }
        }
        let lane: String = lane.into_iter().collect();
        let _ = writeln!(
            out,
            "{:>label_width$} |{}|",
            trace.actor_name(actor),
            lane,
            label_width = label_width
        );
    }

    if options.legend {
        let _ = writeln!(
            out,
            "{:>label_width$} |# running  + ready  . waiting  x waiting-resource  % overhead  R/W/S comm|",
            "legend",
            label_width = label_width
        );
    }
    out
}

/// Paints `[start, end)` columns with `glyph`. With `min_one`, zero-width
/// spans still paint one column.
fn paint_span(lane: &mut [char], start: usize, end: usize, glyph: char, min_one: bool) {
    if glyph == ' ' {
        return;
    }
    let width = lane.len();
    let e = if min_one { end.max(start + 1) } else { end };
    for cell in lane.iter_mut().take(e.min(width)).skip(start.min(width)) {
        *cell = glyph;
    }
}

/// Builds the axis line with tick marks every ~10 columns.
fn axis_line(from: SimTime, until: SimTime, width: usize) -> String {
    let mut line = vec!['-'; width];
    let span = (until - from).as_ps();
    let ticks = (width / 20).max(1);
    let mut labels = String::new();
    for i in 0..=ticks {
        let col = i * width / ticks.max(1);
        if col < width {
            line[col] = '|';
        }
        let t = from + SimDuration::from_ps(span * i as u64 / ticks as u64);
        let _ = write!(labels, "{} ", t);
    }
    let line: String = line.into_iter().collect();
    format!("{line}| ticks: {labels}")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::{CommKind, OverheadKind, TaskState};
    use crate::recorder::TraceRecorder;

    fn ps(v: u64) -> SimTime {
        SimTime::from_ps(v)
    }

    fn lane_of<'a>(chart: &'a str, name: &str) -> &'a str {
        let line = chart
            .lines()
            .find(|l| l.trim_start().starts_with(name))
            .expect("lane present");
        let open = line.find('|').unwrap();
        let close = line.rfind('|').unwrap();
        &line[open + 1..close]
    }

    #[test]
    fn states_paint_expected_glyphs() {
        let rec = TraceRecorder::new();
        let t = rec.register("T", ActorKind::Task);
        rec.state(t, ps(0), TaskState::Running);
        rec.state(t, ps(50), TaskState::Ready);
        let chart = render(
            &rec.snapshot(),
            &TimelineOptions {
                width: 10,
                until: Some(ps(100)),
                legend: false,
                ..TimelineOptions::default()
            },
        );
        assert_eq!(lane_of(&chart, "T"), "#####+++++");
    }

    #[test]
    fn overhead_and_comm_are_painted_on_top() {
        let rec = TraceRecorder::new();
        let t = rec.register("T", ActorKind::Task);
        let q = rec.register("Q", ActorKind::Relation);
        rec.state(t, ps(0), TaskState::Running);
        rec.overhead(
            t,
            ps(40),
            OverheadKind::Scheduling,
            SimDuration::from_ps(20),
        );
        rec.comm(t, ps(90), q, CommKind::Write);
        let chart = render(
            &rec.snapshot(),
            &TimelineOptions {
                width: 10,
                until: Some(ps(100)),
                legend: false,
                ..TimelineOptions::default()
            },
        );
        assert_eq!(lane_of(&chart, "T"), "####%%###W");
    }

    #[test]
    fn instantaneous_state_does_not_hide_successor() {
        let rec = TraceRecorder::new();
        let t = rec.register("T", ActorKind::Task);
        rec.state(t, ps(0), TaskState::Waiting);
        rec.state(t, ps(50), TaskState::Ready); // instantaneous
        rec.state(t, ps(50), TaskState::Running);
        let chart = render(
            &rec.snapshot(),
            &TimelineOptions {
                width: 10,
                until: Some(ps(100)),
                legend: false,
                ..TimelineOptions::default()
            },
        );
        // The zero-length Ready state paints nothing; Running owns 50..100.
        assert_eq!(lane_of(&chart, "T"), ".....#####");
    }

    #[test]
    fn short_overhead_keeps_one_column() {
        let rec = TraceRecorder::new();
        let t = rec.register("T", ActorKind::Task);
        rec.state(t, ps(0), TaskState::Running);
        // 1 ps overhead in a 100 ps window rounds to zero columns but must
        // stay visible.
        rec.overhead(
            t,
            ps(50),
            OverheadKind::ContextSave,
            SimDuration::from_ps(1),
        );
        let chart = render(
            &rec.snapshot(),
            &TimelineOptions {
                width: 10,
                until: Some(ps(100)),
                legend: false,
                ..TimelineOptions::default()
            },
        );
        assert!(lane_of(&chart, "T").contains('%'));
    }

    #[test]
    fn legend_toggle() {
        let rec = TraceRecorder::new();
        let t = rec.register("T", ActorKind::Task);
        rec.state(t, ps(0), TaskState::Running);
        let with = render(
            &rec.snapshot(),
            &TimelineOptions {
                width: 10,
                until: Some(ps(10)),
                ..TimelineOptions::default()
            },
        );
        assert!(with.contains("legend"));
    }

    #[test]
    fn actor_filter_limits_lanes() {
        let rec = TraceRecorder::new();
        let a = rec.register("A", ActorKind::Task);
        let b = rec.register("B", ActorKind::Task);
        rec.state(a, ps(0), TaskState::Running);
        rec.state(b, ps(0), TaskState::Waiting);
        let chart = render(
            &rec.snapshot(),
            &TimelineOptions {
                width: 10,
                until: Some(ps(10)),
                actors: Some(vec![b]),
                legend: false,
                ..TimelineOptions::default()
            },
        );
        assert!(!chart.lines().any(|l| l.trim_start().starts_with("A ")));
        assert!(chart.lines().any(|l| l.trim_start().starts_with("B ")));
    }

    #[test]
    #[should_panic(expected = "window is empty")]
    fn empty_window_panics() {
        let rec = TraceRecorder::new();
        let _ = render(
            &rec.snapshot(),
            &TimelineOptions {
                until: Some(SimTime::ZERO),
                ..TimelineOptions::default()
            },
        );
    }
}
