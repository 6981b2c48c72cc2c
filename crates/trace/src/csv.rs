//! CSV export of traces, for offline analysis of TimeLine data.

use std::io::{self, Write};

use rtsim_campaign::csv::escape;

use crate::record::TraceData;
use crate::recorder::Trace;

/// Writes `trace` as CSV to `out`.
///
/// Columns: `time_ps,seq,actor,kind,detail,value`. One row per record,
/// ended by `\n`; names and annotations are quoted by
/// [`rtsim_campaign::csv::escape`]. Pass `&mut writer` if you need the
/// writer back.
///
/// # Errors
///
/// Propagates any I/O error from `out`.
///
/// # Examples
///
/// ```
/// use rtsim_kernel::SimTime;
/// use rtsim_trace::{write_csv, ActorKind, TaskState, TraceRecorder};
///
/// # fn main() -> std::io::Result<()> {
/// let rec = TraceRecorder::new();
/// let t = rec.register("T", ActorKind::Task);
/// rec.state(t, SimTime::from_ps(5), TaskState::Running);
/// let mut buf = Vec::new();
/// write_csv(&rec.snapshot(), &mut buf)?;
/// let text = String::from_utf8(buf).unwrap();
/// assert!(text.contains("5,0,T,state,running,"));
/// # Ok(())
/// # }
/// ```
pub fn write_csv<W: Write>(trace: &Trace, mut out: W) -> io::Result<()> {
    writeln!(out, "time_ps,seq,actor,kind,detail,value")?;
    for rec in trace.records() {
        let actor = escape(trace.actor_name(rec.actor));
        let (kind, detail, value) = match &rec.data {
            TraceData::State(s) => ("state", s.to_string(), String::new()),
            TraceData::Overhead { kind, duration } => {
                ("overhead", kind.to_string(), duration.as_ps().to_string())
            }
            TraceData::Comm { relation, kind } => (
                "comm",
                kind.to_string(),
                escape(trace.actor_name(*relation)),
            ),
            TraceData::QueueDepth { depth, capacity } => {
                ("queue_depth", depth.to_string(), capacity.to_string())
            }
            TraceData::ResourceHeld(held) => ("resource", held.to_string(), String::new()),
            TraceData::Annotation(label) => ("annotation", escape(label), String::new()),
            TraceData::Core(core) => ("core", core.to_string(), String::new()),
            TraceData::Fault { kind, magnitude_ps } => {
                ("fault", kind.to_string(), magnitude_ps.to_string())
            }
        };
        writeln!(
            out,
            "{},{},{},{},{},{}",
            rec.at.as_ps(),
            rec.seq,
            actor,
            kind,
            detail,
            value
        )?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::{ActorKind, CommKind, OverheadKind, TaskState};
    use crate::recorder::TraceRecorder;
    use rtsim_kernel::{SimDuration, SimTime};

    #[test]
    fn all_record_kinds_export() {
        let rec = TraceRecorder::new();
        let t = rec.register("T", ActorKind::Task);
        let q = rec.register("Q,with comma", ActorKind::Relation);
        let at = SimTime::from_ps(1);
        rec.state(t, at, TaskState::Ready);
        rec.overhead(t, at, OverheadKind::ContextLoad, SimDuration::from_ps(5));
        rec.comm(t, at, q, CommKind::Read);
        rec.queue_depth(q, at, 2, 4);
        rec.resource_held(q, at, true);
        rec.annotate(t, at, "note");
        rec.annotate(t, at, "carriage\rreturn");
        let mut buf = Vec::new();
        write_csv(&rec.snapshot(), &mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert_eq!(text.lines().count(), 8); // header + 7 records
        assert!(text.contains("state,ready"));
        assert!(text.contains("overhead,context-load,5"));
        assert!(text.contains("comm,read,\"Q,with comma\""));
        assert!(text.contains("queue_depth,2,4"));
        assert!(text.contains("resource,true"));
        assert!(text.contains("annotation,note"));
        // A bare `\r` would split the row for RFC 4180 readers.
        assert!(text.contains("annotation,\"carriage\rreturn\""));
    }
}
