//! VCD (Value Change Dump, IEEE 1364) export of traces.
//!
//! The paper's CoFluent tool displays TimeLines in its own GUI; exporting
//! the same information as VCD lets any standard waveform viewer
//! (GTKWave & co.) display an `rtsim` run alongside RTL signals — the
//! natural interchange format for the HW/SW co-simulation audience the
//! paper targets.
//!
//! Encoding:
//!
//! - each **task** actor becomes a 3-bit register holding its state
//!   (see [`state_code`]);
//! - each **relation** actor becomes a 32-bit register holding the queue
//!   depth (for queues) or 0/1 (resource held) — whichever the relation
//!   reports;
//! - timescale is 1 ps, matching the kernel's resolution.

use std::io::{self, Write};

use crate::record::{ActorKind, TaskState, TraceData};
use crate::recorder::Trace;

/// 3-bit VCD encoding of a task state.
pub const fn state_code(state: TaskState) -> u8 {
    match state {
        TaskState::Created => 0,
        TaskState::Ready => 1,
        TaskState::Running => 2,
        TaskState::Waiting => 3,
        TaskState::WaitingResource => 4,
        TaskState::Terminated => 5,
    }
}

/// Generates the VCD identifier code for wire number `n` (printable
/// ASCII, shortest-first, per the VCD convention).
fn id_code(mut n: usize) -> String {
    let mut s = String::new();
    loop {
        s.push((b'!' + (n % 94) as u8) as char);
        n /= 94;
        if n == 0 {
            return s;
        }
        n -= 1;
    }
}

fn sanitize(name: &str) -> String {
    name.chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '_' {
                c
            } else {
                '_'
            }
        })
        .collect()
}

/// Writes `trace` as a VCD file to `out`.
///
/// # Errors
///
/// Propagates any I/O error from `out`.
///
/// # Examples
///
/// ```
/// use rtsim_kernel::SimTime;
/// use rtsim_trace::{vcd::write_vcd, ActorKind, TaskState, TraceRecorder};
///
/// # fn main() -> std::io::Result<()> {
/// let rec = TraceRecorder::new();
/// let t = rec.register("task_a", ActorKind::Task);
/// rec.state(t, SimTime::from_ps(5), TaskState::Running);
/// let mut buf = Vec::new();
/// write_vcd(&rec.snapshot(), &mut buf)?;
/// let text = String::from_utf8(buf).unwrap();
/// assert!(text.contains("$timescale 1 ps $end"));
/// assert!(text.contains("task_a"));
/// # Ok(())
/// # }
/// ```
pub fn write_vcd<W: Write>(trace: &Trace, mut out: W) -> io::Result<()> {
    writeln!(out, "$date rtsim trace export $end")?;
    writeln!(out, "$version rtsim 0.1 $end")?;
    writeln!(out, "$timescale 1 ps $end")?;
    writeln!(out, "$scope module rtsim $end")?;

    // One variable per actor worth dumping.
    let mut vars: Vec<(usize, String, u32)> = Vec::new(); // (actor idx, id code, width)
    for (idx, actor) in trace.actors().iter().enumerate() {
        let (width, suffix) = match actor.kind {
            ActorKind::Task => (3u32, "state"),
            ActorKind::Relation => (32, "level"),
            ActorKind::Processor => continue,
        };
        let code = id_code(vars.len());
        writeln!(
            out,
            "$var reg {width} {code} {}_{suffix} $end",
            sanitize(&actor.name)
        )?;
        vars.push((idx, code, width));
    }
    writeln!(out, "$upscope $end")?;
    writeln!(out, "$enddefinitions $end")?;

    // Initial values.
    writeln!(out, "#0")?;
    writeln!(out, "$dumpvars")?;
    for (_, code, width) in &vars {
        writeln!(out, "b{:0width$b} {code}", 0, width = *width as usize)?;
    }
    writeln!(out, "$end")?;

    let code_of = |actor: crate::record::ActorId| -> Option<(&str, u32)> {
        vars.iter()
            .find(|(idx, _, _)| *idx == actor.index())
            .map(|(_, code, width)| (code.as_str(), *width))
    };

    let mut last_time: Option<u64> = None;
    for rec in trace.records() {
        let (value, target) = match &rec.data {
            TraceData::State(s) => (u64::from(state_code(*s)), rec.actor),
            TraceData::QueueDepth { depth, .. } => (*depth as u64, rec.actor),
            TraceData::ResourceHeld(held) => (u64::from(*held), rec.actor),
            _ => continue,
        };
        let Some((code, width)) = code_of(target) else {
            continue;
        };
        let t = rec.at.as_ps();
        if last_time != Some(t) {
            writeln!(out, "#{t}")?;
            last_time = Some(t);
        }
        writeln!(out, "b{:0width$b} {code}", value, width = width as usize)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recorder::TraceRecorder;
    use rtsim_kernel::SimTime;

    fn ps(v: u64) -> SimTime {
        SimTime::from_ps(v)
    }

    fn export(rec: &TraceRecorder) -> String {
        let mut buf = Vec::new();
        write_vcd(&rec.snapshot(), &mut buf).unwrap();
        String::from_utf8(buf).unwrap()
    }

    #[test]
    fn header_and_vars_present() {
        let rec = TraceRecorder::new();
        rec.register("CPU", ActorKind::Processor); // skipped
        rec.register("task one", ActorKind::Task);
        rec.register("q", ActorKind::Relation);
        let text = export(&rec);
        assert!(text.contains("$timescale 1 ps $end"));
        assert!(text.contains("$var reg 3 ! task_one_state $end"));
        assert!(text.contains("$var reg 32 \" q_level $end"));
        assert!(!text.contains("CPU"));
        assert!(text.contains("$enddefinitions $end"));
    }

    #[test]
    fn state_changes_emit_timestamped_values() {
        let rec = TraceRecorder::new();
        let t = rec.register("t", ActorKind::Task);
        rec.state(t, ps(10), TaskState::Running);
        rec.state(t, ps(25), TaskState::Waiting);
        let text = export(&rec);
        assert!(text.contains("#10\nb010 !"));
        assert!(text.contains("#25\nb011 !"));
    }

    #[test]
    fn queue_depth_and_resource_levels() {
        let rec = TraceRecorder::new();
        let q = rec.register("q", ActorKind::Relation);
        let v = rec.register("v", ActorKind::Relation);
        rec.queue_depth(q, ps(5), 3, 8);
        rec.resource_held(v, ps(5), true);
        let text = export(&rec);
        let depth_line = format!("b{:032b} !", 3);
        let held_line = format!("b{:032b} \"", 1);
        assert!(text.contains(&depth_line), "{text}");
        assert!(text.contains(&held_line), "{text}");
        // Same-instant changes share one timestamp line.
        assert_eq!(text.matches("#5\n").count(), 1);
    }

    #[test]
    fn same_instant_records_share_timestamp() {
        let rec = TraceRecorder::new();
        let a = rec.register("a", ActorKind::Task);
        let b = rec.register("b", ActorKind::Task);
        rec.state(a, ps(7), TaskState::Running);
        rec.state(b, ps(7), TaskState::Ready);
        let text = export(&rec);
        assert_eq!(text.matches("#7\n").count(), 1);
    }

    #[test]
    fn id_codes_are_printable_and_unique() {
        let mut seen = std::collections::HashSet::new();
        for n in 0..500 {
            let code = id_code(n);
            assert!(code.chars().all(|c| ('!'..='~').contains(&c)));
            assert!(seen.insert(code));
        }
        assert_eq!(id_code(0), "!");
        assert_eq!(id_code(94), "!!");
    }

    #[test]
    fn state_codes_are_distinct() {
        let all = [
            TaskState::Created,
            TaskState::Ready,
            TaskState::Running,
            TaskState::Waiting,
            TaskState::WaitingResource,
            TaskState::Terminated,
        ];
        let mut seen = std::collections::HashSet::new();
        for s in all {
            assert!(seen.insert(state_code(s)));
            assert!(state_code(s) < 8); // fits 3 bits
        }
    }
}
