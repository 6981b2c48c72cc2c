//! Canonical event serialization: a stable, line-oriented text form of a
//! [`Trace`], made for hashing and byte-comparison rather than for
//! humans.
//!
//! The regression farm reduces every simulation to a fingerprint over
//! this stream; two runs produce the same canonical text if and only if
//! they recorded the same events in the same order with the same
//! timestamps. The format is therefore deliberately exhaustive and
//! deliberately frozen:
//!
//! ```text
//! actor <index> <kind> <escaped-name>
//! ...
//! <at_ps> <seq> <actor-index> S <state>
//! <at_ps> <seq> <actor-index> O <overhead-kind> <duration_ps>
//! <at_ps> <seq> <actor-index> C <relation-index> <comm-kind>
//! <at_ps> <seq> <actor-index> Q <depth>/<capacity>
//! <at_ps> <seq> <actor-index> R acquired|released
//! <at_ps> <seq> <actor-index> A <escaped-label>
//! <at_ps> <seq> <actor-index> K <core>
//! <at_ps> <seq> <actor-index> F <fault-kind> <magnitude_ps>
//! ```
//!
//! Times are picoseconds since time zero; names and annotation labels
//! are escaped (`\\`, `\n`, `\s` for backslash, newline, space) so every
//! record stays exactly one line with space-separated fields. **Changing
//! this format invalidates every pinned fingerprint** — treat it like a
//! wire format, not an implementation detail.
//!
//! The format has exactly one writer: [`canonical_actor_into`] and
//! [`canonical_record_into`] append one line's bytes to a `Vec<u8>`.
//! [`canonical`] wraps them, and the farm's fingerprint and the
//! explorer's state hash feed their output straight into FNV-1a without
//! building a `String`.

use crate::record::{ActorInfo, Record, TraceData};
use crate::recorder::Trace;

/// `"00" "01" … "99"`: two decimal digits per table step.
const DIGIT_PAIRS: [u8; 200] = {
    let mut table = [0u8; 200];
    let mut i = 0;
    while i < 100 {
        table[2 * i] = b'0' + (i / 10) as u8;
        table[2 * i + 1] = b'0' + (i % 10) as u8;
        i += 1;
    }
    table
};

/// Appends `n` in decimal, two digits per division.
fn push_decimal(out: &mut Vec<u8>, mut n: u64) {
    let mut buf = [0u8; 20]; // u64::MAX has 20 digits
    let mut i = buf.len();
    while n >= 100 {
        let pair = (n % 100) as usize * 2;
        n /= 100;
        i -= 2;
        buf[i..i + 2].copy_from_slice(&DIGIT_PAIRS[pair..pair + 2]);
    }
    if n >= 10 {
        let pair = n as usize * 2;
        i -= 2;
        buf[i..i + 2].copy_from_slice(&DIGIT_PAIRS[pair..pair + 2]);
    } else {
        i -= 1;
        buf[i] = b'0' + n as u8;
    }
    out.extend_from_slice(&buf[i..]);
}

/// Appends a name or label escaped so it is one whitespace-free token.
/// Byte-wise is exact: the three escaped characters are ASCII, and no
/// byte of a multi-byte UTF-8 sequence is ASCII.
fn push_escaped(out: &mut Vec<u8>, s: &str) {
    for &b in s.as_bytes() {
        match b {
            b'\\' => out.extend_from_slice(b"\\\\"),
            b'\n' => out.extend_from_slice(b"\\n"),
            b' ' => out.extend_from_slice(b"\\s"),
            b => out.push(b),
        }
    }
}

/// Appends actor `index`'s canonical header line (no trailing newline).
pub fn canonical_actor_into(out: &mut Vec<u8>, index: usize, info: &ActorInfo) {
    out.extend_from_slice(b"actor ");
    push_decimal(out, index as u64);
    out.push(b' ');
    out.extend_from_slice(info.kind.key().as_bytes());
    out.push(b' ');
    push_escaped(out, &info.name);
}

/// Appends one record's canonical line (no trailing newline).
pub fn canonical_record_into(out: &mut Vec<u8>, r: &Record) {
    push_decimal(out, r.at.as_ps());
    out.push(b' ');
    push_decimal(out, r.seq);
    out.push(b' ');
    push_decimal(out, r.actor.index() as u64);
    match &r.data {
        TraceData::State(s) => {
            out.extend_from_slice(b" S ");
            out.extend_from_slice(s.key().as_bytes());
        }
        TraceData::Overhead { kind, duration } => {
            out.extend_from_slice(b" O ");
            out.extend_from_slice(kind.key().as_bytes());
            out.push(b' ');
            push_decimal(out, duration.as_ps());
        }
        TraceData::Comm { relation, kind } => {
            out.extend_from_slice(b" C ");
            push_decimal(out, relation.index() as u64);
            out.push(b' ');
            out.extend_from_slice(kind.key().as_bytes());
        }
        TraceData::QueueDepth { depth, capacity } => {
            out.extend_from_slice(b" Q ");
            push_decimal(out, *depth as u64);
            out.push(b'/');
            push_decimal(out, *capacity as u64);
        }
        TraceData::ResourceHeld(true) => out.extend_from_slice(b" R acquired"),
        TraceData::ResourceHeld(false) => out.extend_from_slice(b" R released"),
        TraceData::Annotation(label) => {
            out.extend_from_slice(b" A ");
            push_escaped(out, label);
        }
        TraceData::Core(core) => {
            out.extend_from_slice(b" K ");
            push_decimal(out, *core as u64);
        }
        TraceData::Fault { kind, magnitude_ps } => {
            out.extend_from_slice(b" F ");
            out.extend_from_slice(kind.key().as_bytes());
            out.push(b' ');
            push_decimal(out, *magnitude_ps);
        }
    }
}

/// Renders the canonical form of `trace` into a string.
///
/// The output covers the full actor table and every record (states,
/// overheads, communication accesses, queue depths, resource holds,
/// annotations), so any behavioural difference between two runs —
/// dispatch order, preemption instants, overhead placement — shows up as
/// a byte difference.
///
/// # Examples
///
/// ```
/// use rtsim_kernel::SimTime;
/// use rtsim_trace::{canonical, ActorKind, TaskState, TraceRecorder};
///
/// let rec = TraceRecorder::new();
/// let t = rec.register("Function_1", ActorKind::Task);
/// rec.state(t, SimTime::from_ps(42), TaskState::Running);
/// let text = canonical(&rec.snapshot());
/// assert_eq!(text, "actor 0 task Function_1\n42 0 0 S running\n");
/// ```
pub fn canonical(trace: &Trace) -> String {
    let mut out = Vec::new();
    for (index, info) in trace.actors().iter().enumerate() {
        canonical_actor_into(&mut out, index, info);
        out.push(b'\n');
    }
    for r in trace.records() {
        canonical_record_into(&mut out, r);
        out.push(b'\n');
    }
    // The writer only ever emits ASCII and whole `str`s.
    String::from_utf8(out).expect("canonical text is UTF-8")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::{ActorKind, CommKind, OverheadKind, TaskState};
    use crate::recorder::TraceRecorder;
    use rtsim_kernel::{SimDuration, SimTime};

    #[test]
    fn every_record_kind_renders_one_line() {
        let rec = TraceRecorder::new();
        let t = rec.register("T one", ActorKind::Task);
        let q = rec.register("Q", ActorKind::Relation);
        rec.state(t, SimTime::from_ps(1), TaskState::Ready);
        rec.overhead(
            t,
            SimTime::from_ps(2),
            OverheadKind::Scheduling,
            SimDuration::from_ps(5),
        );
        rec.comm(t, SimTime::from_ps(3), q, CommKind::Write);
        rec.queue_depth(q, SimTime::from_ps(3), 1, 4);
        rec.resource_held(q, SimTime::from_ps(4), true);
        rec.annotate(t, SimTime::from_ps(5), "mark here");
        let text = canonical(&rec.snapshot());
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(
            lines,
            vec![
                "actor 0 task T\\sone",
                "actor 1 relation Q",
                "1 0 0 S ready",
                "2 1 0 O scheduling 5",
                "3 2 0 C 1 write",
                "3 3 1 Q 1/4",
                "4 4 1 R acquired",
                "5 5 0 A mark\\shere",
            ]
        );
    }

    #[test]
    fn escaping_keeps_one_record_per_line() {
        let rec = TraceRecorder::new();
        let t = rec.register("a\nb\\c", ActorKind::Task);
        rec.annotate(t, SimTime::ZERO, "x y");
        let text = canonical(&rec.snapshot());
        assert_eq!(text.lines().count(), 2);
        assert!(text.starts_with("actor 0 task a\\nb\\\\c\n"));
    }

    #[test]
    fn identical_runs_are_byte_identical() {
        let build = || {
            let rec = TraceRecorder::new();
            let t = rec.register("T", ActorKind::Task);
            rec.state(t, SimTime::from_ps(10), TaskState::Running);
            rec.state(t, SimTime::from_ps(20), TaskState::Waiting);
            canonical(&rec.snapshot())
        };
        assert_eq!(build(), build());
    }

    #[test]
    fn decimal_matches_display_at_every_width() {
        let mut n = 1u64;
        let mut samples = vec![0, 9, 10, 99, 100, u64::MAX];
        while let Some(next) = n.checked_mul(10) {
            samples.extend([n - 1, n, n + 1]);
            n = next;
        }
        for v in samples {
            let mut out = Vec::new();
            push_decimal(&mut out, v);
            assert_eq!(out, v.to_string().into_bytes());
        }
    }
}
