//! In-memory spans around the layer calls the benchmark makes.
//!
//! Spans are recorded from outside the program: each one brackets a call
//! into a public rtsim function. They stay in memory and are written out
//! as JSONL when the run ends. A disabled tracer calls straight through,
//! so untraced passes pay one relaxed load per span site.

use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use rtsim::campaign::json::Json;

/// The pass number of the split measurements taken after the traced
/// window (traced passes count from 1).
pub const SPLIT_PASS: u32 = 0;

/// One timed call into a layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Unique id (from 1).
    pub id: u64,
    /// Id of the span that caused it; 0 for a root span.
    pub parent: u64,
    /// Layer call, e.g. `sim.run_until`.
    pub name: &'static str,
    /// Traced pass number, or [`SPLIT_PASS`].
    pub pass: u32,
    /// Start, in ns since the tracer was created.
    pub start_ns: u64,
    /// End, in ns since the tracer was created.
    pub end_ns: u64,
}

impl Span {
    /// Duration in ns.
    pub fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Collects spans from any thread while switched on.
#[derive(Debug)]
pub struct Tracer {
    on: AtomicBool,
    pass: AtomicU32,
    next_id: AtomicU64,
    origin: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            on: AtomicBool::new(false),
            pass: AtomicU32::new(SPLIT_PASS),
            next_id: AtomicU64::new(1),
            origin: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }
}

impl Tracer {
    /// Starts recording spans tagged with `pass`, or stops with `None`.
    pub fn record(&self, pass: Option<u32>) {
        if let Some(pass) = pass {
            self.pass.store(pass, Ordering::SeqCst);
        }
        self.on.store(pass.is_some(), Ordering::SeqCst);
    }

    /// Whether spans are being recorded.
    pub fn is_on(&self) -> bool {
        self.on.load(Ordering::Relaxed)
    }

    /// Runs `f` inside a span named `name` under `parent`, handing `f`
    /// the new span's id for its children (0 when switched off).
    pub fn span<T>(&self, name: &'static str, parent: u64, f: impl FnOnce(u64) -> T) -> T {
        if !self.is_on() {
            return f(0);
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let start_ns = self.now_ns();
        let out = f(id);
        let end_ns = self.now_ns();
        let span = Span {
            id,
            parent,
            name,
            pass: self.pass.load(Ordering::Relaxed),
            start_ns,
            end_ns,
        };
        self.spans.lock().expect("span list poisoned").push(span);
        out
    }

    /// Everything recorded so far, in completion order.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span list poisoned").clone()
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }
}

/// Calls, total and self time of one span name.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LayerTime {
    /// Spans with this name.
    pub calls: u64,
    /// Summed duration, ns.
    pub total_ns: u64,
    /// Summed duration minus the part covered by child spans, ns.
    pub self_ns: u64,
}

/// Per-name call counts, total and self time. A span's self time is its
/// duration minus the union of its children's intervals (children on
/// parallel workers overlap, so they are merged before subtracting).
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, LayerTime> {
    let mut children: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
    for s in spans {
        children
            .entry(s.parent)
            .or_default()
            .push((s.start_ns, s.end_ns));
    }
    let mut table: BTreeMap<&'static str, LayerTime> = BTreeMap::new();
    for s in spans {
        let covered = children.get_mut(&s.id).map_or(0, |kids| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut cursor = s.start_ns;
            for &(start, end) in kids.iter() {
                let (start, end) = (start.max(cursor), end.min(s.end_ns));
                if end > start {
                    covered += end - start;
                    cursor = end;
                }
            }
            covered
        });
        let row = table.entry(s.name).or_default();
        row.calls += 1;
        row.total_ns += s.ns();
        row.self_ns += s.ns() - covered;
    }
    table
}

/// Summed duration (ns) of the spans named `name`.
pub fn total_ns(spans: &[Span], name: &str) -> u64 {
    spans.iter().filter(|s| s.name == name).map(Span::ns).sum()
}

/// Median duration (ns) of the spans named `name`, 0 when there are none.
pub fn median_ns(spans: &[Span], name: &str) -> f64 {
    crate::median(
        spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.ns() as f64)
            .collect(),
    )
}

/// The spans as JSONL: `{id, name, start_ns, end_ns, parent, pass}` per line.
pub fn to_jsonl(spans: &[Span]) -> String {
    let mut out = String::new();
    for s in spans {
        let line = Json::obj([
            ("id", Json::from(s.id)),
            ("name", Json::from(s.name)),
            ("start_ns", Json::from(s.start_ns)),
            ("end_ns", Json::from(s.end_ns)),
            ("parent", Json::from(s.parent)),
            ("pass", Json::from(u64::from(s.pass))),
        ]);
        out.push_str(&line.to_string());
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: u64, name: &'static str, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            name,
            pass: 1,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        // Two overlapping children (parallel workers) cover 10..40 of 0..50.
        let spans = [
            span(1, 0, "grid", 0, 50),
            span(2, 1, "job", 10, 30),
            span(3, 1, "job", 20, 40),
        ];
        let table = self_times(&spans);
        assert_eq!(
            table["grid"],
            LayerTime {
                calls: 1,
                total_ns: 50,
                self_ns: 20
            }
        );
        assert_eq!(table["job"].self_ns, 40);
        assert_eq!(total_ns(&spans, "job"), 40);
    }

    #[test]
    fn a_switched_off_tracer_records_nothing() {
        let tracer = Tracer::default();
        assert_eq!(tracer.span("a", 0, |id| id), 0);
        tracer.record(Some(3));
        let id = tracer.span("a", 0, |id| tracer.span("b", id, |_| id));
        tracer.record(None);
        tracer.span("c", 0, |_| ());
        let spans = tracer.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].parent, id);
        assert!(spans.iter().all(|s| s.pass == 3));
    }
}
