//! # rtsim-benchmark
//!
//! The rtsim benchmark: five workloads that each stress a different set
//! of layers, measured end to end (untraced) and layer by layer (traced).
//! Every layer is measured from outside: the benchmark times calls into
//! public rtsim functions and reads their public counters.
//!
//! A run is a closed loop with one client. It sets up [`SETUP_REPEATS`]
//! times (each set-up makes the inputs and runs one warm-up pass;
//! `setup_s` is the median of making the inputs plus the warm-up pass's
//! timed section), then runs timed passes back to back until the window
//! is spent. Every end-to-end time is scaled by the [`gauge`] samples
//! taken on either side of it, so the host's drifting speed cancels out.
//! Every output of every pass is checked against an oracle, and every
//! exact counter must repeat across passes. A traced run splits the
//! window: untraced passes first, then passes with spans around each
//! layer call, then split measurements (spans tagged with pass
//! [`spans::SPLIT_PASS`]) that take single simulations apart.
//!
//! See `README.md` next to this crate for the workloads, the metrics and
//! their bounds, and how to run it.

mod alloc;
mod explore;
mod farm;
mod gauge;
mod grid_cache;
pub mod long_sim;
mod probe;
pub mod spans;

use std::collections::BTreeMap;
use std::time::Instant;

use gauge::{Gauge, Timed};
use probe::Counts;
use spans::{Span, Tracer, SPLIT_PASS};

/// Campaign workers of the pool workloads.
pub const WORKERS: usize = 2;

/// Set-ups per run; `setup_s` is their median.
pub const SETUP_REPEATS: usize = 3;

/// End-to-end metrics `(name, unit)`, emitted by every untraced run.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("throughput_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics `(name, unit)`, emitted by every traced run. A
/// workload that never reaches a layer reports 0 for it.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("mcse.build_us", "us"),
    ("mcse.elaborate_us", "us"),
    ("sim.run_ns_per_event", "ns"),
    ("sim.run_share", "ratio"),
    ("kernel.process_switches", "count"),
    ("kernel.delta_cycles", "count"),
    ("kernel.time_advances", "count"),
    ("kernel.event_wakes", "count"),
    ("kernel.thread_ns_per_switch", "ns"),
    ("core.dispatches", "count"),
    ("core.preemptions", "count"),
    ("core.scheduler_runs", "count"),
    ("core.deadline_misses", "count"),
    ("comm.ops", "count"),
    ("trace.records", "count"),
    ("trace.canonical_bytes", "B"),
    ("trace.snapshot_ns_per_event", "ns"),
    ("trace.canonical_ns_per_event", "ns"),
    ("trace.measure_ns_per_event", "ns"),
    ("farm.fingerprint_ns_per_event", "ns"),
    ("farm.fingerprint_share", "ratio"),
    ("campaign.jobs", "count"),
    ("campaign.busy_s", "s"),
    ("campaign.parallel_efficiency", "ratio"),
    ("grid.hits", "count"),
    ("grid.misses", "count"),
    ("grid.bytes_read", "B"),
    ("grid.hit_ratio", "ratio"),
    ("grid.cold_cells_per_s", "1/s"),
    ("grid.load_us_per_cell", "us"),
    ("grid.decode_us_per_cell", "us"),
    ("grid.store_us_per_cell", "us"),
    ("check.runs", "count"),
    ("check.states", "count"),
    ("check.choice_points", "count"),
    ("check.distinct_traces", "count"),
    ("check.prune_ratio", "ratio"),
    ("check.us_per_run", "us"),
    ("check.replay_us", "us"),
    ("check.search_us_per_run", "us"),
    ("alloc.count_per_event", "allocs/event"),
    ("alloc.bytes_per_event", "B/event"),
    ("alloc.count_per_item", "allocs/item"),
    ("bench.trace_overhead", "ratio"),
];

/// Whether a per-layer metric in `unit` is an exact counter: one that
/// must repeat exactly across the passes of a run and across runs with
/// the same seed.
pub fn is_exact(unit: &str) -> bool {
    matches!(unit, "count" | "B")
}

/// One registered workload.
pub struct Workload {
    /// Name on the command line.
    pub name: &'static str,
    /// Name and unit of the throughput in this workload's own terms.
    throughput_alias: (&'static str, &'static str),
    setup: fn(u64) -> Result<Box<dyn Load>, String>,
}

/// The five workloads, in the order the README describes them.
pub const WORKLOADS: &[Workload] = &[
    Workload {
        name: "farm_segment",
        throughput_alias: ("farm_cells_per_s", "cells/s"),
        setup: farm::setup_segment,
    },
    Workload {
        name: "farm_thread",
        throughput_alias: ("farm_cells_per_s", "cells/s"),
        setup: farm::setup_thread,
    },
    Workload {
        name: "explore",
        throughput_alias: ("explore_runs_per_s", "replays/s"),
        setup: explore::setup,
    },
    Workload {
        name: "long_sim",
        throughput_alias: ("sim_events_per_s", "records/s"),
        setup: long_sim::setup,
    },
    Workload {
        name: "grid_cache",
        throughput_alias: ("grid_warm_cells_per_s", "cells/s"),
        setup: grid_cache::setup,
    },
];

/// How long the timed window runs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Window {
    /// Exactly this many passes (at least one).
    Passes(usize),
    /// Passes back to back until this many seconds have elapsed (at
    /// least one pass).
    Seconds(f64),
}

/// Outputs checked and outputs found wrong.
#[derive(Debug, Clone, Default)]
pub struct Checks {
    /// Outputs checked.
    pub attempted: u64,
    /// Outputs that were wrong.
    pub failed: u64,
    /// What went wrong, first few failures only.
    pub messages: Vec<String>,
}

impl Checks {
    /// Counts one checked output, recording `what` if it is wrong.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.messages.len() < 20 {
                self.messages.push(what());
            }
        }
    }

    /// Wrong outputs over outputs checked.
    pub fn fail_share(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }
}

/// What one pass did.
#[derive(Debug, Clone, Default)]
pub(crate) struct Pass {
    /// Duration of the timed sections.
    pub time: Timed,
    /// Work items completed (cells, replays or trace records).
    pub items: u64,
    /// Trace records simulated.
    pub events: u64,
    /// Allocations and bytes requested during the pass, all threads (set
    /// by `drive`).
    pub allocs: (u64, u64),
    /// Exact counters.
    pub counts: Counts,
    /// Campaign pool time: summed job walls and summed pool walls, in s.
    pub busy: Option<(f64, f64)>,
    /// Extra per-pass rates reported as per-layer metrics.
    pub rates: Vec<(&'static str, f64)>,
}

/// Per-layer metric values by name.
pub(crate) type Layers = BTreeMap<&'static str, f64>;

/// A workload after set-up.
pub(crate) trait Load {
    /// Runs one pass under span `parent`, times its measured sections on
    /// `gauge` and checks its outputs.
    fn pass(
        &mut self,
        tracer: &Tracer,
        parent: u64,
        gauge: &mut Gauge,
        checks: &mut Checks,
    ) -> Pass;

    /// Runs the checks that follow the window. When the tracer is on,
    /// also takes the split measurements, counting their work into
    /// `split` and setting any metric only this workload can compute.
    fn finish(
        &mut self,
        tracer: &Tracer,
        checks: &mut Checks,
        split: &mut Counts,
        layers: &mut Layers,
    );
}

/// One metric value with its unit.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Metric {
    /// Metric name.
    pub name: &'static str,
    /// Value as measured.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// Everything one run measured.
#[derive(Debug)]
pub struct Report {
    /// Outputs checked and found wrong.
    pub checks: Checks,
    /// The end-to-end metrics, in [`END_TO_END`] order.
    pub end_to_end: Vec<Metric>,
    /// The per-layer metrics in [`PER_LAYER`] order (traced runs only).
    pub per_layer: Vec<Metric>,
    /// Human-readable diagnostics.
    pub notes: Vec<String>,
    /// Every recorded span (traced runs only).
    pub spans: Vec<Span>,
}

/// Runs workload `name` with inputs drawn from `seed`.
///
/// # Errors
///
/// An unknown workload name or inputs that cannot be loaded.
pub fn run(name: &str, seed: u64, window: Window, traced: bool) -> Result<Report, String> {
    let workload = WORKLOADS
        .iter()
        .find(|w| w.name == name)
        .ok_or_else(|| format!("unknown workload `{name}`"))?;
    let mut checks = Checks::default();
    let tracer = Tracer::default();

    let mut setups = Vec::new();
    let mut load = None;
    let mut gauge = Gauge::new();
    for _ in 0..SETUP_REPEATS {
        drop(load.take());
        let (fresh, inputs) = gauge.time(|| (workload.setup)(seed));
        let mut fresh = fresh?;
        let warm_up = fresh.pass(&tracer, 0, &mut gauge, &mut checks);
        setups.push((inputs + warm_up.time).scaled);
        load = Some(fresh);
    }
    let mut load = load.expect("at least one set-up");

    let window = match window {
        Window::Seconds(s) if traced => Window::Seconds(s / 2.0),
        w => w,
    };
    let passes = drive(&mut *load, &tracer, &mut gauge, window, false, &mut checks);
    let peak_rss_mb = peak_rss_mb();
    let traced_passes = if traced {
        drive(&mut *load, &tracer, &mut gauge, window, true, &mut checks)
    } else {
        Vec::new()
    };
    let mut split = Counts::new();
    let mut layers = Layers::new();
    tracer.record(traced.then_some(SPLIT_PASS));
    load.finish(&tracer, &mut checks, &mut split, &mut layers);
    tracer.record(None);
    drop(load);

    let rates: Vec<f64> = passes.iter().map(throughput).collect();
    let throughput_per_s = median(rates.clone());
    let host_rates: Vec<f64> = passes
        .iter()
        .map(|p| p.items as f64 / p.time.host.as_secs_f64())
        .collect();
    let end_to_end = vec![
        Metric {
            name: "setup_s",
            value: median(setups),
            unit: "s",
        },
        Metric {
            name: "throughput_per_s",
            value: throughput_per_s,
            unit: "1/s",
        },
        Metric {
            name: "peak_rss_mb",
            value: peak_rss_mb,
            unit: "MB",
        },
    ];
    let (alias, alias_unit) = workload.throughput_alias;
    let mut notes = vec![
        format!("{alias} {throughput_per_s} {alias_unit} (scaled to the gauge)"),
        diagnostics(&rates),
        format!(
            "{alias} {} {alias_unit} (host seconds)",
            median(host_rates.clone())
        ),
        diagnostics(&host_rates),
        format!(
            "gauge {} s per sample (median), nominal {} s",
            median(gauge.samples().to_vec()),
            gauge::NOMINAL_S
        ),
    ];

    let mut per_layer = Vec::new();
    let mut spans = Vec::new();
    if traced {
        spans = tracer.spans();
        let traced_rate = median(traced_passes.iter().map(throughput).collect());
        layers.insert("bench.trace_overhead", throughput_per_s / traced_rate - 1.0);
        let window = Measured {
            passes: &passes,
            traced: &traced_passes,
            split: &split,
            spans: &spans,
        };
        fill_layers(&window, &mut layers);
        per_layer = PER_LAYER
            .iter()
            .map(|&(name, unit)| Metric {
                name,
                value: layers.get(name).copied().unwrap_or(0.0),
                unit,
            })
            .collect();
        notes.extend(self_time_table(
            "traced passes",
            spans.iter().filter(|s| s.pass != SPLIT_PASS),
        ));
        notes.extend(self_time_table(
            "split measurements",
            spans.iter().filter(|s| s.pass == SPLIT_PASS),
        ));
    }
    Ok(Report {
        checks,
        end_to_end,
        per_layer,
        notes,
        spans,
    })
}

/// Runs passes until the window is spent, gating every exact counter
/// against the window's first pass.
fn drive(
    load: &mut dyn Load,
    tracer: &Tracer,
    gauge: &mut Gauge,
    window: Window,
    traced: bool,
    checks: &mut Checks,
) -> Vec<Pass> {
    let started = Instant::now();
    let mut passes: Vec<Pass> = Vec::new();
    loop {
        let spent = match window {
            Window::Passes(n) => passes.len() >= n.max(1),
            Window::Seconds(s) => !passes.is_empty() && started.elapsed().as_secs_f64() >= s,
        };
        if spent {
            return passes;
        }
        let number = u32::try_from(passes.len() + 1).expect("pass count fits u32");
        tracer.record(traced.then_some(number));
        let (count0, bytes0) = alloc::totals();
        let (gauge_count0, gauge_bytes0) = gauge.allocs();
        let mut pass = tracer.span("pass", 0, |id| load.pass(tracer, id, gauge, checks));
        let (count1, bytes1) = alloc::totals();
        let (gauge_count1, gauge_bytes1) = gauge.allocs();
        tracer.record(None);
        pass.allocs = (
            count1 - count0 - (gauge_count1 - gauge_count0),
            bytes1 - bytes0 - (gauge_bytes1 - gauge_bytes0),
        );
        if let Some(first) = passes.first() {
            gate_counts(&first.counts, &pass.counts, checks);
        }
        passes.push(pass);
    }
}

/// Checks that every exact counter of `now` equals `first`'s.
pub(crate) fn gate_counts(first: &Counts, now: &Counts, checks: &mut Checks) {
    for (name, value) in now {
        let expected = first.get(name);
        checks.check(expected == Some(value), || {
            format!("counter {name} is {value}, the window's first pass had {expected:?}")
        });
    }
    checks.check(first.len() == now.len(), || {
        "the set of counters changed between passes".to_owned()
    });
}

/// The measurements per-layer metrics are derived from.
struct Measured<'a> {
    passes: &'a [Pass],
    traced: &'a [Pass],
    split: &'a Counts,
    spans: &'a [Span],
}

/// Derives every per-layer metric the workload has not set itself.
fn fill_layers(m: &Measured<'_>, layers: &mut Layers) {
    let window: Vec<Span> = m
        .spans
        .iter()
        .filter(|s| s.pass != SPLIT_PASS)
        .copied()
        .collect();
    let split: Vec<Span> = m
        .spans
        .iter()
        .filter(|s| s.pass == SPLIT_PASS)
        .copied()
        .collect();
    let last = m.traced.last().map(|p| &p.counts);
    let count = |name: &str| -> f64 {
        last.and_then(|c| c.get(name))
            .or_else(|| m.split.get(name))
            .map_or(0.0, |&v| v as f64)
    };
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    let mut set = |name: &'static str, value: f64| {
        layers.entry(name).or_insert(value);
    };

    for &(name, _) in PER_LAYER {
        if last.is_some_and(|c| c.contains_key(name)) || m.split.contains_key(name) {
            set(name, count(name));
        }
    }

    // Median per call, from the traced passes where the workload's own
    // pipeline makes the call, else from the split measurements.
    let median_us = |name| {
        let traced = spans::median_ns(&window, name);
        if traced > 0.0 {
            traced / 1e3
        } else {
            spans::median_ns(&split, name) / 1e3
        }
    };
    set("mcse.build_us", median_us("mcse.build"));
    set("mcse.elaborate_us", median_us("mcse.elaborate"));

    let traced_records: u64 = m
        .traced
        .iter()
        .map(|p| p.counts.get("trace.records").copied().unwrap_or(0))
        .sum();
    let split_records = m.split.get("trace.records").copied().unwrap_or(0) as f64;
    let run_window = spans::total_ns(&window, "sim.run_until") as f64;
    set(
        "sim.run_ns_per_event",
        if run_window > 0.0 {
            ratio(run_window, traced_records as f64)
        } else {
            ratio(
                spans::total_ns(&split, "sim.run_until") as f64,
                split_records,
            )
        },
    );
    let jobs = spans::total_ns(&window, "job") as f64;
    set("sim.run_share", ratio(run_window, jobs));
    set(
        "farm.fingerprint_share",
        ratio(spans::total_ns(&window, "farm.fingerprint") as f64, jobs),
    );

    let thread_extra = spans::total_ns(&split, "sim.run_until_thread") as f64
        - spans::total_ns(&split, "sim.run_until") as f64;
    set(
        "kernel.thread_ns_per_switch",
        ratio(
            thread_extra,
            m.split.get("kernel.process_switches").copied().unwrap_or(0) as f64,
        ),
    );
    for (metric, span) in [
        ("trace.snapshot_ns_per_event", "trace.snapshot"),
        ("trace.canonical_ns_per_event", "trace.canonical"),
        ("trace.measure_ns_per_event", "trace.measure"),
        ("farm.fingerprint_ns_per_event", "farm.fingerprint"),
    ] {
        set(
            metric,
            ratio(spans::total_ns(&split, span) as f64, split_records),
        );
    }
    for (metric, span) in [
        ("grid.load_us_per_cell", "grid.load"),
        ("grid.decode_us_per_cell", "grid.decode"),
        ("grid.store_us_per_cell", "grid.store"),
    ] {
        let calls = split.iter().filter(|s| s.name == span).count() as f64;
        set(
            metric,
            ratio(spans::total_ns(&split, span) as f64, calls) / 1e3,
        );
    }

    let busy: Vec<(f64, f64)> = m.passes.iter().filter_map(|p| p.busy).collect();
    if !busy.is_empty() {
        set(
            "campaign.busy_s",
            median(busy.iter().map(|b| b.0).collect()),
        );
        set(
            "campaign.parallel_efficiency",
            median(
                busy.iter()
                    .map(|&(job, wall)| ratio(job, WORKERS as f64 * wall))
                    .collect(),
            ),
        );
    }
    let mut rates: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    for (name, rate) in m.passes.iter().flat_map(|p| &p.rates) {
        rates.entry(name).or_default().push(*rate);
    }
    for (name, values) in rates {
        set(name, median(values));
    }
    set(
        "grid.hit_ratio",
        ratio(
            count("grid.hits"),
            count("grid.hits") + count("grid.misses"),
        ),
    );
    set(
        "check.prune_ratio",
        ratio(count("check.states"), count("check.choice_points")),
    );

    let runs = count("check.runs");
    if runs > 0.0 {
        let us_per_run =
            median(m.passes.iter().map(|p| p.time.host.as_secs_f64()).collect()) * 1e6 / runs;
        set("check.us_per_run", us_per_run);
        let replay = layers.get("check.replay_us").copied().unwrap_or(0.0);
        layers
            .entry("check.search_us_per_run")
            .or_insert(us_per_run - replay);
    }

    let sum = |f: fn(&Pass) -> u64| m.passes.iter().map(f).sum::<u64>() as f64;
    let (count, bytes) = (sum(|p| p.allocs.0), sum(|p| p.allocs.1));
    let (events, items) = (sum(|p| p.events), sum(|p| p.items));
    let mut set = |name: &'static str, value: f64| {
        layers.entry(name).or_insert(value);
    };
    set("alloc.count_per_event", ratio(count, events));
    set("alloc.bytes_per_event", ratio(bytes, events));
    set("alloc.count_per_item", ratio(count, items));
}

/// One pass's throughput in items per second, scaled to the gauge.
fn throughput(pass: &Pass) -> f64 {
    pass.items as f64 / pass.time.scaled
}

/// Sample count, quartiles and slowest value of per-pass throughputs.
fn diagnostics(rates: &[f64]) -> String {
    format!(
        "  passes {}  p25 {}  p75 {}  slowest {}",
        rates.len(),
        quantile(rates.to_vec(), 0.25),
        quantile(rates.to_vec(), 0.75),
        rates.iter().copied().fold(f64::INFINITY, f64::min),
    )
}

/// The self-time table of a set of spans, one line per span name.
fn self_time_table<'a>(title: &str, spans: impl Iterator<Item = &'a Span>) -> Vec<String> {
    let spans: Vec<Span> = spans.copied().collect();
    let table = spans::self_times(&spans);
    if table.is_empty() {
        return Vec::new();
    }
    let all_self: u64 = table.values().map(|t| t.self_ns).sum();
    let mut lines = vec![format!(
        "self time, {title}: {:<28} {:>9} {:>12} {:>12} {:>7}",
        "span", "calls", "total_ms", "self_ms", "self%"
    )];
    for (name, t) in table {
        lines.push(format!(
            "  {name:<28} {:>9} {:>12.3} {:>12.3} {:>6.1}%",
            t.calls,
            t.total_ns as f64 / 1e6,
            t.self_ns as f64 / 1e6,
            100.0 * t.self_ns as f64 / all_self.max(1) as f64,
        ));
    }
    lines
}

/// The process's peak resident set (VmHWM) in MiB, 0 where `/proc` is
/// unavailable.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

/// The median of `values` (mean of the two middle values for an even
/// count), 0 for none.
pub fn median(values: Vec<f64>) -> f64 {
    quantile(values, 0.5)
}

/// The `q` quantile of `values` by linear interpolation between order
/// statistics, 0 for none.
pub fn quantile(mut values: Vec<f64>, q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_unstable_by(f64::total_cmp);
    let pos = q * (values.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    values[lo] + (values[hi] - values[lo]) * (pos - lo as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        assert_eq!(median(vec![3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(vec![4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(quantile(vec![0.0, 10.0], 0.25), 2.5);
        assert_eq!(median(Vec::new()), 0.0);
    }

    #[test]
    fn the_counter_gate_flags_a_changed_count() {
        let first: Counts = [("trace.records", 10)].into_iter().collect();
        let mut checks = Checks::default();
        gate_counts(&first, &first.clone(), &mut checks);
        assert_eq!(checks.failed, 0);
        let drifted: Counts = [("trace.records", 11)].into_iter().collect();
        gate_counts(&first, &drifted, &mut checks);
        assert_eq!(checks.failed, 1);
        let grown: Counts = [("trace.records", 10), ("comm.ops", 1)]
            .into_iter()
            .collect();
        gate_counts(&first, &grown, &mut checks);
        assert!(checks.failed >= 2);
    }
}
