//! The paper's closing case study as a design-space exploration harness:
//! the MPEG-2 compress/decompress SoC (18 tasks, 6 processing resources,
//! 3 software processors with the RTOS model), swept over RTOS overheads,
//! engine implementation and queue sizing.
//!
//! The seven design points are independent full-system simulations, so
//! they fan out over the `rtsim-grid` engine, each point cached
//! content-addressed by its configuration (`RTSIM_GRID_CACHE=<dir>` —
//! re-exploring after editing one point re-simulates only that point).
//! This is exactly the "explore many architectures before committing the
//! SoC" workflow §5 motivates, at worker-pool speed with incremental
//! re-runs. `RTSIM_WORKERS` sets the pool width; `RTSIM_BENCH_SMOKE=1` shrinks the frame
//! count; `RTSIM_CAMPAIGN_OUT=<dir>` writes the merged per-point
//! records as `mpeg2_explore.jsonl`.
//!
//! Run with: `cargo run --release -p rtsim-bench --bin mpeg2_explore`

use rtsim::grid::record::{string_field, u64_array_field, u64_field};
use rtsim::scenarios::{mpeg2_latencies, mpeg2_system, Mpeg2Config};
use rtsim::{EngineKind, Grid, Overheads, Record, SimDuration};
use rtsim_bench::{fmt_wall, record_grid, report_grid, scaled, BenchReport};
use rtsim_campaign::write_artifact;

fn us(v: u64) -> SimDuration {
    SimDuration::from_us(v)
}

struct Point {
    label: &'static str,
    config: Mpeg2Config,
}

/// Deterministic per-point measurements, all integer picoseconds so the
/// grid-cache JSONL codec round-trips bit-exactly (wall time is reported
/// separately from the job metrics).
#[derive(Debug, Clone, PartialEq)]
struct PointResult {
    label: String,
    latencies_ps: Vec<u64>,
    makespan_ps: u64,
    preemptions: u64,
}

impl Record for PointResult {
    fn encode(&self) -> String {
        let lat: Vec<String> = self.latencies_ps.iter().map(u64::to_string).collect();
        format!(
            r#"{{"label":"{}","latencies_ps":[{}],"makespan_ps":{},"preemptions":{}}}"#,
            self.label,
            lat.join(","),
            self.makespan_ps,
            self.preemptions,
        )
    }
    fn decode(line: &str) -> Option<Self> {
        Some(PointResult {
            label: string_field(line, "label")?,
            latencies_ps: u64_array_field(line, "latencies_ps")?,
            makespan_ps: u64_field(line, "makespan_ps")?,
            preemptions: u64_field(line, "preemptions")?,
        })
    }
}

fn main() {
    let base = Mpeg2Config {
        frames: scaled(20, 2) as u64,
        engine: EngineKind::ProcedureCall,
        overheads: Overheads::uniform(us(5)),
        frame_period: us(4_000),
        queue_capacity: 4,
    };
    let points = [
        Point {
            label: "baseline (5us ovh, cap 4)",
            config: base.clone(),
        },
        Point {
            label: "ideal RTOS (0 ovh)",
            config: Mpeg2Config {
                overheads: Overheads::zero(),
                ..base.clone()
            },
        },
        Point {
            label: "slow RTOS (25us ovh)",
            config: Mpeg2Config {
                overheads: Overheads::uniform(us(25)),
                ..base.clone()
            },
        },
        Point {
            label: "shallow queues (cap 1)",
            config: Mpeg2Config {
                queue_capacity: 1,
                ..base.clone()
            },
        },
        Point {
            label: "deep queues (cap 16)",
            config: Mpeg2Config {
                queue_capacity: 16,
                ..base.clone()
            },
        },
        Point {
            label: "faster camera (3ms)",
            config: Mpeg2Config {
                frame_period: us(3_000),
                ..base.clone()
            },
        },
        Point {
            label: "dedicated-thread engine",
            config: Mpeg2Config {
                engine: EngineKind::DedicatedThread,
                ..base.clone()
            },
        },
    ];

    let report = Grid::new("mpeg2_explore", 2004).run(
        points.len(),
        // The cache-key fingerprint covers the whole configuration
        // (Debug includes the frame count, so smoke and full runs cache
        // separately) plus the label the record carries.
        |index| format!("{}|{:?}", points[index].label, points[index].config),
        |ctx| {
            let point = &points[ctx.index()];
            let mut system = mpeg2_system(&point.config).elaborate().expect("model");
            system.run().expect("run");
            PointResult {
                label: point.label.to_owned(),
                latencies_ps: mpeg2_latencies(&system.trace())
                    .iter()
                    .map(|l| l.as_ps())
                    .collect(),
                makespan_ps: system.now().since_start().as_ps(),
                preemptions: ["CPU0", "CPU1", "CPU2"]
                    .iter()
                    .map(|c| system.processor_stats(c).map_or(0, |s| s.preemptions))
                    .sum(),
            }
        },
    );

    println!(
        "== MPEG-2 SoC design-space exploration ({} frames) ==\n",
        base.frames
    );
    println!(
        "{:<26} {:>11} {:>11} {:>11} {:>12} {:>10}",
        "configuration", "avg lat", "max lat", "makespan", "preemptions", "wall"
    );
    for (result, wall) in report.records.iter().zip(&report.job_walls) {
        let avg = if result.latencies_ps.is_empty() {
            0.0
        } else {
            result.latencies_ps.iter().sum::<u64>() as f64 / result.latencies_ps.len() as f64
        };
        let max = result.latencies_ps.iter().copied().max().unwrap_or(0);
        println!(
            "{:<26} {:>9.0}us {:>9.0}us {:>9.0}us {:>12} {:>10}",
            result.label,
            avg / 1e6,
            max as f64 / 1e6,
            result.makespan_ps as f64 / 1e6,
            result.preemptions,
            fmt_wall(*wall)
        );
    }
    report_grid(&report);
    write_artifact("mpeg2_explore.jsonl", &report.merged_jsonl());
    // Trajectory: one case per design point (its label flows through the
    // JSON escaper) plus the grid total. Per-point walls are cache-probe
    // times on warm runs — the `smoke`/`workers` fingerprint plus the
    // grid summary line give the context to read them correctly.
    let mut bench = BenchReport::new("mpeg2_explore");
    for (result, wall) in report.records.iter().zip(&report.job_walls) {
        bench.record_wall(&format!("point/{}", result.label), *wall);
    }
    record_grid(&mut bench, &report);
    bench.emit();
    println!("\n(the numbers a designer extracts before committing the SoC:");
    println!("RTOS overhead stretches latency; a faster camera shortens the");
    println!("makespan but raises contention (more preemptions); queue depth is");
    println!("immaterial at this utilization — every stage outruns the camera —");
    println!("and the engine choice changes wall-clock cost, not results)");
}
