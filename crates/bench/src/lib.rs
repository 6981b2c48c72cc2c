//! Shared helpers for the `rtsim-bench` harness binaries and the
//! in-tree benches that regenerate the DATE 2004 paper's figures.
//!
//! The binaries (see `src/bin/`) print, as text, the information each
//! paper figure conveys:
//!
//! | binary | paper artifact |
//! |---|---|
//! | `fig3_fig5_switches` | Figures 3 & 5 — coroutine-switch schedules of the two RTOS model implementations |
//! | `fig6_timeline` | Figure 6 — the annotated TimeLine chart |
//! | `fig7_mutex` | Figure 7 — mutual-exclusion blocking and its remedies |
//! | `fig8_stats` | Figure 8 — whole-run statistics |
//! | `ab_speed_table` | §4 — simulation-duration comparison, approach A vs B |
//! | `overhead_sweep` | §3.2 — fixed vs formula overhead parameters |
//! | `mpeg2_explore` | §5 closing case study — design-space exploration |
//! | `rta_vs_sim` | extension — Monte-Carlo cross-validation against exact response-time analysis |
//! | `server_ablation` | extension — polling-server budget/period trade-off |
//! | `quantum_error` | extension — reaction-time error of clock-driven preemption baselines |
//!
//! Timing across commits is the job of the `rtsim-benchmark` package
//! (see `BENCHMARK.json`). These binaries print wall times for reading;
//! their one timing gate is a ratio measured in the same process
//! (`ab_speed_table --assert-speedup`).

pub mod harness;

use std::time::{Duration, Instant};

/// Wall-clock samples of `runs` timed executions of `f`, after one
/// warm-up run.
pub fn wall_samples<F: FnMut()>(runs: u32, mut f: F) -> Vec<Duration> {
    f(); // warm-up: first-touch allocations, thread spawns, caches
    (0..runs.max(1))
        .map(|_| {
            let start = Instant::now();
            f();
            start.elapsed()
        })
        .collect()
}

/// Mean of a non-empty sample set.
pub fn mean_wall(samples: &[Duration]) -> Duration {
    samples.iter().sum::<Duration>() / samples.len() as u32
}

/// Formats a wall duration in adaptive units.
pub fn fmt_wall(d: Duration) -> String {
    if d.as_secs_f64() >= 1.0 {
        format!("{:.2} s", d.as_secs_f64())
    } else if d.as_millis() >= 1 {
        format!("{:.2} ms", d.as_secs_f64() * 1e3)
    } else {
        format!("{:.1} us", d.as_secs_f64() * 1e6)
    }
}

// The smoke/scaling and artifact-emission knobs moved down into
// rtsim-campaign so the regression farm can share them; re-exported here
// to keep the harness binaries' imports stable.
pub use rtsim_campaign::{scaled, smoke, write_campaign_outputs};

/// Prints the campaign engine's serial-vs-parallel wall-time line the
/// rewired Monte-Carlo harnesses all share.
pub fn report_campaign<T>(cmp: &rtsim_campaign::Comparison<T>) {
    println!(
        "\ncampaign `{}`: {} jobs, seed {} — serial {} vs {} workers {} ({:.2}x), results identical",
        cmp.report.name,
        cmp.report.outcomes.len(),
        cmp.report.seed,
        fmt_wall(cmp.serial_wall),
        cmp.report.workers,
        fmt_wall(cmp.parallel_wall),
        cmp.speedup(),
    );
}

/// Prints the grid engine's shard/cache summary line for harnesses that
/// run as a sharded, result-cached grid (see `rtsim_grid`).
pub fn report_grid<T>(report: &rtsim_grid::GridReport<T>) {
    println!(
        "\ngrid `{}`: {} jobs, seed {} — {} shard(s) x {} worker(s), {} cache hit(s) / {} miss(es), {}",
        report.name,
        report.jobs,
        report.seed,
        report.shards.len(),
        report.workers,
        report.hits(),
        report.misses(),
        fmt_wall(report.wall),
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wall_samples_counts_and_means() {
        let mut runs = 0u32;
        let samples = wall_samples(3, || runs += 1);
        assert_eq!(runs, 4); // warm-up + 3 samples
        assert_eq!(samples.len(), 3);
        let mean = mean_wall(&samples);
        assert!(mean >= *samples.iter().min().unwrap());
        assert!(mean <= *samples.iter().max().unwrap());
    }

    #[test]
    fn fmt_wall_adapts_units() {
        assert!(fmt_wall(Duration::from_secs(2)).ends_with(" s"));
        assert!(fmt_wall(Duration::from_millis(5)).ends_with(" ms"));
        assert!(fmt_wall(Duration::from_micros(50)).ends_with(" us"));
    }
}
