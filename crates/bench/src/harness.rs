//! A tiny in-tree benchmark harness replacing Criterion.
//!
//! The workspace is hermetic (offline build, no external crates), so the
//! six `benches/*.rs` targets use this instead: each is a plain
//! `harness = false` binary whose `main` builds a [`BenchGroup`], runs
//! each case with one warm-up execution plus `sample_size` timed samples,
//! and prints the median wall time per sample.
//!
//! Output is one line per case:
//!
//! ```text
//! kernel/timer_wheel/8              median   1.24 ms   (10 samples, min 1.20 ms, max 1.31 ms)
//! ```
//!
//! The median over a small fixed sample count is deliberately simple —
//! these benches exist to regenerate the paper's *relative* comparisons
//! (approach A vs B, traced vs untraced), not to chase nanosecond CIs.
//! For even sample counts the two middle samples are interpolated
//! (averaged); `times[len/2]` alone would silently report the *upper*
//! median, biasing every default 10-sample case slow.
//!
//! Besides printing, every case feeds the group's [`BenchReport`]; when
//! the group is dropped the report is emitted as a
//! `bench-<name>.jsonl` trajectory artifact under `RTSIM_BENCH_OUT`
//! (see [`crate::report`]) — no per-bench wiring required.

use std::time::{Duration, Instant};

use rtsim_campaign::trajectory::summarize_sorted;

use crate::fmt_wall;
use crate::report::{BenchReport, CaseRecord};

/// A named group of benchmark cases, mirroring the Criterion
/// `benchmark_group` shape the benches were first written against.
#[derive(Debug)]
pub struct BenchGroup {
    samples: u32,
    report: BenchReport,
}

impl BenchGroup {
    /// Creates a group; cases print as `name/case-id` and the trajectory
    /// artifact (if `RTSIM_BENCH_OUT` is set) as `bench-<name>.jsonl`.
    pub fn new(name: &str) -> Self {
        BenchGroup {
            samples: 10,
            report: BenchReport::new(name),
        }
    }

    /// Sets how many timed samples each case takes (default 10).
    pub fn sample_size(&mut self, samples: u32) -> &mut Self {
        self.samples = samples.max(1);
        self
    }

    /// Runs one case: a warm-up call, then `sample_size` timed calls of
    /// `f`; prints the median sample time and records the case in the
    /// group's trajectory report.
    pub fn bench(&mut self, id: &str, f: impl FnMut()) {
        self.run_case(id, 1, f);
    }

    /// Like [`bench`](Self::bench) but runs `iters` calls of `f` per
    /// sample and reports the whole-batch sample time — for
    /// sub-microsecond bodies where a single call is below timer
    /// resolution. The batch factor is recorded as `iters` in the
    /// trajectory so consumers can normalize per call.
    pub fn bench_batched(&mut self, id: &str, iters: u32, mut f: impl FnMut()) {
        let iters = iters.max(1);
        self.run_case(id, iters, || {
            for _ in 0..iters {
                f();
            }
        });
        println!("{:<44}   (batched: {iters} calls per sample)", "");
    }

    fn run_case(&mut self, id: &str, iters: u32, mut f: impl FnMut()) {
        f(); // warm-up: first-touch allocations, thread spawns, caches
        let mut times: Vec<Duration> = (0..self.samples)
            .map(|_| {
                let start = Instant::now();
                f();
                start.elapsed()
            })
            .collect();
        times.sort_unstable();
        let (min, median, max) = summarize_sorted(&times);
        println!(
            "{:<44} median {:>10}   ({} samples, min {}, max {})",
            format!("{}/{}", self.report.name(), id),
            fmt_wall(median),
            self.samples,
            fmt_wall(min),
            fmt_wall(max),
        );
        self.report.record(CaseRecord::from_samples(id, iters, &times));
    }

    /// The trajectory collected so far (emitted automatically on drop).
    pub fn report(&self) -> &BenchReport {
        &self.report
    }
}

impl Drop for BenchGroup {
    fn drop(&mut self) {
        self.report.emit();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_runs_warmup_plus_samples() {
        let mut count = 0u32;
        let mut g = BenchGroup::new("test");
        g.sample_size(5).bench("counting", || count += 1);
        assert_eq!(count, 6); // 1 warm-up + 5 samples
    }

    #[test]
    fn batched_multiplies_iterations() {
        let mut count = 0u32;
        let mut g = BenchGroup::new("test");
        g.sample_size(2).bench_batched("counting", 10, || count += 1);
        assert_eq!(count, 30); // (1 warm-up + 2 samples) * 10
    }

    #[test]
    fn cases_feed_the_trajectory_report() {
        let mut g = BenchGroup::new("test");
        g.sample_size(4).bench("a", || {});
        g.sample_size(2).bench_batched("b", 3, || {});
        let cases = g.report().cases();
        assert_eq!(cases.len(), 2);
        assert_eq!(cases[0].id, "a");
        assert_eq!((cases[0].samples, cases[0].iters), (4, 1));
        assert_eq!((cases[1].samples, cases[1].iters), (2, 3));
        assert!(cases.iter().all(|c| c.min_ps <= c.median_ps));
        assert!(cases.iter().all(|c| c.median_ps <= c.max_ps));
        let jsonl = g.report().to_jsonl();
        assert_eq!(jsonl.lines().count(), 2);
        assert!(jsonl.lines().all(|l| l.contains("\"schema\":\"bench-v1\"")));
    }

    /// `sample_size(1)` must survive and report the single sample as
    /// min = median = max (the old indexing happened to work but was
    /// never pinned; the interpolating path must not regress it).
    #[test]
    fn single_sample_case_is_well_defined() {
        let mut runs = 0u32;
        let mut g = BenchGroup::new("test");
        g.sample_size(1).bench("one", || runs += 1);
        assert_eq!(runs, 2); // warm-up + 1 sample
        let case = &g.report().cases()[0];
        assert_eq!(case.samples, 1);
        assert_eq!(case.min_ps, case.median_ps);
        assert_eq!(case.median_ps, case.max_ps);
    }
}
