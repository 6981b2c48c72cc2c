//! A tiny in-tree benchmark harness replacing Criterion.
//!
//! The workspace is hermetic (offline build, no external crates), so the
//! five `benches/*.rs` targets use this instead: each is a plain
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
//! median, biasing every default 10-sample case slow (see [`median`]).

use std::time::Duration;

use crate::{fmt_wall, wall_samples};

/// The median of a non-empty sample set; for an even count, the mean
/// of the two middle samples.
///
/// # Panics
///
/// Panics if `samples` is empty.
pub fn median(samples: &[Duration]) -> Duration {
    let mut sorted = samples.to_vec();
    sorted.sort_unstable();
    let n = sorted.len();
    assert!(n > 0, "median of zero samples");
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2
    }
}

/// A named group of benchmark cases, mirroring the Criterion
/// `benchmark_group` shape the benches were first written against.
#[derive(Debug)]
pub struct BenchGroup {
    name: String,
    samples: u32,
}

impl BenchGroup {
    /// Creates a group; cases print as `name/case-id`.
    pub fn new(name: &str) -> Self {
        BenchGroup {
            name: name.to_owned(),
            samples: 10,
        }
    }

    /// Sets how many timed samples each case takes (default 10).
    pub fn sample_size(&mut self, samples: u32) -> &mut Self {
        self.samples = samples.max(1);
        self
    }

    /// Runs one case: a warm-up call, then `sample_size` timed calls of
    /// `f`; prints the median sample time.
    pub fn bench(&mut self, id: &str, f: impl FnMut()) {
        let times = wall_samples(self.samples, f);
        println!(
            "{:<44} median {:>10}   ({} samples, min {}, max {})",
            format!("{}/{}", self.name, id),
            fmt_wall(median(&times)),
            self.samples,
            fmt_wall(*times.iter().min().expect("at least one sample")),
            fmt_wall(*times.iter().max().expect("at least one sample")),
        );
    }

    /// Like [`bench`](Self::bench) but runs `iters` calls of `f` per
    /// sample and reports the whole-batch sample time — for
    /// sub-microsecond bodies where a single call is below timer
    /// resolution.
    pub fn bench_batched(&mut self, id: &str, iters: u32, mut f: impl FnMut()) {
        let iters = iters.max(1);
        self.bench(id, || {
            for _ in 0..iters {
                f();
            }
        });
        println!("{:<44}   (batched: {iters} calls per sample)", "");
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
        g.sample_size(1).bench("single", || count += 1);
        assert_eq!(count, 8); // 1 warm-up + 1 sample more
    }

    #[test]
    fn batched_multiplies_iterations() {
        let mut count = 0u32;
        let mut g = BenchGroup::new("test");
        g.sample_size(2).bench_batched("counting", 10, || count += 1);
        assert_eq!(count, 30); // (1 warm-up + 2 samples) * 10
    }

    fn ms(v: u64) -> Duration {
        Duration::from_millis(v)
    }

    #[test]
    fn median_of_an_odd_count_is_the_middle_sample() {
        assert_eq!(median(&[ms(7)]), ms(7));
        assert_eq!(median(&[ms(3), ms(1), ms(2)]), ms(2));
    }

    /// `times[len/2]` would pick 30 ms, the upper median; the
    /// interpolated median of {10, 20, 30, 40} is 25 ms.
    #[test]
    fn median_interpolates_an_even_count() {
        assert_eq!(median(&[ms(40), ms(10), ms(30), ms(20)]), ms(25));
        assert_eq!(median(&[ms(2), ms(1)]), Duration::from_micros(1_500));
    }

    #[test]
    #[should_panic(expected = "zero samples")]
    fn median_of_no_samples_panics() {
        let _ = median(&[]);
    }
}
