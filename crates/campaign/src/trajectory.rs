//! The `bench-v1` trajectory record: the one writer of the format every
//! bench harness, the explorer's coverage counts and the service flood
//! emit.
//!
//! A trajectory is a JSON Lines file, `bench-<name>.jsonl`, written into
//! the directory named by [`BENCH_OUT_ENV`]. Each line is one
//! [`CaseRecord`] (id, sample count, min/median/max wall picoseconds,
//! batch iterations) stamped with its group and an [`EnvFingerprint`]
//! (worker count, smoke flag, build tag), rendered through the
//! hand-rolled [`crate::json`] writer so the bytes are deterministic for
//! deterministic timings. Every line carries the pinned schema tag
//! [`BENCH_SCHEMA`]:
//!
//! ```json
//! {"schema":"bench-v1","group":"kernel","id":"timer_wheel/8",
//!  "samples":10,"iters":1,"min_ps":1200000000,"median_ps":1240000000,
//!  "max_ps":1310000000,"workers":8,"smoke":false,
//!  "build":"rtsim-0.1.0+release"}
//! ```
//!
//! Change any field's meaning ⇒ bump the tag. A deterministic count is
//! recorded as one sample of `count` nanoseconds, so `rtsim-bench-diff`
//! gates counts and wall times alike.

use std::time::Duration;

use crate::json::Json;
use crate::{smoke, workers_from_env};

/// The pinned trajectory schema tag every record carries.
pub const BENCH_SCHEMA: &str = "bench-v1";

/// The environment variable naming the trajectory output directory.
pub const BENCH_OUT_ENV: &str = "RTSIM_BENCH_OUT";

/// The run environment stamped onto every record of a report, so a
/// trajectory file is interpretable on its own: a smoke-mode run or a
/// different worker count is never mistaken for a real regression.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EnvFingerprint {
    /// Worker-pool width (`RTSIM_WORKERS` or machine parallelism).
    pub workers: usize,
    /// Whether `RTSIM_BENCH_SMOKE` shrank the workload.
    pub smoke: bool,
    /// Build tag: crate version + profile. Deliberately git-describe
    /// free — the tag must be computable offline in a bare export.
    pub build: String,
}

impl EnvFingerprint {
    /// Captures the current process environment.
    pub fn capture() -> Self {
        EnvFingerprint {
            workers: workers_from_env(),
            smoke: smoke(),
            build: format!(
                "rtsim-{}+{}",
                env!("CARGO_PKG_VERSION"),
                if cfg!(debug_assertions) {
                    "debug"
                } else {
                    "release"
                },
            ),
        }
    }
}

/// One measured case: the wall-time distribution of `samples` timed
/// executions (each of `iters` calls when batched).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CaseRecord {
    /// Case id, unique within its group (e.g. `timer_wheel/8`).
    pub id: String,
    /// Number of timed samples taken.
    pub samples: u32,
    /// Calls per sample (1 unless batched).
    pub iters: u32,
    /// Fastest sample, wall picoseconds.
    pub min_ps: u64,
    /// Median sample, wall picoseconds — the interpolated median for
    /// even sample counts (mean of the two middle samples).
    pub median_ps: u64,
    /// Slowest sample, wall picoseconds.
    pub max_ps: u64,
}

impl CaseRecord {
    /// Summarizes raw wall-time samples (need not be sorted).
    ///
    /// # Panics
    ///
    /// Panics if `times` is empty — a case with no samples is a harness
    /// bug, not a data point.
    pub fn from_samples(id: &str, iters: u32, times: &[Duration]) -> Self {
        assert!(!times.is_empty(), "case {id:?} has no samples");
        let mut sorted = times.to_vec();
        sorted.sort_unstable();
        let (min, median, max) = summarize_sorted(&sorted);
        CaseRecord {
            id: id.to_owned(),
            samples: times.len() as u32,
            iters: iters.max(1),
            min_ps: duration_ps(min),
            median_ps: duration_ps(median),
            max_ps: duration_ps(max),
        }
    }

    /// The record as one trajectory line's JSON object, stamped with
    /// `group` and `env`.
    pub fn to_json(&self, group: &str, env: &EnvFingerprint) -> Json {
        Json::obj([
            ("schema", Json::from(BENCH_SCHEMA)),
            ("group", Json::from(group)),
            ("id", Json::from(self.id.as_str())),
            ("samples", Json::from(u64::from(self.samples))),
            ("iters", Json::from(u64::from(self.iters))),
            ("min_ps", Json::from(self.min_ps)),
            ("median_ps", Json::from(self.median_ps)),
            ("max_ps", Json::from(self.max_ps)),
            ("workers", Json::from(env.workers)),
            ("smoke", Json::from(env.smoke)),
            ("build", Json::from(env.build.as_str())),
        ])
    }
}

/// (min, median, max) of sorted samples; the median interpolates the
/// two middle samples for even counts (the lower-median convention the
/// harness once used silently picked the *upper* middle sample).
///
/// # Panics
///
/// Panics if `sorted` is empty.
pub fn summarize_sorted(sorted: &[Duration]) -> (Duration, Duration, Duration) {
    let n = sorted.len();
    assert!(n > 0, "summarize of zero samples");
    let median = if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2
    };
    (sorted[0], median, sorted[n - 1])
}

/// Wall picoseconds of a duration, saturating at `u64::MAX` (~213 days
/// — no bench sample gets there).
fn duration_ps(d: Duration) -> u64 {
    u64::try_from(d.as_nanos().saturating_mul(1_000)).unwrap_or(u64::MAX)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(v: u64) -> Duration {
        Duration::from_millis(v)
    }

    #[test]
    fn odd_count_median_is_middle_sample() {
        let c = CaseRecord::from_samples("odd", 1, &[ms(3), ms(1), ms(2)]);
        assert_eq!(c.samples, 3);
        assert_eq!(c.min_ps, 1_000_000_000);
        assert_eq!(c.median_ps, 2_000_000_000);
        assert_eq!(c.max_ps, 3_000_000_000);
    }

    #[test]
    fn even_count_median_interpolates_the_middle_pair() {
        // Regression: `times[len/2]` picked 30 ms (the upper median);
        // the interpolated median of {10, 20, 30, 40} is 25 ms.
        let c = CaseRecord::from_samples("even", 1, &[ms(40), ms(10), ms(30), ms(20)]);
        assert_eq!(c.median_ps, 25_000_000_000);
        assert_eq!(c.min_ps, 10_000_000_000);
        assert_eq!(c.max_ps, 40_000_000_000);
    }

    #[test]
    fn single_sample_min_median_max_coincide() {
        let c = CaseRecord::from_samples("one", 1, &[ms(7)]);
        assert_eq!(c.samples, 1);
        assert_eq!(
            (c.min_ps, c.median_ps, c.max_ps),
            (7_000_000_000, 7_000_000_000, 7_000_000_000,)
        );
    }

    #[test]
    #[should_panic(expected = "no samples")]
    fn empty_sample_set_panics() {
        let _ = CaseRecord::from_samples("none", 1, &[]);
    }
}
