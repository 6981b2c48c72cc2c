//! Result aggregation: scalar summaries.
//!
//! The `rtsim-trace` crate has [`DurationSummary`] for simulated-time
//! samples; campaigns aggregate arbitrary scalar metrics (wall seconds,
//! error counts, utilizations), so this is the `f64` counterpart.
//!
//! [`DurationSummary`]: https://docs.rs/rtsim-trace

use std::fmt;

/// Summary statistics of a set of `f64` samples.
///
/// # Examples
///
/// ```
/// use rtsim_campaign::StatSummary;
///
/// let s = StatSummary::from_values([5.0, 1.0, 3.0, 2.0, 4.0]).unwrap();
/// assert_eq!(s.count, 5);
/// assert_eq!(s.min, 1.0);
/// assert_eq!(s.median, 3.0);
/// assert_eq!(s.max, 5.0);
/// assert!((s.mean - 3.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StatSummary {
    /// Number of samples.
    pub count: usize,
    /// Smallest sample.
    pub min: f64,
    /// Largest sample.
    pub max: f64,
    /// Arithmetic mean.
    pub mean: f64,
    /// Lower median.
    pub median: f64,
    /// 95th percentile (nearest-rank).
    pub p95: f64,
    /// Sum of all samples.
    pub sum: f64,
    /// Population standard deviation.
    pub stddev: f64,
}

impl StatSummary {
    /// Summarizes the samples; `None` when empty or any sample is
    /// non-finite (NaN or ±∞ — an infinite sample would silently yield
    /// `mean = inf` and `stddev = NaN`, poisoning every aggregate).
    pub fn from_values<I: IntoIterator<Item = f64>>(values: I) -> Option<Self> {
        let mut sorted: Vec<f64> = values.into_iter().collect();
        if sorted.is_empty() || sorted.iter().any(|v| !v.is_finite()) {
            return None;
        }
        sorted.sort_unstable_by(|a, b| a.partial_cmp(b).expect("no NaN"));
        let count = sorted.len();
        let sum: f64 = sorted.iter().sum();
        let mean = sum / count as f64;
        let var = sorted.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / count as f64;
        let rank =
            |q_num: u64, q_den: u64| -> f64 { sorted[nearest_rank_index(q_num, q_den, count)] };
        Some(StatSummary {
            count,
            min: sorted[0],
            max: sorted[count - 1],
            mean,
            median: rank(1, 2),
            p95: rank(95, 100),
            sum,
            stddev: var.sqrt(),
        })
    }
}

/// Index of the nearest-rank `q_num/q_den` quantile among `count` sorted
/// samples: `ceil(q * count) - 1`, clamped to `0..count`.
///
/// This is the **single** nearest-rank implementation in the workspace —
/// `StatSummary` (here) and `rtsim_trace::DurationSummary` both rank
/// through it, so the two summaries can never drift apart again (they
/// once carried subtly different copies of this formula). Computed in
/// `u128` so `q_num * count` cannot overflow even for counts near
/// `usize::MAX` (on 64-bit, `95 * count` overflows for counts beyond
/// `usize::MAX / 95`).
///
/// By construction `p0` is index 0 (the minimum), `p50` the *lower*
/// median, and `p100` index `count - 1` (the maximum) — property-tested
/// below.
///
/// # Examples
///
/// ```
/// use rtsim_campaign::nearest_rank_index;
///
/// assert_eq!(nearest_rank_index(1, 2, 10), 4); // lower median
/// assert_eq!(nearest_rank_index(95, 100, 100), 94);
/// ```
pub fn nearest_rank_index(q_num: u64, q_den: u64, count: usize) -> usize {
    let idx = (u128::from(q_num) * count as u128)
        .div_ceil(u128::from(q_den))
        .saturating_sub(1);
    idx.min((count - 1) as u128) as usize
}

impl fmt::Display for StatSummary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "n={} min={:.4} mean={:.4} median={:.4} p95={:.4} max={:.4} sd={:.4}",
            self.count, self.min, self.mean, self.median, self.p95, self.max, self.stddev
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_percentiles_match_trace_convention() {
        let s = StatSummary::from_values((1..=100).map(|v| v as f64)).unwrap();
        assert_eq!(s.median, 50.0);
        assert_eq!(s.p95, 95.0);
        assert_eq!(s.sum, 5050.0);
        assert!((s.mean - 50.5).abs() < 1e-12);
        assert!(s.stddev > 28.8 && s.stddev < 28.9); // sqrt(833.25)
    }

    #[test]
    fn summary_rejects_empty_and_non_finite() {
        assert_eq!(StatSummary::from_values([]), None);
        assert_eq!(StatSummary::from_values([1.0, f64::NAN]), None);
        // Regression: ±∞ used to be accepted, silently yielding
        // `mean = inf` and `stddev = NaN`.
        assert_eq!(StatSummary::from_values([1.0, f64::INFINITY]), None);
        assert_eq!(StatSummary::from_values([f64::NEG_INFINITY, 1.0]), None);
        assert_eq!(StatSummary::from_values([f64::INFINITY]), None);
    }

    #[test]
    fn nearest_rank_survives_extreme_counts() {
        // `95 * count` would overflow usize for counts past
        // usize::MAX / 95; the u128 arithmetic must not.
        let count = usize::MAX;
        assert_eq!(nearest_rank_index(1, 2, count), count.div_ceil(2) - 1);
        assert_eq!(nearest_rank_index(100, 100, count), count - 1);
        let p95 = nearest_rank_index(95, 100, count);
        assert!(p95 < count && p95 > count / 2);
        // Small-count sanity: ranks match the closure they replaced.
        assert_eq!(nearest_rank_index(1, 2, 100), 49);
        assert_eq!(nearest_rank_index(95, 100, 100), 94);
        assert_eq!(nearest_rank_index(95, 100, 1), 0);
    }

    /// The anchor identities of the shared rank formula: on any sorted
    /// input, p0 is the minimum, p50 the lower median, p100 the maximum.
    #[test]
    fn nearest_rank_anchors_hold_for_all_counts() {
        use rtsim_kernel::testutil::check;
        check(
            128,
            |rng| {
                let count = rng.gen_range(1usize..500);
                let mut values = rng.gen_vec(count..count + 1, |r| r.gen_range(0u64..1_000) as f64);
                values.sort_unstable_by(|a, b| a.partial_cmp(b).expect("no NaN"));
                values
            },
            |sorted| {
                let n = sorted.len();
                // p0 = min, p100 = max, exactly.
                assert_eq!(nearest_rank_index(0, 100, n), 0);
                assert_eq!(nearest_rank_index(100, 100, n), n - 1);
                // p50 = lower median: index ceil(n/2) - 1.
                assert_eq!(nearest_rank_index(50, 100, n), n.div_ceil(2) - 1);
                // 1/2 and 50/100 must agree (same quantile, different form).
                assert_eq!(nearest_rank_index(1, 2, n), nearest_rank_index(50, 100, n));
                // Via the summary: the selected samples are min/median/max.
                let s = StatSummary::from_values(sorted.iter().copied()).unwrap();
                assert_eq!(s.min, sorted[0]);
                assert_eq!(s.max, sorted[n - 1]);
                assert_eq!(s.median, sorted[n.div_ceil(2) - 1]);
                // Monotonicity across the whole percentile range.
                let mut last = 0usize;
                for p in 0..=100u64 {
                    let idx = nearest_rank_index(p, 100, n);
                    assert!(idx >= last && idx < n);
                    last = idx;
                }
            },
        );
    }

    #[test]
    fn summary_singleton() {
        let s = StatSummary::from_values([7.5]).unwrap();
        assert_eq!(s.min, 7.5);
        assert_eq!(s.max, 7.5);
        assert_eq!(s.median, 7.5);
        assert_eq!(s.stddev, 0.0);
    }
}
