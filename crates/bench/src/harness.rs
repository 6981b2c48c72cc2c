//! The median of wall-time samples, for the timing gates that compare
//! walls measured in the same process (`ab_speed_table
//! --assert-speedup`).
//!
//! For even sample counts the two middle samples are interpolated
//! (averaged); `times[len/2]` alone would report the *upper* median,
//! biasing every even-count case slow (see [`median`]).

use std::time::Duration;

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

#[cfg(test)]
mod tests {
    use super::*;

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
