//! Simulation time types.
//!
//! The kernel measures time in integer **picoseconds**, mirroring SystemC's
//! integer-based `sc_time` (whose default resolution is 1 ps). Two newtypes
//! keep instants and durations apart ([`SimTime`] is a point on the
//! simulation timeline, [`SimDuration`] is a span), so the compiler rejects
//! accidental mixups such as adding two instants.
//!
//! ```
//! use rtsim_kernel::time::{SimDuration, SimTime};
//!
//! let start = SimTime::ZERO + SimDuration::from_us(10);
//! let end = start + SimDuration::from_us(5);
//! assert_eq!(end - start, SimDuration::from_us(5));
//! assert_eq!(end.as_ps(), 15_000_000);
//! ```

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Rem, Sub, SubAssign};

/// A span of simulated time, in integer picoseconds.
///
/// Construct durations with the unit constructors ([`from_ps`],
/// [`from_ns`], [`from_us`], [`from_ms`], [`from_s`]) and combine them with
/// ordinary arithmetic. A `u64` of picoseconds covers roughly 213 days of
/// simulated time, far beyond any design-space-exploration run.
///
/// # Examples
///
/// ```
/// use rtsim_kernel::time::SimDuration;
///
/// let d = SimDuration::from_us(5);
/// assert_eq!(d * 3, SimDuration::from_us(15));
/// assert_eq!(d.as_ns(), 5_000);
/// ```
///
/// [`from_ps`]: SimDuration::from_ps
/// [`from_ns`]: SimDuration::from_ns
/// [`from_us`]: SimDuration::from_us
/// [`from_ms`]: SimDuration::from_ms
/// [`from_s`]: SimDuration::from_s
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(u64);

impl SimDuration {
    /// The zero-length duration.
    pub const ZERO: SimDuration = SimDuration(0);
    /// The largest representable duration.
    pub const MAX: SimDuration = SimDuration(u64::MAX);

    /// Creates a duration of `ps` picoseconds.
    #[inline]
    pub const fn from_ps(ps: u64) -> Self {
        SimDuration(ps)
    }

    /// Creates a duration of `ns` nanoseconds.
    ///
    /// # Panics
    ///
    /// Panics if the value overflows the picosecond representation.
    #[inline]
    pub const fn from_ns(ns: u64) -> Self {
        SimDuration(ns * 1_000)
    }

    /// Creates a duration of `us` microseconds.
    ///
    /// # Panics
    ///
    /// Panics if the value overflows the picosecond representation.
    #[inline]
    pub const fn from_us(us: u64) -> Self {
        SimDuration(us * 1_000_000)
    }

    /// Creates a duration of `ms` milliseconds.
    ///
    /// # Panics
    ///
    /// Panics if the value overflows the picosecond representation.
    #[inline]
    pub const fn from_ms(ms: u64) -> Self {
        SimDuration(ms * 1_000_000_000)
    }

    /// Creates a duration of `s` seconds.
    ///
    /// # Panics
    ///
    /// Panics if the value overflows the picosecond representation.
    #[inline]
    pub const fn from_s(s: u64) -> Self {
        SimDuration(s * 1_000_000_000_000)
    }

    /// Returns the duration in whole picoseconds.
    #[inline]
    pub const fn as_ps(self) -> u64 {
        self.0
    }

    /// Returns the duration in whole nanoseconds, truncating.
    #[inline]
    pub const fn as_ns(self) -> u64 {
        self.0 / 1_000
    }

    /// Returns the duration in whole microseconds, truncating.
    #[inline]
    pub const fn as_us(self) -> u64 {
        self.0 / 1_000_000
    }

    /// Returns the duration in whole milliseconds, truncating.
    #[inline]
    pub const fn as_ms(self) -> u64 {
        self.0 / 1_000_000_000
    }

    /// Returns the duration as fractional seconds.
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e12
    }

    /// Returns `true` if the duration is zero.
    #[inline]
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Checked addition; `None` on overflow.
    #[inline]
    pub const fn checked_add(self, rhs: SimDuration) -> Option<SimDuration> {
        match self.0.checked_add(rhs.0) {
            Some(v) => Some(SimDuration(v)),
            None => None,
        }
    }

    /// Checked subtraction; `None` on underflow.
    #[inline]
    pub const fn checked_sub(self, rhs: SimDuration) -> Option<SimDuration> {
        match self.0.checked_sub(rhs.0) {
            Some(v) => Some(SimDuration(v)),
            None => None,
        }
    }

    /// Saturating subtraction: clamps at [`SimDuration::ZERO`].
    #[inline]
    pub const fn saturating_sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(rhs.0))
    }

    /// Saturating addition: clamps at [`SimDuration::MAX`].
    #[inline]
    pub const fn saturating_add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_add(rhs.0))
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 + rhs.0)
    }
}

impl AddAssign for SimDuration {
    #[inline]
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 - rhs.0)
    }
}

impl SubAssign for SimDuration {
    #[inline]
    fn sub_assign(&mut self, rhs: SimDuration) {
        self.0 -= rhs.0;
    }
}

impl Mul<u64> for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn mul(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 * rhs)
    }
}

impl Mul<SimDuration> for u64 {
    type Output = SimDuration;
    #[inline]
    fn mul(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self * rhs.0)
    }
}

impl Div<u64> for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn div(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 / rhs)
    }
}

impl Div<SimDuration> for SimDuration {
    type Output = u64;
    /// Number of whole `rhs` spans fitting in `self`.
    #[inline]
    fn div(self, rhs: SimDuration) -> u64 {
        self.0 / rhs.0
    }
}

impl Rem<SimDuration> for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn rem(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 % rhs.0)
    }
}

impl Sum for SimDuration {
    fn sum<I: Iterator<Item = SimDuration>>(iter: I) -> SimDuration {
        iter.fold(SimDuration::ZERO, Add::add)
    }
}

impl fmt::Display for SimDuration {
    /// Formats with the largest unit that divides the value exactly
    /// (`15 us`, `500 ns`, `3 ps`...), matching how the paper annotates
    /// TimeLine measurements.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let ps = self.0;
        if ps == 0 {
            return write!(f, "0 s");
        }
        let units: [(u64, &str); 5] = [
            (1_000_000_000_000, "s"),
            (1_000_000_000, "ms"),
            (1_000_000, "us"),
            (1_000, "ns"),
            (1, "ps"),
        ];
        for (scale, unit) in units {
            if ps.is_multiple_of(scale) {
                return write!(f, "{} {}", ps / scale, unit);
            }
        }
        unreachable!("scale 1 always divides")
    }
}

/// An absolute instant on the simulation timeline, in picoseconds since the
/// start of simulation.
///
/// Obtained from the kernel (`Simulator::now`, `ProcessContext::now`) or by
/// adding a [`SimDuration`] to another instant.
///
/// # Examples
///
/// ```
/// use rtsim_kernel::time::{SimDuration, SimTime};
///
/// let t = SimTime::ZERO + SimDuration::from_ns(250);
/// assert!(t > SimTime::ZERO);
/// assert_eq!(t.elapsed_since(SimTime::ZERO), SimDuration::from_ns(250));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

impl SimTime {
    /// The start of simulation.
    pub const ZERO: SimTime = SimTime(0);
    /// The largest representable instant (used as an "infinite" horizon).
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Creates an instant `ps` picoseconds after the start of simulation.
    #[inline]
    pub const fn from_ps(ps: u64) -> Self {
        SimTime(ps)
    }

    /// Returns the instant as picoseconds since the start of simulation.
    #[inline]
    pub const fn as_ps(self) -> u64 {
        self.0
    }

    /// Returns the instant as whole nanoseconds since start, truncating.
    #[inline]
    pub const fn as_ns(self) -> u64 {
        self.0 / 1_000
    }

    /// Returns the instant as whole microseconds since start, truncating.
    #[inline]
    pub const fn as_us(self) -> u64 {
        self.0 / 1_000_000
    }

    /// Returns the span since the start of simulation.
    #[inline]
    pub const fn since_start(self) -> SimDuration {
        SimDuration(self.0)
    }

    /// Returns the span from `earlier` to `self`.
    ///
    /// # Panics
    ///
    /// Panics if `earlier` is after `self`.
    #[inline]
    pub fn elapsed_since(self, earlier: SimTime) -> SimDuration {
        SimDuration(
            self.0
                .checked_sub(earlier.0)
                .expect("elapsed_since: earlier instant is after self"),
        )
    }

    /// Checked advance; `None` on overflow.
    #[inline]
    pub const fn checked_add(self, d: SimDuration) -> Option<SimTime> {
        match self.0.checked_add(d.as_ps()) {
            Some(v) => Some(SimTime(v)),
            None => None,
        }
    }

    /// Saturating advance: clamps at [`SimTime::MAX`].
    #[inline]
    pub const fn saturating_add(self, d: SimDuration) -> SimTime {
        SimTime(self.0.saturating_add(d.as_ps()))
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    #[inline]
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0 + rhs.as_ps())
    }
}

impl AddAssign<SimDuration> for SimTime {
    #[inline]
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.as_ps();
    }
}

impl Sub<SimDuration> for SimTime {
    type Output = SimTime;
    #[inline]
    fn sub(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0 - rhs.as_ps())
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    #[inline]
    fn sub(self, rhs: SimTime) -> SimDuration {
        SimDuration(self.0 - rhs.0)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "@{}", SimDuration(self.0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unit_constructors_scale_correctly() {
        assert_eq!(SimDuration::from_ns(1).as_ps(), 1_000);
        assert_eq!(SimDuration::from_us(1).as_ps(), 1_000_000);
        assert_eq!(SimDuration::from_ms(1).as_ps(), 1_000_000_000);
        assert_eq!(SimDuration::from_s(1).as_ps(), 1_000_000_000_000);
    }

    #[test]
    fn truncating_accessors() {
        let d = SimDuration::from_ps(1_999);
        assert_eq!(d.as_ns(), 1);
        assert_eq!(SimDuration::from_ns(2_500).as_us(), 2);
        assert_eq!(SimDuration::from_us(7_200).as_ms(), 7);
    }

    #[test]
    fn instant_duration_arithmetic() {
        let t0 = SimTime::from_ps(100);
        let t1 = t0 + SimDuration::from_ps(50);
        assert_eq!(t1.as_ps(), 150);
        assert_eq!(t1 - t0, SimDuration::from_ps(50));
        assert_eq!(t1 - SimDuration::from_ps(150), SimTime::ZERO);
    }

    #[test]
    fn duration_scalar_ops() {
        let d = SimDuration::from_ns(10);
        assert_eq!(d * 4, SimDuration::from_ns(40));
        assert_eq!(4 * d, SimDuration::from_ns(40));
        assert_eq!(d / 2, SimDuration::from_ns(5));
        assert_eq!(SimDuration::from_ns(45) / d, 4);
        assert_eq!(SimDuration::from_ns(45) % d, SimDuration::from_ns(5));
    }

    #[test]
    fn saturating_and_checked() {
        assert_eq!(SimDuration::MAX.checked_add(SimDuration::from_ps(1)), None);
        assert_eq!(
            SimDuration::ZERO.saturating_sub(SimDuration::from_ps(5)),
            SimDuration::ZERO
        );
        assert_eq!(SimTime::MAX.checked_add(SimDuration::from_ps(1)), None);
        assert_eq!(
            SimTime::MAX.saturating_add(SimDuration::from_ps(1)),
            SimTime::MAX
        );
        assert_eq!(
            SimDuration::from_ps(3).checked_sub(SimDuration::from_ps(5)),
            None
        );
    }

    #[test]
    #[should_panic(expected = "elapsed_since")]
    fn elapsed_since_panics_when_reversed() {
        let _ = SimTime::ZERO.elapsed_since(SimTime::from_ps(1));
    }

    #[test]
    fn display_picks_exact_unit() {
        assert_eq!(SimDuration::from_us(15).to_string(), "15 us");
        assert_eq!(SimDuration::from_ps(1_500).to_string(), "1500 ps");
        assert_eq!(SimDuration::ZERO.to_string(), "0 s");
        assert_eq!(SimDuration::from_ms(2).to_string(), "2 ms");
        assert_eq!(SimTime::from_ps(5_000_000).to_string(), "@5 us");
    }

    #[test]
    fn sum_of_durations() {
        let total: SimDuration = [1u64, 2, 3].iter().map(|&n| SimDuration::from_ns(n)).sum();
        assert_eq!(total, SimDuration::from_ns(6));
    }

    #[test]
    fn ordering() {
        assert!(SimDuration::from_ns(1) < SimDuration::from_us(1));
        assert!(SimTime::from_ps(10) < SimTime::from_ps(11));
    }
}
