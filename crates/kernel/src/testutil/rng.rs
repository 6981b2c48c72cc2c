//! Deterministic in-tree PRNG: SplitMix64 seeding + xoshiro256++ core.
//!
//! Replaces the external `rand` crate for workload generation and the
//! mini property-test harness. Not cryptographic; the only requirements
//! are good statistical spread and bit-exact reproducibility from a seed,
//! which is what makes randomized simulation runs replayable.

use std::ops::{Range, RangeInclusive};

/// SplitMix64 step: the standard seed-expansion mix (Steele et al.).
#[inline]
pub(crate) fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A seeded xoshiro256++ generator.
///
/// # Examples
///
/// ```
/// use rtsim_kernel::testutil::Rng;
///
/// let mut a = Rng::seed_from_u64(7);
/// let mut b = Rng::seed_from_u64(7);
/// assert_eq!(a.next_u64(), b.next_u64()); // same seed, same stream
/// let v = a.gen_range(10u64..20);
/// assert!((10..20).contains(&v));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Rng {
    s: [u64; 4],
}

impl Rng {
    /// Creates a generator whose stream is fully determined by `seed`.
    pub fn seed_from_u64(seed: u64) -> Self {
        // Expand the 64-bit seed into 256 bits of state with SplitMix64,
        // the initialization recommended by the xoshiro authors.
        let mut sm = seed;
        let s = [
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
        ];
        Rng { s }
    }

    /// Next raw 64-bit output (xoshiro256++).
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[0]
            .wrapping_add(self.s[3])
            .rotate_left(23)
            .wrapping_add(self.s[0]);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// Derives an independent child generator for stream `stream_id`.
    ///
    /// The child seed is a SplitMix64 fold of the parent's full 256-bit
    /// state with the stream id, so: (a) the same `(parent state,
    /// stream_id)` pair always yields the same child stream, (b) nearby
    /// stream ids (0, 1, 2, …) land on statistically unrelated streams,
    /// and (c) the parent is not advanced — forking is order-independent.
    ///
    /// This is the substrate for deterministic parallel batch runs: fork
    /// one child per job index from a fixed campaign root and the drawn
    /// workloads are bit-identical no matter how jobs are scheduled
    /// across worker threads.
    ///
    /// # Examples
    ///
    /// ```
    /// use rtsim_kernel::testutil::Rng;
    ///
    /// let root = Rng::seed_from_u64(1);
    /// let mut a = root.fork(0);
    /// let mut b = root.fork(0);
    /// assert_eq!(a.next_u64(), b.next_u64()); // same stream id, same stream
    /// assert_ne!(root.fork(0).next_u64(), root.fork(1).next_u64());
    /// ```
    #[must_use]
    pub fn fork(&self, stream_id: u64) -> Rng {
        let mut sm = stream_id;
        let mut seed = splitmix64(&mut sm);
        for word in self.s {
            sm ^= word;
            seed ^= splitmix64(&mut sm);
        }
        Rng::seed_from_u64(seed)
    }

    /// Uniform `f64` in `[0, 1)`.
    #[inline]
    pub fn next_f64(&mut self) -> f64 {
        // 53 high bits → the standard mantissa-filling conversion.
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform integer drawn from `range` (half-open or inclusive).
    ///
    /// # Panics
    ///
    /// Panics on an empty range.
    #[inline]
    pub fn gen_range<T: SampleUniform, R: IntoSpan<T>>(&mut self, range: R) -> T {
        let (lo, span) = range.into_span();
        T::from_offset(lo, self.below(span))
    }

    /// Bernoulli draw with probability `p` of `true`.
    #[inline]
    pub fn gen_bool(&mut self, p: f64) -> bool {
        self.next_f64() < p
    }

    /// Uniformly picks one element of `choices`.
    ///
    /// # Panics
    ///
    /// Panics if `choices` is empty.
    #[inline]
    pub fn choose<'a, T>(&mut self, choices: &'a [T]) -> &'a T {
        assert!(!choices.is_empty(), "choose from an empty slice");
        &choices[self.gen_range(0..choices.len())]
    }

    /// Generates a vector whose length is drawn from `len` and whose
    /// elements come from `gen` — the `prop::collection::vec` analogue.
    pub fn gen_vec<T>(&mut self, len: Range<usize>, mut gen: impl FnMut(&mut Rng) -> T) -> Vec<T> {
        let n = self.gen_range(len);
        (0..n).map(|_| gen(self)).collect()
    }

    /// Uniform value in `[0, span)` for non-zero `span`, `0` for span `0`
    /// (which encodes the full u64 range).
    #[inline]
    fn below(&mut self, span: u64) -> u64 {
        if span == 0 {
            return self.next_u64();
        }
        // Lemire's multiply-shift bounded generation, no rejection step:
        // the bias is < 1/2^64 per draw, irrelevant for test workloads.
        (((u128::from(self.next_u64())) * u128::from(span)) >> 64) as u64
    }
}

/// Integer types [`Rng::gen_range`] can sample uniformly.
pub trait SampleUniform: Copy {
    /// Maps the type onto the u64 number line (order-preserving).
    fn to_u64(self) -> u64;
    /// Inverse of [`to_u64`](Self::to_u64) composed with an offset:
    /// returns the value at `lo + offset`.
    fn from_offset(lo: Self, offset: u64) -> Self;
}

macro_rules! impl_sample_unsigned {
    ($($t:ty),*) => {$(
        impl SampleUniform for $t {
            #[inline]
            fn to_u64(self) -> u64 { self as u64 }
            #[inline]
            fn from_offset(lo: Self, offset: u64) -> Self {
                (lo as u64).wrapping_add(offset) as $t
            }
        }
    )*};
}
impl_sample_unsigned!(u8, u16, u32, u64, usize);

macro_rules! impl_sample_signed {
    ($($t:ty),*) => {$(
        impl SampleUniform for $t {
            #[inline]
            fn to_u64(self) -> u64 {
                // Order-preserving map: flip the sign bit.
                (self as i64 as u64) ^ (1 << 63)
            }
            #[inline]
            fn from_offset(lo: Self, offset: u64) -> Self {
                (lo.to_u64().wrapping_add(offset) ^ (1 << 63)) as i64 as $t
            }
        }
    )*};
}
impl_sample_signed!(i8, i16, i32, i64, isize);

/// Range forms accepted by [`Rng::gen_range`].
pub trait IntoSpan<T: SampleUniform> {
    /// Decomposes into `(low, span)` where a span of `0` means the whole
    /// u64 line (only reachable from full inclusive ranges).
    fn into_span(self) -> (T, u64);
}

impl<T: SampleUniform + PartialOrd> IntoSpan<T> for Range<T> {
    fn into_span(self) -> (T, u64) {
        let (lo, hi) = (self.start.to_u64(), self.end.to_u64());
        assert!(lo < hi, "gen_range on an empty range");
        (self.start, hi - lo)
    }
}

impl<T: SampleUniform + PartialOrd> IntoSpan<T> for RangeInclusive<T> {
    fn into_span(self) -> (T, u64) {
        let (start, end) = self.into_inner();
        let (lo, hi) = (start.to_u64(), end.to_u64());
        assert!(lo <= hi, "gen_range on an empty range");
        (start, (hi - lo).wrapping_add(1))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_xoshiro_stream() {
        // First outputs for seed 0 must never change: replayability of
        // recorded failing seeds depends on stream stability.
        let mut rng = Rng::seed_from_u64(0);
        let first: Vec<u64> = (0..3).map(|_| rng.next_u64()).collect();
        let mut again = Rng::seed_from_u64(0);
        let second: Vec<u64> = (0..3).map(|_| again.next_u64()).collect();
        assert_eq!(first, second);
        assert_ne!(first[0], first[1]);
    }

    #[test]
    fn ranges_stay_in_bounds() {
        let mut rng = Rng::seed_from_u64(123);
        for _ in 0..1000 {
            assert!((5u64..17).contains(&rng.gen_range(5u64..17)));
            assert!((-3i64..=3).contains(&rng.gen_range(-3i64..=3)));
            assert!((0usize..4).contains(&rng.gen_range(0usize..4)));
            let one = rng.gen_range(9u32..10);
            assert_eq!(one, 9);
        }
    }

    #[test]
    fn signed_mapping_is_order_preserving() {
        assert!(i64::MIN.to_u64() < 0i64.to_u64());
        assert!(0i64.to_u64() < i64::MAX.to_u64());
        assert_eq!(i64::from_offset(-3, 0), -3);
        assert_eq!(i64::from_offset(-3, 6), 3);
    }

    #[test]
    fn fork_is_reproducible_and_leaves_parent_untouched() {
        let root = Rng::seed_from_u64(77);
        let before = root.clone();
        let a: Vec<u64> = {
            let mut f = root.fork(3);
            (0..4).map(|_| f.next_u64()).collect()
        };
        let b: Vec<u64> = {
            let mut f = root.fork(3);
            (0..4).map(|_| f.next_u64()).collect()
        };
        assert_eq!(a, b, "same (state, stream) must replay identically");
        assert_eq!(root, before, "fork must not advance the parent");
    }

    #[test]
    fn forked_streams_are_decorrelated() {
        // Neighbouring stream ids, the parent's own stream, and forks of
        // an *advanced* parent must all be pairwise distinct streams. A
        // weak mix (e.g. seeding the child with `state[0] ^ stream`)
        // fails the advanced-parent case.
        let mut parent = Rng::seed_from_u64(5);
        let mut streams: Vec<Vec<u64>> = (0..8)
            .map(|id| {
                let mut f = parent.fork(id);
                (0..8).map(|_| f.next_u64()).collect()
            })
            .collect();
        streams.push((0..8).map(|_| parent.next_u64()).collect());
        streams.push({
            let mut f = parent.fork(0); // fork(0) of the advanced parent
            (0..8).map(|_| f.next_u64()).collect()
        });
        for i in 0..streams.len() {
            for j in (i + 1)..streams.len() {
                assert_ne!(streams[i], streams[j], "streams {i} and {j} collide");
                // No cheap lockstep correlation either: the pairwise
                // XOR of outputs must not be constant.
                let x0 = streams[i][0] ^ streams[j][0];
                assert!(
                    (1..8).any(|k| streams[i][k] ^ streams[j][k] != x0),
                    "streams {i} and {j} are a constant XOR apart"
                );
            }
        }
    }

    #[test]
    fn fork_matches_pinned_stream() {
        // First child outputs for a fixed (seed, stream) must never
        // change: campaign replays depend on fork stability exactly as
        // seed replays depend on seed_from_u64 stability.
        let root = Rng::seed_from_u64(0);
        let mut f = root.fork(1);
        let first = f.next_u64();
        let mut again = Rng::seed_from_u64(0).fork(1);
        assert_eq!(first, again.next_u64());
    }

    #[test]
    fn gen_vec_respects_length_range() {
        let mut rng = Rng::seed_from_u64(9);
        for _ in 0..100 {
            let v = rng.gen_vec(2..5, |r| r.gen_range(0u64..10));
            assert!((2..5).contains(&v.len()));
        }
    }
}
