//! A fixed computation that gauges the host's speed.
//!
//! The measuring machine shares its cores with other tenants, and its
//! speed drifts by a quarter or more over minutes and wobbles within a
//! second. CPU time drifts with wall time, so neither measures rtsim
//! alone. The benchmark therefore runs this fixed loop between its timed
//! sections and scales each section's time by how long the loop took on
//! either side of it. The loop mixes heap, ordered-map, hashing and
//! small-allocation work like the simulator's, and it lives in the
//! benchmark, so a change to rtsim never changes it.

use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap};
use std::hint::black_box;
use std::ops::Add;
use std::time::{Duration, Instant};

/// Seconds one [`sample`] takes on the measuring machine at its usual
/// speed: scaled times read as that machine's seconds.
pub const NOMINAL_S: f64 = 0.0023;

/// Loop iterations per run.
const ITERATIONS: u64 = 16_000;

/// Runs per sample; the sample is the fastest, which drops interrupts.
const RUNS: usize = 3;

/// One run of the loop; returns a digest so none of it is optimised away.
fn run(iterations: u64) -> u64 {
    let mut heap = BinaryHeap::new();
    let mut map = BTreeMap::new();
    let mut names: Vec<String> = Vec::new();
    let (mut x, mut hash) = (0x9E37_79B9_7F4A_7C15_u64, 0xcbf2_9ce4_8422_2325_u64);
    for i in 0..iterations {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        heap.push(Reverse(x % 10_000));
        if heap.len() > 256 {
            heap.pop();
        }
        map.insert(x % 8192, i);
        if i % 4 == 0 {
            names.push(format!("{x:x}:{i}"));
            if names.len() > 512 {
                names.clear();
            }
        }
        for &b in names.last().map_or(&[][..], |s| s.as_bytes()) {
            hash = (hash ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }
    hash ^ map.len() as u64
}

/// Times the loop: the fastest of a few runs, in seconds.
pub fn sample() -> f64 {
    (0..RUNS)
        .map(|_| {
            let t0 = Instant::now();
            black_box(run(black_box(ITERATIONS)));
            t0.elapsed().as_secs_f64()
        })
        .fold(f64::INFINITY, f64::min)
}

/// How long some work took.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Timed {
    /// Host time.
    pub host: Duration,
    /// Host time scaled to the gauge: the measuring machine's seconds at
    /// its usual speed.
    pub scaled: f64,
}

impl Add for Timed {
    type Output = Timed;

    fn add(self, other: Timed) -> Timed {
        Timed {
            host: self.host + other.host,
            scaled: self.scaled + other.scaled,
        }
    }
}

/// Times sections of work, sampling the gauge after each one. A section
/// is scaled by the mean of the samples on either side of it, so
/// back-to-back sections share the sample between them.
#[derive(Debug)]
pub struct Gauge {
    last: f64,
    samples: Vec<f64>,
    allocs: (u64, u64),
}

impl Gauge {
    /// Takes the first sample.
    pub fn new() -> Self {
        let last = sample();
        Gauge {
            last,
            samples: vec![last],
            allocs: (0, 0),
        }
    }

    /// Runs `f` as one timed section.
    pub fn time<T>(&mut self, f: impl FnOnce() -> T) -> (T, Timed) {
        let t0 = Instant::now();
        let out = f();
        let host = t0.elapsed();
        let (count0, bytes0) = crate::alloc::totals();
        let after = sample();
        self.samples.push(after);
        let (count1, bytes1) = crate::alloc::totals();
        self.allocs.0 += count1 - count0;
        self.allocs.1 += bytes1 - bytes0;
        let scaled = host.as_secs_f64() * 2.0 * NOMINAL_S / (self.last + after);
        self.last = after;
        (out, Timed { host, scaled })
    }

    /// Every sample taken, in seconds.
    pub fn samples(&self) -> &[f64] {
        &self.samples
    }

    /// Allocations and bytes the samples have requested so far, so
    /// allocation counts of the work can leave them out.
    pub fn allocs(&self) -> (u64, u64) {
        self.allocs
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_loop_is_deterministic() {
        assert_eq!(run(1000), run(1000));
        assert_ne!(run(1000), run(1001));
    }

    #[test]
    fn a_section_is_scaled_by_the_samples_around_it() {
        let mut gauge = Gauge::new();
        let (value, timed) = gauge.time(|| {
            std::thread::sleep(Duration::from_millis(5));
            7
        });
        assert_eq!(value, 7);
        assert!(timed.host >= Duration::from_millis(5));
        let [before, after] = gauge.samples() else {
            panic!("two samples");
        };
        let expected = timed.host.as_secs_f64() * 2.0 * NOMINAL_S / (before + after);
        assert!((timed.scaled - expected).abs() < 1e-12);
        let twice = timed + timed;
        assert_eq!(twice.host, timed.host * 2);
    }
}
