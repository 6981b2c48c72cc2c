//! The workspace's stable hash: hand-rolled 64-bit FNV-1a.
//!
//! Lives in the campaign crate (the bottom of the batch-processing
//! stack) so every result-reduction layer — the farm's behaviour
//! fingerprints, the grid's job-cache keys — hashes with the same
//! primitive. FNV-1a is deliberately simple: platform-independent,
//! dependency-free, and byte-exact forever, which is what golden files
//! and content-addressed caches require.

/// The 64-bit FNV-1a hasher (offset basis `0xcbf29ce484222325`, prime
/// `0x100000001b3`), hand-rolled because the workspace is hermetic.
///
/// # Examples
///
/// ```
/// use rtsim_campaign::Fnv1a;
///
/// let mut h = Fnv1a::new();
/// h.write(b"");
/// assert_eq!(h.finish(), 0xcbf29ce484222325); // empty input = offset basis
/// let mut h = Fnv1a::new();
/// h.write(b"a");
/// assert_eq!(h.finish(), 0xaf63dc4c8601ec8c); // published FNV-1a test vector
/// ```
#[derive(Debug, Clone, Copy)]
pub struct Fnv1a(u64);

impl Fnv1a {
    const OFFSET: u64 = 0xcbf29ce484222325;
    const PRIME: u64 = 0x100000001b3;

    /// Starts a hash at the FNV offset basis.
    pub fn new() -> Self {
        Fnv1a(Self::OFFSET)
    }

    /// Feeds bytes into the hash.
    #[inline]
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(Self::PRIME);
        }
    }

    /// The current hash value.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

impl Default for Fnv1a {
    fn default() -> Self {
        Fnv1a::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn published_vectors() {
        // From the FNV reference vectors (Noll).
        for (input, expected) in [
            (&b""[..], 0xcbf29ce484222325u64),
            (b"a", 0xaf63dc4c8601ec8c),
            (b"foobar", 0x85944171f73967e8),
        ] {
            let mut h = Fnv1a::new();
            h.write(input);
            assert_eq!(h.finish(), expected, "input {input:?}");
        }
    }

    #[test]
    fn incremental_writes_equal_one_write() {
        let mut a = Fnv1a::new();
        a.write(b"foo");
        a.write(b"bar");
        let mut b = Fnv1a::new();
        b.write(b"foobar");
        assert_eq!(a.finish(), b.finish());
    }
}
