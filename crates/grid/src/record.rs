//! The JSONL record contract between grid jobs and the result cache.
//!
//! A grid persists each job's result as one JSON Lines record; on a
//! cache hit the record is *decoded back* instead of re-simulated, so —
//! unlike plain campaign output — grid records must round-trip. The
//! [`Record`] trait captures that contract. Decode with
//! [`Json::parse`](rtsim_campaign::json::Json::parse), the workspace's
//! one JSON reader: it rejects a damaged line as a whole, where a scan
//! for one field could read a truncated value out of it.

/// A job result that can round-trip through one JSONL line.
///
/// `decode(encode(x)) == Some(x)` must hold bit-exactly — the grid's
/// merge-invariance guarantee ("a cached job equals a simulated job")
/// is only as strong as the codec. Encode every field as an integer
/// (picoseconds, counts, hashes-as-hex) rather than a float unless the
/// float's shortest round-trip formatting is what you store.
pub trait Record: Sized {
    /// Renders the record as one JSONL line (no trailing newline).
    fn encode(&self) -> String;
    /// Parses a line produced by [`encode`](Record::encode); `None` on
    /// anything malformed (the grid treats that entry as a cache miss).
    fn decode(line: &str) -> Option<Self>;
}
