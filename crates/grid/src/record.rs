//! The JSONL record contract between grid jobs and the result cache.
//!
//! A grid persists each job's result as one JSON Lines record; on a
//! cache hit the record is *decoded back* instead of re-simulated, so —
//! unlike plain campaign output — grid records must round-trip. The
//! [`Record`] trait captures that contract, and the field scanners below
//! are the decoding half: enough of a parser for the flat, escape-free
//! records this workspace writes (the same scanning approach the farm's
//! golden checker has always used). They find one field in place
//! instead of building the value tree that [`rtsim_campaign::json`]'s
//! general parser returns.

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

/// Extracts the string value of `"key":"…"` from a flat record line.
/// Assumes the value contains no escape sequences, which holds for
/// every record this workspace writes.
pub fn string_field(line: &str, key: &str) -> Option<String> {
    let marker = format!("\"{key}\":\"");
    let start = line.find(&marker)? + marker.len();
    let end = line[start..].find('"')? + start;
    Some(line[start..end].to_owned())
}

/// Extracts the unsigned-integer value of `"key":n`.
pub fn u64_field(line: &str, key: &str) -> Option<u64> {
    let marker = format!("\"{key}\":");
    let start = line.find(&marker)? + marker.len();
    let digits: String = line[start..]
        .chars()
        .take_while(char::is_ascii_digit)
        .collect();
    digits.parse().ok()
}

/// Extracts the unsigned-integer array value of `"key":[n,n,…]`.
pub fn u64_array_field(line: &str, key: &str) -> Option<Vec<u64>> {
    let marker = format!("\"{key}\":[");
    let start = line.find(&marker)? + marker.len();
    let end = line[start..].find(']')? + start;
    let body = &line[start..end];
    if body.is_empty() {
        return Some(Vec::new());
    }
    body.split(',').map(|n| n.trim().parse().ok()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    const LINE: &str = r#"{"name":"cell/a","count":42,"lat_ps":[1,2,30],"empty":[],"tail":7}"#;

    #[test]
    fn scans_string_and_int_fields() {
        assert_eq!(string_field(LINE, "name").unwrap(), "cell/a");
        assert_eq!(u64_field(LINE, "count"), Some(42));
        assert_eq!(u64_field(LINE, "tail"), Some(7));
        assert_eq!(string_field(LINE, "missing"), None);
        assert_eq!(u64_field(LINE, "missing"), None);
    }

    #[test]
    fn scans_arrays() {
        assert_eq!(u64_array_field(LINE, "lat_ps"), Some(vec![1, 2, 30]));
        assert_eq!(u64_array_field(LINE, "empty"), Some(Vec::new()));
        assert_eq!(u64_array_field(LINE, "missing"), None);
        assert_eq!(u64_array_field(r#"{"a":[1,x]}"#, "a"), None);
    }
}
