//! Environment-driven knobs shared by every campaign consumer: smoke
//! scaling, numeric tuning variables, and artifact emission.
//!
//! The bench harness binaries, the regression farm, and the integration
//! suites all obey the same environment variables:
//!
//! - `RTSIM_BENCH_SMOKE=1|true|yes` — run a drastically reduced workload
//!   so a test suite can execute every binary in seconds ([`smoke`],
//!   [`scaled`]);
//! - `RTSIM_CAMPAIGN_OUT=<dir>` — persist machine-readable JSONL/CSV
//!   artifacts of a campaign ([`write_campaign_outputs`]);
//! - `RTSIM_BENCH_OUT=<dir>` — persist structured bench trajectories
//!   (`rtsim-bench` writes `bench-<name>.jsonl` through
//!   [`write_artifact_in`]).
//!
//! All parsing is forgiving about whitespace and loud about garbage:
//! values are trimmed first, and an unrecognizable value warns once on
//! stderr instead of being silently treated as unset ([`env_flag`],
//! [`env_usize`]) — `RTSIM_BENCH_SMOKE=true` must never quietly run the
//! full workload in CI.

use std::collections::BTreeSet;
use std::fs;
use std::path::Path;
use std::sync::{Mutex, OnceLock};

/// Warns once per `(variable, value)` pair; repeat offenders stay quiet
/// so hot paths like [`scaled`] can re-consult the environment freely.
fn warn_once(name: &str, value: &str, expected: &str) {
    static SEEN: OnceLock<Mutex<BTreeSet<(String, String)>>> = OnceLock::new();
    let seen = SEEN.get_or_init(|| Mutex::new(BTreeSet::new()));
    let mut seen = seen.lock().unwrap_or_else(|e| e.into_inner());
    if seen.insert((name.to_owned(), value.to_owned())) {
        eprintln!("warning: {name}={value:?} is not {expected}; ignoring it");
    }
}

/// Reads a boolean environment variable.
///
/// Returns `Some(true)` for trimmed, case-insensitive `1`/`true`/`yes`,
/// `Some(false)` for `0`/`false`/`no`, and `None` when the variable is
/// unset, empty, or unrecognizable (the latter warns once on stderr).
pub fn env_flag(name: &str) -> Option<bool> {
    let raw = std::env::var(name).ok()?;
    let value = raw.trim();
    if value.is_empty() {
        return None;
    }
    match value.to_ascii_lowercase().as_str() {
        "1" | "true" | "yes" => Some(true),
        "0" | "false" | "no" => Some(false),
        _ => {
            warn_once(name, &raw, "a boolean (1|true|yes / 0|false|no)");
            None
        }
    }
}

/// Reads a non-negative integer environment variable.
///
/// The value is trimmed before parsing; `None` when the variable is
/// unset, empty, or unrecognizable (the latter warns once on stderr
/// rather than silently falling back). This is the parser behind
/// `RTSIM_WORKERS`.
pub fn env_usize(name: &str) -> Option<usize> {
    let raw = std::env::var(name).ok()?;
    let value = raw.trim();
    if value.is_empty() {
        return None;
    }
    match value.parse::<usize>() {
        Ok(n) => Some(n),
        Err(_) => {
            warn_once(name, &raw, "a non-negative integer");
            None
        }
    }
}

/// Whether `RTSIM_BENCH_SMOKE` asked for the fast path: tiny case
/// counts so the integration suite can execute every harness binary.
/// Accepts trimmed `1`/`true`/`yes` (see [`env_flag`]).
pub fn smoke() -> bool {
    env_flag("RTSIM_BENCH_SMOKE") == Some(true)
}

/// Picks `full` normally, `reduced` under [`smoke`] mode.
pub fn scaled(full: usize, reduced: usize) -> usize {
    if smoke() {
        reduced
    } else {
        full
    }
}

/// Writes one named artifact file into the directory named by the
/// environment variable `env_var` (no-op when the variable is unset or
/// the content is empty).
///
/// The general form behind [`write_artifact`] (`RTSIM_CAMPAIGN_OUT`)
/// and the bench-trajectory writer (`RTSIM_BENCH_OUT`): same directory
/// creation, same `wrote <path>` confirmation, different destination
/// knob.
pub fn write_artifact_in(env_var: &str, filename: &str, content: &str) {
    let Ok(dir) = std::env::var(env_var) else {
        return;
    };
    if content.is_empty() {
        return;
    }
    let dir = Path::new(&dir);
    if let Err(e) = fs::create_dir_all(dir) {
        eprintln!("{env_var}: cannot create {}: {e}", dir.display());
        return;
    }
    let path = dir.join(filename);
    match fs::write(&path, content) {
        Ok(()) => println!("wrote {}", path.display()),
        Err(e) => eprintln!("{env_var}: cannot write {}: {e}", path.display()),
    }
}

/// Writes one named artifact file into the directory named by
/// `RTSIM_CAMPAIGN_OUT` (no-op when the variable is unset or the content
/// is empty).
///
/// [`write_campaign_outputs`] covers the common JSONL+CSV pair; this is
/// the general writer for everything else — per-shard grid outputs,
/// merged result sets, extra tables.
pub fn write_artifact(filename: &str, content: &str) {
    write_artifact_in("RTSIM_CAMPAIGN_OUT", filename, content);
}

/// Writes a campaign's JSONL and CSV artifacts into the directory named
/// by `RTSIM_CAMPAIGN_OUT` (no-op when the variable is unset).
///
/// Pass an empty string for an artifact you do not produce; empty
/// contents are skipped rather than written as empty files.
pub fn write_campaign_outputs(name: &str, jsonl: &str, csv: &str) {
    for (ext, content) in [("jsonl", jsonl), ("csv", csv)] {
        write_artifact(&format!("{name}.{ext}"), content);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // Env-var tests mutate process-global state, so each uses its own
    // variable name and restores it — the suite runs threaded.

    #[test]
    fn env_flag_accepts_spellings() {
        let var = "RTSIM_TEST_FLAG_SPELLINGS";
        for (value, expected) in [
            ("1", Some(true)),
            ("true", Some(true)),
            ("YES", Some(true)),
            (" 1 ", Some(true)),
            ("\tTrue\n", Some(true)),
            ("0", Some(false)),
            ("false", Some(false)),
            ("No", Some(false)),
            ("", None),
            ("   ", None),
            ("2", None),
            ("on", None),
        ] {
            std::env::set_var(var, value);
            assert_eq!(env_flag(var), expected, "value {value:?}");
        }
        std::env::remove_var(var);
        assert_eq!(env_flag(var), None);
    }

    #[test]
    fn env_usize_trims_and_rejects_garbage() {
        let var = "RTSIM_TEST_USIZE_PARSE";
        for (value, expected) in [
            ("3", Some(3)),
            (" 12\n", Some(12)),
            ("0", Some(0)),
            ("", None),
            ("lots", None),
            ("-1", None),
            ("1.5", None),
        ] {
            std::env::set_var(var, value);
            assert_eq!(env_usize(var), expected, "value {value:?}");
        }
        std::env::remove_var(var);
        assert_eq!(env_usize(var), None);
    }
}
