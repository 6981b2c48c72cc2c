//! The content-addressed job-result store.
//!
//! One file per job, named by the 16-hex-digit FNV-1a key of the job's
//! identity, each containing that job's JSONL record. Because the key
//! covers `(grid seed, global job index, config fingerprint)`, editing
//! analysis code or re-running an unchanged grid hits every entry, while
//! changing a point's configuration (or the seed) misses exactly the
//! affected jobs.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use rtsim_campaign::Fnv1a;

/// Environment variable naming the cache directory. When set, grids
/// constructed with [`Grid::new`](crate::Grid::new) cache automatically.
pub const CACHE_ENV: &str = "RTSIM_GRID_CACHE";

/// Cache key of one grid job.
///
/// Format (`grid-cache-v1`, pinned in ROADMAP.md): FNV-1a over the
/// domain tag `"rtsim-grid-cache-v1"`, the grid seed (little-endian
/// u64), the global job index (little-endian u64), and the UTF-8 bytes
/// of the job's config fingerprint string. Rendered as 16 lowercase hex
/// digits in file names.
pub fn job_key(seed: u64, index: u64, config: &str) -> u64 {
    let mut h = Fnv1a::new();
    h.write(b"rtsim-grid-cache-v1");
    h.write(&seed.to_le_bytes());
    h.write(&index.to_le_bytes());
    h.write(config.as_bytes());
    h.finish()
}

/// A directory of cached job records, addressed by [`job_key`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CacheStore {
    dir: PathBuf,
}

impl CacheStore {
    /// A store rooted at `dir` (created lazily on first write).
    pub fn new<P: Into<PathBuf>>(dir: P) -> Self {
        CacheStore { dir: dir.into() }
    }

    /// The store named by [`CACHE_ENV`], if the variable is set and
    /// non-empty.
    pub fn from_env() -> Option<Self> {
        match std::env::var(CACHE_ENV) {
            Ok(dir) if !dir.is_empty() => Some(CacheStore::new(dir)),
            _ => None,
        }
    }

    /// The cache directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The entry path for `key`.
    fn entry(&self, key: u64) -> PathBuf {
        self.dir.join(format!("{key:016x}.jsonl"))
    }

    /// Loads the cached record line for `key`, if present.
    ///
    /// Returns the line without its trailing newline. A missing entry is
    /// silently `None`; an entry that exists but is damaged — unreadable,
    /// non-UTF-8, empty, missing the trailing newline every writer
    /// appends (a truncated write by a non-atomic external tool), or
    /// holding more than one line — warns on stderr and is also `None`,
    /// so the caller simply re-simulates and overwrites. The cache
    /// directory is input from outside the process, so corruption must
    /// never panic a grid sweep; the entry is self-healing on the next
    /// store.
    ///
    /// Concurrent readers are safe against concurrent [`store`]s of the
    /// same key because writers publish atomically (tempfile +
    /// `rename`): a reader observes either the old complete entry or the
    /// new complete entry, never a torn one.
    ///
    /// [`store`]: Self::store
    pub fn load(&self, key: u64) -> Option<String> {
        let path = self.entry(key);
        let bytes = match fs::read(&path) {
            Ok(bytes) => bytes,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return None,
            Err(e) => {
                eprintln!(
                    "grid cache: ignoring unreadable entry {}: {e}",
                    path.display()
                );
                return None;
            }
        };
        let Ok(text) = String::from_utf8(bytes) else {
            eprintln!(
                "grid cache: ignoring non-UTF-8 entry {} (corrupt; will re-simulate)",
                path.display()
            );
            return None;
        };
        let Some(line) = text.strip_suffix('\n') else {
            eprintln!(
                "grid cache: ignoring truncated entry {} (no trailing newline; will re-simulate)",
                path.display()
            );
            return None;
        };
        let line = line.strip_suffix('\r').unwrap_or(line);
        if line.is_empty() || line.contains('\n') {
            eprintln!(
                "grid cache: ignoring malformed entry {} (expected exactly one record line)",
                path.display()
            );
            return None;
        }
        Some(line.to_owned())
    }

    /// Stores `line` (one JSONL record, no newline needed) under `key`.
    ///
    /// The write goes to a temporary sibling first and is renamed into
    /// place, so concurrent writers of the same key — which by
    /// construction carry identical content — can never leave a torn
    /// entry behind.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors (unwritable directory, full disk).
    pub fn store(&self, key: u64, line: &str) -> io::Result<()> {
        fs::create_dir_all(&self.dir)?;
        let path = self.entry(key);
        let tmp = self.dir.join(format!(
            "{key:016x}.tmp.{}.{:?}",
            std::process::id(),
            std::thread::current().id(),
        ));
        fs::write(&tmp, format!("{line}\n"))?;
        fs::rename(&tmp, &path)
    }

    /// Number of entries currently in the store (diagnostics only).
    pub fn len(&self) -> usize {
        fs::read_dir(&self.dir)
            .map(|entries| {
                entries
                    .filter_map(Result::ok)
                    .filter(|e| e.path().extension().is_some_and(|x| x == "jsonl"))
                    .count()
            })
            .unwrap_or(0)
    }

    /// `true` when the store holds no entries (or does not exist yet).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scratch(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "rtsim-grid-cache-test-{tag}-{}",
            std::process::id()
        ));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn keys_separate_every_component() {
        let base = job_key(1, 2, "cfg");
        assert_eq!(job_key(1, 2, "cfg"), base);
        assert_ne!(job_key(9, 2, "cfg"), base);
        assert_ne!(job_key(1, 3, "cfg"), base);
        assert_ne!(job_key(1, 2, "cfg2"), base);
    }

    #[test]
    fn store_and_load_round_trip() {
        let dir = scratch("roundtrip");
        let store = CacheStore::new(&dir);
        let key = job_key(7, 0, "a");
        assert_eq!(store.load(key), None);
        assert!(store.is_empty());
        store.store(key, r#"{"v":1}"#).unwrap();
        assert_eq!(store.load(key).as_deref(), Some(r#"{"v":1}"#));
        assert_eq!(store.len(), 1);
        // Overwrite is idempotent.
        store.store(key, r#"{"v":1}"#).unwrap();
        assert_eq!(store.len(), 1);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn damaged_entries_are_ignored_not_fatal() {
        let dir = scratch("damaged");
        let store = CacheStore::new(&dir);
        let key = job_key(1, 1, "x");
        store.store(key, r#"{"v":9}"#).unwrap();

        // Truncated: the trailing newline the writer always appends is
        // gone, as a torn non-atomic write would leave it.
        fs::write(store.entry(key), r#"{"v":9}"#).unwrap();
        assert_eq!(store.load(key), None);

        // Empty file.
        fs::write(store.entry(key), "").unwrap();
        assert_eq!(store.load(key), None);

        // More than one record line.
        fs::write(store.entry(key), "{\"v\":9}\n{\"v\":10}\n").unwrap();
        assert_eq!(store.load(key), None);

        // Non-UTF-8 garbage.
        fs::write(store.entry(key), [0xff, 0xfe, 0x00, b'\n']).unwrap();
        assert_eq!(store.load(key), None);

        // A fresh store heals the entry in place.
        store.store(key, r#"{"v":11}"#).unwrap();
        assert_eq!(store.load(key).as_deref(), Some(r#"{"v":11}"#));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn from_env_requires_a_non_empty_value() {
        // NB: env mutation is process-global; single test covers all
        // cases so they cannot race.
        std::env::remove_var(CACHE_ENV);
        assert_eq!(CacheStore::from_env(), None);
        std::env::set_var(CACHE_ENV, "");
        assert_eq!(CacheStore::from_env(), None);
        std::env::set_var(CACHE_ENV, "/tmp/rtsim-grid-cache-env");
        assert_eq!(
            CacheStore::from_env(),
            Some(CacheStore::new("/tmp/rtsim-grid-cache-env"))
        );
        std::env::remove_var(CACHE_ENV);
    }
}
