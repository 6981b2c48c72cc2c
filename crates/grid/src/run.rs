//! The grid engine: shard splitting, cache probing, ordered merging.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use rtsim_campaign::{workers_from_env, Campaign, JobCtx};

use crate::cache::{job_key, CacheStore};
use crate::record::Record;

/// The contiguous global-index range of shard `shard` among `shards`
/// over `jobs` jobs: balanced front-loaded split (the first `jobs %
/// shards` shards get one extra job).
pub fn shard_range(jobs: usize, shards: usize, shard: usize) -> std::ops::Range<usize> {
    let shards = shards.max(1);
    assert!(shard < shards, "shard {shard} out of {shards}");
    let base = jobs / shards;
    let extra = jobs % shards;
    let start = shard * base + shard.min(extra);
    let len = base + usize::from(shard < extra);
    start..start + len
}

/// A campaign-of-campaigns over a parameter grid: splits `0..jobs` into
/// contiguous shards, runs each shard as an independent deterministic
/// [`Campaign`] (per-job streams forked from the grid seed by **global**
/// index via [`Campaign::first_index`]), probes the result cache before
/// simulating, and merges per-shard results into one job-index-ordered
/// set.
///
/// Two invariants, both tested property-style:
///
/// 1. **Shard invariance** — any shard count (and any worker count)
///    yields bit-identical merged JSONL, so a grid can be split across
///    processes or machines freely.
/// 2. **Cache transparency** — a job served from the cache contributes
///    exactly the bytes (and the decoded record) the simulation would
///    have produced; a warm re-run is 100 % hits and byte-identical.
#[derive(Debug)]
pub struct Grid {
    name: String,
    seed: u64,
    shards: usize,
    /// The count set with [`Grid::workers`], if any.
    workers: Option<usize>,
    cache: Option<CacheStore>,
}

impl Grid {
    /// Creates a grid. Shard count defaults to 1, worker count to
    /// `RTSIM_WORKERS` ([`workers_from_env`], read once per run), and the
    /// cache to `RTSIM_GRID_CACHE` ([`CacheStore::from_env`]; no caching
    /// when unset).
    pub fn new(name: &str, seed: u64) -> Self {
        Grid {
            name: name.to_owned(),
            seed,
            shards: 1,
            workers: None,
            cache: CacheStore::from_env(),
        }
    }

    /// Overrides the shard count (clamped to at least 1).
    #[must_use]
    pub fn shards(mut self, shards: usize) -> Self {
        self.shards = shards.max(1);
        self
    }

    /// Overrides the per-shard worker count (clamped to at least 1).
    #[must_use]
    pub fn workers(mut self, workers: usize) -> Self {
        self.workers = Some(workers.max(1));
        self
    }

    /// Uses `cache` as the result store.
    #[must_use]
    pub fn cache(mut self, cache: CacheStore) -> Self {
        self.cache = Some(cache);
        self
    }

    /// Disables result caching (overriding `RTSIM_GRID_CACHE`).
    #[must_use]
    pub fn no_cache(mut self) -> Self {
        self.cache = None;
        self
    }

    /// Runs `jobs` grid points and merges every shard's results in
    /// global job-index order.
    ///
    /// `config` renders the *configuration fingerprint* of a job index —
    /// the part of the cache key that is not positional. It must cover
    /// everything the job's behaviour depends on besides the grid seed
    /// and index (scenario parameters, workload sizes, policy names), so
    /// that editing a point's configuration invalidates exactly its
    /// cache entries.
    ///
    /// `job` simulates one point; it only runs on a cache miss.
    ///
    /// # Panics
    ///
    /// Panics if a job panics, naming the job's global index and config
    /// fingerprint (determinism makes the failure replayable).
    pub fn run<T, C, F>(&self, jobs: usize, config: C, job: F) -> GridReport<T>
    where
        T: Record + Send,
        C: Fn(usize) -> String + Send + Sync,
        F: Fn(&mut JobCtx) -> T + Send + Sync,
    {
        let started = Instant::now();
        let workers = self.workers.unwrap_or_else(workers_from_env);
        let shards = self.shards.min(jobs).max(1);
        let mut records = Vec::with_capacity(jobs);
        let mut lines = Vec::with_capacity(jobs);
        let mut job_walls = Vec::with_capacity(jobs);
        let mut summaries = Vec::with_capacity(shards);

        for shard in 0..shards {
            let range = shard_range(jobs, shards, shard);
            let hits = AtomicUsize::new(0);
            let misses = AtomicUsize::new(0);
            let report = Campaign::new(&format!("{}/shard{shard}", self.name), self.seed)
                .workers(workers)
                .first_index(range.start)
                .run(range.len(), |ctx| {
                    let index = ctx.index();
                    if let Some(cache) = &self.cache {
                        let key = job_key(self.seed, index as u64, &config(index));
                        if let Some(line) = cache.load(key) {
                            if let Some(record) = T::decode(&line) {
                                hits.fetch_add(1, Ordering::Relaxed);
                                return (line, record);
                            }
                            // Undecodable entry: treat as a miss and
                            // overwrite below.
                        }
                        let record = job(ctx);
                        let line = record.encode();
                        if let Err(e) = cache.store(key, &line) {
                            eprintln!(
                                "grid `{}`: cannot cache job {index} ({key:016x}): {e}",
                                self.name
                            );
                        }
                        misses.fetch_add(1, Ordering::Relaxed);
                        (line, record)
                    } else {
                        let record = job(ctx);
                        misses.fetch_add(1, Ordering::Relaxed);
                        (record.encode(), record)
                    }
                });

            let summary = ShardSummary {
                shard,
                start: range.start,
                jobs: range.len(),
                hits: hits.into_inner(),
                misses: misses.into_inner(),
                wall: report.wall,
            };
            job_walls.extend(report.outcomes.iter().map(|o| o.wall));
            match report.into_values() {
                Ok(values) => {
                    for (line, record) in values {
                        lines.push(line);
                        records.push(record);
                    }
                }
                Err((index, panic)) => panic!(
                    "grid `{}` job {index} [{}] failed: {panic}",
                    self.name,
                    config(index)
                ),
            }
            summaries.push(summary);
        }

        GridReport {
            name: self.name.clone(),
            seed: self.seed,
            jobs,
            workers,
            records,
            lines,
            job_walls,
            shards: summaries,
            wall: started.elapsed(),
        }
    }
}

/// Per-shard accounting of one grid run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardSummary {
    /// Shard index in `0..shards`.
    pub shard: usize,
    /// First global job index of the shard.
    pub start: usize,
    /// Number of jobs in the shard.
    pub jobs: usize,
    /// Jobs served from the cache.
    pub hits: usize,
    /// Jobs simulated (and, with a cache, stored).
    pub misses: usize,
    /// Wall time of the shard's campaign.
    pub wall: Duration,
}

/// Merged outcome of a grid run: every record and its JSONL line in
/// global job-index order, plus cache and shard accounting.
#[derive(Debug, Clone)]
pub struct GridReport<T> {
    /// Grid name (used in diagnostics and artifact files).
    pub name: String,
    /// The grid seed all job streams were forked from.
    pub seed: u64,
    /// Total jobs across all shards.
    pub jobs: usize,
    /// Per-shard worker count used.
    pub workers: usize,
    /// Every job's decoded record, in global job-index order.
    pub records: Vec<T>,
    /// Every job's JSONL line, in global job-index order.
    pub lines: Vec<String>,
    /// Every job's wall time (cache hits are near-zero), in order.
    pub job_walls: Vec<Duration>,
    /// Per-shard accounting, in shard order.
    pub shards: Vec<ShardSummary>,
    /// Total grid wall time.
    pub wall: Duration,
}

impl<T> GridReport<T> {
    /// Jobs served from the cache, summed over shards.
    pub fn hits(&self) -> usize {
        self.shards.iter().map(|s| s.hits).sum()
    }

    /// Jobs simulated, summed over shards.
    pub fn misses(&self) -> usize {
        self.shards.iter().map(|s| s.misses).sum()
    }

    /// Cache hit rate in `[0, 1]` (0 on an empty grid).
    pub fn hit_rate(&self) -> f64 {
        if self.jobs == 0 {
            0.0
        } else {
            self.hits() as f64 / self.jobs as f64
        }
    }

    /// The merged result set as JSONL (one line per job, global
    /// job-index order, each ending in exactly one newline) — the
    /// byte-identity the shard-invariance property compares.
    pub fn merged_jsonl(&self) -> String {
        let mut out = String::new();
        for line in &self.lines {
            let line = line.trim_end_matches('\n');
            if !line.is_empty() {
                out.push_str(line);
                out.push('\n');
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtsim_campaign::json::Json;

    #[derive(Debug, Clone, PartialEq)]
    struct Rec {
        index: u64,
        draw: u64,
    }

    impl Record for Rec {
        fn encode(&self) -> String {
            format!(r#"{{"index":{},"draw":{}}}"#, self.index, self.draw)
        }
        fn decode(line: &str) -> Option<Self> {
            let record = Json::parse(line).ok()?;
            Some(Rec {
                index: record.get("index")?.as_u64()?,
                draw: record.get("draw")?.as_u64()?,
            })
        }
    }

    fn draw_job(ctx: &mut JobCtx) -> Rec {
        Rec {
            index: ctx.index() as u64,
            draw: ctx.rng().next_u64(),
        }
    }

    fn scratch(tag: &str) -> std::path::PathBuf {
        let dir =
            std::env::temp_dir().join(format!("rtsim-grid-run-test-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn shard_ranges_partition_the_index_space() {
        for (jobs, shards) in [(10, 1), (10, 3), (7, 7), (3, 5), (0, 4), (98, 4)] {
            let mut next = 0;
            for shard in 0..shards {
                let r = shard_range(jobs, shards, shard);
                assert_eq!(r.start, next, "jobs {jobs} shards {shards} shard {shard}");
                next = r.end;
            }
            assert_eq!(next, jobs);
        }
    }

    #[test]
    fn shard_count_does_not_change_merged_output() {
        let run = |shards| {
            Grid::new("inv", 42)
                .no_cache()
                .workers(3)
                .shards(shards)
                .run(11, |i| format!("cfg{i}"), draw_job)
        };
        let one = run(1);
        assert_eq!(one.records.len(), 11);
        assert_eq!(one.records[4].index, 4);
        for shards in [2, 4, 11, 64] {
            let sharded = run(shards);
            assert_eq!(
                sharded.merged_jsonl(),
                one.merged_jsonl(),
                "{shards} shards"
            );
            assert_eq!(sharded.records, one.records);
        }
    }

    #[test]
    fn cache_round_trip_hits_everything_and_preserves_bytes() {
        let dir = scratch("warm");
        let run = |shards| {
            Grid::new("warm", 9)
                .cache(CacheStore::new(&dir))
                .workers(2)
                .shards(shards)
                .run(6, |i| format!("point{i}"), draw_job)
        };
        let cold = run(2);
        assert_eq!((cold.hits(), cold.misses()), (0, 6));
        // Warm run, different shard count: all hits, identical bytes.
        let warm = run(3);
        assert_eq!((warm.hits(), warm.misses()), (6, 0));
        assert_eq!(warm.merged_jsonl(), cold.merged_jsonl());
        assert_eq!(warm.records, cold.records);
        assert!((warm.hit_rate() - 1.0).abs() < f64::EPSILON);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn changed_config_invalidates_only_its_jobs() {
        let dir = scratch("invalidate");
        let grid = |tag: &'static str| {
            Grid::new("inval", 5)
                .cache(CacheStore::new(&dir))
                .workers(1)
                .shards(1)
                .run(
                    4,
                    move |i| {
                        if i == 2 {
                            format!("{tag}{i}")
                        } else {
                            format!("v{i}")
                        }
                    },
                    draw_job,
                )
        };
        let cold = grid("v");
        assert_eq!(cold.misses(), 4);
        let warm = grid("w"); // job 2's config fingerprint changed
        assert_eq!((warm.hits(), warm.misses()), (3, 1));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupt_cache_entries_are_recomputed() {
        let dir = scratch("corrupt");
        let store = CacheStore::new(&dir);
        let run = || {
            Grid::new("corrupt", 3).cache(store.clone()).workers(1).run(
                2,
                |i| i.to_string(),
                draw_job,
            )
        };
        let cold = run();
        let key = job_key(3, 0, "0");
        // Not JSON at all, and not JSON although every field still scans
        // as a number: both are misses, re-simulated and overwritten.
        for damaged in ["not json at all", r#"{"index":0,"draw":1x}"#] {
            store.store(key, damaged).unwrap();
            let warm = run();
            assert_eq!((warm.hits(), warm.misses()), (1, 1), "{damaged}");
            assert_eq!(warm.merged_jsonl(), cold.merged_jsonl(), "{damaged}");
            assert_eq!(store.load(key).as_deref(), Some(cold.lines[0].as_str()));
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn an_explicit_worker_count_runs_each_shard_and_is_reported() {
        // One more than the machine default, so the default cannot pass.
        let n = std::thread::available_parallelism().map_or(1, |n| n.get()) + 1;
        let started = [AtomicUsize::new(0), AtomicUsize::new(0)];
        let report = Grid::new("explicit", 1)
            .no_cache()
            .shards(2)
            .workers(n)
            .run(
                2 * n,
                |i| format!("cfg{i}"),
                |ctx| {
                    // Each job of a shard waits until all `n` have started,
                    // so they end on `n` workers only if `n` ran at once.
                    let started = &started[ctx.index() / n];
                    started.fetch_add(1, Ordering::SeqCst);
                    let deadline = Instant::now() + Duration::from_secs(10);
                    while started.load(Ordering::SeqCst) < n && Instant::now() < deadline {
                        std::thread::yield_now();
                    }
                    Rec {
                        index: ctx.index() as u64,
                        draw: ctx.worker() as u64,
                    }
                },
            );
        assert_eq!(report.workers, n);
        for shard in report.records.chunks(n) {
            let mut workers: Vec<u64> = shard.iter().map(|r| r.draw).collect();
            workers.sort_unstable();
            assert_eq!(workers, (0..n as u64).collect::<Vec<_>>());
        }
    }

    #[test]
    fn empty_grid_is_an_empty_report() {
        let report = Grid::new("empty", 1)
            .no_cache()
            .shards(4)
            .run(0, |_| String::new(), draw_job);
        assert_eq!(report.jobs, 0);
        assert!(report.records.is_empty());
        assert_eq!(report.merged_jsonl(), "");
        assert_eq!(report.hit_rate(), 0.0);
    }

    #[test]
    #[should_panic(expected = "grid `boom` job 3 [cfg3] failed")]
    fn job_panics_name_the_global_index_and_config() {
        Grid::new("boom", 1).no_cache().shards(2).workers(2).run(
            5,
            |i| format!("cfg{i}"),
            |ctx| {
                if ctx.index() == 3 {
                    panic!("kaboom");
                }
                draw_job(ctx)
            },
        );
    }
}
