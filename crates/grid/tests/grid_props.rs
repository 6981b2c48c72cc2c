//! Property tests of the grid's two invariants, on the workspace's
//! seeded harness (replay one case with `RTSIM_PROP_SEED=<seed>`):
//!
//! 1. merge invariance — for random small grids, the merged results
//!    across shard counts {1, 2, 4} are identical to the unsharded
//!    campaign, record-for-record and byte-for-byte;
//! 2. cache transparency — a second (warm) run is 100 % cache hits and
//!    produces byte-identical JSONL, even under a different shard count.

use rtsim_campaign::json::Json;
use rtsim_campaign::JobCtx;
use rtsim_grid::{CacheStore, Grid, Record};
use rtsim_kernel::testutil::check;

/// A job result exercising every codec shape the workspace uses:
/// string, scalar and array fields, all integer-exact.
#[derive(Debug, Clone, PartialEq)]
struct Draws {
    label: String,
    index: u64,
    draws: Vec<u64>,
}

impl Record for Draws {
    fn encode(&self) -> String {
        let draws: Vec<String> = self.draws.iter().map(u64::to_string).collect();
        format!(
            r#"{{"label":"{}","index":{},"draws":[{}]}}"#,
            self.label,
            self.index,
            draws.join(",")
        )
    }
    fn decode(line: &str) -> Option<Self> {
        let record = Json::parse(line).ok()?;
        let Json::Arr(draws) = record.get("draws")? else {
            return None;
        };
        Some(Draws {
            label: record.get("label")?.as_str()?.to_owned(),
            index: record.get("index")?.as_u64()?,
            draws: draws.iter().map(Json::as_u64).collect::<Option<_>>()?,
        })
    }
}

/// The grid job: a workload that is a pure function of the job's forked
/// stream and index, drawing a variable number of values so shards end
/// at staggered stream positions.
fn job(ctx: &mut JobCtx) -> Draws {
    let n = 1 + (ctx.index() % 4);
    Draws {
        label: format!("job{}", ctx.index()),
        index: ctx.index() as u64,
        draws: (0..n).map(|_| ctx.rng().next_u64()).collect(),
    }
}

fn config(index: usize) -> String {
    format!("draws-v1/point{index}")
}

fn scratch(tag: u64) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "rtsim-grid-props-{}-{tag:016x}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn merged_results_are_shard_invariant() {
    check(
        24,
        |rng| (rng.gen_range(1usize..=20), rng.next_u64()),
        |&(jobs, seed)| {
            let run = |shards| {
                Grid::new("prop-inv", seed)
                    .no_cache()
                    .workers(3)
                    .shards(shards)
                    .run(jobs, config, job)
            };
            let unsharded = run(1);
            assert_eq!(unsharded.records.len(), jobs);
            for shards in [2, 4] {
                let sharded = run(shards);
                assert_eq!(
                    sharded.merged_jsonl(),
                    unsharded.merged_jsonl(),
                    "{shards} shards, {jobs} jobs, seed {seed:#x}"
                );
                assert_eq!(sharded.records, unsharded.records);
            }
        },
    );
}

#[test]
fn warm_reruns_are_all_hits_and_byte_identical() {
    check(
        16,
        |rng| (rng.gen_range(1usize..=16), rng.next_u64()),
        |&(jobs, seed)| {
            let dir = scratch(seed ^ jobs as u64);
            let run = |shards| {
                Grid::new("prop-cache", seed)
                    .cache(CacheStore::new(&dir))
                    .workers(2)
                    .shards(shards)
                    .run(jobs, config, job)
            };
            let cold = run(2);
            assert_eq!(cold.hits(), 0, "fresh cache cannot hit");
            assert_eq!(cold.misses(), jobs);
            let warm = run(4);
            assert_eq!(warm.hits(), jobs, "warm run must be 100% hits");
            assert_eq!(warm.misses(), 0);
            assert_eq!(warm.merged_jsonl(), cold.merged_jsonl());
            assert_eq!(warm.records, cold.records);
            // And the cache never perturbs results: a cache-free run of
            // the same grid produces the same bytes.
            let free = Grid::new("prop-cache", seed)
                .no_cache()
                .workers(2)
                .shards(1)
                .run(jobs, config, job);
            assert_eq!(free.merged_jsonl(), cold.merged_jsonl());
            let _ = std::fs::remove_dir_all(&dir);
        },
    );
}
