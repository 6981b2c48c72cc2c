//! `grid_cache`: one pass is one cache cycle over the full matrix in a
//! fresh scratch `CacheStore`: a cold sweep (1 shard, every cell
//! simulated and stored) and then [`WARM_SWEEPS`] warm sweeps (2 shards,
//! every cell loaded and decoded), all in Segment mode on 2 workers.
//! The seed permutes the matrix order per cycle.
//!
//! The warm sweeps are the pass's timed section. The cold sweep is timed
//! apart and reported per layer only: creating its 224 files on the
//! measuring machine's disk costs anywhere from 20 µs to 370 µs a file
//! from one run to the next, far more than any bound could absorb.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use rtsim::farm::registry::full_matrix;
use rtsim::farm::{Cell, CellResult, FARM_SEED};
use rtsim::grid::job_key;
use rtsim::kernel::testutil::Rng;
use rtsim::{CacheStore, ExecMode, GridReport, Record};

use crate::farm::{pool, record_counts, sweep, Goldens};
use crate::gauge::Gauge;
use crate::probe::{bump, shuffled, Counts};
use crate::spans::Tracer;
use crate::{Checks, Layers, Load, Pass};

/// Warm sweeps per cycle.
const WARM_SWEEPS: usize = 20;

/// Distinguishes the scratch directories of workloads set up in one
/// process (tests run several at once).
static INSTANCES: AtomicU64 = AtomicU64::new(0);

struct GridCache {
    cells: Vec<Cell>,
    goldens: Goldens,
    rng: Rng,
    scratch: PathBuf,
    cycles: u64,
}

pub(crate) fn setup(seed: u64) -> Result<Box<dyn Load>, String> {
    Ok(Box::new(GridCache {
        cells: full_matrix(),
        goldens: Goldens::load()?,
        rng: Rng::seed_from_u64(seed),
        scratch: scratch_dir()?,
        cycles: 0,
    }))
}

/// A fresh scratch directory for one workload instance. It lives next to
/// the executable, inside the build directory, so a run writes nothing
/// outside its checkout.
fn scratch_dir() -> Result<PathBuf, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate the executable: {e}"))?;
    let dir = exe
        .parent()
        .ok_or("the executable has no parent directory")?;
    Ok(dir.join("rtsim-benchmark-scratch").join(format!(
        "{}-{}",
        std::process::id(),
        INSTANCES.fetch_add(1, Ordering::Relaxed)
    )))
}

/// Removes a scratch directory, reporting (not failing on) errors.
fn remove(dir: &Path) {
    if let Err(e) = std::fs::remove_dir_all(dir) {
        if e.kind() != std::io::ErrorKind::NotFound {
            eprintln!("rtsim-benchmark: cannot remove {}: {e}", dir.display());
        }
    }
}

impl Drop for GridCache {
    fn drop(&mut self) {
        remove(&self.scratch);
    }
}

/// Checks one cycle: the cold sweep missed every cell and each warm
/// sweep hit every cell, reproduced the cold sweep's JSONL byte for byte
/// and decoded to the golden records.
pub(crate) fn check_cycle(
    goldens: &Goldens,
    cells: &[Cell],
    cold: &GridReport<CellResult>,
    warm: &[GridReport<CellResult>],
    checks: &mut Checks,
) {
    checks.check(cold.misses() == cells.len() && cold.hits() == 0, || {
        format!("cold sweep: {} hits, {} misses", cold.hits(), cold.misses())
    });
    goldens.check(cells, cold, checks);
    let cold_jsonl = cold.merged_jsonl();
    for (i, sweep) in warm.iter().enumerate() {
        checks.check(sweep.hits() == cells.len() && sweep.misses() == 0, || {
            format!(
                "warm sweep {i}: {} hits, {} misses",
                sweep.hits(),
                sweep.misses()
            )
        });
        checks.check(sweep.merged_jsonl() == cold_jsonl, || {
            format!("warm sweep {i}: JSONL differs from the cold sweep")
        });
        goldens.check(cells, sweep, checks);
    }
}

impl Load for GridCache {
    fn pass(
        &mut self,
        tracer: &Tracer,
        parent: u64,
        gauge: &mut Gauge,
        checks: &mut Checks,
    ) -> Pass {
        let cells = shuffled(&self.cells, &mut self.rng);
        let dir = self.scratch.join(format!("cycle-{}", self.cycles));
        self.cycles += 1;
        remove(&dir);
        let store = CacheStore::new(&dir);
        let tally = Mutex::new(Counts::new());

        let (cold, cold_time) = gauge.time(|| {
            tracer.span("grid.run_cold", parent, |id| {
                sweep(
                    &cells,
                    ExecMode::Segment,
                    pool().cache(store.clone()),
                    tracer,
                    id,
                    &tally,
                )
            })
        });
        let (warm, time) = gauge.time(|| {
            (0..WARM_SWEEPS)
                .map(|_| {
                    tracer.span("grid.run_warm", parent, |id| {
                        let grid = pool().shards(2).cache(store.clone());
                        sweep(&cells, ExecMode::Segment, grid, tracer, id, &tally)
                    })
                })
                .collect::<Vec<_>>()
        });
        remove(&dir);
        check_cycle(&self.goldens, &cells, &cold, &warm, checks);

        let mut counts = tally.into_inner().expect("tally poisoned");
        if counts.is_empty() {
            record_counts(&mut counts, &cold.records);
        }
        let sweeps = std::iter::once(&cold).chain(&warm);
        let (mut busy, mut pool_wall) = (0.0, 0.0);
        for s in sweeps {
            bump(&mut counts, "grid.hits", s.hits() as u64);
            bump(&mut counts, "grid.misses", s.misses() as u64);
            bump(&mut counts, "campaign.jobs", s.jobs as u64);
            busy += s.job_walls.iter().map(|w| w.as_secs_f64()).sum::<f64>();
            pool_wall += s.wall.as_secs_f64();
        }
        for s in &warm {
            bump(
                &mut counts,
                "grid.bytes_read",
                s.merged_jsonl().len() as u64,
            );
        }
        Pass {
            time,
            items: (cells.len() * WARM_SWEEPS) as u64,
            events: counts["trace.records"],
            busy: Some((busy, pool_wall)),
            rates: vec![(
                "grid.cold_cells_per_s",
                cells.len() as f64 / cold_time.host.as_secs_f64(),
            )],
            counts,
            ..Pass::default()
        }
    }

    /// Splits cache I/O per cell: `CacheStore::store`, `CacheStore::load`
    /// and `Record::decode` of every golden line, one call at a time.
    fn finish(&mut self, tracer: &Tracer, checks: &mut Checks, _: &mut Counts, _: &mut Layers) {
        if !tracer.is_on() {
            return;
        }
        let dir = self.scratch.join("split");
        remove(&dir);
        let store = CacheStore::new(&dir);
        for (index, cell) in self.cells.iter().enumerate() {
            let (Some(line), Some(golden)) = (self.goldens.line(cell), self.goldens.result(cell))
            else {
                checks.check(false, || format!("cell {}: no golden line", cell.label()));
                continue;
            };
            let key = job_key(FARM_SEED, index as u64, &cell.label());
            let stored = tracer.span("grid.store", 0, |_| store.store(key, line));
            let loaded = tracer.span("grid.load", 0, |_| store.load(key));
            let decoded = loaded
                .as_deref()
                .and_then(|l| tracer.span("grid.decode", 0, |_| CellResult::decode(l)));
            checks.check(
                stored.is_ok()
                    && loaded.as_deref() == Some(line)
                    && decoded.as_ref() == Some(golden),
                || {
                    format!(
                        "cell {}: cache round trip differs from its golden line",
                        cell.label()
                    )
                },
            );
        }
        remove(&dir);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_cycle_oracle_flags_misses_hits_and_changed_bytes() {
        let goldens = Goldens::load().unwrap();
        let cells: Vec<Cell> = full_matrix().into_iter().take(3).collect();
        let dir = scratch_dir().unwrap();
        let store = CacheStore::new(&dir);
        let tally = Mutex::new(Counts::new());
        let tracer = Tracer::default();
        let run = |shards| {
            let grid = pool().shards(shards).cache(store.clone());
            sweep(&cells, ExecMode::Segment, grid, &tracer, 0, &tally)
        };
        let cold = run(1);
        let warm = vec![run(2), run(2)];
        remove(&dir);

        let mut checks = Checks::default();
        check_cycle(&goldens, &cells, &cold, &warm, &mut checks);
        assert_eq!(checks.failed, 0, "{:?}", checks.messages);

        // A warm sweep that had to simulate a cell.
        let mut missed = warm.clone();
        missed[1].shards[0].hits -= 1;
        missed[1].shards[0].misses += 1;
        check_cycle(&goldens, &cells, &cold, &missed, &mut checks);
        assert_eq!(checks.failed, 1);

        // A cold sweep served from a stale cache.
        let mut stale = cold.clone();
        stale.shards[0].hits = 1;
        check_cycle(&goldens, &cells, &stale, &warm, &mut checks);
        assert_eq!(checks.failed, 2);

        // A warm sweep whose bytes differ from the cold sweep's.
        let mut changed = warm.clone();
        changed[0].lines[0] = changed[0].lines[0].replace("\"events\":", "\"events\":1");
        check_cycle(&goldens, &cells, &cold, &changed, &mut checks);
        assert_eq!(checks.failed, 4); // the bytes and the golden line
    }
}
