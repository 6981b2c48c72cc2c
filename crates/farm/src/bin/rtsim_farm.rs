//! The regression-farm driver.
//!
//! ```text
//! rtsim-farm            run the matrix and print the fingerprint table
//! rtsim-farm --check    compare against tests/goldens/farm.jsonl;
//!                       exit 1 with a per-cell diff on drift
//! rtsim-farm --bless    rerun the FULL matrix and rewrite the goldens
//! rtsim-farm --list     list scenarios and policies without running
//! rtsim-farm --check-cache
//!                       cold sweep, then warm sweep at another shard
//!                       count; exit 1 unless the warm sweep is 100 %
//!                       cache hits with byte-identical merged JSONL
//! ```
//!
//! `RTSIM_WORKERS` sets the pool width (results are identical for any
//! value); `RTSIM_GRID_CACHE=<dir>` caches per-cell results (also
//! identical; `--check-cache` creates and removes a temporary cache when
//! it is unset); `RTSIM_BENCH_SMOKE=1` shrinks the run, `--check` and
//! `--check-cache` to the smoke subset of the matrix;
//! `RTSIM_CAMPAIGN_OUT=<dir>` additionally writes the results as
//! `farm.jsonl` / `farm.csv` artifacts; `RTSIM_FARM_GOLDENS` overrides
//! the golden-file path.

use std::process::ExitCode;

use rtsim_campaign::{smoke, workers_from_env, write_campaign_outputs};
use rtsim_farm::registry::{full_matrix, run_matrix_sharded, smoke_matrix, PolicyKind, SCENARIOS};
use rtsim_farm::{diff, goldens_path, render, render_csv, Cell, CellResult};
use rtsim_grid::{CacheStore, GridReport};

fn matrix() -> Vec<Cell> {
    if smoke() {
        smoke_matrix()
    } else {
        full_matrix()
    }
}

fn sweep(cells: &[Cell], shards: usize, cache: Option<CacheStore>) -> GridReport<CellResult> {
    let workers = workers_from_env();
    let cached = cache.is_some();
    println!(
        "running {} cells on {workers} workers x {shards} shard(s) (registry: {} scenarios x {} policies x 2 modes)",
        cells.len(),
        SCENARIOS.len(),
        PolicyKind::ALL.len(),
    );
    let report = run_matrix_sharded(cells, workers, shards, cache);
    if cached {
        println!(
            "cache: {} hit(s), {} miss(es)",
            report.hits(),
            report.misses()
        );
    }
    report
}

fn run(cells: &[Cell]) -> Vec<CellResult> {
    let results = sweep(cells, 1, CacheStore::from_env()).records;
    write_campaign_outputs("farm", &render(&results), &render_csv(&results));
    results
}

fn print_table(results: &[CellResult]) {
    println!(
        "{:<16} {:<15} {:<12} {:>16} {:>7} {:>13} {:>6} {:>7} {:>7}",
        "scenario", "policy", "mode", "hash", "events", "makespan_us", "disp", "preempt", "misses"
    );
    for r in results {
        let f = &r.fingerprint;
        println!(
            "{:<16} {:<15} {:<12} {:>16} {:>7} {:>13} {:>6} {:>7} {:>7}",
            r.cell.scenario,
            r.cell.policy.key(),
            r.cell.mode(),
            f.hash_hex(),
            f.events,
            f.makespan_ps / 1_000_000,
            f.dispatches,
            f.preemptions,
            f.deadline_misses,
        );
    }
}

fn check() -> ExitCode {
    let path = goldens_path();
    let goldens = match std::fs::read_to_string(&path) {
        Ok(s) => s,
        Err(e) => {
            eprintln!(
                "cannot read goldens {}: {e}\nrun `rtsim-farm --bless` to create them",
                path.display()
            );
            return ExitCode::FAILURE;
        }
    };
    let smoke_run = smoke();
    let results = run(&matrix());
    let outcome = diff(&goldens, &results, !smoke_run);
    if outcome.is_clean() {
        println!(
            "OK: {} cells match {}{}",
            outcome.matched,
            path.display(),
            if smoke_run { " (smoke subset)" } else { "" },
        );
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "FAIL: {} cells drifted from {} ({} matched):",
            outcome.messages.len(),
            path.display(),
            outcome.matched,
        );
        for msg in &outcome.messages {
            eprintln!("  {msg}");
        }
        eprintln!("if the change is intentional, re-pin with `rtsim-farm --bless`");
        ExitCode::FAILURE
    }
}

fn bless() -> ExitCode {
    // Blessing always covers the full matrix: a smoke-sized golden file
    // would make every full --check fail as incomplete.
    let results = run(&full_matrix());
    let path = goldens_path();
    if let Some(parent) = path.parent() {
        if let Err(e) = std::fs::create_dir_all(parent) {
            eprintln!("cannot create {}: {e}", parent.display());
            return ExitCode::FAILURE;
        }
    }
    match std::fs::write(&path, render(&results)) {
        Ok(()) => {
            println!("blessed {} cells into {}", results.len(), path.display());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("cannot write {}: {e}", path.display());
            ExitCode::FAILURE
        }
    }
}

/// Cold sweep then warm sweep at a different shard count: the warm sweep
/// must be served entirely from the cache and reproduce the merged JSONL
/// byte-for-byte. This is the round-trip `tools/check_hermetic.sh`
/// exercises in smoke mode.
fn check_cache() -> ExitCode {
    let cells = matrix();
    // A scratch store unless the user pointed RTSIM_GRID_CACHE somewhere.
    let (store, scratch) = match CacheStore::from_env() {
        Some(store) => (store, None),
        None => {
            let dir = std::env::temp_dir().join(format!("rtsim-grid-check-{}", std::process::id()));
            let _ = std::fs::remove_dir_all(&dir);
            (CacheStore::new(&dir), Some(dir))
        }
    };
    let preexisting = store.len();
    println!(
        "check-cache: {} cells, cache at {} ({preexisting} preexisting entries)",
        cells.len(),
        store.dir().display(),
    );
    let cold = sweep(&cells, 1, Some(store.clone()));
    // A different shard count on the warm pass proves keys are global.
    let warm = sweep(&cells, 2, Some(store.clone()));
    if let Some(dir) = scratch {
        let _ = std::fs::remove_dir_all(&dir);
    }

    let mut failures = Vec::new();
    if preexisting == 0 && cold.hits() != 0 {
        failures.push(format!(
            "cold run hit {} times in a fresh cache",
            cold.hits()
        ));
    }
    if warm.hits() != cells.len() {
        failures.push(format!(
            "warm run hit {}/{} (expected 100 %)",
            warm.hits(),
            cells.len()
        ));
    }
    if warm.merged_jsonl() != cold.merged_jsonl() {
        failures.push("warm merged JSONL differs from cold".to_owned());
    }
    if warm.records != cold.records {
        failures.push("warm decoded records differ from cold".to_owned());
    }
    if failures.is_empty() {
        println!(
            "OK: warm rerun at 2 shard(s) was {}/{} hits, byte-identical",
            warm.hits(),
            cells.len(),
        );
        ExitCode::SUCCESS
    } else {
        for f in &failures {
            eprintln!("FAIL: {f}");
        }
        ExitCode::FAILURE
    }
}

fn list() -> ExitCode {
    println!("scenarios ({}):", SCENARIOS.len());
    for s in SCENARIOS {
        println!("  {:<16} horizon {}", s.name, s.horizon);
    }
    println!("policies ({}):", PolicyKind::ALL.len());
    for p in PolicyKind::ALL {
        println!("  {}", p.key());
    }
    println!("modes: preemptive, cooperative");
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        None => {
            print_table(&run(&matrix()));
            ExitCode::SUCCESS
        }
        Some("--check") => check(),
        Some("--bless") => bless(),
        Some("--list") => list(),
        Some("--check-cache") => check_cache(),
        Some(other) => {
            eprintln!(
                "unknown argument `{other}`; usage: rtsim-farm [--check|--bless|--list|--check-cache]"
            );
            ExitCode::FAILURE
        }
    }
}
