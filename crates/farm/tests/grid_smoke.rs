//! End-to-end smoke of the farm on the grid cache: the `rtsim-farm
//! --check-cache` round-trip, and a warm `rtsim-farm --check` that is
//! served from the cache yet still matches the committed goldens.

use std::path::PathBuf;
use std::process::Command;

fn farm() -> Command {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_rtsim-farm"));
    // Smoke mode everywhere: test suites must stay fast.
    cmd.env("RTSIM_BENCH_SMOKE", "1");
    cmd.env_remove("RTSIM_GRID_CACHE");
    cmd
}

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("rtsim_grid_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn check_cache_round_trip_passes() {
    let dir = scratch_dir("roundtrip");
    let output = farm()
        .arg("--check-cache")
        .env("RTSIM_GRID_CACHE", &dir)
        .output()
        .unwrap();
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(
        output.status.success(),
        "--check-cache failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&output.stderr)
    );
    assert!(stdout.contains("byte-identical"), "{stdout}");
    // The cache holds one entry per smoke cell afterwards.
    let entries = std::fs::read_dir(&dir).unwrap().count();
    assert_eq!(entries, 22, "one cache entry per smoke cell");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Acceptance: a warm farm --check rerun through the grid cache is
/// >= 90 % hits while the committed goldens still pass unchanged.
#[test]
fn warm_farm_check_is_cache_served_and_still_green() {
    let dir = scratch_dir("warmcheck");
    let check = || {
        let output = farm()
            .arg("--check")
            .env("RTSIM_GRID_CACHE", &dir)
            .output()
            .unwrap();
        assert!(
            output.status.success(),
            "--check failed:\n{}\n{}",
            String::from_utf8_lossy(&output.stdout),
            String::from_utf8_lossy(&output.stderr)
        );
        String::from_utf8_lossy(&output.stdout).into_owned()
    };
    let cold = check();
    assert!(cold.contains("cache: 0 hit(s), 22 miss(es)"), "{cold}");
    let warm = check();
    assert!(
        warm.contains("cache: 22 hit(s), 0 miss(es)"),
        "warm rerun not fully cache-served:\n{warm}"
    );
    assert!(warm.contains("22 cells match"), "{warm}");
    let _ = std::fs::remove_dir_all(&dir);
}
