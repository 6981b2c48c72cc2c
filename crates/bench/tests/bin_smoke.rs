//! Executes the harness binaries end to end under `RTSIM_BENCH_SMOKE=1`,
//! so a bin that stops compiling, panics, or loses its determinism
//! assertion fails the test suite instead of rotting silently. Cargo
//! builds the package's binaries for integration tests and exposes their
//! paths as `CARGO_BIN_EXE_*`.

use std::process::Command;

/// Runs one harness binary in smoke mode on a small worker pool and
/// returns its stdout. The bins assert their own correctness claims
/// (e.g. sim == RTA, serial == parallel) and exit nonzero on failure.
fn run_smoke(bin: &str) -> String {
    let output = Command::new(bin)
        .env("RTSIM_BENCH_SMOKE", "1")
        .env("RTSIM_WORKERS", "2")
        .env_remove("RTSIM_GRID_CACHE")
        .output()
        .unwrap_or_else(|e| panic!("spawning {bin}: {e}"));
    assert!(
        output.status.success(),
        "{bin} failed with {:?}\n--- stdout ---\n{}\n--- stderr ---\n{}",
        output.status,
        String::from_utf8_lossy(&output.stdout),
        String::from_utf8_lossy(&output.stderr),
    );
    String::from_utf8(output.stdout).expect("utf-8 stdout")
}

#[test]
fn rta_vs_sim_smoke() {
    let out = run_smoke(env!("CARGO_BIN_EXE_rta_vs_sim"));
    assert!(out.contains("exact agreements"), "{out}");
    assert!(out.contains("results identical"), "{out}");
}

#[test]
fn quantum_error_smoke() {
    let out = run_smoke(env!("CARGO_BIN_EXE_quantum_error"));
    assert!(out.contains("time-accurate (paper)"), "{out}");
    assert!(out.contains("results identical"), "{out}");
}

#[test]
fn server_ablation_smoke() {
    let out = run_smoke(env!("CARGO_BIN_EXE_server_ablation"));
    assert!(out.contains("polling 1ms/100us"), "{out}");
    assert!(out.contains("results identical"), "{out}");
}

#[test]
fn mpeg2_explore_smoke() {
    // mpeg2_explore runs as a sharded, result-cached grid: without a
    // cache every design point is a miss.
    let out = run_smoke(env!("CARGO_BIN_EXE_mpeg2_explore"));
    assert!(out.contains("design-space exploration (2 frames)"), "{out}");
    assert!(out.contains("grid `mpeg2_explore`: 7 jobs, seed 2004"), "{out}");
    assert!(out.contains("0 cache hit(s) / 7 miss(es)"), "{out}");
}

#[test]
fn fig3_fig5_switches_prints_the_pinned_counts() {
    let out = run_smoke(env!("CARGO_BIN_EXE_fig3_fig5_switches"));
    // Per engine: the Figure 3/5 table row, whose first number is the
    // kernel switch count, then the 8×200 stress line, which ends in it.
    for (engine, figure, stress) in [
        ("dedicated-thread", "61", "13254"),
        ("procedure-call", "50", "10845"),
    ] {
        let rows: Vec<Vec<&str>> = out
            .lines()
            .filter(|l| l.starts_with(engine))
            .map(|l| l.split_whitespace().collect())
            .collect();
        assert_eq!(rows.len(), 2, "{out}");
        assert_eq!(rows[0][1], figure, "{out}");
        assert_eq!(rows[1].last(), Some(&stress), "{out}");
    }
}

#[test]
fn fig6_timeline_smoke() {
    let out = run_smoke(env!("CARGO_BIN_EXE_fig6_timeline"));
    for engine in ["procedure-call", "dedicated-thread"] {
        assert!(
            out.contains(&format!("== Figure 6 under the {engine} engine ==")),
            "{out}"
        );
    }
    // Both engines measure the same schedule.
    for line in [
        "(1) Clk -> Function_1 reaction : 15 us",
        "simulation end: @780 us",
    ] {
        assert_eq!(out.matches(line).count(), 2, "{out}");
    }
}

#[test]
fn fig8_stats_smoke() {
    let out = run_smoke(env!("CARGO_BIN_EXE_fig8_stats"));
    assert!(
        out.contains("== Figure 8: statistics of the Figure 6 run =="),
        "{out}"
    );
    assert!(out.contains("statistics over @780 us"), "{out}");
    assert!(out.contains("statistics of the Figure 7 run"), "{out}");
    assert!(out.contains("statistics over @200 us"), "{out}");
}

#[test]
fn campaign_outputs_are_written_when_requested() {
    let dir = std::env::temp_dir().join(format!("rtsim-campaign-out-{}", std::process::id()));
    let output = Command::new(env!("CARGO_BIN_EXE_rta_vs_sim"))
        .env("RTSIM_BENCH_SMOKE", "1")
        .env("RTSIM_WORKERS", "2")
        .env("RTSIM_CAMPAIGN_OUT", &dir)
        .output()
        .expect("spawn rta_vs_sim");
    assert!(output.status.success());
    let jsonl = std::fs::read_to_string(dir.join("rta_vs_sim.jsonl")).expect("jsonl written");
    let csv = std::fs::read_to_string(dir.join("rta_vs_sim.csv")).expect("csv written");
    assert_eq!(jsonl.lines().count(), 10, "one record per smoke trial");
    assert!(jsonl.lines().all(|l| l.starts_with("{\"trial\":")));
    assert!(csv.starts_with("trial,checked,exact,utilization,rejected\r\n"));
    assert_eq!(csv.lines().count(), 11, "header + one row per trial");
    let _ = std::fs::remove_dir_all(&dir);
}
