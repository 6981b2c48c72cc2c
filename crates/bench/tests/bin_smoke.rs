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

/// Asserts that `rows` appear in `out` as consecutive whole lines.
fn assert_rows(out: &str, rows: &[&str]) {
    let lines: Vec<&str> = out.lines().collect();
    assert!(
        lines.windows(rows.len()).any(|w| w == rows),
        "missing rows {rows:#?} in\n{out}"
    );
}

#[test]
fn rta_vs_sim_smoke() {
    let out = run_smoke(env!("CARGO_BIN_EXE_rta_vs_sim"));
    assert_rows(
        &out,
        &["task responses checked : 40", "exact agreements       : 40"],
    );
    assert!(out.contains("results identical"), "{out}");
}

#[test]
fn quantum_error_smoke() {
    let out = run_smoke(env!("CARGO_BIN_EXE_quantum_error"));
    assert_rows(
        &out,
        &[
            "time-accurate (paper)         0 s        0 s        0 s        0 s",
            "quantum 1us                   0 s        0 s        0 s        0 s",
            "quantum 10us                  0 s       2 us       4 us       4 us",
            "quantum 100us               23 us   50750 ns      84 us      84 us",
            "quantum 1000us              41 us  350750 ns     744 us     744 us",
        ],
    );
    assert!(out.contains("results identical"), "{out}");
}

#[test]
fn server_ablation_smoke() {
    let out = run_smoke(env!("CARGO_BIN_EXE_server_ablation"));
    assert_rows(
        &out,
        &[
            "polling 1ms/100us                     2664 us        2664 us            400us",
            "polling 1ms/300us                     1057 us        1057 us            479us",
            "polling 1ms/500us                     1057 us        1057 us            479us",
            "polling 5ms/1500us                    5057 us        5057 us            641us",
            "polling 10ms/5000us                  10057 us       10057 us            661us",
        ],
    );
    assert!(out.contains("results identical"), "{out}");
}

#[test]
fn mpeg2_explore_smoke() {
    // mpeg2_explore runs as a sharded, result-cached grid: without a
    // cache every design point is a miss.
    let out = run_smoke(env!("CARGO_BIN_EXE_mpeg2_explore"));
    assert!(out.contains("design-space exploration (2 frames)"), "{out}");
    assert!(
        out.contains("grid `mpeg2_explore`: 7 jobs, seed 2004"),
        "{out}"
    );
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
    assert_rows(
        &out,
        &[
            "statistics over @780 us :",
            "task              activity  preempted   waiting   resource   overhead   #pre",
            "Clock                 0.0%       0.0%     51.3%       0.0%       0.0%      0",
            "Function_1           10.3%       5.1%     42.9%       0.0%       6.4%      0",
            "Function_2            7.7%      12.2%     44.2%       0.0%       5.8%      0",
            "Function_3           64.1%      34.6%      0.0%       0.0%       5.8%      2",
            "relation          reads writes signals  utilization       held",
            "Clk                   2      0       2         0.0%       0.0%",
            "Event_1               2      0       2         0.0%       0.0%",
        ],
    );
    assert!(out.contains("statistics of the Figure 7 run"), "{out}");
    assert_rows(
        &out,
        &[
            "statistics over @200 us :",
            "task              activity  preempted   waiting   resource   overhead   #pre",
            "Clock                 0.0%       0.0%     25.0%       0.0%       0.0%      0",
            "Function_1           15.0%       0.0%     25.0%       0.0%       0.0%      0",
            "Function_2           10.0%      10.0%     30.0%      25.0%       0.0%      0",
            "Function_3           75.0%      25.0%      0.0%       0.0%       0.0%      2",
            "relation          reads writes signals  utilization       held",
            "Clk                   1      0       1         0.0%       0.0%",
            "SharedVar_1           2      0       0         0.0%      70.0%",
        ],
    );
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
