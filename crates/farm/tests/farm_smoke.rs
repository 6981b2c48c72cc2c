//! End-to-end smoke of the `rtsim-farm` binary: `--check` against the
//! committed goldens in smoke mode, artifact emission, drift exit codes,
//! and `--list`.

use std::path::PathBuf;
use std::process::Command;

fn farm() -> Command {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_rtsim-farm"));
    // Smoke mode everywhere: test suites must stay fast.
    cmd.env("RTSIM_BENCH_SMOKE", "1");
    cmd
}

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("rtsim_farm_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn check_passes_against_committed_goldens() {
    let output = farm().arg("--check").output().unwrap();
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(
        output.status.success(),
        "--check failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&output.stderr)
    );
    assert!(stdout.contains("22 cells match"), "{stdout}");
    assert!(stdout.contains("smoke subset"), "{stdout}");
}

#[test]
fn check_honours_rtsim_workers_identically() {
    let run = |workers: &str| {
        let output = farm()
            .arg("--check")
            .env("RTSIM_WORKERS", workers)
            .output()
            .unwrap();
        assert!(output.status.success(), "workers={workers}");
    };
    run("1");
    run("4");
    run("8");
}

#[test]
fn check_emits_campaign_artifacts() {
    let dir = scratch_dir("artifacts");
    let output = farm()
        .arg("--check")
        .env("RTSIM_CAMPAIGN_OUT", &dir)
        .output()
        .unwrap();
    assert!(output.status.success());
    let jsonl = std::fs::read_to_string(dir.join("farm.jsonl")).unwrap();
    assert_eq!(jsonl.lines().count(), 22, "one JSONL record per smoke cell");
    assert!(jsonl.contains("\"scenario\":\"paper_fig6\""));
    let csv = std::fs::read_to_string(dir.join("farm.csv")).unwrap();
    assert_eq!(csv.lines().count(), 23, "header + one CSV row per cell");
    assert!(csv.starts_with("scenario,policy,mode,cores,hash"));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn check_fails_on_drifted_goldens_and_names_the_cell() {
    // Point the binary at a tampered copy of the goldens: flip one
    // cell's hash. --check must exit nonzero and name that exact cell.
    let committed = std::fs::read_to_string(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../tests/goldens/farm.jsonl"
    ))
    .unwrap();
    let victim = "\"scenario\":\"design_space\",\"policy\":\"fifo\",\"mode\":\"preemptive\"";
    assert!(
        committed.contains(victim),
        "victim cell missing from goldens"
    );
    let tampered: String = committed
        .lines()
        .map(|line| {
            if line.contains(victim) {
                let marker = "\"hash\":\"";
                let start = line.find(marker).unwrap() + marker.len();
                format!(
                    "{}{}{}\n",
                    &line[..start],
                    "f".repeat(16),
                    &line[start + 16..]
                )
            } else {
                format!("{line}\n")
            }
        })
        .collect();
    let dir = scratch_dir("tamper");
    let goldens = dir.join("farm.jsonl");
    std::fs::write(&goldens, tampered).unwrap();

    let output = farm()
        .arg("--check")
        .env("RTSIM_FARM_GOLDENS", &goldens)
        .output()
        .unwrap();
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(!output.status.success(), "tampered goldens passed --check");
    assert!(
        stderr.contains("design_space/fifo/preemptive"),
        "diff does not name the drifted cell:\n{stderr}"
    );
    assert!(stderr.contains("--bless"), "no remediation hint:\n{stderr}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn check_fails_cleanly_without_goldens() {
    let dir = scratch_dir("missing");
    let output = farm()
        .arg("--check")
        .env("RTSIM_FARM_GOLDENS", dir.join("nope.jsonl"))
        .output()
        .unwrap();
    assert!(!output.status.success());
    assert!(String::from_utf8_lossy(&output.stderr).contains("--bless"));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn list_names_every_scenario_and_policy() {
    let output = farm().arg("--list").output().unwrap();
    assert!(output.status.success());
    let stdout = String::from_utf8_lossy(&output.stdout);
    for name in [
        "quickstart",
        "smp_partitioned",
        "smp_global",
        "edf",
        "paper_fig6",
        "paper_fig7",
        "automotive_ecu",
        "mpeg2_soc",
        "design_space",
        "custom_policy",
        "rate_monotonic",
        "fn_policy",
    ] {
        assert!(stdout.contains(name), "missing {name}:\n{stdout}");
    }
}

#[test]
fn unknown_flag_is_rejected() {
    let output = farm().arg("--frobnicate").output().unwrap();
    assert!(!output.status.success());
}
