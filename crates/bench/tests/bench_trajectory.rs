//! End-to-end checks of the bench-trajectory layer: a harness binary
//! run with `RTSIM_BENCH_OUT` set must write a parseable `bench-v1`
//! JSONL artifact, and `rtsim-bench-diff` must accept a self-diff
//! (zero deltas, exit 0), flag a perturbed copy (exit 1 under
//! `--max-regress-pct`), and reject garbage (exit 2).

use std::path::{Path, PathBuf};
use std::process::Command;

use rtsim::campaign::json::Json;
use rtsim_bench::BENCH_SCHEMA;

/// Scratch directory unique to this test process + name.
fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "rtsim-bench-out-{}-{name}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

/// Runs a harness binary in smoke mode with `RTSIM_BENCH_OUT` pointed
/// at `out`, and returns the trajectory file it must have written.
fn run_with_bench_out(bin: &str, artifact: &str, out: &Path) -> String {
    let output = Command::new(bin)
        .env("RTSIM_BENCH_SMOKE", "1")
        .env("RTSIM_WORKERS", "2")
        .env("RTSIM_BENCH_OUT", out)
        .env_remove("RTSIM_GRID_CACHE")
        .output()
        .unwrap_or_else(|e| panic!("spawning {bin}: {e}"));
    assert!(
        output.status.success(),
        "{bin} failed: {:?}\n{}",
        output.status,
        String::from_utf8_lossy(&output.stderr),
    );
    std::fs::read_to_string(out.join(artifact))
        .unwrap_or_else(|e| panic!("{bin} did not write {artifact}: {e}"))
}

/// Every line of a trajectory must parse and carry the pinned schema.
fn assert_bench_v1(jsonl: &str, group: &str) {
    assert!(!jsonl.trim().is_empty(), "empty trajectory");
    for line in jsonl.lines() {
        let rec = Json::parse(line).unwrap_or_else(|e| panic!("bad record {line:?}: {e}"));
        assert_eq!(rec.get("schema").and_then(Json::as_str), Some(BENCH_SCHEMA));
        assert_eq!(rec.get("group").and_then(Json::as_str), Some(group));
        assert!(rec.get("id").and_then(Json::as_str).is_some());
        let min = rec.get("min_ps").and_then(Json::as_u64).expect("min_ps");
        let med = rec.get("median_ps").and_then(Json::as_u64).expect("median_ps");
        let max = rec.get("max_ps").and_then(Json::as_u64).expect("max_ps");
        assert!(min <= med && med <= max, "unordered stats in {line}");
        assert_eq!(rec.get("smoke").and_then(Json::as_bool), Some(true));
        assert!(rec.get("workers").and_then(Json::as_u64).is_some());
        assert!(rec
            .get("build")
            .and_then(Json::as_str)
            .is_some_and(|b| b.starts_with("rtsim-")));
    }
}

fn diff_bin() -> &'static str {
    env!("CARGO_BIN_EXE_rtsim-bench-diff")
}

#[test]
fn fig_bins_emit_parseable_trajectories() {
    let out = scratch("figs");
    for (bin, artifact, group) in [
        (
            env!("CARGO_BIN_EXE_fig6_timeline"),
            "bench-fig6_timeline.jsonl",
            "fig6_timeline",
        ),
        (
            env!("CARGO_BIN_EXE_fig8_stats"),
            "bench-fig8_stats.jsonl",
            "fig8_stats",
        ),
    ] {
        let jsonl = run_with_bench_out(bin, artifact, &out);
        assert_bench_v1(&jsonl, group);
    }
    let _ = std::fs::remove_dir_all(&out);
}

#[test]
fn campaign_bin_emits_serial_and_parallel_cases() {
    let out = scratch("campaign");
    let jsonl = run_with_bench_out(
        env!("CARGO_BIN_EXE_rta_vs_sim"),
        "bench-rta_vs_sim.jsonl",
        &out,
    );
    assert_bench_v1(&jsonl, "rta_vs_sim");
    let ids: Vec<String> = jsonl
        .lines()
        .map(|l| {
            Json::parse(l).unwrap().get("id").and_then(Json::as_str).unwrap().to_owned()
        })
        .collect();
    assert_eq!(ids, ["campaign/serial", "campaign/parallel"]);
    let _ = std::fs::remove_dir_all(&out);
}

#[test]
fn grid_bin_records_every_design_point() {
    let out = scratch("grid");
    let jsonl = run_with_bench_out(
        env!("CARGO_BIN_EXE_mpeg2_explore"),
        "bench-mpeg2_explore.jsonl",
        &out,
    );
    assert_bench_v1(&jsonl, "mpeg2_explore");
    // 7 design points (ids carry the human labels, exercising the JSON
    // escaper on spaces/parens/commas) + the grid total.
    assert_eq!(jsonl.lines().count(), 8);
    assert!(jsonl.contains(r#""id":"point/baseline (5us ovh, cap 4)""#));
    assert!(jsonl.contains(r#""id":"grid/total""#));
    let _ = std::fs::remove_dir_all(&out);
}

#[test]
fn self_diff_reports_zero_deltas_and_exits_zero() {
    let out = scratch("selfdiff");
    run_with_bench_out(
        env!("CARGO_BIN_EXE_fig6_timeline"),
        "bench-fig6_timeline.jsonl",
        &out,
    );
    let artifact = out.join("bench-fig6_timeline.jsonl");
    let output = Command::new(diff_bin())
        .arg("--max-regress-pct")
        .arg("0")
        .arg(&artifact)
        .arg(&artifact)
        .output()
        .expect("spawn diff");
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(output.status.success(), "self-diff failed: {stdout}");
    assert!(stdout.contains("worst median delta +0.00%"), "{stdout}");
    assert!(!stdout.contains("REGRESSION"), "{stdout}");
    let _ = std::fs::remove_dir_all(&out);
}

#[test]
fn perturbed_copy_trips_the_threshold() {
    let out = scratch("perturbed");
    run_with_bench_out(
        env!("CARGO_BIN_EXE_fig6_timeline"),
        "bench-fig6_timeline.jsonl",
        &out,
    );
    let base = out.join("bench-fig6_timeline.jsonl");
    // Rewrite every median 10x slower via the JSON layer itself.
    let perturbed_text: String = std::fs::read_to_string(&base)
        .unwrap()
        .lines()
        .map(|line| {
            let rec = Json::parse(line).unwrap();
            let Json::Obj(pairs) = rec else { panic!("record is not an object") };
            let bumped = Json::Obj(
                pairs
                    .into_iter()
                    .map(|(k, v)| {
                        if k == "median_ps" || k == "max_ps" {
                            let ps = v.as_u64().unwrap();
                            (k, Json::from(ps.saturating_mul(10)))
                        } else {
                            (k, v)
                        }
                    })
                    .collect(),
            );
            format!("{bumped}\n")
        })
        .collect();
    let perturbed = out.join("perturbed.jsonl");
    std::fs::write(&perturbed, perturbed_text).unwrap();

    let output = Command::new(diff_bin())
        .args(["--max-regress-pct", "50"])
        .arg(&base)
        .arg(&perturbed)
        .output()
        .expect("spawn diff");
    assert_eq!(output.status.code(), Some(1), "threshold must trip");
    assert!(String::from_utf8_lossy(&output.stdout).contains("REGRESSION"));
    assert!(String::from_utf8_lossy(&output.stderr).contains("FAIL"));

    // The same perturbation passes a permissive threshold.
    let output = Command::new(diff_bin())
        .args(["--max-regress-pct", "10000"])
        .arg(&base)
        .arg(&perturbed)
        .output()
        .expect("spawn diff");
    assert_eq!(output.status.code(), Some(0), "permissive threshold passes");
    let _ = std::fs::remove_dir_all(&out);
}

#[test]
fn diff_rejects_garbage_and_bad_usage() {
    let out = scratch("garbage");
    let bad = out.join("bad.jsonl");
    std::fs::write(&bad, "{\"schema\":\"bench-v0\",\"group\":\"x\",\"id\":\"y\"}\n").unwrap();
    let output = Command::new(diff_bin()).arg(&bad).arg(&bad).output().unwrap();
    assert_eq!(output.status.code(), Some(2), "wrong schema is an error");

    std::fs::write(&bad, "not json\n").unwrap();
    let output = Command::new(diff_bin()).arg(&bad).arg(&bad).output().unwrap();
    assert_eq!(output.status.code(), Some(2), "unparseable input is an error");

    let output = Command::new(diff_bin()).output().unwrap();
    assert_eq!(output.status.code(), Some(2), "missing files is a usage error");
    let _ = std::fs::remove_dir_all(&out);
}
