//! `bench-v1` trajectory emission for exploration coverage.
//!
//! The explored-state and replay counts of each scenario are emitted as
//! `bench-v1` [`CaseRecord`]s, so `rtsim-bench-diff` gates coverage
//! regressions exactly like perf regressions. A `bench-v1` case holds
//! durations only, so each count is one sample of `count` nanoseconds:
//! its median is then the count itself, and a zero-tolerance diff of
//! the medians is an exact comparison of the counts.

use std::time::Duration;

use rtsim_campaign::json::{to_jsonl, Json};
use rtsim_campaign::trajectory::{CaseRecord, EnvFingerprint, BENCH_OUT_ENV};
use rtsim_campaign::write_artifact_in;

use crate::explore::Exploration;

/// Renders the coverage trajectory for a set of explorations: per
/// scenario, the visited-state count (`states/<name>`), the run count
/// (`runs/<name>`), the distinct-trace count (`traces/<name>`) and the
/// runs that started from a new elaboration (`fresh/<name>`: 1 when the
/// explorer forks, so a change that silently stops forking shows up as
/// a regression).
pub fn coverage_jsonl(explorations: &[Exploration]) -> String {
    let env = EnvFingerprint::capture();
    let count = |id: String, n: u64| -> Json {
        CaseRecord::from_samples(&id, 1, &[Duration::from_nanos(n)]).to_json("check", &env)
    };
    let mut records = Vec::new();
    for e in explorations {
        records.push(count(format!("states/{}", e.scenario), e.states as u64));
        records.push(count(format!("runs/{}", e.scenario), e.runs));
        records.push(count(
            format!("traces/{}", e.scenario),
            e.distinct_traces as u64,
        ));
        records.push(count(format!("fresh/{}", e.scenario), e.fresh));
    }
    to_jsonl(&records)
}

/// Writes `bench-check.jsonl` into `RTSIM_BENCH_OUT` (no-op when the
/// variable is unset).
pub fn emit_coverage(explorations: &[Exploration]) {
    write_artifact_in(BENCH_OUT_ENV, "bench-check.jsonl", &coverage_jsonl(explorations));
}
