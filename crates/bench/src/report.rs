//! Structured bench trajectories: the machine-readable counterpart of
//! every harness's human-readable table.
//!
//! The paper's core evaluation is *relative* — approach A vs approach
//! B, traced vs untraced — so what matters across PRs is whether those
//! ratios drift. This module gives every bench target and harness
//! binary one [`BenchReport`] that collects [`CaseRecord`]s plus an
//! [`EnvFingerprint`] and emits them as a `bench-v1` trajectory,
//! `bench-<name>.jsonl`, into the directory named by `RTSIM_BENCH_OUT`.
//! The record and its format live in [`rtsim_campaign::trajectory`]
//! (re-exported here), so every writer of the format shares them.
//!
//! The `rtsim-bench-diff` binary loads two such trajectory files,
//! matches cases by `group/id`, and reports per-case median deltas
//! against a regression threshold — the cross-commit diffing loop the
//! ROADMAP's "bench-trajectory JSON emission" item asks for.

use std::time::Duration;

use rtsim_campaign::json::Json;
use rtsim_campaign::write_artifact_in;

pub use rtsim_campaign::trajectory::{CaseRecord, EnvFingerprint, BENCH_OUT_ENV, BENCH_SCHEMA};

/// A named collection of case records plus the environment fingerprint,
/// emitted as one `bench-<name>.jsonl` trajectory artifact.
///
/// [`crate::harness::BenchGroup`] owns one and feeds it automatically;
/// the table-printing harness binaries build one by hand around their
/// timed sections and call [`emit`](Self::emit) before exiting.
#[derive(Debug)]
pub struct BenchReport {
    name: String,
    env: EnvFingerprint,
    cases: Vec<CaseRecord>,
}

impl BenchReport {
    /// Creates an empty report; the artifact file will be
    /// `bench-<name>.jsonl`.
    pub fn new(name: &str) -> Self {
        BenchReport {
            name: name.to_owned(),
            env: EnvFingerprint::capture(),
            cases: Vec::new(),
        }
    }

    /// The report (and artifact) name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Records one finished case.
    pub fn record(&mut self, case: CaseRecord) {
        self.cases.push(case);
    }

    /// Convenience: summarize raw samples and record them as one case.
    pub fn record_samples(&mut self, id: &str, iters: u32, times: &[Duration]) {
        self.record(CaseRecord::from_samples(id, iters, times));
    }

    /// Records a single-measurement case (one sample; min = median =
    /// max) — for wall times that exist only once, like a campaign's
    /// serial-vs-parallel comparison walls or a grid's per-job walls.
    pub fn record_wall(&mut self, id: &str, wall: Duration) {
        self.record_samples(id, 1, &[wall]);
    }

    /// Cases recorded so far.
    pub fn cases(&self) -> &[CaseRecord] {
        &self.cases
    }

    /// Renders the trajectory as JSON Lines, one self-contained record
    /// per case, every line carrying the [`BENCH_SCHEMA`] tag.
    pub fn to_jsonl(&self) -> String {
        let records: Vec<Json> = self
            .cases
            .iter()
            .map(|c| c.to_json(&self.name, &self.env))
            .collect();
        rtsim_campaign::json::to_jsonl(&records)
    }

    /// Writes `bench-<name>.jsonl` into the directory named by
    /// `RTSIM_BENCH_OUT` (no-op when unset or when no case was
    /// recorded).
    pub fn emit(&self) {
        write_artifact_in(
            BENCH_OUT_ENV,
            &format!("bench-{}.jsonl", self.name),
            &self.to_jsonl(),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(v: u64) -> Duration {
        Duration::from_millis(v)
    }

    #[test]
    fn jsonl_lines_carry_schema_and_parse_back() {
        let mut report = BenchReport::new("unit");
        report.record_samples("fast \"case\"/β", 4, &[ms(1), ms(2)]);
        report.record_wall("wall", ms(3));
        let jsonl = report.to_jsonl();
        assert_eq!(jsonl.lines().count(), 2);
        for line in jsonl.lines() {
            let v = Json::parse(line).expect("parseable record");
            assert_eq!(v.get("schema").and_then(Json::as_str), Some(BENCH_SCHEMA));
            assert_eq!(v.get("group").and_then(Json::as_str), Some("unit"));
            assert!(v.get("median_ps").and_then(Json::as_u64).is_some());
            assert!(v.get("build").and_then(Json::as_str).is_some());
            assert!(v.get("smoke").and_then(Json::as_bool).is_some());
        }
        // The escaped case id round-trips through the JSON layer.
        let first = Json::parse(jsonl.lines().next().unwrap()).unwrap();
        assert_eq!(
            first.get("id").and_then(Json::as_str),
            Some("fast \"case\"/β")
        );
        assert_eq!(first.get("iters").and_then(Json::as_u64), Some(4));
    }
}
