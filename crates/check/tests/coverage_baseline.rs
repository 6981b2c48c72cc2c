//! The committed explorer coverage baseline,
//! `crates/bench/baselines/bench-check.jsonl`, pinned exactly: exploring
//! the scenarios CI gates under the CI budget must reproduce every count
//! in that file, with no case missing and no case extra. Exploration is
//! deterministic, so any difference is a behaviour change in the
//! kernel's choice points or the fault model.
//!
//! `rtsim-bench-diff --max-regress-pct 0` only fails when a median rises
//! (a count that falls or a case that vanishes passes it), so this test
//! is the exact gate. The counts are read from the baseline file, their
//! one source; re-pin an intentional change by copying in the
//! `bench-check.jsonl` that the CI stage's `rtsim-check` command writes
//! (`RTSIM_BENCH_SMOKE=1 RTSIM_BENCH_OUT=<dir> rtsim-check --budget 20000`
//! with its four `--scenario`s).

use std::collections::BTreeMap;
use std::path::Path;

use rtsim_campaign::json::Json;
use rtsim_check::emit::coverage_jsonl;
use rtsim_check::{explore, scenario_by_name, Budget};

/// The scenarios and budget of the CI coverage stage.
const SCENARIOS: [&str; 4] = ["irq_races", "pipeline", "smp_migration", "fault_dropout"];
const RUNS: u64 = 20_000;

/// Each `bench-v1` case's median by id; a duplicated id is an error.
fn medians(jsonl: &str, source: &str) -> BTreeMap<String, u64> {
    let mut out = BTreeMap::new();
    for line in jsonl.lines().filter(|l| !l.trim().is_empty()) {
        let record =
            Json::parse(line).unwrap_or_else(|e| panic!("{source}: unparseable `{line}`: {e}"));
        let field = |name| {
            record
                .get(name)
                .unwrap_or_else(|| panic!("{source}: no `{name}` in `{line}`"))
        };
        let id = field("id").as_str().expect("string id").to_owned();
        let median = field("median_ps").as_u64().expect("integer median_ps");
        assert!(
            out.insert(id.clone(), median).is_none(),
            "{source}: case `{id}` appears twice"
        );
    }
    out
}

#[test]
fn exploration_reproduces_the_committed_coverage_baseline() {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../bench/baselines/bench-check.jsonl");
    let text = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()));
    let baseline = medians(&text, "baseline");

    let explorations: Vec<_> = SCENARIOS
        .iter()
        .map(|name| {
            let scenario = scenario_by_name(name).expect("registered check scenario");
            explore(scenario, &Budget::runs(RUNS))
        })
        .collect();
    let measured = medians(&coverage_jsonl(&explorations), "explored");

    let mut problems = Vec::new();
    for (id, want) in &baseline {
        match measured.get(id) {
            None => problems.push(format!("{id}: in the baseline, not explored")),
            Some(got) if got != want => {
                problems.push(format!("{id}: baseline {want} ps, explored {got} ps"))
            }
            Some(_) => {}
        }
    }
    for id in measured.keys().filter(|id| !baseline.contains_key(*id)) {
        problems.push(format!("{id}: explored, missing from the baseline"));
    }
    assert!(
        problems.is_empty(),
        "exploration drifted from {}:\n{}",
        path.display(),
        problems.join("\n")
    );
}
