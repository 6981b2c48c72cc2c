//! The benchmark's contract: well-formed metric names, `BENCHMARK.json`
//! in step with what the runs emit, clean passes on every workload, and
//! inputs and exact counters that follow the seed.

use std::collections::BTreeSet;

use rtsim::campaign::json::Json;
use rtsim_benchmark::{is_exact, long_sim, run, Metric, Window, END_TO_END, PER_LAYER, WORKLOADS};

fn benchmark_json() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text =
        std::fs::read_to_string(path).expect("BENCHMARK.json next to the benchmark directory");
    Json::parse(&text).expect("BENCHMARK.json parses")
}

/// `(name, unit)` of every entry of the array `key` (unit empty for
/// workloads).
fn listed(json: &Json, key: &str) -> BTreeSet<(String, String)> {
    let Some(Json::Arr(items)) = json.get(key) else {
        panic!("BENCHMARK.json has no array `{key}`");
    };
    items
        .iter()
        .map(|item| {
            let field = |f: &str| {
                item.get(f)
                    .and_then(Json::as_str)
                    .unwrap_or_default()
                    .to_owned()
            };
            (field("name"), field("unit"))
        })
        .collect()
}

fn catalogue(metrics: &[(&str, &str)]) -> BTreeSet<(String, String)> {
    metrics
        .iter()
        .map(|&(n, u)| (n.to_owned(), u.to_owned()))
        .collect()
}

fn emitted(metrics: &[Metric]) -> BTreeSet<(String, String)> {
    metrics
        .iter()
        .map(|m| (m.name.to_owned(), m.unit.to_owned()))
        .collect()
}

#[test]
fn metric_names_and_units_are_well_formed() {
    let mut seen = BTreeSet::new();
    for &(name, unit) in END_TO_END.iter().chain(PER_LAYER) {
        assert!(
            !name.is_empty()
                && name
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
            "metric name `{name}` must match ^[A-Za-z0-9_.-]+$"
        );
        assert!(
            !unit.is_empty()
                && unit
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
            "unit `{unit}` of `{name}`"
        );
        assert!(seen.insert(name), "metric `{name}` listed twice");
    }
}

#[test]
fn benchmark_json_lists_exactly_the_workloads_and_metrics() {
    let json = benchmark_json();
    assert_eq!(listed(&json, "end_to_end"), catalogue(END_TO_END));
    assert_eq!(listed(&json, "per_layer"), catalogue(PER_LAYER));
    let workloads: BTreeSet<String> = listed(&json, "workloads")
        .into_iter()
        .map(|(n, _)| n)
        .collect();
    let ours: BTreeSet<String> = WORKLOADS.iter().map(|w| w.name.to_owned()).collect();
    assert_eq!(workloads, ours);
}

#[test]
fn long_sim_inputs_follow_the_seed() {
    assert_eq!(long_sim::generate(7), long_sim::generate(7));
    assert_ne!(long_sim::generate(7), long_sim::generate(8));
    let systems = long_sim::generate(7);
    assert_eq!(systems.len(), long_sim::SYSTEMS);
    for spec in &systems {
        let periodic = spec
            .tasks
            .iter()
            .filter(|t| t.role == long_sim::Role::Periodic)
            .count();
        assert!((24..=48).contains(&periodic), "{periodic} periodic tasks");
    }
}

/// Runs one traced pass of `workload` twice with the same seed: both
/// runs check clean, emit every metric, and agree on every exact counter.
fn clean_and_repeatable(workload: &str) {
    let first = run(workload, 3, Window::Passes(1), true).expect("known workload");
    let second = run(workload, 3, Window::Passes(1), true).expect("known workload");
    for report in [&first, &second] {
        assert!(report.checks.attempted > 0);
        assert_eq!(report.checks.failed, 0, "{:?}", report.checks.messages);
        assert_eq!(report.checks.fail_share(), 0.0);
        assert_eq!(emitted(&report.end_to_end), catalogue(END_TO_END));
        assert_eq!(emitted(&report.per_layer), catalogue(PER_LAYER));
        for m in &report.end_to_end {
            assert!(
                m.value > 0.0 && m.value.is_finite(),
                "{} = {}",
                m.name,
                m.value
            );
        }
    }
    let exact = |report: &rtsim_benchmark::Report| -> Vec<(&str, f64)> {
        report
            .per_layer
            .iter()
            .filter(|m| is_exact(m.unit))
            .map(|m| (m.name, m.value))
            .collect()
    };
    assert_eq!(exact(&first), exact(&second));
    assert!(exact(&first).iter().any(|&(_, v)| v > 0.0));
}

#[test]
fn farm_segment_is_clean_and_repeatable() {
    clean_and_repeatable("farm_segment");
}

#[test]
fn farm_thread_is_clean_and_repeatable() {
    clean_and_repeatable("farm_thread");
}

#[test]
fn explore_is_clean_and_repeatable() {
    clean_and_repeatable("explore");
}

#[test]
fn long_sim_is_clean_and_repeatable() {
    clean_and_repeatable("long_sim");
}

#[test]
fn grid_cache_is_clean_and_repeatable() {
    clean_and_repeatable("grid_cache");
}

#[test]
fn unknown_workloads_are_refused() {
    assert!(run("no_such_workload", 1, Window::Passes(1), false).is_err());
}
