//! `rtsim-check` — explore every schedule of the registered scenarios.
//!
//! ```text
//! rtsim-check [--budget RUNS] [--scenario NAME]... [--list]
//!             [--replay NAME:c0,c1,...]
//! ```
//!
//! With no `--scenario`, every registered target runs. Healthy
//! scenarios must hold every property their model declares (timing
//! constraints and oracles) over every explored schedule;
//! mutant scenarios must be flagged (and their counterexample is
//! verified by replay before the run counts as a pass). Exit status is
//! nonzero on any unexpected outcome.
//!
//! Each scenario's line reports the explored counts, the runs that
//! started from a new elaboration (`fresh`: 1 when the explorer forks),
//! the runs that ended at a state an earlier run explored (`merged`),
//! the deepest stack of open choice frames and the wall-clock speed.
//! The states/choices ratio is the pruning ratio. Exploration is
//! deterministic; `tests/coverage_baseline.rs` pins the counts of every
//! healthy scenario under the default budget exactly.
//!
//! A `--replay` sequence that does not fit the scenario (a choice out of
//! range, or choices left over) is an error: exit status 2.

use std::process::ExitCode;
use std::time::Instant;

use rtsim_check::{
    explore, scenario_by_name, try_replay, Budget, CheckScenario, Expectation, SCENARIOS,
};

fn usage() -> ! {
    eprintln!(
        "usage: rtsim-check [--budget RUNS] [--scenario NAME]... [--list] \
         [--replay NAME:c0,c1,...]"
    );
    std::process::exit(2);
}

fn main() -> ExitCode {
    let mut budget = Budget::default();
    let mut names: Vec<String> = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--budget" => {
                let v = args.next().unwrap_or_else(|| usage());
                match v.parse::<u64>() {
                    Ok(n) if n > 0 => budget.max_runs = n,
                    _ => usage(),
                }
            }
            "--scenario" => {
                let v = args.next().unwrap_or_else(|| usage());
                names.push(v);
            }
            "--list" => {
                for s in SCENARIOS {
                    println!(
                        "{:16} {:7} horizon {} us",
                        s.name,
                        match s.expect {
                            Expectation::Hold => "hold",
                            Expectation::Violate => "violate",
                        },
                        s.horizon.as_us()
                    );
                }
                return ExitCode::SUCCESS;
            }
            "--replay" => {
                let v = args.next().unwrap_or_else(|| usage());
                return run_replay(&v);
            }
            _ => usage(),
        }
    }

    let targets: Vec<&'static CheckScenario> = if names.is_empty() {
        SCENARIOS.iter().collect()
    } else {
        names
            .iter()
            .map(|n| {
                scenario_by_name(n).unwrap_or_else(|| {
                    eprintln!("rtsim-check: unknown scenario `{n}` (try --list)");
                    std::process::exit(2);
                })
            })
            .collect()
    };

    let mut failed = false;
    for scenario in targets {
        let started = Instant::now();
        let outcome = explore(scenario, &budget);
        let runs_per_s = outcome.runs as f64 / started.elapsed().as_secs_f64().max(1e-9);
        println!(
            "{:16} runs {:>7}  states {:>8}  traces {:>7}  choices {:>8}  \
             fresh {:>5}  merged {:>7}  depth {:>3}  {:>9.0} runs/s  {}",
            outcome.scenario,
            outcome.runs,
            outcome.states,
            outcome.distinct_traces,
            outcome.choice_points,
            outcome.fresh,
            outcome.merged,
            outcome.max_frames,
            runs_per_s,
            if outcome.counterexample.is_some() {
                "violated"
            } else if outcome.complete {
                "complete"
            } else {
                "budget-capped"
            }
        );
        match (scenario.expect, &outcome.counterexample) {
            (Expectation::Hold, None) => {}
            (Expectation::Hold, Some(cx)) => {
                failed = true;
                print!("{}", cx.render());
            }
            (Expectation::Violate, None) => {
                failed = true;
                eprintln!(
                    "FAIL: mutant `{}` was not flagged ({})",
                    outcome.scenario,
                    if outcome.complete {
                        "exploration complete — the oracle is blind"
                    } else {
                        "budget exhausted before the bug surfaced"
                    }
                );
            }
            (Expectation::Violate, Some(cx)) => {
                // A mutant only counts as caught if its counterexample
                // replays to the same violation deterministically.
                let replays = try_replay(scenario, &cx.choices)
                    .is_ok_and(|(_, violations)| !violations.is_empty());
                if !replays {
                    failed = true;
                    eprintln!(
                        "FAIL: mutant `{}` counterexample does not replay",
                        outcome.scenario
                    );
                } else {
                    println!(
                        "  flagged as expected: [{}] {} (replay verified)",
                        cx.violations[0].property, cx.violations[0].message
                    );
                }
            }
        }
    }
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

fn run_replay(spec: &str) -> ExitCode {
    let Some((name, list)) = spec.split_once(':') else {
        usage();
    };
    let scenario = scenario_by_name(name).unwrap_or_else(|| {
        eprintln!("rtsim-check: unknown scenario `{name}` (try --list)");
        std::process::exit(2);
    });
    let choices: Vec<usize> = if list.is_empty() {
        Vec::new()
    } else {
        list.split(',')
            .map(|c| c.parse().unwrap_or_else(|_| usage()))
            .collect()
    };
    let (trace, violations) = match try_replay(scenario, &choices) {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("rtsim-check: cannot replay `{name}`: {e}");
            return ExitCode::from(2);
        }
    };
    println!(
        "replayed `{name}` with {} forced choices: {} trace records",
        choices.len(),
        trace.records().len()
    );
    if violations.is_empty() {
        println!("all oracles hold on this schedule");
        ExitCode::SUCCESS
    } else {
        for v in &violations {
            println!("violated [{}]: {}", v.property, v.message);
        }
        ExitCode::FAILURE
    }
}
