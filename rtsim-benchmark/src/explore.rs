//! `explore`: one pass runs `check::explore` with the default budget over
//! every registered check scenario (the healthy ones and the seeded
//! mutants) on one thread, in an order the seed permutes per pass. The
//! explorer is deterministic, so the work never changes.

use std::collections::BTreeMap;

use rtsim::check::{explore, replay, Budget, CheckScenario, Expectation, Exploration, SCENARIOS};
use rtsim::kernel::testutil::Rng;
use rtsim::{ExecMode, SimTime};

use crate::gauge::{Gauge, Timed};
use crate::probe::{bump, check_modes, dissect, shuffled, Counts};
use crate::spans::{self, Tracer};
use crate::{Checks, Layers, Load, Pass};

/// Runs, states, distinct traces and choice points of every healthy
/// scenario under the default budget.
const PINS: &str = include_str!("../explore.pins");

/// Calls per split measurement of the microsecond-scale layer calls.
const SPLIT_SAMPLES: usize = 50;

/// Pinned `[runs, states, distinct traces, choice points]` by scenario.
pub(crate) type Pins = BTreeMap<String, [u64; 4]>;

/// Parses the pins file: `name runs states traces choices` per line,
/// `#` comments.
pub(crate) fn parse_pins(text: &str) -> Result<Pins, String> {
    let mut pins = Pins::new();
    for line in text
        .lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
    {
        let fields: Vec<&str> = line.split_whitespace().collect();
        let numbers: Result<Vec<u64>, _> = fields.iter().skip(1).map(|f| f.parse()).collect();
        match (
            fields.first(),
            numbers.ok().and_then(|n| <[u64; 4]>::try_from(n).ok()),
        ) {
            (Some(name), Some(pin)) => pins.insert((*name).to_owned(), pin),
            _ => return Err(format!("malformed pin line: {line}")),
        };
    }
    Ok(pins)
}

/// Checks one exploration: a healthy scenario completes without a
/// counterexample and matches its pins; a mutant is flagged and its
/// counterexample replays to a violation (`replay_flags`).
pub(crate) fn check_exploration(
    scenario: &CheckScenario,
    outcome: &Exploration,
    replay_flags: Option<bool>,
    pins: &Pins,
    checks: &mut Checks,
) {
    match scenario.expect {
        Expectation::Hold => {
            let got = [
                outcome.runs,
                outcome.states as u64,
                outcome.distinct_traces as u64,
                outcome.choice_points,
            ];
            let ok = outcome.complete
                && outcome.counterexample.is_none()
                && pins.get(scenario.name) == Some(&got);
            checks.check(ok, || {
                format!(
                    "explore {}: complete {} violated {} counts {got:?}, pinned {:?}",
                    scenario.name,
                    outcome.complete,
                    outcome.counterexample.is_some(),
                    pins.get(scenario.name)
                )
            });
        }
        Expectation::Violate => checks.check(replay_flags == Some(true), || {
            format!(
                "mutant {} was not flagged with a replayable counterexample",
                scenario.name
            )
        }),
    }
}

struct Explore {
    scenarios: Vec<&'static CheckScenario>,
    pins: Pins,
    rng: Rng,
    /// Replays per scenario in the latest pass.
    runs: BTreeMap<&'static str, u64>,
}

pub(crate) fn setup(seed: u64) -> Result<Box<dyn Load>, String> {
    Ok(Box::new(Explore {
        scenarios: SCENARIOS.iter().collect(),
        pins: parse_pins(PINS)?,
        rng: Rng::seed_from_u64(seed),
        runs: BTreeMap::new(),
    }))
}

impl Load for Explore {
    /// Times each scenario as its own section: a pass takes seconds, and
    /// the host's speed wobbles within that.
    fn pass(
        &mut self,
        tracer: &Tracer,
        parent: u64,
        gauge: &mut Gauge,
        checks: &mut Checks,
    ) -> Pass {
        let order = shuffled(&self.scenarios, &mut self.rng);
        let mut time = Timed::default();
        let outcomes: Vec<_> = order
            .iter()
            .map(|&sc| {
                let ((outcome, flags), spent) = gauge.time(|| {
                    let outcome =
                        tracer.span("check.explore", parent, |_| explore(sc, &Budget::default()));
                    let flags = outcome.counterexample.as_ref().map(|cx| {
                        let (_, violations) =
                            tracer.span("check.replay", parent, |_| replay(sc, &cx.choices));
                        !violations.is_empty()
                    });
                    (outcome, flags)
                });
                time = time + spent;
                (sc, outcome, flags)
            })
            .collect();

        let mut counts = Counts::new();
        for (sc, outcome, flags) in &outcomes {
            check_exploration(sc, outcome, *flags, &self.pins, checks);
            bump(&mut counts, "check.runs", outcome.runs);
            bump(&mut counts, "check.states", outcome.states as u64);
            bump(&mut counts, "check.choice_points", outcome.choice_points);
            bump(
                &mut counts,
                "check.distinct_traces",
                outcome.distinct_traces as u64,
            );
            self.runs.insert(sc.name, outcome.runs);
        }
        Pass {
            time,
            items: counts["check.runs"],
            counts,
            ..Pass::default()
        }
    }

    /// Times each scenario's build, elaborate and stable-schedule replay
    /// (`replay(sc, &[])`) and dissects one stable run per scenario.
    fn finish(
        &mut self,
        tracer: &Tracer,
        checks: &mut Checks,
        split: &mut Counts,
        layers: &mut Layers,
    ) {
        if !tracer.is_on() {
            return;
        }
        let (mut replay_ns, mut run_ns, mut runs) = (0.0, 0.0, 0.0);
        for &sc in &self.scenarios {
            let before = tracer.spans().len();
            tracer.span("check.scenario", 0, |id| {
                for _ in 0..SPLIT_SAMPLES {
                    tracer.span("mcse.build", id, |_| (sc.build)());
                    let mut model = (sc.build)();
                    model.exec_mode(ExecMode::Segment);
                    tracer
                        .span("mcse.elaborate", id, |_| model.elaborate())
                        .expect("check scenario elaborates");
                    tracer.span("check.replay_stable", id, |_| replay(sc, &[]));
                }
                let build = |mode| {
                    let mut model = (sc.build)();
                    model.exec_mode(mode);
                    model
                };
                let d = dissect(&build, SimTime::ZERO + sc.horizon, tracer, id, split);
                check_modes(sc.name, &d, checks);
            });
            let mine = &tracer.spans()[before..];
            let weight = self.runs.get(sc.name).copied().unwrap_or(0) as f64;
            replay_ns += weight * spans::median_ns(mine, "check.replay_stable");
            run_ns += weight * spans::total_ns(mine, "sim.run_until") as f64;
            runs += weight;
        }
        // Weighted by replays per exploration, so the numbers compare
        // with `check.us_per_run`.
        if runs > 0.0 {
            layers.insert("check.replay_us", replay_ns / runs / 1e3);
            layers.insert("sim.run_share", run_ns / replay_ns);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtsim::check::scenario_by_name;

    #[test]
    fn every_healthy_scenario_is_pinned() {
        let pins = parse_pins(PINS).unwrap();
        for sc in SCENARIOS.iter().filter(|s| s.expect == Expectation::Hold) {
            assert!(pins.contains_key(sc.name), "{} is not pinned", sc.name);
        }
        assert!(parse_pins("rivals 1 2 3").is_err());
        assert!(parse_pins("rivals 1 2 3 x").is_err());
    }

    #[test]
    fn the_exploration_oracle_flags_wrong_counts_and_unflagged_mutants() {
        let pins = parse_pins(PINS).unwrap();
        let mut checks = Checks::default();
        let pipeline = scenario_by_name("pipeline").unwrap();
        let outcome = explore(pipeline, &Budget::default());
        check_exploration(pipeline, &outcome, None, &pins, &mut checks);
        assert_eq!(checks.failed, 0, "{:?}", checks.messages);

        let mut miscounted = outcome.clone();
        miscounted.states += 1;
        check_exploration(pipeline, &miscounted, None, &pins, &mut checks);
        let mut truncated = outcome;
        truncated.complete = false;
        check_exploration(pipeline, &truncated, None, &pins, &mut checks);
        assert_eq!(checks.failed, 2);

        let mutant = scenario_by_name("mutant_lost").unwrap();
        let flagged = explore(mutant, &Budget::default());
        let cx = flagged
            .counterexample
            .as_ref()
            .expect("the mutant is flagged");
        let replays = !replay(mutant, &cx.choices).1.is_empty();
        check_exploration(mutant, &flagged, Some(replays), &pins, &mut checks);
        assert_eq!(checks.failed, 2);
        check_exploration(mutant, &flagged, Some(false), &pins, &mut checks);
        check_exploration(mutant, &flagged, None, &pins, &mut checks);
        assert_eq!(checks.failed, 4);
    }
}
