//! The depth-first interleaving explorer.
//!
//! # How it works
//!
//! The kernel is deterministic once every tie-break is fixed, and a
//! Segment-mode system built from scripts is plain data, so the explorer
//! walks the choice tree by **forking** the simulation at its choice
//! points. One search proceeds as follows:
//!
//! 1. Build the scenario model and elaborate it in Segment mode — once.
//! 2. Run it with [`Simulator::run_to_choice`](rtsim_kernel::Simulator::run_to_choice),
//!    which stops before each choice point (two or more simultaneously
//!    eligible actions). At a choice point not seen before, push a frame
//!    recording the arity and labels, store a fork of the system stopped
//!    there (plus the running state hash), and decide `0` (the stable
//!    order).
//! 3. When the run finishes, evaluate the scenario's oracles on the
//!    final trace, then backtrack: pop exhausted frames, increment the
//!    deepest frame with a remaining sibling, and resume that sibling
//!    from the frame's snapshot — a further fork of it, or the snapshot
//!    itself for the last sibling — so each schedule simulates only its
//!    own suffix. At most one snapshot per open frame is alive.
//!
//! A system that cannot fork (a closure body runs on a thread, or a
//! custom scheduling policy cannot copy itself) is explored the original
//! way: every sibling **replays** — rebuild and re-elaborate the
//! scenario, then force the prefix of choices that led to the frame.
//! [`replay`] and `rtsim-check --replay` use that path too. Either way
//! the tree, its visiting order (deepest frame first, siblings in index
//! order) and every count are the same; [`Exploration::fresh`] tells how
//! many runs started from a new elaboration.
//!
//! The search is exhaustive (it visits every reachable leaf) unless a
//! budget trips or the state-hash pruning (below) cuts a subtree.
//!
//! # State hashing
//!
//! Two runs that reach the same instant with the same trace prefix and
//! the same candidate set are in the same simulator state — the trace is
//! deliberately exhaustive (that is what makes golden fingerprints
//! sound), so the canonical-record stream doubles as a state identity.
//! A running FNV-1a hash, seeded with the canonical actor header lines,
//! folds the records appended since the previous fold (via
//! [`rtsim_trace::canonical_record_into`] over the recorder's borrowed
//! records, byte-identical to the whole-trace canonical form). Each
//! fresh choice point folds the new records and mixes the current time,
//! the choice kind and every candidate's identity token into a copy —
//! its state hash. A hit in the visited set answers `0` without pushing
//! a frame: the subtree rooted there was already explored from an
//! identical state, so its sibling orderings would replay
//! already-visited traces. The `prune` flag turns this off for
//! brute-force comparison runs (see the pruning property test).
//!
//! The distinct-trace hash of a leaf is that same running hash, finished
//! over the records not yet folded: it equals FNV-1a of
//! [`canonical`]`(&trace)` without rendering the trace to text.

use std::collections::{BTreeSet, HashSet};
use std::fmt;

use rtsim_campaign::Fnv1a;
use rtsim_kernel::choice::{ChoiceKind, ChoicePoint};
use rtsim_kernel::{ExecMode, SimTime};
use rtsim_mcse::ElaboratedSystem;
use rtsim_trace::{canonical, canonical_actor_into, canonical_record_into, Record, Trace};

use crate::oracle::{Oracle, Violation};
use crate::scenarios::CheckScenario;

/// Search limits. Every limit is a truncation, not an error: tripping
/// one marks the exploration incomplete (`complete = false`). Besides
/// the run cap, the visited set holds at most 1,000,000 states and a run
/// branches at most 4,096 choice points deep (deeper ones take the
/// stable order without forking).
#[derive(Debug, Clone, Copy)]
pub struct Budget {
    /// Maximum scenario replays (leaves visited).
    pub max_runs: u64,
}

/// Maximum distinct hashed states in the visited set.
const MAX_STATES: usize = 1_000_000;
/// Maximum branching depth per run.
const MAX_DEPTH: usize = 4_096;

impl Default for Budget {
    fn default() -> Self {
        Budget { max_runs: 100_000 }
    }
}

impl Budget {
    /// A budget capped at `runs` replays.
    pub fn runs(runs: u64) -> Self {
        Budget { max_runs: runs }
    }
}

/// One recorded choice point of the current path that still has (or
/// had) siblings to explore — and the replayable description of what
/// was decided there.
#[derive(Debug, Clone)]
pub struct ChoiceFrame {
    /// Index of this choice in the full per-run choice sequence.
    pub path_index: usize,
    /// Candidate index taken on the most recent run through this frame.
    pub chosen: usize,
    /// Number of candidates that were eligible.
    pub arity: usize,
    /// Scheduler phase of the choice.
    pub kind: ChoiceKind,
    /// Simulated instant of the choice.
    pub at: SimTime,
    /// The candidate labels, in the kernel's stable order.
    pub options: Vec<String>,
}

/// A deterministic witness of a violation: the exact choice sequence
/// that reproduces it, plus the decided frames rendered for humans.
#[derive(Debug, Clone)]
pub struct Counterexample {
    /// Scenario name.
    pub scenario: String,
    /// The full choice sequence of the violating run — feed it back
    /// through [`replay`] to reproduce the violation.
    pub choices: Vec<usize>,
    /// The branching choice points along the violating run.
    pub frames: Vec<ChoiceFrame>,
    /// What the oracles reported on the violating trace.
    pub violations: Vec<Violation>,
}

impl Counterexample {
    /// Renders the counterexample as a human-readable report.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(out, "counterexample for `{}`:", self.scenario);
        for v in &self.violations {
            let _ = writeln!(out, "  violated [{}]: {}", v.oracle, v.message);
        }
        let _ = writeln!(
            out,
            "  choice stack ({} decisions, {} branching):",
            self.choices.len(),
            self.frames.len()
        );
        for f in &self.frames {
            let _ = writeln!(
                out,
                "    #{} @{}ps {}: took [{}] {} (of {})",
                f.path_index,
                f.at.as_ps(),
                f.kind,
                f.chosen,
                f.options.get(f.chosen).map_or("?", |s| s.as_str()),
                f.arity
            );
        }
        let _ = writeln!(
            out,
            "  replay: rtsim-check --replay {}:{}",
            self.scenario,
            self.choices
                .iter()
                .map(|c| c.to_string())
                .collect::<Vec<_>>()
                .join(",")
        );
        out
    }
}

/// The outcome of exploring one scenario.
#[derive(Debug, Clone)]
pub struct Exploration {
    /// Scenario name.
    pub scenario: String,
    /// Schedules run to their end (leaves visited), whether resumed from
    /// a fork or replayed from a new elaboration.
    pub runs: u64,
    /// Distinct hashed states in the visited set (0 when pruning off).
    pub states: usize,
    /// Total choice points answered across all runs, counting each run's
    /// whole choice sequence — also the prefix a resumed run inherits.
    pub choice_points: u64,
    /// Distinct final canonical traces seen (distinct interleavings).
    pub distinct_traces: usize,
    /// The FNV-1a hashes of those distinct final traces, sorted — the
    /// pruning property test compares pruned vs brute-force sets.
    pub trace_hashes: BTreeSet<u64>,
    /// Whether the whole choice tree was covered (no budget tripped).
    pub complete: bool,
    /// The first violation found, if any; exploration stops on it.
    pub counterexample: Option<Counterexample>,
    /// Runs that started from a newly elaborated system: 1 when the
    /// scenario forks (only the first run), `runs` when it replays.
    pub fresh: u64,
    /// The deepest stack of open choice frames — when forking, the most
    /// snapshots alive at once.
    pub max_frames: usize,
}

/// A system partway through a run, with the running hash of the
/// canonical lines it has recorded: the actor header, then `hashed`
/// records.
struct Live {
    system: ElaboratedSystem,
    running: Fnv1a,
    hashed: usize,
}

/// One open choice point of the current path.
struct Frame {
    info: ChoiceFrame,
    /// The system stopped at this choice point, undecided, from which
    /// the remaining siblings resume; `None` when it could not fork (the
    /// siblings replay).
    snapshot: Option<Live>,
}

/// The depth-first search over one scenario's choice tree.
struct Search<'s> {
    scenario: &'s CheckScenario,
    oracles: Vec<Box<dyn Oracle>>,
    prune: bool,
    /// Whether to snapshot choice points (`false`: replay every run).
    fork: bool,
    /// The branching choice points of the current path, shallowest first.
    frames: Vec<Frame>,
    /// Every choice of the current run, including non-branching ones;
    /// before a run starts, the prefix it must follow.
    path: Vec<usize>,
    /// Visited state hashes (whole search; only grows).
    visited: HashSet<u64>,
    /// Total choice points answered across all runs.
    choice_points: u64,
    /// Whether the depth cap fired this run.
    truncated: bool,
    /// FNV-1a over the scenario's canonical actor header lines, and how
    /// many actors it covers (set by the first elaboration).
    header: Option<(Fnv1a, usize)>,
    /// Scratch buffer for the canonical lines of newly hashed records.
    lines: Vec<u8>,
    fresh: u64,
    max_frames: usize,
}

impl<'s> Search<'s> {
    fn new(scenario: &'s CheckScenario, prune: bool, fork: bool) -> Self {
        Search {
            scenario,
            oracles: (scenario.oracles)(),
            prune,
            fork,
            frames: Vec::new(),
            path: Vec::new(),
            visited: HashSet::new(),
            choice_points: 0,
            truncated: false,
            header: None,
            lines: Vec::new(),
            fresh: 0,
            max_frames: 0,
        }
    }

    /// Builds and elaborates the scenario in Segment mode, with its
    /// running hash seeded by the actor header.
    fn elaborate(&mut self) -> Live {
        let mut model = (self.scenario.build)();
        model.exec_mode(ExecMode::Segment);
        let system = model.elaborate().expect("check scenario elaborates");
        let (running, _) = *self.header.get_or_insert_with(|| {
            system.recorder().with_records(|actors, _| {
                let mut lines = Vec::new();
                for (index, info) in actors.iter().enumerate() {
                    canonical_actor_into(&mut lines, index, info);
                    lines.push(b'\n');
                }
                let mut h = Fnv1a::new();
                h.write(&lines);
                (h, actors.len())
            })
        });
        self.fresh += 1;
        Live {
            system,
            running,
            hashed: 0,
        }
    }

    /// Runs one schedule to its end: from a new elaboration following the
    /// prefix in `path` (`start = None`), or from a snapshot stopped at
    /// the choice point the last entry of `path` decides. Returns the
    /// final trace, its distinct-trace hash and any kernel error.
    fn run(&mut self, start: Option<Live>) -> (Trace, u64, Option<Violation>) {
        self.truncated = false;
        let (mut live, mut depth) = match start {
            None => (self.elaborate(), 0),
            Some(mut live) => {
                let chosen = *self.path.last().expect("a resumed run decides its frame");
                live.system.simulator_mut().decide(chosen);
                // The inherited prefix counts as answered, as in a replay.
                self.choice_points += self.path.len() as u64;
                (live, self.path.len())
            }
        };
        let horizon = SimTime::ZERO + self.scenario.horizon;
        let mut kernel_violation = None;
        loop {
            let point = match live.system.simulator_mut().run_to_choice(horizon) {
                Ok(Some(point)) => point,
                Ok(None) => break,
                Err(e) => {
                    kernel_violation = Some(Violation {
                        oracle: "kernel",
                        message: e.to_string(),
                    });
                    break;
                }
            };
            self.choice_points += 1;
            let choice = match self.path.get(depth) {
                Some(&forced) => forced,
                None => {
                    self.branch(&mut live, point);
                    self.path.push(0);
                    0
                }
            };
            depth += 1;
            live.system.simulator_mut().decide(choice);
        }
        let (running, hashed) = (live.running, live.hashed);
        let trace = live.system.into_trace();
        let hash = self.trace_hash(&trace, running, hashed);
        (trace, hash, kernel_violation)
    }

    /// A fresh choice point (past the forced prefix): push a frame for
    /// it unless the depth cap or the visited set says otherwise.
    fn branch(&mut self, live: &mut Live, point: ChoicePoint) {
        if self.frames.len() >= MAX_DEPTH {
            self.truncated = true;
            return;
        }
        if self.prune {
            let state = self.state_hash(live, point);
            if !self.visited.insert(state) {
                // Seen this exact state before: its subtree (including
                // all sibling orderings) was already explored.
                return;
            }
        }
        let sim = live.system.simulator_mut();
        let options = (0..point.arity)
            .map(|i| sim.candidate_label(sim.candidate(i)))
            .collect();
        let snapshot = if self.fork {
            live.system.fork().map(|system| Live {
                system,
                running: live.running,
                hashed: live.hashed,
            })
        } else {
            None
        };
        self.frames.push(Frame {
            info: ChoiceFrame {
                path_index: self.path.len(),
                chosen: 0,
                arity: point.arity,
                kind: point.kind,
                at: point.at,
                options,
            },
            snapshot,
        });
        self.max_frames = self.max_frames.max(self.frames.len());
    }

    /// Folds the records not yet hashed into the running hash, then mixes
    /// the choice-point identity (instant, kind, candidate tokens) into a
    /// copy — the state hash of "about to decide this choice".
    fn state_hash(&mut self, live: &mut Live, point: ChoicePoint) -> u64 {
        let (lines, hashed) = (&mut self.lines, &mut live.hashed);
        live.system.recorder().with_records(|_, records| {
            fold(lines, &records[*hashed..]);
            *hashed = records.len();
        });
        live.running.write(&self.lines);
        let mut h = live.running;
        h.write(&point.at.as_ps().to_le_bytes());
        h.write(point.kind.key().as_bytes());
        let sim = live.system.simulator_mut();
        for i in 0..point.arity {
            h.write(&sim.candidate(i).hash_token().to_le_bytes());
        }
        h.finish()
    }

    /// FNV-1a of `canonical(trace)`: the running hash finished over the
    /// records it has not folded yet. The replay search renders the
    /// trace instead, as the reference for that shortcut; so does a run
    /// that registered an actor after elaboration.
    fn trace_hash(&mut self, trace: &Trace, mut running: Fnv1a, hashed: usize) -> u64 {
        if !self.fork || self.header.map(|(_, actors)| actors) != Some(trace.actors().len()) {
            running = Fnv1a::new();
            running.write(canonical(trace).as_bytes());
            return running.finish();
        }
        fold(&mut self.lines, &trace.records()[hashed..]);
        running.write(&self.lines);
        running.finish()
    }

    /// The whole depth-first search.
    fn explore(mut self, budget: &Budget) -> Exploration {
        let mut runs: u64 = 0;
        let mut distinct = BTreeSet::new();
        let mut counterexample = None;
        let mut complete = false;
        let mut ever_truncated = false;
        let mut start: Option<Live> = None;
        while runs < budget.max_runs && self.visited.len() < MAX_STATES {
            runs += 1;
            let (trace, hash, kernel_violation) = self.run(start.take());
            distinct.insert(hash);
            let violations = judge(&self.oracles, &trace, kernel_violation);
            if !violations.is_empty() {
                counterexample = Some(Counterexample {
                    scenario: self.scenario.name.to_owned(),
                    choices: self.path.clone(),
                    frames: self.frames.iter().map(|f| f.info.clone()).collect(),
                    violations,
                });
                break;
            }
            ever_truncated |= self.truncated;
            while self
                .frames
                .last()
                .is_some_and(|f| f.info.chosen + 1 >= f.info.arity)
            {
                self.frames.pop();
            }
            let Some(frame) = self.frames.last_mut() else {
                complete = !ever_truncated;
                break;
            };
            frame.info.chosen += 1;
            self.path.truncate(frame.info.path_index);
            self.path.push(frame.info.chosen);
            // The last sibling takes the snapshot itself; earlier ones a
            // fork of it. Without a snapshot the sibling replays.
            start = if frame.info.chosen + 1 < frame.info.arity {
                frame.snapshot.as_ref().map(|snap| Live {
                    system: snap.system.fork().expect("a forked system forks again"),
                    running: snap.running,
                    hashed: snap.hashed,
                })
            } else {
                frame.snapshot.take()
            };
        }
        Exploration {
            scenario: self.scenario.name.to_owned(),
            runs,
            states: self.visited.len(),
            choice_points: self.choice_points,
            distinct_traces: distinct.len(),
            trace_hashes: distinct,
            complete,
            counterexample,
            fresh: self.fresh,
            max_frames: self.max_frames,
        }
    }
}

/// Replaces `lines` with the canonical lines of `records`.
fn fold(lines: &mut Vec<u8>, records: &[Record]) {
    lines.clear();
    for r in records {
        canonical_record_into(lines, r);
        lines.push(b'\n');
    }
}

/// Evaluates the oracles (plus any kernel error) on a trace.
fn judge(
    oracles: &[Box<dyn Oracle>],
    trace: &Trace,
    kernel_violation: Option<Violation>,
) -> Vec<Violation> {
    let mut violations: Vec<Violation> = kernel_violation.into_iter().collect();
    for oracle in oracles {
        violations.extend(oracle.check(trace));
    }
    violations
}

/// Depth-first exploration of every schedule of `scenario`, with
/// visited-state pruning on.
pub fn explore(scenario: &CheckScenario, budget: &Budget) -> Exploration {
    explore_with(scenario, budget, true)
}

/// [`explore`] with pruning selectable — `prune = false` brute-forces
/// the full choice tree, the reference the pruning property test
/// compares against.
pub fn explore_with(scenario: &CheckScenario, budget: &Budget, prune: bool) -> Exploration {
    Search::new(scenario, prune, true).explore(budget)
}

/// [`explore_with`] without forking: every run rebuilds the scenario and
/// replays its prefix, the way a system that cannot fork is explored.
/// The reference the fork tests compare against.
#[doc(hidden)]
pub fn explore_replaying(scenario: &CheckScenario, budget: &Budget, prune: bool) -> Exploration {
    Search::new(scenario, prune, false).explore(budget)
}

/// Why a choice sequence does not replay through a scenario.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReplayError {
    /// A choice names a candidate the choice point does not have.
    OutOfRange {
        /// The index of the choice in the sequence.
        depth: usize,
        /// The choice given.
        choice: usize,
        /// How many candidates the choice point has.
        arity: usize,
    },
    /// The run met fewer choice points than the sequence has choices.
    Surplus {
        /// Choice points the run met (and choices it used).
        used: usize,
        /// Choices left over.
        surplus: usize,
    },
}

impl fmt::Display for ReplayError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReplayError::OutOfRange {
                depth,
                choice,
                arity,
            } => write!(
                f,
                "choice {choice} at depth {depth} is out of range: that choice point \
                 has {arity} candidates"
            ),
            ReplayError::Surplus { used, surplus } => write!(
                f,
                "{surplus} surplus choices: the run meets only {used} choice points"
            ),
        }
    }
}

impl std::error::Error for ReplayError {}

/// Replays one exact choice sequence through a scenario and returns the
/// final trace plus whatever the oracles say about it — the consumer
/// side of [`Counterexample::choices`]. Choice points past the end of
/// the sequence take the stable order.
///
/// # Errors
///
/// [`ReplayError::OutOfRange`] if a choice exceeds its choice point's
/// candidates, [`ReplayError::Surplus`] if the run ends with choices
/// left over.
pub fn try_replay(
    scenario: &CheckScenario,
    choices: &[usize],
) -> Result<(Trace, Vec<Violation>), ReplayError> {
    let mut model = (scenario.build)();
    model.exec_mode(ExecMode::Segment);
    let mut system = model.elaborate().expect("check scenario elaborates");
    let horizon = SimTime::ZERO + scenario.horizon;
    let mut depth = 0;
    let mut kernel_violation = None;
    loop {
        let point = match system.simulator_mut().run_to_choice(horizon) {
            Ok(Some(point)) => point,
            Ok(None) => break,
            Err(e) => {
                kernel_violation = Some(Violation {
                    oracle: "kernel",
                    message: e.to_string(),
                });
                break;
            }
        };
        let choice = choices.get(depth).copied().unwrap_or(0);
        if choice >= point.arity {
            return Err(ReplayError::OutOfRange {
                depth,
                choice,
                arity: point.arity,
            });
        }
        system.simulator_mut().decide(choice);
        depth += 1;
    }
    if depth < choices.len() {
        return Err(ReplayError::Surplus {
            used: depth,
            surplus: choices.len() - depth,
        });
    }
    let trace = system.into_trace();
    let violations = judge(&(scenario.oracles)(), &trace, kernel_violation);
    Ok((trace, violations))
}

/// [`try_replay`] for a sequence known to fit the scenario, such as a
/// [`Counterexample::choices`].
///
/// # Panics
///
/// Panics ("replay diverged: …") if the sequence does not replay.
pub fn replay(scenario: &CheckScenario, choices: &[usize]) -> (Trace, Vec<Violation>) {
    try_replay(scenario, choices).unwrap_or_else(|e| panic!("replay diverged: {e}"))
}
