//! The depth-first interleaving explorer.
//!
//! # How it works
//!
//! The kernel is deterministic once every tie-break is fixed, so the
//! explorer never snapshots or restores simulator state: each "state" of
//! the search is reached by **replaying** the scenario from scratch with
//! a forced prefix of choices. One run proceeds as follows:
//!
//! 1. Build the scenario model, elaborate it in Segment mode, and
//!    install a [`rtsim_kernel::ChoicePolicy`] backed by the explorer.
//! 2. While the run's choice count is inside the forced prefix, answer
//!    each choice point from the prefix (replay).
//! 3. Past the prefix, answer `0` (the stable order) and push a frame
//!    recording the arity, so unexplored siblings remain reachable.
//! 4. When the run finishes, evaluate the scenario's oracles on the
//!    final trace, then backtrack: pop exhausted frames, increment the
//!    deepest frame with a remaining sibling, and set the next forced
//!    prefix to the path up to that frame plus its next choice.
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
//! Each choice point folds the records appended since the previous one
//! into a running FNV-1a hash (via [`rtsim_trace::canonical_record_into`]
//! over the recorder's borrowed records, byte-identical to the
//! whole-trace canonical form) and mixes in the current time, the choice
//! kind and every candidate's identity token. A hit in the visited set
//! answers `0` without pushing a frame: the subtree rooted there was
//! already explored from an identical state, so its sibling orderings
//! would replay already-visited traces. The `prune` flag turns this off
//! for brute-force comparison runs (see the pruning property test).

use std::collections::HashSet;
use std::sync::{Arc, Mutex};

use rtsim_campaign::Fnv1a;
use rtsim_kernel::choice::{Candidate, ChoiceKind, ChoicePolicy};
use rtsim_kernel::{ExecMode, SimTime};
use rtsim_trace::{canonical, canonical_record_into, Trace, TraceRecorder};

use crate::oracle::Violation;
use crate::scenarios::CheckScenario;

/// Search limits. Every limit is a truncation, not an error: tripping
/// one marks the exploration incomplete (`complete = false`).
#[derive(Debug, Clone, Copy)]
pub struct Budget {
    /// Maximum scenario replays (leaves visited).
    pub max_runs: u64,
    /// Maximum distinct hashed states in the visited set.
    pub max_states: usize,
    /// Maximum branching depth per run; deeper choice points take the
    /// stable order without forking.
    pub max_depth: usize,
}

impl Default for Budget {
    fn default() -> Self {
        Budget {
            max_runs: 100_000,
            max_states: 1_000_000,
            max_depth: 4_096,
        }
    }
}

impl Budget {
    /// A budget capped at `runs` replays (states and depth defaulted).
    pub fn runs(runs: u64) -> Self {
        Budget {
            max_runs: runs,
            ..Budget::default()
        }
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
    /// Scenario replays performed (leaves visited).
    pub runs: u64,
    /// Distinct hashed states in the visited set (0 when pruning off).
    pub states: usize,
    /// Total choice points answered across all runs.
    pub choice_points: u64,
    /// Distinct final canonical traces seen (distinct interleavings).
    pub distinct_traces: usize,
    /// The FNV-1a hashes of those distinct final traces, sorted — the
    /// pruning property test compares pruned vs brute-force sets.
    pub trace_hashes: std::collections::BTreeSet<u64>,
    /// Whether the whole choice tree was covered (no budget tripped).
    pub complete: bool,
    /// The first violation found, if any; exploration stops on it.
    pub counterexample: Option<Counterexample>,
}

/// Explorer state shared with the in-kernel policy handle.
struct Shared {
    /// Prefix to replay; beyond it the run explores.
    forced: Vec<usize>,
    /// Every choice answered this run, including non-branching ones.
    path: Vec<usize>,
    /// Branching choice points of the current path, shallowest first.
    frames: Vec<ChoiceFrame>,
    /// Visited state hashes (whole search; only grows).
    visited: HashSet<u64>,
    /// Whether visited-state pruning is on.
    prune: bool,
    /// Depth cap (see [`Budget::max_depth`]).
    max_depth: usize,
    /// Whether the depth cap fired this run.
    truncated: bool,
    /// Total choice points answered across all runs.
    choice_points: u64,
    /// The live recorder of the current run's system.
    recorder: Option<TraceRecorder>,
    /// Running FNV-1a over the canonical records hashed so far.
    running: Fnv1a,
    /// How many records `running` has consumed.
    hashed: usize,
    /// Scratch buffer for the canonical lines of newly hashed records.
    lines: Vec<u8>,
}

impl Shared {
    fn new(prune: bool, max_depth: usize) -> Self {
        Shared {
            forced: Vec::new(),
            path: Vec::new(),
            frames: Vec::new(),
            visited: HashSet::new(),
            prune,
            max_depth,
            truncated: false,
            choice_points: 0,
            recorder: None,
            running: Fnv1a::new(),
            hashed: 0,
            lines: Vec::new(),
        }
    }

    /// Resets the per-run fields (search-wide fields persist).
    fn begin_run(&mut self, forced: Vec<usize>, recorder: TraceRecorder) {
        self.forced = forced;
        self.path.clear();
        self.truncated = false;
        self.recorder = Some(recorder);
        self.running = Fnv1a::new();
        self.hashed = 0;
    }

    /// Folds unseen trace records into the running hash, then mixes the
    /// choice-point identity (instant, kind, candidate tokens) into a
    /// copy — the state hash of "about to decide this choice".
    fn state_hash(&mut self, now: SimTime, kind: ChoiceKind, candidates: &[Candidate]) -> u64 {
        if let Some(rec) = &self.recorder {
            let (lines, hashed) = (&mut self.lines, &mut self.hashed);
            rec.with_records(|_, records| {
                lines.clear();
                for r in &records[*hashed..] {
                    canonical_record_into(lines, r);
                    lines.push(b'\n');
                }
                *hashed = records.len();
            });
            self.running.write(&self.lines);
        }
        let mut h = self.running;
        h.write(&now.as_ps().to_le_bytes());
        h.write(kind.key().as_bytes());
        for c in candidates {
            h.write(&c.hash_token().to_le_bytes());
        }
        h.finish()
    }
}

/// The [`ChoicePolicy`] installed into the kernel: forwards every
/// choice point to the shared explorer state.
struct PolicyHandle(Arc<Mutex<Shared>>);

impl ChoicePolicy for PolicyHandle {
    fn choose(&mut self, now: SimTime, kind: ChoiceKind, candidates: &[Candidate]) -> usize {
        let mut s = self.0.lock().unwrap();
        s.choice_points += 1;
        let depth = s.path.len();
        if depth < s.forced.len() {
            let c = s.forced[depth];
            assert!(
                c < candidates.len(),
                "replay diverged: forced choice {c} of {} candidates at depth {depth}",
                candidates.len()
            );
            s.path.push(c);
            return c;
        }
        if s.frames.len() >= s.max_depth {
            s.truncated = true;
            s.path.push(0);
            return 0;
        }
        if s.prune {
            let h = s.state_hash(now, kind, candidates);
            if !s.visited.insert(h) {
                // Seen this exact state before: its subtree (including
                // all sibling orderings) was already explored.
                s.path.push(0);
                return 0;
            }
        }
        let frame = ChoiceFrame {
            path_index: s.path.len(),
            chosen: 0,
            arity: candidates.len(),
            kind,
            at: now,
            options: candidates.iter().map(|c| c.label.clone()).collect(),
        };
        s.frames.push(frame);
        s.path.push(0);
        0
    }
}

/// Runs one scenario replay with the given forced choices and returns
/// its final trace plus kernel outcome.
fn run_once(
    scenario: &CheckScenario,
    shared: &Arc<Mutex<Shared>>,
    forced: Vec<usize>,
) -> (Trace, Option<Violation>) {
    let mut model = (scenario.build)();
    model.exec_mode(ExecMode::Segment);
    let mut system = model.elaborate().expect("check scenario elaborates");
    shared
        .lock()
        .unwrap()
        .begin_run(forced, system.recorder().clone());
    system
        .simulator_mut()
        .set_choice_policy(Some(Box::new(PolicyHandle(Arc::clone(shared)))));
    let outcome = system.run_until(SimTime::ZERO + scenario.horizon);
    let kernel_violation = outcome.err().map(|e| Violation {
        oracle: "kernel",
        message: e.to_string(),
    });
    (system.trace(), kernel_violation)
}

/// Evaluates the scenario's oracles (plus any kernel error) on a trace.
fn judge(
    scenario: &CheckScenario,
    trace: &Trace,
    kernel_violation: Option<Violation>,
) -> Vec<Violation> {
    let mut violations: Vec<Violation> = kernel_violation.into_iter().collect();
    for oracle in (scenario.oracles)() {
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
    let shared = Arc::new(Mutex::new(Shared::new(prune, budget.max_depth)));
    let mut runs: u64 = 0;
    let mut distinct: std::collections::BTreeSet<u64> = std::collections::BTreeSet::new();
    let mut counterexample = None;
    let mut complete = false;
    let mut ever_truncated = false;
    let mut forced: Vec<usize> = Vec::new();
    loop {
        if runs >= budget.max_runs {
            break;
        }
        if shared.lock().unwrap().visited.len() >= budget.max_states {
            break;
        }
        runs += 1;
        let (trace, kernel_violation) = run_once(scenario, &shared, std::mem::take(&mut forced));
        let violations = judge(scenario, &trace, kernel_violation);
        let mut fp = Fnv1a::new();
        fp.write(canonical(&trace).as_bytes());
        distinct.insert(fp.finish());
        if !violations.is_empty() {
            let s = shared.lock().unwrap();
            counterexample = Some(Counterexample {
                scenario: scenario.name.to_owned(),
                choices: s.path.clone(),
                frames: s.frames.clone(),
                violations,
            });
            break;
        }
        let mut s = shared.lock().unwrap();
        ever_truncated |= s.truncated;
        while s
            .frames
            .last()
            .is_some_and(|f| f.chosen + 1 >= f.arity)
        {
            s.frames.pop();
        }
        match s.frames.last_mut() {
            None => {
                complete = !ever_truncated;
                break;
            }
            Some(f) => {
                f.chosen += 1;
                let cut = f.path_index;
                let next = f.chosen;
                forced = s.path[..cut].to_vec();
                forced.push(next);
            }
        }
    }
    let s = shared.lock().unwrap();
    Exploration {
        scenario: scenario.name.to_owned(),
        runs,
        states: s.visited.len(),
        choice_points: s.choice_points,
        distinct_traces: distinct.len(),
        trace_hashes: distinct,
        complete,
        counterexample,
    }
}

/// Replays one exact choice sequence through a scenario and returns the
/// final trace plus whatever the oracles say about it — the consumer
/// side of [`Counterexample::choices`].
pub fn replay(scenario: &CheckScenario, choices: &[usize]) -> (Trace, Vec<Violation>) {
    // A replay must never branch or prune: force the whole sequence and
    // cap the branching depth at zero so fresh choice points beyond the
    // prefix fall back to the stable order.
    let shared = Arc::new(Mutex::new(Shared::new(false, 0)));
    let (trace, kernel_violation) = run_once(scenario, &shared, choices.to_vec());
    let violations = judge(scenario, &trace, kernel_violation);
    (trace, violations)
}
