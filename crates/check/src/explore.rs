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
//!    recording the arity, fold the records so far into the monitors of
//!    the properties its model declares, store a fork of the system
//!    stopped there (plus the running state hash), and decide `0` (the
//!    stable order).
//! 3. When the run finishes, check those properties (timing constraints
//!    and oracles alike): fold the records the run added since its last
//!    snapshot and finish the monitors (a run that reaches an explored
//!    state ends there instead, see below). Then backtrack: pop exhausted
//!    frames, increment the deepest frame with a remaining sibling, and
//!    resume that sibling from the frame's snapshot — a further fork of
//!    it, or the snapshot itself for the last sibling — so each schedule
//!    simulates, and checks, only its own suffix. At most one snapshot
//!    per open frame is alive.
//!
//! A system that cannot fork (a closure body, which runs on a thread) is
//! explored the original way: every sibling **replays** — rebuild and
//! re-elaborate the scenario, then force the prefix of choices that led
//! to the frame.
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
//! sound), so the record stream doubles as a state identity. It is
//! hashed field by field, never rendered to text: a running
//! word-at-a-time hash, seeded with the actor header, takes each record's
//! derived [`Hash`] (instant, sequence number, actor and payload) with
//! one 64-bit mix per integer, over the recorder's borrowed records.
//! Each fresh choice point folds the records appended since the previous
//! fold and mixes the current instant, the choice kind and every
//! candidate's identity token into a copy — its state hash. A hit in the
//! visited set ends the run there, as Spin backtracks at a visited state:
//! the subtree rooted there was already explored from an identical state,
//! so its sibling orderings would replay already-visited traces, and its
//! stable continuation is the run that found the state — already
//! simulated, checked and hashed. The visited set keeps, per state, the
//! number of choice points that continuation answers (the state's own
//! included), filled in when the run that found the state ends; a run
//! that ends early adds it to [`Exploration::choice_points`] and counts
//! as [`Exploration::merged`], so every other count is what running on to
//! the end would give. A state the current run found itself has no count
//! yet: it answers `0` without pushing a frame, and the run goes on. The
//! `prune` flag turns all this off for brute-force comparison runs (see
//! the pruning property test).
//!
//! The distinct-trace hash of a leaf is that same running hash, finished
//! over the records not yet folded; the replay search hashes the whole
//! trace from scratch, the reference the fork tests compare it against.
//! Both are identities within one process, not fingerprints: the farm's
//! goldens and the grid's cache keys hash the canonical text.
//!
//! # Counterexamples
//!
//! Candidate labels are text that only [`Counterexample::render`] reads,
//! so the search makes none. When a violation ends the search, the
//! explorer replays the violating path once from a new elaboration and
//! labels the counterexample's frames.

use std::collections::hash_map::Entry;
use std::collections::{BTreeSet, HashMap};
use std::fmt;
use std::hash::{BuildHasherDefault, Hash, Hasher};

use rtsim_kernel::choice::{ChoiceKind, ChoicePoint};
use rtsim_kernel::{ExecMode, KernelError, SimTime};
use rtsim_mcse::{ConstraintReport, ElaboratedSystem};
use rtsim_trace::{ActorInfo, Finding, Record, Trace};

use crate::scenarios::{scenario_by_name, CheckScenario};

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
    /// The candidate labels, in the kernel's stable order. Filled on a
    /// [`Counterexample`]'s frames only (by replaying its choices); empty
    /// while the search runs.
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
    /// The findings that did not hold on the violating trace: a kernel
    /// error first, if any, then the model's properties in declaration
    /// order.
    pub violations: Vec<Finding>,
    /// Whether the explored scenario is the registry entry of its name,
    /// which `rtsim-check --replay` replays; not merely one sharing it.
    registered: bool,
}

impl Counterexample {
    /// Renders the counterexample as a human-readable report. Its last
    /// line replays the schedule: through `rtsim-check --replay` for a
    /// scenario of the registry itself, else as the choice list for
    /// [`replay`].
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(out, "counterexample for `{}`:", self.scenario);
        for v in &self.violations {
            let _ = writeln!(out, "  violated [{}]: {}", v.property, v.message);
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
        let _ = if self.registered {
            let choices: Vec<_> = self.choices.iter().map(|c| c.to_string()).collect();
            writeln!(
                out,
                "  replay: rtsim-check --replay {}:{}",
                self.scenario,
                choices.join(",")
            )
        } else {
            writeln!(
                out,
                "  replay: rtsim_check::replay(&scenario, &{:?})",
                self.choices
            )
        };
        out
    }
}

/// The outcome of exploring one scenario.
#[derive(Debug, Clone)]
pub struct Exploration {
    /// Scenario name.
    pub scenario: String,
    /// Schedules explored, whether resumed from a fork or replayed from a
    /// new elaboration: each runs to its end (a leaf), or to a state an
    /// earlier run explored ([`merged`](Exploration::merged)).
    pub runs: u64,
    /// Runs that ended at a state an earlier run explored: that run's
    /// stable continuation from there stands for theirs (always 0 when
    /// pruning is off).
    pub merged: u64,
    /// Distinct hashed states in the visited set (0 when pruning off).
    pub states: usize,
    /// Total choice points answered across all runs, counting each run's
    /// whole choice sequence — also the prefix a resumed run inherits, and
    /// for a merged run the stable continuation that stands for its rest.
    pub choice_points: u64,
    /// Distinct final traces seen (distinct interleavings).
    pub distinct_traces: usize,
    /// The hashes of those distinct final traces, sorted — the pruning
    /// property test compares pruned vs brute-force sets. They are
    /// identities within one process (derived [`Hash`] over the records),
    /// not stable across builds: compare them only with hashes from the
    /// same process.
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

/// A system partway through a run, with the running hash of what it has
/// recorded: the actor header, then its first `hashed` records.
struct Live {
    system: ElaboratedSystem,
    running: Mix,
    hashed: usize,
}

impl Live {
    /// A fork of this system with its running hash, written over a spare
    /// system when `spares` has one left; `None` if the system cannot
    /// fork.
    fn fork(&self, spares: &mut Vec<ElaboratedSystem>) -> Option<Live> {
        let system = match spares.pop() {
            Some(mut spare) => self.system.fork_into(&mut spare).then_some(spare),
            None => self.system.fork(),
        }?;
        Some(Live {
            system,
            running: self.running,
            hashed: self.hashed,
        })
    }

    /// Folds the records not yet hashed into the running hash, then mixes
    /// the choice-point identity (instant, kind, candidate tokens) into a
    /// copy — the state hash of "about to decide this choice".
    fn state_hash(&mut self, point: ChoicePoint) -> u64 {
        let (running, hashed) = (&mut self.running, &mut self.hashed);
        self.system.recorder().with_records(|_, records| {
            Record::hash_slice(&records[*hashed..], running);
            *hashed = records.len();
        });
        let mut h = self.running;
        h.write_u64(point.at.as_ps());
        point.kind.hash(&mut h);
        let sim = self.system.simulator_mut();
        for i in 0..point.arity {
            h.write_u64(sim.candidate(i).hash_token());
        }
        h.finish()
    }
}

/// One open choice point of the current path.
struct Frame {
    info: ChoiceFrame,
    /// The state hash it was filed under in the visited set (0 when
    /// pruning is off).
    state: u64,
    /// The system stopped at this choice point, undecided, from which
    /// the remaining siblings resume; `None` when it could not fork (the
    /// siblings replay).
    snapshot: Option<Live>,
}

/// The depth-first search over one scenario's choice tree.
struct Search<'s> {
    scenario: &'s CheckScenario,
    prune: bool,
    /// Whether to snapshot choice points (`false`: replay every run).
    fork: bool,
    /// The branching choice points of the current path, shallowest first.
    frames: Vec<Frame>,
    /// Every choice of the current run, including non-branching ones;
    /// before a run starts, the prefix it must follow.
    path: Vec<usize>,
    /// Visited state hashes (whole search; only grows), each with the
    /// number of choice points its stable continuation answers, its own
    /// included: filled in when the run that found it ends, 0 until then.
    visited: HashMap<u64, u64, BuildHasherDefault<Mixed>>,
    /// Total choice points answered across all runs.
    choice_points: u64,
    /// Whether the depth cap fired this run.
    truncated: bool,
    /// The hash of the scenario's actor header, and how many actors it
    /// covers (set by the first elaboration).
    header: Option<(Mix, usize)>,
    fresh: u64,
    max_frames: usize,
    /// The systems of runs that are over, each forked over again by a
    /// later snapshot or sibling (see [`Live::fork`]).
    spares: Vec<ElaboratedSystem>,
}

impl<'s> Search<'s> {
    fn new(scenario: &'s CheckScenario, prune: bool, fork: bool) -> Self {
        Search {
            scenario,
            prune,
            fork,
            frames: Vec::new(),
            path: Vec::new(),
            visited: HashMap::default(),
            choice_points: 0,
            truncated: false,
            header: None,
            fresh: 0,
            max_frames: 0,
            spares: Vec::new(),
        }
    }

    /// Keeps the system of a run that is over as a spare for a later
    /// fork. Forks only ever need as many systems at once as the deepest
    /// stack had snapshots, plus the run's own, so the pool never holds
    /// more; past that (a system that cannot fork, whose runs replay),
    /// the system is dropped.
    fn recycle(&mut self, system: ElaboratedSystem) {
        if self.fork && self.spares.len() <= self.max_frames {
            self.spares.push(system);
        }
    }

    /// Builds and elaborates the scenario in Segment mode, with its
    /// running hash seeded by the actor header.
    fn elaborate(&mut self) -> Live {
        let system = build(self.scenario);
        let (running, _) = *self.header.get_or_insert_with(|| {
            system
                .recorder()
                .with_records(|actors, _| (header(actors), actors.len()))
        });
        self.fresh += 1;
        Live {
            system,
            running,
            hashed: 0,
        }
    }

    /// Runs one schedule: from a new elaboration following the prefix in
    /// `path` (`start = None`), or from a snapshot stopped at the choice
    /// point the last entry of `path` decides. Returns the final trace's
    /// distinct-trace hash and what the run violated, or `None` if the
    /// run merged into a state an earlier run explored.
    fn run(&mut self, start: Option<Live>) -> Option<(u64, Vec<Finding>)> {
        self.truncated = false;
        let first = self.path.len();
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
        let mut error = None;
        loop {
            let point = match live.system.simulator_mut().run_to_choice(horizon) {
                Ok(Some(point)) => point,
                Ok(None) => break,
                Err(e) => {
                    error = Some(e);
                    break;
                }
            };
            let choice = match self.path.get(depth) {
                Some(&forced) => forced,
                None => {
                    if let Some(rest) = self.branch(&mut live, point) {
                        // The run that explored this state answered the
                        // rest of this one's choices, and ran on to the
                        // same trace: the run ends here.
                        self.choice_points += rest;
                        self.settle(first, depth as u64 + rest);
                        self.recycle(live.system);
                        return None;
                    }
                    self.path.push(0);
                    0
                }
            };
            self.choice_points += 1;
            depth += 1;
            live.system.simulator_mut().decide(choice);
        }
        self.settle(first, depth as u64);
        let report = live.system.verify_constraints();
        let hash = self.trace_hash(&live);
        self.recycle(live.system);
        Some((hash, violations(error, report)))
    }

    /// A fresh choice point (past the forced prefix): push a frame for
    /// it unless the depth cap or the visited set says otherwise. Returns
    /// the choice points of the state's stable continuation if an earlier
    /// run explored it.
    fn branch(&mut self, live: &mut Live, point: ChoicePoint) -> Option<u64> {
        if self.frames.len() >= MAX_DEPTH {
            self.truncated = true;
            return None;
        }
        let mut state = 0;
        if self.prune {
            state = live.state_hash(point);
            match self.visited.entry(state) {
                // Seen this exact state before: its subtree (including all
                // sibling orderings) was already explored. A count of 0
                // means the run that found it has not settled it (this
                // run, or one the depth cap truncated): carry on as it did.
                Entry::Occupied(seen) => return Some(*seen.get()).filter(|&rest| rest > 0),
                Entry::Vacant(slot) => {
                    slot.insert(0);
                }
            }
        }
        let snapshot = if self.fork {
            // The snapshot's monitors have folded the prefix, so each run
            // resumed from it folds only its own records.
            live.system.fold();
            live.fork(&mut self.spares)
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
                options: Vec::new(),
            },
            state,
            snapshot,
        });
        self.max_frames = self.max_frames.max(self.frames.len());
        None
    }

    /// The counterexample the current run is: its choices, and its frames
    /// labelled by one replay.
    fn counterexample(&self, violations: Vec<Finding>) -> Counterexample {
        let mut frames: Vec<_> = self.frames.iter().map(|f| f.info.clone()).collect();
        label(self.scenario, &self.path, &mut frames);
        Counterexample {
            scenario: self.scenario.name.to_owned(),
            choices: self.path.clone(),
            frames,
            violations,
            registered: scenario_by_name(self.scenario.name)
                .is_some_and(|entry| std::ptr::eq(entry, self.scenario)),
        }
    }

    /// Files the states the run found (its frames from path index `first`
    /// on) under the choice points of their stable continuation: the
    /// run's `total` choice points less the ones before them. A run the
    /// depth cap truncated leaves them unfiled, since its continuation
    /// skipped states a later run through them would branch at.
    fn settle(&mut self, first: usize, total: u64) {
        if !self.prune || self.truncated {
            return;
        }
        for frame in self.frames.iter().rev() {
            if frame.info.path_index < first {
                break;
            }
            let rest = self.visited.get_mut(&frame.state);
            *rest.expect("a frame's state is visited") = total - frame.info.path_index as u64;
        }
    }

    /// The distinct-trace hash: the running hash finished over the
    /// records it has not folded yet. The replay search hashes the whole
    /// trace from scratch instead, as the reference for that shortcut; so
    /// does a run that registered an actor after elaboration.
    fn trace_hash(&self, live: &Live) -> u64 {
        let (mut running, mut hashed) = (live.running, live.hashed);
        live.system.recorder().with_records(|actors, records| {
            if !self.fork || self.header.map(|(_, n)| n) != Some(actors.len()) {
                (running, hashed) = (header(actors), 0);
            }
            Record::hash_slice(&records[hashed..], &mut running);
            running.finish()
        })
    }

    /// The whole depth-first search.
    fn explore(mut self, budget: &Budget) -> Exploration {
        let mut runs: u64 = 0;
        let mut merged: u64 = 0;
        let mut distinct = Vec::new();
        let mut counterexample = None;
        let mut complete = false;
        let mut ever_truncated = false;
        let mut start: Option<Live> = None;
        while runs < budget.max_runs && self.visited.len() < MAX_STATES {
            runs += 1;
            match self.run(start.take()) {
                None => merged += 1,
                Some((hash, violations)) => {
                    distinct.push(hash);
                    if !violations.is_empty() {
                        counterexample = Some(self.counterexample(violations));
                        break;
                    }
                }
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
                frame.snapshot.as_ref().map(|snap| {
                    snap.fork(&mut self.spares)
                        .expect("a forked system forks again")
                })
            } else {
                frame.snapshot.take()
            };
        }
        distinct.sort_unstable();
        distinct.dedup();
        Exploration {
            scenario: self.scenario.name.to_owned(),
            runs,
            merged,
            states: self.visited.len(),
            choice_points: self.choice_points,
            distinct_traces: distinct.len(),
            trace_hashes: distinct.into_iter().collect(),
            complete,
            counterexample,
            fresh: self.fresh,
            max_frames: self.max_frames,
        }
    }
}

/// The explorer's record identity: a word-at-a-time [`Hasher`] that
/// applies one bijective 64-bit mix (murmur3's `fmix64`) to `h ^ w` per
/// integer `w` written, so changing any one word changes the result. A
/// byte string writes its length, then its 8-byte chunks (the last one
/// zero-padded). What a derived [`Hash`] writes is not promised stable
/// across builds, so these hashes never leave the process.
#[derive(Debug, Clone, Copy)]
struct Mix(u64);

impl Mix {
    /// Any non-zero start: `fmix64` maps 0 to itself.
    const SEED: u64 = 0x9e37_79b9_7f4a_7c15;

    fn word(&mut self, w: u64) {
        let mut k = self.0 ^ w;
        k ^= k >> 33;
        k = k.wrapping_mul(0xff51_afd7_ed55_8ccd);
        k ^= k >> 33;
        k = k.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
        k ^= k >> 33;
        self.0 = k;
    }
}

impl Hasher for Mix {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        self.word(bytes.len() as u64);
        for chunk in bytes.chunks(8) {
            let mut word = [0; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.word(u64::from_le_bytes(word));
        }
    }

    fn write_u8(&mut self, i: u8) {
        self.word(i.into());
    }

    fn write_u16(&mut self, i: u16) {
        self.word(i.into());
    }

    fn write_u32(&mut self, i: u32) {
        self.word(i.into());
    }

    fn write_u64(&mut self, i: u64) {
        self.word(i);
    }

    fn write_usize(&mut self, i: usize) {
        self.word(i as u64);
    }
}

/// The visited set's hasher: its keys are [`Mix`] hashes already, so it
/// passes the one `u64` written through.
#[derive(Default)]
struct Mixed(u64);

impl Hasher for Mixed {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, _: &[u8]) {
        unreachable!("the visited set's keys are u64 state hashes");
    }

    fn write_u64(&mut self, i: u64) {
        self.0 = i;
    }
}

/// The running hash seeded with the actor header.
fn header(actors: &[ActorInfo]) -> Mix {
    let mut h = Mix(Mix::SEED);
    ActorInfo::hash_slice(actors, &mut h);
    h
}

/// Builds `scenario`'s model and elaborates it in Segment mode.
fn build(scenario: &CheckScenario) -> ElaboratedSystem {
    let mut model = (scenario.build)();
    model.exec_mode(ExecMode::Segment);
    model.elaborate().expect("check scenario elaborates")
}

/// Fills in the candidate labels of a counterexample's `frames` by
/// replaying its choice `path` once from a new elaboration.
fn label(scenario: &CheckScenario, path: &[usize], frames: &mut [ChoiceFrame]) {
    let mut system = build(scenario);
    let horizon = SimTime::ZERO + scenario.horizon;
    let mut frames = frames.iter_mut().peekable();
    for (index, &choice) in path.iter().enumerate() {
        if frames.peek().is_none() {
            break;
        }
        let Ok(Some(point)) = system.simulator_mut().run_to_choice(horizon) else {
            break;
        };
        let sim = system.simulator_mut();
        if let Some(frame) = frames.next_if(|f| f.path_index == index) {
            frame.options = (0..point.arity)
                .map(|i| sim.candidate_label(sim.candidate(i)))
                .collect();
        }
        sim.decide(choice);
    }
}

/// What a run violated: the kernel `error` it stopped on, if any, then
/// every finding of its system's `report` that does not hold.
fn violations(error: Option<KernelError>, report: ConstraintReport) -> Vec<Finding> {
    let kernel = error.map(|e| Finding {
        property: "kernel".to_owned(),
        holds: false,
        message: e.to_string(),
    });
    kernel
        .into_iter()
        .chain(report.findings.into_iter().filter(|f| !f.holds))
        .collect()
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
/// final trace plus the findings of its model's properties that do not
/// hold on it — the consumer side of [`Counterexample::choices`].
/// Choice points past the end of the sequence take the stable order.
///
/// # Errors
///
/// [`ReplayError::OutOfRange`] if a choice exceeds its choice point's
/// candidates, [`ReplayError::Surplus`] if the run ends with choices
/// left over.
pub fn try_replay(
    scenario: &CheckScenario,
    choices: &[usize],
) -> Result<(Trace, Vec<Finding>), ReplayError> {
    let mut system = build(scenario);
    let horizon = SimTime::ZERO + scenario.horizon;
    let mut depth = 0;
    let mut error = None;
    loop {
        let point = match system.simulator_mut().run_to_choice(horizon) {
            Ok(Some(point)) => point,
            Ok(None) => break,
            Err(e) => {
                error = Some(e);
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
    let report = system.verify_constraints();
    Ok((system.trace(), violations(error, report)))
}

/// [`try_replay`] for a sequence known to fit the scenario, such as a
/// [`Counterexample::choices`].
///
/// # Panics
///
/// Panics ("replay diverged: …") if the sequence does not replay.
pub fn replay(scenario: &CheckScenario, choices: &[usize]) -> (Trace, Vec<Finding>) {
    try_replay(scenario, choices).unwrap_or_else(|e| panic!("replay diverged: {e}"))
}

#[cfg(test)]
mod tests {
    use std::collections::HashSet;

    use super::*;
    use rtsim_kernel::SimDuration;
    use rtsim_trace::CommKind::{Read, Write};
    use rtsim_trace::FaultKind::{Burst, Jitter};
    use rtsim_trace::OverheadKind::{ContextSave, Scheduling};
    use rtsim_trace::TraceData::{self, Annotation, Core, ResourceHeld, State};
    use rtsim_trace::{ActorKind, TaskState, TraceRecorder};

    fn hash(record: &Record) -> u64 {
        let mut h = Mix(Mix::SEED);
        record.hash(&mut h);
        h.finish()
    }

    #[test]
    fn a_record_hash_is_as_fine_as_its_canonical_line() {
        let rec = TraceRecorder::new();
        let task = rec.register("T", ActorKind::Task);
        let queue = rec.register("Q", ActorKind::Relation);
        let event = rec.register("E", ActorKind::Relation);
        let record = |at, seq, actor, data| Record {
            at: SimTime::from_ps(at),
            seq,
            actor,
            data,
        };
        let overhead = |kind, ps| TraceData::Overhead {
            kind,
            duration: SimDuration::from_ps(ps),
        };
        let comm = |relation, kind| TraceData::Comm { relation, kind };
        let depth = |depth, capacity| TraceData::QueueDepth { depth, capacity };
        let fault = |kind, magnitude_ps| TraceData::Fault { kind, magnitude_ps };
        let label = |text: &str| Annotation(text.to_owned());
        // One payload of each variant, then each of its fields changed.
        let variants = [
            (State(TaskState::Ready), vec![State(TaskState::Running)]),
            (
                overhead(ContextSave, 5),
                vec![overhead(Scheduling, 5), overhead(ContextSave, 6)],
            ),
            (
                comm(queue, Read),
                vec![comm(event, Read), comm(queue, Write)],
            ),
            (depth(1, 4), vec![depth(2, 4), depth(1, 5)]),
            (ResourceHeld(true), vec![ResourceHeld(false)]),
            (label("ab"), vec![label("ab\0"), label("ba")]),
            (Core(1), vec![Core(0)]),
            (fault(Jitter, 9), vec![fault(Burst, 9), fault(Jitter, 10)]),
        ];
        let mut bases = HashSet::new();
        for (data, changed) in variants {
            let base = record(7, 3, task, data.clone());
            // Equal records, built apart, hash equal.
            assert_eq!(hash(&base), hash(&record(7, 3, task, data.clone())));
            assert!(bases.insert(hash(&base)), "{base:?} aliases a variant");
            let mut others = vec![
                record(8, 3, task, data.clone()),
                record(7, 4, task, data.clone()),
                record(7, 3, event, data),
            ];
            others.extend(changed.into_iter().map(|d| record(7, 3, task, d)));
            for other in others {
                assert_ne!(hash(&base), hash(&other), "{base:?} vs {other:?}");
            }
        }
        // Labels that differ only past their first 8-byte chunk.
        assert_ne!(
            hash(&record(7, 3, task, label("deadline_miss"))),
            hash(&record(7, 3, task, label("deadline_mist")))
        );
    }
}
