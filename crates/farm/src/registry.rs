//! The sweep matrix: every scenario × every policy × both modes, run on
//! the deterministic campaign pool.

use rtsim_comm::LockMode;
use rtsim_core::policy::{PolicyView, TaskView};
use rtsim_core::{policies, EngineKind, SchedulingPolicy};
use rtsim_kernel::{ExecMode, SimDuration, SimTime};
use rtsim_mcse::SystemModel;

use crate::fingerprint::{fingerprint, Fingerprint};
use crate::scenarios::{
    automotive_system, contended_system, fault_burst_mpeg2_system, fault_degraded_sensor_system,
    fault_drop_automotive_system, fault_jitter_sweep_system, figure6_system, figure7_system,
    mpeg2_system, policy_sweep_system, quickstart_system, smp_global_system,
    smp_partitioned_system, AutomotiveConfig, Mpeg2Config,
};

/// Every scheduling behaviour the farm sweeps. One entry per built-in
/// policy plus a closure policy ([`policies::from_fn`]), so the
/// genericity hook itself is under regression.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PolicyKind {
    /// [`policies::Fifo`] — run-to-relinquish arrival order.
    Fifo,
    /// [`policies::PriorityPreemptive`] — the paper's default RTOS.
    Priority,
    /// [`policies::EarliestDeadlineFirst`].
    Edf,
    /// [`policies::RateMonotonic`] — shortest declared period wins.
    RateMonotonic,
    /// [`policies::RoundRobin`] with a 200 µs quantum.
    RoundRobin,
    /// [`policies::PriorityRoundRobin`] with a 200 µs quantum.
    PriorityRr,
    /// A closure policy built with [`policies::from_fn`]: lowest enqueue
    /// sequence first, priority preemption.
    FnPolicy,
}

impl PolicyKind {
    /// All seven behaviours, in golden-file order.
    pub const ALL: [PolicyKind; 7] = [
        PolicyKind::Fifo,
        PolicyKind::Priority,
        PolicyKind::Edf,
        PolicyKind::RateMonotonic,
        PolicyKind::RoundRobin,
        PolicyKind::PriorityRr,
        PolicyKind::FnPolicy,
    ];

    /// The stable key used in golden files and diffs.
    pub fn key(self) -> &'static str {
        match self {
            PolicyKind::Fifo => "fifo",
            PolicyKind::Priority => "priority",
            PolicyKind::Edf => "edf",
            PolicyKind::RateMonotonic => "rate_monotonic",
            PolicyKind::RoundRobin => "round_robin",
            PolicyKind::PriorityRr => "priority_rr",
            PolicyKind::FnPolicy => "fn_policy",
        }
    }

    /// Looks a kind up by its golden-file key.
    pub fn from_key(key: &str) -> Option<PolicyKind> {
        PolicyKind::ALL.into_iter().find(|k| k.key() == key)
    }

    /// Instantiates the policy.
    pub fn make(self) -> Box<dyn SchedulingPolicy> {
        let quantum = SimDuration::from_us(200);
        match self {
            PolicyKind::Fifo => Box::new(policies::Fifo::new()),
            PolicyKind::Priority => Box::new(policies::PriorityPreemptive::new()),
            PolicyKind::Edf => Box::new(policies::EarliestDeadlineFirst::new()),
            PolicyKind::RateMonotonic => Box::new(policies::RateMonotonic::new()),
            PolicyKind::RoundRobin => Box::new(policies::RoundRobin::new(quantum)),
            PolicyKind::PriorityRr => Box::new(policies::PriorityRoundRobin::new(quantum)),
            PolicyKind::FnPolicy => Box::new(policies::from_fn(
                "fn-lowest-seq",
                |view: &PolicyView<'_>| {
                    view.ready
                        .iter()
                        .min_by_key(|t| t.enqueue_seq)
                        .map(|t| t.id)
                },
                |_view: &PolicyView<'_>, candidate: &TaskView, running: &TaskView| {
                    candidate.priority > running.priority
                },
            )),
        }
    }
}

/// One registered scenario: a name, a builder, and a hang-guard horizon
/// the farm never simulates past.
///
/// Every scenario terminates on its own under every policy (all loops
/// are bounded, and a blocked system empties the event queue and stops);
/// the horizon only bounds the damage if a future regression introduces
/// a live-lock.
pub struct Scenario {
    /// Golden-file key.
    pub name: &'static str,
    /// Builds the un-elaborated model for a given core count. Scenarios
    /// that only make sense on one core ignore the argument (their
    /// [`Scenario::core_counts`] is `&[1]`).
    pub build: fn(u8) -> SystemModel,
    /// Hang guard passed to `run_until`.
    pub horizon: SimDuration,
    /// Core counts this scenario sweeps — the matrix's fourth axis.
    /// `&[1]` for the classic single-core scenarios.
    pub core_counts: &'static [u8],
}

impl std::fmt::Debug for Scenario {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Scenario")
            .field("name", &self.name)
            .field("horizon", &self.horizon)
            .finish()
    }
}

/// The registry: every example system as a farm scenario.
pub const SCENARIOS: &[Scenario] = &[
    Scenario {
        name: "quickstart",
        build: |_| quickstart_system(),
        horizon: SimDuration::from_ms(100),
        core_counts: &[1],
    },
    Scenario {
        name: "paper_fig6",
        build: |_| figure6_system(EngineKind::ProcedureCall),
        horizon: SimDuration::from_ms(100),
        core_counts: &[1],
    },
    Scenario {
        name: "paper_fig7",
        build: |_| figure7_system(EngineKind::ProcedureCall, LockMode::Plain),
        horizon: SimDuration::from_ms(100),
        core_counts: &[1],
    },
    Scenario {
        name: "automotive_ecu",
        build: |_| automotive_system(&AutomotiveConfig::default()),
        horizon: SimDuration::from_ms(2_000),
        core_counts: &[1],
    },
    Scenario {
        name: "mpeg2_soc",
        build: |_| {
            mpeg2_system(&Mpeg2Config {
                frames: 6,
                ..Mpeg2Config::default()
            })
        },
        horizon: SimDuration::from_ms(2_000),
        core_counts: &[1],
    },
    Scenario {
        name: "design_space",
        build: |_| policy_sweep_system(),
        horizon: SimDuration::from_ms(2_000),
        core_counts: &[1],
    },
    Scenario {
        name: "custom_policy",
        build: |_| contended_system(),
        horizon: SimDuration::from_ms(500),
        core_counts: &[1],
    },
    Scenario {
        name: "smp_partitioned",
        build: smp_partitioned_system,
        horizon: SimDuration::from_ms(200),
        core_counts: &[2],
    },
    Scenario {
        name: "smp_global",
        build: smp_global_system,
        horizon: SimDuration::from_ms(100),
        core_counts: &[2, 4],
    },
    // Fault-injection scenarios come after every nominal scenario, so
    // the pre-fault golden lines keep their relative order.
    Scenario {
        name: "fault_drop_automotive",
        build: |_| fault_drop_automotive_system(),
        horizon: SimDuration::from_ms(2_000),
        core_counts: &[1],
    },
    Scenario {
        name: "fault_jitter_sweep",
        build: |_| fault_jitter_sweep_system(),
        horizon: SimDuration::from_ms(2_000),
        core_counts: &[1],
    },
    Scenario {
        name: "fault_burst_mpeg2",
        build: |_| fault_burst_mpeg2_system(),
        horizon: SimDuration::from_ms(2_000),
        core_counts: &[1],
    },
    Scenario {
        name: "fault_degraded_sensor",
        build: |_| fault_degraded_sensor_system(),
        horizon: SimDuration::from_ms(500),
        core_counts: &[1],
    },
];

/// Looks a scenario up by name.
pub fn scenario_by_name(name: &str) -> Option<&'static Scenario> {
    SCENARIOS.iter().find(|s| s.name == name)
}

/// One point of the sweep: a scenario under one scheduling behaviour on
/// one core count.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Cell {
    /// Scenario key (see [`SCENARIOS`]).
    pub scenario: &'static str,
    /// Scheduling policy.
    pub policy: PolicyKind,
    /// Preemptive (`true`) or run-to-relinquish mode.
    pub preemptive: bool,
    /// Cores per software processor — the SMP axis. `1` for the classic
    /// matrix; multi-core cells carry the count into their label and
    /// golden line.
    pub cores: u8,
}

impl Cell {
    /// The mode key used in golden files: `preemptive` / `cooperative`.
    pub fn mode(&self) -> &'static str {
        if self.preemptive {
            "preemptive"
        } else {
            "cooperative"
        }
    }

    /// Human-readable cell label, e.g. `paper_fig6/edf/preemptive`.
    /// Multi-core cells append the core count: `smp_global/edf/preemptive/c2`
    /// (single-core labels are unchanged from the pre-SMP format, which
    /// keeps their grid cache keys stable).
    pub fn label(&self) -> String {
        if self.cores > 1 {
            format!(
                "{}/{}/{}/c{}",
                self.scenario,
                self.policy.key(),
                self.mode(),
                self.cores
            )
        } else {
            format!("{}/{}/{}", self.scenario, self.policy.key(), self.mode())
        }
    }
}

/// A fingerprinted cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CellResult {
    /// Which point of the matrix.
    pub cell: Cell,
    /// What its run reduced to.
    pub fingerprint: Fingerprint,
}

/// A cell result round-trips through its golden JSONL line, which is
/// exactly what the grid's result cache stores: a warm farm sweep
/// decodes the pinned-format lines instead of re-simulating.
impl rtsim_grid::Record for CellResult {
    fn encode(&self) -> String {
        crate::golden::render_line(self)
    }
    fn decode(line: &str) -> Option<Self> {
        crate::golden::parse_line(line)
    }
}

/// The full matrix: every scenario × its core counts × every policy ×
/// both modes.
pub fn full_matrix() -> Vec<Cell> {
    let mut cells = Vec::new();
    for scenario in SCENARIOS {
        for &cores in scenario.core_counts {
            for policy in PolicyKind::ALL {
                for preemptive in [true, false] {
                    cells.push(Cell {
                        scenario: scenario.name,
                        policy,
                        preemptive,
                        cores,
                    });
                }
            }
        }
    }
    cells
}

/// The reduced matrix used under `RTSIM_BENCH_SMOKE=1`: the three
/// fastest scenarios × three representative policies × both modes,
/// plus one dual-core cell per SMP scenario and two fault-injection
/// cells (22 cells), so test suites can exercise the whole pipeline —
/// including the fault lanes — in seconds.
pub fn smoke_matrix() -> Vec<Cell> {
    let scenarios = ["quickstart", "paper_fig6", "design_space"];
    let policies = [PolicyKind::Priority, PolicyKind::Fifo, PolicyKind::Edf];
    let mut cells = Vec::new();
    for scenario in scenarios {
        for policy in policies {
            for preemptive in [true, false] {
                cells.push(Cell {
                    scenario,
                    policy,
                    preemptive,
                    cores: 1,
                });
            }
        }
    }
    // Two dual-core probes so the smoke sweep crosses the SMP dispatch
    // path: partitioned and global scheduling, one cell each.
    for (scenario, policy) in [
        ("smp_partitioned", PolicyKind::RateMonotonic),
        ("smp_global", PolicyKind::Edf),
    ] {
        cells.push(Cell {
            scenario,
            policy,
            preemptive: true,
            cores: 2,
        });
    }
    // Two fault-injection probes so the smoke sweep crosses the fault
    // lanes: release jitter on the periodic sweep and the degraded-mode
    // state machine, one cell each.
    for (scenario, policy) in [
        ("fault_jitter_sweep", PolicyKind::Priority),
        ("fault_degraded_sensor", PolicyKind::Priority),
    ] {
        cells.push(Cell {
            scenario,
            policy,
            preemptive: true,
            cores: 1,
        });
    }
    cells
}

/// Runs one cell to its fingerprint: build the scenario, re-point every
/// software processor at the cell's policy and mode, elaborate, run to
/// completion (bounded by the scenario's hang-guard horizon), reduce.
///
/// # Panics
///
/// Panics on an unknown scenario name or a model/kernel error — inside a
/// campaign the panic is caught and reported as that cell's failure.
pub fn run_cell(cell: Cell) -> CellResult {
    run_cell_inner(cell, None)
}

/// [`run_cell`] pinned to one kernel execution mode (step machines on
/// threads or inline in the scheduler loop), immune to the
/// `RTSIM_EXEC_MODE` environment. The two modes must reduce every cell
/// to the same fingerprint — the cross-mode differential suite sweeps
/// the whole matrix through this.
///
/// # Panics
///
/// Panics on an unknown scenario name or a model/kernel error.
pub fn run_cell_with_mode(cell: Cell, mode: ExecMode) -> CellResult {
    run_cell_inner(cell, Some(mode))
}

fn run_cell_inner(cell: Cell, mode: Option<ExecMode>) -> CellResult {
    let scenario = scenario_by_name(cell.scenario)
        .unwrap_or_else(|| panic!("unknown scenario `{}`", cell.scenario));
    assert!(
        scenario.core_counts.contains(&cell.cores),
        "scenario `{}` does not register a {}-core configuration",
        cell.scenario,
        cell.cores
    );
    let mut model = (scenario.build)(cell.cores);
    model.override_schedulers(cell.preemptive, |_| cell.policy.make());
    if let Some(mode) = mode {
        model.exec_mode(mode);
    }
    let mut system = model.elaborate().expect("scenario elaborates");
    system
        .run_until(SimTime::ZERO + scenario.horizon)
        .expect("scenario runs");
    CellResult {
        cell,
        fingerprint: fingerprint(&system),
    }
}

/// The grid seed of every farm sweep. The farm's cells draw nothing
/// from their streams (each cell is a fixed scenario), but the seed is
/// still part of every cache key, so bumping it invalidates all cached
/// cell results at once.
pub const FARM_SEED: u64 = 0;

/// Runs a set of cells through the grid ([`rtsim_grid::Grid`]) with
/// `workers` workers per shard and `shards` shards, caching per-cell
/// results in `cache` (when given). Records come back in cell order,
/// with the grid's cache and shard accounting, and are bit-identical
/// for any worker *and* shard count.
///
/// The per-cell cache key is the grid formula over
/// `(FARM_SEED, cell index, cell label)` — the label covers scenario,
/// policy and mode, so a registry edit that moves cells around misses
/// only the moved indices.
///
/// # Panics
///
/// Panics if any cell panicked, naming the cell.
pub fn run_matrix_sharded(
    cells: &[Cell],
    workers: usize,
    shards: usize,
    cache: Option<rtsim_grid::CacheStore>,
) -> rtsim_grid::GridReport<CellResult> {
    let mut grid = rtsim_grid::Grid::new("farm", FARM_SEED)
        .workers(workers)
        .shards(shards);
    grid = match cache {
        Some(store) => grid.cache(store),
        None => grid.no_cache(),
    };
    grid.run(
        cells.len(),
        |index| cells[index].label(),
        |ctx| run_cell(cells[ctx.index()]),
    )
}

/// Runs a set of cells on the deterministic pool: the historical farm
/// entry point, now a one-shard grid sweep honouring the
/// `RTSIM_GRID_CACHE` environment knob (no cache when unset).
///
/// # Panics
///
/// Panics if any cell panicked, naming the cell.
pub fn run_matrix(cells: &[Cell], workers: usize) -> Vec<CellResult> {
    run_matrix_sharded(cells, workers, 1, rtsim_grid::CacheStore::from_env()).records
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matrix_shapes() {
        let combos: usize = SCENARIOS.iter().map(|s| s.core_counts.len()).sum();
        assert_eq!(full_matrix().len(), combos * PolicyKind::ALL.len() * 2);
        assert_eq!(full_matrix().len(), 196); // 140 nominal + 56 fault cells
        assert_eq!(smoke_matrix().len(), 22);
        // The smoke matrix is a subset of the full one.
        let full = full_matrix();
        for cell in smoke_matrix() {
            assert!(full.contains(&cell), "{}", cell.label());
        }
        // Every cell has its own golden key and its own label (labels
        // feed the grid cache key), so no two cells can share a result.
        let keys: std::collections::HashSet<_> = full
            .iter()
            .map(|c| (c.scenario, c.policy.key(), c.mode(), c.cores))
            .collect();
        assert_eq!(keys.len(), full.len());
        let labels: std::collections::HashSet<_> = full.iter().map(Cell::label).collect();
        assert_eq!(labels.len(), full.len());
    }

    #[test]
    fn policy_keys_round_trip() {
        for kind in PolicyKind::ALL {
            assert_eq!(PolicyKind::from_key(kind.key()), Some(kind));
        }
        assert_eq!(PolicyKind::from_key("nope"), None);
    }

    #[test]
    fn one_cell_runs_and_policy_changes_the_fingerprint() {
        let base = Cell {
            scenario: "paper_fig6",
            policy: PolicyKind::Priority,
            preemptive: true,
            cores: 1,
        };
        let priority = run_cell(base);
        let fifo = run_cell(Cell {
            policy: PolicyKind::Fifo,
            ..base
        });
        assert_ne!(priority.fingerprint.hash, fifo.fingerprint.hash);
        // Figure 6 under its native policy: known pinned facts hold.
        assert_eq!(priority.fingerprint.makespan_ps, 775_000_000);
        assert_eq!(priority.fingerprint.preemptions, 2);
    }

    #[test]
    fn workers_do_not_change_results() {
        let cells = vec![
            Cell {
                scenario: "quickstart",
                policy: PolicyKind::Priority,
                preemptive: true,
                cores: 1,
            },
            Cell {
                scenario: "paper_fig6",
                policy: PolicyKind::Edf,
                preemptive: false,
                cores: 1,
            },
            Cell {
                scenario: "design_space",
                policy: PolicyKind::RoundRobin,
                preemptive: true,
                cores: 1,
            },
        ];
        let serial = run_matrix(&cells, 1);
        let parallel = run_matrix(&cells, 4);
        assert_eq!(serial, parallel);
    }
}
