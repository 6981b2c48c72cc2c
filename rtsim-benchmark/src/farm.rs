//! `farm_segment` and `farm_thread`: one pass sweeps the full golden
//! matrix through the grid pool (no cache, 2 workers) in one exec mode,
//! in a cell order the seed permutes afresh for every pass.

use std::collections::HashMap;
use std::sync::Mutex;

use rtsim::farm::registry::{full_matrix, scenario_by_name};
use rtsim::farm::{
    fingerprint, goldens_path, parse_line, run_cell_with_mode, Cell, CellResult, FARM_SEED,
};
use rtsim::kernel::testutil::Rng;
use rtsim::{ExecMode, Grid, GridReport, SimTime, SystemModel};

use crate::gauge::Gauge;
use crate::probe::{add_system_counts, bump, check_modes, dissect, shuffled, Counts};
use crate::spans::Tracer;
use crate::{Checks, Layers, Load, Pass, WORKERS};

/// The pinned golden line and decoded result of every matrix cell.
pub(crate) struct Goldens {
    by_label: HashMap<String, (String, CellResult)>,
}

impl Goldens {
    /// Reads `tests/goldens/farm.jsonl`, decoding each line with
    /// `farm::parse_line`.
    pub(crate) fn load() -> Result<Self, String> {
        let path = goldens_path();
        let text = std::fs::read_to_string(&path)
            .map_err(|e| format!("cannot read goldens {}: {e}", path.display()))?;
        let mut by_label = HashMap::new();
        for line in text.lines().filter(|l| !l.trim().is_empty()) {
            let result =
                parse_line(line).ok_or_else(|| format!("unparseable golden line: {line}"))?;
            by_label.insert(result.cell.label(), (line.to_owned(), result));
        }
        Ok(Goldens { by_label })
    }

    /// The golden result of `cell`.
    pub(crate) fn result(&self, cell: &Cell) -> Option<&CellResult> {
        self.by_label.get(&cell.label()).map(|(_, r)| r)
    }

    /// The golden line of `cell`.
    pub(crate) fn line(&self, cell: &Cell) -> Option<&str> {
        self.by_label.get(&cell.label()).map(|(l, _)| l.as_str())
    }

    /// Checks that a sweep over `cells` produced, at each index, that
    /// cell's golden record and byte-identical golden line.
    pub(crate) fn check(
        &self,
        cells: &[Cell],
        report: &GridReport<CellResult>,
        checks: &mut Checks,
    ) {
        checks.check(report.records.len() == cells.len(), || {
            format!(
                "sweep returned {} records for {} cells",
                report.records.len(),
                cells.len()
            )
        });
        for ((cell, record), line) in cells.iter().zip(&report.records).zip(&report.lines) {
            let ok = record.cell == *cell
                && self.result(cell) == Some(record)
                && self.line(cell) == Some(line.as_str());
            checks.check(ok, || {
                format!("cell {}: output differs from its golden line", cell.label())
            });
        }
    }
}

/// The pool every sweep runs on: no cache, one shard, [`WORKERS`] workers.
pub(crate) fn pool() -> Grid {
    Grid::new("rtsim-benchmark", FARM_SEED)
        .no_cache()
        .shards(1)
        .workers(WORKERS)
}

/// A cell's model, exactly as `farm::run_cell_with_mode` builds it.
pub(crate) fn cell_model(cell: Cell, mode: ExecMode) -> SystemModel {
    let scenario = scenario_by_name(cell.scenario).expect("registered scenario");
    let mut model = (scenario.build)(cell.cores);
    model.override_schedulers(cell.preemptive, |_| cell.policy.make());
    model.exec_mode(mode);
    model
}

/// The instant a cell's run stops at: its scenario's hang guard.
pub(crate) fn cell_horizon(cell: Cell) -> SimTime {
    SimTime::ZERO
        + scenario_by_name(cell.scenario)
            .expect("registered scenario")
            .horizon
}

/// Sweeps `cells` through `grid`. Untraced, each job is
/// `farm::run_cell_with_mode`; traced, the same steps are made one public
/// call at a time under spans, and each job's counters go into `tally`.
pub(crate) fn sweep(
    cells: &[Cell],
    mode: ExecMode,
    grid: Grid,
    tracer: &Tracer,
    parent: u64,
    tally: &Mutex<Counts>,
) -> GridReport<CellResult> {
    grid.run(
        cells.len(),
        |i| cells[i].label(),
        |ctx| {
            let cell = cells[ctx.index()];
            if !tracer.is_on() {
                return run_cell_with_mode(cell, mode);
            }
            tracer.span("job", parent, |job| {
                let model = tracer.span("mcse.build", job, |_| cell_model(cell, mode));
                let mut system = tracer.span("mcse.elaborate", job, |_| {
                    model.elaborate().expect("scenario elaborates")
                });
                tracer
                    .span("sim.run_until", job, |_| {
                        system.run_until(cell_horizon(cell))
                    })
                    .expect("scenario runs");
                let fingerprint = tracer.span("farm.fingerprint", job, |_| fingerprint(&system));
                add_system_counts(&mut tally.lock().expect("tally poisoned"), &system);
                CellResult { cell, fingerprint }
            })
        },
    )
}

/// The counters a sweep's records carry, for untraced sweeps (traced
/// sweeps read the same numbers from the systems themselves).
pub(crate) fn record_counts(counts: &mut Counts, records: &[CellResult]) {
    for r in records {
        bump(counts, "trace.records", r.fingerprint.events);
        bump(counts, "core.dispatches", r.fingerprint.dispatches);
        bump(counts, "core.preemptions", r.fingerprint.preemptions);
        bump(
            counts,
            "core.deadline_misses",
            r.fingerprint.deadline_misses,
        );
    }
}

struct Farm {
    mode: ExecMode,
    cells: Vec<Cell>,
    goldens: Goldens,
    rng: Rng,
}

pub(crate) fn setup_segment(seed: u64) -> Result<Box<dyn Load>, String> {
    setup(seed, ExecMode::Segment)
}

pub(crate) fn setup_thread(seed: u64) -> Result<Box<dyn Load>, String> {
    setup(seed, ExecMode::Thread)
}

fn setup(seed: u64, mode: ExecMode) -> Result<Box<dyn Load>, String> {
    Ok(Box::new(Farm {
        mode,
        cells: full_matrix(),
        goldens: Goldens::load()?,
        rng: Rng::seed_from_u64(seed),
    }))
}

impl Load for Farm {
    fn pass(
        &mut self,
        tracer: &Tracer,
        parent: u64,
        gauge: &mut Gauge,
        checks: &mut Checks,
    ) -> Pass {
        let cells = shuffled(&self.cells, &mut self.rng);
        let tally = Mutex::new(Counts::new());
        let (report, time) = gauge.time(|| {
            tracer.span("grid.run", parent, |id| {
                sweep(&cells, self.mode, pool(), tracer, id, &tally)
            })
        });
        self.goldens.check(&cells, &report, checks);

        let mut counts = tally.into_inner().expect("tally poisoned");
        if counts.is_empty() {
            record_counts(&mut counts, &report.records);
        }
        bump(&mut counts, "campaign.jobs", cells.len() as u64);
        let busy: f64 = report.job_walls.iter().map(|w| w.as_secs_f64()).sum();
        Pass {
            time,
            items: cells.len() as u64,
            events: counts["trace.records"],
            busy: Some((busy, report.wall.as_secs_f64())),
            counts,
            ..Pass::default()
        }
    }

    fn finish(&mut self, tracer: &Tracer, checks: &mut Checks, split: &mut Counts, _: &mut Layers) {
        if !tracer.is_on() {
            return;
        }
        for &cell in &self.cells {
            let d = dissect(
                &|mode| cell_model(cell, mode),
                cell_horizon(cell),
                tracer,
                0,
                split,
            );
            check_modes(&cell.label(), &d, checks);
            let golden = self.goldens.result(&cell).map(|g| g.fingerprint);
            checks.check(golden == Some(d.segment), || {
                format!(
                    "cell {}: the dissected run differs from its golden",
                    cell.label()
                )
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::probe::Dissected;

    /// A small untraced sweep over the first cells of the matrix.
    fn small_sweep(cells: &[Cell]) -> GridReport<CellResult> {
        let tally = Mutex::new(Counts::new());
        sweep(
            cells,
            ExecMode::Segment,
            pool(),
            &Tracer::default(),
            0,
            &tally,
        )
    }

    #[test]
    fn the_golden_oracle_flags_a_wrong_record_or_line() {
        let goldens = Goldens::load().unwrap();
        let cells: Vec<Cell> = full_matrix().into_iter().take(3).collect();
        let report = small_sweep(&cells);
        let mut checks = Checks::default();
        goldens.check(&cells, &report, &mut checks);
        assert_eq!(
            (checks.attempted, checks.failed),
            (4, 0),
            "{:?}",
            checks.messages
        );

        let mut wrong_hash = report.clone();
        wrong_hash.records[1].fingerprint.hash ^= 1;
        goldens.check(&cells, &wrong_hash, &mut checks);
        assert_eq!(checks.failed, 1);

        let mut wrong_line = report.clone();
        wrong_line.lines[2].push(' ');
        goldens.check(&cells, &wrong_line, &mut checks);
        assert_eq!(checks.failed, 2);

        // Results in another order than the cells asked for.
        let swapped: Vec<Cell> = [cells[1], cells[0], cells[2]].to_vec();
        goldens.check(&swapped, &report, &mut checks);
        assert_eq!(checks.failed, 4);
    }

    #[test]
    fn the_exec_mode_oracle_flags_differing_fingerprints() {
        let cell = full_matrix()[0];
        let d = dissect(
            &|mode| cell_model(cell, mode),
            cell_horizon(cell),
            &Tracer::default(),
            0,
            &mut Counts::new(),
        );
        let mut checks = Checks::default();
        check_modes("cell", &d, &mut checks);
        assert_eq!(checks.failed, 0);
        let mut thread = d.thread;
        thread.preemptions += 1;
        check_modes("cell", &Dissected { thread, ..d }, &mut checks);
        assert_eq!(checks.failed, 1);
    }
}
