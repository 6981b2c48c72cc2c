//! The campaign engine: job context, worker pool, report.
//!
//! Work distribution is one shared next-job counter: each worker takes
//! the next unclaimed index with `fetch_add`, runs it, and comes back
//! for another until the counter passes the job count. A worker holds
//! one job at a time, so one expensive job (an MPEG-2 decode among tiny
//! trials) never strands cheap jobs queued behind it. Which worker runs
//! a job is irrelevant to results: each worker returns its outcomes when
//! the pool's scope ends, and [`Campaign::run`] places them by job index
//! — completion order (nondeterministic) never leaks into the report.

use std::iter;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::thread;
use std::time::{Duration, Instant};

use rtsim_kernel::process::describe_panic_payload;
use rtsim_kernel::testutil::Rng;

/// Per-job execution context handed to the job closure.
///
/// The embedded generator is forked from the campaign seed by job index,
/// so every job sees the same stream regardless of which worker runs it
/// or in what order.
#[derive(Debug)]
pub struct JobCtx {
    index: usize,
    campaign_seed: u64,
    worker: usize,
    rng: Rng,
}

impl JobCtx {
    /// This job's global index: `0..jobs` for a plain campaign, offset
    /// by [`Campaign::first_index`] for a shard of a larger grid.
    pub fn index(&self) -> usize {
        self.index
    }

    /// The campaign-level seed every job stream was forked from.
    pub fn campaign_seed(&self) -> u64 {
        self.campaign_seed
    }

    /// Index of the worker thread running this job. **Not deterministic**
    /// across runs — use it for diagnostics only, never to derive
    /// results.
    pub fn worker(&self) -> usize {
        self.worker
    }

    /// This job's private deterministic generator.
    pub fn rng(&mut self) -> &mut Rng {
        &mut self.rng
    }

    /// Forks a named sub-stream of this job's stream — e.g. one stream
    /// per retry attempt, independent of draws already made.
    pub fn fork(&self, stream_id: u64) -> Rng {
        self.rng.fork(stream_id)
    }
}

/// Why a job failed: the captured panic payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobPanic {
    /// The panic message: `&str`/`String` payloads verbatim, anything
    /// else described by `rtsim_kernel::process::describe_panic_payload`.
    pub message: String,
}

impl std::fmt::Display for JobPanic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "job panicked: {}", self.message)
    }
}

impl std::error::Error for JobPanic {}

/// One job's outcome: its value or captured panic, plus wall-clock cost.
#[derive(Debug, Clone)]
pub struct JobOutcome<T> {
    /// The job's global index (see [`JobCtx::index`]).
    pub index: usize,
    /// Wall-clock time this job took on its worker.
    pub wall: Duration,
    /// The produced value, or the captured panic.
    pub result: Result<T, JobPanic>,
}

/// Reads the worker count from `RTSIM_WORKERS`, defaulting to the
/// machine's available parallelism (at least 1).
///
/// An explicit `RTSIM_WORKERS=0` means 1 (serial): a value the user set
/// on purpose must never silently fall back to machine parallelism.
/// Parsing goes through [`crate::env_usize`]: the value is trimmed and
/// an unrecognizable one warns on stderr before falling back.
pub fn workers_from_env() -> usize {
    crate::env_usize("RTSIM_WORKERS")
        .map(|n| n.max(1))
        .unwrap_or_else(|| thread::available_parallelism().map_or(1, |n| n.get()))
}

/// Runs `f` with the campaign pool's panic isolation: a panic is caught
/// and converted into a [`JobPanic`] carrying the payload message
/// instead of unwinding into the caller.
///
/// This is the per-job execution primitive [`Campaign::run`] wraps every
/// job in: one place for the `catch_unwind` dance, so every job's
/// failure is reported the same way and the primitive has its own test.
fn run_isolated<T>(f: impl FnOnce() -> T) -> Result<T, JobPanic> {
    catch_unwind(AssertUnwindSafe(f)).map_err(|payload| JobPanic {
        message: describe_panic_payload(payload.as_ref()),
    })
}

/// A deterministic parallel batch run: N independent jobs fanned out
/// over a worker pool, results aggregated in job-index order.
///
/// See the [crate docs](crate) for the determinism and isolation
/// guarantees.
#[derive(Debug)]
pub struct Campaign {
    name: String,
    seed: u64,
    /// The count set with [`Campaign::workers`], if any.
    workers: Option<usize>,
    first_index: usize,
}

impl Campaign {
    /// Creates a campaign. Worker count defaults to
    /// [`workers_from_env`] (the `RTSIM_WORKERS` knob), read when the
    /// campaign runs.
    pub fn new(name: &str, seed: u64) -> Self {
        Campaign {
            name: name.to_owned(),
            seed,
            workers: None,
            first_index: 0,
        }
    }

    /// Overrides the worker count (clamped to at least 1).
    #[must_use]
    pub fn workers(mut self, workers: usize) -> Self {
        self.workers = Some(workers.max(1));
        self
    }

    /// Makes this campaign a *shard* of a larger run: job indices run
    /// `first..first + jobs` instead of `0..jobs`, and every job's
    /// stream is forked from the campaign seed by its **global** index.
    ///
    /// Splitting `0..N` into contiguous shards with the same seed and
    /// running each as its own campaign therefore yields, concatenated,
    /// exactly the outcomes of the single campaign over `0..N` — shard
    /// boundaries are invisible to results. This is the substrate of
    /// `rtsim-grid`.
    #[must_use]
    pub fn first_index(mut self, first: usize) -> Self {
        self.first_index = first;
        self
    }

    /// Runs `jobs` instances of `job` across the worker pool and
    /// collects every outcome in job-index order.
    ///
    /// The closure receives a [`JobCtx`] carrying the job's private
    /// forked generator. A panicking job is captured as
    /// [`JobPanic`] in its slot; the campaign always completes.
    pub fn run<T, F>(&self, jobs: usize, job: F) -> Report<T>
    where
        T: Send,
        F: Fn(&mut JobCtx) -> T + Send + Sync,
    {
        self.run_on(self.workers.unwrap_or_else(workers_from_env), jobs, job)
    }

    /// [`Campaign::run`] on `workers` workers.
    fn run_on<T, F>(&self, workers: usize, jobs: usize, job: F) -> Report<T>
    where
        T: Send,
        F: Fn(&mut JobCtx) -> T + Send + Sync,
    {
        let started = Instant::now();
        let workers = workers.min(jobs.max(1));
        let root = Rng::seed_from_u64(self.seed);
        // `Relaxed` is enough: the counter publishes no data, its atomic
        // increment alone gives each index to exactly one worker, and the
        // outcomes come back through `join`.
        let next = AtomicUsize::new(0);
        let (job, root, next) = (&job, &root, &next);

        let mut outcomes: Vec<JobOutcome<T>> = thread::scope(|scope| {
            let pool: Vec<_> = (0..workers)
                .map(|worker| {
                    scope.spawn(move || {
                        iter::from_fn(|| {
                            Some(next.fetch_add(1, Ordering::Relaxed)).filter(|&local| local < jobs)
                        })
                        .map(|local| {
                            let index = self.first_index + local;
                            let mut ctx = JobCtx {
                                index,
                                campaign_seed: self.seed,
                                worker,
                                rng: root.fork(index as u64),
                            };
                            let t0 = Instant::now();
                            let result = run_isolated(|| job(&mut ctx));
                            JobOutcome {
                                index,
                                wall: t0.elapsed(),
                                result,
                            }
                        })
                        .collect::<Vec<_>>()
                    })
                })
                .collect();
            pool.into_iter()
                .flat_map(|worker| worker.join().expect("job panics are caught per job"))
                .collect()
        });
        outcomes.sort_unstable_by_key(|o| o.index);

        Report {
            name: self.name.clone(),
            seed: self.seed,
            workers,
            wall: started.elapsed(),
            outcomes,
        }
    }

    /// Runs the campaign twice — once on a single worker, once on the
    /// configured pool — asserts the values are identical, and returns
    /// both wall times. This is the "trust but verify" entry point the
    /// bench harnesses use to print serial-vs-parallel wall time.
    ///
    /// # Panics
    ///
    /// Panics if the serial and parallel runs disagree on any job's
    /// value or failure — that would mean a job broke the determinism
    /// contract (e.g. read ambient state instead of its [`JobCtx`]).
    pub fn run_vs_serial<T, F>(&self, jobs: usize, job: F) -> Comparison<T>
    where
        T: Send + PartialEq,
        F: Fn(&mut JobCtx) -> T + Send + Sync,
    {
        let workers = self.workers.unwrap_or_else(workers_from_env);
        let serial = self.run_on(1, jobs, &job);
        if workers == 1 {
            return Comparison {
                serial_wall: serial.wall,
                parallel_wall: serial.wall,
                report: serial,
            };
        }
        let parallel = self.run_on(workers, jobs, &job);
        for (s, p) in serial.outcomes.iter().zip(&parallel.outcomes) {
            match (&s.result, &p.result) {
                (Ok(a), Ok(b)) if a == b => {}
                (Err(_), Err(_)) => {}
                _ => panic!(
                    "campaign `{}` job {} diverged between 1 and {workers} workers",
                    self.name, s.index
                ),
            }
        }
        Comparison {
            serial_wall: serial.wall,
            parallel_wall: parallel.wall,
            report: parallel,
        }
    }
}

/// Serial-vs-parallel comparison produced by [`Campaign::run_vs_serial`].
#[derive(Debug)]
pub struct Comparison<T> {
    /// The (parallel) campaign report.
    pub report: Report<T>,
    /// Wall time of the single-worker run.
    pub serial_wall: Duration,
    /// Wall time of the configured-pool run.
    pub parallel_wall: Duration,
}

impl<T> Comparison<T> {
    /// Serial wall divided by parallel wall.
    pub fn speedup(&self) -> f64 {
        let p = self.parallel_wall.as_secs_f64();
        if p > 0.0 {
            self.serial_wall.as_secs_f64() / p
        } else {
            0.0
        }
    }
}

/// Aggregated outcome of a campaign: every job's result in index order,
/// plus identifying metadata and wall-clock totals.
#[derive(Debug, Clone)]
pub struct Report<T> {
    /// Campaign name (used in diagnostics and output files).
    pub name: String,
    /// The campaign seed all job streams were forked from.
    pub seed: u64,
    /// Worker count actually used.
    pub workers: usize,
    /// Total campaign wall time.
    pub wall: Duration,
    /// Every job's outcome, in job-index order.
    pub outcomes: Vec<JobOutcome<T>>,
}

impl<T> Report<T> {
    /// Values of the successful jobs, in job-index order.
    pub fn values(&self) -> impl Iterator<Item = &T> + '_ {
        self.outcomes.iter().filter_map(|o| o.result.as_ref().ok())
    }

    /// Failed jobs as `(index, panic)` pairs, in job-index order.
    pub fn failures(&self) -> impl Iterator<Item = (usize, &JobPanic)> + '_ {
        self.outcomes
            .iter()
            .filter_map(|o| o.result.as_ref().err().map(|p| (o.index, p)))
    }

    /// Number of successful jobs.
    pub fn ok_count(&self) -> usize {
        self.outcomes.iter().filter(|o| o.result.is_ok()).count()
    }

    /// Number of panicked jobs.
    pub fn failed_count(&self) -> usize {
        self.outcomes.len() - self.ok_count()
    }

    /// Consumes the report, returning every value if all jobs succeeded,
    /// or the first failure as `(index, panic)`.
    pub fn into_values(self) -> Result<Vec<T>, (usize, JobPanic)> {
        self.outcomes
            .into_iter()
            .map(|o| o.result.map_err(|p| (o.index, p)))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_arrive_in_index_order_with_many_workers() {
        let report = Campaign::new("order", 1)
            .workers(8)
            .run(50, |ctx| ctx.index());
        let values: Vec<usize> = report.values().copied().collect();
        assert_eq!(values, (0..50).collect::<Vec<_>>());
        assert_eq!(report.workers, 8);
    }

    #[test]
    fn an_explicit_worker_count_is_the_one_that_runs_and_is_reported() {
        // One more than the machine default, so the default cannot pass.
        let n = thread::available_parallelism().map_or(1, |n| n.get()) + 1;
        let started = AtomicUsize::new(0);
        let report = Campaign::new("explicit", 1).workers(n).run(n, |ctx| {
            // Each job waits until all `n` have started, so they end on
            // `n` workers only if `n` ran at once.
            started.fetch_add(1, Ordering::SeqCst);
            let deadline = Instant::now() + Duration::from_secs(10);
            while started.load(Ordering::SeqCst) < n && Instant::now() < deadline {
                thread::yield_now();
            }
            ctx.worker()
        });
        assert_eq!(report.workers, n);
        let mut workers: Vec<usize> = report.values().copied().collect();
        workers.sort_unstable();
        assert_eq!(workers, (0..n).collect::<Vec<_>>());
    }

    #[test]
    fn run_isolated_catches_panics_and_passes_values() {
        assert_eq!(run_isolated(|| 41 + 1), Ok(42));
        let err = run_isolated(|| -> u32 { panic!("boom {}", 7) }).unwrap_err();
        assert_eq!(err.message, "boom 7");
        let err = run_isolated(|| std::panic::panic_any(42u32)).unwrap_err();
        assert_eq!(err.message, "non-string panic payload: 42 (u32)");
    }

    #[test]
    fn zero_jobs_is_an_empty_report() {
        let report = Campaign::new("empty", 1).run(0, |_| 1u8);
        assert!(report.outcomes.is_empty());
        assert_eq!(report.ok_count(), 0);
    }

    #[test]
    fn workers_from_env_parses_and_defaults() {
        // NB: env mutation is process-global; keep both cases in one test
        // so they cannot race each other in the parallel test harness.
        std::env::set_var("RTSIM_WORKERS", "3");
        assert_eq!(workers_from_env(), 3);
        // An explicit 0 means serial — exactly 1, never the machine
        // fallback (which would make the setting silently surprising).
        std::env::set_var("RTSIM_WORKERS", "0");
        assert_eq!(workers_from_env(), 1);
        // Whitespace around an explicit count is tolerated.
        std::env::set_var("RTSIM_WORKERS", " 4\n");
        assert_eq!(workers_from_env(), 4);
        // Garbage is not an explicit count: machine fallback applies
        // (after a one-time stderr warning from env_usize).
        std::env::set_var("RTSIM_WORKERS", "lots");
        assert!(workers_from_env() >= 1);
        std::env::remove_var("RTSIM_WORKERS");
        assert!(workers_from_env() >= 1);
    }

    #[test]
    fn first_index_shards_reproduce_the_unsharded_run() {
        let job = |ctx: &mut JobCtx| (ctx.index(), ctx.rng().next_u64());
        let whole = Campaign::new("whole", 77).workers(4).run(10, job);
        let head = Campaign::new("head", 77).workers(2).run(6, job);
        let tail = Campaign::new("tail", 77)
            .workers(3)
            .first_index(6)
            .run(4, job);
        let merged: Vec<_> = head.values().chain(tail.values()).copied().collect();
        assert_eq!(whole.values().copied().collect::<Vec<_>>(), merged);
        // Outcome indices are global in the offset shard.
        assert_eq!(tail.outcomes[0].index, 6);
        assert_eq!(tail.outcomes[3].index, 9);
    }
}
