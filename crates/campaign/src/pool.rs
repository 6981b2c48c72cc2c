//! The campaign engine: job context, worker pool, report.
//!
//! Work distribution is per-worker deques with work stealing: each
//! worker starts with a contiguous block of job indices and pops from
//! its own front; a worker that drains its deque steals from the *back*
//! of a sibling's, so one expensive job (an MPEG-2 decode among tiny
//! trials) never strands the cheap jobs queued behind it the way the old
//! chunked self-scheduling could. Which worker runs a job is still
//! irrelevant to results: completions flow back over a
//! `std::sync::mpsc` channel to a collector that stores them by job
//! index — arrival order (nondeterministic) never leaks into the report.

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc;
use std::thread;
use std::time::{Duration, Instant};

use rtsim_kernel::sync::Mutex;
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
    /// The panic message (`&str`/`String` payloads; otherwise a
    /// placeholder).
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
        message: panic_message(payload.as_ref()),
    })
}

/// Per-worker job deques with work stealing.
///
/// Construction deals `0..jobs` (local indices) into `workers`
/// contiguous blocks, front-loaded like `shard_range` in `rtsim-grid`.
/// A worker pops its own deque at the *front* (preserving ascending
/// index order, which keeps RNG-stream locality); a worker whose deque
/// is empty steals from the *back* of the first non-empty sibling,
/// scanning round-robin from its right neighbour. Because all work is
/// enqueued up front and never re-added, a full scan that finds every
/// deque empty is a stable termination condition — a job popped but
/// still executing belongs to exactly one worker and cannot be lost.
struct WorkQueues {
    queues: Vec<Mutex<VecDeque<usize>>>,
}

impl WorkQueues {
    /// Deals `jobs` local indices into `workers` contiguous deques (the
    /// first `jobs % workers` deques get one extra index).
    fn new(jobs: usize, workers: usize) -> Self {
        let workers = workers.max(1);
        let base = jobs / workers;
        let extra = jobs % workers;
        let mut start = 0;
        let queues = (0..workers)
            .map(|w| {
                let len = base + usize::from(w < extra);
                let queue = (start..start + len).collect();
                start += len;
                Mutex::new(queue)
            })
            .collect();
        WorkQueues { queues }
    }

    /// The next job for `worker`: its own front, else a steal from a
    /// sibling's back, else `None` (every deque is drained).
    fn next(&self, worker: usize) -> Option<usize> {
        if let Some(index) = self.queues[worker].lock().pop_front() {
            return Some(index);
        }
        for offset in 1..self.queues.len() {
            let victim = (worker + offset) % self.queues.len();
            if let Some(index) = self.queues[victim].lock().pop_back() {
                return Some(index);
            }
        }
        None
    }
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
    workers: usize,
    first_index: usize,
}

impl Campaign {
    /// Creates a campaign. Worker count defaults to
    /// [`workers_from_env`] (the `RTSIM_WORKERS` knob).
    pub fn new(name: &str, seed: u64) -> Self {
        Campaign {
            name: name.to_owned(),
            seed,
            workers: workers_from_env(),
            first_index: 0,
        }
    }

    /// Overrides the worker count (clamped to at least 1).
    #[must_use]
    pub fn workers(mut self, workers: usize) -> Self {
        self.workers = workers.max(1);
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
        let started = Instant::now();
        let workers = self.workers.min(jobs.max(1));
        let root = Rng::seed_from_u64(self.seed);
        let queues = WorkQueues::new(jobs, workers);
        let (tx, rx) = mpsc::channel::<JobOutcome<T>>();
        let job = &job;
        let root = &root;
        let queues = &queues;

        let mut slots: Vec<Option<JobOutcome<T>>> = Vec::new();
        slots.resize_with(jobs, || None);

        thread::scope(|scope| {
            for worker in 0..workers {
                let tx = tx.clone();
                scope.spawn(move || {
                    while let Some(local) = queues.next(worker) {
                        let index = self.first_index + local;
                        let mut ctx = JobCtx {
                            index,
                            campaign_seed: self.seed,
                            worker,
                            rng: root.fork(index as u64),
                        };
                        let t0 = Instant::now();
                        let result = run_isolated(|| job(&mut ctx));
                        let outcome = JobOutcome {
                            index,
                            wall: t0.elapsed(),
                            result,
                        };
                        if tx.send(outcome).is_err() {
                            return; // collector gone; nothing to report to
                        }
                    }
                });
            }
            drop(tx);

            // Collector: arrival order is nondeterministic; slots are
            // keyed by index.
            for _ in 0..jobs {
                let outcome = rx.recv().expect("workers ended before finishing all jobs");
                let slot = outcome.index - self.first_index;
                slots[slot] = Some(outcome);
            }
        });

        Report {
            name: self.name.clone(),
            seed: self.seed,
            workers,
            wall: started.elapsed(),
            outcomes: slots
                .into_iter()
                .map(|s| s.expect("every job slot filled"))
                .collect(),
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
        let serial = Campaign {
            name: self.name.clone(),
            seed: self.seed,
            workers: 1,
            first_index: self.first_index,
        }
        .run(jobs, &job);
        if self.workers == 1 {
            return Comparison {
                serial_wall: serial.wall,
                parallel_wall: serial.wall,
                report: serial,
            };
        }
        let parallel = self.run(jobs, &job);
        for (s, p) in serial.outcomes.iter().zip(&parallel.outcomes) {
            match (&s.result, &p.result) {
                (Ok(a), Ok(b)) if a == b => {}
                (Err(_), Err(_)) => {}
                _ => panic!(
                    "campaign `{}` job {} diverged between 1 and {} workers",
                    self.name, s.index, self.workers
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

/// Extracts a human-readable message from a panic payload.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_owned()
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
        let report = Campaign::new("order", 1).workers(8).run(50, |ctx| ctx.index());
        let values: Vec<usize> = report.values().copied().collect();
        assert_eq!(values, (0..50).collect::<Vec<_>>());
        assert_eq!(report.workers, 8);
    }

    #[test]
    fn work_queues_deal_contiguous_front_loaded_blocks() {
        let q = WorkQueues::new(11, 4);
        let drain = |w: usize| -> Vec<usize> {
            let mut out = Vec::new();
            while let Some(i) = q.queues[w].lock().pop_front() {
                out.push(i);
            }
            out
        };
        assert_eq!(drain(0), vec![0, 1, 2]);
        assert_eq!(drain(1), vec![3, 4, 5]);
        assert_eq!(drain(2), vec![6, 7, 8]);
        assert_eq!(drain(3), vec![9, 10]);
    }

    #[test]
    fn work_queues_yield_every_index_exactly_once_with_stealing() {
        // Pull everything through a single thread, interleaving owner
        // pops and steals: each index must surface exactly once and the
        // drained state must be stable (every subsequent pull is None).
        let q = WorkQueues::new(10, 3);
        let mut seen = Vec::new();
        // Drain worker 2's own deque first so its later pulls are steals.
        while let Some(i) = q.next(2) {
            seen.push(i);
            if seen.len() == 7 {
                break;
            }
        }
        for w in [0, 1, 2, 0, 1, 2] {
            if let Some(i) = q.next(w) {
                seen.push(i);
            }
        }
        assert_eq!(q.next(0), None);
        assert_eq!(q.next(1), None);
        seen.sort_unstable();
        assert_eq!(seen, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn thieves_take_from_the_back_owners_from_the_front() {
        let q = WorkQueues::new(6, 2); // deques: [0,1,2], [3,4,5]
        assert_eq!(q.next(0), Some(0)); // owner: front
        // Drain worker 1's own deque, then make it steal from worker 0.
        assert_eq!(q.next(1), Some(3));
        assert_eq!(q.next(1), Some(4));
        assert_eq!(q.next(1), Some(5));
        assert_eq!(q.next(1), Some(2)); // thief: back of worker 0
        assert_eq!(q.next(0), Some(1)); // owner unaffected at the front
        assert_eq!(q.next(0), None);
        assert_eq!(q.next(1), None);
    }

    #[test]
    fn run_isolated_catches_panics_and_passes_values() {
        assert_eq!(run_isolated(|| 41 + 1), Ok(42));
        let err = run_isolated(|| -> u32 { panic!("boom {}", 7) }).unwrap_err();
        assert_eq!(err.message, "boom 7");
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
        let tail = Campaign::new("tail", 77).workers(3).first_index(6).run(4, job);
        let merged: Vec<_> = head.values().chain(tail.values()).copied().collect();
        assert_eq!(whole.values().copied().collect::<Vec<_>>(), merged);
        // Outcome indices are global in the offset shard.
        assert_eq!(tail.outcomes[0].index, 6);
        assert_eq!(tail.outcomes[3].index, 9);
    }
}
