//! The simulation service: accept loop, handler pool, simulation worker
//! pool, and the shared job/result state they communicate through.
//!
//! # Request lifecycle
//!
//! A connection is accepted on the listener thread and handed to one of
//! the handler threads over a channel. The handler parses the request
//! ([`crate::http`]), routes it, writes one `Connection: close` response
//! and drops the socket. `POST /v1/jobs` resolves its body against the
//! farm registry ([`rtsim_farm::spec`]), derives the job's
//! `grid-cache-v1` key, and then takes the cheapest of three paths:
//!
//! 1. **cache hit** — the result is already in the in-memory index or
//!    the on-disk [`CacheStore`]: the job is born `done` and the
//!    response carries `"cache_hit":true` plus the result record;
//! 2. **coalesce** — the same key is already queued or running: the new
//!    job id joins its waiter list and completes when the one
//!    simulation does, without re-running anything;
//! 3. **miss** — a work item is queued for the simulation workers
//!    (bounded by the queue cap; over it the server answers `503`).
//!
//! Workers run each cell in a panic isolation cell
//! ([`rtsim_campaign::run_isolated`]), render the canonical golden line
//! ([`rtsim_farm::golden::render_line`]) — byte-identical to what a
//! one-shot `rtsim-farm`/`rtsim-grid` sweep writes — publish it to the
//! in-memory index and the disk cache, and mark every waiter done.
//!
//! # Shutdown protocol
//!
//! `POST /v1/shutdown` (or [`ServerHandle::shutdown`]) flips the
//! shutdown flag, drops the work sender so workers drain the queue and
//! exit on `Disconnected`, and self-connects once to wake the blocking
//! `accept()`. The accept loop sees the flag, exits, and drops the
//! connection sender, so handlers finish in-flight responses and exit
//! the same way. [`ServerHandle::wait`] joins everything.

use std::collections::HashMap;
use std::net::{Ipv4Addr, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use rtsim_campaign::json::Json;
use rtsim_campaign::{
    env_u16, env_usize, nearest_rank_index, run_isolated, workers_from_env,
};
use rtsim_farm::registry::run_cell;
use rtsim_farm::spec::{self, ResolvedJob};
use rtsim_farm::{golden, Cell};
use rtsim_grid::CacheStore;
use rtsim_kernel::sync::{unbounded, Mutex, Receiver, RecvTimeoutError, Sender};

/// Environment variable selecting the listen port. `0` asks the OS for
/// an ephemeral port; the binary prints the real bound address in its
/// `rtsim-serve listening on ...` banner so callers can discover it,
/// and [`ServerHandle::addr`] reports it in-process.
pub const PORT_ENV: &str = "RTSIM_SERVE_PORT";
/// Environment variable sizing the simulation worker pool.
pub const WORKERS_ENV: &str = "RTSIM_SERVE_WORKERS";
/// Environment variable sizing the connection handler pool.
pub const HANDLERS_ENV: &str = "RTSIM_SERVE_HANDLERS";
/// Environment variable bounding the pending-work queue.
pub const QUEUE_ENV: &str = "RTSIM_SERVE_QUEUE";

/// How long blocked loops wait between shutdown-flag checks.
const POLL: Duration = Duration::from_millis(50);
/// Per-connection socket read/write timeout.
const CONN_TIMEOUT: Duration = Duration::from_secs(10);

/// Server configuration; [`ServeConfig::from_env`] is the binary's view,
/// tests construct it directly with an ephemeral port.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Listen port on loopback; `0` binds an ephemeral port.
    pub port: u16,
    /// Simulation worker threads.
    pub workers: usize,
    /// Connection handler threads.
    pub handlers: usize,
    /// Maximum queued-or-running distinct simulations before `503`.
    pub queue_cap: usize,
    /// Optional persistent result cache shared with `rtsim-grid`.
    pub cache: Option<CacheStore>,
}

impl ServeConfig {
    /// Configuration from the environment: [`PORT_ENV`] (default 2004,
    /// for the paper's conference year), [`WORKERS_ENV`] (default: the
    /// campaign pool's `RTSIM_WORKERS`/parallelism heuristic),
    /// [`HANDLERS_ENV`] (default 4), [`QUEUE_ENV`] (default 1024), and
    /// the grid's `RTSIM_GRID_CACHE`. Garbage values warn once and fall
    /// back to the defaults; nothing here panics.
    pub fn from_env() -> ServeConfig {
        ServeConfig {
            port: env_u16(PORT_ENV).unwrap_or(2004),
            workers: env_usize(WORKERS_ENV)
                .filter(|&w| w > 0)
                .unwrap_or_else(workers_from_env),
            handlers: env_usize(HANDLERS_ENV).filter(|&h| h > 0).unwrap_or(4),
            queue_cap: env_usize(QUEUE_ENV).filter(|&q| q > 0).unwrap_or(1024),
            cache: CacheStore::from_env(),
        }
    }
}

/// Where a job is in its lifecycle.
#[derive(Debug, Clone, PartialEq, Eq)]
enum JobStatus {
    Queued,
    Running,
    Done,
    Failed(String),
}

impl JobStatus {
    fn key(&self) -> &'static str {
        match self {
            JobStatus::Queued => "queued",
            JobStatus::Running => "running",
            JobStatus::Done => "done",
            JobStatus::Failed(_) => "failed",
        }
    }
}

/// One accepted job, visible at `GET /v1/jobs/<id>`.
#[derive(Debug, Clone)]
struct JobRecord {
    cell: Cell,
    key: u64,
    status: JobStatus,
    cache_hit: bool,
    result: Option<String>,
}

/// The result index: completed golden lines by cache key, plus the
/// waiter lists of keys currently queued or running. One lock because
/// the two maps must transition together (a key leaves `pending` in the
/// same critical section its line enters `results`).
#[derive(Debug, Default)]
struct ResultIndex {
    results: HashMap<u64, String>,
    pending: HashMap<u64, Vec<u64>>,
}

/// Service counters, all monotonically increasing except `queue_depth`.
#[derive(Debug, Default)]
struct Metrics {
    jobs_accepted: AtomicU64,
    jobs_completed: AtomicU64,
    jobs_failed: AtomicU64,
    jobs_coalesced: AtomicU64,
    cache_hits: AtomicU64,
    cache_misses: AtomicU64,
    queue_depth: AtomicU64,
    service_ns: Mutex<Vec<u64>>,
}

/// State shared by every thread of one server instance.
struct Shared {
    addr: SocketAddr,
    queue_cap: usize,
    cache: Option<CacheStore>,
    next_id: AtomicU64,
    jobs: Mutex<HashMap<u64, JobRecord>>,
    index: Mutex<ResultIndex>,
    metrics: Metrics,
    /// Taken (dropped) at shutdown so workers drain then disconnect.
    job_tx: Mutex<Option<Sender<WorkItem>>>,
    shutdown: AtomicBool,
}

/// One unit of simulation work: a resolved cell plus its cache key.
struct WorkItem {
    key: u64,
    job: ResolvedJob,
}

/// A running server: its bound address plus the threads to join.
pub struct ServerHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
    threads: Vec<std::thread::JoinHandle<()>>,
}

impl ServerHandle {
    /// The bound loopback address (meaningful with an ephemeral port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Triggers the shutdown protocol (idempotent, returns immediately).
    pub fn shutdown(&self) {
        trigger_shutdown(&self.shared);
    }

    /// Blocks until every server thread has exited — forever, unless
    /// [`shutdown`](Self::shutdown) is called or a client posts
    /// `/v1/shutdown`.
    pub fn wait(self) {
        for t in self.threads {
            let _ = t.join();
        }
    }
}

/// Binds the listener and spawns the worker, handler, and accept
/// threads.
///
/// # Errors
///
/// Propagates the bind failure (port in use, no loopback).
pub fn start(config: ServeConfig) -> std::io::Result<ServerHandle> {
    let listener = TcpListener::bind((Ipv4Addr::LOCALHOST, config.port))?;
    let addr = listener.local_addr()?;

    let (job_tx, job_rx) = unbounded::<WorkItem>();
    let (conn_tx, conn_rx) = unbounded::<TcpStream>();
    let shared = Arc::new(Shared {
        addr,
        queue_cap: config.queue_cap,
        cache: config.cache,
        next_id: AtomicU64::new(0),
        jobs: Mutex::new(HashMap::new()),
        index: Mutex::new(ResultIndex::default()),
        metrics: Metrics::default(),
        job_tx: Mutex::new(Some(job_tx)),
        shutdown: AtomicBool::new(false),
    });

    // mpsc receivers are single-consumer; the pools share one through a
    // mutex, serialising only the *wait*, never the work.
    let job_rx = Arc::new(Mutex::new(job_rx));
    let conn_rx = Arc::new(Mutex::new(conn_rx));

    let mut threads = Vec::new();
    for i in 0..config.workers.max(1) {
        let shared = Arc::clone(&shared);
        let rx = Arc::clone(&job_rx);
        threads.push(
            std::thread::Builder::new()
                .name(format!("rtsim-serve-worker-{i}"))
                .spawn(move || worker_loop(&shared, &rx))
                .expect("spawn worker thread"),
        );
    }
    for i in 0..config.handlers.max(1) {
        let shared = Arc::clone(&shared);
        let rx = Arc::clone(&conn_rx);
        threads.push(
            std::thread::Builder::new()
                .name(format!("rtsim-serve-handler-{i}"))
                .spawn(move || handler_loop(&shared, &rx))
                .expect("spawn handler thread"),
        );
    }
    {
        let shared = Arc::clone(&shared);
        threads.push(
            std::thread::Builder::new()
                .name("rtsim-serve-accept".into())
                .spawn(move || accept_loop(&listener, &conn_tx, &shared))
                .expect("spawn accept thread"),
        );
    }

    Ok(ServerHandle {
        addr,
        shared,
        threads,
    })
}

/// The idempotent shutdown trigger; see the module docs for the
/// protocol.
fn trigger_shutdown(shared: &Shared) {
    if shared.shutdown.swap(true, Ordering::SeqCst) {
        return;
    }
    drop(shared.job_tx.lock().take());
    // Wake the blocking accept(); the accepted probe connection is
    // dropped unanswered.
    let _ = TcpStream::connect(shared.addr);
}

fn accept_loop(listener: &TcpListener, conn_tx: &Sender<TcpStream>, shared: &Shared) {
    loop {
        match listener.accept() {
            Ok((stream, _)) => {
                if shared.shutdown.load(Ordering::SeqCst) {
                    break;
                }
                if conn_tx.send(stream).is_err() {
                    break;
                }
            }
            Err(e) => {
                if shared.shutdown.load(Ordering::SeqCst) {
                    break;
                }
                eprintln!("rtsim-serve: accept failed: {e}");
            }
        }
    }
    // conn_tx drops here; handlers drain in-flight connections and exit.
}

fn handler_loop(shared: &Arc<Shared>, conn_rx: &Mutex<Receiver<TcpStream>>) {
    loop {
        let next = conn_rx.lock().recv_timeout(POLL);
        match next {
            Ok(stream) => handle_connection(shared, &stream),
            Err(RecvTimeoutError::Timeout) => continue,
            Err(RecvTimeoutError::Disconnected) => break,
        }
    }
}

fn handle_connection(shared: &Arc<Shared>, stream: &TcpStream) {
    let _ = stream.set_read_timeout(Some(CONN_TIMEOUT));
    let _ = stream.set_write_timeout(Some(CONN_TIMEOUT));
    let mut reader = std::io::BufReader::new(stream);
    let (status, body, wants_shutdown) = match crate::http::parse_request(&mut reader) {
        Ok(req) => route(shared, &req),
        Err(crate::http::HttpError::ConnectionClosed) => return,
        Err(e) => (e.status(), error_body(&e.message()), false),
    };
    let mut writer = stream;
    let _ = crate::http::write_response(&mut writer, status, &body);
    if wants_shutdown {
        trigger_shutdown(shared);
    }
}

fn error_body(message: &str) -> String {
    Json::obj([("error", Json::from(message))]).to_string()
}

/// Routes one parsed request to `(status, body, wants_shutdown)`.
fn route(shared: &Shared, req: &crate::http::Request) -> (u16, String, bool) {
    let method = req.method.as_str();
    let path = req.path.as_str();
    match (method, path) {
        ("GET", "/v1/healthz") => (200, Json::obj([("ok", Json::from(true))]).to_string(), false),
        ("GET", "/v1/metrics") => (200, metrics_body(shared), false),
        ("POST", "/v1/jobs") => {
            let (status, body) = enqueue(shared, &req.body);
            (status, body, false)
        }
        ("POST", "/v1/shutdown") => (200, Json::obj([("ok", Json::from(true))]).to_string(), true),
        ("GET", _) if path.strip_prefix("/v1/jobs/").is_some() => {
            let (status, body) = job_status(shared, path.strip_prefix("/v1/jobs/").unwrap());
            (status, body, false)
        }
        ("GET", _) if path.strip_prefix("/v1/results/").is_some() => {
            let (status, body) = result_lookup(shared, path.strip_prefix("/v1/results/").unwrap());
            (status, body, false)
        }
        // Known paths with the wrong method are 405, not 404.
        (_, "/v1/healthz" | "/v1/metrics" | "/v1/jobs" | "/v1/shutdown") => {
            (405, error_body(&format!("method {method} not allowed here")), false)
        }
        (_, _) if path.starts_with("/v1/jobs/") || path.starts_with("/v1/results/") => {
            (405, error_body(&format!("method {method} not allowed here")), false)
        }
        _ => (404, error_body(&format!("no route for {path}")), false),
    }
}

/// `POST /v1/jobs`: resolve, then cache-hit / coalesce / enqueue.
fn enqueue(shared: &Shared, body: &[u8]) -> (u16, String) {
    let Ok(text) = std::str::from_utf8(body) else {
        return (400, error_body("body is not UTF-8"));
    };
    let json = match Json::parse(text) {
        Ok(json) => json,
        Err(e) => return (400, error_body(&format!("bad JSON body: {e}"))),
    };
    let resolved = if let Some(cell) = json.get("cell") {
        let Some(index) = cell.as_u64() else {
            return (400, error_body("\"cell\" must be a non-negative integer"));
        };
        spec::resolve_index(index as usize)
    } else {
        let named = (
            json.get("scenario").and_then(Json::as_str),
            json.get("policy").and_then(Json::as_str),
            json.get("mode").and_then(Json::as_str),
        );
        let (Some(scenario), Some(policy), Some(mode)) = named else {
            return (
                400,
                error_body("body must carry scenario/policy/mode strings or a cell index"),
            );
        };
        // Optional SMP axis: "cores" defaults to the classic single-core
        // cells, so pre-SMP clients keep working unchanged.
        let cores = match json.get("cores") {
            None => 1,
            Some(c) => match c.as_u64().and_then(|c| u8::try_from(c).ok()) {
                Some(c) => c,
                None => return (400, error_body("\"cores\" must be an integer in 1..=64")),
            },
        };
        spec::resolve(scenario, policy, mode, cores)
    };
    let job = match resolved {
        Ok(job) => job,
        Err(e) => return (400, error_body(&e.to_string())),
    };

    let key = job.cache_key();
    shared.metrics.jobs_accepted.fetch_add(1, Ordering::Relaxed);
    let id = shared.next_id.fetch_add(1, Ordering::Relaxed) + 1;

    // Fast path 1: already completed in this process.
    let memory_line = shared.index.lock().results.get(&key).cloned();
    // Fast path 2: the persistent cache, possibly warmed by a one-shot
    // rtsim-farm / rtsim-grid sweep of the same matrix. Read outside the
    // index lock — it's disk I/O.
    let line = memory_line.or_else(|| shared.cache.as_ref().and_then(|c| c.load(key)));
    if let Some(line) = line {
        shared.metrics.cache_hits.fetch_add(1, Ordering::Relaxed);
        shared
            .index
            .lock()
            .results
            .entry(key)
            .or_insert_with(|| line.clone());
        shared.jobs.lock().insert(
            id,
            JobRecord {
                cell: job.cell,
                key,
                status: JobStatus::Done,
                cache_hit: true,
                result: Some(line.clone()),
            },
        );
        return (200, posted_body(id, key, "done", true, Some(&line)));
    }

    // Slow path: coalesce onto in-flight work for the same key, or queue
    // a fresh work item. Re-check `results` under the lock — the key may
    // have completed between the peek above and now.
    let mut index = shared.index.lock();
    if let Some(line) = index.results.get(&key).cloned() {
        drop(index);
        shared.metrics.cache_hits.fetch_add(1, Ordering::Relaxed);
        shared.jobs.lock().insert(
            id,
            JobRecord {
                cell: job.cell,
                key,
                status: JobStatus::Done,
                cache_hit: true,
                result: Some(line.clone()),
            },
        );
        return (200, posted_body(id, key, "done", true, Some(&line)));
    }
    // The waiter entry and the job record are published while the index
    // lock is still held: a worker's first act on an item is to take
    // that same lock, so it cannot observe the item before both exist.
    if let Some(waiters) = index.pending.get_mut(&key) {
        waiters.push(id);
        shared.jobs.lock().insert(
            id,
            JobRecord {
                cell: job.cell,
                key,
                status: JobStatus::Queued,
                cache_hit: false,
                result: None,
            },
        );
        drop(index);
        shared.metrics.jobs_coalesced.fetch_add(1, Ordering::Relaxed);
        return (202, posted_body(id, key, "queued", false, None));
    }

    if shared.metrics.queue_depth.load(Ordering::Relaxed) >= shared.queue_cap as u64 {
        drop(index);
        return (
            503,
            error_body(&format!("job queue is full ({} pending)", shared.queue_cap)),
        );
    }
    let sent = {
        let tx = shared.job_tx.lock();
        match tx.as_ref() {
            Some(tx) => tx.send(WorkItem { key, job }).is_ok(),
            None => false,
        }
    };
    if !sent {
        drop(index);
        return (503, error_body("server is shutting down"));
    }
    shared.metrics.queue_depth.fetch_add(1, Ordering::Relaxed);
    shared.metrics.cache_misses.fetch_add(1, Ordering::Relaxed);
    index.pending.insert(key, vec![id]);
    shared.jobs.lock().insert(
        id,
        JobRecord {
            cell: job.cell,
            key,
            status: JobStatus::Queued,
            cache_hit: false,
            result: None,
        },
    );
    drop(index);
    (202, posted_body(id, key, "queued", false, None))
}

/// The body of a `POST /v1/jobs` response.
fn posted_body(id: u64, key: u64, status: &str, cache_hit: bool, result: Option<&str>) -> String {
    let mut pairs = vec![
        ("job", Json::from(id)),
        ("key", Json::from(format!("{key:016x}"))),
        ("status", Json::from(status)),
        ("cache_hit", Json::from(cache_hit)),
    ];
    if let Some(line) = result {
        pairs.push(("result", Json::parse(line).unwrap_or_else(|_| Json::from(line))));
    }
    Json::obj(pairs).to_string()
}

/// `GET /v1/jobs/<id>`.
fn job_status(shared: &Shared, tail: &str) -> (u16, String) {
    let Ok(id) = tail.parse::<u64>() else {
        return (400, error_body(&format!("bad job id {tail:?}")));
    };
    let jobs = shared.jobs.lock();
    let Some(job) = jobs.get(&id) else {
        return (404, error_body(&format!("no job {id}")));
    };
    let mut pairs = vec![
        ("job", Json::from(id)),
        ("cell", Json::from(job.cell.label())),
        ("key", Json::from(format!("{:016x}", job.key))),
        ("status", Json::from(job.status.key())),
        ("cache_hit", Json::from(job.cache_hit)),
    ];
    if let Some(line) = &job.result {
        pairs.push((
            "result",
            Json::parse(line).unwrap_or_else(|_| Json::from(line.as_str())),
        ));
    }
    if let JobStatus::Failed(message) = &job.status {
        pairs.push(("error", Json::from(message.as_str())));
    }
    (200, Json::obj(pairs).to_string())
}

/// `GET /v1/results/<key>`: the raw cached golden line, byte-identical
/// to `rtsim-farm`'s rendering of the same cell.
fn result_lookup(shared: &Shared, tail: &str) -> (u16, String) {
    let Ok(key) = u64::from_str_radix(tail, 16) else {
        return (400, error_body(&format!("bad result key {tail:?} (16 hex digits)")));
    };
    let line = shared.index.lock().results.get(&key).cloned();
    let line = line.or_else(|| shared.cache.as_ref().and_then(|c| c.load(key)));
    match line {
        Some(line) => (200, line),
        None => (404, error_body(&format!("no result for key {key:016x}"))),
    }
}

/// `GET /v1/metrics`.
fn metrics_body(shared: &Shared) -> String {
    let m = &shared.metrics;
    let mut samples = m.service_ns.lock().clone();
    samples.sort_unstable();
    // With zero completed jobs there is no service distribution to take
    // percentiles of; report explicit nulls rather than a fake 0 ns that
    // dashboards would read as "instant".
    let (p50, p99) = if samples.is_empty() {
        (Json::Null, Json::Null)
    } else {
        (
            Json::from(samples[nearest_rank_index(1, 2, samples.len())]),
            Json::from(samples[nearest_rank_index(99, 100, samples.len())]),
        )
    };
    Json::obj([
        ("jobs_accepted", Json::from(m.jobs_accepted.load(Ordering::Relaxed))),
        ("jobs_completed", Json::from(m.jobs_completed.load(Ordering::Relaxed))),
        ("jobs_failed", Json::from(m.jobs_failed.load(Ordering::Relaxed))),
        ("jobs_coalesced", Json::from(m.jobs_coalesced.load(Ordering::Relaxed))),
        ("cache_hits", Json::from(m.cache_hits.load(Ordering::Relaxed))),
        ("cache_misses", Json::from(m.cache_misses.load(Ordering::Relaxed))),
        ("queue_depth", Json::from(m.queue_depth.load(Ordering::Relaxed))),
        ("service_samples", Json::from(samples.len())),
        ("service_p50_ns", p50),
        ("service_p99_ns", p99),
    ])
    .to_string()
}

fn worker_loop(shared: &Arc<Shared>, job_rx: &Mutex<Receiver<WorkItem>>) {
    loop {
        let next = job_rx.lock().recv_timeout(POLL);
        match next {
            Ok(item) => run_work_item(shared, &item),
            Err(RecvTimeoutError::Timeout) => continue,
            // The sender is dropped by the shutdown trigger once — so a
            // disconnect means the queue is fully drained and it is time
            // to exit.
            Err(RecvTimeoutError::Disconnected) => break,
        }
    }
}

/// Runs one simulation and publishes its outcome to every waiter.
fn run_work_item(shared: &Shared, item: &WorkItem) {
    let started = Instant::now();
    {
        let index = shared.index.lock();
        if let Some(ids) = index.pending.get(&item.key) {
            let mut jobs = shared.jobs.lock();
            for id in ids {
                if let Some(job) = jobs.get_mut(id) {
                    job.status = JobStatus::Running;
                }
            }
        }
    }

    let outcome = run_isolated(|| run_cell(item.job.cell));

    match outcome {
        Ok(result) => {
            let line = golden::render_line(&result);
            if let Some(cache) = &shared.cache {
                if let Err(e) = cache.store(item.key, &line) {
                    eprintln!(
                        "rtsim-serve: failed to persist result {:016x}: {e}",
                        item.key
                    );
                }
            }
            let waiters = {
                let mut index = shared.index.lock();
                index.results.insert(item.key, line.clone());
                index.pending.remove(&item.key).unwrap_or_default()
            };
            let mut jobs = shared.jobs.lock();
            for id in &waiters {
                if let Some(job) = jobs.get_mut(id) {
                    job.status = JobStatus::Done;
                    job.result = Some(line.clone());
                }
            }
            shared
                .metrics
                .jobs_completed
                .fetch_add(waiters.len() as u64, Ordering::Relaxed);
        }
        Err(panic) => {
            let waiters = {
                let mut index = shared.index.lock();
                index.pending.remove(&item.key).unwrap_or_default()
            };
            let mut jobs = shared.jobs.lock();
            for id in &waiters {
                if let Some(job) = jobs.get_mut(id) {
                    job.status = JobStatus::Failed(panic.message.clone());
                }
            }
            shared
                .metrics
                .jobs_failed
                .fetch_add(waiters.len() as u64, Ordering::Relaxed);
        }
    }
    shared.metrics.queue_depth.fetch_sub(1, Ordering::Relaxed);
    shared
        .metrics
        .service_ns
        .lock()
        .push(started.elapsed().as_nanos() as u64);
}
