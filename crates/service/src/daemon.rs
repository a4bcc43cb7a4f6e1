//! The solve daemon: accept loop, worker pool, crash-resume, GC.
//!
//! # Lifecycle of a job
//!
//! ```text
//! Submit ── cache hit ──────────────────────────────▶ Done (instant)
//!    │
//!    ├─ queue full ─▶ Rejected { retry_after_ms }   (client backs off)
//!    │
//!    ▼
//! Queued ──▶ Running ──▶ attempt 1 ──▶ certified / recovered ──▶ Done
//!    │                     │ fault / degraded
//!    │                     ▼
//!    │                  backoff ──▶ attempt 2 … attempt N
//!    │                                 │ budget exhausted
//!    │                                 ▼
//!    │                  Done (degraded verdict — never dropped)
//!    ▼
//! Cancelled (queued jobs only; directory removed)
//! ```
//!
//! # Crash-resume
//!
//! Every phase transition is persisted atomically into the job's
//! directory *before* it takes effect, and the supervisor checkpoints
//! each α round into the job's `ckpt/` ring. On startup the daemon
//! scans `<root>/jobs/`: done jobs re-populate the result cache,
//! queued/running jobs are re-enqueued, and their workers resume from
//! the newest good snapshot — producing bitwise-identical results to
//! an uninterrupted run (round replay is deterministic).
//!
//! # Fault sites
//!
//! With the `fault-inject` feature the daemon polls the four
//! `service.*` sites from `gfp-fault`: torn/corrupted frame reads,
//! connection drops mid-response, forced queue-full rejections, and
//! worker deaths before an attempt starts. All are exercised by the
//! fault-matrix test; in release builds the hooks compile out.

use std::collections::HashMap;
use std::fs;
use std::io::Write;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use gfp_core::supervisor::{SolveQuality, SolveSupervisor, SupervisorSettings};
use gfp_core::{FloorplannerSettings, GlobalFloorplanProblem, ProblemOptions};
use gfp_fault as fault;
use gfp_netlist::{suite, yal};
use gfp_store::SnapshotStore;
use gfp_telemetry as telemetry;

use crate::cache::ResultCache;
use crate::job::{self, JobMeta};
use crate::protocol::{
    read_frame_bytes, write_frame, DaemonStats, FrameReadError, JobPhase, JobResult, JobSource,
    JobStatus, Request, Response, SubmitRequest, WireError, HEADER_LEN,
};
use crate::queue::{JobQueue, Pushed};

/// Daemon construction knobs.
#[derive(Debug, Clone)]
pub struct DaemonConfig {
    /// State root; job directories live under `<root>/jobs/`.
    pub root: PathBuf,
    /// Listen address, e.g. `127.0.0.1:0` (0 = ephemeral port).
    pub addr: String,
    /// Worker threads solving jobs concurrently.
    pub workers: usize,
    /// Queue capacity; submissions beyond it are rejected with a
    /// retry hint.
    pub queue_cap: usize,
    /// Solve attempts per job before serving the degraded verdict.
    pub max_attempts: u32,
    /// Base of the exponential retry backoff and of the rejection
    /// retry hint, in milliseconds.
    pub retry_base_ms: u64,
    /// Checkpoint ring length per job (see `gfp-store`).
    pub checkpoint_keep: usize,
    /// Done-job directories retained on disk; older ones are
    /// garbage-collected (their results stay served from memory).
    pub keep_done: usize,
}

impl Default for DaemonConfig {
    fn default() -> Self {
        DaemonConfig {
            root: PathBuf::from("gfpd-state"),
            addr: "127.0.0.1:0".into(),
            workers: 2,
            queue_cap: 16,
            max_attempts: 3,
            retry_base_ms: 50,
            checkpoint_keep: 3,
            keep_done: 32,
        }
    }
}

/// In-memory job record (the durable twin lives in the job dir).
#[derive(Debug)]
struct JobState {
    meta: JobMeta,
    result: Option<JobResult>,
}

struct Shared {
    cfg: DaemonConfig,
    queue: JobQueue,
    cache: ResultCache,
    jobs: Mutex<HashMap<u64, JobState>>,
    next_id: AtomicU64,
    stop: AtomicBool,
    completed: AtomicU64,
    rejected: AtomicU64,
    cache_hits: AtomicU64,
    running: AtomicU64,
    addr: Mutex<Option<SocketAddr>>,
}

impl Shared {
    fn stopping(&self) -> bool {
        self.stop.load(Ordering::SeqCst)
    }

    fn initiate_stop(&self) {
        self.stop.store(true, Ordering::SeqCst);
        self.queue.wake_all();
        // Unblock the accept loop with a throwaway connection.
        if let Some(addr) = *self.addr.lock().expect("addr lock") {
            let _ = TcpStream::connect(addr);
        }
    }
}

/// A running daemon. Dropping it performs a graceful stop (drains the
/// queue, joins the workers).
pub struct Daemon {
    shared: Arc<Shared>,
    addr: SocketAddr,
    accept_handle: Option<JoinHandle<()>>,
    worker_handles: Vec<JoinHandle<()>>,
}

impl Daemon {
    /// Binds, scans the state root for jobs to resume, and starts the
    /// accept loop and worker pool.
    pub fn start(cfg: DaemonConfig) -> std::io::Result<Daemon> {
        fs::create_dir_all(cfg.root.join("jobs"))?;
        let listener = TcpListener::bind(&cfg.addr)?;
        let addr = listener.local_addr()?;

        let workers = cfg.workers.max(1);
        let shared = Arc::new(Shared {
            queue: JobQueue::new(cfg.queue_cap, workers, cfg.retry_base_ms),
            cache: ResultCache::new(),
            jobs: Mutex::new(HashMap::new()),
            next_id: AtomicU64::new(1),
            stop: AtomicBool::new(false),
            completed: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
            cache_hits: AtomicU64::new(0),
            running: AtomicU64::new(0),
            addr: Mutex::new(Some(addr)),
            cfg,
        });

        resume_scan(&shared);

        let accept_shared = Arc::clone(&shared);
        let accept_handle = std::thread::Builder::new()
            .name("gfpd-accept".into())
            .spawn(move || accept_loop(accept_shared, listener))?;

        let mut worker_handles = Vec::with_capacity(workers);
        for i in 0..workers {
            let worker_shared = Arc::clone(&shared);
            worker_handles.push(
                std::thread::Builder::new()
                    .name(format!("gfpd-worker-{i}"))
                    .spawn(move || worker_loop(worker_shared))?,
            );
        }

        telemetry::counter_add("service.start", 1);
        Ok(Daemon { shared, addr, accept_handle: Some(accept_handle), worker_handles })
    }

    /// The bound listen address (with the resolved ephemeral port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Graceful stop: drains queued jobs, joins workers and the
    /// accept loop. Idempotent.
    pub fn stop(&mut self) {
        self.shared.initiate_stop();
        self.wait();
    }

    /// Blocks until the daemon stops (a client sent `Shutdown`, or
    /// another thread called [`Daemon::stop`]).
    pub fn wait(&mut self) {
        // Workers exit only once the stop flag is up and the queue is
        // drained; joining them is the natural wait.
        for h in self.worker_handles.drain(..) {
            let _ = h.join();
        }
        if let Some(h) = self.accept_handle.take() {
            let _ = h.join();
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        self.stop();
    }
}

// ---------------------------------------------------------------------------
// Startup: crash-resume scan
// ---------------------------------------------------------------------------

/// Rebuilds in-memory state from `<root>/jobs/`: done jobs feed the
/// cache, queued/running jobs are re-enqueued (bypassing admission
/// control — they were already admitted once), cancelled or corrupt
/// directories are swept.
fn resume_scan(shared: &Arc<Shared>) {
    let jobs_root = shared.cfg.root.join("jobs");
    let entries = match fs::read_dir(&jobs_root) {
        Ok(e) => e,
        Err(_) => return,
    };
    let mut max_id = 0u64;
    let mut resumed = 0u64;
    for entry in entries.flatten() {
        let dir = entry.path();
        if !dir.is_dir() {
            continue;
        }
        let meta = match JobMeta::load(&dir) {
            Ok(Some(meta)) => meta,
            // No/corrupt meta: a directory created but never
            // committed (crash between mkdir and meta write), or
            // damaged beyond recovery. Sweep it.
            _ => {
                let _ = fs::remove_dir_all(&dir);
                continue;
            }
        };
        max_id = max_id.max(meta.id);
        match meta.phase {
            JobPhase::Done => {
                let result = job::load_result(&dir).ok().flatten();
                if let Some(result) = &result {
                    shared.cache.insert(meta.hash, result);
                }
                shared
                    .jobs
                    .lock()
                    .expect("jobs lock")
                    .insert(meta.id, JobState { meta, result });
            }
            JobPhase::Cancelled => {
                let _ = fs::remove_dir_all(&dir);
            }
            JobPhase::Queued | JobPhase::Running => {
                let id = meta.id;
                shared
                    .jobs
                    .lock()
                    .expect("jobs lock")
                    .insert(id, JobState { meta, result: None });
                shared.queue.push_resumed(id);
                resumed += 1;
            }
        }
    }
    shared.next_id.store(max_id + 1, Ordering::SeqCst);
    if resumed > 0 {
        telemetry::counter_add("service.resumed_jobs", resumed);
    }
}

// ---------------------------------------------------------------------------
// Accept loop and connection handling
// ---------------------------------------------------------------------------

fn accept_loop(shared: Arc<Shared>, listener: TcpListener) {
    for stream in listener.incoming() {
        if shared.stopping() {
            break;
        }
        let Ok(stream) = stream else { continue };
        let conn_shared = Arc::clone(&shared);
        let _ = std::thread::Builder::new()
            .name("gfpd-conn".into())
            .spawn(move || handle_conn(conn_shared, stream));
    }
}

fn handle_conn(shared: Arc<Shared>, mut stream: TcpStream) {
    loop {
        let mut bytes = match read_frame_bytes(&mut stream) {
            Ok(b) => b,
            Err(FrameReadError::Wire(e)) => return reply_bad_frame(&mut stream, &e),
            Err(FrameReadError::Eof | FrameReadError::Io(_)) => return,
        };

        // Injected frame-read faults: corrupt the (already framed)
        // request bytes the way a broken transport would.
        if let Some(fired) = fault::poll(fault::Site::ServiceFrameRead) {
            telemetry::counter_add("service.fault.frame_read", 1);
            match fired.kind {
                // Torn frame: the tail never arrived.
                fault::FaultKind::BudgetExhaust => {
                    let keep = bytes.len().saturating_sub(3).max(HEADER_LEN.min(bytes.len()));
                    bytes.truncate(keep);
                }
                // Bit flip in flight: caught by the payload CRC.
                fault::FaultKind::PerturbResidual => {
                    if let Some(last) = bytes.last_mut() {
                        *last ^= 0x01;
                    }
                }
                // Transport-level I/O error: the connection is gone.
                _ => return,
            }
        }

        let req = match Request::decode(&bytes) {
            Ok(r) => r,
            Err(e) => return reply_bad_frame(&mut stream, &e),
        };

        let resp = dispatch(&shared, req);
        let stop_after = matches!(resp, Response::ShuttingDown);
        let frame = resp.encode();

        // Injected connection drop: write a prefix of the response,
        // then hang up mid-frame. The client sees a torn read.
        if fault::poll(fault::Site::ServiceConnDrop).is_some() {
            telemetry::counter_add("service.fault.conn_drop", 1);
            let cut = frame.len() / 2;
            let _ = stream.write_all(&frame[..cut]);
            let _ = stream.flush();
            let _ = stream.shutdown(std::net::Shutdown::Both);
            if stop_after {
                shared.initiate_stop();
            }
            return;
        }

        if write_frame(&mut stream, &frame).is_err() {
            return;
        }
        if stop_after {
            shared.initiate_stop();
            return;
        }
    }
}

/// Answers a frame that failed to read or decode with a typed
/// `bad_frame` error; the caller then closes the connection.
fn reply_bad_frame(stream: &mut TcpStream, e: &WireError) {
    let resp = Response::Error { code: "bad_frame".into(), detail: e.to_string() };
    let _ = write_frame(stream, &resp.encode());
}

fn dispatch(shared: &Arc<Shared>, req: Request) -> Response {
    match req {
        Request::Ping => Response::Pong,
        Request::Stats => Response::Stats(DaemonStats {
            queued: shared.queue.len() as u32,
            running: shared.running.load(Ordering::Relaxed) as u32,
            completed: shared.completed.load(Ordering::Relaxed),
            rejected: shared.rejected.load(Ordering::Relaxed),
            cache_hits: shared.cache_hits.load(Ordering::Relaxed),
            workers: shared.cfg.workers.max(1) as u32,
            queue_cap: shared.queue.capacity() as u32,
        }),
        Request::Shutdown => Response::ShuttingDown,
        Request::Submit(submit) => handle_submit(shared, submit),
        Request::Status { job } => {
            let jobs = shared.jobs.lock().expect("jobs lock");
            match jobs.get(&job) {
                Some(state) => Response::Status(status_of(state)),
                None => unknown_job(job),
            }
        }
        Request::Fetch { job } => {
            let jobs = shared.jobs.lock().expect("jobs lock");
            match jobs.get(&job) {
                None => unknown_job(job),
                Some(state) => match (state.meta.phase, &state.result) {
                    (JobPhase::Done, Some(result)) => Response::Result(result.clone()),
                    (JobPhase::Cancelled, _) => Response::Error {
                        code: "cancelled".into(),
                        detail: format!("job {job} was cancelled"),
                    },
                    _ => Response::Error {
                        code: "not_done".into(),
                        detail: format!("job {job} is {}", state.meta.phase.as_str()),
                    },
                },
            }
        }
        Request::Cancel { job } => {
            let mut jobs = shared.jobs.lock().expect("jobs lock");
            match jobs.get_mut(&job) {
                None => unknown_job(job),
                Some(state) if state.meta.phase == JobPhase::Queued => {
                    state.meta.phase = JobPhase::Cancelled;
                    // Remove the directory outright: a crash after
                    // this point must not resurrect the job.
                    let dir = job::job_dir(&shared.cfg.root, job);
                    let _ = fs::remove_dir_all(&dir);
                    telemetry::counter_add("service.cancelled", 1);
                    Response::Status(status_of(state))
                }
                Some(state) => Response::Error {
                    code: "not_cancellable".into(),
                    detail: format!(
                        "job {job} is {} (only queued jobs can be cancelled)",
                        state.meta.phase.as_str()
                    ),
                },
            }
        }
    }
}

fn unknown_job(job: u64) -> Response {
    Response::Error { code: "unknown_job".into(), detail: format!("no job {job}") }
}

fn status_of(state: &JobState) -> JobStatus {
    JobStatus {
        job: state.meta.id,
        phase: state.meta.phase,
        attempts: state.meta.attempts,
        quality: state.result.as_ref().map(|r| r.quality.clone()),
        cache_hit: state.result.as_ref().is_some_and(|r| r.cache_hit),
    }
}

fn handle_submit(shared: &Arc<Shared>, submit: SubmitRequest) -> Response {
    if shared.stopping() {
        return Response::Error {
            code: "shutting_down".into(),
            detail: "daemon is shutting down".into(),
        };
    }
    // Validate the netlist up front so a malformed submission is a
    // typed error at the protocol edge, not a wasted worker slot.
    if let Err(detail) = validate_source(&submit.source) {
        return Response::Error { code: "bad_netlist".into(), detail };
    }

    let hash = job::content_hash(&submit);
    let id = shared.next_id.fetch_add(1, Ordering::SeqCst);
    let dir = job::job_dir(&shared.cfg.root, id);

    // Cache hit: mint the job as already-done, persist it, answer
    // instantly.
    if let Some(result) = shared.cache.get_for(hash, id) {
        let mut meta = JobMeta::new(id, submit);
        meta.phase = JobPhase::Done;
        let persisted = fs::create_dir_all(&dir)
            .and_then(|()| meta.save(&dir))
            .and_then(|()| job::save_result(&dir, &result));
        if persisted.is_err() {
            let _ = fs::remove_dir_all(&dir);
        }
        shared
            .jobs
            .lock()
            .expect("jobs lock")
            .insert(id, JobState { meta, result: Some(result) });
        shared.cache_hits.fetch_add(1, Ordering::Relaxed);
        shared.completed.fetch_add(1, Ordering::Relaxed);
        return Response::Submitted { job: id, cache_hit: true };
    }

    // Persist the job before enqueueing it: the worker (or a
    // post-crash restart) reads the durable record, never the wire.
    let meta = JobMeta::new(id, submit);
    if let Err(e) = fs::create_dir_all(&dir).and_then(|()| meta.save(&dir)) {
        let _ = fs::remove_dir_all(&dir);
        return Response::Error {
            code: "storage".into(),
            detail: format!("persist job {id}: {e}"),
        };
    }
    shared.jobs.lock().expect("jobs lock").insert(id, JobState { meta, result: None });

    match shared.queue.push(id) {
        Pushed::Admitted => Response::Submitted { job: id, cache_hit: false },
        Pushed::Rejected { retry_after_ms, queue_len } => {
            shared.jobs.lock().expect("jobs lock").remove(&id);
            let _ = fs::remove_dir_all(&dir);
            shared.rejected.fetch_add(1, Ordering::Relaxed);
            Response::Rejected { retry_after_ms, queue_len }
        }
    }
}

fn validate_source(source: &JobSource) -> Result<(), String> {
    build_problem(source).map(|_| ())
}

/// Re-derives the solve problem from the durable source record. The
/// construction is deterministic, so a resumed process rebuilds the
/// exact instance its checkpoints came from.
fn build_problem(source: &JobSource) -> Result<GlobalFloorplanProblem, String> {
    let netlist = match source {
        JobSource::Suite(name) => suite::try_by_name(name).map_err(|e| e.to_string())?.netlist,
        JobSource::Yal(text) => {
            yal::parse(text, &yal::YalOptions::default()).map_err(|e| e.to_string())?
        }
    };
    GlobalFloorplanProblem::from_netlist(&netlist, &ProblemOptions::default())
        .map_err(|e| e.to_string())
}

// ---------------------------------------------------------------------------
// Worker pool
// ---------------------------------------------------------------------------

fn worker_loop(shared: Arc<Shared>) {
    let tick = Duration::from_millis(20);
    while let Some(id) = shared.queue.pop(tick, || shared.stopping()) {
        let cancelled = {
            let jobs = shared.jobs.lock().expect("jobs lock");
            jobs.get(&id).is_none_or(|s| s.meta.phase == JobPhase::Cancelled)
        };
        if cancelled {
            continue;
        }
        shared.running.fetch_add(1, Ordering::Relaxed);
        run_job(&shared, id);
        shared.running.fetch_sub(1, Ordering::Relaxed);
        shared.completed.fetch_add(1, Ordering::Relaxed);
    }
}

/// Derives the solver settings for a job. Mirrors the checkpoint
/// harness: explicit round budgets pin `eps_rank` out of reach so the
/// round count (and thus the checkpoint trajectory) is deterministic.
fn solve_settings(request: &SubmitRequest) -> FloorplannerSettings {
    let mut settings = FloorplannerSettings::fast();
    if request.max_iter > 0 {
        settings.max_iter = request.max_iter as usize;
    }
    if request.max_rounds > 0 {
        settings.max_alpha_rounds = request.max_rounds as usize;
        settings.eps_rank = 1e-12;
    }
    settings
}

/// Runs one job to its definitive verdict: retry loop with
/// exponential backoff, per-job wall deadline, checkpoint resume,
/// degraded-mode serving when the attempt budget runs out.
fn run_job(shared: &Arc<Shared>, id: u64) {
    let dir = job::job_dir(&shared.cfg.root, id);
    let ckpt = job::ckpt_dir(&dir);
    let Some(mut meta) = ({
        let jobs = shared.jobs.lock().expect("jobs lock");
        jobs.get(&id).map(|s| s.meta.clone())
    }) else {
        return;
    };

    meta.phase = JobPhase::Running;
    let _ = meta.save(&dir);
    set_meta(shared, id, &meta);

    let problem = match build_problem(&meta.request.source) {
        Ok(p) => p,
        Err(detail) => {
            // Unreachable in practice (validated at submit), but a
            // worker must never panic on a job it cannot parse.
            telemetry::counter_add("service.parse_failed", 1);
            let result = empty_degraded_result(id, meta.attempts.max(1), detail);
            finish_job(shared, id, &dir, &ckpt, meta, result);
            return;
        }
    };

    let settings = solve_settings(&meta.request);
    let deadline =
        (meta.request.deadline_ms > 0).then(|| Duration::from_millis(meta.request.deadline_ms));
    let started = Instant::now();
    let max_attempts = shared.cfg.max_attempts.max(1);

    let outcome = loop {
        meta.attempts += 1;
        let _ = meta.save(&dir);
        set_meta(shared, id, &meta);

        // Injected worker death: the attempt dies before the solve
        // starts — the retry/backoff path in its purest form.
        if fault::poll(fault::Site::ServiceWorkerDeath).is_some() {
            telemetry::counter_add("service.fault.worker_death", 1);
            if meta.attempts < max_attempts {
                backoff(shared, meta.attempts);
                continue;
            }
            // Attempt budget exhausted: serve the deterministic
            // spread embedding (a zero-budget supervised solve)
            // rather than dropping the job.
            break degraded_serve(&problem, settings.clone(), &ckpt);
        }

        // Remaining wall budget for this attempt. The supervisor can
        // only trip *between* rounds, so a remaining budget too small
        // to fit any round is clamped to zero — otherwise a 1 ms
        // deadline could still admit a multi-minute first round just
        // because the clock hadn't ticked past it yet.
        let wall = deadline.map(|d| {
            let remaining = d.saturating_sub(started.elapsed());
            if remaining < MIN_ROUND_BUDGET {
                Duration::ZERO
            } else {
                remaining
            }
        });
        let sup = SupervisorSettings {
            total_wall_limit: wall,
            checkpoint_dir: Some(ckpt.clone()),
            checkpoint_keep: shared.cfg.checkpoint_keep,
            report_path: Some(dir.join(job::REPORT_FILE)),
            ..SupervisorSettings::default()
        };
        let supervisor = SolveSupervisor::with_supervision(settings.clone(), sup);

        // Resume from the checkpoint ring when a previous attempt (or
        // a previous *process*) left snapshots behind; fall back to a
        // fresh solve when the ring is empty or unreadable.
        let has_snapshot = has_snapshots(&ckpt);
        let result = if has_snapshot {
            match supervisor.resume_from_dir(&problem, &ckpt) {
                Ok(r) => {
                    telemetry::counter_add("service.job_resumed", 1);
                    r
                }
                Err(_) => supervisor.solve(&problem),
            }
        } else {
            supervisor.solve(&problem)
        };

        match result.quality {
            // Trustworthy, or an honest deadline verdict: done.
            SolveQuality::Certified | SolveQuality::Recovered | SolveQuality::BudgetExhausted => {
                break result;
            }
            // Failed attempt: retry from scratch while attempts
            // remain (the checkpoint of a degraded trajectory is not
            // worth resuming), else serve the degraded verdict.
            SolveQuality::Degraded | SolveQuality::Placeholder => {
                if meta.attempts < max_attempts && !deadline_spent(deadline, started) {
                    let _ = SnapshotStore::purge_dir(&ckpt);
                    backoff(shared, meta.attempts);
                    continue;
                }
                break result;
            }
        }
    };

    let quality = outcome.quality;
    let result = JobResult {
        job: id,
        quality: quality.as_str().to_string(),
        // Clean verdicts (including an honest budget trip) are not
        // degraded; only fault-shaped outcomes are.
        degraded: matches!(quality, SolveQuality::Degraded | SolveQuality::Placeholder),
        attempts: meta.attempts,
        cache_hit: false,
        objective_bits: outcome.floorplan.objective.to_bits(),
        iterations: outcome.floorplan.iterations as u64,
        rounds: outcome.floorplan.rounds.len() as u64,
        positions_bits: outcome
            .floorplan
            .positions
            .iter()
            .map(|&(x, y)| (x.to_bits(), y.to_bits()))
            .collect(),
    };
    finish_job(shared, id, &dir, &ckpt, meta, result);
}

/// No solve round completes faster than this; a smaller remaining
/// deadline is already spent for all practical purposes.
const MIN_ROUND_BUDGET: Duration = Duration::from_millis(10);

fn deadline_spent(deadline: Option<Duration>, started: Instant) -> bool {
    deadline.is_some_and(|d| started.elapsed() + MIN_ROUND_BUDGET >= d)
}

/// Exponential backoff between attempts: `base * 2^(attempt-1)`,
/// capped at one second so tests stay fast.
fn backoff(shared: &Arc<Shared>, attempt: u32) {
    let base = shared.cfg.retry_base_ms.max(1);
    let ms = base.saturating_mul(1u64 << (attempt - 1).min(10)).min(1_000);
    std::thread::sleep(Duration::from_millis(ms));
}

/// The degraded-mode fallback when every attempt died before solving:
/// a zero-wall-budget supervised solve, which deterministically
/// returns the spread-embedding placeholder placement.
fn degraded_serve(
    problem: &GlobalFloorplanProblem,
    settings: FloorplannerSettings,
    ckpt: &std::path::Path,
) -> gfp_core::supervisor::DegradedResult {
    let _ = SnapshotStore::purge_dir(ckpt);
    let sup = SupervisorSettings {
        total_wall_limit: Some(Duration::ZERO),
        ..SupervisorSettings::default()
    };
    telemetry::counter_add("service.degraded_serve", 1);
    SolveSupervisor::with_supervision(settings, sup).solve(problem)
}

/// A result for jobs that cannot even be parsed into a problem:
/// degraded, empty placement, never a drop.
fn empty_degraded_result(id: u64, attempts: u32, _detail: String) -> JobResult {
    JobResult {
        job: id,
        quality: "degraded".into(),
        degraded: true,
        attempts,
        cache_hit: false,
        objective_bits: f64::INFINITY.to_bits(),
        iterations: 0,
        rounds: 0,
        positions_bits: Vec::new(),
    }
}

fn has_snapshots(ckpt: &std::path::Path) -> bool {
    fs::read_dir(ckpt).ok().is_some_and(|entries| {
        entries.flatten().any(|e| {
            e.file_name().to_string_lossy().ends_with(".gfps")
        })
    })
}

fn set_meta(shared: &Arc<Shared>, id: u64, meta: &JobMeta) {
    let mut jobs = shared.jobs.lock().expect("jobs lock");
    if let Some(state) = jobs.get_mut(&id) {
        state.meta = meta.clone();
    }
}

/// Persists the verdict, promotes trustworthy results into the cache,
/// garbage-collects the checkpoint ring, and enforces the done-dir
/// retention cap.
fn finish_job(
    shared: &Arc<Shared>,
    id: u64,
    dir: &std::path::Path,
    ckpt: &std::path::Path,
    mut meta: JobMeta,
    result: JobResult,
) {
    let _ = job::save_result(dir, &result);
    meta.phase = JobPhase::Done;
    let _ = meta.save(dir);
    shared.cache.insert(meta.hash, &result);
    if result.degraded {
        telemetry::counter_add("service.done_degraded", 1);
    } else {
        telemetry::counter_add("service.done", 1);
    }

    // The job is finished: its checkpoint ring is dead weight.
    let _ = SnapshotStore::purge_dir(ckpt);

    let mut jobs = shared.jobs.lock().expect("jobs lock");
    if let Some(state) = jobs.get_mut(&id) {
        state.meta = meta;
        state.result = Some(result);
    }
    // Under the same lock hold, so no client sees this job done while
    // more than `keep_done` done directories are still on disk.
    gc_done_dirs(shared, &jobs);
}

/// Keeps at most `keep_done` done-job directories on disk, removing
/// the oldest (results stay served from memory; only the durable
/// copies go).
fn gc_done_dirs(shared: &Shared, jobs: &HashMap<u64, JobState>) {
    let keep = shared.cfg.keep_done.max(1);
    let mut done: Vec<u64> = jobs
        .values()
        .filter(|s| s.meta.phase == JobPhase::Done)
        .map(|s| s.meta.id)
        .collect();
    if done.len() <= keep {
        return;
    }
    done.sort_unstable();
    let excess = done.len() - keep;
    for &id in &done[..excess] {
        let dir = job::job_dir(&shared.cfg.root, id);
        if fs::remove_dir_all(&dir).is_ok() {
            telemetry::counter_add("service.gc_done_dir", 1);
        }
    }
}
