//! The sweep-service core: admission, execution, supervision, recovery.
//!
//! [`ServerCore`] owns a bounded admission queue, one supervised
//! executor thread, the durable jobs journal, and the degradation
//! knobs. The design follows a strict resource-pressure ladder
//! (DESIGN §13):
//!
//! 1. **Shed cache first.** The cross-request
//!    [`profile_cache`] holds a byte
//!    budget and evicts LRU profiles (or refuses oversize ones) before
//!    anything client-visible degrades — a cache miss costs wall-clock,
//!    never correctness.
//! 2. **Shed admission second.** The queue is a hard bound: a submit
//!    against a full queue is rejected with explicit `retry_after_ms`
//!    guidance (computed from the observed mean job time), never
//!    buffered into unbounded memory.
//! 3. **Shed work last.** A job that exceeds its deadline winds down
//!    cooperatively (the campaign skips not-yet-started groups and
//!    clamps running cells' timeouts) and is reported `failed` with a
//!    journaled reason — completed cells stay journaled, so a resubmit
//!    resumes rather than restarts.
//!
//! **Supervision**: the executor wraps every job in `catch_unwind`; a
//! panicking job is journaled `failed` and the executor keeps serving
//! (the restart counter is client-visible in `stats`). **Recovery**: on
//! open, the jobs journal is replayed — jobs accepted but not terminal
//! are re-enqueued in acceptance order and their per-job cell journals
//! turn the re-run into a resume. Every artifact commit is atomic, so a
//! crash can cost recomputation, never a half-written table.

use std::collections::{BTreeMap, VecDeque};
use std::panic::{self, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread;
use std::time::{Duration, Instant};

use gaas_experiments::campaign::{self, CellOptions, CellResult};
use gaas_experiments::{chaos, durability, profile_cache};

use crate::jobs::{JobEvent, JobRecord, JobsLog};
use crate::spec::{self, SweepSpec};

/// Server configuration (every knob has a serving-friendly default).
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Directory for the jobs journal, per-job cell journals, and table
    /// artifacts.
    pub dir: PathBuf,
    /// Maximum queued (not yet running) jobs before submits are
    /// rejected with backpressure.
    pub queue_cap: usize,
    /// Byte budget of the cross-request profile cache (0 disables it).
    pub cache_budget_bytes: usize,
    /// Per-cell wall-clock budget inside a job.
    pub cell_timeout: Duration,
    /// Deadline applied to requests that don't carry their own.
    pub default_deadline_ms: Option<u64>,
    /// Start with the executor paused (tests and the soak use this to
    /// fill the queue deterministically before any job runs).
    pub start_paused: bool,
}

impl ServeConfig {
    /// Defaults rooted at `dir`: queue of 16, 64 MB cache, 10-minute
    /// cells, no default deadline, running (not paused).
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        ServeConfig {
            dir: dir.into(),
            queue_cap: 16,
            cache_budget_bytes: 64 << 20,
            cell_timeout: Duration::from_secs(600),
            default_deadline_ms: None,
            start_paused: false,
        }
    }
}

/// Lifecycle state of one job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobState {
    /// Accepted, waiting in the queue.
    Queued,
    /// Currently executing on the worker pool.
    Running,
    /// Completed; the table artifact is committed.
    Done,
    /// Terminal failure; `detail` carries the journaled reason.
    Failed,
    /// Cancelled by request; `detail` carries the trigger.
    Cancelled,
}

impl JobState {
    /// Wire name of the state.
    pub fn name(self) -> &'static str {
        match self {
            JobState::Queued => "queued",
            JobState::Running => "running",
            JobState::Done => "done",
            JobState::Failed => "failed",
            JobState::Cancelled => "cancelled",
        }
    }

    /// True once no further transitions can happen.
    pub fn is_terminal(self) -> bool {
        matches!(
            self,
            JobState::Done | JobState::Failed | JobState::Cancelled
        )
    }
}

/// Client-visible snapshot of one job.
#[derive(Debug, Clone)]
pub struct JobInfo {
    /// Job id (`j0001`, …).
    pub id: String,
    /// Client-chosen spec name.
    pub name: String,
    /// Current state.
    pub state: JobState,
    /// Failure/cancellation reason ("" otherwise).
    pub detail: String,
    /// Cells in the job.
    pub cells: usize,
}

/// Outcome of a submit.
#[derive(Debug, Clone)]
pub enum Submission {
    /// Admitted: the job id and its 1-based queue position.
    Accepted {
        /// Assigned job id.
        job: String,
        /// 1-based position in the admission queue.
        position: usize,
    },
    /// Refused. `retry_after_ms` is present exactly when the refusal is
    /// backpressure (queue full) — retry later; a spec error is
    /// permanent and retrying the same bytes will never succeed.
    Rejected {
        /// Human-readable refusal.
        error: String,
        /// Backoff guidance for backpressure refusals.
        retry_after_ms: Option<u64>,
    },
}

/// Counters exposed by the `stats` op.
#[derive(Debug, Clone, Default)]
pub struct StatsSnapshot {
    /// Jobs admitted (including replayed ones).
    pub accepted: u64,
    /// Submits refused by backpressure.
    pub rejected_busy: u64,
    /// Submits refused by spec validation.
    pub rejected_invalid: u64,
    /// Jobs finished `done`.
    pub completed: u64,
    /// Jobs finished `failed`.
    pub failed: u64,
    /// Jobs finished `cancelled`.
    pub cancelled: u64,
    /// Jobs re-enqueued by crash recovery at open.
    pub replayed: u64,
    /// Executor panics absorbed by the supervisor.
    pub worker_restarts: u64,
    /// Currently queued jobs.
    pub queue_len: usize,
    /// Observed mean job wall-clock in milliseconds (0 before the
    /// first completion).
    pub avg_job_ms: u64,
    /// Cross-request profile cache state (None when disabled).
    pub cache: Option<profile_cache::CacheSnapshot>,
    /// Memoized-sweep work counters, including the multi-variant
    /// co-pricer's lane/replay-pass savings (process-wide totals across
    /// this daemon's jobs).
    pub memo: campaign::MemoStats,
    /// CMP coherence activity (invalidations, cache-to-cache transfers,
    /// snoop-bus occupancy) across this daemon's multi-core jobs.
    pub coherence: gaas_coherence::CoherenceTotals,
}

struct JobSlot {
    seq: u64,
    name: String,
    spec_text: String,
    cells: usize,
    deadline_ms: Option<u64>,
    deadline: Option<Instant>,
    state: JobState,
    detail: String,
    cancel_requested: bool,
}

struct State {
    queue: VecDeque<String>,
    jobs: BTreeMap<String, JobSlot>,
    next_seq: u64,
    avg_job_ms: f64,
}

struct Inner {
    cfg: ServeConfig,
    log: Mutex<JobsLog>,
    state: Mutex<State>,
    wake: Condvar,
    shutdown: AtomicBool,
    paused: AtomicBool,
    accepted: AtomicU64,
    rejected_busy: AtomicU64,
    rejected_invalid: AtomicU64,
    completed: AtomicU64,
    failed: AtomicU64,
    cancelled: AtomicU64,
    replayed: AtomicU64,
    worker_restarts: AtomicU64,
    /// Test/soak seam: the next N jobs panic inside the executor, so the
    /// supervisor's absorb-and-continue path can be exercised on demand
    /// (the storage analogue is the chaos shim's poison list).
    inject_panics: AtomicU64,
}

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// The running service core. Dropping it performs a best-effort
/// graceful shutdown (finish the in-flight job, stop).
pub struct ServerCore {
    inner: Arc<Inner>,
    executor: Mutex<Option<thread::JoinHandle<()>>>,
}

impl ServerCore {
    /// Opens (or creates) the service state under `cfg.dir`, replays the
    /// jobs journal — re-enqueueing in-flight jobs in acceptance order —
    /// enables the profile cache per the byte budget, and starts the
    /// executor.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors creating the directory or reading the
    /// journal (journal *damage* is salvaged, not an error).
    pub fn open(cfg: ServeConfig) -> std::io::Result<ServerCore> {
        std::fs::create_dir_all(&cfg.dir)?;
        let jobs_path = cfg.dir.join("jobs.journal");
        let (log, replay) = JobsLog::open(&jobs_path)?;
        if replay.dropped > 0 {
            eprintln!(
                "serve: jobs journal {}: salvaged {} record(s), dropped {} corrupt",
                jobs_path.display(),
                replay.records.len(),
                replay.dropped
            );
        }
        // Fold the event log into per-job final states.
        let mut jobs: BTreeMap<String, JobSlot> = BTreeMap::new();
        let mut next_seq = 1u64;
        for rec in replay.records {
            next_seq = next_seq.max(rec.seq + 1);
            match rec.event {
                JobEvent::Accepted { spec: text } => {
                    let (name, cells, deadline_ms) = match spec::parse(&text) {
                        Ok(s) => (s.name, s.cfgs.len(), s.deadline_ms),
                        Err(_) => continue, // an unparseable replayed spec is dropped
                    };
                    jobs.insert(
                        rec.job,
                        JobSlot {
                            seq: rec.seq,
                            name,
                            spec_text: text,
                            cells,
                            deadline_ms,
                            deadline: None,
                            state: JobState::Queued,
                            detail: String::new(),
                            cancel_requested: false,
                        },
                    );
                }
                JobEvent::Done => {
                    if let Some(slot) = jobs.get_mut(&rec.job) {
                        slot.state = JobState::Done;
                    }
                }
                JobEvent::Failed { reason } => {
                    if let Some(slot) = jobs.get_mut(&rec.job) {
                        slot.state = JobState::Failed;
                        slot.detail = reason;
                    }
                }
                JobEvent::Cancelled { reason } => {
                    if let Some(slot) = jobs.get_mut(&rec.job) {
                        slot.state = JobState::Cancelled;
                        slot.detail = reason;
                    }
                }
            }
        }
        // Re-enqueue in-flight jobs in acceptance (seq) order; their
        // deadline clock restarts now — the original wall-clock epoch
        // did not survive the crash, and a fresh budget is the
        // conservative reading of "deadline from acceptance".
        let mut inflight: Vec<(u64, String)> = jobs
            .iter()
            .filter(|(_, s)| s.state == JobState::Queued)
            .map(|(id, s)| (s.seq, id.clone()))
            .collect();
        inflight.sort_unstable();
        let mut queue = VecDeque::new();
        for (_, id) in inflight {
            if let Some(slot) = jobs.get_mut(&id) {
                slot.deadline = slot.deadline_ms.map(now_plus_ms);
            }
            queue.push_back(id);
        }
        let replayed = queue.len() as u64;
        profile_cache::enable(cfg.cache_budget_bytes);
        let paused = cfg.start_paused;
        let inner = Arc::new(Inner {
            cfg,
            log: Mutex::new(log),
            state: Mutex::new(State {
                queue,
                jobs,
                next_seq,
                avg_job_ms: 0.0,
            }),
            wake: Condvar::new(),
            shutdown: AtomicBool::new(false),
            paused: AtomicBool::new(paused),
            accepted: AtomicU64::new(0),
            rejected_busy: AtomicU64::new(0),
            rejected_invalid: AtomicU64::new(0),
            completed: AtomicU64::new(0),
            failed: AtomicU64::new(0),
            cancelled: AtomicU64::new(0),
            replayed: AtomicU64::new(replayed),
            worker_restarts: AtomicU64::new(0),
            inject_panics: AtomicU64::new(0),
        });
        let worker = Arc::clone(&inner);
        let executor = thread::Builder::new()
            .name("serve-executor".into())
            .spawn(move || executor_loop(&worker))
            .map_err(std::io::Error::other)?;
        Ok(ServerCore {
            inner,
            executor: Mutex::new(Some(executor)),
        })
    }

    /// Submits one spec (raw JSON text). See [`Submission`] for the
    /// admission contract.
    pub fn submit(&self, text: &str) -> Submission {
        let parsed = match spec::parse(text) {
            Ok(s) => s,
            Err(e) => {
                self.inner.rejected_invalid.fetch_add(1, Ordering::Relaxed);
                return Submission::Rejected {
                    error: e,
                    retry_after_ms: None,
                };
            }
        };
        let inner = &self.inner;
        let mut st = lock(&inner.state);
        if st.queue.len() >= inner.cfg.queue_cap {
            inner.rejected_busy.fetch_add(1, Ordering::Relaxed);
            let per_job = st.avg_job_ms.max(50.0);
            let eta = ((st.queue.len() as f64 + 1.0) * per_job) as u64;
            return Submission::Rejected {
                error: format!(
                    "queue full ({} jobs, cap {})",
                    st.queue.len(),
                    inner.cfg.queue_cap
                ),
                retry_after_ms: Some(eta.clamp(250, 60_000)),
            };
        }
        let seq = st.next_seq;
        let id = format!("j{seq:04}");
        let record = JobRecord {
            seq,
            job: id.clone(),
            event: JobEvent::Accepted {
                spec: parsed.canonical.clone(),
            },
        };
        // Durable admission: the accepted record must be on media before
        // the client hears "accepted" — otherwise a crash could silently
        // forget an acknowledged job, the one loss class the soak's
        // no-silent-loss check would catch.
        if let Err(e) = lock(&inner.log).append(&record) {
            inner.rejected_busy.fetch_add(1, Ordering::Relaxed);
            return Submission::Rejected {
                error: format!("admission journal write failed: {e}"),
                retry_after_ms: Some(1000),
            };
        }
        st.next_seq += 1;
        let deadline_ms = parsed.deadline_ms.or(inner.cfg.default_deadline_ms);
        st.jobs.insert(
            id.clone(),
            JobSlot {
                seq,
                name: parsed.name.clone(),
                spec_text: parsed.canonical,
                cells: parsed.cfgs.len(),
                deadline_ms,
                deadline: deadline_ms.map(now_plus_ms),
                state: JobState::Queued,
                detail: String::new(),
                cancel_requested: false,
            },
        );
        st.queue.push_back(id.clone());
        let position = st.queue.len();
        inner.accepted.fetch_add(1, Ordering::Relaxed);
        drop(st);
        inner.wake.notify_all();
        Submission::Accepted { job: id, position }
    }

    /// Snapshot of one job, or `None` for an unknown id.
    pub fn status(&self, id: &str) -> Option<JobInfo> {
        let st = lock(&self.inner.state);
        st.jobs.get(id).map(|slot| JobInfo {
            id: id.to_string(),
            name: slot.name.clone(),
            state: slot.state,
            detail: slot.detail.clone(),
            cells: slot.cells,
        })
    }

    /// Snapshot of every known job, in id order.
    pub fn jobs(&self) -> Vec<JobInfo> {
        let st = lock(&self.inner.state);
        st.jobs
            .iter()
            .map(|(id, slot)| JobInfo {
                id: id.clone(),
                name: slot.name.clone(),
                state: slot.state,
                detail: slot.detail.clone(),
                cells: slot.cells,
            })
            .collect()
    }

    /// The committed table artifact of a `done` job.
    ///
    /// # Errors
    ///
    /// A human-readable reason: unknown job, not terminal yet, failed
    /// (with its journaled reason), or an artifact read error.
    pub fn result(&self, id: &str) -> Result<Vec<u8>, String> {
        let (state, detail) = {
            let st = lock(&self.inner.state);
            let slot = st
                .jobs
                .get(id)
                .ok_or_else(|| format!("unknown job '{id}'"))?;
            (slot.state, slot.detail.clone())
        };
        match state {
            JobState::Done => durability::read(&table_path(&self.inner.cfg.dir, id))
                .map_err(|e| format!("artifact read failed: {e}")),
            JobState::Failed => Err(format!("job failed: {detail}")),
            JobState::Cancelled => Err(format!("job cancelled: {detail}")),
            JobState::Queued | JobState::Running => {
                Err(format!("job is {} — not finished yet", state.name()))
            }
        }
    }

    /// Cancels a queued job immediately, or requests cooperative
    /// wind-down of the running one. Returns the resulting state name.
    ///
    /// # Errors
    ///
    /// A reason when the job is unknown or already terminal.
    pub fn cancel(&self, id: &str) -> Result<&'static str, String> {
        let inner = &self.inner;
        let mut st = lock(&inner.state);
        let slot = st
            .jobs
            .get_mut(id)
            .ok_or_else(|| format!("unknown job '{id}'"))?;
        match slot.state {
            JobState::Queued => {
                slot.state = JobState::Cancelled;
                slot.detail = "cancelled while queued".into();
                slot.cancel_requested = true;
                let rec = JobRecord {
                    seq: slot.seq,
                    job: id.to_string(),
                    event: JobEvent::Cancelled {
                        reason: slot.detail.clone(),
                    },
                };
                st.queue.retain(|qid| qid != id);
                drop(st);
                inner.cancelled.fetch_add(1, Ordering::Relaxed);
                let _ = lock(&inner.log).append(&rec);
                Ok("cancelled")
            }
            JobState::Running => {
                slot.cancel_requested = true;
                drop(st);
                // Cooperative: expire the sweep deadline now; the
                // campaign skips remaining groups and the executor
                // classifies the wind-down as a cancellation.
                campaign::set_sweep_deadline(Some(Instant::now()));
                Ok("running")
            }
            terminal => Err(format!("job is already {}", terminal.name())),
        }
    }

    /// Current service counters.
    pub fn stats(&self) -> StatsSnapshot {
        let inner = &self.inner;
        let (queue_len, avg_job_ms) = {
            let st = lock(&inner.state);
            (st.queue.len(), st.avg_job_ms as u64)
        };
        StatsSnapshot {
            accepted: inner.accepted.load(Ordering::Relaxed),
            rejected_busy: inner.rejected_busy.load(Ordering::Relaxed),
            rejected_invalid: inner.rejected_invalid.load(Ordering::Relaxed),
            completed: inner.completed.load(Ordering::Relaxed),
            failed: inner.failed.load(Ordering::Relaxed),
            cancelled: inner.cancelled.load(Ordering::Relaxed),
            replayed: inner.replayed.load(Ordering::Relaxed),
            worker_restarts: inner.worker_restarts.load(Ordering::Relaxed),
            queue_len,
            avg_job_ms,
            cache: profile_cache::snapshot(),
            memo: campaign::memo_stats(),
            coherence: gaas_coherence::coherence_totals(),
        }
    }

    /// Resumes a paused executor (see [`ServeConfig::start_paused`]).
    pub fn resume(&self) {
        self.inner.paused.store(false, Ordering::SeqCst);
        self.inner.wake.notify_all();
    }

    /// Arms the supervisor test seam: the next `n` jobs panic inside
    /// the executor instead of running.
    pub fn inject_worker_panics(&self, n: u64) {
        self.inner.inject_panics.store(n, Ordering::SeqCst);
    }

    /// True once every known job is terminal and the queue is empty.
    pub fn idle(&self) -> bool {
        let st = lock(&self.inner.state);
        st.queue.is_empty() && st.jobs.values().all(|s| s.state.is_terminal())
    }

    /// Graceful shutdown: stop admitting, finish (or wind down) the
    /// in-flight job, join the executor. Idempotent.
    pub fn shutdown(&self) {
        self.inner.shutdown.store(true, Ordering::SeqCst);
        self.inner.wake.notify_all();
        if let Some(handle) = lock(&self.executor).take() {
            let _ = handle.join();
        }
    }

    /// The artifact path of a job's table (exists once `done`).
    pub fn table_path(&self, id: &str) -> PathBuf {
        table_path(&self.inner.cfg.dir, id)
    }
}

impl Drop for ServerCore {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn now_plus_ms(ms: u64) -> Instant {
    Instant::now() + Duration::from_millis(ms)
}

fn table_path(dir: &Path, id: &str) -> PathBuf {
    dir.join(format!("{id}.table.txt"))
}

/// Renders a job's deterministic table artifact: one line per cell, CPI
/// to six decimals, a bare `FAILED` marker for gaps (failure *text* is
/// journaled, not rendered — a resumed quarantined cell reports a
/// "quarantined:" prefix a fresh failure lacks, and byte-identity is
/// about results).
fn render_table(results: &[CellResult]) -> String {
    results
        .iter()
        .enumerate()
        .map(|(i, r)| match r {
            CellResult::Done(res) => format!("cell{i:02} {:.6}\n", res.cpi()),
            CellResult::Failed { .. } => format!("cell{i:02} FAILED\n"),
        })
        .collect()
}

/// How one job ended, from the executor's point of view.
enum JobOutcome {
    Done,
    Failed(String),
    Cancelled(String),
}

fn executor_loop(inner: &Arc<Inner>) {
    loop {
        // Pick the next job (or exit). The wait is time-bounded so
        // shutdown and unpause flags are always observed promptly.
        let job_id = {
            let mut st = lock(&inner.state);
            loop {
                if inner.shutdown.load(Ordering::SeqCst) {
                    return;
                }
                // A simulated chaos crash means this "process" is dead:
                // stop executing so the soak's next session replays the
                // journal (a real crash simply kills the process).
                let dead = chaos::crashed();
                if !dead && !inner.paused.load(Ordering::SeqCst) {
                    if let Some(id) = st.queue.pop_front() {
                        break id;
                    }
                }
                let (guard, _) = inner
                    .wake
                    .wait_timeout(st, Duration::from_millis(50))
                    .unwrap_or_else(|e| {
                        let (g, t) = e.into_inner();
                        (g, t)
                    });
                st = guard;
            }
        };
        let (spec_text, deadline, seq) = {
            let mut st = lock(&inner.state);
            let Some(slot) = st.jobs.get_mut(&job_id) else {
                continue;
            };
            if slot.state != JobState::Queued {
                continue; // cancelled between pop and here
            }
            slot.state = JobState::Running;
            (slot.spec_text.clone(), slot.deadline, slot.seq)
        };
        let t0 = Instant::now();
        let injected = inner
            .inject_panics
            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |n| n.checked_sub(1))
            .is_ok();
        let run = panic::catch_unwind(AssertUnwindSafe(|| {
            if injected {
                panic!("serve: injected executor panic (supervisor test seam)");
            }
            run_job(inner, &job_id, &spec_text, deadline)
        }));
        // Global cleanup no matter how the job ended: the sweep deadline
        // and active campaign must never leak into the next job.
        campaign::set_sweep_deadline(None);
        let _ = campaign::deactivate();
        let cancel_requested = {
            let st = lock(&inner.state);
            st.jobs
                .get(&job_id)
                .map(|s| s.cancel_requested)
                .unwrap_or(false)
        };
        let outcome = match run {
            Ok(Ok(())) => JobOutcome::Done,
            Ok(Err(reason)) if cancel_requested => JobOutcome::Cancelled(reason),
            Ok(Err(reason)) => JobOutcome::Failed(reason),
            Err(payload) => {
                inner.worker_restarts.fetch_add(1, Ordering::Relaxed);
                let msg = payload
                    .downcast_ref::<&str>()
                    .map(|s| s.to_string())
                    .or_else(|| payload.downcast_ref::<String>().cloned())
                    .unwrap_or_else(|| "non-string panic payload".into());
                JobOutcome::Failed(format!("worker panicked: {msg}"))
            }
        };
        let elapsed_ms = t0.elapsed().as_secs_f64() * 1e3;
        let (event, state, detail, counter) = match outcome {
            JobOutcome::Done => (
                JobEvent::Done,
                JobState::Done,
                String::new(),
                &inner.completed,
            ),
            JobOutcome::Failed(reason) => (
                JobEvent::Failed {
                    reason: reason.clone(),
                },
                JobState::Failed,
                reason,
                &inner.failed,
            ),
            JobOutcome::Cancelled(reason) => (
                JobEvent::Cancelled {
                    reason: reason.clone(),
                },
                JobState::Cancelled,
                reason,
                &inner.cancelled,
            ),
        };
        // Journal the terminal record first; only a durably recorded
        // outcome updates the in-memory state. If the append fails (a
        // chaos crash, a dead disk) the job stays non-terminal and is
        // replayed on the next open — recomputation over silent loss.
        let journaled = lock(&inner.log)
            .append(&JobRecord {
                seq,
                job: job_id.clone(),
                event,
            })
            .is_ok();
        if journaled {
            counter.fetch_add(1, Ordering::Relaxed);
            let mut st = lock(&inner.state);
            if let Some(slot) = st.jobs.get_mut(&job_id) {
                slot.state = state;
                slot.detail = detail;
            }
            // EMA over completed jobs steers the retry-after guidance.
            st.avg_job_ms = if st.avg_job_ms == 0.0 {
                elapsed_ms
            } else {
                0.7 * st.avg_job_ms + 0.3 * elapsed_ms
            };
        }
    }
}

/// Runs one job body: activate the per-job cell journal (resume mode),
/// arm the sweep deadline, run the cells, commit the rendered table
/// atomically.
fn run_job(
    inner: &Inner,
    id: &str,
    spec_text: &str,
    deadline: Option<Instant>,
) -> Result<(), String> {
    let parsed: SweepSpec = spec::parse(spec_text)?;
    if let Some(d) = deadline {
        if Instant::now() >= d {
            return Err("deadline exceeded before start".into());
        }
    }
    let cells_path = inner.cfg.dir.join(format!("{id}.cells.journal"));
    let opts = CellOptions {
        timeout: inner.cfg.cell_timeout,
        attempts: 2,
    };
    campaign::activate(&cells_path, true, opts)
        .map_err(|e| format!("cannot open cell journal: {e}"))?;
    campaign::set_sweep_deadline(deadline);
    let results = campaign::run_cells(&parsed.cfgs, parsed.scale);
    campaign::set_sweep_deadline(None);
    let _ = campaign::deactivate();
    if results.iter().any(campaign::is_transient_skip) {
        return Err(
            "deadline exceeded: the sweep wound down before completing (finished cells \
             stay journaled; a resubmit resumes)"
                .into(),
        );
    }
    let table = render_table(&results);
    let path = table_path(&inner.cfg.dir, id);
    durability::retrying("table commit", || {
        durability::write_atomic(&path, table.as_bytes())?;
        // Read-back verification: the journals are CRC-framed, but the
        // table is raw bytes — a storage fault that flips a bit on the
        // write path would otherwise turn into a silently corrupt "done"
        // artifact. A mismatch burns one retry and rewrites.
        if durability::read(&path)? != table.as_bytes() {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                "committed table bytes differ from the rendered table",
            ));
        }
        Ok(())
    })
    .map_err(|e| format!("cannot commit table artifact: {e}"))?;
    Ok(())
}
