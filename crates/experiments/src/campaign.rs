//! Crash-resilient campaign running: per-cell isolation, quarantine, and
//! a resumable checksummed journal.
//!
//! A figure sweep is a *campaign* of independent cells (one configuration
//! × scale each). Historically one panicking or wedged cell lost the
//! whole sweep; this module gives every cell four layers of protection:
//!
//! 1. **isolation** — the cell runs on its own thread behind
//!    `catch_unwind`, so a panic degrades to a per-cell
//!    [`CellResult::Failed`] instead of tearing down the campaign;
//! 2. **wall-clock timeout** — a cell still running at
//!    [`CellOptions::timeout`] (clamped to the sweep deadline, see
//!    [`set_sweep_deadline`]) is cancelled cooperatively (the simulator
//!    polls a [`CancelToken`] between instruction batches and stops
//!    within microseconds); only a cell wedged so hard it ignores the
//!    flag is detached as a last resort;
//! 3. **bounded retry** — panics and timeouts are retried up to
//!    [`CellOptions::attempts`] times; *typed* simulation errors
//!    (invalid config, machine check, oracle divergence) are
//!    deterministic and fail immediately;
//! 4. **quarantine** — a cell that exhausts its retry budget on the
//!    *retryable* class (panic/timeout) is journaled as quarantined with
//!    its reason, so every later run — same process or a resumed one —
//!    skips it instead of burning the retry budget again.
//!
//! With a campaign [`activate`]d, every cell additionally journals its
//! result, keyed by a fingerprint of the *full* configuration debug form
//! plus the workload scale. Re-running after a crash with the journal
//! present skips completed cells — including failed and quarantined ones
//! — and produces byte-identical tables, because counters round-trip
//! through the journal losslessly (lexical `u64` parsing, no float
//! coercion).
//!
//! ## Journal format (version 2)
//!
//! The journal is **append-only**: a `GAASJRN2` header line, then one
//! record per line framed as `{len:08x} {crc:08x} {payload}` — payload
//! length and CRC32 over the payload bytes, payload a one-line JSON
//! object `{"key": …, "entry": …}`. Later records for a key override
//! earlier ones. The framing makes damage *local*: a torn tail, a
//! flipped bit, or a short read loses exactly the record(s) it touches,
//! and the salvage parser ([`inspect_journal`] exposes it) recovers
//! every other record. Text without the header, such as a retired
//! version-1 journal, loses every line: its cells are recomputed and
//! the first write leaves a clean version-2 file. All journal I/O goes
//! through [`crate::durability`] — `fsync` on commit behind the
//! `durable_sync` knob, atomic rewrites with bounded retry — and is
//! exercised against the seeded fault injection in [`crate::chaos`] by
//! the `crash_soak` binary.
//!
//! The journal stores counters, completion lists and per-process stats —
//! everything a table renders — but not checkpoints (progress markers are
//! meaningless for a reloaded run; [`SimResult::checkpoints`] comes back
//! empty).

use std::collections::{BTreeMap, HashMap};
use std::fmt;
use std::io;
use std::panic::{self, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::thread;
use std::time::{Duration, Instant};

use gaas_sim::config::SimConfig;
use gaas_sim::{
    config_fingerprint, functional_fingerprint, price_profiles, CancelToken, Counters,
    FunctionalProfile, Pid, ProcCounters, SimError, SimResult, Termination,
};

use crate::json::{self, Json};
use crate::{chaos, durability, frames, interrupt, pool, profile_cache, runner};

/// How long a timed-out cell gets to acknowledge cooperative
/// cancellation before it is detached as truly wedged.
const CANCEL_GRACE: Duration = Duration::from_secs(2);

/// Failure text for cells skipped because an interrupt (SIGINT/SIGTERM,
/// or the serve daemon's shutdown) was received before they started.
/// Results carrying this text are *transient*: they are never journaled,
/// so a `--resume` re-runs them.
pub const INTERRUPT_SKIP: &str = "skipped: interrupted before start";

/// Failure text for cells skipped because the sweep deadline
/// ([`set_sweep_deadline`]) passed before they started. Transient, like
/// [`INTERRUPT_SKIP`]: never journaled, re-run on resume.
pub const DEADLINE_SKIP: &str = "skipped: sweep deadline exceeded";

/// Process-wide soft deadline for the *current* sweep, read at the start
/// of every isolated attempt.
static SWEEP_DEADLINE: Mutex<Option<Instant>> = Mutex::new(None);

/// Sets (or clears, with `None`) the process-wide sweep deadline. Every
/// attempt to run a cell or a group clamps its timeout to the time
/// remaining when it starts, and one the deadline cuts off (or that
/// would start after it) ends as a [`DEADLINE_SKIP`] — not retried, not
/// journaled — so the sweep winds down cooperatively close to the
/// deadline rather than at `deadline + timeout`.
pub fn set_sweep_deadline(deadline: Option<Instant>) {
    *SWEEP_DEADLINE.lock().unwrap_or_else(|e| e.into_inner()) = deadline;
}

fn sweep_deadline() -> Option<Instant> {
    *SWEEP_DEADLINE.lock().unwrap_or_else(|e| e.into_inner())
}

/// True for results that must **not** be journaled: interrupt and
/// deadline skips are transient (a resume should re-run those cells),
/// unlike real failures, which are durable outcomes worth remembering.
pub fn is_transient_skip(res: &CellResult) -> bool {
    matches!(res, CellResult::Failed { error, .. }
        if error == INTERRUPT_SKIP || error == DEADLINE_SKIP)
}

/// A transient skip result (see [`is_transient_skip`]), tagged not
/// retryable.
fn skipped(reason: &str) -> (CellResult, bool) {
    let res = CellResult::Failed {
        error: reason.to_string(),
        attempts: 0,
    };
    (res, false)
}

/// Process-wide switch for the two-phase memoized sweep path (on by
/// default). When off, [`run_cells`] runs every cell as a full isolated
/// simulation — the pre-memoization behaviour, kept reachable so the
/// determinism gate can compare the two paths byte for byte.
static MEMO_ENABLED: AtomicBool = AtomicBool::new(true);

/// Full functional simulations executed by the grouping path (group
/// leads, singleton groups, and fallback members).
static FUNCTIONAL_RUNS: AtomicU64 = AtomicU64::new(0);

/// Cells priced from a memoized [`gaas_sim::FunctionalProfile`] instead
/// of simulated.
static PRICED_CELLS: AtomicU64 = AtomicU64::new(0);

/// Geometry groups priced by the multi-variant co-pricer in one
/// streaming pass ([`gaas_sim::price_profiles`]).
static CO_PRICED_GROUPS: AtomicU64 = AtomicU64::new(0);

/// Variant lanes advanced by the co-pricer across those groups.
static CO_PRICED_LANES: AtomicU64 = AtomicU64::new(0);

/// Co-priced groups whose pass failed and fell back to individual
/// simulation.
static CO_PRICER_FALLBACKS: AtomicU64 = AtomicU64::new(0);

/// Enables or disables sweep memoization process-wide.
pub fn set_memoize(on: bool) {
    MEMO_ENABLED.store(on, Ordering::Relaxed);
}

/// True when sweep memoization is enabled.
pub fn memoize_enabled() -> bool {
    MEMO_ENABLED.load(Ordering::Relaxed)
}

/// Work counters of the memoized sweep path, accumulated process-wide
/// across [`run_cells`] batches since the last [`reset_memo_stats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MemoStats {
    /// Full functional simulations executed.
    pub functional_runs: u64,
    /// Cells priced from a memoized profile instead of simulated.
    pub priced_cells: u64,
    /// Geometry groups priced in one multi-variant streaming pass.
    pub copriced_groups: u64,
    /// Variant lanes advanced by the co-pricer across those groups.
    pub copriced_lanes: u64,
    /// Co-priced groups whose pass failed and fell back to individual
    /// simulation.
    pub copricer_fallbacks: u64,
}

impl MemoStats {
    /// Total cells resolved through the grouping path.
    pub fn cells(&self) -> u64 {
        self.functional_runs + self.priced_cells
    }

    /// Functional-pass reuse factor: cells resolved per full simulation
    /// (1.0 when nothing was memoized).
    pub fn reuse_factor(&self) -> f64 {
        if self.functional_runs == 0 {
            1.0
        } else {
            self.cells() as f64 / self.functional_runs as f64
        }
    }

    /// Token-replay passes avoided by co-pricing: one shared decode pass
    /// per group instead of one per lane, so lanes − 1 per group.
    pub fn replay_passes_saved(&self) -> u64 {
        self.copriced_lanes.saturating_sub(self.copriced_groups)
    }

    /// Mean variant lanes per co-priced group (0.0 when none ran).
    pub fn lanes_per_group(&self) -> f64 {
        if self.copriced_groups == 0 {
            0.0
        } else {
            self.copriced_lanes as f64 / self.copriced_groups as f64
        }
    }
}

/// The memoization work counters accumulated so far.
pub fn memo_stats() -> MemoStats {
    MemoStats {
        functional_runs: FUNCTIONAL_RUNS.load(Ordering::Relaxed),
        priced_cells: PRICED_CELLS.load(Ordering::Relaxed),
        copriced_groups: CO_PRICED_GROUPS.load(Ordering::Relaxed),
        copriced_lanes: CO_PRICED_LANES.load(Ordering::Relaxed),
        copricer_fallbacks: CO_PRICER_FALLBACKS.load(Ordering::Relaxed),
    }
}

/// One group's resolution record in the memoization trace (see
/// [`set_memo_trace`]). The trace answers "which cells were priced and
/// which were simulated?" — the telemetry summary renders it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MemoTraceEntry {
    /// Batch sequence number (each [`run_cells`] call is one batch).
    pub batch: u64,
    /// Functional fingerprint shared by the group's members, or `None`
    /// for an unmemoizable singleton (fault injection, diffcheck,
    /// checkpointing, telemetry — or memoization disabled).
    pub fingerprint: Option<u64>,
    /// Member cell indices within the batch, in submission order; the
    /// first member is the functional lead.
    pub members: Vec<usize>,
    /// True when the non-lead members were priced from the lead's
    /// profile; false when every member ran as a full simulation
    /// (singleton, memoization off, or group fallback).
    pub priced: bool,
}

/// Process-wide switch recording a [`MemoTraceEntry`] per group (off by
/// default — the trace is only collected for telemetry runs).
static MEMO_TRACE_ENABLED: AtomicBool = AtomicBool::new(false);

/// The recorded trace, drained by [`take_memo_trace`].
static MEMO_TRACE: Mutex<Vec<MemoTraceEntry>> = Mutex::new(Vec::new());

/// Batch sequence numbers for trace entries.
static BATCH_COUNTER: AtomicU64 = AtomicU64::new(0);

/// Enables or disables memoization tracing process-wide. Enabling starts
/// a fresh trace (any prior entries are discarded).
pub fn set_memo_trace(on: bool) {
    if on {
        let mut t = MEMO_TRACE.lock().unwrap_or_else(|e| e.into_inner());
        t.clear();
        BATCH_COUNTER.store(0, Ordering::Relaxed);
    }
    MEMO_TRACE_ENABLED.store(on, Ordering::Relaxed);
}

/// Takes (and clears) the memoization trace recorded since
/// [`set_memo_trace`]`(true)`, in batch/group submission order.
pub fn take_memo_trace() -> Vec<MemoTraceEntry> {
    std::mem::take(&mut *MEMO_TRACE.lock().unwrap_or_else(|e| e.into_inner()))
}

/// Zeroes the memoization work counters (callers reset before a sweep
/// they intend to report on).
pub fn reset_memo_stats() {
    FUNCTIONAL_RUNS.store(0, Ordering::Relaxed);
    PRICED_CELLS.store(0, Ordering::Relaxed);
    CO_PRICED_GROUPS.store(0, Ordering::Relaxed);
    CO_PRICED_LANES.store(0, Ordering::Relaxed);
    CO_PRICER_FALLBACKS.store(0, Ordering::Relaxed);
}

/// Per-cell isolation knobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CellOptions {
    /// Wall-clock budget per attempt; a cell still running at the
    /// deadline is abandoned.
    pub timeout: Duration,
    /// Maximum attempts per cell (panics and timeouts retry; typed
    /// simulation errors are deterministic and never retry).
    pub attempts: u32,
}

impl Default for CellOptions {
    fn default() -> Self {
        CellOptions {
            timeout: Duration::from_secs(600),
            attempts: 2,
        }
    }
}

impl CellOptions {
    /// Effectively unbounded options for direct (non-campaign) runs: one
    /// attempt, a week of wall clock.
    pub fn unbounded() -> Self {
        CellOptions {
            timeout: Duration::from_secs(7 * 24 * 3600),
            attempts: 1,
        }
    }
}

/// Outcome of one campaign cell.
#[derive(Debug, Clone)]
pub enum CellResult {
    /// The cell completed; the full result is available.
    Done(Box<SimResult>),
    /// The cell failed every attempt; tables render it as a gap.
    Failed {
        /// Human-readable failure description (panic message, timeout,
        /// or typed simulation error).
        error: String,
        /// Attempts consumed.
        attempts: u32,
    },
}

impl CellResult {
    /// The result, if the cell completed.
    pub fn ok(self) -> Option<Box<SimResult>> {
        match self {
            CellResult::Done(r) => Some(r),
            CellResult::Failed { .. } => None,
        }
    }

    /// True when the cell completed.
    pub fn is_done(&self) -> bool {
        matches!(self, CellResult::Done(_))
    }
}

/// Journal key for one cell: FNV-1a over the configuration's `Debug`
/// form (the summary `Display` omits sweep knobs) plus the exact bits of
/// the workload scale.
pub fn cell_key(cfg: &SimConfig, scale: f64) -> String {
    format!("{:016x}-{:016x}", config_fingerprint(cfg), scale.to_bits())
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// How one isolated attempt ([`isolated`]) ended.
enum Attempt<T> {
    /// The work returned its result.
    Done(T),
    /// A typed simulation error, or a worker that could not start:
    /// deterministic, so never retried.
    Failed(String),
    /// A panic, a timeout or a worker that vanished without reporting:
    /// retried, and quarantined once the retry budget is spent.
    Retryable(String),
    /// The sweep deadline passed before the attempt or cut it off:
    /// transient, so neither retried nor journaled.
    DeadlineSkip,
}

/// Runs `work` once on its own thread behind `catch_unwind`, handing it
/// the [`CancelToken`] it polls. The wall-clock limit is `timeout`
/// clamped to the sweep deadline as it stands now; when the limit
/// passes, the worker is cancelled and gets [`CANCEL_GRACE`] to stop,
/// and only a worker wedged past that is detached. Cells and groups
/// both run through here.
fn isolated<T: Send + 'static>(
    name: &str,
    timeout: Duration,
    work: impl FnOnce(CancelToken) -> Result<T, SimError> + Send + 'static,
) -> Attempt<T> {
    let (limit, clamped) =
        match sweep_deadline().map(|d| d.saturating_duration_since(Instant::now())) {
            Some(left) if left.is_zero() => return Attempt::DeadlineSkip,
            Some(left) if left < timeout => (left, true),
            _ => (timeout, false),
        };
    let (tx, rx) = mpsc::channel();
    let cancel = CancelToken::new();
    let worker_cancel = cancel.clone();
    let spawned = thread::Builder::new().name(name.into()).spawn(move || {
        let out = panic::catch_unwind(AssertUnwindSafe(|| work(worker_cancel)));
        let _ = tx.send(out);
    });
    let handle = match spawned {
        Ok(h) => h,
        Err(e) => return Attempt::Failed(format!("could not spawn {name} worker: {e}")),
    };
    let outcome = match rx.recv_timeout(limit) {
        Ok(Ok(Ok(out))) => Attempt::Done(out),
        Ok(Ok(Err(e))) => Attempt::Failed(e.to_string()),
        Ok(Err(payload)) => {
            Attempt::Retryable(format!("panicked: {}", panic_message(payload.as_ref())))
        }
        Err(mpsc::RecvTimeoutError::Disconnected) => {
            Attempt::Retryable(format!("{name} worker exited without reporting a result"))
        }
        Err(mpsc::RecvTimeoutError::Timeout) => {
            // Whatever the worker reports once cancelled (normally
            // `SimError::Cancelled`) is dropped in favour of the limit.
            cancel.cancel();
            let expired = if clamped {
                Attempt::DeadlineSkip
            } else {
                Attempt::Retryable(
                    SimError::Timeout {
                        millis: u64::try_from(timeout.as_millis()).unwrap_or(u64::MAX),
                    }
                    .to_string(),
                )
            };
            if let Err(mpsc::RecvTimeoutError::Timeout) = rx.recv_timeout(CANCEL_GRACE) {
                return expired; // wedged past the grace: detached, not joined
            }
            expired
        }
    };
    let _ = handle.join();
    outcome
}

/// Runs one cell isolated on its own thread with `catch_unwind`, a
/// wall-clock timeout and bounded retry. Never panics, never blocks past
/// `opts.timeout * opts.attempts` (plus the cancel grace).
pub fn run_isolated(cfg: &SimConfig, scale: f64, opts: &CellOptions) -> CellResult {
    run_isolated_tagged(cfg, scale, opts).0
}

/// [`run_isolated`], additionally reporting whether a failure exhausted
/// the *retryable* class (panic/timeout) — the campaign quarantines
/// exactly those, since re-running them would burn the whole retry
/// budget again; typed errors stay plain failures.
fn run_isolated_tagged(cfg: &SimConfig, scale: f64, opts: &CellOptions) -> (CellResult, bool) {
    let mut attempts = 0;
    loop {
        attempts += 1;
        let worker_cfg = cfg.clone();
        let attempt = isolated("campaign-cell", opts.timeout, move |cancel| {
            chaos::poison_check(config_fingerprint(&worker_cfg));
            runner::run_standard_raw_cancellable(worker_cfg, scale, Some(cancel))
        });
        let (error, retryable) = match attempt {
            Attempt::Done(result) => return (CellResult::Done(Box::new(result)), false),
            Attempt::DeadlineSkip => return skipped(DEADLINE_SKIP),
            Attempt::Failed(error) => (error, false),
            Attempt::Retryable(error) => (error, true),
        };
        if !retryable || attempts >= opts.attempts {
            return (CellResult::Failed { error, attempts }, retryable);
        }
    }
}

// The journal encodes every counter under its field name, in
// declaration order, from the one field list in `gaas_sim::cpi`
// (`Counters::fields_mut`, `ProcCounters::fields_mut`).

fn int_field((name, v): (&str, u64)) -> (String, Json) {
    (name.to_string(), Json::Int(v))
}

/// Reads each named field from the object `v`.
fn read_fields<'a>(
    v: &Json,
    fields: impl IntoIterator<Item = (&'a str, &'a mut u64)>,
) -> Option<()> {
    for (name, dst) in fields {
        *dst = v.get(name)?.as_u64()?;
    }
    Some(())
}

fn counters_to_json(c: &Counters) -> Json {
    Json::Obj(c.fields().map(int_field).into())
}

fn counters_from_json(v: &Json) -> Option<Counters> {
    let mut c = Counters::new();
    read_fields(v, c.fields_mut())?;
    Some(c)
}

fn proc_to_json(pid: u8, p: &ProcCounters) -> Json {
    let mut fields = vec![int_field(("pid", u64::from(pid)))];
    fields.extend(p.fields().map(int_field));
    Json::Obj(fields)
}

fn proc_from_json(v: &Json) -> Option<(u8, ProcCounters)> {
    let pid = u8::try_from(v.get("pid")?.as_u64()?).ok()?;
    let mut p = ProcCounters::default();
    read_fields(v, p.fields_mut())?;
    Some((pid, p))
}

/// The journaled portion of a [`SimResult`] (everything a table needs;
/// the config is re-supplied by the caller on reload, checkpoints are
/// not persisted).
#[derive(Debug, Clone)]
struct StoredResult {
    counters: Counters,
    completed: Vec<String>,
    per_process: Vec<(u8, ProcCounters)>,
    budget_exhausted: bool,
}

impl StoredResult {
    fn from_result(r: &SimResult) -> Self {
        StoredResult {
            counters: r.counters,
            completed: r.completed.clone(),
            per_process: r
                .per_process
                .iter()
                .map(|(pid, p)| (pid.raw(), *p))
                .collect(),
            budget_exhausted: r.termination == Termination::BudgetExhausted,
        }
    }

    fn to_result(&self, config: SimConfig) -> SimResult {
        SimResult {
            config,
            counters: self.counters,
            completed: self.completed.clone(),
            per_process: self
                .per_process
                .iter()
                .map(|(pid, p)| (Pid::new(*pid), *p))
                .collect(),
            termination: if self.budget_exhausted {
                Termination::BudgetExhausted
            } else {
                Termination::Completed
            },
            checkpoints: Vec::new(),
        }
    }

    fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("counters".into(), counters_to_json(&self.counters)),
            (
                "completed".into(),
                Json::Arr(
                    self.completed
                        .iter()
                        .map(|s| Json::Str(s.clone()))
                        .collect(),
                ),
            ),
            (
                "per_process".into(),
                Json::Arr(
                    self.per_process
                        .iter()
                        .map(|(pid, p)| proc_to_json(*pid, p))
                        .collect(),
                ),
            ),
            ("budget_exhausted".into(), Json::Bool(self.budget_exhausted)),
        ])
    }

    fn from_json(v: &Json) -> Option<Self> {
        let counters = counters_from_json(v.get("counters")?)?;
        let completed = v
            .get("completed")?
            .as_arr()?
            .iter()
            .map(|s| s.as_str().map(str::to_string))
            .collect::<Option<Vec<_>>>()?;
        let per_process = v
            .get("per_process")?
            .as_arr()?
            .iter()
            .map(proc_from_json)
            .collect::<Option<Vec<_>>>()?;
        let budget_exhausted = v.get("budget_exhausted")?.as_bool()?;
        Some(StoredResult {
            counters,
            completed,
            per_process,
            budget_exhausted,
        })
    }
}

/// One journal record.
#[derive(Debug, Clone)]
enum JournalEntry {
    Done(Box<StoredResult>),
    Failed {
        error: String,
        attempts: u32,
    },
    /// The cell exhausted its retry budget on panics/timeouts; later
    /// runs skip it (with the journaled reason) instead of retrying.
    Quarantined {
        error: String,
        attempts: u32,
    },
}

impl JournalEntry {
    fn to_json(&self) -> Json {
        match self {
            JournalEntry::Done(s) => Json::Obj(vec![
                ("status".into(), Json::Str("done".into())),
                ("result".into(), s.to_json()),
            ]),
            JournalEntry::Failed { error, attempts } => Json::Obj(vec![
                ("status".into(), Json::Str("failed".into())),
                ("error".into(), Json::Str(error.clone())),
                ("attempts".into(), Json::Int(*attempts as u64)),
            ]),
            JournalEntry::Quarantined { error, attempts } => Json::Obj(vec![
                ("status".into(), Json::Str("quarantined".into())),
                ("error".into(), Json::Str(error.clone())),
                ("attempts".into(), Json::Int(*attempts as u64)),
            ]),
        }
    }

    fn from_json(v: &Json) -> Option<Self> {
        match v.get("status")?.as_str()? {
            "done" => Some(JournalEntry::Done(Box::new(StoredResult::from_json(
                v.get("result")?,
            )?))),
            "failed" => Some(JournalEntry::Failed {
                error: v.get("error")?.as_str()?.to_string(),
                attempts: v.get("attempts")?.as_u64()? as u32,
            }),
            "quarantined" => Some(JournalEntry::Quarantined {
                error: v.get("error")?.as_str()?.to_string(),
                attempts: v.get("attempts")?.as_u64()? as u32,
            }),
            _ => None,
        }
    }
}

/// Progress statistics of a campaign.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CampaignStats {
    /// Cells executed in this process.
    pub executed: u64,
    /// Cells reused from the journal (done, failed, and quarantined).
    pub reused: u64,
    /// Cells currently recorded as failed (quarantined ones included).
    pub failed: u64,
    /// Cells currently recorded as quarantined (a subset of `failed`).
    pub quarantined: u64,
    /// Corrupt journal records dropped by the salvage parser at open.
    pub salvaged_drops: u64,
}

impl fmt::Display for CampaignStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} executed, {} reused from journal, {} failed",
            self.executed, self.reused, self.failed
        )?;
        if self.quarantined > 0 {
            write!(f, " ({} quarantined)", self.quarantined)?;
        }
        if self.salvaged_drops > 0 {
            write!(f, ", {} corrupt record(s) dropped", self.salvaged_drops)?;
        }
        Ok(())
    }
}

/// Header line of a version-2 (append-only, per-record-checksummed)
/// journal file.
const JOURNAL_HEADER: &str = "GAASJRN2\n";

/// Current journal format version.
const JOURNAL_VERSION: u32 = 2;

/// A resumable campaign: cell results keyed by config fingerprint,
/// journaled to `path` after every cell (appended with per-record CRC32
/// framing; compacted by atomic rewrite when the on-disk tail is not
/// known to be clean).
#[derive(Debug)]
pub struct Campaign {
    path: PathBuf,
    cells: BTreeMap<String, JournalEntry>,
    opts: CellOptions,
    executed: u64,
    reused: u64,
    salvaged_drops: u64,
    /// True when the on-disk file is clean version-2 with a
    /// record-aligned tail, so the next record can simply append. False
    /// (fresh campaign, unrecognized format, salvage drops, or a failed
    /// append) forces a full atomic rewrite on the next record.
    appendable: bool,
}

impl Campaign {
    /// Opens a campaign journaling to `path`. With `resume`, previously
    /// journaled cells are reloaded and skipped; without it the campaign
    /// starts empty (the old journal is overwritten on the first cell).
    ///
    /// # Errors
    ///
    /// Returns the I/O error if `resume` is set and the journal exists
    /// but cannot be read. A *corrupt* journal is not an error: every
    /// parseable record is salvaged and only the damaged ones are
    /// dropped, with a warning (crash resilience beats strictness).
    pub fn open(path: impl AsRef<Path>, resume: bool, opts: CellOptions) -> io::Result<Self> {
        let path = path.as_ref().to_path_buf();
        let mut cells = BTreeMap::new();
        let mut appendable = false;
        let mut salvaged_drops = 0;
        if resume && path.exists() {
            let bytes = durability::read(&path)?;
            let text = String::from_utf8_lossy(&bytes);
            let load = parse_journal(&text);
            salvaged_drops = load.dropped;
            if load.dropped > 0 {
                eprintln!(
                    "campaign: journal {}: salvaged {} record(s), dropped {} corrupt",
                    path.display(),
                    load.cells.len(),
                    load.dropped
                );
            }
            appendable = load.version == JOURNAL_VERSION && load.dropped == 0;
            cells = load.cells;
        }
        Ok(Campaign {
            path,
            cells,
            opts,
            executed: 0,
            reused: 0,
            salvaged_drops,
            appendable,
        })
    }

    /// Reloads one cell from the journal, if present (counts as reuse).
    fn lookup(&mut self, cfg: &SimConfig, scale: f64) -> Option<CellResult> {
        let entry = self.cells.get(&cell_key(cfg, scale))?;
        self.reused += 1;
        Some(match entry {
            JournalEntry::Done(s) => CellResult::Done(Box::new(s.to_result(cfg.clone()))),
            JournalEntry::Failed { error, attempts } => CellResult::Failed {
                error: error.clone(),
                attempts: *attempts,
            },
            JournalEntry::Quarantined { error, attempts } => CellResult::Failed {
                error: format!("quarantined: {error}"),
                attempts: *attempts,
            },
        })
    }

    /// Journals one executed cell result (committed durably right away,
    /// so a crash after any cell loses nothing). `retryable` marks a
    /// failure that exhausted the panic/timeout retry budget — those are
    /// quarantined: journaled with their reason and skipped by every
    /// later run instead of retried.
    fn record(&mut self, cfg: &SimConfig, scale: f64, res: &CellResult, retryable: bool) {
        self.executed += 1;
        let entry = match res {
            CellResult::Done(r) => JournalEntry::Done(Box::new(StoredResult::from_result(r))),
            CellResult::Failed { error, attempts } if retryable => JournalEntry::Quarantined {
                error: error.clone(),
                attempts: *attempts,
            },
            CellResult::Failed { error, attempts } => JournalEntry::Failed {
                error: error.clone(),
                attempts: *attempts,
            },
        };
        let key = cell_key(cfg, scale);
        let line = record_line(&key, &entry);
        self.cells.insert(key, entry);
        let wrote = if self.appendable {
            durability::append(&self.path, line.as_bytes())
        } else {
            self.rewrite_full()
        };
        match wrote {
            Ok(()) => self.appendable = true,
            Err(e) => {
                // A failed append may have left a torn tail; stop
                // appending and compact on the next record (the entry is
                // safe in memory, and a torn tail only costs itself).
                self.appendable = false;
                eprintln!(
                    "campaign: could not write journal {}: {e}",
                    self.path.display()
                );
            }
        }
    }

    /// Runs (or reloads) one cell. A transient skip (see
    /// [`is_transient_skip`]) is returned but not journaled.
    pub fn cell(&mut self, cfg: &SimConfig, scale: f64) -> CellResult {
        if let Some(res) = self.lookup(cfg, scale) {
            return res;
        }
        let (res, retryable) = run_isolated_tagged(cfg, scale, &self.opts);
        if !is_transient_skip(&res) {
            self.record(cfg, scale, &res, retryable);
        }
        res
    }

    /// Journal path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Keys and journaled reasons of the quarantined cells, in key order.
    pub fn quarantined(&self) -> Vec<(String, String)> {
        self.cells
            .iter()
            .filter_map(|(k, e)| match e {
                JournalEntry::Quarantined { error, .. } => Some((k.clone(), error.clone())),
                _ => None,
            })
            .collect()
    }

    /// Progress so far.
    pub fn stats(&self) -> CampaignStats {
        let mut failed = 0;
        let mut quarantined = 0;
        for e in self.cells.values() {
            match e {
                JournalEntry::Failed { .. } => failed += 1,
                JournalEntry::Quarantined { .. } => {
                    failed += 1;
                    quarantined += 1;
                }
                JournalEntry::Done(_) => {}
            }
        }
        CampaignStats {
            executed: self.executed,
            reused: self.reused,
            failed,
            quarantined,
            salvaged_drops: self.salvaged_drops,
        }
    }

    /// Compacts the journal: header plus one framed record per cell,
    /// committed atomically (temp + fsync + rename + dir fsync) with
    /// bounded retry against transient rename failures.
    fn rewrite_full(&self) -> io::Result<()> {
        let mut text = String::from(JOURNAL_HEADER);
        for (k, v) in &self.cells {
            text.push_str(&record_line(k, v));
        }
        durability::retrying("journal rewrite", || {
            durability::write_atomic(&self.path, text.as_bytes())
        })
    }
}

/// Encodes one journal record line through the shared
/// [`frames`](crate::frames) framing (`{len:08x} {crc:08x} {payload}\n`).
fn record_line(key: &str, entry: &JournalEntry) -> String {
    let payload = Json::Obj(vec![
        ("key".into(), Json::Str(key.to_string())),
        ("entry".into(), entry.to_json()),
    ])
    .to_text();
    frames::frame_line(&payload)
}

/// Decodes one journal record line, or `None` if any framing check
/// fails: malformed prefix, length mismatch, CRC mismatch, or an
/// undecodable payload. A torn or bit-flipped record always lands here —
/// never in a silently wrong entry.
fn parse_record_line(line: &str) -> Option<(String, JournalEntry)> {
    let v = json::parse(frames::parse_line(line)?).ok()?;
    let key = v.get("key")?.as_str()?.to_string();
    let entry = JournalEntry::from_json(v.get("entry")?)?;
    Some((key, entry))
}

/// Result of salvage-parsing a journal: the surviving cells, the format
/// version found on disk, and how many corrupt records were dropped.
struct JournalLoad {
    cells: BTreeMap<String, JournalEntry>,
    version: u32,
    dropped: u64,
}

/// Salvage parser: recovers every parseable record from `text`, dropping
/// (and counting) only the damaged ones. Text without the version-2
/// header line is unrecognized: version 0, every non-blank line (at
/// least one) dropped.
fn parse_journal(text: &str) -> JournalLoad {
    if let Some(body) = text.strip_prefix(JOURNAL_HEADER) {
        return parse_journal_v2(body);
    }
    if text == JOURNAL_HEADER.trim_end() {
        // A header torn exactly at the newline: an empty clean journal,
        // but the tail is not record-aligned — treat as one drop so the
        // next write compacts.
        return JournalLoad {
            cells: BTreeMap::new(),
            version: JOURNAL_VERSION,
            dropped: 1,
        };
    }
    let lines = text.lines().filter(|l| !l.trim().is_empty()).count() as u64;
    JournalLoad {
        cells: BTreeMap::new(),
        version: 0,
        dropped: lines.max(1),
    }
}

fn parse_journal_v2(body: &str) -> JournalLoad {
    let mut cells = BTreeMap::new();
    let mut dropped = 0u64;
    for line in body.lines() {
        if line.is_empty() {
            continue;
        }
        match parse_record_line(line) {
            // Later records override earlier ones (append-only updates).
            Some((key, entry)) => {
                cells.insert(key, entry);
            }
            None => dropped += 1,
        }
    }
    JournalLoad {
        cells,
        version: JOURNAL_VERSION,
        dropped,
    }
}

/// Status summary of one surviving journal record (see
/// [`inspect_journal`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RecordStatus {
    /// Completed cell with a full stored result.
    Done,
    /// Deterministic (typed) failure.
    Failed,
    /// Quarantined after exhausting the retry budget, with the journaled
    /// reason.
    Quarantined(String),
}

/// Offline summary of a journal file: the records the salvage parser
/// recovers plus how many it had to drop.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JournalInspection {
    /// Format version found on disk (2, or 0 for anything unrecognized,
    /// including a retired version-1 journal).
    pub version: u32,
    /// Surviving records in key order: cell key → status.
    pub records: Vec<(String, RecordStatus)>,
    /// Corrupt records dropped by the salvage parser.
    pub dropped: u64,
}

impl JournalInspection {
    /// Keys of the quarantined records with their journaled reasons.
    pub fn quarantined(&self) -> Vec<(&str, &str)> {
        self.records
            .iter()
            .filter_map(|(k, s)| match s {
                RecordStatus::Quarantined(reason) => Some((k.as_str(), reason.as_str())),
                _ => None,
            })
            .collect()
    }
}

/// Reads and salvage-parses a journal without opening a campaign — the
/// inspection surface used by `crash_soak` and the robustness tests.
///
/// # Errors
///
/// Returns the I/O error if the file cannot be read at all (a *corrupt*
/// file still inspects; damage shows up in
/// [`dropped`](JournalInspection::dropped)).
pub fn inspect_journal(path: impl AsRef<Path>) -> io::Result<JournalInspection> {
    let bytes = durability::read(path.as_ref())?;
    let text = String::from_utf8_lossy(&bytes);
    let load = parse_journal(&text);
    Ok(JournalInspection {
        version: load.version,
        records: load
            .cells
            .iter()
            .map(|(k, e)| {
                let status = match e {
                    JournalEntry::Done(_) => RecordStatus::Done,
                    JournalEntry::Failed { .. } => RecordStatus::Failed,
                    JournalEntry::Quarantined { error, .. } => {
                        RecordStatus::Quarantined(error.clone())
                    }
                };
                (k.clone(), status)
            })
            .collect(),
        dropped: load.dropped,
    })
}

/// The process-wide active campaign consulted by [`run_cells`].
static ACTIVE: Mutex<Option<Campaign>> = Mutex::new(None);

fn active() -> std::sync::MutexGuard<'static, Option<Campaign>> {
    ACTIVE.lock().unwrap_or_else(|e| e.into_inner())
}

/// Activates a process-wide campaign: every subsequent standard-workload
/// run journals to `path` (and, with `resume`, skips journaled cells).
/// Replaces any previously active campaign.
///
/// # Errors
///
/// Returns the I/O error if the existing journal cannot be read.
pub fn activate(path: impl AsRef<Path>, resume: bool, opts: CellOptions) -> io::Result<()> {
    let campaign = Campaign::open(path, resume, opts)?;
    *active() = Some(campaign);
    Ok(())
}

/// Deactivates the process-wide campaign, returning its final statistics
/// (or `None` when no campaign was active).
pub fn deactivate() -> Option<CampaignStats> {
    active().take().map(|c| c.stats())
}

/// True when a process-wide campaign is active.
pub fn is_active() -> bool {
    active().is_some()
}

/// Prices every config in `cfgs` from one [`FunctionalProfile`] — the
/// single pricing path both of [`run_group`]'s memoized branches
/// (cross-request cache hit; miss after the lead's functional pass) go
/// through.
///
/// The group is priced by **one** co-priced streaming pass
/// ([`price_profiles`]: one token decode, N variant lanes in lockstep).
/// If that pass reports an error, it is counted as a co-pricer fallback
/// and propagates to the caller's group-level fallback, which simulates
/// every member individually. Poison checks run first, per member, so
/// chaos quarantine lands on exactly the poisoned cell(s).
fn price_members(
    cfgs: &[SimConfig],
    profile: &FunctionalProfile,
) -> Result<Vec<SimResult>, SimError> {
    for cfg in cfgs {
        chaos::poison_check(config_fingerprint(cfg));
    }
    if cfgs.is_empty() {
        return Ok(Vec::new());
    }
    let results = price_profiles(cfgs, profile).map_err(|e| {
        CO_PRICER_FALLBACKS.fetch_add(1, Ordering::Relaxed);
        e
    })?;
    CO_PRICED_GROUPS.fetch_add(1, Ordering::Relaxed);
    CO_PRICED_LANES.fetch_add(cfgs.len() as u64, Ordering::Relaxed);
    Ok(results)
}

/// Runs every member of a group as its own full isolated simulation (the
/// non-memoized path: singleton groups, memoization off, and the
/// fallback after a group failure). Each result carries its
/// retryable-failure tag for the quarantine decision.
fn run_members_individually(
    cfgs: &[SimConfig],
    members: &[usize],
    scale: f64,
    opts: &CellOptions,
) -> Vec<(CellResult, bool)> {
    members
        .iter()
        .map(|&i| {
            let out = run_isolated_tagged(&cfgs[i], scale, opts);
            if !is_transient_skip(&out.0) {
                FUNCTIONAL_RUNS.fetch_add(1, Ordering::Relaxed);
            }
            out
        })
        .collect()
}

/// Runs one geometry group: the functional pass (a full simulation
/// recording a [`gaas_sim::FunctionalProfile`]) on the first member, then
/// cheap token-replay pricing for every other member. The whole group
/// is one [`isolated`] attempt with the cell timeout; a typed error,
/// panic or timeout anywhere in the group falls back to running every
/// member individually, so memoization can only change wall-clock, never
/// results or failure granularity. An attempt the sweep deadline cuts
/// off skips every member instead (transient, no fallback).
/// Also reports whether the members were *priced* from a profile
/// (`true` on the successful memoized path and on a cross-request
/// profile-cache hit), so [`run_cells`] can record an accurate
/// [`MemoTraceEntry`].
///
/// **Cross-request cache**: when the [`profile_cache`] is enabled and
/// the group has a functional fingerprint, a cache hit prices *every*
/// member — including the lead, which by the functional-clock
/// construction is an identity — from the cached profile, and a miss
/// takes the profiled path even for singleton groups so the recorded
/// profile can serve later requests. Any failure still falls back to
/// individual full runs, so the cache can only change wall-clock, never
/// results.
fn run_group(
    cfgs: &[SimConfig],
    members: &[usize],
    fingerprint: Option<u64>,
    scale: f64,
    opts: &CellOptions,
) -> (Vec<(CellResult, bool)>, bool) {
    if interrupt::interrupted() {
        return (
            members.iter().map(|_| skipped(INTERRUPT_SKIP)).collect(),
            false,
        );
    }
    let cache_on = profile_cache::enabled() && fingerprint.is_some();
    if members.len() == 1 && !cache_on {
        return (run_members_individually(cfgs, members, scale, opts), false);
    }
    let worker_cfgs: Vec<SimConfig> = members.iter().map(|&i| cfgs[i].clone()).collect();
    let attempt = isolated("campaign-group", opts.timeout, move |cancel| {
        // Poisoned members panic here; the fallback re-runs each member
        // individually so quarantine lands on exactly the poisoned
        // cell(s).
        if let Some(profile) = fingerprint.and_then(|key| profile_cache::lookup(key, scale)) {
            // Cross-request cache hit: co-price every member.
            return Ok((price_members(&worker_cfgs, &profile)?, true));
        }
        chaos::poison_check(config_fingerprint(&worker_cfgs[0]));
        let (lead, profile) =
            runner::run_standard_profiled_cancellable(worker_cfgs[0].clone(), scale, Some(cancel))?;
        let profile = Arc::new(profile);
        if let Some(key) = fingerprint {
            profile_cache::insert(key, scale, &profile);
        }
        let mut results = price_members(&worker_cfgs[1..], &profile)?;
        results.insert(0, lead);
        Ok((results, false))
    });
    match attempt {
        Attempt::Done((results, from_cache)) => {
            let priced = if from_cache {
                results.len()
            } else {
                FUNCTIONAL_RUNS.fetch_add(1, Ordering::Relaxed);
                results.len() - 1
            };
            PRICED_CELLS.fetch_add(priced as u64, Ordering::Relaxed);
            (
                results
                    .into_iter()
                    .map(|r| (CellResult::Done(Box::new(r)), false))
                    .collect(),
                priced > 0,
            )
        }
        Attempt::DeadlineSkip => (
            members.iter().map(|_| skipped(DEADLINE_SKIP)).collect(),
            false,
        ),
        // A typed error, panic or timeout anywhere in the group: re-run
        // each member individually so the failure lands on exactly the
        // cell(s) that own it, with per-cell retry semantics.
        Attempt::Failed(_) | Attempt::Retryable(_) => {
            (run_members_individually(cfgs, members, scale, opts), false)
        }
    }
}

/// Groups `todo` cell indices by functional fingerprint in
/// first-occurrence order. Unmemoizable configs (and everything when
/// `memoize` is off) get `(None, singleton)` groups.
fn group_by_fingerprint(
    cfgs: &[SimConfig],
    todo: &[usize],
    memoize: bool,
) -> Vec<(Option<u64>, Vec<usize>)> {
    let mut groups: Vec<(Option<u64>, Vec<usize>)> = Vec::new();
    let mut by_key: HashMap<u64, usize> = HashMap::new();
    for &i in todo {
        match functional_fingerprint(&cfgs[i]).filter(|_| memoize) {
            Some(key) => match by_key.entry(key) {
                std::collections::hash_map::Entry::Occupied(e) => groups[*e.get()].1.push(i),
                std::collections::hash_map::Entry::Vacant(e) => {
                    e.insert(groups.len());
                    groups.push((Some(key), vec![i]));
                }
            },
            None => groups.push((None, vec![i])),
        }
    }
    groups
}

/// Previews the geometry-group assignment [`run_cells`] would use for
/// `cfgs` — `(fingerprint, member indices)` pairs in submission order —
/// without running anything. Journal state is ignored (the preview
/// assumes every cell is pending); the current [`memoize_enabled`]
/// setting is honoured.
pub fn group_preview(cfgs: &[SimConfig]) -> Vec<(Option<u64>, Vec<usize>)> {
    let todo: Vec<usize> = (0..cfgs.len()).collect();
    group_by_fingerprint(cfgs, &todo, memoize_enabled())
}

/// Runs a batch of cells over the process-wide worker pool
/// ([`pool::jobs`], set by `repro --jobs`), returning results in
/// submission order regardless of completion order — so tables built
/// from the batch are byte-identical to a serial sweep.
///
/// **Two-phase memoization**: cells whose configurations share a
/// functional fingerprint ([`functional_fingerprint`] — same cache
/// geometry, different timing knobs) are grouped; each group runs its
/// functional pass once and prices the other members from the recorded
/// profile. Unmemoizable cells (fault injection, diffcheck,
/// checkpointing) and singleton geometries run as full simulations
/// exactly as before. Groups are formed in first-occurrence order and
/// fan out over the pool as units. Disable with [`set_memoize`]; the
/// results are byte-identical either way (enforced by the determinism
/// gate in `perf_baseline` and the memoized-sweep integration tests).
///
/// Journal semantics match per-cell [`Campaign::cell`]: journaled cells are
/// reused without running, executed cells journal atomically as each
/// group completes (arrival order; the journal's `BTreeMap` keying makes
/// the file bytes order-independent). The campaign lock is *not* held
/// while cells run, only around the journal lookups/writes.
pub fn run_cells(cfgs: &[SimConfig], scale: f64) -> Vec<CellResult> {
    let mut results: Vec<Option<CellResult>> = vec![None; cfgs.len()];
    let mut todo: Vec<usize> = Vec::new();
    let opts = {
        let mut guard = active();
        match guard.as_mut() {
            Some(campaign) => {
                for (i, cfg) in cfgs.iter().enumerate() {
                    match campaign.lookup(cfg, scale) {
                        Some(res) => results[i] = Some(res),
                        None => todo.push(i),
                    }
                }
                campaign.opts
            }
            None => {
                todo.extend(0..cfgs.len());
                CellOptions::unbounded()
            }
        }
    };
    // Group the remaining cells by functional fingerprint (first
    // occurrence fixes each group's position, so the unit sequence is
    // deterministic). Unmemoizable configs get singleton groups.
    let groups = group_by_fingerprint(cfgs, &todo, memoize_enabled());
    let executed = pool::run_ordered(
        pool::jobs(),
        groups.len(),
        |g| run_group(cfgs, &groups[g].1, groups[g].0, scale, &opts),
        |g, (group_results, _): &(Vec<(CellResult, bool)>, bool)| {
            if let Some(campaign) = active().as_mut() {
                for (&i, (res, retryable)) in groups[g].1.iter().zip(group_results) {
                    // Interrupt/deadline skips are transient: journaling
                    // them would make a resume reuse the skip as a
                    // durable failure instead of re-running the cell.
                    if is_transient_skip(res) {
                        continue;
                    }
                    campaign.record(&cfgs[i], scale, res, *retryable);
                }
            }
        },
    );
    let trace_on = MEMO_TRACE_ENABLED.load(Ordering::Relaxed);
    let batch = if trace_on {
        BATCH_COUNTER.fetch_add(1, Ordering::Relaxed)
    } else {
        0
    };
    for (g, (group_results, priced)) in executed.into_iter().enumerate() {
        if trace_on {
            let mut t = MEMO_TRACE.lock().unwrap_or_else(|e| e.into_inner());
            t.push(MemoTraceEntry {
                batch,
                fingerprint: groups[g].0,
                members: groups[g].1.clone(),
                priced,
            });
        }
        for (&i, (res, _)) in groups[g].1.iter().zip(group_results) {
            results[i] = Some(res);
        }
    }
    results
        .into_iter()
        .map(|r| r.expect("every cell resolved"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_round_trips_exact_u64() {
        let big = u64::MAX - 1; // would corrupt through an f64
        let v = Json::Obj(vec![
            ("n".into(), Json::Int(big)),
            ("s".into(), Json::Str("a \"quoted\"\nline".into())),
            ("b".into(), Json::Bool(true)),
            (
                "a".into(),
                Json::Arr(vec![Json::Int(1), Json::Null, Json::Num(1.5)]),
            ),
        ]);
        let mut text = String::new();
        v.write(&mut text);
        let back = json::parse(&text).expect("parses");
        assert_eq!(back.get("n").and_then(Json::as_u64), Some(big));
        assert_eq!(
            back.get("s").and_then(Json::as_str),
            Some("a \"quoted\"\nline")
        );
        assert_eq!(back.get("b").and_then(Json::as_bool), Some(true));
        let arr = back.get("a").and_then(Json::as_arr).expect("array");
        assert_eq!(arr[0].as_u64(), Some(1));
        assert_eq!(arr[2].as_f64(), Some(1.5));
    }

    #[test]
    fn json_rejects_garbage() {
        assert!(json::parse("{").is_err());
        assert!(json::parse("[1,]").is_err());
        assert!(json::parse("123 456").is_err());
        assert!(json::parse("\"unterminated").is_err());
    }

    #[test]
    fn cell_key_distinguishes_config_and_scale() {
        let base = SimConfig::baseline();
        let mut b = base.to_builder();
        b.l2_drain_access(8);
        let tweaked = b.build().expect("valid");
        assert_ne!(cell_key(&base, 0.01), cell_key(&tweaked, 0.01));
        assert_ne!(cell_key(&base, 0.01), cell_key(&base, 0.02));
        assert_eq!(cell_key(&base, 0.01), cell_key(&base, 0.01));
    }

    #[test]
    fn stored_result_round_trips() {
        let cfg = SimConfig::baseline();
        let r = runner::run_standard_raw(cfg.clone(), 5e-5).expect("runs");
        let stored = StoredResult::from_result(&r);
        let mut text = String::new();
        stored.to_json().write(&mut text);
        let back = StoredResult::from_json(&json::parse(&text).expect("parses")).expect("decodes");
        let rebuilt = back.to_result(cfg);
        assert_eq!(rebuilt.counters, r.counters);
        assert_eq!(rebuilt.completed, r.completed);
        assert_eq!(rebuilt.per_process, r.per_process);
        assert_eq!(rebuilt.termination, r.termination);
    }

    #[test]
    fn every_counter_survives_the_journal() {
        // Distinct nonzero values in every field (the struct literals
        // name each one): a field the encoding leaves out decodes as 0,
        // and two fields it swaps trade values.
        let counters = Counters {
            instructions: 1,
            loads: 2,
            stores: 3,
            syscall_switches: 4,
            slice_switches: 5,
            l1i_misses: 6,
            l1d_read_misses: 7,
            l1d_write_misses: 8,
            l2i_accesses: 9,
            l2i_misses: 10,
            l2d_accesses: 11,
            l2d_misses: 12,
            l2_drain_writes: 13,
            l2_drain_misses: 14,
            l2_drain_busy_cycles: 15,
            itlb_misses: 16,
            dtlb_misses: 17,
            cpu_stall_cycles: 18,
            l1i_miss_cycles: 19,
            l1d_miss_cycles: 20,
            l1_write_cycles: 21,
            wb_wait_cycles: 22,
            l2i_miss_cycles: 23,
            l2d_miss_cycles: 24,
            dirty_buffer_wait_cycles: 25,
            tlb_miss_cycles: 26,
            recovery_cycles: 27,
            invalidations: 28,
            c2c_transfers: 29,
            upgrade_misses: 30,
            mesi_to_m: 31,
            mesi_to_e: 32,
            mesi_to_s: 33,
            mesi_to_i: 34,
            coherence_stall_cycles: 35,
            faults_injected: 36,
            faults_silent: 37,
            faults_corrected: 38,
            fault_refetches: 39,
            machine_checks: 40,
        };
        let p = ProcCounters {
            instructions: 101,
            cycles: 102,
            loads: 103,
            stores: 104,
            l1i_misses: 105,
            l1d_misses: 106,
            l2_misses: 107,
        };
        let stored = StoredResult {
            counters,
            completed: vec!["a".into(), "b".into()],
            per_process: vec![(0, p), (7, ProcCounters { cycles: 9, ..p })],
            budget_exhausted: true,
        };
        let mut text = String::new();
        stored.to_json().write(&mut text);
        let back = StoredResult::from_json(&json::parse(&text).expect("parses")).expect("decodes");
        assert_eq!(back.counters, stored.counters);
        assert_eq!(back.per_process, stored.per_process);
        assert_eq!(back.completed, stored.completed);
        assert!(back.budget_exhausted);
    }

    #[test]
    fn typed_error_fails_without_retry() {
        // diffcheck + fault injection is rejected by validation: a typed,
        // deterministic error must consume exactly one attempt.
        let mut b = SimConfig::builder();
        b.diffcheck(gaas_sim::DiffCheckConfig::on());
        let mut cfg = b.build().expect("valid");
        cfg.fault.rates = gaas_sim::FaultRates::uniform(1e-3);
        let res = run_isolated(
            &cfg,
            1e-4,
            &CellOptions {
                timeout: Duration::from_secs(60),
                attempts: 3,
            },
        );
        match res {
            CellResult::Failed { error, attempts } => {
                assert_eq!(attempts, 1, "typed errors must not retry");
                assert!(error.contains("invalid configuration"), "{error}");
            }
            CellResult::Done(_) => panic!("invalid config cannot succeed"),
        }
    }

    #[test]
    fn record_line_frames_and_round_trips() {
        let entry = JournalEntry::Failed {
            error: "a \"quoted\"\nreason".into(),
            attempts: 3,
        };
        let line = record_line("cafe-0123", &entry);
        assert!(line.ends_with('\n'), "record lines are newline-terminated");
        assert_eq!(line.matches('\n').count(), 1, "payload stays one line");
        let (key, back) = parse_record_line(line.trim_end()).expect("decodes");
        assert_eq!(key, "cafe-0123");
        match back {
            JournalEntry::Failed { error, attempts } => {
                assert_eq!(error, "a \"quoted\"\nreason");
                assert_eq!(attempts, 3);
            }
            other => panic!("wrong variant: {other:?}"),
        }
    }

    #[test]
    fn quarantined_entry_round_trips_through_json() {
        let entry = JournalEntry::Quarantined {
            error: "panicked: oh no".into(),
            attempts: 2,
        };
        let mut text = String::new();
        entry.to_json().write(&mut text);
        match JournalEntry::from_json(&json::parse(&text).expect("parses")).expect("decodes") {
            JournalEntry::Quarantined { error, attempts } => {
                assert_eq!(error, "panicked: oh no");
                assert_eq!(attempts, 2);
            }
            other => panic!("wrong variant: {other:?}"),
        }
    }

    #[test]
    fn flipped_byte_in_one_record_loses_only_that_record() {
        let entries: Vec<(String, JournalEntry)> = (0..4)
            .map(|i| {
                (
                    format!("key-{i:02}"),
                    JournalEntry::Failed {
                        error: format!("reason {i}"),
                        attempts: 1,
                    },
                )
            })
            .collect();
        let mut text = String::from(JOURNAL_HEADER);
        let mut offsets = Vec::new();
        for (k, e) in &entries {
            offsets.push(text.len());
            text.push_str(&record_line(k, e));
        }
        offsets.push(text.len());
        // Flip one bit in the middle of record 2's payload.
        let mut bytes = text.clone().into_bytes();
        let target = (offsets[2] + offsets[3]) / 2;
        bytes[target] ^= 0x04;
        let mutated = String::from_utf8_lossy(&bytes);
        let load = parse_journal(&mutated);
        assert_eq!(load.dropped, 1, "exactly one record is lost");
        assert_eq!(load.cells.len(), entries.len() - 1);
        assert!(!load.cells.contains_key("key-02"), "the mutated one");
        for i in [0usize, 1, 3] {
            assert!(load.cells.contains_key(&format!("key-{i:02}")), "key {i}");
        }
    }

    #[test]
    fn truncated_tail_loses_only_the_torn_record() {
        let mut text = String::from(JOURNAL_HEADER);
        for i in 0..3 {
            text.push_str(&record_line(
                &format!("key-{i}"),
                &JournalEntry::Failed {
                    error: "x".into(),
                    attempts: 1,
                },
            ));
        }
        let torn = &text[..text.len() - 7]; // mid-way through record 2
        let load = parse_journal(torn);
        assert_eq!(load.dropped, 1);
        assert_eq!(load.cells.len(), 2);
        assert!(!load.cells.contains_key("key-2"));
    }

    #[test]
    fn later_records_override_earlier_ones() {
        let mut text = String::from(JOURNAL_HEADER);
        text.push_str(&record_line(
            "key-a",
            &JournalEntry::Failed {
                error: "first".into(),
                attempts: 1,
            },
        ));
        text.push_str(&record_line(
            "key-a",
            &JournalEntry::Quarantined {
                error: "second".into(),
                attempts: 2,
            },
        ));
        let load = parse_journal(&text);
        assert_eq!(load.dropped, 0);
        assert_eq!(load.cells.len(), 1);
        match load.cells.get("key-a").expect("present") {
            JournalEntry::Quarantined { error, .. } => assert_eq!(error, "second"),
            other => panic!("append-only update did not win: {other:?}"),
        }
    }

    #[test]
    fn campaign_journals_and_reuses_cells() {
        let dir = std::env::temp_dir().join(format!(
            "gaas-campaign-test-{}-{:x}",
            std::process::id(),
            config_fingerprint(&SimConfig::baseline())
        ));
        std::fs::create_dir_all(&dir).expect("temp dir");
        let journal = dir.join("journal.json");
        let _ = std::fs::remove_file(&journal);

        let cfg = SimConfig::baseline();
        let fresh = runner::run_standard_raw(cfg.clone(), 5e-5).expect("runs");

        let mut c1 = Campaign::open(&journal, true, CellOptions::default()).expect("open");
        let first = c1.cell(&cfg, 5e-5).ok().expect("done");
        assert_eq!(c1.stats().executed, 1);
        assert_eq!(first.counters, fresh.counters, "isolated run is faithful");
        drop(c1);

        // A second campaign (a fresh process, in spirit) reloads the cell.
        let mut c2 = Campaign::open(&journal, true, CellOptions::default()).expect("open");
        let second = c2.cell(&cfg, 5e-5).ok().expect("done");
        assert_eq!(c2.stats().executed, 0);
        assert_eq!(c2.stats().reused, 1);
        assert_eq!(second.counters, fresh.counters, "journal round-trip exact");

        // Without resume, the journal is ignored and the cell re-runs.
        let mut c3 = Campaign::open(&journal, false, CellOptions::default()).expect("open");
        let third = c3.cell(&cfg, 5e-5).ok().expect("done");
        assert_eq!(c3.stats().executed, 1);
        assert_eq!(third.counters, fresh.counters);

        let _ = std::fs::remove_dir_all(&dir);
    }
}
