//! Deterministic storage-fault chaos layer (`ChaosFs`).
//!
//! The durability stack ([`crate::durability`], the campaign journal,
//! telemetry artifact export) is only trustworthy if it has been *run
//! against failure*, the same way PR 1 validated the parity/ECC cache
//! hierarchy with seeded soft-error injection. This module is the
//! storage analogue: a process-wide, seeded fault-injecting I/O shim
//! that the durability layer consults on every operation. One seed
//! reproduces the exact same fault schedule on every run.
//!
//! Injected fault classes (all drawn from the vendored
//! [`SmallRng`]):
//!
//! * **torn writes** — the write that dies at a scheduled crash point is
//!   truncated at a seeded byte offset, exactly the prefix a power cut
//!   leaves behind;
//! * **bit flips** — one seeded bit of a write payload is inverted
//!   (silent media corruption, caught later by per-record CRC32);
//! * **failed renames** — the atomic-commit rename returns `EIO`
//!   transiently (retried by the durability layer's bounded backoff);
//! * **short reads** — a read returns only a seeded prefix
//!   (detected as truncation by the salvage parser);
//! * **delayed visibility** — an append without `durable_sync` sits in a
//!   simulated page cache until the next I/O operation, and is *lost* if
//!   a crash lands first (the precise failure `fsync` exists to prevent);
//! * **scheduled crashes** — the Nth I/O operation kills the "process":
//!   the dying write is torn, pending appends are dropped, and every
//!   subsequent operation fails until [`clear_crash`].
//!
//! Separately from the I/O shim, a **poison list** marks cell
//! fingerprints whose workers panic deterministically — the campaign's
//! quarantine path (bounded retry, then a journaled
//! `quarantined` record) is validated against it.
//!
//! The shim can be **scoped** to a directory so concurrent tests (and
//! innocent bystander files) are untouched.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, MutexGuard};

use gaas_trace::rng::SmallRng;

/// Probabilities are expressed in percent (0..=100).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChaosConfig {
    /// Seed for the fault-decision stream (one seed = one schedule).
    pub seed: u64,
    /// Percent chance a rename fails transiently with `EIO`.
    pub fail_rename_pct: u8,
    /// Percent chance an `fsync` fails with `EIO` (the write itself
    /// landed in the page cache; durability is what's lost).
    pub fail_fsync_pct: u8,
    /// Percent chance one bit of a write payload is flipped.
    pub bit_flip_pct: u8,
    /// Percent chance a read returns only a prefix.
    pub short_read_pct: u8,
    /// Percent chance an un-synced append is deferred (and lost on
    /// crash). Only effective while `durable_sync` is off.
    pub defer_append_pct: u8,
    /// Crash the "process" at this many I/O operations from now
    /// (`None`: never). The dying write is torn at a seeded offset.
    pub crash_after_ops: Option<u64>,
    /// Restrict injection to paths under this directory (`None`: all
    /// paths). Tests scope chaos to their own temp dirs so parallel
    /// tests cannot perturb each other.
    pub scope: Option<PathBuf>,
}

impl ChaosConfig {
    /// A quiet shim: no faults, no crashes — useful as a base to tweak.
    pub fn quiet(seed: u64) -> Self {
        ChaosConfig {
            seed,
            fail_rename_pct: 0,
            fail_fsync_pct: 0,
            bit_flip_pct: 0,
            short_read_pct: 0,
            defer_append_pct: 0,
            crash_after_ops: None,
            scope: None,
        }
    }
}

/// Cumulative injected-fault counters (monotone while installed).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FaultCounts {
    /// Writes truncated at a seeded offset by a scheduled crash.
    pub torn_writes: u64,
    /// Write payloads with one bit flipped.
    pub bit_flips: u64,
    /// Renames failed transiently.
    pub failed_renames: u64,
    /// `fsync` calls failed transiently.
    pub fsync_failures: u64,
    /// Reads returning only a prefix.
    pub short_reads: u64,
    /// Appends parked in the simulated page cache.
    pub deferred_appends: u64,
    /// Deferred appends dropped by a crash (the fsync-shaped hole).
    pub lost_appends: u64,
    /// Scheduled crashes delivered.
    pub crashes: u64,
}

impl FaultCounts {
    /// Total injected I/O fault events (crashes included).
    pub fn total(&self) -> u64 {
        self.torn_writes
            + self.bit_flips
            + self.failed_renames
            + self.fsync_failures
            + self.short_reads
            + self.deferred_appends
            + self.lost_appends
            + self.crashes
    }
}

struct ChaosState {
    cfg: ChaosConfig,
    rng: SmallRng,
    ops: u64,
    crash_at: Option<u64>,
    crashed: bool,
    counts: FaultCounts,
    /// Simulated page cache: appends not yet "on media", keyed by path.
    pending: Vec<(PathBuf, Vec<u8>)>,
}

static ACTIVE: AtomicBool = AtomicBool::new(false);
static STATE: Mutex<Option<ChaosState>> = Mutex::new(None);

/// Poison list: config fingerprints whose cell workers panic
/// deterministically (kept separate from the I/O shim so a reference run
/// can quarantine the same cells without any storage faults).
static POISON_ACTIVE: AtomicBool = AtomicBool::new(false);
static POISON: Mutex<Vec<u64>> = Mutex::new(Vec::new());

fn state() -> MutexGuard<'static, Option<ChaosState>> {
    STATE.lock().unwrap_or_else(|e| e.into_inner())
}

/// Installs the chaos shim process-wide (replacing any previous one).
/// The fault schedule is fully determined by `cfg.seed`.
pub fn install(cfg: ChaosConfig) {
    let crash_at = cfg.crash_after_ops;
    let rng = SmallRng::seed_from_u64(cfg.seed);
    *state() = Some(ChaosState {
        cfg,
        rng,
        ops: 0,
        crash_at,
        crashed: false,
        counts: FaultCounts::default(),
        pending: Vec::new(),
    });
    ACTIVE.store(true, Ordering::Release);
}

/// Removes the shim, returning its cumulative fault counts (zeroes when
/// none was installed). The poison list is untouched.
pub fn uninstall() -> FaultCounts {
    ACTIVE.store(false, Ordering::Release);
    state().take().map(|s| s.counts).unwrap_or_default()
}

/// True when the shim is installed.
pub fn is_active() -> bool {
    ACTIVE.load(Ordering::Acquire)
}

/// Cumulative fault counts of the installed shim (zeroes when none).
pub fn faults() -> FaultCounts {
    state().as_ref().map(|s| s.counts).unwrap_or_default()
}

/// True when a scheduled crash has fired and not been cleared: the
/// simulated process is dead and every durable operation fails.
pub fn crashed() -> bool {
    state().as_ref().is_some_and(|s| s.crashed)
}

/// Clears the crashed state — the "process restart" — and arms the next
/// crash `after_ops` operations from now (`None`: run undisturbed).
/// Pending (never-synced) appends were lost in the crash and stay lost.
pub fn clear_crash(after_ops: Option<u64>) {
    if let Some(s) = state().as_mut() {
        s.crashed = false;
        s.crash_at = after_ops.map(|n| s.ops + n.max(1));
    }
}

/// Replaces the poison list: cells whose configuration fingerprint is
/// listed panic in their worker on every attempt (see
/// [`poison_check`]). An empty list disables poisoning.
pub fn set_poison(fingerprints: Vec<u64>) {
    POISON_ACTIVE.store(!fingerprints.is_empty(), Ordering::Release);
    *POISON.lock().unwrap_or_else(|e| e.into_inner()) = fingerprints;
}

/// Panic message of a poisoned worker (asserted on by the soak harness).
pub const POISON_PANIC: &str = "chaos: injected worker poison";

/// Called by campaign cell workers at startup: panics when `fingerprint`
/// is on the poison list. A no-op (one relaxed atomic load) otherwise.
pub fn poison_check(fingerprint: u64) {
    if !POISON_ACTIVE.load(Ordering::Acquire) {
        return;
    }
    let poisoned = POISON
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .contains(&fingerprint);
    if poisoned {
        panic!("{POISON_PANIC}");
    }
}

/// The error every operation returns once the scheduled crash fired.
pub fn crash_error() -> std::io::Error {
    std::io::Error::other("chaos: injected crash (process is dead)")
}

impl ChaosState {
    fn in_scope(&self, path: &Path) -> bool {
        match &self.cfg.scope {
            Some(dir) => path.starts_with(dir),
            None => true,
        }
    }

    fn roll(&mut self, pct: u8) -> bool {
        pct > 0 && self.rng.gen_range(0u32..100) < pct as u32
    }

    /// Counts one operation; returns `Err` if the process is dead, and
    /// reports whether *this* operation is the scheduled crash.
    fn gate(&mut self) -> std::io::Result<bool> {
        if self.crashed {
            return Err(crash_error());
        }
        self.ops += 1;
        if self.crash_at == Some(self.ops) {
            self.crashed = true;
            self.counts.crashes += 1;
            // Crashing drops the simulated page cache: un-synced appends
            // are gone, exactly what fsync exists to prevent.
            self.counts.lost_appends += self.pending.len() as u64;
            self.pending.clear();
            return Ok(true);
        }
        Ok(false)
    }

    fn tear(&mut self, data: &mut Vec<u8>) {
        let keep = if data.is_empty() {
            0
        } else {
            self.rng.gen_range(0usize..data.len())
        };
        data.truncate(keep);
        self.counts.torn_writes += 1;
    }

    fn maybe_flip(&mut self, data: &mut [u8]) {
        if !data.is_empty() && self.roll(self.cfg.bit_flip_pct) {
            let i = self.rng.gen_range(0usize..data.len());
            let bit = self.rng.gen_range(0u32..8);
            data[i] ^= 1 << bit;
            self.counts.bit_flips += 1;
        }
    }

    fn take_pending(&mut self, path: &Path) -> Vec<u8> {
        let mut flushed = Vec::new();
        self.pending.retain(|(p, bytes)| {
            if p == path {
                flushed.extend_from_slice(bytes);
                false
            } else {
                true
            }
        });
        flushed
    }
}

/// What the durability layer should do for one write-shaped operation.
#[derive(Debug)]
pub struct WritePlan {
    /// Bytes to put on media now (`None`: nothing — deferred).
    pub data: Option<Vec<u8>>,
    /// When set, the caller must return [`crash_error`] after writing:
    /// the process died mid-operation.
    pub then_crash: bool,
}

impl WritePlan {
    fn passthrough(bytes: &[u8]) -> Self {
        WritePlan {
            data: Some(bytes.to_vec()),
            then_crash: false,
        }
    }
}

/// Plans a whole-file (atomic temp) write of `bytes` to `path`.
///
/// # Errors
///
/// Returns [`crash_error`] when the simulated process is already dead.
pub fn plan_write(path: &Path, bytes: &[u8]) -> std::io::Result<WritePlan> {
    if !is_active() {
        return Ok(WritePlan::passthrough(bytes));
    }
    let mut guard = state();
    let Some(s) = guard.as_mut().filter(|s| s.in_scope(path)) else {
        return Ok(WritePlan::passthrough(bytes));
    };
    let mut data = bytes.to_vec();
    if s.gate()? {
        s.tear(&mut data);
        return Ok(WritePlan {
            data: Some(data),
            then_crash: true,
        });
    }
    s.maybe_flip(&mut data);
    Ok(WritePlan {
        data: Some(data),
        then_crash: false,
    })
}

/// Plans an append of `bytes` to `path`. Pending (page-cached) bytes for
/// the path are folded in front of the payload when it hits media.
///
/// # Errors
///
/// Returns [`crash_error`] when the simulated process is already dead.
pub fn plan_append(path: &Path, bytes: &[u8], synced: bool) -> std::io::Result<WritePlan> {
    if !is_active() {
        return Ok(WritePlan::passthrough(bytes));
    }
    let mut guard = state();
    let Some(s) = guard.as_mut().filter(|s| s.in_scope(path)) else {
        return Ok(WritePlan::passthrough(bytes));
    };
    let mut data = s.take_pending(path);
    data.extend_from_slice(bytes);
    if s.gate()? {
        s.tear(&mut data);
        return Ok(WritePlan {
            data: Some(data),
            then_crash: true,
        });
    }
    s.maybe_flip(&mut data);
    if !synced && s.roll(s.cfg.defer_append_pct) {
        s.counts.deferred_appends += 1;
        s.pending.push((path.to_path_buf(), data));
        return Ok(WritePlan {
            data: None,
            then_crash: false,
        });
    }
    Ok(WritePlan {
        data: Some(data),
        then_crash: false,
    })
}

/// Gates the rename step of an atomic commit.
///
/// # Errors
///
/// Returns a transient `EIO`-shaped error on an injected rename failure,
/// or [`crash_error`] when the process is dead (or dies at this op).
pub fn plan_rename(path: &Path) -> std::io::Result<()> {
    if !is_active() {
        return Ok(());
    }
    let mut guard = state();
    let Some(s) = guard.as_mut().filter(|s| s.in_scope(path)) else {
        return Ok(());
    };
    if s.gate()? {
        // Process died before the rename: temp file remains, target
        // untouched — the atomic-commit guarantee under test.
        return Err(crash_error());
    }
    if s.roll(s.cfg.fail_rename_pct) {
        s.counts.failed_renames += 1;
        return Err(std::io::Error::other("chaos: injected rename failure"));
    }
    Ok(())
}

/// Gates an `fsync` of `path` (file or parent directory).
///
/// # Errors
///
/// Returns a transient `EIO`-shaped error on an injected fsync failure,
/// or [`crash_error`] when the process is dead (or dies at this op).
pub fn plan_sync(path: &Path) -> std::io::Result<()> {
    if !is_active() {
        return Ok(());
    }
    let mut guard = state();
    let Some(s) = guard.as_mut().filter(|s| s.in_scope(path)) else {
        return Ok(());
    };
    if s.gate()? {
        // Process died at the sync point: the data may or may not be on
        // media — exactly the ambiguity a failed fsync leaves behind.
        return Err(crash_error());
    }
    if s.roll(s.cfg.fail_fsync_pct) {
        s.counts.fsync_failures += 1;
        return Err(std::io::Error::other("chaos: injected fsync failure"));
    }
    Ok(())
}

/// Serializes tests that install the process-wide shim (shared between
/// the chaos and durability test modules, which live in one test
/// binary and would otherwise race on the global state).
#[cfg(test)]
pub(crate) fn test_serial() -> MutexGuard<'static, ()> {
    static TEST_SERIAL: Mutex<()> = Mutex::new(());
    TEST_SERIAL.lock().unwrap_or_else(|e| e.into_inner())
}

/// Post-processes a completed read of `path`: may truncate the returned
/// bytes (short read) and folds in any page-cached pending appends
/// (visible to the live process, lost on crash).
///
/// # Errors
///
/// Returns [`crash_error`] when the process is dead (or dies at this op).
pub fn plan_read(path: &Path, mut data: Vec<u8>) -> std::io::Result<Vec<u8>> {
    if !is_active() {
        return Ok(data);
    }
    let mut guard = state();
    let Some(s) = guard.as_mut().filter(|s| s.in_scope(path)) else {
        return Ok(data);
    };
    if s.gate()? {
        return Err(crash_error());
    }
    // Un-synced appends live in the page cache: a same-process read sees
    // them even though media does not.
    for (p, bytes) in &s.pending {
        if p == path {
            data.extend_from_slice(bytes);
        }
    }
    if !data.is_empty() && s.roll(s.cfg.short_read_pct) {
        let keep = s.rng.gen_range(0usize..data.len());
        data.truncate(keep);
        s.counts.short_reads += 1;
    }
    Ok(data)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The shim is process-wide; these tests must not overlap.
    fn serial() -> MutexGuard<'static, ()> {
        test_serial()
    }

    fn scoped(seed: u64, tag: &str) -> (ChaosConfig, PathBuf) {
        let dir =
            std::env::temp_dir().join(format!("gaas-chaos-unit-{}-{tag}", std::process::id()));
        let cfg = ChaosConfig {
            scope: Some(dir.clone()),
            ..ChaosConfig::quiet(seed)
        };
        (cfg, dir)
    }

    #[test]
    fn quiet_shim_is_transparent() {
        let _serial = serial();
        let (cfg, dir) = scoped(1, "quiet");
        install(cfg);
        let p = dir.join("f");
        let plan = plan_write(&p, b"abc").unwrap();
        assert_eq!(plan.data.as_deref(), Some(&b"abc"[..]));
        assert!(!plan.then_crash);
        assert_eq!(plan_read(&p, b"abc".to_vec()).unwrap(), b"abc");
        plan_rename(&p).unwrap();
        let counts = uninstall();
        assert_eq!(counts.total(), 0);
    }

    #[test]
    fn out_of_scope_paths_are_untouched() {
        let _serial = serial();
        let (cfg, _dir) = scoped(2, "scope");
        install(ChaosConfig {
            crash_after_ops: Some(1),
            ..cfg
        });
        // A path outside the scope never counts an op, so no crash fires.
        let outside = std::env::temp_dir().join("gaas-chaos-outside");
        for _ in 0..10 {
            assert!(plan_write(&outside, b"x").unwrap().data.is_some());
        }
        assert!(!crashed());
        uninstall();
    }

    #[test]
    fn scheduled_crash_tears_and_kills() {
        let _serial = serial();
        let (cfg, dir) = scoped(3, "crash");
        install(ChaosConfig {
            crash_after_ops: Some(2),
            ..cfg
        });
        let p = dir.join("j");
        assert!(plan_append(&p, b"record one", true).unwrap().data.is_some());
        let dying = plan_append(&p, b"record two", true).unwrap();
        assert!(dying.then_crash, "second op is the scheduled crash");
        let torn = dying.data.unwrap();
        assert!(torn.len() < b"record two".len(), "dying write must be torn");
        assert!(crashed());
        assert!(plan_read(&p, vec![1]).is_err(), "dead process cannot read");
        clear_crash(None);
        assert!(!crashed());
        assert!(plan_read(&p, vec![1]).is_ok(), "restart revives I/O");
        let counts = uninstall();
        assert_eq!(counts.crashes, 1);
        assert_eq!(counts.torn_writes, 1);
    }

    #[test]
    fn unsynced_appends_defer_and_die_with_a_crash() {
        let _serial = serial();
        let (cfg, dir) = scoped(4, "defer");
        install(ChaosConfig {
            defer_append_pct: 100,
            ..cfg
        });
        let p = dir.join("j");
        let plan = plan_append(&p, b"tail", false).unwrap();
        assert!(plan.data.is_none(), "un-synced append parks in page cache");
        // A same-process read still sees the pending bytes.
        assert_eq!(plan_read(&p, b"head ".to_vec()).unwrap(), b"head tail");
        // A synced append flushes pending ahead of the payload.
        let plan = plan_append(&p, b" more", true).unwrap();
        assert_eq!(plan.data.as_deref(), Some(&b"tail more"[..]));
        // Park another, then crash: the pending bytes are lost.
        let _ = plan_append(&p, b"doomed", false).unwrap();
        install_crash_now();
        let counts = uninstall();
        assert_eq!(counts.deferred_appends, 2);
        assert_eq!(counts.lost_appends, 1);
    }

    /// Arms and delivers a crash on the next in-scope op.
    fn install_crash_now() {
        clear_crash(Some(1));
        let scope = state().as_ref().unwrap().cfg.scope.clone().unwrap();
        // One throwaway op inside the scope delivers the crash.
        let _ = plan_rename(&scope.join("any"));
    }

    #[test]
    fn poison_panics_only_listed_fingerprints() {
        let _serial = serial();
        set_poison(vec![0xDEAD]);
        poison_check(0xBEEF); // unlisted: returns
        let hit = std::panic::catch_unwind(|| poison_check(0xDEAD));
        set_poison(Vec::new());
        assert!(hit.is_err(), "listed fingerprint must panic");
        poison_check(0xDEAD); // disabled again: returns
    }

    #[test]
    fn same_seed_same_schedule() {
        let _serial = serial();
        let (cfg, dir) = scoped(77, "determinism");
        let run = |cfg: ChaosConfig| {
            install(cfg);
            let p = dir.join("f");
            let mut log = Vec::new();
            for i in 0..50 {
                let payload = vec![i as u8; 16];
                match plan_write(&p, &payload) {
                    Ok(plan) => log.push(plan.data),
                    Err(_) => log.push(None),
                }
                let _ = plan_rename(&p);
            }
            (log, uninstall())
        };
        let chaotic = ChaosConfig {
            bit_flip_pct: 30,
            fail_rename_pct: 30,
            ..cfg
        };
        let (a, ca) = run(chaotic.clone());
        let (b, cb) = run(chaotic);
        assert_eq!(a, b, "one seed must reproduce the identical schedule");
        assert_eq!(ca, cb);
        assert!(ca.total() > 0, "the schedule must actually inject faults");
    }
}
