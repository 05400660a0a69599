//! Durable file I/O for campaign artifacts.
//!
//! Every byte the experiment harness persists — the campaign journal,
//! exported telemetry artifacts, perf baselines — goes through this
//! module instead of raw `std::fs`, which buys three things at one choke
//! point:
//!
//! 1. **Real durability.** [`write_atomic`] is the classic
//!    temp + `fsync` + rename + parent-directory `fsync` sequence, and
//!    [`append`] syncs the file after extending it. Without the syncs, a
//!    power cut after `rename` can surface an empty (or stale) file even
//!    though the rename "succeeded" — the directory entry made it to
//!    media, the data didn't.
//! 2. **A test seam.** Every operation consults the
//!    [`chaos`] shim first, so seeded torn writes, bit
//!    flips, failed renames, short reads, and process crashes exercise
//!    the exact code paths production uses.
//! 3. **An error budget.** [`retrying`] wraps transient-failure-prone
//!    operations (the rename commit, notably) in a bounded
//!    retry-with-backoff so one flaky `EIO` doesn't abort a
//!    multi-hour campaign.
//!
//! The `durable_sync` knob (default **on**) lets unit tests opt out of
//! the `fsync` traffic — hundreds of tiny test journals don't need to
//! hammer the disk — while campaigns keep full durability. The chaos
//! shim's delayed-visibility fault only applies to un-synced appends,
//! mirroring reality: `fsync` is precisely what closes that window.

use std::fs::{File, OpenOptions};
use std::io::Write as _;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

use crate::chaos;

/// Process-wide `fsync` knob: on by default (campaigns), switched off by
/// unit tests that churn many small journals.
static DURABLE_SYNC: AtomicBool = AtomicBool::new(true);

/// Sets the process-wide `durable_sync` knob, returning the old value.
pub fn set_durable_sync(on: bool) -> bool {
    DURABLE_SYNC.swap(on, Ordering::AcqRel)
}

/// Current state of the `durable_sync` knob.
pub fn durable_sync() -> bool {
    DURABLE_SYNC.load(Ordering::Acquire)
}

fn sync_file(f: &File, path: &Path) -> std::io::Result<()> {
    if durable_sync() {
        chaos::plan_sync(path)?;
        f.sync_all()?;
    }
    Ok(())
}

/// Fsyncs `path`'s parent directory so a just-committed rename (or a
/// newly created file) survives power loss. No-op when `durable_sync`
/// is off or the parent cannot be opened (non-fatal on exotic
/// filesystems — the data write itself already succeeded).
fn sync_parent_dir(path: &Path) {
    if !durable_sync() {
        return;
    }
    if let Some(parent) = path.parent() {
        let dir = if parent.as_os_str().is_empty() {
            Path::new(".")
        } else {
            parent
        };
        if let Ok(d) = File::open(dir) {
            let _ = d.sync_all();
        }
    }
}

/// Reads `path` to bytes through the chaos shim (which may shorten the
/// result or fail the operation outright).
///
/// # Errors
///
/// Propagates the underlying `std::fs` error or an injected fault.
pub fn read(path: &Path) -> std::io::Result<Vec<u8>> {
    let data = std::fs::read(path)?;
    chaos::plan_read(path, data)
}

/// Atomically replaces `path` with `bytes`: write a sibling temp file,
/// `fsync` it, rename over `path`, `fsync` the parent directory. Readers
/// see either the old bytes or the new bytes, never a mixture — even
/// across a crash.
///
/// # Errors
///
/// Propagates the underlying `std::fs` error or an injected fault. On
/// error the target is untouched (a stale `.tmp` sibling may remain and
/// is overwritten by the next attempt).
pub fn write_atomic(path: &Path, bytes: &[u8]) -> std::io::Result<()> {
    let plan = chaos::plan_write(path, bytes)?;
    let tmp = path.with_extension("tmp");
    if let Some(data) = &plan.data {
        let mut f = File::create(&tmp)?;
        f.write_all(data)?;
        sync_file(&f, path)?;
    }
    if plan.then_crash {
        // The process died after (partially) writing the temp file and
        // before the rename: the target must remain untouched.
        return Err(chaos::crash_error());
    }
    chaos::plan_rename(path)?;
    std::fs::rename(&tmp, path)?;
    sync_parent_dir(path);
    Ok(())
}

/// Appends `bytes` to `path` (creating it if absent) and — when
/// `durable_sync` is on — `fsync`s the file so the new tail is on media.
///
/// # Errors
///
/// Propagates the underlying `std::fs` error or an injected fault. An
/// injected crash may leave a torn (prefix-only) tail behind, which the
/// journal's per-record CRC framing is designed to absorb.
pub fn append(path: &Path, bytes: &[u8]) -> std::io::Result<()> {
    let synced = durable_sync();
    let plan = chaos::plan_append(path, bytes, synced)?;
    if let Some(data) = &plan.data {
        let created = !path.exists();
        let mut f = OpenOptions::new().create(true).append(true).open(path)?;
        f.write_all(data)?;
        sync_file(&f, path)?;
        if created {
            sync_parent_dir(path);
        }
    }
    if plan.then_crash {
        return Err(chaos::crash_error());
    }
    Ok(())
}

/// Maximum attempts [`retrying`] makes before giving up.
pub const RETRY_ATTEMPTS: u32 = 5;

/// Runs `op` up to [`RETRY_ATTEMPTS`] times with a short linear backoff
/// (1 ms, 2 ms, …), returning the first success or the last error.
/// An injected-crash error is terminal and is never retried — a dead
/// process doesn't get to try again.
///
/// # Errors
///
/// The last error after the budget is exhausted.
pub fn retrying<T>(label: &str, mut op: impl FnMut() -> std::io::Result<T>) -> std::io::Result<T> {
    let mut last = None;
    for attempt in 1..=RETRY_ATTEMPTS {
        match op() {
            Ok(v) => return Ok(v),
            Err(e) => {
                if chaos::crashed() {
                    return Err(e);
                }
                if attempt < RETRY_ATTEMPTS {
                    std::thread::sleep(Duration::from_millis(attempt as u64));
                }
                last = Some(e);
            }
        }
    }
    Err(last.unwrap_or_else(|| std::io::Error::other(format!("{label}: retry budget exhausted"))))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;
    use std::sync::atomic::AtomicU32;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("gaas-durability-{}-{tag}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn write_atomic_round_trips() {
        let dir = tmp_dir("atomic");
        let path = dir.join("table.txt");
        write_atomic(&path, b"v1").unwrap();
        assert_eq!(read(&path).unwrap(), b"v1");
        write_atomic(&path, b"v2 is longer").unwrap();
        assert_eq!(read(&path).unwrap(), b"v2 is longer");
        assert!(!path.with_extension("tmp").exists(), "temp must be gone");
    }

    #[test]
    fn append_accumulates() {
        let dir = tmp_dir("append");
        let path = dir.join("journal");
        append(&path, b"one\n").unwrap();
        append(&path, b"two\n").unwrap();
        assert_eq!(read(&path).unwrap(), b"one\ntwo\n");
    }

    #[test]
    fn durable_sync_knob_swaps() {
        // Restore whatever was set: other tests rely on the default.
        let prev = set_durable_sync(false);
        assert!(!durable_sync());
        set_durable_sync(prev);
    }

    #[test]
    fn retrying_succeeds_after_transient_failures() {
        let tries = AtomicU32::new(0);
        let out = retrying("unit", || {
            if tries.fetch_add(1, Ordering::Relaxed) < 2 {
                Err(std::io::Error::other("transient"))
            } else {
                Ok(42)
            }
        })
        .unwrap();
        assert_eq!(out, 42);
        assert_eq!(tries.load(Ordering::Relaxed), 3);
    }

    #[test]
    fn retrying_gives_up_after_budget() {
        let tries = AtomicU32::new(0);
        let err = retrying("unit", || -> std::io::Result<()> {
            tries.fetch_add(1, Ordering::Relaxed);
            Err(std::io::Error::other("permanent"))
        })
        .unwrap_err();
        assert_eq!(tries.load(Ordering::Relaxed), RETRY_ATTEMPTS);
        assert_eq!(err.to_string(), "permanent");
    }

    /// Installs a scoped chaos shim over a fresh temp dir and returns
    /// the dir. Caller holds the serial guard.
    fn chaotic_dir(tag: &str, tweak: impl FnOnce(&mut chaos::ChaosConfig)) -> PathBuf {
        let dir = tmp_dir(tag);
        // Fresh dir per run: stale artifacts from a previous test
        // process must not satisfy (or confuse) assertions.
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let mut cfg = chaos::ChaosConfig::quiet(0xD0_0D + tag.len() as u64);
        cfg.scope = Some(dir.clone());
        tweak(&mut cfg);
        chaos::install(cfg);
        dir
    }

    #[test]
    fn rename_failure_that_never_clears_exhausts_the_retry_budget() {
        let _serial = chaos::test_serial();
        let dir = chaotic_dir("rename-exhaust", |cfg| cfg.fail_rename_pct = 100);
        let path = dir.join("table.txt");
        let tries = AtomicU32::new(0);
        let err = retrying("commit", || {
            tries.fetch_add(1, Ordering::Relaxed);
            write_atomic(&path, b"doomed")
        })
        .unwrap_err();
        let counts = chaos::uninstall();
        assert_eq!(
            tries.load(Ordering::Relaxed),
            RETRY_ATTEMPTS,
            "a transient-looking failure that never clears must consume the whole budget"
        );
        assert_eq!(counts.failed_renames, RETRY_ATTEMPTS as u64);
        assert!(err.to_string().contains("rename failure"), "{err}");
        assert!(
            !path.exists(),
            "failed commits must leave the target untouched"
        );
    }

    #[test]
    fn fsync_failure_propagates_from_write_and_append() {
        let _serial = chaos::test_serial();
        let dir = chaotic_dir("fsync-prop", |cfg| cfg.fail_fsync_pct = 100);
        assert!(durable_sync(), "test requires the sync path");
        let atomic = dir.join("table.txt");
        let err = write_atomic(&atomic, b"v1").unwrap_err();
        assert!(err.to_string().contains("fsync"), "{err}");
        assert!(
            !atomic.exists(),
            "fsync failure must abort before the rename"
        );
        let journal = dir.join("journal");
        let err = append(&journal, b"rec\n").unwrap_err();
        assert!(err.to_string().contains("fsync"), "{err}");
        let counts = chaos::uninstall();
        assert_eq!(counts.fsync_failures, 2);
    }

    #[test]
    fn crash_in_a_poisoned_parent_dir_is_terminal_not_retried() {
        let _serial = chaos::test_serial();
        // The parent directory is "poisoned": the very first I/O
        // operation under it kills the process. The retry wrapper must
        // treat the crash as terminal — a dead process doesn't get to
        // try again — instead of burning the rest of the budget.
        let dir = chaotic_dir("crash-terminal", |cfg| cfg.crash_after_ops = Some(1));
        let path = dir.join("table.txt");
        let tries = AtomicU32::new(0);
        let err = retrying("commit", || {
            tries.fetch_add(1, Ordering::Relaxed);
            write_atomic(&path, b"doomed")
        })
        .unwrap_err();
        assert!(chaos::crashed(), "the scheduled crash must have fired");
        let counts = chaos::uninstall();
        assert_eq!(
            tries.load(Ordering::Relaxed),
            1,
            "an injected crash is terminal, never retried"
        );
        assert_eq!(counts.crashes, 1);
        assert!(err.to_string().contains("crash"), "{err}");
        assert!(!path.exists(), "the dying write must not commit");
    }
}
