//! Bounded thread-pool sweep engine for embarrassingly parallel cells.
//!
//! A figure sweep is dozens of independent (configuration × scale)
//! simulations; this module fans them out over a bounded pool of worker
//! threads that *steal* the next pending cell from a shared queue the
//! moment they go idle, so an expensive cell never serializes the cheap
//! ones behind it. Two properties are load-bearing:
//!
//! * **Deterministic ordering** — results are returned in submission
//!   order no matter which worker finished first, so tables built from a
//!   parallel sweep are byte-identical to a serial run (each cell is
//!   itself a deterministic simulation; parallelism only reorders
//!   wall-clock completion, never observable results).
//! * **Serial fallback** — with one job (the default) the cells run
//!   inline on the caller's thread, exactly as the pre-parallel code
//!   did: same thread structure, same journal write points.
//!
//! The process-wide parallelism degree is set once by the `repro` binary
//! (`--jobs N`) via [`set_jobs`] and consulted by the campaign layer; it
//! deliberately defaults to 1 so library users and tests opt in.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Mutex, MutexGuard};
use std::thread;

/// Process-wide sweep parallelism (see [`set_jobs`]).
static JOBS: AtomicUsize = AtomicUsize::new(1);

/// Sets the process-wide number of concurrent sweep cells (clamped to at
/// least 1). Called once by `repro --jobs N` before any sweep runs.
pub fn set_jobs(n: usize) {
    JOBS.store(n.max(1), Ordering::Relaxed);
}

/// The process-wide number of concurrent sweep cells.
pub fn jobs() -> usize {
    JOBS.load(Ordering::Relaxed).max(1)
}

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// Runs `task(0..n)` on up to `jobs` worker threads, returning results in
/// index order. `on_done(index, &result)` fires on the calling thread as
/// each result arrives (in completion order — use it for journaling /
/// progress, not for anything order-sensitive).
///
/// With `jobs <= 1` everything runs inline on the calling thread in index
/// order; the parallel path returns the identical result vector because
/// each task is independent and results are slotted by index.
///
/// # Panics
///
/// Propagates a panic from `task` when running inline; on the parallel
/// path a panicking task poisons nothing (queue and channel shrug it
/// off) but its slot would be unfilled, so this panics with a diagnostic
/// instead of returning a hole. Cell runners are expected to be
/// panic-free (`campaign::run_isolated` catches unwinds internally).
pub fn run_ordered<T, F, G>(jobs: usize, n: usize, task: F, mut on_done: G) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
    G: FnMut(usize, &T),
{
    if jobs <= 1 || n <= 1 {
        return (0..n)
            .map(|i| {
                let r = task(i);
                on_done(i, &r);
                r
            })
            .collect();
    }
    let workers = jobs.min(n);
    let queue: Mutex<VecDeque<usize>> = Mutex::new((0..n).collect());
    let (tx, rx) = mpsc::channel::<(usize, T)>();
    let mut results: Vec<Option<T>> = (0..n).map(|_| None).collect();
    thread::scope(|s| {
        for _ in 0..workers {
            let tx = tx.clone();
            let queue = &queue;
            let task = &task;
            s.spawn(move || loop {
                let next = lock(queue).pop_front();
                let Some(i) = next else { break };
                let r = task(i);
                if tx.send((i, r)).is_err() {
                    break;
                }
            });
        }
        drop(tx);
        while let Ok((i, r)) = rx.recv() {
            on_done(i, &r);
            results[i] = Some(r);
        }
    });
    results
        .into_iter()
        .enumerate()
        .map(|(i, r)| r.unwrap_or_else(|| panic!("sweep cell {i} vanished (worker panicked?)")))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn results_come_back_in_submission_order() {
        // Make early indices the slowest so completion order inverts
        // submission order; the result vector must not care.
        let task = |i: usize| {
            std::thread::sleep(std::time::Duration::from_millis((8 - i as u64) * 3));
            i * 10
        };
        let serial = run_ordered(1, 8, task, |_, _| {});
        let parallel = run_ordered(4, 8, task, |_, _| {});
        assert_eq!(serial, (0..8).map(|i| i * 10).collect::<Vec<_>>());
        assert_eq!(parallel, serial);
    }

    #[test]
    fn on_done_sees_every_cell_exactly_once() {
        let seen = Mutex::new(vec![0u32; 16]);
        let total = AtomicU64::new(0);
        run_ordered(
            3,
            16,
            |i| {
                total.fetch_add(i as u64, Ordering::Relaxed);
                i
            },
            |i, r| {
                assert_eq!(i, *r);
                lock(&seen)[i] += 1;
            },
        );
        assert!(lock(&seen).iter().all(|&c| c == 1));
        assert_eq!(total.load(Ordering::Relaxed), (0..16).sum::<usize>() as u64);
    }

    #[test]
    fn zero_and_tiny_inputs() {
        let none: Vec<usize> = run_ordered(4, 0, |i| i, |_, _| {});
        assert!(none.is_empty());
        assert_eq!(run_ordered(4, 1, |i| i + 1, |_, _| {}), vec![1]);
    }

    #[test]
    fn jobs_setting_round_trips_and_clamps() {
        let before = jobs();
        set_jobs(0);
        assert_eq!(jobs(), 1, "zero clamps to serial");
        set_jobs(6);
        assert_eq!(jobs(), 6);
        set_jobs(before);
    }
}
