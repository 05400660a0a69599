//! Host speed: a fixed reference computation timed beside every measured
//! operation, so that timings are reported at one reference speed instead
//! of at whatever speed the shared host lends a run.
//!
//! The benchmark runs on a couple of vCPUs of a shared machine. Measured
//! on a 2-vCPU Xeon guest (300 MB LLC), the same 4.4 M-event simulation
//! took anywhere from 0.09 s to 0.17 s within one minute, the state
//! switching every few seconds, while a dependent ALU chain slowed by
//! under 10 %: the other tenants of the physical core contend for its
//! caches and load bandwidth, not its arithmetic. So ten runs of the same
//! code spread by 30 % in wall time, and no run length averages that out.
//!
//! The [`Reference`] does the kinds of work the simulator does (a sort,
//! cache-tag lookups behind unpredictable branches, independent loads
//! from a table the size of a core's L2), and slows in step with it. Each
//! operation is timed between two runs of the reference, and its wall
//! time is scaled by [`REF_SECONDS`] over the geometric mean of those two
//! reference times: the time the operation would have taken on a host
//! that runs the reference in [`REF_SECONDS`]. Over five 3-6 minute
//! recordings on that host, when the host got busier the loads slowed
//! 1.1-1.5 times as much as the simulator did, the sort 0.75-0.9 times
//! and the tag lookups 0.6-0.75 times; with the loads given half the
//! reference's time, as here, the whole slowed 0.95-1.1 times as much,
//! and scaled times of 10-second windows of the simulation spread by 2-3 %
//! (middle half over median) where wall times spread by 13-34 %.
//!
//! The reference lives in the benchmark, not in the crates it measures,
//! so no change to the simulator can move it. The process pins itself to
//! one CPU first ([`pin_to_one_cpu`]); the `serve` daemon inherits the
//! pin, so the reference always runs on the core the measured work ran on.

use std::hint::black_box;
use std::time::Instant;

/// Reference time, in seconds, of one [`Reference::run`] at reference
/// speed: about what an uncontended core of the host above takes.
pub const REF_SECONDS: f64 = 0.035;

/// Elements sorted per run (2 MB of `u32`).
const SORT_LEN: usize = 1 << 19;
/// Entries of the gather table (1 MB of `u64`).
const GATHER_LEN: usize = 1 << 17;
/// Independent loads per gather stream.
const GATHER_ROUNDS: usize = 2_250_000;
/// Sets of the two tag arrays (16 KB and 256 KB).
const TAG_SETS: (usize, usize) = (1 << 12, 1 << 16);
/// Synthetic references fed to the tag arrays.
const TAG_REFS: usize = 1_200_000;

/// The reference computation and its buffers, allocated once.
pub struct Reference {
    sort: Vec<u32>,
    table: Vec<u64>,
    l1: Vec<u32>,
    l2: Vec<u32>,
}

impl Default for Reference {
    fn default() -> Self {
        let mut x = 0x2545_f491_4f6c_dd1d_u64;
        let table = (0..GATHER_LEN).map(|_| xorshift(&mut x)).collect();
        Reference {
            sort: vec![0; SORT_LEN],
            table,
            l1: vec![0; TAG_SETS.0],
            l2: vec![0; TAG_SETS.1],
        }
    }
}

fn xorshift(x: &mut u64) -> u64 {
    *x ^= *x << 13;
    *x ^= *x >> 7;
    *x ^= *x << 17;
    *x
}

impl Reference {
    /// Runs the reference once (the same work every time) and returns its
    /// wall time in seconds.
    pub fn run(&mut self) -> f64 {
        let t0 = Instant::now();
        black_box(self.sort());
        black_box(self.gather());
        black_box(self.tags());
        t0.elapsed().as_secs_f64()
    }

    /// Sorts the same pseudo-random array.
    fn sort(&mut self) -> u32 {
        let mut x = 0x9e37_79b9_7f4a_7c15_u64;
        for v in &mut self.sort {
            *v = xorshift(&mut x) as u32;
        }
        self.sort.sort_unstable();
        self.sort[SORT_LEN / 2]
    }

    /// Eight independent streams of loads from the table.
    fn gather(&self) -> u64 {
        let mask = GATHER_LEN - 1;
        let mut sum = [0u64; 8];
        let mut at = [1u64, 2, 3, 4, 5, 6, 7, 8];
        for _ in 0..GATHER_ROUNDS {
            for k in 0..8 {
                at[k] = at[k]
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(1_442_695_040_888_963_407);
                sum[k] = sum[k].wrapping_add(self.table[(at[k] >> 33) as usize & mask]);
            }
        }
        sum.iter().fold(0, |a, b| a ^ b)
    }

    /// A two-level direct-mapped tag lookup over a synthetic stream of
    /// sequential, stack-like and scattered addresses.
    fn tags(&mut self) -> u64 {
        self.l1.fill(u32::MAX);
        self.l2.fill(u32::MAX);
        let (m1, m2) = (self.l1.len() - 1, self.l2.len() - 1);
        let mut x = 0x9e37_79b9_7f4a_7c15_u64;
        let (mut pc, mut sp) = (0u32, 0x1_0000u32);
        let (mut h1, mut h2, mut misses) = (0u64, 0u64, 0u64);
        for _ in 0..TAG_REFS {
            let r = xorshift(&mut x);
            let addr = match r & 7 {
                0 => {
                    pc = pc.wrapping_add(((r >> 8) & 0xfff) as u32);
                    pc
                }
                1 | 2 => {
                    sp = sp.wrapping_add(((r >> 12) & 31) as u32) ^ 0x1_0000;
                    sp
                }
                3 => ((r >> 16) & 0xf_ffff) as u32,
                _ => {
                    pc = pc.wrapping_add(4);
                    pc
                }
            };
            let line = addr >> 3;
            let s1 = line as usize & m1;
            if self.l1[s1] == line {
                h1 += 1;
            } else {
                self.l1[s1] = line;
                let s2 = (line >> 1) as usize & m2;
                if self.l2[s2] == line >> 1 {
                    h2 += 1;
                } else {
                    self.l2[s2] = line >> 1;
                    misses += 1;
                }
            }
        }
        h1 * 3 + h2 * 5 + misses
    }
}

/// One timed operation: its wall time and that time at reference speed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sample {
    /// Wall-clock seconds.
    pub wall: f64,
    /// Seconds at reference speed.
    pub scaled: f64,
}

/// Times operations between runs of the [`Reference`].
pub struct Meter {
    reference: Reference,
    /// Reference time of the most recent run.
    last: f64,
    /// Every reference time measured.
    times: Vec<f64>,
}

impl Default for Meter {
    /// A meter whose reference has run twice (the first run faults its
    /// buffers in and is discarded).
    fn default() -> Self {
        let mut reference = Reference::default();
        reference.run();
        let last = reference.run();
        Meter {
            reference,
            last,
            times: vec![last],
        }
    }
}

impl Meter {
    /// Runs the reference and returns the factor that takes what ran since
    /// the previous reference run to reference speed:
    /// [`REF_SECONDS`] over the geometric mean of the two reference times.
    pub fn checkpoint(&mut self) -> f64 {
        let now = self.reference.run();
        let factor = REF_SECONDS / (self.last * now).sqrt();
        self.last = now;
        self.times.push(now);
        factor
    }

    /// Runs `op` between two reference runs and returns its result and
    /// time.
    pub fn time<T>(&mut self, op: impl FnOnce() -> T) -> (T, Sample) {
        let t0 = Instant::now();
        let out = op();
        let wall = t0.elapsed().as_secs_f64();
        let scaled = wall * self.checkpoint();
        (out, Sample { wall, scaled })
    }

    /// Host speed over the run so far, relative to reference speed (1.0
    /// runs the reference in [`REF_SECONDS`]; 0.5 takes twice as long):
    /// [`REF_SECONDS`] over the median reference time.
    pub fn speed(&self) -> f64 {
        REF_SECONDS / crate::stats::median(&self.times)
    }
}

/// Pins this process (and the children it spawns later) to the first CPU
/// it may run on, so measured work and the reference share one core, and
/// every run uses the same one (the cores of a shared host differ in
/// what else runs on them). Returns that CPU, or `None` if the host
/// refused; the benchmark then runs unpinned.
pub fn pin_to_one_cpu() -> Option<usize> {
    extern "C" {
        fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
        fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
    }
    // A glibc `cpu_set_t`: 1024 bits; pid 0 names the calling thread.
    let mut mask = [0u64; 16];
    let size = std::mem::size_of_val(&mask);
    // SAFETY: `mask` is a live, writable `cpu_set_t` of `size` bytes for
    // the duration of the call.
    if unsafe { sched_getaffinity(0, size, mask.as_mut_ptr()) } != 0 {
        return None;
    }
    let word = mask.iter().position(|&w| w != 0)?;
    let cpu = word * 64 + mask[word].trailing_zeros() as usize;
    let mut one = [0u64; 16];
    one[word] = 1 << (cpu % 64);
    // SAFETY: `one` is a live `cpu_set_t` of `size` bytes for the
    // duration of the call.
    let rc = unsafe { sched_setaffinity(0, size, one.as_ptr()) };
    (rc == 0).then_some(cpu)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_reference_does_the_same_work_every_run() {
        let mut r = Reference::default();
        let first = (r.sort(), r.gather(), r.tags());
        assert_eq!(first, (r.sort(), r.gather(), r.tags()));
    }

    #[test]
    fn samples_scale_by_the_bracketing_reference_times() {
        let mut m = Meter::default();
        let before = m.last;
        let (out, s) = m.time(|| 7);
        assert_eq!(out, 7);
        let factor = REF_SECONDS / (before * m.last).sqrt();
        assert!((s.scaled - s.wall * factor).abs() <= 1e-12 * s.scaled.max(1.0));
        assert_eq!(m.times.len(), 2);
        assert!(m.speed() > 0.0);
    }
}
