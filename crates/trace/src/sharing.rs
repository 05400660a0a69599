//! Sharing-aware trace decoration for CMP workloads.
//!
//! The paper's workload is ten independent address spaces — nothing is
//! ever shared, so a multiprocessor run of it would exercise no
//! coherence traffic at all. [`SharingTrace`] turns any per-core stream
//! into one with controllable sharing: each data reference is, with
//! probability `shared_frac`, redirected into a common shared segment
//! (PID [`SHARED_PID`]) that every core's stream maps through the same
//! page tables. Cores reference disjoint *hot windows* of the segment
//! that rotate every `migration_interval` shared references, so true
//! sharing, migratory sharing, and invalidation traffic all appear at
//! tunable rates.
//!
//! The decoration draws from its **own** PRNG, leaving the inner
//! generator's stream untouched: with `shared_frac = 0` the wrapper is
//! never constructed and the stream is bit-identical to the single-CPU
//! workload (the CMP identity anchor).

use crate::addr::{Pid, VirtAddr};
use crate::event::{Trace, TraceEvent};
use crate::rng::{bernoulli_threshold, SmallRng, F64_DRAW_SHIFT};

/// The reserved PID of the shared segment. Shared references from every
/// core carry this PID, so one set of page mappings (and one cache
/// image) backs them all; it appears in per-process statistics as a
/// pseudo-process.
pub const SHARED_PID: Pid = Pid::new(255);

/// Parameters of the shared segment, normally derived from the CMP
/// configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SharingSpec {
    /// Probability that a data reference targets the shared segment.
    pub shared_frac: f64,
    /// Size of the shared segment in words.
    pub shared_words: u64,
    /// Shared references between hot-window rotations (0 = static
    /// affinity, no migration).
    pub migration_interval: u64,
    /// Number of cores the segment is divided among.
    pub cores: u32,
    /// Base seed; each core derives an independent decoration stream.
    pub seed: u64,
}

/// Decorates an inner per-core [`Trace`] with shared-segment references.
#[derive(Debug, Clone)]
pub struct SharingTrace<T> {
    inner: T,
    rng: SmallRng,
    t_shared: u64,
    window_words: u64,
    windows: u64,
    /// This core's current hot-window index.
    window: u64,
    migration_interval: u64,
    /// Shared references until the next window rotation.
    until_migrate: u64,
}

impl<T: Trace> SharingTrace<T> {
    /// Wraps `inner` as core `core`'s stream under `spec`.
    ///
    /// # Panics
    ///
    /// Panics when `spec.shared_words == 0` or `spec.cores == 0`
    /// (configuration validation upstream rejects both).
    pub fn new(inner: T, core: u32, spec: &SharingSpec) -> Self {
        assert!(spec.shared_words > 0, "shared segment must be non-empty");
        assert!(spec.cores > 0, "need at least one core");
        // Each core gets a disjoint window; a segment smaller than the
        // core count degenerates to one-word windows.
        let windows = u64::from(spec.cores);
        let window_words = (spec.shared_words / windows).max(1);
        SharingTrace {
            inner,
            rng: SmallRng::seed_from_u64(spec.seed ^ 0x5EED_C0DE ^ (u64::from(core) << 48)),
            t_shared: bernoulli_threshold(spec.shared_frac),
            window_words,
            windows,
            window: u64::from(core) % windows,
            migration_interval: spec.migration_interval,
            until_migrate: spec.migration_interval,
        }
    }

    /// Whether this data reference's draw selects the shared segment.
    #[inline(always)]
    fn draw_shared(&mut self) -> bool {
        self.rng.next_u64() >> F64_DRAW_SHIFT < self.t_shared
    }

    /// Redirects a data reference the draw selected into this core's
    /// hot window, rotating the window every `migration_interval`
    /// shared references.
    #[cold]
    fn redirect(&mut self, ev: &mut TraceEvent) {
        let offset = self.window * self.window_words + self.rng.gen_range(0..self.window_words);
        ev.addr = VirtAddr::new(SHARED_PID, offset);
        if self.migration_interval > 0 {
            self.until_migrate -= 1;
            if self.until_migrate == 0 {
                self.until_migrate = self.migration_interval;
                self.window = (self.window + 1) % self.windows;
            }
        }
    }
}

impl<T: Trace> Iterator for SharingTrace<T> {
    type Item = TraceEvent;

    fn next(&mut self) -> Option<TraceEvent> {
        let mut ev = self.inner.next()?;
        if ev.kind.is_data() && self.draw_shared() {
            self.redirect(&mut ev);
        }
        Some(ev)
    }
}

impl<T: Trace> Trace for SharingTrace<T> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    /// Decorates the inner batch 64 events at a time: a branch-free
    /// pass builds the chunk's data-event mask, then one draw per set
    /// bit, in order, consumes the PRNG exactly as [`Iterator::next`]
    /// does, so fetches cost no branch and no draw.
    fn next_batch(&mut self, out: &mut Vec<TraceEvent>, max: usize) -> usize {
        let start = out.len();
        let n = self.inner.next_batch(out, max);
        for chunk in out[start..start + n].chunks_mut(64) {
            let mut data = chunk
                .iter()
                .enumerate()
                .fold(0u64, |m, (i, ev)| m | u64::from(ev.kind.is_data()) << i);
            while data != 0 {
                let i = data.trailing_zeros() as usize;
                data &= data - 1;
                if self.draw_shared() {
                    self.redirect(&mut chunk[i]);
                }
            }
        }
        n
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{AccessKind, VecTrace};

    fn base_events(n: u64) -> Vec<TraceEvent> {
        let a = VirtAddr::new(Pid::new(3), 0x1000);
        (0..n)
            .flat_map(|i| {
                [
                    TraceEvent::ifetch(a.wrapping_add(i), 0),
                    TraceEvent::load(a.wrapping_add(4096 + i)),
                    TraceEvent::store(a.wrapping_add(8192 + i)),
                ]
            })
            .collect()
    }

    fn spec(frac: f64) -> SharingSpec {
        SharingSpec {
            shared_frac: frac,
            shared_words: 4096,
            migration_interval: 10,
            cores: 4,
            seed: 7,
        }
    }

    #[test]
    fn zero_fraction_leaves_stream_untouched() {
        let evs = base_events(200);
        let out: Vec<_> =
            SharingTrace::new(VecTrace::new("t", evs.clone()), 0, &spec(0.0)).collect();
        assert_eq!(out, evs);
    }

    #[test]
    fn full_fraction_redirects_every_data_reference() {
        let evs = base_events(100);
        let s = spec(1.0);
        let out: Vec<_> = SharingTrace::new(VecTrace::new("t", evs.clone()), 1, &s).collect();
        for (o, e) in out.iter().zip(&evs) {
            match o.kind {
                AccessKind::IFetch => assert_eq!(o, e, "ifetches untouched"),
                _ => {
                    assert_eq!(o.addr.pid(), SHARED_PID);
                    assert!(o.addr.word() < s.shared_words);
                }
            }
        }
    }

    #[test]
    fn batched_equals_unbatched() {
        let evs = base_events(300);
        let s = spec(0.35);
        let serial: Vec<_> = SharingTrace::new(VecTrace::new("t", evs.clone()), 2, &s).collect();
        let mut t = SharingTrace::new(VecTrace::new("t", evs), 2, &s);
        let mut batched = Vec::new();
        while t.next_batch(&mut batched, 17) > 0 {}
        assert_eq!(batched, serial);
    }

    #[test]
    fn mask_batches_equal_per_event_decoration() {
        // Runs of 100 fetches and of 150 data references straddle the
        // 64-event chunks, so chunks with no data event, chunks of only
        // data events and mixed chunks all occur.
        let a = VirtAddr::new(Pid::new(3), 0x1000);
        let evs: Vec<TraceEvent> = (0..40u64)
            .flat_map(|r| {
                let fetches =
                    (0..100).map(move |i| TraceEvent::ifetch(a.wrapping_add(r * 512 + i), 0));
                let data = (0..150).map(move |i| {
                    let w = a.wrapping_add(8192 + r * 512 + i);
                    if i % 3 == 0 {
                        TraceEvent::store(w)
                    } else {
                        TraceEvent::load(w)
                    }
                });
                fetches.chain(data).chain(base_events(7))
            })
            .collect();
        for frac in [0.1, 1.0] {
            let mut s = spec(frac);
            s.migration_interval = 37;
            let serial: Vec<_> =
                SharingTrace::new(VecTrace::new("t", evs.clone()), 1, &s).collect();
            assert!(serial.iter().any(|e| e.addr.pid() == SHARED_PID));
            for batch in [1, 63, 64, 65, 4096] {
                let mut t = SharingTrace::new(VecTrace::new("t", evs.clone()), 1, &s);
                let mut batched = Vec::new();
                while t.next_batch(&mut batched, batch) > 0 {}
                assert_eq!(batched, serial, "shared_frac {frac}, batch {batch}");
            }
        }
    }

    #[test]
    fn cores_start_in_disjoint_windows() {
        let s = spec(1.0);
        let window = s.shared_words / u64::from(s.cores);
        for core in 0..s.cores {
            let evs = base_events(5);
            let mut t = SharingTrace::new(VecTrace::new("t", evs), core, &s);
            let first_data = t.find(|e| e.kind.is_data()).unwrap();
            let w = first_data.addr.word() / window;
            assert_eq!(w, u64::from(core), "core {core} starts in its window");
        }
    }

    #[test]
    fn migration_rotates_the_hot_window() {
        let mut s = spec(1.0);
        s.migration_interval = 5;
        let window = s.shared_words / u64::from(s.cores);
        let evs = base_events(50);
        let words: Vec<u64> = SharingTrace::new(VecTrace::new("t", evs), 0, &s)
            .filter(|e| e.kind.is_data())
            .map(|e| e.addr.word() / window)
            .collect();
        // First 5 shared refs in window 0, next 5 in window 1, ...
        assert_eq!(&words[..5], &[0, 0, 0, 0, 0]);
        assert_eq!(&words[5..10], &[1, 1, 1, 1, 1]);
        assert_eq!(&words[10..15], &[2, 2, 2, 2, 2]);
        assert_eq!(&words[20..25], &[0, 0, 0, 0, 0], "wraps around");
    }

    #[test]
    fn decoration_rng_is_per_core_independent() {
        let s = spec(0.5);
        let a: Vec<_> = SharingTrace::new(VecTrace::new("t", base_events(100)), 0, &s).collect();
        let b: Vec<_> = SharingTrace::new(VecTrace::new("t", base_events(100)), 1, &s).collect();
        assert_ne!(a, b, "different cores decorate differently");
        let a2: Vec<_> = SharingTrace::new(VecTrace::new("t", base_events(100)), 0, &s).collect();
        assert_eq!(a, a2, "same core, same seed: deterministic");
    }
}
