//! The synthetic trace generator: one [`TraceGenerator`] per process.
//!
//! Combines the instruction-stream model ([`crate::instr`]) and the
//! data-reference model ([`crate::data`]) under the per-benchmark parameters
//! of [`crate::bench_model`], producing the same event stream shape the
//! paper obtains from `pixie`: an instruction fetch per instruction,
//! followed by a data reference for load/store instructions, with voluntary
//! system-call markers and per-instruction processor-stall annotations.

use crate::addr::{Pid, VirtAddr, PAGE_WORDS};
use crate::bench_model::BenchmarkSpec;
use crate::data::DataStream;
use crate::event::{Trace, TraceEvent};
use crate::instr::InstrStream;
use crate::rng::{bernoulli_threshold, SmallRng, F64_DRAW_SHIFT};

/// Streaming, deterministic generator of [`TraceEvent`]s for one benchmark.
///
/// Implements [`Iterator`] and [`Trace`]; the stream ends after the scaled
/// instruction budget is exhausted (the benchmark "terminates", §3). All
/// randomness derives from the spec's seed, so a `(spec, pid, scale)` triple
/// always yields the identical trace.
///
/// # Examples
///
/// ```
/// use gaas_trace::{bench_model, gen::TraceGenerator, Pid};
///
/// let spec = &bench_model::suite()[0];
/// let events: Vec<_> = TraceGenerator::new(spec, Pid::new(0), 1e-5).collect();
/// assert!(!events.is_empty());
/// ```
#[derive(Debug, Clone)]
pub struct TraceGenerator {
    name: &'static str,
    pid: Pid,
    /// Per-process layout stagger in words (whole pages). Real programs
    /// have distinct virtual layouts; without a stagger every process'
    /// segments would share page colors and collide in the same L2 set
    /// groups under page coloring.
    stagger_words: u64,
    rng: SmallRng,
    instr: InstrStream,
    data: DataStream,
    /// Remaining instructions to emit.
    budget: u64,
    /// Instructions until the next voluntary system call.
    until_syscall: u64,
    syscall_interval: u64,
    /// Data event to emit after the current instruction fetch.
    pending: Option<TraceEvent>,
    /// Classification thresholds on the 53-bit draw (see
    /// [`bernoulli_threshold`]): `m < t_load` ⇒ load,
    /// `m < t_load_or_store` ⇒ load or store.
    t_load: u64,
    t_load_or_store: u64,
    t_partial_store: u64,
    t_branch_stall: u64,
    t_load_use: u64,
    t_fp: u64,
    /// FP stall decomposed as `floor + Bernoulli(frac)`.
    fp_stall_floor: u8,
    t_fp_stall_extra: u64,
}

impl TraceGenerator {
    /// Creates a generator for `spec`, tagging every address with `pid`,
    /// with the instruction budget scaled by `scale` (see
    /// [`BenchmarkSpec::scaled_instructions`]).
    ///
    /// # Panics
    ///
    /// Panics if `scale` is not finite and positive.
    pub fn new(spec: &BenchmarkSpec, pid: Pid, scale: f64) -> Self {
        let mut rng = SmallRng::seed_from_u64(spec.seed ^ ((pid.raw() as u64) << 56));
        let instr = InstrStream::new(&spec.code, &mut rng);
        let data = DataStream::new(&spec.data);
        let syscall_interval = spec.syscall_interval();
        TraceGenerator {
            name: spec.name,
            pid,
            stagger_words: ((pid.raw() as u64 * 41 + 13) % 199) * PAGE_WORDS,
            rng,
            instr,
            data,
            budget: spec.scaled_instructions(scale),
            until_syscall: syscall_interval,
            syscall_interval,
            pending: None,
            t_load: bernoulli_threshold(spec.load_frac),
            t_load_or_store: bernoulli_threshold(spec.load_frac + spec.store_frac),
            t_partial_store: bernoulli_threshold(spec.data.partial_store_frac),
            t_branch_stall: bernoulli_threshold(
                spec.stalls.branch_frac * spec.stalls.branch_stall_prob,
            ),
            t_load_use: bernoulli_threshold(spec.stalls.load_use_prob),
            t_fp: bernoulli_threshold(spec.stalls.fp_frac),
            fp_stall_floor: spec.stalls.fp_stall_cycles.floor() as u8,
            t_fp_stall_extra: bernoulli_threshold(
                spec.stalls.fp_stall_cycles - spec.stalls.fp_stall_cycles.floor(),
            ),
        }
    }

    /// The PID this generator stamps on addresses.
    pub fn pid(&self) -> Pid {
        self.pid
    }

    /// Generates the next instruction: its fetch event and, for loads and
    /// stores, the trailing data event. The single hot path shared by
    /// [`Iterator::next`] (which stages the data event in `pending`) and
    /// [`Trace::next_batch`] (which emits both directly).
    #[inline]
    fn step(&mut self) -> (TraceEvent, Option<TraceEvent>) {
        debug_assert!(self.budget > 0);
        self.budget -= 1;

        let iaddr = VirtAddr::new(
            self.pid,
            self.instr.next_addr(&mut self.rng) + self.stagger_words,
        );

        // Classify the instruction. One 53-bit draw, compared exactly as
        // the former `f64` comparison would (see `bernoulli_threshold`).
        let class = self.rng.next_u64() >> F64_DRAW_SHIFT;
        let is_load = class < self.t_load;
        let is_store = !is_load && class < self.t_load_or_store;

        // Processor stalls (the paper's CPU_stall_cycles).
        let mut stall = 0u8;
        if (self.rng.next_u64() >> F64_DRAW_SHIFT) < self.t_branch_stall {
            stall += 1;
        }
        if is_load && (self.rng.next_u64() >> F64_DRAW_SHIFT) < self.t_load_use {
            stall += 1;
        }
        if (self.rng.next_u64() >> F64_DRAW_SHIFT) < self.t_fp {
            stall += self.fp_stall_floor
                + u8::from((self.rng.next_u64() >> F64_DRAW_SHIFT) < self.t_fp_stall_extra);
        }

        // Voluntary syscall marker.
        let mut syscall = false;
        self.until_syscall = self.until_syscall.saturating_sub(1);
        if self.until_syscall == 0 {
            syscall = true;
            self.until_syscall = self.syscall_interval;
        }

        let data = if is_load || is_store {
            let word = if is_store {
                self.data.next_store_addr(&mut self.rng)
            } else {
                self.data.next_addr(&mut self.rng)
            };
            let daddr = VirtAddr::new(self.pid, word + self.stagger_words);
            Some(if is_load {
                TraceEvent::load(daddr)
            } else if (self.rng.next_u64() >> F64_DRAW_SHIFT) < self.t_partial_store {
                TraceEvent::partial_store(daddr)
            } else {
                TraceEvent::store(daddr)
            })
        } else {
            None
        };

        let mut ev = TraceEvent::ifetch(iaddr, stall);
        ev.syscall = syscall;
        (ev, data)
    }
}

impl Iterator for TraceGenerator {
    type Item = TraceEvent;

    fn next(&mut self) -> Option<TraceEvent> {
        if let Some(ev) = self.pending.take() {
            return Some(ev);
        }
        if self.budget == 0 {
            return None;
        }
        let (ev, data) = self.step();
        self.pending = data;
        Some(ev)
    }
}

impl Trace for TraceGenerator {
    fn name(&self) -> &str {
        self.name
    }

    fn next_batch(&mut self, out: &mut Vec<TraceEvent>, max: usize) -> usize {
        // One virtual call amortized over the whole chunk, and — unlike
        // per-event iteration — no staging of data events through the
        // `pending` Option: `step()` emits both events of a load/store
        // instruction straight into the buffer. The RNG draws and event
        // sequence are identical to `next()` (determinism invariant).
        let start = out.len();
        out.reserve(max);
        if max == 0 {
            return 0;
        }
        if let Some(ev) = self.pending.take() {
            out.push(ev);
        }
        // A load/store instruction appends two events, so stop one early
        // and stage the overflow in `pending` only at the batch boundary.
        while out.len() - start < max && self.budget > 0 {
            let (ev, data) = self.step();
            out.push(ev);
            if let Some(d) = data {
                if out.len() - start < max {
                    out.push(d);
                } else {
                    self.pending = Some(d);
                }
            }
        }
        out.len() - start
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bench_model::suite;
    use crate::event::AccessKind;

    fn small(name_idx: usize) -> TraceGenerator {
        TraceGenerator::new(&suite()[name_idx], Pid::new(1), 2e-3)
    }

    #[test]
    fn event_stream_shape_ifetch_then_data() {
        let mut expecting_data = false;
        for ev in small(0).take(50_000) {
            match ev.kind {
                AccessKind::IFetch => {
                    assert!(!expecting_data, "data event skipped");
                    expecting_data = false;
                }
                AccessKind::Load | AccessKind::Store => expecting_data = false,
            }
        }
    }

    #[test]
    fn batched_generation_identical_to_per_event() {
        let serial: Vec<_> = small(2).collect();
        let mut g = small(2);
        let mut batched = Vec::new();
        // 257 is coprime with the ifetch/data pairing, so batch boundaries
        // land mid-instruction as well as between instructions.
        while g.next_batch(&mut batched, 257) != 0 {}
        assert_eq!(batched, serial);
    }

    #[test]
    fn deterministic_per_seed_and_pid() {
        let a: Vec<_> = small(1).take(20_000).collect();
        let b: Vec<_> = small(1).take(20_000).collect();
        assert_eq!(a, b);
        let c: Vec<_> = TraceGenerator::new(&suite()[1], Pid::new(2), 2e-3)
            .take(20_000)
            .collect();
        assert_ne!(a, c, "different PID gives different stream");
    }

    #[test]
    fn mix_matches_spec_within_tolerance() {
        let spec = &suite()[3]; // li
        let gen = TraceGenerator::new(spec, Pid::new(0), 5e-3);
        let (mut ifetch, mut loads, mut stores) = (0u64, 0u64, 0u64);
        for ev in gen {
            match ev.kind {
                AccessKind::IFetch => ifetch += 1,
                AccessKind::Load => loads += 1,
                AccessKind::Store => stores += 1,
            }
        }
        let lf = loads as f64 / ifetch as f64;
        let sf = stores as f64 / ifetch as f64;
        assert!((lf - spec.load_frac).abs() < 0.01, "load frac {lf}");
        assert!((sf - spec.store_frac).abs() < 0.01, "store frac {sf}");
    }

    #[test]
    fn stall_cpi_matches_expected_within_tolerance() {
        let spec = &suite()[0]; // doduc
        let gen = TraceGenerator::new(spec, Pid::new(0), 5e-3);
        let (mut ifetch, mut stalls) = (0u64, 0u64);
        for ev in gen {
            if ev.kind == AccessKind::IFetch {
                ifetch += 1;
                stalls += ev.stall_cycles as u64;
            }
        }
        let mean = stalls as f64 / ifetch as f64;
        let expect = spec.expected_stall_cpi();
        assert!(
            (mean - expect).abs() < 0.02,
            "stall {mean} vs expected {expect}"
        );
    }

    #[test]
    fn syscalls_fire_at_spec_interval() {
        let spec = &suite()[2]; // gcc: syscall every ~21.9k instructions
        let gen = TraceGenerator::new(spec, Pid::new(0), 5e-3);
        let mut ifetch = 0u64;
        let mut syscalls = 0u64;
        for ev in gen {
            if ev.kind == AccessKind::IFetch {
                ifetch += 1;
                if ev.syscall {
                    syscalls += 1;
                }
            }
        }
        let expected = ifetch / spec.syscall_interval();
        assert!(
            syscalls >= expected.saturating_sub(1) && syscalls <= expected + 1,
            "syscalls {syscalls}, expected ~{expected}"
        );
    }

    #[test]
    fn terminates_at_scaled_budget() {
        let spec = &suite()[0];
        let gen = TraceGenerator::new(spec, Pid::new(0), 1e-4);
        let want = spec.scaled_instructions(1e-4);
        let ifetches = gen.filter(|e| e.kind == AccessKind::IFetch).count() as u64;
        assert_eq!(ifetches, want);
    }

    #[test]
    fn all_addresses_carry_generator_pid() {
        for ev in small(4).take(30_000) {
            assert_eq!(ev.addr.pid(), Pid::new(1));
        }
    }

    #[test]
    fn partial_stores_only_on_stores() {
        for ev in small(2).take(50_000) {
            if ev.partial_word {
                assert_eq!(ev.kind, AccessKind::Store);
            }
        }
    }
}
