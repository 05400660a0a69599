//! Two-phase sweep memoization: functional profiles and timing pricing.
//!
//! The paper's sweeps (Figs. 5, 7, 8) vary two very different kinds of
//! knob. *Geometry* knobs — cache sizes, associativities, line sizes, the
//! write policy, the L2 organization — change which accesses hit and miss.
//! *Timing* knobs — L2 access times, memory penalties, write-buffer depth,
//! the §9 concurrency switches — change only how many cycles each outcome
//! costs. A 63-cell access-time sweep therefore repeats the same hit/miss
//! computation 9 times per geometry.
//!
//! This module splits the simulation accordingly:
//!
//! 1. **Functional pass** — one full simulation per geometry, run with a
//!    [`ProfileRecorder`] attached ([`Simulator::run_profiled`](crate::Simulator::run_profiled)). The
//!    recorder captures every instruction's functional outcome into a
//!    compact byte-token stream (typically ~1.1 bytes/instruction): TLB
//!    hit/miss, L1/L2 hit/miss with victim dirtiness, write-policy
//!    outcomes, and the physical addresses the write buffer needs. The
//!    pass steps the bare kernel, memos and span drain included: a memo
//!    skip is a TLB plus L1 hit, and the memo paths record its token.
//! 2. **Timing pass** — [`price_profiles`] replays the token stream under
//!    any timing points of the same geometry, re-running the simulator's
//!    cycle rules (write-buffer occupancy, dirty buffer, drain streaming)
//!    against fresh timing state. It takes the L2 costs and the split of
//!    refill cycles between CPI components from the code the simulator's
//!    core uses. Each result is byte-identical to a full simulation of
//!    that configuration; [`price_profile`] is the one-variant call.
//!
//! The split is sound because the simulator's scheduler runs on a
//! *functional clock* (see `Simulator::fnow`) that advances only on
//! functional outcomes: every timing variant of one geometry executes the
//! identical instruction interleaving.
//!
//! # Multi-variant co-pricing
//!
//! A geometry group usually carries several timing variants, and replaying
//! the token stream once per variant decodes the same ~5.5 M-event stream
//! N times. [`price_profiles`] collapses that: ONE pass over the token
//! stream advances N variant *lanes* in lockstep. Each instruction record
//! is decoded once into locals (stall, TLB bits, outcomes, drain codes,
//! side-channel addresses) and then applied to every lane; per-lane timing
//! state is laid out structure-of-arrays (`now`, counters, write-buffer
//! occupancy planes) so the inner loop is branch-light, and the
//! write-buffer line probe compares a whole lane window with one
//! XOR/mask/compare per word ([`gaas_cache::line_member_mask`]). A lane's
//! result does not depend on the other lanes: pricing N variants together
//! gives what N one-lane passes give.
//!
//! The address side channel is stored as codec-v3 blocks
//! ([`gaas_trace::codec::encode_u64_stream`]) and streamed through a
//! block-at-a-time cursor during replay — at most one ≤4096-entry batch
//! buffer is decoded at any moment, consumed by all lanes before the next
//! block is touched, instead of materializing the whole packed stream per
//! replay.
//!
//! [`functional_fingerprint`] defines the grouping key. It destructures
//! [`SimConfig`] *exhaustively* — adding a config field without
//! classifying it as functional, timing, or disqualifying breaks the
//! build, so the memoizer can never silently group configurations that
//! differ functionally.

use gaas_cache::{line_member_mask, MainMemory, MemorySystem, WritePolicy};
use gaas_trace::codec::{encode_u64_stream, U64StreamCursor};
use gaas_trace::{PhysAddr, Pid};

use crate::config::{
    ConcurrencyConfig, L1Config, L2Config, L2Side, MpConfig, SimConfig, WbBypass, WriteBufferConfig,
};
use crate::cpi::{Counters, ProcCounters};
use crate::pipeline::L2Costs;
use crate::sim::{SimError, SimResult, Termination};

// ---- token encoding ----
//
// The ops stream is a sequence of instruction records, optionally
// preceded by a control token when the issuing PID changes:
//
//   control token:  0b11......  followed by one raw PID byte
//   ifetch byte:    bits 7-6 data kind (0 none, 1 load, 2 store)
//                   bit  5   I-TLB miss
//                   bits 4-2 CPU stall (0-6 inline; 7 = next byte holds
//                            the full 8-bit stall)
//                   bits 1-0 fetch outcome (see OUTCOME_*)
//   load byte:      bits 1-0 data outcome, bit 2 D-TLB miss,
//                   bit 3 replaced-written-line, bit 4 has victim
//   store byte:     bit 0 D-TLB miss, bit 1 L1 hit, bit 2 extra write
//                   cycle, bit 3 wb word, bit 4 fetch, bit 5 victim
//   store ext byte: (present iff fetch) bits 1-0 data outcome,
//                   bit 2 replaced-written-line
//   drain byte:     one per write-buffer enqueue, in enqueue order:
//                   0 = L2-D drain hit, 1 = drain miss w/ clean victim,
//                   2 = drain miss w/ dirty victim
//
// Outcome codes: 0 = L1 hit, 1 = L2 hit, 2 = L2 miss (clean victim),
// 3 = L2 miss (dirty victim).
//
// The addrs side channel carries only the physical addresses the timing
// replay needs (write-buffer entries and fetched line bases), in
// consumption order: per load miss `[line_base][victim?]`, per store
// `[wb_word?][line_base?][victim?]`.

const KIND_LOAD: u8 = 1 << 6;
const KIND_STORE: u8 = 2 << 6;
const CONTROL: u8 = 3 << 6;
const I_TLB_MISS: u8 = 1 << 5;
const STALL_ESCAPE: u8 = 7;

const LOAD_DTLB: u8 = 1 << 2;
const LOAD_REPLACED: u8 = 1 << 3;
const LOAD_VICTIM: u8 = 1 << 4;

const STORE_DTLB: u8 = 1 << 0;
const STORE_HIT: u8 = 1 << 1;
const STORE_EXTRA: u8 = 1 << 2;
const STORE_WB_WORD: u8 = 1 << 3;
const STORE_FETCH: u8 = 1 << 4;
const STORE_VICTIM: u8 = 1 << 5;
const EXT_REPLACED: u8 = 1 << 2;

const OUTCOME_MASK: u8 = 0x03;

/// One geometry's functional behaviour, replayable under any timing point
/// (produced by [`Simulator::run_profiled`], consumed by
/// [`price_profile`]).
///
/// [`Simulator::run_profiled`]: crate::sim::Simulator::run_profiled
#[derive(Debug, Clone)]
pub struct FunctionalProfile {
    /// The geometry key this profile was recorded under
    /// ([`functional_fingerprint`]).
    pub fkey: u64,
    /// Warm-up instruction count the recording run used; pricing snapshots
    /// at the same boundary.
    pub warmup: u64,
    /// Packed per-instruction outcome tokens.
    pub(crate) ops: Vec<u8>,
    /// Physical word addresses for the write-buffer replay, stored as
    /// codec-v3 blocks ([`encode_u64_stream`]) and streamed block-at-a-
    /// time during pricing. Clustered write-buffer/line-base addresses
    /// delta-compress 2–4× versus the 8 B/entry packed form.
    pub(crate) addr_blocks: Vec<u8>,
    /// Number of addresses encoded in `addr_blocks`.
    addr_count: u64,
    /// Benchmarks in completion order (scheduler outcome, functional).
    pub completed: Vec<String>,
    /// Voluntary-syscall context switches taken.
    pub syscall_switches: u64,
    /// Time-slice context switches taken.
    pub slice_switches: u64,
    /// True when the recording run hit its instruction budget.
    pub budget_exhausted: bool,
}

impl FunctionalProfile {
    /// Approximate heap footprint in bytes (capacity planning). The
    /// address side channel is counted at its compressed size — what the
    /// profile actually occupies while cached.
    pub fn size_bytes(&self) -> usize {
        self.ops.len() + self.addr_blocks.len()
    }

    /// Addresses in the side channel (the count behind
    /// [`Self::size_bytes`]'s compressed `addr` term; 8 bytes each before
    /// compression).
    pub fn addr_count(&self) -> u64 {
        self.addr_count
    }

    /// Instructions the profile covers (including warm-up).
    pub fn instructions(&self) -> u64 {
        // Count ifetch records: every byte stream position that starts an
        // instruction. Cheap enough for reporting; not used in pricing.
        let mut n = 0u64;
        let mut i = 0usize;
        while i < self.ops.len() {
            let b = self.ops[i];
            i += 1;
            if b & CONTROL == CONTROL {
                i += 1; // pid byte
                continue;
            }
            n += 1;
            if (b >> 2) & 0x07 == STALL_ESCAPE {
                i += 1; // full stall byte
            }
            match b & CONTROL {
                KIND_LOAD => {
                    let lb = self.ops[i];
                    i += 1;
                    if lb & OUTCOME_MASK != 0 && lb & LOAD_VICTIM != 0 {
                        i += 1; // drain byte
                    }
                }
                KIND_STORE => {
                    let sb = self.ops[i];
                    i += 1;
                    if sb & STORE_FETCH != 0 {
                        i += 1; // ext byte
                    }
                    let drains = u32::from(sb & STORE_WB_WORD != 0)
                        + u32::from(sb & STORE_FETCH != 0 && sb & STORE_VICTIM != 0)
                        + u32::from(sb & STORE_FETCH == 0 && sb & STORE_VICTIM != 0);
                    i += drains as usize;
                }
                _ => {}
            }
        }
        n
    }
}

/// Captures functional outcomes during a recording run (installed by
/// [`Simulator::run_profiled`]; see the module docs for the encoding).
///
/// [`Simulator::run_profiled`]: crate::sim::Simulator::run_profiled
#[derive(Debug, Default)]
pub struct ProfileRecorder {
    ops: Vec<u8>,
    addrs: Vec<u64>,
    last_pid: Option<u8>,
    /// Index of the current instruction's ifetch byte (outcome patched by
    /// the L2 service path, data kind patched by the data step).
    i_slot: usize,
    /// Index of the current data byte awaiting its outcome patch (the
    /// load byte, or a store's ext byte).
    d_slot: usize,
}

impl ProfileRecorder {
    pub(crate) fn new() -> Self {
        Self::default()
    }

    pub(crate) fn begin_instr(&mut self, pid: u8, stall: u8, itlb_miss: bool) {
        if self.last_pid != Some(pid) {
            self.ops.push(CONTROL);
            self.ops.push(pid);
            self.last_pid = Some(pid);
        }
        let mut b = 0u8;
        if itlb_miss {
            b |= I_TLB_MISS;
        }
        let s = stall.min(STALL_ESCAPE);
        b |= s << 2;
        self.i_slot = self.ops.len();
        self.ops.push(b);
        if s == STALL_ESCAPE {
            self.ops.push(stall);
        }
    }

    /// Patches the current instruction's fetch outcome (1 = L2 hit,
    /// 2/3 = L2 miss with clean/dirty victim).
    pub(crate) fn set_i_outcome(&mut self, code: u8) {
        self.ops[self.i_slot] |= code;
    }

    pub(crate) fn begin_load(&mut self, dtlb_miss: bool) {
        self.ops[self.i_slot] |= KIND_LOAD;
        self.d_slot = self.ops.len();
        self.ops.push(if dtlb_miss { LOAD_DTLB } else { 0 });
    }

    pub(crate) fn load_miss(&mut self, replaced_written: bool, has_victim: bool, line_base: u64) {
        let mut b = 0u8;
        if replaced_written {
            b |= LOAD_REPLACED;
        }
        if has_victim {
            b |= LOAD_VICTIM;
        }
        self.ops[self.d_slot] |= b;
        self.addrs.push(line_base);
    }

    #[allow(clippy::too_many_arguments, clippy::fn_params_excessive_bools)]
    pub(crate) fn begin_store(
        &mut self,
        dtlb_miss: bool,
        hit: bool,
        extra_cycle: bool,
        has_wb_word: bool,
        has_fetch: bool,
        has_victim: bool,
        replaced_written: bool,
    ) {
        self.ops[self.i_slot] |= KIND_STORE;
        let mut b = 0u8;
        if dtlb_miss {
            b |= STORE_DTLB;
        }
        if hit {
            b |= STORE_HIT;
        }
        if extra_cycle {
            b |= STORE_EXTRA;
        }
        if has_wb_word {
            b |= STORE_WB_WORD;
        }
        if has_fetch {
            b |= STORE_FETCH;
        }
        if has_victim {
            b |= STORE_VICTIM;
        }
        self.ops.push(b);
        if has_fetch {
            self.d_slot = self.ops.len();
            self.ops
                .push(if replaced_written { EXT_REPLACED } else { 0 });
        }
    }

    /// Patches the current data access's outcome (load byte or store ext
    /// byte).
    pub(crate) fn set_d_outcome(&mut self, code: u8) {
        self.ops[self.d_slot] |= code;
    }

    /// Records a physical address for the write-buffer replay (enqueued
    /// words/victims and store fetch line bases, in consumption order).
    pub(crate) fn push_addr(&mut self, raw: u64) {
        self.addrs.push(raw);
    }

    /// Records one write-buffer drain's L2-D outcome, in enqueue order.
    pub(crate) fn push_drain(&mut self, code: u8) {
        self.ops.push(code);
    }

    pub(crate) fn finish(self, fkey: u64, warmup: u64, result: &SimResult) -> FunctionalProfile {
        FunctionalProfile {
            fkey,
            warmup,
            ops: self.ops,
            addr_blocks: encode_u64_stream(&self.addrs),
            addr_count: self.addrs.len() as u64,
            completed: result.completed.clone(),
            syscall_switches: result.counters.syscall_switches,
            slice_switches: result.counters.slice_switches,
            budget_exhausted: result.termination == Termination::BudgetExhausted,
        }
    }
}

// ---- geometry key ----

struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn put(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn u64(&mut self, v: u64) {
        self.put(&v.to_le_bytes());
    }

    fn u32(&mut self, v: u32) {
        self.put(&v.to_le_bytes());
    }
}

fn hash_l1(h: &mut Fnv, c: &L1Config) {
    let L1Config {
        size_words,
        line_words,
        assoc,
    } = *c;
    h.u64(size_words);
    h.u32(line_words);
    h.u32(assoc);
}

/// Hashes the *functional* part of an L2 side: its shape, not its access
/// time (the access time is exactly what the timing pass re-prices).
fn hash_l2_side(h: &mut Fnv, s: &L2Side) {
    let L2Side {
        size_words,
        assoc,
        line_words,
        access_cycles: _, // timing
    } = *s;
    h.u64(size_words);
    h.u32(assoc);
    h.u32(line_words);
}

/// The memoizer's grouping key: a hash over exactly the [`SimConfig`]
/// fields that determine *functional* behaviour (hit/miss outcomes,
/// scheduling, completion order). Two configurations with equal keys may
/// share one [`FunctionalProfile`]; they may differ only in timing.
///
/// Returns `None` for configurations that must not be memoized at all:
/// fault injection (stochastic state corruption driven by access order
/// *and* recovery costs), the differential oracle (must observe the real
/// engine), checkpointing (checkpoints carry timing-clock cycles), and
/// telemetry (spans and windowed CPI stacks only exist in a timed run).
///
/// # Classification (every field, exhaustively)
///
/// | class | fields |
/// |---|---|
/// | functional | `l1i`, `l1d`, `policy`, `l2` shape (organization, sizes, assocs, line sizes), `mp`, `page_colors`, `instruction_budget` |
/// | timing | L2 `access_cycles`, `write_buffer`, `concurrency`, `memory`, `tlb_miss_penalty`, `l2_drain_access_override` |
/// | disqualifying | `fault` (when enabled), `diffcheck` (when enabled), `checkpoint_interval` (when nonzero), `telemetry` (when enabled), `cmp` (when enabled: multi-core interleaving and coherence traffic make outcomes timing-coupled) |
///
/// The destructuring below is deliberately exhaustive (no `..`): adding a
/// field to [`SimConfig`] fails to compile until it is classified here,
/// so the memoizer can never silently group configs that differ in a new
/// functional knob.
pub fn functional_fingerprint(cfg: &SimConfig) -> Option<u64> {
    let SimConfig {
        l1i,
        l1d,
        policy,
        l2,
        write_buffer,
        concurrency,
        memory,
        mp,
        tlb_miss_penalty,
        page_colors,
        l2_drain_access_override,
        fault,
        instruction_budget,
        checkpoint_interval,
        diffcheck,
        telemetry,
        cmp,
    } = cfg;

    // Disqualifiers: behaviours that couple functional state to timing or
    // to per-run stochastic machinery. Telemetry is disqualifying because
    // the pricer cannot synthesize the spans and per-window stacks a real
    // timed run would have produced.
    if fault.enabled()
        || diffcheck.enabled
        || *checkpoint_interval != 0
        || telemetry.enabled
        || cmp.enabled()
    {
        // `cmp` is disqualifying because the CMP engine interleaves cores
        // by functional-clock order over a shared L2 and charges coherence
        // traffic — each core's outcomes depend on the other cores'
        // accesses, so they are not a pure function of one geometry's
        // stream.
        return None;
    }

    // Timing-only fields — destructured so a new subfield must be
    // (re)classified, then ignored by the key.
    let WriteBufferConfig {
        depth: _,
        width_words: _,
    } = *write_buffer;
    let ConcurrencyConfig {
        concurrent_i_refill: _,
        d_read_bypass: _,
        l2d_dirty_buffer: _,
    } = *concurrency;
    let MainMemory {
        clean_miss_cycles: _,
        dirty_miss_cycles: _,
    } = *memory;
    let _: (&u32, &Option<u32>) = (tlb_miss_penalty, l2_drain_access_override);

    let mut h = Fnv::new();
    hash_l1(&mut h, l1i);
    hash_l1(&mut h, l1d);
    h.put(&[match policy {
        WritePolicy::WriteBack => 0u8,
        WritePolicy::WriteMissInvalidate => 1,
        WritePolicy::WriteOnly => 2,
        WritePolicy::Subblock => 3,
    }]);
    match l2 {
        L2Config::Unified(s) => {
            h.put(&[0]);
            hash_l2_side(&mut h, s);
        }
        L2Config::Split { i, d } => {
            h.put(&[1]);
            hash_l2_side(&mut h, i);
            hash_l2_side(&mut h, d);
        }
    }
    let MpConfig {
        level,
        time_slice_cycles,
    } = *mp;
    h.u64(level as u64);
    h.u64(time_slice_cycles);
    h.u64(*page_colors);
    match instruction_budget {
        Some(b) => {
            h.put(&[1]);
            h.u64(*b);
        }
        None => h.put(&[0]),
    }
    Some(h.0)
}

// ---- timing pricer ----

/// Prices a [`FunctionalProfile`] under `cfg`'s timing point, producing a
/// [`SimResult`] byte-identical to a full simulation of `cfg`: a one-lane
/// [`price_profiles`].
///
/// # Errors
///
/// Returns [`SimError::Config`] when `cfg` fails validation.
///
/// # Panics
///
/// Panics when `cfg` is not a timing variant of the profiled geometry.
pub fn price_profile(cfg: &SimConfig, profile: &FunctionalProfile) -> Result<SimResult, SimError> {
    let mut results = price_profiles(std::slice::from_ref(cfg), profile)?;
    Ok(results.pop().expect("one result per lane"))
}

/// Prices **every** timing variant in `cfgs` against one
/// [`FunctionalProfile`] in a single pass over the token/address stream,
/// returning one [`SimResult`] per config, in order — each byte-identical
/// to a full simulation of that config.
///
/// Where N separate replays would decode the same token stream N times,
/// this engine decodes each instruction record once and applies it to N
/// variant *lanes* advanced in lockstep; see the module docs for the
/// lane layout. The address side channel streams through one shared
/// block cursor, so every decoded batch is consumed by all lanes before
/// the next block is touched.
///
/// # Errors
///
/// Returns [`SimError::Config`] when any config fails validation (the
/// campaign then simulates the group's members individually).
///
/// # Panics
///
/// Panics when any `cfg` is not a timing variant of the profiled
/// geometry (`functional_fingerprint(cfg) != Some(profile.fkey)`) —
/// grouping mistakes are programming errors, not recoverable conditions.
pub fn price_profiles(
    cfgs: &[SimConfig],
    profile: &FunctionalProfile,
) -> Result<Vec<SimResult>, SimError> {
    for cfg in cfgs {
        cfg.validate()?;
        assert_eq!(
            functional_fingerprint(cfg),
            Some(profile.fkey),
            "price_profiles requires timing variants of the profiled geometry"
        );
    }
    if cfgs.is_empty() {
        return Ok(Vec::new());
    }

    let mut p = CoPricer::new(cfgs);
    let mut addrs = U64StreamCursor::new(&profile.addr_blocks);
    let next_addr =
        |cur: &mut U64StreamCursor<'_>| PhysAddr::new(cur.next_value().expect("addrs underrun"));

    let ops = &profile.ops[..];
    let mut warm = false;
    // Run accumulator for "trivial" records — every cache level hit, so
    // the cost is lane-independent (or a lane-constant TLB penalty times
    // a shared count). These records — the vast majority of the stream —
    // cost a handful of scalar adds each; the per-lane loop runs only on
    // the flush that precedes a miss, a PID switch, or the warmup
    // boundary. This is what makes N-lane co-pricing cheaper than N
    // replays: a per-event replay pays the full bookkeeping per lane, the
    // co-pricer pays it per *run*.
    let mut pend = PendingRun::default();
    // Architectural instruction count so far (lane-independent), kept
    // outside the lanes so the warmup boundary check stays scalar.
    let mut instr_total = 0u64;
    let mut i = 0usize;
    while i < ops.len() {
        let b = ops[i];
        i += 1;
        if b & CONTROL == CONTROL {
            p.flush(&mut pend);
            p.switch_pid(ops[i]);
            i += 1;
            continue;
        }
        // Decode the whole instruction record into locals once, then
        // apply it to every lane (or fold it into the pending run).
        let mut stall = ((b >> 2) & 0x07) as u64;
        if stall == STALL_ESCAPE as u64 {
            stall = ops[i] as u64;
            i += 1;
        }
        let itlb = b & I_TLB_MISS != 0;
        let i_outcome = b & OUTCOME_MASK;
        instr_total += 1;
        match b & CONTROL {
            KIND_LOAD => {
                let lb = ops[i];
                i += 1;
                let outcome = lb & OUTCOME_MASK;
                if i_outcome == 0 && outcome == 0 {
                    pend.ifetch_hit(stall, itlb);
                    pend.load_hit(lb & LOAD_DTLB != 0);
                } else {
                    let (mut line_base, mut victim) = (PhysAddr::new(0), None);
                    if outcome != 0 {
                        line_base = next_addr(&mut addrs);
                        if lb & LOAD_VICTIM != 0 {
                            let addr = next_addr(&mut addrs);
                            let code = ops[i];
                            i += 1;
                            victim = Some((addr, code));
                        }
                    }
                    let replaced = lb & LOAD_REPLACED != 0;
                    let dtlb = lb & LOAD_DTLB != 0;
                    p.flush(&mut pend);
                    for l in 0..p.n {
                        p.apply_ifetch(l, stall, itlb, i_outcome);
                        p.apply_load(l, dtlb, outcome, replaced, line_base, victim);
                    }
                }
            }
            KIND_STORE => {
                let sb = ops[i];
                i += 1;
                if i_outcome == 0 && sb & (STORE_FETCH | STORE_WB_WORD | STORE_VICTIM) == 0 {
                    pend.ifetch_hit(stall, itlb);
                    pend.store_simple(sb);
                } else {
                    let (mut outcome, mut replaced) = (0u8, false);
                    if sb & STORE_FETCH != 0 {
                        let ext = ops[i];
                        i += 1;
                        outcome = ext & OUTCOME_MASK;
                        replaced = ext & EXT_REPLACED != 0;
                    }
                    // Side-channel consumption order mirrors the
                    // recording run: wb word, fetched line base, victim.
                    let mut wb_word = None;
                    if sb & STORE_WB_WORD != 0 {
                        let addr = next_addr(&mut addrs);
                        let code = ops[i];
                        i += 1;
                        wb_word = Some((addr, code));
                    }
                    let mut line_base = PhysAddr::new(0);
                    if sb & STORE_FETCH != 0 {
                        line_base = next_addr(&mut addrs);
                    }
                    let mut victim = None;
                    if sb & STORE_VICTIM != 0 {
                        let addr = next_addr(&mut addrs);
                        let code = ops[i];
                        i += 1;
                        victim = Some((addr, code));
                    }
                    p.flush(&mut pend);
                    for l in 0..p.n {
                        p.apply_ifetch(l, stall, itlb, i_outcome);
                        p.apply_store(l, sb, outcome, replaced, wb_word, line_base, victim);
                    }
                }
            }
            _ => {
                if i_outcome == 0 {
                    pend.ifetch_hit(stall, itlb);
                } else {
                    p.flush(&mut pend);
                    for l in 0..p.n {
                        p.apply_ifetch(l, stall, itlb, i_outcome);
                    }
                }
            }
        }
        if profile.warmup > 0 && !warm && instr_total == profile.warmup {
            p.flush(&mut pend);
            warm = true;
            p.warm_snapshot = p.counters.clone();
        }
    }
    p.flush(&mut pend);
    debug_assert_eq!(i, ops.len(), "ops stream fully consumed");
    debug_assert!(addrs.finished(), "addrs stream fully consumed");

    Ok(p.into_results(cfgs, profile, warm))
}

/// Accumulated all-hit records awaiting a lane flush (see
/// [`price_profiles`]): every field is either lane-independent outright
/// or a shared count scaled by a lane constant at flush time.
#[derive(Default)]
struct PendingRun {
    /// Instruction records in the run.
    instructions: u64,
    loads: u64,
    stores: u64,
    /// Lane-independent cycles: `1 + stall` per ifetch plus the 1-cycle
    /// write-allocate extras.
    base_cycles: u64,
    cpu_stall: u64,
    itlb: u64,
    dtlb: u64,
    /// `STORE_EXTRA` stores (each one `l1_write_cycles` cycle).
    extra_writes: u64,
    /// L1-D write misses that neither fetch nor enqueue (write-around
    /// policies): counted, zero cycles.
    store_misses: u64,
}

impl PendingRun {
    #[inline]
    fn ifetch_hit(&mut self, stall: u64, itlb: bool) {
        self.instructions += 1;
        self.base_cycles += 1 + stall;
        self.cpu_stall += stall;
        self.itlb += u64::from(itlb);
    }

    #[inline]
    fn load_hit(&mut self, dtlb: bool) {
        self.loads += 1;
        self.dtlb += u64::from(dtlb);
    }

    #[inline]
    fn store_simple(&mut self, sb: u8) {
        self.stores += 1;
        self.dtlb += u64::from(sb & STORE_DTLB != 0);
        self.store_misses += u64::from(sb & STORE_HIT == 0);
        let extra = u64::from(sb & STORE_EXTRA != 0);
        self.extra_writes += extra;
        self.base_cycles += extra;
    }

    #[inline]
    fn is_empty(&self) -> bool {
        self.instructions == 0 && self.loads == 0 && self.stores == 0
    }
}

/// Lane-parallel replay state for [`price_profiles`]: the timing state of
/// one [`Core`](crate::Core) and its [`Uncore`](crate::Uncore) per lane,
/// structure-of-arrays, minus everything the profile already decided
/// (arrays, TLBs, clocks other than `now`). The write buffers of all
/// lanes live in two packed planes (`wb_addr`, `wb_done`) of `wb_stride`
/// slots per lane — lane `l`'s FIFO ring is `plane[l * stride ..][slot]`
/// — so the §9 associative-bypass line probe scans one lane window with
/// [`line_member_mask`] (one XOR/mask/compare per word, no per-slot
/// branching). Buffer *depth* is a timing knob, so lanes may use fewer
/// slots than the stride (`stride = max(depth)` across the group).
struct CoPricer {
    n: usize,
    now: Vec<u64>,
    counters: Vec<Counters>,
    warm_snapshot: Vec<Counters>,
    per_proc: Vec<Vec<ProcCounters>>,
    cur_pid: usize,
    // Write-buffer planes + per-lane ring bookkeeping. Completion times
    // are strictly increasing in enqueue order and lane time never goes
    // backwards, so retirement pops a ring prefix (head/len), exactly
    // like `gaas_cache::WriteBuffer`'s lazy `advance`.
    wb_stride: usize,
    wb_addr: Vec<u64>,
    wb_done: Vec<u64>,
    wb_head: Vec<usize>,
    wb_len: Vec<usize>,
    wb_last: Vec<u64>,
    wb_depth: Vec<usize>,
    mem_d: Vec<MemorySystem>,
    mem_i: Vec<MemorySystem>,
    // Per-lane timing constants.
    costs: Vec<L2Costs>,
    tlb_penalty: Vec<u64>,
    bypass: Vec<WbBypass>,
    concurrent_i_refill: Vec<bool>,
    split_l2: Vec<bool>,
    /// `l1d.line_words - 1`; the line length is functional, hence
    /// identical across lanes, and recorded line bases are line-aligned —
    /// the two facts [`line_member_mask`] relies on.
    d_line_mask: u64,
}

impl CoPricer {
    fn new(cfgs: &[SimConfig]) -> Self {
        let n = cfgs.len();
        let stride = cfgs.iter().map(|c| c.write_buffer.depth).max().unwrap_or(1);
        CoPricer {
            n,
            now: vec![0; n],
            counters: vec![Counters::new(); n],
            warm_snapshot: Vec::new(),
            per_proc: vec![Vec::new(); n],
            cur_pid: 0,
            wb_stride: stride,
            wb_addr: vec![0; n * stride],
            wb_done: vec![0; n * stride],
            wb_head: vec![0; n],
            wb_len: vec![0; n],
            wb_last: vec![0; n],
            wb_depth: cfgs.iter().map(|c| c.write_buffer.depth).collect(),
            mem_d: cfgs
                .iter()
                .map(|c| MemorySystem::new(c.memory, c.concurrency.l2d_dirty_buffer))
                .collect(),
            mem_i: cfgs
                .iter()
                .map(|c| MemorySystem::new(c.memory, false))
                .collect(),
            costs: cfgs.iter().map(L2Costs::new).collect(),
            tlb_penalty: cfgs.iter().map(|c| c.tlb_miss_penalty as u64).collect(),
            bypass: cfgs.iter().map(|c| c.concurrency.d_read_bypass).collect(),
            concurrent_i_refill: cfgs
                .iter()
                .map(|c| c.concurrency.concurrent_i_refill)
                .collect(),
            split_l2: cfgs.iter().map(|c| c.l2.is_split()).collect(),
            d_line_mask: u64::from(cfgs[0].l1d.line_words) - 1,
        }
    }

    fn switch_pid(&mut self, pid: u8) {
        self.cur_pid = pid as usize;
        for pp in &mut self.per_proc {
            if pp.len() <= self.cur_pid {
                pp.resize(self.cur_pid + 1, ProcCounters::default());
            }
        }
    }

    /// Applies an accumulated all-hit run to every lane and resets it.
    /// The whole run belongs to `cur_pid` (runs are flushed on PID
    /// switches) and precedes any pending miss (runs are flushed before
    /// the per-lane miss path), so lane time, counters, and the
    /// per-process entry each advance by one closed-form delta.
    fn flush(&mut self, pend: &mut PendingRun) {
        if pend.is_empty() {
            return;
        }
        let tlb_events = pend.itlb + pend.dtlb;
        for l in 0..self.n {
            let cycles = pend.base_cycles + tlb_events * self.tlb_penalty[l];
            {
                let c = &mut self.counters[l];
                c.instructions += pend.instructions;
                c.loads += pend.loads;
                c.stores += pend.stores;
                c.cpu_stall_cycles += pend.cpu_stall;
                c.itlb_misses += pend.itlb;
                c.dtlb_misses += pend.dtlb;
                c.tlb_miss_cycles += tlb_events * self.tlb_penalty[l];
                c.l1_write_cycles += pend.extra_writes;
                c.l1d_write_misses += pend.store_misses;
            }
            self.now[l] += cycles;
            let pp = self.proc_entry(l);
            pp.instructions += pend.instructions;
            pp.loads += pend.loads;
            pp.stores += pend.stores;
            pp.cycles += cycles;
            pp.l1d_misses += pend.store_misses;
        }
        *pend = PendingRun::default();
    }

    // -- write buffer (gaas_cache::WriteBuffer's rules over the planes) --

    #[inline]
    fn wb_advance(&mut self, l: usize, now: u64) {
        let base = l * self.wb_stride;
        let depth = self.wb_depth[l];
        let mut head = self.wb_head[l];
        let mut len = self.wb_len[l];
        while len > 0 && self.wb_done[base + head] <= now {
            head += 1;
            if head == depth {
                head = 0;
            }
            len -= 1;
        }
        self.wb_head[l] = head;
        self.wb_len[l] = len;
    }

    #[inline]
    fn wb_slot_free_at(&mut self, l: usize, now: u64) -> u64 {
        self.wb_advance(l, now);
        if self.wb_len[l] < self.wb_depth[l] {
            now
        } else {
            // Full: the oldest live entry frees the slot.
            self.wb_done[l * self.wb_stride + self.wb_head[l]]
        }
    }

    #[inline]
    fn wb_empty_at(&mut self, l: usize, now: u64) -> u64 {
        self.wb_advance(l, now);
        if self.wb_len[l] == 0 {
            now
        } else {
            // The youngest live entry is the last enqueued one.
            self.wb_last[l].max(now)
        }
    }

    #[inline]
    fn wb_enqueue(&mut self, l: usize, enq_time: u64, addr: PhysAddr, extra: u32) -> u64 {
        self.wb_advance(l, enq_time);
        debug_assert!(self.wb_len[l] < self.wb_depth[l], "enqueue into full wb");
        let isolated = enq_time + self.costs[l].drain_access as u64;
        let streamed = self.wb_last[l] + self.costs[l].drain_stream as u64;
        let completes = isolated.max(streamed) + extra as u64;
        let depth = self.wb_depth[l];
        let mut slot = self.wb_head[l] + self.wb_len[l];
        if slot >= depth {
            slot -= depth;
        }
        let at = l * self.wb_stride + slot;
        self.wb_addr[at] = addr.word();
        self.wb_done[at] = completes;
        self.wb_len[l] += 1;
        self.wb_last[l] = completes;
        completes
    }

    /// Completion time of the youngest live entry whose address falls in
    /// the L1-D line at `line_base` — the §9 associative-bypass probe.
    fn wb_match_line(&mut self, l: usize, now: u64, line_base: PhysAddr) -> Option<u64> {
        self.wb_advance(l, now);
        let base = l * self.wb_stride;
        let depth = self.wb_depth[l];
        let head = self.wb_head[l];
        let len = self.wb_len[l];
        if depth <= 64 {
            let mask = line_member_mask(
                &self.wb_addr[base..base + depth],
                line_base.word(),
                self.d_line_mask,
            );
            for j in (0..len).rev() {
                let mut slot = head + j;
                if slot >= depth {
                    slot -= depth;
                }
                if mask >> slot & 1 == 1 {
                    return Some(self.wb_done[base + slot]);
                }
            }
        } else {
            // Degenerate deep buffers overflow the 64-bit probe mask;
            // fall back to scalar compares, youngest first.
            let keep = !self.d_line_mask;
            let want = line_base.word();
            for j in (0..len).rev() {
                let mut slot = head + j;
                if slot >= depth {
                    slot -= depth;
                }
                if self.wb_addr[base + slot] & keep == want {
                    return Some(self.wb_done[base + slot]);
                }
            }
        }
        None
    }

    // -- per-lane replay arithmetic (the `Core` step rules, outcomes given) --

    fn proc_entry(&mut self, l: usize) -> &mut ProcCounters {
        let idx = self.cur_pid;
        let pp = &mut self.per_proc[l];
        if pp.len() <= idx {
            pp.resize(idx + 1, ProcCounters::default());
        }
        &mut pp[idx]
    }

    #[inline]
    fn charge_tlb_miss(&mut self, l: usize, instruction_side: bool, cycles: &mut u64) {
        if instruction_side {
            self.counters[l].itlb_misses += 1;
        } else {
            self.counters[l].dtlb_misses += 1;
        }
        let p = self.tlb_penalty[l];
        self.counters[l].tlb_miss_cycles += p;
        *cycles += p;
    }

    fn apply_ifetch(&mut self, l: usize, stall: u64, itlb: bool, outcome: u8) {
        let mut cycles = 1 + stall;
        self.counters[l].instructions += 1;
        self.counters[l].cpu_stall_cycles += stall;
        if itlb {
            self.charge_tlb_miss(l, true, &mut cycles);
        }
        let missed = outcome != 0;
        if missed {
            self.counters[l].l1i_misses += 1;
            let mut t = self.now[l] + cycles;
            if !self.concurrent_i_refill[l] {
                let empty = self.wb_empty_at(l, t);
                let wait = empty - t;
                self.counters[l].wb_wait_cycles += wait;
                cycles += wait;
                t = empty;
            }
            cycles += self.service_i(l, t, outcome);
        }
        self.now[l] += cycles;
        let l2_missed = outcome >= 2;
        let p = self.proc_entry(l);
        p.instructions += 1;
        p.cycles += cycles;
        if missed {
            p.l1i_misses += 1;
        }
        if l2_missed {
            p.l2_misses += 1;
        }
    }

    fn service_i(&mut self, l: usize, start: u64, outcome: u8) -> u64 {
        self.counters[l].l2i_accesses += 1;
        let hit_cost = self.costs[l].i_hit;
        if outcome == 1 {
            self.counters[l].l1i_miss_cycles += hit_cost;
            return hit_cost;
        }
        self.counters[l].l2i_misses += 1;
        let svc = if self.split_l2[l] {
            self.mem_i[l].service_miss(start, outcome == 3)
        } else {
            self.mem_d[l].service_miss(start, outcome == 3)
        };
        self.counters[l].charge_l2_miss_refill(true, svc, hit_cost);
        svc.stall_cycles
    }

    fn service_d(&mut self, l: usize, start: u64, outcome: u8) -> u64 {
        self.counters[l].l2d_accesses += 1;
        let hit_cost = self.costs[l].d_hit;
        if outcome == 1 {
            self.counters[l].l1d_miss_cycles += hit_cost;
            return hit_cost;
        }
        self.counters[l].l2d_misses += 1;
        let svc = self.mem_d[l].service_miss(start, outcome == 3);
        self.counters[l].charge_l2_miss_refill(false, svc, hit_cost);
        svc.stall_cycles
    }

    fn wb_wait_for_d_miss(
        &mut self,
        l: usize,
        start: u64,
        line_base: PhysAddr,
        replaced: bool,
    ) -> u64 {
        let until = match self.bypass[l] {
            WbBypass::Wait => self.wb_empty_at(l, start),
            WbBypass::DirtyBit => {
                if replaced {
                    self.wb_empty_at(l, start)
                } else {
                    start
                }
            }
            WbBypass::Associative => self
                .wb_match_line(l, start, line_base)
                .map_or(start, |t| t.max(start)),
        };
        let wait = until - start;
        self.counters[l].wb_wait_cycles += wait;
        wait
    }

    fn apply_enqueue(&mut self, l: usize, start: u64, addr: PhysAddr, code: u8) -> u64 {
        let free_at = self.wb_slot_free_at(l, start);
        let stall = free_at - start;
        self.counters[l].wb_wait_cycles += stall;
        self.counters[l].l2_drain_writes += 1;
        let extra = if code == 0 {
            0
        } else {
            self.counters[l].l2_drain_misses += 1;
            self.mem_d[l].service_miss_raw(code == 2).stall_cycles as u32
        };
        let busy_from = free_at.max(self.wb_last[l]);
        let completes = self.wb_enqueue(l, free_at, addr, extra);
        self.counters[l].l2_drain_busy_cycles += completes - busy_from;
        stall
    }

    fn apply_load(
        &mut self,
        l: usize,
        dtlb: bool,
        outcome: u8,
        replaced: bool,
        line_base: PhysAddr,
        victim: Option<(PhysAddr, u8)>,
    ) {
        let mut cycles = 0u64;
        self.counters[l].loads += 1;
        if dtlb {
            self.charge_tlb_miss(l, false, &mut cycles);
        }
        if outcome != 0 {
            self.counters[l].l1d_read_misses += 1;
            let mut t = self.now[l] + cycles;
            let wait = self.wb_wait_for_d_miss(l, t, line_base, replaced);
            cycles += wait;
            t += wait;
            if let Some((addr, code)) = victim {
                let stall = self.apply_enqueue(l, t, addr, code);
                cycles += stall;
                t += stall;
            }
            cycles += self.service_d(l, t, outcome);
        }
        self.now[l] += cycles;
        let l2_missed = outcome >= 2;
        let p = self.proc_entry(l);
        p.loads += 1;
        p.cycles += cycles;
        if outcome != 0 {
            p.l1d_misses += 1;
        }
        if l2_missed {
            p.l2_misses += 1;
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn apply_store(
        &mut self,
        l: usize,
        sb: u8,
        outcome: u8,
        replaced: bool,
        wb_word: Option<(PhysAddr, u8)>,
        line_base: PhysAddr,
        victim: Option<(PhysAddr, u8)>,
    ) {
        let mut cycles = 0u64;
        self.counters[l].stores += 1;
        if sb & STORE_DTLB != 0 {
            self.charge_tlb_miss(l, false, &mut cycles);
        }
        let hit = sb & STORE_HIT != 0;
        if !hit {
            self.counters[l].l1d_write_misses += 1;
        }
        if sb & STORE_EXTRA != 0 {
            self.counters[l].l1_write_cycles += 1;
            cycles += 1;
        }
        let mut t = self.now[l] + cycles;
        if let Some((addr, code)) = wb_word {
            let stall = self.apply_enqueue(l, t, addr, code);
            cycles += stall;
            t += stall;
        }
        if sb & STORE_FETCH != 0 {
            let wait = self.wb_wait_for_d_miss(l, t, line_base, replaced);
            cycles += wait;
            t += wait;
            if let Some((addr, code)) = victim {
                let stall = self.apply_enqueue(l, t, addr, code);
                cycles += stall;
                t += stall;
            }
            cycles += self.service_d(l, t, outcome);
        } else if let Some((addr, code)) = victim {
            cycles += self.apply_enqueue(l, t, addr, code);
        }
        self.now[l] += cycles;
        let l2_missed = outcome >= 2;
        let p = self.proc_entry(l);
        p.stores += 1;
        p.cycles += cycles;
        if !hit {
            p.l1d_misses += 1;
        }
        if l2_missed {
            p.l2_misses += 1;
        }
    }

    fn into_results(
        mut self,
        cfgs: &[SimConfig],
        profile: &FunctionalProfile,
        warm: bool,
    ) -> Vec<SimResult> {
        let mut out = Vec::with_capacity(self.n);
        for (l, cfg) in cfgs.iter().enumerate() {
            debug_assert_eq!(
                self.now[l],
                self.counters[l].total_cycles(),
                "cycle accounting must balance (lane {l})"
            );
            self.counters[l].syscall_switches = profile.syscall_switches;
            self.counters[l].slice_switches = profile.slice_switches;
            let counters = if warm {
                self.counters[l].since(&self.warm_snapshot[l])
            } else {
                self.counters[l]
            };
            let per_process = self.per_proc[l]
                .iter()
                .enumerate()
                .filter(|(_, pc)| pc.instructions > 0 || pc.loads > 0 || pc.stores > 0)
                .map(|(i, pc)| (Pid::new(i as u8), *pc))
                .collect();
            out.push(SimResult {
                config: cfg.clone(),
                counters,
                completed: profile.completed.clone(),
                per_process,
                termination: if profile.budget_exhausted {
                    Termination::BudgetExhausted
                } else {
                    Termination::Completed
                },
                checkpoints: Vec::new(),
            });
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{DiffCheckConfig, FaultConfig};
    use crate::sim::Simulator;
    use crate::workload;
    use gaas_cache::fault::FaultRates;

    const SCALE: f64 = 3e-4;
    const WARMUP: u64 = 1_500;

    fn profile_for(cfg: &SimConfig) -> (SimResult, FunctionalProfile) {
        Simulator::new(cfg.clone())
            .expect("valid config")
            .run_profiled(workload::subset(4, SCALE), WARMUP)
            .expect("profiled run")
    }

    fn direct(cfg: &SimConfig) -> SimResult {
        Simulator::new(cfg.clone())
            .expect("valid config")
            .run_warmed(workload::subset(4, SCALE), WARMUP)
            .expect("direct run")
    }

    /// Byte-identical comparison of everything a cell result reports.
    fn assert_identical(priced: &SimResult, full: &SimResult, what: &str) {
        assert_eq!(priced.counters, full.counters, "{what}: counters");
        assert_eq!(priced.per_process, full.per_process, "{what}: per-proc");
        assert_eq!(priced.completed, full.completed, "{what}: completion");
        assert_eq!(priced.termination, full.termination, "{what}: termination");
        assert_eq!(priced.config, full.config, "{what}: config");
        assert!(priced.checkpoints.is_empty());
    }

    #[test]
    fn fingerprint_ignores_timing_fields() {
        let base = SimConfig::baseline();
        let fp = functional_fingerprint(&base).expect("memoizable");

        let mut b = base.to_builder();
        b.l2_access(9)
            .tlb_miss_penalty(20)
            .memory(MainMemory {
                clean_miss_cycles: 100,
                dirty_miss_cycles: 180,
            })
            .l2_drain_access(4)
            .write_buffer(WriteBufferConfig {
                depth: 2,
                width_words: 4,
            });
        let timing_variant = b.build().expect("valid");
        assert_eq!(functional_fingerprint(&timing_variant), Some(fp));
    }

    #[test]
    fn fingerprint_separates_geometries() {
        let fp = |f: &dyn Fn(&mut crate::config::SimConfigBuilder)| {
            let mut b = SimConfig::builder();
            f(&mut b);
            functional_fingerprint(&b.build().expect("valid")).expect("memoizable")
        };
        let base = fp(&|_| {});
        assert_ne!(
            base,
            fp(&|b| {
                b.l1_line(8);
            })
        );
        assert_ne!(
            base,
            fp(&|b| {
                b.policy(WritePolicy::WriteOnly);
            })
        );
        assert_ne!(
            base,
            fp(&|b| {
                b.l2(L2Config::split_even(262_144, 1, 6));
            })
        );
        assert_ne!(
            base,
            fp(&|b| {
                b.mp_level(4);
            })
        );
        assert_ne!(
            base,
            fp(&|b| {
                b.instruction_budget(1_000_000);
            })
        );
    }

    #[test]
    fn fingerprint_refuses_unmemoizable_configs() {
        let mut faulty = SimConfig::baseline();
        faulty.fault = FaultConfig {
            rates: FaultRates::uniform(1e-5),
            ..FaultConfig::default()
        };
        assert_eq!(functional_fingerprint(&faulty), None);

        let mut diff = SimConfig::baseline();
        diff.diffcheck = DiffCheckConfig::on();
        assert_eq!(functional_fingerprint(&diff), None);

        let mut ckpt = SimConfig::baseline();
        ckpt.checkpoint_interval = 10_000;
        assert_eq!(functional_fingerprint(&ckpt), None);
    }

    #[test]
    fn pricing_matches_direct_runs_across_the_baseline_timing_axis() {
        let base = SimConfig::baseline();
        let (rep, profile) = profile_for(&base);
        assert_identical(&rep, &direct(&base), "recording run itself");
        for access in [1, 4, 9] {
            let mut b = base.to_builder();
            b.l2_access(access);
            let cfg = b.build().expect("valid");
            let priced = price_profile(&cfg, &profile).expect("priced");
            assert_identical(&priced, &direct(&cfg), &format!("access={access}"));
        }
        let mut b = base.to_builder();
        b.memory(MainMemory {
            clean_miss_cycles: 80,
            dirty_miss_cycles: 200,
        })
        .tlb_miss_penalty(30);
        let cfg = b.build().expect("valid");
        assert_identical(
            &price_profile(&cfg, &profile).expect("priced"),
            &direct(&cfg),
            "memory+tlb variant",
        );
    }

    #[test]
    fn pricing_matches_direct_runs_for_the_optimized_geometry() {
        let opt = SimConfig::optimized();
        let (_, profile) = profile_for(&opt);
        // Walk the §9 concurrency switches (all timing-side) and the split
        // access times.
        let mut variants = Vec::new();
        let mut b = opt.to_builder();
        b.l2_access(4);
        variants.push(b.build().expect("valid"));
        let mut b = opt.to_builder();
        b.concurrency(ConcurrencyConfig {
            concurrent_i_refill: false,
            d_read_bypass: WbBypass::Wait,
            l2d_dirty_buffer: false,
        });
        variants.push(b.build().expect("valid"));
        let mut b = opt.to_builder();
        b.concurrency(ConcurrencyConfig {
            concurrent_i_refill: true,
            d_read_bypass: WbBypass::Associative,
            l2d_dirty_buffer: true,
        });
        variants.push(b.build().expect("valid"));
        for (k, cfg) in variants.iter().enumerate() {
            assert_identical(
                &price_profile(cfg, &profile).expect("priced"),
                &direct(cfg),
                &format!("optimized variant {k}"),
            );
        }
    }

    #[test]
    fn pricing_matches_direct_runs_for_the_drain_override_sweep() {
        let mut b = SimConfig::builder();
        b.policy(WritePolicy::Subblock);
        let geom = b.build().expect("valid");
        let (_, profile) = profile_for(&geom);
        for drain in [2, 6, 10] {
            let mut b = geom.to_builder();
            b.l2_drain_access(drain);
            let cfg = b.build().expect("valid");
            assert_identical(
                &price_profile(&cfg, &profile).expect("priced"),
                &direct(&cfg),
                &format!("drain={drain}"),
            );
        }
    }

    #[test]
    fn budget_exhausted_runs_price_identically() {
        let mut b = SimConfig::builder();
        b.instruction_budget(20_000);
        let geom = b.build().expect("valid");
        let (rep, profile) = profile_for(&geom);
        assert_eq!(rep.termination, Termination::BudgetExhausted);
        let mut b = geom.to_builder();
        b.l2_access(8);
        let cfg = b.build().expect("valid");
        let priced = price_profile(&cfg, &profile).expect("priced");
        assert_eq!(priced.termination, Termination::BudgetExhausted);
        assert_identical(&priced, &direct(&cfg), "budget variant");
    }

    #[test]
    #[should_panic(expected = "memoizable")]
    fn run_profiled_rejects_unmemoizable_configs() {
        let mut cfg = SimConfig::baseline();
        cfg.checkpoint_interval = 5_000;
        let _ = Simulator::new(cfg)
            .expect("valid config")
            .run_profiled(workload::subset(1, 1e-4), 0);
    }

    #[test]
    #[should_panic(expected = "timing variants")]
    fn pricing_rejects_a_different_geometry() {
        let (_, profile) = profile_for(&SimConfig::baseline());
        let mut b = SimConfig::builder();
        b.l1_line(8);
        let other = b.build().expect("valid");
        let _ = price_profile(&other, &profile);
    }

    #[test]
    #[should_panic(expected = "timing variants")]
    fn co_pricing_rejects_a_different_geometry() {
        // A foreign geometry in a later lane of a group: every lane is checked.
        let (_, profile) = profile_for(&SimConfig::baseline());
        let mut b = SimConfig::builder();
        b.l1_line(8);
        let other = b.build().expect("valid");
        let _ = price_profiles(&[SimConfig::baseline(), other], &profile);
    }

    #[test]
    fn co_pricing_matches_single_pricing_lane_for_lane() {
        // A 4-variant baseline group mixing every timing axis: access
        // time, memory penalties, TLB cost, buffer depth, drain override.
        let base = SimConfig::baseline();
        let (_, profile) = profile_for(&base);
        let mut variants = vec![base.clone()];
        let mut b = base.to_builder();
        b.l2_access(9).tlb_miss_penalty(20);
        variants.push(b.build().expect("valid"));
        let mut b = base.to_builder();
        b.memory(MainMemory {
            clean_miss_cycles: 100,
            dirty_miss_cycles: 180,
        })
        .write_buffer(WriteBufferConfig {
            depth: 2,
            width_words: 4,
        });
        variants.push(b.build().expect("valid"));
        let mut b = base.to_builder();
        b.l2_drain_access(4).l2_access(1);
        variants.push(b.build().expect("valid"));

        let co = price_profiles(&variants, &profile).expect("co-priced");
        assert_eq!(co.len(), variants.len());
        for (k, (cfg, co_res)) in variants.iter().zip(&co).enumerate() {
            let single = price_profile(cfg, &profile).expect("priced");
            assert_identical(co_res, &single, &format!("lane {k} vs single pricer"));
            assert_identical(co_res, &direct(cfg), &format!("lane {k} vs direct"));
        }
    }

    #[test]
    fn co_pricing_matches_across_concurrency_modes() {
        // The §9 switches change which write-buffer probe each lane runs
        // (wait / dirty-bit / associative SWAR probe) — all three in one
        // lockstep group, against the optimized split-L2 geometry.
        let opt = SimConfig::optimized();
        let (_, profile) = profile_for(&opt);
        let mut variants = vec![opt.clone()];
        let mut b = opt.to_builder();
        b.concurrency(ConcurrencyConfig {
            concurrent_i_refill: false,
            d_read_bypass: WbBypass::Wait,
            l2d_dirty_buffer: false,
        });
        variants.push(b.build().expect("valid"));
        let mut b = opt.to_builder();
        b.concurrency(ConcurrencyConfig {
            concurrent_i_refill: true,
            d_read_bypass: WbBypass::Associative,
            l2d_dirty_buffer: true,
        })
        .l2_access(4);
        variants.push(b.build().expect("valid"));
        let co = price_profiles(&variants, &profile).expect("co-priced");
        for (k, (cfg, co_res)) in variants.iter().zip(&co).enumerate() {
            assert_identical(
                co_res,
                &price_profile(cfg, &profile).expect("priced"),
                &format!("concurrency lane {k}"),
            );
        }
    }

    #[test]
    fn co_pricing_single_lane_and_empty_group() {
        let base = SimConfig::baseline();
        let (_, profile) = profile_for(&base);
        let one = price_profiles(std::slice::from_ref(&base), &profile).expect("one lane");
        assert_eq!(one.len(), 1);
        assert_identical(&one[0], &direct(&base), "single lane");
        assert!(price_profiles(&[], &profile)
            .expect("empty group")
            .is_empty());
    }

    #[test]
    fn co_pricing_reports_invalid_lane_configs() {
        let base = SimConfig::baseline();
        let (_, profile) = profile_for(&base);
        let mut bad = base.clone();
        bad.write_buffer.depth = 0;
        let err = price_profiles(&[base, bad], &profile);
        assert!(matches!(err, Err(SimError::Config(_))), "got {err:?}");
    }

    #[test]
    fn profile_reports_size_and_instructions() {
        let (rep, profile) = profile_for(&SimConfig::baseline());
        assert!(profile.size_bytes() > 0);
        assert!(profile.addr_count() > 0);
        // `instructions()` counts the full run including warm-up; the
        // result counters exclude it.
        assert_eq!(
            profile.instructions(),
            rep.counters.instructions + WARMUP,
            "token walk must agree with the run's instruction count"
        );
    }
}
