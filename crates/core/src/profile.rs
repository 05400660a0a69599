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
//!    compact byte-token stream: TLB hit/miss, L1/L2 hit/miss with
//!    victim dirtiness, write-policy outcomes, and the physical addresses
//!    the write buffer needs. A stretch of all-hit instructions is one
//!    run token, so the stream takes about 0.3 bytes per event (0.298 at
//!    probe scale 0.002, where one record per instruction took 1.136).
//!    The pass steps the bare kernel, memos and span drain included, and
//!    each run token is the core's own all-hit run (see `pipeline`),
//!    written where the kernel flushes it.
//! 2. **Timing pass** — [`price_profiles`] replays the token stream under
//!    any timing points of the same geometry. Each timing point is a
//!    *lane*: the timing half of a simulator core (clock, counters,
//!    per-process rows, write buffer) with its configuration's timing
//!    rules. A lane steps each record through the core's own step rules
//!    (see `pipeline`), so its result is byte-identical to a full
//!    simulation of that configuration by construction; [`price_profile`]
//!    is the one-variant call.
//!
//! The split is sound because the simulator's scheduler runs on a
//! *functional clock* (see `Core::fnow`) that advances only on
//! functional outcomes: every timing variant of one geometry executes the
//! identical instruction interleaving.
//!
//! # Multi-variant co-pricing
//!
//! A geometry group usually carries several timing variants. Rather than
//! decode the same ~5.5 M-event stream once per variant, [`price_profiles`]
//! decodes each record and run token once and applies it to N lanes in
//! lockstep. A lane's result does not depend on the other lanes. Each
//! lane pays a run token once, through the kernel's own closed form
//! (`Lane::flush`), rather than once per instruction.
//!
//! The address side channel is stored as codec-v3 blocks
//! ([`gaas_trace::codec::encode_u64_stream`]) and streamed through a
//! block-at-a-time cursor during replay — at most one ≤4096-entry batch
//! buffer is decoded at any moment, consumed by all lanes before the next
//! block is touched, instead of materializing the whole packed stream per
//! replay. Entering a block, the cursor verifies its CRC32 (slicing-by-8,
//! eight bytes per step) and then decodes the values through the codec's
//! one branch-free bulk loop, the loop the arena's replay uses; the
//! block's meta words (all 0) are dropped as they decode. A corrupt block
//! panics, and the campaign's group worker falls back to full simulation.
//!
//! [`functional_fingerprint`] defines the grouping key. It destructures
//! [`SimConfig`] *exhaustively* — adding a config field without
//! classifying it as functional, timing, or disqualifying breaks the
//! build, so the memoizer can never silently group configurations that
//! differ functionally.

use gaas_cache::{LoadOutcome, MainMemory, StoreOutcome, WritePolicy};
use gaas_trace::codec::{encode_u64_stream, U64StreamCursor};
use gaas_trace::PhysAddr;

use crate::config::{
    ConcurrencyConfig, L1Config, L2Config, L2Side, MpConfig, SimConfig, WriteBufferConfig,
};
use crate::cpi::{ran_rows, Counters};
use crate::pipeline::{Codes, Lane, PendingRun, Timing};
use crate::sim::{SimError, SimResult, Termination};

// ---- token encoding ----
//
// The ops stream is a sequence of run tokens and instruction records,
// with a control token wherever the issuing PID changes:
//
//   control token:  0b11000000 followed by one raw PID byte
//   run token:      0b11000001, a presence mask byte, then LEB128 counts:
//                   the run's instructions, then each count whose mask
//                   bit is set (bit k for the k-th of `run_counts`:
//                   stall cycles, loads, stores, ITLB misses, DTLB misses,
//                   extra write cycles, write-around misses)
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
// An instruction whose fetch and data access both hit every level and
// enqueue nothing is *all-hit*: the bare kernel folds it into the core's
// run, which the recorder writes as one run token wherever the kernel
// flushes it (before the next record, at a PID change, at the warm-up
// boundary, at the end of the stream). Every other instruction is one
// record. A run on the hooked path, which does not fold, writes a record
// per instruction.
//
// The addrs side channel carries only the physical addresses the timing
// replay needs (write-buffer entries and fetched line bases), in
// consumption order: per load miss `[line_base][victim?]`, per store
// `[wb_word?][line_base?][victim?]`.

const KIND_LOAD: u8 = 1 << 6;
const KIND_STORE: u8 = 2 << 6;
const CONTROL: u8 = 3 << 6;
const RUN: u8 = CONTROL | 1;
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

/// `flag` when `on`, else no bits.
fn bit(on: bool, flag: u8) -> u8 {
    u8::from(on) * flag
}

/// Appends `v` as an unsigned LEB128 varint.
fn put_leb(out: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        out.push(v as u8 | 0x80);
        v >>= 7;
    }
    out.push(v as u8);
}

/// Reads the unsigned LEB128 varint at `ops[*i..]`, advancing `i`.
fn get_leb(ops: &[u8], i: &mut usize) -> u64 {
    let (mut v, mut shift) = (0u64, 0);
    loop {
        let b = ops[*i];
        *i += 1;
        v |= u64::from(b & 0x7f) << shift;
        if b < 0x80 {
            return v;
        }
        shift += 7;
    }
}

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
    /// Packed outcome tokens: one run token per stretch of all-hit
    /// instructions and one record per other instruction (see the token
    /// table above).
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
}

/// Captures functional outcomes during a recording run (installed by
/// [`Simulator::run_profiled`]; see the module docs for the encoding):
/// one record per instruction that is not all-hit, and the core's all-hit
/// runs as it flushes them.
///
/// [`Simulator::run_profiled`]: crate::sim::Simulator::run_profiled
#[derive(Debug, Default)]
pub struct ProfileRecorder {
    ops: Vec<u8>,
    addrs: Vec<u64>,
    last_pid: Option<u8>,
    /// The warm-up instruction count, where pricing snapshots.
    warmup: u64,
    /// Index of the current instruction's ifetch byte (outcome patched by
    /// the L2 service path, data kind patched by the data step).
    i_slot: usize,
    /// Index of the current data byte awaiting its outcome patch (the
    /// load byte, or a store's ext byte).
    d_slot: usize,
}

impl ProfileRecorder {
    pub(crate) fn new(warmup: u64) -> Self {
        Self {
            warmup,
            ..Self::default()
        }
    }

    /// Writes a control token when `pid` differs from the previous
    /// record's or run's.
    fn set_pid(&mut self, pid: u8) {
        if self.last_pid != Some(pid) {
            self.ops.extend([CONTROL, pid]);
            self.last_pid = Some(pid);
        }
    }

    /// Writes the run token of `pid`'s all-hit `run`, flushed by the core.
    pub(crate) fn write_run(&mut self, pid: u8, run: &PendingRun) {
        self.set_pid(pid);
        let mut run = *run;
        self.ops.extend([RUN, 0]);
        let mask = self.ops.len() - 1;
        put_leb(&mut self.ops, run.instructions);
        for (k, v) in run_counts(&mut run).into_iter().enumerate() {
            if *v != 0 {
                self.ops[mask] |= 1 << k;
                put_leb(&mut self.ops, *v);
            }
        }
    }

    /// Starts the record of an instruction of `pid` whose fetch had
    /// `stall` CPU stall cycles and `itlb_miss` as its ITLB outcome.
    pub(crate) fn begin_instr(&mut self, pid: u8, stall: u8, itlb_miss: bool) {
        self.set_pid(pid);
        let s = stall.min(STALL_ESCAPE);
        self.i_slot = self.ops.len();
        self.ops.push(bit(itlb_miss, I_TLB_MISS) | s << 2);
        if s == STALL_ESCAPE {
            self.ops.push(stall);
        }
    }

    /// Notes the current instruction's load (`dtlb_miss` and its L1-D
    /// outcome `o`) and the addresses the replay of a miss consumes.
    pub(crate) fn begin_load(&mut self, dtlb_miss: bool, o: &LoadOutcome) {
        self.ops[self.i_slot] |= KIND_LOAD;
        self.d_slot = self.ops.len();
        self.ops.push(
            bit(dtlb_miss, LOAD_DTLB)
                | bit(o.replaced_written_line, LOAD_REPLACED)
                | bit(o.writeback_victim.is_some(), LOAD_VICTIM),
        );
        self.push_addrs(&[o.fetch, o.writeback_victim]);
    }

    /// Notes the current instruction's store (`dtlb_miss` and its L1-D
    /// outcome `o`) and the addresses its replay consumes.
    pub(crate) fn begin_store(&mut self, dtlb_miss: bool, o: &StoreOutcome) {
        self.ops[self.i_slot] |= KIND_STORE;
        self.ops.push(
            bit(dtlb_miss, STORE_DTLB)
                | bit(o.hit, STORE_HIT)
                | bit(o.extra_cycle, STORE_EXTRA)
                | bit(o.wb_word.is_some(), STORE_WB_WORD)
                | bit(o.fetch.is_some(), STORE_FETCH)
                | bit(o.writeback_victim.is_some(), STORE_VICTIM),
        );
        if o.fetch.is_some() {
            self.d_slot = self.ops.len();
            self.ops.push(bit(o.replaced_written_line, EXT_REPLACED));
        }
        self.push_addrs(&[o.wb_word, o.fetch, o.writeback_victim]);
    }

    /// Records the physical addresses of one data access in the replay's
    /// consumption order.
    fn push_addrs(&mut self, addrs: &[Option<PhysAddr>]) {
        self.addrs.extend(addrs.iter().flatten().map(|a| a.word()));
    }

    /// Patches the current instruction's fetch outcome (`i_side`) or its
    /// data access's (the load byte or a store's ext byte): 1 = L2 hit,
    /// 2/3 = L2 miss with a clean/dirty victim.
    pub(crate) fn set_outcome(&mut self, i_side: bool, code: u8) {
        let slot = if i_side { self.i_slot } else { self.d_slot };
        self.ops[slot] |= code;
    }

    /// Records one write-buffer drain's L2-D outcome, in enqueue order.
    pub(crate) fn push_drain(&mut self, code: u8) {
        self.ops.push(code);
    }

    pub(crate) fn finish(mut self, fkey: u64, result: &SimResult) -> FunctionalProfile {
        // A profile may live on in the cross-request cache, whose budget
        // counts lengths: keep no spare capacity from the growth.
        self.ops.shrink_to_fit();
        let mut addr_blocks = encode_u64_stream(&self.addrs);
        addr_blocks.shrink_to_fit();
        FunctionalProfile {
            fkey,
            warmup: self.warmup,
            ops: self.ops,
            addr_blocks,
            addr_count: self.addrs.len() as u64,
            completed: result.completed.clone(),
            syscall_switches: result.counters.syscall_switches,
            slice_switches: result.counters.slice_switches,
            budget_exhausted: result.termination == Termination::BudgetExhausted,
        }
    }
}

/// The counts a run token carries after its instruction count, in token
/// order (bit k of the presence mask is the k-th).
fn run_counts(run: &mut PendingRun) -> [&mut u64; 7] {
    [
        &mut run.cpu_stall,
        &mut run.loads,
        &mut run.stores,
        &mut run.itlb,
        &mut run.dtlb,
        &mut run.extra_writes,
        &mut run.store_misses,
    ]
}

/// Reads the run token whose tag precedes `ops[*i]`, advancing `i`.
fn read_run(ops: &[u8], i: &mut usize) -> PendingRun {
    let mask = ops[*i];
    *i += 1;
    let mut run = PendingRun {
        instructions: get_leb(ops, i),
        ..PendingRun::default()
    };
    for (k, v) in run_counts(&mut run).into_iter().enumerate() {
        if mask >> k & 1 != 0 {
            *v = get_leb(ops, i);
        }
    }
    run
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
/// | disqualifying | `fault` (when enabled), `diffcheck` (when enabled), `checkpoint_interval` (when nonzero), `telemetry` (when enabled), `cmp` (when enabled: cores interleave by functional clock over a shared L2, so each core's outcomes depend on the other cores' accesses) |
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
/// this engine decodes each record and run token once and applies it to N
/// variant *lanes* advanced in lockstep; see the module docs for what a
/// lane holds. The address side channel streams through one shared
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

    let mut lanes: Vec<PricedLane> = cfgs.iter().map(PricedLane::new).collect();
    let mut pid = 0u8;
    let mut addrs = U64StreamCursor::new(&profile.addr_blocks);
    let mut next_addr = || PhysAddr::new(addrs.next_value().expect("addrs underrun"));

    let ops = &profile.ops[..];
    let mut warm = false;
    // Architectural instruction count so far (lane-independent), kept
    // outside the lanes so the warmup boundary check stays scalar.
    let mut instr_total = 0u64;
    let mut i = 0usize;
    while i < ops.len() {
        let b = ops[i];
        i += 1;
        if b == RUN {
            // A run of all-hit instructions: each lane pays it in the
            // kernel's closed form, once per run, not per instruction.
            let run = read_run(ops, &mut i);
            instr_total += run.instructions;
            for l in &mut lanes {
                l.lane.flush(&l.timing, pid, &run);
            }
        } else if b & CONTROL == CONTROL {
            pid = ops[i];
            i += 1;
            continue;
        } else {
            instr_total += 1;
            // Decode the whole instruction record into locals once, then
            // apply it to every lane. The drain codes follow the data
            // byte in enqueue order, the addresses come in the order the
            // recorder noted them.
            let mut stall = ((b >> 2) & 0x07) as u64;
            if stall == STALL_ESCAPE as u64 {
                stall = ops[i] as u64;
                i += 1;
            }
            let itlb = b & I_TLB_MISS != 0;
            let i_outcome = b & OUTCOME_MASK;
            // The next ops byte when `on` (a data byte, ext byte or drain
            // code the record carries), else 0.
            let mut next_op = |on: bool| {
                i += usize::from(on);
                bit(on, ops[i - 1])
            };
            match b & CONTROL {
                KIND_LOAD => {
                    let lb = next_op(true);
                    let refill = lb & OUTCOME_MASK;
                    // Only a miss carries a victim or a replaced line.
                    let o = LoadOutcome {
                        hit: refill == 0,
                        fetch: (refill != 0).then(&mut next_addr),
                        writeback_victim: (lb & LOAD_VICTIM != 0).then(&mut next_addr),
                        replaced_written_line: lb & LOAD_REPLACED != 0,
                    };
                    let codes = Codes {
                        refill,
                        word: 0,
                        victim: next_op(o.writeback_victim.is_some()),
                    };
                    let dtlb = lb & LOAD_DTLB != 0;
                    for l in &mut lanes {
                        l.lane.ifetch(&mut l.timing, pid, stall, itlb, i_outcome);
                        l.lane.load(&mut l.timing, pid, dtlb, &o, codes);
                    }
                }
                KIND_STORE => {
                    let sb = next_op(true);
                    let ext = next_op(sb & STORE_FETCH != 0);
                    let mut o = StoreOutcome {
                        hit: sb & STORE_HIT != 0,
                        extra_cycle: sb & STORE_EXTRA != 0,
                        wb_word: (sb & STORE_WB_WORD != 0).then(&mut next_addr),
                        fetch: None,
                        writeback_victim: None,
                        replaced_written_line: ext & EXT_REPLACED != 0,
                        // Read only by coherence, which no lane calls.
                        hit_written: false,
                    };
                    let word = next_op(o.wb_word.is_some());
                    o.fetch = (sb & STORE_FETCH != 0).then(&mut next_addr);
                    o.writeback_victim = (sb & STORE_VICTIM != 0).then(&mut next_addr);
                    let codes = Codes {
                        refill: ext & OUTCOME_MASK,
                        word,
                        victim: next_op(o.writeback_victim.is_some()),
                    };
                    let dtlb = sb & STORE_DTLB != 0;
                    for l in &mut lanes {
                        l.lane.ifetch(&mut l.timing, pid, stall, itlb, i_outcome);
                        l.lane.store(&mut l.timing, pid, dtlb, &o, codes);
                    }
                }
                _ => {
                    for l in &mut lanes {
                        l.lane.ifetch(&mut l.timing, pid, stall, itlb, i_outcome);
                    }
                }
            }
        }
        if profile.warmup > 0 && !warm && instr_total == profile.warmup {
            warm = true;
            for l in &mut lanes {
                l.warm = l.lane.counters;
            }
        }
    }
    debug_assert_eq!(i, ops.len(), "ops stream fully consumed");
    debug_assert!(addrs.finished(), "addrs stream fully consumed");

    Ok(lanes
        .into_iter()
        .zip(cfgs)
        .map(|(lane, cfg)| lane.into_result(cfg, profile, warm))
        .collect())
}

/// One timing variant's replay state for [`price_profiles`]: the timing
/// half of a [`Core`](crate::Core) and the [`Timing`] its
/// [`Uncore`](crate::Uncore) would hold, which are also its step hooks.
/// Everything the profile already decided (arrays, TLBs, the functional
/// clock) is absent.
struct PricedLane {
    lane: Lane,
    timing: Timing,
    /// The counters at the warm-up boundary.
    warm: Counters,
}

impl PricedLane {
    fn new(cfg: &SimConfig) -> Self {
        PricedLane {
            lane: Lane::new(cfg),
            timing: Timing::new(cfg),
            warm: Counters::new(),
        }
    }

    fn into_result(self, cfg: &SimConfig, profile: &FunctionalProfile, warm: bool) -> SimResult {
        debug_assert_eq!(
            self.lane.now,
            self.lane.counters.total_cycles(),
            "cycle accounting must balance"
        );
        let mut counters = self.lane.counters;
        counters.syscall_switches = profile.syscall_switches;
        counters.slice_switches = profile.slice_switches;
        if warm {
            counters = counters.since(&self.warm);
        }
        SimResult {
            config: cfg.clone(),
            counters,
            completed: profile.completed.clone(),
            per_process: ran_rows(&self.lane.per_proc),
            termination: if profile.budget_exhausted {
                Termination::BudgetExhausted
            } else {
                Termination::Completed
            },
            checkpoints: Vec::new(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{DiffCheckConfig, FaultConfig, WbBypass};
    use crate::sim::Simulator;
    use crate::workload;
    use gaas_cache::fault::FaultRates;
    use gaas_trace::TraceEvent;

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
        // (wait / dirty-bit / associative line probe) — all three in one
        // lockstep group, against the optimized split-L2 geometry, each at
        // two L2 access times.
        let opt = SimConfig::optimized();
        let (_, profile) = profile_for(&opt);
        let mut variants = vec![opt.clone()];
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
        let associative = ConcurrencyConfig {
            concurrent_i_refill: true,
            d_read_bypass: WbBypass::Associative,
            l2d_dirty_buffer: true,
        };
        let mut b = opt.to_builder();
        b.concurrency(associative);
        variants.push(b.build().expect("valid"));
        b.l2_access(4);
        variants.push(b.build().expect("valid"));
        let co = price_profiles(&variants, &profile).expect("co-priced");
        for (k, (cfg, co_res)) in variants.iter().zip(&co).enumerate() {
            assert_identical(
                co_res,
                &price_profile(cfg, &profile).expect("priced"),
                &format!("concurrency lane {k}"),
            );
            assert_identical(
                co_res,
                &direct(cfg),
                &format!("concurrency lane {k} vs direct"),
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
    fn all_hit_runs_fold_at_their_edges() {
        use gaas_trace::{Pid, Trace, VecTrace, VirtAddr};
        let trace =
            |evs: Vec<TraceEvent>| vec![Box::new(VecTrace::new("t", evs)) as Box<dyn Trace>];
        let va = |w: u64| VirtAddr::new(Pid::new(0), w);
        let width = |v: u64| {
            let mut out = Vec::new();
            put_leb(&mut out, v);
            out.len()
        };
        let base = SimConfig::baseline();

        // N same-line fetches of one PID: a control token, the first
        // fetch's miss record, then one run token for the N - 1 hits
        // (no stalls, so only the instruction count follows the mask).
        for n in [1_000u64, 100_000] {
            let evs: Vec<_> = (0..n).map(|k| TraceEvent::ifetch(va(k % 4), 0)).collect();
            let sim = Simulator::new(base.clone()).expect("valid config");
            let (rep, profile) = sim.run_profiled(trace(evs), 0).expect("profiled run");
            assert_eq!(profile.ops.len(), 2 + 1 + 2 + width(n - 1), "n={n}");
            assert_eq!(
                profile.size_bytes(),
                profile.ops.len() + profile.addr_blocks.len()
            );
            assert_identical(
                &price_profile(&base, &profile).expect("priced"),
                &rep,
                "same-line",
            );
        }

        // A long all-hit stretch of fetches, loads and stores with stalls
        // and TLB-free hits; each warm-up splits it, and pricing must
        // still snapshot exactly where the full simulation does.
        let n = 20_000u64;
        let evs: Vec<_> = (0..n)
            .flat_map(|k| {
                let data = match k % 4 {
                    0 => Some(TraceEvent::load(va(4_096 + k % 8))),
                    1 => Some(TraceEvent::store(va(4_096 + k % 8))),
                    _ => None,
                };
                std::iter::once(TraceEvent::ifetch(va(k % 16), (k % 3) as u8)).chain(data)
            })
            .collect();
        for warmup in [1, 2, 777, 10_000, n - 1] {
            let sim = Simulator::new(base.clone()).expect("valid config");
            let (_, profile) = sim
                .run_profiled(trace(evs.clone()), warmup)
                .expect("profiled run");
            assert!(profile.addr_count() > 0, "the first load misses");
            assert!(
                profile.ops.len() < 64,
                "one stretch: {} bytes",
                profile.ops.len()
            );
            let full = Simulator::new(base.clone())
                .expect("valid config")
                .run_warmed(trace(evs.clone()), warmup)
                .expect("direct run");
            let priced = price_profile(&base, &profile).expect("priced");
            assert_identical(&priced, &full, &format!("warmup={warmup}"));
        }
    }
}
