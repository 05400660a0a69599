//! The per-core pipeline: one CPU's private front end stepping against
//! the shared uncore.
//!
//! A [`Core`] holds everything private to one processor — L1-I, L1-D,
//! both TLBs, the software translation cache, the write buffer, the
//! timing and functional clocks, the counters, the per-PID rows and the
//! last-line/last-page memos — and charges cycles for one trace event at
//! a time by the paper's rules (see the `sim` module docs). It steps
//! against an [`Uncore`]: the L2 arrays, the main-memory systems behind
//! them, the page mapper and the cycle costs derived from the
//! configuration.
//!
//! [`Simulator`](crate::Simulator) owns one core and one uncore. The CMP
//! engine (`gaas-coherence`) owns N cores over one uncore and plugs its
//! MESI protocol in through the [`Coherence`] hook trait; the single-CPU
//! instantiation uses [`NoCoherence`], whose empty hooks compile out.
//! Both engines step their cores through one run loop,
//! [`run_cores`](crate::run_cores), which steps a lone core with
//! [`NoCoherence`], so a 1-core CMP run executes exactly the single-CPU
//! code.
//!
//! # The memos
//!
//! The bare-kernel instantiation (`HOOKS = false`) skips work that
//! cannot change any counter or replacement decision: a fetch from the
//! line the previous fetch ended on, a data access to the page of the
//! previous data access, and a load from the line the previous load left
//! loadable. Only the owning core touches its L1s and TLBs, with one
//! exception: a remote store's invalidation, which goes through
//! [`Core::invalidate_d_line`] and clears the load memo. The hooked
//! instantiation (`HOOKS = true`) serves the layers that must see every
//! access — fault injection and the lockstep oracle — and never reads
//! the memos.
//!
//! Telemetry is not one of them. Its notes sit on L1 misses, TLB walks
//! and write-buffer traffic, and what a memo skips is by construction a
//! TLB or L1 hit that touches no buffer, so the skipped work would have
//! noted nothing. The telemetry sites are therefore gated on `telem_on`
//! alone and fire identically in both instantiations.
//!
//! Nor is the profile recorder. It notes every instruction, but a memo
//! skip is an ITLB plus L1-I hit, or a DTLB plus L1-D load hit, whose
//! tokens carry no outcome: the two memo paths emit those hit tokens
//! themselves. The recorder sites are gated on a second const generic,
//! `REC`, which a run sets exactly when a recorder is attached, so a
//! functional pass steps the bare kernel and a run without a recorder
//! carries none of its branches.

use gaas_cache::fault::{resolve, FaultEffect, FaultEvent, Structure};
use gaas_cache::{
    CacheArray, L1DataCache, Line, MemorySystem, PageMapper, Tlb, WriteBuffer, WritePolicy,
};
use gaas_trace::{AccessKind, PhysAddr, Pid, TraceEvent, VirtAddr, PAGE_SHIFT};

use crate::config::{ConfigError, L2Config, SeededBug, SimConfig, WbBypass};
use crate::cpi::{proc_row, Counters, ProcCounters};
use crate::oracle::{Deltas, SimStructures};
use crate::sched::Instruction;
use crate::sim::{Instruments, REF_L2_ACCESS, REF_MEM_CLEAN, REF_MEM_DIRTY};

/// Size of the core's internal translation-lookup cache (a software
/// accelerator, not an architectural structure).
const TCACHE_WAYS: usize = 256;

/// Coherence hook points of the data side, called by the stepping core.
///
/// The CMP engine implements this with its MESI directory; the
/// single-CPU simulator uses [`NoCoherence`]. The step functions are
/// generic over the implementation, so the no-op hooks inline to nothing.
pub trait Coherence {
    /// What [`Coherence::before_store`] hands to [`Coherence::store`].
    type Prior: Copy;

    /// Reads the stepping core's state for the L1-D line `line` of a
    /// page of `pid` before a store changes the array (a write-allocate
    /// fill would otherwise make a stale record look freshly resident).
    fn before_store(&mut self, core: &Core, line: PhysAddr, pid: Pid) -> Self::Prior;

    /// Protocol action for a store to `line` (a page of `pid`) at time
    /// `t0`, after the L1-D array took it and before any write-buffer
    /// traffic; returns the stall charged to the core.
    fn store(
        &mut self,
        core: &mut Core,
        ux: &mut Uncore,
        t0: u64,
        line: PhysAddr,
        pid: Pid,
        prior: Self::Prior,
    ) -> u64;

    /// Protocol action for a load miss that just filled `line` (a page
    /// of `pid`) at time `t0`, before the write-buffer wait; returns the
    /// stall charged to the core.
    fn load_fill(
        &mut self,
        core: &mut Core,
        ux: &mut Uncore,
        t0: u64,
        line: PhysAddr,
        pid: Pid,
    ) -> u64;

    /// Observes a load hit on `line` (no cycles).
    fn load_hit(&mut self, core: &Core, line: PhysAddr);
}

/// The single-CPU [`Coherence`]: every hook is empty.
#[derive(Debug, Clone, Copy)]
pub struct NoCoherence;

impl Coherence for NoCoherence {
    type Prior = ();

    #[inline(always)]
    fn before_store(&mut self, _: &Core, _: PhysAddr, _: Pid) {}

    #[inline(always)]
    fn store(&mut self, _: &mut Core, _: &mut Uncore, _: u64, _: PhysAddr, _: Pid, _: ()) -> u64 {
        0
    }

    #[inline(always)]
    fn load_fill(&mut self, _: &mut Core, _: &mut Uncore, _: u64, _: PhysAddr, _: Pid) -> u64 {
        0
    }

    #[inline(always)]
    fn load_hit(&mut self, _: &Core, _: PhysAddr) {}
}

/// Cycles an L1 refill of `line_words` takes from an L2 hit: the access
/// time covers the first 4W beat; each further 4W beat adds a cycle.
fn l2_hit_cost(access_cycles: u32, line_words: u32) -> u64 {
    u64::from(access_cycles + line_words.div_ceil(4) - 1)
}

/// Functional-clock cost of an L1 refill whose L2 lookup had `outcome`
/// (see [`Core`]'s `fnow`): the reference L2 hit cost `ref_hit`, or a
/// memory miss at the reference penalties.
fn ref_refill_cost(ref_hit: u64, outcome: u8) -> u64 {
    match outcome {
        1 => ref_hit,
        2 => REF_MEM_CLEAN,
        _ => REF_MEM_DIRTY,
    }
}

/// What each outcome costs under one configuration's timing knobs: the
/// TLB walk, the L1 refills from L2 or memory, and the write-buffer rules.
/// Its methods are the only code that prices an outcome. [`Core`] calls
/// them on the outcomes its arrays decide (through the [`Uncore`] that
/// holds the shared memory systems), each profile co-pricer lane on the
/// outcomes a functional pass recorded.
///
/// L2 outcome codes are the profile's: 1 = hit, 2 = miss with a clean
/// victim, 3 = miss with a dirty victim. Drain codes are one less: 0 = L2
/// hit, 1/2 = miss with a clean/dirty victim.
pub(crate) struct Timing {
    /// Memory behind L2-D (or the unified L2); carries the dirty buffer.
    mem_d: MemorySystem,
    /// Memory behind a split L2-I (no dirty buffer).
    mem_i: MemorySystem,
    split_l2: bool,
    tlb_penalty: u64,
    /// L1-I and L1-D refill costs on an L2 hit.
    i_hit: u64,
    d_hit: u64,
    /// L2 write access occupancy of one write-buffer drain, and of a
    /// drain streamed behind the previous one.
    drain_access: u32,
    drain_stream: u32,
    /// The §9 concurrency switches and the L1-D line the associative
    /// bypass probes.
    concurrent_i_refill: bool,
    bypass: WbBypass,
    d_line_words: u32,
}

impl Timing {
    pub(crate) fn new(cfg: &SimConfig) -> Self {
        // Drains write at the data side's access time (or the Fig. 5
        // override); streams overlap the 2-cycle latency.
        let drain_access = cfg
            .l2_drain_access_override
            .unwrap_or(cfg.l2.d_side().access_cycles);
        Timing {
            mem_d: MemorySystem::new(cfg.memory, cfg.concurrency.l2d_dirty_buffer),
            mem_i: MemorySystem::new(cfg.memory, false),
            split_l2: cfg.l2.is_split(),
            tlb_penalty: cfg.tlb_miss_penalty as u64,
            i_hit: l2_hit_cost(cfg.l2.i_side().access_cycles, cfg.l1i.line_words),
            d_hit: l2_hit_cost(cfg.l2.d_side().access_cycles, cfg.l1d.line_words),
            drain_access,
            drain_stream: drain_access.saturating_sub(2).max(1),
            concurrent_i_refill: cfg.concurrency.concurrent_i_refill,
            bypass: cfg.concurrency.d_read_bypass,
            d_line_words: cfg.l1d.line_words,
        }
    }

    /// Cycles one TLB miss walk takes.
    pub(crate) fn tlb_penalty(&self) -> u64 {
        self.tlb_penalty
    }

    /// Demand and drain misses the memory systems have serviced.
    pub(crate) fn memory_misses(&self) -> u64 {
        self.mem_d.total_misses() + self.mem_i.total_misses()
    }

    /// The memory system behind the instruction or data side.
    fn mem(&mut self, i_side: bool) -> &mut MemorySystem {
        if i_side && self.split_l2 {
            &mut self.mem_i
        } else {
            &mut self.mem_d
        }
    }

    /// Charges a TLB miss walk (`i_side` selects the TLB); returns its
    /// cycles, attributed to the TLB component.
    #[inline]
    pub(crate) fn tlb_walk(&self, c: &mut Counters, i_side: bool) -> u64 {
        if i_side {
            c.itlb_misses += 1;
        } else {
            c.dtlb_misses += 1;
        }
        c.tlb_miss_cycles += self.tlb_penalty;
        self.tlb_penalty
    }

    /// Charges an L1-I refill that starts at `start` and finds `outcome`
    /// in L2; returns its stall.
    pub(crate) fn i_refill(&mut self, c: &mut Counters, start: u64, outcome: u8) -> u64 {
        self.refill(c, true, start, outcome)
    }

    /// Charges an L1-D refill (read or write-allocate) that starts at
    /// `start` and finds `outcome` in L2; returns its stall.
    pub(crate) fn d_refill(&mut self, c: &mut Counters, start: u64, outcome: u8) -> u64 {
        self.refill(c, false, start, outcome)
    }

    /// An L2 hit costs the side's hit cost, charged to the L1 miss
    /// component. Of a memory miss's service time, the first hit-cost
    /// cycles go to the L1 miss component, the excess to the L2 miss
    /// component, and the dirty-buffer wait to its own. An exotic
    /// configuration can make the memory penalty smaller than the hit
    /// cost; the clamp keeps the components summing to the charged stall.
    fn refill(&mut self, c: &mut Counters, i_side: bool, start: u64, outcome: u8) -> u64 {
        let (hit_cost, accesses, misses, l1_cycles, l2_cycles) = if i_side {
            (
                self.i_hit,
                &mut c.l2i_accesses,
                &mut c.l2i_misses,
                &mut c.l1i_miss_cycles,
                &mut c.l2i_miss_cycles,
            )
        } else {
            (
                self.d_hit,
                &mut c.l2d_accesses,
                &mut c.l2d_misses,
                &mut c.l1d_miss_cycles,
                &mut c.l2d_miss_cycles,
            )
        };
        *accesses += 1;
        if outcome == 1 {
            *l1_cycles += hit_cost;
            return hit_cost;
        }
        *misses += 1;
        let svc = self.mem(i_side).service_miss(start, outcome == 3);
        let service = svc.stall_cycles - svc.dirty_buffer_wait;
        let l1_share = service.min(hit_cost);
        *l1_cycles += l1_share;
        *l2_cycles += service - l1_share;
        c.dirty_buffer_wait_cycles += svc.dirty_buffer_wait;
        svc.stall_cycles
    }

    /// Cycles a soft-error refetch takes from L2 (`outcome` 1, at the hit
    /// cost) or from memory at the raw penalties, which leave the dirty
    /// buffer to demand misses.
    pub(crate) fn refetch(&mut self, i_side: bool, outcome: u8) -> u64 {
        match (outcome, i_side) {
            (1, true) => self.i_hit,
            (1, false) => self.d_hit,
            _ => self.mem(i_side).service_miss_raw(outcome == 3).stall_cycles,
        }
    }

    /// The base instruction-miss rule: the refill waits for the write
    /// buffer to empty, which keeps the unified L2 consistent. The §9
    /// concurrent refill (split L2 only) drops the wait. Returns the wait,
    /// charged to the write buffer.
    #[inline]
    pub(crate) fn i_miss_wait(&self, wb: &mut WriteBuffer, c: &mut Counters, start: u64) -> u64 {
        if self.concurrent_i_refill {
            return 0;
        }
        let wait = wb.empty_at(start) - start;
        c.wb_wait_cycles += wait;
        wait
    }

    /// The wait an L1-D miss takes for the write buffer before its L2
    /// fetch, per the §9 bypass scheme: drain everything (`Wait`), drain
    /// only when the replaced line was written (`DirtyBit`), or drain up
    /// to the youngest entry in the fetched line (`Associative`). Returns
    /// the wait, charged to the write buffer.
    #[inline]
    pub(crate) fn d_miss_wait(
        &self,
        wb: &mut WriteBuffer,
        c: &mut Counters,
        start: u64,
        line_base: PhysAddr,
        replaced_written: bool,
    ) -> u64 {
        let until = match self.bypass {
            WbBypass::Wait => wb.empty_at(start),
            WbBypass::DirtyBit if replaced_written => wb.empty_at(start),
            WbBypass::DirtyBit => start,
            WbBypass::Associative => wb
                .match_line(start, line_base, self.d_line_words)
                .map_or(start, |t| t.max(start)),
        };
        let wait = until - start;
        c.wb_wait_cycles += wait;
        wait
    }

    /// Enqueues a write of `addr` at `start` whose drain had L2-D outcome
    /// `drain`, stalling for a slot if the buffer is full. A drain miss
    /// stalls the buffer, not the CPU, and does not compete for the dirty
    /// buffer: its raw memory penalty folds into the entry's occupancy.
    /// The stall is charged to the write buffer and the drain's L2
    /// occupancy to `l2_drain_busy_cycles`.
    #[inline]
    pub(crate) fn enqueue(
        &mut self,
        wb: &mut WriteBuffer,
        c: &mut Counters,
        start: u64,
        addr: PhysAddr,
        drain: u8,
    ) -> Enqueued {
        let extra = if drain == 0 {
            0
        } else {
            c.l2_drain_misses += 1;
            self.mem_d.service_miss_raw(drain == 2).stall_cycles as u32
        };
        let enq_time = wb.slot_free_at(start);
        let stall = enq_time - start;
        c.wb_wait_cycles += stall;
        c.l2_drain_writes += 1;
        let busy_from = enq_time.max(wb.last_completion());
        let completes = wb.enqueue(enq_time, addr, self.drain_access, self.drain_stream, extra);
        c.l2_drain_busy_cycles += completes - busy_from;
        Enqueued {
            stall,
            busy_from,
            completes,
        }
    }
}

/// One write entering the write buffer (see [`Timing::enqueue`]): the
/// cycles the writer stalled for a free slot, and the span
/// `busy_from..completes` its drain occupies L2.
pub(crate) struct Enqueued {
    pub(crate) stall: u64,
    pub(crate) busy_from: u64,
    pub(crate) completes: u64,
}

enum L2Arrays {
    Unified(CacheArray),
    Split { i: CacheArray, d: CacheArray },
}

/// The structures every core shares: the L2 arrays, the page mapper, and
/// the timing rules that price outcomes against the shared main-memory
/// systems.
pub struct Uncore {
    l2: L2Arrays,
    mapper: PageMapper,
    pub(crate) timing: Timing,
    /// Functional-clock L2-hit costs at the reference access time (see
    /// [`Core`]'s `fnow`), independent of the configured access times.
    ref_i_hit_cost: u64,
    ref_d_hit_cost: u64,

    /// The single-CPU simulator's instrumentation layers (all off unless
    /// [`Simulator`](crate::Simulator) installs them).
    pub(crate) ins: Instruments,
}

impl Uncore {
    /// Builds the shared structures for `cfg`.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] when an L2 geometry is invalid.
    pub fn new(cfg: &SimConfig) -> Result<Self, ConfigError> {
        let l2 = match cfg.l2 {
            L2Config::Unified(s) => L2Arrays::Unified(CacheArray::new(s.geometry()?)),
            L2Config::Split { i, d } => L2Arrays::Split {
                i: CacheArray::new(i.geometry()?),
                d: CacheArray::new(d.geometry()?),
            },
        };
        let ref_access = REF_L2_ACCESS as u32;
        Ok(Uncore {
            l2,
            mapper: PageMapper::new(cfg.page_colors),
            timing: Timing::new(cfg),
            ref_i_hit_cost: l2_hit_cost(ref_access, cfg.l1i.line_words),
            ref_d_hit_cost: l2_hit_cost(ref_access, cfg.l1d.line_words),
            ins: Instruments::default(),
        })
    }

    /// Looks `addr` up in the instruction side of L2, filling it on a
    /// miss; returns the L2 outcome code (see [`Timing`]) and, on a hit,
    /// whether the line was dirty.
    fn l2_lookup_i(&mut self, addr: PhysAddr) -> (u8, bool) {
        match &mut self.l2 {
            L2Arrays::Unified(a) | L2Arrays::Split { i: a, .. } => l2_lookup(a, addr),
        }
    }

    /// [`Uncore::l2_lookup_i`] for the data side.
    fn l2_lookup_d(&mut self, addr: PhysAddr) -> (u8, bool) {
        match &mut self.l2 {
            L2Arrays::Unified(a) | L2Arrays::Split { d: a, .. } => l2_lookup(a, addr),
        }
    }

    /// Marks the data-side L2 line for `addr` dirty, if resident (a
    /// drained write, or a remote Modified copy flushed by the coherence
    /// protocol).
    pub fn l2_dirty_d(&mut self, addr: PhysAddr) {
        let (L2Arrays::Unified(a) | L2Arrays::Split { d: a, .. }) = &mut self.l2;
        if let Some(mut line) = a.touch(addr) {
            line.set_dirty(true);
        }
    }

    /// Plays out the L2-D side of one drained write (write-allocate on a
    /// miss, then mark the line dirty); returns its drain code (see
    /// [`Timing`]), which the recorder notes.
    fn l2_drain(&mut self, addr: PhysAddr) -> u8 {
        let code = self.l2_lookup_d(addr).0 - 1;
        self.l2_dirty_d(addr);
        if let Some(r) = self.ins.rec.as_deref_mut() {
            r.push_drain(code);
        }
        code
    }

    /// Real refill cycles for refetching a clean L1 line: the L2 hit cost,
    /// or a main-memory fetch filling L2. Demand miss-ratio counters stay
    /// untouched — recovery traffic is reported via the fault counters.
    fn refetch_from_l2(&mut self, i_side: bool, paddr: PhysAddr) -> u64 {
        let (outcome, _) = if i_side {
            self.l2_lookup_i(paddr)
        } else {
            self.l2_lookup_d(paddr)
        };
        self.timing.refetch(i_side, outcome)
    }
}

/// Touches `addr` in `a`, filling it on a miss (see
/// [`Uncore::l2_lookup_i`]).
fn l2_lookup(a: &mut CacheArray, addr: PhysAddr) -> (u8, bool) {
    match a.touch(addr).map(|l| l.dirty()) {
        Some(dirty) => (1, dirty),
        None => (2 + u8::from(a.fill(addr).is_some_and(|e| e.dirty)), false),
    }
}

/// One processor's private state and its per-event timing rules (see the
/// module docs).
pub struct Core {
    pub(crate) now: u64,
    /// The *functional* clock driving scheduler time-slicing. It advances
    /// on functional outcomes only — issue + stall cycles, L2 hits at the
    /// fixed reference access time, memory misses at the reference
    /// penalties — never on the timing knobs (access times, latencies,
    /// write-buffer waits, TLB penalties). Two configurations with the
    /// same geometry therefore schedule the *identical* instruction
    /// interleaving regardless of their timing points, which is what lets
    /// the two-phase sweep memoizer (see `profile`) price many timing
    /// variants from one functional pass.
    pub(crate) fnow: u64,
    pub(crate) counters: Counters,

    l1i: CacheArray,
    l1d: L1DataCache,
    wb: WriteBuffer,
    itlb: Tlb,
    dtlb: Tlb,
    tcache: Vec<(u64, u64)>,
    /// Per-PID statistics (lazily grown).
    pub(crate) per_proc: Vec<ProcCounters>,

    /// Virtual line of the immediately preceding ifetch (`u64::MAX` =
    /// none). A fetch to the same line is a guaranteed ITLB + L1-I hit —
    /// only ifetches touch those structures, and the previous fetch left
    /// both entries resident — so the uninstrumented path skips the
    /// probes entirely. Skipping the duplicate LRU touch is exact: the
    /// touched way already holds its set's maximum timestamp, so every
    /// future victim choice is unchanged.
    last_ifetch_vline: u64,
    /// Virtual page of the immediately preceding data access (load or
    /// store); a data access to the same page is a guaranteed DTLB hit
    /// by the same argument.
    last_data_vpage: u64,
    /// Virtual line of the immediately preceding load when it left the
    /// line resident and loadable; cleared on every store (which may
    /// change line state) and on a remote invalidation — see
    /// `load_memo_ok`.
    last_load_vline: u64,
    /// log2(line words) for the two L1 sides (memo key construction).
    i_line_shift: u32,
    d_line_shift: u32,
    /// Load-memo soundness gate: subblock placement decides load hits per
    /// *word*, which a line-granular memo cannot capture.
    load_memo_ok: bool,
}

impl Core {
    /// Builds an idle core for `cfg` (cold caches, clocks at zero).
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] when an L1 geometry is invalid.
    pub fn new(cfg: &SimConfig) -> Result<Self, ConfigError> {
        Ok(Core {
            now: 0,
            fnow: 0,
            counters: Counters::new(),
            l1i: CacheArray::new(cfg.l1i.geometry()?),
            l1d: L1DataCache::new(cfg.l1d.geometry()?, cfg.policy),
            wb: WriteBuffer::new(cfg.write_buffer.depth),
            itlb: Tlb::instruction(),
            dtlb: Tlb::data(),
            tcache: vec![(u64::MAX, 0); TCACHE_WAYS],
            per_proc: Vec::new(),
            last_ifetch_vline: u64::MAX,
            last_data_vpage: u64::MAX,
            last_load_vline: u64::MAX,
            i_line_shift: cfg.l1i.line_words.trailing_zeros(),
            d_line_shift: cfg.l1d.line_words.trailing_zeros(),
            load_memo_ok: cfg.policy != WritePolicy::Subblock,
        })
    }

    /// Counters, mutably: for the coherence actions, which the core's
    /// own rules do not charge.
    pub fn counters_mut(&mut self) -> &mut Counters {
        &mut self.counters
    }

    /// The primary data cache.
    pub fn l1d(&self) -> &L1DataCache {
        &self.l1d
    }

    /// The line base of `paddr` at L1-D line granularity.
    fn d_line_base(&self, paddr: PhysAddr) -> PhysAddr {
        PhysAddr::new(paddr.word() & !((1u64 << self.d_line_shift) - 1))
    }

    /// Invalidates the L1-D line holding `line` on behalf of another core
    /// (a coherence invalidation), returning the evicted line if it was
    /// resident. Clears the load memo, which may name that line.
    pub fn invalidate_d_line(&mut self, line: PhysAddr) -> Option<Line> {
        self.last_load_vline = u64::MAX;
        self.l1d.array_mut().invalidate(line)
    }

    /// Borrowed views of the live structures for oracle checks. For a
    /// unified L2 both side references alias the single array.
    pub(crate) fn structures<'a>(&'a self, ux: &'a Uncore) -> SimStructures<'a> {
        let (l2i, l2d) = match &ux.l2 {
            L2Arrays::Unified(a) => (a, a),
            L2Arrays::Split { i, d } => (i, d),
        };
        SimStructures {
            l1i: &self.l1i,
            l1d: &self.l1d,
            l2i,
            l2d,
            wb: &self.wb,
        }
    }

    /// `addr`'s translation when the translation cache holds it (the
    /// probe [`Core::translate`] makes, without the mapper fallback).
    #[inline(always)]
    fn cached_translation(&self, addr: VirtAddr) -> Option<PhysAddr> {
        let key = addr.raw() >> PAGE_SHIFT;
        let (k, ppn) = self.tcache[(key as usize) & (TCACHE_WAYS - 1)];
        (k == key).then(|| PhysAddr::new((ppn << PAGE_SHIFT) | addr.page_offset()))
    }

    #[inline]
    fn translate(&mut self, ux: &mut Uncore, addr: VirtAddr) -> PhysAddr {
        let key = addr.raw() >> PAGE_SHIFT;
        let idx = (key as usize) & (TCACHE_WAYS - 1);
        let (k, ppn) = self.tcache[idx];
        if k == key {
            return PhysAddr::new((ppn << PAGE_SHIFT) | addr.page_offset());
        }
        let p = ux.mapper.translate(addr);
        self.tcache[idx] = (key, p.ppn());
        p
    }

    /// Whether the bare kernel (`HOOKS = false`) would step this
    /// instruction on this core's private state alone: no L2, memory,
    /// write-buffer or page-mapper traffic and no snoop-bus transaction.
    /// That holds when the fetch rides the fetch memo or hits L1-I
    /// through a cached translation, and the data reference, if any,
    /// rides the load memo, is an L1-D load hit, or is a write-back
    /// store hit, each through a cached translation. TLB walks stay
    /// local (they charge only this core's counters). Read-only: the
    /// answer is a prediction the step then realizes.
    ///
    /// The answer covers this core's structures only. Whether another
    /// core can reach the same lines (a remote invalidation, or the
    /// [`Coherence`] hooks a store calls) is the caller's to rule out:
    /// the run loop requires a PID the core owns.
    pub(crate) fn local_step(&self, ifetch: &TraceEvent, data: Option<&TraceEvent>) -> bool {
        if ifetch.addr.raw() >> self.i_line_shift != self.last_ifetch_vline
            && !self
                .cached_translation(ifetch.addr)
                .is_some_and(|p| self.l1i.contains(p))
        {
            return false;
        }
        let Some(d) = data else {
            return true;
        };
        match d.kind {
            AccessKind::Load => {
                d.addr.raw() >> self.d_line_shift == self.last_load_vline
                    || self
                        .cached_translation(d.addr)
                        .is_some_and(|p| self.l1d.load_would_hit(p))
            }
            AccessKind::Store => {
                self.l1d.policy() == WritePolicy::WriteBack
                    && self
                        .cached_translation(d.addr)
                        .is_some_and(|p| self.l1d.array().contains(p))
            }
            AccessKind::IFetch => false,
        }
    }

    /// Cross-checks one completed access against the golden model, then
    /// applies a due seeded bug (after the check, so the corruption is
    /// first observed by a *later* access — as a real bug would be).
    #[cold]
    #[inline(never)]
    fn diff_note(&mut self, ux: &mut Uncore, ev: &TraceEvent, paddr: PhysAddr, before: Counters) {
        let Some(mut ds) = ux.ins.diff.take() else {
            return;
        };
        let actual = Deltas::between(&before, &self.counters);
        ds.note_access(ev, paddr, actual, &self.structures(ux));
        if let Some(kind) = ds.bug_due() {
            let applied = match kind {
                SeededBug::FlipL1dDirty => match self.l1d.array_mut().peek_mut(paddr) {
                    Some(mut line) if ev.kind.is_data() => {
                        let flipped = !line.dirty();
                        line.set_dirty(flipped);
                        true
                    }
                    _ => false,
                },
                SeededBug::InvalidateL1i => {
                    ev.kind == AccessKind::IFetch && self.l1i.invalidate(paddr).is_some()
                }
                SeededBug::DropWriteBufferEntry => self.wb.drop_youngest().is_some(),
            };
            if applied {
                ds.set_bug_applied();
            }
        }
        ux.ins.diff = Some(ds);
    }

    /// [`Timing::tlb_walk`] with its telemetry note.
    #[cold]
    #[inline(never)]
    fn tlb_walk(&mut self, ux: &mut Uncore, i_side: bool) -> u64 {
        let p = ux.timing.tlb_walk(&mut self.counters, i_side);
        if ux.ins.telem_on {
            ux.ins.telem_tlb_walk(i_side, self.now, p);
        }
        p
    }

    /// Services an instruction-side L1 miss starting at `start`; returns
    /// total stall cycles, with components attributed.
    #[cold]
    #[inline(never)]
    fn service_i_miss(&mut self, ux: &mut Uncore, start: u64, paddr: PhysAddr) -> u64 {
        let (outcome, dirty) = ux.l2_lookup_i(paddr);
        self.fnow += ref_refill_cost(ux.ref_i_hit_cost, outcome);
        if let Some(r) = ux.ins.rec.as_deref_mut() {
            r.set_i_outcome(outcome);
        }
        let stall = ux.timing.i_refill(&mut self.counters, start, outcome);
        if ux.ins.telem_on {
            if outcome == 1 {
                ux.ins.telem_l2_lookup_i(start, stall);
            } else {
                ux.ins.telem_mem_refill_i(start, stall);
            }
        }
        self.l1i.fill(paddr);
        if outcome == 1 {
            stall + self.fault_on_l2_hit(ux, dirty, true)
        } else {
            stall
        }
    }

    /// Fetches the L1-D line `line_base` for a read miss or a
    /// write-allocate, starting at `start`: the fetch waits on previously
    /// pending writes per the bypass rule, while the `victim` it displaces
    /// drains in the background during the refill (that is what the
    /// buffer is for). Returns total stall cycles.
    fn fetch_d_line(
        &mut self,
        ux: &mut Uncore,
        start: u64,
        line_base: PhysAddr,
        replaced_written: bool,
        victim: Option<PhysAddr>,
    ) -> u64 {
        let wait = ux.timing.d_miss_wait(
            &mut self.wb,
            &mut self.counters,
            start,
            line_base,
            replaced_written,
        );
        if ux.ins.telem_on && wait > 0 {
            ux.ins.telem_wb_wait(start, wait);
        }
        let mut t = start + wait;
        if let Some(victim) = victim {
            t += self.enqueue_write(ux, t, victim);
        }
        t - start + self.service_d_miss(ux, t, line_base)
    }

    /// Services a data-side L1 miss (read or write-allocate) starting at
    /// `start`; returns total stall cycles.
    #[cold]
    #[inline(never)]
    fn service_d_miss(&mut self, ux: &mut Uncore, start: u64, line_base: PhysAddr) -> u64 {
        let (outcome, dirty) = ux.l2_lookup_d(line_base);
        self.fnow += ref_refill_cost(ux.ref_d_hit_cost, outcome);
        if let Some(r) = ux.ins.rec.as_deref_mut() {
            r.set_d_outcome(outcome);
        }
        let stall = ux.timing.d_refill(&mut self.counters, start, outcome);
        if ux.ins.telem_on {
            if outcome == 1 {
                ux.ins.telem_l2_lookup_d(start, stall);
            } else {
                ux.ins.telem_mem_refill_d(start, stall);
            }
        }
        if outcome == 1 {
            stall + self.fault_on_l2_hit(ux, dirty, false)
        } else {
            stall
        }
    }

    /// Enqueues a write into the write buffer at `start` ([`Timing::enqueue`]
    /// with the drain's L2 side played out first). Returns the stall
    /// (attributed to WB).
    fn enqueue_write(&mut self, ux: &mut Uncore, start: u64, addr: PhysAddr) -> u64 {
        if let Some(r) = ux.ins.rec.as_deref_mut() {
            r.push_addr(addr.word());
        }
        let drain = ux.l2_drain(addr);
        let e = ux
            .timing
            .enqueue(&mut self.wb, &mut self.counters, start, addr, drain);
        if ux.ins.telem_on {
            ux.ins
                .telem_wb_enqueue(start, e.stall, e.busy_from, e.completes);
        }
        e.stall + self.fault_on_wb_write(ux)
    }

    // ---- soft-error fault hooks ----
    //
    // Faults are checked when an access *hits* the struck structure — the
    // moment a corrupted entry would be consumed (a deliberate
    // simplification: flips in lines that are never referenced again are
    // architecturally silent anyway). With injection off (`fault` is
    // `None`) every hook returns 0 without touching the PRNG, so the
    // fault-free path is bit-identical to the legacy simulator.

    /// Consults the injector for one access to `s`; returns the fired
    /// event with its resolved effect, if any.
    fn fault_check(
        &mut self,
        ux: &mut Uncore,
        s: Structure,
        dirty: bool,
    ) -> Option<(FaultEvent, FaultEffect)> {
        let fs = ux.ins.fault.as_mut()?;
        let ev = fs.injector.check(s, fs.sets[s.index()])?;
        self.counters.faults_injected += 1;
        let effect = resolve(fs.protection.get(s), dirty, ev.multi_bit);
        Some((ev, effect))
    }

    /// Applies a resolved fault effect: updates the fault counters,
    /// charges `recovery_cycles`, and arms the configured machine-check
    /// response. Returns the stall cycles the faulting access absorbs.
    fn apply_fault(
        &mut self,
        ux: &mut Uncore,
        ev: FaultEvent,
        effect: FaultEffect,
        refetch_cost: u64,
    ) -> u64 {
        let ins = &mut ux.ins;
        if ins.telem_on {
            ins.telem_fault(effect, self.now);
        }
        match effect {
            FaultEffect::Silent => {
                self.counters.faults_silent += 1;
                0
            }
            FaultEffect::Correct => {
                self.counters.faults_corrected += 1;
                let p = ins.fault.as_ref().map_or(0, |f| f.ecc_penalty);
                self.counters.recovery_cycles += p;
                p
            }
            FaultEffect::Refetch => {
                self.counters.fault_refetches += 1;
                self.counters.recovery_cycles += refetch_cost;
                refetch_cost
            }
            FaultEffect::MachineCheck => {
                self.counters.machine_checks += 1;
                if ins.fault.as_ref().is_some_and(|f| f.halt) {
                    // Halt at the current instruction boundary; the run
                    // loop surfaces the error.
                    ins.pending_mc = Some(ev);
                    0
                } else {
                    // Checkpoint restart: deterministic re-execution from
                    // the last checkpoint costs the cycles since it, and
                    // the restart point becomes the implicit checkpoint.
                    let rollback = self.now.saturating_sub(ins.last_checkpoint_cycle);
                    self.counters.recovery_cycles += rollback;
                    ins.last_checkpoint_cycle = self.now;
                    rollback
                }
            }
        }
    }

    /// Fault check for a TLB hit (shared by both TLBs; entries are never
    /// the only copy, so "dirty" never applies). A parity refetch re-walks
    /// the page tables at the configured TLB miss penalty.
    #[inline]
    fn fault_on_tlb_hit(&mut self, ux: &mut Uncore) -> u64 {
        if !ux.ins.fault_on {
            return 0;
        }
        let Some((ev, effect)) = self.fault_check(ux, Structure::Tlb, false) else {
            return 0;
        };
        let cost = if effect == FaultEffect::Refetch {
            ux.timing.tlb_penalty()
        } else {
            0
        };
        self.apply_fault(ux, ev, effect, cost)
    }

    /// Fault check for an L1-I hit (instruction lines are never dirty).
    #[inline]
    fn fault_on_l1i_hit(&mut self, ux: &mut Uncore, paddr: PhysAddr) -> u64 {
        if !ux.ins.fault_on {
            return 0;
        }
        let Some((ev, effect)) = self.fault_check(ux, Structure::L1I, false) else {
            return 0;
        };
        let cost = if effect == FaultEffect::Refetch {
            ux.refetch_from_l2(true, paddr)
        } else {
            0
        };
        self.apply_fault(ux, ev, effect, cost)
    }

    /// Fault check for an L1-D hit. Under write-back a dirty line is the
    /// only copy of its data; the write-through policies stream every
    /// write out through the buffer, so their L1 copies are always clean
    /// (the line's written mark notwithstanding).
    #[inline]
    fn fault_on_l1d_hit(&mut self, ux: &mut Uncore, paddr: PhysAddr) -> u64 {
        if !ux.ins.fault_on {
            return 0; // skip the dirty-line peek along with the check
        }
        let dirty = !self.l1d.policy().is_write_through()
            && self.l1d.array().peek(paddr).is_some_and(|l| l.dirty);
        let Some((ev, effect)) = self.fault_check(ux, Structure::L1D, dirty) else {
            return 0;
        };
        let cost = if effect == FaultEffect::Refetch {
            ux.refetch_from_l2(false, paddr)
        } else {
            0
        };
        self.apply_fault(ux, ev, effect, cost)
    }

    /// Fault check for a demand L2 hit (either side; background drains are
    /// not checked). A clean line refetches from main memory in place.
    #[inline]
    fn fault_on_l2_hit(&mut self, ux: &mut Uncore, dirty: bool, i_side: bool) -> u64 {
        if !ux.ins.fault_on {
            return 0;
        }
        let Some((ev, effect)) = self.fault_check(ux, Structure::L2, dirty) else {
            return 0;
        };
        let cost = if effect == FaultEffect::Refetch {
            ux.timing.refetch(i_side, 2)
        } else {
            0
        };
        self.apply_fault(ux, ev, effect, cost)
    }

    /// Fault check for a write entering the write buffer. In-flight store
    /// data is always the only copy, hence always dirty: parity can only
    /// detect (machine check), ECC corrects.
    #[inline]
    fn fault_on_wb_write(&mut self, ux: &mut Uncore) -> u64 {
        if !ux.ins.fault_on {
            return 0;
        }
        let Some((ev, effect)) = self.fault_check(ux, Structure::WriteBuffer, true) else {
            return 0;
        };
        self.apply_fault(ux, ev, effect, 0)
    }

    // ---- the per-event timing rules ----

    /// Steps one scheduled instruction: its fetch, then its data
    /// reference, if any. `HOOKS = true` runs the every-event layers
    /// (fault injection, the oracle) and skips the memos; `false` is the
    /// bare kernel. `REC = true` notes every instruction to the attached
    /// profile recorder. Telemetry notes fire in every instantiation.
    #[inline]
    pub(crate) fn step_instruction<const HOOKS: bool, const REC: bool, C: Coherence>(
        &mut self,
        ux: &mut Uncore,
        coh: &mut C,
        instr: &Instruction,
    ) {
        self.step_ifetch::<HOOKS, REC>(ux, &instr.ifetch);
        if let Some(data) = &instr.data {
            self.step_data::<HOOKS, REC, C>(ux, coh, data);
        }
    }

    /// Steps one instruction fetch (see [`Core::step_instruction`] for
    /// `HOOKS` and `REC`).
    #[inline]
    pub(crate) fn step_ifetch<const HOOKS: bool, const REC: bool>(
        &mut self,
        ux: &mut Uncore,
        ev: &TraceEvent,
    ) {
        // Uninstrumented fast path: a fetch from the line the previous
        // fetch ended on is a guaranteed ITLB + L1-I hit (only ifetches
        // touch either structure), and the hit path consumes the physical
        // address nowhere, so the probes are skipped outright. The
        // recorder notes the hit (no ITLB miss, outcome 0) here.
        let vline = ev.addr.raw() >> self.i_line_shift;
        if !HOOKS && vline == self.last_ifetch_vline {
            if REC {
                ux.ins
                    .recorder()
                    .begin_instr(ev.addr.pid().raw(), ev.stall_cycles, false);
            }
            let cycles = 1 + ev.stall_cycles as u64;
            self.counters.instructions += 1;
            self.counters.cpu_stall_cycles += ev.stall_cycles as u64;
            self.fnow += cycles;
            self.now += cycles;
            let p = proc_row(&mut self.per_proc, ev.addr.pid().raw());
            p.instructions += 1;
            p.cycles += cycles;
            return;
        }
        let diff_before = if HOOKS && ux.ins.diff_on {
            Some(self.counters)
        } else {
            None
        };
        let mut cycles = 1 + ev.stall_cycles as u64;
        let l2_before = self.counters.l2i_misses + self.counters.l2d_misses;
        let mut missed = false;
        self.counters.instructions += 1;
        self.counters.cpu_stall_cycles += ev.stall_cycles as u64;
        self.fnow += 1 + ev.stall_cycles as u64;

        let itlb_hit = self.itlb.access(ev.addr);
        if REC {
            ux.ins
                .recorder()
                .begin_instr(ev.addr.pid().raw(), ev.stall_cycles, !itlb_hit);
        }
        if itlb_hit {
            if HOOKS {
                cycles += self.fault_on_tlb_hit(ux);
            }
        } else {
            cycles += self.tlb_walk(ux, true);
        }
        let paddr = self.translate(ux, ev.addr);

        if self.l1i.touch(paddr).is_some() {
            if HOOKS {
                cycles += self.fault_on_l1i_hit(ux, paddr);
            }
        } else {
            self.counters.l1i_misses += 1;
            missed = true;
            let start = self.now + cycles;
            let wait = ux
                .timing
                .i_miss_wait(&mut self.wb, &mut self.counters, start);
            cycles += wait + self.service_i_miss(ux, start + wait, paddr);
        }
        self.now += cycles;
        if !HOOKS {
            // Hit or refill, the line is now resident; arm the memo. The
            // hooked instantiations never read it (faults and the canary
            // can invalidate lines behind it).
            self.last_ifetch_vline = vline;
        }
        if HOOKS {
            if let Some(before) = diff_before {
                self.diff_note(ux, ev, paddr, before);
            }
        }

        let l2_after = self.counters.l2i_misses + self.counters.l2d_misses;
        let p = proc_row(&mut self.per_proc, ev.addr.pid().raw());
        p.instructions += 1;
        p.cycles += cycles;
        if missed {
            p.l1i_misses += 1;
        }
        p.l2_misses += l2_after - l2_before;
    }

    /// Steps one load or store (see [`Core::step_instruction`] for
    /// `HOOKS` and `REC`).
    #[inline]
    pub(crate) fn step_data<const HOOKS: bool, const REC: bool, C: Coherence>(
        &mut self,
        ux: &mut Uncore,
        coh: &mut C,
        ev: &TraceEvent,
    ) {
        match ev.kind {
            AccessKind::Load => self.step_load::<HOOKS, REC, C>(ux, coh, ev),
            AccessKind::Store => self.step_store::<HOOKS, REC, C>(ux, coh, ev),
            AccessKind::IFetch => unreachable!("data step on a fetch"),
        }
    }

    #[inline]
    fn step_load<const HOOKS: bool, const REC: bool, C: Coherence>(
        &mut self,
        ux: &mut Uncore,
        coh: &mut C,
        ev: &TraceEvent,
    ) {
        // Uninstrumented fast path: a load from the line the previous
        // load hit (with no intervening store, load miss or invalidation
        // — all clear the memo) is a guaranteed DTLB + L1-D hit with zero
        // charged cycles; line state cannot have changed in between.
        // Gated off under subblock placement, where load hits are
        // per-word. The recorder notes the hit (no DTLB miss, outcome 0)
        // here.
        let vline = ev.addr.raw() >> self.d_line_shift;
        if !HOOKS && vline == self.last_load_vline {
            if REC {
                ux.ins.recorder().begin_load(false);
            }
            self.counters.loads += 1;
            let p = proc_row(&mut self.per_proc, ev.addr.pid().raw());
            p.loads += 1;
            return;
        }
        let diff_before = if HOOKS && ux.ins.diff_on {
            Some(self.counters)
        } else {
            None
        };
        let mut cycles = 0u64;
        let l2_before = self.counters.l2i_misses + self.counters.l2d_misses;
        self.counters.loads += 1;
        let vpage = ev.addr.raw() >> PAGE_SHIFT;
        // Same page as the previous data access: guaranteed DTLB hit
        // (only data accesses touch the DTLB; short-circuit skips the
        // probe, which is LRU-exact for a repeated most-recent key).
        let dtlb_hit = (!HOOKS && vpage == self.last_data_vpage) || self.dtlb.access(ev.addr);
        if !HOOKS {
            self.last_data_vpage = vpage;
        }
        if REC {
            ux.ins.recorder().begin_load(!dtlb_hit);
        }
        if dtlb_hit {
            if HOOKS {
                cycles += self.fault_on_tlb_hit(ux);
            }
        } else {
            cycles += self.tlb_walk(ux, false);
        }
        let paddr = self.translate(ux, ev.addr);

        let outcome = self.l1d.load(paddr);
        if !HOOKS {
            // A hit leaves the line loadable; a miss refills it fully
            // (clearing any write-only mark), so either way the line is
            // loadable now. Stores clear the memo.
            self.last_load_vline = if self.load_memo_ok { vline } else { u64::MAX };
        }
        if outcome.hit {
            coh.load_hit(self, self.d_line_base(paddr));
            if HOOKS {
                cycles += self.fault_on_l1d_hit(ux, paddr);
            }
        } else {
            self.counters.l1d_read_misses += 1;
            let line_base = outcome.fetch.expect("miss implies fetch");
            if REC {
                ux.ins.recorder().load_miss(
                    outcome.replaced_written_line,
                    outcome.writeback_victim.is_some(),
                    line_base.word(),
                );
            }
            let t0 = self.now + cycles;
            cycles += coh.load_fill(self, ux, t0, line_base, ev.addr.pid());
            cycles += self.fetch_d_line(
                ux,
                self.now + cycles,
                line_base,
                outcome.replaced_written_line,
                outcome.writeback_victim,
            );
        }
        self.now += cycles;
        if HOOKS {
            if let Some(before) = diff_before {
                self.diff_note(ux, ev, paddr, before);
            }
        }

        let l2_after = self.counters.l2i_misses + self.counters.l2d_misses;
        let hit = outcome.hit;
        let p = proc_row(&mut self.per_proc, ev.addr.pid().raw());
        p.loads += 1;
        p.cycles += cycles;
        if !hit {
            p.l1d_misses += 1;
        }
        p.l2_misses += l2_after - l2_before;
    }

    #[inline]
    fn step_store<const HOOKS: bool, const REC: bool, C: Coherence>(
        &mut self,
        ux: &mut Uncore,
        coh: &mut C,
        ev: &TraceEvent,
    ) {
        let diff_before = if HOOKS && ux.ins.diff_on {
            Some(self.counters)
        } else {
            None
        };
        let mut cycles = 0u64;
        let l2_before = self.counters.l2i_misses + self.counters.l2d_misses;
        self.counters.stores += 1;
        let vpage = ev.addr.raw() >> PAGE_SHIFT;
        let dtlb_hit = (!HOOKS && vpage == self.last_data_vpage) || self.dtlb.access(ev.addr);
        if !HOOKS {
            self.last_data_vpage = vpage;
            // Stores change line state (dirty / write-only / valid bits)
            // and may evict, so the load memo cannot survive one.
            self.last_load_vline = u64::MAX;
        }
        if dtlb_hit {
            if HOOKS {
                cycles += self.fault_on_tlb_hit(ux);
            }
        } else {
            cycles += self.tlb_walk(ux, false);
        }
        let paddr = self.translate(ux, ev.addr);

        let line = self.d_line_base(paddr);
        let prior = coh.before_store(self, line, ev.addr.pid());
        let outcome = self.l1d.store(paddr, ev.partial_word);
        if REC {
            ux.ins.recorder().begin_store(
                !dtlb_hit,
                outcome.hit,
                outcome.extra_cycle,
                outcome.wb_word.is_some(),
                outcome.fetch.is_some(),
                outcome.writeback_victim.is_some(),
                outcome.replaced_written_line,
            );
        }
        if outcome.hit {
            if HOOKS {
                cycles += self.fault_on_l1d_hit(ux, paddr);
            }
        } else {
            self.counters.l1d_write_misses += 1;
        }
        if outcome.extra_cycle {
            self.counters.l1_write_cycles += 1;
            cycles += 1;
            self.fnow += 1;
        }
        let t0 = self.now + cycles;
        cycles += coh.store(self, ux, t0, line, ev.addr.pid(), prior);

        // Write-through: the word enters the write buffer.
        if let Some(word) = outcome.wb_word {
            cycles += self.enqueue_write(ux, self.now + cycles, word);
        }
        // Write-back allocate: the fetch behaves like a read miss.
        let t = self.now + cycles;
        if let Some(line_base) = outcome.fetch {
            if REC {
                ux.ins.recorder().push_addr(line_base.word());
            }
            let replaced = outcome.replaced_written_line;
            cycles += self.fetch_d_line(ux, t, line_base, replaced, outcome.writeback_victim);
        } else if let Some(victim) = outcome.writeback_victim {
            cycles += self.enqueue_write(ux, t, victim);
        }
        self.now += cycles;
        if HOOKS {
            if let Some(before) = diff_before {
                self.diff_note(ux, ev, paddr, before);
            }
        }

        let l2_after = self.counters.l2i_misses + self.counters.l2d_misses;
        let hit = outcome.hit;
        let p = proc_row(&mut self.per_proc, ev.addr.pid().raw());
        p.stores += 1;
        p.cycles += cycles;
        if !hit {
            p.l1d_misses += 1;
        }
        p.l2_misses += l2_after - l2_before;
    }
}
