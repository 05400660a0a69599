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
//! instantiation uses [`NoCoherence`], whose empty hooks compile out. A
//! 1-core CMP run therefore executes exactly the single-CPU code.
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
//! access — fault injection, the lockstep oracle and the profile
//! recorder — and never reads the memos.
//!
//! Telemetry is not one of them. Its notes sit on L1 misses, TLB walks
//! and write-buffer traffic, and what a memo skips is by construction a
//! TLB or L1 hit that touches no buffer, so the skipped work would have
//! noted nothing. The telemetry sites are therefore gated on `telem_on`
//! alone and fire identically in both instantiations.

use gaas_cache::fault::{resolve, FaultEffect, FaultEvent, Structure};
use gaas_cache::{CacheArray, L1DataCache, Line, MemorySystem, PageMapper, Tlb, WriteBuffer};
use gaas_trace::{AccessKind, PhysAddr, TraceEvent, VirtAddr, PAGE_SHIFT};

use crate::config::{ConfigError, L2Config, SeededBug, SimConfig, WbBypass};
use crate::cpi::{Counters, ProcCounters};
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

    /// Reads the stepping core's state for the L1-D line `line` before a
    /// store changes the array (a write-allocate fill would otherwise make
    /// a stale record look freshly resident).
    fn before_store(&mut self, core: &Core, line: PhysAddr) -> Self::Prior;

    /// Protocol action for a store to `line` at time `t0`, after the L1-D
    /// array took it and before any write-buffer traffic; returns the
    /// stall charged to the core.
    fn store(
        &mut self,
        core: &mut Core,
        ux: &mut Uncore,
        t0: u64,
        line: PhysAddr,
        prior: Self::Prior,
    ) -> u64;

    /// Protocol action for a load miss that just filled `line` at time
    /// `t0`, before the write-buffer wait; returns the stall charged to
    /// the core.
    fn load_fill(&mut self, core: &mut Core, ux: &mut Uncore, t0: u64, line: PhysAddr) -> u64;

    /// Observes a load hit on `line` (no cycles).
    fn load_hit(&mut self, core: &Core, line: PhysAddr);
}

/// The single-CPU [`Coherence`]: every hook is empty.
#[derive(Debug, Clone, Copy)]
pub struct NoCoherence;

impl Coherence for NoCoherence {
    type Prior = ();

    #[inline(always)]
    fn before_store(&mut self, _: &Core, _: PhysAddr) {}

    #[inline(always)]
    fn store(&mut self, _: &mut Core, _: &mut Uncore, _: u64, _: PhysAddr, _: ()) -> u64 {
        0
    }

    #[inline(always)]
    fn load_fill(&mut self, _: &mut Core, _: &mut Uncore, _: u64, _: PhysAddr) -> u64 {
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

/// The L2 cycle costs a configuration's timing knobs derive — the one
/// derivation the simulator's [`Uncore`] and the profile pricer share.
#[derive(Debug, Clone, Copy)]
pub(crate) struct L2Costs {
    /// L1-I refill cost on an L2 hit.
    pub(crate) i_hit: u64,
    /// L1-D refill cost on an L2 hit.
    pub(crate) d_hit: u64,
    /// L2 write access occupancy of one write-buffer drain.
    pub(crate) drain_access: u32,
    /// Occupancy of a drain streamed behind the previous one.
    pub(crate) drain_stream: u32,
}

impl L2Costs {
    pub(crate) fn new(cfg: &SimConfig) -> Self {
        // Drains write at the data side's access time (or the Fig. 5
        // override); streams overlap the 2-cycle latency.
        let drain_access = cfg
            .l2_drain_access_override
            .unwrap_or(cfg.l2.d_side().access_cycles);
        L2Costs {
            i_hit: l2_hit_cost(cfg.l2.i_side().access_cycles, cfg.l1i.line_words),
            d_hit: l2_hit_cost(cfg.l2.d_side().access_cycles, cfg.l1d.line_words),
            drain_access,
            drain_stream: drain_access.saturating_sub(2).max(1),
        }
    }
}

enum L2Arrays {
    Unified(CacheArray),
    Split { i: CacheArray, d: CacheArray },
}

/// The structures every core shares: the L2 arrays, the main-memory
/// systems, the page mapper, and the cycle costs derived from the
/// configuration.
pub struct Uncore {
    l2: L2Arrays,
    /// Memory behind L2-D (or the unified L2); carries the dirty buffer.
    pub(crate) mem_d: MemorySystem,
    /// Memory behind a split L2-I (no dirty buffer).
    pub(crate) mem_i: MemorySystem,
    mapper: PageMapper,

    tlb_penalty: u64,
    concurrent_i_refill: bool,
    d_read_bypass: WbBypass,
    d_line_words: u32,
    split_l2: bool,
    /// The L2 hit and drain costs the timing knobs derive.
    costs: L2Costs,
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
            mem_d: MemorySystem::new(cfg.memory, cfg.concurrency.l2d_dirty_buffer),
            mem_i: MemorySystem::new(cfg.memory, false),
            mapper: PageMapper::new(cfg.page_colors),
            tlb_penalty: cfg.tlb_miss_penalty as u64,
            concurrent_i_refill: cfg.concurrency.concurrent_i_refill,
            d_read_bypass: cfg.concurrency.d_read_bypass,
            d_line_words: cfg.l1d.line_words,
            split_l2: cfg.l2.is_split(),
            costs: L2Costs::new(cfg),
            ref_i_hit_cost: l2_hit_cost(ref_access, cfg.l1i.line_words),
            ref_d_hit_cost: l2_hit_cost(ref_access, cfg.l1d.line_words),
            ins: Instruments::default(),
        })
    }

    /// Touches the instruction side of L2; on a hit returns whether the
    /// line was dirty.
    fn l2_touch_i(&mut self, addr: PhysAddr) -> Option<bool> {
        match &mut self.l2 {
            L2Arrays::Unified(a) | L2Arrays::Split { i: a, .. } => a.touch(addr).map(|l| l.dirty()),
        }
    }

    /// Touches the data side of L2; on a hit returns whether the line was
    /// dirty.
    fn l2_touch_d(&mut self, addr: PhysAddr) -> Option<bool> {
        match &mut self.l2 {
            L2Arrays::Unified(a) | L2Arrays::Split { d: a, .. } => a.touch(addr).map(|l| l.dirty()),
        }
    }

    /// Fills the instruction side of L2; returns whether the victim was
    /// dirty.
    fn l2_fill_i(&mut self, addr: PhysAddr) -> bool {
        match &mut self.l2 {
            L2Arrays::Unified(a) | L2Arrays::Split { i: a, .. } => {
                a.fill(addr).is_some_and(|e| e.dirty)
            }
        }
    }

    fn l2_fill_d(&mut self, addr: PhysAddr) -> bool {
        match &mut self.l2 {
            L2Arrays::Unified(a) | L2Arrays::Split { d: a, .. } => {
                a.fill(addr).is_some_and(|e| e.dirty)
            }
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

    /// The memory system behind the instruction side.
    fn mem_for_i(&mut self) -> &mut MemorySystem {
        if self.split_l2 {
            &mut self.mem_i
        } else {
            &mut self.mem_d
        }
    }

    /// Real refill cycles for refetching a clean L1-I line: L2-I hit cost,
    /// or a main-memory fetch filling L2. Demand miss-ratio counters stay
    /// untouched — recovery traffic is reported via the fault counters.
    fn refetch_from_l2_i(&mut self, paddr: PhysAddr) -> u64 {
        if self.l2_touch_i(paddr).is_some() {
            return self.costs.i_hit;
        }
        let dirty_victim = self.l2_fill_i(paddr);
        self.mem_for_i().service_miss_raw(dirty_victim).stall_cycles
    }

    /// Real refill cycles for refetching a clean L1-D line from L2/memory.
    fn refetch_from_l2_d(&mut self, paddr: PhysAddr) -> u64 {
        if self.l2_touch_d(paddr).is_some() {
            return self.costs.d_hit;
        }
        let dirty_victim = self.l2_fill_d(paddr);
        self.mem_d.service_miss_raw(dirty_victim).stall_cycles
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
    pub(crate) itlb: Tlb,
    pub(crate) dtlb: Tlb,
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
            load_memo_ok: cfg.policy != gaas_cache::WritePolicy::Subblock,
        })
    }

    /// The timing clock (cycles charged so far).
    pub fn now(&self) -> u64 {
        self.now
    }

    /// The functional clock (see the field docs); schedulers run on it.
    pub fn fnow(&self) -> u64 {
        self.fnow
    }

    /// Counters accumulated so far.
    pub fn counters(&self) -> &Counters {
        &self.counters
    }

    /// Counters, mutably: for the components the core's own rules do not
    /// charge (scheduler switches, coherence actions).
    pub fn counters_mut(&mut self) -> &mut Counters {
        &mut self.counters
    }

    /// Per-PID statistics, indexed by raw PID.
    pub fn per_proc(&self) -> &[ProcCounters] {
        &self.per_proc
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

    #[inline]
    fn proc_entry(&mut self, pid: gaas_trace::Pid) -> &mut ProcCounters {
        let idx = pid.raw() as usize;
        if self.per_proc.len() <= idx {
            self.per_proc.resize(idx + 1, ProcCounters::default());
        }
        &mut self.per_proc[idx]
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

    /// Charges a TLB miss walk (`i_side` selects the TLB); returns its
    /// cycles, attributed to the TLB component.
    #[cold]
    #[inline(never)]
    fn tlb_walk(&mut self, ux: &mut Uncore, i_side: bool) -> u64 {
        if i_side {
            self.counters.itlb_misses += 1;
        } else {
            self.counters.dtlb_misses += 1;
        }
        let p = ux.tlb_penalty;
        self.counters.tlb_miss_cycles += p;
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
        self.counters.l2i_accesses += 1;
        let hit_cost = ux.costs.i_hit;
        if let Some(dirty) = ux.l2_touch_i(paddr) {
            self.counters.l1i_miss_cycles += hit_cost;
            self.fnow += ux.ref_i_hit_cost;
            if let Some(r) = ux.ins.rec.as_deref_mut() {
                r.set_i_outcome(1);
            }
            if ux.ins.telem_on {
                ux.ins.telem_l2_lookup_i(start, hit_cost);
            }
            self.l1i.fill(paddr);
            return hit_cost + self.fault_on_l2_hit(ux, dirty, true);
        }
        self.counters.l2i_misses += 1;
        let dirty_victim = ux.l2_fill_i(paddr);
        self.fnow += if dirty_victim {
            REF_MEM_DIRTY
        } else {
            REF_MEM_CLEAN
        };
        if let Some(r) = ux.ins.rec.as_deref_mut() {
            r.set_i_outcome(if dirty_victim { 3 } else { 2 });
        }
        let svc = ux.mem_for_i().service_miss(start, dirty_victim);
        if ux.ins.telem_on {
            ux.ins.telem_mem_refill_i(start, svc.stall_cycles);
        }
        self.counters.charge_l2_miss_refill(true, svc, hit_cost);
        self.l1i.fill(paddr);
        svc.stall_cycles
    }

    /// Services a data-side L1 miss (read or write-allocate) starting at
    /// `start`; returns total stall cycles.
    #[cold]
    #[inline(never)]
    fn service_d_miss(&mut self, ux: &mut Uncore, start: u64, line_base: PhysAddr) -> u64 {
        self.counters.l2d_accesses += 1;
        let hit_cost = ux.costs.d_hit;
        if let Some(dirty) = ux.l2_touch_d(line_base) {
            self.counters.l1d_miss_cycles += hit_cost;
            self.fnow += ux.ref_d_hit_cost;
            if let Some(r) = ux.ins.rec.as_deref_mut() {
                r.set_d_outcome(1);
            }
            if ux.ins.telem_on {
                ux.ins.telem_l2_lookup_d(start, hit_cost);
            }
            return hit_cost + self.fault_on_l2_hit(ux, dirty, false);
        }
        self.counters.l2d_misses += 1;
        let dirty_victim = ux.l2_fill_d(line_base);
        self.fnow += if dirty_victim {
            REF_MEM_DIRTY
        } else {
            REF_MEM_CLEAN
        };
        if let Some(r) = ux.ins.rec.as_deref_mut() {
            r.set_d_outcome(if dirty_victim { 3 } else { 2 });
        }
        let svc = ux.mem_d.service_miss(start, dirty_victim);
        if ux.ins.telem_on {
            ux.ins.telem_mem_refill_d(start, svc.stall_cycles);
        }
        self.counters.charge_l2_miss_refill(false, svc, hit_cost);
        svc.stall_cycles
    }

    /// Write-buffer wait (in cycles, attributed) that an L1-D miss must
    /// take before its L2 fetch, per the configured bypass scheme.
    fn wb_wait_for_d_miss(
        &mut self,
        ux: &mut Uncore,
        start: u64,
        line_base: PhysAddr,
        replaced_written: bool,
    ) -> u64 {
        let until = match ux.d_read_bypass {
            WbBypass::Wait => self.wb.empty_at(start),
            WbBypass::DirtyBit => {
                if replaced_written {
                    self.wb.empty_at(start)
                } else {
                    start
                }
            }
            WbBypass::Associative => self
                .wb
                .match_line(start, line_base, ux.d_line_words)
                .map_or(start, |t| t.max(start)),
        };
        let wait = until - start;
        self.counters.wb_wait_cycles += wait;
        if ux.ins.telem_on && wait > 0 {
            ux.ins.telem_wb_wait(start, wait);
        }
        wait
    }

    /// Enqueues a write into the write buffer at `start`, stalling for a
    /// slot if the buffer is full. Returns the stall (attributed to WB).
    fn enqueue_write(&mut self, ux: &mut Uncore, start: u64, addr: PhysAddr) -> u64 {
        if let Some(r) = ux.ins.rec.as_deref_mut() {
            r.push_addr(addr.word());
        }
        let free_at = self.wb.slot_free_at(start);
        let stall = free_at - start;
        self.counters.wb_wait_cycles += stall;
        let enq_time = free_at;
        // The drain's cost depends on whether it hits in L2-D.
        let extra = self.drain_l2_penalty(ux, addr);
        let busy_from = enq_time.max(self.wb.last_completion());
        let completes = self.wb.enqueue(
            enq_time,
            addr,
            ux.costs.drain_access,
            ux.costs.drain_stream,
            extra,
        );
        self.counters.l2_drain_busy_cycles += completes - busy_from;
        if ux.ins.telem_on {
            ux.ins.telem_wb_enqueue(start, stall, busy_from, completes);
        }
        stall + self.fault_on_wb_write(ux)
    }

    /// Models the L2 side of one drained write; returns the extra drain
    /// occupancy when the write misses L2 (write-allocate from memory).
    fn drain_l2_penalty(&mut self, ux: &mut Uncore, addr: PhysAddr) -> u32 {
        self.counters.l2_drain_writes += 1;
        if ux.l2_touch_d(addr).is_some() {
            ux.l2_dirty_d(addr);
            if let Some(r) = ux.ins.rec.as_deref_mut() {
                r.push_drain(0);
            }
            return 0;
        }
        self.counters.l2_drain_misses += 1;
        let dirty_victim = ux.l2_fill_d(addr);
        ux.l2_dirty_d(addr);
        if let Some(r) = ux.ins.rec.as_deref_mut() {
            r.push_drain(if dirty_victim { 2 } else { 1 });
        }
        // The drain stalls the buffer, not the CPU, and does not compete
        // for the dirty buffer: fold the raw penalty into the entry's
        // occupancy.
        ux.mem_d.service_miss_raw(dirty_victim).stall_cycles as u32
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
            ux.tlb_penalty
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
            ux.refetch_from_l2_i(paddr)
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
            ux.refetch_from_l2_d(paddr)
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
            let mem = if i_side {
                ux.mem_for_i()
            } else {
                &mut ux.mem_d
            };
            mem.service_miss_raw(false).stall_cycles
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
    /// (fault injection, the oracle, the profile recorder) and skips the
    /// memos; `false` is the bare kernel. Telemetry notes fire in both.
    #[inline]
    pub fn step_instruction<const HOOKS: bool, C: Coherence>(
        &mut self,
        ux: &mut Uncore,
        coh: &mut C,
        instr: &Instruction,
    ) {
        self.step_ifetch::<HOOKS>(ux, &instr.ifetch);
        if let Some(data) = &instr.data {
            self.step_data::<HOOKS, C>(ux, coh, data);
        }
    }

    /// Steps one instruction fetch (see [`Core::step_instruction`] for
    /// `HOOKS`).
    #[inline]
    pub(crate) fn step_ifetch<const HOOKS: bool>(&mut self, ux: &mut Uncore, ev: &TraceEvent) {
        // Uninstrumented fast path: a fetch from the line the previous
        // fetch ended on is a guaranteed ITLB + L1-I hit (only ifetches
        // touch either structure), and the hit path consumes the physical
        // address nowhere, so the probes are skipped outright.
        let vline = ev.addr.raw() >> self.i_line_shift;
        if !HOOKS && vline == self.last_ifetch_vline {
            let cycles = 1 + ev.stall_cycles as u64;
            self.counters.instructions += 1;
            self.counters.cpu_stall_cycles += ev.stall_cycles as u64;
            self.fnow += cycles;
            self.now += cycles;
            let p = self.proc_entry(ev.addr.pid());
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
        if HOOKS {
            if let Some(r) = ux.ins.rec.as_deref_mut() {
                r.begin_instr(ev.addr.pid().raw(), ev.stall_cycles, !itlb_hit);
            }
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
            let mut t = self.now + cycles;
            // Base rule: instruction misses wait for the write buffer to
            // empty (keeps the unified L2 consistent). The §9 concurrent
            // refill drops this when L2 is split.
            if !ux.concurrent_i_refill {
                let empty = self.wb.empty_at(t);
                let wait = empty - t;
                self.counters.wb_wait_cycles += wait;
                cycles += wait;
                t = empty;
            }
            cycles += self.service_i_miss(ux, t, paddr);
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
        let p = self.proc_entry(ev.addr.pid());
        p.instructions += 1;
        p.cycles += cycles;
        if missed {
            p.l1i_misses += 1;
        }
        p.l2_misses += l2_after - l2_before;
    }

    /// Steps one load or store (see [`Core::step_instruction`] for
    /// `HOOKS`).
    #[inline]
    pub(crate) fn step_data<const HOOKS: bool, C: Coherence>(
        &mut self,
        ux: &mut Uncore,
        coh: &mut C,
        ev: &TraceEvent,
    ) {
        match ev.kind {
            AccessKind::Load => self.step_load::<HOOKS, C>(ux, coh, ev),
            AccessKind::Store => self.step_store::<HOOKS, C>(ux, coh, ev),
            AccessKind::IFetch => unreachable!("data step on a fetch"),
        }
    }

    #[inline]
    fn step_load<const HOOKS: bool, C: Coherence>(
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
        // per-word.
        let vline = ev.addr.raw() >> self.d_line_shift;
        if !HOOKS && vline == self.last_load_vline {
            self.counters.loads += 1;
            let p = self.proc_entry(ev.addr.pid());
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
        if HOOKS {
            if let Some(r) = ux.ins.rec.as_deref_mut() {
                r.begin_load(!dtlb_hit);
            }
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
            if HOOKS {
                if let Some(r) = ux.ins.rec.as_deref_mut() {
                    r.load_miss(
                        outcome.replaced_written_line,
                        outcome.writeback_victim.is_some(),
                        line_base.word(),
                    );
                }
            }
            let t0 = self.now + cycles;
            cycles += coh.load_fill(self, ux, t0, line_base);
            let mut t = self.now + cycles;
            // Wait on *previously pending* writes per the bypass rule; the
            // victim this very miss displaces drains in the background
            // while the refill proceeds (that is what the buffer is for).
            let wait = self.wb_wait_for_d_miss(ux, t, line_base, outcome.replaced_written_line);
            cycles += wait;
            t += wait;
            if let Some(victim) = outcome.writeback_victim {
                let stall = self.enqueue_write(ux, t, victim);
                cycles += stall;
                t += stall;
            }
            cycles += self.service_d_miss(ux, t, line_base);
        }
        self.now += cycles;
        if HOOKS {
            if let Some(before) = diff_before {
                self.diff_note(ux, ev, paddr, before);
            }
        }

        let l2_after = self.counters.l2i_misses + self.counters.l2d_misses;
        let hit = outcome.hit;
        let p = self.proc_entry(ev.addr.pid());
        p.loads += 1;
        p.cycles += cycles;
        if !hit {
            p.l1d_misses += 1;
        }
        p.l2_misses += l2_after - l2_before;
    }

    #[inline]
    fn step_store<const HOOKS: bool, C: Coherence>(
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
        let prior = coh.before_store(self, line);
        let outcome = self.l1d.store(paddr, ev.partial_word);
        if HOOKS {
            if let Some(r) = ux.ins.rec.as_deref_mut() {
                r.begin_store(
                    !dtlb_hit,
                    outcome.hit,
                    outcome.extra_cycle,
                    outcome.wb_word.is_some(),
                    outcome.fetch.is_some(),
                    outcome.writeback_victim.is_some(),
                    outcome.replaced_written_line,
                );
            }
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
        cycles += coh.store(self, ux, t0, line, prior);
        let mut t = self.now + cycles;

        // Write-through: the word enters the write buffer.
        if let Some(word) = outcome.wb_word {
            let stall = self.enqueue_write(ux, t, word);
            cycles += stall;
            t += stall;
        }
        // Write-back allocate: the fetch behaves like a read miss — it
        // waits on previously pending writes, while the victim this miss
        // displaces drains in the background during the refill.
        if let Some(line_base) = outcome.fetch {
            if HOOKS {
                if let Some(r) = ux.ins.rec.as_deref_mut() {
                    r.push_addr(line_base.word());
                }
            }
            let wait = self.wb_wait_for_d_miss(ux, t, line_base, outcome.replaced_written_line);
            cycles += wait;
            t += wait;
            if let Some(victim) = outcome.writeback_victim {
                let stall = self.enqueue_write(ux, t, victim);
                cycles += stall;
                t += stall;
            }
            cycles += self.service_d_miss(ux, t, line_base);
        } else if let Some(victim) = outcome.writeback_victim {
            let stall = self.enqueue_write(ux, t, victim);
            cycles += stall;
        }
        self.now += cycles;
        if HOOKS {
            if let Some(before) = diff_before {
                self.diff_note(ux, ev, paddr, before);
            }
        }

        let l2_after = self.counters.l2i_misses + self.counters.l2d_misses;
        let hit = outcome.hit;
        let p = self.proc_entry(ev.addr.pid());
        p.stores += 1;
        p.cycles += cycles;
        if !hit {
            p.l1d_misses += 1;
        }
        p.l2_misses += l2_after - l2_before;
    }
}
