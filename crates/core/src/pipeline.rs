//! The per-core pipeline: one CPU's private front end stepping against
//! the shared uncore.
//!
//! A [`Core`] holds everything private to one processor — L1-I, L1-D,
//! both TLBs, the software translation cache, the functional clock, the
//! last-line and page memos, and its timing half: the timing clock, the
//! counters, the per-PID rows and the write buffer — and charges cycles
//! for one trace event at a time by the paper's rules (see the `sim`
//! module docs). It steps against an [`Uncore`]: the L2 arrays, the
//! main-memory systems behind them, the page mapper and the cycle costs
//! derived from the configuration.
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
//! # One step rule per outcome
//!
//! A step splits at its outcomes. The core decides them on its arrays:
//! TLB hit or miss, L1 hit or miss, and a data access's `LoadOutcome` or
//! `StoreOutcome` from `gaas_cache`. Its timing half then runs the one
//! rule for that kind of step (fetch, load or store), which composes the
//! step's cycles from what each outcome costs, bumps the counters and
//! charges the per-process row. The profile co-pricer (see `profile`)
//! runs the same rules in each of its lanes on the outcomes a functional
//! pass recorded, so a lane priced from a profile equals a full
//! simulation by construction.
//!
//! What a core does in the middle of a step enters the rule through a
//! hook type: the L2 lookups and drains that decide the refill and drain
//! outcomes (coherence flush, then victim drain, then refill lookup), the
//! soft-error fault checks, the coherence stall at its bus time, and the
//! telemetry and recorder notes. A co-pricer lane's hooks are its timing
//! rules alone: every mid-step hook is an empty default and compiles out.
//!
//! # The all-hit fold
//!
//! An instruction whose fetch, load or store all hit in L1 costs exactly
//! `1 + stall` cycles, plus a cycle for a write that takes one and the
//! TLB walks; no L2, memory or write-buffer term applies. On the bare
//! single-CPU kernel (`HOOKS = false` and a [`Coherence`] whose
//! [`Coherence::FOLD`] is set) such a step does not run its rule: it adds
//! to the core's `PendingRun`, and `Lane::flush` charges the whole run in
//! that closed form before anything reads the lane. With telemetry on, a
//! TLB miss does not fold, since its walk note reads the lane's time. The
//! core holds an I-hit fetch until its data half is known, then folds
//! both halves, or flushes the run and runs the fetch rule and the data
//! rule. This is exact: the L1 and TLB decisions do not read lane time,
//! and a fetch hit touches no L2. The co-pricer applies a profile's run
//! tokens with the same `Lane::flush`, and the recorder writes the core's
//! run as that token, so the closed form exists once.
//!
//! # The memos
//!
//! The bare-kernel instantiation (`HOOKS = false`) skips work that
//! cannot change any counter or replacement decision. A fetch from the
//! line the previous fetch ended on skips its ITLB probe, translation
//! and L1-I probe, and runs its rule with the hit outcome as a constant.
//! Each side also keeps a page memo: the virtual page (PID bits
//! included, the key [`Tlb::access`] uses) and the physical frame of
//! that side's previous access. A fetch or data access on that page
//! takes the TLB hit and builds its physical address from the memo's
//! frame; any other access probes the TLB, translates and re-arms the
//! memo. Either way the step then runs its one L1 touch and its one
//! rule. The skip is exact: only its own side touches a TLB, so the
//! previous access left the page's entry resident and most recent, and a
//! repeated touch of the most recent key changes no future victim; and
//! the page mapper never remaps a page. No memo names an L1-D line, so a
//! remote store's invalidation ([`Core::invalidate_d_line`]) leaves the
//! memos alone. The hooked instantiation (`HOOKS = true`) serves the
//! layers that must see every access — fault injection and the lockstep
//! oracle — and never reads the memos.
//!
//! Telemetry is not one of them. Its counter rows are read off the
//! counters at run end, which the memos keep exact. Its notes (the spans
//! and histograms) sit on L1 misses, TLB walks, write-buffer traffic,
//! context switches and faults, and what a memo skips is by construction
//! a TLB hit, or an L1-I hit that touches no buffer, so the skipped work
//! would have noted nothing. Every note passes one gate,
//! `Instruments::note`, which tests whether telemetry state is attached,
//! and fires identically in both instantiations.
//!
//! Nor is the profile recorder. A memo skip is a TLB hit, or an ITLB
//! plus L1-I hit, which the fold takes like any other hit. The recorder
//! writes one record per instruction that is not all-hit, and each flush
//! of the core's run as one run token. Every recorder site is gated on a
//! second const generic, `REC`, which a run sets exactly when a recorder
//! is attached, so a functional pass steps the bare kernel and a run
//! without a recorder carries none of its branches.

use gaas_cache::fault::{resolve, FaultEffect, Structure};
use gaas_cache::{
    CacheArray, L1DataCache, Line, LoadOutcome, MemorySystem, PageMapper, StoreOutcome, Tlb,
    WriteBuffer, WritePolicy,
};
use gaas_trace::{AccessKind, PhysAddr, Pid, TraceEvent, VirtAddr, PAGE_SHIFT};

use crate::config::{ConfigError, L2Config, SeededBug, SimConfig, WbBypass};
use crate::cpi::{proc_row, Counters, ProcCounters};
use crate::oracle::SimStructures;
use crate::sim::{Instruments, REF_L2_ACCESS, REF_MEM_CLEAN, REF_MEM_DIRTY};

/// Size of the core's internal translation-lookup cache (a software
/// accelerator, not an architectural structure).
const TCACHE_WAYS: usize = 256;

/// Coherence hook points of the data side, called by the stepping core:
/// a store after the L1-D took it, a load miss after its fill, and a
/// load hit. No hook runs before the array changes: a store's hook
/// reads the line's prior state off the store's outcome.
///
/// The CMP engine implements this with its MESI directory; the
/// single-CPU simulator uses [`NoCoherence`], which takes every default:
/// no protocol traffic. The step functions are generic over the
/// implementation, so the no-op hooks inline to nothing.
pub trait Coherence {
    /// Whether the bare kernel may fold all-hit steps into the core's
    /// `PendingRun` (see the module docs): only when every hook below is
    /// empty, since a folded step calls none of them.
    const FOLD: bool = false;

    /// Protocol action for a store to `line` (a page of `pid`) at time
    /// `t0`, after the stepping core's L1-D `l1d` took it with outcome
    /// `o` and before any write-buffer traffic; charges the core's
    /// `counters` and returns the stall. The line's state before the
    /// store is read off `o` (`hit`, `hit_written`), so no probe runs
    /// ahead of the array write.
    #[allow(clippy::too_many_arguments)]
    #[inline(always)]
    fn store(
        &mut self,
        _l1d: &L1DataCache,
        _counters: &mut Counters,
        _ux: &mut Uncore,
        _t0: u64,
        _line: PhysAddr,
        _pid: Pid,
        _o: &StoreOutcome,
    ) -> u64 {
        0
    }

    /// Protocol action for a load miss that just filled `line` (a page
    /// of `pid`) at time `t0`, before the write-buffer wait; charges the
    /// stepping core's `counters` and returns the stall.
    #[inline(always)]
    fn load_fill(
        &mut self,
        _counters: &mut Counters,
        _ux: &mut Uncore,
        _t0: u64,
        _line: PhysAddr,
        _pid: Pid,
    ) -> u64 {
        0
    }

    /// Observes a load hit on `line` (no cycles).
    #[inline(always)]
    fn load_hit(&mut self, _core: &Core, _line: PhysAddr) {}
}

/// The single-CPU [`Coherence`]: every hook is empty.
#[derive(Debug, Clone, Copy)]
pub struct NoCoherence;

impl Coherence for NoCoherence {
    const FOLD: bool = true;
}

/// [`NoCoherence`] without the fold: every step runs its rule, for
/// stepping events one at a time outside a run
/// ([`Simulator::step`](crate::Simulator::step)).
pub(crate) struct Unfolded;

impl Coherence for Unfolded {}

/// Cycles an L1 refill of `line_words` takes from an L2 hit: the access
/// time covers the first 4W beat; each further 4W beat adds a cycle.
fn l2_hit_cost(access_cycles: u32, line_words: u32) -> u64 {
    u64::from(access_cycles + line_words.div_ceil(4) - 1)
}

/// What each outcome costs under one configuration's timing knobs: the
/// TLB walk, the L1 refills from L2 or memory, and the write-buffer rules.
/// Its methods are the only code that prices an outcome, and the
/// [`Lane`] step rules are their only callers: a core's through the
/// [`Uncore`] that holds the shared memory systems, a co-pricer lane's
/// on the outcomes a functional pass recorded.
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

    /// Charges an L1 refill (`i_side` selects L1-I or L1-D) that starts
    /// at `start` and finds `outcome` in L2; returns its stall.
    ///
    /// An L2 hit costs the side's hit cost, charged to the L1 miss
    /// component. Of a memory miss's service time, the first hit-cost
    /// cycles go to the L1 miss component, the excess to the L2 miss
    /// component, and the dirty-buffer wait to its own. An exotic
    /// configuration can make the memory penalty smaller than the hit
    /// cost; the clamp keeps the components summing to the charged stall.
    pub(crate) fn refill(
        &mut self,
        c: &mut Counters,
        i_side: bool,
        start: u64,
        outcome: u8,
    ) -> u64 {
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

    /// The instruction (`i_side`) or data side of L2: one array when
    /// unified.
    fn l2_side(&mut self, i_side: bool) -> &mut CacheArray {
        match &mut self.l2 {
            L2Arrays::Unified(a) => a,
            L2Arrays::Split { i, .. } if i_side => i,
            L2Arrays::Split { d, .. } => d,
        }
    }

    /// Looks `addr` up in the `i_side` of L2, filling it on a miss;
    /// returns the L2 outcome code (see [`Timing`]) and, on a hit, whether
    /// the line was dirty.
    fn l2_lookup(&mut self, i_side: bool, addr: PhysAddr) -> (u8, bool) {
        let a = self.l2_side(i_side);
        match a.touch(addr).map(|l| l.dirty()) {
            Some(dirty) => (1, dirty),
            None => (2 + u8::from(a.fill(addr).is_some_and(|e| e.dirty)), false),
        }
    }

    /// Marks the data-side L2 line for `addr` dirty, if resident (a
    /// remote Modified copy flushed by the coherence protocol).
    pub fn l2_dirty_d(&mut self, addr: PhysAddr) {
        if let Some(mut line) = self.l2_side(false).touch(addr) {
            line.set_dirty(true);
        }
    }

    /// Plays out the L2-D side of one drained write in one probe: a hit
    /// marks the touched line dirty, a miss write-allocates it and marks
    /// the fill dirty. Returns the drain code (see [`Timing`]).
    fn l2_drain(&mut self, addr: PhysAddr) -> u8 {
        let a = self.l2_side(false);
        if let Some(mut line) = a.touch(addr) {
            line.set_dirty(true);
            return 0;
        }
        let code = 1 + u8::from(a.fill(addr).is_some_and(|e| e.dirty));
        a.peek_mut(addr).expect("filled above").set_dirty(true);
        code
    }

    /// Functional-clock cost of an L1 refill (`i_side` picks the L1)
    /// whose L2 lookup had `outcome` (see [`Core`]'s `fnow`): the
    /// reference L2 hit cost, or a memory miss at the reference penalties.
    fn ref_refill_cost(&self, i_side: bool, outcome: u8) -> u64 {
        match outcome {
            1 if i_side => self.ref_i_hit_cost,
            1 => self.ref_d_hit_cost,
            2 => REF_MEM_CLEAN,
            _ => REF_MEM_DIRTY,
        }
    }

    /// Real refill cycles for refetching a clean L1 line: the L2 hit cost,
    /// or a main-memory fetch filling L2. Demand miss-ratio counters stay
    /// untouched — recovery traffic is reported via the fault counters.
    fn refetch_from_l2(&mut self, i_side: bool, paddr: PhysAddr) -> u64 {
        let outcome = self.l2_lookup(i_side, paddr).0;
        self.timing.refetch(i_side, outcome)
    }
}

/// The L2 codes a profile recorded for one data step (see [`Timing`]):
/// the refill's outcome and the drains of the write-through word and of
/// the victim. A co-pricer lane's hooks return them as given; a live
/// core's hooks decide them on the L2 arrays, so [`Core`] passes zeros.
#[derive(Clone, Copy, Default)]
pub(crate) struct Codes {
    pub(crate) refill: u8,
    pub(crate) word: u8,
    pub(crate) victim: u8,
}

/// What a stepping core does in the middle of a [`Lane`] step rule: the
/// L2 lookups and drains that decide outcomes, the fault checks, the
/// coherence stall, and the notes. Every hook but [`StepHooks::timing`]
/// has an empty default that keeps the outcome it is given, so a
/// co-pricer lane's hooks are its [`Timing`] alone and its rules compile
/// to the bookkeeping and the costs. A live core's hooks are [`Live`].
pub(crate) trait StepHooks {
    /// The timing rules that price the step's outcomes.
    fn timing(&mut self) -> &mut Timing;

    /// Cycles the fault check of a hit on `s` (the `i_side` L1 or L2)
    /// charges to `lane`.
    fn check(&mut self, _lane: &mut Lane, _s: Structure, _i_side: bool) -> u64 {
        0
    }

    /// Notes what the step did to telemetry.
    fn note(&mut self, _note: Note<'_>) {}

    /// The L2 outcome of the fetch's L1-I refill (`recorded` by a
    /// profile).
    fn l2_i(&mut self, recorded: u8) -> u8 {
        recorded
    }

    /// The L2 outcome of an L1-D refill of `line`.
    fn l2_d(&mut self, _line: PhysAddr, recorded: u8) -> u8 {
        recorded
    }

    /// The drain code of a write of `addr` entering the write buffer.
    fn drain(&mut self, _addr: PhysAddr, recorded: u8) -> u8 {
        recorded
    }

    /// The coherence stall of the step's L1-D action (a load fill, or a
    /// store of `pid` with outcome `store`) at its bus time `t0`, charged
    /// to `lane`.
    fn coherence(
        &mut self,
        _lane: &mut Lane,
        _t0: u64,
        _pid: u8,
        _store: Option<&StoreOutcome>,
    ) -> u64 {
        0
    }
}

/// A co-pricer lane's hooks: its timing rules, every outcome as recorded.
impl StepHooks for Timing {
    #[inline(always)]
    fn timing(&mut self) -> &mut Timing {
        self
    }
}

/// What a live core notes to telemetry: a step rule's events (see
/// [`StepHooks::note`]), a context switch and a resolved fault. The sink
/// records each one's span (see `sim::TelemetryState::note`); the counts
/// are read off [`Counters`] at run end.
pub(crate) enum Note<'e> {
    /// A TLB walk of `dur` cycles from `start`.
    Walk { i_side: bool, start: u64, dur: u64 },
    /// An L1 refill stalled `dur` cycles from `start`, on an L2 `hit` or
    /// a memory miss.
    Refill {
        i_side: bool,
        hit: bool,
        start: u64,
        dur: u64,
    },
    /// An L1-D miss waited `dur` > 0 cycles from `start` for the write
    /// buffer.
    WbWait { start: u64, dur: u64 },
    /// A write entered the write buffer at `start`.
    Enqueue { start: u64, e: &'e Enqueued },
    /// The scheduler switched context at `now`.
    Switch { now: u64 },
    /// An injected fault resolved to `effect` at `now`.
    Fault { effect: FaultEffect, now: u64 },
}

/// A run of all-hit instructions of one PID (see the module docs): the
/// bare kernel folds each such instruction into one, the recorder writes
/// it as a run token, and [`Lane::flush`] charges it in closed form.
/// Every count is lane-independent; a flush scales the TLB misses by its
/// lane's walk cost.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub(crate) struct PendingRun {
    /// Instructions in the run.
    pub(crate) instructions: u64,
    pub(crate) cpu_stall: u64,
    pub(crate) loads: u64,
    pub(crate) stores: u64,
    pub(crate) itlb: u64,
    pub(crate) dtlb: u64,
    /// Stores that take the extra write cycle (one `l1_write_cycles`
    /// cycle each).
    pub(crate) extra_writes: u64,
    /// L1-D write misses that neither fetch nor enqueue (write-around
    /// policies): counted, zero cycles.
    pub(crate) store_misses: u64,
}

impl PendingRun {
    /// An all-hit fetch with `stall` CPU stall cycles.
    #[inline(always)]
    fn fetch(&mut self, stall: u64, itlb: bool) {
        self.instructions += 1;
        self.cpu_stall += stall;
        self.itlb += u64::from(itlb);
    }

    #[inline(always)]
    fn load(&mut self, dtlb: bool) {
        self.loads += 1;
        self.dtlb += u64::from(dtlb);
    }

    /// A store that neither fetches nor enqueues: a hit, or a write-around
    /// miss.
    #[inline(always)]
    fn store(&mut self, dtlb: bool, o: &StoreOutcome) {
        self.stores += 1;
        self.dtlb += u64::from(dtlb);
        self.store_misses += u64::from(!o.hit);
        self.extra_writes += u64::from(o.extra_cycle);
    }
}

/// A fetch that hit L1-I, held by the bare kernel until its data half
/// shows whether the instruction folds (see the module docs).
#[derive(Clone, Copy)]
pub(crate) struct HeldFetch {
    pid: u8,
    stall: u8,
    itlb_miss: bool,
}

/// The timing half of a core: its clock, counters, per-process rows and
/// write buffer. Its step rules are the only code that composes a step's
/// cycles and charges them: [`Core`] runs them on the outcomes its arrays
/// decide, and each co-pricer lane on the outcomes a profile recorded
/// (see the module docs).
pub(crate) struct Lane {
    pub(crate) now: u64,
    pub(crate) counters: Counters,
    /// Per-PID statistics (lazily grown).
    pub(crate) per_proc: Vec<ProcCounters>,
    pub(crate) wb: WriteBuffer,
}

impl Lane {
    pub(crate) fn new(cfg: &SimConfig) -> Self {
        Lane {
            now: 0,
            counters: Counters::new(),
            per_proc: Vec::new(),
            wb: WriteBuffer::new(cfg.write_buffer.depth),
        }
    }

    /// Charges the all-hit `run` of `pid` in closed form: lane time,
    /// counters and the per-process row each advance by one delta, `1 +
    /// stall` cycles per instruction plus the extra write cycles and the
    /// TLB walks at `timing`'s cost. Equal to running each instruction's
    /// rules, whose every other term is zero on a hit.
    #[inline]
    pub(crate) fn flush(&mut self, timing: &Timing, pid: u8, run: &PendingRun) {
        let tlb_cycles = (run.itlb + run.dtlb) * timing.tlb_penalty();
        let cycles = run.instructions + run.cpu_stall + run.extra_writes + tlb_cycles;
        let c = &mut self.counters;
        c.instructions += run.instructions;
        c.loads += run.loads;
        c.stores += run.stores;
        c.cpu_stall_cycles += run.cpu_stall;
        c.itlb_misses += run.itlb;
        c.dtlb_misses += run.dtlb;
        c.tlb_miss_cycles += tlb_cycles;
        c.l1_write_cycles += run.extra_writes;
        c.l1d_write_misses += run.store_misses;
        self.now += cycles;
        let p = proc_row(&mut self.per_proc, pid);
        p.instructions += run.instructions;
        p.loads += run.loads;
        p.stores += run.stores;
        p.cycles += cycles;
        p.l1d_misses += run.store_misses;
    }

    /// Steps one instruction fetch of `pid` with `stall` CPU stall
    /// cycles: the ITLB walk on `itlb_miss`, then the fetch `outcome`. 0
    /// is an L1-I hit; any other code is a miss, which waits for the
    /// write buffer and refills on the L2 outcome `h` decides.
    #[inline(always)]
    pub(crate) fn ifetch<H: StepHooks>(
        &mut self,
        h: &mut H,
        pid: u8,
        stall: u64,
        itlb_miss: bool,
        outcome: u8,
    ) {
        self.counters.instructions += 1;
        self.counters.cpu_stall_cycles += stall;
        let mut cycles = 1 + stall + self.tlb(h, true, itlb_miss);
        let mut l2 = 0;
        if outcome == 0 {
            cycles += h.check(self, Structure::L1I, true);
        } else {
            self.counters.l1i_misses += 1;
            let start = self.now + cycles;
            let wait = h
                .timing()
                .i_miss_wait(&mut self.wb, &mut self.counters, start);
            l2 = h.l2_i(outcome);
            cycles += wait + self.refill(h, true, start + wait, l2);
        }
        let p = self.retire(pid, cycles, l2);
        p.instructions += 1;
        p.l1i_misses += u64::from(outcome != 0);
    }

    /// Steps one load of `pid`: the DTLB walk on `dtlb_miss`, then the
    /// L1-D outcome `o`. A miss takes its coherence stall, then fetches
    /// the line (the L2 `codes` as recorded).
    #[inline(always)]
    pub(crate) fn load<H: StepHooks>(
        &mut self,
        h: &mut H,
        pid: u8,
        dtlb_miss: bool,
        o: &LoadOutcome,
        codes: Codes,
    ) {
        self.counters.loads += 1;
        let mut cycles = self.tlb(h, false, dtlb_miss);
        let mut l2 = 0;
        if let Some(line) = o.fetch {
            self.counters.l1d_read_misses += 1;
            cycles += h.coherence(self, self.now + cycles, pid, None);
            let (t, victim) = (self.now + cycles, o.writeback_victim);
            let stall;
            (stall, l2) = self.fetch_d_line(h, t, line, o.replaced_written_line, victim, codes);
            cycles += stall;
        } else {
            cycles += h.check(self, Structure::L1D, false);
        }
        let p = self.retire(pid, cycles, l2);
        p.loads += 1;
        p.l1d_misses += u64::from(!o.hit);
    }

    /// Steps one store of `pid`: the DTLB walk on `dtlb_miss`, then the
    /// L1-D outcome `o` — its extra write cycle, its coherence stall, the
    /// write-through word's enqueue, then a write-allocate fetch or a
    /// victim's enqueue (the L2 `codes` as recorded).
    #[inline(always)]
    pub(crate) fn store<H: StepHooks>(
        &mut self,
        h: &mut H,
        pid: u8,
        dtlb_miss: bool,
        o: &StoreOutcome,
        codes: Codes,
    ) {
        self.counters.stores += 1;
        let mut cycles = self.tlb(h, false, dtlb_miss);
        if o.hit {
            cycles += h.check(self, Structure::L1D, false);
        } else {
            self.counters.l1d_write_misses += 1;
        }
        if o.extra_cycle {
            self.counters.l1_write_cycles += 1;
            cycles += 1;
        }
        cycles += h.coherence(self, self.now + cycles, pid, Some(o));
        if let Some(word) = o.wb_word {
            cycles += self.enqueue(h, self.now + cycles, word, codes.word);
        }
        let (t, victim) = (self.now + cycles, o.writeback_victim);
        let (mut stall, mut l2) = (0, 0);
        if let Some(line) = o.fetch {
            (stall, l2) = self.fetch_d_line(h, t, line, o.replaced_written_line, victim, codes);
        } else if let Some(addr) = victim {
            stall = self.enqueue(h, t, addr, codes.victim);
        }
        cycles += stall;
        let p = self.retire(pid, cycles, l2);
        p.stores += 1;
        p.l1d_misses += u64::from(!o.hit);
    }

    /// The TLB side of a step: a miss walks (noted at the step's start),
    /// a hit takes its fault check. Returns the cycles.
    #[inline(always)]
    fn tlb<H: StepHooks>(&mut self, h: &mut H, i_side: bool, miss: bool) -> u64 {
        if !miss {
            return h.check(self, Structure::Tlb, i_side);
        }
        let dur = h.timing().tlb_walk(&mut self.counters, i_side);
        let start = self.now;
        h.note(Note::Walk { i_side, start, dur });
        dur
    }

    /// An L1 refill from `start` that found `outcome` in L2; returns its
    /// stall, the fault check of an L2 hit included.
    #[inline(always)]
    fn refill<H: StepHooks>(&mut self, h: &mut H, i_side: bool, start: u64, outcome: u8) -> u64 {
        let dur = h
            .timing()
            .refill(&mut self.counters, i_side, start, outcome);
        let hit = outcome == 1;
        h.note(Note::Refill {
            i_side,
            hit,
            start,
            dur,
        });
        dur + if hit {
            h.check(self, Structure::L2, i_side)
        } else {
            0
        }
    }

    /// Fetches the L1-D line `line` for a read miss or a write-allocate,
    /// starting at `start`: the fetch waits on previously pending writes
    /// per the bypass rule, while the `victim` it displaces drains in the
    /// background during the refill (that is what the buffer is for).
    /// Returns the stall and the refill's L2 outcome.
    #[inline(always)]
    fn fetch_d_line<H: StepHooks>(
        &mut self,
        h: &mut H,
        start: u64,
        line: PhysAddr,
        replaced_written: bool,
        victim: Option<PhysAddr>,
        codes: Codes,
    ) -> (u64, u8) {
        let c = &mut self.counters;
        let wait = h
            .timing()
            .d_miss_wait(&mut self.wb, c, start, line, replaced_written);
        if wait > 0 {
            h.note(Note::WbWait { start, dur: wait });
        }
        let mut t = start + wait;
        if let Some(addr) = victim {
            t += self.enqueue(h, t, addr, codes.victim);
        }
        let outcome = h.l2_d(line, codes.refill);
        (t - start + self.refill(h, false, t, outcome), outcome)
    }

    /// Enqueues a write of `addr` at `start` ([`Timing::enqueue`] with
    /// the drain's L2 side played out first). Returns the stall.
    #[inline(always)]
    fn enqueue<H: StepHooks>(&mut self, h: &mut H, start: u64, addr: PhysAddr, code: u8) -> u64 {
        let drain = h.drain(addr, code);
        let e = h
            .timing()
            .enqueue(&mut self.wb, &mut self.counters, start, addr, drain);
        h.note(Note::Enqueue { start, e: &e });
        e.stall + h.check(self, Structure::WriteBuffer, false)
    }

    /// Ends a step of `pid` that took `cycles` and whose refill had L2
    /// outcome `l2` (0 for none): advances the clock and charges the
    /// process's row, which it returns for the step's own counts.
    #[inline(always)]
    fn retire(&mut self, pid: u8, cycles: u64, l2: u8) -> &mut ProcCounters {
        self.now += cycles;
        let p = proc_row(&mut self.per_proc, pid);
        p.cycles += cycles;
        p.l2_misses += u64::from(l2 >= 2);
        p
    }
}

/// A live core's [`StepHooks`]: the L2 lookups and drains that decide
/// outcomes, the fault checks (`HOOKS`), the coherence actions, and the
/// telemetry and recorder (`REC`) notes. It borrows the core's parts
/// outside its [`Lane`] (see [`Core::live`]).
struct Live<'a, const HOOKS: bool, const REC: bool, C: Coherence> {
    ux: &'a mut Uncore,
    fnow: &'a mut u64,
    l1i: &'a mut CacheArray,
    l1d: &'a L1DataCache,
    coh: &'a mut C,
    /// The step's physical address.
    paddr: PhysAddr,
    /// Whether the line the last refill hit in L2 was dirty.
    l2_dirty: bool,
}

impl<const HOOKS: bool, const REC: bool, C: Coherence> StepHooks for Live<'_, HOOKS, REC, C> {
    #[inline(always)]
    fn timing(&mut self) -> &mut Timing {
        &mut self.ux.timing
    }

    /// Faults are checked when an access *hits* the struck structure, the
    /// moment a corrupted entry would be consumed (flips in lines never
    /// referenced again are architecturally silent); background drains
    /// are not checked. With injection off the check returns 0 without
    /// touching the PRNG, so the fault-free path is bit-identical.
    ///
    /// A dirty entry is the only copy of its data: TLB entries and
    /// instruction lines never are, in-flight store data always is, and a
    /// dirty L1-D line is under write-back only (write-through streams
    /// every write out, so its L1 copies are always clean, the written
    /// mark notwithstanding). A parity refetch re-walks the page tables,
    /// reads an L1 line again from L2, or refetches a clean L2 line from
    /// main memory in place.
    #[inline(always)]
    fn check(&mut self, lane: &mut Lane, s: Structure, i_side: bool) -> u64 {
        if !(HOOKS && self.ux.ins.fault.is_some()) {
            return 0; // skip the dirty-line peek along with the check
        }
        let dirty = match s {
            Structure::L1D => {
                !self.l1d.policy().is_write_through()
                    && self.l1d.array().peek(self.paddr).is_some_and(|l| l.dirty)
            }
            Structure::L2 => self.l2_dirty,
            Structure::WriteBuffer => true,
            Structure::L1I | Structure::Tlb => false,
        };
        self.fault(lane, s, i_side, dirty)
    }

    #[inline(always)]
    fn note(&mut self, note: Note<'_>) {
        self.ux.ins.note(note);
    }

    #[inline(always)]
    fn l2_i(&mut self, _: u8) -> u8 {
        self.l1i.fill(self.paddr);
        self.l2_refill(true, self.paddr)
    }

    #[inline(always)]
    fn l2_d(&mut self, line: PhysAddr, _: u8) -> u8 {
        self.l2_refill(false, line)
    }

    #[inline(always)]
    fn drain(&mut self, addr: PhysAddr, _: u8) -> u8 {
        let code = self.ux.l2_drain(addr);
        if REC {
            self.ux.ins.recorder().push_drain(code);
        }
        code
    }

    #[inline(always)]
    fn coherence(
        &mut self,
        lane: &mut Lane,
        t0: u64,
        pid: u8,
        store: Option<&StoreOutcome>,
    ) -> u64 {
        let line = self.l1d.array().geometry().line_base(self.paddr);
        let (c, ux, pid) = (&mut lane.counters, &mut *self.ux, Pid::new(pid));
        match store {
            Some(o) => self.coh.store(self.l1d, c, ux, t0, line, pid, o),
            None => self.coh.load_fill(c, ux, t0, line, pid),
        }
    }
}

impl<const HOOKS: bool, const REC: bool, C: Coherence> Live<'_, HOOKS, REC, C> {
    /// Looks the L1 refill of `line` up in L2 (`i_side` picks the side),
    /// filling it on a miss, and advances the functional clock by its
    /// reference cost; returns the outcome code, which the recorder
    /// notes.
    #[inline(always)]
    fn l2_refill(&mut self, i_side: bool, line: PhysAddr) -> u8 {
        let ux = &mut *self.ux;
        let (outcome, dirty) = ux.l2_lookup(i_side, line);
        *self.fnow += ux.ref_refill_cost(i_side, outcome);
        if REC {
            ux.ins.recorder().set_outcome(i_side, outcome);
        }
        self.l2_dirty = dirty;
        outcome
    }

    /// Consults the injector for one hit on `s` (see [`Live::check`]) and
    /// applies what fires: the fault counters, its telemetry note, the
    /// recovery cycles and the configured machine-check response.
    /// Returns the stall cycles the faulting access absorbs.
    fn fault(&mut self, lane: &mut Lane, s: Structure, i_side: bool, dirty: bool) -> u64 {
        let fs = self.ux.ins.fault.as_mut().expect("checked by `check`");
        let Some(ev) = fs.injector.check(s, fs.sets[s.index()]) else {
            return 0;
        };
        let c = &mut lane.counters;
        c.faults_injected += 1;
        let effect = resolve(fs.protection.get(s), dirty, ev.multi_bit);
        let ux = &mut *self.ux;
        let refetch_cost = match (effect, s) {
            (FaultEffect::Refetch, Structure::Tlb) => ux.timing.tlb_penalty(),
            (FaultEffect::Refetch, Structure::L1I | Structure::L1D) => {
                ux.refetch_from_l2(i_side, self.paddr)
            }
            (FaultEffect::Refetch, Structure::L2) => ux.timing.refetch(i_side, 2),
            _ => 0,
        };
        let ins = &mut ux.ins;
        ins.note(Note::Fault {
            effect,
            now: lane.now,
        });
        match effect {
            FaultEffect::Silent => {
                c.faults_silent += 1;
                0
            }
            FaultEffect::Correct => {
                c.faults_corrected += 1;
                let p = ins.fault.as_ref().map_or(0, |f| f.ecc_penalty);
                c.recovery_cycles += p;
                p
            }
            FaultEffect::Refetch => {
                c.fault_refetches += 1;
                c.recovery_cycles += refetch_cost;
                refetch_cost
            }
            FaultEffect::MachineCheck => {
                c.machine_checks += 1;
                if ins.fault.as_ref().is_some_and(|f| f.halt) {
                    // Halt at the current instruction boundary; the run
                    // loop surfaces the error.
                    ins.pending_mc = Some(ev);
                    0
                } else {
                    // Checkpoint restart: deterministic re-execution from
                    // the last checkpoint costs the cycles since it, and
                    // the restart point becomes the implicit checkpoint.
                    let rollback = lane.now.saturating_sub(ins.last_checkpoint_cycle);
                    c.recovery_cycles += rollback;
                    ins.last_checkpoint_cycle = lane.now;
                    rollback
                }
            }
        }
    }
}

/// One processor's private state and its per-event steps (see the module
/// docs).
pub struct Core {
    /// The timing half: clock, counters, per-PID rows and write buffer.
    pub(crate) lane: Lane,
    /// The all-hit instructions of `run_pid` folded since the last flush
    /// (see the module docs); always empty outside the bare single-CPU
    /// kernel.
    run: PendingRun,
    run_pid: u8,
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

    l1i: CacheArray,
    l1d: L1DataCache,
    itlb: Tlb,
    dtlb: Tlb,
    tcache: Vec<(u64, u64)>,

    /// Virtual line of the immediately preceding ifetch (`u64::MAX` =
    /// none). A fetch to the same line is a guaranteed ITLB + L1-I hit —
    /// only ifetches touch those structures, and the previous fetch left
    /// both entries resident — so the uninstrumented path skips the
    /// probes entirely. Skipping the duplicate LRU touch is exact: the
    /// touched way already holds its set's maximum timestamp, so every
    /// future victim choice is unchanged.
    last_ifetch_vline: u64,
    /// The fetch side's and the data side's page memos: `(virtual page,
    /// physical frame)` of that side's immediately preceding access
    /// (`u64::MAX` page = none). The page key carries the PID bits, as
    /// [`Tlb::access`]'s does. An access on the same page is a guaranteed
    /// TLB hit by the same argument, and its frame is the memo's (the
    /// page mapper never remaps a page).
    i_page: (u64, u64),
    d_page: (u64, u64),
    /// log2(line words) of L1-I (fetch memo key construction).
    i_line_shift: u32,
}

impl Core {
    /// Builds an idle core for `cfg` (cold caches, clocks at zero).
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] when an L1 geometry is invalid.
    pub fn new(cfg: &SimConfig) -> Result<Self, ConfigError> {
        Ok(Core {
            lane: Lane::new(cfg),
            run: PendingRun::default(),
            run_pid: 0,
            fnow: 0,
            l1i: CacheArray::new(cfg.l1i.geometry()?),
            l1d: L1DataCache::new(cfg.l1d.geometry()?, cfg.policy),
            itlb: Tlb::instruction(),
            dtlb: Tlb::data(),
            tcache: vec![(u64::MAX, 0); TCACHE_WAYS],
            last_ifetch_vline: u64::MAX,
            i_page: (u64::MAX, 0),
            d_page: (u64::MAX, 0),
            i_line_shift: cfg.l1i.line_words.trailing_zeros(),
        })
    }

    /// Counters, mutably: for the coherence actions, which the core's
    /// own rules do not charge.
    pub fn counters_mut(&mut self) -> &mut Counters {
        &mut self.lane.counters
    }

    /// The primary data cache.
    pub fn l1d(&self) -> &L1DataCache {
        &self.l1d
    }

    /// Invalidates the L1-D line holding `line` on behalf of another core
    /// (a coherence invalidation), returning the evicted line if it was
    /// resident. No memo names an L1-D line, so none needs clearing.
    pub fn invalidate_d_line(&mut self, line: PhysAddr) -> Option<Line> {
        self.l1d.array_mut().invalidate(line)
    }

    /// How often the ITLB and the DTLB have been probed
    /// ([`Tlb::accesses`]).
    #[cfg(test)]
    pub(crate) fn tlb_probes(&self) -> (u64, u64) {
        (self.itlb.accesses(), self.dtlb.accesses())
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
            wb: &self.lane.wb,
        }
    }

    /// `addr`'s translation when the `i_side` (fetch) or data side's page
    /// memo holds its page: the bare step's rule for skipping the TLB
    /// probe and the translation.
    #[inline(always)]
    fn memo_translation(&self, i_side: bool, addr: VirtAddr) -> Option<PhysAddr> {
        let (vpage, frame) = if i_side { self.i_page } else { self.d_page };
        (addr.raw() >> PAGE_SHIFT == vpage)
            .then(|| PhysAddr::new((frame << PAGE_SHIFT) | addr.page_offset()))
    }

    /// `addr`'s translation when the bare step would find it without the
    /// page mapper: in the side's page memo, or else in the translation
    /// cache (the probe [`Core::translate`] makes, without the mapper
    /// fallback).
    #[inline(always)]
    fn known_translation(&self, i_side: bool, addr: VirtAddr) -> Option<PhysAddr> {
        self.memo_translation(i_side, addr).or_else(|| {
            let key = addr.raw() >> PAGE_SHIFT;
            let (k, ppn) = self.tcache[(key as usize) & (TCACHE_WAYS - 1)];
            (k == key).then(|| PhysAddr::new((ppn << PAGE_SHIFT) | addr.page_offset()))
        })
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
    /// That holds when the fetch rides the fetch memo or hits L1-I, and
    /// the data reference, if any, is an L1-D load hit or a write-back
    /// store hit, each through a translation the page memo or the
    /// translation cache holds (the step's own rule). TLB walks stay
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
                .known_translation(true, ifetch.addr)
                .is_some_and(|p| self.l1i.contains(p))
        {
            return false;
        }
        let Some(d) = data else {
            return true;
        };
        match d.kind {
            AccessKind::Load => self
                .known_translation(false, d.addr)
                .is_some_and(|p| self.l1d.load_would_hit(p)),
            AccessKind::Store => {
                self.l1d.policy() == WritePolicy::WriteBack
                    && self
                        .known_translation(false, d.addr)
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
        let actual = self.lane.counters.since(&before);
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
                SeededBug::DropWriteBufferEntry => self.lane.wb.drop_youngest().is_some(),
            };
            if applied {
                ds.set_bug_applied();
            }
        }
        ux.ins.diff = Some(ds);
    }

    /// Splits the core into its timing half and the [`Live`] hooks that
    /// step it: the step at `paddr`.
    #[inline(always)]
    fn live<'a, const HOOKS: bool, const REC: bool, C: Coherence>(
        &'a mut self,
        ux: &'a mut Uncore,
        coh: &'a mut C,
        paddr: PhysAddr,
    ) -> (&'a mut Lane, Live<'a, HOOKS, REC, C>) {
        let hooks = Live {
            ux,
            fnow: &mut self.fnow,
            l1i: &mut self.l1i,
            l1d: &self.l1d,
            coh,
            paddr,
            l2_dirty: false,
        };
        (&mut self.lane, hooks)
    }

    /// Instructions this core has retired, its unflushed run included:
    /// what the run loop's polls count.
    #[inline(always)]
    pub(crate) fn retired(&self) -> u64 {
        self.lane.counters.instructions + self.run.instructions
    }

    /// Charges the core's run to its lane ([`Lane::flush`]) and, under
    /// `REC`, writes it as the recorder's run token. Every reader of the
    /// lane calls this first.
    #[inline(always)]
    pub(crate) fn flush_run<const REC: bool>(&mut self, ux: &mut Uncore) {
        if self.run.instructions == 0 {
            return;
        }
        let run = std::mem::take(&mut self.run);
        self.lane.flush(&ux.timing, self.run_pid, &run);
        if REC {
            ux.ins.recorder().write_run(self.run_pid, &run);
        }
    }

    /// Adds the all-hit instruction that `f` starts to the run, flushing
    /// the run first when `f` is of another PID.
    #[inline(always)]
    fn fold<const REC: bool>(&mut self, ux: &mut Uncore, f: HeldFetch) {
        if f.pid != self.run_pid {
            self.flush_run::<REC>(ux);
            self.run_pid = f.pid;
        }
        self.run.fetch(u64::from(f.stall), f.itlb_miss);
    }

    /// Steps the fetch hit `f` by its rule (noting it to the recorder
    /// under `REC`): the core's run is flushed, or `f` is not held.
    #[inline(always)]
    fn fetch_hit<const REC: bool>(&mut self, ux: &mut Uncore, f: HeldFetch) {
        if REC {
            ux.ins.recorder().begin_instr(f.pid, f.stall, f.itlb_miss);
        }
        let stall = u64::from(f.stall);
        self.lane
            .ifetch(&mut ux.timing, f.pid, stall, f.itlb_miss, 0);
    }

    /// Whether a TLB outcome may fold: a hit, or a walk while no
    /// telemetry waits to note it at the lane's time.
    #[inline(always)]
    fn tlb_folds(ux: &Uncore, hit: bool) -> bool {
        hit || ux.ins.telem.is_none()
    }

    // ---- the per-event steps ----
    //
    // Each step decides its outcomes on the core's TLBs (or its page
    // memo) and L1 arrays, then folds them into the core's run (the bare
    // single-CPU kernel, on all-hit outcomes) or notes them to the
    // recorder (`REC`) and runs its lane's rule with `Live` hooks. A fetch
    // hit runs its rule with the co-pricer's hooks, the timing rules
    // alone: on a hit with `HOOKS` off, `Live` would do nothing either.

    /// Steps one scheduled instruction: its fetch `ifetch`, then its data
    /// reference `data`, if any. `HOOKS = true` runs the every-event
    /// layers (fault injection, the oracle) and skips the memos and the
    /// fold; `false` is the bare kernel, which folds all-hit instructions
    /// when `C::FOLD`. `REC = true` notes every instruction to the
    /// attached profile recorder. Telemetry notes fire in every
    /// instantiation.
    #[inline]
    pub(crate) fn step_instruction<const HOOKS: bool, const REC: bool, C: Coherence>(
        &mut self,
        ux: &mut Uncore,
        coh: &mut C,
        ifetch: &TraceEvent,
        data: Option<&TraceEvent>,
    ) {
        let held = self.step_ifetch::<HOOKS, REC, C>(ux, ifetch);
        match data {
            Some(d) => self.step_data::<HOOKS, REC, C>(ux, coh, d, held),
            None => {
                if let Some(f) = held {
                    self.fold::<REC>(ux, f);
                }
            }
        }
    }

    /// Steps one instruction fetch (see [`Core::step_instruction`] for
    /// `HOOKS`, `REC` and `C`). Returns the fetch when it is held for the
    /// fold.
    #[inline]
    fn step_ifetch<const HOOKS: bool, const REC: bool, C: Coherence>(
        &mut self,
        ux: &mut Uncore,
        ev: &TraceEvent,
    ) -> Option<HeldFetch> {
        let fold = !HOOKS && C::FOLD;
        let (pid, stall) = (ev.addr.pid().raw(), ev.stall_cycles);
        self.fnow += 1 + u64::from(stall);
        // Uninstrumented fast path: a fetch from the line the previous
        // fetch ended on is a guaranteed ITLB + L1-I hit (only ifetches
        // touch either structure), and the hit path consumes the physical
        // address nowhere, so the probes are skipped outright.
        let vline = ev.addr.raw() >> self.i_line_shift;
        let mut f = HeldFetch {
            pid,
            stall,
            itlb_miss: false,
        };
        if !HOOKS && vline == self.last_ifetch_vline {
            if fold {
                return Some(f);
            }
            self.fetch_hit::<REC>(ux, f);
            return None;
        }
        let diff_before = (HOOKS && ux.ins.diff.is_some()).then_some(self.lane.counters);
        let (itlb_hit, paddr) = self.page::<HOOKS>(ux, true, ev.addr);
        f.itlb_miss = !itlb_hit;
        let outcome = u8::from(self.l1i.touch(paddr).is_none());
        if !HOOKS {
            // Hit or refill, the line is resident once the step is done;
            // arm the memo. The hooked instantiations never read it
            // (faults and the canary can invalidate lines behind it).
            self.last_ifetch_vline = vline;
        }
        if fold {
            if outcome == 0 && Self::tlb_folds(ux, itlb_hit) {
                return Some(f);
            }
            self.flush_run::<REC>(ux);
        }
        if REC {
            ux.ins.recorder().begin_instr(pid, stall, f.itlb_miss);
        }
        let coh = &mut NoCoherence;
        let (lane, mut h) = self.live::<HOOKS, REC, _>(ux, coh, paddr);
        lane.ifetch(&mut h, pid, u64::from(stall), f.itlb_miss, outcome);
        if let Some(before) = diff_before {
            self.diff_note(ux, ev, paddr, before);
        }
        None
    }

    /// Steps one load or store (see [`Core::step_instruction`] for
    /// `HOOKS`, `REC` and `C`), the second half of the instruction whose
    /// fetch is `held`, if the fold holds it.
    #[inline]
    pub(crate) fn step_data<const HOOKS: bool, const REC: bool, C: Coherence>(
        &mut self,
        ux: &mut Uncore,
        coh: &mut C,
        ev: &TraceEvent,
        held: Option<HeldFetch>,
    ) {
        // A constant `None` off the fold, so those instantiations carry
        // none of its branches.
        let held = held.filter(|_| !HOOKS && C::FOLD);
        match ev.kind {
            AccessKind::Load => self.step_load::<HOOKS, REC, C>(ux, coh, ev, held),
            AccessKind::Store => self.step_store::<HOOKS, REC, C>(ux, coh, ev, held),
            AccessKind::IFetch => unreachable!("data step on a fetch"),
        }
    }

    /// Whether an access to `addr` on the `i_side` (fetch) or data side
    /// hits its TLB, and its physical address. The bare kernel takes a
    /// hit and the memo's frame when `addr` is on the side's page memo;
    /// otherwise the access probes the TLB, translates and (bare kernel
    /// only) re-arms the memo.
    #[inline(always)]
    fn page<const HOOKS: bool>(
        &mut self,
        ux: &mut Uncore,
        i_side: bool,
        addr: VirtAddr,
    ) -> (bool, PhysAddr) {
        if !HOOKS {
            if let Some(paddr) = self.memo_translation(i_side, addr) {
                return (true, paddr);
            }
        }
        let paddr = self.translate(ux, addr);
        let (tlb, memo) = if i_side {
            (&mut self.itlb, &mut self.i_page)
        } else {
            (&mut self.dtlb, &mut self.d_page)
        };
        if !HOOKS {
            *memo = (addr.raw() >> PAGE_SHIFT, paddr.ppn());
        }
        (tlb.access(addr), paddr)
    }

    #[inline]
    fn step_load<const HOOKS: bool, const REC: bool, C: Coherence>(
        &mut self,
        ux: &mut Uncore,
        coh: &mut C,
        ev: &TraceEvent,
        held: Option<HeldFetch>,
    ) {
        let pid = ev.addr.pid().raw();
        let diff_before = (HOOKS && ux.ins.diff.is_some()).then_some(self.lane.counters);
        let (dtlb_hit, paddr) = self.page::<HOOKS>(ux, false, ev.addr);
        let outcome = self.l1d.load(paddr);
        if let Some(f) = held {
            if outcome.fetch.is_none() && Self::tlb_folds(ux, dtlb_hit) {
                self.fold::<REC>(ux, f);
                self.run.load(!dtlb_hit);
                return;
            }
            self.flush_run::<REC>(ux);
            self.fetch_hit::<REC>(ux, f);
        }
        if REC {
            ux.ins.recorder().begin_load(!dtlb_hit, &outcome);
        }
        if outcome.hit {
            coh.load_hit(self, self.l1d.array().geometry().line_base(paddr));
        }
        let (lane, mut h) = self.live::<HOOKS, REC, C>(ux, coh, paddr);
        lane.load(&mut h, pid, !dtlb_hit, &outcome, Codes::default());
        if let Some(before) = diff_before {
            self.diff_note(ux, ev, paddr, before);
        }
    }

    #[inline]
    fn step_store<const HOOKS: bool, const REC: bool, C: Coherence>(
        &mut self,
        ux: &mut Uncore,
        coh: &mut C,
        ev: &TraceEvent,
        held: Option<HeldFetch>,
    ) {
        let pid = ev.addr.pid().raw();
        let diff_before = (HOOKS && ux.ins.diff.is_some()).then_some(self.lane.counters);
        let (dtlb_hit, paddr) = self.page::<HOOKS>(ux, false, ev.addr);
        let outcome = self.l1d.store(paddr, ev.partial_word);
        self.fnow += u64::from(outcome.extra_cycle);
        if let Some(f) = held {
            let o = &outcome;
            let local = o.fetch.is_none() && o.wb_word.is_none() && o.writeback_victim.is_none();
            if local && Self::tlb_folds(ux, dtlb_hit) {
                self.fold::<REC>(ux, f);
                self.run.store(!dtlb_hit, o);
                return;
            }
            self.flush_run::<REC>(ux);
            self.fetch_hit::<REC>(ux, f);
        }
        if REC {
            ux.ins.recorder().begin_store(!dtlb_hit, &outcome);
        }
        let (lane, mut h) = self.live::<HOOKS, REC, C>(ux, coh, paddr);
        lane.store(&mut h, pid, !dtlb_hit, &outcome, Codes::default());
        if let Some(before) = diff_before {
            self.diff_note(ux, ev, paddr, before);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn drain_codes_and_the_drained_line_on_unified_and_split_l2() {
        // Direct-mapped L2-D sides of 256 KW and 128 KW: `a` and `b` share a set.
        let (a, b) = (PhysAddr::new(0x200), PhysAddr::new(0x200 + 262_144));
        for l2 in [L2Config::base(), L2Config::split_even(262_144, 1, 6)] {
            let mut ux = Uncore::new(&SimConfig {
                l2,
                ..SimConfig::baseline()
            })
            .expect("valid");
            let dirty = |ux: &Uncore, x| match &ux.l2 {
                L2Arrays::Unified(d) | L2Arrays::Split { d, .. } => d.peek(x).map(|l| l.dirty),
            };
            ux.refetch_from_l2(false, a); // a resident and clean
            assert_eq!(ux.l2_drain(a), 0, "{l2:?}: hit");
            assert_eq!(dirty(&ux, a), Some(true), "{l2:?}: the hit line is dirty");
            assert_eq!(ux.l2_drain(b), 2, "{l2:?}: miss over the dirty a");
            assert_eq!(dirty(&ux, b), Some(true), "{l2:?}: the fill is dirty");
            ux.refetch_from_l2(false, a); // a resident and clean again
            assert_eq!(ux.l2_drain(b), 1, "{l2:?}: miss over the clean a");
            assert_eq!(dirty(&ux, b), Some(true), "{l2:?}: the fill is dirty");
        }
    }
}
