//! CPI accounting (§3, §4).
//!
//! The paper's metric:
//!
//! ```text
//! CPI = 1 + (CPU_stall_cycles + memory_stall_cycles) / instruction_count
//! ```
//!
//! Fig. 4 decomposes the memory stalls into components; [`Counters`]
//! accumulates every component as exact cycle counts during simulation, and
//! [`CpiBreakdown`] converts them to per-instruction contributions. The
//! invariant `total cycles = instructions + Σ components` is maintained by
//! construction and checked in tests.

use gaas_trace::Pid;

/// `[(name, &mut field)]` for every listed field of `$v: &mut $ty`,
/// through an exhaustive destructure (a field left out does not compile).
macro_rules! named_fields {
    ($ty:ident = $v:expr; $($f:ident),* $(,)?) => {{
        let $ty { $($f),* } = $v;
        [$((stringify!($f), $f)),*]
    }};
}

/// Raw event and cycle counters accumulated by a simulation run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counters {
    /// Instructions executed.
    pub instructions: u64,
    /// Data loads executed.
    pub loads: u64,
    /// Data stores executed.
    pub stores: u64,
    /// Voluntary-syscall context switches taken.
    pub syscall_switches: u64,
    /// Time-slice context switches taken.
    pub slice_switches: u64,

    /// L1 instruction-cache misses.
    pub l1i_misses: u64,
    /// L1 data-cache read (load) misses.
    pub l1d_read_misses: u64,
    /// L1 data-cache write misses (policy-specific meaning).
    pub l1d_write_misses: u64,
    /// L2 accesses on the instruction side (L1-I refills).
    pub l2i_accesses: u64,
    /// L2 misses on the instruction side.
    pub l2i_misses: u64,
    /// L2 accesses on the data side (L1-D refills; excludes drains).
    pub l2d_accesses: u64,
    /// L2 misses on the data side (excludes drains).
    pub l2d_misses: u64,
    /// Write-buffer drain writes into L2.
    pub l2_drain_writes: u64,
    /// Drain writes that missed in L2 (write-allocate from memory).
    pub l2_drain_misses: u64,
    /// Cycles the L2 data port was occupied by write-buffer drains (the
    /// bandwidth the write policy consumes in the background).
    pub l2_drain_busy_cycles: u64,
    /// Instruction-TLB misses.
    pub itlb_misses: u64,
    /// Data-TLB misses.
    pub dtlb_misses: u64,

    /// Processor stall cycles (load/branch/FP interlocks from the trace).
    pub cpu_stall_cycles: u64,
    /// Cycles lost servicing L1-I misses (at L2-hit-equivalent cost).
    pub l1i_miss_cycles: u64,
    /// Cycles lost servicing L1-D read misses (at L2-hit-equivalent cost).
    pub l1d_miss_cycles: u64,
    /// Extra cycles of multi-cycle writes (2-cycle hits or misses).
    pub l1_write_cycles: u64,
    /// Cycles stalled on the write buffer (waiting for empty, a slot, or a
    /// matched/flushed entry).
    pub wb_wait_cycles: u64,
    /// Excess cycles of instruction-side L2 misses (beyond the hit cost).
    pub l2i_miss_cycles: u64,
    /// Excess cycles of data-side L2 misses (beyond the hit cost).
    pub l2d_miss_cycles: u64,
    /// Cycles waiting for a busy L2-D dirty buffer.
    pub dirty_buffer_wait_cycles: u64,
    /// Cycles charged to TLB misses (0 under the paper's accounting).
    pub tlb_miss_cycles: u64,
    /// Cycles lost to soft-error recovery: parity-triggered refetches, ECC
    /// corrections, and checkpoint-restart rollback after machine checks.
    pub recovery_cycles: u64,

    /// Remote L1-D lines invalidated by this core's stores (CMP runs).
    pub invalidations: u64,
    /// Cache-to-cache transfers: misses supplied by a remote Modified
    /// owner instead of the L2/memory path (CMP runs).
    pub c2c_transfers: u64,
    /// Upgrade misses: stores that hit a Shared line and had to win
    /// ownership via an invalidation round (CMP runs).
    pub upgrade_misses: u64,
    /// MESI transitions into Modified (stores gaining write ownership).
    pub mesi_to_m: u64,
    /// MESI transitions into Exclusive (sole-copy load fills).
    pub mesi_to_e: u64,
    /// MESI transitions into Shared (shared load fills and M/E demotions).
    pub mesi_to_s: u64,
    /// MESI transitions into Invalid (remote-store invalidations).
    pub mesi_to_i: u64,
    /// Cycles stalled on coherence actions: snoop-bus waits, invalidation
    /// rounds, and cache-to-cache transfer latency (CMP runs; always 0 on
    /// a single core).
    pub coherence_stall_cycles: u64,

    /// Soft errors injected (all structures).
    pub faults_injected: u64,
    /// Injected faults that went undetected (unprotected structure, or a
    /// double-bit flip escaping parity).
    pub faults_silent: u64,
    /// Single-bit flips corrected in place by ECC.
    pub faults_corrected: u64,
    /// Parity-detected faults repaired by invalidate-and-refetch.
    pub fault_refetches: u64,
    /// Unrecoverable faults (machine checks raised).
    pub machine_checks: u64,
}

impl Counters {
    /// Creates zeroed counters.
    pub fn new() -> Self {
        Counters::default()
    }

    /// Every field as `(name, value)`, in declaration order (the order
    /// of the `Debug` output and of the journal encoding).
    pub fn fields(&self) -> [(&'static str, u64); 40] {
        let mut c = *self;
        c.fields_mut().map(|(name, v)| (name, *v))
    }

    /// Every field as `(name, &mut value)`, in declaration order: the one
    /// list of the fields, which [`Counters::fields`], `since`, `accum`
    /// and the campaign journal all read. The destructure is exhaustive,
    /// so a new field does not compile until it is listed here.
    pub fn fields_mut(&mut self) -> [(&'static str, &mut u64); 40] {
        named_fields!(Counters = self;
            instructions,
            loads,
            stores,
            syscall_switches,
            slice_switches,
            l1i_misses,
            l1d_read_misses,
            l1d_write_misses,
            l2i_accesses,
            l2i_misses,
            l2d_accesses,
            l2d_misses,
            l2_drain_writes,
            l2_drain_misses,
            l2_drain_busy_cycles,
            itlb_misses,
            dtlb_misses,
            cpu_stall_cycles,
            l1i_miss_cycles,
            l1d_miss_cycles,
            l1_write_cycles,
            wb_wait_cycles,
            l2i_miss_cycles,
            l2d_miss_cycles,
            dirty_buffer_wait_cycles,
            tlb_miss_cycles,
            recovery_cycles,
            invalidations,
            c2c_transfers,
            upgrade_misses,
            mesi_to_m,
            mesi_to_e,
            mesi_to_s,
            mesi_to_i,
            coherence_stall_cycles,
            faults_injected,
            faults_silent,
            faults_corrected,
            fault_refetches,
            machine_checks,
        )
    }

    /// Field-wise difference `self − earlier`: the counters accumulated
    /// *after* the `earlier` snapshot. Used to discard cache warm-up, which
    /// otherwise dominates L2 statistics on short traces (\[BKW90\]).
    ///
    /// # Panics
    ///
    /// Panics (debug builds) if any field of `earlier` exceeds `self`'s.
    pub fn since(&self, earlier: &Counters) -> Counters {
        let mut d = *self;
        for ((_, v), (_, e)) in d.fields_mut().into_iter().zip(earlier.fields()) {
            *v -= e;
        }
        d
    }

    /// Field-wise sum `self + other` — the inverse of [`Counters::since`],
    /// used to re-aggregate windowed deltas (e.g. checking that the
    /// windows plus the tail reproduce the full-run counters).
    #[must_use]
    pub fn accum(&self, other: &Counters) -> Counters {
        let mut s = *self;
        for ((_, v), (_, o)) in s.fields_mut().into_iter().zip(other.fields()) {
            *v += o;
        }
        s
    }

    /// Labeled *integer-cycle* components in Fig. 4's stacking order,
    /// summing to [`Counters::total_cycles`] exactly (the windowed
    /// CPI-stack exporter divides by instructions only at presentation
    /// time, so per-window stacks stay exact).
    pub fn stack_components(&self) -> Vec<(&'static str, u64)> {
        vec![
            ("base+stalls", self.instructions + self.cpu_stall_cycles),
            ("L1-I miss", self.l1i_miss_cycles),
            ("L1-D miss", self.l1d_miss_cycles),
            ("L1 writes", self.l1_write_cycles),
            ("WB", self.wb_wait_cycles),
            ("L2-I miss", self.l2i_miss_cycles),
            ("L2-D miss", self.l2d_miss_cycles),
            ("dirty buf", self.dirty_buffer_wait_cycles),
            ("TLB", self.tlb_miss_cycles),
            ("recovery", self.recovery_cycles),
            ("coherence", self.coherence_stall_cycles),
        ]
    }

    /// Sum of all stall-cycle components (everything above the 1.0 base).
    pub fn stall_cycles(&self) -> u64 {
        self.cpu_stall_cycles
            + self.l1i_miss_cycles
            + self.l1d_miss_cycles
            + self.l1_write_cycles
            + self.wb_wait_cycles
            + self.l2i_miss_cycles
            + self.l2d_miss_cycles
            + self.dirty_buffer_wait_cycles
            + self.tlb_miss_cycles
            + self.recovery_cycles
            + self.coherence_stall_cycles
    }

    /// Total execution cycles: one issue cycle per instruction plus stalls.
    pub fn total_cycles(&self) -> u64 {
        self.instructions + self.stall_cycles()
    }

    /// L1-I miss ratio (misses per instruction fetch).
    pub fn l1i_miss_ratio(&self) -> f64 {
        ratio(self.l1i_misses, self.instructions)
    }

    /// L1-D miss ratio (read + write misses per data reference).
    pub fn l1d_miss_ratio(&self) -> f64 {
        ratio(
            self.l1d_read_misses + self.l1d_write_misses,
            self.loads + self.stores,
        )
    }

    /// Combined L2 miss ratio over instruction- and data-side refill
    /// accesses (drain writes excluded, as in Table 2).
    pub fn l2_miss_ratio(&self) -> f64 {
        ratio(
            self.l2i_misses + self.l2d_misses,
            self.l2i_accesses + self.l2d_accesses,
        )
    }

    /// Instruction-side L2 miss ratio.
    pub fn l2i_miss_ratio(&self) -> f64 {
        ratio(self.l2i_misses, self.l2i_accesses)
    }

    /// Data-side L2 miss ratio.
    pub fn l2d_miss_ratio(&self) -> f64 {
        ratio(self.l2d_misses, self.l2d_accesses)
    }

    /// Fraction of all cycles the L2 data port spent servicing background
    /// drains (a bandwidth-consumption view of the write policy).
    pub fn l2_drain_utilization(&self) -> f64 {
        ratio(self.l2_drain_busy_cycles, self.total_cycles())
    }

    /// Converts to per-instruction CPI components.
    ///
    /// # Panics
    ///
    /// Panics if no instructions were executed.
    pub fn breakdown(&self) -> CpiBreakdown {
        assert!(self.instructions > 0, "no instructions executed");
        let per = |c: u64| c as f64 / self.instructions as f64;
        CpiBreakdown {
            base: 1.0,
            cpu_stall: per(self.cpu_stall_cycles),
            l1i_miss: per(self.l1i_miss_cycles),
            l1d_miss: per(self.l1d_miss_cycles),
            l1_writes: per(self.l1_write_cycles),
            wb_wait: per(self.wb_wait_cycles),
            l2i_miss: per(self.l2i_miss_cycles),
            l2d_miss: per(self.l2d_miss_cycles),
            dirty_buffer: per(self.dirty_buffer_wait_cycles),
            tlb: per(self.tlb_miss_cycles),
            recovery: per(self.recovery_cycles),
            coherence: per(self.coherence_stall_cycles),
        }
    }
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Per-process slice of the run statistics (the simulator attributes every
/// event to the PID that issued it, so per-benchmark behaviour under
/// multiprogramming can be reported, as the paper does when discussing
/// individual benchmarks).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ProcCounters {
    /// Instructions executed by this process.
    pub instructions: u64,
    /// Cycles attributed to this process (issue + all stalls charged while
    /// it was running).
    pub cycles: u64,
    /// Loads issued.
    pub loads: u64,
    /// Stores issued.
    pub stores: u64,
    /// L1-I misses taken.
    pub l1i_misses: u64,
    /// L1-D misses taken (read + write).
    pub l1d_misses: u64,
    /// L2 misses taken (both sides, demand only).
    pub l2_misses: u64,
}

/// The rows of `rows` for the PIDs that ran, keyed by PID: a result's
/// `per_process`.
pub(crate) fn ran_rows(rows: &[ProcCounters]) -> Vec<(Pid, ProcCounters)> {
    rows.iter()
        .enumerate()
        .filter(|(_, p)| p.instructions > 0 || p.loads > 0 || p.stores > 0)
        .map(|(i, p)| (Pid::new(i as u8), *p))
        .collect()
}

/// The row of `rows` for `pid`, growing `rows` to reach it (per-process
/// rows grow lazily, as PIDs first run).
#[inline]
pub(crate) fn proc_row(rows: &mut Vec<ProcCounters>, pid: u8) -> &mut ProcCounters {
    let idx = usize::from(pid);
    if rows.len() <= idx {
        rows.resize(idx + 1, ProcCounters::default());
    }
    &mut rows[idx]
}

impl ProcCounters {
    /// Adds `other`'s statistics into these (one PID's rows from
    /// several cores).
    pub(crate) fn add(&mut self, other: &ProcCounters) {
        for ((_, v), (_, o)) in self.fields_mut().into_iter().zip(other.fields()) {
            *v += o;
        }
    }

    /// Every field as `(name, value)`, in declaration order.
    pub fn fields(&self) -> [(&'static str, u64); 7] {
        let mut p = *self;
        p.fields_mut().map(|(name, v)| (name, *v))
    }

    /// Every field as `(name, &mut value)`, in declaration order: the one
    /// list of the fields (see [`Counters::fields_mut`]).
    pub fn fields_mut(&mut self) -> [(&'static str, &mut u64); 7] {
        named_fields!(ProcCounters = self;
            instructions,
            cycles,
            loads,
            stores,
            l1i_misses,
            l1d_misses,
            l2_misses,
        )
    }

    /// Cycles per instruction for this process.
    pub fn cpi(&self) -> f64 {
        if self.instructions == 0 {
            0.0
        } else {
            self.cycles as f64 / self.instructions as f64
        }
    }

    /// L1-I miss ratio.
    pub fn l1i_miss_ratio(&self) -> f64 {
        if self.instructions == 0 {
            0.0
        } else {
            self.l1i_misses as f64 / self.instructions as f64
        }
    }

    /// L1-D miss ratio over data references.
    pub fn l1d_miss_ratio(&self) -> f64 {
        let refs = self.loads + self.stores;
        if refs == 0 {
            0.0
        } else {
            self.l1d_misses as f64 / refs as f64
        }
    }
}

/// Per-instruction CPI contributions (the stacked bars of Fig. 4).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CpiBreakdown {
    /// Single-cycle issue: always 1.0.
    pub base: f64,
    /// Load/branch/FP processor stalls (with base, the paper's 1.238).
    pub cpu_stall: f64,
    /// L1-I miss service at L2-hit cost.
    pub l1i_miss: f64,
    /// L1-D read-miss service at L2-hit cost.
    pub l1d_miss: f64,
    /// Multi-cycle writes ("L1 writes" in Fig. 4).
    pub l1_writes: f64,
    /// Write-buffer waits ("WB").
    pub wb_wait: f64,
    /// Instruction-side L2 miss excess ("L2-I miss").
    pub l2i_miss: f64,
    /// Data-side L2 miss excess ("L2-D miss").
    pub l2d_miss: f64,
    /// L2-D dirty-buffer waits (§9 configurations only).
    pub dirty_buffer: f64,
    /// TLB miss charges (0 under the paper's accounting).
    pub tlb: f64,
    /// Soft-error recovery: refetches, ECC corrections, restart rollback.
    pub recovery: f64,
    /// Coherence stalls: snoop-bus waits, invalidation rounds, and
    /// cache-to-cache transfers (CMP runs; 0 on a single core).
    pub coherence: f64,
}

impl CpiBreakdown {
    /// Total CPI.
    pub fn total(&self) -> f64 {
        self.base
            + self.cpu_stall
            + self.l1i_miss
            + self.l1d_miss
            + self.l1_writes
            + self.wb_wait
            + self.l2i_miss
            + self.l2d_miss
            + self.dirty_buffer
            + self.tlb
            + self.recovery
            + self.coherence
    }

    /// The memory-system contribution to CPI (everything except the base
    /// cycle and processor stalls) — the quantity the paper's optimization
    /// chapters track.
    pub fn memory_cpi(&self) -> f64 {
        self.total() - self.base - self.cpu_stall
    }

    /// The instruction-side contribution (Fig. 7's y-axis).
    pub fn instruction_side_cpi(&self) -> f64 {
        self.l1i_miss + self.l2i_miss
    }

    /// The data-read-side contribution (Fig. 8's y-axis: "the effect of
    /// writes on L2-D is ignored").
    pub fn data_read_side_cpi(&self) -> f64 {
        self.l1d_miss + self.l2d_miss + self.dirty_buffer
    }

    /// Labeled components in Fig. 4's stacking order (bottom to top).
    pub fn components(&self) -> Vec<(&'static str, f64)> {
        vec![
            ("base+stalls", self.base + self.cpu_stall),
            ("L1-I miss", self.l1i_miss),
            ("L1-D miss", self.l1d_miss),
            ("L1 writes", self.l1_writes),
            ("WB", self.wb_wait),
            ("L2-I miss", self.l2i_miss),
            ("L2-D miss", self.l2d_miss),
            ("dirty buf", self.dirty_buffer),
            ("TLB", self.tlb),
            ("recovery", self.recovery),
            ("coherence", self.coherence),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Counters {
        Counters {
            instructions: 1000,
            loads: 250,
            stores: 80,
            l1i_misses: 20,
            l1d_read_misses: 10,
            l1d_write_misses: 2,
            l2i_accesses: 20,
            l2i_misses: 1,
            l2d_accesses: 12,
            l2d_misses: 1,
            cpu_stall_cycles: 238,
            l1i_miss_cycles: 120,
            l1d_miss_cycles: 60,
            l1_write_cycles: 70,
            wb_wait_cycles: 30,
            l2i_miss_cycles: 137,
            l2d_miss_cycles: 137,
            dirty_buffer_wait_cycles: 5,
            tlb_miss_cycles: 0,
            ..Counters::default()
        }
    }

    #[test]
    fn totals_are_consistent() {
        let c = sample();
        assert_eq!(c.stall_cycles(), 238 + 120 + 60 + 70 + 30 + 137 + 137 + 5);
        assert_eq!(c.total_cycles(), 1000 + c.stall_cycles());
    }

    #[test]
    fn breakdown_total_equals_cycles_per_instruction() {
        let c = sample();
        let b = c.breakdown();
        let cpi = c.total_cycles() as f64 / c.instructions as f64;
        assert!((b.total() - cpi).abs() < 1e-12);
    }

    #[test]
    fn miss_ratios() {
        let c = sample();
        assert!((c.l1i_miss_ratio() - 0.02).abs() < 1e-12);
        assert!((c.l1d_miss_ratio() - 12.0 / 330.0).abs() < 1e-12);
        assert!((c.l2_miss_ratio() - 2.0 / 32.0).abs() < 1e-12);
        assert!((c.l2i_miss_ratio() - 1.0 / 20.0).abs() < 1e-12);
        assert!((c.l2d_miss_ratio() - 1.0 / 12.0).abs() < 1e-12);
    }

    #[test]
    fn ratios_zero_when_no_accesses() {
        let c = Counters::new();
        assert_eq!(c.l1i_miss_ratio(), 0.0);
        assert_eq!(c.l1d_miss_ratio(), 0.0);
        assert_eq!(c.l2_miss_ratio(), 0.0);
    }

    #[test]
    fn side_contributions() {
        let b = sample().breakdown();
        assert!((b.instruction_side_cpi() - (0.120 + 0.137)).abs() < 1e-12);
        assert!((b.data_read_side_cpi() - (0.060 + 0.137 + 0.005)).abs() < 1e-12);
        assert!((b.memory_cpi() - (b.total() - 1.238)).abs() < 1e-12);
    }

    #[test]
    fn components_sum_to_total() {
        let b = sample().breakdown();
        let sum: f64 = b.components().iter().map(|(_, v)| v).sum();
        assert!((sum - b.total()).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "no instructions")]
    fn breakdown_requires_instructions() {
        let _ = Counters::new().breakdown();
    }

    #[test]
    fn recovery_cycles_flow_through_accounting() {
        let mut c = sample();
        c.recovery_cycles = 50;
        c.fault_refetches = 3;
        c.faults_injected = 5;
        assert_eq!(c.stall_cycles(), sample().stall_cycles() + 50);
        let b = c.breakdown();
        assert!((b.recovery - 0.05).abs() < 1e-12);
        let cpi = c.total_cycles() as f64 / c.instructions as f64;
        assert!((b.total() - cpi).abs() < 1e-12);
        assert!(b
            .components()
            .iter()
            .any(|(name, v)| *name == "recovery" && *v > 0.0));
        // since() covers the new fields.
        let d = c.since(&sample());
        assert_eq!(d.recovery_cycles, 50);
        assert_eq!(d.fault_refetches, 3);
        assert_eq!(d.faults_injected, 5);
    }

    #[test]
    fn coherence_cycles_flow_through_accounting() {
        let mut c = sample();
        c.coherence_stall_cycles = 40;
        c.invalidations = 6;
        c.c2c_transfers = 2;
        c.upgrade_misses = 3;
        c.mesi_to_m = 9;
        assert_eq!(c.stall_cycles(), sample().stall_cycles() + 40);
        let b = c.breakdown();
        assert!((b.coherence - 0.04).abs() < 1e-12);
        let cpi = c.total_cycles() as f64 / c.instructions as f64;
        assert!((b.total() - cpi).abs() < 1e-12);
        assert!(b
            .components()
            .iter()
            .any(|(name, v)| *name == "coherence" && *v > 0.0));
        // since()/accum() cover the new fields.
        let d = c.since(&sample());
        assert_eq!(d.coherence_stall_cycles, 40);
        assert_eq!(d.invalidations, 6);
        assert_eq!(d.c2c_transfers, 2);
        assert_eq!(d.upgrade_misses, 3);
        assert_eq!(d.mesi_to_m, 9);
        assert_eq!(sample().accum(&d), c);
    }

    #[test]
    fn drain_utilization_is_bounded() {
        let mut c = sample();
        c.l2_drain_busy_cycles = c.total_cycles() / 4;
        let expected = (c.total_cycles() / 4) as f64 / c.total_cycles() as f64;
        assert!((c.l2_drain_utilization() - expected).abs() < 1e-12);
        assert_eq!(Counters::new().l2_drain_utilization(), 0.0);
    }

    #[test]
    fn accum_is_the_inverse_of_since() {
        let a = sample();
        let mut b = sample();
        b.instructions = 2500;
        b.wb_wait_cycles = 99;
        b.faults_injected = 7;
        let sum = a.accum(&b);
        assert_eq!(sum.since(&a), b);
        assert_eq!(sum.since(&b), a);
        assert_eq!(sum.total_cycles(), a.total_cycles() + b.total_cycles());
    }

    #[test]
    fn stack_components_sum_to_total_cycles() {
        let mut c = sample();
        c.recovery_cycles = 11;
        let sum: u64 = c.stack_components().iter().map(|&(_, v)| v).sum();
        assert_eq!(sum, c.total_cycles());
        // Same labels, same order as the f64 breakdown.
        let labels: Vec<&str> = c.stack_components().iter().map(|&(n, _)| n).collect();
        let blabels: Vec<&str> = c.breakdown().components().iter().map(|&(n, _)| n).collect();
        assert_eq!(labels, blabels);
    }

    /// Breakdown arithmetic on *real* runs: for each write policy the
    /// per-component CPI contributions must sum to the total CPI, and the
    /// integer stack must balance the cycle count exactly.
    #[test]
    fn breakdown_components_sum_to_cpi_across_policies() {
        use crate::config::SimConfig;
        use crate::{workload, Simulator, WritePolicy};
        for policy in [
            WritePolicy::WriteBack,
            WritePolicy::WriteOnly,
            WritePolicy::Subblock,
        ] {
            let mut b = SimConfig::builder();
            b.policy(policy);
            let cfg = b.build().expect("valid");
            let sim = Simulator::new(cfg).expect("valid config");
            let result = sim
                .run(workload::subset(3, 1e-4))
                .expect("fault-free run succeeds");
            let c = &result.counters;
            let bd = c.breakdown();
            let cpi = c.total_cycles() as f64 / c.instructions as f64;
            let sum: f64 = bd.components().iter().map(|(_, v)| v).sum();
            assert!(
                (sum - cpi).abs() < 1e-9,
                "{policy:?}: components sum {sum} != CPI {cpi}"
            );
            assert!((bd.total() - cpi).abs() < 1e-9, "{policy:?}");
            let cycle_sum: u64 = c.stack_components().iter().map(|&(_, v)| v).sum();
            assert_eq!(cycle_sum, c.total_cycles(), "{policy:?}: integer stack");
        }
    }

    #[test]
    fn proc_counters_ratios() {
        let p = ProcCounters {
            instructions: 1000,
            cycles: 1500,
            loads: 200,
            stores: 100,
            l1i_misses: 10,
            l1d_misses: 15,
            l2_misses: 2,
        };
        assert!((p.cpi() - 1.5).abs() < 1e-12);
        assert!((p.l1i_miss_ratio() - 0.01).abs() < 1e-12);
        assert!((p.l1d_miss_ratio() - 0.05).abs() < 1e-12);
        let empty = ProcCounters::default();
        assert_eq!(empty.cpi(), 0.0);
        assert_eq!(empty.l1d_miss_ratio(), 0.0);
    }
}
