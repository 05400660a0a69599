//! The trace-driven two-level cache simulator (§3).
//!
//! [`Simulator`] consumes a multiprogramming workload one instruction at a
//! time and charges cycles exactly as the paper's cycle-counting simulator
//! does:
//!
//! * one issue cycle per instruction, plus the trace's annotated processor
//!   stalls (the 1.238 base CPI);
//! * L1 misses serviced from L2 at `access + (fetch/4 − 1)` cycles (the
//!   4 W-wide refill path moves one 4 W beat per cycle);
//! * L2 misses serviced from main memory at the R6020 penalties, dirty
//!   buffer permitting;
//! * write-policy cycle rules (§6) and write-buffer waits, with the
//!   streaming drain model;
//! * the §9 concurrency mechanisms (concurrent I-refill, read bypass by
//!   associative match or dirty bit, L2-D dirty buffer).
//!
//! The accounting invariant `total cycles = instructions + Σ stall
//! components` holds exactly (checked with `debug_assert!` and tests).
//!
//! The per-event rules live in [`crate::pipeline`]: the simulator owns one
//! [`Core`] over one [`Uncore`] and drives it from the scheduler; this
//! module adds the run loop, results and the instrumentation layers.
//!
//! With soft-error injection enabled (see `FaultConfig`), faults are
//! checked when an access *hits* the struck structure — the moment the
//! corrupted entry would be consumed — and recovery costs (parity
//! refetches, ECC corrections, checkpoint-restart rollback) are charged to
//! the dedicated `recovery` stall component, keeping the invariant exact.
//! Unrecoverable faults either halt the run ([`SimError::MachineCheck`])
//! or roll back to the last checkpoint, per the configured policy.

use std::fmt;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use gaas_cache::fault::{FaultEffect, FaultEvent, FaultInjector, ProtectionMap};
use gaas_cache::Tlb;
use gaas_telemetry::{Component, CounterId, Registry, Span, SpanRecorder};
use gaas_trace::{AccessKind, Trace, TraceEvent};

use crate::config::{ConfigError, MachineCheckPolicy, SimConfig};
use crate::cpi::{Counters, ProcCounters};
use crate::oracle::{DiffState, DivergenceReport};
use crate::pipeline::{Core, NoCoherence, Uncore};
use crate::profile::{functional_fingerprint, FunctionalProfile, ProfileRecorder};
use crate::sched::{SchedSnapshot, Scheduler};

/// Error from building or running a simulation.
#[derive(Debug, Clone, PartialEq)]
pub enum SimError {
    /// The configuration failed validation.
    Config(ConfigError),
    /// An injected fault was detected but unrecoverable (dirty data under
    /// parity, or a double-bit flip under ECC) and the machine-check
    /// policy is [`MachineCheckPolicy::Halt`].
    MachineCheck {
        /// The unrecoverable fault.
        fault: FaultEvent,
        /// Simulated cycle at the halt (the boundary of the faulting
        /// instruction).
        cycle: u64,
        /// Instructions retired before the halt.
        instructions: u64,
    },
    /// The lockstep golden-model oracle observed the fast simulator
    /// diverging from the reference model (see
    /// [`DiffCheckConfig`](crate::config::DiffCheckConfig)).
    Divergence(Box<DivergenceReport>),
    /// A campaign cell exceeded its wall-clock budget (produced by the
    /// experiment runner's isolation layer, never by the simulator
    /// itself).
    Timeout {
        /// The wall-clock budget that was exhausted, in seconds.
        seconds: u64,
    },
    /// The run's [`CancelToken`] was triggered; the simulator stopped
    /// cooperatively at the next instruction-batch boundary.
    Cancelled,
    /// The coherence oracle observed a protocol invariant violation in a
    /// CMP run (stale read, multiple writers, or a copy surviving its
    /// invalidation) — produced by the `gaas-coherence` engine, never by
    /// this single-CPU simulator.
    Coherence {
        /// Core on which the violation was observed.
        core: u32,
        /// That core's timing-clock cycle at the violation.
        cycle: u64,
        /// Which invariant failed, with the evidence.
        detail: String,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::Config(e) => write!(f, "invalid configuration: {e}"),
            SimError::MachineCheck {
                fault,
                cycle,
                instructions,
            } => write!(
                f,
                "machine check: {fault} at cycle {cycle} ({instructions} instructions retired)"
            ),
            SimError::Divergence(report) => write!(f, "{report}"),
            SimError::Timeout { seconds } => {
                write!(f, "cell exceeded its {seconds}s wall-clock budget")
            }
            SimError::Cancelled => write!(f, "run cancelled cooperatively"),
            SimError::Coherence {
                core,
                cycle,
                detail,
            } => write!(
                f,
                "coherence invariant violated on core {core} at cycle {cycle}: {detail}"
            ),
        }
    }
}

impl std::error::Error for SimError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SimError::Config(e) => Some(e),
            SimError::MachineCheck { .. }
            | SimError::Divergence(_)
            | SimError::Timeout { .. }
            | SimError::Cancelled
            | SimError::Coherence { .. } => None,
        }
    }
}

impl From<ConfigError> for SimError {
    fn from(e: ConfigError) -> Self {
        SimError::Config(e)
    }
}

/// A shared flag for cooperatively cancelling a running simulation.
///
/// Hand a clone to [`Simulator::set_cancel_token`] before the run; any
/// thread may then call [`CancelToken::cancel`]. The simulator polls the
/// flag between instruction batches (every few thousand instructions),
/// so a cancelled run returns [`SimError::Cancelled`] within
/// microseconds instead of burning CPU until the workload ends — this is
/// how the experiment campaign stops timed-out cells for real rather
/// than detaching them.
#[derive(Debug, Clone, Default)]
pub struct CancelToken(Arc<AtomicBool>);

impl CancelToken {
    /// Creates a fresh, untriggered token.
    pub fn new() -> Self {
        Self::default()
    }

    /// Requests cancellation; every simulator holding a clone stops at
    /// its next batch boundary.
    pub fn cancel(&self) {
        self.0.store(true, Ordering::Release);
    }

    /// True once [`CancelToken::cancel`] has been called.
    pub fn is_cancelled(&self) -> bool {
        self.0.load(Ordering::Acquire)
    }
}

/// Instructions between cooperative-cancellation polls: coarse enough to
/// vanish in the hot loop, fine enough (≈ tens of microseconds) that a
/// cancelled cell stops promptly.
pub const CANCEL_CHECK_INTERVAL: u64 = 8192;

/// Why a run stopped.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Termination {
    /// Every benchmark ran to completion.
    #[default]
    Completed,
    /// The instruction-budget watchdog fired; the result covers the
    /// instructions retired up to the abort.
    BudgetExhausted,
}

/// One periodic checkpoint: a progress marker and (under the restart
/// machine-check policy) the rollback point for recovery.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Checkpoint {
    /// Simulated cycle at the checkpoint.
    pub cycle: u64,
    /// Instructions retired at the checkpoint.
    pub instructions: u64,
    /// Scheduler progress at the checkpoint.
    pub sched: SchedSnapshot,
}

/// Result of a completed simulation run.
#[derive(Debug, Clone)]
pub struct SimResult {
    /// The configuration that was simulated.
    pub config: SimConfig,
    /// Every counter the run accumulated.
    pub counters: Counters,
    /// Benchmarks in completion order.
    pub completed: Vec<String>,
    /// Per-process statistics, one entry per PID that issued events
    /// (includes warm-up; sorted by PID).
    pub per_process: Vec<(gaas_trace::Pid, ProcCounters)>,
    /// Why the run stopped.
    pub termination: Termination,
    /// Periodic checkpoints (empty unless `checkpoint_interval` is set).
    pub checkpoints: Vec<Checkpoint>,
}

impl SimResult {
    /// Total cycles executed.
    pub fn cycles(&self) -> u64 {
        self.counters.total_cycles()
    }

    /// Cycles per instruction.
    pub fn cpi(&self) -> f64 {
        self.cycles() as f64 / self.counters.instructions as f64
    }

    /// Per-component CPI breakdown (Fig. 4).
    pub fn breakdown(&self) -> crate::cpi::CpiBreakdown {
        self.counters.breakdown()
    }

    /// True when every benchmark ran to completion (the watchdog did not
    /// fire).
    pub fn is_complete(&self) -> bool {
        self.termination == Termination::Completed
    }
}

/// Live fault-injection state (present only when injection is enabled, so
/// the fault-free path stays bit-identical to a build without it).
pub(crate) struct FaultState {
    pub(crate) injector: FaultInjector,
    pub(crate) protection: ProtectionMap,
    pub(crate) ecc_penalty: u64,
    /// True for [`MachineCheckPolicy::Halt`].
    pub(crate) halt: bool,
    /// Per-structure set counts for fault-site reporting, in
    /// [`Structure::index`](gaas_cache::fault::Structure::index) order.
    pub(crate) sets: [u64; 5],
}

/// Live telemetry state (present only when telemetry is enabled, so the
/// untelemetered path stays bit-identical to a build without it). All
/// recording is passive: it never charges cycles and never touches the
/// fault injector's PRNG.
pub(crate) struct TelemetryState {
    reg: Registry,
    spans: SpanRecorder,
    // Pre-registered counter handles, so hot-path bumps are one indexed
    // add with no name lookup.
    c_l2_lookup_i: CounterId,
    c_l2_lookup_d: CounterId,
    c_mem_refill_i: CounterId,
    c_mem_refill_d: CounterId,
    c_wb_enqueue: CounterId,
    c_wb_full_stall: CounterId,
    c_wb_read_wait: CounterId,
    c_tlb_walk_i: CounterId,
    c_tlb_walk_d: CounterId,
    c_sched_switch: CounterId,
    c_fault_event: CounterId,
    c_oracle_divergence: CounterId,
}

impl TelemetryState {
    fn new(span_capacity: usize) -> Self {
        let mut reg = Registry::new();
        let c_l2_lookup_i = reg.counter("l2.lookup.i");
        let c_l2_lookup_d = reg.counter("l2.lookup.d");
        let c_mem_refill_i = reg.counter("mem.refill.i");
        let c_mem_refill_d = reg.counter("mem.refill.d");
        let c_wb_enqueue = reg.counter("wb.enqueue");
        let c_wb_full_stall = reg.counter("wb.full_stall");
        let c_wb_read_wait = reg.counter("wb.read_wait");
        let c_tlb_walk_i = reg.counter("tlb.walk.i");
        let c_tlb_walk_d = reg.counter("tlb.walk.d");
        let c_sched_switch = reg.counter("sched.switch");
        let c_fault_event = reg.counter("fault.event");
        let c_oracle_divergence = reg.counter("oracle.divergence");
        TelemetryState {
            reg,
            spans: SpanRecorder::new(span_capacity),
            c_l2_lookup_i,
            c_l2_lookup_d,
            c_mem_refill_i,
            c_mem_refill_d,
            c_wb_enqueue,
            c_wb_full_stall,
            c_wb_read_wait,
            c_tlb_walk_i,
            c_tlb_walk_d,
            c_sched_switch,
            c_fault_event,
            c_oracle_divergence,
        }
    }
}
/// The simulator's instrumentation layers: soft-error injection, the
/// lockstep golden-model oracle, the profile recorder and telemetry. The
/// default value has every layer off, which is how the CMP engine's
/// uncore keeps it.
#[derive(Default)]
pub(crate) struct Instruments {
    /// Fault-injection state (`None` = injection off, exact legacy path).
    pub(crate) fault: Option<FaultState>,
    /// Cached `fault.is_some()`: hot hit paths skip the injector hooks (and
    /// the dirty-line peek feeding them) on one predictable branch.
    pub(crate) fault_on: bool,
    /// Unrecoverable fault awaiting the halt at the instruction boundary.
    pub(crate) pending_mc: Option<FaultEvent>,
    /// Cycle of the last checkpoint (restart rollback target).
    pub(crate) last_checkpoint_cycle: u64,
    /// Lockstep golden-model state (`None` = oracle off, exact fast path).
    pub(crate) diff: Option<Box<DiffState>>,
    /// Cached `diff.is_some()`: the per-event gate is one predictable
    /// branch with no `Option` load, so the oracle costs nothing when
    /// off.
    pub(crate) diff_on: bool,
    /// Functional-outcome recorder (`None` = normal run; installed by
    /// [`Simulator::run_profiled`] for the two-phase sweep memoizer).
    pub(crate) rec: Option<Box<ProfileRecorder>>,
    /// Telemetry state (`None` = telemetry off, exact fast path).
    pub(crate) telem: Option<Box<TelemetryState>>,
    /// Cached `telem.is_some()`: every hot-path hook is one predictable
    /// branch, mirroring the `fault_on`/`diff_on` gates.
    pub(crate) telem_on: bool,
}

impl Instruments {
    /// The layers `cfg` enables.
    fn new(cfg: &SimConfig) -> Result<Self, ConfigError> {
        let fault = if cfg.fault.enabled() {
            let f = &cfg.fault;
            Some(FaultState {
                injector: FaultInjector::new(f.seed, f.rates, f.multi_bit_frac, f.targeted.clone()),
                protection: f.protection,
                ecc_penalty: f.ecc_correction_cycles as u64,
                halt: f.machine_check == MachineCheckPolicy::Halt,
                sets: [
                    cfg.l1i.geometry()?.n_sets(),
                    cfg.l1d.geometry()?.n_sets(),
                    cfg.l2.d_side().geometry()?.n_sets(),
                    8, // the paper's 16-entry 2-way TLBs
                    cfg.write_buffer.depth as u64,
                ],
            })
        } else {
            None
        };
        let diff = if cfg.diffcheck.enabled {
            Some(Box::new(DiffState::new(cfg)?))
        } else {
            None
        };
        let telem = if cfg.telemetry.enabled {
            Some(Box::new(TelemetryState::new(cfg.telemetry.span_capacity)))
        } else {
            None
        };
        Ok(Instruments {
            fault_on: fault.is_some(),
            fault,
            diff_on: diff.is_some(),
            diff,
            telem_on: telem.is_some(),
            telem,
            ..Instruments::default()
        })
    }

    /// Whether a layer that must see every event is attached: fault
    /// injection, the lockstep oracle or the profile recorder. When none
    /// is, the `HOOKS = false` step instantiations (with those hooks
    /// compiled out, plus the last-line/last-page memos) are exact.
    /// Telemetry does not count: its notes fire only on L1 misses, TLB
    /// walks, write-buffer traffic and context switches, none of which a
    /// memo skips, so a telemetry-only run steps the bare kernel.
    #[inline]
    pub(crate) fn active(&self) -> bool {
        self.fault_on || self.diff_on || self.rec.is_some()
    }

    // ---- telemetry hooks ----
    //
    // Every hook site is gated on the cached `telem_on` flag (the
    // `fault_on`/`diff_on` pattern), and the note bodies are `#[cold]`
    // `#[inline(never)]` so the disabled hot path carries only one
    // predictable never-taken branch per site. Recording is passive —
    // no cycles charged, no PRNG touched — so disabled-mode results are
    // byte-identical by construction.

    /// Notes an L2 instruction-side lookup that hit (an L1-I refill).
    #[cold]
    #[inline(never)]
    pub(crate) fn telem_l2_lookup_i(&mut self, start: u64, dur: u64) {
        let t = self.telem.as_deref_mut().expect("telem_on implies state");
        t.reg.inc(t.c_l2_lookup_i);
        t.spans.record("refill.l1i", Component::L2, start, dur);
    }

    /// Notes an L2 data-side lookup that hit (an L1-D refill).
    #[cold]
    #[inline(never)]
    pub(crate) fn telem_l2_lookup_d(&mut self, start: u64, dur: u64) {
        let t = self.telem.as_deref_mut().expect("telem_on implies state");
        t.reg.inc(t.c_l2_lookup_d);
        t.spans.record("refill.l1d", Component::L2, start, dur);
    }

    /// Notes an instruction-side L2 miss serviced from main memory.
    #[cold]
    #[inline(never)]
    pub(crate) fn telem_mem_refill_i(&mut self, start: u64, dur: u64) {
        let t = self.telem.as_deref_mut().expect("telem_on implies state");
        t.reg.inc(t.c_mem_refill_i);
        t.reg.observe("mem.refill.i.cycles", dur);
        t.spans.record("refill.l2i", Component::Memory, start, dur);
    }

    /// Notes a data-side L2 miss serviced from main memory.
    #[cold]
    #[inline(never)]
    pub(crate) fn telem_mem_refill_d(&mut self, start: u64, dur: u64) {
        let t = self.telem.as_deref_mut().expect("telem_on implies state");
        t.reg.inc(t.c_mem_refill_d);
        t.reg.observe("mem.refill.d.cycles", dur);
        t.spans.record("refill.l2d", Component::Memory, start, dur);
    }

    /// Notes a read miss waiting on previously pending buffered writes.
    #[cold]
    #[inline(never)]
    pub(crate) fn telem_wb_wait(&mut self, start: u64, dur: u64) {
        let t = self.telem.as_deref_mut().expect("telem_on implies state");
        t.reg.inc(t.c_wb_read_wait);
        t.reg.observe("wb.read_wait.cycles", dur);
        t.spans.record("wb.wait", Component::Wb, start, dur);
    }

    /// Notes one write entering the buffer: the CPU-visible full-buffer
    /// stall (if any) and the drain occupancy it schedules.
    #[cold]
    #[inline(never)]
    pub(crate) fn telem_wb_enqueue(
        &mut self,
        start: u64,
        stall: u64,
        busy_from: u64,
        completes: u64,
    ) {
        let t = self.telem.as_deref_mut().expect("telem_on implies state");
        t.reg.inc(t.c_wb_enqueue);
        if stall > 0 {
            t.reg.inc(t.c_wb_full_stall);
            t.spans.record("wb.full-stall", Component::Wb, start, stall);
        }
        if completes > busy_from {
            t.spans
                .record("wb.drain", Component::Wb, busy_from, completes - busy_from);
        }
    }

    /// Notes a TLB miss walk (`i_side` selects the TLB) of `dur` cycles.
    #[cold]
    #[inline(never)]
    pub(crate) fn telem_tlb_walk(&mut self, i_side: bool, now: u64, dur: u64) {
        let t = self.telem.as_deref_mut().expect("telem_on implies state");
        t.reg.inc(if i_side {
            t.c_tlb_walk_i
        } else {
            t.c_tlb_walk_d
        });
        t.spans.record(
            if i_side { "tlb.walk.i" } else { "tlb.walk.d" },
            Component::Tlb,
            now,
            dur,
        );
    }

    /// Notes one context switch (a rotation reported by
    /// [`Scheduler::post_instruction`]) as an instant event.
    #[cold]
    #[inline(never)]
    pub(crate) fn telem_sched_switch(&mut self, now: u64) {
        let t = self.telem.as_deref_mut().expect("telem_on implies state");
        t.reg.inc(t.c_sched_switch);
        t.spans.instant("sched.switch", Component::Sched, now);
    }

    /// Notes a resolved fault-injection event as an instant span.
    #[cold]
    #[inline(never)]
    pub(crate) fn telem_fault(&mut self, effect: FaultEffect, now: u64) {
        let t = self.telem.as_deref_mut().expect("telem_on implies state");
        t.reg.inc(t.c_fault_event);
        let name = match effect {
            FaultEffect::Silent => "fault.silent",
            FaultEffect::Correct => "fault.corrected",
            FaultEffect::Refetch => "fault.refetch",
            FaultEffect::MachineCheck => "fault.machine-check",
        };
        t.spans.instant(name, Component::Fault, now);
    }

    /// Notes an oracle divergence as an instant span.
    #[cold]
    #[inline(never)]
    pub(crate) fn telem_oracle_divergence(&mut self, now: u64) {
        let t = self.telem.as_deref_mut().expect("telem_on implies state");
        t.reg.inc(t.c_oracle_divergence);
        t.spans.instant("oracle.divergence", Component::Oracle, now);
    }
}

/// Everything the telemetry layer recorded over one run: the counter
/// registry, the retained span timeline (timing-clock cycles), and how
/// many spans the bounded recorder had to drop.
#[derive(Debug, Clone, Default)]
pub struct TelemetryReport {
    /// All registered counters and histograms.
    pub registry: Registry,
    /// Retained spans in recording order.
    pub spans: Vec<Span>,
    /// Spans evicted because the ring buffer was full.
    pub spans_dropped: u64,
}

/// Reference constants the functional clock advances by. They mirror the
/// paper's base architecture (6-cycle L2 access, 143/237-cycle memory
/// penalties) but are deliberately *fixed*, not read from the
/// configuration: the functional clock must be invariant across the
/// timing axis of a sweep.
pub const REF_L2_ACCESS: u64 = 6;
/// Functional-clock advance for an L2 miss with a clean victim (see
/// [`REF_L2_ACCESS`]).
pub const REF_MEM_CLEAN: u64 = 143;
/// Functional-clock advance for an L2 miss with a dirty victim (see
/// [`REF_L2_ACCESS`]).
pub const REF_MEM_DIRTY: u64 = 237;

/// The trace-driven simulator for one architecture configuration.
///
/// # Examples
///
/// ```
/// use gaas_sim::{config::SimConfig, workload, Simulator};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let sim = Simulator::new(SimConfig::optimized())?;
/// let result = sim.run(workload::subset(3, 1e-4))?;
/// assert!(result.cpi() > 1.0);
/// assert_eq!(result.completed.len(), 3);
/// # Ok(())
/// # }
/// ```
pub struct Simulator {
    cfg: SimConfig,
    /// The one CPU (see [`Core`]).
    core: Core,
    /// L2, memory and page mapper, plus the instrumentation layers.
    ux: Uncore,
    /// Cooperative cancellation flag, polled between instruction batches.
    cancel: Option<CancelToken>,
}

impl Simulator {
    /// Builds a simulator for `cfg`.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] when the configuration is invalid.
    pub fn new(cfg: SimConfig) -> Result<Self, ConfigError> {
        cfg.validate()?;
        // CMP configurations need the coherence engine's per-core state;
        // this single-CPU simulator would silently ignore the sharing
        // knobs, so refuse them outright.
        if cfg.cmp.enabled() {
            return Err(ConfigError::CmpRequiresCoherenceEngine);
        }
        let core = Core::new(&cfg)?;
        let mut ux = Uncore::new(&cfg)?;
        ux.ins = Instruments::new(&cfg)?;
        Ok(Simulator {
            cfg,
            core,
            ux,
            cancel: None,
        })
    }

    /// Installs a cooperative-cancellation token: once
    /// [`CancelToken::cancel`] is called on any clone, the run stops at
    /// the next batch boundary with [`SimError::Cancelled`].
    pub fn set_cancel_token(&mut self, token: CancelToken) {
        self.cancel = Some(token);
    }

    /// The configuration being simulated.
    pub fn config(&self) -> &SimConfig {
        &self.cfg
    }

    /// Current simulated cycle.
    pub fn now(&self) -> u64 {
        self.core.now
    }

    /// Counters accumulated so far.
    pub fn counters(&self) -> &Counters {
        &self.core.counters
    }

    /// Instruction-TLB state (for reports).
    pub fn itlb(&self) -> &Tlb {
        &self.core.itlb
    }

    /// Data-TLB state (for reports).
    pub fn dtlb(&self) -> &Tlb {
        &self.core.dtlb
    }

    /// Runs a multiprogramming workload to completion and returns the
    /// accumulated result.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::MachineCheck`] when an injected fault is
    /// unrecoverable under the halt policy.
    pub fn run(self, traces: Vec<Box<dyn Trace>>) -> Result<SimResult, SimError> {
        self.run_warmed(traces, 0)
    }

    /// Runs a workload, discarding the statistics of the first
    /// `warmup_instructions` instructions (the caches stay warm; only the
    /// counters reset). Long-trace hygiene per \[BKW90\]: without warm-up,
    /// compulsory misses dominate L2 statistics on scaled-down traces.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::MachineCheck`] when an injected fault is
    /// unrecoverable under the halt policy.
    pub fn run_warmed(
        self,
        traces: Vec<Box<dyn Trace>>,
        warmup_instructions: u64,
    ) -> Result<SimResult, SimError> {
        Ok(self.run_sampled(traces, warmup_instructions, 0)?.0)
    }

    /// Like [`Simulator::run_warmed`], additionally returning windowed
    /// counter snapshots every `window_instructions` instructions
    /// (0 disables sampling). Each returned element is the counter *delta*
    /// over one window — a time-series view of the run (warm-up
    /// transients, context-switch beats).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::MachineCheck`] when an injected fault is
    /// unrecoverable under the halt policy.
    pub fn run_sampled(
        self,
        traces: Vec<Box<dyn Trace>>,
        warmup_instructions: u64,
        window_instructions: u64,
    ) -> Result<(SimResult, Vec<Counters>), SimError> {
        let (result, windows, _, _) =
            self.run_sampled_rec(traces, warmup_instructions, window_instructions)?;
        Ok((result, windows))
    }

    /// Runs a workload with telemetry recording, returning the result,
    /// the windowed counter deltas (window size from
    /// [`TelemetryConfig::window_instructions`](crate::config::TelemetryConfig)),
    /// and the recorded [`TelemetryReport`].
    ///
    /// With telemetry disabled in the configuration this degenerates to
    /// [`Simulator::run_warmed`] plus an empty report.
    ///
    /// # Errors
    ///
    /// Same failure modes as [`Simulator::run_warmed`].
    pub fn run_telemetry(
        self,
        traces: Vec<Box<dyn Trace>>,
        warmup_instructions: u64,
    ) -> Result<(SimResult, Vec<Counters>, TelemetryReport), SimError> {
        let window = if self.cfg.telemetry.enabled {
            self.cfg.telemetry.window_instructions
        } else {
            0
        };
        let (result, windows, _, telem) =
            self.run_sampled_rec(traces, warmup_instructions, window)?;
        let report = telem
            .map(|t| {
                let mut registry = t.reg;
                // Process-wide trace-arena health at the end of the run:
                // reuse vs. regeneration, compressed-size bypasses, and
                // the v3 compression footprint. Recorded once here, so
                // the hot path never touches the arena registry lock.
                let a = gaas_trace::arena::stats();
                for (name, v) in [
                    ("arena.generated", a.generated),
                    ("arena.reused", a.reused),
                    ("arena.bypassed", a.bypassed),
                    ("arena.bypass_events", a.bypass_events),
                    ("arena.resident_streams", a.resident_streams),
                    ("arena.resident_events", a.resident_events),
                    ("arena.packed_bytes", a.packed_bytes),
                    ("arena.compressed_bytes", a.compressed_bytes),
                ] {
                    let id = registry.counter(name);
                    registry.add(id, v);
                }
                TelemetryReport {
                    spans_dropped: t.spans.dropped(),
                    spans: t.spans.spans(),
                    registry,
                }
            })
            .unwrap_or_default();
        Ok((result, windows, report))
    }

    /// Runs a workload with a [`ProfileRecorder`] attached, returning the
    /// result together with a [`FunctionalProfile`] that [`price_profile`]
    /// can replay under any timing variant of this configuration's
    /// geometry (see the `profile` module).
    ///
    /// [`price_profile`]: crate::profile::price_profile
    ///
    /// # Errors
    ///
    /// Same failure modes as [`Simulator::run_warmed`].
    ///
    /// # Panics
    ///
    /// Panics when the configuration is not memoizable
    /// ([`functional_fingerprint`] returns `None` for fault injection,
    /// the differential oracle, and checkpointing).
    pub fn run_profiled(
        mut self,
        traces: Vec<Box<dyn Trace>>,
        warmup_instructions: u64,
    ) -> Result<(SimResult, FunctionalProfile), SimError> {
        let fkey = functional_fingerprint(&self.cfg)
            .expect("run_profiled requires a memoizable configuration");
        self.ux.ins.rec = Some(Box::new(ProfileRecorder::new()));
        let (result, _, rec, _) = self.run_sampled_rec(traces, warmup_instructions, 0)?;
        let profile =
            rec.expect("recorder installed above")
                .finish(fkey, warmup_instructions, &result);
        Ok((result, profile))
    }

    #[allow(clippy::type_complexity)]
    fn run_sampled_rec(
        mut self,
        traces: Vec<Box<dyn Trace>>,
        warmup_instructions: u64,
        window_instructions: u64,
    ) -> Result<
        (
            SimResult,
            Vec<Counters>,
            Option<Box<ProfileRecorder>>,
            Option<Box<TelemetryState>>,
        ),
        SimError,
    > {
        let mut sched = Scheduler::new(traces, self.cfg.mp.level, self.cfg.mp.time_slice_cycles);
        let mut warm_snapshot: Option<Counters> = None;
        let mut windows = Vec::new();
        let mut window_start = Counters::new();
        // Disabled features get `u64::MAX` thresholds: the per-instruction
        // poll is then a never-taken compare instead of flag re-checks.
        let mut next_window = if window_instructions > 0 {
            window_instructions
        } else {
            u64::MAX
        };
        let mut next_warm = if warmup_instructions > 0 {
            warmup_instructions
        } else {
            u64::MAX
        };
        let budget_limit = self.cfg.instruction_budget.unwrap_or(u64::MAX);
        let mut checkpoints = Vec::new();
        let checkpoint_interval = self.cfg.checkpoint_interval;
        let mut next_checkpoint = if checkpoint_interval > 0 {
            checkpoint_interval
        } else {
            u64::MAX
        };
        let mut termination = Termination::Completed;
        let mut next_cancel_check = if self.cancel.is_some() {
            CANCEL_CHECK_INTERVAL
        } else {
            u64::MAX
        };
        // The scheduler sees the *functional* clock, not the timing clock:
        // time-slice context switches then land on identical instruction
        // boundaries for every timing variant of one cache geometry.
        //
        // The loop is specialized on `hooks`: when no layer that must see
        // every event (fault injection, differential oracle, profile
        // recorder) is attached — the common case and the whole benchmark
        // kernel — the `false` instantiations of the step functions
        // compile that plumbing out and use the memos and the span drain.
        // Telemetry rides either loop: its notes sit on miss, walk, buffer
        // and switch paths that no memo skips. The flags cannot turn on
        // mid-run, so one check up front covers the run.
        let hooks = self.ux.ins.active();
        // All periodic thresholds collapse into one merged poll: each
        // fires at an exact instruction count, so checking the minimum
        // and re-deriving it after a hit preserves boundary semantics.
        let mut next_poll = next_warm
            .min(next_window)
            .min(next_checkpoint)
            .min(budget_limit)
            .min(next_cancel_check);
        let (core, ux) = (&mut self.core, &mut self.ux);
        while let Some(instr) = sched.next_instruction(core.fnow) {
            if hooks {
                core.step_instruction::<true, _>(ux, &mut NoCoherence, &instr);
                if sched.post_instruction(core.fnow, instr.ifetch.syscall) && ux.ins.telem_on {
                    ux.ins.telem_sched_switch(core.now);
                }
                if ux.ins.pending_mc.is_some() {
                    let fault = ux.ins.pending_mc.take().expect("just checked");
                    return Err(SimError::MachineCheck {
                        fault,
                        cycle: core.now,
                        instructions: core.counters.instructions,
                    });
                }
                if ux.ins.diff_on {
                    if let Some(err) = take_divergence(core, ux) {
                        return Err(err);
                    }
                }
            } else {
                core.step_instruction::<false, _>(ux, &mut NoCoherence, &instr);
                if sched.post_instruction(core.fnow, instr.ifetch.syscall) && ux.ins.telem_on {
                    ux.ins.telem_sched_switch(core.now);
                }
                // Span drain: step straight over the installed process's
                // buffered events, checking the same per-instruction
                // conditions (syscall, slice expiry, merged poll) inline.
                // `post_instruction` on a non-rotating instruction is a
                // no-op, so reporting only the rotating one is exact. The
                // buffer's final event is left for `next_instruction`,
                // which can peek across a batch refill for its data half.
                let slice_end = sched.slice_end();
                loop {
                    if core.counters.instructions >= next_poll {
                        break;
                    }
                    let (span, start) = sched.current_span();
                    let end = span.len();
                    if end - start < 2 {
                        break;
                    }
                    let mut pos = start;
                    let mut rotated = false;
                    let mut rotate_syscall = false;
                    while pos + 1 < end {
                        let ifetch = span[pos];
                        pos += 1;
                        let d = span[pos];
                        let data = if d.kind.is_data() {
                            pos += 1;
                            Some(d)
                        } else {
                            None
                        };
                        core.step_ifetch::<false>(ux, &ifetch);
                        if let Some(d) = data {
                            core.step_data::<false, _>(ux, &mut NoCoherence, &d);
                        }
                        if ifetch.syscall || core.fnow >= slice_end {
                            rotated = true;
                            rotate_syscall = ifetch.syscall;
                            break;
                        }
                        if core.counters.instructions >= next_poll {
                            break;
                        }
                    }
                    sched.advance(pos - start);
                    if rotated {
                        if sched.post_instruction(core.fnow, rotate_syscall) && ux.ins.telem_on {
                            ux.ins.telem_sched_switch(core.now);
                        }
                        break;
                    }
                }
            }
            let retired = core.counters.instructions;
            if retired >= next_poll {
                if retired >= next_cancel_check {
                    next_cancel_check = retired + CANCEL_CHECK_INTERVAL;
                    if self.cancel.as_ref().is_some_and(CancelToken::is_cancelled) {
                        return Err(SimError::Cancelled);
                    }
                }
                if retired >= next_warm {
                    warm_snapshot = Some(core.counters);
                    next_warm = u64::MAX;
                }
                if retired >= next_window {
                    windows.push(core.counters.since(&window_start));
                    window_start = core.counters;
                    next_window += window_instructions;
                }
                if retired >= next_checkpoint {
                    ux.ins.last_checkpoint_cycle = core.now;
                    checkpoints.push(Checkpoint {
                        cycle: core.now,
                        instructions: retired,
                        sched: sched.snapshot(),
                    });
                    next_checkpoint += checkpoint_interval;
                }
                if retired >= budget_limit {
                    termination = Termination::BudgetExhausted;
                    break;
                }
                next_poll = next_warm
                    .min(next_window)
                    .min(next_checkpoint)
                    .min(budget_limit)
                    .min(next_cancel_check);
            }
        }
        // One last structural sweep so a divergence in the tail (after the
        // final periodic check) still surfaces.
        if let Some(mut ds) = ux.ins.diff.take() {
            ds.full_state_check(&core.structures(ux));
            ux.ins.diff = Some(ds);
        }
        if let Some(err) = take_divergence(core, ux) {
            return Err(err);
        }
        core.counters.syscall_switches = sched.syscall_switches();
        core.counters.slice_switches = sched.slice_switches();
        debug_assert_eq!(
            core.now,
            core.counters.total_cycles(),
            "cycle accounting must balance"
        );
        // The warm-up snapshot predates the end-of-run switch counts (they
        // are zero mid-run), so the delta keeps the full-run switch totals.
        let counters = match warm_snapshot {
            Some(snap) => core.counters.since(&snap),
            None => core.counters,
        };
        let per_process = core
            .per_proc
            .iter()
            .enumerate()
            .filter(|(_, p)| p.instructions > 0 || p.loads > 0 || p.stores > 0)
            .map(|(i, p)| (gaas_trace::Pid::new(i as u8), *p))
            .collect();
        if ux.ins.telem_on {
            telem_finalize(core, ux);
        }
        let result = SimResult {
            config: self.cfg.clone(),
            counters,
            completed: sched.completed().to_vec(),
            per_process,
            termination,
            checkpoints,
        };
        Ok((
            result,
            windows,
            self.ux.ins.rec.take(),
            self.ux.ins.telem.take(),
        ))
    }

    /// Processes a single event outside a scheduled workload (single-process
    /// unit testing and calibration).
    pub fn step(&mut self, ev: &TraceEvent) {
        let (core, ux) = (&mut self.core, &mut self.ux);
        if ux.ins.active() {
            match ev.kind {
                AccessKind::IFetch => core.step_ifetch::<true>(ux, ev),
                AccessKind::Load | AccessKind::Store => {
                    core.step_data::<true, _>(ux, &mut NoCoherence, ev)
                }
            }
        } else {
            match ev.kind {
                AccessKind::IFetch => core.step_ifetch::<false>(ux, ev),
                AccessKind::Load | AccessKind::Store => {
                    core.step_data::<false, _>(ux, &mut NoCoherence, ev)
                }
            }
        }
    }

    /// The pending divergence report, if the oracle tripped (for manual
    /// [`Simulator::step`] users; [`Simulator::run`] surfaces it as
    /// [`SimError::Divergence`]).
    pub fn divergence(&self) -> Option<&DivergenceReport> {
        self.ux.ins.diff.as_ref().and_then(|d| d.report())
    }

    /// Accesses the oracle has cross-checked so far (`None` when the
    /// oracle is disabled).
    pub fn oracle_checked(&self) -> Option<u64> {
        self.ux.ins.diff.as_ref().map(|d| d.accesses_checked())
    }
}

/// Takes a pending divergence as the run-terminating error.
fn take_divergence(core: &Core, ux: &mut Uncore) -> Option<SimError> {
    let report = ux.ins.diff.as_mut()?.take_report()?;
    if ux.ins.telem_on {
        ux.ins.telem_oracle_divergence(core.now);
    }
    Some(SimError::Divergence(Box::new(report)))
}

/// End-of-run snapshot of structure-level statistics into the telemetry
/// registry (final occupancies, TLB traffic, buffer high-water mark) so
/// the summary table reflects state the counters alone cannot.
///
/// TLB traffic comes from the counters, not the TLBs' own probe counts:
/// the memos skip probes, while every fetch and every data access is one
/// TLB access architecturally (and one probe on the every-event path).
#[cold]
#[inline(never)]
fn telem_finalize(core: &Core, ux: &mut Uncore) {
    let s = core.structures(ux);
    let c = &core.counters;
    let rows = [
        ("l1i.occupancy", s.l1i.occupancy() as u64),
        ("l1d.occupancy", s.l1d.array().occupancy() as u64),
        ("l2i.occupancy", s.l2i.occupancy() as u64),
        ("l2d.occupancy", s.l2d.occupancy() as u64),
        ("itlb.accesses", c.instructions),
        ("dtlb.accesses", c.loads + c.stores),
        ("wb.peak_depth", s.wb.peak_depth() as u64),
        ("wb.total_enqueued", s.wb.total_enqueued()),
        (
            "mem.demand_misses",
            ux.mem_d.total_misses() + ux.mem_i.total_misses(),
        ),
    ];
    let t = ux.ins.telem.as_deref_mut().expect("telem_on implies state");
    for (name, v) in rows {
        let id = t.reg.counter(name);
        t.reg.add(id, v);
    }
}

/// Convenience: builds a simulator for `cfg` and runs `traces`.
///
/// # Errors
///
/// Returns [`SimError::Config`] when the configuration is invalid, and
/// [`SimError::MachineCheck`] when an injected fault is unrecoverable
/// under the halt policy.
pub fn run(cfg: SimConfig, traces: Vec<Box<dyn Trace>>) -> Result<SimResult, SimError> {
    Simulator::new(cfg)?.run(traces)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::L2Config;
    use gaas_cache::WritePolicy;
    use gaas_trace::{Pid, VecTrace, VirtAddr};

    fn va(w: u64) -> VirtAddr {
        VirtAddr::new(Pid::new(0), w)
    }

    fn run_events(cfg: SimConfig, events: Vec<TraceEvent>) -> SimResult {
        run(cfg, vec![Box::new(VecTrace::new("t", events))]).expect("valid config")
    }

    fn fetch_heavy(n: u64) -> Vec<TraceEvent> {
        (0..n).map(|i| TraceEvent::ifetch(va(i % 64), 0)).collect()
    }

    #[test]
    fn cancelled_token_stops_run_at_batch_boundary() {
        let token = CancelToken::new();
        token.cancel();
        let mut sim = Simulator::new(SimConfig::baseline()).expect("valid");
        sim.set_cancel_token(token);
        // Enough instructions to cross the first cancellation poll.
        let events = fetch_heavy(3 * super::CANCEL_CHECK_INTERVAL);
        let err = sim
            .run(vec![Box::new(VecTrace::new("t", events))])
            .expect_err("cancelled run must not complete");
        assert_eq!(err, SimError::Cancelled);
    }

    #[test]
    fn untriggered_token_does_not_perturb_run() {
        let events = fetch_heavy(3 * super::CANCEL_CHECK_INTERVAL);
        let plain = run_events(SimConfig::baseline(), events.clone());
        let mut sim = Simulator::new(SimConfig::baseline()).expect("valid");
        sim.set_cancel_token(CancelToken::new());
        let tokened = sim
            .run(vec![Box::new(VecTrace::new("t", events))])
            .expect("runs to completion");
        assert_eq!(plain.counters, tokened.counters);
    }

    #[test]
    fn single_hit_instruction_costs_one_cycle() {
        // Two fetches of the same line: first misses, second hits.
        let r = run_events(
            SimConfig::baseline(),
            vec![TraceEvent::ifetch(va(0), 0), TraceEvent::ifetch(va(1), 0)],
        );
        assert_eq!(r.counters.instructions, 2);
        assert_eq!(r.counters.l1i_misses, 1);
        // Cold L1 miss -> cold L2 miss: 143 cycles total, split 6 + 137.
        assert_eq!(r.counters.l1i_miss_cycles, 6);
        assert_eq!(r.counters.l2i_miss_cycles, 137);
        assert_eq!(r.cycles(), 2 + 143);
    }

    #[test]
    fn l2_hit_costs_access_time() {
        // Touch line 0, evict it from L1 via conflicting fetches, re-touch:
        // second access to line 0 hits L2 (6 cycles), not memory.
        let l1_words = 4096;
        let evs = vec![
            TraceEvent::ifetch(va(0), 0),        // cold: 143
            TraceEvent::ifetch(va(l1_words), 0), // conflicts in L1, cold L2: 143
            TraceEvent::ifetch(va(0), 0),        // L1 miss, L2 hit: 6
        ];
        let r = run_events(SimConfig::baseline(), evs);
        assert_eq!(r.counters.l1i_misses, 3);
        assert_eq!(r.counters.l2i_misses, 2);
        assert_eq!(r.cycles(), 3 + 143 + 143 + 6);
    }

    #[test]
    fn cpu_stalls_accumulate() {
        let evs = vec![TraceEvent::ifetch(va(0), 3), TraceEvent::ifetch(va(1), 2)];
        let r = run_events(SimConfig::baseline(), evs);
        assert_eq!(r.counters.cpu_stall_cycles, 5);
        assert_eq!(r.cycles(), 2 + 5 + 143);
    }

    #[test]
    fn write_back_store_hit_costs_extra_cycle() {
        let mut evs = fetch_heavy(1);
        evs.push(TraceEvent::load(va(0x10000))); // allocate the line (cold miss)
        evs.push(TraceEvent::ifetch(va(1), 0));
        evs.push(TraceEvent::store(va(0x10000))); // write hit: 2 cycles
        let r = run_events(SimConfig::baseline(), evs);
        assert_eq!(r.counters.l1_write_cycles, 1);
        assert_eq!(r.counters.l1d_write_misses, 0);
    }

    #[test]
    fn write_through_store_miss_costs_extra_cycle_and_streams() {
        let mut b = SimConfig::builder();
        b.policy(WritePolicy::WriteOnly);
        let cfg = b.build().expect("valid");
        let evs = vec![
            TraceEvent::ifetch(va(0), 0),
            TraceEvent::store(va(0x10000)), // write miss: tag update, 2 cycles
            TraceEvent::ifetch(va(1), 0),
            TraceEvent::store(va(0x10001)), // write-only hit: 1 cycle
        ];
        let r = run_events(cfg, evs);
        assert_eq!(r.counters.l1d_write_misses, 1);
        assert_eq!(
            r.counters.l1_write_cycles, 1,
            "only the miss pays the extra cycle"
        );
        assert_eq!(r.counters.l2_drain_writes, 2, "both words stream to L2");
    }

    #[test]
    fn i_miss_waits_for_write_buffer_in_base() {
        // Pending write-buffer words make the next instruction miss wait
        // (base rule: both primary caches wait for WB-empty).
        let mut b = SimConfig::builder();
        b.policy(WritePolicy::WriteOnly);
        let cfg = b.build().expect("valid");
        // Warm one line, then issue store hits back-to-back (1 cycle each,
        // drains take 6), then take an I-miss while words are in flight.
        let mut evs = vec![
            TraceEvent::ifetch(va(0), 0),
            TraceEvent::store(va(0x10000)), // miss: adopts the line
        ];
        for i in 0..4 {
            evs.push(TraceEvent::ifetch(va(1), 0));
            evs.push(TraceEvent::store(va(0x10000 + 1 + i)));
        }
        let mut no_stores = vec![TraceEvent::ifetch(va(0), 0)];
        no_stores.push(TraceEvent::ifetch(va(0x20000), 0)); // I miss
        evs.push(TraceEvent::ifetch(va(0x20000), 0)); // I miss behind drains
        let r_with = run_events(cfg.clone(), evs);
        let r_without = run_events(cfg.clone(), no_stores);
        assert!(
            r_with.counters.wb_wait_cycles > r_without.counters.wb_wait_cycles,
            "pending drains must stall the I-miss: {} vs {}",
            r_with.counters.wb_wait_cycles,
            r_without.counters.wb_wait_cycles
        );
    }

    #[test]
    fn accounting_balances_for_random_workload() {
        use gaas_trace::rng::SmallRng;
        let mut rng = SmallRng::seed_from_u64(42);
        let mut evs = Vec::new();
        for _ in 0..20_000 {
            evs.push(TraceEvent::ifetch(
                va(rng.gen_range(0u64..8192)),
                rng.gen_range(0u8..3),
            ));
            match rng.gen_range(0u8..4) {
                0 => evs.push(TraceEvent::load(va(0x100000 + rng.gen_range(0u64..65536)))),
                1 => evs.push(TraceEvent::store(va(0x100000 + rng.gen_range(0u64..65536)))),
                _ => {}
            }
        }
        for policy in WritePolicy::all() {
            let mut b = SimConfig::builder();
            b.policy(policy);
            let r = run_events(b.build().expect("valid"), evs.clone());
            // run() debug-asserts now == total_cycles; double-check the
            // breakdown sums too.
            let b = r.breakdown();
            assert!(
                (b.total() - r.cpi()).abs() < 1e-9,
                "{policy:?}: breakdown {} vs cpi {}",
                b.total(),
                r.cpi()
            );
        }
    }

    #[test]
    fn optimized_config_runs_and_balances() {
        let evs = fetch_heavy(5_000)
            .into_iter()
            .flat_map(|f| {
                vec![
                    f,
                    TraceEvent::store(va(0x100000 + (f.addr.word() * 7) % 4096)),
                ]
            })
            .collect::<Vec<_>>();
        let r = run_events(SimConfig::optimized(), evs);
        assert!(r.cpi() >= 1.0);
        let b = r.breakdown();
        assert!((b.total() - r.cpi()).abs() < 1e-9);
    }

    #[test]
    fn dirty_buffer_reduces_dirty_miss_cost() {
        // Construct a workload with heavy dirty L2 traffic: write-back
        // policy, stores marching over a large footprint with conflicting
        // re-reads.
        use gaas_trace::rng::SmallRng;
        let mut rng = SmallRng::seed_from_u64(7);
        let mut evs = Vec::new();
        for _ in 0..30_000 {
            evs.push(TraceEvent::ifetch(va(rng.gen_range(0u64..256)), 0));
            // Large stride to generate L2 misses with dirty victims.
            evs.push(TraceEvent::store(va(
                0x100000 + rng.gen_range(0u64..2_000_000)
            )));
        }
        let base = run_events(SimConfig::baseline(), evs.clone());
        let mut b = SimConfig::builder();
        b.concurrency(crate::config::ConcurrencyConfig {
            l2d_dirty_buffer: true,
            ..Default::default()
        });
        let with_db = run_events(b.build().expect("valid"), evs);
        assert!(
            with_db.cycles() < base.cycles(),
            "dirty buffer should help: {} vs {}",
            with_db.cycles(),
            base.cycles()
        );
    }

    #[test]
    fn tlb_penalty_charged_when_configured() {
        let mut b = SimConfig::builder();
        b.tlb_miss_penalty(20);
        let r = run_events(
            b.build().expect("valid"),
            vec![TraceEvent::ifetch(va(0), 0), TraceEvent::load(va(0x100000))],
        );
        assert_eq!(r.counters.itlb_misses, 1);
        assert_eq!(r.counters.dtlb_misses, 1);
        assert_eq!(r.counters.tlb_miss_cycles, 40);
    }

    #[test]
    fn split_l2_separates_i_and_d() {
        // With a split L2, instruction lines can never be evicted by data
        // traffic.
        let mut b = SimConfig::builder();
        b.l2(L2Config::split_even(262_144, 1, 6));
        let cfg = b.build().expect("valid");
        let mut evs = vec![TraceEvent::ifetch(va(0), 0)];
        // Data sweep that would alias instruction lines in a unified L2.
        for i in 0..16_384u64 {
            evs.push(TraceEvent::ifetch(va(1), 0));
            evs.push(TraceEvent::load(va(0x100000 + i * 32)));
        }
        // Evict line 0 from L1-I (conflict), then re-fetch: L2-I must hit.
        evs.push(TraceEvent::ifetch(va(4096), 0));
        evs.push(TraceEvent::ifetch(va(0), 0));
        let r = run_events(cfg, evs);
        // Misses: va(0) cold, va(4096) cold; the final re-fetch of va(0)
        // hits L2-I (it was never evicted by the data sweep).
        assert_eq!(r.counters.l2i_misses, 2);
        assert_eq!(r.counters.l1i_misses, 3);
    }

    #[test]
    fn result_cpi_matches_cycles_over_instructions() {
        let r = run_events(SimConfig::baseline(), fetch_heavy(100));
        assert!((r.cpi() - r.cycles() as f64 / 100.0).abs() < 1e-12);
    }

    // ---- soft-error injection and recovery ----

    use crate::config::{FaultConfig, MachineCheckPolicy};
    use gaas_cache::fault::{FaultRates, Protection, ProtectionMap, Structure, TargetedFault};

    /// A targeted single fault on `structure` at per-structure access
    /// ordinal `access`, everything else quiet.
    fn targeted(structure: Structure, access: u64) -> FaultConfig {
        FaultConfig {
            targeted: vec![TargetedFault {
                structure,
                access,
                set: 0,
                bit: 0,
            }],
            ..FaultConfig::default()
        }
    }

    #[test]
    fn default_fault_config_is_bit_identical_to_baseline() {
        let evs = fetch_heavy(2_000)
            .into_iter()
            .flat_map(|f| {
                vec![
                    f,
                    TraceEvent::store(va(0x100000 + (f.addr.word() * 13) % 8192)),
                ]
            })
            .collect::<Vec<_>>();
        let plain = run_events(SimConfig::baseline(), evs.clone());
        let mut b = SimConfig::builder();
        b.fault(FaultConfig::default());
        let with_default = run_events(b.build().expect("valid"), evs);
        assert_eq!(plain.counters, with_default.counters);
        assert_eq!(plain.cycles(), with_default.cycles());
    }

    #[test]
    fn parity_on_clean_l1i_line_refetches_and_rehits() {
        let mut fault = targeted(Structure::L1I, 0);
        fault.protection.l1i = Protection::Parity;
        let mut b = SimConfig::builder();
        b.fault(fault);
        // Fetch 1 cold-misses (143, fills L2); fetches 2 and 3 hit. The
        // targeted fault strikes the first L1-I *hit* (injector ordinal 0):
        // parity on a clean line -> invalidate-and-refetch at the real
        // refill cost, an L2-I hit (6 cycles). Fetch 3 re-hits untouched.
        let r = run_events(
            b.build().expect("valid"),
            vec![
                TraceEvent::ifetch(va(0), 0),
                TraceEvent::ifetch(va(0), 0),
                TraceEvent::ifetch(va(0), 0),
            ],
        );
        assert_eq!(r.counters.faults_injected, 1);
        assert_eq!(r.counters.fault_refetches, 1);
        assert_eq!(r.counters.machine_checks, 0);
        assert_eq!(
            r.counters.recovery_cycles, 6,
            "refetch costs the real L2-I hit refill"
        );
        assert_eq!(r.cycles(), 3 + 143 + 6);
        assert!((r.breakdown().total() - r.cpi()).abs() < 1e-12);
        assert!(
            r.breakdown().recovery > 0.0,
            "recovery appears in the CPI stack"
        );
    }

    #[test]
    fn parity_on_dirty_line_machine_checks_under_write_back_but_not_write_only() {
        // load (miss, allocate) / store (hit: injector ordinal 0) /
        // load (hit: ordinal 1 <- the targeted strike).
        let evs = vec![
            TraceEvent::ifetch(va(0), 0),
            TraceEvent::load(va(0x10000)),
            TraceEvent::ifetch(va(1), 0),
            TraceEvent::store(va(0x10000)),
            TraceEvent::ifetch(va(2), 0),
            TraceEvent::load(va(0x10000)),
        ];
        let mut fault = targeted(Structure::L1D, 1);
        fault.protection.l1d = Protection::Parity;

        // Write-back: the struck line is dirty — the only copy. Parity
        // detects but cannot recover: machine check, run halts.
        let mut wb = SimConfig::builder();
        wb.policy(WritePolicy::WriteBack).fault(fault.clone());
        let err = run(
            wb.build().expect("valid"),
            vec![Box::new(VecTrace::new("t", evs.clone()))],
        )
        .expect_err("dirty parity strike must machine-check");
        match err {
            SimError::MachineCheck {
                fault,
                instructions,
                ..
            } => {
                assert_eq!(fault.structure, Structure::L1D);
                assert_eq!(instructions, 3);
            }
            other => panic!("expected machine check, got {other:?}"),
        }

        // Write-only streams every store through the buffer, so the L1
        // copy is clean: the same strike recovers by refetch.
        let mut wo = SimConfig::builder();
        wo.policy(WritePolicy::WriteOnly).fault(fault);
        let r = run(
            wo.build().expect("valid"),
            vec![Box::new(VecTrace::new("t", evs))],
        )
        .expect("write-only recovers");
        assert_eq!(r.counters.fault_refetches, 1);
        assert_eq!(r.counters.machine_checks, 0);
        assert!(r.counters.recovery_cycles > 0);
    }

    #[test]
    fn ecc_correction_charges_exactly_the_configured_penalty() {
        let evs = vec![
            TraceEvent::ifetch(va(0), 0),
            TraceEvent::load(va(0x10000)),
            TraceEvent::ifetch(va(1), 0),
            TraceEvent::load(va(0x10000)), // hit: ordinal 0, struck
        ];
        let clean = run_events(SimConfig::baseline(), evs.clone());

        let mut fault = targeted(Structure::L1D, 0);
        fault.protection.l1d = Protection::Ecc;
        fault.ecc_correction_cycles = 7;
        let mut b = SimConfig::builder();
        b.fault(fault);
        let r = run_events(b.build().expect("valid"), evs);
        assert_eq!(r.counters.faults_corrected, 1);
        assert_eq!(r.counters.recovery_cycles, 7);
        assert_eq!(
            r.cycles(),
            clean.cycles() + 7,
            "exactly the ECC penalty, nothing else"
        );
    }

    #[test]
    fn restart_policy_rolls_back_instead_of_halting() {
        let evs = vec![
            TraceEvent::ifetch(va(0), 0),
            TraceEvent::load(va(0x10000)),
            TraceEvent::ifetch(va(1), 0),
            TraceEvent::store(va(0x10000)),
            TraceEvent::ifetch(va(2), 0),
            TraceEvent::load(va(0x10000)), // dirty strike (ordinal 1)
            TraceEvent::ifetch(va(3), 0),
        ];
        let mut fault = targeted(Structure::L1D, 1);
        fault.protection.l1d = Protection::Parity;
        fault.machine_check = MachineCheckPolicy::Restart;
        let mut b = SimConfig::builder();
        b.policy(WritePolicy::WriteBack).fault(fault);
        let r = run_events(b.build().expect("valid"), evs);
        assert_eq!(r.counters.machine_checks, 1);
        assert!(
            r.counters.recovery_cycles > 0,
            "rollback re-execution is charged"
        );
        assert_eq!(r.completed.len(), 1, "the run continues to completion");
        assert!((r.breakdown().total() - r.cpi()).abs() < 1e-12);
    }

    #[test]
    fn same_seed_reproduces_identical_fault_sites_and_result() {
        let fault = FaultConfig {
            seed: 0xFA17,
            rates: FaultRates::uniform(2e-3),
            protection: ProtectionMap::uniform(Protection::Ecc),
            multi_bit_frac: 0.0, // keep every fault correctable
            ..FaultConfig::default()
        };
        let mut b = SimConfig::builder();
        b.fault(fault);
        let cfg = b.build().expect("valid");
        let evs = fetch_heavy(5_000)
            .into_iter()
            .flat_map(|f| {
                vec![
                    f,
                    TraceEvent::load(va(0x100000 + (f.addr.word() * 7) % 4096)),
                ]
            })
            .collect::<Vec<_>>();
        let a = run_events(cfg.clone(), evs.clone());
        let b = run_events(cfg, evs);
        assert!(a.counters.faults_injected > 0, "rate high enough to fire");
        assert_eq!(a.counters, b.counters);
        assert_eq!(a.cycles(), b.cycles());
    }

    #[test]
    fn watchdog_aborts_runaway_run_with_partial_result() {
        let mut b = SimConfig::builder();
        b.instruction_budget(100);
        let r = run_events(b.build().expect("valid"), fetch_heavy(10_000));
        assert_eq!(r.termination, Termination::BudgetExhausted);
        assert!(!r.is_complete());
        assert_eq!(r.counters.instructions, 100);
        assert!(r.completed.is_empty(), "the benchmark never finished");
        assert!(
            (r.breakdown().total() - r.cpi()).abs() < 1e-12,
            "partial result still balances"
        );
    }

    #[test]
    fn checkpoints_record_monotone_progress() {
        let mut b = SimConfig::builder();
        b.checkpoint_interval(250);
        let r = run_events(b.build().expect("valid"), fetch_heavy(1_000));
        assert_eq!(r.checkpoints.len(), 4);
        for w in r.checkpoints.windows(2) {
            assert!(w[1].cycle > w[0].cycle);
            assert!(w[1].instructions > w[0].instructions);
        }
        assert_eq!(r.checkpoints.last().expect("nonempty").sched.completed, 0);
        assert_eq!(r.termination, Termination::Completed);
    }

    #[test]
    fn sim_error_display_and_source() {
        let cfg_err: SimError = ConfigError::ZeroMultiprogramming.into();
        assert!(cfg_err.to_string().contains("invalid configuration"));
        assert!(std::error::Error::source(&cfg_err).is_some());
        let mc = SimError::MachineCheck {
            fault: gaas_cache::fault::FaultEvent {
                structure: Structure::L1D,
                access: 3,
                set: 1,
                bit: 2,
                multi_bit: false,
                targeted: true,
            },
            cycle: 99,
            instructions: 10,
        };
        let s = mc.to_string();
        assert!(s.contains("machine check") && s.contains("99"));
    }

    #[test]
    fn per_process_attribution_partitions_the_run() {
        // Two interleaved processes: per-process counters must partition
        // instructions and cycles exactly.
        let mk = |pid: u8, n: u64| {
            let evs: Vec<TraceEvent> = (0..n)
                .flat_map(|i| {
                    vec![
                        TraceEvent::ifetch(VirtAddr::new(Pid::new(pid), i % 512), 0),
                        TraceEvent::load(VirtAddr::new(Pid::new(pid), 0x100000 + (i * 3) % 2048)),
                    ]
                })
                .collect();
            Box::new(VecTrace::new(format!("p{pid}"), evs)) as Box<dyn Trace>
        };
        let mut b = SimConfig::builder();
        b.mp_level(2).time_slice(500);
        let r = run(b.build().expect("valid"), vec![mk(1, 3000), mk(2, 2000)]).expect("valid");

        assert_eq!(r.per_process.len(), 2);
        let total_instr: u64 = r.per_process.iter().map(|(_, p)| p.instructions).sum();
        let total_cycles: u64 = r.per_process.iter().map(|(_, p)| p.cycles).sum();
        assert_eq!(total_instr, r.counters.instructions);
        assert_eq!(total_cycles, r.cycles(), "cycles partition exactly");
        let p1 = r
            .per_process
            .iter()
            .find(|(pid, _)| pid.raw() == 1)
            .expect("pid 1")
            .1;
        assert_eq!(p1.instructions, 3000);
        assert_eq!(p1.loads, 3000);
        assert!(p1.cpi() >= 1.0);
    }

    // ---- telemetry ----

    /// Every registry row of a telemetry run, less the process-wide
    /// `arena.*` counters (their reuse count differs between two runs in
    /// one process). Histograms compare through their full `Debug` form.
    fn registry_rows(report: &TelemetryReport) -> Vec<String> {
        let reg = &report.registry;
        reg.counters()
            .filter(|(name, _)| !name.starts_with("arena."))
            .map(|(name, v)| format!("{name} {v}"))
            .chain(reg.histograms().map(|(name, h)| format!("{name} {h:?}")))
            .collect()
    }

    #[test]
    fn telemetry_only_runs_ride_the_bare_kernel_and_record_identically() {
        use crate::config::{DiffCheckConfig, TelemetryConfig};
        // Telemetry alone must select the memoized, span-draining
        // `HOOKS = false` loop; adding the oracle forces the every-event
        // loop. What telemetry records must not depend on which loop ran.
        // A 200-cycle time slice puts context switches both after the
        // outer step and inside the span drain.
        let telemetry = TelemetryConfig {
            window_instructions: 20_000,
            ..TelemetryConfig::on()
        };
        for policy in WritePolicy::all() {
            let run_with = |oracle: bool| {
                let mut b = SimConfig::builder();
                b.policy(policy).time_slice(200).telemetry(telemetry);
                if oracle {
                    b.diffcheck(DiffCheckConfig::on());
                }
                let sim = Simulator::new(b.build().expect("valid")).expect("constructs");
                assert_eq!(
                    sim.ux.ins.active(),
                    oracle,
                    "{policy:?}: only the oracle may send a telemetry run down the hooked loop"
                );
                sim.run_telemetry(crate::workload::standard(5e-4), 50_000)
                    .expect("runs")
            };
            let (fast, fast_windows, fast_report) = run_with(false);
            let (every, every_windows, every_report) = run_with(true);
            assert_eq!(fast.counters, every.counters, "{policy:?}: counters");
            assert_eq!(
                fast.per_process, every.per_process,
                "{policy:?}: per-process rows"
            );
            assert!(fast_windows.len() > 1, "{policy:?}: several windows");
            let switches = fast.counters.syscall_switches + fast.counters.slice_switches;
            assert!(switches > 0, "{policy:?}: the slice must expire");
            assert_eq!(
                fast_report.registry.value_of("sched.switch"),
                Some(switches),
                "{policy:?}: one switch note per context switch"
            );
            assert_eq!(fast_windows, every_windows, "{policy:?}: windows");
            assert!(!fast_report.spans.is_empty(), "{policy:?}: spans recorded");
            assert_eq!(fast_report.spans, every_report.spans, "{policy:?}: spans");
            assert_eq!(
                fast_report.spans_dropped, every_report.spans_dropped,
                "{policy:?}: dropped spans"
            );
            assert_eq!(
                registry_rows(&fast_report),
                registry_rows(&every_report),
                "{policy:?}: registry counters and histograms"
            );
        }
    }
}
