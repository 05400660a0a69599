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
//! [`Core`] over one [`Uncore`]; this module adds the run loop, results
//! and the instrumentation layers. The run loop, [`run_cores`], is the
//! one both engines drive: it steps N cores over one uncore, each fed by
//! its own scheduler and stepping against a [`Protocol`]'s coherence
//! hooks. `Simulator` runs it on its one core with [`NoCoherence`]; the
//! `gaas-coherence` CMP engine runs it on N cores with MESI.
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
use gaas_telemetry::{Component, CounterId, Registry, Span, SpanRecorder};
use gaas_trace::{Trace, TraceEvent};

use crate::config::{ConfigError, MachineCheckPolicy, SimConfig};
use crate::cpi::{ran_rows, Counters, ProcCounters};
use crate::oracle::{DiffState, DivergenceReport};
use crate::pipeline::{Coherence, Core, NoCoherence, Note, Uncore, Unfolded};
use crate::profile::{functional_fingerprint, FunctionalProfile, ProfileRecorder};
use crate::sched::{Instruction, SchedSnapshot, Scheduler};

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
        /// The wall-clock budget that was exhausted, in milliseconds.
        millis: u64,
    },
    /// The run's [`CancelToken`] was triggered; the simulator stopped
    /// cooperatively at the next instruction-batch boundary.
    Cancelled,
    /// The coherence oracle observed a protocol invariant violation in a
    /// CMP run (stale read, multiple writers, or a copy surviving its
    /// invalidation): [`run_cores`] returns it after a lockstep step
    /// when the [`Protocol`] reports one, which only the `gaas-coherence`
    /// engine's MESI protocol does.
    Coherence {
        /// Core on which the violation was observed.
        core: u32,
        /// That core's timing-clock cycle at the violation.
        cycle: u64,
        /// Which invariant failed, with the evidence.
        detail: String,
    },
    /// Two cores of a CMP run made data references to one private PID.
    /// Every PID but `gaas_trace::SHARED_PID` belongs to the first core
    /// that references its data; the multi-core run-ahead of
    /// [`run_cores`] relies on no other core ever touching those lines.
    /// A 1-core run never returns it.
    PidOwnership {
        /// The private PID.
        pid: u8,
        /// The core that claimed it.
        owner: u32,
        /// The second core, whose data reference was refused.
        core: u32,
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
            SimError::Timeout { millis } if millis % 1000 == 0 => {
                write!(f, "cell exceeded its {}s wall-clock budget", millis / 1000)
            }
            SimError::Timeout { millis } => {
                write!(f, "cell exceeded its {millis} ms wall-clock budget")
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
            SimError::PidOwnership { pid, owner, core } => write!(
                f,
                "core {core} referenced data of PID {pid}, which is private to core {owner} \
                 (only the shared PID may be referenced from several cores)"
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
            | SimError::Coherence { .. }
            | SimError::PidOwnership { .. } => None,
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
pub(crate) const CANCEL_CHECK_INTERVAL: u64 = 8192;

/// A run's periodic thresholds — the warm-up snapshot, counter windows,
/// checkpoints, the instruction budget and the cancel poll — merged into
/// one poll. Each fires at an exact retired-instruction count, so
/// checking the minimum and re-deriving it after a hit preserves
/// boundary semantics. Disabled features get `u64::MAX` thresholds: the
/// per-instruction poll is then a never-taken compare instead of flag
/// re-checks.
#[derive(Debug, Clone)]
pub(crate) struct Polls {
    warm: u64,
    window: u64,
    window_len: u64,
    checkpoint: u64,
    checkpoint_len: u64,
    budget: u64,
    cancel: u64,
    next: u64,
}

/// The thresholds one [`Polls::fire`] found due; the caller takes the
/// matching snapshots.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct Due {
    /// The warm-up ended: snapshot the counters to subtract.
    pub warm: bool,
    /// A counter window closed.
    pub window: bool,
    /// A checkpoint is due.
    pub checkpoint: bool,
    /// The instruction budget is spent: stop the run.
    pub budget: bool,
}

impl Polls {
    /// The thresholds of a run of `cfg` that discards `warmup`
    /// instructions, samples a window every `window` instructions (0
    /// disables sampling), and polls a cancel token when `cancellable`.
    pub fn new(cfg: &SimConfig, warmup: u64, window: u64, cancellable: bool) -> Self {
        let every = |n: u64| if n > 0 { n } else { u64::MAX };
        let mut polls = Polls {
            warm: every(warmup),
            window: every(window),
            window_len: window,
            checkpoint: every(cfg.checkpoint_interval),
            checkpoint_len: cfg.checkpoint_interval,
            budget: cfg.instruction_budget.unwrap_or(u64::MAX),
            cancel: if cancellable {
                CANCEL_CHECK_INTERVAL
            } else {
                u64::MAX
            },
            next: 0,
        };
        polls.next = polls.next_exact().min(polls.cancel);
        polls
    }

    /// The retired-instruction count of the next poll.
    #[inline(always)]
    pub fn next(&self) -> u64 {
        self.next
    }

    /// The next threshold that must see the exact instruction prefix:
    /// every one but the cancel poll, since a cancelled run returns no
    /// counters.
    pub fn next_exact(&self) -> u64 {
        self.warm
            .min(self.window)
            .min(self.checkpoint)
            .min(self.budget)
    }

    /// Fires every threshold at or below `retired`, re-arming the
    /// periodic ones.
    ///
    /// # Errors
    ///
    /// [`SimError::Cancelled`] when the cancel poll is due and `cancel`
    /// has fired.
    #[cold]
    pub fn fire(&mut self, retired: u64, cancel: Option<&CancelToken>) -> Result<Due, SimError> {
        let mut due = Due::default();
        if retired >= self.cancel {
            self.cancel = retired + CANCEL_CHECK_INTERVAL;
            if cancel.is_some_and(CancelToken::is_cancelled) {
                return Err(SimError::Cancelled);
            }
        }
        if retired >= self.warm {
            due.warm = true;
            self.warm = u64::MAX;
        }
        if retired >= self.window {
            due.window = true;
            self.window += self.window_len;
        }
        if retired >= self.checkpoint {
            due.checkpoint = true;
            self.checkpoint += self.checkpoint_len;
        }
        due.budget = retired >= self.budget;
        self.next = self.next_exact().min(self.cancel);
        Ok(due)
    }
}

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
///
/// Per event it records only what [`Counters`] cannot hold: the spans,
/// the three cycle histograms and the full-buffer stall count. Every
/// other counter row is derived once, at run end, from the core's
/// counters (see [`telem_finalize`]).
pub(crate) struct TelemetryState {
    reg: Registry,
    spans: SpanRecorder,
    /// `wb.full_stall`, the one row counted per event.
    full_stalls: CounterId,
}

impl TelemetryState {
    fn new(span_capacity: usize) -> Self {
        let mut reg = Registry::new();
        // Registered up front, in the registry's row order; all but
        // `wb.full_stall` are filled in by `telem_finalize`.
        for name in [
            "l2.lookup.i",
            "l2.lookup.d",
            "mem.refill.i",
            "mem.refill.d",
            "wb.enqueue",
            "wb.full_stall",
            "wb.read_wait",
            "tlb.walk.i",
            "tlb.walk.d",
            "sched.switch",
            "fault.event",
            "oracle.divergence",
        ] {
            reg.counter(name);
        }
        TelemetryState {
            full_stalls: reg.counter("wb.full_stall"),
            reg,
            spans: SpanRecorder::new(span_capacity),
        }
    }

    /// Records one note: its span, and its histogram sample or
    /// full-stall count. `#[cold]` and out of line, so the gate
    /// ([`Instruments::note`]) costs one predictable branch when
    /// telemetry is off.
    #[cold]
    #[inline(never)]
    pub(crate) fn note(&mut self, note: Note<'_>) {
        let (reg, spans) = (&mut self.reg, &mut self.spans);
        match note {
            Note::Walk { i_side, start, dur } => {
                let name = if i_side { "tlb.walk.i" } else { "tlb.walk.d" };
                spans.record(name, Component::Tlb, start, dur);
            }
            Note::Refill {
                i_side,
                hit: true,
                start,
                dur,
            } => {
                let name = if i_side { "refill.l1i" } else { "refill.l1d" };
                spans.record(name, Component::L2, start, dur);
            }
            Note::Refill {
                i_side,
                hit: false,
                start,
                dur,
            } => {
                let (hist, name) = if i_side {
                    ("mem.refill.i.cycles", "refill.l2i")
                } else {
                    ("mem.refill.d.cycles", "refill.l2d")
                };
                reg.observe(hist, dur);
                spans.record(name, Component::Memory, start, dur);
            }
            Note::WbWait { start, dur } => {
                reg.observe("wb.read_wait.cycles", dur);
                spans.record("wb.wait", Component::Wb, start, dur);
            }
            Note::Enqueue { start, e } => {
                if e.stall > 0 {
                    reg.inc(self.full_stalls);
                    spans.record("wb.full-stall", Component::Wb, start, e.stall);
                }
                if e.completes > e.busy_from {
                    let busy = e.completes - e.busy_from;
                    spans.record("wb.drain", Component::Wb, e.busy_from, busy);
                }
            }
            Note::Switch { now } => spans.instant("sched.switch", Component::Sched, now),
            Note::Fault { effect, now } => {
                let name = match effect {
                    FaultEffect::Silent => "fault.silent",
                    FaultEffect::Correct => "fault.corrected",
                    FaultEffect::Refetch => "fault.refetch",
                    FaultEffect::MachineCheck => "fault.machine-check",
                };
                spans.instant(name, Component::Fault, now);
            }
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
    /// Unrecoverable fault awaiting the halt at the instruction boundary.
    pub(crate) pending_mc: Option<FaultEvent>,
    /// Cycle of the last checkpoint (restart rollback target).
    pub(crate) last_checkpoint_cycle: u64,
    /// Lockstep golden-model state (`None` = oracle off, exact fast path).
    pub(crate) diff: Option<Box<DiffState>>,
    /// Functional-outcome recorder (`None` = normal run; installed by
    /// [`Simulator::run_profiled`] for the two-phase sweep memoizer).
    pub(crate) rec: Option<Box<ProfileRecorder>>,
    /// Telemetry state (`None` = telemetry off, exact fast path).
    pub(crate) telem: Option<Box<TelemetryState>>,
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
        let telem = cfg
            .telemetry
            .enabled
            .then(|| Box::new(TelemetryState::new(cfg.telemetry.span_capacity)));
        Ok(Instruments {
            fault,
            diff,
            telem,
            ..Instruments::default()
        })
    }

    /// Whether a layer that must see every event is attached: fault
    /// injection or the lockstep oracle. When neither is, the
    /// `HOOKS = false` step instantiations (with those hooks compiled
    /// out, plus the same-line fetch memo and the per-side page memos)
    /// are exact.
    ///
    /// Telemetry does not count: its notes fire only on L1 misses, TLB
    /// walks, write-buffer traffic and context switches, none of which a
    /// memo skips, and the all-hit fold flushes before each. Nor does
    /// the profile recorder, which writes the fold's runs as its run
    /// tokens (in the `REC = true` instantiation, selected per run).
    /// Either rides the bare kernel.
    #[inline]
    pub(crate) fn active(&self) -> bool {
        self.fault.is_some() || self.diff.is_some()
    }

    /// Attaches a fresh profile recorder for a run that warms up over
    /// `warmup` instructions.
    pub(crate) fn install_recorder(&mut self, warmup: u64) {
        self.rec = Some(Box::new(ProfileRecorder::new(warmup)));
    }

    /// The attached profile recorder; only the `REC = true` step
    /// instantiations call it, and a run selects those only when one is
    /// attached.
    #[inline]
    pub(crate) fn recorder(&mut self) -> &mut ProfileRecorder {
        self.rec.as_deref_mut().expect("REC implies a recorder")
    }

    /// Hands `note` to the telemetry sink, if telemetry is on. Every
    /// note site goes through this one gate: with telemetry off it is one
    /// predictable never-taken branch, and recording is passive (no
    /// cycles charged, no PRNG touched), so results are byte-identical
    /// either way.
    #[inline(always)]
    pub(crate) fn note(&mut self, note: Note<'_>) {
        if let Some(t) = self.telem.as_deref_mut() {
            t.note(note);
        }
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
        self.core.lane.now
    }

    /// Counters accumulated so far.
    pub fn counters(&self) -> &Counters {
        &self.core.lane.counters
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
        mut self,
        traces: Vec<Box<dyn Trace>>,
        warmup_instructions: u64,
        window_instructions: u64,
    ) -> Result<(SimResult, Vec<Counters>), SimError> {
        let out = self.drive(traces, warmup_instructions, window_instructions)?;
        Ok((out.result, out.windows))
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
        mut self,
        traces: Vec<Box<dyn Trace>>,
        warmup_instructions: u64,
    ) -> Result<(SimResult, Vec<Counters>, TelemetryReport), SimError> {
        let window = if self.cfg.telemetry.enabled {
            self.cfg.telemetry.window_instructions
        } else {
            0
        };
        let out = self.drive(traces, warmup_instructions, window)?;
        let report = self
            .ux
            .ins
            .telem
            .take()
            .map(|t| TelemetryReport {
                spans_dropped: t.spans.dropped(),
                spans: t.spans.spans(),
                registry: t.reg,
            })
            .unwrap_or_default();
        Ok((out.result, out.windows, report))
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
        self.ux.ins.install_recorder(warmup_instructions);
        let result = self.drive(traces, warmup_instructions, 0)?.result;
        let rec = self.ux.ins.rec.take().expect("recorder installed above");
        let profile = rec.finish(fkey, &result);
        Ok((result, profile))
    }

    /// Runs `traces` through [`run_cores`] on this one core; the
    /// recorder and telemetry state stay on `self.ux` for the caller.
    fn drive(
        &mut self,
        traces: Vec<Box<dyn Trace>>,
        warmup: u64,
        window: u64,
    ) -> Result<RunOutput, SimError> {
        let spec = RunSpec {
            cfg: &self.cfg,
            warmup,
            window,
            cancel: self.cancel.as_ref(),
        };
        let core = std::slice::from_mut(&mut self.core);
        run_cores(core, &mut self.ux, &mut NoCoherence, vec![traces], &spec)
    }

    /// Processes a single event outside a scheduled workload (single-process
    /// unit testing and calibration): a fetch steps as an instruction
    /// without data, a load or store as a data step on its own, each by
    /// its rule (no fold).
    pub fn step(&mut self, ev: &TraceEvent) {
        let (core, ux, coh) = (&mut self.core, &mut self.ux, &mut Unfolded);
        match (ux.ins.active(), ev.kind.is_data()) {
            (true, false) => core.step_instruction::<true, false, _>(ux, coh, ev, None),
            (true, true) => core.step_data::<true, false, _>(ux, coh, ev, None),
            (false, false) => core.step_instruction::<false, false, _>(ux, coh, ev, None),
            (false, true) => core.step_data::<false, false, _>(ux, coh, ev, None),
        }
    }
}

/// The coherence protocol the cores of a [`run_cores`] run step
/// against: [`NoCoherence`] for [`Simulator`], MESI for the CMP engine.
pub trait Protocol {
    /// The [`Coherence`] hooks one core steps against.
    type Hooks<'a>: Coherence
    where
        Self: 'a;

    /// The hooks core `c` steps against, with the other cores reachable
    /// as remotes: `below` holds cores `0..c`, `above` cores `c + 1..`.
    fn hooks<'a>(
        &'a mut self,
        c: usize,
        below: &'a mut [Core],
        above: &'a mut [Core],
    ) -> Self::Hooks<'a>;

    /// Whether a multi-core run steps in lockstep on the instrumented
    /// path (a coherence oracle is attached).
    fn lockstep(&self) -> bool {
        false
    }

    /// The invariant violation a lockstep step exposed: the core it was
    /// observed on, and the evidence.
    fn violation(&self) -> Option<(u32, String)> {
        None
    }
}

impl Protocol for NoCoherence {
    type Hooks<'a> = NoCoherence;

    fn hooks<'a>(&'a mut self, _: usize, _: &'a mut [Core], _: &'a mut [Core]) -> NoCoherence {
        NoCoherence
    }
}

/// What one [`run_cores`] call runs.
#[derive(Debug)]
pub struct RunSpec<'a> {
    /// The configuration (its checkpoint interval and instruction
    /// budget are polled).
    pub cfg: &'a SimConfig,
    /// Instructions, summed over the cores, whose statistics are
    /// discarded.
    pub warmup: u64,
    /// Instructions per counter window (0 disables sampling).
    pub window: u64,
    /// The cooperative-cancellation token.
    pub cancel: Option<&'a CancelToken>,
}

/// What a [`run_cores`] run produced, warm-up excluded throughout.
#[derive(Debug)]
pub struct RunOutput {
    /// The result merged over every core.
    pub result: SimResult,
    /// Per-core counters, index = core id.
    pub per_core: Vec<Counters>,
    /// Deltas of the merged counters, one per window.
    pub windows: Vec<Counters>,
}

/// How far past the runner-up's functional clock a core runs ahead
/// through core-local instructions, in cycles.
const HORIZON: u64 = 1024;

/// The `owners` entry of a PID whose data no core has referenced yet.
const UNOWNED: u8 = u8::MAX;

/// The run loop of both engines: `cores` over one uncore, each fed by
/// its own scheduler over its list of `traces`, until every scheduler
/// runs dry or the instruction budget is spent.
///
/// The result is that of the lockstep interleave by functional clock:
/// one instruction at a time from the core with the lowest `(fnow, id)`.
/// The loop reaches it in turns (DESIGN.md §16 argues exactness):
///
/// * **One core.** A turn is one span drain up to the next rotation or
///   poll, stepping [`NoCoherence`] and admitting every instruction,
///   whichever engine runs it: no pick, ownership check or turn bound.
/// * **Exact steps.** Of several cores, the lowest `(fnow, id)` steps
///   while its key stays below the runner-up's. Coherence charges only
///   timing clocks, so no other key moves: lockstep takes these next.
/// * **Run-ahead.** Past that key the core continues only through
///   instructions `Core::local_step` proves core-local, on PIDs it
///   owns. Such a step touches only this core's state and its private
///   lines, so it commutes with every other core's step.
/// * **Horizon and poll margin.** A run-ahead stops `HORIZON` (1024)
///   cycles past the runner-up's `fnow`, so at most `N · HORIZON` steps
///   lockstep would run first are missing, and no run-ahead starts
///   within `2·N·(HORIZON + 2)` instructions of the next warm-up,
///   window, checkpoint or budget poll: each sees the exact lockstep
///   prefix. A cancelled run returns no counters, so the cancel poll
///   needs no margin.
/// * **Lockstep.** A run with fault injection or the golden-model
///   oracle, or a multi-core run whose protocol asks for it, steps one
///   instruction per turn on the instrumented path, then checks for a
///   machine check, a divergence and a coherence violation.
///
/// Each PID but [`gaas_trace::SHARED_PID`] is private to the first core
/// that references its data (the standard CMP workload runs each
/// benchmark on one core and puts shared data on the shared PID). The
/// instruments on `ux` and checkpoints observe one core: a multi-core
/// run carries none.
///
/// # Errors
///
/// [`SimError::Cancelled`], [`SimError::MachineCheck`],
/// [`SimError::Divergence`], [`SimError::Coherence`] when the protocol
/// reports a violation, and [`SimError::PidOwnership`] when a second
/// core references a private PID's data.
///
/// # Panics
///
/// Panics unless there is one trace list per core, and at least one core.
pub fn run_cores<P: Protocol>(
    cores: &mut [Core],
    ux: &mut Uncore,
    proto: &mut P,
    traces: Vec<Vec<Box<dyn Trace>>>,
    spec: &RunSpec<'_>,
) -> Result<RunOutput, SimError> {
    let n = cores.len();
    assert!(n > 0 && traces.len() == n, "one trace list per core");
    let mp = &spec.cfg.mp;
    let mut scheds: Vec<Scheduler> = traces
        .into_iter()
        .map(|list| Scheduler::new(list, mp.level, mp.time_slice_cycles))
        .collect();
    let multi = n > 1;
    let ins = &ux.ins;
    debug_assert!(!multi || !(ins.active() || ins.rec.is_some() || ins.telem.is_some()));
    let mut polls = Polls::new(spec.cfg, spec.warmup, spec.window, spec.cancel.is_some());
    let mut next_poll = polls.next();
    let mut warm_snapshot: Option<Vec<Counters>> = None;
    let mut windows = Vec::new();
    let mut window_start = Counters::new();
    let mut checkpoints = Vec::new();
    let mut termination = Termination::Completed;
    let mut retired = 0u64;
    let mut done = vec![false; n];
    let mut owners = [UNOWNED; 256];
    let poll_margin = 2 * n as u64 * (HORIZON + 2);
    // Schedulers run on the *functional* clock, so context switches land
    // on the same instruction for every timing variant of one geometry.
    // Without a layer that must see every event, the `HOOKS = false`
    // step instantiations use the memos and the span drain; telemetry
    // rides them too (no memo skips a note site), and `REC` compiles the
    // recorder's notes in only when one is attached.
    let hooks = ins.active() || (multi && proto.lockstep());
    let rec = ins.rec.is_some();
    loop {
        let picked = if multi {
            pick(cores, &done)
        } else {
            (!done[0]).then_some((0, u64::MAX))
        };
        let Some((c, exact_end)) = picked else { break };
        let Some(instr) = scheds[c].next_instruction(cores[c].fnow) else {
            done[c] = true;
            continue;
        };
        let (below, rest) = cores.split_at_mut(c);
        let (core, above) = rest.split_first_mut().expect("picked core exists");
        let sched = &mut scheds[c];
        let before = core.retired();
        // The poll, in this core's retired instructions.
        let poll = before + (next_poll - retired);
        if hooks && multi {
            claim(&mut owners, c, instr.data.as_ref())?;
            let coh = &mut proto.hooks(c, below, above);
            step_hooked(core, ux, coh, sched, &instr, rec)?;
        } else if hooks {
            step_hooked(core, ux, &mut NoCoherence, sched, &instr, rec)?;
        } else if !multi {
            let (coh, whole) = (&mut NoCoherence, &mut WholeSpan);
            if rec {
                step_bare::<true, _, _>(core, ux, coh, whole, sched, &instr, poll);
            } else {
                step_bare::<false, _, _>(core, ux, coh, whole, sched, &instr, poll);
            }
        } else {
            let room = polls.next_exact().saturating_sub(retired);
            let mut turn = CoreTurn {
                id: c,
                owners: &mut owners,
                exact_end,
                ahead_end: exact_end.saturating_add(HORIZON),
                ahead_instructions: before.saturating_add(room.saturating_sub(poll_margin)),
                refused: None,
            };
            let coh = &mut proto.hooks(c, below, above);
            step_bare::<false, _, _>(core, ux, coh, &mut turn, sched, &instr, poll);
            if let Some(err) = turn.refused {
                return Err(err);
            }
        }
        if hooks {
            if let Some((id, detail)) = proto.violation() {
                let cycle = cores[id as usize].lane.now;
                return Err(SimError::Coherence {
                    core: id,
                    cycle,
                    detail,
                });
            }
        }
        retired += cores[c].retired() - before;
        if retired >= next_poll {
            let due = polls.fire(retired, spec.cancel)?;
            next_poll = polls.next();
            // The snapshots read the lanes; a spent budget ends the loop,
            // and the run-end flush follows.
            if due.warm || due.window || due.checkpoint {
                flush_runs(cores, ux);
            }
            if due.warm {
                warm_snapshot = Some(cores.iter().map(|core| core.lane.counters).collect());
            }
            if due.window {
                let total = sum(cores.iter().map(|core| &core.lane.counters));
                windows.push(total.since(&window_start));
                window_start = total;
            }
            if due.checkpoint {
                ux.ins.last_checkpoint_cycle = cores[0].lane.now;
                checkpoints.push(Checkpoint {
                    cycle: cores[0].lane.now,
                    instructions: retired,
                    sched: scheds[0].snapshot(),
                });
            }
            if due.budget {
                termination = Termination::BudgetExhausted;
                break;
            }
        }
    }
    flush_runs(cores, ux);
    // One last structural sweep so a divergence in the tail (after the
    // final periodic check) still surfaces.
    if let Some(mut ds) = ux.ins.diff.take() {
        ds.full_state_check(&cores[0].structures(ux));
        ux.ins.diff = Some(ds);
    }
    if let Some(err) = take_divergence(ux) {
        return Err(err);
    }
    let mut per_proc: Vec<ProcCounters> = Vec::new();
    for (core, sched) in cores.iter_mut().zip(&scheds) {
        core.lane.counters.syscall_switches = sched.syscall_switches();
        core.lane.counters.slice_switches = sched.slice_switches();
        debug_assert_eq!(
            core.lane.now,
            core.lane.counters.total_cycles(),
            "cycles must balance"
        );
        // Rows merge by PID: the shared pseudo-process runs on every core.
        if per_proc.len() < core.lane.per_proc.len() {
            per_proc.resize(core.lane.per_proc.len(), ProcCounters::default());
        }
        for (row, p) in per_proc.iter_mut().zip(&core.lane.per_proc) {
            row.add(p);
        }
    }
    // The warm-up snapshot predates the end-of-run switch counts (they
    // are zero mid-run), so the delta keeps the full-run switch totals.
    let per_core: Vec<Counters> = cores
        .iter()
        .enumerate()
        .map(|(i, core)| match &warm_snapshot {
            Some(snaps) => core.lane.counters.since(&snaps[i]),
            None => core.lane.counters,
        })
        .collect();
    if ux.ins.telem.is_some() {
        telem_finalize(&cores[0], ux);
    }
    let result = SimResult {
        config: spec.cfg.clone(),
        counters: sum(&per_core),
        completed: scheds.iter().flat_map(|s| s.completed().to_vec()).collect(),
        per_process: ran_rows(&per_proc),
        termination,
        checkpoints,
    };
    Ok(RunOutput {
        result,
        per_core,
        windows,
    })
}

/// Charges each core's all-hit run to its lane (see `pipeline`), as
/// anything that reads the lanes must first.
fn flush_runs(cores: &mut [Core], ux: &mut Uncore) {
    let rec = ux.ins.rec.is_some();
    for core in cores {
        if rec {
            core.flush_run::<true>(ux);
        } else {
            core.flush_run::<false>(ux);
        }
    }
}

/// The sum of `counters`.
fn sum<'a>(counters: impl IntoIterator<Item = &'a Counters>) -> Counters {
    let zero = Counters::new();
    counters.into_iter().fold(zero, |acc, c| acc.accum(c))
}

/// The next multi-core turn: the core with the lowest `(fnow, id)` not
/// `done`, and the end of its exact steps, the first `fnow` at which its
/// key passes the runner-up's `(f, r)`: `fnow < f + [c < r]`.
fn pick(cores: &[Core], done: &[bool]) -> Option<(usize, u64)> {
    let keys = cores
        .iter()
        .enumerate()
        .filter(|&(i, _)| !done[i])
        .map(|(i, core)| (core.fnow, i));
    let (_, c) = keys.clone().min()?;
    let second = keys.filter(|&(_, i)| i != c).min();
    Some((c, second.map_or(u64::MAX, |(f, r)| f + u64::from(c < r))))
}

/// One lockstep step on the instrumented (`HOOKS = true`) path, then
/// its checks: a pending machine check, and a divergence. Kept out of
/// line: inlined, it bloats the loop around the bare kernel's drain,
/// which measurably slowed the single-CPU kernel.
#[inline(never)]
fn step_hooked<C: Coherence>(
    core: &mut Core,
    ux: &mut Uncore,
    coh: &mut C,
    sched: &mut Scheduler,
    instr: &Instruction,
    rec: bool,
) -> Result<(), SimError> {
    let (ifetch, data) = (&instr.ifetch, instr.data.as_ref());
    if rec {
        core.step_instruction::<true, true, C>(ux, coh, ifetch, data);
    } else {
        core.step_instruction::<true, false, C>(ux, coh, ifetch, data);
    }
    if sched.post_instruction(core.fnow, instr.ifetch.syscall) {
        ux.ins.note(Note::Switch { now: core.lane.now });
    }
    if let Some(fault) = ux.ins.pending_mc.take() {
        return Err(SimError::MachineCheck {
            fault,
            cycle: core.lane.now,
            instructions: core.lane.counters.instructions,
        });
    }
    take_divergence(ux).map_or(Ok(()), Err)
}

/// Claims the data reference's PID for core `c` on its first reference,
/// and refuses a reference to a PID another core has claimed. The
/// shared PID belongs to no core.
fn claim(owners: &mut [u8; 256], c: usize, data: Option<&TraceEvent>) -> Result<(), SimError> {
    let pid = match data.map(|d| d.addr.pid()) {
        Some(pid) if pid != gaas_trace::SHARED_PID => pid,
        _ => return Ok(()),
    };
    let owner = &mut owners[usize::from(pid.raw())];
    if *owner == UNOWNED {
        *owner = c as u8;
    }
    if usize::from(*owner) == c {
        return Ok(());
    }
    Err(SimError::PidOwnership {
        pid: pid.raw(),
        owner: u32::from(*owner),
        core: c as u32,
    })
}

/// One multi-core turn of core `id` (see [`run_cores`]): exact steps
/// while `fnow < exact_end`, then core-local steps on owned PIDs while
/// `fnow < ahead_end` and the core has retired fewer than
/// `ahead_instructions`.
struct CoreTurn<'a> {
    id: usize,
    owners: &'a mut [u8; 256],
    exact_end: u64,
    ahead_end: u64,
    ahead_instructions: u64,
    /// The ownership error that ended the turn, if one did.
    refused: Option<SimError>,
}

impl Turn for CoreTurn<'_> {
    #[inline(always)]
    fn admit(&mut self, core: &Core, ifetch: &TraceEvent, data: Option<&TraceEvent>) -> bool {
        if core.fnow < self.exact_end {
            let claimed = claim(self.owners, self.id, data);
            return claimed.map_err(|err| self.refused = Some(err)).is_ok();
        }
        let owned = |d: &TraceEvent| usize::from(self.owners[usize::from(d.addr.pid().raw())]);
        core.fnow < self.ahead_end
            && core.retired() < self.ahead_instructions
            && data.map_or(true, |d| owned(d) == self.id)
            && core.local_step(ifetch, data)
    }
}

/// Where a span drain's turn ends, asked before each instruction the
/// drain would step. A 1-core run drains with [`WholeSpan`], which
/// admits everything, so its drain stops only at a rotation, the end of
/// the buffered span or the poll; a multi-core turn ([`CoreTurn`]) also
/// stops where another core must step first.
pub(crate) trait Turn {
    /// Whether `core` steps the instruction `ifetch` (with its data
    /// reference `data`) in this turn. A refusal ends the turn before
    /// the instruction, which stays buffered for the next turn.
    fn admit(&mut self, core: &Core, ifetch: &TraceEvent, data: Option<&TraceEvent>) -> bool;
}

/// The single-CPU [`Turn`]: every instruction is admitted.
#[derive(Debug, Clone, Copy)]
pub(crate) struct WholeSpan;

impl Turn for WholeSpan {
    #[inline(always)]
    fn admit(&mut self, _: &Core, _: &TraceEvent, _: Option<&TraceEvent>) -> bool {
        true
    }
}

/// One turn of the bare-kernel run loop: the scheduled instruction, then
/// a span drain up to the next rotation, the poll at `next_poll` retired
/// instructions ([`Core::retired`], which counts the core's unflushed
/// all-hit run), or the first instruction `turn` refuses. The first
/// instruction passes through `turn` too; when it is refused nothing
/// steps. `REC` compiles the profile recorder's notes in; the run
/// selects it once, like `hooks`. `C` and `T` are [`NoCoherence`] and
/// [`WholeSpan`] for a 1-core run, whose instantiation compiles every
/// hook and turn check out.
#[inline(always)]
pub(crate) fn step_bare<const REC: bool, C: Coherence, T: Turn>(
    core: &mut Core,
    ux: &mut Uncore,
    coh: &mut C,
    turn: &mut T,
    sched: &mut Scheduler,
    instr: &Instruction,
    next_poll: u64,
) {
    if !turn.admit(core, &instr.ifetch, instr.data.as_ref()) {
        return;
    }
    core.step_instruction::<false, REC, C>(ux, coh, &instr.ifetch, instr.data.as_ref());
    if sched.post_instruction(core.fnow, instr.ifetch.syscall) {
        note_switch::<REC>(core, ux);
    }
    // Span drain: step straight over the installed process's buffered
    // events, checking the same per-instruction conditions (syscall,
    // slice expiry, merged poll) inline. `post_instruction` on a
    // non-rotating instruction is a no-op, so reporting only the rotating
    // one is exact. The buffer's final event is left for
    // `next_instruction`, which can peek across a batch refill for its
    // data half.
    let slice_end = sched.slice_end();
    loop {
        if core.retired() >= next_poll {
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
        let mut refused = false;
        while pos + 1 < end {
            let ifetch = span[pos];
            let d = span[pos + 1];
            let data = d.kind.is_data().then_some(d);
            if !turn.admit(core, &ifetch, data.as_ref()) {
                refused = true;
                break;
            }
            pos += 1 + usize::from(data.is_some());
            core.step_instruction::<false, REC, C>(ux, coh, &ifetch, data.as_ref());
            if ifetch.syscall || core.fnow >= slice_end {
                rotated = true;
                rotate_syscall = ifetch.syscall;
                break;
            }
            if core.retired() >= next_poll {
                break;
            }
        }
        sched.advance(pos - start);
        if rotated {
            if sched.post_instruction(core.fnow, rotate_syscall) {
                note_switch::<REC>(core, ux);
            }
            break;
        }
        if refused {
            break;
        }
    }
}

/// Notes a context switch at the core's lane time to telemetry, which
/// reads that time, so the core's all-hit run is flushed first.
#[inline(always)]
fn note_switch<const REC: bool>(core: &mut Core, ux: &mut Uncore) {
    if ux.ins.telem.is_some() {
        core.flush_run::<REC>(ux);
        ux.ins.note(Note::Switch { now: core.lane.now });
    }
}

/// Takes a pending divergence as the run-terminating error. The error
/// ends the run before [`telem_finalize`], so a divergence leaves no
/// telemetry report to note it in.
fn take_divergence(ux: &mut Uncore) -> Option<SimError> {
    let report = ux.ins.diff.as_mut()?.take_report()?;
    Some(SimError::Divergence(Box::new(report)))
}

/// Fills the telemetry registry's counter rows at run end, the one
/// place they are written. The event rows come from the core's full-run
/// counters (warm-up included), each bumped at the site where the step
/// notes the event; `wb.read_wait` is the sample count of its histogram.
/// Then the structure rows (final occupancies, TLB traffic, the buffer's
/// high-water mark, memory misses with drains and refetches) and the
/// process-wide trace-arena health (read once here, so the hot path
/// never touches the arena registry lock).
///
/// TLB traffic comes from the counters, not the TLBs' own probe counts:
/// the memos skip probes, while every fetch and every data access is one
/// TLB access architecturally (and one probe on the every-event path).
#[cold]
#[inline(never)]
fn telem_finalize(core: &Core, ux: &mut Uncore) {
    let s = core.structures(ux);
    let c = &core.lane.counters;
    let events = [
        ("l2.lookup.i", c.l2i_accesses - c.l2i_misses),
        ("l2.lookup.d", c.l2d_accesses - c.l2d_misses),
        ("mem.refill.i", c.l2i_misses),
        ("mem.refill.d", c.l2d_misses),
        ("wb.enqueue", c.l2_drain_writes),
        ("tlb.walk.i", c.itlb_misses),
        ("tlb.walk.d", c.dtlb_misses),
        ("sched.switch", c.syscall_switches + c.slice_switches),
        ("fault.event", c.faults_injected),
    ];
    let structures = [
        ("l1i.occupancy", s.l1i.occupancy() as u64),
        ("l1d.occupancy", s.l1d.array().occupancy() as u64),
        ("l2i.occupancy", s.l2i.occupancy() as u64),
        ("l2d.occupancy", s.l2d.occupancy() as u64),
        ("itlb.accesses", c.instructions),
        ("dtlb.accesses", c.loads + c.stores),
        ("wb.peak_depth", s.wb.peak_depth() as u64),
        ("wb.total_enqueued", c.l2_drain_writes),
        ("mem.demand_misses", ux.timing.memory_misses()),
    ];
    let a = gaas_trace::arena::stats();
    let arena = [
        ("arena.generated", a.generated),
        ("arena.reused", a.reused),
        ("arena.bypassed", a.bypassed),
        ("arena.bypass_events", a.bypass_events),
        ("arena.resident_streams", a.resident_streams),
        ("arena.resident_events", a.resident_events),
        ("arena.packed_bytes", a.packed_bytes),
        ("arena.compressed_bytes", a.compressed_bytes),
    ];
    let reg = &mut ux.ins.telem.as_deref_mut().expect("telemetry is on").reg;
    let read_waits = reg
        .histograms()
        .find(|&(name, _)| name == "wb.read_wait.cycles")
        .map_or(0, |(_, h)| h.count());
    let rows = events.into_iter().chain([("wb.read_wait", read_waits)]);
    for (name, v) in rows.chain(structures).chain(arena) {
        let id = reg.counter(name);
        reg.add(id, v);
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
    use gaas_trace::{AccessKind, Pid, VecTrace, VirtAddr};

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

    #[test]
    fn telemetry_with_fault_injection_counts_every_fault() {
        use crate::config::TelemetryConfig;
        // One targeted fault per structure, all under parity, and the
        // restart policy so a machine check lets the run complete and
        // the report reach the caller.
        let structures = [
            Structure::L1I,
            Structure::L1D,
            Structure::L2,
            Structure::Tlb,
            Structure::WriteBuffer,
        ];
        let fault = FaultConfig {
            targeted: structures
                .into_iter()
                .zip((0..).step_by(40))
                .flat_map(|(s, access)| targeted(s, access).targeted)
                .collect(),
            protection: ProtectionMap::uniform(Protection::Parity),
            machine_check: MachineCheckPolicy::Restart,
            ..FaultConfig::default()
        };
        let mut b = SimConfig::builder();
        b.time_slice(200)
            .fault(fault)
            .telemetry(TelemetryConfig::on());
        let sim = Simulator::new(b.build().expect("valid")).expect("constructs");
        let (r, _, report) = sim
            .run_telemetry(crate::workload::standard(1e-4), 0)
            .expect("runs");
        let c = &r.counters;
        assert_eq!(c.faults_injected, 5, "every targeted fault fires");
        assert_eq!(report.spans_dropped, 0, "every span is kept");
        let fault_spans = report.spans.iter().filter(|s| s.name.starts_with("fault."));
        assert_eq!(fault_spans.count() as u64, c.faults_injected);
        for (name, v) in [
            ("fault.event", c.faults_injected),
            ("l2.lookup.i", c.l2i_accesses - c.l2i_misses),
            ("l2.lookup.d", c.l2d_accesses - c.l2d_misses),
            ("mem.refill.i", c.l2i_misses),
            ("mem.refill.d", c.l2d_misses),
            ("wb.enqueue", c.l2_drain_writes),
            ("tlb.walk.i", c.itlb_misses),
            ("tlb.walk.d", c.dtlb_misses),
            ("sched.switch", c.syscall_switches + c.slice_switches),
        ] {
            assert_eq!(report.registry.value_of(name), Some(v), "{name}");
        }
    }

    #[test]
    fn page_memos_are_exact() {
        use crate::config::DiffCheckConfig;
        use gaas_trace::{PAGE_SHIFT, PAGE_WORDS};
        // Fetches that cross lines within a page and then pages, for two
        // PIDs with identical virtual layouts taking turns on each page,
        // so the same VPN recurs under another PID on both sides. Each
        // block stores to a line, loads another word of it and then the
        // stored word, loads from a second data page, and ends on the
        // first data page, where the next block's store begins.
        let at = |pid: u8, w: u64| VirtAddr::new(Pid::new(pid), w);
        let (d0, d1) = (1000 * PAGE_WORDS, 1001 * PAGE_WORDS);
        let mut events = Vec::new();
        for page in 0..3 {
            for pid in [1, 2] {
                for i in 0..24 {
                    events.push(TraceEvent::ifetch(at(pid, page * PAGE_WORDS + i), 0));
                    match i % 6 {
                        1 => events.push(TraceEvent::store(at(pid, d0 + 4 * i))),
                        2 => events.push(TraceEvent::load(at(pid, d0 + 4 * (i - 1) + 1))),
                        3 => events.push(TraceEvent::load(at(pid, d0 + 4 * (i - 2)))),
                        4 => events.push(TraceEvent::load(at(pid, d1 + i))),
                        5 => events.push(TraceEvent::load(at(pid, d0 + i))),
                        _ => {}
                    }
                }
            }
        }
        let page_changes = |fetches: bool| {
            let mut last = u64::MAX;
            let side = events
                .iter()
                .filter(|e| (e.kind == AccessKind::IFetch) == fetches);
            side.filter(|e| std::mem::replace(&mut last, e.addr.raw() >> PAGE_SHIFT) != last)
                .count() as u64
        };
        let changes = (page_changes(true), page_changes(false));
        assert_eq!(changes, (6, 54), "the trace's page changes per side");
        for policy in WritePolicy::all() {
            let run_with = |oracle: bool| {
                let mut b = SimConfig::builder();
                b.policy(policy);
                if oracle {
                    b.diffcheck(DiffCheckConfig::on());
                }
                let mut sim = Simulator::new(b.build().expect("valid")).expect("constructs");
                assert_eq!(sim.ux.ins.active(), oracle, "{policy:?}");
                let trace: Box<dyn Trace> = Box::new(VecTrace::new("t", events.clone()));
                let out = sim.drive(vec![trace], 0, 0).expect("runs");
                (out.result, sim.core.tlb_probes())
            };
            let (bare, probes) = run_with(false);
            let (every, every_probes) = run_with(true);
            assert_eq!(bare.counters, every.counters, "{policy:?}: counters");
            assert_eq!(bare.per_process, every.per_process, "{policy:?}: rows");
            assert_eq!(bare.per_process.len(), 2, "{policy:?}: both PIDs ran");
            assert_eq!(probes, changes, "{policy:?}: one TLB probe per page change");
            let c = &bare.counters;
            assert_eq!(
                every_probes,
                (c.instructions, c.loads + c.stores),
                "{policy:?}: the hooked path probes every access"
            );
        }
    }

    #[test]
    fn all_hit_fold_is_exact() {
        use crate::config::{DiffCheckConfig, TelemetryConfig};
        use gaas_trace::PAGE_WORDS;
        // Two processes, each a 16-line code loop and a 16-line data set
        // that hit once warm, so most instructions fold.
        // Inside those runs: fetches cycling over three pages of one ITLB
        // set and loads over four pages of one DTLB set (TLB misses on L1
        // hits), a far code page and a streaming data page (L1 misses that
        // end a run), syscalls, and a 2,000-cycle slice that rotates the
        // PIDs mid-run. The warm-up, the windows, the checkpoints and the
        // budget all land at counts that are no multiple of any period.
        const N: u64 = 15_000;
        const WARMUP: u64 = 4_321;
        const WINDOW: u64 = 1_013;
        const BUDGET: u64 = 27_777;
        let events = |pid: u8| {
            // A page is as large as each L1, so the PIDs take disjoint
            // page offsets to keep their working sets apart.
            let at = |page: u64, offset: u64| {
                VirtAddr::new(
                    Pid::new(pid),
                    page * PAGE_WORDS + offset + 64 * u64::from(pid),
                )
            };
            let mut evs = Vec::new();
            for k in 0..N {
                let fetch = match k {
                    _ if k % 401 == 400 => at(5, (k * 4) % 3968),
                    _ if k % 37 == 0 => at(16 * (1 + k / 37 % 3), 1024 + 256 * (k / 37 % 3)),
                    _ => at(0, k % 64),
                };
                let fetch = TraceEvent::ifetch(fetch, (k % 7 % 3) as u8);
                evs.push(if k % 997 == 996 {
                    fetch.with_syscall()
                } else {
                    fetch
                });
                let word = 2048 + 64 * u64::from(pid) + (k * 5) % 64;
                evs.extend(match k % 5 {
                    0 if k % 29 == 0 => Some(TraceEvent::load(at(
                        1000 + 32 * (k % 4),
                        2560 + 256 * (k % 4),
                    ))),
                    0 if k % 211 == 0 => Some(TraceEvent::load(at(2000, (k * 16) % 3968))),
                    0 | 3 => Some(TraceEvent::load(at(1000, word))),
                    1 => Some(TraceEvent::store(at(1000, word))),
                    _ => None,
                });
            }
            Box::new(VecTrace::new(format!("p{pid}"), evs)) as Box<dyn Trace>
        };
        for policy in WritePolicy::all() {
            for telemetry in [false, true] {
                let run_with = |oracle: bool| {
                    let mut b = SimConfig::builder();
                    b.policy(policy)
                        .mp_level(2)
                        .time_slice(2_000)
                        .tlb_miss_penalty(20)
                        .checkpoint_interval(2_500)
                        .instruction_budget(BUDGET);
                    if telemetry {
                        b.telemetry(TelemetryConfig::on());
                    }
                    if oracle {
                        b.diffcheck(DiffCheckConfig::on());
                    }
                    let mut sim = Simulator::new(b.build().expect("valid")).expect("constructs");
                    assert_eq!(sim.ux.ins.active(), oracle, "{policy:?}");
                    let out = sim
                        .drive(vec![events(1), events(2)], WARMUP, WINDOW)
                        .expect("runs");
                    let spans = sim.ux.ins.telem.take().map(|t| t.spans.spans());
                    (out, spans)
                };
                let what = format!("{policy:?}, telemetry {telemetry}");
                let (bare, bare_spans) = run_with(false);
                let (every, every_spans) = run_with(true);
                let (r, c) = (&bare.result, &bare.result.counters);
                assert_eq!(c, &every.result.counters, "{what}: counters");
                assert_eq!(r.per_process, every.result.per_process, "{what}: rows");
                assert_eq!(bare.windows, every.windows, "{what}: windows");
                assert_eq!(
                    r.checkpoints, every.result.checkpoints,
                    "{what}: checkpoints"
                );
                assert_eq!(bare_spans, every_spans, "{what}: spans");
                assert_eq!(r.termination, Termination::BudgetExhausted, "{what}");
                assert_eq!(c.instructions, BUDGET - WARMUP, "{what}: the budget");
                assert_eq!(r.per_process.len(), 2, "{what}: both PIDs ran");
                assert!(c.slice_switches > 10 && c.syscall_switches > 0, "{what}");
                assert_eq!(bare.windows.len() as u64, BUDGET / WINDOW, "{what}");
                assert_eq!(r.checkpoints.len() as u64, BUDGET / 2_500, "{what}");
                assert!(
                    c.itlb_misses > 2 * c.l1i_misses
                        && c.dtlb_misses > c.l1d_read_misses + c.l1d_write_misses,
                    "{what}: TLB misses on L1 hits: {c:?}"
                );
                if telemetry {
                    assert!(bare_spans.is_some_and(|s| !s.is_empty()), "{what}");
                }
            }
        }
    }

    #[test]
    fn recorder_only_runs_ride_the_bare_kernel_and_record_identically() {
        use crate::config::DiffCheckConfig;
        use crate::profile::price_profile;
        use gaas_trace::codec::U64StreamCursor;
        // The recorder alone must select the memoized, span-draining,
        // folding `HOOKS = false` loop. `run_profiled` refuses the oracle,
        // so the every-event recording installs the recorder by hand on an
        // oracle-on simulator; that loop does not fold, so it writes one
        // record per instruction where the bare kernel writes its runs.
        // Under any write policy, both profiles must carry the same
        // addresses and price identically at every timing point.
        const WARMUP: u64 = 50_000;
        let addrs = |p: &FunctionalProfile| {
            let mut cur = U64StreamCursor::new(&p.addr_blocks);
            std::iter::from_fn(|| cur.next_value()).collect::<Vec<_>>()
        };
        for policy in WritePolicy::all() {
            let mut b = SimConfig::builder();
            b.policy(policy).time_slice(200);
            let cfg = b.build().expect("valid");
            let mut sim = Simulator::new(cfg.clone()).expect("constructs");
            sim.ux.ins.install_recorder(WARMUP);
            assert!(
                !sim.ux.ins.active(),
                "{policy:?}: the recorder alone must step the bare kernel"
            );
            let (fast_result, fast) = sim
                .run_profiled(crate::workload::standard(5e-4), WARMUP)
                .expect("runs");

            b.diffcheck(DiffCheckConfig::on());
            let mut sim = Simulator::new(b.build().expect("valid")).expect("constructs");
            sim.ux.ins.install_recorder(WARMUP);
            assert!(
                sim.ux.ins.active(),
                "{policy:?}: the oracle forces the hooked loop"
            );
            let every_result = sim
                .drive(crate::workload::standard(5e-4), WARMUP, 0)
                .expect("runs")
                .result;
            let fkey = functional_fingerprint(&cfg).expect("memoizable");
            let rec = sim.ux.ins.rec.take().expect("installed");
            let every = rec.finish(fkey, &every_result);

            assert_eq!(
                fast_result.counters, every_result.counters,
                "{policy:?}: counters"
            );
            assert!(
                fast.syscall_switches + fast.slice_switches > 0,
                "{policy:?}: the slice must expire"
            );
            assert!(
                fast.ops.len() < every.ops.len(),
                "{policy:?}: the bare kernel folds its all-hit runs: {} vs {} bytes",
                fast.ops.len(),
                every.ops.len()
            );
            assert!(fast.addr_count() > 0, "{policy:?}: addresses recorded");
            assert_eq!(addrs(&fast), addrs(&every), "{policy:?}: addresses");
            let mut slow = cfg.to_builder();
            slow.l2_access(9)
                .tlb_miss_penalty(20)
                .write_buffer(crate::config::WriteBufferConfig {
                    depth: 2,
                    width_words: 1,
                });
            for timing in [cfg.clone(), slow.build().expect("valid")] {
                let priced = [&fast, &every].map(|p| price_profile(&timing, p).expect("prices"));
                assert_eq!(
                    priced[0].counters, priced[1].counters,
                    "{policy:?}: priced counters"
                );
                assert_eq!(
                    priced[0].per_process, priced[1].per_process,
                    "{policy:?}: priced rows"
                );
            }
            let priced = price_profile(&cfg, &fast).expect("prices");
            assert_eq!(
                priced.counters, fast_result.counters,
                "{policy:?}: priced vs run"
            );
            assert_eq!(
                priced.per_process, fast_result.per_process,
                "{policy:?}: priced rows vs run"
            );
        }
    }
}
