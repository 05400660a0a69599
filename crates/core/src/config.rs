//! Architecture configuration: every knob the design study turns.
//!
//! [`SimConfig`] describes one point in the paper's design space. Two
//! presets anchor the study: [`SimConfig::baseline`] (§2, Fig. 1) and
//! [`SimConfig::optimized`] (§9, Fig. 11); every figure's sweep is a set of
//! builder edits away from one of them.

use std::fmt;

use gaas_cache::fault::{FaultRates, ProtectionMap, TargetedFault};
use gaas_cache::{CacheGeometry, GeometryError, MainMemory, WritePolicy};

/// Geometry of a primary cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct L1Config {
    /// Total size in words (base: 4 KW).
    pub size_words: u64,
    /// Line length in words — fetch size equals line size (base: 4 W;
    /// §8 finds 8 W optimal).
    pub line_words: u32,
    /// Associativity (the study holds L1 direct-mapped; other values are
    /// supported for the §5 what-if sweeps).
    pub assoc: u32,
}

impl L1Config {
    /// The base architecture's 4 KW direct-mapped cache with 4 W lines.
    pub fn base() -> Self {
        L1Config {
            size_words: 4096,
            line_words: 4,
            assoc: 1,
        }
    }

    /// Converts to a validated [`CacheGeometry`].
    ///
    /// # Errors
    ///
    /// Returns [`GeometryError`] if the fields are inconsistent.
    pub fn geometry(&self) -> Result<CacheGeometry, GeometryError> {
        CacheGeometry::new(self.size_words, self.line_words, self.assoc)
    }
}

/// One side (instruction or data) of the secondary cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct L2Side {
    /// Size in words.
    pub size_words: u64,
    /// Associativity (1 or 2 in the study; 2-way costs one extra cycle).
    pub assoc: u32,
    /// Line length in words (32 W throughout the paper).
    pub line_words: u32,
    /// Read/write access time in CPU cycles, including the 2-cycle
    /// latency for tag checking and L1↔L2 communication.
    pub access_cycles: u32,
}

impl L2Side {
    /// Converts to a validated [`CacheGeometry`].
    ///
    /// # Errors
    ///
    /// Returns [`GeometryError`] if the fields are inconsistent.
    pub fn geometry(&self) -> Result<CacheGeometry, GeometryError> {
        CacheGeometry::new(self.size_words, self.line_words, self.assoc)
    }
}

/// Organization of the secondary cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum L2Config {
    /// A single array shared by instructions and data (base architecture).
    Unified(L2Side),
    /// Logically or physically split instruction/data halves (§7).
    Split {
        /// The instruction half.
        i: L2Side,
        /// The data half.
        d: L2Side,
    },
}

impl L2Config {
    /// The base architecture's unified, direct-mapped 256 KW, 6-cycle L2.
    pub fn base() -> Self {
        L2Config::Unified(L2Side {
            size_words: 262_144,
            assoc: 1,
            line_words: 32,
            access_cycles: 6,
        })
    }

    /// A logically split cache of `total_words`: the high-order index bit
    /// interleaves instruction and data halves, so each half has half the
    /// capacity and the same access time (§7).
    pub fn split_even(total_words: u64, assoc: u32, access_cycles: u32) -> Self {
        let half = L2Side {
            size_words: total_words / 2,
            assoc,
            line_words: 32,
            access_cycles,
        };
        L2Config::Split { i: half, d: half }
    }

    /// The §7 physically split configuration: a 32 KW two-cycle L2-I on
    /// the MCM (built from the fast 1 K × 32 SRAMs) and a 256 KW six-cycle
    /// L2-D off the MCM.
    pub fn split_fast_i() -> Self {
        L2Config::Split {
            i: L2Side {
                size_words: 32_768,
                assoc: 1,
                line_words: 32,
                access_cycles: 2,
            },
            d: L2Side {
                size_words: 262_144,
                assoc: 1,
                line_words: 32,
                access_cycles: 6,
            },
        }
    }

    /// True for split organizations.
    pub fn is_split(&self) -> bool {
        matches!(self, L2Config::Split { .. })
    }

    /// The side servicing instruction fetches.
    pub fn i_side(&self) -> L2Side {
        match *self {
            L2Config::Unified(s) => s,
            L2Config::Split { i, .. } => i,
        }
    }

    /// The side servicing data accesses (and write-buffer drains).
    pub fn d_side(&self) -> L2Side {
        match *self {
            L2Config::Unified(s) => s,
            L2Config::Split { d, .. } => d,
        }
    }
}

/// How data-read misses interact with pending writes in the write buffer
/// (§9, "loads passing stores").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum WbBypass {
    /// Base rule: every L1-D miss waits for the write buffer to empty.
    #[default]
    Wait,
    /// Full associative matching: a read miss waits only when the buffer
    /// holds a word of the missed line (and then only until that entry —
    /// and everything ahead of it — drains).
    Associative,
    /// The paper's cheap scheme: no matching; the buffer is flushed
    /// (waited on) only when a written line is *replaced* in L1-D. Sound
    /// because the write-only policy allocates a line for every write, so
    /// the buffer can only hold words of lines currently marked written.
    DirtyBit,
}

/// Memory-system concurrency switches (§9, Fig. 10).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ConcurrencyConfig {
    /// With a split L2, refill L1-I from L2-I while the write buffer keeps
    /// draining into L2-D (instruction misses stop waiting for WB-empty).
    pub concurrent_i_refill: bool,
    /// Data-read bypass policy for the write buffer.
    pub d_read_bypass: WbBypass,
    /// Single 32 W dirty buffer on L2-D: read the missed line before
    /// writing back the dirty victim.
    pub l2d_dirty_buffer: bool,
}

/// Write-buffer shape.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WriteBufferConfig {
    /// Number of entries.
    pub depth: usize,
    /// Entry width in words (4 W victim lines for write-back, 1 W words
    /// for write-through).
    pub width_words: u32,
}

impl WriteBufferConfig {
    /// The natural buffer for a policy: 4-deep × 4 W for write-back,
    /// 8-deep × 1 W for the write-through policies (§6).
    pub fn for_policy(policy: WritePolicy) -> Self {
        if policy.is_write_through() {
            WriteBufferConfig {
                depth: 8,
                width_words: 1,
            }
        } else {
            WriteBufferConfig {
                depth: 4,
                width_words: 4,
            }
        }
    }
}

/// Multiprogramming parameters (§3).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MpConfig {
    /// Number of processes resident at once (the paper settles on 8).
    pub level: usize,
    /// Round-robin time slice in CPU cycles (the paper settles on 500 000).
    pub time_slice_cycles: u64,
}

impl MpConfig {
    /// The paper's chosen operating point: level 8, 500 k-cycle slice.
    pub fn base() -> Self {
        MpConfig {
            level: 8,
            time_slice_cycles: 500_000,
        }
    }
}

/// What the simulated machine does when a fault is detected but cannot be
/// repaired in place (dirty data under parity, double-bit flip under ECC).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum MachineCheckPolicy {
    /// Stop the simulation: `run` returns a machine-check error carrying
    /// the fault site and the partial result.
    #[default]
    Halt,
    /// Model checkpoint/restart recovery: roll back to the last
    /// checkpoint, charge the lost cycles as recovery stall, and continue.
    Restart,
}

/// Soft-error injection and recovery configuration.
///
/// The default is *off* — zero rates, no targeted faults — and the
/// simulator takes the exact non-fault code path, producing bit-identical
/// results to a build without fault support.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultConfig {
    /// Seed for the injector's PRNG; same seed + same config ⇒ identical
    /// fault sites and results.
    pub seed: u64,
    /// Per-access fault probability for each structure.
    pub rates: FaultRates,
    /// Protection scheme per structure.
    pub protection: ProtectionMap,
    /// Probability that a random upset flips two bits (escaping parity,
    /// defeating SEC correction).
    pub multi_bit_frac: f64,
    /// Cycles charged for an in-place ECC single-bit correction.
    pub ecc_correction_cycles: u32,
    /// Response to unrecoverable faults.
    pub machine_check: MachineCheckPolicy,
    /// Directed faults ("flip bit N of set S at access K").
    pub targeted: Vec<TargetedFault>,
}

impl Default for FaultConfig {
    fn default() -> Self {
        FaultConfig {
            seed: 0,
            rates: FaultRates::default(),
            protection: ProtectionMap::default(),
            multi_bit_frac: 0.0,
            ecc_correction_cycles: 1,
            machine_check: MachineCheckPolicy::default(),
            targeted: Vec::new(),
        }
    }
}

impl FaultConfig {
    /// True when this configuration can ever inject a fault.
    pub fn enabled(&self) -> bool {
        self.rates.any_nonzero() || !self.targeted.is_empty()
    }
}

/// A deliberate state corruption the simulator applies to *itself* so the
/// differential oracle can prove it detects real divergences (the canary
/// of the verification harness).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SeededBug {
    /// Flip the dirty bit of the L1-D line holding the most recent data
    /// address.
    FlipL1dDirty,
    /// Silently drop the youngest write-buffer entry.
    DropWriteBufferEntry,
    /// Invalidate the L1-I line holding the most recent fetch address.
    InvalidateL1i,
}

/// When and how to seed a deliberate bug (see [`SeededBug`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SeededBugSpec {
    /// Access index (fetches + loads + stores, 0-based) at or after which
    /// the corruption is applied (it is applied at the first access from
    /// this index on where the targeted state exists).
    pub access: u64,
    /// The corruption to apply.
    pub kind: SeededBug,
}

/// Configuration of the lockstep golden-model differential oracle.
///
/// When `enabled`, the simulator runs a small functional reference model
/// of the whole hierarchy in lockstep and cross-checks every access; see
/// the `oracle` module. The default is *off* and costs nothing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DiffCheckConfig {
    /// Master switch for lockstep cross-checking.
    pub enabled: bool,
    /// Run a full structural-equivalence sweep (cache contents, write
    /// buffer order, inclusion) every this many accesses; 0 checks only
    /// per-access classifications.
    pub state_check_interval: u64,
    /// Number of most recent trace events kept for the divergence report's
    /// repro window.
    pub window: usize,
    /// Optional deliberate corruption for canary tests.
    pub seeded_bug: Option<SeededBugSpec>,
}

impl Default for DiffCheckConfig {
    fn default() -> Self {
        DiffCheckConfig {
            enabled: false,
            state_check_interval: 1024,
            window: 32,
            seeded_bug: None,
        }
    }
}

impl DiffCheckConfig {
    /// An enabled oracle with the default check cadence.
    pub fn on() -> Self {
        DiffCheckConfig {
            enabled: true,
            ..Default::default()
        }
    }
}

/// Configuration of the telemetry subsystem (counters, spans, windowed
/// CPI stacks; see `gaas-telemetry` and DESIGN.md §11).
///
/// The default is *off*: the simulator caches the flag once at
/// construction (like the fault/diffcheck gates) and each note site —
/// an L1 miss, a TLB walk, write-buffer traffic, a context switch —
/// pays one predictable branch, so disabled runs are byte-identical to
/// a build without telemetry at all. Enabling it keeps the bare kernel:
/// a run whose only instrumentation is telemetry still uses the memos
/// and the span drain, and records exactly what the every-event loop
/// would.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TelemetryConfig {
    /// Master switch for counter/span/window recording.
    pub enabled: bool,
    /// Windowed CPI-stack granularity in retired instructions (the
    /// functional clock drives window boundaries, so windows are
    /// deterministic).
    pub window_instructions: u64,
    /// Ring-buffer capacity of the span recorder; once full, the oldest
    /// spans are evicted and counted as dropped.
    pub span_capacity: usize,
}

impl Default for TelemetryConfig {
    fn default() -> Self {
        TelemetryConfig {
            enabled: false,
            window_instructions: 100_000,
            span_capacity: 65_536,
        }
    }
}

impl TelemetryConfig {
    /// Enabled telemetry with the default window and span capacity.
    pub fn on() -> Self {
        TelemetryConfig {
            enabled: true,
            ..Default::default()
        }
    }
}

/// Maximum core count the CMP frontier supports (the sharing trace model
/// reserves one PID per benchmark per core within the 8-bit PID space,
/// and the snoop-bus/directory sharer masks are one byte wide).
pub const MAX_CORES: u32 = 8;

/// Chip-multiprocessor extension: N per-core L1 I/D caches in front of
/// the shared L2, kept coherent by a MESI invalidation protocol (see
/// DESIGN.md §16 and the `gaas-coherence` crate).
///
/// The default is a single core with sharing off, which is *defined* to
/// be the paper's single-CPU machine: a 1-core CMP run is byte-identical
/// to the base simulator (test-enforced), so every CMP result is anchored
/// to the validated single-CPU model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CmpConfig {
    /// Number of cores sharing the L2 (1 = the paper's single-CPU
    /// machine; at most [`MAX_CORES`]).
    pub cores: u32,
    /// Fraction of each core's data references redirected into the
    /// shared footprint (`[0, 1]`; 0 disables sharing entirely).
    pub shared_frac: f64,
    /// Size of the shared data footprint in words.
    pub shared_words: u64,
    /// Shared data references between migrations of a core's hot window
    /// inside the shared footprint (0 = affinity never migrates). Smaller
    /// intervals mean more cross-core overlap and invalidation traffic.
    pub migration_interval: u64,
    /// Cycles a cache-to-cache transfer (remote Modified owner supplies
    /// the line) adds to the requester's miss service.
    pub c2c_transfer_cycles: u32,
    /// Cycles charged to the writer for each remote copy invalidated.
    pub invalidate_cycles: u32,
    /// Cycles each coherence transaction occupies the snoop bus; a core
    /// stalls while the bus is busy with *other* cores' transactions.
    pub snoop_bus_cycles: u32,
}

impl Default for CmpConfig {
    fn default() -> Self {
        CmpConfig {
            cores: 1,
            shared_frac: 0.0,
            shared_words: 16_384,
            migration_interval: 0,
            c2c_transfer_cycles: 8,
            invalidate_cycles: 2,
            snoop_bus_cycles: 3,
        }
    }
}

impl CmpConfig {
    /// A CMP of `cores` cores with the default sharing knobs (sharing
    /// off; turn it on via `shared_frac`).
    pub fn with_cores(cores: u32) -> Self {
        CmpConfig {
            cores,
            ..Default::default()
        }
    }

    /// True when this configuration needs the coherence engine: more
    /// than one core, or any data references directed into the shared
    /// footprint.
    pub fn enabled(&self) -> bool {
        self.cores > 1 || self.shared_frac > 0.0
    }
}

/// Error returned by [`SimConfigBuilder::build`] for inconsistent
/// configurations.
#[derive(Debug, Clone, PartialEq)]
pub enum ConfigError {
    /// A cache geometry was invalid.
    Geometry(GeometryError),
    /// The dirty-bit bypass requires a policy under which every write
    /// allocates a line (write-only or subblock).
    DirtyBitNeedsWriteAllocate(WritePolicy),
    /// The write-through policies' one-cycle write trick (write the data
    /// array while the tag is checked) only identifies the corrupted way in
    /// a direct-mapped cache.
    WriteThroughNeedsDirectMappedL1(WritePolicy),
    /// Concurrent instruction refill requires a split L2.
    ConcurrentRefillNeedsSplitL2,
    /// The multiprogramming level must be positive.
    ZeroMultiprogramming,
    /// An L2 access time below the 2-cycle latency floor.
    L2AccessBelowLatency(u32),
    /// A fault probability outside `[0, 1]` (or not finite).
    InvalidFaultRate(f64),
    /// An instruction budget of zero (use `None` to disable the watchdog).
    ZeroInstructionBudget,
    /// A write buffer with no slots (every policy needs at least one).
    ZeroWriteBufferDepth,
    /// A page-color count that is zero or not a power of two (the mapper
    /// masks color bits, so only powers of two are meaningful).
    InvalidPageColors(u64),
    /// The differential oracle and fault injection are mutually exclusive:
    /// injected faults corrupt cache state by design, which the reference
    /// model would (correctly) flag as divergence.
    DiffCheckWithFaultInjection,
    /// A seeded canary corruption without the oracle enabled would corrupt
    /// simulator state with nothing watching for it.
    SeededBugWithoutOracle,
    /// Telemetry enabled with a zero instruction window (the windowed
    /// CPI stack needs a positive granularity).
    ZeroTelemetryWindow,
    /// A core count of zero or above [`MAX_CORES`].
    InvalidCoreCount(u32),
    /// A shared-footprint fraction outside `[0, 1]` (or not finite).
    InvalidSharedFraction(f64),
    /// A positive shared fraction with an empty shared footprint.
    ZeroSharedFootprint,
    /// The coherence engine and fault injection are mutually exclusive
    /// (the MESI directory has no recovery model for corrupted lines).
    CmpWithFaultInjection,
    /// The coherence engine does not implement the telemetry hook sites;
    /// CMP runs report through counters and CPI stacks instead.
    CmpWithTelemetry,
    /// The coherence engine does not support mid-run checkpointing.
    CmpWithCheckpointing,
    /// Seeded canary bugs target the single-CPU golden model, not the
    /// coherence oracle.
    CmpWithSeededBug,
    /// A coherence-enabled configuration was handed to the single-CPU
    /// simulator; route it through `gaas-coherence` instead. (Never
    /// returned by validation — only by `Simulator::new`.)
    CmpRequiresCoherenceEngine,
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::Geometry(e) => write!(f, "{e}"),
            ConfigError::DirtyBitNeedsWriteAllocate(p) => write!(
                f,
                "dirty-bit write-buffer bypass requires a write-allocating write-through policy, got {}",
                p.label()
            ),
            ConfigError::WriteThroughNeedsDirectMappedL1(p) => write!(
                f,
                "the {} policy writes data while checking the tag, which requires a direct-mapped L1-D",
                p.label()
            ),
            ConfigError::ConcurrentRefillNeedsSplitL2 => {
                write!(f, "concurrent instruction refill requires a split L2")
            }
            ConfigError::ZeroMultiprogramming => {
                write!(f, "multiprogramming level must be at least 1")
            }
            ConfigError::L2AccessBelowLatency(t) => {
                write!(f, "L2 access time {t} is below the 2-cycle tag/communication latency")
            }
            ConfigError::InvalidFaultRate(r) => {
                write!(f, "fault probability {r} is not in [0, 1]")
            }
            ConfigError::ZeroInstructionBudget => {
                write!(f, "instruction budget must be positive (use None to disable)")
            }
            ConfigError::ZeroWriteBufferDepth => {
                write!(f, "write buffer needs at least one slot")
            }
            ConfigError::InvalidPageColors(n) => {
                write!(f, "page colors {n} must be a nonzero power of two")
            }
            ConfigError::DiffCheckWithFaultInjection => {
                write!(
                    f,
                    "the differential oracle cannot run with fault injection enabled \
                     (injected faults corrupt state by design)"
                )
            }
            ConfigError::SeededBugWithoutOracle => {
                write!(
                    f,
                    "a seeded canary corruption requires the differential oracle \
                     (nothing else would detect it)"
                )
            }
            ConfigError::ZeroTelemetryWindow => {
                write!(
                    f,
                    "telemetry window must be a positive instruction count"
                )
            }
            ConfigError::InvalidCoreCount(n) => {
                write!(f, "core count {n} must be between 1 and {MAX_CORES}")
            }
            ConfigError::InvalidSharedFraction(r) => {
                write!(f, "shared-footprint fraction {r} is not in [0, 1]")
            }
            ConfigError::ZeroSharedFootprint => {
                write!(f, "a positive shared fraction needs a nonzero shared footprint")
            }
            ConfigError::CmpWithFaultInjection => {
                write!(f, "the coherence engine cannot run with fault injection enabled")
            }
            ConfigError::CmpWithTelemetry => {
                write!(f, "the coherence engine does not implement telemetry hook sites")
            }
            ConfigError::CmpWithCheckpointing => {
                write!(f, "the coherence engine does not support checkpointing")
            }
            ConfigError::CmpWithSeededBug => {
                write!(f, "seeded canary bugs target the single-CPU oracle, not the CMP path")
            }
            ConfigError::CmpRequiresCoherenceEngine => {
                write!(
                    f,
                    "coherence-enabled configurations must run on the gaas-coherence engine, \
                     not the single-CPU simulator"
                )
            }
        }
    }
}

impl std::error::Error for ConfigError {}

impl From<GeometryError> for ConfigError {
    fn from(e: GeometryError) -> Self {
        ConfigError::Geometry(e)
    }
}

/// A complete, validated architecture description.
///
/// # Examples
///
/// ```
/// use gaas_sim::{config::{L2Config, SimConfig}, WritePolicy};
///
/// # fn main() -> Result<(), gaas_sim::ConfigError> {
/// // Start from the baseline and apply the paper's §6/§7 decisions.
/// let mut b = SimConfig::builder();
/// b.policy(WritePolicy::WriteOnly).l2(L2Config::split_fast_i());
/// let cfg = b.build()?;
/// assert!(cfg.l2.is_split());
/// assert_eq!(cfg.write_buffer.depth, 8, "write-through buffer derived");
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct SimConfig {
    /// Primary instruction cache.
    pub l1i: L1Config,
    /// Primary data cache.
    pub l1d: L1Config,
    /// Primary data-cache write policy.
    pub policy: WritePolicy,
    /// Secondary cache organization.
    pub l2: L2Config,
    /// Write buffer shape.
    pub write_buffer: WriteBufferConfig,
    /// Concurrency mechanisms.
    pub concurrency: ConcurrencyConfig,
    /// Main-memory penalties.
    pub memory: MainMemory,
    /// Multiprogramming parameters.
    pub mp: MpConfig,
    /// Cycles charged per TLB miss (0 in the paper's accounting).
    pub tlb_miss_penalty: u32,
    /// Page colors for the virtual-to-physical mapper.
    pub page_colors: u64,
    /// Overrides the *effective L2 access time for write-buffer drains*
    /// without changing the read-miss service path. This is the quantity
    /// Fig. 5 sweeps from 2 to 10 cycles ("changes in L2 cache size can be
    /// related to changes in effective L2 cache access time"). `None` uses
    /// the data side's access time.
    pub l2_drain_access_override: Option<u32>,
    /// Soft-error injection and recovery (default: off).
    pub fault: FaultConfig,
    /// Watchdog: abort the run (returning a partial result) once this many
    /// instructions have retired. `None` disables the watchdog.
    pub instruction_budget: Option<u64>,
    /// Checkpoint every this many instructions (counters + scheduler
    /// snapshot), enabling progress reporting and machine-check restart.
    /// `0` disables checkpointing (restart then rolls back to the start of
    /// the current sampling window).
    pub checkpoint_interval: u64,
    /// Lockstep golden-model differential oracle (default: off).
    pub diffcheck: DiffCheckConfig,
    /// Telemetry: counters, spans, windowed CPI stacks (default: off).
    pub telemetry: TelemetryConfig,
    /// Chip-multiprocessor extension: core count and sharing knobs
    /// (default: 1 core, sharing off — the paper's single-CPU machine).
    pub cmp: CmpConfig,
}

impl SimConfig {
    /// The §2 base architecture (Fig. 1).
    pub fn baseline() -> Self {
        SimConfig {
            l1i: L1Config::base(),
            l1d: L1Config::base(),
            policy: WritePolicy::WriteBack,
            l2: L2Config::base(),
            write_buffer: WriteBufferConfig::for_policy(WritePolicy::WriteBack),
            concurrency: ConcurrencyConfig::default(),
            memory: MainMemory::base(),
            mp: MpConfig::base(),
            tlb_miss_penalty: 0,
            page_colors: 256,
            l2_drain_access_override: None,
            fault: FaultConfig::default(),
            instruction_budget: None,
            checkpoint_interval: 0,
            diffcheck: DiffCheckConfig::default(),
            telemetry: TelemetryConfig::default(),
            cmp: CmpConfig::default(),
        }
    }

    /// The §9 optimized architecture (Fig. 11): write-only policy, 8 W L1
    /// lines, fast split L2-I on the MCM, concurrent I-refill, dirty-bit
    /// read bypass, and the L2-D dirty buffer.
    pub fn optimized() -> Self {
        SimConfig {
            l1i: L1Config {
                size_words: 4096,
                line_words: 8,
                assoc: 1,
            },
            l1d: L1Config {
                size_words: 4096,
                line_words: 8,
                assoc: 1,
            },
            policy: WritePolicy::WriteOnly,
            l2: L2Config::split_fast_i(),
            write_buffer: WriteBufferConfig::for_policy(WritePolicy::WriteOnly),
            concurrency: ConcurrencyConfig {
                concurrent_i_refill: true,
                d_read_bypass: WbBypass::DirtyBit,
                l2d_dirty_buffer: true,
            },
            memory: MainMemory::base(),
            mp: MpConfig::base(),
            tlb_miss_penalty: 0,
            page_colors: 256,
            l2_drain_access_override: None,
            fault: FaultConfig::default(),
            instruction_budget: None,
            checkpoint_interval: 0,
            diffcheck: DiffCheckConfig::default(),
            telemetry: TelemetryConfig::default(),
            cmp: CmpConfig::default(),
        }
    }

    /// Starts a builder seeded from this configuration.
    pub fn to_builder(&self) -> SimConfigBuilder {
        SimConfigBuilder { cfg: self.clone() }
    }

    /// Starts a builder seeded from the baseline.
    pub fn builder() -> SimConfigBuilder {
        Self::baseline().to_builder()
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] describing the first inconsistency found.
    pub fn validate(&self) -> Result<(), ConfigError> {
        self.l1i.geometry()?;
        self.l1d.geometry()?;
        // Access times of 1 cycle are admitted for the Fig. 7/8 speed-size
        // what-if sweeps (a hypothetical on-MCM L2 with no communication
        // latency); zero is meaningless.
        for side in [self.l2.i_side(), self.l2.d_side()] {
            side.geometry()?;
            if side.access_cycles < 1 {
                return Err(ConfigError::L2AccessBelowLatency(side.access_cycles));
            }
        }
        if let Some(t) = self.l2_drain_access_override {
            if t < 2 {
                return Err(ConfigError::L2AccessBelowLatency(t));
            }
        }
        if self.policy.is_write_through() && self.l1d.assoc != 1 {
            return Err(ConfigError::WriteThroughNeedsDirectMappedL1(self.policy));
        }
        if self.concurrency.d_read_bypass == WbBypass::DirtyBit
            && !matches!(self.policy, WritePolicy::WriteOnly | WritePolicy::Subblock)
        {
            return Err(ConfigError::DirtyBitNeedsWriteAllocate(self.policy));
        }
        if self.concurrency.concurrent_i_refill && !self.l2.is_split() {
            return Err(ConfigError::ConcurrentRefillNeedsSplitL2);
        }
        if self.mp.level == 0 {
            return Err(ConfigError::ZeroMultiprogramming);
        }
        if !self.fault.rates.is_valid() {
            let bad = gaas_cache::fault::Structure::ALL
                .iter()
                .map(|&s| self.fault.rates.get(s))
                .find(|r| !r.is_finite() || !(0.0..=1.0).contains(r))
                .unwrap_or(f64::NAN);
            return Err(ConfigError::InvalidFaultRate(bad));
        }
        let frac = self.fault.multi_bit_frac;
        if !frac.is_finite() || !(0.0..=1.0).contains(&frac) {
            return Err(ConfigError::InvalidFaultRate(frac));
        }
        if self.instruction_budget == Some(0) {
            return Err(ConfigError::ZeroInstructionBudget);
        }
        if self.write_buffer.depth == 0 {
            return Err(ConfigError::ZeroWriteBufferDepth);
        }
        if self.page_colors == 0 || !self.page_colors.is_power_of_two() {
            return Err(ConfigError::InvalidPageColors(self.page_colors));
        }
        if self.diffcheck.enabled && self.fault.enabled() {
            return Err(ConfigError::DiffCheckWithFaultInjection);
        }
        if self.diffcheck.seeded_bug.is_some() && !self.diffcheck.enabled {
            return Err(ConfigError::SeededBugWithoutOracle);
        }
        if self.telemetry.enabled && self.telemetry.window_instructions == 0 {
            return Err(ConfigError::ZeroTelemetryWindow);
        }
        if self.cmp.cores == 0 || self.cmp.cores > MAX_CORES {
            return Err(ConfigError::InvalidCoreCount(self.cmp.cores));
        }
        let frac = self.cmp.shared_frac;
        if !frac.is_finite() || !(0.0..=1.0).contains(&frac) {
            return Err(ConfigError::InvalidSharedFraction(frac));
        }
        if frac > 0.0 && self.cmp.shared_words == 0 {
            return Err(ConfigError::ZeroSharedFootprint);
        }
        if self.cmp.enabled() {
            self.check_cmp_support()?;
        }
        Ok(())
    }

    /// Refuses what the CMP engine does not implement (fault injection,
    /// telemetry, checkpointing, seeded bugs) with the matching
    /// `ConfigError::CmpWith*`: for CMP-enabled configurations in
    /// [`SimConfig::validate`], and in the CMP engine for every config.
    ///
    /// # Errors
    ///
    /// The refusal of the first such feature.
    pub fn check_cmp_support(&self) -> Result<(), ConfigError> {
        if self.fault.enabled() {
            return Err(ConfigError::CmpWithFaultInjection);
        }
        if self.telemetry.enabled {
            return Err(ConfigError::CmpWithTelemetry);
        }
        if self.checkpoint_interval != 0 {
            return Err(ConfigError::CmpWithCheckpointing);
        }
        if self.diffcheck.seeded_bug.is_some() {
            return Err(ConfigError::CmpWithSeededBug);
        }
        Ok(())
    }
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig::baseline()
    }
}

impl fmt::Display for SimConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "L1-I {}KW/{}W/{}-way, L1-D {}KW/{}W/{}-way, {} policy",
            self.l1i.size_words / 1024,
            self.l1i.line_words,
            self.l1i.assoc,
            self.l1d.size_words / 1024,
            self.l1d.line_words,
            self.l1d.assoc,
            self.policy.label()
        )?;
        match self.l2 {
            L2Config::Unified(s) => writeln!(
                f,
                "L2 unified {}KW/{}W/{}-way, {} cycles",
                s.size_words / 1024,
                s.line_words,
                s.assoc,
                s.access_cycles
            )?,
            L2Config::Split { i, d } => writeln!(
                f,
                "L2 split: I {}KW/{} cycles, D {}KW/{} cycles ({}W lines, {}-way)",
                i.size_words / 1024,
                i.access_cycles,
                d.size_words / 1024,
                d.access_cycles,
                d.line_words,
                d.assoc
            )?,
        }
        writeln!(
            f,
            "WB {}x{}W; memory {}({}) cycles; MP level {} / slice {} cycles",
            self.write_buffer.depth,
            self.write_buffer.width_words,
            self.memory.clean_miss_cycles,
            self.memory.dirty_miss_cycles,
            self.mp.level,
            self.mp.time_slice_cycles
        )?;
        let c = &self.concurrency;
        write!(
            f,
            "concurrency: I-refill {}, D-read bypass {:?}, dirty buffer {}",
            if c.concurrent_i_refill { "on" } else { "off" },
            c.d_read_bypass,
            if c.l2d_dirty_buffer { "on" } else { "off" }
        )?;
        if self.cmp.enabled() {
            write!(
                f,
                "\nCMP: {} cores, shared {:.0}% of {}KW, migrate/{} refs",
                self.cmp.cores,
                self.cmp.shared_frac * 100.0,
                self.cmp.shared_words / 1024,
                self.cmp.migration_interval
            )?;
        }
        Ok(())
    }
}

/// Non-consuming builder over [`SimConfig`].
#[derive(Debug, Clone)]
pub struct SimConfigBuilder {
    cfg: SimConfig,
}

impl SimConfigBuilder {
    /// Sets both L1 caches' size in words.
    pub fn l1_size(&mut self, words: u64) -> &mut Self {
        self.cfg.l1i.size_words = words;
        self.cfg.l1d.size_words = words;
        self
    }

    /// Sets both L1 caches' line (= fetch) size in words.
    pub fn l1_line(&mut self, words: u32) -> &mut Self {
        self.cfg.l1i.line_words = words;
        self.cfg.l1d.line_words = words;
        self
    }

    /// Sets both L1 caches' associativity.
    pub fn l1_assoc(&mut self, assoc: u32) -> &mut Self {
        self.cfg.l1i.assoc = assoc;
        self.cfg.l1d.assoc = assoc;
        self
    }

    /// Sets the L1-I configuration.
    pub fn l1i(&mut self, cfg: L1Config) -> &mut Self {
        self.cfg.l1i = cfg;
        self
    }

    /// Sets the L1-D configuration.
    pub fn l1d(&mut self, cfg: L1Config) -> &mut Self {
        self.cfg.l1d = cfg;
        self
    }

    /// Sets the write policy and re-derives the matching write buffer.
    pub fn policy(&mut self, policy: WritePolicy) -> &mut Self {
        self.cfg.policy = policy;
        self.cfg.write_buffer = WriteBufferConfig::for_policy(policy);
        self
    }

    /// Sets the L2 organization.
    pub fn l2(&mut self, l2: L2Config) -> &mut Self {
        self.cfg.l2 = l2;
        self
    }

    /// Overrides both L2 sides' access time (or the unified access time).
    pub fn l2_access(&mut self, cycles: u32) -> &mut Self {
        self.cfg.l2 = match self.cfg.l2 {
            L2Config::Unified(mut s) => {
                s.access_cycles = cycles;
                L2Config::Unified(s)
            }
            L2Config::Split { mut i, mut d } => {
                i.access_cycles = cycles;
                d.access_cycles = cycles;
                L2Config::Split { i, d }
            }
        };
        self
    }

    /// Overrides the write-buffer shape.
    pub fn write_buffer(&mut self, wb: WriteBufferConfig) -> &mut Self {
        self.cfg.write_buffer = wb;
        self
    }

    /// Sets the concurrency switches.
    pub fn concurrency(&mut self, c: ConcurrencyConfig) -> &mut Self {
        self.cfg.concurrency = c;
        self
    }

    /// Sets the main-memory penalties.
    pub fn memory(&mut self, m: MainMemory) -> &mut Self {
        self.cfg.memory = m;
        self
    }

    /// Sets the multiprogramming level.
    pub fn mp_level(&mut self, level: usize) -> &mut Self {
        self.cfg.mp.level = level;
        self
    }

    /// Sets the time slice in cycles.
    pub fn time_slice(&mut self, cycles: u64) -> &mut Self {
        self.cfg.mp.time_slice_cycles = cycles;
        self
    }

    /// Sets the TLB miss penalty in cycles.
    pub fn tlb_miss_penalty(&mut self, cycles: u32) -> &mut Self {
        self.cfg.tlb_miss_penalty = cycles;
        self
    }

    /// Overrides the effective L2 access time seen by write-buffer drains
    /// (the Fig. 5 sweep variable).
    pub fn l2_drain_access(&mut self, cycles: u32) -> &mut Self {
        self.cfg.l2_drain_access_override = Some(cycles);
        self
    }

    /// Sets the soft-error injection and recovery configuration.
    pub fn fault(&mut self, fault: FaultConfig) -> &mut Self {
        self.cfg.fault = fault;
        self
    }

    /// Sets the instruction-budget watchdog (aborts runaway simulations
    /// with a partial result).
    pub fn instruction_budget(&mut self, instructions: u64) -> &mut Self {
        self.cfg.instruction_budget = Some(instructions);
        self
    }

    /// Sets the checkpoint interval in instructions (0 disables).
    pub fn checkpoint_interval(&mut self, instructions: u64) -> &mut Self {
        self.cfg.checkpoint_interval = instructions;
        self
    }

    /// Sets the page-color count of the virtual-to-physical mapper.
    pub fn page_colors(&mut self, colors: u64) -> &mut Self {
        self.cfg.page_colors = colors;
        self
    }

    /// Sets the differential-oracle configuration.
    pub fn diffcheck(&mut self, d: DiffCheckConfig) -> &mut Self {
        self.cfg.diffcheck = d;
        self
    }

    /// Sets the telemetry configuration.
    pub fn telemetry(&mut self, t: TelemetryConfig) -> &mut Self {
        self.cfg.telemetry = t;
        self
    }

    /// Sets the chip-multiprocessor configuration (core count and
    /// sharing knobs).
    pub fn cmp(&mut self, c: CmpConfig) -> &mut Self {
        self.cfg.cmp = c;
        self
    }

    /// Validates and produces the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] when the assembled configuration is
    /// inconsistent (see [`SimConfig::validate`]).
    pub fn build(&self) -> Result<SimConfig, ConfigError> {
        self.cfg.validate()?;
        Ok(self.cfg.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn baseline_matches_paper() {
        let c = SimConfig::baseline();
        assert_eq!(c.l1i.size_words, 4096);
        assert_eq!(c.l1i.line_words, 4);
        assert_eq!(c.policy, WritePolicy::WriteBack);
        assert_eq!(c.l2, L2Config::base());
        assert_eq!(c.l2.d_side().access_cycles, 6);
        assert_eq!(
            c.write_buffer,
            WriteBufferConfig {
                depth: 4,
                width_words: 4
            }
        );
        assert_eq!(c.memory.clean_miss_cycles, 143);
        assert_eq!(
            c.mp,
            MpConfig {
                level: 8,
                time_slice_cycles: 500_000
            }
        );
        assert!(c.validate().is_ok());
        assert_eq!(SimConfig::default(), c);
    }

    #[test]
    fn optimized_matches_paper() {
        let c = SimConfig::optimized();
        assert_eq!(c.l1i.line_words, 8);
        assert_eq!(c.policy, WritePolicy::WriteOnly);
        assert_eq!(c.l2.i_side().size_words, 32_768);
        assert_eq!(c.l2.i_side().access_cycles, 2);
        assert_eq!(c.l2.d_side().size_words, 262_144);
        assert_eq!(
            c.write_buffer,
            WriteBufferConfig {
                depth: 8,
                width_words: 1
            }
        );
        assert!(c.concurrency.concurrent_i_refill);
        assert_eq!(c.concurrency.d_read_bypass, WbBypass::DirtyBit);
        assert!(c.concurrency.l2d_dirty_buffer);
        assert!(c.validate().is_ok());
    }

    #[test]
    fn split_even_halves_capacity() {
        let l2 = L2Config::split_even(262_144, 1, 6);
        assert!(l2.is_split());
        assert_eq!(l2.i_side().size_words, 131_072);
        assert_eq!(l2.d_side().size_words, 131_072);
    }

    #[test]
    fn builder_round_trip() {
        let mut b = SimConfig::builder();
        b.l1_line(8)
            .policy(WritePolicy::WriteOnly)
            .l2(L2Config::split_fast_i());
        let c = b.build().expect("valid");
        assert_eq!(c.l1d.line_words, 8);
        assert_eq!(
            c.write_buffer.width_words, 1,
            "policy re-derives write buffer"
        );
    }

    #[test]
    fn dirty_bit_requires_write_allocate_policy() {
        let mut b = SimConfig::builder();
        b.l2(L2Config::split_fast_i())
            .concurrency(ConcurrencyConfig {
                d_read_bypass: WbBypass::DirtyBit,
                ..Default::default()
            });
        // Baseline policy is write-back: invalid.
        let err = b.build().unwrap_err();
        assert!(matches!(err, ConfigError::DirtyBitNeedsWriteAllocate(_)));
        b.policy(WritePolicy::WriteOnly);
        assert!(b.build().is_ok());
    }

    #[test]
    fn concurrent_refill_requires_split() {
        let mut b = SimConfig::builder();
        b.concurrency(ConcurrencyConfig {
            concurrent_i_refill: true,
            ..Default::default()
        });
        assert!(matches!(
            b.build().unwrap_err(),
            ConfigError::ConcurrentRefillNeedsSplitL2
        ));
        b.l2(L2Config::split_even(262_144, 1, 6));
        assert!(b.build().is_ok());
    }

    #[test]
    fn l2_access_floor_enforced() {
        let mut b = SimConfig::builder();
        b.l2_access(0);
        assert!(matches!(
            b.build().unwrap_err(),
            ConfigError::L2AccessBelowLatency(0)
        ));
        // 1-cycle access is admitted for the Fig. 7/8 what-if sweeps.
        let mut b1 = SimConfig::builder();
        b1.l2_access(1);
        assert!(b1.build().is_ok());
        // The drain override keeps the 2-cycle latency floor.
        let mut b2 = SimConfig::builder();
        b2.l2_drain_access(1);
        assert!(matches!(
            b2.build().unwrap_err(),
            ConfigError::L2AccessBelowLatency(1)
        ));
    }

    #[test]
    fn zero_mp_rejected() {
        let mut b = SimConfig::builder();
        b.mp_level(0);
        assert!(matches!(
            b.build().unwrap_err(),
            ConfigError::ZeroMultiprogramming
        ));
    }

    #[test]
    fn bad_geometry_reported() {
        let mut b = SimConfig::builder();
        b.l1_size(5000);
        assert!(matches!(b.build().unwrap_err(), ConfigError::Geometry(_)));
    }

    #[test]
    fn error_display_nonempty() {
        for e in [
            ConfigError::DirtyBitNeedsWriteAllocate(WritePolicy::WriteBack),
            ConfigError::WriteThroughNeedsDirectMappedL1(WritePolicy::WriteOnly),
            ConfigError::ConcurrentRefillNeedsSplitL2,
            ConfigError::ZeroMultiprogramming,
            ConfigError::L2AccessBelowLatency(1),
        ] {
            assert!(!e.to_string().is_empty());
        }
    }

    #[test]
    fn display_summarizes_both_presets() {
        let base = SimConfig::baseline().to_string();
        assert!(base.contains("unified 256KW"));
        assert!(base.contains("write-back"));
        let opt = SimConfig::optimized().to_string();
        assert!(opt.contains("split: I 32KW/2 cycles"));
        assert!(opt.contains("write-only"));
        assert!(opt.contains("dirty buffer on"));
    }

    #[test]
    fn fault_config_defaults_off() {
        let f = FaultConfig::default();
        assert!(!f.enabled());
        assert_eq!(f.machine_check, MachineCheckPolicy::Halt);
        let mut on = f.clone();
        on.rates.l1d = 1e-6;
        assert!(on.enabled());
        let mut targeted = f;
        targeted.targeted.push(TargetedFault {
            structure: gaas_cache::fault::Structure::L1I,
            access: 0,
            set: 0,
            bit: 0,
        });
        assert!(targeted.enabled());
    }

    #[test]
    fn invalid_fault_rates_rejected() {
        let mut b = SimConfig::builder();
        let mut f = FaultConfig::default();
        f.rates.l2 = 1.5;
        b.fault(f);
        assert!(matches!(
            b.build().unwrap_err(),
            ConfigError::InvalidFaultRate(_)
        ));

        let mut b2 = SimConfig::builder();
        let f2 = FaultConfig {
            multi_bit_frac: f64::NAN,
            ..FaultConfig::default()
        };
        b2.fault(f2);
        assert!(matches!(
            b2.build().unwrap_err(),
            ConfigError::InvalidFaultRate(_)
        ));

        let mut b3 = SimConfig::builder();
        let f3 = FaultConfig {
            rates: FaultRates::uniform(1e-3),
            multi_bit_frac: 0.1,
            ..FaultConfig::default()
        };
        b3.fault(f3);
        assert!(b3.build().is_ok());
    }

    #[test]
    fn zero_instruction_budget_rejected() {
        let mut b = SimConfig::builder();
        b.instruction_budget(0);
        assert!(matches!(
            b.build().unwrap_err(),
            ConfigError::ZeroInstructionBudget
        ));
        let mut b2 = SimConfig::builder();
        b2.instruction_budget(1_000_000).checkpoint_interval(50_000);
        let cfg = b2.build().expect("valid");
        assert_eq!(cfg.instruction_budget, Some(1_000_000));
        assert_eq!(cfg.checkpoint_interval, 50_000);
    }

    #[test]
    fn zero_write_buffer_depth_rejected() {
        let mut b = SimConfig::builder();
        b.write_buffer(WriteBufferConfig {
            depth: 0,
            width_words: 4,
        });
        assert!(matches!(
            b.build().unwrap_err(),
            ConfigError::ZeroWriteBufferDepth
        ));
    }

    #[test]
    fn bad_page_colors_rejected() {
        for colors in [0u64, 3, 100] {
            let mut b = SimConfig::builder();
            b.page_colors(colors);
            assert!(matches!(
                b.build().unwrap_err(),
                ConfigError::InvalidPageColors(c) if c == colors
            ));
        }
        let mut ok = SimConfig::builder();
        ok.page_colors(64);
        assert!(ok.build().is_ok());
    }

    #[test]
    fn diffcheck_excludes_fault_injection() {
        let mut b = SimConfig::builder();
        b.diffcheck(DiffCheckConfig::on()).fault(FaultConfig {
            rates: FaultRates::uniform(1e-4),
            ..FaultConfig::default()
        });
        assert!(matches!(
            b.build().unwrap_err(),
            ConfigError::DiffCheckWithFaultInjection
        ));
        // A *disabled* fault config coexists with the oracle.
        let mut ok = SimConfig::builder();
        ok.diffcheck(DiffCheckConfig::on());
        assert!(ok.build().is_ok());
        assert!(!SimConfig::baseline().diffcheck.enabled, "default off");
    }

    #[test]
    fn new_config_errors_display() {
        for e in [
            ConfigError::ZeroWriteBufferDepth,
            ConfigError::InvalidPageColors(3),
            ConfigError::DiffCheckWithFaultInjection,
        ] {
            assert!(!e.to_string().is_empty());
        }
    }

    #[test]
    fn wb_config_per_policy() {
        assert_eq!(
            WriteBufferConfig::for_policy(WritePolicy::WriteBack),
            WriteBufferConfig {
                depth: 4,
                width_words: 4
            }
        );
        for p in [
            WritePolicy::WriteMissInvalidate,
            WritePolicy::WriteOnly,
            WritePolicy::Subblock,
        ] {
            assert_eq!(
                WriteBufferConfig::for_policy(p),
                WriteBufferConfig {
                    depth: 8,
                    width_words: 1
                }
            );
        }
    }
}
