//! # gaas-sim
//!
//! Trace-driven two-level cache simulator for a 250 MHz GaAs MCM
//! microprocessor — the core of the reproduction of *"Implementing a Cache
//! for a High-Performance GaAs Microprocessor"* (Olukotun, Mudge, Brown —
//! ISCA 1991).
//!
//! The simulator models the paper's entire design space:
//!
//! * split 4 KW primary caches with configurable size/line/associativity;
//! * the four §6 write policies (write-back, write-miss-invalidate, the new
//!   **write-only**, subblock placement) with their cycle rules;
//! * unified or split secondary caches of any size/associativity/access
//!   time, with the R6020 main-memory penalties behind them;
//! * write buffers with the streaming drain model;
//! * the §9 concurrency mechanisms — concurrent instruction refill, loads
//!   passing stores (associative or the cheap dirty-bit scheme), and the
//!   L2-D dirty buffer;
//! * a PID-tagged multiprogramming environment: round-robin scheduling,
//!   voluntary-syscall switches, page coloring, PID-tagged TLBs;
//! * deterministic soft-error fault injection with parity/ECC recovery
//!   ([`config::FaultConfig`]), an instruction-budget watchdog, and
//!   periodic checkpoints (see the `sim` module docs).
//!
//! ## Quick start
//!
//! ```
//! use gaas_sim::{config::SimConfig, sim, workload, report};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // Run the base architecture on a small slice of the ten-benchmark
//! // multiprogramming workload.
//! let result = sim::run(SimConfig::baseline(), workload::standard(1e-4))?;
//! println!("{}", report::cpi_stack(&result));
//! assert!(result.cpi() > 1.0);
//! # Ok(())
//! # }
//! ```
//!
//! ## Modules
//!
//! * [`config`] — architecture description, builder, and the
//!   [`config::SimConfig::baseline`] / [`config::SimConfig::optimized`]
//!   presets;
//! * [`sim`] — the engine, [`sim::SimResult`], and the run loop both
//!   engines drive ([`sim::run_cores`]);
//! * [`pipeline`] — the per-core pipeline ([`pipeline::Core`]) over the
//!   shared L2 and memory ([`pipeline::Uncore`]), with the
//!   [`pipeline::Coherence`] hooks the CMP engine plugs into;
//! * [`cpi`] — counters and the Fig. 4 CPI breakdown;
//! * [`sched`] — the §3 multiprogramming scheduler;
//! * [`workload`] — ready-made Table 1 workloads;
//! * [`report`] — textual CPI stacks and summaries;
//! * [`oracle`] — the lockstep golden-model differential oracle
//!   (enabled via [`config::DiffCheckConfig`]).

pub mod config;
pub mod cpi;
pub mod oracle;
pub mod pipeline;
pub mod profile;
pub mod report;
pub mod sched;
pub mod sim;
pub mod workload;

pub use config::{
    CmpConfig, ConcurrencyConfig, ConfigError, DiffCheckConfig, FaultConfig, L1Config, L2Config,
    L2Side, MachineCheckPolicy, MpConfig, SeededBug, SeededBugSpec, SimConfig, SimConfigBuilder,
    TelemetryConfig, WbBypass, WriteBufferConfig, MAX_CORES,
};
pub use cpi::{Counters, CpiBreakdown, ProcCounters};
pub use oracle::{config_fingerprint, DivergenceKind, DivergenceReport};
pub use pipeline::{Coherence, Core, NoCoherence, Uncore};
pub use profile::{functional_fingerprint, price_profile, price_profiles, FunctionalProfile};
pub use sched::SchedSnapshot;
pub use sim::{
    run, run_cores, CancelToken, Checkpoint, Protocol, RunOutput, RunSpec, SimError, SimResult,
    Simulator, TelemetryReport, Termination,
};

// Re-export the substrate vocabulary so downstream users need only this
// crate for common tasks.
pub use gaas_cache::fault::{
    FaultEffect, FaultEvent, FaultRates, Protection, ProtectionMap, Structure, TargetedFault,
};
pub use gaas_cache::WritePolicy;
pub use gaas_trace::{Pid, Trace, TraceEvent, VirtAddr};
