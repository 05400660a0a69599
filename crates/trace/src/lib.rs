//! # gaas-trace
//!
//! Address-trace model and synthetic multiprogramming workload for the
//! reproduction of *"Implementing a Cache for a High-Performance GaAs
//! Microprocessor"* (Olukotun, Mudge, Brown — ISCA 1991).
//!
//! The paper drives its two-level cache simulator with `pixie`-generated
//! address traces of ten MIPS benchmarks (~2.5 billion references). This
//! crate supplies the equivalent substrate:
//!
//! * [`addr`] — word-granular, PID-prefixed virtual addresses and physical
//!   addresses for the 4 KW-page target machine;
//! * [`event`] — the [`TraceEvent`] stream contract between workloads and
//!   the simulator, including syscall markers and CPU-stall annotations;
//! * [`bench_model`] — parametric models of the ten benchmarks (Table 1
//!   analog);
//! * [`instr`] / [`data`] — the instruction-fetch and data-reference
//!   locality models;
//! * [`gen`] — the deterministic streaming [`gen::TraceGenerator`];
//! * [`arena`] — the process-wide store of generated event streams,
//!   held as compressed blocks and replayed through batch cursors;
//! * [`codec`] — the branchless control-byte delta codec (v3 encoding)
//!   behind the arena and the functional profiles: per-block checksums,
//!   2–4× smaller streams;
//! * [`crc`] — the vendored CRC32 shared by every durable on-disk format;
//! * [`stats`] — trace characterization (regenerates Table 1 columns);
//! * [`synthetic`] — diagnostic access patterns with known cache behaviour;
//! * [`rng`] — the vendored deterministic PRNG every stochastic component
//!   (generators, fault injection, property tests) draws from;
//! * [`sharing`] — per-core shared-segment decoration for CMP workloads
//!   (controllable shared footprint and migration rates).
//!
//! ## Example
//!
//! ```
//! use gaas_trace::{bench_model, gen::TraceGenerator, stats::TraceStats, Pid};
//!
//! let spec = &bench_model::suite()[0]; // doduc analog
//! let trace = TraceGenerator::new(spec, Pid::new(0), 1e-4);
//! let stats = TraceStats::from_events(trace);
//! assert!(stats.instructions > 0);
//! assert!(stats.load_pct() > 10.0);
//! ```

pub mod addr;
pub mod arena;
pub mod bench_model;
pub mod codec;
pub mod crc;
pub mod data;
pub mod event;
pub mod gen;
pub mod instr;
pub mod rng;
pub mod sharing;
pub mod stats;
pub mod synthetic;

pub use addr::{PhysAddr, Pid, VirtAddr, PAGE_SHIFT, PAGE_WORDS, PID_SHIFT, WORD_BYTES};
pub use event::{AccessKind, Trace, TraceEvent, UnbatchedTrace, VecTrace};
pub use sharing::{SharingSpec, SharingTrace, SHARED_PID};
