//! # gaas-cache
//!
//! Memory-hierarchy building blocks for the reproduction of *"Implementing
//! a Cache for a High-Performance GaAs Microprocessor"* (Olukotun, Mudge,
//! Brown — ISCA 1991):
//!
//! * [`array`](mod@crate::array) — the generic set-associative [`array::CacheArray`] with
//!   dirty / write-only / subblock-valid line state and LRU replacement;
//! * [`policy`] — the four primary data-cache write policies of §6
//!   (write-back, write-miss-invalidate, the paper's new **write-only**,
//!   and subblock placement) as [`policy::L1DataCache`];
//! * [`write_buffer`] — FIFO write buffers with the paper's streaming
//!   drain-timing model;
//! * [`tlb`] — the PID-tagged 2-way set-associative instruction/data TLBs;
//! * [`paging`] — the page-coloring virtual-to-physical mapper;
//! * [`memory`] — main-memory penalties and the §9 L2 dirty buffer;
//! * [`classify`] — three-C (compulsory/capacity/conflict) miss
//!   classification, measuring the §7 conflict argument;
//! * [`fault`] — deterministic soft-error injection
//!   ([`fault::FaultInjector`]) and parity/ECC protection policies with
//!   their recovery-action table ([`fault::resolve`]).
//!
//! All structures are *functional* models: they answer hit/miss/eviction
//! questions and keep occupancy state; cycle charging lives in the
//! `gaas-sim` crate so one set of structures serves every architecture
//! variant of the study.
//!
//! ## Example
//!
//! ```
//! use gaas_cache::array::CacheGeometry;
//! use gaas_cache::policy::{L1DataCache, WritePolicy};
//! use gaas_trace::PhysAddr;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // The paper's 4 KW direct-mapped L1-D with the new write-only policy.
//! let geom = CacheGeometry::new(4096, 4, 1)?;
//! let mut l1d = L1DataCache::new(geom, WritePolicy::WriteOnly);
//!
//! let miss = l1d.store(PhysAddr::new(0x1000), false);
//! assert!(!miss.hit, "first touch misses but adopts the line");
//! let hit = l1d.store(PhysAddr::new(0x1001), false);
//! assert!(hit.hit, "subsequent writes to the write-only line hit");
//! # Ok(())
//! # }
//! ```

pub mod array;
pub mod classify;
pub mod fault;
pub mod memory;
pub mod paging;
pub mod policy;
pub mod tlb;
pub mod write_buffer;

pub use array::reference::RefCacheArray;
pub use array::{CacheArray, CacheGeometry, Evicted, GeometryError, Line, LineRef};
pub use classify::{MissClass, ThreeCClassifier, ThreeCCounts};
pub use fault::{
    resolve, FaultEffect, FaultEvent, FaultInjector, FaultRates, Protection, ProtectionMap,
    Structure, TargetedFault,
};
pub use memory::{MainMemory, MemorySystem, MissService};
pub use paging::{PageKeyHasher, PageMapper};
pub use policy::{L1DataCache, LoadOutcome, StoreOutcome, WritePolicy};
pub use tlb::Tlb;
pub use write_buffer::{WbEntry, WriteBuffer};
