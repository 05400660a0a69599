//! Low-overhead instrumentation for the GaAs cache design-study simulator.
//!
//! The paper's argument is a CPI *breakdown* — every design phase is
//! justified by which stall component shrank — so the telemetry layer is
//! organized around attributing simulated cycles to hierarchy components
//! and exposing how that attribution evolves over a run:
//!
//! * [`registry`] — a fixed-slot counter/histogram [`Registry`]. Plain
//!   `u64` slots, no atomics: the simulator kernel is single-threaded,
//!   and the experiment pool merges per-worker registries by *name*
//!   ([`Registry::merge_from`]) so totals are deterministic regardless
//!   of worker interleaving.
//! * [`spans`] — a bounded ring-buffer [`SpanRecorder`] of begin/end
//!   scopes (refills, write-buffer drains, TLB walks, context switches)
//!   stamped with the *functional clock* (simulated cycles), never wall
//!   time, so recorded timelines are bit-reproducible across hosts.
//! * [`stack`] — windowed CPI stacks: per-window component rows whose
//!   parts sum to the window CPI and whose cycle-weighted average equals
//!   the end-of-run CPI exactly (integer cycle arithmetic throughout).
//! * [`chrome`] — a Chrome `trace_event` JSON exporter (Perfetto /
//!   `chrome://tracing` loadable) mapping one simulated cycle to one
//!   microsecond of trace time and one component to one track.
//!
//! Everything here is passive: recording never charges simulated cycles
//! and never touches simulator RNG state, which is what makes the
//! disabled-mode byte-identity contract (see DESIGN.md §11) trivially
//! auditable from this crate's side.

pub mod chrome;
pub mod registry;
pub mod spans;
pub mod stack;

pub use chrome::chrome_trace_json;
pub use registry::{CounterId, Histogram, Registry};
pub use spans::{Span, SpanRecorder};
pub use stack::{stack_csv, stack_json, weighted_cpi, WindowRow};

/// Hierarchy component a span or stall cycle is attributed to: one per
/// track that the simulator records spans on.
///
/// Components double as Chrome-trace track ids (`tid`), so the explicit
/// discriminants are stable export identifiers, not just enum order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[repr(u8)]
pub enum Component {
    /// Level-2 cache (either side of a split L2, or the unified array).
    L2 = 3,
    /// Write buffer between the L1 data side and the L2.
    Wb = 4,
    /// Translation lookaside buffer walks.
    Tlb = 5,
    /// Main-memory (MCM off-module) accesses.
    Memory = 6,
    /// Scheduler events: context switches, syscall-driven yields.
    Sched = 7,
    /// Injected soft-error events and recovery.
    Fault = 8,
}

impl Component {
    /// All components, in track order.
    pub const ALL: [Component; 6] = [
        Component::L2,
        Component::Wb,
        Component::Tlb,
        Component::Memory,
        Component::Sched,
        Component::Fault,
    ];

    /// Human-readable track name used in exports.
    pub fn name(self) -> &'static str {
        match self {
            Component::L2 => "l2",
            Component::Wb => "write-buffer",
            Component::Tlb => "tlb",
            Component::Memory => "memory",
            Component::Sched => "sched",
            Component::Fault => "fault",
        }
    }

    /// Chrome-trace thread (track) id for this component.
    pub fn tid(self) -> u32 {
        self as u32
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn component_tids_are_distinct_and_ordered() {
        let tids: Vec<u32> = Component::ALL.iter().map(|c| c.tid()).collect();
        assert_eq!(tids, [3, 4, 5, 6, 7, 8]);
    }

    #[test]
    fn component_names_are_distinct() {
        let mut names: Vec<&str> = Component::ALL.iter().map(|c| c.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), Component::ALL.len());
    }
}
