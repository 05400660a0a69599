//! The sharing directory over the shared L2: which cores hold which
//! L1-D lines, and in which MESI state.
//!
//! The directory is the snoop *filter* of the CMP design: because every
//! L1 sits in front of one shared L2, the L2 controller can track the
//! per-line sharer set and answer most misses without broadcasting at
//! all. Only references that actually involve a remote copy (a remote
//! Modified owner to demote, Shared copies to invalidate) occupy the
//! snoop bus — a disjoint multiprogrammed workload on N cores therefore
//! generates *zero* coherence traffic, which is what anchors the
//! sharing-sweep figures (the coherence CPI component scales with the
//! sharing knobs, not with core count alone).
//!
//! Directory entries can go stale in one direction only: a core may
//! silently evict a line (capacity victim) that the directory still
//! records as valid. The engine therefore *heals lazily* — every state
//! read cross-checks residency in the owning core's array, and a stale
//! bit is cleared for free (a real directory learns the same thing from
//! the core's no-snoop-hit response).

use std::collections::HashMap;
use std::hash::BuildHasherDefault;

use gaas_cache::PageKeyHasher;
use gaas_trace::PhysAddr;

use crate::mesi::MesiState;

/// Per-line sharer states for up to [`gaas_sim::MAX_CORES`] cores,
/// keyed by line-aligned base word address. Nothing iterates the map,
/// so its hasher cannot affect results.
#[derive(Debug, Default)]
pub struct Directory {
    entries:
        HashMap<u64, [MesiState; gaas_sim::MAX_CORES as usize], BuildHasherDefault<PageKeyHasher>>,
}

impl Directory {
    /// An empty directory (every line Invalid everywhere).
    pub fn new() -> Self {
        Self::default()
    }

    /// The recorded state of `line` in `core`'s L1-D (possibly stale;
    /// see [`Directory::heal`]).
    pub fn state(&self, line: PhysAddr, core: usize) -> MesiState {
        self.entries
            .get(&line.word())
            .map_or(MesiState::Invalid, |e| e[core])
    }

    /// The recorded states of `line` in every core's L1-D, by core id,
    /// in one lookup (possibly stale; see [`Directory::heal`]).
    pub fn states(&self, line: PhysAddr) -> [MesiState; gaas_sim::MAX_CORES as usize] {
        self.entries
            .get(&line.word())
            .copied()
            .unwrap_or([MesiState::Invalid; gaas_sim::MAX_CORES as usize])
    }

    /// Records `state` for `line` in `core`'s L1-D, dropping the entry
    /// once no core holds the line (keeps the map proportional to the
    /// *live* shared working set).
    pub fn set(&mut self, line: PhysAddr, core: usize, state: MesiState) {
        if state == MesiState::Invalid {
            if let Some(e) = self.entries.get_mut(&line.word()) {
                e[core] = MesiState::Invalid;
                if e.iter().all(|&s| s == MesiState::Invalid) {
                    self.entries.remove(&line.word());
                }
            }
            return;
        }
        self.entries.entry(line.word()).or_default()[core] = state;
    }

    /// Reconciles the recorded state with actual residency: a line the
    /// core no longer holds (silent eviction) is healed to Invalid.
    /// Returns the trustworthy state.
    pub fn heal(&mut self, line: PhysAddr, core: usize, resident: bool) -> MesiState {
        let s = self.state(line, core);
        if s != MesiState::Invalid && !resident {
            self.set(line, core, MesiState::Invalid);
            return MesiState::Invalid;
        }
        s
    }

    /// Number of lines with at least one (possibly stale) valid copy.
    pub fn tracked_lines(&self) -> usize {
        self.entries.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn line(w: u64) -> PhysAddr {
        PhysAddr::new(w)
    }

    #[test]
    fn default_state_is_invalid() {
        let d = Directory::new();
        assert_eq!(d.state(line(64), 0), MesiState::Invalid);
        assert_eq!(d.tracked_lines(), 0);
    }

    #[test]
    fn set_and_read_back() {
        let mut d = Directory::new();
        d.set(line(64), 1, MesiState::Exclusive);
        d.set(line(64), 3, MesiState::Shared);
        assert_eq!(d.state(line(64), 1), MesiState::Exclusive);
        assert_eq!(d.state(line(64), 3), MesiState::Shared);
        assert_eq!(d.state(line(64), 0), MesiState::Invalid);
        assert_eq!(d.tracked_lines(), 1);
    }

    #[test]
    fn entry_dropped_when_last_sharer_invalidates() {
        let mut d = Directory::new();
        d.set(line(128), 0, MesiState::Shared);
        d.set(line(128), 2, MesiState::Shared);
        d.set(line(128), 0, MesiState::Invalid);
        assert_eq!(d.tracked_lines(), 1, "core 2 still holds it");
        d.set(line(128), 2, MesiState::Invalid);
        assert_eq!(d.tracked_lines(), 0, "entry reclaimed");
    }

    #[test]
    fn heal_clears_stale_bits() {
        let mut d = Directory::new();
        d.set(line(64), 0, MesiState::Modified);
        // The core silently evicted the line: residency says gone.
        assert_eq!(d.heal(line(64), 0, false), MesiState::Invalid);
        assert_eq!(d.state(line(64), 0), MesiState::Invalid);
        assert_eq!(d.tracked_lines(), 0);
    }

    #[test]
    fn heal_trusts_resident_lines() {
        let mut d = Directory::new();
        d.set(line(64), 0, MesiState::Shared);
        assert_eq!(d.heal(line(64), 0, true), MesiState::Shared);
        assert_eq!(d.tracked_lines(), 1);
    }
}
