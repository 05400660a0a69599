//! Primary data-cache write policies (§6 of the paper).
//!
//! Four policies are modelled:
//!
//! * **write-back** (base architecture): write-allocate; write hits take two
//!   cycles (tag check before commit); replaced dirty lines go to a 4-deep,
//!   4 W-wide write buffer.
//! * **write-miss-invalidate**: write-through; data is written while the tag
//!   is checked, so hits take one cycle; a miss spends a second cycle
//!   invalidating the corrupted line; every write is sent to an 8-deep,
//!   1 W-wide write buffer.
//! * **write-only** (the paper's new policy): write-miss-invalidate, except
//!   a write miss *updates the tag* and marks the line write-only, so
//!   subsequent writes to the line hit in one cycle. Reads that map to a
//!   write-only line miss and reallocate the line.
//! * **subblock placement**: each tag carries one valid bit per word; a
//!   word-write miss updates the tag (second cycle), sets its own valid bit
//!   and clears the others; later word writes hit; reads need the word's
//!   valid bit.
//!
//! [`L1DataCache`] exposes `load`/`store` operations that return *what
//! happened* ([`LoadOutcome`], [`StoreOutcome`]); the simulator converts
//! outcomes into cycles, write-buffer traffic and L2 accesses.

use gaas_trace::PhysAddr;

use crate::array::{CacheArray, CacheGeometry};

/// The write policy of the primary data cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum WritePolicy {
    /// Write-back, write-allocate (base architecture).
    WriteBack,
    /// Write-through; a write miss invalidates the corrupted line.
    WriteMissInvalidate,
    /// Write-through; a write miss adopts the line as write-only (new).
    WriteOnly,
    /// Write-through with per-word valid bits.
    Subblock,
}

impl WritePolicy {
    /// True for the three write-through variants.
    pub fn is_write_through(self) -> bool {
        !matches!(self, WritePolicy::WriteBack)
    }

    /// All four policies, in the order Fig. 5 presents them.
    pub fn all() -> [WritePolicy; 4] {
        [
            WritePolicy::WriteBack,
            WritePolicy::WriteMissInvalidate,
            WritePolicy::WriteOnly,
            WritePolicy::Subblock,
        ]
    }

    /// Short label used in tables.
    pub fn label(self) -> &'static str {
        match self {
            WritePolicy::WriteBack => "write-back",
            WritePolicy::WriteMissInvalidate => "write-miss-inv",
            WritePolicy::WriteOnly => "write-only",
            WritePolicy::Subblock => "subblock",
        }
    }
}

/// What a load did in the L1 data cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LoadOutcome {
    /// The load was satisfied by the cache.
    pub hit: bool,
    /// A line must be fetched from the next level (base address).
    pub fetch: Option<PhysAddr>,
    /// A dirty victim line must be written back (write-back policy only).
    pub writeback_victim: Option<PhysAddr>,
    /// A written (dirty-bit) line was displaced — the trigger for the §9
    /// dirty-bit write-buffer flush scheme.
    pub replaced_written_line: bool,
}

/// What a store did in the L1 data cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StoreOutcome {
    /// The store hit (one-cycle completion for write-through policies).
    pub hit: bool,
    /// The store needs a second cycle (write-back hit; write-through miss).
    pub extra_cycle: bool,
    /// The written word must be queued to the write-through write buffer.
    pub wb_word: Option<PhysAddr>,
    /// A line must be fetched from the next level (write-back allocate).
    pub fetch: Option<PhysAddr>,
    /// A dirty victim line must be written back (write-back policy only).
    pub writeback_victim: Option<PhysAddr>,
    /// A written (dirty-bit) line was displaced (§9 flush trigger).
    pub replaced_written_line: bool,
    /// The store hit a line whose written (dirty-bit) mark was already
    /// set: the line was written since its fill. The CMP engine reads
    /// the line's prior MESI state off this and `hit`, so it needs no
    /// probe before the store.
    pub hit_written: bool,
}

/// Whether a resident line with these marks serves a load of word
/// `word` under `policy`.
#[inline(always)]
fn serves_load(policy: WritePolicy, write_only: bool, subblock_valid: u32, word: u32) -> bool {
    match policy {
        WritePolicy::WriteBack | WritePolicy::WriteMissInvalidate => true,
        WritePolicy::WriteOnly => !write_only,
        WritePolicy::Subblock => subblock_valid & (1 << word) != 0,
    }
}

/// The primary data cache: a [`CacheArray`] plus write-policy semantics.
#[derive(Debug, Clone)]
pub struct L1DataCache {
    array: CacheArray,
    policy: WritePolicy,
}

impl L1DataCache {
    /// Creates an empty L1-D cache with the given geometry and policy.
    pub fn new(geom: CacheGeometry, policy: WritePolicy) -> Self {
        L1DataCache {
            array: CacheArray::new(geom),
            policy,
        }
    }

    /// The configured write policy.
    pub fn policy(&self) -> WritePolicy {
        self.policy
    }

    /// The underlying array (read-only), for inspection in tests/reports.
    pub fn array(&self) -> &CacheArray {
        &self.array
    }

    /// The underlying array, mutably. Exists for deliberate state
    /// corruption in the differential oracle's seeded-bug canary; the
    /// policy methods are the only legitimate mutation path.
    pub fn array_mut(&mut self) -> &mut CacheArray {
        &mut self.array
    }

    /// Performs a load.
    ///
    /// A tag match does not suffice for a hit: under write-only, lines
    /// marked write-only never service reads; under subblock placement the
    /// word's valid bit must be set. On a miss the caller must fetch the
    /// line from L2 (the outcome's `fetch` field) — the refill is applied
    /// here immediately (trace-driven simulation has no outstanding-miss
    /// window).
    #[inline]
    pub fn load(&mut self, addr: PhysAddr) -> LoadOutcome {
        let word = self.array.geometry().word_in_line(addr);
        let hit = match self.array.touch(addr) {
            Some(line) => serves_load(self.policy, line.write_only(), line.subblock_valid(), word),
            None => false,
        };
        if hit {
            return LoadOutcome {
                hit: true,
                fetch: None,
                writeback_victim: None,
                replaced_written_line: false,
            };
        }

        // Miss: fetch and fill. A read miss may displace either the very
        // line it re-reads (in-place reallocation of a write-only /
        // invalid-word line — the §6 "reallocate") or an unrelated victim;
        // both count as "a written line was replaced" for the §9 dirty-bit
        // flush trigger.
        let base = self.array.geometry().line_base(addr);
        let inplace_dirty = self.array.peek(addr).map(|l| l.dirty);
        let evicted = self.array.fill(addr);
        let (victim, victim_dirty) = match (inplace_dirty, evicted) {
            (Some(dirty), _) => (None, dirty),
            (None, Some(e)) => (Some(e.base), e.dirty),
            (None, None) => (None, false),
        };
        let wb_victim = if self.policy == WritePolicy::WriteBack && victim_dirty {
            victim
        } else {
            None
        };
        LoadOutcome {
            hit: false,
            fetch: Some(base),
            writeback_victim: wb_victim,
            replaced_written_line: victim_dirty && self.policy.is_write_through(),
        }
    }

    /// Whether [`L1DataCache::load`] of `addr` would hit, without
    /// touching LRU state.
    #[inline]
    pub fn load_would_hit(&self, addr: PhysAddr) -> bool {
        let word = self.array.geometry().word_in_line(addr);
        self.array.peek(addr).is_some_and(|line| {
            serves_load(self.policy, line.write_only, line.subblock_valid, word)
        })
    }

    /// Performs a store. `partial_word` marks a sub-word write (§6: these
    /// do not set subblock valid bits).
    #[inline]
    pub fn store(&mut self, addr: PhysAddr, partial_word: bool) -> StoreOutcome {
        match self.policy {
            WritePolicy::WriteBack => self.store_write_back(addr),
            WritePolicy::WriteMissInvalidate => self.store_wmi(addr),
            WritePolicy::WriteOnly => self.store_write_only(addr),
            WritePolicy::Subblock => self.store_subblock(addr, partial_word),
        }
    }

    #[inline]
    fn store_write_back(&mut self, addr: PhysAddr) -> StoreOutcome {
        if let Some(mut line) = self.array.touch(addr) {
            let hit_written = line.dirty();
            line.set_dirty(true);
            // Write hit: 2 cycles (tag checked before the write commits).
            return StoreOutcome {
                hit: true,
                extra_cycle: true,
                wb_word: None,
                fetch: None,
                writeback_victim: None,
                replaced_written_line: false,
                hit_written,
            };
        }
        // Write miss: 1 cycle in the cache + write-allocate.
        let base = self.array.geometry().line_base(addr);
        let evicted = self.array.fill(addr);
        if let Some(mut line) = self.array.touch(addr) {
            line.set_dirty(true);
        }
        StoreOutcome {
            hit: false,
            extra_cycle: false,
            wb_word: None,
            fetch: Some(base),
            writeback_victim: evicted.filter(|e| e.dirty).map(|e| e.base),
            replaced_written_line: false,
            hit_written: false,
        }
    }

    #[inline]
    fn store_wmi(&mut self, addr: PhysAddr) -> StoreOutcome {
        let word_addr = addr;
        if let Some(mut line) = self.array.touch(addr) {
            let hit_written = line.dirty();
            line.set_dirty(true); // "written" mark for the §9 dirty-bit scheme
            return StoreOutcome {
                hit: true,
                extra_cycle: false,
                wb_word: Some(word_addr),
                fetch: None,
                writeback_victim: None,
                replaced_written_line: false,
                hit_written,
            };
        }
        // Miss: the data RAM was written while the tag was checked; spend a
        // second cycle invalidating the corrupted line. (Direct-mapped L1-D:
        // the corrupted way is the one the address indexes.)
        let displaced = self.invalidate_indexed_line(addr);
        StoreOutcome {
            hit: false,
            extra_cycle: true,
            wb_word: Some(word_addr),
            fetch: None,
            writeback_victim: None,
            replaced_written_line: displaced,
            hit_written: false,
        }
    }

    #[inline]
    fn store_write_only(&mut self, addr: PhysAddr) -> StoreOutcome {
        if let Some(mut line) = self.array.touch(addr) {
            let hit_written = line.dirty();
            line.set_dirty(true);
            // Hits complete in one cycle whether or not the line is
            // write-only (subsequent writes to a write-only line hit).
            return StoreOutcome {
                hit: true,
                extra_cycle: false,
                wb_word: Some(addr),
                fetch: None,
                writeback_victim: None,
                replaced_written_line: false,
                hit_written,
            };
        }
        // Miss: update the tag and mark the line write-only (second cycle).
        let evicted = self.array.fill(addr);
        let mut line = self.array.touch(addr).expect("line was just filled");
        line.set_write_only(true);
        line.set_dirty(true);
        StoreOutcome {
            hit: false,
            extra_cycle: true,
            wb_word: Some(addr),
            fetch: None,
            writeback_victim: None,
            replaced_written_line: evicted.is_some_and(|e| e.dirty),
            hit_written: false,
        }
    }

    fn store_subblock(&mut self, addr: PhysAddr, partial_word: bool) -> StoreOutcome {
        let word = self.array.geometry().word_in_line(addr);
        if let Some(mut line) = self.array.touch(addr) {
            // Tag hit: one cycle; word writes set their valid bit,
            // partial-word writes leave the bits unchanged.
            let hit_written = line.dirty();
            if !partial_word {
                line.or_subblock(1 << word);
            }
            line.set_dirty(true);
            return StoreOutcome {
                hit: true,
                extra_cycle: false,
                wb_word: Some(addr),
                fetch: None,
                writeback_victim: None,
                replaced_written_line: false,
                hit_written,
            };
        }
        // Tag miss: update the address portion of the tag in the next
        // cycle; a word-write turns on its own valid bit and clears the
        // rest, a partial-word write leaves the line wholly invalid.
        let evicted = self.array.fill(addr);
        let mut line = self.array.touch(addr).expect("line was just filled");
        line.set_subblock_valid(if partial_word { 0 } else { 1 << word });
        line.set_dirty(true);
        StoreOutcome {
            hit: false,
            extra_cycle: true,
            wb_word: Some(addr),
            fetch: None,
            writeback_victim: None,
            replaced_written_line: evicted.is_some_and(|e| e.dirty),
            hit_written: false,
        }
    }

    /// Invalidates whatever valid line occupies `addr`'s set (direct-mapped
    /// corruption semantics of write-miss-invalidate). Returns true when a
    /// written line was displaced.
    fn invalidate_indexed_line(&mut self, addr: PhysAddr) -> bool {
        // For the direct-mapped L1-D there is exactly one candidate way:
        // any valid line in the indexed set is the corrupted one.
        let victim = self.array.peek_set(addr).next().map(|l| (l.base, l.dirty));
        match victim {
            Some((base, dirty)) => {
                self.array.invalidate(base);
                dirty
            }
            None => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pa(w: u64) -> PhysAddr {
        PhysAddr::new(w)
    }

    fn cache(policy: WritePolicy) -> L1DataCache {
        // 64-word direct-mapped, 4W lines, 16 sets.
        L1DataCache::new(CacheGeometry::new(64, 4, 1).expect("valid"), policy)
    }

    #[test]
    fn policy_labels_and_classes() {
        assert!(!WritePolicy::WriteBack.is_write_through());
        for p in [
            WritePolicy::WriteMissInvalidate,
            WritePolicy::WriteOnly,
            WritePolicy::Subblock,
        ] {
            assert!(p.is_write_through());
        }
        assert_eq!(WritePolicy::all().len(), 4);
        for p in WritePolicy::all() {
            assert!(!p.label().is_empty());
        }
    }

    #[test]
    fn hit_written_reports_a_hit_on_an_already_written_line() {
        for p in WritePolicy::all() {
            let mut c = cache(p);
            c.load(pa(0));
            let first = c.store(pa(1), false);
            assert!(
                first.hit && !first.hit_written,
                "{p:?}: first hit, clean line"
            );
            let second = c.store(pa(2), false);
            assert!(
                second.hit && second.hit_written,
                "{p:?}: second hit, written line"
            );
            let miss = c.store(pa(8), false);
            assert!(!miss.hit && !miss.hit_written, "{p:?}: miss");
        }
    }

    // ---- write-back ----

    #[test]
    fn wb_store_hit_takes_two_cycles_and_dirties() {
        let mut c = cache(WritePolicy::WriteBack);
        c.load(pa(0));
        let s = c.store(pa(1), false);
        assert!(s.hit && s.extra_cycle);
        assert!(s.wb_word.is_none(), "write-back does not stream words");
        assert!(c.array().peek(pa(0)).expect("resident").dirty);
    }

    #[test]
    fn wb_store_miss_allocates_and_fetches() {
        let mut c = cache(WritePolicy::WriteBack);
        let s = c.store(pa(8), false);
        assert!(!s.hit && !s.extra_cycle);
        assert_eq!(s.fetch, Some(pa(8)));
        assert!(c.array().peek(pa(8)).expect("allocated").dirty);
    }

    #[test]
    fn wb_dirty_victim_goes_to_write_buffer() {
        let mut c = cache(WritePolicy::WriteBack);
        c.store(pa(0), false); // dirty line at set 0
        let s = c.store(pa(64), false); // conflicts with set 0
        assert_eq!(s.writeback_victim, Some(pa(0)));
        // Clean victim produces no writeback:
        let mut c2 = cache(WritePolicy::WriteBack);
        c2.load(pa(0));
        let s2 = c2.store(pa(64), false);
        assert_eq!(s2.writeback_victim, None);
    }

    #[test]
    fn wb_load_miss_evicting_dirty_line_writes_back() {
        let mut c = cache(WritePolicy::WriteBack);
        c.store(pa(0), false);
        let l = c.load(pa(64));
        assert!(!l.hit);
        assert_eq!(l.writeback_victim, Some(pa(0)));
    }

    // ---- write-miss-invalidate ----

    #[test]
    fn wmi_store_hit_one_cycle_streams_word() {
        let mut c = cache(WritePolicy::WriteMissInvalidate);
        c.load(pa(0));
        let s = c.store(pa(2), false);
        assert!(s.hit && !s.extra_cycle);
        assert_eq!(s.wb_word, Some(pa(2)));
        assert!(s.fetch.is_none());
    }

    #[test]
    fn wmi_store_miss_invalidates_corrupted_line() {
        let mut c = cache(WritePolicy::WriteMissInvalidate);
        c.load(pa(0)); // resident line at set 0
        let s = c.store(pa(64), false); // same set, different tag
        assert!(!s.hit && s.extra_cycle);
        assert_eq!(s.wb_word, Some(pa(64)));
        assert!(!c.array().contains(pa(0)), "corrupted line invalidated");
        assert!(!c.array().contains(pa(64)), "no allocation on write miss");
    }

    #[test]
    fn wmi_read_after_write_miss_misses() {
        let mut c = cache(WritePolicy::WriteMissInvalidate);
        c.store(pa(8), false);
        assert!(!c.load(pa(8)).hit, "no allocation under WMI");
    }

    // ---- write-only ----

    #[test]
    fn wo_store_miss_adopts_line_write_only() {
        let mut c = cache(WritePolicy::WriteOnly);
        let s = c.store(pa(8), false);
        assert!(!s.hit && s.extra_cycle);
        let line = c.array().peek(pa(8)).expect("tag updated");
        assert!(line.write_only && line.dirty);
    }

    #[test]
    fn wo_subsequent_stores_hit_in_one_cycle() {
        let mut c = cache(WritePolicy::WriteOnly);
        c.store(pa(8), false);
        let s = c.store(pa(9), false);
        assert!(s.hit && !s.extra_cycle, "same line, one cycle");
    }

    #[test]
    fn wo_reads_to_write_only_lines_miss_and_reallocate() {
        let mut c = cache(WritePolicy::WriteOnly);
        c.store(pa(8), false);
        let l = c.load(pa(8));
        assert!(!l.hit, "write-only lines never service reads");
        assert_eq!(l.fetch, Some(pa(8)));
        assert!(
            l.replaced_written_line,
            "reallocating a written line is the dirty-flush trigger"
        );
        // After reallocation the line is a normal readable line.
        assert!(c.load(pa(8)).hit);
        assert!(!c.array().peek(pa(8)).expect("resident").write_only);
    }

    #[test]
    fn wo_store_replacing_written_line_flags_flush() {
        let mut c = cache(WritePolicy::WriteOnly);
        c.store(pa(0), false); // written line at set 0
        let s = c.store(pa(64), false); // displaces it
        assert!(s.replaced_written_line);
    }

    // ---- subblock placement ----

    #[test]
    fn sb_word_write_miss_validates_own_word_only() {
        let mut c = cache(WritePolicy::Subblock);
        let s = c.store(pa(9), false);
        assert!(!s.hit && s.extra_cycle);
        let line = c.array().peek(pa(9)).expect("tag updated");
        assert_eq!(line.subblock_valid, 0b0010, "only word 1 valid");
        assert!(c.load(pa(9)).hit, "written word readable");
        assert!(!c.load(pa(8)).hit, "other words invalid");
    }

    #[test]
    fn sb_partial_word_miss_validates_nothing() {
        let mut c = cache(WritePolicy::Subblock);
        c.store(pa(8), true);
        let line = c.array().peek(pa(8)).expect("tag updated");
        assert_eq!(line.subblock_valid, 0);
    }

    #[test]
    fn sb_partial_word_hit_leaves_bits() {
        let mut c = cache(WritePolicy::Subblock);
        c.store(pa(8), false); // word 0 valid
        let s = c.store(pa(9), true); // partial write to word 1
        assert!(s.hit && !s.extra_cycle);
        let line = c.array().peek(pa(8)).expect("resident");
        assert_eq!(
            line.subblock_valid, 0b0001,
            "bit unchanged by partial write"
        );
    }

    #[test]
    fn sb_read_miss_on_invalid_word_fills_whole_line() {
        let mut c = cache(WritePolicy::Subblock);
        c.store(pa(8), false);
        let l = c.load(pa(10));
        assert!(!l.hit);
        assert_eq!(l.fetch, Some(pa(8)));
        assert!(l.replaced_written_line, "refetch replaces a written line");
        assert_eq!(
            c.array().peek(pa(8)).expect("resident").subblock_valid,
            0b1111
        );
    }

    #[test]
    fn sb_sequence_matches_paper_example() {
        // Write miss, then three more word writes to the same line: all hit
        // (this is the >80% of subblock's benefit the paper attributes to
        // write misses converting subsequent writes into hits).
        let mut c = cache(WritePolicy::Subblock);
        assert!(!c.store(pa(16), false).hit);
        for w in 17..20 {
            assert!(c.store(pa(w), false).hit);
        }
        // And the written words are readable (the <20% read-hit benefit).
        for w in 16..20 {
            assert!(c.load(pa(w)).hit);
        }
    }

    // ---- cross-policy ----

    #[test]
    fn load_hit_common_case() {
        for p in WritePolicy::all() {
            let mut c = cache(p);
            assert!(!c.load(pa(32)).hit);
            assert!(c.load(pa(33)).hit, "{p:?}: second load hits");
        }
    }

    #[test]
    fn write_through_policies_always_stream_the_word() {
        for p in [
            WritePolicy::WriteMissInvalidate,
            WritePolicy::WriteOnly,
            WritePolicy::Subblock,
        ] {
            let mut c = cache(p);
            assert!(
                c.store(pa(40), false).wb_word.is_some(),
                "{p:?} miss streams"
            );
            assert!(
                c.store(pa(40), false).wb_word.is_some() || p == WritePolicy::WriteMissInvalidate,
                "{p:?} hit streams"
            );
        }
    }

    #[test]
    fn write_through_policies_never_fetch_on_store() {
        for p in [
            WritePolicy::WriteMissInvalidate,
            WritePolicy::WriteOnly,
            WritePolicy::Subblock,
        ] {
            let mut c = cache(p);
            assert!(c.store(pa(44), false).fetch.is_none(), "{p:?}");
        }
    }
}

#[cfg(test)]
mod prop_tests {
    //! Randomized-history properties, driven by the vendored deterministic
    //! PRNG: each test replays many independent seeded op sequences, so
    //! failures reproduce exactly by seed.
    use super::*;
    use gaas_trace::rng::SmallRng;

    #[derive(Debug, Clone, Copy)]
    enum Op {
        Load(u64),
        Store(u64, bool),
    }

    fn random_ops(rng: &mut SmallRng, max_len: usize) -> Vec<Op> {
        let len = rng.gen_range(0..=max_len);
        (0..len)
            .map(|_| {
                if rng.gen::<bool>() {
                    Op::Load(rng.gen_range(0u64..512))
                } else {
                    Op::Store(rng.gen_range(0u64..512), rng.gen::<bool>())
                }
            })
            .collect()
    }

    fn apply(c: &mut L1DataCache, ops: &[Op]) {
        for op in ops {
            match *op {
                Op::Load(a) => {
                    c.load(PhysAddr::new(a));
                }
                Op::Store(a, p) => {
                    c.store(PhysAddr::new(a), p);
                }
            }
        }
    }

    /// Write-only invariant: a load immediately after a load to the same
    /// word always hits (the reallocation made the line readable), under
    /// any history.
    #[test]
    fn wo_reload_after_load_hits() {
        let mut rng = SmallRng::seed_from_u64(0xA0);
        for _ in 0..48 {
            let ops = random_ops(&mut rng, 200);
            let probe = rng.gen_range(0u64..512);
            let mut c = L1DataCache::new(
                CacheGeometry::new(64, 4, 1).expect("valid"),
                WritePolicy::WriteOnly,
            );
            apply(&mut c, &ops);
            c.load(PhysAddr::new(probe));
            assert!(c.load(PhysAddr::new(probe)).hit);
        }
    }

    /// Write-miss-invalidate never allocates on stores: a store-miss
    /// followed immediately by a load of the same address must miss.
    #[test]
    fn wmi_store_never_allocates() {
        let mut rng = SmallRng::seed_from_u64(0xA1);
        for _ in 0..48 {
            let ops = random_ops(&mut rng, 200);
            let probe = rng.gen_range(0u64..512);
            let mut c = L1DataCache::new(
                CacheGeometry::new(64, 4, 1).expect("valid"),
                WritePolicy::WriteMissInvalidate,
            );
            apply(&mut c, &ops);
            let s = c.store(PhysAddr::new(probe), false);
            if !s.hit {
                assert!(!c.array().contains(PhysAddr::new(probe)));
            }
        }
    }

    /// Under every policy, a full-word store followed by a load of the
    /// same word hits (write-back/subblock/write-only all make the
    /// word readable... except write-only and WMI, whose semantics
    /// forbid it). This pins down exactly which policies serve reads
    /// from written lines.
    #[test]
    fn store_then_load_semantics() {
        let mut rng = SmallRng::seed_from_u64(0xA2);
        for _ in 0..48 {
            let addr = rng.gen_range(0u64..512);
            for (policy, expect_hit) in [
                (WritePolicy::WriteBack, true),            // allocated + readable
                (WritePolicy::WriteMissInvalidate, false), // never allocated
                (WritePolicy::WriteOnly, false),           // allocated write-only
                (WritePolicy::Subblock, true),             // own word valid
            ] {
                let mut c = L1DataCache::new(CacheGeometry::new(64, 4, 1).expect("valid"), policy);
                c.store(PhysAddr::new(addr), false);
                assert_eq!(c.load(PhysAddr::new(addr)).hit, expect_hit, "{policy:?}");
            }
        }
    }

    /// Subblock valid bits are always a subset of the line mask, and a
    /// valid bit implies the tag matches.
    #[test]
    fn subblock_valid_bits_bounded() {
        let mut rng = SmallRng::seed_from_u64(0xA3);
        for _ in 0..48 {
            let ops = random_ops(&mut rng, 300);
            let geom = CacheGeometry::new(64, 4, 1).expect("valid");
            let mut c = L1DataCache::new(geom, WritePolicy::Subblock);
            for op in &ops {
                match *op {
                    Op::Load(a) => {
                        c.load(PhysAddr::new(a));
                    }
                    Op::Store(a, p) => {
                        c.store(PhysAddr::new(a), p);
                    }
                }
                for line in c.array().iter() {
                    assert_eq!(line.subblock_valid & !0b1111, 0, "stray valid bits");
                }
            }
        }
    }

    /// `load_would_hit` predicts every load's hit flag under every
    /// policy.
    #[test]
    fn load_would_hit_predicts_load() {
        let mut rng = SmallRng::seed_from_u64(0xA5);
        for policy in WritePolicy::all() {
            let geom = CacheGeometry::new(64, 4, 2).expect("valid");
            let mut c = L1DataCache::new(geom, policy);
            for op in random_ops(&mut rng, 400) {
                match op {
                    Op::Load(a) => {
                        let predicted = c.load_would_hit(PhysAddr::new(a));
                        assert_eq!(c.load(PhysAddr::new(a)).hit, predicted, "{policy:?}");
                    }
                    Op::Store(a, p) => {
                        c.store(PhysAddr::new(a), p);
                    }
                }
            }
        }
    }

    /// The write-through policies report every store to the write
    /// buffer, exactly once, hit or miss.
    #[test]
    fn write_through_streams_every_store() {
        let mut rng = SmallRng::seed_from_u64(0xA4);
        for _ in 0..48 {
            let len = rng.gen_range(1usize..100);
            let ops: Vec<(u64, bool)> = (0..len)
                .map(|_| (rng.gen_range(0u64..512), rng.gen::<bool>()))
                .collect();
            for policy in [
                WritePolicy::WriteMissInvalidate,
                WritePolicy::WriteOnly,
                WritePolicy::Subblock,
            ] {
                let mut c = L1DataCache::new(CacheGeometry::new(64, 4, 1).expect("valid"), policy);
                for &(a, p) in &ops {
                    let out = c.store(PhysAddr::new(a), p);
                    assert_eq!(out.wb_word, Some(PhysAddr::new(a)), "{policy:?}");
                    assert!(out.fetch.is_none(), "{policy:?} fetched on store");
                }
            }
        }
    }
}
