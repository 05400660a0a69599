//! Generic set-associative cache array over a bit-packed tag plane.
//!
//! [`CacheArray`] is the structural core shared by every cache in the study:
//! the 4 KW direct-mapped primary caches, the 16 KW–1024 KW unified/split
//! secondary caches, and the 2-way associative variants. It tracks tags,
//! validity, dirtiness, the write-only mark of the paper's new write policy,
//! and per-word subblock valid bits; replacement is LRU (trivial for
//! direct-mapped). Timing is deliberately *not* modelled here — the
//! simulator charges cycles; the array answers pure hit/miss/eviction
//! questions.
//!
//! # Memory layout
//!
//! The array stores no per-line structs. Each set owns one contiguous
//! stripe of the tag `plane`, `2 * assoc` words long:
//!
//! ```text
//! plane[set*stride ..] = [ tag w0 | tag w1 | .. | lru w0 | lru w1 | .. ]
//! ```
//!
//! so an N-way probe reads `assoc` adjacent words and the hit's LRU
//! promotion writes into the *same* stripe — for the study's geometries
//! (`assoc <= 4`) a hit plus promote touches a single 64-byte host cache
//! line. Tags hold the line-aligned base word address directly
//! (`INVALID_TAG` marks an empty way; real physical word addresses
//! never reach it), so no tag reconstruction is needed on hit.
//!
//! The rarely-written payload bits (dirty / write-only / subblock valid)
//! live in a separate per-line `meta` word, only pulled in when a policy
//! actually inspects or mutates them via [`LineRef`].
//!
//! The probe itself is branchless in the way dimension: each way's tag
//! compare contributes one bit to a hit mask
//! (`mask |= (tag == base) << way`) and `trailing_zeros` selects the
//! matching way, in the style of bit-sliced address decoders. Invalid
//! ways keep an LRU stamp of 0, below every live timestamp (the clock
//! starts at 1), so victim selection is a single min-scan with no
//! validity branch: "first invalid way, else LRU way" falls out of
//! "first minimum".
//!
//! The pre-PR scalar implementation is preserved unchanged as
//! [`reference::RefCacheArray`] and the two are cross-checked
//! access-for-access by the `packed_vs_reference` differential fuzz test.

use std::fmt;

use gaas_trace::PhysAddr;

pub mod reference;

/// Tag value of an empty way. Line base addresses are word addresses of
/// the simulated 32-bit machine (`< 2^40` even with the PID prefix), so
/// they can never collide with it.
const INVALID_TAG: u64 = u64::MAX;

/// Meta-word bit holding the dirty flag.
const META_DIRTY: u64 = 1 << 32;
/// Meta-word bit holding the write-only mark.
const META_WRITE_ONLY: u64 = 1 << 33;
/// Meta-word bits holding the 32 subblock valid bits.
const META_SUBBLOCK: u64 = (1 << 32) - 1;

/// Validated geometry of a cache: total size, line length, associativity
/// (all in words, all powers of two).
///
/// The constructor precomputes the shift/mask forms of every per-access
/// derivation (set index, line base, word-in-line, subblock mask) so the
/// simulator's hot path performs no divisions: all sizes are powers of
/// two, so `set_of` is one shift and one mask.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CacheGeometry {
    size_words: u64,
    line_words: u32,
    assoc: u32,
    /// log2(line_words): shifts a word address down to a line number.
    line_shift: u32,
    /// `line_words - 1`: masks the word offset within a line.
    line_mask: u64,
    /// `n_sets - 1`: masks a line number down to a set index.
    set_mask: u64,
    /// All subblock valid bits set for this line length.
    full_subblock_mask: u32,
}

/// Error returned for inconsistent cache geometry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GeometryError(String);

impl fmt::Display for GeometryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid cache geometry: {}", self.0)
    }
}

impl std::error::Error for GeometryError {}

impl CacheGeometry {
    /// Builds a geometry, validating that sizes are powers of two and that
    /// the cache holds at least one set.
    ///
    /// # Errors
    ///
    /// Returns [`GeometryError`] when `size_words`, `line_words` or `assoc`
    /// is zero or not a power of two, or when
    /// `size_words < line_words * assoc`.
    pub fn new(size_words: u64, line_words: u32, assoc: u32) -> Result<Self, GeometryError> {
        if size_words == 0 || !size_words.is_power_of_two() {
            return Err(GeometryError(format!(
                "size {size_words} not a power of two"
            )));
        }
        if line_words == 0 || !line_words.is_power_of_two() {
            return Err(GeometryError(format!(
                "line {line_words} not a power of two"
            )));
        }
        if line_words > 32 {
            return Err(GeometryError(format!(
                "line {line_words} exceeds the 32-word subblock mask"
            )));
        }
        if assoc == 0 || !assoc.is_power_of_two() {
            return Err(GeometryError(format!(
                "associativity {assoc} not a power of two"
            )));
        }
        if size_words < line_words as u64 * assoc as u64 {
            return Err(GeometryError(format!(
                "size {size_words} smaller than one set ({line_words} x {assoc})"
            )));
        }
        let n_sets = size_words / (line_words as u64 * assoc as u64);
        Ok(CacheGeometry {
            size_words,
            line_words,
            assoc,
            line_shift: line_words.trailing_zeros(),
            line_mask: line_words as u64 - 1,
            set_mask: n_sets - 1,
            full_subblock_mask: if line_words == 32 {
                u32::MAX
            } else {
                (1u32 << line_words) - 1
            },
        })
    }

    /// Total capacity in words.
    pub fn size_words(&self) -> u64 {
        self.size_words
    }

    /// Line length in words.
    pub fn line_words(&self) -> u32 {
        self.line_words
    }

    /// Degree of associativity (1 = direct-mapped).
    pub fn assoc(&self) -> u32 {
        self.assoc
    }

    /// Number of sets.
    #[inline]
    pub fn n_sets(&self) -> u64 {
        self.set_mask + 1
    }

    /// Set index for a physical word address.
    #[inline]
    pub fn set_of(&self, addr: PhysAddr) -> u64 {
        (addr.word() >> self.line_shift) & self.set_mask
    }

    /// Line-aligned base address of the line containing `addr`.
    #[inline]
    pub fn line_base(&self, addr: PhysAddr) -> PhysAddr {
        PhysAddr::new(addr.word() & !self.line_mask)
    }

    /// Word index of `addr` within its line (for subblock valid bits).
    #[inline]
    pub fn word_in_line(&self, addr: PhysAddr) -> u32 {
        (addr.word() & self.line_mask) as u32
    }

    /// The subblock valid mask with every word bit of a line set.
    #[inline]
    pub fn full_subblock_mask(&self) -> u32 {
        self.full_subblock_mask
    }
}

/// Architectural snapshot of one resident cache line.
///
/// Returned by value from [`CacheArray::peek`], [`CacheArray::peek_set`],
/// [`CacheArray::iter`] and [`CacheArray::invalidate`]; the packed array
/// has no per-line struct to hand out references to. In-place mutation
/// goes through [`LineRef`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Line {
    /// Line-aligned base word address of the cached line.
    pub base: PhysAddr,
    /// Line modified relative to the next level (write-back), or — for
    /// write-through policies with the dirty-bit bypass scheme (§9) — "this
    /// line has been written since allocation".
    pub dirty: bool,
    /// The paper's write-only mark: the line was allocated by a write miss
    /// under the write-only policy and must not service reads.
    pub write_only: bool,
    /// Per-word valid bits for subblock placement (bit *i* = word *i*).
    pub subblock_valid: u32,
}

/// Mutable handle onto one resident line's payload bits.
///
/// Handed out by [`CacheArray::touch`] and [`CacheArray::peek_mut`];
/// reads and writes go straight to the line's packed meta word.
#[derive(Debug)]
pub struct LineRef<'a> {
    base: PhysAddr,
    meta: &'a mut u64,
}

impl LineRef<'_> {
    /// Line-aligned base word address of the cached line.
    #[inline]
    pub fn base(&self) -> PhysAddr {
        self.base
    }

    /// The dirty/written flag (see [`Line::dirty`]).
    #[inline]
    pub fn dirty(&self) -> bool {
        *self.meta & META_DIRTY != 0
    }

    /// Sets or clears the dirty/written flag.
    #[inline]
    pub fn set_dirty(&mut self, v: bool) {
        if v {
            *self.meta |= META_DIRTY;
        } else {
            *self.meta &= !META_DIRTY;
        }
    }

    /// The write-only mark (see [`Line::write_only`]).
    #[inline]
    pub fn write_only(&self) -> bool {
        *self.meta & META_WRITE_ONLY != 0
    }

    /// Sets or clears the write-only mark.
    #[inline]
    pub fn set_write_only(&mut self, v: bool) {
        if v {
            *self.meta |= META_WRITE_ONLY;
        } else {
            *self.meta &= !META_WRITE_ONLY;
        }
    }

    /// The per-word subblock valid bits (see [`Line::subblock_valid`]).
    #[inline]
    pub fn subblock_valid(&self) -> u32 {
        (*self.meta & META_SUBBLOCK) as u32
    }

    /// Replaces the subblock valid bits.
    #[inline]
    pub fn set_subblock_valid(&mut self, v: u32) {
        *self.meta = (*self.meta & !META_SUBBLOCK) | v as u64;
    }

    /// ORs `bits` into the subblock valid bits.
    #[inline]
    pub fn or_subblock(&mut self, bits: u32) {
        *self.meta |= bits as u64;
    }

    /// Copies the line out as a [`Line`] snapshot.
    #[inline]
    pub fn snapshot(&self) -> Line {
        Line {
            base: self.base,
            dirty: self.dirty(),
            write_only: self.write_only(),
            subblock_valid: self.subblock_valid(),
        }
    }
}

/// Description of a line displaced by a fill.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Evicted {
    /// Base address of the displaced line.
    pub base: PhysAddr,
    /// It was dirty/written (see [`Line::dirty`]).
    pub dirty: bool,
    /// It carried the write-only mark.
    pub write_only: bool,
}

/// Builds the hit-way bitmask for one set's tag stripe: bit *w* is set
/// iff way *w* holds `base`. Specialized per associativity so the
/// compiler fully unrolls the study's 1-, 2- and 4-way shapes into
/// straight-line compare/or code with no loop or early-out branch.
#[inline(always)]
fn hit_mask(tags: &[u64], base: u64) -> u32 {
    match tags.len() {
        1 => (tags[0] == base) as u32,
        2 => (tags[0] == base) as u32 | ((tags[1] == base) as u32) << 1,
        4 => {
            (tags[0] == base) as u32
                | ((tags[1] == base) as u32) << 1
                | ((tags[2] == base) as u32) << 2
                | ((tags[3] == base) as u32) << 3
        }
        8 => {
            (tags[0] == base) as u32
                | ((tags[1] == base) as u32) << 1
                | ((tags[2] == base) as u32) << 2
                | ((tags[3] == base) as u32) << 3
                | ((tags[4] == base) as u32) << 4
                | ((tags[5] == base) as u32) << 5
                | ((tags[6] == base) as u32) << 6
                | ((tags[7] == base) as u32) << 7
        }
        _ => {
            let mut m = 0u32;
            for (w, &t) in tags.iter().enumerate() {
                m |= ((t == base) as u32) << w;
            }
            m
        }
    }
}

/// Multi-lane line-membership probe over a packed word plane: bit *i*
/// of the result is set iff `words[i]` lies inside the
/// `line_mask + 1`-word line starting at `base`. `base` must be
/// line-aligned and `line_mask` must be `line_words - 1` for a
/// power-of-two line, so membership reduces to one XOR/mask/compare per
/// word — no per-slot branching, no subtraction-with-carry range check:
///
/// ```text
/// bit i = ((words[i] ^ base) & !line_mask) == 0
/// ```
///
/// The multi-variant co-pricer lays N lanes' write-buffer slots out as
/// one flat plane (`lane * stride + slot`) and scans a whole lane window
/// — or several — with a single call; callers mask the result against
/// their own occupancy bits. Slices longer than 64 words are rejected
/// (the mask would overflow).
#[inline(always)]
#[must_use]
pub fn line_member_mask(words: &[u64], base: u64, line_mask: u64) -> u64 {
    debug_assert!(words.len() <= 64, "mask overflows past 64 slots");
    debug_assert_eq!(base & line_mask, 0, "base must be line-aligned");
    debug_assert!((line_mask.wrapping_add(1)).is_power_of_two());
    let keep = !line_mask;
    let mut m = 0u64;
    for (i, &w) in words.iter().enumerate() {
        m |= u64::from((w ^ base) & keep == 0) << i;
    }
    m
}

/// Index of the minimum element of `lru` (first minimum on ties),
/// matching `Iterator::min_by_key` over way order. Invalid ways hold 0,
/// below every live timestamp, so this is also the "first invalid way,
/// else LRU way" victim rule in one scan.
#[inline(always)]
fn min_lru_way(lru: &[u64]) -> usize {
    let mut victim = 0usize;
    let mut best = lru[0];
    for (w, &ts) in lru.iter().enumerate().skip(1) {
        if ts < best {
            best = ts;
            victim = w;
        }
    }
    victim
}

/// A set-associative cache array with LRU replacement over a bit-packed
/// tag plane (see the module docs for the layout).
///
/// # Examples
///
/// ```
/// use gaas_cache::{CacheArray, CacheGeometry};
/// use gaas_trace::PhysAddr;
///
/// # fn main() -> Result<(), gaas_cache::GeometryError> {
/// // The paper's 4 KW direct-mapped L1 with 4 W lines.
/// let mut l1 = CacheArray::new(CacheGeometry::new(4096, 4, 1)?);
/// assert!(l1.touch(PhysAddr::new(0x40)).is_none(), "cold miss");
/// l1.fill(PhysAddr::new(0x40));
/// assert!(l1.touch(PhysAddr::new(0x42)).is_some(), "same line hits");
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct CacheArray {
    geom: CacheGeometry,
    /// `geom.assoc()` as usize, kept flat for hot-path indexing.
    assoc: usize,
    /// Interleaved per-set stripes: `[tags[assoc] | lru[assoc]]`.
    plane: Vec<u64>,
    /// One payload word per line (`set * assoc + way`): subblock valid
    /// bits in the low half, dirty and write-only flags above them.
    meta: Vec<u64>,
    clock: u64,
}

impl CacheArray {
    /// Creates an empty (all-invalid) array with the given geometry.
    pub fn new(geom: CacheGeometry) -> Self {
        let assoc = geom.assoc() as usize;
        let n_lines = geom.n_sets() as usize * assoc;
        let mut plane = vec![0u64; 2 * n_lines];
        for set in 0..geom.n_sets() as usize {
            let s = set * 2 * assoc;
            plane[s..s + assoc].fill(INVALID_TAG);
        }
        CacheArray {
            geom,
            assoc,
            plane,
            meta: vec![0u64; n_lines],
            clock: 0,
        }
    }

    /// The array's geometry.
    pub fn geometry(&self) -> &CacheGeometry {
        &self.geom
    }

    /// Offset of `set`'s stripe in the tag plane.
    #[inline(always)]
    fn stripe(&self, set: usize) -> usize {
        set * 2 * self.assoc
    }

    /// Looks up `addr` without updating LRU state; returns `(set, way)`.
    #[inline(always)]
    fn probe_pos(&self, addr: PhysAddr) -> Option<(usize, usize)> {
        let base = addr.word() & !self.geom.line_mask;
        debug_assert_ne!(base, INVALID_TAG, "address collides with the tag sentinel");
        let set = ((addr.word() >> self.geom.line_shift) & self.geom.set_mask) as usize;
        let s = self.stripe(set);
        if self.assoc == 1 {
            // Direct-mapped fast path: exactly one candidate way.
            return (self.plane[s] == base).then_some((set, 0));
        }
        let m = hit_mask(&self.plane[s..s + self.assoc], base);
        if m == 0 {
            None
        } else {
            Some((set, m.trailing_zeros() as usize))
        }
    }

    /// Copies `(set, way)` out as a [`Line`] snapshot.
    #[inline]
    fn line_at(&self, set: usize, way: usize) -> Line {
        let s = self.stripe(set);
        let meta = self.meta[set * self.assoc + way];
        Line {
            base: PhysAddr::new(self.plane[s + way]),
            dirty: meta & META_DIRTY != 0,
            write_only: meta & META_WRITE_ONLY != 0,
            subblock_valid: (meta & META_SUBBLOCK) as u32,
        }
    }

    /// True when `addr`'s line is resident (tag match, valid), regardless of
    /// write-only or subblock state. Does not update LRU.
    pub fn contains(&self, addr: PhysAddr) -> bool {
        self.probe_pos(addr).is_some()
    }

    /// Returns a copy of the resident line for `addr`, if any. Does not
    /// update LRU.
    pub fn peek(&self, addr: PhysAddr) -> Option<Line> {
        self.probe_pos(addr)
            .map(|(set, way)| self.line_at(set, way))
    }

    /// Looks up `addr`; on a tag match, marks the line most-recently-used
    /// and returns a mutable handle onto it.
    #[inline]
    pub fn touch(&mut self, addr: PhysAddr) -> Option<LineRef<'_>> {
        let (set, way) = self.probe_pos(addr)?;
        self.clock += 1;
        let s = self.stripe(set);
        self.plane[s + self.assoc + way] = self.clock;
        Some(LineRef {
            base: PhysAddr::new(self.plane[s + way]),
            meta: &mut self.meta[set * self.assoc + way],
        })
    }

    /// Allocates a line for `addr` (replacing the LRU way if the set is
    /// full) and returns the displaced line, if any. The new line is valid,
    /// clean, not write-only, with all subblock bits set, and is marked
    /// most-recently-used.
    ///
    /// If `addr`'s line is already resident, the resident line is reset to
    /// that same state and no eviction occurs.
    pub fn fill(&mut self, addr: PhysAddr) -> Option<Evicted> {
        let base = addr.word() & !self.geom.line_mask;
        let full = self.geom.full_subblock_mask() as u64;
        self.clock += 1;
        let clock = self.clock;
        let set = ((addr.word() >> self.geom.line_shift) & self.geom.set_mask) as usize;
        let s = self.stripe(set);
        let a = self.assoc;

        let m = hit_mask(&self.plane[s..s + a], base);
        if m != 0 {
            let way = m.trailing_zeros() as usize;
            self.plane[s + a + way] = clock;
            self.meta[set * a + way] = full;
            return None;
        }

        let victim = min_lru_way(&self.plane[s + a..s + 2 * a]);
        let old_tag = self.plane[s + victim];
        let old_meta = self.meta[set * a + victim];
        let evicted = (old_tag != INVALID_TAG).then_some(Evicted {
            base: PhysAddr::new(old_tag),
            dirty: old_meta & META_DIRTY != 0,
            write_only: old_meta & META_WRITE_ONLY != 0,
        });
        self.plane[s + victim] = base;
        self.plane[s + a + victim] = clock;
        self.meta[set * a + victim] = full;
        evicted
    }

    /// Invalidates `addr`'s line if resident; returns the line that was
    /// invalidated.
    pub fn invalidate(&mut self, addr: PhysAddr) -> Option<Line> {
        let (set, way) = self.probe_pos(addr)?;
        let old = self.line_at(set, way);
        let s = self.stripe(set);
        self.plane[s + way] = INVALID_TAG;
        self.plane[s + self.assoc + way] = 0;
        self.meta[set * self.assoc + way] = 0;
        Some(old)
    }

    /// Invalidates every line (not used by the architecture — PID tags make
    /// flushes unnecessary — but provided for experiments and tests).
    pub fn invalidate_all(&mut self) {
        let a = self.assoc;
        for set in 0..self.geom.n_sets() as usize {
            let s = set * 2 * a;
            self.plane[s..s + a].fill(INVALID_TAG);
            self.plane[s + a..s + 2 * a].fill(0);
        }
        self.meta.fill(0);
    }

    /// Iterates over the valid lines of the set that `addr` indexes
    /// (at most `assoc` lines), as snapshots.
    pub fn peek_set(&self, addr: PhysAddr) -> impl Iterator<Item = Line> + '_ {
        let set = self.geom.set_of(addr) as usize;
        let s = self.stripe(set);
        (0..self.assoc)
            .filter(move |&w| self.plane[s + w] != INVALID_TAG)
            .map(move |w| self.line_at(set, w))
    }

    /// Number of valid lines currently resident.
    pub fn occupancy(&self) -> usize {
        let a = self.assoc;
        (0..self.geom.n_sets() as usize)
            .map(|set| {
                let s = set * 2 * a;
                self.plane[s..s + a]
                    .iter()
                    .filter(|&&t| t != INVALID_TAG)
                    .count()
            })
            .sum()
    }

    /// Iterates over all valid lines (unspecified order), as snapshots.
    pub fn iter(&self) -> impl Iterator<Item = Line> + '_ {
        let a = self.assoc;
        (0..self.geom.n_sets() as usize).flat_map(move |set| {
            let s = set * 2 * a;
            (0..a)
                .filter(move |&w| self.plane[s + w] != INVALID_TAG)
                .map(move |w| self.line_at(set, w))
        })
    }

    /// Mutable lookup of `addr`'s resident line *without* touching LRU
    /// state.
    ///
    /// This exists for the differential oracle's seeded-bug canary (flip
    /// a dirty bit in place and assert the oracle notices) and for
    /// invariant-checking tools; normal cache operation always goes
    /// through [`CacheArray::touch`] / [`CacheArray::fill`].
    pub fn peek_mut(&mut self, addr: PhysAddr) -> Option<LineRef<'_>> {
        let (set, way) = self.probe_pos(addr)?;
        let s = self.stripe(set);
        Some(LineRef {
            base: PhysAddr::new(self.plane[s + way]),
            meta: &mut self.meta[set * self.assoc + way],
        })
    }

    /// Snapshot of every valid line's architectural state — `(base word,
    /// dirty, write_only, subblock_valid)` sorted by base address — for
    /// structural equivalence checks against a reference model. LRU
    /// ordering is deliberately excluded: it is compared indirectly,
    /// through the evictions it causes.
    pub fn content_snapshot(&self) -> Vec<(u64, bool, bool, u32)> {
        let mut v: Vec<_> = self
            .iter()
            .map(|l| (l.base.word(), l.dirty, l.write_only, l.subblock_valid))
            .collect();
        v.sort_unstable();
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pa(w: u64) -> PhysAddr {
        PhysAddr::new(w)
    }

    fn dm_16w_4l() -> CacheArray {
        // 16-word direct-mapped cache, 4-word lines, 4 sets.
        CacheArray::new(CacheGeometry::new(16, 4, 1).expect("valid"))
    }

    #[test]
    fn geometry_validation() {
        assert!(CacheGeometry::new(4096, 4, 1).is_ok());
        assert!(CacheGeometry::new(0, 4, 1).is_err());
        assert!(CacheGeometry::new(4095, 4, 1).is_err());
        assert!(CacheGeometry::new(4096, 3, 1).is_err());
        assert!(CacheGeometry::new(4096, 64, 1).is_err(), "line > 32 words");
        assert!(CacheGeometry::new(4096, 4, 3).is_err());
        assert!(CacheGeometry::new(4, 4, 2).is_err(), "smaller than one set");
    }

    #[test]
    fn geometry_derived_values() {
        let g = CacheGeometry::new(4096, 4, 1).expect("valid");
        assert_eq!(g.n_sets(), 1024);
        assert_eq!(g.set_of(pa(0)), 0);
        assert_eq!(g.set_of(pa(4)), 1);
        assert_eq!(g.set_of(pa(4096)), 0, "wraps at cache size");
        assert_eq!(g.line_base(pa(7)).word(), 4);
        assert_eq!(g.word_in_line(pa(7)), 3);
    }

    #[test]
    fn shift_mask_forms_match_arithmetic_definitions() {
        // The precomputed shift/mask fast path must agree with the
        // division/modulo definitions for every geometry the study uses.
        for (size, line, assoc) in [
            (4096u64, 4u32, 1u32),
            (4096, 8, 1),
            (4096, 16, 2),
            (262_144, 32, 1),
            (262_144, 32, 2),
            (1_048_576, 32, 2),
            (64, 32, 1),
        ] {
            let g = CacheGeometry::new(size, line, assoc).expect("valid");
            assert_eq!(g.n_sets(), size / (line as u64 * assoc as u64));
            for w in [0u64, 1, 7, 31, 63, 4095, 4096, 999_999, 1 << 29] {
                let a = pa(w);
                assert_eq!(g.set_of(a), (w / line as u64) & (g.n_sets() - 1));
                assert_eq!(g.line_base(a), a.block_base(line as u64));
                assert_eq!(g.word_in_line(a), (w & (line as u64 - 1)) as u32);
            }
            let full = if line == 32 {
                u32::MAX
            } else {
                (1u32 << line) - 1
            };
            assert_eq!(g.full_subblock_mask(), full);
        }
    }

    #[test]
    fn line_member_mask_matches_scalar_containment() {
        // Cross-check the SWAR form against the obvious range check for
        // every line length the study uses and a grab-bag of addresses.
        for line_words in [1u64, 2, 4, 8, 16, 32] {
            let line_mask = line_words - 1;
            let words: Vec<u64> =
                [0u64, 3, 7, 8, 31, 32, 33, 63, 64, 100, 4095, 4096, 1 << 29].to_vec();
            for base_word in [0u64, 32, 64, 4096] {
                let base = base_word & !line_mask;
                let mask = line_member_mask(&words, base, line_mask);
                for (i, &w) in words.iter().enumerate() {
                    let inside = w >= base && w < base + line_words;
                    assert_eq!(
                        mask >> i & 1 == 1,
                        inside,
                        "line_words {line_words} base {base} word {w}"
                    );
                }
            }
        }
    }

    #[test]
    fn line_member_mask_lane_windows() {
        // Two 4-slot lanes packed in one plane: each lane's window is
        // probed independently and the bit positions stay lane-local.
        let plane = [8u64, 9, 100, 11, 200, 10, 8, 300];
        let m0 = line_member_mask(&plane[0..4], 8, 3);
        let m1 = line_member_mask(&plane[4..8], 8, 3);
        assert_eq!(m0, 0b1011);
        assert_eq!(m1, 0b0110);
    }

    #[test]
    fn fill_then_contains() {
        let mut c = dm_16w_4l();
        assert!(!c.contains(pa(8)));
        assert_eq!(c.fill(pa(8)), None);
        assert!(c.contains(pa(8)));
        assert!(c.contains(pa(11)), "same line");
        assert!(!c.contains(pa(12)), "next line");
    }

    #[test]
    fn direct_mapped_conflict_evicts() {
        let mut c = dm_16w_4l();
        c.fill(pa(0));
        let ev = c.fill(pa(16)); // maps to the same set 0
        assert_eq!(
            ev,
            Some(Evicted {
                base: pa(0),
                dirty: false,
                write_only: false
            })
        );
        assert!(!c.contains(pa(0)));
        assert!(c.contains(pa(16)));
    }

    #[test]
    fn two_way_lru_replacement() {
        // 2-way, 4W lines, 2 sets (16 words total).
        let mut c = CacheArray::new(CacheGeometry::new(16, 4, 2).expect("valid"));
        c.fill(pa(0)); // set 0
        c.fill(pa(8)); // set 0 (stride = 8 with 2 sets)
        assert!(c.contains(pa(0)) && c.contains(pa(8)));
        c.touch(pa(0)); // make line 0 MRU
        let ev = c.fill(pa(16)); // set 0 again: evicts LRU = line 8
        assert_eq!(ev.expect("eviction").base, pa(8));
        assert!(c.contains(pa(0)));
        assert!(c.contains(pa(16)));
    }

    #[test]
    fn fill_resident_line_resets_state_without_eviction() {
        let mut c = dm_16w_4l();
        c.fill(pa(0));
        c.touch(pa(0)).expect("resident").set_dirty(true);
        assert_eq!(c.fill(pa(2)), None, "same line refill");
        assert!(!c.peek(pa(0)).expect("resident").dirty);
    }

    #[test]
    fn eviction_reports_dirty_and_write_only() {
        let mut c = dm_16w_4l();
        c.fill(pa(0));
        {
            let mut l = c.touch(pa(0)).expect("resident");
            l.set_dirty(true);
            l.set_write_only(true);
        }
        let ev = c.fill(pa(16)).expect("eviction");
        assert!(ev.dirty && ev.write_only);
    }

    #[test]
    fn invalidate_removes_line() {
        let mut c = dm_16w_4l();
        c.fill(pa(4));
        let old = c.invalidate(pa(5)).expect("was resident");
        assert_eq!(old.base, pa(4));
        assert!(!c.contains(pa(4)));
        assert_eq!(c.invalidate(pa(4)), None);
    }

    #[test]
    fn occupancy_and_iter() {
        let mut c = dm_16w_4l();
        assert_eq!(c.occupancy(), 0);
        c.fill(pa(0));
        c.fill(pa(4));
        assert_eq!(c.occupancy(), 2);
        assert_eq!(c.iter().count(), 2);
        c.invalidate_all();
        assert_eq!(c.occupancy(), 0);
    }

    #[test]
    fn subblock_mask_full_on_fill() {
        let mut c = CacheArray::new(CacheGeometry::new(64, 32, 1).expect("valid"));
        c.fill(pa(0));
        assert_eq!(c.peek(pa(0)).expect("resident").subblock_valid, u32::MAX);
        let mut c4 = dm_16w_4l();
        c4.fill(pa(0));
        assert_eq!(c4.peek(pa(0)).expect("resident").subblock_valid, 0b1111);
    }

    #[test]
    fn touch_updates_mru_only_on_hit() {
        let mut c = dm_16w_4l();
        assert!(c.touch(pa(0)).is_none());
        c.fill(pa(0));
        assert!(c.touch(pa(0)).is_some());
    }

    #[test]
    fn line_ref_accessors_round_trip() {
        let mut c = dm_16w_4l();
        c.fill(pa(8));
        {
            let mut l = c.peek_mut(pa(8)).expect("resident");
            assert_eq!(l.base(), pa(8));
            assert!(!l.dirty() && !l.write_only());
            assert_eq!(l.subblock_valid(), 0b1111);
            l.set_dirty(true);
            l.set_write_only(true);
            l.set_subblock_valid(0b0010);
            l.or_subblock(0b0100);
            assert_eq!(l.snapshot().subblock_valid, 0b0110);
        }
        let snap = c.peek(pa(8)).expect("resident");
        assert!(snap.dirty && snap.write_only);
        assert_eq!(snap.subblock_valid, 0b0110);
        // Clearing flags never disturbs the subblock bits.
        {
            let mut l = c.peek_mut(pa(8)).expect("resident");
            l.set_dirty(false);
            l.set_write_only(false);
        }
        let snap = c.peek(pa(8)).expect("resident");
        assert!(!snap.dirty && !snap.write_only);
        assert_eq!(snap.subblock_valid, 0b0110);
    }

    #[test]
    fn peek_set_yields_resident_lines() {
        let mut c = CacheArray::new(CacheGeometry::new(16, 4, 2).expect("valid"));
        c.fill(pa(0));
        c.fill(pa(8)); // same set
        let mut bases: Vec<u64> = c.peek_set(pa(0)).map(|l| l.base.word()).collect();
        bases.sort_unstable();
        assert_eq!(bases, vec![0, 8]);
    }

    #[test]
    fn geometry_error_display() {
        let e = CacheGeometry::new(0, 4, 1).unwrap_err();
        assert!(e.to_string().contains("invalid cache geometry"));
    }
}
