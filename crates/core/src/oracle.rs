//! Lockstep golden-model differential oracle.
//!
//! The fast simulator earns its speed with precomputed costs, packed
//! arrays and lazy retirement — exactly the kind of cleverness that hides
//! bookkeeping bugs. This module keeps a second, deliberately *boring*
//! model of the two-level hierarchy: per-set recency lists of plain line
//! structs, no cycle accounting at all. With
//! [`DiffCheckConfig`] enabled the
//! simulator consults the golden model after every reference and
//! cross-checks:
//!
//! * **translation** — the simulator's software translation cache against
//!   an independent page-color mapper;
//! * **classification** — the per-access deltas of every hit/miss counter
//!   (L1-I, L1-D read/write, L2-I, L2-D, drain writes and drain misses,
//!   extra write cycles) against what the reference model predicts;
//! * **inclusion** — a line just serviced from an L2 side must be resident
//!   there;
//! * **full structural equivalence** (periodically) — cache contents with
//!   dirty / write-only / subblock-valid bits, and the write buffer's
//!   FIFO-suffix invariant (the live queue must be a suffix of the
//!   enqueue history).
//!
//! The key property that makes lockstep checking possible without cycle
//! accounting: every *state* transition of the hierarchy happens at a
//! deterministic point in the access stream (write-buffer drains mutate
//! L2-D at enqueue time; only their *stall* cycles depend on time), so the
//! golden model never needs a clock.
//!
//! A divergence is reported once, as a structured [`DivergenceReport`]
//! surfaced through [`SimError::Divergence`](crate::sim::SimError) —
//! never a panic — carrying the first divergent access index, a config
//! fingerprint, a minimized repro seed and the trailing trace window.

use std::collections::VecDeque;
use std::fmt;

use gaas_cache::{CacheArray, CacheGeometry, L1DataCache, PageMapper, WriteBuffer, WritePolicy};
use gaas_trace::{AccessKind, PhysAddr, TraceEvent};

use crate::config::{ConfigError, DiffCheckConfig, L2Config, SeededBug, SimConfig};
use crate::cpi::Counters;

/// Sorted architectural content of one cache array — `(base word, dirty,
/// write_only, subblock_valid)` per valid line, the unit of structural
/// comparison (see [`CacheArray::content_snapshot`]).
type ContentSnapshot = Vec<(u64, bool, bool, u32)>;

/// Stable 64-bit FNV-1a over a byte stream.
fn fnv1a(bytes: impl IntoIterator<Item = u8>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// A stable fingerprint of a configuration, hashed over its `Debug`
/// representation. `Debug` (not `Display`) deliberately: the summary
/// `Display` omits sweep-relevant knobs such as the Fig. 5 drain-access
/// override, and two configs differing only there must not collide.
pub fn config_fingerprint(cfg: &SimConfig) -> u64 {
    fnv1a(format!("{cfg:?}").bytes())
}

/// Which cross-check a divergence tripped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DivergenceKind {
    /// Simulator and reference mapper translated an address differently.
    Translation,
    /// Per-access hit/miss counter deltas disagreed.
    Classification,
    /// A line serviced from an L2 side is not resident there.
    Inclusion,
    /// Cache contents agree except for a dirty bit.
    DirtyBit,
    /// Cache contents agree except for a write-only mark.
    WriteOnlyMark,
    /// Cache contents agree except for subblock valid bits.
    SubblockBits,
    /// The write buffer violated its FIFO-suffix or occupancy invariant.
    WriteBuffer,
    /// Cache contents differ structurally (different lines resident).
    StateMismatch,
}

/// Structured description of the first divergence between the fast
/// simulator and the golden model.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DivergenceReport {
    /// 0-based index of the access (fetches + loads + stores) at which
    /// the divergence was detected.
    pub access_index: u64,
    /// The cross-check that tripped.
    pub kind: DivergenceKind,
    /// Human-readable specifics (expected vs. actual).
    pub detail: String,
    /// FNV-1a fingerprint of the configuration's `Debug` form.
    pub config_fingerprint: u64,
    /// The configuration's one-look summary (its `Display` form).
    pub config_summary: String,
    /// FNV-1a hash of the trailing trace window — a minimized repro seed
    /// identifying the exact access pattern that exposed the bug.
    pub repro_seed: u64,
    /// The last accesses before (and including) the divergent one.
    pub window: Vec<TraceEvent>,
}

impl fmt::Display for DivergenceReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "oracle divergence [{:?}] at access {} (config {:016x}, repro seed {:016x})",
            self.kind, self.access_index, self.config_fingerprint, self.repro_seed
        )?;
        writeln!(f, "  {}", self.detail)?;
        for line in self.config_summary.lines() {
            writeln!(f, "  | {line}")?;
        }
        write!(f, "  window: {} trailing accesses", self.window.len())?;
        for ev in self.window.iter().rev().take(4).rev() {
            write!(
                f,
                "\n    {:?} {:#x}{}",
                ev.kind,
                ev.addr.raw(),
                if ev.partial_word { " (partial)" } else { "" }
            )?;
        }
        Ok(())
    }
}

/// The [`Counters`] fields the golden model predicts per access and the
/// simulator must reproduce. Cycle components are deliberately absent:
/// the oracle checks *state and classification*, not timing.
const CHECKED: [&str; 10] = [
    "l1i_misses",
    "l1d_read_misses",
    "l1d_write_misses",
    "l2i_accesses",
    "l2i_misses",
    "l2d_accesses",
    "l2d_misses",
    "l2_drain_writes",
    "l2_drain_misses",
    "l1_write_cycles",
];

/// The [`CHECKED`] fields in which the golden model's `expected` deltas
/// and the simulator's `actual` ones differ, as `name predicted P,
/// simulator S` (`None` when they agree).
fn checked_mismatch(expected: &Counters, actual: &Counters) -> Option<String> {
    let diffs: Vec<String> = expected
        .fields()
        .into_iter()
        .zip(actual.fields())
        .filter(|((name, e), (_, a))| e != a && CHECKED.contains(name))
        .map(|((name, e), (_, a))| format!("{name} predicted {e}, simulator {a}"))
        .collect();
    (!diffs.is_empty()).then(|| diffs.join("; "))
}

/// One line of the golden model: architectural state only.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct GoldLine {
    base: u64,
    dirty: bool,
    write_only: bool,
    subblock_valid: u32,
}

/// An obviously-correct set-associative cache: each set is a recency list
/// (least recent at the front, most recent at the back).
#[derive(Debug, Clone)]
struct GoldCache {
    line_words: u64,
    n_sets: u64,
    assoc: usize,
    full_mask: u32,
    sets: Vec<Vec<GoldLine>>,
}

impl GoldCache {
    fn new(geom: &CacheGeometry) -> Self {
        let line_words = geom.line_words() as u64;
        let full_mask = if geom.line_words() == 32 {
            u32::MAX
        } else {
            (1u32 << geom.line_words()) - 1
        };
        GoldCache {
            line_words,
            n_sets: geom.n_sets(),
            assoc: geom.assoc() as usize,
            full_mask,
            sets: vec![Vec::new(); geom.n_sets() as usize],
        }
    }

    fn base_of(&self, w: u64) -> u64 {
        w & !(self.line_words - 1)
    }

    fn set_of(&self, w: u64) -> usize {
        ((w / self.line_words) & (self.n_sets - 1)) as usize
    }

    fn word_in_line(&self, w: u64) -> u32 {
        (w & (self.line_words - 1)) as u32
    }

    /// Shared lookup without recency update.
    fn find(&self, w: u64) -> Option<&GoldLine> {
        let base = self.base_of(w);
        self.sets[self.set_of(w)].iter().find(|l| l.base == base)
    }

    /// Lookup with move-to-MRU on a tag match (mirrors `CacheArray::touch`).
    fn touch(&mut self, w: u64) -> Option<&mut GoldLine> {
        let base = self.base_of(w);
        let set = self.set_of(w);
        let lines = &mut self.sets[set];
        let idx = lines.iter().position(|l| l.base == base)?;
        let line = lines.remove(idx);
        lines.push(line);
        lines.last_mut()
    }

    /// Allocation (mirrors `CacheArray::fill`): a resident line is reset
    /// in place (clean, readable, fully valid, MRU) with no eviction; an
    /// absent line evicts LRU if the set is full.
    fn fill(&mut self, w: u64) -> Option<GoldLine> {
        let base = self.base_of(w);
        let set = self.set_of(w);
        let fresh = GoldLine {
            base,
            dirty: false,
            write_only: false,
            subblock_valid: self.full_mask,
        };
        let assoc = self.assoc;
        let lines = &mut self.sets[set];
        if let Some(idx) = lines.iter().position(|l| l.base == base) {
            lines.remove(idx);
            lines.push(fresh);
            return None;
        }
        let evicted = if lines.len() == assoc {
            Some(lines.remove(0))
        } else {
            None
        };
        lines.push(fresh);
        evicted
    }

    /// Removes any resident line of `w`'s set (the direct-mapped WMI
    /// corruption rule); returns whether the removed line was dirty.
    fn invalidate_indexed(&mut self, w: u64) -> bool {
        let set = self.set_of(w);
        let lines = &mut self.sets[set];
        if lines.is_empty() {
            false
        } else {
            lines.remove(0).dirty
        }
    }

    /// Sorted architectural snapshot, directly comparable with
    /// [`CacheArray::content_snapshot`].
    fn snapshot(&self) -> ContentSnapshot {
        let mut v: Vec<_> = self
            .sets
            .iter()
            .flatten()
            .map(|l| (l.base, l.dirty, l.write_only, l.subblock_valid))
            .collect();
        v.sort_unstable();
        v
    }
}

/// The golden model's secondary cache.
#[derive(Debug, Clone)]
enum GoldL2 {
    Unified(GoldCache),
    Split { i: GoldCache, d: GoldCache },
}

impl GoldL2 {
    fn i_side_mut(&mut self) -> &mut GoldCache {
        match self {
            GoldL2::Unified(a) | GoldL2::Split { i: a, .. } => a,
        }
    }

    fn d_side_mut(&mut self) -> &mut GoldCache {
        match self {
            GoldL2::Unified(a) | GoldL2::Split { d: a, .. } => a,
        }
    }
}

/// Borrowed views of the fast simulator's structures, handed to the
/// oracle for equivalence checks. For a unified L2 both side references
/// alias the same array.
pub(crate) struct SimStructures<'a> {
    pub l1i: &'a CacheArray,
    pub l1d: &'a L1DataCache,
    pub l2i: &'a CacheArray,
    pub l2d: &'a CacheArray,
    pub wb: &'a WriteBuffer,
}

/// The functional golden model: translation, both L1s, L2, and the write
/// buffer's enqueue history. No cycles anywhere.
#[derive(Debug, Clone)]
struct Oracle {
    policy: WritePolicy,
    mapper: PageMapper,
    l1i: GoldCache,
    l1d: GoldCache,
    l2: GoldL2,
    wb_depth: usize,
    /// Trailing enqueue history (word/victim-base addresses, oldest
    /// first), capped well above the buffer depth. The live simulator
    /// queue must always equal a suffix of this.
    wb_history: VecDeque<u64>,
}

impl Oracle {
    fn new(cfg: &SimConfig) -> Result<Self, ConfigError> {
        let l2 = match cfg.l2 {
            L2Config::Unified(s) => GoldL2::Unified(GoldCache::new(&s.geometry()?)),
            L2Config::Split { i, d } => GoldL2::Split {
                i: GoldCache::new(&i.geometry()?),
                d: GoldCache::new(&d.geometry()?),
            },
        };
        Ok(Oracle {
            policy: cfg.policy,
            mapper: PageMapper::new(cfg.page_colors),
            l1i: GoldCache::new(&cfg.l1i.geometry()?),
            l1d: GoldCache::new(&cfg.l1d.geometry()?),
            l2,
            wb_depth: cfg.write_buffer.depth,
            wb_history: VecDeque::new(),
        })
    }

    /// Models one write-buffer drain: the L2-D side is updated at enqueue
    /// time, exactly as the simulator does it.
    fn drain(&mut self, addr: u64, d: &mut Counters) {
        d.l2_drain_writes += 1;
        let l2d = self.l2.d_side_mut();
        if let Some(line) = l2d.touch(addr) {
            line.dirty = true;
        } else {
            d.l2_drain_misses += 1;
            l2d.fill(addr);
            if let Some(line) = l2d.touch(addr) {
                line.dirty = true;
            }
        }
        self.wb_history.push_back(addr);
        if self.wb_history.len() > self.wb_depth + 64 {
            self.wb_history.pop_front();
        }
    }

    /// Demand service of an L1 miss from an L2 side.
    fn l2_service(&mut self, addr: u64, i_side: bool, d: &mut Counters) {
        let side = if i_side {
            self.l2.i_side_mut()
        } else {
            self.l2.d_side_mut()
        };
        if i_side {
            d.l2i_accesses += 1;
        } else {
            d.l2d_accesses += 1;
        }
        if side.touch(addr).is_none() {
            if i_side {
                d.l2i_misses += 1;
            } else {
                d.l2d_misses += 1;
            }
            side.fill(addr);
        }
    }

    /// Processes one trace event; returns the physical word address the
    /// reference mapper produced and the predicted counter deltas.
    fn step(&mut self, ev: &TraceEvent) -> (u64, Counters) {
        let pa = self.mapper.translate(ev.addr).word();
        let mut d = Counters::new();
        match ev.kind {
            AccessKind::IFetch => self.step_ifetch(pa, &mut d),
            AccessKind::Load => self.step_load(pa, &mut d),
            AccessKind::Store => self.step_store(pa, ev.partial_word, &mut d),
        }
        (pa, d)
    }

    fn step_ifetch(&mut self, pa: u64, d: &mut Counters) {
        if self.l1i.touch(pa).is_some() {
            return;
        }
        d.l1i_misses += 1;
        self.l2_service(pa, true, d);
        self.l1i.fill(pa);
    }

    fn step_load(&mut self, pa: u64, d: &mut Counters) {
        let word_bit = 1u32 << self.l1d.word_in_line(pa);
        let hit = match self.l1d.touch(pa) {
            Some(line) => match self.policy {
                WritePolicy::WriteBack | WritePolicy::WriteMissInvalidate => true,
                WritePolicy::WriteOnly => !line.write_only,
                WritePolicy::Subblock => line.subblock_valid & word_bit != 0,
            },
            None => false,
        };
        if hit {
            return;
        }
        d.l1d_read_misses += 1;
        let line_base = self.l1d.base_of(pa);
        let inplace_dirty = self.l1d.find(pa).map(|l| l.dirty);
        let evicted = self.l1d.fill(pa);
        let (victim, victim_dirty) = match (inplace_dirty, evicted) {
            (Some(dirty), _) => (None, dirty),
            (None, Some(e)) => (Some(e.base), e.dirty),
            (None, None) => (None, false),
        };
        if self.policy == WritePolicy::WriteBack && victim_dirty {
            if let Some(vbase) = victim {
                self.drain(vbase, d);
            }
        }
        self.l2_service(line_base, false, d);
    }

    fn step_store(&mut self, pa: u64, partial_word: bool, d: &mut Counters) {
        match self.policy {
            WritePolicy::WriteBack => self.store_write_back(pa, d),
            WritePolicy::WriteMissInvalidate => self.store_wmi(pa, d),
            WritePolicy::WriteOnly => self.store_write_only(pa, d),
            WritePolicy::Subblock => self.store_subblock(pa, partial_word, d),
        }
    }

    fn store_write_back(&mut self, pa: u64, d: &mut Counters) {
        if let Some(line) = self.l1d.touch(pa) {
            line.dirty = true;
            d.l1_write_cycles += 1;
            return;
        }
        d.l1d_write_misses += 1;
        let line_base = self.l1d.base_of(pa);
        let evicted = self.l1d.fill(pa);
        if let Some(line) = self.l1d.touch(pa) {
            line.dirty = true;
        }
        // Allocation order mirrors the simulator: the dirty victim drains
        // first, then the demanded line is serviced from L2-D.
        if let Some(e) = evicted.filter(|e| e.dirty) {
            self.drain(e.base, d);
        }
        self.l2_service(line_base, false, d);
    }

    fn store_wmi(&mut self, pa: u64, d: &mut Counters) {
        if let Some(line) = self.l1d.touch(pa) {
            line.dirty = true;
        } else {
            d.l1d_write_misses += 1;
            d.l1_write_cycles += 1;
            self.l1d.invalidate_indexed(pa);
        }
        self.drain(pa, d);
    }

    fn store_write_only(&mut self, pa: u64, d: &mut Counters) {
        if let Some(line) = self.l1d.touch(pa) {
            line.dirty = true;
        } else {
            d.l1d_write_misses += 1;
            d.l1_write_cycles += 1;
            self.l1d.fill(pa);
            if let Some(line) = self.l1d.touch(pa) {
                line.write_only = true;
                line.dirty = true;
            }
        }
        self.drain(pa, d);
    }

    fn store_subblock(&mut self, pa: u64, partial_word: bool, d: &mut Counters) {
        let word_bit = 1u32 << self.l1d.word_in_line(pa);
        if let Some(line) = self.l1d.touch(pa) {
            if !partial_word {
                line.subblock_valid |= word_bit;
            }
            line.dirty = true;
        } else {
            d.l1d_write_misses += 1;
            d.l1_write_cycles += 1;
            self.l1d.fill(pa);
            if let Some(line) = self.l1d.touch(pa) {
                line.subblock_valid = if partial_word { 0 } else { word_bit };
                line.dirty = true;
            }
        }
        self.drain(pa, d);
    }
}

/// Classifies the first difference between two sorted content snapshots.
fn classify_content_diff(
    what: &str,
    sim: &[(u64, bool, bool, u32)],
    gold: &[(u64, bool, bool, u32)],
) -> Option<(DivergenceKind, String)> {
    if sim == gold {
        return None;
    }
    for (s, g) in sim.iter().zip(gold.iter()) {
        if s == g {
            continue;
        }
        if s.0 == g.0 {
            let (kind, field) = if s.1 != g.1 {
                (DivergenceKind::DirtyBit, "dirty")
            } else if s.2 != g.2 {
                (DivergenceKind::WriteOnlyMark, "write-only")
            } else {
                (DivergenceKind::SubblockBits, "subblock-valid")
            };
            return Some((
                kind,
                format!(
                    "{what}: line {:#x} {field} mismatch (sim {:?}, reference {:?})",
                    s.0, s, g
                ),
            ));
        }
        return Some((
            DivergenceKind::StateMismatch,
            format!(
                "{what}: first differing line sim {:#x} vs reference {:#x}",
                s.0, g.0
            ),
        ));
    }
    Some((
        DivergenceKind::StateMismatch,
        format!(
            "{what}: resident line count differs (sim {}, reference {})",
            sim.len(),
            gold.len()
        ),
    ))
}

/// Live differential-check state, owned by the simulator when the oracle
/// is enabled.
pub(crate) struct DiffState {
    oracle: Oracle,
    cfg: DiffCheckConfig,
    access_index: u64,
    window: VecDeque<TraceEvent>,
    bug_applied: bool,
    report: Option<DivergenceReport>,
    config_fingerprint: u64,
    config_summary: String,
}

impl DiffState {
    pub(crate) fn new(cfg: &SimConfig) -> Result<Self, ConfigError> {
        Ok(DiffState {
            oracle: Oracle::new(cfg)?,
            cfg: cfg.diffcheck,
            access_index: 0,
            window: VecDeque::new(),
            bug_applied: false,
            report: None,
            config_fingerprint: config_fingerprint(cfg),
            config_summary: cfg.to_string(),
        })
    }

    fn diverge(&mut self, access_index: u64, kind: DivergenceKind, detail: String) {
        let window: Vec<TraceEvent> = self.window.iter().copied().collect();
        let repro_seed = fnv1a(window.iter().flat_map(|ev| {
            let kind_byte = match ev.kind {
                AccessKind::IFetch => 0u8,
                AccessKind::Load => 1,
                AccessKind::Store => 2,
            };
            let mut bytes = ev.addr.raw().to_le_bytes().to_vec();
            bytes.push(kind_byte | ((ev.partial_word as u8) << 4));
            bytes
        }));
        self.report = Some(DivergenceReport {
            access_index,
            kind,
            detail,
            config_fingerprint: self.config_fingerprint,
            config_summary: self.config_summary.clone(),
            repro_seed,
            window,
        });
    }

    /// Cross-checks one completed access. `actual` is the simulator's
    /// counter delta over the access (`after.since(before)`), of which
    /// the [`CHECKED`] fields are compared; `sim_paddr` its translation.
    pub(crate) fn note_access(
        &mut self,
        ev: &TraceEvent,
        sim_paddr: PhysAddr,
        actual: Counters,
        s: &SimStructures<'_>,
    ) {
        if self.report.is_some() {
            return;
        }
        let idx = self.access_index;
        self.access_index += 1;
        if self.cfg.window > 0 {
            if self.window.len() == self.cfg.window {
                self.window.pop_front();
            }
            self.window.push_back(*ev);
        }

        let (gold_pa, expected) = self.oracle.step(ev);
        if gold_pa != sim_paddr.word() {
            self.diverge(
                idx,
                DivergenceKind::Translation,
                format!(
                    "virtual {:#x} translated to {:#x}, reference mapper says {:#x}",
                    ev.addr.raw(),
                    sim_paddr.word(),
                    gold_pa
                ),
            );
            return;
        }
        if let Some(mismatch) = checked_mismatch(&expected, &actual) {
            self.diverge(
                idx,
                DivergenceKind::Classification,
                format!("{:?} {:#x}: {mismatch}", ev.kind, sim_paddr.word()),
            );
            return;
        }
        if expected.l2i_accesses > 0 && !s.l2i.contains(sim_paddr) {
            self.diverge(
                idx,
                DivergenceKind::Inclusion,
                format!(
                    "line of {:#x} was serviced by L2-I but is not resident there",
                    sim_paddr.word()
                ),
            );
            return;
        }
        if expected.l2d_accesses > 0 && !s.l2d.contains(sim_paddr) {
            self.diverge(
                idx,
                DivergenceKind::Inclusion,
                format!(
                    "line of {:#x} was serviced by L2-D but is not resident there",
                    sim_paddr.word()
                ),
            );
            return;
        }
        if self.cfg.state_check_interval > 0 && (idx + 1) % self.cfg.state_check_interval == 0 {
            self.full_state_check(s);
        }
    }

    /// Full structural-equivalence sweep (also run once at end of run).
    pub(crate) fn full_state_check(&mut self, s: &SimStructures<'_>) {
        if self.report.is_some() {
            return;
        }
        let idx = self.access_index.saturating_sub(1);
        // (array label, fast-simulator snapshot, golden-model snapshot)
        type ArrayPair<'a> = (&'a str, ContentSnapshot, ContentSnapshot);
        let pairs: Vec<ArrayPair<'_>> = {
            let mut v = vec![
                ("L1-I", s.l1i.content_snapshot(), self.oracle.l1i.snapshot()),
                (
                    "L1-D",
                    s.l1d.array().content_snapshot(),
                    self.oracle.l1d.snapshot(),
                ),
            ];
            match &self.oracle.l2 {
                GoldL2::Unified(a) => v.push(("L2", s.l2i.content_snapshot(), a.snapshot())),
                GoldL2::Split { i, d } => {
                    v.push(("L2-I", s.l2i.content_snapshot(), i.snapshot()));
                    v.push(("L2-D", s.l2d.content_snapshot(), d.snapshot()));
                }
            }
            v
        };
        for (what, sim, gold) in pairs {
            if let Some((kind, detail)) = classify_content_diff(what, &sim, &gold) {
                self.diverge(idx, kind, detail);
                return;
            }
        }

        // Write buffer: bounded occupancy, and the live queue (retirement
        // is lazy, so it may still hold drained entries) must be a suffix
        // of the enqueue history.
        let live: Vec<u64> = s.wb.entries().map(|e| e.addr.word()).collect();
        if live.len() > self.oracle.wb_depth {
            self.diverge(
                idx,
                DivergenceKind::WriteBuffer,
                format!(
                    "write buffer holds {} entries, depth is {}",
                    live.len(),
                    self.oracle.wb_depth
                ),
            );
            return;
        }
        let hist = &self.oracle.wb_history;
        let matches_suffix = live.len() <= hist.len()
            && hist
                .iter()
                .skip(hist.len() - live.len())
                .zip(live.iter())
                .all(|(h, l)| h == l);
        if !matches_suffix {
            self.diverge(
                idx,
                DivergenceKind::WriteBuffer,
                format!(
                    "live queue {live:?} is not a suffix of the enqueue history (last {} entries {:?})",
                    live.len().min(hist.len()),
                    hist.iter()
                        .skip(hist.len().saturating_sub(live.len()))
                        .collect::<Vec<_>>()
                ),
            );
        }
    }

    /// The seeded bug due for application, if any (not yet applied and
    /// the configured access index has been reached).
    pub(crate) fn bug_due(&self) -> Option<SeededBug> {
        let spec = self.cfg.seeded_bug?;
        (!self.bug_applied && self.access_index > spec.access).then_some(spec.kind)
    }

    /// Marks the seeded bug as applied.
    pub(crate) fn set_bug_applied(&mut self) {
        self.bug_applied = true;
    }

    /// Takes the pending divergence report.
    pub(crate) fn take_report(&mut self) -> Option<DivergenceReport> {
        self.report.take()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gaas_trace::rng::SmallRng;

    #[test]
    fn gold_cache_matches_cache_array_under_random_histories() {
        let mut rng = SmallRng::seed_from_u64(0xD1FF);
        for _ in 0..48 {
            let geom = CacheGeometry::new(64, 4, 2).expect("valid");
            let mut fast = CacheArray::new(geom);
            let mut gold = GoldCache::new(&geom);
            for _ in 0..rng.gen_range(0usize..400) {
                let w = rng.gen_range(0u64..512);
                match rng.gen_range(0u8..4) {
                    0 => {
                        let f = fast.touch(PhysAddr::new(w)).is_some();
                        let g = gold.touch(w).is_some();
                        assert_eq!(f, g);
                    }
                    1 => {
                        fast.fill(PhysAddr::new(w));
                        gold.fill(w);
                    }
                    2 => {
                        if let Some(mut l) = fast.touch(PhysAddr::new(w)) {
                            l.set_dirty(true);
                        }
                        if let Some(l) = gold.touch(w) {
                            l.dirty = true;
                        }
                    }
                    _ => {
                        let f = fast.invalidate(PhysAddr::new(w)).is_some();
                        let g = {
                            let base = gold.base_of(w);
                            let set = gold.set_of(w);
                            let lines = &mut gold.sets[set];
                            match lines.iter().position(|l| l.base == base) {
                                Some(i) => {
                                    lines.remove(i);
                                    true
                                }
                                None => false,
                            }
                        };
                        assert_eq!(f, g);
                    }
                }
                assert_eq!(fast.content_snapshot(), gold.snapshot());
            }
        }
    }

    #[test]
    fn fingerprint_separates_display_invisible_knobs() {
        let base = SimConfig::baseline();
        let mut b = base.to_builder();
        b.l2_drain_access(8);
        let tweaked = b.build().expect("valid");
        // Display collides (the summary omits the drain override)…
        assert_eq!(base.to_string(), tweaked.to_string());
        // …but the fingerprint must not.
        assert_ne!(config_fingerprint(&base), config_fingerprint(&tweaked));
    }

    #[test]
    fn divergence_report_renders_every_section() {
        let rep = DivergenceReport {
            access_index: 42,
            kind: DivergenceKind::DirtyBit,
            detail: "L1-D: line 0x40 dirty mismatch".into(),
            config_fingerprint: 0xABCD,
            config_summary: SimConfig::baseline().to_string(),
            repro_seed: 0x1234,
            window: vec![TraceEvent::ifetch(
                gaas_trace::VirtAddr::new(gaas_trace::Pid::new(0), 0),
                0,
            )],
        };
        let s = rep.to_string();
        assert!(s.contains("DirtyBit"));
        assert!(s.contains("access 42"));
        assert!(s.contains("dirty mismatch"));
        assert!(s.contains("window: 1 trailing accesses"));
    }

    #[test]
    fn classify_prefers_specific_bit_kinds() {
        let sim = vec![(0x40u64, true, false, 0b1111u32)];
        let gold = vec![(0x40u64, false, false, 0b1111u32)];
        let (kind, _) = classify_content_diff("L1-D", &sim, &gold).expect("differs");
        assert_eq!(kind, DivergenceKind::DirtyBit);

        let sim = vec![(0x40u64, true, true, 0b1111u32)];
        let gold = vec![(0x40u64, true, false, 0b1111u32)];
        let (kind, _) = classify_content_diff("L1-D", &sim, &gold).expect("differs");
        assert_eq!(kind, DivergenceKind::WriteOnlyMark);

        let sim = vec![(0x40u64, true, false, 0b0001u32)];
        let gold = vec![(0x40u64, true, false, 0b1111u32)];
        let (kind, _) = classify_content_diff("L1-D", &sim, &gold).expect("differs");
        assert_eq!(kind, DivergenceKind::SubblockBits);

        let sim = vec![(0x40u64, false, false, 0b1111u32)];
        let gold = vec![(0x80u64, false, false, 0b1111u32)];
        let (kind, _) = classify_content_diff("L1-D", &sim, &gold).expect("differs");
        assert_eq!(kind, DivergenceKind::StateMismatch);

        assert!(classify_content_diff("L1-D", &sim, &sim.clone()).is_none());
    }
}
