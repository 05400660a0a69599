//! Soft-error fault injection and protection policies.
//!
//! The paper's cache is built from GaAs and SRAM dies on a multi-chip
//! module — exactly the technology where transient bit flips (alpha
//! particles, marginal GaAs noise) are a first-order design concern. This
//! module supplies the *mechanism* half of the reliability study:
//!
//! * [`FaultInjector`] — a deterministic, seeded source of fault events,
//!   with independent per-structure rates (L1-I, L1-D, L2, TLB, write
//!   buffer) plus targeted "flip bit *N* of set *S* at access *K*"
//!   campaigns for directed testing;
//! * [`Protection`] — the per-structure protection scheme (none, parity,
//!   ECC SEC-DED);
//! * [`resolve`] — the recovery-action table combining a fault, the struck
//!   structure's protection, and whether the line held dirty data.
//!
//! The *policy* half — charging recovery cycles, raising machine checks,
//! restarting from checkpoints — lives in the simulator (`gaas-sim`),
//! which owns cycle accounting. The split mirrors the rest of the crate:
//! structures answer questions, the simulator charges time.
//!
//! # Interaction with the paper's write policies
//!
//! Whether parity suffices or ECC is required depends on the §6 write
//! policy. Under the write-through family (write-miss-invalidate,
//! **write-only**, subblock) every L1-D line is clean by construction —
//! the write buffer holds the only modified data — so a detected parity
//! error can always be repaired by invalidate-and-refetch from L2. Under
//! write-back, a struck dirty line is the *only* copy, so parity can
//! detect but not recover: that raises a machine check, and only ECC
//! correction keeps the machine running.
//!
//! # Determinism
//!
//! Same seed + same rates + same access sequence ⇒ the identical fault
//! sites, every run. All randomness flows from one
//! [`SmallRng`] owned by the injector.
//!
//! # Examples
//!
//! ```
//! use gaas_cache::fault::{FaultInjector, FaultRates, Protection, Structure, resolve, FaultEffect};
//!
//! // One fault per ~1000 L1-D accesses, nothing else.
//! let rates = FaultRates { l1d: 1e-3, ..FaultRates::default() };
//! let mut inj = FaultInjector::new(7, rates, 0.0, Vec::new());
//! let mut faults = 0;
//! for _ in 0..100_000 {
//!     if inj.check(Structure::L1D, 1024).is_some() {
//!         faults += 1;
//!     }
//! }
//! assert!(faults > 50 && faults < 200, "rate respected: {faults}");
//!
//! // Parity on a clean line recovers by refetch; on a dirty line it
//! // cannot.
//! assert_eq!(resolve(Protection::Parity, false, false), FaultEffect::Refetch);
//! assert_eq!(resolve(Protection::Parity, true, false), FaultEffect::MachineCheck);
//! ```

use std::fmt;

use gaas_trace::rng::SmallRng;

/// The protected (or unprotected) storage structures faults can strike.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Structure {
    /// Primary instruction cache.
    L1I,
    /// Primary data cache.
    L1D,
    /// Secondary cache (either side).
    L2,
    /// Instruction or data TLB.
    Tlb,
    /// Write buffer entries (data in flight to L2).
    WriteBuffer,
}

impl Structure {
    /// Every structure, in a fixed order (index order).
    pub const ALL: [Structure; 5] = [
        Structure::L1I,
        Structure::L1D,
        Structure::L2,
        Structure::Tlb,
        Structure::WriteBuffer,
    ];

    /// Dense index for per-structure arrays.
    pub fn index(self) -> usize {
        match self {
            Structure::L1I => 0,
            Structure::L1D => 1,
            Structure::L2 => 2,
            Structure::Tlb => 3,
            Structure::WriteBuffer => 4,
        }
    }

    /// Short human-readable label.
    pub fn label(self) -> &'static str {
        match self {
            Structure::L1I => "L1-I",
            Structure::L1D => "L1-D",
            Structure::L2 => "L2",
            Structure::Tlb => "TLB",
            Structure::WriteBuffer => "WB",
        }
    }
}

impl fmt::Display for Structure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Per-structure protection scheme.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Protection {
    /// No checking: faults corrupt silently.
    #[default]
    None,
    /// Single parity bit per entry: detects any odd number of flipped
    /// bits but corrects nothing.
    Parity,
    /// SEC-DED ECC: corrects single-bit flips in place, detects (but
    /// cannot correct) double-bit flips.
    Ecc,
}

impl Protection {
    /// Short human-readable label.
    pub fn label(self) -> &'static str {
        match self {
            Protection::None => "none",
            Protection::Parity => "parity",
            Protection::Ecc => "ECC",
        }
    }
}

impl fmt::Display for Protection {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Protection scheme per structure.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ProtectionMap {
    /// Primary instruction cache.
    pub l1i: Protection,
    /// Primary data cache.
    pub l1d: Protection,
    /// Secondary cache.
    pub l2: Protection,
    /// TLBs.
    pub tlb: Protection,
    /// Write buffer.
    pub write_buffer: Protection,
}

impl ProtectionMap {
    /// The same scheme on every structure.
    pub fn uniform(p: Protection) -> Self {
        ProtectionMap {
            l1i: p,
            l1d: p,
            l2: p,
            tlb: p,
            write_buffer: p,
        }
    }

    /// The scheme protecting `s`.
    pub fn get(&self, s: Structure) -> Protection {
        match s {
            Structure::L1I => self.l1i,
            Structure::L1D => self.l1d,
            Structure::L2 => self.l2,
            Structure::Tlb => self.tlb,
            Structure::WriteBuffer => self.write_buffer,
        }
    }
}

/// Per-access fault probability for each structure (0.0 = never).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct FaultRates {
    /// Primary instruction cache.
    pub l1i: f64,
    /// Primary data cache.
    pub l1d: f64,
    /// Secondary cache.
    pub l2: f64,
    /// TLBs.
    pub tlb: f64,
    /// Write buffer.
    pub write_buffer: f64,
}

impl FaultRates {
    /// The same rate on every structure.
    pub fn uniform(p: f64) -> Self {
        FaultRates {
            l1i: p,
            l1d: p,
            l2: p,
            tlb: p,
            write_buffer: p,
        }
    }

    /// The rate for `s`.
    pub fn get(&self, s: Structure) -> f64 {
        match s {
            Structure::L1I => self.l1i,
            Structure::L1D => self.l1d,
            Structure::L2 => self.l2,
            Structure::Tlb => self.tlb,
            Structure::WriteBuffer => self.write_buffer,
        }
    }

    /// True when any structure has a nonzero rate.
    pub fn any_nonzero(&self) -> bool {
        Structure::ALL.iter().any(|&s| self.get(s) > 0.0)
    }

    /// True when every rate is a probability (finite, in `[0, 1]`).
    pub fn is_valid(&self) -> bool {
        Structure::ALL.iter().all(|&s| {
            let r = self.get(s);
            r.is_finite() && (0.0..=1.0).contains(&r)
        })
    }
}

/// A directed fault: flip bit `bit` of set `set` on access number
/// `access` (0-based, counted per structure) to `structure`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TargetedFault {
    /// The structure to strike.
    pub structure: Structure,
    /// The access ordinal (0-based within the structure) at which to fire.
    pub access: u64,
    /// The set index to strike.
    pub set: u64,
    /// The bit position to flip.
    pub bit: u32,
}

/// One injected fault, fully located.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultEvent {
    /// The structure struck.
    pub structure: Structure,
    /// The access ordinal (per structure) at which the fault fired.
    pub access: u64,
    /// The struck set index.
    pub set: u64,
    /// The flipped bit position.
    pub bit: u32,
    /// True for a double-bit upset (uncorrectable by SEC-DED ECC,
    /// undetectable by parity).
    pub multi_bit: bool,
    /// True when the fault came from a targeted campaign rather than the
    /// random process.
    pub targeted: bool,
}

impl fmt::Display for FaultEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} fault at access {} (set {}, bit {}{}{})",
            self.structure,
            self.access,
            self.set,
            self.bit,
            if self.multi_bit { ", double-bit" } else { "" },
            if self.targeted { ", targeted" } else { "" },
        )
    }
}

/// What happens when a fault meets a protection scheme.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultEffect {
    /// Undetected: the data is silently corrupt; simulation continues
    /// (the harness counts these — a real machine would compute wrong
    /// answers).
    Silent,
    /// ECC corrected the flip in place for a fixed cycle penalty.
    Correct,
    /// Parity detected the flip on a clean entry: invalidate and refetch
    /// the data from the next level, charging the real refill cycles.
    Refetch,
    /// Detected but unrecoverable: dirty data under parity, or a
    /// double-bit flip under ECC. The machine raises a machine check.
    MachineCheck,
}

/// The recovery-action table: combines the struck structure's protection,
/// whether the entry held the only (dirty) copy of its data, and whether
/// the upset flipped one bit or two.
///
/// | protection | single-bit, clean | single-bit, dirty | double-bit |
/// |------------|-------------------|-------------------|------------|
/// | none       | silent            | silent            | silent     |
/// | parity     | refetch           | machine check     | silent*    |
/// | ECC        | correct           | correct           | machine check |
///
/// \* a double-bit flip leaves parity unchanged — the classic parity
/// escape that motivates ECC on large arrays.
pub fn resolve(protection: Protection, dirty: bool, multi_bit: bool) -> FaultEffect {
    match protection {
        Protection::None => FaultEffect::Silent,
        Protection::Parity => {
            if multi_bit {
                FaultEffect::Silent
            } else if dirty {
                FaultEffect::MachineCheck
            } else {
                FaultEffect::Refetch
            }
        }
        Protection::Ecc => {
            if multi_bit {
                FaultEffect::MachineCheck
            } else {
                FaultEffect::Correct
            }
        }
    }
}

/// Deterministic, seeded source of fault events.
///
/// The injector is consulted once per access to each protected structure
/// ([`FaultInjector::check`]); it keeps a per-structure access counter, so
/// targeted campaigns address accesses by ordinal. All randomness comes
/// from the seed — the same seed and access sequence reproduce the same
/// fault sites exactly.
#[derive(Debug, Clone)]
pub struct FaultInjector {
    rng: SmallRng,
    rates: FaultRates,
    /// Probability that an injected upset flips two bits (escapes parity,
    /// defeats SEC correction).
    multi_bit_frac: f64,
    /// Pending targeted faults (unordered; matched by structure+access).
    targeted: Vec<TargetedFault>,
    /// Per-structure access ordinals.
    accesses: [u64; 5],
    /// Per-structure injected-fault counts.
    injected: [u64; 5],
}

impl FaultInjector {
    /// Creates an injector.
    ///
    /// `multi_bit_frac` is the probability that a random fault is a
    /// double-bit upset; targeted faults are always single-bit.
    pub fn new(
        seed: u64,
        rates: FaultRates,
        multi_bit_frac: f64,
        targeted: Vec<TargetedFault>,
    ) -> Self {
        FaultInjector {
            rng: SmallRng::seed_from_u64(seed),
            rates,
            multi_bit_frac: multi_bit_frac.clamp(0.0, 1.0),
            targeted,
            accesses: [0; 5],
            injected: [0; 5],
        }
    }

    /// True when this injector can ever produce a fault.
    pub fn enabled(&self) -> bool {
        self.rates.any_nonzero() || !self.targeted.is_empty()
    }

    /// Consults the injector for one access to `s`, whose array has
    /// `n_sets` sets. Returns the fault striking this access, if any.
    /// Targeted faults take precedence over the random process.
    pub fn check(&mut self, s: Structure, n_sets: u64) -> Option<FaultEvent> {
        let idx = s.index();
        let ordinal = self.accesses[idx];
        self.accesses[idx] += 1;

        if let Some(pos) = self
            .targeted
            .iter()
            .position(|t| t.structure == s && t.access == ordinal)
        {
            let t = self.targeted.swap_remove(pos);
            self.injected[idx] += 1;
            return Some(FaultEvent {
                structure: s,
                access: ordinal,
                set: t.set,
                bit: t.bit,
                multi_bit: false,
                targeted: true,
            });
        }

        let rate = self.rates.get(s);
        if rate > 0.0 && self.rng.gen_bool(rate) {
            self.injected[idx] += 1;
            let set = if n_sets > 1 {
                self.rng.gen_range(0..n_sets)
            } else {
                0
            };
            let bit = self.rng.gen_range(0u32..64);
            let multi_bit = self.multi_bit_frac > 0.0 && self.rng.gen_bool(self.multi_bit_frac);
            return Some(FaultEvent {
                structure: s,
                access: ordinal,
                set,
                bit,
                multi_bit,
                targeted: false,
            });
        }
        None
    }

    /// Accesses observed so far for `s`.
    pub fn accesses(&self, s: Structure) -> u64 {
        self.accesses[s.index()]
    }

    /// Faults injected so far into `s`.
    pub fn injected(&self, s: Structure) -> u64 {
        self.injected[s.index()]
    }

    /// Total faults injected across all structures.
    pub fn total_injected(&self) -> u64 {
        self.injected.iter().sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_injector_never_fires() {
        let mut inj = FaultInjector::new(1, FaultRates::default(), 0.0, Vec::new());
        assert!(!inj.enabled());
        for s in Structure::ALL {
            for _ in 0..10_000 {
                assert!(inj.check(s, 64).is_none());
            }
        }
        assert_eq!(inj.total_injected(), 0);
        assert_eq!(inj.accesses(Structure::L1D), 10_000);
    }

    #[test]
    fn same_seed_same_fault_sites() {
        let rates = FaultRates::uniform(0.01);
        let mut a = FaultInjector::new(42, rates, 0.1, Vec::new());
        let mut b = FaultInjector::new(42, rates, 0.1, Vec::new());
        for i in 0..50_000u64 {
            let s = Structure::ALL[(i % 5) as usize];
            assert_eq!(a.check(s, 128), b.check(s, 128));
        }
        assert!(a.total_injected() > 0, "rate high enough to fire");
        assert_eq!(a.total_injected(), b.total_injected());
    }

    #[test]
    fn different_seeds_diverge() {
        let rates = FaultRates::uniform(0.05);
        let mut a = FaultInjector::new(1, rates, 0.0, Vec::new());
        let mut b = FaultInjector::new(2, rates, 0.0, Vec::new());
        let fa: Vec<_> = (0..5000)
            .filter_map(|_| a.check(Structure::L2, 4096))
            .collect();
        let fb: Vec<_> = (0..5000)
            .filter_map(|_| b.check(Structure::L2, 4096))
            .collect();
        assert_ne!(fa, fb);
    }

    #[test]
    fn rate_zero_structure_is_immune() {
        let rates = FaultRates {
            l1d: 0.5,
            ..FaultRates::default()
        };
        let mut inj = FaultInjector::new(3, rates, 0.0, Vec::new());
        for _ in 0..1000 {
            assert!(inj.check(Structure::L1I, 64).is_none());
        }
        let hits = (0..1000)
            .filter(|_| inj.check(Structure::L1D, 64).is_some())
            .count();
        assert!(hits > 350, "L1-D rate applies: {hits}");
        assert_eq!(inj.injected(Structure::L1I), 0);
    }

    #[test]
    fn targeted_fault_fires_at_exact_access() {
        let t = TargetedFault {
            structure: Structure::L1I,
            access: 7,
            set: 3,
            bit: 21,
        };
        let mut inj = FaultInjector::new(0, FaultRates::default(), 0.0, vec![t]);
        assert!(inj.enabled());
        for i in 0..20u64 {
            match inj.check(Structure::L1I, 64) {
                Some(ev) => {
                    assert_eq!(i, 7);
                    assert_eq!(ev.set, 3);
                    assert_eq!(ev.bit, 21);
                    assert!(ev.targeted);
                    assert!(!ev.multi_bit);
                }
                None => assert_ne!(i, 7),
            }
        }
        assert_eq!(inj.total_injected(), 1);
    }

    #[test]
    fn targeted_access_counts_are_per_structure() {
        let t = TargetedFault {
            structure: Structure::Tlb,
            access: 2,
            set: 0,
            bit: 0,
        };
        let mut inj = FaultInjector::new(0, FaultRates::default(), 0.0, vec![t]);
        // Accesses to other structures do not advance the TLB ordinal.
        for _ in 0..10 {
            assert!(inj.check(Structure::L1D, 64).is_none());
        }
        assert!(inj.check(Structure::Tlb, 8).is_none()); // ordinal 0
        assert!(inj.check(Structure::Tlb, 8).is_none()); // ordinal 1
        assert!(inj.check(Structure::Tlb, 8).is_some()); // ordinal 2: fires
    }

    #[test]
    fn random_sites_stay_in_bounds() {
        let mut inj = FaultInjector::new(9, FaultRates::uniform(0.2), 0.5, Vec::new());
        let mut saw_multi = false;
        let mut saw_single = false;
        for _ in 0..5000 {
            if let Some(ev) = inj.check(Structure::L2, 512) {
                assert!(ev.set < 512);
                assert!(ev.bit < 64);
                saw_multi |= ev.multi_bit;
                saw_single |= !ev.multi_bit;
            }
        }
        assert!(saw_multi && saw_single, "multi_bit_frac=0.5 produces both");
    }

    #[test]
    fn resolve_table_matches_doc() {
        use FaultEffect::*;
        use Protection::*;
        // (protection, dirty, multi_bit) -> effect
        assert_eq!(resolve(None, false, false), Silent);
        assert_eq!(resolve(None, true, true), Silent);
        assert_eq!(resolve(Parity, false, false), Refetch);
        assert_eq!(resolve(Parity, true, false), MachineCheck);
        assert_eq!(resolve(Parity, false, true), Silent, "parity escape");
        assert_eq!(resolve(Parity, true, true), Silent, "parity escape");
        assert_eq!(resolve(Ecc, false, false), Correct);
        assert_eq!(resolve(Ecc, true, false), Correct);
        assert_eq!(resolve(Ecc, false, true), MachineCheck);
        assert_eq!(resolve(Ecc, true, true), MachineCheck);
    }

    #[test]
    fn rates_validation() {
        assert!(FaultRates::default().is_valid());
        assert!(FaultRates::uniform(1.0).is_valid());
        assert!(!FaultRates::uniform(1.5).is_valid());
        assert!(!FaultRates {
            tlb: -0.1,
            ..FaultRates::default()
        }
        .is_valid());
        assert!(!FaultRates {
            l2: f64::NAN,
            ..FaultRates::default()
        }
        .is_valid());
        assert!(!FaultRates::default().any_nonzero());
        assert!(FaultRates {
            write_buffer: 1e-9,
            ..FaultRates::default()
        }
        .any_nonzero());
    }

    #[test]
    fn protection_map_lookup() {
        let m = ProtectionMap {
            l1i: Protection::Parity,
            l1d: Protection::Ecc,
            ..ProtectionMap::default()
        };
        assert_eq!(m.get(Structure::L1I), Protection::Parity);
        assert_eq!(m.get(Structure::L1D), Protection::Ecc);
        assert_eq!(m.get(Structure::L2), Protection::None);
        let u = ProtectionMap::uniform(Protection::Ecc);
        for s in Structure::ALL {
            assert_eq!(u.get(s), Protection::Ecc);
        }
    }

    #[test]
    fn labels_and_display() {
        for s in Structure::ALL {
            assert!(!s.label().is_empty());
            assert_eq!(s.to_string(), s.label());
        }
        for p in [Protection::None, Protection::Parity, Protection::Ecc] {
            assert_eq!(p.to_string(), p.label());
        }
        let ev = FaultEvent {
            structure: Structure::L2,
            access: 5,
            set: 9,
            bit: 3,
            multi_bit: true,
            targeted: false,
        };
        let s = ev.to_string();
        assert!(s.contains("L2") && s.contains("double-bit"));
    }
}
