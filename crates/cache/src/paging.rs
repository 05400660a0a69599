//! Page-coloring virtual-to-physical mapper (§3, \[TDF90\]).
//!
//! "The virtual to physical mapping of addresses is performed using page
//! coloring." Page coloring assigns each virtual page a physical page whose
//! low page-number bits (its *color*) match the virtual page's, so the
//! untranslated bits that index a physically-indexed cache are identical in
//! the virtual and physical address. That keeps cache indexing consistent
//! across processes while still spreading distinct address spaces over
//! distinct physical pages (the PID prefix feeds the hash).

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

use gaas_trace::{PhysAddr, VirtAddr, PAGE_SHIFT};

/// Default number of colors: enough for a 1024 KW (4 MB) cache with 4 KW
/// pages.
pub const DEFAULT_COLORS: u64 = 256;

/// Slots in the direct-mapped translation cache fronting the page table.
/// A software TLB, in effect: `translate` sits on the per-event hot path
/// of the simulator, and page working sets are far smaller than 4096.
const XLATE_CACHE_SLOTS: usize = 4096;

/// Hasher for maps keyed by one `u64` — page numbers here, line
/// addresses in the coherence directory (Fibonacci multiplicative hash).
///
/// The std default (SipHash) costs more than the rest of `translate`
/// combined. Use it only where nothing iterates the map: frame
/// assignment depends only on *insertion order* — the per-color sequence
/// counters — never on hash values, so swapping the hasher cannot change
/// any translation. Not DoS-resistant; keys here are simulated addresses.
#[derive(Debug, Default, Clone)]
pub struct PageKeyHasher(u64);

impl Hasher for PageKeyHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        }
    }

    fn write_u64(&mut self, n: u64) {
        self.0 = n.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }
}

/// A demand-allocating, page-coloring page table covering every process
/// (the PID is part of the key).
///
/// # Examples
///
/// ```
/// use gaas_cache::PageMapper;
/// use gaas_trace::{Pid, VirtAddr, PAGE_WORDS};
///
/// let mut mapper = PageMapper::new(64);
/// let va = VirtAddr::new(Pid::new(1), 5 * PAGE_WORDS + 17);
/// let pa = mapper.translate(va);
/// assert_eq!(pa.page_offset(), 17, "offsets pass through");
/// assert_eq!(pa.ppn() % 64, 5 % 64, "page color preserved");
/// ```
#[derive(Debug, Clone)]
pub struct PageMapper {
    colors: u64,
    /// Next allocation sequence number per color.
    next_seq: Vec<u64>,
    /// `(pid << 52 | vpn) -> ppn`.
    map: HashMap<u64, u64, BuildHasherDefault<PageKeyHasher>>,
    /// Direct-mapped `(key, ppn)` cache over `map`. Mappings are immutable
    /// once allocated, so entries never need invalidation.
    xlate: Vec<(u64, u64)>,
}

impl PageMapper {
    /// Creates a mapper with `colors` page colors.
    ///
    /// # Panics
    ///
    /// Panics if `colors` is zero or not a power of two.
    pub fn new(colors: u64) -> Self {
        assert!(
            colors > 0 && colors.is_power_of_two(),
            "colors must be a power of two"
        );
        PageMapper {
            colors,
            next_seq: vec![0; colors as usize],
            map: HashMap::default(),
            xlate: vec![(u64::MAX, 0); XLATE_CACHE_SLOTS],
        }
    }

    /// Number of page colors.
    pub fn colors(&self) -> u64 {
        self.colors
    }

    /// Translates a virtual address, allocating a physical page with the
    /// matching color on first touch.
    pub fn translate(&mut self, addr: VirtAddr) -> PhysAddr {
        let vpn = addr.vpn();
        let key = ((addr.pid().raw() as u64) << 52) | vpn;
        // Fast path: the direct-mapped cache. PID bits are folded down so
        // processes with identical layouts don't all collide per slot.
        let slot = ((key ^ (key >> 49)) as usize) & (XLATE_CACHE_SLOTS - 1);
        let (ckey, cppn) = self.xlate[slot];
        let ppn = if ckey == key {
            cppn
        } else {
            let color = vpn & (self.colors - 1);
            let colors = self.colors;
            let next_seq = &mut self.next_seq[color as usize];
            let ppn = *self.map.entry(key).or_insert_with(|| {
                let ppn = *next_seq * colors + color;
                *next_seq += 1;
                ppn
            });
            self.xlate[slot] = (key, ppn);
            ppn
        };
        PhysAddr::new((ppn << PAGE_SHIFT) | addr.page_offset())
    }

    /// Physical pages allocated so far.
    pub fn allocated_pages(&self) -> usize {
        self.map.len()
    }
}

impl Default for PageMapper {
    fn default() -> Self {
        PageMapper::new(DEFAULT_COLORS)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gaas_trace::{Pid, PAGE_WORDS};

    fn va(pid: u8, word: u64) -> VirtAddr {
        VirtAddr::new(Pid::new(pid), word)
    }

    #[test]
    fn translation_is_stable() {
        let mut m = PageMapper::default();
        let a = m.translate(va(1, 5 * PAGE_WORDS + 3));
        let b = m.translate(va(1, 5 * PAGE_WORDS + 900));
        assert_eq!(a.ppn(), b.ppn(), "same page, same frame");
        assert_eq!(a.page_offset(), 3);
        assert_eq!(b.page_offset(), 900);
    }

    #[test]
    fn color_bits_are_preserved() {
        let mut m = PageMapper::new(64);
        for pid in 0..4u8 {
            for vpn in [0u64, 1, 63, 64, 65, 200] {
                let p = m.translate(va(pid, vpn * PAGE_WORDS));
                assert_eq!(p.ppn() % 64, vpn % 64, "pid {pid} vpn {vpn}");
            }
        }
    }

    #[test]
    fn distinct_pages_get_distinct_frames() {
        let mut m = PageMapper::default();
        let mut seen = std::collections::HashSet::new();
        for pid in 0..8u8 {
            for vpn in 0..64u64 {
                let p = m.translate(va(pid, vpn * PAGE_WORDS));
                assert!(seen.insert(p.ppn()), "frame reused: {}", p.ppn());
            }
        }
        assert_eq!(m.allocated_pages(), 8 * 64);
    }

    #[test]
    fn offsets_pass_through() {
        let mut m = PageMapper::default();
        for off in [0u64, 1, PAGE_WORDS - 1] {
            let p = m.translate(va(0, 7 * PAGE_WORDS + off));
            assert_eq!(p.page_offset(), off);
        }
    }

    #[test]
    fn same_color_pages_stack_by_sequence() {
        let mut m = PageMapper::new(4);
        let p0 = m.translate(va(0, 0)); // vpn 0, color 0
        let p1 = m.translate(va(0, 4 * PAGE_WORDS)); // vpn 4, color 0
        let p2 = m.translate(va(1, 0)); // pid 1 vpn 0, color 0
        assert_eq!(p0.ppn(), 0);
        assert_eq!(p1.ppn(), 4);
        assert_eq!(p2.ppn(), 8);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn bad_colors_rejected() {
        let _ = PageMapper::new(3);
    }
}
