//! Vendored CRC32 (IEEE 802.3 polynomial, the `zlib`/`gzip` variant).
//!
//! The durability layer protects the journal records of campaigns and
//! the serve daemon, and the arena's in-memory codec blocks, with a
//! per-record checksum, the software analogue of the paper's parity/ECC
//! protection of fast-but-unreliable GaAs SRAM: a small check on every
//! access buys detection of any single-bit (and overwhelmingly, any
//! multi-byte) corruption. Vendored like [`crate::rng`] so the workspace
//! stays hermetic.
//!
//! # Examples
//!
//! ```
//! use gaas_trace::crc::{crc32, Crc32};
//!
//! // The well-known check value of the IEEE polynomial.
//! assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
//!
//! // Streaming updates match the one-shot digest.
//! let mut h = Crc32::new();
//! h.update(b"1234");
//! h.update(b"56789");
//! assert_eq!(h.finish(), crc32(b"123456789"));
//! ```

/// Reflected IEEE polynomial (0x04C11DB7 bit-reversed).
const POLY: u32 = 0xEDB8_8320;

const fn build_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ POLY
            } else {
                crc >> 1
            };
            bit += 1;
        }
        table[i] = crc;
        i += 1;
    }
    table
}

static TABLE: [u32; 256] = build_table();

/// Incremental CRC32 state for streaming readers/writers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Crc32 {
    state: u32,
}

impl Crc32 {
    /// Fresh digest (equivalent to having hashed zero bytes).
    pub fn new() -> Self {
        Crc32 { state: 0xFFFF_FFFF }
    }

    /// Folds `bytes` into the digest.
    pub fn update(&mut self, bytes: &[u8]) {
        let mut crc = self.state;
        for &b in bytes {
            crc = (crc >> 8) ^ TABLE[((crc ^ b as u32) & 0xFF) as usize];
        }
        self.state = crc;
    }

    /// The digest of everything folded in so far (the state is not
    /// consumed; more updates may follow).
    pub fn finish(&self) -> u32 {
        self.state ^ 0xFFFF_FFFF
    }
}

impl Default for Crc32 {
    fn default() -> Self {
        Crc32::new()
    }
}

/// One-shot CRC32 of `bytes`.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut h = Crc32::new();
    h.update(bytes);
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_vectors() {
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
    }

    #[test]
    fn streaming_matches_one_shot() {
        let data: Vec<u8> = (0u32..1000).map(|i| (i * 7) as u8).collect();
        let mut h = Crc32::new();
        for chunk in data.chunks(13) {
            h.update(chunk);
        }
        assert_eq!(h.finish(), crc32(&data));
    }

    #[test]
    fn every_single_bit_flip_changes_the_digest() {
        let data = b"journal record payload under test";
        let clean = crc32(data);
        let mut copy = data.to_vec();
        for i in 0..copy.len() {
            for bit in 0..8 {
                copy[i] ^= 1 << bit;
                assert_ne!(crc32(&copy), clean, "flip at byte {i} bit {bit} undetected");
                copy[i] ^= 1 << bit;
            }
        }
    }
}
