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
//! The digest is table-driven **slicing-by-8**: eight 256-entry tables,
//! built at compile time, fold eight bytes per step, and the bytewise
//! table finishes the tail. Every replay of a profile re-verifies each
//! of its address blocks, so the checksum runs at about memory speed
//! rather than one byte per table lookup. The output is the plain
//! bytewise CRC32, bit for bit.
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

/// Slicing-by-8 tables: `TABLES[0]` is the classic bytewise table, and
/// `TABLES[k][i]` is the CRC of byte `i` followed by `k` zero bytes, so
/// eight table lookups fold eight input bytes at once.
const fn build_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
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
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
}

static TABLES: [[u32; 256]; 8] = build_tables();

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

    /// Folds `bytes` into the digest: eight bytes per step through the
    /// slicing-by-8 tables, then the tail one byte at a time.
    pub fn update(&mut self, bytes: &[u8]) {
        let t = &TABLES;
        let mut crc = self.state;
        let mut words = bytes.chunks_exact(8);
        for w in &mut words {
            let lo = crc ^ u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
            let hi = u32::from_le_bytes([w[4], w[5], w[6], w[7]]);
            crc = t[7][(lo & 0xFF) as usize]
                ^ t[6][((lo >> 8) & 0xFF) as usize]
                ^ t[5][((lo >> 16) & 0xFF) as usize]
                ^ t[4][(lo >> 24) as usize]
                ^ t[3][(hi & 0xFF) as usize]
                ^ t[2][((hi >> 8) & 0xFF) as usize]
                ^ t[1][((hi >> 16) & 0xFF) as usize]
                ^ t[0][(hi >> 24) as usize];
        }
        for &b in words.remainder() {
            crc = (crc >> 8) ^ t[0][((crc ^ b as u32) & 0xFF) as usize];
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

    /// The CRC one bit at a time, straight from the polynomial: the
    /// reference the table-driven digest must equal.
    fn bitwise_crc32(bytes: &[u8]) -> u32 {
        let mut crc = 0xFFFF_FFFFu32;
        for &b in bytes {
            crc ^= u32::from(b);
            for _ in 0..8 {
                crc = if crc & 1 != 0 {
                    (crc >> 1) ^ POLY
                } else {
                    crc >> 1
                };
            }
        }
        !crc
    }

    #[test]
    fn sliced_digest_equals_the_bitwise_reference() {
        let data: Vec<u8> = (0u32..320).map(|i| (i * 131 + 17) as u8).collect();
        for offset in 0..8 {
            for len in 0..=300 {
                let bytes = &data[offset..offset + len];
                assert_eq!(
                    crc32(bytes),
                    bitwise_crc32(bytes),
                    "length {len} at offset {offset}"
                );
            }
        }
    }

    #[test]
    fn update_split_at_every_point_equals_one_shot() {
        let data: Vec<u8> = (0u32..100).map(|i| (i * 29 + 3) as u8).collect();
        let whole = crc32(&data);
        for split in 0..=data.len() {
            let mut h = Crc32::new();
            h.update(&data[..split]);
            h.update(&data[split..]);
            assert_eq!(h.finish(), whole, "split at {split}");
        }
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
