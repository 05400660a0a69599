//! Block-based delta-compressed codec for packed event streams (the v3
//! encoding), used by the trace arena and the functional profiles.
//!
//! The arena's packed structure-of-arrays encoding spends 10 bytes per
//! event (an 8-byte raw PID-prefixed word address plus a 2-byte meta
//! word) regardless of content. Real reference streams are dominated by
//! small **per-kind** address strides — sequential instruction fetch
//! advances one word at a time, and data references cluster — but
//! consecutive events interleave fetches with loads and stores, whose
//! addresses live in different segments. So the v3 encoding keeps one
//! delta chain **per access kind**: each address is delta-encoded against
//! the previous address of the same kind. Typical streams shrink 3–4×.
//!
//! The per-event layout is a control byte plus fixed-width fields rather
//! than LEB128 varints, deliberately: the arena replays through this
//! decoder on the simulator's kernel hot path, and a varint's
//! byte-at-a-time continuation branches mispredict on real event mixes.
//! The control byte makes every field width a shift/mask away, so the
//! decoder's inner loop has **no data-dependent branches**:
//!
//! ```text
//! control: [1:0] kind  [2] partial  [3] syscall
//!          [5:4] delta width code (1, 2, 4, 8 bytes)
//!          [6]   stall byte present  [7] reserved, must be 0
//! then:    stall u8            (iff control bit 6)
//! then:    delta               (zigzagged, LE, width from code)
//! ```
//!
//! Events are grouped into self-contained **blocks** (up to
//! [`BLOCK_EVENTS`] events): the delta chains restart at every block
//! boundary and each block carries its own CRC32, so
//!
//! * a streaming decoder needs only one block of scratch space, and
//! * corruption is detected per block rather than per stream.
//!
//! Wire layout of one block (all integers little-endian):
//!
//! ```text
//! count u32 | payload_len u32 | payload bytes | crc32 u32
//! ```
//!
//! where `crc32` covers `count`, `payload_len`, and `payload`.

use crate::addr::{Pid, VirtAddr, PID_SHIFT};
use crate::crc::Crc32;
use crate::event::{AccessKind, TraceEvent};

/// Maximum events per encoded block. One decoded block (≈64 KB of
/// scratch) amortizes per-block overhead to noise while keeping decoder
/// residency small.
pub const BLOCK_EVENTS: usize = 4096;

/// Bytes of block framing outside the payload: count, payload length,
/// CRC32.
const BLOCK_OVERHEAD: usize = 12;

/// Upper bound on the encoded size of one event (control byte + stall
/// byte + 8-byte delta).
const MAX_EVENT_BYTES: usize = 10;

// Meta-word layout (bits):      11……4        3         2        1..0
//                               stall     syscall   partial    kind
const KIND_MASK: u16 = 0b11;
const PARTIAL_BIT: u16 = 1 << 2;
const SYSCALL_BIT: u16 = 1 << 3;
const STALL_SHIFT: u16 = 4;

// Control-byte layout (see module docs).
const CTL_META_MASK: u8 = 0x0f;
const CTL_WIDTH_SHIFT: u8 = 4;
const CTL_STALL_BIT: u8 = 0x40;
const CTL_RESERVED_BIT: u8 = 0x80;

/// Value masks by control-byte width code `k`, whose delta is `1 << k`
/// bytes wide (low 8·2^k bits).
const WIDTH_MASKS: [u64; 4] = [0xff, 0xffff, 0xffff_ffff, u64::MAX];

/// Packs one event into the `(raw address, meta word)` pair the arena
/// encodes. The meta word always fits 12 bits.
#[inline]
pub fn pack_event(ev: &TraceEvent) -> (u64, u16) {
    let kind = match ev.kind {
        AccessKind::IFetch => 0u16,
        AccessKind::Load => 1,
        AccessKind::Store => 2,
    };
    let mut meta = kind | ((ev.stall_cycles as u16) << STALL_SHIFT);
    if ev.partial_word {
        meta |= PARTIAL_BIT;
    }
    if ev.syscall {
        meta |= SYSCALL_BIT;
    }
    (ev.addr.raw(), meta)
}

/// Inverse of [`pack_event`]. A meta kind of 3 (impossible from
/// `pack_event`) decodes as `Store`; checked consumers reject it before
/// calling this.
#[inline]
fn unpack_event(raw: u64, meta: u16) -> TraceEvent {
    let kind = match meta & KIND_MASK {
        0 => AccessKind::IFetch,
        1 => AccessKind::Load,
        _ => AccessKind::Store,
    };
    let pid = Pid::new((raw >> PID_SHIFT) as u8);
    let word = raw & ((1u64 << PID_SHIFT) - 1);
    TraceEvent {
        kind,
        addr: VirtAddr::new(pid, word),
        stall_cycles: (meta >> STALL_SHIFT) as u8,
        partial_word: meta & PARTIAL_BIT != 0,
        syscall: meta & SYSCALL_BIT != 0,
    }
}

/// Decoding failure for one block.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BlockError {
    /// Fewer bytes available than the block frame declares (or than the
    /// minimal frame needs).
    Truncated,
    /// The block checksum does not match its contents.
    BadChecksum {
        /// CRC32 stored in the block trailer.
        stored: u32,
        /// CRC32 computed over the frame actually read.
        computed: u32,
    },
    /// The payload did not parse to exactly `count` well-formed events.
    Malformed,
}

impl std::fmt::Display for BlockError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BlockError::Truncated => write!(f, "encoded block truncated"),
            BlockError::BadChecksum { stored, computed } => write!(
                f,
                "block checksum mismatch: stored {stored:08x}, computed {computed:08x}"
            ),
            BlockError::Malformed => write!(f, "block payload malformed"),
        }
    }
}

impl std::error::Error for BlockError {}

#[inline]
fn zigzag(d: i64) -> u64 {
    ((d << 1) ^ (d >> 63)) as u64
}

#[inline]
fn unzigzag(z: u64) -> i64 {
    ((z >> 1) as i64) ^ -((z & 1) as i64)
}

/// Width code of the narrowest encoding that holds `z`.
#[inline]
fn width_code(z: u64) -> u8 {
    if z <= 0xff {
        0
    } else if z <= 0xffff {
        1
    } else if z <= 0xffff_ffff {
        2
    } else {
        3
    }
}

/// Appends one encoded block holding `addrs`/`meta` (parallel, equal
/// length, at most [`BLOCK_EVENTS`] entries; meta words must fit 12
/// bits, as [`pack_event`] guarantees) to `out`. Returns the encoded
/// size in bytes.
///
/// # Panics
///
/// Panics if the slices disagree in length, are empty, exceed
/// [`BLOCK_EVENTS`], or contain a meta word above 12 bits.
pub fn encode_block(out: &mut Vec<u8>, addrs: &[u64], meta: &[u16]) -> usize {
    assert_eq!(addrs.len(), meta.len(), "parallel arrays");
    assert!(!addrs.is_empty(), "empty block");
    assert!(addrs.len() <= BLOCK_EVENTS, "block too large");
    let start = out.len();
    out.extend_from_slice(&(addrs.len() as u32).to_le_bytes());
    out.extend_from_slice(&[0u8; 4]); // payload_len backpatched below
    let payload_start = out.len();
    // One delta chain per access kind (index 3 unused by pack_event but
    // kept so a meta word's low bits always index in bounds).
    let mut prev = [0u64; 4];
    for (&a, &m) in addrs.iter().zip(meta) {
        assert!(m >> 12 == 0, "meta word exceeds 12 bits");
        let kind = usize::from(m & KIND_MASK);
        let z = zigzag(a.wrapping_sub(prev[kind]) as i64);
        prev[kind] = a;
        let stall = (m >> STALL_SHIFT) as u8;
        let code = width_code(z);
        let mut ctl = (m as u8 & CTL_META_MASK) | (code << CTL_WIDTH_SHIFT);
        if stall != 0 {
            ctl |= CTL_STALL_BIT;
        }
        out.push(ctl);
        if stall != 0 {
            out.push(stall);
        }
        out.extend_from_slice(&z.to_le_bytes()[..1 << code]);
    }
    let payload_len = (out.len() - payload_start) as u32;
    out[start + 4..start + 8].copy_from_slice(&payload_len.to_le_bytes());
    let mut crc = Crc32::new();
    crc.update(&out[start..]);
    out.extend_from_slice(&crc.finish().to_le_bytes());
    out.len() - start
}

/// Decoded frame geometry of the block at `bytes[0..]`: `(frame_bytes,
/// event_count)`. Validates only the frame lengths, not the checksum.
///
/// # Errors
///
/// [`BlockError::Truncated`] when the declared frame overruns `bytes`.
pub fn block_extent(bytes: &[u8]) -> Result<(usize, usize), BlockError> {
    if bytes.len() < BLOCK_OVERHEAD {
        return Err(BlockError::Truncated);
    }
    let count = u32::from_le_bytes(bytes[0..4].try_into().expect("4 bytes")) as usize;
    let payload_len = u32::from_le_bytes(bytes[4..8].try_into().expect("4 bytes")) as usize;
    let frame = BLOCK_OVERHEAD
        .checked_add(payload_len)
        .ok_or(BlockError::Truncated)?;
    if bytes.len() < frame {
        return Err(BlockError::Truncated);
    }
    Ok((frame, count))
}

/// Verifies the checksum and frame geometry of the block at `bytes[0..]`
/// without decoding the payload. Returns `(frame_bytes, event_count)`.
///
/// The arena's integrity audit walks a stream's blocks through this, and
/// the checked decoders call it before they parse a payload.
///
/// # Errors
///
/// [`BlockError::Truncated`] or [`BlockError::BadChecksum`]; a checksum-
/// valid frame with an impossible event count is [`BlockError::Malformed`].
pub fn verify_block(bytes: &[u8]) -> Result<(usize, usize), BlockError> {
    let (frame, count) = block_extent(bytes)?;
    let stored = u32::from_le_bytes(bytes[frame - 4..frame].try_into().expect("4 bytes"));
    let mut crc = Crc32::new();
    crc.update(&bytes[..frame - 4]);
    let computed = crc.finish();
    if stored != computed {
        return Err(BlockError::BadChecksum { stored, computed });
    }
    if count == 0 || count > BLOCK_EVENTS {
        return Err(BlockError::Malformed);
    }
    Ok((frame, count))
}

/// Decodes one event at `payload[*pos..]` with full bounds checking,
/// returning `(meta, zigzagged delta)` and advancing `pos`.
#[inline]
fn decode_one(payload: &[u8], pos: &mut usize) -> Option<(u16, u64)> {
    let ctl = *payload.get(*pos)?;
    if ctl & CTL_RESERVED_BIT != 0 {
        return None;
    }
    let mut p = *pos + 1;
    let stall = if ctl & CTL_STALL_BIT != 0 {
        let s = *payload.get(p)?;
        p += 1;
        s
    } else {
        0
    };
    let width = 1 << ((ctl >> CTL_WIDTH_SHIFT) & 3);
    let bytes = payload.get(p..p + width)?;
    let mut z = 0u64;
    for (i, &b) in bytes.iter().enumerate() {
        z |= u64::from(b) << (8 * i);
    }
    *pos = p + width;
    let meta = u16::from(ctl & CTL_META_MASK) | (u16::from(stall) << STALL_SHIFT);
    Some((meta, z))
}

/// The one payload decoder: parses exactly `count` events from `payload`
/// and hands each `(value, meta)` to `sink`, in order. Both the checked
/// and the unchecked paths call it.
///
/// The bulk of the payload decodes through a branch-free inner loop
/// (unaligned 8-byte loads masked to the control byte's width); the last
/// few events, where a maximal event might overrun the payload, fall
/// back to the bounds-checked [`decode_one`]. Reserved bits, the exact
/// event count and exact payload consumption are enforced. On error,
/// `sink` may already have seen some events of the block.
#[inline(always)]
fn decode_payload(
    payload: &[u8],
    count: usize,
    mut sink: impl FnMut(u64, u16),
) -> Result<(), BlockError> {
    let n = payload.len();
    let mut pos = 0usize;
    let mut prev = [0u64; 4];
    let mut bad = 0u8;
    let mut i = 0;
    // Branch-free bulk loop: safe while a maximal event (control + stall
    // + 8-byte load window) fits before the payload end.
    while i < count && pos + MAX_EVENT_BYTES <= n {
        let ctl = payload[pos];
        bad |= ctl & CTL_RESERVED_BIT;
        let has_stall = usize::from(ctl >> 6) & 1;
        // Read the stall slot unconditionally; mask it out when absent.
        let stall = payload[pos + 1] & (ctl >> 6).wrapping_neg();
        let doff = pos + 1 + has_stall;
        let w = u64::from_le_bytes(payload[doff..doff + 8].try_into().expect("8 bytes"));
        let code = usize::from((ctl >> CTL_WIDTH_SHIFT) & 3);
        let z = w & WIDTH_MASKS[code];
        // Width code k means 2^k bytes: a shift, not a table load on the
        // serial chain from one event's position to the next.
        pos = doff + (1 << code);
        let kind = usize::from(ctl & 3);
        prev[kind] = prev[kind].wrapping_add(unzigzag(z) as u64);
        let meta = u16::from(ctl & CTL_META_MASK) | (u16::from(stall) << STALL_SHIFT);
        sink(prev[kind], meta);
        i += 1;
    }
    if bad != 0 {
        return Err(BlockError::Malformed);
    }
    // Tail: the last few events, fully bounds-checked.
    while i < count {
        let (m, z) = decode_one(payload, &mut pos).ok_or(BlockError::Malformed)?;
        let kind = usize::from(m & KIND_MASK);
        prev[kind] = prev[kind].wrapping_add(unzigzag(z) as u64);
        sink(prev[kind], m);
        i += 1;
    }
    if pos != n {
        return Err(BlockError::Malformed);
    }
    Ok(())
}

/// Decodes the block at `bytes[0..]`, handing each `(value, meta)` to
/// `sink`. Returns the number of bytes consumed.
///
/// The checksum is verified **before** the payload is parsed, so a
/// corrupt length cannot drive the parser off the frame, and a corrupt
/// block fails as [`BlockError::BadChecksum`].
///
/// # Errors
///
/// [`BlockError`] on truncation, checksum mismatch, or a payload that
/// does not parse to exactly the declared event count.
#[inline]
fn decode_block_checked(bytes: &[u8], sink: impl FnMut(u64, u16)) -> Result<usize, BlockError> {
    let (frame, count) = verify_block(bytes)?;
    decode_payload(&bytes[8..frame - 4], count, sink)?;
    Ok(frame)
}

/// [`decode_block_checked`] into parallel address and meta vectors.
#[cfg(test)]
fn decode_block(
    bytes: &[u8],
    addrs: &mut Vec<u64>,
    meta: &mut Vec<u16>,
) -> Result<usize, BlockError> {
    decode_block_checked(bytes, |a, m| {
        addrs.push(a);
        meta.push(m);
    })
}

/// Decodes the block at `bytes[0..]` straight into [`TraceEvent`]s
/// **without** re-verifying the checksum. Returns the bytes consumed.
///
/// This is the arena's replay hot path: the kernel benchmark refills
/// through it tens of thousands of times per second, and its input was
/// encoded by this same process and is audited separately
/// (`arena::verify` re-verifies every block of every resident stream on
/// demand). It shares the payload decoder of the checked path, so frame
/// geometry, reserved bits, exact event count, and exact payload
/// consumption are still validated — corrupt input fails, it just may
/// fail as [`BlockError::Malformed`] instead of
/// [`BlockError::BadChecksum`].
///
/// # Errors
///
/// [`BlockError::Truncated`] or [`BlockError::Malformed`].
pub fn decode_block_events_unchecked(
    bytes: &[u8],
    out: &mut Vec<TraceEvent>,
) -> Result<usize, BlockError> {
    let (frame, count) = block_extent(bytes)?;
    if count == 0 || count > BLOCK_EVENTS {
        return Err(BlockError::Malformed);
    }
    out.reserve(count);
    decode_payload(&bytes[8..frame - 4], count, |raw, meta| {
        out.push(unpack_event(raw, meta));
    })?;
    Ok(frame)
}

/// Encodes a bare `u64` value stream (no meta words — every event
/// carries meta 0, a single kind-0 delta chain) into concatenated v3
/// blocks. This is the profile side-channel encoding: the memoizer's
/// `FunctionalProfile` address stream is clustered (write-buffer words,
/// line bases), so the per-kind delta chain shrinks it the same 2–4× it
/// shrinks reference streams.
pub fn encode_u64_stream(vals: &[u64]) -> Vec<u8> {
    let mut out = Vec::new();
    let meta = [0u16; BLOCK_EVENTS];
    for chunk in vals.chunks(BLOCK_EVENTS) {
        encode_block(&mut out, chunk, &meta[..chunk.len()]);
    }
    out
}

/// Streaming block-at-a-time decoder over concatenated v3 blocks of a
/// bare `u64` stream (as produced by [`encode_u64_stream`]).
///
/// The cursor bulk-decodes one block (≤ [`BLOCK_EVENTS`] values) into a
/// **reusable** internal batch buffer and hands values out of it one at
/// a time, so a replay touches at most ~32 KB of decoded scratch at any
/// moment instead of materializing the whole packed stream — the
/// multi-variant co-pricer's lockstep lanes all consume the current
/// block before the next one is decoded. Each block's CRC32 is verified
/// as it is entered, then the block decodes through the same bulk loop
/// as the arena's replay path, keeping values only (every meta word of
/// such a stream is 0).
///
/// # Panics
///
/// [`Self::next_value`] panics on a corrupt or truncated block: the
/// encoded stream lives in process memory and was produced by
/// [`encode_u64_stream`] in the same process, so damage here is a logic
/// error, not an I/O condition. (The campaign's group worker runs
/// pricing under `catch_unwind` and falls back to full simulation.)
#[derive(Debug)]
pub struct U64StreamCursor<'a> {
    bytes: &'a [u8],
    off: usize,
    buf: Vec<u64>,
    idx: usize,
}

impl<'a> U64StreamCursor<'a> {
    /// Opens a cursor at the head of an [`encode_u64_stream`] byte
    /// stream.
    #[must_use]
    pub fn new(bytes: &'a [u8]) -> Self {
        Self {
            bytes,
            off: 0,
            buf: Vec::new(),
            idx: 0,
        }
    }

    /// Decodes the next block into the batch buffer. Returns `false` at
    /// end of stream.
    #[cold]
    fn refill(&mut self) -> bool {
        if self.off >= self.bytes.len() {
            return false;
        }
        self.buf.clear();
        self.idx = 0;
        let buf = &mut self.buf;
        let used = decode_block_checked(&self.bytes[self.off..], |v, _| buf.push(v))
            .expect("corrupt in-memory u64 stream block");
        self.off += used;
        true
    }

    /// Next value of the stream, decoding the next block when the batch
    /// buffer runs dry. `None` at end of stream.
    #[inline]
    pub fn next_value(&mut self) -> Option<u64> {
        if self.idx == self.buf.len() && !self.refill() {
            return None;
        }
        let v = self.buf[self.idx];
        self.idx += 1;
        Some(v)
    }

    /// True when every value has been handed out.
    #[must_use]
    pub fn finished(&self) -> bool {
        self.idx == self.buf.len() && self.off >= self.bytes.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Encodes a whole packed stream into concatenated v3 blocks.
    fn encode_stream(addrs: &[u64], meta: &[u16]) -> Vec<u8> {
        assert_eq!(addrs.len(), meta.len(), "parallel arrays");
        let mut out = Vec::new();
        for (a, m) in addrs.chunks(BLOCK_EVENTS).zip(meta.chunks(BLOCK_EVENTS)) {
            encode_block(&mut out, a, m);
        }
        out
    }

    fn sample(n: usize, seed: u64) -> (Vec<u64>, Vec<u16>) {
        let mut rng = crate::rng::SmallRng::seed_from_u64(seed);
        let mut addrs = Vec::with_capacity(n);
        let mut meta = Vec::with_capacity(n);
        let mut a = 0x0300_0000_1000u64;
        for i in 0..n {
            // Mostly sequential strides with occasional far jumps — the
            // shape the delta encoding is built for.
            a = if i % 97 == 0 {
                rng.gen_range(0u64..1 << 40)
            } else {
                a.wrapping_add(rng.gen_range(0u64..8))
            };
            addrs.push(a);
            meta.push(rng.gen_range(0u32..=0xfff) as u16);
        }
        (addrs, meta)
    }

    /// Events whose deltas cycle through all four widths, a third of
    /// them without a stall byte, on random kinds.
    fn mixed_widths(n: usize, seed: u64) -> (Vec<u64>, Vec<u16>) {
        let mut rng = crate::rng::SmallRng::seed_from_u64(seed);
        let mut prev = [0u64; 4];
        let mut addrs = Vec::with_capacity(n);
        let mut meta = Vec::with_capacity(n);
        for i in 0..n {
            let mut m = rng.gen_range(0u32..=0xfff) as u16;
            if i % 3 == 0 {
                m &= CTL_META_MASK as u16;
            }
            // Delta magnitudes whose zigzag needs exactly 1, 2, 4, 8 bytes.
            let (lo, hi) = [
                (0u64, 0x7f),
                (0x80, 0x7fff),
                (0x8000, 0x7fff_ffff),
                (0x8000_0000, i64::MAX as u64),
            ][i % 4];
            let d = rng.gen_range(lo..=hi);
            let d = if rng.gen_range(0u32..2) == 0 {
                d
            } else {
                d.wrapping_neg()
            };
            let kind = usize::from(m & KIND_MASK);
            prev[kind] = prev[kind].wrapping_add(d);
            addrs.push(prev[kind]);
            meta.push(m);
        }
        (addrs, meta)
    }

    /// Encodes one block and checks that the checked decoder and the
    /// arena's unchecked decoder both return exactly the input.
    fn assert_decoders_agree(addrs: &[u64], meta: &[u16]) -> usize {
        let mut bytes = Vec::new();
        let frame = encode_block(&mut bytes, addrs, meta);
        let (mut da, mut dm) = (Vec::new(), Vec::new());
        assert_eq!(decode_block(&bytes, &mut da, &mut dm), Ok(frame));
        assert_eq!(da, addrs);
        assert_eq!(dm, meta);
        let mut events = Vec::new();
        assert_eq!(
            decode_block_events_unchecked(&bytes, &mut events),
            Ok(frame)
        );
        let expected: Vec<TraceEvent> = da
            .iter()
            .zip(&dm)
            .map(|(&a, &m)| unpack_event(a, m))
            .collect();
        assert_eq!(events, expected);
        frame
    }

    #[test]
    fn checked_and_unchecked_decoders_agree() {
        for seed in [1u64, 2, 3] {
            // One event, alone in the bounds-checked tail.
            let (a, m) = mixed_widths(1, seed);
            assert_decoders_agree(&a, &m);
            // A payload shorter than one maximal event: the bulk loop
            // never runs.
            let a: Vec<u64> = (0..3).map(|i| 0x4000 + seed + i).collect();
            let frame = assert_decoders_agree(&a, &[0, 0, 0]);
            assert!(frame - BLOCK_OVERHEAD < MAX_EVENT_BYTES);
            // A full block with stall bytes and every width.
            let (a, m) = mixed_widths(BLOCK_EVENTS, seed);
            assert_decoders_agree(&a, &m);
        }
    }

    #[test]
    fn checked_decode_reports_a_corrupt_payload_as_bad_checksum() {
        let (addrs, meta) = mixed_widths(200, 4);
        let mut bytes = Vec::new();
        encode_block(&mut bytes, &addrs, &meta);
        bytes[8] |= CTL_RESERVED_BIT;
        let (mut da, mut dm) = (Vec::new(), Vec::new());
        assert!(matches!(
            decode_block(&bytes, &mut da, &mut dm),
            Err(BlockError::BadChecksum { .. })
        ));
        assert!(da.is_empty(), "nothing is parsed before the checksum holds");
    }

    #[test]
    fn zigzag_round_trips() {
        for v in [0i64, 1, -1, 63, -64, i64::MAX, i64::MIN, 123_456_789] {
            assert_eq!(unzigzag(zigzag(v)), v);
        }
    }

    #[test]
    fn width_code_is_minimal_and_sufficient() {
        for (z, c) in [
            (0u64, 0u8),
            (0xff, 0),
            (0x100, 1),
            (0xffff, 1),
            (0x10000, 2),
            (0xffff_ffff, 2),
            (0x1_0000_0000, 3),
            (u64::MAX, 3),
        ] {
            assert_eq!(width_code(z), c, "width of {z:#x}");
            assert_eq!(z & WIDTH_MASKS[usize::from(c)], z, "mask keeps {z:#x}");
        }
    }

    #[test]
    fn pack_round_trips_every_field() {
        let ev = TraceEvent {
            kind: AccessKind::Store,
            addr: VirtAddr::new(Pid::new(9), 0x1234_5678),
            stall_cycles: 255,
            partial_word: true,
            syscall: true,
        };
        let (a, m) = pack_event(&ev);
        assert_eq!(unpack_event(a, m), ev);
        let plain = TraceEvent::ifetch(VirtAddr::new(Pid::new(0), 7), 3);
        let (a, m) = pack_event(&plain);
        assert_eq!(unpack_event(a, m), plain);
    }

    #[test]
    fn block_round_trips_multi_block_stream() {
        let (addrs, meta) = sample(3 * BLOCK_EVENTS + 17, 7);
        let bytes = encode_stream(&addrs, &meta);
        let mut da = Vec::new();
        let mut dm = Vec::new();
        let mut off = 0;
        while off < bytes.len() {
            off += decode_block(&bytes[off..], &mut da, &mut dm).expect("clean block");
        }
        assert_eq!(da, addrs);
        assert_eq!(dm, meta);
    }

    #[test]
    fn event_decode_matches_soa_decode() {
        let (addrs, meta) = sample(2 * BLOCK_EVENTS + 5, 11);
        let bytes = encode_stream(&addrs, &meta);
        let mut events = Vec::new();
        let mut off = 0;
        while off < bytes.len() {
            off += decode_block_events_unchecked(&bytes[off..], &mut events).expect("clean");
        }
        let expected: Vec<TraceEvent> = addrs
            .iter()
            .zip(&meta)
            .map(|(&a, &m)| unpack_event(a, m))
            .collect();
        assert_eq!(events, expected);
    }

    #[test]
    fn extreme_deltas_round_trip() {
        // Alternating address-space extremes force every width code and
        // exercise the zigzag sign handling in both decode paths.
        let addrs = vec![0u64, u64::MAX, 0, 1 << 40, 0x80, 0x7f, u64::MAX / 2, 0];
        let meta = vec![0u16, 1, 2, 0x0ff0, 0xfff, 0, 5, 9];
        let bytes = encode_stream(&addrs, &meta);
        let mut da = Vec::new();
        let mut dm = Vec::new();
        decode_block(&bytes, &mut da, &mut dm).expect("clean");
        assert_eq!(da, addrs);
        assert_eq!(dm, meta);
        let mut events = Vec::new();
        decode_block_events_unchecked(&bytes, &mut events).expect("clean");
        assert_eq!(events.len(), addrs.len());
        for ((ev, &a), &m) in events.iter().zip(&addrs).zip(&meta) {
            assert_eq!(*ev, unpack_event(a, m));
        }
    }

    #[test]
    fn sequential_streams_compress_well() {
        let n = BLOCK_EVENTS;
        let addrs: Vec<u64> = (0..n as u64).map(|i| 0x1000 + i).collect();
        let meta = vec![0u16; n];
        let bytes = encode_stream(&addrs, &meta);
        // Stall-free stride-1 events encode in two bytes each.
        assert!(
            bytes.len() < n * 3,
            "sequential block should be ≤3 B/event, got {} for {n} events",
            bytes.len()
        );
    }

    #[test]
    fn every_single_bit_flip_is_detected() {
        let (addrs, meta) = sample(64, 21);
        let bytes = encode_stream(&addrs, &meta);
        let mut copy = bytes.clone();
        for i in 0..copy.len() {
            for bit in 0..8 {
                copy[i] ^= 1 << bit;
                let mut da = Vec::new();
                let mut dm = Vec::new();
                let r = decode_block(&copy, &mut da, &mut dm);
                assert!(r.is_err(), "flip of bit {bit} in byte {i} must be detected");
                copy[i] ^= 1 << bit;
            }
        }
        assert_eq!(copy, bytes);
    }

    #[test]
    fn truncation_is_detected() {
        let (addrs, meta) = sample(32, 33);
        let bytes = encode_stream(&addrs, &meta);
        for cut in 0..bytes.len() {
            let mut da = Vec::new();
            let mut dm = Vec::new();
            assert!(decode_block(&bytes[..cut], &mut da, &mut dm).is_err());
        }
    }

    #[test]
    fn unchecked_decode_still_rejects_truncation() {
        let (addrs, meta) = sample(100, 5);
        let bytes = encode_stream(&addrs, &meta);
        for cut in 0..BLOCK_OVERHEAD {
            let mut out = Vec::new();
            assert!(decode_block_events_unchecked(&bytes[..cut], &mut out).is_err());
        }
        let mut out = Vec::new();
        assert!(decode_block_events_unchecked(&bytes[..bytes.len() - 1], &mut out).is_err());
    }

    #[test]
    fn unchecked_decode_rejects_reserved_control_bits() {
        let (addrs, meta) = sample(16, 9);
        let mut bytes = Vec::new();
        encode_block(&mut bytes, &addrs, &meta);
        bytes[8] |= CTL_RESERVED_BIT; // first control byte
        let mut out = Vec::new();
        assert_eq!(
            decode_block_events_unchecked(&bytes, &mut out),
            Err(BlockError::Malformed)
        );
    }

    #[test]
    fn extent_reports_frame_and_count() {
        let (addrs, meta) = sample(5, 3);
        let mut bytes = Vec::new();
        let frame = encode_block(&mut bytes, &addrs, &meta);
        assert_eq!(block_extent(&bytes).expect("well-formed"), (frame, 5));
    }

    #[test]
    fn u64_stream_cursor_round_trips_across_blocks() {
        // 2.5 blocks worth of values so the cursor exercises at least two
        // refills plus a partial tail block.
        let (vals, _) = sample(BLOCK_EVENTS * 2 + BLOCK_EVENTS / 2, 21);
        let bytes = encode_u64_stream(&vals);
        let mut cur = U64StreamCursor::new(&bytes);
        for (i, &v) in vals.iter().enumerate() {
            assert!(!cur.finished(), "finished early at {i}");
            assert_eq!(cur.next_value(), Some(v), "value {i}");
        }
        assert_eq!(cur.next_value(), None);
        assert!(cur.finished());
    }

    #[test]
    fn u64_stream_empty() {
        let bytes = encode_u64_stream(&[]);
        assert!(bytes.is_empty());
        let mut cur = U64StreamCursor::new(&bytes);
        assert!(cur.finished());
        assert_eq!(cur.next_value(), None);
    }

    #[test]
    fn u64_stream_compresses_clustered_addresses() {
        // Profile-shaped input: line bases and write-buffer words walking
        // a few small working sets. Raw packing spends 8 B/value.
        let mut vals = Vec::new();
        let mut a = 0x0100_0000u64;
        for i in 0u64..20_000 {
            a = a.wrapping_add((i % 7) * 4);
            vals.push(a);
        }
        let bytes = encode_u64_stream(&vals);
        assert!(
            bytes.len() * 3 <= vals.len() * 8,
            "expected >=3x compression, got {} bytes for {} values",
            bytes.len(),
            vals.len()
        );
    }

    #[test]
    #[should_panic(expected = "corrupt in-memory u64 stream block")]
    fn u64_stream_cursor_panics_on_corruption() {
        let (vals, _) = sample(100, 5);
        let mut bytes = encode_u64_stream(&vals);
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x55;
        let mut cur = U64StreamCursor::new(&bytes);
        while cur.next_value().is_some() {}
    }
}
