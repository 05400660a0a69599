//! Compact binary trace file format.
//!
//! Lets workloads be captured once and replayed (the paper pipes `pixie`
//! output through file descriptors; we offer files as the moral
//! equivalent for fixtures and debugging). The format is versioned,
//! self-describing and **checksummed**, so bit corruption anywhere in the
//! stream — not just truncation — is detected rather than silently
//! misparsed (cf. the parity/ECC theme of the paper's own SRAM arrays).
//! The event payload uses the [`crate::codec`] block encoding: events are
//! delta-compressed into self-contained checksummed blocks, a tail index
//! records every block's offset, and a whole-file CRC closes the stream:
//!
//! ```text
//! magic "GTRC" | version u32 LE | event count u64 LE     (16-byte header)
//! block*                                                  (codec v3 blocks)
//! index: block offset u64 LE × n | n_blocks u32 LE
//!        | index crc32 u32 LE                             (over offsets + n)
//! file crc32 u32 LE                                       (over all prior bytes)
//! ```
//!
//! The layering buys three properties a flat record stream lacks:
//!
//! * **Size** — typical streams shrink 3–4× (delta chains per access
//!   kind; see [`crate::codec`]).
//! * **Localized corruption** — every block carries its own CRC, so a
//!   flipped bit is pinned to one block instead of condemning the file.
//! * **Salvage** — [`salvage_trace`] recovers every intact block through
//!   the tail index (or a sequential scan when the index itself is
//!   damaged), losing at most the corrupted block.
//!
//! Version 3 is the only format read or written. Files of the retired
//! versions 1 and 2 (flat 10-byte records) fail at the header with
//! [`ReadTraceError::BadVersion`]; regenerate them with `trace_tool gen`.

use std::fmt;
use std::io::{self, Read, Write};

use crate::codec::{self, BlockError, BLOCK_EVENTS, MAX_EVENT_BYTES};
use crate::crc::{crc32, Crc32};
use crate::event::{Trace, TraceEvent};

const MAGIC: [u8; 4] = *b"GTRC";
/// The format version read and written: codec blocks + tail index.
const VERSION: u32 = 3;
/// Fixed header size (magic + version + count).
const HEADER_BYTES: usize = 16;
/// Tail bytes after the block offsets: n_blocks + index crc + file crc.
const INDEX_TAIL_BYTES: usize = 12;

/// Error raised when reading a malformed trace file.
#[derive(Debug)]
pub enum ReadTraceError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// The magic bytes did not match.
    BadMagic,
    /// Unsupported format version (including the retired versions 1
    /// and 2): the file must be regenerated.
    BadVersion(u32),
    /// The stream ended before the declared event count (or the footer)
    /// was read.
    Truncated,
    /// A checksum did not match the stream contents: the file is
    /// bit-corrupt. Raised by a block CRC, the index CRC, or the
    /// whole-file CRC.
    BadChecksum {
        /// CRC32 stored in the file.
        stored: u32,
        /// CRC32 computed over the bytes actually read.
        computed: u32,
    },
    /// An event block or the tail index was structurally malformed
    /// (impossible count, oversized frame, offsets that do not match the
    /// blocks actually read).
    BadBlock(BlockError),
}

impl fmt::Display for ReadTraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReadTraceError::Io(e) => write!(f, "i/o error reading trace: {e}"),
            ReadTraceError::BadMagic => write!(f, "not a GTRC trace file"),
            ReadTraceError::BadVersion(v) => write!(
                f,
                "unsupported trace version {v} — regenerate the trace (version {VERSION} is read)"
            ),
            ReadTraceError::Truncated => write!(f, "trace file truncated"),
            ReadTraceError::BadChecksum { stored, computed } => write!(
                f,
                "trace checksum mismatch: stored {stored:08x}, computed {computed:08x} (bit corruption)"
            ),
            ReadTraceError::BadBlock(e) => write!(f, "corrupt event block: {e}"),
        }
    }
}

impl std::error::Error for ReadTraceError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ReadTraceError::Io(e) => Some(e),
            ReadTraceError::BadBlock(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for ReadTraceError {
    fn from(e: io::Error) -> Self {
        ReadTraceError::Io(e)
    }
}

fn eof_to_truncated(e: io::Error) -> ReadTraceError {
    if e.kind() == io::ErrorKind::UnexpectedEof {
        ReadTraceError::Truncated
    } else {
        ReadTraceError::Io(e)
    }
}

/// Maps a codec failure onto the file error space: checksum mismatches
/// keep their identity, everything else is structural.
fn block_to_read_error(e: BlockError) -> ReadTraceError {
    match e {
        BlockError::BadChecksum { stored, computed } => {
            ReadTraceError::BadChecksum { stored, computed }
        }
        other => ReadTraceError::BadBlock(other),
    }
}

/// Writes `events` to `writer` in GTRC version-3 format (delta-compressed
/// checksummed blocks with a tail index and whole-file CRC).
///
/// A `&mut` reference to a writer can be passed where a writer is expected.
///
/// # Errors
///
/// Returns any I/O error from the underlying writer.
///
/// # Examples
///
/// ```
/// # use gaas_trace::{file, TraceEvent, VirtAddr, Pid};
/// # fn main() -> std::io::Result<()> {
/// let events = vec![TraceEvent::ifetch(VirtAddr::new(Pid::new(0), 64), 0)];
/// let mut buf = Vec::new();
/// file::write_trace(&mut buf, &events)?;
/// let back = file::read_trace(buf.as_slice()).expect("well-formed");
/// assert_eq!(back, events);
/// # Ok(())
/// # }
/// ```
pub fn write_trace<W: Write>(mut writer: W, events: &[TraceEvent]) -> io::Result<()> {
    let mut crc = Crc32::new();
    let mut put = |writer: &mut W, bytes: &[u8]| -> io::Result<()> {
        crc.update(bytes);
        writer.write_all(bytes)
    };
    put(&mut writer, &MAGIC)?;
    put(&mut writer, &VERSION.to_le_bytes())?;
    put(&mut writer, &(events.len() as u64).to_le_bytes())?;
    let mut offsets = Vec::with_capacity(events.len().div_ceil(BLOCK_EVENTS));
    let mut off = HEADER_BYTES as u64;
    let mut addrs = Vec::with_capacity(BLOCK_EVENTS.min(events.len()));
    let mut meta = Vec::with_capacity(BLOCK_EVENTS.min(events.len()));
    let mut block = Vec::new();
    for chunk in events.chunks(BLOCK_EVENTS) {
        addrs.clear();
        meta.clear();
        block.clear();
        for ev in chunk {
            let (a, m) = codec::pack_event(ev);
            addrs.push(a);
            meta.push(m);
        }
        codec::encode_block(&mut block, &addrs, &meta);
        put(&mut writer, &block)?;
        offsets.push(off);
        off += block.len() as u64;
    }
    let mut index = Vec::with_capacity(8 * offsets.len() + 4);
    for &o in &offsets {
        index.extend_from_slice(&o.to_le_bytes());
    }
    index.extend_from_slice(&(offsets.len() as u32).to_le_bytes());
    let index_crc = crc32(&index);
    put(&mut writer, &index)?;
    put(&mut writer, &index_crc.to_le_bytes())?;
    let digest = crc.finish();
    writer.write_all(&digest.to_le_bytes())
}

/// Reads a complete GTRC version-3 trace from `reader`, verifying every
/// block CRC, the index CRC and the whole-file CRC.
///
/// A `&mut` reference to a reader can be passed where a reader is expected.
///
/// # Errors
///
/// Returns [`ReadTraceError`] on I/O failure, malformed input, or a
/// checksum mismatch.
pub fn read_trace<R: Read>(reader: R) -> Result<Vec<TraceEvent>, ReadTraceError> {
    let mut r = TraceReader::new(reader)?;
    let mut events = Vec::with_capacity(r.remaining().min(1 << 24) as usize);
    events.extend(r.by_ref());
    match r.error.take() {
        Some(e) => Err(e),
        None => Ok(events),
    }
}

/// A streaming GTRC reader: yields events incrementally without
/// materializing the whole trace (full-scale traces run to billions of
/// events). Malformed records end the stream; check
/// [`TraceReader::error`] after exhaustion to distinguish clean EOF from
/// corruption. The reader buffers one decoded block at a time and
/// verifies each block's CRC before any of its events are yielded; the
/// tail index and whole-file CRC are verified when the final event has
/// been read. Mismatches surface as [`ReadTraceError::BadChecksum`]
/// through the same channel.
#[derive(Debug)]
pub struct TraceReader<R> {
    reader: R,
    remaining: u64,
    crc: Crc32,
    footer_checked: bool,
    error: Option<ReadTraceError>,
    /// The current decoded block and the cursor into it.
    block: Vec<TraceEvent>,
    block_pos: usize,
    /// Absolute offsets of the blocks read so far, checked against
    /// the tail index at EOF.
    offsets: Vec<u64>,
    /// File offset of the next block.
    next_off: u64,
    /// Scratch frame buffer, reused across blocks.
    frame: Vec<u8>,
}

impl<R: Read> TraceReader<R> {
    /// Opens a GTRC stream, validating the header.
    ///
    /// # Errors
    ///
    /// Returns [`ReadTraceError`] when the header is malformed.
    pub fn new(mut reader: R) -> Result<Self, ReadTraceError> {
        let mut crc = Crc32::new();
        let mut magic = [0u8; 4];
        reader.read_exact(&mut magic)?;
        if magic != MAGIC {
            return Err(ReadTraceError::BadMagic);
        }
        crc.update(&magic);
        let mut v = [0u8; 4];
        reader.read_exact(&mut v)?;
        let version = u32::from_le_bytes(v);
        if version != VERSION {
            return Err(ReadTraceError::BadVersion(version));
        }
        crc.update(&v);
        let mut c = [0u8; 8];
        reader.read_exact(&mut c)?;
        crc.update(&c);
        Ok(TraceReader {
            reader,
            remaining: u64::from_le_bytes(c),
            crc,
            footer_checked: false,
            error: None,
            block: Vec::new(),
            block_pos: 0,
            offsets: Vec::new(),
            next_off: HEADER_BYTES as u64,
            frame: Vec::new(),
        })
    }

    /// Events left to read.
    pub fn remaining(&self) -> u64 {
        self.remaining
    }

    /// The error that terminated the stream early, if any.
    pub fn error(&self) -> Option<&ReadTraceError> {
        self.error.as_ref()
    }

    /// Reads the next block into `self.block`, verifying its
    /// CRC before decoding.
    fn read_block(&mut self) -> Result<(), ReadTraceError> {
        let mut head = [0u8; 8];
        self.reader
            .read_exact(&mut head)
            .map_err(eof_to_truncated)?;
        let count = u32::from_le_bytes(head[0..4].try_into().expect("4 bytes")) as u64;
        let payload_len = u32::from_le_bytes(head[4..8].try_into().expect("4 bytes")) as usize;
        // Reject impossible frames before allocating for them: a corrupt
        // length must not drive a multi-gigabyte read.
        if count == 0
            || count > BLOCK_EVENTS as u64
            || count > self.remaining
            || payload_len > BLOCK_EVENTS * MAX_EVENT_BYTES
        {
            return Err(ReadTraceError::BadBlock(BlockError::Malformed));
        }
        self.frame.clear();
        self.frame.resize(8 + payload_len + 4, 0);
        self.frame[..8].copy_from_slice(&head);
        self.reader
            .read_exact(&mut self.frame[8..])
            .map_err(eof_to_truncated)?;
        self.crc.update(&self.frame);
        codec::verify_block(&self.frame).map_err(block_to_read_error)?;
        self.block.clear();
        self.block_pos = 0;
        codec::decode_block_events_unchecked(&self.frame, &mut self.block)
            .map_err(block_to_read_error)?;
        self.offsets.push(self.next_off);
        self.next_off += self.frame.len() as u64;
        Ok(())
    }

    /// Reads and verifies the tail: the block index (offsets
    /// must match the blocks actually read), the index CRC, and the
    /// whole-file CRC.
    fn check_footer(&mut self) {
        if self.footer_checked {
            return;
        }
        self.footer_checked = true;
        let n = self.offsets.len();
        let mut index = vec![0u8; 8 * n + 4 + 4];
        if let Err(e) = self.reader.read_exact(&mut index) {
            self.error = Some(eof_to_truncated(e));
            return;
        }
        let stored_index_crc = u32::from_le_bytes(index[8 * n + 4..].try_into().expect("4 bytes"));
        let computed_index_crc = crc32(&index[..8 * n + 4]);
        if stored_index_crc != computed_index_crc {
            self.error = Some(ReadTraceError::BadChecksum {
                stored: stored_index_crc,
                computed: computed_index_crc,
            });
            return;
        }
        let stored_n =
            u32::from_le_bytes(index[8 * n..8 * n + 4].try_into().expect("4 bytes")) as usize;
        let offsets_match = stored_n == n
            && self
                .offsets
                .iter()
                .enumerate()
                .all(|(i, &off)| index[8 * i..8 * i + 8] == off.to_le_bytes());
        if !offsets_match {
            self.error = Some(ReadTraceError::BadBlock(BlockError::Malformed));
            return;
        }
        self.crc.update(&index);
        let mut f = [0u8; 4];
        if let Err(e) = self.reader.read_exact(&mut f) {
            self.error = Some(eof_to_truncated(e));
            return;
        }
        let stored = u32::from_le_bytes(f);
        let computed = self.crc.finish();
        if stored != computed {
            self.error = Some(ReadTraceError::BadChecksum { stored, computed });
        }
    }
}

impl<R: Read> Iterator for TraceReader<R> {
    type Item = TraceEvent;

    fn next(&mut self) -> Option<TraceEvent> {
        if self.error.is_some() {
            return None;
        }
        loop {
            if self.block_pos < self.block.len() {
                let ev = self.block[self.block_pos];
                self.block_pos += 1;
                self.remaining -= 1;
                return Some(ev);
            }
            if self.remaining == 0 {
                self.check_footer();
                return None;
            }
            if let Err(e) = self.read_block() {
                self.error = Some(e);
                return None;
            }
        }
    }
}

/// Outcome summary of [`salvage_trace`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SalvageReport {
    /// Events recovered.
    pub events: usize,
    /// Blocks that decoded cleanly.
    pub blocks_recovered: usize,
    /// Blocks lost to corruption. Exact when the tail index was usable;
    /// otherwise estimated from the declared event count.
    pub blocks_lost: usize,
    /// Event count the (possibly corrupt) header declares.
    pub declared_events: u64,
    /// Whether the tail index survived and drove recovery. When `false`,
    /// recovery fell back to a sequential scan from the first block and
    /// stops at the first damage.
    pub used_index: bool,
}

/// Parses the tail index of a version-3 byte image, returning the block
/// offsets and the offset where the index region begins. `None` when the
/// index is missing, out of range, or fails its CRC.
fn read_tail_index(bytes: &[u8]) -> Option<(Vec<u64>, usize)> {
    let len = bytes.len();
    if len < HEADER_BYTES + INDEX_TAIL_BYTES {
        return None;
    }
    let n = u32::from_le_bytes(bytes[len - 12..len - 8].try_into().expect("4 bytes")) as usize;
    let index_start = len.checked_sub(INDEX_TAIL_BYTES + 8 * n)?;
    if index_start < HEADER_BYTES {
        return None;
    }
    let stored = u32::from_le_bytes(bytes[len - 8..len - 4].try_into().expect("4 bytes"));
    if crc32(&bytes[index_start..len - 8]) != stored {
        return None;
    }
    let offsets = (0..n)
        .map(|i| {
            u64::from_le_bytes(
                bytes[index_start + 8 * i..index_start + 8 * (i + 1)]
                    .try_into()
                    .expect("8 bytes"),
            )
        })
        .collect();
    Some((offsets, index_start))
}

/// Verifies and decodes the block at `region[0..]` into `events`,
/// rolling back any partially-decoded events on failure. Returns the
/// frame size on success.
fn salvage_block(region: &[u8], events: &mut Vec<TraceEvent>) -> Option<usize> {
    let before = events.len();
    let ok = codec::verify_block(region)
        .and_then(|_| codec::decode_block_events_unchecked(region, events));
    match ok {
        Ok(frame) => Some(frame),
        Err(_) => {
            events.truncate(before);
            None
        }
    }
}

/// Best-effort recovery of a damaged version-3 trace image: returns
/// every event from every block that still verifies, plus a
/// [`SalvageReport`] describing what was lost.
///
/// Strategy: if the tail index survives (its CRC matches), every block
/// is located through it independently, so a single corrupt block costs
/// exactly that block and nothing after it. If the index itself is
/// damaged (e.g. the file was truncated), recovery falls back to a
/// sequential scan from the first block and keeps the intact prefix.
///
/// # Errors
///
/// Returns [`ReadTraceError`] only when `bytes` is not a version-3 GTRC
/// image at all (bad magic, other version, shorter than a header) —
/// anything beyond that is reported through the [`SalvageReport`], not
/// an error.
pub fn salvage_trace(bytes: &[u8]) -> Result<(Vec<TraceEvent>, SalvageReport), ReadTraceError> {
    if bytes.len() < 4 {
        return Err(ReadTraceError::Truncated);
    }
    if bytes[0..4] != MAGIC {
        return Err(ReadTraceError::BadMagic);
    }
    if bytes.len() < HEADER_BYTES {
        return Err(ReadTraceError::Truncated);
    }
    let version = u32::from_le_bytes(bytes[4..8].try_into().expect("4 bytes"));
    if version != VERSION {
        return Err(ReadTraceError::BadVersion(version));
    }
    let declared_events = u64::from_le_bytes(bytes[8..16].try_into().expect("8 bytes"));
    let mut events = Vec::new();
    if let Some((offsets, index_start)) = read_tail_index(bytes) {
        let mut recovered = 0usize;
        for &off in &offsets {
            let off = off as usize;
            if off < HEADER_BYTES || off >= index_start {
                continue;
            }
            if salvage_block(&bytes[off..index_start], &mut events).is_some() {
                recovered += 1;
            }
        }
        let report = SalvageReport {
            events: events.len(),
            blocks_recovered: recovered,
            blocks_lost: offsets.len() - recovered,
            declared_events,
            used_index: true,
        };
        return Ok((events, report));
    }
    // Index unusable: sequential scan keeps the intact prefix. Delta
    // chains restart at every block, so each recovered block is
    // self-contained.
    let mut off = HEADER_BYTES;
    let mut recovered = 0usize;
    while off < bytes.len() {
        match salvage_block(&bytes[off..], &mut events) {
            Some(frame) => {
                off += frame;
                recovered += 1;
            }
            None => break,
        }
    }
    let blocks_lost = declared_events
        .saturating_sub(events.len() as u64)
        .div_ceil(BLOCK_EVENTS as u64) as usize;
    let report = SalvageReport {
        events: events.len(),
        blocks_recovered: recovered,
        blocks_lost,
        declared_events,
        used_index: false,
    };
    Ok((events, report))
}

/// A file-backed [`Trace`]: replays an in-memory vector read with
/// [`read_trace`] under a benchmark name.
#[derive(Debug, Clone)]
pub struct FileTrace {
    name: String,
    iter: std::vec::IntoIter<TraceEvent>,
}

impl FileTrace {
    /// Reads a complete trace from `reader` and wraps it as a named trace.
    ///
    /// # Errors
    ///
    /// Returns [`ReadTraceError`] on I/O failure or malformed input.
    pub fn from_reader<R: Read>(
        name: impl Into<String>,
        reader: R,
    ) -> Result<Self, ReadTraceError> {
        Ok(FileTrace {
            name: name.into(),
            iter: read_trace(reader)?.into_iter(),
        })
    }
}

impl Iterator for FileTrace {
    type Item = TraceEvent;

    fn next(&mut self) -> Option<TraceEvent> {
        self.iter.next()
    }
}

impl Trace for FileTrace {
    fn name(&self) -> &str {
        &self.name
    }

    fn next_batch(&mut self, out: &mut Vec<TraceEvent>, max: usize) -> usize {
        let start = out.len();
        out.extend(self.iter.by_ref().take(max));
        out.len() - start
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::{Pid, VirtAddr};

    fn sample_events() -> Vec<TraceEvent> {
        let a = VirtAddr::new(Pid::new(3), 0x1000);
        vec![
            TraceEvent::ifetch(a, 2).with_syscall(),
            TraceEvent::load(a.wrapping_add(4)),
            TraceEvent::partial_store(a.wrapping_add(8)),
            TraceEvent::store(a.wrapping_add(12)),
        ]
    }

    /// A multi-block stream with per-kind locality and occasional jumps.
    fn big_events(n: usize) -> Vec<TraceEvent> {
        let mut rng = crate::rng::SmallRng::seed_from_u64(0xF11E);
        let mut out = Vec::with_capacity(n);
        let code = VirtAddr::new(Pid::new(1), 0x40_0000);
        let data = VirtAddr::new(Pid::new(1), 0x80_0000);
        for i in 0..n {
            let ev = match i % 3 {
                0 => TraceEvent::ifetch(code.wrapping_add((i as u64) * 4), (i % 5) as u8),
                1 => TraceEvent::load(data.wrapping_add(rng.gen_range(0u64..4096) * 4)),
                _ => TraceEvent::store(data.wrapping_add(rng.gen_range(0u64..4096) * 4)),
            };
            out.push(ev);
        }
        out
    }

    #[test]
    fn round_trip_preserves_events() {
        let events = sample_events();
        let mut buf = Vec::new();
        write_trace(&mut buf, &events).expect("write");
        let back = read_trace(buf.as_slice()).expect("read");
        assert_eq!(back, events);
    }

    #[test]
    fn multi_block_round_trip_preserves_events() {
        let events = big_events(2 * BLOCK_EVENTS + 177);
        let mut buf = Vec::new();
        write_trace(&mut buf, &events).expect("write");
        let back = read_trace(buf.as_slice()).expect("read");
        assert_eq!(back, events);
    }

    #[test]
    fn v3_files_are_smaller_than_flat_records() {
        let events = big_events(2 * BLOCK_EVENTS);
        let mut buf = Vec::new();
        write_trace(&mut buf, &events).expect("write");
        // The retired flat layout: header, 10 bytes per event, CRC footer.
        let flat = HEADER_BYTES + 10 * events.len() + 4;
        assert!(
            buf.len() * 2 <= flat,
            "v3 file should be ≤ half the flat size: {} vs {flat}",
            buf.len()
        );
    }

    #[test]
    fn bad_magic_rejected() {
        let err = read_trace(&b"NOPE"[..]).unwrap_err();
        assert!(matches!(err, ReadTraceError::BadMagic));
    }

    #[test]
    fn bad_version_rejected() {
        // The retired flat versions 1 and 2 fail at the header like any
        // unknown version, with a message that says to regenerate.
        for v in [1u32, 2, 99] {
            let mut buf = Vec::new();
            buf.extend_from_slice(b"GTRC");
            buf.extend_from_slice(&v.to_le_bytes());
            buf.extend_from_slice(&0u64.to_le_bytes());
            for err in [
                read_trace(buf.as_slice()).unwrap_err(),
                salvage_trace(&buf).unwrap_err(),
            ] {
                assert!(matches!(err, ReadTraceError::BadVersion(got) if got == v));
                assert!(err.to_string().contains("regenerate"), "{err}");
            }
        }
    }

    #[test]
    fn truncated_rejected() {
        let events = sample_events();
        let mut buf = Vec::new();
        write_trace(&mut buf, &events).expect("write");
        buf.truncate(buf.len() - 5);
        let err = read_trace(buf.as_slice()).unwrap_err();
        assert!(matches!(err, ReadTraceError::Truncated));
    }

    #[test]
    fn missing_footer_rejected() {
        let events = sample_events();
        let mut buf = Vec::new();
        write_trace(&mut buf, &events).expect("write");
        buf.truncate(buf.len() - 4); // exactly the file CRC
        let err = read_trace(buf.as_slice()).unwrap_err();
        assert!(matches!(err, ReadTraceError::Truncated));
    }

    #[test]
    fn flipped_bit_rejected_as_corruption() {
        let events = sample_events();
        let mut buf = Vec::new();
        write_trace(&mut buf, &events).expect("write");
        // Flip one bit inside the block payload: the block CRC pins it
        // before any event from that block is yielded.
        buf[HEADER_BYTES + 9] ^= 0x10;
        let err = read_trace(buf.as_slice()).unwrap_err();
        assert!(
            matches!(err, ReadTraceError::BadChecksum { .. }),
            "got {err}"
        );
    }

    #[test]
    fn corrupt_file_footer_rejected() {
        let events = sample_events();
        let mut buf = Vec::new();
        write_trace(&mut buf, &events).expect("write");
        let last = buf.len() - 1;
        buf[last] ^= 0xFF;
        let err = read_trace(buf.as_slice()).unwrap_err();
        assert!(matches!(err, ReadTraceError::BadChecksum { .. }));
    }

    #[test]
    fn corrupt_index_rejected() {
        let events = big_events(BLOCK_EVENTS + 10);
        let mut buf = Vec::new();
        write_trace(&mut buf, &events).expect("write");
        // Flip a bit inside the block-offset table (just before the
        // n_blocks/index-crc/file-crc tail).
        let idx = buf.len() - INDEX_TAIL_BYTES - 8;
        buf[idx] ^= 0x01;
        let err = read_trace(buf.as_slice()).unwrap_err();
        assert!(
            matches!(err, ReadTraceError::BadChecksum { .. }),
            "got {err}"
        );
    }

    #[test]
    fn file_trace_replays_with_name() {
        let events = sample_events();
        let mut buf = Vec::new();
        write_trace(&mut buf, &events).expect("write");
        let t = FileTrace::from_reader("fixture", buf.as_slice()).expect("read");
        assert_eq!(t.name(), "fixture");
        assert_eq!(t.collect::<Vec<_>>(), events);
    }

    #[test]
    fn empty_trace_round_trips() {
        let mut buf = Vec::new();
        write_trace(&mut buf, &[]).expect("write");
        assert!(read_trace(buf.as_slice()).expect("read").is_empty());
    }

    #[test]
    fn streaming_reader_matches_batch_reader() {
        let events = big_events(BLOCK_EVENTS + 13);
        let mut buf = Vec::new();
        write_trace(&mut buf, &events).expect("write");
        let mut r = TraceReader::new(buf.as_slice()).expect("header");
        assert_eq!(r.remaining(), events.len() as u64);
        let streamed: Vec<_> = r.by_ref().collect();
        assert_eq!(streamed, events);
        assert!(r.error().is_none(), "clean EOF");
        assert_eq!(r.remaining(), 0);
    }

    #[test]
    fn streaming_reader_reports_truncation_v3() {
        // Two blocks; cut inside the second. The first block's events
        // stream out intact, then the reader reports truncation.
        let events = big_events(BLOCK_EVENTS + 50);
        let mut buf = Vec::new();
        write_trace(&mut buf, &events).expect("write");
        let (first_frame, first_count) =
            codec::block_extent(&buf[HEADER_BYTES..]).expect("first block");
        assert_eq!(first_count, BLOCK_EVENTS);
        buf.truncate(HEADER_BYTES + first_frame + 7); // into block 2's frame
        let mut r = TraceReader::new(buf.as_slice()).expect("header");
        let streamed: Vec<_> = r.by_ref().collect();
        assert_eq!(streamed, events[..BLOCK_EVENTS]);
        assert!(matches!(r.error(), Some(ReadTraceError::Truncated)));
    }

    #[test]
    fn streaming_reader_verifies_footer_exactly_once() {
        let events = sample_events();
        let mut buf = Vec::new();
        write_trace(&mut buf, &events).expect("write");
        let mut r = TraceReader::new(buf.as_slice()).expect("header");
        let n = r.by_ref().count();
        assert_eq!(n, events.len());
        assert!(r.error().is_none());
        // Exhausting again must not re-read or invent errors.
        assert!(r.next().is_none());
        assert!(r.error().is_none());
    }

    #[test]
    fn streaming_reader_rejects_bad_header() {
        assert!(matches!(
            TraceReader::new(&b"XXXX"[..]).unwrap_err(),
            ReadTraceError::BadMagic
        ));
    }

    #[test]
    fn salvage_of_intact_file_recovers_everything() {
        let events = big_events(3 * BLOCK_EVENTS + 21);
        let mut buf = Vec::new();
        write_trace(&mut buf, &events).expect("write");
        let (rec, report) = salvage_trace(&buf).expect("v3 image");
        assert_eq!(rec, events);
        assert_eq!(report.blocks_lost, 0);
        assert_eq!(report.blocks_recovered, 4);
        assert_eq!(report.declared_events, events.len() as u64);
        assert!(report.used_index);
    }

    #[test]
    fn salvage_loses_only_the_corrupt_block() {
        let events = big_events(3 * BLOCK_EVENTS);
        let mut buf = Vec::new();
        write_trace(&mut buf, &events).expect("write");
        // Corrupt the middle block's payload.
        let (first, _) = codec::block_extent(&buf[HEADER_BYTES..]).expect("b0");
        buf[HEADER_BYTES + first + 20] ^= 0x40;
        let (rec, report) = salvage_trace(&buf).expect("v3 image");
        assert!(report.used_index);
        assert_eq!(report.blocks_recovered, 2);
        assert_eq!(report.blocks_lost, 1);
        assert_eq!(rec.len(), 2 * BLOCK_EVENTS);
        // Blocks 0 and 2 survive verbatim.
        assert_eq!(&rec[..BLOCK_EVENTS], &events[..BLOCK_EVENTS]);
        assert_eq!(&rec[BLOCK_EVENTS..], &events[2 * BLOCK_EVENTS..]);
    }

    #[test]
    fn salvage_of_truncated_file_keeps_the_prefix() {
        let events = big_events(3 * BLOCK_EVENTS);
        let mut buf = Vec::new();
        write_trace(&mut buf, &events).expect("write");
        let (first, _) = codec::block_extent(&buf[HEADER_BYTES..]).expect("b0");
        let (second, _) = codec::block_extent(&buf[HEADER_BYTES + first..]).expect("b1");
        // Truncation destroys the tail index; the scan keeps blocks 0–1.
        buf.truncate(HEADER_BYTES + first + second + 5);
        let (rec, report) = salvage_trace(&buf).expect("v3 image");
        assert!(!report.used_index);
        assert_eq!(report.blocks_recovered, 2);
        assert_eq!(report.blocks_lost, 1);
        assert_eq!(rec, events[..2 * BLOCK_EVENTS]);
    }

    #[test]
    fn salvage_rejects_non_v3_images() {
        assert!(matches!(
            salvage_trace(b"NOPE").unwrap_err(),
            ReadTraceError::BadMagic
        ));
    }

    #[test]
    fn error_display_nonempty() {
        for e in [
            ReadTraceError::BadMagic,
            ReadTraceError::BadVersion(2),
            ReadTraceError::Truncated,
            ReadTraceError::BadChecksum {
                stored: 1,
                computed: 2,
            },
            ReadTraceError::BadBlock(BlockError::Malformed),
        ] {
            assert!(!e.to_string().is_empty());
        }
    }
}
