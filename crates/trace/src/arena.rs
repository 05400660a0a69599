//! Shared trace arena: one materialization per benchmark × scale, many
//! cheap replay cursors.
//!
//! Every sweep cell historically re-generated its synthetic event streams
//! from scratch — the RNG draws dominate trace cost, and parallel workers
//! re-did identical generation work per cell. The arena materializes each
//! benchmark's scaled stream **once** behind a process-wide registry keyed
//! by `(benchmark name, seed, pid, scale bits)` and hands out
//! [`ArenaCursor`]s that replay the stream through the existing
//! [`Trace`]/`next_batch` contract byte-identically to direct generation.
//!
//! Since the v3 encoding ([`crate::codec`]) a materialized stream is held
//! as delta/varint-**compressed blocks** rather than the 10-byte-per-event
//! packed structure-of-arrays: sequential instruction fetch dominates real
//! streams, so addresses delta-encode to one byte most of the time and the
//! resident footprint shrinks 2.5–4×. Cursors decode one block at a time
//! into a reusable scratch buffer ahead of consumption, so replay stays a
//! batched memcpy and decode cost amortizes across every
//! [`Trace::next_batch`] refill the block serves.
//!
//! Concurrency: the registry lock is **not** held during generation, so
//! parallel workers warming the same trace may generate it twice; both
//! products are deterministic and identical, the first insert wins, and
//! nothing blocks behind a long generation. Oversized streams bypass the
//! arena and stream directly from the generator; since v3 the cap
//! ([`ARENA_TRACE_BYTE_CAP`]) is measured on the **compressed** size, so
//! streams whose packed form would have blown the old budget now fit.
//! Bypass traffic is counted ([`ArenaStats::bypassed`] /
//! [`ArenaStats::bypass_events`]) so sweeps can see what streamed outside
//! the arena.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use crate::addr::Pid;
use crate::bench_model::BenchmarkSpec;
use crate::codec::{self, pack_event, BLOCK_EVENTS};
use crate::event::{Trace, TraceEvent};
use crate::gen::TraceGenerator;

/// Compressed footprint (bytes) above which a stream is evicted from
/// materialization and replays directly from its generator. 256 MB per
/// trace keeps even a full-suite sweep at the repro scale comfortably
/// resident while bounding pathological scales; measured on the v3
/// compressed size, not the 10 B/event packed estimate.
pub const ARENA_TRACE_BYTE_CAP: u64 = 256 << 20;

/// Bytes per event of the uncompressed packed encoding (8-byte raw
/// address + 2-byte meta word); the yardstick compression is measured
/// against.
pub const PACKED_EVENT_BYTES: u64 = 10;

/// Pre-filter headroom: a stream whose packed estimate exceeds this many
/// multiples of [`ARENA_TRACE_BYTE_CAP`] cannot fit compressed (best
/// observed ratio ≈ 5×), so it bypasses without wasting a generation
/// pass. Streams between 1× and 8× attempt materialization and bail
/// mid-generation if the compressed size crosses the cap.
const BYPASS_ESTIMATE_FACTOR: u64 = 8;

/// One materialized event stream, held as concatenated v3 compressed
/// blocks ([`crate::codec`]).
///
/// Every block carries its own CRC32 over its header and payload, so a
/// long-lived arena can be audited for in-memory corruption — the
/// software analogue of the parity bits the paper puts on its GaAs SRAM
/// arrays. [`verify`] re-walks every block of every resident stream.
#[derive(Debug)]
struct ArenaData {
    name: String,
    /// Concatenated v3 blocks.
    blocks: Vec<u8>,
    /// Total events across all blocks.
    events: usize,
}

impl ArenaData {
    /// Materializes `spec` at `scale`, or `None` when the compressed
    /// stream grows past `byte_cap` (the caller falls back to direct
    /// generation). Memory while generating is bounded by
    /// `byte_cap` plus one block.
    fn generate(spec: &BenchmarkSpec, pid: Pid, scale: f64, byte_cap: u64) -> Option<Self> {
        let mut generator = TraceGenerator::new(spec, pid, scale);
        let mut blocks = Vec::new();
        let mut addrs = Vec::with_capacity(BLOCK_EVENTS);
        let mut meta = Vec::with_capacity(BLOCK_EVENTS);
        let mut buf = Vec::with_capacity(BLOCK_EVENTS);
        let mut events = 0usize;
        loop {
            buf.clear();
            if generator.next_batch(&mut buf, BLOCK_EVENTS) == 0 {
                break;
            }
            addrs.clear();
            meta.clear();
            for ev in &buf {
                let (a, m) = pack_event(ev);
                addrs.push(a);
                meta.push(m);
            }
            codec::encode_block(&mut blocks, &addrs, &meta);
            events += buf.len();
            if blocks.len() as u64 > byte_cap {
                return None;
            }
        }
        Some(ArenaData {
            name: spec.name.to_string(),
            blocks,
            events,
        })
    }

    /// True when every block still matches its checksum and the blocks
    /// consume the buffer exactly, holding exactly `events` events.
    fn intact(&self) -> bool {
        let (mut off, mut events) = (0, 0);
        while off < self.blocks.len() {
            match codec::verify_block(&self.blocks[off..]) {
                Ok((frame, count)) => {
                    off += frame;
                    events += count;
                }
                Err(_) => return false,
            }
        }
        events == self.events
    }
}

type ArenaKey = (&'static str, u64, u8, u64);

struct Registry {
    traces: Mutex<HashMap<ArenaKey, Arc<ArenaData>>>,
    /// Streams materialized from a generator (cache misses; double
    /// generation under a race counts each generation).
    generated: AtomicU64,
    /// Cursors served from an already-materialized stream.
    reused: AtomicU64,
    /// Cursor requests that bypassed the arena (oversized stream).
    bypassed: AtomicU64,
    /// Estimated events streamed outside the arena by bypassing cursors.
    bypass_events: AtomicU64,
}

fn registry() -> &'static Registry {
    static REGISTRY: OnceLock<Registry> = OnceLock::new();
    REGISTRY.get_or_init(|| Registry {
        traces: Mutex::new(HashMap::new()),
        generated: AtomicU64::new(0),
        reused: AtomicU64::new(0),
        bypassed: AtomicU64::new(0),
        bypass_events: AtomicU64::new(0),
    })
}

/// Arena usage counters and residency (process-wide; counters are
/// monotone until [`clear`], residency reflects the current registry).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ArenaStats {
    /// Streams materialized by running a generator to exhaustion.
    pub generated: u64,
    /// Cursors handed out from an already-materialized stream.
    pub reused: u64,
    /// Cursor requests served by a live generator because the stream was
    /// (or would have been) too large compressed.
    pub bypassed: u64,
    /// Estimated events those bypassing cursors streamed outside the
    /// arena.
    pub bypass_events: u64,
    /// Streams currently resident in the registry.
    pub resident_streams: u64,
    /// Events across all resident streams.
    pub resident_events: u64,
    /// Bytes the resident streams would occupy in the uncompressed
    /// packed encoding ([`PACKED_EVENT_BYTES`] per event).
    pub packed_bytes: u64,
    /// Bytes the resident streams actually occupy (v3 compressed).
    pub compressed_bytes: u64,
}

impl ArenaStats {
    /// Fraction of materializable cursor requests served without
    /// generation (`reused / (generated + reused)`; 0 when nothing was
    /// requested).
    pub fn hit_rate(&self) -> f64 {
        let total = self.generated + self.reused;
        if total == 0 {
            0.0
        } else {
            self.reused as f64 / total as f64
        }
    }

    /// Resident compression ratio (`packed_bytes / compressed_bytes`;
    /// 0 when nothing is resident).
    pub fn compression_ratio(&self) -> f64 {
        if self.compressed_bytes == 0 {
            0.0
        } else {
            self.packed_bytes as f64 / self.compressed_bytes as f64
        }
    }
}

/// Current arena usage counters and residency.
pub fn stats() -> ArenaStats {
    let r = registry();
    let (streams, events, compressed) = {
        let traces = r.traces.lock().unwrap_or_else(|e| e.into_inner());
        traces.values().fold((0u64, 0u64, 0u64), |(s, e, c), d| {
            (s + 1, e + d.events as u64, c + d.blocks.len() as u64)
        })
    };
    ArenaStats {
        generated: r.generated.load(Ordering::Relaxed),
        reused: r.reused.load(Ordering::Relaxed),
        bypassed: r.bypassed.load(Ordering::Relaxed),
        bypass_events: r.bypass_events.load(Ordering::Relaxed),
        resident_streams: streams,
        resident_events: events,
        packed_bytes: events * PACKED_EVENT_BYTES,
        compressed_bytes: compressed,
    }
}

/// Drops every materialized stream and zeroes the counters (tests and
/// memory-pressure hygiene; in-flight cursors keep their streams alive
/// through their `Arc`s).
pub fn clear() {
    let r = registry();
    r.traces.lock().unwrap_or_else(|e| e.into_inner()).clear();
    r.generated.store(0, Ordering::Relaxed);
    r.reused.store(0, Ordering::Relaxed);
    r.bypassed.store(0, Ordering::Relaxed);
    r.bypass_events.store(0, Ordering::Relaxed);
}

/// Result of an arena integrity audit (see [`verify`]).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ArenaAudit {
    /// Streams whose checksum was re-verified.
    pub checked: u64,
    /// Names of streams with a block that no longer matches its
    /// checksum, or whose blocks no longer add up to the stream
    /// (in-memory corruption).
    pub corrupt: Vec<String>,
}

impl ArenaAudit {
    /// True when every resident stream verified clean.
    pub fn clean(&self) -> bool {
        self.corrupt.is_empty()
    }
}

/// Re-verifies every block of every resident stream against the block's
/// CRC32 and reports the streams that fail. Chaos campaigns run this after
/// a soak to prove the shared arena was not silently corrupted while
/// dozens of crash/resume cycles replayed it.
pub fn verify() -> ArenaAudit {
    let r = registry();
    let streams: Vec<Arc<ArenaData>> = {
        let traces = r.traces.lock().unwrap_or_else(|e| e.into_inner());
        traces.values().cloned().collect()
    };
    let mut audit = ArenaAudit::default();
    for data in streams {
        audit.checked += 1;
        if !data.intact() {
            audit.corrupt.push(data.name.clone());
        }
    }
    audit
}

/// Estimated packed (uncompressed) footprint of one scaled stream, in
/// bytes.
fn estimated_packed_bytes(spec: &BenchmarkSpec, scale: f64) -> u64 {
    let events = spec.scaled_instructions(scale) as f64 * spec.refs_per_instruction();
    (events * PACKED_EVENT_BYTES as f64) as u64
}

/// Serves a cursor request from a live generator, counting the bypass.
fn bypass(spec: &BenchmarkSpec, pid: Pid, scale: f64) -> Box<dyn Trace> {
    let r = registry();
    r.bypassed.fetch_add(1, Ordering::Relaxed);
    r.bypass_events.fetch_add(
        estimated_packed_bytes(spec, scale) / PACKED_EVENT_BYTES,
        Ordering::Relaxed,
    );
    Box::new(TraceGenerator::new(spec, pid, scale))
}

/// Hands out a replay source for `spec` at `scale`: an [`ArenaCursor`]
/// over the shared materialized stream, or — when the stream cannot fit
/// under [`ARENA_TRACE_BYTE_CAP`] compressed — a direct
/// [`TraceGenerator`]. Either way the event stream is byte-identical to
/// direct generation.
pub fn cursor(spec: &BenchmarkSpec, pid: Pid, scale: f64) -> Box<dyn Trace> {
    if estimated_packed_bytes(spec, scale) > BYPASS_ESTIMATE_FACTOR * ARENA_TRACE_BYTE_CAP {
        return bypass(spec, pid, scale);
    }
    let r = registry();
    let key: ArenaKey = (spec.name, spec.seed, pid.raw(), scale.to_bits());
    let hit = {
        let traces = r.traces.lock().unwrap_or_else(|e| e.into_inner());
        traces.get(&key).cloned()
    };
    let data = match hit {
        Some(data) => {
            r.reused.fetch_add(1, Ordering::Relaxed);
            data
        }
        None => {
            // Generate outside the lock: a racing worker may duplicate the
            // work, but the products are deterministic and identical, and
            // no worker serializes behind another's generation.
            match ArenaData::generate(spec, pid, scale, ARENA_TRACE_BYTE_CAP) {
                Some(fresh) => {
                    let fresh = Arc::new(fresh);
                    r.generated.fetch_add(1, Ordering::Relaxed);
                    let mut traces = r.traces.lock().unwrap_or_else(|e| e.into_inner());
                    traces.entry(key).or_insert_with(|| fresh.clone()).clone()
                }
                // Compressed size crossed the cap mid-generation: stream
                // straight from a fresh generator instead.
                None => return bypass(spec, pid, scale),
            }
        }
    };
    Box::new(ArenaCursor::new(data))
}

/// A replay cursor over one materialized compressed stream.
///
/// Decodes one block at a time into a reusable scratch buffer of decoded
/// [`TraceEvent`]s and serves [`Trace::next_batch`] requests out of it
/// with a slice copy, so a 4096-event block amortizes its decode across
/// the ~16 scheduler refills it feeds. Corrupt in-memory blocks fail
/// decoding and **panic** (fail-stop): a materialized stream that no
/// longer parses means memory corruption, and simulating on garbage
/// would silently poison every downstream result.
#[derive(Debug, Clone)]
pub struct ArenaCursor {
    data: Arc<ArenaData>,
    /// Events already served.
    pos: usize,
    /// Byte offset of the next undecoded block in `data.blocks`.
    byte_off: usize,
    /// Decoded events of the current block.
    scratch: Vec<TraceEvent>,
    /// Cursor into `scratch`.
    scratch_pos: usize,
}

impl ArenaCursor {
    fn new(data: Arc<ArenaData>) -> Self {
        ArenaCursor {
            data,
            pos: 0,
            byte_off: 0,
            scratch: Vec::new(),
            scratch_pos: 0,
        }
    }

    /// Events remaining.
    pub fn remaining(&self) -> usize {
        self.data.events - self.pos
    }

    /// Decodes the next block into the scratch buffer. Caller ensures
    /// events remain.
    fn refill(&mut self) {
        self.scratch.clear();
        self.scratch_pos = 0;
        let bytes = &self.data.blocks[self.byte_off..];
        match codec::decode_block_events_unchecked(bytes, &mut self.scratch) {
            Ok(consumed) => self.byte_off += consumed,
            Err(e) => panic!(
                "arena stream '{}' corrupt at byte {}: {e} (in-memory corruption; fail-stop)",
                self.data.name, self.byte_off
            ),
        }
    }
}

impl Iterator for ArenaCursor {
    type Item = TraceEvent;

    fn next(&mut self) -> Option<TraceEvent> {
        if self.pos >= self.data.events {
            return None;
        }
        if self.scratch_pos >= self.scratch.len() {
            self.refill();
        }
        let ev = self.scratch[self.scratch_pos];
        self.scratch_pos += 1;
        self.pos += 1;
        Some(ev)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let n = self.remaining();
        (n, Some(n))
    }
}

impl Trace for ArenaCursor {
    fn name(&self) -> &str {
        &self.data.name
    }

    fn next_batch(&mut self, out: &mut Vec<TraceEvent>, max: usize) -> usize {
        let want = self.remaining().min(max);
        let mut served = 0;
        while served < want {
            if self.scratch_pos >= self.scratch.len() {
                // When the rest of the request can absorb the whole next
                // block, decode straight into the destination and skip the
                // scratch copy — with a consumer batch of one block
                // (the scheduler's refill size) every decode takes this
                // path.
                let bytes = &self.data.blocks[self.byte_off..];
                let (_, count) = codec::block_extent(bytes).unwrap_or_else(|e| {
                    panic!(
                        "arena stream '{}' corrupt at byte {}: {e} (in-memory corruption; fail-stop)",
                        self.data.name, self.byte_off
                    )
                });
                if count <= want - served {
                    match codec::decode_block_events_unchecked(bytes, out) {
                        Ok(consumed) => self.byte_off += consumed,
                        Err(e) => panic!(
                            "arena stream '{}' corrupt at byte {}: {e} (in-memory corruption; fail-stop)",
                            self.data.name, self.byte_off
                        ),
                    }
                    served += count;
                    continue;
                }
                self.refill();
            }
            let avail = self.scratch.len() - self.scratch_pos;
            let n = avail.min(want - served);
            out.extend_from_slice(&self.scratch[self.scratch_pos..self.scratch_pos + n]);
            self.scratch_pos += n;
            served += n;
        }
        self.pos += served;
        served
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bench_model::suite;

    #[test]
    fn cursor_replays_generator_exactly() {
        let spec = suite()[0].clone();
        let scale = 2e-4;
        let direct: Vec<TraceEvent> = TraceGenerator::new(&spec, Pid::new(0), scale).collect();
        let replay: Vec<TraceEvent> = cursor(&spec, Pid::new(0), scale).collect();
        assert_eq!(direct, replay);
    }

    #[test]
    fn second_cursor_reuses_the_materialized_stream() {
        let spec = suite()[1].clone();
        let scale = 1.1e-4; // unlikely to collide with other tests' keys
        let before = stats();
        let a: Vec<TraceEvent> = cursor(&spec, Pid::new(3), scale).collect();
        let b: Vec<TraceEvent> = cursor(&spec, Pid::new(3), scale).collect();
        let after = stats();
        assert_eq!(a, b);
        assert!(after.reused > before.reused, "second cursor must reuse");
    }

    #[test]
    fn oversized_stream_bypasses_the_arena() {
        // The largest suite member at full scale cannot fit even
        // compressed; it must come back as a live generator and be
        // counted as a bypass.
        let spec = suite()
            .iter()
            .max_by_key(|s| s.instructions)
            .expect("non-empty suite")
            .clone();
        assert!(estimated_packed_bytes(&spec, 1.0) > BYPASS_ESTIMATE_FACTOR * ARENA_TRACE_BYTE_CAP);
        let before = stats();
        let mut t = cursor(&spec, Pid::new(0), 1.0);
        assert!(t.next().is_some());
        let after = stats();
        assert!(after.bypassed > before.bypassed, "bypass must be counted");
        assert!(
            after.bypass_events > before.bypass_events,
            "bypassed events must be estimated"
        );
    }

    #[test]
    fn generation_bails_when_compressed_size_crosses_the_cap() {
        let spec = suite()[0].clone();
        // A byte cap of 1 forces the mid-generation bail immediately.
        assert!(ArenaData::generate(&spec, Pid::new(0), 1e-4, 1).is_none());
        // The real cap comfortably fits the test-scale stream.
        assert!(ArenaData::generate(&spec, Pid::new(0), 1e-4, ARENA_TRACE_BYTE_CAP).is_some());
    }

    #[test]
    fn materialized_streams_compress_at_least_two_fold() {
        // The tentpole acceptance: the v3 encoding must shrink the packed
        // 10 B/event footprint at least 2× on every suite stream.
        for spec in suite() {
            let data =
                ArenaData::generate(&spec, Pid::new(0), 1e-4, ARENA_TRACE_BYTE_CAP).expect("fits");
            let packed = data.events as u64 * PACKED_EVENT_BYTES;
            let compressed = data.blocks.len() as u64;
            assert!(
                compressed * 2 <= packed,
                "{}: {} events compress to {} bytes ({}x < 2x)",
                spec.name,
                data.events,
                compressed,
                packed as f64 / compressed as f64
            );
        }
    }

    #[test]
    fn audit_verifies_resident_streams() {
        let spec = suite()[2].clone();
        let scale = 1.3e-4; // unlikely to collide with other tests' keys
        let _ = cursor(&spec, Pid::new(5), scale);
        let audit = verify();
        assert!(audit.checked >= 1);
        assert!(
            audit.clean(),
            "fresh streams must verify: {:?}",
            audit.corrupt
        );
    }

    #[test]
    fn audit_detects_corrupted_stream() {
        let spec = suite()[3].clone();
        let mut data =
            ArenaData::generate(&spec, Pid::new(0), 1e-4, ARENA_TRACE_BYTE_CAP).expect("fits");
        assert!(data.intact());
        let mid = data.blocks.len() / 2;
        data.blocks[mid] ^= 1 << 7;
        assert!(!data.intact(), "a flipped bit must fail the checksum");
        data.blocks[mid] ^= 1 << 7;
        assert!(data.intact());
        // The second block's header (its count and payload length) and the
        // last block's trailer (its stored CRC) are covered too.
        let (first, _) = codec::block_extent(&data.blocks).expect("well-formed");
        let last = data.blocks.len() - 1;
        for (at, what) in [
            (first, "count"),
            (first + 4, "payload length"),
            (last, "trailer"),
        ] {
            for bit in [0, 7] {
                data.blocks[at] ^= 1 << bit;
                assert!(
                    !data.intact(),
                    "a flipped {what} bit {bit} must fail the audit"
                );
                data.blocks[at] ^= 1 << bit;
            }
        }
        assert!(data.intact());
        // A stream that lost its last block no longer adds up.
        let (mut off, mut last_start) = (0, 0);
        while off < data.blocks.len() {
            last_start = off;
            off += codec::block_extent(&data.blocks[off..])
                .expect("well-formed")
                .0;
        }
        data.blocks.truncate(last_start);
        assert!(!data.intact(), "a dropped block must fail the audit");
    }

    #[test]
    #[should_panic(expected = "corrupt")]
    fn cursor_fail_stops_on_corrupt_block() {
        let spec = suite()[4].clone();
        let mut data =
            ArenaData::generate(&spec, Pid::new(0), 1e-4, ARENA_TRACE_BYTE_CAP).expect("fits");
        // Truncate mid-block: structural validation fails even without a
        // checksum pass, and replay must halt rather than emit garbage.
        let cut = data.blocks.len() - 3;
        data.blocks.truncate(cut);
        let mut c = ArenaCursor::new(Arc::new(data));
        let mut out = Vec::new();
        loop {
            out.clear();
            if c.next_batch(&mut out, 512) == 0 {
                break;
            }
        }
    }

    #[test]
    fn batched_and_per_event_draining_agree() {
        let spec = suite()[5].clone();
        let scale = 1.7e-4;
        let per_event: Vec<TraceEvent> = cursor(&spec, Pid::new(1), scale).collect();
        let mut batched = Vec::new();
        let mut t = cursor(&spec, Pid::new(1), scale);
        let mut buf = Vec::new();
        loop {
            buf.clear();
            // 257 deliberately misaligns with the 4096-event blocks.
            if t.next_batch(&mut buf, 257) == 0 {
                break;
            }
            batched.extend_from_slice(&buf);
        }
        assert_eq!(per_event, batched);
    }

    #[test]
    fn stats_report_residency_and_compression() {
        let spec = suite()[6].clone();
        let scale = 1.9e-4;
        let _keep = cursor(&spec, Pid::new(2), scale);
        let s = stats();
        assert!(s.resident_streams >= 1);
        assert!(s.resident_events > 0);
        assert_eq!(s.packed_bytes, s.resident_events * PACKED_EVENT_BYTES);
        assert!(s.compressed_bytes > 0);
        assert!(
            s.compression_ratio() >= 2.0,
            "resident ratio {}",
            s.compression_ratio()
        );
    }

    #[test]
    fn hit_rate_is_well_defined() {
        assert_eq!(ArenaStats::default().hit_rate(), 0.0);
        let s = ArenaStats {
            generated: 1,
            reused: 3,
            ..Default::default()
        };
        assert!((s.hit_rate() - 0.75).abs() < 1e-12);
        assert_eq!(ArenaStats::default().compression_ratio(), 0.0);
    }
}
