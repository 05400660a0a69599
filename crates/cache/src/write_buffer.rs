//! Write buffers with drain timing (§2, §6, §9 of the paper).
//!
//! Two configurations appear in the study:
//!
//! * the base write-back architecture uses a **4-deep, 4 W-wide** buffer
//!   holding replaced dirty lines;
//! * the write-through policies use an **8-deep, 1 W-wide** buffer holding
//!   individual written words (which shrinks the I/O requirement fourfold
//!   and lets the buffer move inside the MMU chip, §6).
//!
//! The buffer drains autonomously into L2. Drain timing follows the paper's
//! L2 access model: a single write takes the full access time `T`, but a
//! *stream* of back-to-back writes overlaps the two latency cycles, so a
//! queued entry completes at `max(enqueue + T, previous + (T − 2))`. Entry
//! completion times are therefore fixed at enqueue time; the simulator asks
//! the buffer "when is there a free slot?" / "when are you empty?" /
//! "when has the entry matching this line drained?" and charges stall
//! cycles accordingly.

use gaas_trace::PhysAddr;

/// One queued write with its precomputed drain-completion time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct WbEntry {
    /// The written word (write-through) or the victim line base
    /// (write-back).
    pub addr: PhysAddr,
    /// Cycle at which the entry has fully drained into L2.
    pub completes_at: u64,
}

/// A FIFO write buffer that drains into the secondary cache.
///
/// # Examples
///
/// ```
/// use gaas_cache::WriteBuffer;
/// use gaas_trace::PhysAddr;
///
/// // The write-through configuration: 8 slots, 6-cycle L2 writes that
/// // stream at 4 cycles back-to-back.
/// let mut wb = WriteBuffer::new(8);
/// let first = wb.enqueue(0, PhysAddr::new(0x10), 6, 4, 0);
/// let second = wb.enqueue(1, PhysAddr::new(0x11), 6, 4, 0);
/// assert_eq!(first, 6, "isolated write takes the full access time");
/// assert_eq!(second, 10, "streamed write overlaps the 2-cycle latency");
/// assert_eq!(wb.empty_at(0), 10);
/// ```
#[derive(Debug, Clone)]
pub struct WriteBuffer {
    /// A fixed ring of `depth` slots; the live queue is the `len` slots
    /// from `head` on, oldest first, wrapping at the end.
    slots: Box<[WbEntry]>,
    head: usize,
    len: usize,
    /// Completion time of the most recently enqueued entry (streaming
    /// overlap reference), persisting after the queue empties.
    last_completion: u64,
    /// High-water mark of queued entries (for stats).
    peak: usize,
}

impl WriteBuffer {
    /// Creates an empty buffer with `depth` slots.
    ///
    /// # Panics
    ///
    /// Panics if `depth` is zero.
    pub fn new(depth: usize) -> Self {
        assert!(depth > 0, "write buffer needs at least one slot");
        WriteBuffer {
            slots: vec![WbEntry::default(); depth].into_boxed_slice(),
            head: 0,
            len: 0,
            last_completion: 0,
            peak: 0,
        }
    }

    /// Ring index of the `j`-th live entry (0 = oldest).
    #[inline]
    fn slot(&self, j: usize) -> usize {
        let (s, n) = (self.head + j, self.slots.len());
        if s >= n {
            s - n
        } else {
            s
        }
    }

    /// Retires entries whose drain completed by `now`.
    #[inline]
    pub fn advance(&mut self, now: u64) {
        // Completion times strictly increase in enqueue order, so the
        // drained entries are always a prefix of the queue.
        while self.len > 0 && self.slots[self.head].completes_at <= now {
            self.head = self.slot(1);
            self.len -= 1;
        }
    }

    /// Entries still queued at `now` (after retirement).
    pub fn occupancy(&mut self, now: u64) -> usize {
        self.advance(now);
        self.len
    }

    /// Cycle by which a slot is free, i.e. the earliest time an enqueue can
    /// be accepted. Equals `now` when the buffer is not full.
    #[inline]
    pub fn slot_free_at(&mut self, now: u64) -> u64 {
        self.advance(now);
        if self.len < self.slots.len() {
            now
        } else {
            // Full: the oldest entry frees the slot.
            self.slots[self.head].completes_at
        }
    }

    /// Cycle by which the buffer is completely empty (≥ `now`).
    #[inline]
    pub fn empty_at(&mut self, now: u64) -> u64 {
        self.advance(now);
        let youngest = self.entries().next_back();
        youngest.map_or(now, |e| e.completes_at.max(now))
    }

    /// Enqueues a write at `enq_time` with a drain occupancy given by
    /// `access_time` (full L2 access for an isolated write) and
    /// `stream_occupancy` (back-to-back occupancy, `access_time − 2` in the
    /// paper's model). `extra_penalty` charges an L2 write miss that must
    /// allocate from main memory before the drain can complete.
    ///
    /// The caller must have resolved slot availability first (via
    /// [`WriteBuffer::slot_free_at`]) — `enq_time` is assumed to be a legal
    /// enqueue time.
    ///
    /// Returns the completion time of the new entry.
    ///
    /// # Panics
    ///
    /// Panics (debug builds) if the buffer is full at `enq_time`.
    #[inline]
    pub fn enqueue(
        &mut self,
        enq_time: u64,
        addr: PhysAddr,
        access_time: u32,
        stream_occupancy: u32,
        extra_penalty: u32,
    ) -> u64 {
        self.advance(enq_time);
        debug_assert!(
            self.len < self.slots.len(),
            "enqueue into full write buffer"
        );
        let isolated = enq_time + access_time as u64;
        let streamed = self.last_completion + stream_occupancy as u64;
        let completes_at = isolated.max(streamed) + extra_penalty as u64;
        let tail = self.slot(self.len);
        self.slots[tail] = WbEntry { addr, completes_at };
        self.len += 1;
        self.last_completion = completes_at;
        self.peak = self.peak.max(self.len);
        completes_at
    }

    /// Associative lookup (§9 bypass with matching): the completion time of
    /// the *youngest* entry whose address falls in the line starting at
    /// `line_base` of length `line_words`. Flushing "all entries ahead,
    /// including the matched entry" means waiting exactly until that entry
    /// completes.
    pub fn match_line(&mut self, now: u64, line_base: PhysAddr, line_words: u32) -> Option<u64> {
        self.advance(now);
        let lo = line_base.word();
        let hi = lo + line_words as u64;
        self.entries()
            .rev()
            .find(|e| (lo..hi).contains(&e.addr.word()))
            .map(|e| e.completes_at)
    }

    /// High-water mark of simultaneously queued entries over the
    /// buffer's lifetime (how close the workload came to filling it).
    pub fn peak_depth(&self) -> usize {
        self.peak
    }

    /// Completion time of the most recently enqueued entry (0 before any
    /// enqueue). With the enqueue time, this bounds the L2 occupancy of
    /// the next drain: `busy = completion − max(enqueue, last_completion)`.
    #[inline]
    pub fn last_completion(&self) -> u64 {
        self.last_completion
    }

    /// True when no entries remain at `now`.
    pub fn is_empty(&mut self, now: u64) -> bool {
        self.occupancy(now) == 0
    }

    /// Iterates over the queued entries in FIFO order (oldest first),
    /// *without* retiring drained entries first. Because retirement is
    /// lazy, the live queue is always a suffix of the enqueue history —
    /// the invariant the differential oracle checks.
    pub fn entries(&self) -> impl DoubleEndedIterator<Item = &WbEntry> {
        (0..self.len).map(|j| &self.slots[self.slot(j)])
    }

    /// Removes and returns the most recently enqueued entry, if any.
    ///
    /// This is a *deliberate-corruption hook* for the differential
    /// oracle's seeded-bug canary (drop a pending write, assert the
    /// oracle notices); the architecture itself never loses buffer
    /// entries.
    pub fn drop_youngest(&mut self) -> Option<WbEntry> {
        self.len = self.len.checked_sub(1)?;
        Some(self.slots[self.slot(self.len)])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pa(w: u64) -> PhysAddr {
        PhysAddr::new(w)
    }

    #[test]
    fn isolated_write_takes_full_access_time() {
        let mut wb = WriteBuffer::new(8);
        let done = wb.enqueue(100, pa(1), 6, 4, 0);
        assert_eq!(done, 106);
        assert_eq!(wb.empty_at(100), 106);
        assert!(wb.is_empty(106));
    }

    #[test]
    fn streamed_writes_overlap_latency() {
        let mut wb = WriteBuffer::new(8);
        let d1 = wb.enqueue(0, pa(1), 6, 4, 0);
        let d2 = wb.enqueue(1, pa(2), 6, 4, 0);
        let d3 = wb.enqueue(2, pa(3), 6, 4, 0);
        assert_eq!(d1, 6);
        assert_eq!(d2, 10, "streams at T-2 = 4 per entry");
        assert_eq!(d3, 14);
    }

    #[test]
    fn gap_resets_streaming() {
        let mut wb = WriteBuffer::new(8);
        let d1 = wb.enqueue(0, pa(1), 6, 4, 0);
        assert_eq!(d1, 6);
        // Enqueue long after the first drained: isolated timing again.
        let d2 = wb.enqueue(50, pa(2), 6, 4, 0);
        assert_eq!(d2, 56);
    }

    #[test]
    fn extra_penalty_models_l2_write_miss() {
        let mut wb = WriteBuffer::new(8);
        let done = wb.enqueue(0, pa(1), 6, 4, 143);
        assert_eq!(done, 149);
    }

    #[test]
    fn slot_free_when_not_full_is_now() {
        let mut wb = WriteBuffer::new(2);
        wb.enqueue(0, pa(1), 6, 4, 0);
        assert_eq!(wb.slot_free_at(0), 0);
    }

    #[test]
    fn slot_free_when_full_waits_for_front() {
        let mut wb = WriteBuffer::new(2);
        wb.enqueue(0, pa(1), 6, 4, 0); // completes 6
        wb.enqueue(0, pa(2), 6, 4, 0); // completes 10
        assert_eq!(wb.slot_free_at(0), 6, "front entry frees the slot");
        // After the front drains the slot is immediately available.
        assert_eq!(wb.slot_free_at(6), 6);
        assert_eq!(wb.occupancy(6), 1);
    }

    #[test]
    fn fifo_retirement_order() {
        let mut wb = WriteBuffer::new(4);
        wb.enqueue(0, pa(1), 6, 4, 0); // 6
        wb.enqueue(0, pa(2), 6, 4, 0); // 10
        wb.enqueue(0, pa(3), 6, 4, 0); // 14
        assert_eq!(wb.occupancy(5), 3);
        assert_eq!(wb.occupancy(9), 2);
        assert_eq!(wb.occupancy(13), 1);
        assert_eq!(wb.occupancy(14), 0);
    }

    #[test]
    fn empty_at_is_monotone_with_now() {
        let mut wb = WriteBuffer::new(4);
        wb.enqueue(0, pa(1), 6, 4, 0);
        assert_eq!(wb.empty_at(0), 6);
        assert_eq!(wb.empty_at(20), 20, "already empty: now");
    }

    #[test]
    fn match_line_finds_youngest_in_line() {
        let mut wb = WriteBuffer::new(8);
        wb.enqueue(0, pa(100), 6, 4, 0); // 6
        wb.enqueue(0, pa(101), 6, 4, 0); // 10 — same 4W line (100..104)
        wb.enqueue(0, pa(200), 6, 4, 0); // 14
        let m = wb.match_line(0, pa(100), 4).expect("match");
        assert_eq!(m, 10, "youngest matching entry");
        assert!(wb.match_line(0, pa(104), 4).is_none());
    }

    #[test]
    fn match_line_ignores_drained_entries() {
        let mut wb = WriteBuffer::new(8);
        wb.enqueue(0, pa(100), 6, 4, 0); // completes 6
        assert!(wb.match_line(10, pa(100), 4).is_none());
    }

    #[test]
    #[should_panic(expected = "at least one slot")]
    fn zero_depth_rejected() {
        let _ = WriteBuffer::new(0);
    }
}
