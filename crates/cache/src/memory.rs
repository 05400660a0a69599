//! Main-memory model and the L2 dirty buffer (§2, §9).
//!
//! The base architecture charges the miss penalties of the ECL MIPS
//! RC6230's R6020 system bus: **143 cycles** for a clean L2 miss and
//! **237 cycles** for a dirty one (read after writing the victim back).
//!
//! §9 adds a single 32 W **dirty buffer** to the L2 data cache: on a dirty
//! miss the requested line is read *first* and the victim is written back
//! from the buffer afterwards, hiding the write-back unless a second miss
//! arrives while the buffer is still busy.

/// Timing model of main memory as seen by the secondary cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MainMemory {
    /// Cycles to service an L2 miss with a clean victim.
    pub clean_miss_cycles: u32,
    /// Cycles to service an L2 miss with a dirty victim (write-back then
    /// read), without a dirty buffer.
    pub dirty_miss_cycles: u32,
}

impl MainMemory {
    /// The base-architecture penalties (143 / 237 cycles).
    pub fn base() -> Self {
        MainMemory {
            clean_miss_cycles: 143,
            dirty_miss_cycles: 237,
        }
    }

    /// Cycles the victim write-back adds on a dirty miss.
    pub fn writeback_cycles(&self) -> u32 {
        self.dirty_miss_cycles - self.clean_miss_cycles
    }
}

impl Default for MainMemory {
    fn default() -> Self {
        MainMemory::base()
    }
}

/// Outcome of one L2 miss serviced by [`MemorySystem::service_miss`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MissService {
    /// Total cycles the requester stalls (including any wait for a busy
    /// dirty buffer).
    pub stall_cycles: u64,
    /// Portion of the stall spent waiting for the dirty buffer.
    pub dirty_buffer_wait: u64,
}

/// Main memory plus the optional single-line dirty buffer.
#[derive(Debug, Clone)]
pub struct MemorySystem {
    timing: MainMemory,
    /// `Some(busy_until)` when the dirty buffer is enabled.
    dirty_buffer: Option<u64>,
    /// Counts for reports.
    clean_misses: u64,
    dirty_misses: u64,
}

impl MemorySystem {
    /// Creates a memory system; `dirty_buffer` enables the §9 optimization.
    pub fn new(timing: MainMemory, dirty_buffer: bool) -> Self {
        MemorySystem {
            timing,
            dirty_buffer: dirty_buffer.then_some(0),
            clean_misses: 0,
            dirty_misses: 0,
        }
    }

    /// The configured timing.
    pub fn timing(&self) -> MainMemory {
        self.timing
    }

    /// Services an L2 miss beginning at cycle `now`; `dirty_victim` says
    /// whether the displaced L2 line must be written back.
    pub fn service_miss(&mut self, now: u64, dirty_victim: bool) -> MissService {
        if dirty_victim {
            self.dirty_misses += 1;
        } else {
            self.clean_misses += 1;
        }
        match &mut self.dirty_buffer {
            Some(busy_until) => {
                // Read-first: wait for the buffer if a previous write-back
                // is still in flight, then fetch at the clean penalty; the
                // victim drains in the background afterwards.
                let wait = busy_until.saturating_sub(now);
                let fetch_done = now + wait + self.timing.clean_miss_cycles as u64;
                if dirty_victim {
                    *busy_until = fetch_done + self.timing.writeback_cycles() as u64;
                }
                MissService {
                    stall_cycles: wait + self.timing.clean_miss_cycles as u64,
                    dirty_buffer_wait: wait,
                }
            }
            None => MissService {
                stall_cycles: if dirty_victim {
                    self.timing.dirty_miss_cycles as u64
                } else {
                    self.timing.clean_miss_cycles as u64
                },
                dirty_buffer_wait: 0,
            },
        }
    }

    /// Services a miss at the raw penalties, without engaging the dirty
    /// buffer. Used for background write-buffer drains: they do not compete
    /// for the single line buffer, which serves demand misses.
    pub fn service_miss_raw(&mut self, dirty_victim: bool) -> MissService {
        if dirty_victim {
            self.dirty_misses += 1;
        } else {
            self.clean_misses += 1;
        }
        MissService {
            stall_cycles: if dirty_victim {
                self.timing.dirty_miss_cycles as u64
            } else {
                self.timing.clean_miss_cycles as u64
            },
            dirty_buffer_wait: 0,
        }
    }

    /// Clean misses serviced so far.
    pub fn clean_misses(&self) -> u64 {
        self.clean_misses
    }

    /// Dirty misses serviced so far.
    pub fn dirty_misses(&self) -> u64 {
        self.dirty_misses
    }

    /// All demand misses serviced so far (clean + dirty).
    pub fn total_misses(&self) -> u64 {
        self.clean_misses + self.dirty_misses
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn base_penalties_match_paper() {
        let m = MainMemory::base();
        assert_eq!(m.clean_miss_cycles, 143);
        assert_eq!(m.dirty_miss_cycles, 237);
        assert_eq!(m.writeback_cycles(), 94);
        assert_eq!(MainMemory::default(), m);
    }

    #[test]
    fn without_dirty_buffer_full_penalties() {
        let mut ms = MemorySystem::new(MainMemory::base(), false);
        assert_eq!(ms.service_miss(0, false).stall_cycles, 143);
        assert_eq!(ms.service_miss(0, true).stall_cycles, 237);
        assert_eq!(ms.clean_misses(), 1);
        assert_eq!(ms.dirty_misses(), 1);
    }

    #[test]
    fn dirty_buffer_hides_writeback() {
        let mut ms = MemorySystem::new(MainMemory::base(), true);
        let s = ms.service_miss(1000, true);
        assert_eq!(s.stall_cycles, 143, "read first");
        assert_eq!(s.dirty_buffer_wait, 0);
    }

    #[test]
    fn dirty_buffer_busy_stalls_next_miss() {
        let mut ms = MemorySystem::new(MainMemory::base(), true);
        ms.service_miss(0, true); // fetch done 143, buffer busy until 237
        let s = ms.service_miss(150, false);
        assert_eq!(s.dirty_buffer_wait, 87, "waits for write-back drain");
        assert_eq!(s.stall_cycles, 87 + 143);
    }

    #[test]
    fn dirty_buffer_idle_after_drain() {
        let mut ms = MemorySystem::new(MainMemory::base(), true);
        ms.service_miss(0, true); // busy until 237
        let s = ms.service_miss(500, true);
        assert_eq!(s.dirty_buffer_wait, 0);
        assert_eq!(s.stall_cycles, 143);
    }

    #[test]
    fn clean_misses_never_touch_buffer_busy_time() {
        let mut ms = MemorySystem::new(MainMemory::base(), true);
        ms.service_miss(0, false); // clean: buffer stays free
        let s = ms.service_miss(10, true);
        assert_eq!(s.dirty_buffer_wait, 0);
    }
}
