//! Multiprogramming scheduler (§3).
//!
//! Replicates the paper's simulation discipline: up to `level` processes are
//! resident at once (the file-descriptor multiplexor of §3), scheduled
//! round-robin. A context switch is taken whenever the running process
//! executes a voluntary system call, or when its time slice expires. When a
//! benchmark terminates, the next benchmark in order is started; simulation
//! continues until all benchmarks have terminated.
//!
//! The scheduler hands the simulator one *instruction* at a time: the
//! instruction-fetch event plus the data event it carries (generators emit
//! the data reference immediately after its instruction), so context
//! switches never split an instruction from its data access.

use std::collections::VecDeque;

use gaas_trace::{AccessKind, Trace, TraceEvent};

/// Events pulled per [`Trace::next_batch`] call. Matches the arena's
/// compressed-block size (`gaas_trace::codec::BLOCK_EVENTS`) so every
/// arena refill decodes one whole block straight into this buffer with no
/// intermediate copy; the 64 KB per-process buffer streams through cache
/// sequentially. The delivered event stream is independent of this size
/// by the `next_batch` contract.
const TRACE_BATCH: usize = 4096;

/// A [`Trace`] consumed through a refillable batch buffer: one virtual
/// `next_batch` call per [`TRACE_BATCH`] events instead of one `next` per
/// event. The delivered stream is identical by the `next_batch` contract.
struct BatchedEvents {
    trace: Box<dyn Trace>,
    buf: Vec<TraceEvent>,
    pos: usize,
    exhausted: bool,
}

impl BatchedEvents {
    fn new(trace: Box<dyn Trace>) -> Self {
        BatchedEvents {
            trace,
            buf: Vec::with_capacity(TRACE_BATCH),
            pos: 0,
            exhausted: false,
        }
    }

    /// Refills the buffer from the underlying trace; true when events are
    /// available at `pos`.
    fn refill(&mut self) -> bool {
        if self.exhausted {
            return false;
        }
        self.buf.clear();
        self.pos = 0;
        if self.trace.next_batch(&mut self.buf, TRACE_BATCH) == 0 {
            self.exhausted = true;
            return false;
        }
        true
    }

    #[inline]
    fn next(&mut self) -> Option<TraceEvent> {
        if self.pos >= self.buf.len() && !self.refill() {
            return None;
        }
        let ev = self.buf[self.pos];
        self.pos += 1;
        Some(ev)
    }

    /// Consumes the next event only if it is a data reference (the
    /// peek-then-next idiom fused into one bounds/refill check).
    #[inline]
    fn next_if_data(&mut self) -> Option<TraceEvent> {
        if self.pos >= self.buf.len() && !self.refill() {
            return None;
        }
        let ev = self.buf[self.pos];
        if ev.kind.is_data() {
            self.pos += 1;
            Some(ev)
        } else {
            None
        }
    }
}

struct Process {
    name: String,
    events: BatchedEvents,
}

/// One instruction as delivered to the simulator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Instruction {
    /// The instruction-fetch event.
    pub ifetch: TraceEvent,
    /// The accompanying data reference, when the instruction is a
    /// load/store.
    pub data: Option<TraceEvent>,
}

/// A point-in-time summary of scheduler progress, captured at simulator
/// checkpoints (progress reporting, machine-check restart).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SchedSnapshot {
    /// Benchmarks that have terminated.
    pub completed: usize,
    /// Processes currently resident and runnable (including the one
    /// running).
    pub runnable: usize,
    /// Benchmarks still waiting for admission.
    pub waiting: usize,
    /// Voluntary-syscall switches taken so far.
    pub syscall_switches: u64,
    /// Time-slice switches taken so far.
    pub slice_switches: u64,
}

/// Round-robin multiprogramming scheduler over a set of traces.
///
/// # Examples
///
/// ```
/// use gaas_sim::sched::Scheduler;
/// use gaas_trace::{Pid, Trace, TraceEvent, VecTrace, VirtAddr};
///
/// let t = VecTrace::new("demo", vec![
///     TraceEvent::ifetch(VirtAddr::new(Pid::new(0), 0), 0),
/// ]);
/// let mut sched = Scheduler::new(vec![Box::new(t) as Box<dyn Trace>], 8, 500_000);
/// let instr = sched.next_instruction(0).expect("one instruction");
/// assert!(instr.data.is_none());
/// assert!(!sched.post_instruction(1, false), "slice not expired: no switch");
/// assert!(sched.next_instruction(1).is_none(), "workload exhausted");
/// ```
pub struct Scheduler {
    procs: Vec<Option<Process>>,
    run_queue: VecDeque<usize>,
    waiting: VecDeque<usize>,
    current: Option<usize>,
    slice_cycles: u64,
    slice_end: u64,
    syscall_switches: u64,
    slice_switches: u64,
    completed: Vec<String>,
}

impl Scheduler {
    /// Creates a scheduler over `traces` with at most `level` resident
    /// processes and the given time slice.
    ///
    /// # Panics
    ///
    /// Panics if `level` is zero.
    pub fn new(traces: Vec<Box<dyn Trace>>, level: usize, slice_cycles: u64) -> Self {
        assert!(level > 0, "multiprogramming level must be positive");
        let procs: Vec<Option<Process>> = traces
            .into_iter()
            .map(|t| {
                Some(Process {
                    name: t.name().to_string(),
                    events: BatchedEvents::new(t),
                })
            })
            .collect();
        let mut run_queue = VecDeque::new();
        let mut waiting = VecDeque::new();
        for i in 0..procs.len() {
            if i < level {
                run_queue.push_back(i);
            } else {
                waiting.push_back(i);
            }
        }
        Scheduler {
            procs,
            run_queue,
            waiting,
            current: None,
            slice_cycles,
            slice_end: 0,
            syscall_switches: 0,
            slice_switches: 0,
            completed: Vec::new(),
        }
    }

    /// Voluntary-syscall context switches taken so far.
    pub fn syscall_switches(&self) -> u64 {
        self.syscall_switches
    }

    /// Time-slice context switches taken so far.
    pub fn slice_switches(&self) -> u64 {
        self.slice_switches
    }

    /// Names of benchmarks that have terminated, in completion order.
    pub fn completed(&self) -> &[String] {
        &self.completed
    }

    /// Captures current progress (for simulator checkpoints).
    pub fn snapshot(&self) -> SchedSnapshot {
        SchedSnapshot {
            completed: self.completed.len(),
            runnable: self.run_queue.len() + usize::from(self.current.is_some()),
            waiting: self.waiting.len(),
            syscall_switches: self.syscall_switches,
            slice_switches: self.slice_switches,
        }
    }

    /// Delivers the next instruction at cycle `now`, or `None` when every
    /// benchmark has terminated.
    #[inline]
    pub fn next_instruction(&mut self, now: u64) -> Option<Instruction> {
        // Fast path: the running process has buffered events. Falls back to
        // the out-of-line slow path for refills, admissions and retirement.
        if let Some(idx) = self.current {
            let proc = self.procs[idx].as_mut().expect("scheduled process exists");
            let ev = &mut proc.events;
            if ev.pos < ev.buf.len() {
                let ifetch = ev.buf[ev.pos];
                ev.pos += 1;
                debug_assert_eq!(
                    ifetch.kind,
                    AccessKind::IFetch,
                    "traces start instructions with a fetch"
                );
                let data = if ev.pos < ev.buf.len() {
                    let d = ev.buf[ev.pos];
                    if d.kind.is_data() {
                        ev.pos += 1;
                        Some(d)
                    } else {
                        None
                    }
                } else {
                    ev.next_if_data() // batch boundary: refill first
                };
                return Some(Instruction { ifetch, data });
            }
        }
        self.next_instruction_slow(now)
    }

    /// The scheduling slow path: refills exhausted buffers, retires
    /// terminated benchmarks, admits waiting ones, and installs the next
    /// runnable process.
    #[cold]
    fn next_instruction_slow(&mut self, now: u64) -> Option<Instruction> {
        loop {
            // Ensure a current process.
            let idx = match self.current {
                Some(i) => i,
                None => {
                    let i = self.run_queue.pop_front()?;
                    self.current = Some(i);
                    self.slice_end = now + self.slice_cycles;
                    i
                }
            };

            let proc = self.procs[idx].as_mut().expect("scheduled process exists");
            match proc.events.next() {
                Some(ifetch) => {
                    debug_assert_eq!(
                        ifetch.kind,
                        AccessKind::IFetch,
                        "traces start instructions with a fetch"
                    );
                    let data = proc.events.next_if_data();
                    return Some(Instruction { ifetch, data });
                }
                None => {
                    // Benchmark terminated: retire it and admit the next
                    // waiting benchmark in order.
                    let name = self.procs[idx].take().expect("process exists").name;
                    self.completed.push(name);
                    self.current = None;
                    if let Some(next) = self.waiting.pop_front() {
                        self.run_queue.push_back(next);
                    }
                }
            }
        }
    }

    /// The cycle at which the current process's time slice expires.
    /// Constant while one process stays installed (it is re-armed on
    /// installation), so span-draining callers may cache it.
    #[inline]
    pub fn slice_end(&self) -> u64 {
        self.slice_end
    }

    /// Read-only view of the current process's buffered events and the
    /// cursor into them: `(events, pos)`. Empty when no process is
    /// installed. Span-draining callers step directly over this slice
    /// and report consumption via [`Scheduler::advance`], bypassing the
    /// per-instruction [`Scheduler::next_instruction`] round-trip.
    #[inline]
    pub fn current_span(&self) -> (&[TraceEvent], usize) {
        match self.current.and_then(|i| self.procs[i].as_ref()) {
            Some(p) => (&p.events.buf, p.events.pos),
            None => (&[], 0),
        }
    }

    /// Advances the current process's event cursor by `events` consumed
    /// directly off [`Scheduler::current_span`].
    #[inline]
    pub fn advance(&mut self, events: usize) {
        if let Some(p) = self.current.and_then(|i| self.procs[i].as_mut()) {
            p.events.pos += events;
            debug_assert!(p.events.pos <= p.events.buf.len());
        }
    }

    /// Reports the completion of the current instruction at cycle `now`;
    /// rotates the run queue on a voluntary syscall or slice expiry.
    /// Returns whether it rotated, i.e. whether this call took one
    /// context switch (the only place the switch totals change).
    #[inline]
    pub fn post_instruction(&mut self, now: u64, was_syscall: bool) -> bool {
        let Some(idx) = self.current else {
            return false;
        };
        if was_syscall {
            self.syscall_switches += 1;
        } else if now >= self.slice_end {
            self.slice_switches += 1;
        } else {
            return false;
        }
        self.run_queue.push_back(idx);
        self.current = None;
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gaas_trace::{Pid, VecTrace, VirtAddr};

    fn ev_i(pid: u8, w: u64) -> TraceEvent {
        TraceEvent::ifetch(VirtAddr::new(Pid::new(pid), w), 0)
    }

    fn ev_l(pid: u8, w: u64) -> TraceEvent {
        TraceEvent::load(VirtAddr::new(Pid::new(pid), w))
    }

    fn trace(name: &str, events: Vec<TraceEvent>) -> Box<dyn Trace> {
        Box::new(VecTrace::new(name, events))
    }

    #[test]
    fn delivers_instruction_with_its_data() {
        let t = trace("a", vec![ev_i(0, 0), ev_l(0, 100), ev_i(0, 1)]);
        let mut s = Scheduler::new(vec![t], 1, 1000);
        let i1 = s.next_instruction(0).expect("first");
        assert_eq!(i1.ifetch, ev_i(0, 0));
        assert_eq!(i1.data, Some(ev_l(0, 100)));
        let i2 = s.next_instruction(1).expect("second");
        assert_eq!(i2.ifetch, ev_i(0, 1));
        assert_eq!(i2.data, None);
        assert!(s.next_instruction(2).is_none());
        assert_eq!(s.completed(), ["a"]);
    }

    #[test]
    fn round_robin_on_slice_expiry() {
        let a = trace("a", vec![ev_i(0, 0), ev_i(0, 1)]);
        let b = trace("b", vec![ev_i(1, 0), ev_i(1, 1)]);
        let mut s = Scheduler::new(vec![a, b], 2, 10);
        let i1 = s.next_instruction(0).expect("a first");
        assert_eq!(i1.ifetch.addr.pid(), Pid::new(0));
        assert!(s.post_instruction(10, false), "slice expired: rotated");
        assert_eq!(s.slice_switches(), 1);
        let i2 = s.next_instruction(10).expect("b next");
        assert_eq!(i2.ifetch.addr.pid(), Pid::new(1));
    }

    #[test]
    fn syscall_forces_switch() {
        let a = trace("a", vec![ev_i(0, 0).with_syscall(), ev_i(0, 1)]);
        let b = trace("b", vec![ev_i(1, 0)]);
        let mut s = Scheduler::new(vec![a, b], 2, 1_000_000);
        let i1 = s.next_instruction(0).expect("a");
        assert!(i1.ifetch.syscall);
        assert!(s.post_instruction(1, true), "syscall: rotated");
        assert_eq!(s.syscall_switches(), 1);
        let i2 = s.next_instruction(1).expect("b");
        assert_eq!(i2.ifetch.addr.pid(), Pid::new(1));
    }

    #[test]
    fn no_switch_within_slice() {
        let a = trace("a", vec![ev_i(0, 0), ev_i(0, 1)]);
        let b = trace("b", vec![ev_i(1, 0)]);
        let mut s = Scheduler::new(vec![a, b], 2, 100);
        s.next_instruction(0);
        assert!(
            !s.post_instruction(1, false),
            "inside the slice: no rotation"
        );
        let i = s.next_instruction(1).expect("still a");
        assert_eq!(i.ifetch.addr.pid(), Pid::new(0));
        assert_eq!(s.slice_switches(), 0);
    }

    #[test]
    fn mp_level_admits_waiting_benchmarks_in_order() {
        let a = trace("a", vec![ev_i(0, 0)]);
        let b = trace("b", vec![ev_i(1, 0)]);
        let c = trace("c", vec![ev_i(2, 0)]);
        let mut s = Scheduler::new(vec![a, b, c], 2, 1000);
        // Level 2: a and b resident; c waits.
        let mut pids = Vec::new();
        while let Some(i) = s.next_instruction(0) {
            pids.push(i.ifetch.addr.pid().raw());
            s.post_instruction(0, true); // force rotation each instruction
        }
        assert_eq!(pids, vec![0, 1, 2], "c admitted after a terminates");
        assert_eq!(s.completed(), ["a", "b", "c"]);
    }

    #[test]
    fn all_instructions_delivered_exactly_once() {
        let mk =
            |pid: u8, n: u64| trace(&format!("p{pid}"), (0..n).map(|w| ev_i(pid, w)).collect());
        let mut s = Scheduler::new(vec![mk(0, 7), mk(1, 5), mk(2, 3)], 2, 2);
        let mut count = 0;
        let mut now = 0;
        while let Some(i) = s.next_instruction(now) {
            count += 1;
            now += 1;
            s.post_instruction(now, i.ifetch.syscall);
        }
        assert_eq!(count, 15);
        assert_eq!(s.completed().len(), 3);
    }

    #[test]
    fn snapshot_tracks_progress() {
        let a = trace("a", vec![ev_i(0, 0)]);
        let b = trace("b", vec![ev_i(1, 0)]);
        let c = trace("c", vec![ev_i(2, 0)]);
        let mut s = Scheduler::new(vec![a, b, c], 2, 1000);
        let snap = s.snapshot();
        assert_eq!(snap.completed, 0);
        assert_eq!(snap.runnable, 2);
        assert_eq!(snap.waiting, 1);
        let mut now = 0;
        while let Some(i) = s.next_instruction(now) {
            now += 1;
            s.post_instruction(now, i.ifetch.syscall);
        }
        let end = s.snapshot();
        assert_eq!(end.completed, 3);
        assert_eq!(end.runnable, 0);
        assert_eq!(end.waiting, 0);
    }

    #[test]
    fn empty_workload_yields_nothing() {
        let mut s = Scheduler::new(vec![], 4, 100);
        assert!(s.next_instruction(0).is_none());
    }

    #[test]
    fn empty_trace_terminates_immediately() {
        let a = trace("empty", vec![]);
        let b = trace("b", vec![ev_i(1, 0)]);
        let mut s = Scheduler::new(vec![a, b], 1, 100);
        let i = s.next_instruction(0).expect("b runs");
        assert_eq!(i.ifetch.addr.pid(), Pid::new(1));
        assert_eq!(s.completed(), ["empty"]);
    }

    #[test]
    #[should_panic(expected = "level must be positive")]
    fn zero_level_rejected() {
        let _ = Scheduler::new(vec![], 0, 100);
    }
}
