//! The CMP engine: N cores' private L1 front ends over the shared L2.
//!
//! [`CmpSimulator`] owns N [`gaas_sim::Core`]s — the single-CPU
//! simulator's own per-core pipeline (L1-I/L1-D, TLBs, write buffer,
//! timing and functional clocks, counters, memos) — in front of one
//! shared [`gaas_sim::Uncore`] (the L2 arrays, main-memory system, page
//! mapper), each core with its own scheduler. It keeps the L1-D copies
//! coherent with a directory-filtered MESI invalidation protocol (see
//! [`crate::mesi`], [`crate::directory`]) that plugs into the pipeline
//! through the [`gaas_sim::Coherence`] hooks.
//!
//! ## The 1-core identity anchor
//!
//! A 1-core CMP run is **byte-identical** to [`gaas_sim::Simulator`] on
//! the same configuration and workload (test-enforced), by
//! construction: it steps the same [`gaas_sim::Core`] code with the
//! same [`gaas_sim::NoCoherence`] hooks, and every coherence action is
//! gated on a second core existing. That identity pins all CMP results
//! to the validated single-CPU model: whatever a multi-core run shows
//! beyond the 1-core anchor is attributable to sharing, not to engine
//! drift.
//!
//! Multi-core runs keep the pipeline's same-line and same-page memos: a
//! remote invalidation clears the victim core's load memo (see
//! [`gaas_sim::Core::invalidate_d_line`]). With the coherence oracle on,
//! the cores step through the instrumented instantiation, which never
//! reads the memos, so every load hit reaches the oracle.
//!
//! ## Coherence charging
//!
//! Coherence costs are charged to the requesting core's *timing* clock
//! (`now`) and the dedicated `coherence_stall_cycles` counter — never to
//! the functional clock, which must keep scheduling decisions identical
//! across timing variants:
//!
//! * a miss or upgrade that involves a remote copy occupies the snoop
//!   bus ([`gaas_mcm::SnoopBus`]): bus wait + `snoop_bus_cycles`;
//! * a remote Modified owner supplies the line cache-to-cache
//!   (`c2c_transfer_cycles`, owner demotes M→S, dirty data lands in
//!   L2-D);
//! * each remote copy invalidated by a store costs `invalidate_cycles`.
//!
//! Misses with *no* remote copies are filtered by the directory and
//! never touch the bus: a disjoint multiprogrammed workload generates
//! zero coherence traffic at any core count.
//!
//! L1-I caches are excluded from the protocol: instruction fetches are
//! read-only and the workload model never writes code pages, so
//! instruction lines cannot go stale.

use gaas_mcm::SnoopBus;
use gaas_sim::config::{ConfigError, SimConfig};
use gaas_sim::cpi::{Counters, ProcCounters};
use gaas_sim::sched::{Instruction, Scheduler};
use gaas_sim::sim::CANCEL_CHECK_INTERVAL;
use gaas_sim::{
    CancelToken, Coherence, Core, NoCoherence, SimError, SimResult, Termination, Trace, Uncore,
    MAX_CORES,
};
use gaas_trace::{PhysAddr, Pid};

use crate::directory::Directory;
use crate::mesi::{next_state, MesiEvent, MesiState};
use crate::oracle::CoherenceOracle;

/// Result of a CMP run: the merged [`SimResult`] plus the per-core
/// counter breakdown (warm-up already excluded from both).
#[derive(Debug, Clone)]
pub struct CmpResult {
    /// Merged result over all cores; for a 1-core configuration this is
    /// byte-identical to the single-CPU simulator's result.
    pub result: SimResult,
    /// Per-core counters, index = core id.
    pub per_core: Vec<Counters>,
}

/// The protocol state every core shares: the directory, the snoop bus,
/// the optional oracle and the coherence costs.
struct Protocol {
    dir: Directory,
    bus: SnoopBus,
    oracle: Option<CoherenceOracle>,
    snoop_bus_cycles: u64,
    c2c_cycles: u64,
    inv_cycles: u64,
}

/// The chip-multiprocessor simulator (see the module docs).
pub struct CmpSimulator {
    cfg: SimConfig,
    cores: Vec<Core>,
    ux: Uncore,
    proto: Protocol,
    cancel: Option<CancelToken>,
}

impl CmpSimulator {
    /// Builds a CMP simulator for `cfg`. Accepts non-CMP configurations
    /// too (`cmp.enabled()` false): that is how the identity tests run
    /// the same config through both engines.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] when the configuration is invalid, or
    /// uses a feature the CMP engine does not implement (fault
    /// injection, telemetry, checkpointing, seeded bugs — the same set
    /// `SimConfig::validate` rejects for CMP-enabled configurations).
    pub fn new(cfg: SimConfig) -> Result<Self, ConfigError> {
        cfg.validate()?;
        // For CMP-enabled configs validate() already rejects these; a
        // plain 1-core config could still carry them, and this engine
        // would silently ignore them — refuse instead.
        if cfg.fault.enabled() {
            return Err(ConfigError::CmpWithFaultInjection);
        }
        if cfg.telemetry.enabled {
            return Err(ConfigError::CmpWithTelemetry);
        }
        if cfg.checkpoint_interval != 0 {
            return Err(ConfigError::CmpWithCheckpointing);
        }
        if cfg.diffcheck.seeded_bug.is_some() {
            return Err(ConfigError::CmpWithSeededBug);
        }
        let n = cfg.cmp.cores as usize;
        let cores = (0..n)
            .map(|_| Core::new(&cfg))
            .collect::<Result<Vec<_>, ConfigError>>()?;
        Ok(CmpSimulator {
            cores,
            ux: Uncore::new(&cfg)?,
            proto: Protocol {
                dir: Directory::new(),
                bus: SnoopBus::new(cfg.cmp.snoop_bus_cycles),
                oracle: cfg.diffcheck.enabled.then(|| CoherenceOracle::new(n)),
                snoop_bus_cycles: cfg.cmp.snoop_bus_cycles as u64,
                c2c_cycles: cfg.cmp.c2c_transfer_cycles as u64,
                inv_cycles: cfg.cmp.invalidate_cycles as u64,
            },
            cancel: None,
            cfg,
        })
    }

    /// Installs a cooperative-cancellation token (same contract as the
    /// single-CPU simulator's).
    pub fn set_cancel_token(&mut self, token: CancelToken) {
        self.cancel = Some(token);
    }

    /// Runs `per_core` workloads (one trace list per core) to
    /// completion, discarding the statistics of the first
    /// `warmup_instructions` instructions *summed over all cores*.
    ///
    /// Cores interleave by functional-clock order (earliest `fnow`
    /// executes next; ties resolve to the lowest core id), which makes
    /// the interleaving deterministic and independent of timing knobs —
    /// the same property the single-CPU scheduler has.
    ///
    /// # Errors
    ///
    /// [`SimError::Cancelled`] when the token fires, and
    /// [`SimError::Coherence`] when the coherence oracle (enabled via
    /// `diffcheck.enabled`) observes an invariant violation.
    ///
    /// # Panics
    ///
    /// Panics when `per_core.len()` differs from the configured core
    /// count.
    pub fn run_warmed(
        mut self,
        per_core: Vec<Vec<Box<dyn Trace>>>,
        warmup_instructions: u64,
    ) -> Result<CmpResult, SimError> {
        assert_eq!(
            per_core.len(),
            self.cores.len(),
            "one trace list per configured core"
        );
        let level = self.cfg.mp.level;
        let slice = self.cfg.mp.time_slice_cycles;
        let mut scheds: Vec<Scheduler> = per_core
            .into_iter()
            .map(|traces| Scheduler::new(traces, level, slice))
            .collect();
        let mut done = vec![false; self.cores.len()];

        let mut total_instructions = 0u64;
        let mut warm_snapshot: Option<Vec<Counters>> = None;
        let mut next_warm = if warmup_instructions > 0 {
            warmup_instructions
        } else {
            u64::MAX
        };
        let budget_limit = self.cfg.instruction_budget.unwrap_or(u64::MAX);
        let mut next_cancel_check = if self.cancel.is_some() {
            CANCEL_CHECK_INTERVAL
        } else {
            u64::MAX
        };
        let mut termination = Termination::Completed;
        let mut next_poll = next_warm.min(budget_limit).min(next_cancel_check);
        // Every coherence action is gated on a second core existing, so a
        // 1-core run never touches the directory, the bus, the MESI
        // counters, or the oracle (the identity anchor).
        let multi = self.cores.len() > 1;
        let oracle_on = multi && self.proto.oracle.is_some();

        loop {
            // Next core by functional-clock order, lowest id on ties
            // (degenerates to strictly sequential execution at 1 core).
            let mut active = usize::MAX;
            let mut best = u64::MAX;
            for (i, core) in self.cores.iter().enumerate() {
                if !done[i] && core.fnow() < best {
                    best = core.fnow();
                    active = i;
                }
            }
            if active == usize::MAX {
                break;
            }
            let c = active;
            let Some(instr) = scheds[c].next_instruction(best) else {
                done[c] = true;
                continue;
            };
            if !multi {
                self.cores[c].step_instruction::<false, false, _>(
                    &mut self.ux,
                    &mut NoCoherence,
                    &instr,
                );
            } else if oracle_on {
                self.step_shared::<true>(c, &instr);
            } else {
                self.step_shared::<false>(c, &instr);
            }
            let fnow = self.cores[c].fnow();
            scheds[c].post_instruction(fnow, instr.ifetch.syscall);
            total_instructions += 1;

            if oracle_on {
                if let Some(err) = self.take_violation() {
                    return Err(err);
                }
            }
            if total_instructions >= next_poll {
                if total_instructions >= next_cancel_check {
                    next_cancel_check = total_instructions + CANCEL_CHECK_INTERVAL;
                    if self.cancel.as_ref().is_some_and(CancelToken::is_cancelled) {
                        return Err(SimError::Cancelled);
                    }
                }
                if total_instructions >= next_warm {
                    warm_snapshot = Some(self.cores.iter().map(|core| *core.counters()).collect());
                    next_warm = u64::MAX;
                }
                if total_instructions >= budget_limit {
                    termination = Termination::BudgetExhausted;
                    break;
                }
                next_poll = next_warm.min(budget_limit).min(next_cancel_check);
            }
        }

        for (core, sched) in self.cores.iter_mut().zip(&scheds) {
            let counters = core.counters_mut();
            counters.syscall_switches = sched.syscall_switches();
            counters.slice_switches = sched.slice_switches();
            debug_assert_eq!(
                core.now(),
                core.counters().total_cycles(),
                "per-core cycle accounting must balance"
            );
        }
        let per_core: Vec<Counters> = self
            .cores
            .iter()
            .enumerate()
            .map(|(i, core)| match &warm_snapshot {
                Some(snaps) => core.counters().since(&snaps[i]),
                None => *core.counters(),
            })
            .collect();
        let merged = per_core.iter().fold(Counters::new(), |acc, c| acc.accum(c));

        // Per-process stats merged by PID across cores (a benchmark runs
        // on exactly one core, but the shared pseudo-process appears on
        // all of them).
        let mut merged_pp: Vec<ProcCounters> = Vec::new();
        for core in &self.cores {
            for (idx, p) in core.per_proc().iter().enumerate() {
                if merged_pp.len() <= idx {
                    merged_pp.resize(idx + 1, ProcCounters::default());
                }
                let m = &mut merged_pp[idx];
                m.instructions += p.instructions;
                m.cycles += p.cycles;
                m.loads += p.loads;
                m.stores += p.stores;
                m.l1i_misses += p.l1i_misses;
                m.l1d_misses += p.l1d_misses;
                m.l2_misses += p.l2_misses;
            }
        }
        let per_process = merged_pp
            .iter()
            .enumerate()
            .filter(|(_, p)| p.instructions > 0 || p.loads > 0 || p.stores > 0)
            .map(|(i, p)| (Pid::new(i as u8), *p))
            .collect();
        let completed = scheds
            .iter()
            .flat_map(|sched| sched.completed().iter().cloned())
            .collect();

        crate::record_run(&merged, &self.proto.bus);
        let result = SimResult {
            config: self.cfg.clone(),
            counters: merged,
            completed,
            per_process,
            termination,
            checkpoints: Vec::new(),
        };
        Ok(CmpResult { result, per_core })
    }

    /// Accesses the coherence oracle has checked so far (`None` when the
    /// oracle is disabled).
    pub fn oracle_checked(&self) -> Option<u64> {
        self.proto.oracle.as_ref().map(CoherenceOracle::checked)
    }

    fn take_violation(&mut self) -> Option<SimError> {
        let v = self.proto.oracle.as_ref()?.violation()?.clone();
        Some(SimError::Coherence {
            core: v.core,
            cycle: self.cores[v.core as usize].now(),
            detail: v.detail,
        })
    }

    /// Steps core `c` through one instruction with the MESI hooks, the
    /// other cores reachable as remotes.
    fn step_shared<const HOOKS: bool>(&mut self, c: usize, instr: &Instruction) {
        let (below, rest) = self.cores.split_at_mut(c);
        let (core, above) = rest.split_first_mut().expect("active core exists");
        let mut snoop = Snoop {
            proto: &mut self.proto,
            c,
            below,
            above,
        };
        core.step_instruction::<HOOKS, false, _>(&mut self.ux, &mut snoop, instr);
    }
}

/// The protocol as seen by the stepping core `c`: the shared state plus
/// every other core, by id.
struct Snoop<'a> {
    proto: &'a mut Protocol,
    c: usize,
    /// Cores `0..c`.
    below: &'a mut [Core],
    /// Cores `c + 1..`.
    above: &'a mut [Core],
}

impl Snoop<'_> {
    /// Every core id but the stepping core's.
    fn remotes(&self) -> impl Iterator<Item = usize> {
        let c = self.c;
        (0..self.below.len() + 1 + self.above.len()).filter(move |&m| m != c)
    }

    fn remote(&mut self, m: usize) -> &mut Core {
        if m < self.c {
            &mut self.below[m]
        } else {
            &mut self.above[m - self.c - 1]
        }
    }

    /// Collects the healed remote sharers of `line` (cores other than
    /// `c` whose L1-D actually holds it).
    fn remote_sharers(
        &mut self,
        line: PhysAddr,
    ) -> ([(usize, MesiState); MAX_CORES as usize], usize) {
        let mut remotes = [(0usize, MesiState::Invalid); MAX_CORES as usize];
        let mut nr = 0;
        for m in self.remotes() {
            let resident = self.remote(m).l1d().array().contains(line);
            let st = self.proto.dir.heal(line, m, resident);
            if st != MesiState::Invalid {
                remotes[nr] = (m, st);
                nr += 1;
            }
        }
        (remotes, nr)
    }
}

impl Coherence for Snoop<'_> {
    type Prior = MesiState;

    fn before_store(&mut self, core: &Core, line: PhysAddr) -> MesiState {
        let resident = core.l1d().array().contains(line);
        self.proto.dir.heal(line, self.c, resident)
    }

    /// MESI bookkeeping + cost for a store by the stepping core to `line`
    /// at time `t0` (`prev_local` read before the array changed).
    fn store(
        &mut self,
        core: &mut Core,
        ux: &mut Uncore,
        t0: u64,
        line: PhysAddr,
        prev_local: MesiState,
    ) -> u64 {
        let c = self.c;
        let (remotes, nr) = self.remote_sharers(line);
        let mut charge = 0u64;
        // The directory filters: only stores that must reach another
        // core's cache (invalidation round) or announce an upgrade of a
        // Shared copy occupy the bus. Stores hitting a local M/E line
        // are silent, and store misses with no sharers are satisfied by
        // the L2 write path alone.
        if nr > 0 || prev_local == MesiState::Shared {
            let g = self.proto.bus.transact(c as u32, t0);
            charge += g.wait + self.proto.snoop_bus_cycles;
            for &(m, st) in &remotes[..nr] {
                debug_assert!(
                    next_state(st, MesiEvent::RemoteWrite).is_ok(),
                    "remote write is legal in every valid state"
                );
                let evicted = self.remote(m).invalidate_d_line(line);
                if let Some(victim) = evicted {
                    core.counters_mut().invalidations += 1;
                    self.remote(m).counters_mut().mesi_to_i += 1;
                    charge += self.proto.inv_cycles;
                    if victim.dirty {
                        // A Modified copy's data is flushed to L2-D as
                        // part of the invalidation.
                        ux.l2_dirty_d(line);
                    }
                }
                self.proto.dir.set(line, m, MesiState::Invalid);
                if self.proto.oracle.is_some() {
                    let still = self.remote(m).l1d().array().contains(line);
                    if let Some(o) = self.proto.oracle.as_mut() {
                        o.note_invalidate(m, line, still);
                    }
                }
            }
            if prev_local == MesiState::Shared {
                core.counters_mut().upgrade_misses += 1;
            }
        }
        // Final local state: Modified when the line is resident after
        // the store (hit, or write-allocate fill); a non-allocating
        // store miss leaves it Invalid while still having invalidated
        // the remote copies.
        let resident = core.l1d().array().contains(line);
        let new_local = if resident {
            MesiState::Modified
        } else {
            MesiState::Invalid
        };
        if resident && prev_local != MesiState::Modified {
            core.counters_mut().mesi_to_m += 1;
        }
        self.proto.dir.set(line, c, new_local);
        if self.proto.oracle.is_some() {
            // SWMR: after the invalidation round no other core may hold
            // the line, whatever state the directory claims.
            let mut offenders = [0usize; MAX_CORES as usize];
            let mut no = 0;
            for m in self.remotes() {
                if self.remote(m).l1d().array().contains(line) {
                    offenders[no] = m;
                    no += 1;
                }
            }
            if let Some(o) = self.proto.oracle.as_mut() {
                o.note_store(c, line);
                o.check_swmr(c, line, &offenders[..no]);
            }
        }
        core.counters_mut().coherence_stall_cycles += charge;
        charge
    }

    /// MESI bookkeeping + cost for a load miss that just filled `line`
    /// on the stepping core at time `t0`.
    fn load_fill(&mut self, core: &mut Core, ux: &mut Uncore, t0: u64, line: PhysAddr) -> u64 {
        let c = self.c;
        let (remotes, nr) = self.remote_sharers(line);
        let mut charge = 0u64;
        if nr > 0 {
            // Remote copies exist: the read goes on the snoop bus so the
            // owners can demote (and a Modified owner can supply).
            let g = self.proto.bus.transact(c as u32, t0);
            charge += g.wait + self.proto.snoop_bus_cycles;
            for &(m, st) in &remotes[..nr] {
                match st {
                    MesiState::Modified => {
                        core.counters_mut().c2c_transfers += 1;
                        charge += self.proto.c2c_cycles;
                        // The owner's writeback lands in the shared L2-D.
                        ux.l2_dirty_d(line);
                        let ns = next_state(st, MesiEvent::RemoteRead)
                            .expect("M -> RemoteRead is legal");
                        self.proto.dir.set(line, m, ns);
                        self.remote(m).counters_mut().mesi_to_s += 1;
                    }
                    MesiState::Exclusive => {
                        let ns = next_state(st, MesiEvent::RemoteRead)
                            .expect("E -> RemoteRead is legal");
                        self.proto.dir.set(line, m, ns);
                        self.remote(m).counters_mut().mesi_to_s += 1;
                    }
                    MesiState::Shared => {}
                    MesiState::Invalid => unreachable!("healed sharers are valid"),
                }
            }
        }
        let fill = if nr > 0 {
            MesiEvent::FillShared
        } else {
            MesiEvent::FillExclusive
        };
        let ns = next_state(MesiState::Invalid, fill).expect("fill from I is legal");
        self.proto.dir.set(line, c, ns);
        match ns {
            MesiState::Shared => core.counters_mut().mesi_to_s += 1,
            MesiState::Exclusive => core.counters_mut().mesi_to_e += 1,
            _ => unreachable!("fills produce E or S"),
        }
        if let Some(o) = self.proto.oracle.as_mut() {
            o.note_fill(c, line);
        }
        core.counters_mut().coherence_stall_cycles += charge;
        charge
    }

    fn load_hit(&mut self, _: &Core, line: PhysAddr) {
        if let Some(o) = self.proto.oracle.as_mut() {
            o.check_load_hit(self.c, line);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gaas_sim::{CmpConfig, DiffCheckConfig, TraceEvent, VirtAddr, WritePolicy};
    use gaas_trace::VecTrace;

    /// A data word both cores address through the same page table entry.
    fn shared(word: u64) -> VirtAddr {
        VirtAddr::new(Pid::new(7), 0x10000 + word)
    }

    fn code(pid: u8, word: u64) -> VirtAddr {
        VirtAddr::new(Pid::new(pid), word)
    }

    /// Core 0 loads X, core 1 stores `store_to`, then core 0 loads X
    /// again from the same fetch line. Functional-clock order runs core
    /// 1's single instruction between core 0's two (core 0's cold misses
    /// put its clock far ahead).
    fn load_store_load(policy: WritePolicy, store_to: u64, oracle: bool) -> CmpResult {
        let mut b = SimConfig::builder();
        b.policy(policy);
        let mut cfg = b.build().expect("valid");
        cfg.cmp = CmpConfig::with_cores(2);
        cfg.diffcheck = DiffCheckConfig {
            enabled: oracle,
            ..DiffCheckConfig::default()
        };
        let core0 = vec![
            TraceEvent::ifetch(code(1, 0), 0),
            TraceEvent::load(shared(0)),
            TraceEvent::ifetch(code(1, 1), 0),
            TraceEvent::load(shared(1)),
        ];
        let core1 = vec![
            TraceEvent::ifetch(code(2, 0), 0),
            TraceEvent::store(shared(store_to)),
        ];
        let per_core: Vec<Vec<Box<dyn Trace>>> = vec![
            vec![Box::new(VecTrace::new("c0", core0))],
            vec![Box::new(VecTrace::new("c1", core1))],
        ];
        CmpSimulator::new(cfg)
            .expect("valid")
            .run_warmed(per_core, 0)
            .expect("coherent")
    }

    #[test]
    fn remote_invalidation_defeats_the_load_memo() {
        // A store to X invalidates core 0's copy, so the reload misses; a
        // store to another line leaves it, so the reload hits (through
        // the memo when the oracle is off).
        for (store_to, invalidations, read_misses) in [(2, 1, 2), (64, 0, 1)] {
            for policy in WritePolicy::all() {
                for oracle in [false, true] {
                    let r = load_store_load(policy, store_to, oracle);
                    let (c0, c1) = (r.per_core[0], r.per_core[1]);
                    let case = format!("store to {store_to}, {policy:?}, oracle {oracle}");
                    assert_eq!(c1.invalidations, invalidations, "{case}");
                    assert_eq!(c0.mesi_to_i, invalidations, "{case}");
                    assert_eq!(c0.l1d_read_misses, read_misses, "{case}");
                    assert_eq!(c0.loads, 2, "{case}");
                }
            }
        }
    }
}
