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
//! construction: its turns are [`gaas_sim::step_bare`] with the same
//! [`gaas_sim::NoCoherence`] hooks and [`gaas_sim::WholeSpan`] bound —
//! `Simulator`'s own span drain — and every coherence action is gated
//! on a second core existing. That identity pins all CMP results to the
//! validated single-CPU model: whatever a multi-core run shows beyond
//! the 1-core anchor is attributable to sharing, not to engine drift.
//!
//! ## The turn rule
//!
//! The reference schedule is the lockstep interleave by functional
//! clock: one instruction at a time from the core with the lowest
//! `(fnow, id)`. A multi-core run with the oracle off reaches the same
//! result in turns, each one span drain of one core:
//!
//! * **Exact steps.** The core with the lowest `(fnow, id)` steps while
//!   its key stays below the runner-up's. No other core's `fnow` moves
//!   meanwhile — coherence charges only timing clocks — so these are
//!   exactly the steps lockstep would take next.
//! * **Run-ahead.** Past the runner-up's key, the core continues only
//!   through instructions [`Core::local_step`] proves core-local: a
//!   fetch by the fetch memo or a cached-translation L1-I hit, plus no
//!   data reference, the load memo, an L1-D load hit, or a write-back
//!   store hit, on a PID the core owns. Such a step touches only this
//!   core's L1s, TLBs, clocks, counters and memos and the directory
//!   entries of its private lines. Another core's step touches none of
//!   that but this core's shared lines (an invalidation, which also
//!   clears the load memo — a cache of facts the full path re-derives)
//!   and its coherence counters (sums), so the two commute: moving
//!   local steps ahead of other cores' steps cannot change a result.
//! * **Horizon.** A run-ahead stops `HORIZON` (1024) cycles past the
//!   runner-up's `fnow`. Every stepped instruction then started below
//!   the lowest pending `fnow` plus the horizon, so at most
//!   `N · HORIZON` instructions of other cores that lockstep would have
//!   run first are still missing, and exact steps run them first.
//! * **Poll margin.** No run-ahead starts within `2·N·(HORIZON + 2)`
//!   instructions of the next warm-up or budget boundary, so by the
//!   boundary the missing steps have run and the warm-up snapshot and
//!   the budget stop see the exact lockstep prefix. The cancel poll
//!   needs no margin: a cancelled run returns no counters.
//!
//! Oracle-on runs stay in lockstep on the instrumented (`HOOKS = true`)
//! path, so every load hit reaches the oracle and oracle-on results are
//! the exactness reference for the run-ahead (test-enforced across core
//! counts, write policies, migration intervals and L2 organizations).
//!
//! ## PID ownership
//!
//! Each PID but [`gaas_trace::SHARED_PID`] is private to the first core
//! that references its data, claimed on an exact step; a data reference
//! from any other core fails the run with [`SimError::PidOwnership`],
//! oracle on or off. The run-ahead relies on this contract: a line of a
//! private PID can be in one core's L1-D only, so no remote store can
//! invalidate it. The standard CMP workload satisfies it by
//! construction (each benchmark runs on one core; shared references use
//! the shared PID).
//!
//! The contract also keeps private lines out of the directory: with no
//! remote copy possible, a private line is Modified exactly when it is
//! resident and written since its fill, Exclusive when resident and
//! clean, and no action on it involves the bus, so the hooks read its
//! state off the owner's L1-D. With the oracle on, private lines take
//! the directory path, so the oracle-on reference checks this too.
//!
//! Multi-core runs keep the pipeline's same-line and same-page memos: a
//! remote invalidation clears the victim core's load memo (see
//! [`gaas_sim::Core::invalidate_d_line`]).

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
use gaas_sim::sched::Scheduler;
use gaas_sim::{
    step_bare, CancelToken, Coherence, Core, NoCoherence, Polls, SimError, SimResult, Termination,
    Trace, TraceEvent, Turn, Uncore, WholeSpan, MAX_CORES,
};
use gaas_trace::{PhysAddr, Pid, SHARED_PID};

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
    /// The result is that of the lockstep interleave by functional-clock
    /// order: one instruction at a time from the core with the lowest
    /// `(fnow, id)`, which makes the interleaving deterministic and
    /// independent of timing knobs — the same property the single-CPU
    /// scheduler has. A 1-core run is `Simulator`'s own drain. A
    /// multi-core run with the coherence oracle on steps in that
    /// lockstep on the instrumented path. With it off, each turn is one
    /// span drain ([`gaas_sim::step_bare`]) that steps exactly while the
    /// core's `(fnow, id)` stays below the runner-up's, then runs ahead
    /// through instructions [`Core::local_step`] proves core-local, on
    /// PIDs the core owns, up to `HORIZON` cycles past the runner-up's
    /// `fnow`; no run-ahead starts within `2·N·(HORIZON + 2)`
    /// instructions of the warm-up or budget boundary, so both see the
    /// lockstep prefix (see the module docs for why this is exact). The
    /// first core to reference a PID's data owns it for the run.
    ///
    /// # Errors
    ///
    /// [`SimError::Cancelled`] when the token fires,
    /// [`SimError::Coherence`] when the coherence oracle (enabled via
    /// `diffcheck.enabled`) observes an invariant violation, and
    /// [`SimError::PidOwnership`] when two cores make data references to
    /// one PID other than [`gaas_trace::SHARED_PID`], oracle on or off.
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
        let n = self.cores.len();
        let mut done = vec![false; n];
        let mut polls = Polls::new(&self.cfg, warmup_instructions, 0, self.cancel.is_some());
        let mut warm_snapshot: Option<Vec<Counters>> = None;
        let mut termination = Termination::Completed;
        let mut total_instructions = 0u64;
        let mut owners = [UNOWNED; 256];
        // Every coherence action is gated on a second core existing, so a
        // 1-core run never touches the directory, the bus, the MESI
        // counters, or the oracle (the identity anchor).
        let multi = n > 1;
        let lockstep = multi && self.proto.oracle.is_some();
        let poll_margin = 2 * n as u64 * (HORIZON + 2);

        loop {
            // The turn goes to the lowest (fnow, id); the runner-up's
            // key bounds its exact steps.
            let mut first: Option<(u64, usize)> = None;
            let mut second: Option<(u64, usize)> = None;
            for (i, core) in self.cores.iter().enumerate() {
                if done[i] {
                    continue;
                }
                let key = (core.fnow(), i);
                if first.map_or(true, |f| key < f) {
                    second = first;
                    first = Some(key);
                } else if second.map_or(true, |s| key < s) {
                    second = Some(key);
                }
            }
            let Some((fnow, c)) = first else {
                break;
            };
            let Some(instr) = scheds[c].next_instruction(fnow) else {
                done[c] = true;
                continue;
            };
            let before = self.cores[c].counters().instructions;
            if !multi {
                step_bare::<false, _, _>(
                    &mut self.cores[c],
                    &mut self.ux,
                    &mut NoCoherence,
                    &mut WholeSpan,
                    &mut scheds[c],
                    &instr,
                    polls.next(),
                );
            } else if lockstep {
                claim(&mut owners, c, instr.data.as_ref())?;
                self.with_snoop(c, |core, ux, snoop| {
                    core.step_instruction::<true, false, _>(ux, snoop, &instr);
                });
                scheds[c].post_instruction(self.cores[c].fnow(), instr.ifetch.syscall);
                if let Some(err) = self.take_violation() {
                    return Err(err);
                }
            } else {
                // (fnow, c) < (f, r) exactly when fnow < f + [c < r].
                let exact_end = second.map_or(u64::MAX, |(f, r)| f + u64::from(c < r));
                let exact_room = polls.next_exact().saturating_sub(total_instructions);
                let mut turn = CoreTurn {
                    id: c,
                    owners: &mut owners,
                    exact_end,
                    ahead_end: exact_end.saturating_add(HORIZON),
                    ahead_instructions: before
                        .saturating_add(exact_room.saturating_sub(poll_margin)),
                    refused: None,
                };
                let poll = before + (polls.next() - total_instructions);
                let sched = &mut scheds[c];
                self.with_snoop(c, |core, ux, snoop| {
                    step_bare::<false, _, _>(core, ux, snoop, &mut turn, sched, &instr, poll);
                });
                if let Some(err) = turn.refused {
                    return Err(err);
                }
            }
            total_instructions += self.cores[c].counters().instructions - before;
            if total_instructions >= polls.next() {
                let due = polls.fire(total_instructions, self.cancel.as_ref())?;
                if due.warm {
                    warm_snapshot = Some(self.cores.iter().map(|core| *core.counters()).collect());
                }
                if due.budget {
                    termination = Termination::BudgetExhausted;
                    break;
                }
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

    /// Runs `f` on core `c`, the uncore, and the MESI hooks with the
    /// other cores reachable as remotes.
    fn with_snoop(&mut self, c: usize, f: impl FnOnce(&mut Core, &mut Uncore, &mut Snoop<'_>)) {
        let (below, rest) = self.cores.split_at_mut(c);
        let (core, above) = rest.split_first_mut().expect("active core exists");
        let mut snoop = Snoop {
            proto: &mut self.proto,
            c,
            below,
            above,
        };
        f(core, &mut self.ux, &mut snoop)
    }
}

/// How far past the runner-up's functional clock a core runs ahead
/// through core-local instructions, in cycles.
const HORIZON: u64 = 1024;

/// The `owners` entry of a PID whose data no core has referenced yet.
const UNOWNED: u8 = u8::MAX;

/// Claims the data reference's PID for core `c` on its first reference,
/// and refuses a reference to a PID another core has claimed. The
/// shared PID belongs to no core.
fn claim(owners: &mut [u8; 256], c: usize, data: Option<&TraceEvent>) -> Result<(), SimError> {
    let Some(pid) = data.map(|d| d.addr.pid()).filter(|&p| p != SHARED_PID) else {
        return Ok(());
    };
    let owner = &mut owners[usize::from(pid.raw())];
    if *owner == UNOWNED {
        *owner = c as u8;
    }
    if usize::from(*owner) == c {
        Ok(())
    } else {
        Err(SimError::PidOwnership {
            pid: pid.raw(),
            owner: u32::from(*owner),
            core: c as u32,
        })
    }
}

/// One multi-core turn of core `id` (see the module docs): exact steps
/// while `fnow < exact_end`, then core-local steps on owned PIDs while
/// `fnow < ahead_end` and the core has retired fewer than
/// `ahead_instructions`.
struct CoreTurn<'a> {
    id: usize,
    owners: &'a mut [u8; 256],
    exact_end: u64,
    ahead_end: u64,
    ahead_instructions: u64,
    /// The ownership error that ended the turn, if one did.
    refused: Option<SimError>,
}

impl Turn for CoreTurn<'_> {
    #[inline(always)]
    fn admit(&mut self, core: &Core, ifetch: &TraceEvent, data: Option<&TraceEvent>) -> bool {
        if core.fnow() < self.exact_end {
            return match claim(self.owners, self.id, data) {
                Ok(()) => true,
                Err(err) => {
                    self.refused = Some(err);
                    false
                }
            };
        }
        core.fnow() < self.ahead_end
            && core.counters().instructions < self.ahead_instructions
            && data.map_or(true, |d| {
                usize::from(self.owners[usize::from(d.addr.pid().raw())]) == self.id
            })
            && core.local_step(ifetch, data)
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
    /// Whether `pid`'s lines bypass the directory (see "PID ownership"
    /// in the module docs).
    fn bypasses(&self, pid: Pid) -> bool {
        pid != SHARED_PID && self.proto.oracle.is_none()
    }

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

    fn before_store(&mut self, core: &Core, line: PhysAddr, pid: Pid) -> MesiState {
        if self.bypasses(pid) {
            // A private line is Modified exactly when resident and
            // written since its fill, Exclusive when resident and clean.
            return match core.l1d().array().peek(line) {
                None => MesiState::Invalid,
                Some(l) if l.dirty => MesiState::Modified,
                Some(_) => MesiState::Exclusive,
            };
        }
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
        pid: Pid,
        prev_local: MesiState,
    ) -> u64 {
        if self.bypasses(pid) {
            // No remote copies: a silent upgrade to Modified if resident.
            if prev_local != MesiState::Modified && core.l1d().array().contains(line) {
                core.counters_mut().mesi_to_m += 1;
            }
            return 0;
        }
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
    fn load_fill(
        &mut self,
        core: &mut Core,
        ux: &mut Uncore,
        t0: u64,
        line: PhysAddr,
        pid: Pid,
    ) -> u64 {
        if self.bypasses(pid) {
            // No remote copies: an Exclusive fill.
            core.counters_mut().mesi_to_e += 1;
            return 0;
        }
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
    use gaas_sim::{CmpConfig, DiffCheckConfig, VirtAddr, WritePolicy};
    use gaas_trace::VecTrace;

    /// A data word both cores address through the same page table entry.
    fn shared(word: u64) -> VirtAddr {
        VirtAddr::new(SHARED_PID, 0x10000 + word)
    }

    fn code(pid: u8, word: u64) -> VirtAddr {
        VirtAddr::new(Pid::new(pid), word)
    }

    /// Runs one trace per core on a 2-core machine.
    fn run_two(
        policy: WritePolicy,
        oracle: bool,
        core0: Vec<TraceEvent>,
        core1: Vec<TraceEvent>,
    ) -> Result<CmpResult, SimError> {
        let mut b = SimConfig::builder();
        b.policy(policy);
        let mut cfg = b.build().expect("valid");
        cfg.cmp = CmpConfig::with_cores(2);
        cfg.diffcheck = DiffCheckConfig {
            enabled: oracle,
            ..DiffCheckConfig::default()
        };
        let per_core: Vec<Vec<Box<dyn Trace>>> = vec![
            vec![Box::new(VecTrace::new("c0", core0))],
            vec![Box::new(VecTrace::new("c1", core1))],
        ];
        CmpSimulator::new(cfg)
            .expect("valid")
            .run_warmed(per_core, 0)
    }

    /// Core 0 loads X, core 1 stores `store_to`, then core 0 loads X
    /// again from the same fetch line. Functional-clock order runs core
    /// 1's single instruction between core 0's two (core 0's cold misses
    /// put its clock far ahead).
    fn load_store_load(policy: WritePolicy, store_to: u64, oracle: bool) -> CmpResult {
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
        run_two(policy, oracle, core0, core1).expect("coherent")
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

    #[test]
    fn two_cores_referencing_one_private_pid_is_refused() {
        // Core 1 stores to the page core 0 loaded from under PID 7: the
        // first reference claims the PID for core 0, the second is an
        // error whether the cores step in lockstep or run ahead.
        let private = VirtAddr::new(Pid::new(7), 0x10000);
        for oracle in [false, true] {
            let core0 = vec![TraceEvent::ifetch(code(1, 0), 0), TraceEvent::load(private)];
            let core1 = vec![
                TraceEvent::ifetch(code(2, 0), 0),
                TraceEvent::store(private),
            ];
            let err = run_two(WritePolicy::WriteBack, oracle, core0, core1)
                .expect_err("a second core touched a private PID");
            assert_eq!(
                err,
                SimError::PidOwnership {
                    pid: 7,
                    owner: 0,
                    core: 1
                },
                "oracle {oracle}"
            );
        }
    }
}
