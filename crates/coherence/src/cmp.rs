//! The CMP engine: N cores' private L1 front ends over the shared L2.
//!
//! [`CmpSimulator`] runs N [`gaas_sim::Core`]s — the single-CPU
//! simulator's own per-core pipeline — over one shared
//! [`gaas_sim::Uncore`], each core with its own scheduler, through the
//! single-CPU simulator's own run loop, [`gaas_sim::run_cores`] (whose
//! docs give the turn rule, the run-ahead and PID ownership). This
//! module adds the protocol that loop steps the cores against: MESI
//! invalidation filtered by a directory (see [`crate::mesi`],
//! [`crate::directory`]), plugged in through the
//! [`gaas_sim::Coherence`] hooks.
//!
//! A 1-core CMP run is **byte-identical** to [`gaas_sim::Simulator`]
//! (test-enforced) by construction: the loop steps a lone core with no
//! coherence hooks whichever engine runs it. Whatever a multi-core run
//! shows beyond that anchor is attributable to sharing, not to engine
//! drift.
//!
//! ## Private lines bypass the directory
//!
//! The run loop makes each PID but [`gaas_trace::SHARED_PID`] private
//! to the first core that references its data, so a private line has no
//! remote copy: it is Modified exactly when resident and written since
//! its fill, Exclusive when resident and clean, and never needs the
//! bus, so the hooks read its state off the owner's L1-D. With the
//! oracle on, private lines take the directory path, so the oracle-on
//! (lockstep) reference checks this too. A remote invalidation goes
//! through [`gaas_sim::Core::invalidate_d_line`]; no memo of the victim
//! core names an L1-D line (its page memos name a page and a frame), so
//! its next load of the line probes L1-D and misses.
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

use gaas_cache::{L1DataCache, StoreOutcome};
use gaas_mcm::SnoopBus;
use gaas_sim::config::{ConfigError, SimConfig};
use gaas_sim::cpi::Counters;
use gaas_sim::{
    run_cores, CancelToken, Coherence, Core, RunSpec, SimError, SimResult, Trace, Uncore, MAX_CORES,
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
        // For CMP-enabled configs validate() already ran this check; a
        // plain 1-core config could still carry the refused features,
        // and this engine would silently ignore them — refuse instead.
        cfg.check_cmp_support()?;
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
    /// completion through [`gaas_sim::run_cores`], discarding the
    /// statistics of the first `warmup_instructions` instructions
    /// *summed over all cores*. The result is that of the lockstep
    /// interleave by functional clock, in which a multi-core run with
    /// the coherence oracle on steps.
    ///
    /// # Errors
    ///
    /// [`SimError::Cancelled`] when the token fires,
    /// [`SimError::Coherence`] when the coherence oracle (enabled via
    /// `diffcheck.enabled`) observes an invariant violation, and
    /// [`SimError::PidOwnership`] when two cores make data references to
    /// one PID other than [`gaas_trace::SHARED_PID`].
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
        let spec = RunSpec {
            cfg: &self.cfg,
            warmup: warmup_instructions,
            window: 0,
            cancel: self.cancel.as_ref(),
        };
        let (cores, ux, proto) = (&mut self.cores, &mut self.ux, &mut self.proto);
        let out = run_cores(cores, ux, proto, per_core, &spec)?;
        crate::record_run(&out.result.counters, &self.proto.bus);
        Ok(CmpResult {
            result: out.result,
            per_core: out.per_core,
        })
    }
}

impl gaas_sim::Protocol for Protocol {
    type Hooks<'a> = Snoop<'a>;

    fn hooks<'a>(
        &'a mut self,
        c: usize,
        below: &'a mut [Core],
        above: &'a mut [Core],
    ) -> Snoop<'a> {
        Snoop {
            proto: self,
            c,
            below,
            above,
        }
    }

    fn lockstep(&self) -> bool {
        self.oracle.is_some()
    }

    fn violation(&self) -> Option<(u32, String)> {
        let v = self.oracle.as_ref()?.violation()?;
        Some((v.core, v.detail.clone()))
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
    /// `c` whose L1-D actually holds it). One directory read gives the
    /// candidates; only a core it records as valid has its L1-D probed,
    /// and a stale record is healed to Invalid.
    fn remote_sharers(
        &mut self,
        line: PhysAddr,
    ) -> ([(usize, MesiState); MAX_CORES as usize], usize) {
        let mut remotes = [(0usize, MesiState::Invalid); MAX_CORES as usize];
        let mut nr = 0;
        let states = self.proto.dir.states(line);
        for m in self.remotes() {
            let st = states[m];
            if st == MesiState::Invalid {
                continue;
            }
            if self.remote(m).l1d().array().contains(line) {
                remotes[nr] = (m, st);
                nr += 1;
            } else {
                self.proto.dir.set(line, m, MesiState::Invalid);
            }
        }
        (remotes, nr)
    }
}

impl Coherence for Snoop<'_> {
    /// MESI bookkeeping + cost for a store by the stepping core to `line`
    /// at time `t0`. The line's state before the store comes off the
    /// store's own outcome `o`: a private line was Invalid on a miss,
    /// Modified on a hit of a line written since its fill, and Exclusive
    /// otherwise; a shared line's is the directory's, healed by `o.hit`
    /// (nothing touches the directory between the array write and this
    /// hook).
    fn store(
        &mut self,
        l1d: &L1DataCache,
        counters: &mut Counters,
        ux: &mut Uncore,
        t0: u64,
        line: PhysAddr,
        pid: Pid,
        o: &StoreOutcome,
    ) -> u64 {
        if self.bypasses(pid) {
            let prev_local = match (o.hit, o.hit_written) {
                (false, _) => MesiState::Invalid,
                (true, true) => MesiState::Modified,
                (true, false) => MesiState::Exclusive,
            };
            // No remote copies: a silent upgrade to Modified if resident.
            if prev_local != MesiState::Modified && l1d.array().contains(line) {
                counters.mesi_to_m += 1;
            }
            return 0;
        }
        let c = self.c;
        let prev_local = self.proto.dir.heal(line, c, o.hit);
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
                    counters.invalidations += 1;
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
                counters.upgrade_misses += 1;
            }
        }
        // Final local state: Modified when the line is resident after
        // the store (hit, or write-allocate fill); a non-allocating
        // store miss leaves it Invalid while still having invalidated
        // the remote copies.
        let resident = l1d.array().contains(line);
        let new_local = if resident {
            MesiState::Modified
        } else {
            MesiState::Invalid
        };
        if resident && prev_local != MesiState::Modified {
            counters.mesi_to_m += 1;
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
        counters.coherence_stall_cycles += charge;
        charge
    }

    /// MESI bookkeeping + cost for a load miss that just filled `line`
    /// on the stepping core at time `t0`.
    fn load_fill(
        &mut self,
        counters: &mut Counters,
        ux: &mut Uncore,
        t0: u64,
        line: PhysAddr,
        pid: Pid,
    ) -> u64 {
        if self.bypasses(pid) {
            // No remote copies: an Exclusive fill.
            counters.mesi_to_e += 1;
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
                        counters.c2c_transfers += 1;
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
            MesiState::Shared => counters.mesi_to_s += 1,
            MesiState::Exclusive => counters.mesi_to_e += 1,
            _ => unreachable!("fills produce E or S"),
        }
        if let Some(o) = self.proto.oracle.as_mut() {
            o.note_fill(c, line);
        }
        counters.coherence_stall_cycles += charge;
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
        // store to another line leaves it, so the reload hits. With the
        // oracle off the reload rides core 0's data page memo, which skips
        // only the DTLB probe and the translation: the L1-D probe still
        // sees the invalidation.
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
    fn a_silently_evicted_sharer_costs_a_store_nothing() {
        // Core 1 loads X, then loads `second`; core 0 misses on eight
        // code lines first, so its store to X comes last. `shared(4096)`
        // maps to X's L1-D set (4 KW direct-mapped, one page apart) and
        // evicts it silently, leaving a stale directory record that the
        // store's sharer scan must heal; `shared(8)` keeps X resident,
        // the control that shows the store does find core 1's copy.
        for (second, invalidations) in [(4096, 0), (8, 1)] {
            for oracle in [false, true] {
                let mut core0: Vec<TraceEvent> = (0..8)
                    .map(|i| TraceEvent::ifetch(code(1, i * 1024), 0))
                    .collect();
                core0.push(TraceEvent::store(shared(0)));
                let core1 = vec![
                    TraceEvent::ifetch(code(2, 0), 0),
                    TraceEvent::load(shared(0)),
                    TraceEvent::ifetch(code(2, 1), 0),
                    TraceEvent::load(shared(second)),
                ];
                let r = run_two(WritePolicy::WriteBack, oracle, core0, core1).expect("coherent");
                let (c0, c1) = (r.per_core[0], r.per_core[1]);
                let case = format!("second load {second}, oracle {oracle}");
                assert_eq!(c1.l1d_read_misses, 2, "{case}");
                assert_eq!(c0.invalidations, invalidations, "{case}");
                assert_eq!(c1.mesi_to_i, invalidations, "{case}");
                assert_eq!(c0.upgrade_misses, 0, "{case}");
                assert_eq!(c0.coherence_stall_cycles > 0, invalidations > 0, "{case}");
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
