//! The CMP engine's correctness anchor: a 1-core CMP run is
//! **byte-identical** to the validated single-CPU simulator.
//!
//! Several angles:
//!
//! * **identity fuzz** — seeded random configurations (L2 organization,
//!   write policy, drain timing, multiprogramming level all vary, and
//!   one round stops on the instruction budget) run through both
//!   engines; every counter, every per-process row, the completion order
//!   and the termination must match exactly;
//! * **refusals** — the features the CMP engine lacks are refused for
//!   CMP configurations and by the CMP engine, and the single-CPU
//!   simulator refuses CMP configurations;
//! * **directory filtering** — a 2-core run of *disjoint* processes
//!   generates zero coherence traffic (no invalidations, no
//!   cache-to-cache transfers, no coherence stall): the snoop filter
//!   works, and coherence CPI scales with sharing, not core count;
//! * **oracle smoke** — a 2-core run with real sharing and the
//!   coherence oracle enabled completes with zero invariant violations
//!   while actually exercising the protocol (invalidations observed);
//! * **oracle neutrality** — 2- and 4-core sharing runs produce the same
//!   counters with the oracle on (every load hit checked, memos off) as
//!   with it off (memos on), under every write policy;
//! * **run-ahead exactness** — oracle-on runs step the cores in lockstep
//!   and oracle-off runs let each core run ahead through core-local
//!   instructions, so equal results across core counts, write policies,
//!   migration intervals, L2 organizations and a budget stop show that
//!   the run-ahead reorders only steps that commute.

use gaas_coherence::{CmpResult, CmpSimulator};
use gaas_experiments::fig_cmp;
use gaas_experiments::runner;
use gaas_sim::config::SimConfig;
use gaas_sim::{
    CmpConfig, ConfigError, DiffCheckConfig, FaultRates, L2Config, SeededBug, SeededBugSpec,
    Simulator, TelemetryConfig, Termination, WritePolicy,
};
use gaas_trace::rng::SmallRng;

const SCALE: f64 = 5e-5;

/// Draws a random-but-valid configuration (same envelope as the
/// differential-oracle fuzz, minus the oracle).
fn random_config(rng: &mut SmallRng) -> SimConfig {
    let policies = WritePolicy::all();
    let policy = policies[rng.gen_range(0..policies.len())];
    let l2_total = [65_536u64, 131_072, 262_144][rng.gen_range(0..3usize)];
    let l2 = if rng.gen_bool(0.5) {
        L2Config::split_even(l2_total, if rng.gen_bool(0.5) { 1 } else { 2 }, 6)
    } else {
        let mut base = L2Config::base();
        if let L2Config::Unified(side) = &mut base {
            side.size_words = l2_total;
        }
        base
    };
    let mut b = SimConfig::builder();
    b.policy(policy)
        .l2(l2)
        .l2_drain_access(rng.gen_range(2..=10u32))
        .mp_level(*[1usize, 4, 8].get(rng.gen_range(0..3usize)).unwrap());
    b.build().expect("randomized configs stay valid")
}

#[test]
fn one_core_cmp_is_byte_identical_to_the_single_cpu_simulator() {
    let mut rng = SmallRng::seed_from_u64(0xC0_1DE7);
    for round in 0..9 {
        let mut cfg = random_config(&mut rng);
        // The last round stops on the budget, past the 40 % warm-up.
        let budget = round == 8;
        if budget {
            cfg.instruction_budget = Some(runner::suite_instructions(SCALE) * 7 / 10);
        }
        let summary = format!("round {round}: {cfg}");
        let base = runner::run_standard_raw(cfg.clone(), SCALE).expect("base engine");
        let cmp = runner::run_standard_cmp(cfg, SCALE, None).expect("cmp engine");
        assert_eq!(
            cmp.result.counters, base.counters,
            "counter drift in {summary}"
        );
        assert_eq!(
            cmp.result.per_process, base.per_process,
            "per-process drift in {summary}"
        );
        assert_eq!(
            cmp.result.completed, base.completed,
            "completion-order drift in {summary}"
        );
        assert_eq!(
            cmp.result.termination, base.termination,
            "termination drift in {summary}"
        );
        assert_eq!(
            base.termination == Termination::BudgetExhausted,
            budget,
            "{summary}"
        );
        assert_eq!(cmp.per_core.len(), 1, "{summary}");
        assert_eq!(cmp.per_core[0], base.counters, "{summary}");
    }
}

#[test]
fn features_the_cmp_engine_lacks_are_refused_on_every_path() {
    use ConfigError::*;
    for refusal in [
        CmpWithFaultInjection,
        CmpWithTelemetry,
        CmpWithCheckpointing,
        CmpWithSeededBug,
    ] {
        let mut cfg = SimConfig::baseline();
        match refusal {
            CmpWithFaultInjection => cfg.fault.rates = FaultRates::uniform(1e-6),
            CmpWithTelemetry => cfg.telemetry = TelemetryConfig::on(),
            CmpWithCheckpointing => cfg.checkpoint_interval = 10_000,
            _ => {
                cfg.diffcheck = DiffCheckConfig {
                    seeded_bug: Some(SeededBugSpec {
                        access: 100,
                        kind: SeededBug::FlipL1dDirty,
                    }),
                    ..DiffCheckConfig::on()
                }
            }
        }
        // A 1-core config is valid, but the CMP engine refuses it; a
        // 2-core config fails validation in the builder.
        let one_core = CmpSimulator::new(cfg.clone()).err();
        assert_eq!(one_core, Some(refusal.clone()), "1 core");
        let mut b = cfg.to_builder();
        b.cmp(CmpConfig::with_cores(2));
        assert_eq!(b.build().err(), Some(refusal), "2 cores");
    }
    let mut two_cores = SimConfig::baseline();
    two_cores.cmp = CmpConfig::with_cores(2);
    let refusal = Simulator::new(two_cores).err();
    assert_eq!(refusal, Some(CmpRequiresCoherenceEngine));
}

#[test]
fn one_core_cmp_reports_no_coherence_activity() {
    let base = runner::run_standard_cmp(SimConfig::baseline(), SCALE, None).expect("runs");
    let c = base.result.counters;
    assert_eq!(c.invalidations, 0);
    assert_eq!(c.c2c_transfers, 0);
    assert_eq!(c.upgrade_misses, 0);
    assert_eq!(c.coherence_stall_cycles, 0);
    assert_eq!(c.mesi_to_m + c.mesi_to_e + c.mesi_to_s + c.mesi_to_i, 0);
}

#[test]
fn disjoint_two_core_run_is_filtered_to_zero_coherence_traffic() {
    let mut cfg = SimConfig::baseline();
    cfg.cmp = CmpConfig::with_cores(2);
    let r = runner::run_standard_cmp(cfg, SCALE, None).expect("runs");
    let c = r.result.counters;
    // Distinct processes touch distinct physical pages: the directory
    // must answer every miss locally.
    assert_eq!(c.invalidations, 0, "no remote copies to invalidate");
    assert_eq!(c.c2c_transfers, 0);
    assert_eq!(c.upgrade_misses, 0);
    assert_eq!(c.coherence_stall_cycles, 0, "no bus traffic at all");
    assert!(c.mesi_to_e > 0, "fills still tracked Exclusive");
    assert_eq!(r.per_core.len(), 2);
    assert!(r.per_core.iter().all(|p| p.instructions > 0));
}

#[test]
fn sharing_two_core_run_exercises_the_protocol_with_zero_violations() {
    let mut cfg = SimConfig::baseline();
    cfg.cmp = CmpConfig {
        cores: 2,
        shared_frac: 0.2,
        shared_words: 4096,
        migration_interval: 1000,
        ..CmpConfig::default()
    };
    cfg.diffcheck = DiffCheckConfig {
        enabled: true,
        ..DiffCheckConfig::default()
    };
    let r = runner::run_standard_cmp(cfg, SCALE, None)
        .expect("coherence invariants hold under real sharing");
    let c = r.result.counters;
    assert!(c.invalidations > 0, "sharing must produce invalidations");
    assert!(c.coherence_stall_cycles > 0, "coherence time is charged");
    assert!(
        c.mesi_to_i >= c.invalidations,
        "every invalidation demotes a line to I"
    );
}

#[test]
fn coherence_counters_accumulate_into_process_totals() {
    let mut cfg = SimConfig::baseline();
    cfg.cmp = CmpConfig {
        cores: 2,
        shared_frac: 0.3,
        shared_words: 2048,
        ..CmpConfig::default()
    };
    let before = gaas_coherence::coherence_totals();
    let r = runner::run_standard_cmp(cfg, SCALE, None).expect("runs");
    let after = gaas_coherence::coherence_totals();
    assert!(after.runs > before.runs);
    assert!(
        after.invalidations - before.invalidations >= r.result.counters.invalidations,
        "run's invalidations folded into the process totals"
    );
}

#[test]
fn oracle_on_and_off_sharing_runs_count_identically() {
    for cores in [2u32, 4] {
        for policy in WritePolicy::all() {
            let mut b = SimConfig::builder();
            b.policy(policy);
            let mut cfg = b.build().expect("valid");
            cfg.cmp = CmpConfig {
                cores,
                shared_frac: 0.2,
                shared_words: 4096,
                migration_interval: 1000,
                ..CmpConfig::default()
            };
            let summary = format!("{cores} cores, {policy:?}");
            let off = assert_run_ahead_matches_lockstep(cfg, &summary);
            assert!(off.result.counters.invalidations > 0, "{summary}: sharing");
        }
    }
}

/// Runs `cfg` through the CMP engine with the coherence oracle off (run
/// ahead) and on (lockstep), asserting every result field matches.
fn assert_run_ahead_matches_lockstep(mut cfg: SimConfig, summary: &str) -> CmpResult {
    let ahead = runner::run_standard_cmp(cfg.clone(), SCALE, None).expect("oracle off");
    cfg.diffcheck = DiffCheckConfig {
        enabled: true,
        ..DiffCheckConfig::default()
    };
    let lockstep = runner::run_standard_cmp(cfg, SCALE, None).expect("oracle on");
    let (a, l) = (&ahead.result, &lockstep.result);
    assert_eq!(a.counters, l.counters, "counters: {summary}");
    assert_eq!(ahead.per_core, lockstep.per_core, "per_core: {summary}");
    assert_eq!(a.per_process, l.per_process, "per_process: {summary}");
    assert_eq!(a.completed, l.completed, "completed: {summary}");
    assert_eq!(a.termination, l.termination, "termination: {summary}");
    ahead
}

#[test]
fn run_ahead_matches_lockstep() {
    for cores in [2u32, 3, 4, 8] {
        for policy in WritePolicy::all() {
            for migration_interval in [0u64, 128] {
                for split in [false, true] {
                    let mut b = SimConfig::builder();
                    b.policy(policy);
                    if split {
                        b.l2(L2Config::split_even(fig_cmp::L2_TOTAL_WORDS, 1, 6));
                    }
                    b.cmp(CmpConfig {
                        cores,
                        migration_interval,
                        ..fig_cmp::sharing()
                    });
                    let cfg = b.build().expect("valid");
                    let summary = format!(
                        "{cores} cores, {policy:?}, migration {migration_interval}, split {split}"
                    );
                    let r = assert_run_ahead_matches_lockstep(cfg, &summary);
                    // Static hot windows are disjoint; rotating ones meet.
                    let invalidations = r.result.counters.invalidations;
                    assert_eq!(invalidations > 0, migration_interval > 0, "{summary}");
                }
            }
        }
    }
    // A budget stop past the 40 % warm-up, well short of the end.
    let mut b = SimConfig::builder();
    b.cmp(CmpConfig {
        cores: 4,
        ..fig_cmp::sharing()
    });
    b.instruction_budget(runner::suite_instructions(SCALE) * 7 / 10);
    let r = assert_run_ahead_matches_lockstep(b.build().expect("valid"), "budget stop");
    assert_eq!(r.result.termination, Termination::BudgetExhausted);
}
