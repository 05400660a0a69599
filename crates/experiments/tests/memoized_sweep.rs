//! Memoized-sweep identity: `run_standard_cells` with two-phase
//! memoization enabled must return results byte-identical to full
//! per-cell simulation, for the sweeps that actually exploit grouping
//! (Fig. 7/8 speed–size grids, a Fig. 5 drain-override column) and for
//! the configurations that must *bypass* it (fault injection, diffcheck);
//! and the `repro` plan as one campaign: one functional pass per
//! geometry across figures, and an interrupt that stops it cleanly.
//!
//! This lives in its own integration-test binary because
//! [`campaign::set_memoize`], [`pool::set_jobs`] and the [`interrupt`]
//! flag are process-global: the file-level mutex serializes the tests,
//! and no other test binary ever sees memoization toggled off or an
//! interrupt raised.

use std::sync::Mutex;

use gaas_experiments::campaign::{self, CellResult};
use gaas_experiments::plan::{self, EXPERIMENTS};
use gaas_experiments::{fig5, fig78, interrupt, pool, runner};
use gaas_sim::config::{L2Config, L2Side, SimConfig};
use gaas_sim::{functional_fingerprint, DiffCheckConfig, FaultRates, WritePolicy};

/// Serializes tests (memoization, pool width and the interrupt flag are
/// process-global) and restores the defaults afterwards even on panic.
static LOCK: Mutex<()> = Mutex::new(());

struct Restore;

impl Drop for Restore {
    fn drop(&mut self) {
        campaign::set_memoize(true);
        pool::set_jobs(1);
        interrupt::reset();
    }
}

fn serialized() -> (std::sync::MutexGuard<'static, ()>, Restore) {
    let guard = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    (guard, Restore)
}

const SCALE: f64 = 2e-4;

fn assert_identical(label: &str, full: &[CellResult], memo: &[CellResult]) {
    assert_eq!(full.len(), memo.len());
    for (k, (a, b)) in full.iter().zip(memo).enumerate() {
        match (a, b) {
            (CellResult::Done(x), CellResult::Done(y)) => {
                assert_eq!(x.counters, y.counters, "{label} cell {k}: counters");
                assert_eq!(x.completed, y.completed, "{label} cell {k}: completed");
                assert_eq!(
                    x.per_process, y.per_process,
                    "{label} cell {k}: per-process"
                );
                assert_eq!(
                    x.termination, y.termination,
                    "{label} cell {k}: termination"
                );
            }
            _ => panic!("{label} cell {k}: both paths must succeed"),
        }
    }
}

fn run_both_ways(label: &str, cfgs: &[SimConfig]) -> (Vec<CellResult>, Vec<CellResult>) {
    campaign::set_memoize(false);
    let full = runner::run_standard_cells(cfgs, SCALE);
    campaign::set_memoize(true);
    campaign::reset_memo_stats();
    let memo = runner::run_standard_cells(cfgs, SCALE);
    assert_identical(label, &full, &memo);
    (full, memo)
}

fn split_cfg(i: L2Side, d: L2Side) -> SimConfig {
    let mut b = SimConfig::builder();
    b.l2(L2Config::Split { i, d });
    b.build().expect("valid")
}

fn side(size_words: u64, access_cycles: u32) -> L2Side {
    L2Side {
        size_words,
        assoc: 1,
        line_words: 32,
        access_cycles,
    }
}

/// Fig. 7/8 mini-grids (2 sizes × 3 access times per side): the access
/// time is a timing knob, so each size is one geometry group — the
/// memoized sweep must run 2 functional passes per side and price the
/// other 4 cells, byte-identically to 6 full simulations.
#[test]
fn fig78_minigrids_price_identically_to_full_simulation() {
    let _ctx = serialized();
    let sizes = [16_384, 262_144];
    let times = [2, 6, 9];
    for (label, instruction_side) in [("fig7", true), ("fig8", false)] {
        let cfgs: Vec<SimConfig> = sizes
            .iter()
            .flat_map(|&s| times.iter().map(move |&t| (s, t)))
            .map(|(s, t)| {
                if instruction_side {
                    split_cfg(side(s, t), side(262_144, 6))
                } else {
                    split_cfg(side(262_144, 6), side(s, t))
                }
            })
            .collect();
        run_both_ways(label, &cfgs);
        let stats = campaign::memo_stats();
        assert_eq!(stats.functional_runs, sizes.len() as u64, "{label}");
        assert_eq!(
            stats.priced_cells,
            (cfgs.len() - sizes.len()) as u64,
            "{label}"
        );
        assert!(stats.reuse_factor() > 2.9, "{label}: {stats:?}");
    }
}

/// One Fig. 5 column — a single write policy across every drain-override
/// access time — is one geometry group: one functional pass, four priced
/// cells, identical results. Also exercises the parallel group path
/// (jobs = 2), which must not change a byte either.
#[test]
fn fig5_drain_column_prices_identically_and_survives_parallelism() {
    let _ctx = serialized();
    let cfgs: Vec<SimConfig> = [2u32, 4, 6, 8, 10]
        .iter()
        .map(|&access| {
            let mut b = SimConfig::builder();
            b.policy(WritePolicy::WriteOnly).l2_drain_access(access);
            b.build().expect("valid")
        })
        .collect();
    let (full, _) = run_both_ways("fig5", &cfgs);
    let stats = campaign::memo_stats();
    assert_eq!(stats.functional_runs, 1);
    assert_eq!(stats.priced_cells, 4);

    pool::set_jobs(2);
    let parallel = runner::run_standard_cells(&cfgs, SCALE);
    pool::set_jobs(1);
    assert_identical("fig5-jobs2", &full, &parallel);
}

/// Fault-injection and diffcheck configurations are unmemoizable (their
/// behaviour depends on cycle-level timing), so the grouping path must
/// classify them as singletons and run them as full simulations — with
/// results identical whether memoization is nominally on or off.
#[test]
fn fault_and_diffcheck_configs_bypass_memoization() {
    let _ctx = serialized();
    let mut faulty = SimConfig::baseline();
    faulty.fault.rates = FaultRates::uniform(1e-3);
    let mut b = SimConfig::baseline().to_builder();
    b.diffcheck(DiffCheckConfig::on());
    let checked = b.build().expect("valid");

    for cfg in [&faulty, &checked] {
        assert_eq!(
            functional_fingerprint(cfg),
            None,
            "timing-dependent configs must refuse a geometry key"
        );
    }

    let cfgs = vec![faulty, checked];
    run_both_ways("bypass", &cfgs);
    let stats = campaign::memo_stats();
    assert_eq!(
        stats.priced_cells, 0,
        "unmemoizable cells must never be priced"
    );
    assert_eq!(stats.functional_runs, 2);
}

/// `--list-cells` is [`campaign::group_preview`]: its group counts must
/// match what the memoized sweep actually does — one group per geometry
/// for the Fig. 7/8 grids and Fig. 5 policies, `None`-keyed singletons
/// for unmemoizable configs, all singletons with memoization off.
#[test]
fn group_preview_matches_memoized_sweep_expectations() {
    let _ctx = serialized();

    // Fig. 7 full grid: one group per size, each holding every access time.
    let fig7 = fig78::cells(fig78::Side::Instruction);
    let groups = campaign::group_preview(&fig7);
    assert_eq!(groups.len(), fig78::SIZES.len());
    for (fp, members) in &groups {
        assert!(fp.is_some(), "geometry groups carry a fingerprint");
        assert_eq!(members.len(), fig78::ACCESS_TIMES.len());
    }

    // Fig. 5 full sweep: one group per write policy (drain access is a
    // timing knob), so 4 groups of 5 — matching the drain-column test
    // above (1 functional + 4 priced per policy).
    let groups = campaign::group_preview(&fig5::cells());
    assert_eq!(groups.len(), 4);
    assert!(groups.iter().all(|(fp, m)| fp.is_some() && m.len() == 5));

    // Unmemoizable configs preview as None-keyed singletons even when
    // they share identical settings.
    let mut faulty = SimConfig::baseline();
    faulty.fault.rates = FaultRates::uniform(1e-3);
    let pair = vec![faulty.clone(), faulty];
    let groups = campaign::group_preview(&pair);
    assert_eq!(groups.len(), 2);
    assert!(groups.iter().all(|(fp, m)| fp.is_none() && m.len() == 1));

    // With memoization off, everything previews as singletons.
    campaign::set_memoize(false);
    let groups = campaign::group_preview(&fig7);
    assert_eq!(groups.len(), fig7.len());
    assert!(groups.iter().all(|(fp, m)| fp.is_none() && m.len() == 1));
    campaign::set_memoize(true);
}

/// A `repro` run is one campaign: every experiment's cells in one batch
/// run one functional pass per distinct geometry fingerprint plus one
/// per unmemoizable (multi-core CMP) cell, across figure boundaries —
/// 76 + 12 = 88 passes for the 252 cells of `repro all`, where separate
/// per-figure batches ran 109.
#[test]
fn one_campaign_runs_one_functional_pass_per_fingerprint() {
    let _ctx = serialized();
    let all: Vec<&plan::Experiment> = EXPERIMENTS.iter().collect();
    let (cfgs, _) = plan::batch(&all);
    let groups = campaign::group_preview(&cfgs);
    let mut keys: Vec<u64> = groups.iter().filter_map(|(fp, _)| *fp).collect();
    keys.sort_unstable();
    keys.dedup();
    let unmemoizable = groups.iter().filter(|(fp, _)| fp.is_none()).count();

    campaign::reset_memo_stats();
    let results = runner::run_standard_cells(&cfgs, 5e-5);
    assert!(results.iter().all(CellResult::is_done));
    let stats = campaign::memo_stats();
    assert_eq!(
        stats.functional_runs,
        (keys.len() + unmemoizable) as u64,
        "{stats:?}"
    );
    assert_eq!(stats.cells(), cfgs.len() as u64);
}

/// An interrupt raised before the plan's campaign skips every cell and
/// the plan reports it instead of rendering (or panicking on) the
/// skipped cells.
#[test]
fn interrupted_plan_reports_instead_of_rendering() {
    let _ctx = serialized();
    interrupt::trigger();
    let fig3 = plan::find("fig3").expect("fig3 is listed");
    assert_eq!(plan::run(&[fig3], 1e-4), Err(plan::Interrupted));
    interrupt::reset();
}
