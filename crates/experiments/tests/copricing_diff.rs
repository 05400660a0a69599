//! Co-pricing differential: [`price_profiles`] (one streaming token
//! replay, N variant lanes in lockstep) must produce `SimResult`s
//! byte-identical to a full simulation of every cell, and to one-lane
//! [`price_profile`] of that cell, across a seeded sweep of geometry
//! groups with mixed lane counts (1, 2, 4, 7). The campaign fallback path
//! — a group containing a lane the co-pricer rejects — must leave the
//! sweep byte-identical to the non-memoized run while reporting the
//! fallback in [`campaign::MemoStats`].
//!
//! Lives in its own integration-test binary because
//! [`campaign::set_memoize`] and the memo-stat counters are
//! process-global; the file-level mutex serializes the tests that touch
//! them.

use std::sync::Mutex;

use gaas_cache::MainMemory;
use gaas_experiments::campaign::{self, CellResult};
use gaas_experiments::runner;
use gaas_sim::config::{L2Config, SimConfig};
use gaas_sim::{
    functional_fingerprint, price_profile, price_profiles, workload, ConcurrencyConfig, FaultRates,
    SimResult, Simulator, WbBypass, WritePolicy,
};

/// Serializes the campaign-global tests and restores defaults on panic.
static LOCK: Mutex<()> = Mutex::new(());

struct Restore;

impl Drop for Restore {
    fn drop(&mut self) {
        campaign::set_memoize(true);
    }
}

fn serialized() -> (std::sync::MutexGuard<'static, ()>, Restore) {
    let guard = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    (guard, Restore)
}

const SCALE: f64 = 3e-4;
const WARMUP: u64 = 1_500;

/// The seeded geometry sweep: nine distinct functional groups spanning
/// line size, all four write policies, L2 shape, cache size,
/// multiprogramming level, page coloring, and budget termination.
fn geometries() -> Vec<SimConfig> {
    let build = |f: &dyn Fn(&mut gaas_sim::SimConfigBuilder)| {
        let mut b = SimConfig::builder();
        f(&mut b);
        b.build().expect("geometry must be valid")
    };
    vec![
        build(&|_| {}),
        build(&|b| {
            b.l1_line(8);
        }),
        build(&|b| {
            b.policy(WritePolicy::WriteOnly);
        }),
        build(&|b| {
            b.policy(WritePolicy::WriteMissInvalidate);
        }),
        build(&|b| {
            b.policy(WritePolicy::Subblock);
        }),
        build(&|b| {
            b.l2(L2Config::split_even(262_144, 1, 6));
        }),
        build(&|b| {
            b.l1_size(2_048).mp_level(4);
        }),
        build(&|b| {
            b.page_colors(2).time_slice(40_000);
        }),
        build(&|b| {
            b.instruction_budget(20_000);
        }),
    ]
}

/// Deterministic timing variant `i` of a geometry: every knob here is
/// invisible to [`functional_fingerprint`], so all variants share the
/// base's group. Valid for *any* base (no `DirtyBit` / split-L2-only
/// concurrency knobs).
fn timing_variant(base: &SimConfig, i: usize) -> SimConfig {
    let mut b = base.to_builder();
    let mut wb = base.write_buffer;
    match i {
        0 => {}
        1 => {
            b.l2_access(9);
        }
        2 => {
            b.tlb_miss_penalty(24).memory(MainMemory {
                clean_miss_cycles: 64,
                dirty_miss_cycles: 96,
            });
        }
        3 => {
            wb.depth = 2;
            b.write_buffer(wb);
        }
        4 => {
            wb.depth = 6;
            b.write_buffer(wb);
            b.concurrency(ConcurrencyConfig {
                concurrent_i_refill: false,
                d_read_bypass: WbBypass::Associative,
                l2d_dirty_buffer: false,
            });
        }
        5 => {
            b.l2_drain_access(4).l2_access(3);
        }
        6 => {
            wb.depth = 3;
            b.write_buffer(wb);
            b.l2_access(12).memory(MainMemory {
                clean_miss_cycles: 120,
                dirty_miss_cycles: 200,
            });
            b.concurrency(ConcurrencyConfig {
                concurrent_i_refill: false,
                d_read_bypass: WbBypass::Associative,
                l2d_dirty_buffer: false,
            });
        }
        _ => unreachable!("variant table has 7 entries"),
    }
    b.build().expect("timing variant must stay valid")
}

fn assert_result_identical(co: &SimResult, single: &SimResult, what: &str) {
    assert_eq!(co.counters, single.counters, "{what}: counters");
    assert_eq!(co.per_process, single.per_process, "{what}: per-process");
    assert_eq!(co.completed, single.completed, "{what}: completed");
    assert_eq!(co.termination, single.termination, "{what}: termination");
    assert_eq!(co.config, single.config, "{what}: config echo");
}

/// The differential: for nine geometry groups with lane counts cycling
/// through 1, 2, 4, and 7, every lane of one co-priced pass must match a
/// full warmed simulation of its cell byte for byte, and a one-lane pass
/// of the same cell (lanes do not affect each other).
#[test]
fn copriced_groups_match_per_variant_pricing() {
    let geoms = geometries();
    let lane_counts = [1usize, 2, 4, 7, 7, 2, 7, 4, 7];
    assert_eq!(geoms.len(), lane_counts.len());

    // The sweep really is nine distinct groups.
    let fps: std::collections::BTreeSet<u64> = geoms
        .iter()
        .map(|g| functional_fingerprint(g).expect("memoizable geometry"))
        .collect();
    assert_eq!(fps.len(), geoms.len(), "geometries must not collide");

    for (g, (base, &lanes)) in geoms.iter().zip(&lane_counts).enumerate() {
        let (_, profile) = Simulator::new(base.clone())
            .expect("valid geometry")
            .run_profiled(workload::subset(4, SCALE), WARMUP)
            .expect("functional pass");
        let cfgs: Vec<SimConfig> = (0..lanes).map(|i| timing_variant(base, i)).collect();

        let co = price_profiles(&cfgs, &profile).expect("co-priced group");
        assert_eq!(co.len(), lanes);
        for (l, (co_r, cfg)) in co.iter().zip(&cfgs).enumerate() {
            let full = Simulator::new(cfg.clone())
                .expect("valid variant")
                .run_warmed(workload::subset(4, SCALE), WARMUP)
                .expect("full simulation");
            assert_result_identical(co_r, &full, &format!("group {g} lane {l} vs full run"));
            let single = price_profile(cfg, &profile).expect("one-lane pricing");
            assert_result_identical(co_r, &single, &format!("group {g} lane {l} vs one lane"));
        }
    }
}

/// Fallback path, end to end through the campaign: a geometry group
/// whose second member is invalid (write-buffer depth 0 — a timing
/// field, so it still joins the group) must fail its co-priced pass,
/// count one co-pricer fallback, and send the group to individual full
/// simulations — with every valid cell byte-identical to the
/// non-memoized sweep and the bad cell failing identically in both.
#[test]
fn copricer_fallback_keeps_sweep_identical() {
    let _ctx = serialized();
    let base = SimConfig::baseline();
    let mut cfgs: Vec<SimConfig> = (0..4).map(|i| timing_variant(&base, i)).collect();
    cfgs[1].write_buffer.depth = 0;
    assert_eq!(
        functional_fingerprint(&cfgs[1]),
        functional_fingerprint(&base),
        "depth is a timing field; the bad lane must stay in the group"
    );

    campaign::set_memoize(false);
    let full = runner::run_standard_cells(&cfgs, SCALE);
    campaign::set_memoize(true);
    campaign::reset_memo_stats();
    let memo = runner::run_standard_cells(&cfgs, SCALE);

    assert_eq!(full.len(), memo.len());
    for (k, (a, b)) in full.iter().zip(&memo).enumerate() {
        match (a, b) {
            (CellResult::Done(x), CellResult::Done(y)) => {
                assert_result_identical(y, x, &format!("fallback cell {k}"));
            }
            (CellResult::Failed { .. }, CellResult::Failed { .. }) => {
                assert_eq!(k, 1, "only the depth-0 lane may fail");
            }
            _ => panic!("cell {k}: both sweeps must agree on success/failure"),
        }
    }

    let stats = campaign::memo_stats();
    assert_eq!(
        stats.copriced_groups, 0,
        "the poisoned group must not count"
    );
    assert!(
        stats.copricer_fallbacks >= 1,
        "the co-pricer must report its fallback: {stats:?}"
    );
}

/// Happy-path accounting: a Fig. 7-style mini-grid (two sizes × three
/// access times) memoizes into two groups, each co-priced in one pass —
/// two lanes per group (the lead cell is the functional pass), two
/// replay passes saved, zero fallbacks.
#[test]
fn copricing_stats_count_groups_and_saved_passes() {
    let _ctx = serialized();
    let sizes = [16_384u64, 262_144];
    let times = [2u32, 6, 9];
    let cfgs: Vec<SimConfig> = sizes
        .iter()
        .flat_map(|&s| times.iter().map(move |&t| (s, t)))
        .map(|(s, t)| {
            let mut b = SimConfig::builder();
            b.l2(L2Config::Split {
                i: gaas_sim::config::L2Side {
                    size_words: s,
                    assoc: 1,
                    line_words: 32,
                    access_cycles: t,
                },
                d: gaas_sim::config::L2Side {
                    size_words: 262_144,
                    assoc: 1,
                    line_words: 32,
                    access_cycles: 6,
                },
            });
            b.build().expect("valid")
        })
        .collect();

    campaign::set_memoize(true);
    campaign::reset_memo_stats();
    let results = runner::run_standard_cells(&cfgs, SCALE);
    assert!(results.iter().all(|r| matches!(r, CellResult::Done(_))));

    let stats = campaign::memo_stats();
    assert_eq!(stats.functional_runs, 2, "{stats:?}");
    assert_eq!(stats.copriced_groups, 2, "{stats:?}");
    assert_eq!(stats.copriced_lanes, 4, "{stats:?}");
    assert_eq!(stats.replay_passes_saved(), 2, "{stats:?}");
    assert_eq!(stats.copricer_fallbacks, 0, "{stats:?}");
    assert!((stats.lanes_per_group() - 2.0).abs() < 1e-9, "{stats:?}");
}

/// Unmemoizable configurations never reach the co-pricer at all.
#[test]
fn unmemoizable_cells_never_coprice() {
    let _ctx = serialized();
    let mut faulty = SimConfig::baseline();
    faulty.fault.rates = FaultRates::uniform(1e-3);
    let cfgs = vec![faulty.clone(), faulty];

    campaign::set_memoize(true);
    campaign::reset_memo_stats();
    let results = runner::run_standard_cells(&cfgs, SCALE);
    assert!(results.iter().all(|r| matches!(r, CellResult::Done(_))));

    let stats = campaign::memo_stats();
    assert_eq!(stats.copriced_groups, 0, "{stats:?}");
    assert_eq!(stats.copriced_lanes, 0, "{stats:?}");
    assert_eq!(stats.copricer_fallbacks, 0, "{stats:?}");
}
