//! Programmatic verification of the paper's headline shapes.
//!
//! Runs a compact version of every experiment, its cell sweeps as one
//! campaign batch, and evaluates the claims recorded in EXPERIMENTS.md —
//! who wins, which curves are flat, where the crossover falls — printing
//! PASS/FAIL per claim. `repro check` is the one-command answer to "does
//! this reproduction still reproduce?".

use crate::campaign::CellResult;
use crate::fig78::{side_cpi, Side};
use crate::runner::run_standard_cells;
use crate::tablefmt::Table;
use crate::{fig10, fig2, fig3, fig5, fig6, fig78, fig9, sec5, sec8, threec};
use gaas_cache::WritePolicy;
use gaas_sim::config::SimConfig;
use gaas_sim::SimResult;

/// One verified claim.
#[derive(Debug, Clone)]
pub struct Check {
    /// Which paper artifact the claim belongs to.
    pub artifact: &'static str,
    /// The claim, in words.
    pub claim: &'static str,
    /// Whether the fresh run satisfies it.
    pub passed: bool,
    /// Measured evidence.
    pub detail: String,
}

fn check(artifact: &'static str, claim: &'static str, passed: bool, detail: String) -> Check {
    Check {
        artifact,
        claim,
        passed,
        detail,
    }
}

/// The swept artifacts' cells, all run as one batch, and their results
/// in artifact order (see [`Sweeps::take`]).
struct Sweeps {
    parts: std::vec::IntoIter<(&'static str, Vec<SimConfig>)>,
    results: std::vec::IntoIter<CellResult>,
}

impl Sweeps {
    /// Runs every artifact's cells as **one** [`run_standard_cells`]
    /// batch, so a geometry that recurs across artifacts (the baseline
    /// spans five) runs one functional pass for all of them.
    fn run(parts: Vec<(&'static str, Vec<SimConfig>)>, scale: f64) -> Self {
        let cfgs: Vec<SimConfig> = parts.iter().flat_map(|(_, c)| c.clone()).collect();
        Sweeps {
            parts: parts.into_iter(),
            results: run_standard_cells(&cfgs, scale).into_iter(),
        }
    }

    /// The next artifact's sweep, which must be `artifact`'s, with each
    /// config paired with its result. A failed cell makes the sweep
    /// incomplete — a failed check for `artifact`, never a panic — and
    /// its claims go unevaluated.
    fn take(
        &mut self,
        checks: &mut Vec<Check>,
        artifact: &'static str,
    ) -> Option<Vec<(SimConfig, SimResult)>> {
        let (name, cfgs) = self.parts.next().expect("one sweep per artifact");
        assert_eq!(name, artifact, "sweeps are taken in artifact order");
        let n = cfgs.len();
        let done: Vec<(SimConfig, SimResult)> = cfgs
            .into_iter()
            .zip(self.results.by_ref())
            .filter_map(|(cfg, res)| Some((cfg, *res.ok()?)))
            .collect();
        if done.len() < n {
            checks.push(check(
                artifact,
                "sweep is complete",
                false,
                format!("{} of {n} cells present", done.len()),
            ));
            return None;
        }
        Some(done)
    }
}

/// The cells of a speed–size surface at `sizes` and the base 6-cycle
/// access time, in size order.
fn surface(side: Side, sizes: [u64; 2]) -> Vec<SimConfig> {
    fig78::cells(side)
        .into_iter()
        .filter(|c| {
            let s = fig78::swept(side, c);
            sizes.contains(&s.size_words) && s.access_cycles == 6
        })
        .collect()
}

/// Runs all shape checks at `scale`.
pub fn run(scale: f64) -> Vec<Check> {
    let mut checks = Vec::new();
    let mut sweeps = Sweeps::run(
        vec![
            ("fig2", fig2::cells()),
            ("fig3", fig3::cells()),
            ("fig5", fig5::cells()),
            ("fig6", fig6::cells()),
            ("fig7", surface(Side::Instruction, [131_072, 524_288])),
            ("fig8", surface(Side::Data, [32_768, 524_288])),
            ("fig9", fig9::cells()),
            ("fig10", fig10::cells()),
            ("sec5", sec5::cells()),
            ("sec8", sec8::cells()),
        ],
        scale,
    );

    // Fig. 2: L1-I ratio roughly flat across MP levels; L2 ratio rises
    // from level 1 to 8.
    if let Some(f2) = sweeps.take(&mut checks, "fig2") {
        let l1i: Vec<f64> = f2
            .iter()
            .map(|(_, r)| r.counters.l1i_miss_ratio())
            .collect();
        let l1i_spread = l1i.iter().copied().fold(f64::MIN, f64::max)
            / l1i.iter().copied().fold(f64::MAX, f64::min).max(1e-9);
        let (first, last) = (&f2[0], &f2[f2.len() - 1]);
        let (l2_first, l2_last) = (
            first.1.counters.l2_miss_ratio(),
            last.1.counters.l2_miss_ratio(),
        );
        checks.push(check(
            "fig2",
            "L1-I miss ratio flat in MP level",
            l1i_spread < 3.0,
            format!("max/min = {l1i_spread:.2}"),
        ));
        checks.push(check(
            "fig2",
            "L2 miss ratio grows with MP level",
            l2_last > l2_first * 0.99,
            format!(
                "{l2_first:.4} (level {}) vs {l2_last:.4} (level {})",
                first.0.mp.level, last.0.mp.level
            ),
        ));
    }

    // Fig. 3: longer slices improve CPI.
    if let Some(f3) = sweeps.take(&mut checks, "fig3") {
        let (short, long) = (f3[0].1.cpi(), f3[f3.len() - 1].1.cpi());
        checks.push(check(
            "fig3",
            "performance improves with slice length",
            short > long,
            format!("{short:.3} @10k vs {long:.3} @10M"),
        ));
    }

    // Fig. 5: write-back flat; write-through rises; crossover in (6, 12];
    // write-only ≈ subblock.
    if let Some(f5) = sweeps.take(&mut checks, "fig5") {
        // Each policy's CPI over the access times, in sweep order.
        let series = |policy: WritePolicy| -> Vec<f64> {
            f5.iter()
                .filter(|(c, _)| c.policy == policy)
                .map(|(_, r)| r.cpi())
                .collect()
        };
        let (wb, wo, sb) = (
            series(WritePolicy::WriteBack),
            series(WritePolicy::WriteOnly),
            series(WritePolicy::Subblock),
        );
        let wb_range =
            wb.iter().fold(f64::MIN, |a, &b| a.max(b)) - wb.iter().fold(f64::MAX, |a, &b| a.min(b));
        checks.push(check(
            "fig5",
            "write-back curve is flat",
            wb_range < 0.05,
            format!("range {wb_range:.4}"),
        ));
        let (wo_first, wo_last) = (wo[0], wo[wo.len() - 1]);
        checks.push(check(
            "fig5",
            "write-through rises with drain time",
            wo_last > wo_first + 0.01,
            format!("{wo_first:.3} -> {wo_last:.3}"),
        ));
        let crossover = fig5::ACCESS_TIMES
            .iter()
            .zip(&wo)
            .zip(&wb)
            .find(|((_, w), b)| w >= b)
            .map(|((t, _), _)| *t);
        checks.push(check(
            "fig5",
            "crossover falls between 6 and 12 cycles",
            matches!(crossover, Some(t) if (6..=12).contains(&t)),
            format!("crossover at {crossover:?}"),
        ));
        let wo_sb_gap = wo
            .iter()
            .zip(&sb)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f64::max);
        checks.push(check(
            "fig5",
            "write-only tracks subblock placement",
            wo_sb_gap < 0.02,
            format!("max gap {wo_sb_gap:.4}"),
        ));
    }

    // Fig. 6: split hurts the smallest size and does not hurt the largest
    // (direct-mapped).
    if let Some(f6) = sweeps.take(&mut checks, "fig6") {
        let at = |size: u64, org: fig6::Org| {
            let l2 = org.l2(size);
            f6.iter().find(|(c, _)| c.l2 == l2).expect("grid").1.cpi()
        };
        let (small, big) = (fig6::SIZES[0], fig6::SIZES[fig6::SIZES.len() - 1]);
        let (small_u, small_s) = (at(small, fig6::Org::Unified1), at(small, fig6::Org::Split1));
        let (big_u, big_s) = (at(big, fig6::Org::Unified1), at(big, fig6::Org::Split1));
        checks.push(check(
            "fig6",
            "splitting hurts a small direct-mapped L2",
            small_s > small_u,
            format!("{small_s:.3} vs {small_u:.3} at {}KW", small / 1024),
        ));
        checks.push(check(
            "fig6",
            "splitting helps a large direct-mapped L2",
            big_s <= big_u,
            format!("{big_s:.3} vs {big_u:.3} at {}KW", big / 1024),
        ));
    }

    // Fig. 7: instruction-side curves flatten at large sizes.
    let side = Side::Instruction;
    if let Some(f7) = sweeps.take(&mut checks, "fig7") {
        let (mid, large) = (side_cpi(side, &f7[0].1), side_cpi(side, &f7[1].1));
        checks.push(check(
            "fig7",
            "L2-I curve flat beyond 128KW",
            (mid - large).abs() < 0.01,
            format!("{mid:.4} vs {large:.4}"),
        ));
    }

    // Fig. 8: data side keeps improving to 512 KW.
    let side = Side::Data;
    if let Some(f8) = sweeps.take(&mut checks, "fig8") {
        let (small, large) = (side_cpi(side, &f8[0].1), side_cpi(side, &f8[1].1));
        checks.push(check(
            "fig8",
            "L2-D keeps improving with size",
            large < small,
            format!("{small:.3} @32KW vs {large:.3} @512KW"),
        ));
    }

    // Fig. 9: the split fast L2-I is a large memory win; swapping loses.
    if let Some(f9) = sweeps.take(&mut checks, "fig9") {
        let b: Vec<_> = f9.iter().map(|(_, r)| r.breakdown()).collect();
        let gain = (b[0].memory_cpi() - b[1].memory_cpi()) / b[0].memory_cpi();
        checks.push(check(
            "fig9",
            "split fast L2-I cuts memory CPI by >15%",
            gain > 0.15,
            format!("gain {:.1}%", 100.0 * gain),
        ));
        checks.push(check(
            "fig9",
            "swapped partitioning is worse",
            b[3].total() > b[2].total(),
            format!("{:.3} vs {:.3}", b[3].total(), b[2].total()),
        ));
    }

    // Fig. 10: concurrency steps help but only modestly.
    if let Some(f10) = sweeps.take(&mut checks, "fig10") {
        let total = |r: &SimResult| r.breakdown().total();
        let total_gain = total(&f10[0].1) - total(&f10[f10.len() - 1].1);
        checks.push(check(
            "fig10",
            "concurrency helps but modestly (0 < gain < 0.1)",
            total_gain > 0.0 && total_gain < 0.1,
            format!("total gain {total_gain:.4}"),
        ));
    }

    // Sec. 5: 4 KW direct-mapped minimizes effective time.
    if let Some(s5) = sweeps.take(&mut checks, "sec5") {
        let (l1, effective) = s5
            .iter()
            .map(|(c, r)| {
                (
                    c.l1i,
                    r.cpi() * sec5::stretch(c.l1i.size_words, c.l1i.assoc),
                )
            })
            .min_by(|a, b| a.1.partial_cmp(&b.1).expect("finite"))
            .expect("rows");
        checks.push(check(
            "sec5",
            "4KW direct-mapped is the effective optimum",
            l1.size_words == 4096 && l1.assoc == 1,
            format!(
                "best = {}KW {}-way ({effective:.3})",
                l1.size_words / 1024,
                l1.assoc
            ),
        ));
    }

    // Sec. 8: 8W beats 4W (both), 16W loses on the data side.
    if let Some(s8) = sweeps.take(&mut checks, "sec8") {
        let g = |i: u32, d: u32| {
            s8.iter()
                .find(|(c, _)| c.l1i.line_words == i && c.l1d.line_words == d)
                .expect("grid")
                .1
                .cpi()
        };
        checks.push(check(
            "sec8",
            "8W fetch beats 4W on both caches",
            g(8, 8) < g(4, 4),
            format!("{:.3} vs {:.3}", g(8, 8), g(4, 4)),
        ));
        checks.push(check(
            "sec8",
            "16W data fetch over-fetches",
            g(8, 16) > g(8, 8),
            format!("{:.3} vs {:.3}", g(8, 16), g(8, 8)),
        ));
    }

    // 3C: splitting removes conflict misses at the large size.
    let t3 = threec::run(scale);
    let large = t3.last().expect("sizes");
    checks.push(check(
        "threec",
        "splitting removes L2 conflict misses at 1MW",
        large.split.conflict < large.unified.conflict,
        format!(
            "{} vs {} conflicts",
            large.split.conflict, large.unified.conflict
        ),
    ));

    checks
}

/// Renders the verification table.
pub fn table(checks: &[Check]) -> Table {
    let mut t = Table::new(
        "Shape verification — paper claims vs this run",
        &["artifact", "claim", "result", "evidence"],
    );
    for c in checks {
        t.push_row(vec![
            c.artifact.to_string(),
            c.claim.to_string(),
            if c.passed {
                "PASS".into()
            } else {
                "FAIL".into()
            },
            c.detail.clone(),
        ]);
    }
    t
}

/// True when every check passed.
pub fn all_passed(checks: &[Check]) -> bool {
    checks.iter().all(|c| c.passed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn check_constructor_and_table() {
        let checks = vec![
            check("figX", "something holds", true, "1 < 2".into()),
            check("figY", "something else", false, "3 > 2".into()),
        ];
        let t = table(&checks);
        assert_eq!(t.n_rows(), 2);
        assert!(t.to_string().contains("PASS"));
        assert!(t.to_string().contains("FAIL"));
        assert!(!all_passed(&checks));
        assert!(all_passed(&checks[..1]));
    }

    #[test]
    fn a_failed_cell_fails_only_its_own_artifacts_sweep() {
        let done = |cfg: &SimConfig| {
            CellResult::Done(Box::new(SimResult {
                config: cfg.clone(),
                counters: gaas_sim::Counters::new(),
                completed: Vec::new(),
                per_process: Vec::new(),
                termination: gaas_sim::Termination::Completed,
                checkpoints: Vec::new(),
            }))
        };
        let (a, b) = (SimConfig::baseline(), SimConfig::optimized());
        let failed = CellResult::Failed {
            error: "boom".into(),
            attempts: 1,
        };
        // One batch of three cells: fig2's two (the second failed), then
        // fig3's one.
        let mut sweeps = Sweeps {
            parts: vec![
                ("fig2", vec![a.clone(), b.clone()]),
                ("fig3", vec![b.clone()]),
            ]
            .into_iter(),
            results: vec![done(&a), failed, done(&b)].into_iter(),
        };
        let mut checks = Vec::new();
        assert!(sweeps.take(&mut checks, "fig2").is_none());
        let fig3 = sweeps.take(&mut checks, "fig3").expect("fig3 is complete");
        assert_eq!(fig3.len(), 1);
        assert_eq!(fig3[0].1.config, b, "fig3 gets its own cell's result");
        assert_eq!(checks.len(), 1, "one failed claim: {checks:?}");
        let c = &checks[0];
        assert_eq!(
            (c.artifact, c.claim, c.passed),
            ("fig2", "sweep is complete", false)
        );
        assert_eq!(c.detail, "1 of 2 cells present");
    }
}
