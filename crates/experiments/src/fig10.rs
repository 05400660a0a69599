//! Fig. 10 — memory-system concurrency mechanisms (§9).
//!
//! Starting from the Fig. 9 design point (write-only policy, split fast
//! L2-I, 8 W fetch), three mechanisms are added cumulatively:
//!
//! 1. **concurrent I-refill** — with the split L2, an L1-I miss refills
//!    from L2-I while the write buffer keeps draining into L2-D;
//! 2. **loads passing stores** — a data-read miss no longer waits for the
//!    write buffer to empty: either full associative matching, or the
//!    paper's cheap *dirty-bit* scheme (flush only when a written line is
//!    replaced), which captures ≈ 95 % of the associative benefit;
//! 3. **L2-D dirty buffer** — read the missed line before writing back the
//!    dirty victim.
//!
//! The paper's point is cautionary: each step is worth only ≈ 0.01 CPI.

use gaas_cache::WritePolicy;
use gaas_sim::config::{ConcurrencyConfig, L2Config, SimConfig, WbBypass};

use crate::campaign::CellResult;
use crate::plan::completed;
use crate::tablefmt::{f3, f4, Table};

/// The Fig. 9 endpoint all concurrency steps build on.
fn base_wl() -> SimConfig {
    let mut b = SimConfig::builder();
    b.policy(WritePolicy::WriteOnly)
        .l2(L2Config::split_fast_i())
        .l1_line(8);
    b.build().expect("valid")
}

fn with_concurrency(c: ConcurrencyConfig) -> SimConfig {
    let mut b = base_wl().to_builder();
    b.concurrency(c);
    b.build().expect("valid")
}

/// The five columns of the figure (including the associative-matching
/// comparison point): column label and configuration.
fn steps() -> [(&'static str, SimConfig); 5] {
    [
        ("base WL", base_wl()),
        (
            "+ concurrent I refill",
            with_concurrency(ConcurrencyConfig {
                concurrent_i_refill: true,
                ..Default::default()
            }),
        ),
        (
            "+ DWB bypass (dirty bit)",
            with_concurrency(ConcurrencyConfig {
                concurrent_i_refill: true,
                d_read_bypass: WbBypass::DirtyBit,
                ..Default::default()
            }),
        ),
        (
            "(DWB bypass, associative)",
            with_concurrency(ConcurrencyConfig {
                concurrent_i_refill: true,
                d_read_bypass: WbBypass::Associative,
                ..Default::default()
            }),
        ),
        (
            "+ L2 WB (dirty buffer)",
            with_concurrency(ConcurrencyConfig {
                concurrent_i_refill: true,
                d_read_bypass: WbBypass::DirtyBit,
                l2d_dirty_buffer: true,
            }),
        ),
    ]
}

/// The walk's cells, one per column.
pub fn cells() -> Vec<SimConfig> {
    steps().into_iter().map(|(_, cfg)| cfg).collect()
}

/// Renders the Fig. 10 columns from the cells' results (in [`cells`]
/// order), each with its ΔCPI vs. the previous column (negative =
/// improvement); a failed column is omitted.
pub fn render(_scale: f64, results: &[CellResult]) -> String {
    let mut t = Table::new(
        "Fig. 10 — memory-system concurrency (cumulative)",
        &["design point", "CPI", "memory CPI", "dCPI vs prev"],
    );
    let mut prev_cpi = f64::NAN;
    for (label, r) in completed(steps().map(|(label, _)| label), results) {
        let b = r.breakdown();
        let delta = if prev_cpi.is_nan() {
            0.0
        } else {
            b.total() - prev_cpi
        };
        // The associative column compares against the dirty-bit column but
        // does not advance the walk.
        if label != "(DWB bypass, associative)" {
            prev_cpi = b.total();
        }
        t.push_row(vec![
            label.to_string(),
            f3(b.total()),
            f4(b.memory_cpi()),
            format!("{delta:+.4}"),
        ]);
    }
    format!("{t}\n")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn base_wl_matches_fig9_endpoint() {
        let c = base_wl();
        assert_eq!(c.policy, WritePolicy::WriteOnly);
        assert_eq!(c.l1i.line_words, 8);
        assert!(c.l2.is_split());
        assert!(!c.concurrency.concurrent_i_refill);
    }

    #[test]
    fn walk_runs_and_renders() {
        let results = crate::runner::run_standard_cells(&cells(), 3e-4);
        assert_eq!(results.len(), 5);
        assert!(results.iter().all(CellResult::is_done));
        assert!(render(3e-4, &results).contains("dirty"));
    }
}
