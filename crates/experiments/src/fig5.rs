//! Fig. 5 — write policy vs. effective L2 access time.
//!
//! Four L1-D write policies (write-back, write-miss-invalidate, the new
//! write-only, subblock placement) are compared while the *effective L2
//! access time seen by write-buffer drains* sweeps from 2 to 10 cycles
//! (the paper relates larger L2 sizes to larger effective access times).
//! Expected shape: the write-back curve is nearly flat (its constant
//! ≈ 0.07 CPI of two-cycle write hits dominates); the write-through curves
//! rise with the drain time (write-buffer-empty waits before read misses)
//! and cross write-back at ≈ 8 cycles; write-only tracks subblock placement
//! closely without its extra valid bits.

use gaas_cache::WritePolicy;
use gaas_sim::config::SimConfig;

use crate::campaign::CellResult;
use crate::plan::completed;
use crate::tablefmt::{f3, f4, grid, Table};

/// Effective drain access times swept (cycles).
pub const ACCESS_TIMES: [u32; 5] = [2, 4, 6, 8, 10];

/// The sweep's `(policy, access)` points, policy-major.
fn points() -> impl Iterator<Item = (WritePolicy, u32)> {
    WritePolicy::all()
        .into_iter()
        .flat_map(|policy| ACCESS_TIMES.iter().map(move |&access| (policy, access)))
}

/// The 4 × 5 sweep's cells on the base architecture, policy-major.
pub fn cells() -> Vec<SimConfig> {
    points()
        .map(|(policy, access)| {
            let mut b = SimConfig::builder();
            b.policy(policy).l2_drain_access(access);
            b.build().expect("valid")
        })
        .collect()
}

/// Renders the Fig. 5 series (one row per access time, one column per
/// policy) and the write-hit / WB-wait component split the paper
/// discusses, from the cells' results (in [`cells`] order); a failed
/// cell renders as a gap.
pub fn render(_scale: f64, results: &[CellResult]) -> String {
    let done: Vec<_> = completed(points(), results).collect();
    let cpi = grid(
        "Fig. 5 — write policy vs. effective L2 access time (CPI)",
        "access",
        ACCESS_TIMES.map(|a| (a.to_string(), a)),
        &WritePolicy::all().map(|p| (p.label().to_string(), p)),
        |access, policy| {
            done.iter()
                .find(|(point, _)| *point == (policy, access))
                .map(|(_, r)| f3(r.cpi()))
        },
    );
    let mut parts = Table::new(
        "Fig. 5 components — write cycles and WB waits per policy",
        &["policy", "access", "write CPI", "WB CPI"],
    );
    for ((policy, access), r) in &done {
        let bd = r.breakdown();
        parts.push_row(vec![
            policy.label().to_string(),
            access.to_string(),
            f4(bd.l1_writes),
            f4(bd.wb_wait),
        ]);
    }
    format!("{cpi}\n{parts}\n")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::run_standard_cells;

    #[test]
    fn sweep_is_complete() {
        let results = run_standard_cells(&cells(), 3e-4);
        assert_eq!(results.len(), 4 * ACCESS_TIMES.len());
        assert!(results.iter().all(CellResult::is_done));
        let grid_rows = render(3e-4, &results)
            .lines()
            .filter(|l| l.trim_start().starts_with(char::is_numeric))
            .count();
        assert_eq!(grid_rows, ACCESS_TIMES.len());
    }
}
