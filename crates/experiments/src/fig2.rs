//! Fig. 2 — the effect of multiprogramming level on cache performance.
//!
//! The paper sweeps the number of resident processes (2–16 in the figure;
//! we add 1) at a fixed 500 k-cycle time slice and reports L1-I, L1-D and
//! L2 miss ratios. Expected shape: the L1 ratios are essentially flat (the
//! 4 KW caches are too small to hold more than the running process' set
//! anyway), the L2 ratio grows with the level and stabilizes by level ≈ 8,
//! which is why the paper settles on level 8 for all later studies.

use gaas_sim::config::SimConfig;

use crate::campaign::CellResult;
use crate::plan::completed;
use crate::tablefmt::{f3, f4, Table};

/// Multiprogramming levels swept.
pub const LEVELS: [usize; 5] = [1, 2, 4, 8, 16];

/// The sweep's cells: the base architecture at each level of [`LEVELS`].
pub fn cells() -> Vec<SimConfig> {
    LEVELS
        .iter()
        .map(|&level| {
            let mut b = SimConfig::builder();
            b.mp_level(level);
            b.build().expect("valid")
        })
        .collect()
}

/// Renders the Fig. 2 series from the cells' results (in [`cells`]
/// order); a failed level is omitted.
pub fn render(_scale: f64, results: &[CellResult]) -> String {
    let mut t = Table::new(
        "Fig. 2 — miss ratios vs. multiprogramming level (slice 500k cycles)",
        &["level", "L1-I miss", "L1-D miss", "L2 miss", "CPI"],
    );
    for (level, r) in completed(LEVELS, results) {
        let c = &r.counters;
        t.push_row(vec![
            level.to_string(),
            f4(c.l1i_miss_ratio()),
            f4(c.l1d_miss_ratio()),
            f4(c.l2_miss_ratio()),
            f3(r.cpi()),
        ]);
    }
    format!("{t}\n")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::run_standard_cells;

    #[test]
    fn sweep_covers_levels() {
        let results = run_standard_cells(&cells(), 5e-4);
        for (res, level) in results.iter().zip(LEVELS) {
            let CellResult::Done(r) = res else {
                panic!("level {level} failed");
            };
            assert!(r.cpi() > 1.0);
        }
        let levels: Vec<String> = render(5e-4, &results)
            .lines()
            .filter_map(|l| l.split_whitespace().next())
            .filter(|w| w.starts_with(char::is_numeric))
            .map(String::from)
            .collect();
        assert_eq!(levels, LEVELS.map(|l| l.to_string()));
    }
}
