//! Fig. 3 — the effect of the context-switch interval on cache performance.
//!
//! The paper sweeps the round-robin time slice (its x-axis spans roughly
//! 10 k to 10 M cycles) at multiprogramming level 8. Expected shape:
//! performance improves markedly with longer slices (more opportunity to
//! reuse lines before they are evicted by other processes); very short
//! slices are disastrous. The paper compromises on 500 k cycles, yielding
//! ≈ 310 k cycles between switches once voluntary syscalls are counted.

use gaas_sim::config::SimConfig;

use crate::campaign::CellResult;
use crate::plan::completed;
use crate::tablefmt::{f3, f4, Table};

/// Time slices swept (cycles).
pub const SLICES: [u64; 7] = [
    10_000, 50_000, 100_000, 500_000, 1_000_000, 5_000_000, 10_000_000,
];

/// The sweep's cells: the base architecture (level 8) at each slice of
/// [`SLICES`].
pub fn cells() -> Vec<SimConfig> {
    SLICES
        .iter()
        .map(|&slice| {
            let mut b = SimConfig::builder();
            b.time_slice(slice);
            b.build().expect("valid")
        })
        .collect()
}

/// Renders the Fig. 3 series from the cells' results (in [`cells`]
/// order); a failed slice is omitted.
pub fn render(_scale: f64, results: &[CellResult]) -> String {
    let mut t = Table::new(
        "Fig. 3 — miss ratios vs. context-switch interval (MP level 8)",
        &[
            "slice (cyc)",
            "L1-I miss",
            "L1-D miss",
            "L2 miss",
            "CPI",
            "cyc/switch",
        ],
    );
    for (slice, r) in completed(SLICES, results) {
        let c = &r.counters;
        let switches = (c.syscall_switches + c.slice_switches).max(1);
        t.push_row(vec![
            slice.to_string(),
            f4(c.l1i_miss_ratio()),
            f4(c.l1d_miss_ratio()),
            f4(c.l2_miss_ratio()),
            f3(r.cpi()),
            format!("{:.0}", c.total_cycles() as f64 / switches as f64),
        ]);
    }
    format!("{t}\n")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::run_standard_many;

    #[test]
    fn sweep_covers_slices() {
        let results = run_standard_many(&cells(), 3e-4);
        assert_eq!(results.len(), SLICES.len());
        let shortest = results[0].cpi();
        let longest = results[results.len() - 1].cpi();
        assert!(
            shortest >= longest,
            "short slices must not beat long ones: {shortest} vs {longest}"
        );
    }
}
