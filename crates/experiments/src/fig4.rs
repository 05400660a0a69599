//! Fig. 4 — performance losses of the base architecture.
//!
//! The stacked-bar CPI breakdown of the §2 base architecture: the 1.238
//! base (single-cycle execution + processor stalls) with the memory-system
//! components above it — L1-I miss, L1-D miss, L1 writes, WB, L2-I miss,
//! L2-D miss. The paper's total is ≈ 1.70.

use gaas_sim::config::SimConfig;
use gaas_sim::SimResult;

use crate::campaign::CellResult;
use crate::plan::completed;
use crate::tablefmt::{f4, Table};

/// The figure's one cell: the base architecture.
pub fn cells() -> Vec<SimConfig> {
    vec![SimConfig::baseline()]
}

/// Renders the CPI stack.
pub fn table(result: &SimResult) -> Table {
    let b = result.breakdown();
    let mut t = Table::new(
        "Fig. 4 — CPI stack of the base architecture",
        &["component", "CPI contribution"],
    );
    for (label, value) in b.components() {
        t.push_row(vec![label.to_string(), f4(value)]);
    }
    t.push_row(vec!["TOTAL".to_string(), f4(b.total())]);
    t.push_row(vec!["memory total".to_string(), f4(b.memory_cpi())]);
    t
}

/// Renders Fig. 4 from its cell's result (nothing when the cell failed).
pub fn render(_scale: f64, results: &[CellResult]) -> String {
    completed([()], results)
        .map(|((), r)| format!("{}\n", table(r)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stack_sums_to_total() {
        let r = crate::runner::run_standard(SimConfig::baseline(), 3e-4);
        let b = r.breakdown();
        let sum: f64 = b.components().iter().map(|(_, v)| v).sum();
        assert!((sum - b.total()).abs() < 1e-9);
        assert!(b.total() > 1.2, "total {}", b.total());
    }

    #[test]
    fn table_includes_all_components() {
        let r = crate::runner::run_standard(SimConfig::baseline(), 3e-4);
        let t = table(&r);
        let s = t.to_string();
        for label in [
            "L1-I miss",
            "L1-D miss",
            "L1 writes",
            "WB",
            "L2-I miss",
            "L2-D miss",
            "TOTAL",
        ] {
            assert!(s.contains(label), "missing {label}");
        }
    }
}
