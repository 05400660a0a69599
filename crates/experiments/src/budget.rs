//! MCM partitioning budget (§2/§7): what actually sits on the substrate.
//!
//! The paper's partitioning principle — "place components on the MCM
//! which, through low-latency communication with the CPU, will produce the
//! greatest increase in system performance" — has a physical side: the
//! population must fit the substrate and its pin budget. This experiment
//! renders the `gaas-mcm` budgets for the Fig. 1 and Fig. 11 populations.

use gaas_mcm::McmBudget;

use crate::campaign::CellResult;
use crate::tablefmt::Table;

/// Runs (constructs) the two budgets.
pub fn run() -> Vec<McmBudget> {
    vec![McmBudget::base(), McmBudget::optimized()]
}

/// Renders a budget summary table.
pub fn table(budgets: &[McmBudget]) -> Table {
    let mut t = Table::new(
        "MCM substrate budgets (Fig. 1 vs Fig. 11 populations)",
        &[
            "configuration",
            "dies",
            "die area (mm2)",
            "substrate edge (mm)",
            "signal pins",
            "fits",
        ],
    );
    for b in budgets {
        t.push_row(vec![
            b.name.to_string(),
            b.die_count().to_string(),
            format!("{:.0}", b.die_area_mm2()),
            format!("{:.0}", b.substrate_edge_mm()),
            b.total_pins().to_string(),
            if b.fits() { "yes".into() } else { "NO".into() },
        ]);
    }
    t
}

/// Renders the per-component detail of one budget.
pub fn detail_table(budget: &McmBudget) -> Table {
    let mut t = Table::new(
        format!("MCM population detail — {}", budget.name),
        &["component", "count", "die (mm)", "area (mm2)", "pins"],
    );
    for c in &budget.components {
        t.push_row(vec![
            c.name.to_string(),
            c.count.to_string(),
            format!("{:.1}x{:.1}", c.die_mm.0, c.die_mm.1),
            format!("{:.0}", c.area_mm2()),
            c.pins().to_string(),
        ]);
    }
    t
}

/// Renders the budget summary and each population's detail (no cells).
pub fn render(_scale: f64, _results: &[CellResult]) -> String {
    let budgets = run();
    let mut out = format!("{}\n", table(&budgets));
    for b in &budgets {
        out += &format!("{}\n", detail_table(b));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn budgets_render() {
        let budgets = run();
        assert_eq!(budgets.len(), 2);
        let t = table(&budgets);
        assert_eq!(t.n_rows(), 2);
        assert!(t.to_string().contains("Fig. 11"));
        let d = detail_table(&budgets[0]);
        assert!(d.to_string().contains("CPU"));
    }

    #[test]
    fn both_populations_fit() {
        for b in run() {
            assert!(b.fits(), "{} does not fit", b.name);
        }
    }
}
