//! Warm-up transient: windowed miss ratios over the run.
//!
//! \[BKW90\] (which the paper cites) showed that short traces overstate
//! large-cache miss ratios because compulsory misses never amortize. This
//! experiment shows the transient directly — the base architecture's
//! windowed L2 miss ratio falling toward steady state — and thereby
//! justifies the harness's 40 % warm-up discard.

use gaas_sim::{config::SimConfig, workload, Counters, Simulator};
use gaas_trace::bench_model::suite;

use crate::campaign::CellResult;
use crate::tablefmt::{f4, Table};

/// One time window of the run.
#[derive(Debug, Clone, Copy)]
pub struct Row {
    /// Window index (0-based).
    pub window: usize,
    /// Instructions in the window.
    pub instructions: u64,
    /// Windowed L1-D miss ratio.
    pub l1d: f64,
    /// Windowed L2 miss ratio.
    pub l2: f64,
    /// Windowed CPI.
    pub cpi: f64,
}

/// Runs the base architecture and samples `n_windows` windows.
pub fn run(scale: f64, n_windows: u64) -> Vec<Row> {
    let total: u64 = suite().iter().map(|b| b.scaled_instructions(scale)).sum();
    let window = (total / n_windows.max(1)).max(1);
    let (_, samples) = Simulator::new(SimConfig::baseline())
        .expect("valid")
        .run_sampled(workload::standard(scale), 0, window)
        .expect("fault-free runs cannot machine-check");
    samples
        .iter()
        .enumerate()
        .map(|(i, c): (usize, &Counters)| Row {
            window: i,
            instructions: c.instructions,
            l1d: c.l1d_miss_ratio(),
            l2: c.l2_miss_ratio(),
            cpi: c.total_cycles() as f64 / c.instructions.max(1) as f64,
        })
        .collect()
}

/// Renders the transient.
pub fn table(rows: &[Row]) -> Table {
    let mut t = Table::new(
        "Warm-up transient — windowed miss ratios over the run (base arch)",
        &["window", "instructions", "L1-D miss", "L2 miss", "CPI"],
    );
    for r in rows {
        t.push_row(vec![
            r.window.to_string(),
            r.instructions.to_string(),
            f4(r.l1d),
            f4(r.l2),
            format!("{:.3}", r.cpi),
        ]);
    }
    t
}

/// Renders the transient over 20 windows (a sampled run; it has no cells).
pub fn render(scale: f64, _results: &[CellResult]) -> String {
    format!("{}\n", table(&run(scale, 20)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transient_declines_toward_steady_state() {
        let rows = run(1e-3, 10);
        assert!(rows.len() >= 8, "windows: {}", rows.len());
        let first = &rows[0];
        let last_quarter: Vec<&Row> = rows.iter().skip(3 * rows.len() / 4).collect();
        let tail_l2 = last_quarter.iter().map(|r| r.l2).sum::<f64>() / last_quarter.len() as f64;
        assert!(
            first.l2 > tail_l2,
            "L2 transient must decline: first {} vs tail {}",
            first.l2,
            tail_l2
        );
    }
}
