//! Per-benchmark behaviour under multiprogramming.
//!
//! The paper discusses individual benchmarks qualitatively (integer codes
//! vs. streaming FP codes); this experiment makes that visible: the base
//! architecture runs the full level-8 workload and the simulator's
//! per-process attribution reports each benchmark's CPI and miss ratios
//! *as experienced inside the multiprogram mix*.

use gaas_sim::config::SimConfig;
use gaas_trace::bench_model::suite;

use crate::campaign::CellResult;
use crate::plan::completed;
use crate::tablefmt::{f3, f4, Table};

/// The experiment's one cell: the base architecture.
pub fn cells() -> Vec<SimConfig> {
    vec![SimConfig::baseline()]
}

/// Renders the cell's result split per benchmark: each benchmark's
/// instructions, CPI, miss ratios and L2 demand misses per 1000
/// instructions as experienced inside the mix (no rows when the cell
/// failed).
pub fn render(_scale: f64, results: &[CellResult]) -> String {
    let specs = suite();
    let mut t = Table::new(
        "Per-benchmark behaviour inside the level-8 multiprogram mix (base arch)",
        &[
            "benchmark",
            "class",
            "instr",
            "CPI",
            "L1-I miss",
            "L1-D miss",
            "L2 MPKI",
        ],
    );
    for ((), result) in completed([()], results) {
        for (pid, p) in &result.per_process {
            let spec = &specs[pid.raw() as usize];
            t.push_row(vec![
                spec.name.to_string(),
                spec.fp_class.tag().to_string(),
                p.instructions.to_string(),
                f3(p.cpi()),
                f4(p.l1i_miss_ratio()),
                f4(p.l1d_miss_ratio()),
                format!(
                    "{:.2}",
                    1000.0 * p.l2_misses as f64 / p.instructions.max(1) as f64
                ),
            ]);
        }
    }
    format!("{t}\n")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn per_benchmark_rows_cover_the_suite() {
        let results = crate::runner::run_standard_cells(&cells(), 3e-4);
        let CellResult::Done(r) = &results[0] else {
            panic!("the baseline cell failed");
        };
        let specs = suite();
        let name = |pid: &gaas_sim::Pid| specs[pid.raw() as usize].name;
        assert_eq!(r.per_process.len(), 10);
        for (pid, p) in &r.per_process {
            assert!(p.cpi() >= 1.0, "{}: CPI {}", name(pid), p.cpi());
            assert!(p.instructions > 0);
        }
        // Streaming FP codes must show higher L1-D miss than the tight
        // integer codes.
        let l1d = |bench: &str| {
            let (_, p) = r
                .per_process
                .iter()
                .find(|(pid, _)| name(pid) == bench)
                .expect("present");
            p.l1d_miss_ratio()
        };
        let (tomcatv, li) = (l1d("tomcatv"), l1d("li"));
        assert!(tomcatv > li * 0.3, "tomcatv {tomcatv} vs li {li}");
        assert!(render(3e-4, &results).contains("tomcatv"));
    }
}
