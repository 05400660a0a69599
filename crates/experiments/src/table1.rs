//! Table 1 — the multiprogramming workload characterization.
//!
//! Regenerates the paper's workload table by characterizing each synthetic
//! benchmark with [`gaas_trace::stats::TraceStats`]: instruction count
//! (full-scale, from the spec), loads and stores as a percentage of
//! instructions (measured from the generated trace), and the number of
//! voluntary system calls (full-scale).

use gaas_sim::Pid;
use gaas_trace::bench_model::{suite, BenchmarkSpec};
use gaas_trace::gen::TraceGenerator;
use gaas_trace::stats::TraceStats;

use crate::campaign::CellResult;
use crate::tablefmt::{pct, Table};

/// One row of Table 1.
#[derive(Debug, Clone)]
pub struct Row {
    /// Benchmark name.
    pub name: String,
    /// FP class tag (I/S/D).
    pub class: &'static str,
    /// Full-scale instruction count (millions).
    pub instructions_m: f64,
    /// Measured loads as % of instructions.
    pub load_pct: f64,
    /// Measured stores as % of instructions.
    pub store_pct: f64,
    /// Full-scale voluntary system calls.
    pub syscalls: u64,
    /// Measured processor-stall CPI contribution.
    pub stall_cpi: f64,
}

fn characterize(spec: &BenchmarkSpec, pid: u8, scale: f64) -> Row {
    let stats = TraceStats::from_events(TraceGenerator::new(spec, Pid::new(pid), scale));
    Row {
        name: spec.name.to_string(),
        class: spec.fp_class.tag(),
        instructions_m: spec.instructions as f64 / 1e6,
        load_pct: stats.load_pct(),
        store_pct: stats.store_pct(),
        syscalls: spec.syscalls,
        stall_cpi: stats.stall_cpi(),
    }
}

/// Characterizes the full suite; `scale` bounds the trace sample measured
/// per benchmark.
pub fn run(scale: f64) -> Vec<Row> {
    suite()
        .iter()
        .enumerate()
        .map(|(i, spec)| characterize(spec, i as u8, scale))
        .collect()
}

/// Renders the Table 1 analog.
pub fn table(rows: &[Row]) -> Table {
    let mut t = Table::new(
        "Table 1 — benchmark workload (synthetic analogs)",
        &[
            "benchmark",
            "class",
            "instr (M)",
            "loads",
            "stores",
            "syscalls",
            "stall CPI",
        ],
    );
    for r in rows {
        t.push_row(vec![
            r.name.clone(),
            r.class.to_string(),
            format!("{:.0}", r.instructions_m),
            pct(r.load_pct),
            pct(r.store_pct),
            r.syscalls.to_string(),
            format!("{:.3}", r.stall_cpi),
        ]);
    }
    t
}

/// Renders Table 1, measuring at most a 0.002-scale trace sample per benchmark.
pub fn render(scale: f64, _results: &[CellResult]) -> String {
    format!("{}\n", table(&run(scale.min(0.002))))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rows_cover_suite() {
        let rows = run(2e-4);
        assert_eq!(rows.len(), 10);
        assert!(rows.iter().any(|r| r.name == "gcc" && r.class == "I"));
        for r in &rows {
            assert!(
                r.load_pct > 5.0 && r.load_pct < 50.0,
                "{}: {}",
                r.name,
                r.load_pct
            );
            assert!(
                r.store_pct >= 0.5 && r.store_pct < 20.0,
                "{}: {}",
                r.name,
                r.store_pct
            );
        }
    }

    #[test]
    fn table_renders() {
        let rows = run(2e-4);
        let t = table(&rows);
        assert_eq!(t.n_rows(), 10);
        assert!(t.to_string().contains("tomcatv"));
    }
}
