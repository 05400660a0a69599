//! The `gaas-telemetry` export pipeline over a standard experiment cell.
//!
//! `repro --telemetry <dir>` (and the `telemetry` experiment keyword)
//! runs one Fig. 7 cell — the split-L2 instruction side at
//! [`CELL_SIZE_WORDS`] words / [`CELL_ACCESS`] cycles — with the
//! instrumentation core enabled and exports three artifacts into the
//! directory:
//!
//! * `trace.json` — Chrome `trace_event` JSON (load it in Perfetto or
//!   `chrome://tracing`): refill, write-buffer, TLB-walk, scheduler,
//!   fault and oracle spans on one timeline thread per component;
//! * `cpi_stacks.csv` / `cpi_stacks.json` — windowed CPI stacks, one row
//!   per [`TelemetryConfig::window_instructions`] instructions, integer
//!   cycle columns per Fig. 4 component;
//! * `summary.txt` — every registered counter and histogram, then the
//!   campaign's [`MemoStats`](campaign::MemoStats) and the memoization
//!   trace (which cells were priced vs simulated) from a small Fig. 7
//!   mini-grid run first to exercise the two-phase sweep.
//!
//! The run self-validates before writing: the Chrome JSON must re-parse,
//! every window's component cycles must sum to the window's total
//! exactly, and the cycle-weighted average of the windows must equal the
//! final CPI to 1e-9 (the telemetry cell runs with **zero warm-up** so
//! the windows partition the whole run). CI's `telemetry-smoke` job runs
//! this pipeline and fails on any validation error.
//!
//! [`TelemetryConfig::window_instructions`]: gaas_sim::config::TelemetryConfig

use std::fmt;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use gaas_sim::config::TelemetryConfig;
use gaas_sim::{workload, Counters, SimError, Simulator};
use gaas_telemetry::{chrome_trace_json, stack_csv, stack_json, weighted_cpi, WindowRow};

use crate::campaign::{self, MemoTraceEntry};
use crate::durability;
use crate::fig78::{self, Side};
use crate::json;

/// L2-I size (words) of the instrumented Fig. 7 cell.
pub const CELL_SIZE_WORDS: u64 = 65_536;

/// L2-I access time (cycles) of the instrumented Fig. 7 cell.
pub const CELL_ACCESS: u32 = 3;

/// Mini-grid axes used to populate the memoization trace in the summary:
/// 2 sizes × 3 access times → 2 functional runs + 4 priced cells.
const GRID_SIZES: [u64; 2] = [32_768, 262_144];
const GRID_TIMES: [u32; 3] = [2, 4, 6];

/// Failure of the telemetry pipeline.
#[derive(Debug)]
pub enum TelemetryError {
    /// The instrumented simulation failed.
    Sim(SimError),
    /// An artifact could not be written.
    Io(io::Error),
    /// A self-validation invariant did not hold.
    Validation(String),
}

impl fmt::Display for TelemetryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TelemetryError::Sim(e) => write!(f, "telemetry cell failed: {e}"),
            TelemetryError::Io(e) => write!(f, "telemetry artifact write failed: {e}"),
            TelemetryError::Validation(msg) => write!(f, "telemetry validation failed: {msg}"),
        }
    }
}

impl std::error::Error for TelemetryError {}

impl From<SimError> for TelemetryError {
    fn from(e: SimError) -> Self {
        TelemetryError::Sim(e)
    }
}

impl From<io::Error> for TelemetryError {
    fn from(e: io::Error) -> Self {
        TelemetryError::Io(e)
    }
}

/// What a telemetry run produced (the `repro` binary prints this).
#[derive(Debug)]
pub struct TelemetryRun {
    /// Final CPI of the instrumented cell.
    pub cpi: f64,
    /// Number of CPI-stack windows exported (including the tail).
    pub windows: usize,
    /// Spans retained in the trace.
    pub spans: usize,
    /// Spans evicted because the ring buffer filled.
    pub spans_dropped: u64,
    /// Artifact paths written, in write order.
    pub files: Vec<PathBuf>,
}

/// Converts windowed counter deltas plus the run total into
/// [`WindowRow`]s: one row per full window and one tail row covering the
/// instructions after the last full window (omitted when the run length
/// is an exact multiple of the window). With zero warm-up the rows
/// partition the run, so their cycle-weighted CPI equals the final CPI
/// exactly.
pub fn window_rows(windows: &[Counters], total: &Counters) -> Vec<WindowRow> {
    let mut rows: Vec<WindowRow> = Vec::with_capacity(windows.len() + 1);
    let mut acc = Counters::default();
    for w in windows {
        rows.push(WindowRow {
            index: rows.len(),
            instructions: w.instructions,
            cycles: w.total_cycles(),
            components: w.stack_components(),
        });
        acc = acc.accum(w);
    }
    let tail = total.since(&acc);
    if tail.instructions > 0 {
        rows.push(WindowRow {
            index: rows.len(),
            instructions: tail.instructions,
            cycles: tail.total_cycles(),
            components: tail.stack_components(),
        });
    }
    rows
}

/// Validates the exported rows against the final result: integer
/// component sums and the weighted-average identity.
fn validate_rows(rows: &[WindowRow], cpi: f64) -> Result<(), TelemetryError> {
    if rows.is_empty() {
        return Err(TelemetryError::Validation("no CPI-stack windows".into()));
    }
    for r in rows {
        if r.component_cycles() != r.cycles {
            return Err(TelemetryError::Validation(format!(
                "window {}: components sum to {} cycles, window total is {}",
                r.index,
                r.component_cycles(),
                r.cycles
            )));
        }
    }
    let avg = weighted_cpi(rows);
    if (avg - cpi).abs() > 1e-9 {
        return Err(TelemetryError::Validation(format!(
            "weighted window CPI {avg} != final CPI {cpi}"
        )));
    }
    Ok(())
}

fn render_memo_trace(trace: &[MemoTraceEntry]) -> String {
    let mut out = String::from("memoization trace (priced vs simulated)\n");
    if trace.is_empty() {
        out.push_str("  (no grouped sweep ran)\n");
        return out;
    }
    for e in trace {
        let fp = match e.fingerprint {
            Some(k) => format!("{k:016x}"),
            None => "-".repeat(16),
        };
        let mode = if e.priced {
            "lead simulated, rest priced"
        } else if e.members.len() == 1 {
            "simulated (singleton)"
        } else {
            "all simulated (fallback)"
        };
        out.push_str(&format!(
            "  batch {} group {fp} cells {:?}: {mode}\n",
            e.batch, e.members
        ));
    }
    out
}

/// Runs the telemetry pipeline: the mini-grid (for the memoization
/// trace), then the instrumented Fig. 7 cell, then validation and
/// artifact export into `dir` (created if needed).
///
/// # Errors
///
/// Returns [`TelemetryError`] when the simulation fails, a validation
/// invariant does not hold, or an artifact cannot be written.
pub fn run(scale: f64, dir: &Path) -> Result<TelemetryRun, TelemetryError> {
    fs::create_dir_all(dir)?;

    // Phase 1 — a small Fig. 7 mini-grid through the campaign layer with
    // memo tracing on, so the summary can show exactly which cells were
    // priced from a memoized profile and which were simulated.
    let t0 = std::time::Instant::now();
    campaign::set_memo_trace(true);
    campaign::reset_memo_stats();
    let mut grid = Vec::new();
    for &size in &GRID_SIZES {
        for &access in &GRID_TIMES {
            grid.push(fig78::cell_config(Side::Instruction, size, access));
        }
    }
    campaign::run_cells(&grid, scale);
    let memo = campaign::memo_stats();
    let memo_trace = campaign::take_memo_trace();
    campaign::set_memo_trace(false);
    eprintln!(
        "[telemetry: mini-grid ({} cells) in {:.1}s]",
        grid.len(),
        t0.elapsed().as_secs_f64()
    );

    // Phase 2 — the instrumented cell. Zero warm-up so the exported
    // windows partition the whole run (the weighted-average identity
    // below depends on it).
    let t0 = std::time::Instant::now();
    let mut b = fig78::cell_config(Side::Instruction, CELL_SIZE_WORDS, CELL_ACCESS).to_builder();
    b.telemetry(TelemetryConfig::on());
    let cfg = b.build().map_err(SimError::from)?;
    let sim = Simulator::new(cfg).map_err(SimError::from)?;
    let (result, windows, report) = sim.run_telemetry(workload::standard(scale), 0)?;
    eprintln!(
        "[telemetry: instrumented cell in {:.1}s]",
        t0.elapsed().as_secs_f64()
    );

    let t0 = std::time::Instant::now();
    let rows = window_rows(&windows, &result.counters);
    validate_rows(&rows, result.cpi())?;

    let trace = chrome_trace_json("gaas-sim fig7 cell", &report.spans);
    json::parse(&trace).map_err(|e| {
        TelemetryError::Validation(format!("chrome trace JSON does not parse: {e}"))
    })?;
    let stacks = stack_json(&rows);
    json::parse(&stacks)
        .map_err(|e| TelemetryError::Validation(format!("CPI-stack JSON does not parse: {e}")))?;
    eprintln!(
        "[telemetry: export validated in {:.1}s]",
        t0.elapsed().as_secs_f64()
    );

    let mut summary = String::new();
    summary.push_str(&format!(
        "telemetry summary — fig7 cell (L2-I {} KW, {} cycles), scale {scale}\n\
         cpi {:.6}, {} windows, {} spans retained, {} dropped\n\n",
        CELL_SIZE_WORDS / 1024,
        CELL_ACCESS,
        result.cpi(),
        rows.len(),
        report.spans.len(),
        report.spans_dropped,
    ));
    summary.push_str(&report.registry.summary_table());
    summary.push_str("\nmini-grid campaign counters\n");
    for (name, v) in [
        ("functional_runs", memo.functional_runs),
        ("priced_cells", memo.priced_cells),
        ("copriced_groups", memo.copriced_groups),
        ("copriced_lanes", memo.copriced_lanes),
        ("replay_passes_saved", memo.replay_passes_saved()),
        ("copricer_fallbacks", memo.copricer_fallbacks),
    ] {
        summary.push_str(&format!("campaign.{name:<19}  {v}\n"));
    }
    summary.push('\n');
    summary.push_str(&render_memo_trace(&memo_trace));

    let mut files = Vec::new();
    for (name, contents) in [
        ("trace.json", trace),
        ("cpi_stacks.csv", stack_csv(&rows)),
        ("cpi_stacks.json", stacks),
        ("summary.txt", summary),
    ] {
        let path = dir.join(name);
        // Durable atomic commit (temp + fsync + rename): a crash mid-export
        // leaves the previous artifact intact, never a half-written one.
        durability::write_atomic(&path, contents.as_bytes())?;
        files.push(path);
    }

    Ok(TelemetryRun {
        cpi: result.cpi(),
        windows: rows.len(),
        spans: report.spans.len(),
        spans_dropped: report.spans_dropped,
        files,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn window_rows_partition_the_run() {
        let cfg = fig78::cell_config(Side::Instruction, CELL_SIZE_WORDS, CELL_ACCESS)
            .to_builder()
            .telemetry(TelemetryConfig {
                window_instructions: 20_000,
                ..TelemetryConfig::on()
            })
            .build()
            .expect("valid");
        let sim = Simulator::new(cfg).expect("constructs");
        let (result, windows, report) = sim
            .run_telemetry(workload::standard(2e-4), 0)
            .expect("runs");
        let rows = window_rows(&windows, &result.counters);
        assert!(rows.len() > 1, "scale must span several windows");
        validate_rows(&rows, result.cpi()).expect("invariants hold");
        assert!(!report.spans.is_empty(), "hot paths must emit spans");
        let total: u64 = rows.iter().map(|r| r.instructions).sum();
        assert_eq!(total, result.counters.instructions);
    }

    #[test]
    fn pipeline_writes_all_artifacts() {
        let dir = std::env::temp_dir().join(format!("gaas-telemetry-test-{}", std::process::id()));
        let run = run(2e-4, &dir).expect("pipeline succeeds");
        assert_eq!(run.files.len(), 4);
        for f in &run.files {
            assert!(f.exists(), "{} missing", f.display());
        }
        let summary = fs::read_to_string(dir.join("summary.txt")).unwrap();
        assert!(summary.contains("memoization trace"));
        assert!(
            summary.contains("\ncampaign.copriced_groups "),
            "the co-pricer's counters reach the summary:\n{summary}"
        );
        let _ = fs::remove_dir_all(&dir);
    }
}
