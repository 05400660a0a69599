//! The four in-process workloads: `kernel`, `kernel_telemetry`, `cmp`
//! and `sweep`. Each generates its traces into the arena (set-up), times
//! its operation in a loop, then checks every result.
//!
//! Scales are chosen so that one operation takes 0.1-0.3 s: short enough
//! that the host reference run beside it sees the same host (see
//! [`crate::host`]) and a run holds dozens of operations, long enough
//! that the reference adds a fraction, not a multiple, of the run.

use gaas_experiments::campaign::{self, CellResult};
use gaas_experiments::{pool, runner};
use gaas_sim::config::{SimConfig, TelemetryConfig};
use gaas_sim::{workload, Simulator};
use gaas_trace::bench_model::{suite, BenchmarkSpec};
use gaas_trace::rng::SmallRng;

use crate::harness::{digest, fnv, measure, report_in_process, scaled, setup, Ctx, FNV_START};
use crate::inputs;
use crate::spans::Tracer;

/// Scale of `kernel` and `kernel_telemetry`: 0.2 % of the paper's suite,
/// ≈3.4 M instructions (≈4.4 M trace events) per simulation.
pub const KERNEL_SCALE: f64 = 0.002;

/// Scale of `cmp`: ≈2.2 M trace events shared out over 4 cores.
pub const CMP_SCALE: f64 = 0.001;

/// Scale of each `sweep` cell: ≈1.1 M trace events.
pub const SWEEP_SCALE: f64 = 0.0005;

/// Instructions discarded as warm-up at `scale` (`repro`'s 40 %).
pub fn warmup(scale: f64) -> u64 {
    (runner::suite_instructions(scale) as f64 * runner::WARMUP_FRAC) as u64
}

/// Simulates `specs` on `cfg` (through `run_telemetry` when `cfg` turns
/// telemetry on) and returns the result's digest.
fn simulate(cfg: &SimConfig, specs: &[BenchmarkSpec], tr: &mut Tracer) -> Result<u64, String> {
    let traces = tr.span("trace.cursors", |_| {
        workload::from_specs(specs, KERNEL_SCALE)
    });
    let sim = Simulator::new(cfg.clone()).map_err(|e| e.to_string())?;
    let warm = warmup(KERNEL_SCALE);
    let res = if cfg.telemetry.enabled {
        tr.span("sim.run_telemetry", |_| sim.run_telemetry(traces, warm))
            .map(|(res, _, _)| res)
    } else {
        tr.span("sim.run_warmed", |_| sim.run_warmed(traces, warm))
    };
    res.map(|r| digest(&r)).map_err(|e| e.to_string())
}

/// `kernel` (telemetry off) and `kernel_telemetry` (telemetry on): the
/// baseline machine over the seeded Table-1 mix.
pub fn kernel(ctx: &mut Ctx, telemetry: bool) {
    let name = if telemetry {
        "kernel_telemetry"
    } else {
        "kernel"
    };
    let specs = inputs::kernel_specs(ctx.seed);
    let (setup_s, events) = setup(ctx, &specs, KERNEL_SCALE);
    let base = SimConfig::baseline();
    let cfg = if telemetry {
        let mut b = base.to_builder();
        b.telemetry(TelemetryConfig::on());
        b.build().expect("telemetry on is a valid baseline")
    } else {
        base.clone()
    };
    let (times, results) = measure(ctx, |tr| simulate(&cfg, &specs, tr));
    report_in_process(ctx, &setup_s, &times, events);
    let got = ctx.checks.identical(name, &results);
    if telemetry {
        // Telemetry observes the run; it must not change a counter.
        let plain = simulate(&base, &specs, &mut ctx.tr);
        ctx.checks
            .record(plain.is_ok() && plain.as_ref().ok() == got.as_ref(), || {
                format!("kernel_telemetry counters differ from kernel's ({plain:?})")
            });
    }
    ctx.checks.recorded(ctx.seed, name, got);
}

/// `cmp`: 4 cores sharing the L2 under MESI, through `runner`.
pub fn cmp(ctx: &mut Ctx) {
    let cfg = inputs::cmp_config(ctx.seed);
    let (setup_s, events) = setup(ctx, &suite(), CMP_SCALE);
    let (times, results) = measure(ctx, |tr| {
        tr.span("runner.run_standard_cmp", |_| {
            runner::run_standard_cmp(cfg.clone(), CMP_SCALE, None)
        })
        .map(|r| {
            let per_core = format!("{:?}", r.per_core);
            fnv(digest(&r.result), per_core.as_bytes())
        })
        .map_err(|e| e.to_string())
    });
    report_in_process(ctx, &setup_s, &times, events);
    let got = ctx.checks.identical("cmp", &results);
    ctx.checks.recorded(ctx.seed, "cmp", got);
}

/// Digests of a batch of cells (`Err` for the first failed cell).
fn cell_digests(results: &[CellResult]) -> Result<Vec<u64>, String> {
    results
        .iter()
        .map(|r| match r {
            CellResult::Done(res) => Ok(digest(res)),
            CellResult::Failed { error, .. } => Err(error.clone()),
        })
        .collect()
}

/// `sweep`: 16 memoized cells, 4 functional groups × 4 L2-D access
/// times, through the campaign engine on one worker.
pub fn sweep(ctx: &mut Ctx) {
    let cfgs = inputs::sweep_cells(ctx.seed);
    let (setup_s, events) = setup(ctx, &suite(), SWEEP_SCALE);
    pool::set_jobs(1);
    campaign::set_memoize(true);
    let (times, results) = measure(ctx, |tr| {
        tr.span("runner.run_standard_cells", |_| {
            cell_digests(&runner::run_standard_cells(&cfgs, SWEEP_SCALE))
        })
    });
    report_in_process(ctx, &setup_s, &times, events * cfgs.len() as u64);
    let cells = crate::stats::Summary::of(&scaled(&times.plain)).map(|s| cfgs.len() as f64 / s);
    println!(
        "sweep cells_per_s {:.6} 1/s (n={}, q1={:.6}, q3={:.6})",
        cells.median, cells.n, cells.q1, cells.q3
    );
    let folded: Vec<Result<u64, String>> = results
        .iter()
        .map(|r| {
            r.as_ref()
                .map(|ds| ds.iter().fold(FNV_START, |h, d| fnv(h, &d.to_le_bytes())))
                .map_err(Clone::clone)
        })
        .collect();
    let got = ctx.checks.identical("sweep", &folded);
    ctx.checks.recorded(ctx.seed, "sweep", got);

    // Memoization is exact: one cell per group, simulated in full, must
    // match its priced twin.
    let Some(Ok(memoized)) = results.first() else {
        return;
    };
    let mut rng = SmallRng::seed_from_u64(ctx.seed);
    let per_group = cfgs.len() / inputs::SWEEP_GROUPS.len();
    let picks: Vec<usize> = (0..inputs::SWEEP_GROUPS.len())
        .map(|g| g * per_group + rng.gen_range(0..per_group))
        .collect();
    let picked: Vec<SimConfig> = picks.iter().map(|&i| cfgs[i].clone()).collect();
    campaign::set_memoize(false);
    let full = ctx.tr.span("runner.run_standard_cells", |_| {
        cell_digests(&runner::run_standard_cells(&picked, SWEEP_SCALE))
    });
    campaign::set_memoize(true);
    for (k, &i) in picks.iter().enumerate() {
        let full_d = full.as_ref().map(|ds| ds[k]);
        ctx.checks.record(full_d.as_ref() == Ok(&memoized[i]), || {
            format!("sweep cell {i}: memoized result differs from full simulation ({full_d:?})")
        });
    }
}
