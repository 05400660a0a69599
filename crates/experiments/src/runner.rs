//! Shared experiment plumbing: scaled workloads, warm-up, cell dispatch.
//!
//! Three entry points, by robustness level:
//!
//! * [`run_standard_raw`] — the bare simulation with typed errors; used
//!   by the isolation layer and by tests that want exact control;
//! * [`run_standard_cells`] — a batch of *campaign cells*: each isolated
//!   behind `catch_unwind` + timeout, journaled when a [`campaign`] is
//!   active; failures degrade to [`CellResult::Failed`] so a sweep
//!   renders gaps instead of dying;
//! * [`run_standard`] — the historical panicking convenience wrapper
//!   (a batch of one).

use gaas_coherence::{CmpResult, CmpSimulator};
use gaas_sim::config::SimConfig;
use gaas_sim::{
    workload, CancelToken, ConcurrencyConfig, DiffCheckConfig, FunctionalProfile, L2Config,
    SimError, SimResult, Simulator, Trace, WbBypass, WritePolicy,
};
use gaas_trace::bench_model::suite;
use gaas_trace::{SharingSpec, SharingTrace};

use crate::campaign::{self, CellResult};

/// Default workload scale for experiment runs: 1 % of the full-length
/// suite, ≈ 17 M instructions (≈ 24 M references) per configuration.
pub const DEFAULT_SCALE: f64 = 0.01;

/// Fraction of instructions treated as cache warm-up and excluded from the
/// reported statistics (\[BKW90\] long-trace hygiene).
pub const WARMUP_FRAC: f64 = 0.4;

/// Total scaled instruction count of the standard suite.
pub fn suite_instructions(scale: f64) -> u64 {
    suite().iter().map(|b| b.scaled_instructions(scale)).sum()
}

/// Runs `cfg` over the standard ten-benchmark workload at `scale`,
/// discarding warm-up. No isolation, no journaling: errors come back
/// typed.
///
/// # Errors
///
/// Returns [`SimError`] for invalid configurations, machine checks, and
/// oracle divergences.
pub fn run_standard_raw(cfg: SimConfig, scale: f64) -> Result<SimResult, SimError> {
    run_standard_raw_cancellable(cfg, scale, None)
}

/// [`run_standard_raw`] with an optional cooperative-cancellation token;
/// the campaign's timeout layer uses this so an abandoned cell stops
/// burning CPU instead of running detached to completion.
///
/// # Errors
///
/// As [`run_standard_raw`], plus [`SimError::Cancelled`] when the token
/// fires mid-run.
pub fn run_standard_raw_cancellable(
    cfg: SimConfig,
    scale: f64,
    cancel: Option<CancelToken>,
) -> Result<SimResult, SimError> {
    if cfg.cmp.enabled() {
        return run_standard_cmp(cfg, scale, cancel).map(|r| r.result);
    }
    let warmup = (suite_instructions(scale) as f64 * WARMUP_FRAC) as u64;
    let mut sim = Simulator::new(cfg)?;
    if let Some(token) = cancel {
        sim.set_cancel_token(token);
    }
    sim.run_warmed(workload::standard(scale), warmup)
}

/// Fixed base seed for the standard workload's shared-segment
/// decoration, so CMP sweeps are reproducible run to run.
pub const SHARING_SEED: u64 = 0x600D_5EED;

/// The standard suite distributed over `cfg.cmp.cores` cores: benchmark
/// `i` runs on core `i % cores` (round-robin), and when
/// `cfg.cmp.shared_frac > 0` every per-core stream is decorated with
/// shared-segment references ([`SharingTrace`]) under [`SHARING_SEED`].
pub fn cmp_workloads(cfg: &SimConfig, scale: f64) -> Vec<Vec<Box<dyn Trace>>> {
    let n = cfg.cmp.cores.max(1) as usize;
    let mut per_core: Vec<Vec<Box<dyn Trace>>> = (0..n).map(|_| Vec::new()).collect();
    for (i, trace) in workload::standard(scale).into_iter().enumerate() {
        let core = i % n;
        if cfg.cmp.shared_frac > 0.0 {
            let spec = SharingSpec {
                shared_frac: cfg.cmp.shared_frac,
                shared_words: cfg.cmp.shared_words,
                migration_interval: cfg.cmp.migration_interval,
                cores: cfg.cmp.cores,
                seed: SHARING_SEED,
            };
            per_core[core].push(Box::new(SharingTrace::new(trace, core as u32, &spec)));
        } else {
            per_core[core].push(trace);
        }
    }
    per_core
}

/// Runs `cfg` over the standard workload through the CMP engine
/// ([`CmpSimulator`]), returning the merged result plus the per-core
/// breakdown. Used directly by the CMP figures; plain sweeps reach it
/// through [`run_standard_raw_cancellable`], which routes any
/// `cfg.cmp.enabled()` configuration here.
///
/// # Errors
///
/// As [`run_standard_raw_cancellable`], plus [`SimError::Coherence`]
/// when the coherence oracle (on whenever `diffcheck.enabled`) observes
/// an invariant violation.
pub fn run_standard_cmp(
    cfg: SimConfig,
    scale: f64,
    cancel: Option<CancelToken>,
) -> Result<CmpResult, SimError> {
    let warmup = (suite_instructions(scale) as f64 * WARMUP_FRAC) as u64;
    let workloads = cmp_workloads(&cfg, scale);
    let mut sim = CmpSimulator::new(cfg)?;
    if let Some(token) = cancel {
        sim.set_cancel_token(token);
    }
    sim.run_warmed(workloads, warmup)
}

/// [`run_standard_raw_cancellable`] recording a [`FunctionalProfile`]
/// alongside the result: the functional pass of the two-phase memoized
/// sweep. The returned profile prices any timing variant of the same
/// cache geometry via [`gaas_sim::price_profile`] without re-simulating.
///
/// # Panics
///
/// Panics if `cfg` is not memoizable
/// ([`gaas_sim::functional_fingerprint`] returns `None`): fault
/// injection, diffcheck and checkpointing runs must use the plain path.
///
/// # Errors
///
/// As [`run_standard_raw_cancellable`].
pub fn run_standard_profiled_cancellable(
    cfg: SimConfig,
    scale: f64,
    cancel: Option<CancelToken>,
) -> Result<(SimResult, FunctionalProfile), SimError> {
    let warmup = (suite_instructions(scale) as f64 * WARMUP_FRAC) as u64;
    let mut sim = Simulator::new(cfg)?;
    if let Some(token) = cancel {
        sim.set_cancel_token(token);
    }
    sim.run_profiled(workload::standard(scale), warmup)
}

/// Runs a whole batch of campaign cells, fanning out over the
/// process-wide worker pool (`repro --jobs N`; serial by default) while
/// returning results in submission order — the parallel sweep engine's
/// front door. Cells go through the active [`campaign`] when one is
/// activated (journaled, resumable), otherwise each runs isolated behind
/// `catch_unwind`.
pub fn run_standard_cells(cfgs: &[SimConfig], scale: f64) -> Vec<CellResult> {
    campaign::run_cells(cfgs, scale)
}

/// Batch form of [`run_standard`]: runs every config (in parallel when
/// `--jobs` is set) and unwraps the results in submission order.
///
/// # Panics
///
/// Panics if any cell fails, like [`run_standard`].
pub fn run_standard_many(cfgs: &[SimConfig], scale: f64) -> Vec<SimResult> {
    run_standard_cells(cfgs, scale)
        .into_iter()
        .map(|res| match res {
            CellResult::Done(r) => *r,
            CellResult::Failed { error, attempts } => {
                panic!("experiment cell failed after {attempts} attempt(s): {error}")
            }
        })
        .collect()
}

/// Runs `cfg` over the standard ten-benchmark workload at `scale`,
/// discarding warm-up.
///
/// # Panics
///
/// Panics if the cell fails (invalid configuration, machine check,
/// divergence, or a panic inside the simulator). Sweeps that should
/// degrade gracefully use [`run_standard_cells`] instead.
pub fn run_standard(cfg: SimConfig, scale: f64) -> SimResult {
    run_standard_many(&[cfg], scale).remove(0)
}

/// Runs `cfg` with the lockstep golden-model oracle enabled (every other
/// knob untouched), so a divergence surfaces as
/// [`SimError::Divergence`].
///
/// # Errors
///
/// Returns [`SimError`] — notably [`SimError::Divergence`] when the fast
/// simulator disagrees with the reference model.
pub fn run_diffchecked(cfg: &SimConfig, scale: f64) -> Result<SimResult, SimError> {
    let mut b = cfg.to_builder();
    b.diffcheck(DiffCheckConfig::on());
    let cfg = b.build()?;
    run_standard_raw(cfg, scale)
}

/// The three configurations of the oracle smoke sweep: the paper's
/// baseline, the §9 optimized design, and an exotic mix (subblock
/// placement, associative write-buffer bypass, split 2-way L2) chosen to
/// exercise every policy-specific oracle path.
pub fn diffcheck_configs() -> Vec<(&'static str, SimConfig)> {
    let mut exotic = SimConfig::builder();
    exotic
        .policy(WritePolicy::Subblock)
        .l2(L2Config::split_even(256 * 1024, 2, 7))
        .concurrency(ConcurrencyConfig {
            d_read_bypass: WbBypass::Associative,
            ..ConcurrencyConfig::default()
        });
    vec![
        ("baseline", SimConfig::baseline()),
        ("optimized", SimConfig::optimized()),
        (
            "subblock-split2",
            exotic.build().expect("smoke config is valid"),
        ),
    ]
}

/// Per-config success of [`diffcheck_smoke`]: label and the number of
/// accesses cross-checked.
pub type SmokeChecked = (&'static str, u64);

/// Failure of [`diffcheck_smoke`]: the offending config's label and the
/// error (typically a divergence report).
pub type SmokeFailure = (String, Box<SimError>);

/// Oracle-enabled smoke sweep: [`diffcheck_configs`] over the full
/// ten-benchmark workload at `scale`. Returns per-config
/// `(label, accesses cross-checked)` on success.
///
/// # Errors
///
/// Returns the first divergence (or other simulation error), boxed,
/// tagged with the config label.
pub fn diffcheck_smoke(scale: f64) -> Result<Vec<SmokeChecked>, SmokeFailure> {
    let mut out = Vec::new();
    for (label, cfg) in diffcheck_configs() {
        match run_diffchecked(&cfg, scale) {
            Ok(r) => {
                // Every reference passed the oracle, or the run would
                // have diverged; report the checked volume.
                let c = &r.counters;
                out.push((label, c.instructions + c.loads + c.stores));
            }
            Err(e) => return Err((label.to_string(), Box::new(e))),
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suite_instructions_scale() {
        let a = suite_instructions(0.001);
        let b = suite_instructions(0.002);
        assert!(b > a && b < 3 * a);
    }

    #[test]
    fn run_standard_smoke() {
        let r = run_standard(SimConfig::baseline(), 2e-4);
        assert!(r.cpi() > 1.0 && r.cpi() < 10.0);
        assert!(r.counters.instructions > 0);
    }

    #[test]
    fn diffchecked_baseline_agrees_with_fast_path() {
        let fast = run_standard_raw(SimConfig::baseline(), 1e-4).expect("fast path runs");
        let checked = run_diffchecked(&SimConfig::baseline(), 1e-4)
            .expect("oracle finds no divergence at baseline");
        assert_eq!(
            checked.counters, fast.counters,
            "the oracle must observe, never perturb"
        );
    }

    #[test]
    fn diffcheck_configs_are_valid_and_distinct() {
        let cfgs = diffcheck_configs();
        assert_eq!(cfgs.len(), 3);
        let mut prints: Vec<u64> = cfgs
            .iter()
            .map(|(_, c)| gaas_sim::config_fingerprint(c))
            .collect();
        prints.sort_unstable();
        prints.dedup();
        assert_eq!(prints.len(), 3, "smoke configs must differ");
    }
}
