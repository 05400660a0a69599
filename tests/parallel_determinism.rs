//! Determinism guarantees of the PR's two performance layers:
//!
//! 1. the work-stealing sweep pool — tables rendered with `--jobs 8` must
//!    be **byte-identical** to a serial run;
//! 2. the batched trace kernel — counters from the batched scheduler path
//!    must equal the unbatched (per-event dispatch) path exactly, across
//!    plain, fault-injecting, and oracle-checked configurations.

use gaas_experiments::{ablations, plan, pool};
use gaas_sim::config::{DiffCheckConfig, FaultConfig, SimConfig};
use gaas_sim::{sim, workload, SimResult};
use gaas_trace::{Trace, UnbatchedTrace};

/// Small but non-trivial scale: thousands of instructions per benchmark,
/// enough to cross many batch boundaries and several context switches.
const SCALE: f64 = 2e-4;

fn fig2_tables(scale: f64) -> String {
    plan::find("fig2").expect("listed").run(scale)
}

fn ablation_tables(scale: f64) -> String {
    let rows = ablations::family("tlb-penalty", scale);
    ablations::table(&rows).to_string()
}

/// One test (not several) so the process-global jobs knob is never raced
/// by a concurrently running case.
#[test]
fn parallel_sweeps_render_byte_identical_tables() {
    pool::set_jobs(1);
    let serial_fig2 = fig2_tables(SCALE);
    let serial_abl = ablation_tables(SCALE);

    pool::set_jobs(8);
    let par_fig2 = fig2_tables(SCALE);
    let par_abl = ablation_tables(SCALE);
    pool::set_jobs(1);

    assert_eq!(serial_fig2, par_fig2, "fig2 tables diverge across --jobs");
    assert_eq!(serial_abl, par_abl, "ablation tables diverge across --jobs");
}

fn run_batched(cfg: &SimConfig) -> SimResult {
    sim::run(cfg.clone(), workload::standard(SCALE)).expect("run completes")
}

fn run_unbatched(cfg: &SimConfig) -> SimResult {
    let traces: Vec<Box<dyn Trace>> = workload::standard(SCALE)
        .into_iter()
        .map(|t| Box::new(UnbatchedTrace(t)) as Box<dyn Trace>)
        .collect();
    sim::run(cfg.clone(), traces).expect("run completes")
}

fn assert_same_results(cfg: SimConfig, label: &str) {
    let batched = run_batched(&cfg);
    let unbatched = run_unbatched(&cfg);
    assert_eq!(
        batched.counters, unbatched.counters,
        "{label}: counters diverge between batched and unbatched delivery"
    );
    assert_eq!(
        batched.completed, unbatched.completed,
        "{label}: completion order"
    );
    assert_eq!(
        batched.per_process, unbatched.per_process,
        "{label}: per-process stats"
    );
}

#[test]
fn batched_kernel_matches_unbatched_baseline() {
    assert_same_results(SimConfig::baseline(), "baseline");
}

#[test]
fn batched_kernel_matches_unbatched_optimized() {
    assert_same_results(SimConfig::optimized(), "optimized");
}

#[test]
fn batched_kernel_matches_unbatched_with_fault_injection() {
    use gaas_sim::{FaultRates, Protection, ProtectionMap};
    let mut cfg = SimConfig::baseline();
    cfg.fault = FaultConfig {
        seed: 0xF00D,
        rates: FaultRates::uniform(1e-4),
        protection: ProtectionMap::uniform(Protection::Ecc),
        ..FaultConfig::default()
    };
    let probe = run_batched(&cfg);
    assert!(
        probe.counters.faults_injected > 0,
        "fault rate too low to exercise the injector at this scale"
    );
    assert_same_results(cfg, "fault-injection");
}

#[test]
fn batched_kernel_matches_unbatched_with_oracle_on() {
    let mut cfg = SimConfig::baseline();
    cfg.diffcheck = DiffCheckConfig::on();
    let probe = run_batched(&cfg);
    assert!(
        probe.counters.instructions > 0,
        "oracle-checked run retires instructions"
    );
    assert_same_results(cfg, "diffcheck-on");
}
