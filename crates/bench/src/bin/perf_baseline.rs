//! `perf_baseline` — machine-readable performance baseline for the
//! simulator kernel and the sweep engine.
//!
//! ```text
//! perf_baseline [--scale S] [--jobs N] [--samples K] [--out PATH]
//!               [--kernel-only] [--reference PATH] [--copricing-min X]
//!
//! --scale S    workload scale for the per-figure wall-clocks
//!              (default 2e-3)
//! --jobs N     worker threads for the parallel-sweep speedup measurement
//!              (default min(4, available cores))
//! --samples K  timed repetitions per kernel measurement; the median is
//!              reported with the range (default 5)
//! --out PATH   where to write the JSON report (default BENCH_sim.json)
//! --kernel-only  measure only the kernel, telemetry-overhead, and
//!              co-pricing sections (skips figures and the sweep passes;
//!              CI's overhead gates use this for a fast, low-noise
//!              comparison)
//! --reference PATH  gate against a prior report: exit 1 if this build's
//!              median batched (telemetry-disabled) throughput falls more
//!              than 3% below the reference's — the disabled-telemetry
//!              zero-cost contract. The report records the batched
//!              samples' spread beside the ratio: a gate reads a
//!              regression only where that spread is below its bound
//! --copricing-min X  gate on the co-pricer: exit 1 if one co-priced
//!              pass over the 4-lane kernel group is not at least X times
//!              faster than pricing the four variants one at a time
//!              (CI uses 1.5)
//! ```
//!
//! The report (`BENCH_sim.json`) records:
//!
//! * **kernel** — events/second through the full simulator at kernel
//!   scale, both with the batched trace path (4096-event refills, each
//!   decoding one whole arena block, one virtual call per batch) and with
//!   the [`UnbatchedTrace`] adapter that
//!   reproduces the seed kernel's one-virtual-call-per-event pattern, plus
//!   the ratio between them and a fixed reference throughput measured at
//!   the growth seed. Every timing is the median of `--samples` runs,
//!   with their min and max. The runs a ratio compares (batched,
//!   unbatched and telemetry-on; serial and co-priced) are timed in
//!   interleaved rounds, so host drift moves both sides of the ratio;
//! * **telemetry** — the same batched kernel with
//!   [`TelemetryConfig::on`]: enabled-mode overhead
//!   (`enabled_over_disabled`), and the `--reference` gate result for the
//!   disabled mode (the note gates with telemetry off must stay within
//!   3% of the pre-telemetry throughput);
//! * **copricing** — one baseline-geometry functional profile priced as a
//!   4-variant group both ways: N one-lane co-priced passes
//!   ([`price_profile`], one token decode each) vs. one 4-lane
//!   [`price_profiles`] pass (the lanes in lockstep over a single token
//!   decode). Records both wall-clocks, the
//!   speedup, byte-identity of the results, and the `--copricing-min`
//!   gate outcome; measured even under `--kernel-only`;
//! * **coherence** — the CMP engine: a 2-core sharing run's throughput
//!   and protocol activity (invalidations, cache-to-cache transfers,
//!   upgrade misses, coherence stall cycles), its seconds over a 1-core
//!   run of the same suite timed in the same rounds (`over_one_core`,
//!   the engine's per-event overhead), plus the byte-identity of
//!   a 1-core CMP run against the single-CPU kernel (gated under
//!   determinism); measured even under `--kernel-only`;
//! * **figures** — wall-clock seconds to run and render each experiment
//!   of [`plan::EXPERIMENTS`] that has cells, as its own batch at table
//!   scale (with two-phase sweep memoization on, its default);
//! * **sweep** — a geometry-diverse 16-cell sweep (4 L2-D geometries × 4
//!   access times) measured three ways: serial full simulation
//!   (memoization off, jobs 1), parallel full simulation (memoization
//!   off, `--jobs N`), and the memoized two-phase path at `--jobs N`.
//!   `nproc` is recorded, and on a single-core host `pool_scaling_raw` is
//!   reported as `null` with a note instead of a fake ≈1.0 "speedup" —
//!   one core cannot demonstrate pool scaling. The headline `speedup` is
//!   serial-full vs. memoized-parallel: the work-reduction win (4
//!   functional passes instead of 16), which holds even with one core;
//! * **arena** — trace-arena generation/reuse/bypass counters, hit rate,
//!   residency, and the v3 compression ratio over the whole run, plus
//!   `generation`: the wall-clock to generate the standard suite at
//!   kernel scale into an empty arena (the set-up every kernel run pays
//!   once), median and range of `--samples` runs and the spread of their
//!   middle half; measured even under `--kernel-only`;
//! * **memo** — functional runs vs. priced cells in the measured sweep,
//!   the resulting reuse factor, and the co-pricer's work counters
//!   (groups co-priced in one pass, lanes, replay passes saved,
//!   fallbacks to per-variant pricing);
//! * **determinism** — whether batched-vs-unbatched,
//!   telemetry-vs-disabled, parallel-vs-serial and memoized-vs-full runs
//!   produced identical counters (they must; any violation exits 1).
//!
//! [`TelemetryConfig::on`]: gaas_sim::config::TelemetryConfig::on

use std::fmt::Write as _;
use std::time::Instant;

use gaas_experiments::{campaign, fig_cmp, plan, pool, runner};
use gaas_sim::config::{L2Config, L2Side, SimConfig, TelemetryConfig};
use gaas_sim::{price_profile, price_profiles, sim, workload, CmpConfig, SimResult, Simulator};
use gaas_trace::bench_model::suite;
use gaas_trace::{arena, Trace, UnbatchedTrace};

/// Simulator events/second measured at the growth seed (commit tagged in
/// CHANGES.md) on the CI reference machine, with the per-event dispatch
/// kernel. `speedup_vs_seed_reference` is only meaningful on that machine;
/// on others, compare `batched` against `unbatched` instead.
const SEED_EVENTS_PER_SEC: f64 = 20.69e6;

/// `--scale` default; the kernel measurements run at a quarter of it.
const DEFAULT_SCALE: f64 = 2e-3;

/// Maximum fraction the disabled-telemetry batched throughput may fall
/// below a `--reference` report before the gate fails.
const MAX_DISABLED_OVERHEAD: f64 = 0.03;

/// The sweep-engine measurements (skipped under `--kernel-only`).
struct SweepReport {
    cells: usize,
    geometry_groups: usize,
    timing_variants: usize,
    serial_secs: f64,
    jobs: usize,
    parallel_full_secs: f64,
    /// `None` on a single-core host (no honest scaling figure exists).
    pool_scaling: Option<f64>,
    memoized_secs: f64,
    speedup: f64,
    memo: campaign::MemoStats,
    sweep_deterministic: bool,
    memo_deterministic: bool,
}

/// The co-pricer kernel measurement: one functional profile, one 4-lane
/// timing group, priced serially and co-priced (always measured, even
/// under `--kernel-only`).
struct CopricingReport {
    lanes: usize,
    serial_priced_secs: f64,
    copriced_secs: f64,
    speedup: f64,
    identical: bool,
}

/// The CMP coherence-engine measurement (always measured, even under
/// `--kernel-only`): a 2-core sharing run's throughput and protocol
/// activity, plus the byte-identity of a 1-core CMP run against the
/// single-CPU kernel — the anchor that makes multi-core numbers
/// comparable to every other figure in this report.
struct CoherenceReport {
    cores: u32,
    secs: Secs,
    events_per_sec: f64,
    /// The same suite on one core, timed in the same rounds.
    one_core_secs: Secs,
    /// The median over rounds of the multi-core run's seconds over the
    /// one-core run's: the CMP engine's per-event overhead.
    over_one_core: f64,
    invalidations: u64,
    c2c_transfers: u64,
    upgrade_misses: u64,
    coherence_stall_cycles: u64,
    one_core_identical: bool,
}

/// Wall-clock seconds over one measurement's samples: the median, which
/// every rate and gate uses, the quartiles and the range.
#[derive(Clone, Copy)]
struct Secs {
    median: f64,
    q1: f64,
    q3: f64,
    min: f64,
    max: f64,
}

impl Secs {
    /// The statistics of one measurement's (nonempty) samples.
    fn of(samples: &[f64]) -> Self {
        let mut secs = samples.to_vec();
        secs.sort_by(f64::total_cmp);
        // Linear interpolation between the order statistics at fraction `p`.
        let at = |p: f64| {
            let x = p * (secs.len() - 1) as f64;
            let (i, frac) = (x.floor() as usize, x.fract());
            secs[i] + frac * (secs[(i + 1).min(secs.len() - 1)] - secs[i])
        };
        Self {
            median: at(0.5),
            q1: at(0.25),
            q3: at(0.75),
            min: secs[0],
            max: secs[secs.len() - 1],
        }
    }

    /// The middle half of the samples over their median: how far apart
    /// two runs' medians can land on noise alone, against which a gate's
    /// bound must be read.
    fn spread(&self) -> f64 {
        (self.q3 - self.q1) / self.median
    }

    /// The JSON fields `seconds_median`, `seconds_min` and `seconds_max`.
    fn json(&self) -> String {
        format!(
            "\"seconds_median\": {:.6}, \"seconds_min\": {:.6}, \"seconds_max\": {:.6}",
            self.median, self.min, self.max
        )
    }
}

fn main() {
    let mut scale = DEFAULT_SCALE;
    let mut jobs = std::thread::available_parallelism()
        .map(|n| n.get().min(4))
        .unwrap_or(1);
    let mut samples = 5usize;
    let mut out_path = "BENCH_sim.json".to_string();
    let mut kernel_only = false;
    let mut reference_path: Option<String> = None;
    let mut copricing_min: Option<f64> = None;

    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--scale" => scale = parse(it.next(), "--scale"),
            "--jobs" => jobs = parse(it.next(), "--jobs"),
            "--samples" => samples = parse(it.next(), "--samples"),
            "--out" => out_path = it.next().unwrap_or_else(|| usage("--out")).clone(),
            "--kernel-only" => kernel_only = true,
            "--reference" => {
                reference_path = Some(it.next().unwrap_or_else(|| usage("--reference")).clone());
            }
            "--copricing-min" => copricing_min = Some(parse(it.next(), "--copricing-min")),
            "--help" | "-h" => usage(""),
            other => usage(&format!("unknown argument '{other}'")),
        }
    }
    if !(scale.is_finite() && scale > 0.0 && scale <= 1.0) {
        usage("--scale must be in (0, 1]");
    }
    if let Some(m) = copricing_min {
        if !(m.is_finite() && m > 0.0) {
            usage("--copricing-min must be a positive number");
        }
    }
    let jobs = jobs.max(1);
    let samples = samples.max(1);
    let kernel_scale = scale / 4.0;
    let cores = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1);

    eprintln!(
        "[perf_baseline: scale {scale}, kernel scale {kernel_scale}, jobs {jobs}, \
         samples {samples}, {cores} core(s){}]",
        if kernel_only { ", kernel only" } else { "" }
    );

    // --- Kernel: batched vs. unbatched vs. telemetry-on events/second. --
    let events: u64 = suite()
        .iter()
        .map(|b| {
            let n = b.scaled_instructions(kernel_scale) as f64;
            (n * b.refs_per_instruction()) as u64
        })
        .sum();
    let cfg = SimConfig::baseline();
    let telem_cfg = {
        let mut b = cfg.to_builder();
        b.telemetry(TelemetryConfig::on());
        b.build().expect("valid config")
    };
    let ([batched_t, unbatched_t, telem_t], [batched_res, unbatched_res, telem_res]) = interleaved(
        samples,
        [
            &mut || sim::run(cfg.clone(), workload::standard(kernel_scale)).expect("valid config"),
            &mut || {
                sim::run(cfg.clone(), unbatched(workload::standard(kernel_scale)))
                    .expect("valid config")
            },
            &mut || {
                sim::run(telem_cfg.clone(), workload::standard(kernel_scale)).expect("valid config")
            },
        ],
    );
    let (batched, unbatched, telem) = (
        Secs::of(&batched_t),
        Secs::of(&unbatched_t),
        Secs::of(&telem_t),
    );
    let batched_eps = events as f64 / batched.median;
    let unbatched_eps = events as f64 / unbatched.median;
    let batched_over_unbatched = median_ratio(&unbatched_t, &batched_t);
    let enabled_over_disabled = median_ratio(&batched_t, &telem_t);
    let spread = batched.spread();
    let kernel_deterministic = batched_res.counters == unbatched_res.counters;
    eprintln!(
        "[kernel: batched {:.2} Me/s (median of {samples}, {:.1}% spread), unbatched {:.2} \
         Me/s, ratio {:.3}, counters {}]",
        batched_eps / 1e6,
        spread * 100.0,
        unbatched_eps / 1e6,
        batched_over_unbatched,
        if kernel_deterministic {
            "identical"
        } else {
            "DIVERGED"
        }
    );

    // --- Telemetry: enabled-mode overhead and the disabled-mode gate. ---
    let telem_eps = events as f64 / telem.median;
    let telem_deterministic = telem_res.counters == batched_res.counters;
    let reference_eps = reference_path.as_deref().map(|path| {
        let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
            eprintln!("error: cannot read --reference {path}: {e}");
            std::process::exit(2);
        });
        reference_batched_eps(&text).unwrap_or_else(|| {
            eprintln!("error: --reference {path} has no kernel.batched.events_per_sec");
            std::process::exit(2);
        })
    });
    let reference_ratio = reference_eps.map(|r| batched_eps / r);
    let reference_passed = reference_ratio.map(|r| r >= 1.0 - MAX_DISABLED_OVERHEAD);
    eprintln!(
        "[telemetry: enabled {:.2} Me/s ({:.3}x of disabled), counters {}{}]",
        telem_eps / 1e6,
        enabled_over_disabled,
        if telem_deterministic {
            "identical"
        } else {
            "DIVERGED"
        },
        match (reference_ratio, reference_passed) {
            (Some(r), Some(ok)) => format!(
                ", disabled vs reference {:.3}x ({}; samples spread {:.1}%)",
                r,
                if ok { "within 3%" } else { "GATE FAILED" },
                spread * 100.0
            ),
            _ => String::new(),
        }
    );

    // --- Co-pricing: one streaming pass vs. per-variant replays. --------
    let copricing = measure_copricing(kernel_scale, samples);
    let copricing_gate_passed = copricing_min.map(|m| copricing.speedup >= m);
    eprintln!(
        "[copricing: {} lanes, serial priced {:.3}s, co-priced {:.3}s, speedup {:.2}x, \
         results {}{}]",
        copricing.lanes,
        copricing.serial_priced_secs,
        copricing.copriced_secs,
        copricing.speedup,
        if copricing.identical {
            "identical"
        } else {
            "DIVERGED"
        },
        match (copricing_min, copricing_gate_passed) {
            (Some(m), Some(ok)) =>
                format!(", gate >= {m}x ({})", if ok { "passed" } else { "FAILED" }),
            _ => String::new(),
        }
    );

    // --- Coherence: 2-core CMP throughput + the 1-core identity anchor. -
    let coherence = measure_coherence(kernel_scale, samples);
    eprintln!(
        "[coherence: {} cores, {:.3}s, {:.1} Me/s, {:.2}x one core, {} invalidations, \
         {} C2C, 1-core identity {}]",
        coherence.cores,
        coherence.secs.median,
        coherence.events_per_sec / 1e6,
        coherence.over_one_core,
        coherence.invalidations,
        coherence.c2c_transfers,
        if coherence.one_core_identical {
            "held"
        } else {
            "BROKEN"
        }
    );

    // --- Figures: wall-clock to regenerate each at table scale. ---------
    let mut figures: Vec<(&str, f64)> = Vec::new();
    let mut sweep: Option<SweepReport> = None;
    if !kernel_only {
        for e in plan::EXPERIMENTS.iter().filter(|e| !(e.cells)().is_empty()) {
            let t0 = Instant::now();
            std::hint::black_box(e.run(scale));
            let secs = t0.elapsed().as_secs_f64();
            eprintln!("[{}: {:.2}s]", e.name, secs);
            figures.push((e.name, secs));
        }

        sweep = Some(measure_sweep(kernel_scale, jobs, cores));
    }
    let arena_stats = arena::stats();
    // Clears the arena, so it runs after the counters above are read.
    let generation = measure_arena_generation(kernel_scale, samples);
    eprintln!(
        "[arena generation: {:.3}s ({:.1}% spread)]",
        generation.median,
        generation.spread() * 100.0
    );

    // --- Emit the JSON report. ------------------------------------------
    let mut j = String::new();
    let _ = writeln!(j, "{{");
    let _ = writeln!(j, "  \"schema\": 7,");
    let _ = writeln!(j, "  \"tool\": \"perf_baseline\",");
    let _ = writeln!(j, "  \"scale\": {scale},");
    let _ = writeln!(j, "  \"kernel_scale\": {kernel_scale},");
    let _ = writeln!(j, "  \"nproc\": {cores},");
    let _ = writeln!(j, "  \"samples\": {samples},");
    let _ = writeln!(j, "  \"kernel_only\": {kernel_only},");
    let _ = writeln!(j, "  \"kernel\": {{");
    let _ = writeln!(j, "    \"events\": {events},");
    let _ = writeln!(
        j,
        "    \"batched\": {{ {}, \"events_per_sec\": {batched_eps:.1} }},",
        batched.json()
    );
    let _ = writeln!(
        j,
        "    \"unbatched\": {{ {}, \"events_per_sec\": {unbatched_eps:.1} }},",
        unbatched.json()
    );
    let _ = writeln!(
        j,
        "    \"batched_over_unbatched\": {batched_over_unbatched:.4},"
    );
    let _ = writeln!(
        j,
        "    \"seed_reference_events_per_sec\": {SEED_EVENTS_PER_SEC:.1},"
    );
    let _ = writeln!(
        j,
        "    \"speedup_vs_seed_reference\": {:.4}",
        batched_eps / SEED_EVENTS_PER_SEC
    );
    let _ = writeln!(j, "  }},");
    let _ = writeln!(j, "  \"telemetry\": {{");
    let _ = writeln!(j, "    \"disabled_events_per_sec\": {batched_eps:.1},");
    let _ = writeln!(
        j,
        "    \"enabled\": {{ {}, \"events_per_sec\": {telem_eps:.1} }},",
        telem.json()
    );
    let _ = writeln!(
        j,
        "    \"enabled_over_disabled\": {enabled_over_disabled:.4},"
    );
    let _ = writeln!(
        j,
        "    \"max_disabled_overhead_frac\": {MAX_DISABLED_OVERHEAD},"
    );
    let _ = writeln!(
        j,
        "    \"reference_events_per_sec\": {},",
        opt_num(reference_eps, 1)
    );
    let _ = writeln!(
        j,
        "    \"disabled_vs_reference\": {},",
        opt_num(reference_ratio, 4)
    );
    let _ = writeln!(j, "    \"disabled_spread_frac\": {spread:.4},");
    let _ = writeln!(
        j,
        "    \"reference_gate_passed\": {}",
        reference_passed.map_or("null".into(), |b| b.to_string())
    );
    let _ = writeln!(j, "  }},");
    let _ = writeln!(j, "  \"copricing\": {{");
    let _ = writeln!(j, "    \"lanes\": {},", copricing.lanes);
    let _ = writeln!(
        j,
        "    \"serial_priced_seconds\": {:.6},",
        copricing.serial_priced_secs
    );
    let _ = writeln!(
        j,
        "    \"copriced_seconds\": {:.6},",
        copricing.copriced_secs
    );
    let _ = writeln!(j, "    \"speedup\": {:.4},", copricing.speedup);
    let _ = writeln!(j, "    \"identical\": {},", copricing.identical);
    let _ = writeln!(
        j,
        "    \"min_speedup_gate\": {},",
        opt_num(copricing_min, 2)
    );
    let _ = writeln!(
        j,
        "    \"gate_passed\": {}",
        copricing_gate_passed.map_or("null".into(), |b| b.to_string())
    );
    let _ = writeln!(j, "  }},");
    let _ = writeln!(j, "  \"coherence\": {{");
    let _ = writeln!(j, "    \"cores\": {},", coherence.cores);
    let _ = writeln!(j, "    {},", coherence.secs.json());
    let _ = writeln!(
        j,
        "    \"events_per_sec\": {:.1},",
        coherence.events_per_sec
    );
    let _ = writeln!(
        j,
        "    \"one_core_seconds_median\": {:.6}, \"over_one_core\": {:.4},",
        coherence.one_core_secs.median, coherence.over_one_core
    );
    let _ = writeln!(j, "    \"invalidations\": {},", coherence.invalidations);
    let _ = writeln!(j, "    \"c2c_transfers\": {},", coherence.c2c_transfers);
    let _ = writeln!(j, "    \"upgrade_misses\": {},", coherence.upgrade_misses);
    let _ = writeln!(
        j,
        "    \"coherence_stall_cycles\": {},",
        coherence.coherence_stall_cycles
    );
    let _ = writeln!(
        j,
        "    \"one_core_identical\": {}",
        coherence.one_core_identical
    );
    let _ = writeln!(j, "  }},");
    let _ = writeln!(j, "  \"figures\": [");
    for (i, (name, secs)) in figures.iter().enumerate() {
        let comma = if i + 1 < figures.len() { "," } else { "" };
        let _ = writeln!(
            j,
            "    {{ \"name\": \"{name}\", \"seconds\": {secs:.4} }}{comma}"
        );
    }
    let _ = writeln!(j, "  ],");
    match &sweep {
        Some(s) => {
            let _ = writeln!(j, "  \"sweep\": {{");
            let _ = writeln!(j, "    \"cells\": {},", s.cells);
            let _ = writeln!(j, "    \"geometry_groups\": {},", s.geometry_groups);
            let _ = writeln!(
                j,
                "    \"timing_variants_per_group\": {},",
                s.timing_variants
            );
            let _ = writeln!(j, "    \"serial_full_seconds\": {:.4},", s.serial_secs);
            let _ = writeln!(j, "    \"jobs\": {},", s.jobs);
            let _ = writeln!(
                j,
                "    \"parallel_full_seconds\": {:.4},",
                s.parallel_full_secs
            );
            let _ = writeln!(
                j,
                "    \"pool_scaling_raw\": {},",
                opt_num(s.pool_scaling, 4)
            );
            if s.pool_scaling.is_none() {
                let _ = writeln!(
                    j,
                    "    \"pool_scaling_note\": \"single-core host (nproc 1): a parallel \
                     pass cannot speed up, so no scaling figure is reported\","
                );
            }
            let _ = writeln!(
                j,
                "    \"memoized_parallel_seconds\": {:.4},",
                s.memoized_secs
            );
            let _ = writeln!(j, "    \"speedup\": {:.4}", s.speedup);
            let _ = writeln!(j, "  }},");
        }
        None => {
            let _ = writeln!(j, "  \"sweep\": null,");
        }
    }
    let _ = writeln!(j, "  \"arena\": {{");
    let _ = writeln!(j, "    \"generated\": {},", arena_stats.generated);
    let _ = writeln!(j, "    \"reused\": {},", arena_stats.reused);
    let _ = writeln!(j, "    \"hit_rate\": {:.4},", arena_stats.hit_rate());
    let _ = writeln!(j, "    \"bypassed\": {},", arena_stats.bypassed);
    let _ = writeln!(j, "    \"bypass_events\": {},", arena_stats.bypass_events);
    let _ = writeln!(
        j,
        "    \"resident_streams\": {},",
        arena_stats.resident_streams
    );
    let _ = writeln!(
        j,
        "    \"resident_events\": {},",
        arena_stats.resident_events
    );
    let _ = writeln!(j, "    \"packed_bytes\": {},", arena_stats.packed_bytes);
    let _ = writeln!(
        j,
        "    \"compressed_bytes\": {},",
        arena_stats.compressed_bytes
    );
    let _ = writeln!(
        j,
        "    \"compression_ratio\": {:.4},",
        arena_stats.compression_ratio()
    );
    let _ = writeln!(
        j,
        "    \"generation\": {{ \"scale\": {kernel_scale}, {}, \"spread_frac\": {:.4} }}",
        generation.json(),
        generation.spread()
    );
    let _ = writeln!(j, "  }},");
    match &sweep {
        Some(s) => {
            let _ = writeln!(j, "  \"memo\": {{");
            let _ = writeln!(j, "    \"functional_runs\": {},", s.memo.functional_runs);
            let _ = writeln!(j, "    \"priced_cells\": {},", s.memo.priced_cells);
            let _ = writeln!(j, "    \"reuse_factor\": {:.4},", s.memo.reuse_factor());
            let _ = writeln!(j, "    \"copriced_groups\": {},", s.memo.copriced_groups);
            let _ = writeln!(j, "    \"copriced_lanes\": {},", s.memo.copriced_lanes);
            let _ = writeln!(
                j,
                "    \"replay_passes_saved\": {},",
                s.memo.replay_passes_saved()
            );
            let _ = writeln!(
                j,
                "    \"copricer_fallbacks\": {},",
                s.memo.copricer_fallbacks
            );
            let _ = writeln!(
                j,
                "    \"lanes_per_group\": {:.4}",
                s.memo.lanes_per_group()
            );
            let _ = writeln!(j, "  }},");
        }
        None => {
            let _ = writeln!(j, "  \"memo\": null,");
        }
    }
    let sweep_deterministic = sweep.as_ref().map_or(true, |s| s.sweep_deterministic);
    let memo_deterministic = sweep.as_ref().map_or(true, |s| s.memo_deterministic);
    let _ = writeln!(j, "  \"determinism\": {{");
    let _ = writeln!(
        j,
        "    \"batched_equals_unbatched\": {kernel_deterministic},"
    );
    let _ = writeln!(
        j,
        "    \"telemetry_equals_disabled\": {telem_deterministic},"
    );
    let _ = writeln!(
        j,
        "    \"copriced_equals_serial_priced\": {},",
        copricing.identical
    );
    let _ = writeln!(j, "    \"parallel_equals_serial\": {sweep_deterministic},");
    let _ = writeln!(j, "    \"memoized_equals_full\": {memo_deterministic},");
    let _ = writeln!(
        j,
        "    \"one_core_cmp_equals_single_cpu\": {}",
        coherence.one_core_identical
    );
    let _ = writeln!(j, "  }}");
    let _ = writeln!(j, "}}");

    if let Err(e) = std::fs::write(&out_path, &j) {
        eprintln!("error: cannot write {out_path}: {e}");
        std::process::exit(2);
    }
    eprintln!("[wrote {out_path}]");

    if !kernel_deterministic
        || !telem_deterministic
        || !sweep_deterministic
        || !memo_deterministic
        || !copricing.identical
        || !coherence.one_core_identical
    {
        eprintln!("error: determinism violation — see the report");
        std::process::exit(1);
    }
    if copricing_gate_passed == Some(false) {
        eprintln!(
            "error: co-priced pass is only {:.2}x faster than serial per-variant \
             pricing (gate requires {:.2}x)",
            copricing.speedup,
            copricing_min.unwrap_or(0.0)
        );
        std::process::exit(1);
    }
    if reference_passed == Some(false) {
        eprintln!(
            "error: disabled-telemetry throughput {:.2} Me/s is more than {}% below the \
             reference {:.2} Me/s",
            batched_eps / 1e6,
            MAX_DISABLED_OVERHEAD * 100.0,
            reference_eps.unwrap_or(0.0) / 1e6
        );
        std::process::exit(1);
    }
    if let Some(s) = &sweep {
        if s.speedup <= 1.5 {
            eprintln!(
                "warning: memoized sweep speedup {:.2}x did not exceed 1.5x \
                 (expected ~{}x from work reduction alone)",
                s.speedup,
                s.cells / s.geometry_groups
            );
        }
    }
}

/// Prices one baseline-geometry 4-lane timing group (L2 access 2/4/6/8)
/// from a single functional profile as N one-lane co-priced passes and
/// as one 4-lane pass, the median of K samples each. The profile is recorded once up
/// front — both timed paths replay the same token stream, so the
/// comparison isolates what sharing one decode across the lanes saves.
fn measure_copricing(kernel_scale: f64, samples: usize) -> CopricingReport {
    let base = SimConfig::baseline();
    let (_, profile) = Simulator::new(base.clone())
        .expect("valid config")
        .run_profiled(workload::standard(kernel_scale), 0)
        .expect("baseline is memoizable");
    let lanes: Vec<SimConfig> = [2u32, 4, 6, 8]
        .iter()
        .map(|&t| {
            let mut b = base.to_builder();
            b.l2_access(t);
            b.build().expect("valid config")
        })
        .collect();

    let ([serial_t, copriced_t], [serial, co]) = interleaved(
        samples,
        [
            &mut || {
                lanes
                    .iter()
                    .map(|cfg| price_profile(cfg, &profile).expect("replay pricing"))
                    .collect::<Vec<_>>()
            },
            &mut || price_profiles(&lanes, &profile).expect("co-priced pricing"),
        ],
    );
    let (serial_priced, copriced) = (Secs::of(&serial_t), Secs::of(&copriced_t));
    let identical = serial.len() == co.len()
        && serial.iter().zip(&co).all(|(a, b)| {
            a.counters == b.counters && a.per_process == b.per_process && a.completed == b.completed
        });
    CopricingReport {
        lanes: lanes.len(),
        serial_priced_secs: serial_priced.median,
        copriced_secs: copriced.median,
        speedup: serial_priced.median / copriced.median,
        identical,
    }
}

/// Measures the CMP coherence engine: a 2-core run with the `fig_cmp`
/// sharing knobs (throughput + protocol activity), and the 1-core
/// byte-identity anchor against the single-CPU kernel.
fn measure_coherence(kernel_scale: f64, samples: usize) -> CoherenceReport {
    let events: u64 = suite()
        .iter()
        .map(|b| {
            let n = b.scaled_instructions(kernel_scale) as f64;
            (n * b.refs_per_instruction()) as u64
        })
        .sum();
    let base = SimConfig::baseline();

    let mut cfg = base.clone();
    cfg.cmp = CmpConfig {
        cores: 2,
        ..fig_cmp::sharing()
    };
    // The 1-core CMP run is both the overhead's denominator and the
    // identity anchor against the single-CPU kernel.
    let ([rounds, one_rounds], [two_core, anchored]) = interleaved(
        samples,
        [
            &mut || runner::run_standard_cmp(cfg.clone(), kernel_scale, None).expect("2-core run"),
            &mut || runner::run_standard_cmp(base.clone(), kernel_scale, None).expect("1-core CMP"),
        ],
    );
    let single = runner::run_standard_raw(base, kernel_scale).expect("single-CPU run");
    let one_core_identical = anchored.result.counters == single.counters
        && anchored.result.per_process == single.per_process
        && anchored.result.completed == single.completed;
    let secs = Secs::of(&rounds);
    let c = two_core.result.counters;
    CoherenceReport {
        cores: 2,
        secs,
        events_per_sec: events as f64 / secs.median,
        one_core_secs: Secs::of(&one_rounds),
        over_one_core: median_ratio(&rounds, &one_rounds),
        invalidations: c.invalidations,
        c2c_transfers: c.c2c_transfers,
        upgrade_misses: c.upgrade_misses,
        coherence_stall_cycles: c.coherence_stall_cycles,
        one_core_identical,
    }
}

/// The geometry-diverse sweep measured three ways (see the module docs).
fn measure_sweep(kernel_scale: f64, jobs: usize, cores: usize) -> SweepReport {
    // 4 L2-D geometries × 4 access times, so the memoized path has real
    // grouping to exploit (4 functional passes for 16 cells). The old
    // sweep varied only the TLB miss penalty — a single geometry, which
    // measured nothing but pool scheduling overhead.
    let geometries: [u64; 4] = [32_768, 65_536, 131_072, 262_144];
    let access_times: [u32; 4] = [2, 4, 6, 8];
    let sweep_cfgs: Vec<SimConfig> = geometries
        .iter()
        .flat_map(|&size| access_times.iter().map(move |&t| (size, t)))
        .map(|(size, access)| {
            let mut b = SimConfig::builder();
            b.l2(L2Config::Split {
                i: L2Side {
                    size_words: 262_144,
                    assoc: 1,
                    line_words: 32,
                    access_cycles: 6,
                },
                d: L2Side {
                    size_words: size,
                    assoc: 1,
                    line_words: 32,
                    access_cycles: access,
                },
            });
            b.build().expect("valid")
        })
        .collect();

    // Pass A — serial full simulation (the pre-memoization reference).
    campaign::set_memoize(false);
    pool::set_jobs(1);
    let t0 = Instant::now();
    let serial = runner::run_standard_many(&sweep_cfgs, kernel_scale);
    let serial_secs = t0.elapsed().as_secs_f64();

    // Pass B — parallel full simulation: the raw pool scaling. Honest
    // about the host: with one core there is no scaling to measure, so
    // the figure is withheld rather than reported as a fake ≈1.0x.
    pool::set_jobs(jobs);
    let t0 = Instant::now();
    let parallel = runner::run_standard_many(&sweep_cfgs, kernel_scale);
    let parallel_full_secs = t0.elapsed().as_secs_f64();

    // Pass C — the memoized two-phase path at --jobs N: the configuration
    // sweeps actually run under, and the recorded headline speedup.
    campaign::set_memoize(true);
    campaign::reset_memo_stats();
    let t0 = Instant::now();
    let memoized = runner::run_standard_many(&sweep_cfgs, kernel_scale);
    let memoized_secs = t0.elapsed().as_secs_f64();
    pool::set_jobs(1);
    let memo = campaign::memo_stats();

    let identical = |xs: &[SimResult], ys: &[SimResult]| {
        xs.iter().zip(ys).all(|(a, b)| {
            a.counters == b.counters && a.per_process == b.per_process && a.completed == b.completed
        })
    };
    let sweep_deterministic = identical(&serial, &parallel);
    let memo_deterministic = identical(&serial, &memoized);
    let pool_scaling = (cores > 1).then(|| serial_secs / parallel_full_secs);
    let speedup = serial_secs / memoized_secs;
    eprintln!(
        "[sweep: {} cells ({} geometries x {} access times), serial full {serial_secs:.2}s, \
         --jobs {jobs} full {parallel_full_secs:.2}s (pool scaling {} on {cores} core(s)), \
         --jobs {jobs} memoized {memoized_secs:.2}s, speedup {speedup:.2}x, \
         {} functional + {} priced, counters {}/{}]",
        sweep_cfgs.len(),
        geometries.len(),
        access_times.len(),
        pool_scaling.map_or("n/a (single core)".into(), |s| format!("{s:.2}x")),
        memo.functional_runs,
        memo.priced_cells,
        if sweep_deterministic {
            "parallel identical"
        } else {
            "parallel DIVERGED"
        },
        if memo_deterministic {
            "memoized identical"
        } else {
            "memoized DIVERGED"
        }
    );
    SweepReport {
        cells: sweep_cfgs.len(),
        geometry_groups: geometries.len(),
        timing_variants: access_times.len(),
        serial_secs,
        jobs,
        parallel_full_secs,
        pool_scaling,
        memoized_secs,
        speedup,
        memo,
        sweep_deterministic,
        memo_deterministic,
    }
}

/// Formats an optional number as JSON: the value at `decimals` places, or
/// `null`.
fn opt_num(v: Option<f64>, decimals: usize) -> String {
    match v {
        Some(x) => format!("{x:.decimals$}"),
        None => "null".to_string(),
    }
}

/// Extracts `kernel.batched.events_per_sec` from a prior report without a
/// JSON parser dependency: the first `"events_per_sec"` after the first
/// `"batched"` key (the report's own stable emission order).
fn reference_batched_eps(text: &str) -> Option<f64> {
    let tail = &text[text.find("\"batched\"")?..];
    let rest = &tail[tail.find("\"events_per_sec\"")? + "\"events_per_sec\"".len()..];
    let rest = rest.trim_start().strip_prefix(':')?.trim_start();
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || matches!(c, '.' | '-' | '+' | 'e' | 'E')))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// Wraps every trace so each `next_batch` yields at most one event (the
/// seed kernel's consumption pattern).
fn unbatched(traces: Vec<Box<dyn Trace>>) -> Vec<Box<dyn Trace>> {
    traces
        .into_iter()
        .map(|t| Box::new(UnbatchedTrace(t)) as Box<dyn Trace>)
        .collect()
}

/// Times `samples` generations of the standard suite at `kernel_scale`,
/// each into an emptied arena: encoding every stream into checksummed
/// blocks, as a kernel run's set-up does.
fn measure_arena_generation(kernel_scale: f64, samples: usize) -> Secs {
    let secs: Vec<f64> = (0..samples)
        .map(|_| {
            arena::clear();
            let t0 = Instant::now();
            std::hint::black_box(workload::standard(kernel_scale));
            t0.elapsed().as_secs_f64()
        })
        .collect();
    Secs::of(&secs)
}

/// Runs each of `fs` once untimed (trace generation fills the arena on
/// a first run), then `samples` rounds that time each of them in turn,
/// so host drift between rounds lands on every measurement alike and
/// leaves their ratios alone. Returns each one's wall-clock seconds,
/// round by round, and its last result (all results of one closure are
/// identical by the determinism invariant).
fn interleaved<T, const N: usize>(
    samples: usize,
    mut fs: [&mut dyn FnMut() -> T; N],
) -> ([Vec<f64>; N], [T; N]) {
    let mut last: [T; N] = std::array::from_fn(|i| fs[i]());
    let mut secs: [Vec<f64>; N] = std::array::from_fn(|_| Vec::with_capacity(samples));
    for _ in 0..samples {
        for ((f, s), l) in fs.iter_mut().zip(&mut secs).zip(&mut last) {
            let t0 = Instant::now();
            *l = f();
            s.push(t0.elapsed().as_secs_f64());
        }
    }
    (secs, last)
}

/// The median over rounds of `num[i] / den[i]`, for two measurements
/// timed in the same [`interleaved`] rounds: a burst of host contention
/// that slows one round moves that round's ratio alone, where a ratio
/// of the two medians takes it from whichever side it hit.
fn median_ratio(num: &[f64], den: &[f64]) -> f64 {
    let ratios: Vec<f64> = num.iter().zip(den).map(|(n, d)| n / d).collect();
    Secs::of(&ratios).median
}

fn parse<T: std::str::FromStr>(v: Option<&String>, flag: &str) -> T {
    v.unwrap_or_else(|| usage(&format!("missing value for {flag}")))
        .parse()
        .unwrap_or_else(|_| usage(&format!("bad value for {flag}")))
}

fn usage(err: &str) -> ! {
    if !err.is_empty() {
        eprintln!("error: {err}\n");
    }
    eprintln!(
        "usage: perf_baseline [--scale S] [--jobs N] [--samples K] [--out PATH] \
         [--kernel-only] [--reference PATH] [--copricing-min X]"
    );
    std::process::exit(if err.is_empty() { 0 } else { 2 });
}
