//! `gaasbench` — seeded end-to-end and per-layer benchmark of the GaAs
//! cache simulator.
//!
//! ```text
//! gaasbench --workload W --seconds T [--seed S] [--trace 0|1]
//! ```
//!
//! Run from the repository root as
//! `cargo run --release --manifest-path gaasbench/Cargo.toml -- --workload kernel --seconds 12`,
//! with `T` the `run_seconds` of `BENCHMARK.json`, the one place the run
//! length is fixed (so it has no default here).
//! One invocation runs one workload in its own process, so the trace
//! arena, memo counters, worker pool and profile cache start empty and
//! `peak_rss_mb` belongs to that workload alone. Inputs are a pure
//! function of `--seed` (default 0, which keeps the Table-1 spec seeds
//! `repro` uses); the timed loop runs for `--seconds` after one untimed
//! warm-up operation. Everything runs on one simulator worker (`--jobs
//! 1`), pinned to one CPU: this benchmark makes no scaling claims.
//!
//! # Timings are at reference speed
//!
//! The host this benchmark was built on lends its cores out: the same
//! simulation ran anywhere from 0.09 s to 0.17 s within one minute, so
//! wall times of ten runs spread by 30 %. Every timing is therefore
//! taken between two runs of a fixed reference computation and scaled to
//! the time it would take on a host that runs the reference in 35 ms
//! (see [`host`]). A speed-up of the simulator shows in full, since the
//! reference does not change with it; a host that is busier for a minute
//! shows little. The untraced run also prints the wall-clock medians and
//! the host's speed relative to the reference.
//!
//! # Workloads
//!
//! One operation takes 0.1-0.3 s at the scales below, so a 12-second run
//! holds dozens of them and the reference runs beside each one see the
//! host it ran on.
//!
//! * `kernel` — the baseline machine over the 10-benchmark Table-1 mix at
//!   scale 0.002 (≈4.4 M trace events, 40 % warm-up) through
//!   `Simulator::run_warmed`. Why: the per-event pipeline (decode,
//!   scheduler, TLBs, tag planes, write buffer, L2) does all the work and
//!   nothing above `sim` runs, so a kernel speed-up must show here and a
//!   profile, campaign or serve change must not.
//! * `kernel_telemetry` — the same inputs with `TelemetryConfig::on()`
//!   through `Simulator::run_telemetry`. Why: the only workload where the
//!   telemetry hooks run; the cost of full telemetry shows here and must
//!   leave `kernel` flat.
//! * `cmp` — 4 cores sharing a 256 KW L2 under MESI (`fig_cmp::sharing()`,
//!   split direct-mapped at seed 0; other seeds draw the organization and
//!   a migration interval of 128, 256 or 512) at scale 0.001 through
//!   `runner::run_standard_cmp`. Why: the same per-core pipeline as
//!   `kernel` behind the CMP interleave and the directory, so it shows a
//!   CMP speed-up, and a single-CPU speed-up that CMP fails to inherit.
//! * `sweep` — 16 memoized cells at scale 0.0005, 4 functional groups
//!   (write-back split 64 KW, write-back unified 256 KW 2-way, write-only
//!   split 128 KW, subblock split 256 KW) × 4 L2-D access times ({2, 4,
//!   6, 8} at seed 0, drawn from 2..=10 otherwise) through
//!   `runner::run_standard_cells`. Why: the functional pass, the
//!   co-pricer and campaign grouping do the work, and the write-through
//!   groups load the write-buffer drain path that `kernel` barely
//!   touches.
//! * `serve` — a `gaas-serve` daemon (one worker, a 32 MB profile cache)
//!   in a child process, driven closed-loop by 2 client connections that
//!   each submit a job, poll `status` every 2 ms until `done`, fetch the
//!   result and submit the next; every 2 jobs per client the clients wait
//!   for each other while the reference runs. The clients cycle through a
//!   block of 100 jobs, submitted in order: one untimed pass fills the
//!   profile cache, then whole passes are timed, at least two (200 jobs).
//!   Each job is 4 cells at scale 0.0005, 2 groups × 2 access times, the
//!   groups drawn from a pool of 40 (policy × L2 size × split ×
//!   associativity) with an assumed Zipf(1) popularity (see
//!   [`inputs::serve_jobs`]), so the profile cache both hits and misses
//!   and evicts. Why: the only workload where admission fsync, the jobs
//!   journal, artifact commit and read-back, and the profile cache
//!   dominate.
//!
//! # End-to-end metrics (`--trace 0`)
//!
//! * `setup_s` — median of 9 set-ups, generating the traces into the
//!   arena; for `serve`, median of 9 daemon start-ups, each to the end of
//!   one warm-up job on a geometry outside the pool.
//! * `sim_mrefs_per_s` — simulated trace events per second (each cell
//!   counts its whole trace; `serve` over the session's rounds).
//! * `op_p50_ms`, `op_tail_ms` — median time of one operation (a
//!   simulation, a 16-cell sweep, a job from submit to `done`), and the
//!   highest percentile with at least ten operations beyond it among the
//!   operations a run guarantees: p50 of the at least 20 in-process
//!   operations, p95 of the at least 200 jobs. The printed line gives n,
//!   quartiles and which percentile.
//! * `peak_rss_mb` — peak resident set of the working process; for
//!   `serve`, the daemon's, read once its untimed pass and first 200 timed
//!   jobs are done (it keeps every job it served, so a later reading
//!   would grow with the jobs a run fits in).
//!
//! Failed and refused operations and wrong outputs are counted in the
//! result's `failed` out of `attempted`; any failure exits 1.
//!
//! # Output checks
//!
//! The simulator has no hardware reference here, so it is unvalidated;
//! its statistics are exact and are checked, not scored. Every operation
//! of a run must produce the same counters; seed 0 must reproduce the
//! digests recorded in `digests.txt`; `kernel_telemetry` must equal a
//! run without telemetry; one `sweep` cell per group, simulated in full
//! without memoization, must equal its priced result; and in `serve`
//! every repeated cell must return the identical CPI string and the
//! first 8 distinct cells must equal an in-process
//! `runner::run_standard_raw`.
//!
//! # Per-layer metrics (`--trace 1`)
//!
//! The traced run repeats the workload with spans around each layer call
//! on every other operation (so `trace_overhead_frac` compares the two
//! halves), then runs the layer probes of [`layers`] on the same seed,
//! and writes the spans as Chrome trace JSON to
//! `out/trace-<workload>-seed<S>.json`. `host.speed` is the host's speed
//! over the run relative to the reference.

mod harness;
mod host;
mod inputs;
mod layers;
mod metrics;
mod serve;
mod spans;
mod stats;
mod workloads;

use std::path::Path;
use std::process::ExitCode;
use std::time::Instant;

use harness::{Checks, Ctx};
use host::Meter;
use metrics::{Report, END_TO_END, PER_LAYER};
use spans::Tracer;

/// The workloads, in `BENCHMARK.json` order.
pub const WORKLOADS: [&str; 5] = ["kernel", "kernel_telemetry", "cmp", "sweep", "serve"];

const USAGE: &str = "usage: gaasbench --workload kernel|kernel_telemetry|cmp|sweep|serve \
                     --seconds T [--seed S] [--trace 0|1]";

struct Args {
    workload: &'static str,
    seed: u64,
    seconds: f64,
    traced: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let (mut workload, mut seconds) = (None, None);
    let (mut seed, mut traced) = (0u64, false);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(*WORKLOADS.iter().find(|w| **w == value).ok_or_else(bad)?);
            }
            "--seed" => seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| bad())?;
                if !(s.is_finite() && s > 0.0 && s <= 3600.0) {
                    return Err(bad());
                }
                seconds = Some(s);
            }
            "--trace" => {
                traced = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds: seconds.ok_or("--seconds is required")?,
        traced,
    })
}

fn run(ctx: &mut Ctx, workload: &str) -> Result<(), String> {
    match workload {
        "kernel" => workloads::kernel(ctx, false),
        "kernel_telemetry" => workloads::kernel(ctx, true),
        "cmp" => workloads::cmp(ctx),
        "sweep" => workloads::sweep(ctx),
        "serve" => serve::run(ctx)?,
        other => unreachable!("parse_args admits only known workloads, not {other}"),
    }
    if ctx.traced {
        layers::probe(ctx, workload != "serve")?;
    }
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if let [cmd, dir] = args.as_slice() {
        if cmd == "daemon" {
            return serve::daemon_main(Path::new(dir));
        }
    }
    let args = match parse_args(&args) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("gaasbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if host::pin_to_one_cpu().is_none() {
        eprintln!("gaasbench: could not pin to one CPU; running unpinned");
    }
    let mut ctx = Ctx {
        workload: args.workload,
        seed: args.seed,
        seconds: args.seconds,
        traced: args.traced,
        tr: Tracer::new(args.traced, Instant::now(), 0),
        checks: Checks::default(),
        report: Report::default(),
        meter: Meter::default(),
    };
    if let Err(e) = run(&mut ctx, args.workload) {
        eprintln!("gaasbench: {}: {e}", args.workload);
        return ExitCode::FAILURE;
    }
    if args.traced {
        let dir = serve::out_dir();
        let path = dir.join(format!("trace-{}-seed{}.json", args.workload, args.seed));
        let json = ctx.tr.chrome_json(&format!("gaasbench {}", args.workload));
        match std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, json)) {
            Ok(()) => eprintln!("[{} spans written to {}]", ctx.tr.len(), path.display()),
            Err(e) => {
                eprintln!("gaasbench: cannot write {}: {e}", path.display());
                return ExitCode::FAILURE;
            }
        }
    }
    let catalogue = if args.traced { PER_LAYER } else { END_TO_END };
    let (lines, metrics) = match ctx.report.finish(args.workload, catalogue) {
        Ok(out) => out,
        Err(e) => {
            eprintln!("gaasbench: {}: {e}", args.workload);
            return ExitCode::FAILURE;
        }
    };
    print!("{lines}");
    let attempted = ctx.checks.attempted.max(1);
    println!(
        "{} failed_frac {:.6} ratio ({} of {attempted} operations and checks)",
        args.workload,
        ctx.checks.failed as f64 / attempted as f64,
        ctx.checks.failed
    );
    let correct = ctx.checks.failed == 0;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {}, \"metrics\": {metrics}}}",
        ctx.checks.failed
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let a =
            parse_args(&args("--workload serve --seed 7 --seconds 10 --trace 1")).expect("valid");
        assert_eq!(
            (a.workload, a.seed, a.seconds, a.traced),
            ("serve", 7, 10.0, true)
        );
        let a = parse_args(&args("--workload kernel --seconds 2.5")).expect("defaults");
        assert_eq!((a.seed, a.seconds, a.traced), (0, 2.5, false));
    }

    #[test]
    fn rejects_bad_command_lines() {
        for bad in [
            "",
            "--workload nope --seconds 1",
            "--workload kernel",
            "--workload kernel --seconds 0",
            "--workload kernel --seconds 1 --trace 2",
            "--workload kernel --seconds 1 --seed",
            "--workload kernel --seconds 1 --frobnicate 1",
        ] {
            assert!(parse_args(&args(bad)).is_err(), "{bad:?} accepted");
        }
    }
}
