//! What every workload shares: the run context, failure accounting, the
//! timed loop, counter digests, set-up and memory readings.

use std::time::Instant;

use gaas_sim::{workload, SimResult};
use gaas_trace::arena;
use gaas_trace::bench_model::BenchmarkSpec;

use crate::host::{Meter, Sample};
use crate::metrics::{Report, Value};
use crate::spans::Tracer;
use crate::stats::Summary;

/// Set-ups per run (daemon start-ups for `serve`); `setup_s` is their
/// median.
pub const SETUP_REPS: usize = 9;

/// Timed operations per run at the least, however long they take. The
/// tail reported for in-process operations is the percentile this count
/// supports (p50), whatever count a run reaches.
pub const MIN_OPS: usize = 20;

/// Seed-0 counter digests, one `workload digest` line each.
const RECORDED: &str = include_str!("../digests.txt");

/// One run's settings and accumulating results.
pub struct Ctx {
    /// Workload name.
    pub workload: &'static str,
    /// Workload seed.
    pub seed: u64,
    /// Seconds the timed loop runs for.
    pub seconds: f64,
    /// Whether this is the traced (per-layer) run.
    pub traced: bool,
    /// Span recorder of the main thread.
    pub tr: Tracer,
    /// Operations attempted and failed.
    pub checks: Checks,
    /// Metric values measured so far.
    pub report: Report,
    /// Host-speed reference every timing is scaled by.
    pub meter: Meter,
}

/// Operations attempted and failed: errors, refusals and wrong outputs.
#[derive(Debug, Default)]
pub struct Checks {
    /// Operations and output checks attempted.
    pub attempted: u64,
    /// Those that failed.
    pub failed: u64,
}

impl Checks {
    /// Counts one attempted operation, failed unless `ok`.
    pub fn record(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("gaasbench: FAILED: {}", what());
        }
    }

    /// Counts every result of one repeated operation: each must have
    /// succeeded with the same digest as the first. Returns that digest.
    pub fn identical(&mut self, what: &str, results: &[Result<u64, String>]) -> Option<u64> {
        let first = results.iter().find_map(|r| r.as_ref().ok().copied());
        for (i, r) in results.iter().enumerate() {
            match r {
                Ok(d) => self.record(Some(*d) == first, || {
                    format!(
                        "{what} #{i}: digest {d:016x} differs from {:016x}",
                        first.unwrap_or(0)
                    )
                }),
                Err(e) => self.record(false, || format!("{what} #{i}: {e}")),
            }
        }
        first
    }

    /// On seed 0, checks `digest` against the one recorded for `workload`.
    pub fn recorded(&mut self, seed: u64, workload: &str, digest: Option<u64>) {
        if seed != 0 {
            return;
        }
        let want = recorded_digest(workload);
        self.record(want.is_some() && want == digest, || {
            format!(
                "{workload}: seed-0 digest {} does not match the recorded {}",
                digest.map_or("none".into(), |d| format!("{d:016x}")),
                want.map_or("none".into(), |d| format!("{d:016x}"))
            )
        });
        if let Some(d) = digest {
            eprintln!("[{workload}: seed-0 digest {d:016x}]");
        }
    }
}

fn recorded_digest(workload: &str) -> Option<u64> {
    RECORDED.lines().find_map(|line| {
        let (name, hex) = line.split_once(' ')?;
        (name == workload)
            .then(|| u64::from_str_radix(hex.trim(), 16).ok())
            .flatten()
    })
}

/// FNV-1a over `bytes`, continuing from `h`.
pub fn fnv(h: u64, bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(h, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3))
}

/// FNV-1a offset basis.
pub const FNV_START: u64 = 0xcbf2_9ce4_8422_2325;

/// Digest of everything a run simulated: counters, per-process counters
/// and completion order.
pub fn digest(res: &SimResult) -> u64 {
    let text = format!(
        "{:?}|{:?}|{:?}",
        res.counters, res.per_process, res.completed
    );
    fnv(FNV_START, text.as_bytes())
}

/// Times of one workload's timed operations. A traced run records spans
/// on every other operation, so it measures its own overhead.
#[derive(Debug, Default)]
pub struct Timings {
    /// Operations run without spans.
    pub plain: Vec<Sample>,
    /// Operations run with spans.
    pub traced: Vec<Sample>,
}

impl Timings {
    /// Files one operation's time under the mode it ran in.
    pub fn push(&mut self, traced: bool, sample: Sample) {
        if traced {
            self.traced.push(sample);
        } else {
            self.plain.push(sample);
        }
    }

    /// Extra time per operation with spans on, as a share of the time
    /// without (0 when the run recorded no spans).
    pub fn overhead_frac(&self) -> f64 {
        if self.traced.is_empty() || self.plain.is_empty() {
            return 0.0;
        }
        crate::stats::median(&scaled(&self.traced)) / crate::stats::median(&scaled(&self.plain))
            - 1.0
    }
}

/// The reference-speed seconds of `samples`.
pub fn scaled(samples: &[Sample]) -> Vec<f64> {
    samples.iter().map(|s| s.scaled).collect()
}

/// The wall seconds of `samples`.
pub fn wall(samples: &[Sample]) -> Vec<f64> {
    samples.iter().map(|s| s.wall).collect()
}

/// Runs `op` once untimed (caches fill, lazy set-up finishes), then
/// again and again, each time followed by a run of the host reference,
/// until `ctx.seconds` have passed and at least [`MIN_OPS`] operations
/// were timed. Returns the timings and every result, the warm-up's
/// first.
pub fn measure<T>(ctx: &mut Ctx, mut op: impl FnMut(&mut Tracer) -> T) -> (Timings, Vec<T>) {
    let mut results = vec![op(&mut ctx.tr)];
    ctx.meter.checkpoint();
    let mut times = Timings::default();
    let start = Instant::now();
    let mut i = 0u64;
    while start.elapsed().as_secs_f64() < ctx.seconds || (i as usize) < MIN_OPS {
        i += 1;
        let traced = ctx.traced && i % 2 == 0;
        ctx.tr.set_on(traced);
        ctx.tr.set_op(i);
        let (result, sample) = ctx.meter.time(|| op(&mut ctx.tr));
        results.push(result);
        times.push(traced, sample);
    }
    ctx.tr.set_on(ctx.traced);
    (times, results)
}

/// Generates `specs` at `scale` into a cleared trace arena
/// [`SETUP_REPS`] times. Returns each set-up's time and the events the
/// arena then holds (it keeps the last set-up's streams).
pub fn setup(ctx: &mut Ctx, specs: &[BenchmarkSpec], scale: f64) -> (Vec<Sample>, u64) {
    let mut secs = Vec::with_capacity(SETUP_REPS);
    for _ in 0..SETUP_REPS {
        arena::clear();
        let (traces, sample) = ctx.meter.time(|| {
            ctx.tr
                .span("trace.materialise", |_| workload::from_specs(specs, scale))
        });
        secs.push(sample);
        drop(traces);
    }
    let stats = arena::stats();
    ctx.checks.record(stats.bypassed == 0, || {
        format!("{} streams bypassed the arena", stats.bypassed)
    });
    (secs, stats.resident_events)
}

/// Peak resident set (`VmHWM`) of process `pid` (`"self"` for this
/// one), in MB.
pub fn peak_rss_mb(pid: &str) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()?;
    Some(kb / 1024.0)
}

/// Records the end-to-end metrics (and the tracing overhead) from a
/// workload's set-up times, the times of its operation, its throughput
/// and the peak RSS of the process that did the work. `floor` is the
/// number of operations the run guarantees, which picks the tail
/// percentile. Timings are at reference speed; the wall-clock medians and
/// the host's speed are printed beside them.
pub fn report_end_to_end(
    ctx: &mut Ctx,
    setup: &[Sample],
    times: &Timings,
    floor: usize,
    mrefs_per_s: Value,
    rss_mb: Option<f64>,
) {
    let op = Summary::at_least(&scaled(&times.plain), floor);
    println!(
        "{} wall-clock setup_s {:.6} s, op_p50_ms {:.6} ms; host speed {:.3} of reference",
        ctx.workload,
        crate::stats::median(&wall(setup)),
        crate::stats::median(&wall(&times.plain)) * 1e3,
        ctx.meter.speed()
    );
    let r = &mut ctx.report;
    r.sampled("setup_s", Summary::of(&scaled(setup)));
    r.set("sim_mrefs_per_s", mrefs_per_s);
    r.sampled("op_p50_ms", op.map(|s| s * 1e3));
    r.exact("op_tail_ms", op.tail * 1e3);
    r.exact("peak_rss_mb", rss_mb.unwrap_or(f64::NAN));
    r.exact("trace_overhead_frac", times.overhead_frac());
    r.exact("host.speed", ctx.meter.speed());
}

/// [`report_end_to_end`] for an in-process workload whose operation
/// simulates `events` trace events, plus the arena's counters.
pub fn report_in_process(ctx: &mut Ctx, setup: &[Sample], times: &Timings, events: u64) {
    let mrefs = Summary::of(&scaled(&times.plain)).map(|s| events as f64 / s / 1e6);
    report_end_to_end(
        ctx,
        setup,
        times,
        MIN_OPS,
        Value::Sampled(mrefs),
        peak_rss_mb("self"),
    );
    report_arena(ctx);
}

/// Records the trace arena's reuse and compression in this process (for
/// `serve`, that of the in-process result checks; the daemon's arena is
/// out of reach).
pub fn report_arena(ctx: &mut Ctx) {
    let a = arena::stats();
    ctx.report.exact("trace.arena_hit_rate", a.hit_rate());
    ctx.report.exact(
        "trace.compressed_bytes_per_event",
        a.compressed_bytes as f64 / a.resident_events.max(1) as f64,
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_workload_has_a_recorded_digest() {
        for w in crate::WORKLOADS {
            assert!(recorded_digest(w).is_some(), "no digest recorded for {w}");
        }
        assert_eq!(
            recorded_digest("kernel"),
            recorded_digest("kernel_telemetry")
        );
    }

    #[test]
    fn identical_counts_each_divergent_or_failed_result() {
        let mut c = Checks::default();
        let first = c.identical("op", &[Ok(1), Ok(1), Ok(2), Err("boom".into())]);
        assert_eq!(first, Some(1));
        assert_eq!((c.attempted, c.failed), (4, 2));
    }

    #[test]
    fn overhead_compares_medians() {
        let at = |scaled| Sample { wall: 9.0, scaled };
        let t = Timings {
            plain: vec![at(1.0), at(1.0), at(1.0)],
            traced: vec![at(1.1), at(1.1)],
        };
        assert!((t.overhead_frac() - 0.1).abs() < 1e-9);
        assert_eq!(Timings::default().overhead_frac(), 0.0);
    }
}
