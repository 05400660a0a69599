//! The layer probes of a traced run: each layer timed from outside on
//! the seed's inputs at [`PROBE_SCALE`].
//!
//! Each probe group runs its probes in turn, [`PROBE_REPS`] rounds over,
//! and reports medians. Every probe is timed between two runs of the host
//! reference and reported at reference speed, like the end-to-end
//! timings (see [`crate::host`]); only the durability probe, which waits
//! on the disk, is wall-clock. A per-event layer's own cost is found by
//! subtraction: a loop that drives the layer over the decoded trace,
//! minus the bare decode loop (or the scheduler loop, for the TLBs),
//! taken within each round. Whole-engine figures (`sim`, `profile`,
//! `coherence`) are total time over the events fed. The exact simulated
//! statistics come from the same probe runs; no change that only speeds
//! up the simulator may move them.

use std::hint::black_box;
use std::time::Instant;

use gaas_cache::{CacheArray, Tlb, WriteBuffer};
use gaas_experiments::{campaign, durability, runner};
use gaas_sim::config::{SimConfig, TelemetryConfig};
use gaas_sim::sched::{Instruction, Scheduler};
use gaas_sim::{price_profile, price_profiles, workload, Simulator};
use gaas_trace::bench_model::{suite, BenchmarkSpec};
use gaas_trace::{arena, AccessKind, PhysAddr, Trace, TraceEvent};

use crate::harness::Ctx;
use crate::inputs;
use crate::serve;
use crate::stats::median;
use crate::workloads::warmup;

/// Scale the probes run at: ≈4.4 M events per pass.
pub const PROBE_SCALE: f64 = 0.002;

/// Rounds of each probe group.
const PROBE_REPS: usize = 5;

/// Seconds per round of each named probe.
#[derive(Default)]
struct Laps(Vec<(&'static str, Vec<f64>)>);

impl Laps {
    /// Runs `f` in a span named `name` and files its time at reference
    /// speed under `name`.
    fn time<T>(&mut self, ctx: &mut Ctx, name: &'static str, f: impl FnOnce() -> T) -> T {
        let (out, sample) = ctx
            .meter
            .time(|| ctx.tr.span(name, |_| black_box(f())));
        let secs = sample.scaled;
        match self.0.iter_mut().find(|(n, _)| *n == name) {
            Some((_, v)) => v.push(secs),
            None => self.0.push((name, vec![secs])),
        }
        out
    }

    fn of(&self, name: &str) -> &[f64] {
        self.0
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| v.as_slice())
            .unwrap_or_else(|| panic!("probe {name} never ran"))
    }

    /// Median seconds of `name`.
    fn median(&self, name: &str) -> f64 {
        median(self.of(name))
    }

    /// Median over rounds of `a`'s time combined with `b`'s by `op`.
    fn paired(&self, a: &str, b: &str, op: impl Fn(f64, f64) -> f64) -> f64 {
        let v: Vec<f64> = self
            .of(a)
            .iter()
            .zip(self.of(b))
            .map(|(x, y)| op(*x, *y))
            .collect();
        median(&v)
    }

    /// Median over rounds of `a`'s time minus `b`'s.
    fn minus(&self, a: &str, b: &str) -> f64 {
        self.paired(a, b, |x, y| x - y)
    }
}

/// Feeds every event of `specs` at [`PROBE_SCALE`] to `f`, in arena
/// blocks (the batch size the scheduler refills with).
fn drain(specs: &[BenchmarkSpec], mut f: impl FnMut(&TraceEvent)) {
    let mut buf = Vec::with_capacity(4096);
    for mut t in workload::from_specs(specs, PROBE_SCALE) {
        loop {
            buf.clear();
            if t.next_batch(&mut buf, 4096) == 0 {
                break;
            }
            buf.iter().for_each(&mut f);
        }
    }
}

/// Drives the scheduler over `specs`, handing each instruction to `f`.
fn schedule(specs: &[BenchmarkSpec], mut f: impl FnMut(&Instruction)) {
    let cfg = SimConfig::baseline();
    let traces = workload::from_specs(specs, PROBE_SCALE);
    let mut s = Scheduler::new(traces, cfg.mp.level, cfg.mp.time_slice_cycles);
    let mut now = 0u64;
    while let Some(i) = s.next_instruction(now) {
        f(&i);
        now += 1 + u64::from(i.ifetch.stall_cycles);
        s.post_instruction(now, i.ifetch.syscall);
    }
}

/// Events in `specs` at [`PROBE_SCALE`].
fn count_events(specs: &[BenchmarkSpec]) -> u64 {
    let mut n = 0u64;
    drain(specs, |_| n += 1);
    n
}

fn physical(e: &TraceEvent) -> PhysAddr {
    PhysAddr::new(e.addr.raw() & 0x3fff_ffff)
}

fn ns_per(secs: f64, count: u64) -> f64 {
    secs * 1e9 / count.max(1) as f64
}

/// Trace, scheduler, cache, simulator and telemetry layers over the
/// seeded mix.
fn per_event(ctx: &mut Ctx) -> Result<(), String> {
    let specs = inputs::kernel_specs(ctx.seed);
    let l1 = SimConfig::baseline()
        .l1d
        .geometry()
        .map_err(|e| e.to_string())?;
    let telemetry_cfg = {
        let mut b = SimConfig::builder();
        b.telemetry(TelemetryConfig::on());
        b.build().map_err(|e| e.to_string())?
    };
    let run = |cfg: SimConfig| {
        let traces = workload::from_specs(&specs, PROBE_SCALE);
        Simulator::new(cfg)
            .map_err(|e| e.to_string())?
            .run_telemetry(traces, warmup(PROBE_SCALE))
            .map_err(|e| e.to_string())
    };
    let mut laps = Laps::default();
    let (mut events, mut stores) = (0, 0);
    let mut last = None;
    for _ in 0..PROBE_REPS {
        events = laps.time(ctx, "probe.trace_gen", || {
            arena::clear();
            drop(workload::from_specs(&specs, PROBE_SCALE));
            arena::stats().resident_events
        });
        laps.time(ctx, "probe.trace_decode", || {
            let mut sum = 0u64;
            drain(&specs, |e| sum = sum.wrapping_add(e.addr.raw()));
            sum
        });
        laps.time(ctx, "probe.sched", || {
            let mut n = 0u64;
            schedule(&specs, |i| n += 1 + u64::from(i.data.is_some()));
            n
        });
        laps.time(ctx, "probe.tlb", || {
            let (mut itlb, mut dtlb) = (Tlb::instruction(), Tlb::data());
            let mut hits = 0u64;
            schedule(&specs, |i| {
                hits += u64::from(itlb.access(i.ifetch.addr));
                if let Some(d) = i.data {
                    hits += u64::from(dtlb.access(d.addr));
                }
            });
            hits
        });
        laps.time(ctx, "probe.tag", || {
            let mut arr = CacheArray::new(l1);
            let mut hits = 0u64;
            drain(&specs, |e| {
                if arr.touch(physical(e)).is_some() {
                    hits += 1;
                } else {
                    arr.fill(physical(e));
                }
            });
            hits
        });
        stores = laps.time(ctx, "probe.write_buffer", || {
            let mut wb = WriteBuffer::new(8);
            let (mut now, mut stores) = (0u64, 0u64);
            drain(&specs, |e| {
                now += 1;
                if e.kind == AccessKind::Store {
                    stores += 1;
                    now = wb.slot_free_at(now);
                    wb.enqueue(now, physical(e), 6, 4, 0);
                }
            });
            stores
        });
        laps.time(ctx, "probe.step", || {
            let mut sim = Simulator::new(SimConfig::baseline()).expect("baseline is valid");
            drain(&specs, |e| sim.step(e));
            sim.now()
        });
        let (res, _, _) = laps.time(ctx, "probe.sim_run", || run(SimConfig::baseline()))?;
        let (_, _, report) = laps.time(ctx, "probe.telemetry", || run(telemetry_cfg.clone()))?;
        last = Some((res, report));
    }
    let (res, report) = last.expect("PROBE_REPS > 0");

    let r = &mut ctx.report;
    r.exact(
        "trace.gen_ns_per_event",
        ns_per(laps.median("probe.trace_gen"), events),
    );
    r.exact(
        "trace.decode_ns_per_event",
        ns_per(laps.median("probe.trace_decode"), events),
    );
    r.exact(
        "sched.ns_per_event",
        ns_per(laps.minus("probe.sched", "probe.trace_decode"), events),
    );
    r.exact(
        "cache.tlb_ns_per_access",
        ns_per(laps.minus("probe.tlb", "probe.sched"), events),
    );
    r.exact(
        "cache.tag_ns_per_access",
        ns_per(laps.minus("probe.tag", "probe.trace_decode"), events),
    );
    r.exact(
        "cache.write_buffer_ns_per_store",
        ns_per(
            laps.minus("probe.write_buffer", "probe.trace_decode"),
            stores,
        ),
    );
    r.exact(
        "sim.step_ns_per_event",
        ns_per(laps.minus("probe.step", "probe.trace_decode"), events),
    );
    r.exact(
        "sim.run_ns_per_event",
        ns_per(laps.median("probe.sim_run"), events),
    );
    let c = &res.counters;
    r.exact("sim.cpi", res.cpi());
    r.exact("sim.l1i_miss_ratio", c.l1i_miss_ratio());
    r.exact(
        "sim.l1d_read_miss_ratio",
        c.l1d_read_misses as f64 / c.loads.max(1) as f64,
    );
    r.exact("sim.l2_miss_ratio", c.l2_miss_ratio());
    r.exact(
        "sim.wb_wait_cpi",
        c.wb_wait_cycles as f64 / c.instructions.max(1) as f64,
    );
    r.exact(
        "telemetry.enabled_over_disabled",
        laps.paired("probe.sim_run", "probe.telemetry", |off, on| off / on),
    );
    r.exact("telemetry.spans_recorded", report.spans.len() as f64);
    r.exact("telemetry.spans_dropped", report.spans_dropped as f64);
    Ok(())
}

/// Functional pass, scalar pricing and 4-lane co-pricing of one
/// baseline-geometry profile; the two pricings must agree.
fn profile(ctx: &mut Ctx) -> Result<(), String> {
    let specs = inputs::kernel_specs(ctx.seed);
    let lanes: Vec<SimConfig> = [2, 4, 6, 8]
        .into_iter()
        .map(|t| {
            let mut b = SimConfig::builder();
            b.l2_access(t);
            b.build().expect("baseline timing variants are valid")
        })
        .collect();
    let mut laps = Laps::default();
    let mut bytes = 0;
    let mut agree = true;
    for _ in 0..PROBE_REPS {
        let (_, profile) = laps
            .time(ctx, "probe.profile_functional", || {
                Simulator::new(SimConfig::baseline())?.run_profiled(
                    workload::from_specs(&specs, PROBE_SCALE),
                    warmup(PROBE_SCALE),
                )
            })
            .map_err(|e| e.to_string())?;
        let serial = laps
            .time(ctx, "probe.price_profile", || {
                lanes
                    .iter()
                    .map(|cfg| price_profile(cfg, &profile))
                    .collect::<Result<Vec<_>, _>>()
            })
            .map_err(|e| e.to_string())?;
        let joint = laps
            .time(ctx, "probe.price_profiles", || {
                price_profiles(&lanes, &profile)
            })
            .map_err(|e| e.to_string())?;
        agree &= serial.len() == joint.len()
            && serial
                .iter()
                .zip(&joint)
                .all(|(a, b)| a.counters == b.counters);
        bytes = profile.size_bytes();
    }
    ctx.checks.record(agree, || {
        "co-priced lanes differ from scalar pricing".into()
    });
    let events = count_events(&specs);
    let lane_events = events * lanes.len() as u64;
    let r = &mut ctx.report;
    r.exact(
        "profile.functional_ns_per_event",
        ns_per(laps.median("probe.profile_functional"), events),
    );
    r.exact(
        "profile.price_ns_per_event_lane",
        ns_per(laps.median("probe.price_profile"), lane_events),
    );
    r.exact(
        "profile.copriced_ns_per_event_lane",
        ns_per(laps.median("probe.price_profiles"), lane_events),
    );
    r.exact("profile.bytes_per_event", bytes as f64 / events as f64);
    Ok(())
}

/// The CMP engine at 4 cores (the `cmp` machine) and at 1 core.
fn coherence(ctx: &mut Ctx) -> Result<(), String> {
    let events = count_events(&suite());
    let cfg = inputs::cmp_config(ctx.seed);
    let mut laps = Laps::default();
    let mut last = None;
    for _ in 0..PROBE_REPS {
        let four = laps.time(ctx, "probe.cmp", || {
            runner::run_standard_cmp(cfg.clone(), PROBE_SCALE, None)
        });
        let one = laps.time(ctx, "probe.cmp_one_core", || {
            runner::run_standard_cmp(SimConfig::baseline(), PROBE_SCALE, None)
        });
        one.map_err(|e| e.to_string())?;
        last = Some(four.map_err(|e| e.to_string())?.result);
    }
    let res = last.expect("PROBE_REPS > 0");
    let c = &res.counters;
    let kinstr = c.instructions.max(1) as f64 / 1e3;
    let r = &mut ctx.report;
    r.exact(
        "coherence.ns_per_event",
        ns_per(laps.median("probe.cmp"), events),
    );
    r.exact(
        "coherence.one_core_ns_per_event",
        ns_per(laps.median("probe.cmp_one_core"), events),
    );
    r.exact("coherence.cpi", res.cpi());
    r.exact(
        "coherence.invalidations_per_kinstr",
        c.invalidations as f64 / kinstr,
    );
    r.exact("coherence.c2c_per_kinstr", c.c2c_transfers as f64 / kinstr);
    Ok(())
}

/// The campaign engine's grouping of the seed's `sweep` cells, and its
/// cost over calling the functional pass and the co-pricer directly for
/// the same groups.
fn campaign(ctx: &mut Ctx) -> Result<(), String> {
    let cfgs = inputs::sweep_cells(ctx.seed);
    campaign::set_memoize(true);
    let groups = campaign::group_preview(&cfgs);
    let mut laps = Laps::default();
    let mut memo = campaign::MemoStats::default();
    for _ in 0..PROBE_REPS {
        campaign::reset_memo_stats();
        laps.time(ctx, "probe.campaign_run_cells", || {
            runner::run_standard_cells(&cfgs, PROBE_SCALE)
        });
        memo = campaign::memo_stats();
        laps.time(ctx, "probe.campaign_direct", || {
            for (_, members) in &groups {
                let (_, profile) = runner::run_standard_profiled_cancellable(
                    cfgs[members[0]].clone(),
                    PROBE_SCALE,
                    None,
                )?;
                let rest: Vec<SimConfig> = members[1..].iter().map(|&i| cfgs[i].clone()).collect();
                price_profiles(&rest, &profile)?;
            }
            Ok::<(), gaas_sim::SimError>(())
        })
        .map_err(|e| e.to_string())?;
    }
    let r = &mut ctx.report;
    r.exact("campaign.functional_runs", memo.functional_runs as f64);
    r.exact("campaign.priced_cells", memo.priced_cells as f64);
    r.exact("campaign.copriced_groups", memo.copriced_groups as f64);
    r.exact(
        "campaign.copricer_fallbacks",
        memo.copricer_fallbacks as f64,
    );
    r.exact(
        "campaign.overhead_s",
        laps.minus("probe.campaign_run_cells", "probe.campaign_direct"),
    );
    Ok(())
}

/// Median time of [`durability::write_atomic`] committing a result-table
/// sized artifact (write, fsync, rename, directory fsync).
fn durability(ctx: &mut Ctx) -> Result<(), String> {
    let dir = serve::out_dir().join(format!("durability-{}", std::process::id()));
    std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let path = dir.join("table.txt");
    let table: String = (0..4).map(|i| format!("cell{i:02} 1.234567\n")).collect();
    let mut ms = Vec::new();
    let written = (0..20).try_for_each(|_| {
        let t0 = Instant::now();
        let r = ctx.tr.span("durability.write_atomic", |_| {
            durability::write_atomic(&path, table.as_bytes())
        });
        ms.push(t0.elapsed().as_secs_f64() * 1e3);
        r
    });
    let _ = std::fs::remove_dir_all(&dir);
    written.map_err(|e| format!("write_atomic: {e}"))?;
    ctx.report
        .exact("durability.write_atomic_ms_p50", median(&ms));
    Ok(())
}

/// Runs every probe. `serve_layer` adds a short serve session, for the
/// workloads that do not measure the daemon themselves.
pub fn probe(ctx: &mut Ctx, serve_layer: bool) -> Result<(), String> {
    per_event(ctx)?;
    profile(ctx)?;
    coherence(ctx)?;
    campaign(ctx)?;
    durability(ctx)?;
    if serve_layer {
        serve::probe(ctx)?;
    }
    Ok(())
}
