//! The `serve` workload: a `gaas-serve` daemon in a child process,
//! driven over loopback TCP by closed-loop clients.
//!
//! The child is this executable re-run as `gaasbench daemon DIR`, which
//! makes the same `ServerCore::open` + `net::serve` calls as the
//! `gaas-serve` binary with `--jobs 1`, the default queue of 16 and a
//! [`CACHE_BYTES`] profile cache. Each daemon gets a fresh directory under
//! the benchmark's `out/`, and a [`Daemon`] guard kills it and removes the
//! directory on every exit path, panics included. The child inherits the
//! benchmark's pin to one CPU, so the host reference that runs between
//! rounds of jobs runs on the core the daemon worked on.

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, ExitCode, Stdio};
use std::sync::{Arc, Condvar, Mutex};
use std::thread;
use std::time::{Duration, Instant};

use gaas_experiments::json::{self, Json};
use gaas_experiments::{interrupt, pool, runner};
use gaas_serve::engine::{ServeConfig, ServerCore};
use gaas_serve::net;
use gaas_trace::arena;
use gaas_trace::bench_model::suite;

use crate::harness::{
    fnv, peak_rss_mb, report_arena, report_end_to_end, Ctx, Timings, FNV_START, SETUP_REPS,
};
use crate::host::Sample;
use crate::inputs::{self, ServeCell};
use crate::metrics::Value;
use crate::spans::Tracer;
use crate::stats::percentile;

/// Workload scale of served jobs.
pub const SCALE: f64 = 0.0005;

/// Profile-cache budget of the daemon: half the 64 MB default, for jobs at
/// half the scale the default is sized for (0.001), so the cache holds as
/// many profiles (≈29) and hits, misses and evicts alike.
const CACHE_BYTES: usize = 32 << 20;

/// Closed-loop client connections.
const CLIENTS: usize = 2;

/// Jobs each client runs, one after another, per round of a session.
const JOBS_PER_ROUND: usize = 2;

/// Jobs in the block a session cycles through.
const BLOCK: usize = 100;

/// Timed jobs a `serve` run attempts at the least (two passes over the
/// block), so p95 has ten beyond it.
const MIN_JOBS: usize = 2 * BLOCK;

/// Jobs in the short serve session of other workloads' traced runs.
const PROBE_JOBS: usize = 24;

/// Interval between a client's `status` polls.
const POLL: Duration = Duration::from_millis(2);

/// Give up on a daemon that has not answered within this long.
const PATIENCE: Duration = Duration::from_secs(60);

/// Distinct cells re-simulated in process to check served results.
const CHECKED_CELLS: usize = 8;

/// Entry point of the daemon child (`gaasbench daemon DIR`).
pub fn daemon_main(dir: &Path) -> ExitCode {
    pool::set_jobs(1);
    interrupt::install();
    let mut cfg = ServeConfig::new(dir);
    cfg.cache_budget_bytes = CACHE_BYTES;
    let core = match ServerCore::open(cfg) {
        Ok(core) => Arc::new(core),
        Err(e) => {
            eprintln!("gaasbench daemon: cannot open {}: {e}", dir.display());
            return ExitCode::FAILURE;
        }
    };
    let served = net::serve(&core, dir, 0);
    core.shutdown();
    match served {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("gaasbench daemon: listener error: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Where daemons keep their state: `out/` beside the benchmark sources.
pub fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// A running daemon child; dropping it kills the child, waits for it and
/// removes its directory.
struct Daemon {
    child: Child,
    dir: PathBuf,
    addr: String,
}

impl Daemon {
    /// Starts a daemon in a fresh `dir` and waits until it listens.
    fn spawn(dir: PathBuf) -> Result<Daemon, String> {
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        let exe = std::env::current_exe().map_err(|e| format!("locate executable: {e}"))?;
        let child = Command::new(exe)
            .arg("daemon")
            .arg(&dir)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .spawn()
            .map_err(|e| format!("spawn daemon: {e}"))?;
        let mut daemon = Daemon {
            child,
            dir,
            addr: String::new(),
        };
        let start = Instant::now();
        let addr_file = daemon.dir.join("serve.addr");
        loop {
            if let Ok(text) = std::fs::read_to_string(&addr_file) {
                if text.ends_with('\n') {
                    daemon.addr = text.trim().to_string();
                    return Ok(daemon);
                }
            }
            if let Ok(Some(status)) = daemon.child.try_wait() {
                return Err(format!("daemon exited before listening: {status}"));
            }
            if start.elapsed() > PATIENCE {
                return Err("daemon did not start listening".into());
            }
            thread::sleep(Duration::from_millis(1));
        }
    }

    /// A new client connection.
    fn client(&self) -> Result<Client, String> {
        Client::connect(&self.addr)
    }

    /// Asks the daemon to stop and waits for it to exit.
    fn shutdown(mut self) -> Result<(), String> {
        self.client()?.call(r#"{"op":"shutdown"}"#)?;
        let start = Instant::now();
        while start.elapsed() < PATIENCE {
            match self.child.try_wait() {
                Ok(Some(status)) if status.success() => return Ok(()),
                Ok(Some(status)) => return Err(format!("daemon exited with {status}")),
                Ok(None) => thread::sleep(Duration::from_millis(5)),
                Err(e) => return Err(format!("wait for daemon: {e}")),
            }
        }
        Err("daemon did not exit after shutdown".into())
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// One persistent line-JSON connection.
struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    fn connect(addr: &str) -> Result<Client, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        stream
            .set_read_timeout(Some(PATIENCE))
            .and_then(|()| stream.set_nodelay(true))
            .map_err(|e| format!("configure socket: {e}"))?;
        let writer = stream
            .try_clone()
            .map_err(|e| format!("clone socket: {e}"))?;
        Ok(Client {
            reader: BufReader::new(stream),
            writer,
        })
    }

    fn call(&mut self, request: &str) -> Result<Json, String> {
        self.writer
            .write_all(format!("{request}\n").as_bytes())
            .map_err(|e| format!("send: {e}"))?;
        let mut line = String::new();
        match self.reader.read_line(&mut line) {
            Ok(0) => return Err("daemon closed the connection".into()),
            Ok(_) => {}
            Err(e) => return Err(format!("receive: {e}")),
        }
        json::parse(&line).map_err(|e| format!("bad response {line:?}: {e}"))
    }
}

/// Timeline of one served job, in wall-clock seconds.
#[derive(Debug, Default)]
struct JobTimes {
    /// Factor that takes this job's times to reference speed (set by the
    /// host reference run after its round).
    factor: f64,
    /// Submit sent to `done` observed.
    latency: f64,
    submit_rtt: f64,
    status_rtts: Vec<f64>,
    result_rtt: f64,
    /// Submit acknowledged to first poll that saw the job running.
    queue_wait: f64,
    /// That poll to the first poll that saw it done.
    service: f64,
    /// CPI column of the result table, one string per cell.
    cpis: Vec<String>,
}

/// Submits one spec and polls it to completion; `submitted` runs as soon
/// as the daemon has answered the submit, whatever it answered.
fn run_job(
    client: &mut Client,
    spec: &str,
    tr: &mut Tracer,
    submitted: impl FnOnce(),
) -> Result<JobTimes, String> {
    let mut t = JobTimes::default();
    let start = Instant::now();
    let resp = tr.span("serve.submit", |_| {
        client.call(&format!("{{\"op\":\"submit\",\"spec\":{spec}}}"))
    });
    submitted();
    let resp = resp?;
    let acked = Instant::now();
    t.submit_rtt = (acked - start).as_secs_f64();
    let Some(job) = resp.get("job").and_then(Json::as_str).map(str::to_string) else {
        return Err(match resp.get("retry_after_ms").and_then(Json::as_u64) {
            Some(ms) => {
                // Back off as told before the next submit; the refusal
                // itself counts as a failed operation.
                thread::sleep(Duration::from_millis(ms.min(250)));
                format!("submit refused (retry after {ms} ms)")
            }
            None => format!("submit rejected: {}", resp.to_text()),
        });
    };
    let status = format!("{{\"op\":\"status\",\"job\":\"{job}\"}}");
    let mut running: Option<Instant> = None;
    let done = loop {
        thread::sleep(POLL);
        let t0 = Instant::now();
        let resp = tr.span("serve.status", |_| client.call(&status))?;
        let now = Instant::now();
        t.status_rtts.push((now - t0).as_secs_f64());
        match resp.get("state").and_then(Json::as_str) {
            Some("queued") => {}
            Some("running") => {
                running.get_or_insert(now);
            }
            Some("done") => break now,
            _ => return Err(format!("job {job} ended: {}", resp.to_text())),
        }
        if start.elapsed() > PATIENCE {
            return Err(format!("job {job} did not finish"));
        }
    };
    let running = running.unwrap_or(done);
    t.latency = (done - start).as_secs_f64();
    t.queue_wait = (running - acked).as_secs_f64();
    t.service = (done - running).as_secs_f64();
    let t0 = Instant::now();
    let resp = tr.span("serve.result", |_| {
        client.call(&format!("{{\"op\":\"result\",\"job\":\"{job}\"}}"))
    })?;
    t.result_rtt = t0.elapsed().as_secs_f64();
    let table = resp
        .get("table")
        .and_then(Json::as_str)
        .ok_or_else(|| format!("job {job}: no table in {}", resp.to_text()))?;
    t.cpis = table
        .lines()
        .map(|l| l.split_once(' ').map_or("", |(_, cpi)| cpi).to_string())
        .collect();
    Ok(t)
}

/// A job spec with `cells` at [`SCALE`].
fn spec(cells: &[String]) -> String {
    format!(
        "{{\"name\":\"gaasbench\",\"scale\":{SCALE},\"cells\":[{}]}}",
        cells.join(",")
    )
}

/// Spawns daemon `k` and runs the out-of-pool warm-up job: the set-up a
/// user pays before the first useful result.
fn start_daemon(k: usize, tr: &mut Tracer) -> Result<Daemon, String> {
    let dir = out_dir().join(format!("serve-{}-{k}", std::process::id()));
    let daemon = tr.span("serve.spawn", |_| Daemon::spawn(dir))?;
    let warm = spec(&[inputs::WARMUP_CELL.to_string()]);
    let times = run_job(&mut daemon.client()?, &warm, tr, || ())?;
    if times.cpis.len() != 1 || times.cpis[0] == "FAILED" {
        return Err(format!("warm-up job failed: {:?}", times.cpis));
    }
    Ok(daemon)
}

/// What one closed-loop session measured.
struct Session {
    /// `(job index, outcome)` per attempted job.
    jobs: Vec<(usize, Result<JobTimes, String>)>,
    /// Latencies of successful jobs, by tracing mode.
    times: Timings,
    /// Time the rounds took, wall-clock and at reference speed (the
    /// host reference runs between rounds are not included).
    busy: Sample,
    /// The daemon's peak RSS once the session had attempted its first
    /// `min_jobs` jobs.
    rss_mb: Option<f64>,
}

/// One client's jobs of one round: `(job index, outcome, traced)`.
type RoundOut = Vec<(usize, Result<JobTimes, String>, bool)>;

/// Submission order within a round: a client submits job `idx` only once
/// every earlier job of the round has been submitted. The daemon's one
/// worker takes jobs first in, first out, so it runs them in index order
/// and which lookups hit, miss and evict in the profile cache is a
/// property of the job sequence, not of thread timing.
struct Turn {
    next: Mutex<usize>,
    moved: Condvar,
}

impl Turn {
    /// Waits until job `idx` may be submitted (or [`PATIENCE`] passed, if
    /// an earlier job's client never got that far).
    fn wait_for(&self, idx: usize) {
        let next = self.next.lock().expect("no client panics holding the turn");
        let _ = self
            .moved
            .wait_timeout_while(next, PATIENCE, |next| *next < idx)
            .expect("no client panics holding the turn");
    }

    /// Lets the next job be submitted.
    fn pass(&self) {
        *self.next.lock().expect("no client panics holding the turn") += 1;
        self.moved.notify_all();
    }
}

/// Runs whole passes over `jobs` from [`CLIENTS`] closed-loop clients,
/// until `seconds` have passed and at least `min_jobs` were attempted
/// (one pass at the least). Each pass goes in rounds of [`JOBS_PER_ROUND`]
/// jobs per client: client `c` runs jobs `c`, `c + CLIENTS`, ... of each
/// round, submitted in index order (see [`Turn`]). Every pass therefore
/// hits and misses the profile cache alike, and a run's latencies do not
/// depend on where in the job sequence its time ran out. The host
/// reference runs between rounds, while the daemon is idle, and scales
/// the latencies of the round before it. In a traced run, every other job
/// records spans.
fn session(
    ctx: &mut Ctx,
    daemon: &Daemon,
    jobs: &[[ServeCell; 4]],
    seconds: f64,
    min_jobs: usize,
) -> Result<Session, String> {
    let traced = ctx.tr.on();
    let epoch = ctx.tr.epoch();
    let mut clients = (0..CLIENTS)
        .map(|c| Ok((daemon.client()?, Tracer::new(traced, epoch, 1 + c as u32))))
        .collect::<Result<Vec<_>, String>>()?;
    let mut s = Session {
        jobs: Vec::new(),
        times: Timings::default(),
        busy: Sample {
            wall: 0.0,
            scaled: 0.0,
        },
        rss_mb: None,
    };
    let mut base = 0;
    let mut ops = 0u64;
    let start = Instant::now();
    ctx.meter.checkpoint();
    loop {
        if base == jobs.len() {
            if s.rss_mb.is_none() && s.jobs.len() >= min_jobs {
                // The daemon keeps every job it served, so its peak grows
                // with the jobs a run fits in; read it at a fixed count.
                s.rss_mb = peak_rss_mb(&daemon.child.id().to_string());
            }
            if start.elapsed().as_secs_f64() >= seconds && s.jobs.len() >= min_jobs {
                break;
            }
            base = 0;
        }
        let round_end = (base + CLIENTS * JOBS_PER_ROUND).min(jobs.len());
        let turn = Turn {
            next: Mutex::new(base),
            moved: Condvar::new(),
        };
        let round = Instant::now();
        let outs = thread::scope(|scope| {
            let handles: Vec<_> = clients
                .iter_mut()
                .enumerate()
                .map(|(c, (client, tr))| {
                    let turn = &turn;
                    scope.spawn(move || {
                        let mut out: RoundOut = Vec::new();
                        for idx in (base + c..round_end).step_by(CLIENTS) {
                            let op = ops + (idx - base) as u64;
                            tr.set_on(traced && op % 2 == 0);
                            tr.set_op(op);
                            let cells: Vec<String> = jobs[idx].iter().map(|c| c.json()).collect();
                            turn.wait_for(idx);
                            let r = run_job(client, &spec(&cells), tr, || turn.pass());
                            out.push((idx, r, tr.on()));
                        }
                        out
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().map_err(|_| "client thread panicked".to_string()))
                .collect::<Result<Vec<RoundOut>, String>>()
        })?;
        ops += (round_end - base) as u64;
        base = round_end;
        let wall = round.elapsed().as_secs_f64();
        let factor = ctx.meter.checkpoint();
        s.busy.wall += wall;
        s.busy.scaled += wall * factor;
        let mut outs: RoundOut = outs.into_iter().flatten().collect();
        outs.sort_by_key(|(idx, _, _)| *idx);
        for (idx, mut r, was_traced) in outs {
            if let Ok(t) = &mut r {
                t.factor = factor;
                let sample = Sample {
                    wall: t.latency,
                    scaled: t.latency * factor,
                };
                s.times.push(was_traced, sample);
            }
            s.jobs.push((idx, r));
        }
    }
    for (_, tr) in clients {
        ctx.tr.absorb(tr);
    }
    Ok(s)
}

/// Daemon-side counters from the `stats` op.
fn daemon_stats(daemon: &Daemon) -> Result<Json, String> {
    daemon.client()?.call(r#"{"op":"stats"}"#)
}

fn stat(stats: &Json, path: &[&str]) -> f64 {
    path.iter()
        .try_fold(stats, |v, k| v.get(k))
        .and_then(Json::as_u64)
        .map_or(f64::NAN, |v| v as f64)
}

/// Records the serve and profile-cache layer metrics of a session: its
/// client-side timings at reference speed, and the daemon counters it
/// moved (`stats` before and after).
fn report_layers(ctx: &mut Ctx, s: &Session, before: &Json, after: &Json) {
    let ok: Vec<&JobTimes> = s.jobs.iter().filter_map(|(_, r)| r.as_ref().ok()).collect();
    let ms = |f: &dyn Fn(&JobTimes) -> f64| -> Vec<f64> {
        ok.iter().map(|t| f(t) * t.factor * 1e3).collect()
    };
    let pct = |v: &[f64], p| {
        if v.is_empty() {
            f64::NAN
        } else {
            percentile(v, p)
        }
    };
    let status: Vec<f64> = ok
        .iter()
        .flat_map(|t| t.status_rtts.iter().map(|x| x * t.factor * 1e3))
        .collect();
    let moved = |path: &[&str]| stat(after, path) - stat(before, path);
    let r = &mut ctx.report;
    r.exact("serve.submit_rtt_ms_p50", pct(&ms(&|t| t.submit_rtt), 50));
    r.exact("serve.status_rtt_ms_p50", pct(&status, 50));
    r.exact("serve.result_rtt_ms_p50", pct(&ms(&|t| t.result_rtt), 50));
    let queue = ms(&|t| t.queue_wait);
    r.exact("serve.queue_wait_ms_p50", pct(&queue, 50));
    r.exact("serve.queue_wait_ms_p95", pct(&queue, 95));
    let service = ms(&|t| t.service);
    r.exact("serve.service_ms_p50", pct(&service, 50));
    r.exact("serve.service_ms_p95", pct(&service, 95));
    r.exact("serve.rejected_busy", moved(&["rejected_busy"]));
    r.exact("serve.worker_restarts", moved(&["worker_restarts"]));
    let hits = moved(&["cache", "hits"]);
    r.exact(
        "profile_cache.hit_rate",
        hits / (hits + moved(&["cache", "misses"])),
    );
    r.exact("profile_cache.evictions", moved(&["cache", "evictions"]));
}

/// Counts each job and checks served results: a cell repeated across
/// jobs must repeat its CPI exactly, and the first [`CHECKED_CELLS`]
/// distinct cells must match an in-process `runner::run_standard_raw`.
/// Returns the digest of those cells' results.
fn check_results(ctx: &mut Ctx, sessions: &[&Session], jobs: &[[ServeCell; 4]]) -> u64 {
    let mut seen: BTreeMap<ServeCell, String> = BTreeMap::new();
    let mut order: Vec<ServeCell> = Vec::new();
    for (idx, r) in sessions.iter().flat_map(|s| &s.jobs) {
        ctx.checks.record(r.is_ok(), || {
            format!("serve job {idx}: {}", r.as_ref().err().map_or("", |e| e))
        });
        let Ok(t) = r else { continue };
        ctx.checks.record(t.cpis.len() == 4, || {
            format!("serve job {idx}: table {:?}", t.cpis)
        });
        for (cell, cpi) in jobs[*idx].iter().zip(&t.cpis) {
            match seen.get(cell) {
                Some(first) => ctx.checks.record(first == cpi, || {
                    format!(
                        "serve cell {}: CPI {cpi} differs from earlier {first}",
                        cell.json()
                    )
                }),
                None => {
                    ctx.checks.record(cpi != "FAILED", || {
                        format!("serve cell {} failed", cell.json())
                    });
                    seen.insert(*cell, cpi.clone());
                    order.push(*cell);
                }
            }
        }
    }
    let mut h = FNV_START;
    for cell in order.iter().take(CHECKED_CELLS) {
        let served = &seen[cell];
        let cfg = gaas_serve::spec::parse(&spec(&[cell.json()])).map(|mut s| s.cfgs.remove(0));
        let local = cfg.and_then(|cfg| {
            ctx.tr
                .span("runner.run_standard_raw", |_| {
                    runner::run_standard_raw(cfg, SCALE)
                })
                .map(|r| format!("{:.6}", r.cpi()))
                .map_err(|e| e.to_string())
        });
        ctx.checks.record(local.as_ref() == Ok(served), || {
            format!(
                "serve cell {}: served CPI {served}, in process {local:?}",
                cell.json()
            )
        });
        h = fnv(h, format!("{}={served};", cell.json()).as_bytes());
    }
    ctx.checks.record(order.len() >= CHECKED_CELLS, || {
        format!("only {} distinct cells were served", order.len())
    });
    h
}

/// Events one served cell simulates (the standard suite at [`SCALE`]).
fn events_per_cell() -> u64 {
    arena::clear();
    drop(gaas_sim::workload::from_specs(&suite(), SCALE));
    arena::stats().resident_events
}

/// The `serve` workload.
pub fn run(ctx: &mut Ctx) -> Result<(), String> {
    let mut setup_s = Vec::with_capacity(SETUP_REPS);
    let mut daemon = None;
    for k in 0..SETUP_REPS {
        let (d, sample) = ctx.meter.time(|| start_daemon(k, &mut ctx.tr));
        setup_s.push(sample);
        if let Some(old) = daemon.replace(d?) {
            old.shutdown()?;
        }
    }
    let daemon = daemon.expect("SETUP_REPS > 0");
    let jobs = inputs::serve_jobs(ctx.seed, BLOCK);
    // One untimed pass, like every workload's first operation: a
    // long-lived daemon serves from a filled profile cache, so the timed
    // jobs do too.
    let warm = session(ctx, &daemon, &jobs, 0.0, 0)?;
    let before = daemon_stats(&daemon)?;
    let seconds = ctx.seconds;
    let s = session(ctx, &daemon, &jobs, seconds, MIN_JOBS)?;
    let after = daemon_stats(&daemon)?;
    daemon.shutdown()?;

    let done = s.times.plain.len() + s.times.traced.len();
    let refs = (done * 4) as f64 * events_per_cell() as f64;
    let mrefs = Value::Exact(refs / s.busy.scaled / 1e6);
    report_end_to_end(ctx, &setup_s, &s.times, MIN_JOBS, mrefs, s.rss_mb);
    println!(
        "serve jobs_per_s {:.6} 1/s ({done} jobs in {:.3} s at reference speed, {:.3} s wall, \
         after one untimed pass over the {BLOCK} jobs)",
        done as f64 / s.busy.scaled,
        s.busy.scaled,
        s.busy.wall
    );
    report_layers(ctx, &s, &before, &after);
    let h = check_results(ctx, &[&warm, &s], &jobs);
    ctx.checks.recorded(ctx.seed, "serve", Some(h));
    report_arena(ctx);
    Ok(())
}

/// The serve layer of another workload's traced run: one daemon and a
/// short session of [`PROBE_JOBS`] jobs from the same seed.
pub fn probe(ctx: &mut Ctx) -> Result<(), String> {
    let daemon = start_daemon(0, &mut ctx.tr)?;
    let jobs = inputs::serve_jobs(ctx.seed, PROBE_JOBS);
    let before = daemon_stats(&daemon)?;
    let s = session(ctx, &daemon, &jobs, 0.0, 0)?;
    let after = daemon_stats(&daemon)?;
    daemon.shutdown()?;
    report_layers(ctx, &s, &before, &after);
    check_results(ctx, &[&s], &jobs);
    Ok(())
}
