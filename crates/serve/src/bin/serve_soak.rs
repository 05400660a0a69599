//! `serve_soak` — seeded kill/recover soak of the sweep service.
//!
//! ```text
//! serve_soak [SEED]    (default seed 1)
//! ```
//!
//! Three phases, each an acceptance criterion of the service's
//! robustness contract:
//!
//! 1. **Backpressure.** A paused core with a 2-slot queue must reject
//!    the third submit with `retry_after_ms` guidance (bounded memory,
//!    no hang), reject an invalid spec permanently (no retry hint),
//!    absorb an injected executor panic as a journaled `failed` job
//!    while the next job still completes.
//! 2. **Degradation.** With a generous cache budget, two jobs sharing
//!    functional geometry must produce cross-request memo hits; with a
//!    budget smaller than one profile, the cache must shed (oversize
//!    rejects — the first rung of the degradation ladder) while every
//!    table stays byte-identical to the reference.
//! 3. **Kill/recover.** Under the seeded storage-chaos schedule —
//!    simulated daemon crashes, torn writes, bit flips, failed renames,
//!    failed fsyncs, short reads — every session reopens the service
//!    over the survived journals and recovery re-enqueues in-flight
//!    jobs. PASS requires every accepted job to end **byte-identical**
//!    to its undisturbed reference table or terminally `failed` with a
//!    journaled reason — never silent loss, never a corrupt artifact.

use std::collections::HashMap;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use gaas_experiments::campaign::{self, CellOptions, CellResult};
use gaas_experiments::chaos::{self, ChaosConfig};
use gaas_experiments::profile_cache;
use gaas_serve::engine::{JobState, ServeConfig, ServerCore, Submission};
use gaas_serve::jobs::{JobEvent, JobsLog};
use gaas_serve::spec;
use gaas_sim::config_fingerprint;
use gaas_trace::rng::SmallRng;

const SCALE: f64 = 5e-5;
const MIN_EVENTS: u64 = 20;
const MAX_SESSIONS: u64 = 200;
const IDLE_WAIT: Duration = Duration::from_secs(120);

/// The two sweep specs of the soak. They share functional geometry
/// (cells differ only in the L2 access-time knob), so the second job's
/// cells hit the cross-request profile cache; `alpha` also carries one
/// write-only cell the harness poisons (its worker panics every
/// attempt), exercising the FAILED-row path end to end.
fn specs() -> Vec<(&'static str, String)> {
    vec![
        (
            "alpha",
            format!(
                r#"{{"name":"alpha","scale":{SCALE},
                    "cells":[{{"l2_access":2}},{{"l2_access":4}},{{"l2_access":6}},
                             {{"policy":"write_only","l2_drain_access":8}}]}}"#
            ),
        ),
        (
            "beta",
            format!(
                r#"{{"name":"beta","scale":{SCALE},
                    "cells":[{{"l2_access":3}},{{"l2_access":5}},{{"l2_access":7}}]}}"#
            ),
        ),
    ]
}

/// A one-cell churn job (same functional geometry as the main specs).
/// Phase 3 keeps submitting these while the fault quota is unmet, so
/// the daemon is always doing journaled work when the chaos schedule
/// rolls — an idle daemon would starve the soak of injection points.
fn churn_spec(n: u64) -> String {
    format!(r#"{{"name":"churn{n}","scale":{SCALE},"cells":[{{"l2_access":9}}]}}"#)
}

/// Renders a reference table the exact way the engine does.
fn render(results: &[CellResult]) -> String {
    results
        .iter()
        .enumerate()
        .map(|(i, r)| match r {
            CellResult::Done(res) => format!("cell{i:02} {:.6}\n", res.cpi()),
            CellResult::Failed { .. } => format!("cell{i:02} FAILED\n"),
        })
        .collect()
}

/// Silences the expected poison panics and the injected supervisor
/// panic; everything else keeps the default report.
fn quiet_expected_panics() {
    let default_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let payload = info.payload();
        let msg = payload
            .downcast_ref::<&str>()
            .copied()
            .or_else(|| payload.downcast_ref::<String>().map(String::as_str))
            .unwrap_or("");
        if !msg.contains(chaos::POISON_PANIC) && !msg.contains("injected executor panic") {
            default_hook(info);
        }
    }));
}

/// Polls until the core is idle (every job terminal) or a simulated
/// crash killed the session; panics after `IDLE_WAIT` of no progress.
fn wait_idle(core: &ServerCore) -> bool {
    let t0 = Instant::now();
    loop {
        if core.idle() {
            return true;
        }
        if chaos::crashed() {
            return false;
        }
        assert!(
            t0.elapsed() < IDLE_WAIT,
            "service did not drain within {IDLE_WAIT:?} — backpressure must never hang"
        );
        std::thread::sleep(Duration::from_millis(5));
    }
}

fn expect_accept(sub: Submission, what: &str) -> String {
    match sub {
        Submission::Accepted { job, .. } => job,
        Submission::Rejected { error, .. } => panic!("{what} was rejected: {error}"),
    }
}

/// Phase 1: admission control and supervision, no storage faults.
fn phase_backpressure(dir: &std::path::Path) {
    println!("serve_soak: phase 1 — backpressure + supervision");
    let tiny = format!(r#"{{"name":"bp","scale":{SCALE},"cells":[{{}}]}}"#);
    let core = ServerCore::open(ServeConfig {
        queue_cap: 2,
        start_paused: true,
        ..ServeConfig::new(dir.join("bp"))
    })
    .expect("open bp core");
    let j1 = expect_accept(core.submit(&tiny), "first submit");
    let _j2 = expect_accept(core.submit(&tiny), "second submit");
    match core.submit(&tiny) {
        Submission::Rejected {
            error,
            retry_after_ms: Some(ms),
        } => {
            assert!(error.contains("queue full"), "wrong refusal: {error}");
            assert!(
                (250..=60_000).contains(&ms),
                "retry-after out of range: {ms}"
            );
        }
        other => panic!("third submit must hit backpressure, got {other:?}"),
    }
    match core.submit(r#"{"scale":0.1,"cells":[{"l2_szie":1}]}"#) {
        Submission::Rejected {
            retry_after_ms: None,
            ..
        } => {}
        other => panic!("an invalid spec must be a permanent refusal, got {other:?}"),
    }
    // Arm the supervisor seam: the first job panics inside the executor;
    // the service must journal it failed and keep serving.
    core.inject_worker_panics(1);
    core.resume();
    assert!(wait_idle(&core), "bp core must drain");
    let s1 = core.status(&j1).expect("j1 known");
    assert_eq!(s1.state, JobState::Failed, "panicked job must end failed");
    assert!(
        s1.detail.contains("worker panicked"),
        "failure reason must name the panic: {}",
        s1.detail
    );
    let j4 = expect_accept(core.submit(&tiny), "post-restart submit");
    assert!(wait_idle(&core), "bp core must drain again");
    assert_eq!(core.status(&j4).expect("j4 known").state, JobState::Done);
    let stats = core.stats();
    assert_eq!(stats.worker_restarts, 1, "exactly one supervised restart");
    assert_eq!(stats.rejected_busy, 1);
    assert_eq!(stats.rejected_invalid, 1);
    assert_eq!(stats.completed, 2);
    assert_eq!(stats.failed, 1);
    core.shutdown();
    println!("serve_soak: phase 1 OK (1 restart absorbed, retry-after delivered)");
}

/// Phase 2: the degradation ladder's first rung, no storage faults.
fn phase_degradation(dir: &std::path::Path, reference: &HashMap<String, String>) {
    println!("serve_soak: phase 2 — memo-cache degradation");
    // Generous budget: beta's cells must hit alpha's cached profile.
    let core = ServerCore::open(ServeConfig {
        cache_budget_bytes: 64 << 20,
        ..ServeConfig::new(dir.join("cache-big"))
    })
    .expect("open big-cache core");
    let mut ids = Vec::new();
    for (name, text) in specs() {
        ids.push((name, expect_accept(core.submit(&text), name)));
    }
    assert!(wait_idle(&core), "big-cache core must drain");
    let stats = core.stats();
    let big_cache = stats.cache.expect("cache enabled");
    assert!(
        big_cache.stats.hits > 0,
        "overlapping geometry must produce cross-request memo hits: {:?}",
        big_cache.stats
    );
    for (name, id) in &ids {
        let table = core.result(id).expect("table");
        assert_eq!(
            String::from_utf8_lossy(&table),
            reference[*name].as_str(),
            "{name} (cached) must match the reference"
        );
    }
    core.shutdown();

    // Starvation budget: smaller than any one profile, so every insert
    // is an oversize reject — the service sheds its cache and every run
    // degrades to the unmemoized path with identical results.
    let core = ServerCore::open(ServeConfig {
        cache_budget_bytes: 512,
        ..ServeConfig::new(dir.join("cache-tiny"))
    })
    .expect("open tiny-cache core");
    let mut ids = Vec::new();
    for (name, text) in specs() {
        ids.push((name, expect_accept(core.submit(&text), name)));
    }
    assert!(wait_idle(&core), "tiny-cache core must drain");
    let stats = core.stats();
    let cache = stats.cache.expect("cache enabled");
    assert!(
        cache.stats.oversize_rejects > 0,
        "a starvation budget must shed profiles: {:?}",
        cache.stats
    );
    assert_eq!(cache.stats.hits, 0, "nothing fits, so nothing can hit");
    for (name, id) in &ids {
        let table = core.result(id).expect("table");
        assert_eq!(
            String::from_utf8_lossy(&table),
            reference[*name].as_str(),
            "{name} (degraded) must match the reference"
        );
    }
    core.shutdown();
    println!(
        "serve_soak: phase 2 OK ({} hits with budget, {} oversize rejects without)",
        big_cache.stats.hits, cache.stats.oversize_rejects
    );
}

/// Phase 3: the kill/recover gauntlet.
fn phase_chaos(dir: &std::path::Path, seed: u64, reference: &HashMap<String, String>) {
    println!("serve_soak: phase 3 — kill/recover under chaos (seed {seed})");
    let chaos_dir = dir.join("chaos");
    std::fs::create_dir_all(&chaos_dir).expect("chaos dir");
    chaos::install(ChaosConfig {
        seed,
        fail_rename_pct: 15,
        fail_fsync_pct: 5,
        bit_flip_pct: 8,
        short_read_pct: 5,
        defer_append_pct: 0,
        crash_after_ops: None,
        scope: Some(chaos_dir.clone()),
    });
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x9E37_79B9_7F4A_7C15);
    let mut sessions = 0u64;
    let mut recovered_sessions = 0u64;
    let mut churn = 0u64;
    loop {
        sessions += 1;
        assert!(
            sessions <= MAX_SESSIONS,
            "soak did not converge in {MAX_SESSIONS} sessions"
        );
        let budget = rng.gen_range(6u64..20);
        chaos::clear_crash(Some(budget));
        let mut drained = false;
        match ServerCore::open(ServeConfig {
            cell_timeout: Duration::from_secs(60),
            ..ServeConfig::new(&chaos_dir)
        }) {
            Ok(core) => {
                if core.stats().replayed > 0 {
                    recovered_sessions += 1;
                }
                // Self-healing admission: any spec with no live job (its
                // accepted record crashed out, or a read-path flip hid it
                // this session) is resubmitted — a real client retries an
                // unacknowledged submit the same way.
                let present: Vec<String> = core.jobs().into_iter().map(|j| j.name).collect();
                for (name, text) in specs() {
                    if !present.iter().any(|n| n == name) {
                        let _ = core.submit(&text);
                    }
                }
                if chaos::faults().total() < MIN_EVENTS {
                    churn += 1;
                    let _ = core.submit(&churn_spec(churn));
                }
                drained = wait_idle(&core);
                core.shutdown();
            }
            // The scheduled crash landed inside open's journal read.
            Err(e) => eprintln!("serve_soak: session {sessions}: open failed: {e}"),
        }
        let events = chaos::faults().total();
        println!(
            "serve_soak: session {sessions}: crash budget {budget} ops, \
             {events} cumulative events"
        );
        if events >= MIN_EVENTS && !chaos::crashed() && drained {
            break;
        }
    }
    let counts = chaos::uninstall();
    assert!(
        counts.total() >= MIN_EVENTS,
        "only {} events injected",
        counts.total()
    );
    assert!(counts.crashes >= 1, "no crash was ever delivered");
    assert!(
        recovered_sessions >= 1,
        "no session ever recovered in-flight jobs from the journal"
    );

    // Final clean session: recovery replays anything still in flight and
    // runs it undisturbed; then every job must satisfy the contract —
    // byte-identical table, or journaled terminal failure.
    let core = ServerCore::open(ServeConfig::new(&chaos_dir)).expect("final open");
    assert!(wait_idle(&core), "final session must drain");
    let jobs = core.jobs();
    assert!(!jobs.is_empty(), "at least the two specs must have jobs");
    let (_, replay) = JobsLog::open(chaos_dir.join("jobs.journal")).expect("inspect journal");
    let expected = |name: &str| -> &str {
        if name.starts_with("churn") {
            reference["churn"].as_str()
        } else {
            reference[name].as_str()
        }
    };
    let mut done = 0u64;
    let mut failed = 0u64;
    for job in &jobs {
        match job.state {
            JobState::Done => {
                let table = core.result(&job.id).expect("committed table");
                assert_eq!(
                    String::from_utf8_lossy(&table),
                    expected(&job.name),
                    "job {} ({}) must be byte-identical to the undisturbed reference",
                    job.id,
                    job.name
                );
                done += 1;
            }
            JobState::Failed => {
                // The failure must be journaled with its reason, not
                // just held in memory.
                let journaled = replay.records.iter().any(|r| {
                    r.job == job.id
                        && matches!(&r.event, JobEvent::Failed { reason } if !reason.is_empty())
                });
                assert!(
                    journaled,
                    "job {} failed without a journaled reason",
                    job.id
                );
                failed += 1;
            }
            other => panic!("job {} ended non-terminal: {other:?}", job.id),
        }
    }
    assert!(
        done >= 1,
        "at least one job must complete despite the chaos"
    );
    for (name, _) in specs() {
        assert!(
            jobs.iter()
                .any(|j| j.name == name && j.state == JobState::Done),
            "spec '{name}' never completed byte-identically"
        );
    }
    core.shutdown();
    println!(
        "serve_soak: phase 3 OK — {sessions} sessions ({recovered_sessions} recovered), \
         {} jobs done, {failed} journaled failures; {} crashes, {} torn writes, \
         {} bit flips, {} failed renames, {} failed fsyncs, {} short reads",
        done,
        counts.crashes,
        counts.torn_writes,
        counts.bit_flips,
        counts.failed_renames,
        counts.fsync_failures,
        counts.short_reads
    );
}

fn main() {
    let seed: u64 = std::env::args()
        .nth(1)
        .map(|s| s.parse().expect("SEED must be a u64"))
        .unwrap_or(1);
    quiet_expected_panics();

    let dir = std::env::temp_dir().join(format!("gaas-serve-soak-{seed}"));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("soak dir");

    // Poison alpha's write-only cell in every phase: the reference and
    // every service run must fail it identically (FAILED row).
    let alpha = spec::parse(&specs()[0].1).expect("alpha parses");
    chaos::set_poison(vec![config_fingerprint(&alpha.cfgs[3])]);

    // Undisturbed references, straight through the campaign engine with
    // the cache off — the service must reproduce these bytes exactly.
    println!("serve_soak: seed {seed} — building reference tables");
    profile_cache::disable();
    let mut reference = HashMap::new();
    let mut ref_specs: Vec<(String, String)> = specs()
        .into_iter()
        .map(|(n, t)| (n.to_string(), t))
        .collect();
    // All churn jobs share one spec shape, so one reference covers them.
    ref_specs.push(("churn".to_string(), churn_spec(0)));
    for (name, text) in ref_specs {
        let parsed = spec::parse(&text).expect("spec parses");
        let journal = dir.join(format!("reference-{name}.journal"));
        campaign::activate(&journal, false, CellOptions::default()).expect("reference campaign");
        let table = render(&campaign::run_cells(&parsed.cfgs, parsed.scale));
        let _ = campaign::deactivate();
        reference.insert(name, table);
    }

    phase_backpressure(&dir);
    phase_degradation(&dir, &reference);
    phase_chaos(&dir, seed, &reference);

    println!("\nserve_soak: PASS (seed {seed})");
    let _ = std::fs::remove_dir_all(PathBuf::from(&dir));
}
