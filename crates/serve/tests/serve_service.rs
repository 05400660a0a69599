//! End-to-end service tests: the TCP protocol, deadlines, cancellation,
//! and crash recovery.
//!
//! The engine drives the process-global campaign/profile-cache state, so
//! every test serializes on one lock — two live cores must never execute
//! jobs concurrently in one process.

use std::io::{BufRead, BufReader, Write};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};
use std::time::{Duration, Instant};

use gaas_experiments::durability;
use gaas_experiments::json::{self, Json};
use gaas_serve::engine::{JobState, ServeConfig, ServerCore, Submission};
use gaas_serve::net;

const SPEC: &str = r#"{"name":"t","scale":0.00005,"cells":[{"l2_access":2},{"l2_access":4}]}"#;

fn serial() -> MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(Mutex::default)
        .lock()
        .unwrap_or_else(|e| e.into_inner())
}

fn fresh_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("gaas-serve-it-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn accept(sub: Submission) -> String {
    match sub {
        Submission::Accepted { job, .. } => job,
        Submission::Rejected { error, .. } => panic!("unexpected rejection: {error}"),
    }
}

fn wait_idle(core: &ServerCore) {
    let t0 = Instant::now();
    while !core.idle() {
        assert!(
            t0.elapsed() < Duration::from_secs(120),
            "service never drained"
        );
        std::thread::sleep(Duration::from_millis(5));
    }
}

/// A daemon core over `dir` served on a loopback listener thread, and
/// the address it listens on.
fn listen(
    dir: &std::path::Path,
    cfg: ServeConfig,
) -> (
    Arc<ServerCore>,
    String,
    std::thread::JoinHandle<std::io::Result<()>>,
) {
    let core = Arc::new(ServerCore::open(cfg).expect("open core"));
    let server = {
        let core = Arc::clone(&core);
        let dir = dir.to_path_buf();
        std::thread::spawn(move || net::serve(&core, &dir, 0))
    };
    // The addr file is committed atomically once the listener is up.
    let addr_file = dir.join("serve.addr");
    let t0 = Instant::now();
    let addr = loop {
        if let Ok(text) = std::fs::read_to_string(&addr_file) {
            break text.trim().to_string();
        }
        assert!(
            t0.elapsed() < Duration::from_secs(30),
            "listener never came up"
        );
        std::thread::sleep(Duration::from_millis(10));
    };
    (core, addr, server)
}

fn assert_pings(addr: &str) {
    let ping = net::client_roundtrip(addr, r#"{"op":"ping"}"#).expect("ping");
    assert_eq!(
        json::parse(&ping)
            .unwrap()
            .get("ok")
            .and_then(Json::as_bool),
        Some(true)
    );
}

#[test]
fn submit_status_result_roundtrip_over_tcp() {
    let _guard = serial();
    durability::set_durable_sync(false);
    let dir = fresh_dir("tcp");
    let (core, addr, server) = listen(&dir, ServeConfig::new(&dir));
    assert_pings(&addr);

    let resp = net::client_roundtrip(&addr, &format!(r#"{{"op":"submit","spec":{SPEC}}}"#))
        .expect("submit");
    let resp = json::parse(&resp).expect("submit response json");
    assert_eq!(
        resp.get("ok").and_then(Json::as_bool),
        Some(true),
        "{resp:?}"
    );
    let job = resp
        .get("job")
        .and_then(Json::as_str)
        .expect("job id")
        .to_string();

    // Poll status over the wire until terminal.
    let t0 = Instant::now();
    let state = loop {
        let resp = net::client_roundtrip(&addr, &format!(r#"{{"op":"status","job":"{job}"}}"#))
            .expect("status");
        let resp = json::parse(&resp).unwrap();
        let state = resp
            .get("state")
            .and_then(Json::as_str)
            .unwrap()
            .to_string();
        if state != "queued" && state != "running" {
            break state;
        }
        assert!(
            t0.elapsed() < Duration::from_secs(120),
            "job never finished"
        );
        std::thread::sleep(Duration::from_millis(10));
    };
    assert_eq!(state, "done");

    let resp = net::client_roundtrip(&addr, &format!(r#"{{"op":"result","job":"{job}"}}"#))
        .expect("result");
    let resp = json::parse(&resp).unwrap();
    let table = resp.get("table").and_then(Json::as_str).expect("table");
    assert_eq!(table.lines().count(), 2, "one row per cell: {table:?}");
    assert!(table.starts_with("cell00 "), "{table:?}");

    let resp = net::client_roundtrip(&addr, r#"{"op":"stats"}"#).expect("stats");
    let resp = json::parse(&resp).unwrap();
    assert_eq!(resp.get("completed").and_then(Json::as_u64), Some(1));

    let resp = net::client_roundtrip(&addr, r#"{"op":"shutdown"}"#).expect("shutdown");
    assert_eq!(
        json::parse(&resp)
            .unwrap()
            .get("ok")
            .and_then(Json::as_bool),
        Some(true)
    );
    server.join().expect("server thread").expect("serve ok");
    core.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn an_oversized_request_line_gets_an_error_and_the_daemon_keeps_serving() {
    let _guard = serial();
    durability::set_durable_sync(false);
    let dir = fresh_dir("oversize");
    let (core, addr, server) = listen(
        &dir,
        ServeConfig {
            start_paused: true,
            ..ServeConfig::new(&dir)
        },
    );
    // One byte past the cap and no newline: the daemon must answer
    // without waiting for the line to end.
    let stream = std::net::TcpStream::connect(&addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(60)))
        .expect("timeout");
    (&stream)
        .write_all(&vec![b' '; net::MAX_REQUEST_BYTES + 1])
        .expect("send oversized line");
    let mut reader = BufReader::new(&stream);
    let mut line = String::new();
    reader.read_line(&mut line).expect("error response");
    let resp = json::parse(line.trim()).expect("response json");
    assert_eq!(resp.get("ok").and_then(Json::as_bool), Some(false));
    assert!(
        resp.get("error")
            .and_then(Json::as_str)
            .unwrap()
            .contains("request line exceeds"),
        "{resp:?}"
    );
    line.clear();
    assert_eq!(
        reader.read_line(&mut line).expect("clean close"),
        0,
        "the connection is closed after the error"
    );
    drop(reader);
    drop(stream);

    // A line that is not UTF-8 gets a typed error, and the same
    // connection keeps serving.
    let stream = std::net::TcpStream::connect(&addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(60)))
        .expect("timeout");
    (&stream)
        .write_all(b"{\"op\":\"ping\xff\"}\n")
        .expect("send non-UTF-8 line");
    let mut reader = BufReader::new(&stream);
    let mut line = String::new();
    reader.read_line(&mut line).expect("error response");
    let resp = json::parse(line.trim()).expect("response json");
    assert_eq!(resp.get("ok").and_then(Json::as_bool), Some(false));
    assert_eq!(
        resp.get("error").and_then(Json::as_str),
        Some("request line is not valid UTF-8"),
        "{resp:?}"
    );
    (&stream)
        .write_all(b"{\"op\":\"ping\"}\n")
        .expect("send ping");
    line.clear();
    reader.read_line(&mut line).expect("ping response");
    let resp = json::parse(line.trim()).expect("response json");
    assert_eq!(
        resp.get("ok").and_then(Json::as_bool),
        Some(true),
        "{resp:?}"
    );
    drop(reader);
    drop(stream);

    assert_pings(&addr);
    net::client_roundtrip(&addr, r#"{"op":"shutdown"}"#).expect("shutdown");
    server.join().expect("server thread").expect("serve ok");
    core.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn an_expired_deadline_fails_the_job_with_a_reason() {
    let _guard = serial();
    durability::set_durable_sync(false);
    let dir = fresh_dir("deadline");
    let core = ServerCore::open(ServeConfig::new(&dir)).expect("open core");
    let spec = r#"{"name":"dl","scale":0.00005,"deadline_ms":0,"cells":[{}]}"#;
    let job = accept(core.submit(spec));
    wait_idle(&core);
    let info = core.status(&job).expect("known job");
    assert_eq!(info.state, JobState::Failed);
    assert!(info.detail.contains("deadline"), "detail: {}", info.detail);
    let err = core.result(&job).expect_err("no table for a failed job");
    assert!(err.contains("deadline"), "{err}");
    core.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_queued_job_cancels_immediately() {
    let _guard = serial();
    durability::set_durable_sync(false);
    let dir = fresh_dir("cancel");
    let core = ServerCore::open(ServeConfig {
        start_paused: true,
        ..ServeConfig::new(&dir)
    })
    .expect("open core");
    let job = accept(core.submit(SPEC));
    assert_eq!(core.cancel(&job).expect("cancel"), "cancelled");
    assert!(
        core.cancel(&job).is_err(),
        "a terminal job cannot cancel again"
    );
    core.resume();
    wait_idle(&core);
    assert_eq!(core.status(&job).unwrap().state, JobState::Cancelled);
    assert!(core
        .result(&job)
        .expect_err("no result")
        .contains("cancelled"));
    assert_eq!(core.stats().cancelled, 1);
    core.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn restart_replays_inflight_jobs_to_completion() {
    let _guard = serial();
    durability::set_durable_sync(false);
    let dir = fresh_dir("recovery");
    // First lifetime: accept two jobs but never run them (paused), then
    // shut down — exactly what a crash after admission looks like in the
    // journal.
    let core = ServerCore::open(ServeConfig {
        start_paused: true,
        ..ServeConfig::new(&dir)
    })
    .expect("open first lifetime");
    let j1 = accept(core.submit(SPEC));
    let j2 = accept(core.submit(SPEC));
    core.shutdown();
    drop(core);

    // Second lifetime: both jobs must be replayed and run to completion.
    let core = ServerCore::open(ServeConfig::new(&dir)).expect("open second lifetime");
    assert_eq!(core.stats().replayed, 2, "both in-flight jobs replay");
    wait_idle(&core);
    for id in [&j1, &j2] {
        assert_eq!(core.status(id).expect("known").state, JobState::Done);
        let table = core.result(id).expect("table");
        assert!(!table.is_empty());
    }
    // Identical specs must produce identical bytes across the restart.
    assert_eq!(core.result(&j1).unwrap(), core.result(&j2).unwrap());
    core.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn identical_sweeps_hit_the_cross_request_cache() {
    let _guard = serial();
    durability::set_durable_sync(false);
    let dir = fresh_dir("memo");
    let core = ServerCore::open(ServeConfig::new(&dir)).expect("open core");
    let j1 = accept(core.submit(SPEC));
    wait_idle(&core);
    let j2 = accept(core.submit(SPEC));
    wait_idle(&core);
    let stats = core.stats();
    let cache = stats.cache.expect("cache enabled by default");
    assert!(
        cache.stats.hits > 0,
        "second job must hit: {:?}",
        cache.stats
    );
    assert_eq!(core.result(&j1).unwrap(), core.result(&j2).unwrap());
    core.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}
