//! The line-JSON TCP front end.
//!
//! One request per line, one response per line, loopback only. The
//! server binds `127.0.0.1` (an OS-assigned port by default), commits
//! the bound address atomically to `<dir>/serve.addr` so clients can
//! discover it, and serves each connection on its own thread. The
//! accept loop polls at ~50 ms so shutdown (API call, SIGINT/SIGTERM
//! via [`gaas_experiments::interrupt`]) is observed promptly.
//!
//! ## Protocol
//!
//! Requests are JSON objects with an `"op"` field:
//!
//! | op | request fields | response |
//! |----|----------------|----------|
//! | `submit` | `spec` (a sweep spec object) | `{"ok":true,"job":"j0001","position":1}` or `{"ok":false,"error":"…","retry_after_ms":1200}` |
//! | `status` | `job` | `{"ok":true,"job":…,"state":"queued|running|done|failed|cancelled","detail":…,"cells":N}` |
//! | `result` | `job` | `{"ok":true,"table":"cell00 1.721340\n…"}` |
//! | `cancel` | `job` | `{"ok":true,"state":"cancelled"}` |
//! | `stats` | — | `{"ok":true,"accepted":…,"cache":{…},"copricing":{…}}` |
//! | `ping` | — | `{"ok":true}` |
//! | `shutdown` | — | `{"ok":true}`, then the daemon exits |
//!
//! `retry_after_ms` is present exactly when a refusal is retryable
//! backpressure; its absence means the request itself is invalid.
//!
//! A request line longer than [`MAX_REQUEST_BYTES`] gets one error
//! response, and the connection is closed.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::Duration;

use gaas_experiments::json::{self, Json};
use gaas_experiments::{durability, interrupt};

use crate::engine::{JobInfo, ServerCore, StatsSnapshot, Submission};

/// Longest request line the daemon reads, newline excluded. The largest
/// legitimate request is a spec of
/// [`MAX_CELLS`](crate::spec::MAX_CELLS) cells, each a handful of
/// knobs: a few hundred KB. Without a cap, a client that never sends a
/// newline grows the daemon's memory without limit.
pub const MAX_REQUEST_BYTES: usize = 4 << 20;

/// Runs the accept loop until [`ServerCore`] shutdown is requested via
/// the `shutdown` op or a process interrupt. Returns once the listener
/// is drained; the caller still owns (and drops/shuts down) `core`.
///
/// # Errors
///
/// Propagates listener-bind and address-file I/O errors.
pub fn serve(core: &Arc<ServerCore>, dir: &Path, port: u16) -> std::io::Result<()> {
    let listener = TcpListener::bind(("127.0.0.1", port))?;
    listener.set_nonblocking(true)?;
    let addr = listener.local_addr()?;
    let addr_file = dir.join("serve.addr");
    durability::retrying("serve.addr commit", || {
        durability::write_atomic(&addr_file, format!("{addr}\n").as_bytes())
    })?;
    eprintln!(
        "[gaas-serve] listening on {addr} (addr file: {})",
        addr_file.display()
    );
    let stop = Arc::new(AtomicBool::new(false));
    loop {
        if stop.load(Ordering::SeqCst) || interrupt::interrupted() {
            break;
        }
        match listener.accept() {
            Ok((stream, _)) => {
                let core = Arc::clone(core);
                let stop = Arc::clone(&stop);
                // Connection threads are detached; a hung client cannot
                // wedge the accept loop, and the process exits via the
                // stop flag regardless.
                let _ = thread::Builder::new()
                    .name("serve-conn".into())
                    .spawn(move || handle_connection(stream, &core, &stop));
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                thread::sleep(Duration::from_millis(50));
            }
            Err(_) => thread::sleep(Duration::from_millis(50)),
        }
    }
    let _ = std::fs::remove_file(&addr_file);
    Ok(())
}

fn handle_connection(stream: TcpStream, core: &ServerCore, stop: &AtomicBool) {
    let Ok(read_half) = stream.try_clone() else {
        return;
    };
    let mut reader = BufReader::new(read_half);
    let mut writer = stream;
    let mut buf = Vec::new();
    loop {
        buf.clear();
        // One byte past the cap tells an oversized line from one that
        // ends exactly at it.
        let cap = MAX_REQUEST_BYTES as u64 + 1;
        match (&mut reader).take(cap).read_until(b'\n', &mut buf) {
            Ok(0) | Err(_) => return,
            Ok(_) => {}
        }
        if buf.len() > MAX_REQUEST_BYTES && buf.last() != Some(&b'\n') {
            let response = err_response(&format!("request line exceeds {MAX_REQUEST_BYTES} bytes"));
            let _ = writer.write_all(format!("{}\n", response.to_text()).as_bytes());
            return;
        }
        let (response, shutdown) = match std::str::from_utf8(&buf) {
            Ok(line) if line.trim().is_empty() => continue,
            Ok(line) => handle_request(line.trim(), core),
            Err(_) => (err_response("request line is not valid UTF-8"), false),
        };
        let mut text = response.to_text();
        text.push('\n');
        if writer.write_all(text.as_bytes()).is_err() {
            return;
        }
        if shutdown {
            stop.store(true, Ordering::SeqCst);
            return;
        }
    }
}

/// Dispatches one request line to the core. Returns the response and
/// whether the daemon should stop accepting.
pub fn handle_request(line: &str, core: &ServerCore) -> (Json, bool) {
    let parsed = match json::parse(line) {
        Ok(v) => v,
        Err(e) => {
            return (
                err_response(&format!("request is not valid JSON: {e}")),
                false,
            )
        }
    };
    let Some(op) = parsed.get("op").and_then(Json::as_str) else {
        return (
            err_response("request must carry a string 'op' field"),
            false,
        );
    };
    match op {
        "ping" => (ok_response(vec![]), false),
        "submit" => {
            let Some(spec) = parsed.get("spec") else {
                return (err_response("submit requires a 'spec' object"), false);
            };
            (submit_response(core.submit(&spec.to_text())), false)
        }
        "status" => match require_job(&parsed) {
            Err(resp) => (resp, false),
            Ok(job) => match core.status(job) {
                Some(info) => (job_response(&info), false),
                None => (err_response(&format!("unknown job '{job}'")), false),
            },
        },
        "result" => match require_job(&parsed) {
            Err(resp) => (resp, false),
            Ok(job) => match core.result(job) {
                Ok(bytes) => (
                    ok_response(vec![(
                        "table".into(),
                        Json::Str(String::from_utf8_lossy(&bytes).into_owned()),
                    )]),
                    false,
                ),
                Err(e) => (err_response(&e), false),
            },
        },
        "cancel" => match require_job(&parsed) {
            Err(resp) => (resp, false),
            Ok(job) => match core.cancel(job) {
                Ok(state) => (
                    ok_response(vec![("state".into(), Json::Str(state.to_string()))]),
                    false,
                ),
                Err(e) => (err_response(&e), false),
            },
        },
        "stats" => (stats_response(&core.stats()), false),
        "shutdown" => (ok_response(vec![]), true),
        other => (err_response(&format!("unknown op '{other}'")), false),
    }
}

fn require_job(req: &Json) -> Result<&str, Json> {
    req.get("job")
        .and_then(Json::as_str)
        .ok_or_else(|| err_response("request must carry a string 'job' field"))
}

fn ok_response(mut extra: Vec<(String, Json)>) -> Json {
    let mut fields = vec![("ok".to_string(), Json::Bool(true))];
    fields.append(&mut extra);
    Json::Obj(fields)
}

fn err_response(message: &str) -> Json {
    Json::Obj(vec![
        ("ok".into(), Json::Bool(false)),
        ("error".into(), Json::Str(message.to_string())),
    ])
}

fn submit_response(sub: Submission) -> Json {
    match sub {
        Submission::Accepted { job, position } => ok_response(vec![
            ("job".into(), Json::Str(job)),
            ("position".into(), Json::Int(position as u64)),
        ]),
        Submission::Rejected {
            error,
            retry_after_ms,
        } => {
            let mut fields = vec![
                ("ok".to_string(), Json::Bool(false)),
                ("error".to_string(), Json::Str(error)),
            ];
            if let Some(ms) = retry_after_ms {
                fields.push(("retry_after_ms".into(), Json::Int(ms)));
            }
            Json::Obj(fields)
        }
    }
}

fn job_response(info: &JobInfo) -> Json {
    ok_response(vec![
        ("job".into(), Json::Str(info.id.clone())),
        ("name".into(), Json::Str(info.name.clone())),
        ("state".into(), Json::Str(info.state.name().to_string())),
        ("detail".into(), Json::Str(info.detail.clone())),
        ("cells".into(), Json::Int(info.cells as u64)),
    ])
}

fn stats_response(stats: &StatsSnapshot) -> Json {
    let mut fields = vec![
        ("accepted".to_string(), Json::Int(stats.accepted)),
        ("rejected_busy".to_string(), Json::Int(stats.rejected_busy)),
        (
            "rejected_invalid".to_string(),
            Json::Int(stats.rejected_invalid),
        ),
        ("completed".to_string(), Json::Int(stats.completed)),
        ("failed".to_string(), Json::Int(stats.failed)),
        ("cancelled".to_string(), Json::Int(stats.cancelled)),
        ("replayed".to_string(), Json::Int(stats.replayed)),
        (
            "worker_restarts".to_string(),
            Json::Int(stats.worker_restarts),
        ),
        ("queue_len".to_string(), Json::Int(stats.queue_len as u64)),
        ("avg_job_ms".to_string(), Json::Int(stats.avg_job_ms)),
    ];
    if let Some(cache) = &stats.cache {
        fields.push((
            "cache".into(),
            Json::Obj(vec![
                ("hits".into(), Json::Int(cache.stats.hits)),
                ("misses".into(), Json::Int(cache.stats.misses)),
                ("insertions".into(), Json::Int(cache.stats.insertions)),
                ("evictions".into(), Json::Int(cache.stats.evictions)),
                (
                    "oversize_rejects".into(),
                    Json::Int(cache.stats.oversize_rejects),
                ),
                ("entries".into(), Json::Int(cache.entries as u64)),
                ("bytes".into(), Json::Int(cache.bytes as u64)),
                ("budget_bytes".into(), Json::Int(cache.budget_bytes as u64)),
            ]),
        ));
    }
    fields.push((
        "copricing".into(),
        Json::Obj(vec![
            (
                "copriced_groups".into(),
                Json::Int(stats.memo.copriced_groups),
            ),
            (
                "copriced_lanes".into(),
                Json::Int(stats.memo.copriced_lanes),
            ),
            (
                "replay_passes_saved".into(),
                Json::Int(stats.memo.replay_passes_saved()),
            ),
            (
                "copricer_fallbacks".into(),
                Json::Int(stats.memo.copricer_fallbacks),
            ),
        ]),
    ));
    fields.push((
        "coherence".into(),
        Json::Obj(vec![
            ("runs".into(), Json::Int(stats.coherence.runs)),
            (
                "invalidations".into(),
                Json::Int(stats.coherence.invalidations),
            ),
            (
                "c2c_transfers".into(),
                Json::Int(stats.coherence.c2c_transfers),
            ),
            (
                "upgrade_misses".into(),
                Json::Int(stats.coherence.upgrade_misses),
            ),
            (
                "coherence_stall_cycles".into(),
                Json::Int(stats.coherence.coherence_stall_cycles),
            ),
            (
                "snoop_transactions".into(),
                Json::Int(stats.coherence.snoop_transactions),
            ),
            (
                "snoop_wait_cycles".into(),
                Json::Int(stats.coherence.snoop_wait_cycles),
            ),
        ]),
    ));
    ok_response(fields)
}

/// One-shot client: connect to `addr`, send `request` as one line, read
/// one response line back.
///
/// # Errors
///
/// Propagates connect/write/read errors as human-readable strings.
pub fn client_roundtrip(addr: &str, request: &str) -> Result<String, String> {
    let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    stream
        .set_read_timeout(Some(Duration::from_secs(120)))
        .map_err(|e| format!("set timeout: {e}"))?;
    let mut writer = stream
        .try_clone()
        .map_err(|e| format!("clone stream: {e}"))?;
    writer
        .write_all(format!("{}\n", request.trim()).as_bytes())
        .map_err(|e| format!("send: {e}"))?;
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    reader
        .read_line(&mut line)
        .map_err(|e| format!("receive: {e}"))?;
    Ok(line.trim().to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn malformed_requests_get_structured_errors() {
        // handle_request's error paths need no live core; exercise the
        // pre-dispatch validation with a dangling reference is not
        // possible, so spin a minimal core in a temp dir.
        let dir = std::env::temp_dir().join(format!("gaas-serve-net-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let prev = durability::set_durable_sync(false);
        let core = ServerCore::open(crate::engine::ServeConfig {
            start_paused: true,
            ..crate::engine::ServeConfig::new(&dir)
        })
        .expect("open core");
        let (resp, stop) = handle_request("not json", &core);
        assert!(!stop);
        assert_eq!(resp.get("ok").and_then(Json::as_bool), Some(false));
        let (resp, _) = handle_request(&"[".repeat(1_000_000), &core);
        assert!(resp
            .get("error")
            .and_then(Json::as_str)
            .unwrap()
            .contains("request is not valid JSON: nesting deeper than"));
        let (resp, _) = handle_request(r#"{"op":"status"}"#, &core);
        assert!(resp
            .get("error")
            .and_then(Json::as_str)
            .unwrap()
            .contains("job"));
        let (resp, _) = handle_request(r#"{"op":"warp"}"#, &core);
        assert!(resp
            .get("error")
            .and_then(Json::as_str)
            .unwrap()
            .contains("unknown op"));
        let (_, stop) = handle_request(r#"{"op":"shutdown"}"#, &core);
        assert!(stop);
        core.shutdown();
        durability::set_durable_sync(prev);
    }
}
