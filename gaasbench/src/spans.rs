//! In-memory spans around the benchmark's calls into each layer, written
//! out as Chrome `trace_event` JSON when a traced run ends.
//!
//! A span records its name (`layer.call`), start and end, the span that
//! enclosed it, and the operation it served (a rep, a job, a probe), so
//! every span of one operation shares an id. Recording is two clock reads
//! and a push; a disabled tracer only runs the closure.

use std::fmt::Write as _;
use std::time::Instant;

#[derive(Debug, Clone)]
struct Span {
    name: &'static str,
    start_us: f64,
    dur_us: f64,
    parent: Option<usize>,
    op: u64,
    tid: u32,
}

/// Span recorder for one thread of the benchmark.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    epoch: Instant,
    tid: u32,
    op: u64,
    open: Vec<usize>,
    spans: Vec<Span>,
}

impl Tracer {
    /// A recorder whose timestamps count from `epoch`; `tid` names its
    /// track in the exported trace.
    pub fn new(on: bool, epoch: Instant, tid: u32) -> Tracer {
        Tracer {
            on,
            epoch,
            tid,
            op: 0,
            open: Vec::new(),
            spans: Vec::new(),
        }
    }

    /// Whether spans are being recorded.
    pub fn on(&self) -> bool {
        self.on
    }

    /// Turns recording on or off (traced runs alternate, so the same run
    /// measures its own tracing overhead).
    pub fn set_on(&mut self, on: bool) {
        self.on = on;
    }

    /// Sets the operation id the following spans belong to.
    pub fn set_op(&mut self, op: u64) {
        self.op = op;
    }

    /// The clock spans are measured against.
    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        if !self.on {
            return f(self);
        }
        let idx = self.spans.len();
        let start = Instant::now();
        self.spans.push(Span {
            name,
            start_us: us(start - self.epoch),
            dur_us: 0.0,
            parent: self.open.last().copied(),
            op: self.op,
            tid: self.tid,
        });
        self.open.push(idx);
        let out = f(self);
        self.open.pop();
        self.spans[idx].dur_us = us(start.elapsed());
        out
    }

    /// Number of spans recorded so far.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Appends another thread's spans (its parent links are rebased).
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    /// The recorded spans as Chrome `trace_event` JSON (complete `X`
    /// events in microseconds; `args` carries span id, parent id and
    /// operation id).
    pub fn chrome_json(&self, process: &str) -> String {
        let mut out = String::with_capacity(64 + self.spans.len() * 120);
        let _ = write!(
            out,
            "{{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\
             {{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,\
             \"args\":{{\"name\":\"{process}\"}}}}"
        );
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                ",{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\
                 \"dur\":{:.3},\"args\":{{\"id\":{id},\"parent\":{parent},\"op\":{}}}}}",
                s.name, s.tid, s.start_us, s.dur_us, s.op
            );
        }
        out.push_str("]}\n");
        out
    }
}

fn us(d: std::time::Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_spans_link_to_their_parent_and_op() {
        let mut tr = Tracer::new(true, Instant::now(), 0);
        tr.set_op(7);
        tr.span("outer", |tr| tr.span("inner", |_| ()));
        tr.set_on(false);
        tr.span("skipped", |_| ());
        assert_eq!(tr.len(), 2);
        let mut other = Tracer::new(true, tr.epoch(), 1);
        other.span("a", |tr| tr.span("b", |_| ()));
        tr.absorb(other);
        let json = tr.chrome_json("t");
        assert!(json.contains("\"name\":\"inner\""));
        assert!(json.contains("\"args\":{\"id\":1,\"parent\":0,\"op\":7}"));
        assert!(json.contains("\"args\":{\"id\":3,\"parent\":2,\"op\":0}"));
        assert!(!json.contains("skipped"));
        gaas_experiments::json::parse(&json).expect("valid JSON");
    }
}
