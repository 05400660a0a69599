//! Chrome `trace_event` JSON exporter.
//!
//! Emits the "JSON Object Format" understood by `chrome://tracing` and
//! Perfetto: a `traceEvents` array of complete (`"ph":"X"`) events plus
//! metadata (`"ph":"M"`) events naming one track per [`Component`].
//! Timestamps are microseconds by convention; we map one simulated
//! cycle to one microsecond, so a Perfetto "second" reads as one
//! million cycles (4 ms of wall time at the paper's 250 MHz clock).

use std::fmt::Write as _;

use crate::{Component, Span};

fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// Serialize spans into Chrome `trace_event` JSON.
///
/// `process_name` labels the single process (`pid` 0) the tracks live
/// under — typically the experiment cell's config summary. Tracks are
/// emitted for every [`Component`] so the timeline layout is stable
/// across runs even when some components recorded nothing.
pub fn chrome_trace_json(process_name: &str, spans: &[Span]) -> String {
    let mut out = String::with_capacity(128 + spans.len() * 96);
    out.push_str("{\"traceEvents\":[");
    let mut first = true;
    let mut push = |out: &mut String, item: String| {
        if !std::mem::take(&mut first) {
            out.push(',');
        }
        out.push_str(&item);
    };
    push(
        &mut out,
        format!(
            "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":0,\"tid\":0,\
             \"args\":{{\"name\":\"{}\"}}}}",
            escape(process_name)
        ),
    );
    for c in Component::ALL {
        push(
            &mut out,
            format!(
                "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":{},\
                 \"args\":{{\"name\":\"{}\"}}}}",
                c.tid(),
                c.name()
            ),
        );
    }
    for s in spans {
        push(
            &mut out,
            format!(
                "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"ts\":{},\
                 \"dur\":{},\"pid\":0,\"tid\":{}}}",
                escape(s.name),
                s.component.name(),
                s.start,
                s.dur,
                s.component.tid()
            ),
        );
    }
    out.push_str("],\"displayTimeUnit\":\"ms\"}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn emits_metadata_and_events() {
        let spans = [
            Span {
                name: "refill.l1i",
                component: Component::L2,
                start: 10,
                dur: 6,
            },
            Span {
                name: "fault",
                component: Component::Fault,
                start: 20,
                dur: 0,
            },
        ];
        let json = chrome_trace_json("fig7 cell", &spans);
        assert!(json.starts_with("{\"traceEvents\":["));
        assert!(json.contains("\"ph\":\"M\""));
        assert!(json.contains("\"name\":\"refill.l1i\""));
        assert!(json.contains("\"ts\":10"));
        assert!(json.contains("\"dur\":6"));
        // One thread_name entry per component that records spans.
        assert_eq!(json.matches("\"thread_name\"").count(), 6);
    }

    #[test]
    fn escapes_special_characters() {
        let json = chrome_trace_json("a\"b\\c\nd", &[]);
        assert!(json.contains("a\\\"b\\\\c\\nd"));
    }
}
