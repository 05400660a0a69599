//! The metric catalogue and the report a run prints.
//!
//! [`END_TO_END`] and [`PER_LAYER`] are the only names `gaasbench`
//! emits; a test holds `BENCHMARK.json` to exactly these names and units,
//! and [`Report::finish`] refuses to print a metric set that differs.

use std::fmt::Write as _;

use crate::stats::Summary;

/// One metric: its name and unit.
#[derive(Debug, Clone, Copy)]
pub struct Metric {
    /// Dotted `layer.quantity` name (end-to-end names have no layer).
    pub name: &'static str,
    /// Unit as printed.
    pub unit: &'static str,
}

const fn m(name: &'static str, unit: &'static str) -> Metric {
    Metric { name, unit }
}

/// End-to-end metrics, printed by every workload's untraced run.
pub const END_TO_END: &[Metric] = &[
    m("setup_s", "s"),
    m("sim_mrefs_per_s", "Mref/s"),
    m("op_p50_ms", "ms"),
    m("op_tail_ms", "ms"),
    m("peak_rss_mb", "MB"),
];

/// Per-layer metrics, printed by every workload's traced run.
pub const PER_LAYER: &[Metric] = &[
    m("trace.gen_ns_per_event", "ns/event"),
    m("trace.decode_ns_per_event", "ns/event"),
    m("trace.arena_hit_rate", "ratio"),
    m("trace.compressed_bytes_per_event", "bytes/event"),
    m("sched.ns_per_event", "ns/event"),
    m("cache.tlb_ns_per_access", "ns/access"),
    m("cache.tag_ns_per_access", "ns/access"),
    m("cache.write_buffer_ns_per_store", "ns/store"),
    m("sim.step_ns_per_event", "ns/event"),
    m("sim.run_ns_per_event", "ns/event"),
    m("sim.cpi", "CPI"),
    m("sim.l1i_miss_ratio", "ratio"),
    m("sim.l1d_read_miss_ratio", "ratio"),
    m("sim.l2_miss_ratio", "ratio"),
    m("sim.wb_wait_cpi", "CPI"),
    m("telemetry.enabled_over_disabled", "ratio"),
    m("telemetry.spans_recorded", "count"),
    m("telemetry.spans_dropped", "count"),
    m("profile.functional_ns_per_event", "ns/event"),
    m("profile.price_ns_per_event_lane", "ns/event-lane"),
    m("profile.copriced_ns_per_event_lane", "ns/event-lane"),
    m("profile.bytes_per_event", "bytes/event"),
    m("coherence.ns_per_event", "ns/event"),
    m("coherence.one_core_ns_per_event", "ns/event"),
    m("coherence.cpi", "CPI"),
    m("coherence.invalidations_per_kinstr", "1/kinstr"),
    m("coherence.c2c_per_kinstr", "1/kinstr"),
    m("campaign.functional_runs", "count"),
    m("campaign.priced_cells", "count"),
    m("campaign.copriced_groups", "count"),
    m("campaign.copricer_fallbacks", "count"),
    m("campaign.overhead_s", "s"),
    m("profile_cache.hit_rate", "ratio"),
    m("profile_cache.evictions", "count"),
    m("durability.write_atomic_ms_p50", "ms"),
    m("serve.submit_rtt_ms_p50", "ms"),
    m("serve.status_rtt_ms_p50", "ms"),
    m("serve.result_rtt_ms_p50", "ms"),
    m("serve.queue_wait_ms_p50", "ms"),
    m("serve.queue_wait_ms_p95", "ms"),
    m("serve.service_ms_p50", "ms"),
    m("serve.service_ms_p95", "ms"),
    m("serve.rejected_busy", "count"),
    m("serve.worker_restarts", "count"),
    m("trace_overhead_frac", "ratio"),
    m("host.speed", "ratio"),
];

/// A measured value: a summary of samples, or one exact figure.
#[derive(Debug, Clone, Copy)]
pub enum Value {
    /// Median (and spread) over `n` samples.
    Sampled(Summary),
    /// A single measurement or an exact count.
    Exact(f64),
}

impl Value {
    fn headline(self) -> f64 {
        match self {
            Value::Sampled(s) => s.median,
            Value::Exact(v) => v,
        }
    }
}

/// Metric values collected by one run, keyed by catalogue name.
#[derive(Debug, Default)]
pub struct Report {
    values: Vec<(&'static str, Value)>,
}

impl Report {
    /// Records `name` (a later value for the same name replaces it).
    pub fn set(&mut self, name: &'static str, value: Value) {
        self.values.retain(|(n, _)| *n != name);
        self.values.push((name, value));
    }

    /// Records an exact figure.
    pub fn exact(&mut self, name: &'static str, value: f64) {
        self.set(name, Value::Exact(value));
    }

    /// Records a summary.
    pub fn sampled(&mut self, name: &'static str, summary: Summary) {
        self.set(name, Value::Sampled(summary));
    }

    /// The human-readable lines (`workload metric value unit (n, q1, q3)`)
    /// and the JSON `metrics` object for exactly the metrics in
    /// `catalogue` ([`END_TO_END`] or [`PER_LAYER`]), in catalogue order.
    ///
    /// # Errors
    ///
    /// Names a metric of `catalogue` that is missing or not finite, or a
    /// recorded metric that is in neither catalogue.
    pub fn finish(&self, workload: &str, catalogue: &[Metric]) -> Result<(String, String), String> {
        if let Some((extra, _)) = self
            .values
            .iter()
            .find(|(n, _)| !END_TO_END.iter().chain(PER_LAYER).any(|m| m.name == *n))
        {
            return Err(format!("metric '{extra}' is not in the catalogue"));
        }
        let mut lines = String::new();
        let mut json = String::from("{");
        for (i, metric) in catalogue.iter().enumerate() {
            let value = self
                .values
                .iter()
                .find(|(n, _)| *n == metric.name)
                .map(|(_, v)| *v)
                .ok_or_else(|| format!("metric '{}' was not measured", metric.name))?;
            let v = value.headline();
            if !v.is_finite() {
                return Err(format!("metric '{}' is not finite: {v}", metric.name));
            }
            let spread = match value {
                Value::Sampled(s) => format!(
                    " (n={}, q1={:.6}, q3={:.6}, p{}={:.6})",
                    s.n, s.q1, s.q3, s.tail_pct, s.tail
                ),
                Value::Exact(_) => String::new(),
            };
            let _ = writeln!(
                lines,
                "{workload} {} {v:.6} {}{spread}",
                metric.name, metric.unit
            );
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                json,
                "{sep}\"{}\": {{\"value\": {v:?}, \"unit\": \"{}\"}}",
                metric.name, metric.unit
            );
        }
        json.push('}');
        Ok((lines, json))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn valid_name(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    fn valid_unit(unit: &str) -> bool {
        !unit.is_empty()
            && unit.len() <= 16
            && unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
    }

    #[test]
    fn names_are_well_formed_and_unique() {
        let all: Vec<&Metric> = END_TO_END.iter().chain(PER_LAYER).collect();
        for metric in &all {
            assert!(valid_name(metric.name), "bad name {}", metric.name);
            assert!(valid_unit(metric.unit), "bad unit {}", metric.unit);
        }
        let mut names: Vec<&str> = all.iter().map(|m| m.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), all.len(), "duplicate metric name");
    }

    #[test]
    fn benchmark_json_lists_exactly_the_emitted_metrics() {
        use gaas_experiments::json::{self, Json};
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
        let doc = json::parse(&text).expect("BENCHMARK.json parses");
        for (key, catalogue) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let listed: Vec<(&str, &str)> = doc
                .get(key)
                .and_then(Json::as_arr)
                .unwrap_or_else(|| panic!("BENCHMARK.json has no '{key}' list"))
                .iter()
                .map(|m| {
                    let field = |f| m.get(f).and_then(Json::as_str).expect("string field");
                    (field("name"), field("unit"))
                })
                .collect();
            let emitted: Vec<(&str, &str)> = catalogue.iter().map(|m| (m.name, m.unit)).collect();
            assert_eq!(
                listed, emitted,
                "BENCHMARK.json '{key}' differs from gaasbench"
            );
        }
        let workloads: Vec<&str> = doc
            .get("workloads")
            .and_then(Json::as_arr)
            .expect("workloads list")
            .iter()
            .map(|w| w.get("name").and_then(Json::as_str).expect("workload name"))
            .collect();
        assert_eq!(workloads, crate::WORKLOADS);
        assert!(workloads.iter().all(|w| valid_name(w)));
    }

    #[test]
    fn finish_rejects_missing_and_unknown_metrics() {
        let mut r = Report::default();
        r.exact("setup_s", 1.5);
        assert!(r.finish("w", &END_TO_END[..1]).is_ok());
        assert!(r
            .finish("w", &END_TO_END[..2])
            .unwrap_err()
            .contains("sim_mrefs_per_s"));
        r.exact("sim.cpi", 1.7);
        let (lines, _) = r
            .finish("w", &END_TO_END[..1])
            .expect("other catalogue ignored");
        assert!(!lines.contains("sim.cpi"));
        r.exact("bogus", 1.0);
        assert!(r
            .finish("w", &END_TO_END[..1])
            .unwrap_err()
            .contains("bogus"));
    }

    #[test]
    fn json_values_keep_every_digit() {
        let mut r = Report::default();
        r.exact("setup_s", 0.812_734_519_2);
        let (lines, json) = r.finish("kernel", &END_TO_END[..1]).expect("complete");
        assert_eq!(lines, "kernel setup_s 0.812735 s\n");
        assert_eq!(
            json,
            "{\"setup_s\": {\"value\": 0.8127345192, \"unit\": \"s\"}}"
        );
    }
}
