//! Metric names, units and the result line.
//!
//! Every run prints every metric of its kind — the end-to-end metrics
//! untraced, the per-layer metrics traced — in the order of the tables
//! below, which `BENCHMARK.json` mirrors. A layer that a workload never
//! calls reports 0: that is the measured time (or count) of the layer on
//! that workload, and it is what the "no change" predictions rest on.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::check::Ops;

/// End-to-end metrics: name and unit.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("pass_ms", "ms"),
    ("throughput_mevents_s", "Mevents/s"),
    ("peak_rss_mb", "MiB"),
    ("ack_p50_ms", "ms"),
    ("ack_p99_ms", "ms"),
];

/// Per-layer metrics of the traced run: name and unit.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("sim.run_ms", "ms"),
    ("sim.minstr_s", "Minstr/s"),
    ("runner.dispatch_ms", "ms"),
    ("instr_profile.full_ms", "ms"),
    ("convergent.update_ms", "ms"),
    ("phase.adaptive_ms", "ms"),
    ("phase.adaptive_over_convergent_pct", "%"),
    ("convergent.profiled_fraction", "fraction"),
    ("live.slowdown_full", "x"),
    ("live.slowdown_convergent", "x"),
    ("live.slowdown_adaptive", "x"),
    ("live.unattributed_ms", "ms"),
    ("live.instructions", "count"),
    ("live.analysis_events", "count"),
    ("tnv.hits", "count"),
    ("tnv.evictions", "count"),
    ("trace.chunks", "count"),
    ("trace_codec.open_ms", "ms"),
    ("trace_codec.decode_ms", "ms"),
    ("crc.crc32_ms", "ms"),
    ("instr_profile.observe_suite_ms", "ms"),
    ("instr_profile.observe_wide_ms", "ms"),
    ("instr_profile.observe_scalar_ms", "ms"),
    ("instr_profile.observe_batched_ms", "ms"),
    ("instr_profile.batch_speedup", "x"),
    ("metrics.compute_ms", "ms"),
    ("instr_profile.footprint_mb", "MiB"),
    ("serve.pass_ms", "ms"),
    ("serve.throughput_mevents_s", "Mevents/s"),
    ("serve.ack_p50_ms", "ms"),
    ("serve.ack_p99_ms", "ms"),
    ("serve.peak_rss_mb", "MiB"),
    ("net.hello_ms", "ms"),
    ("net.query_rtt_ms", "ms"),
    ("durable.append_sync_ms", "ms"),
    ("net.window_wait_ms", "ms"),
    ("net.throttles", "count"),
    ("net.end_ms", "ms"),
    ("serve.state_bytes_per_event", "B/event"),
    ("serve.chunks_acked", "count"),
    ("serve.sessions_completed", "count"),
    ("ack.samples", "count"),
    ("ack.max_percentile", "%"),
    ("bench.trace_overhead_pct", "%"),
];

/// Metric values of one run, keyed by name.
#[derive(Debug, Default)]
pub struct Report {
    values: BTreeMap<&'static str, f64>,
}

impl Report {
    /// Sets a metric.
    ///
    /// # Panics
    ///
    /// Panics on a name missing from both tables (a bug in this crate).
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.set_named(name, value).unwrap_or_else(|| panic!("unknown metric `{name}`"));
    }

    /// Sets a metric named at run time; `None` for an unknown name.
    pub fn set_named(&mut self, name: &str, value: f64) -> Option<()> {
        let &(name, _) = END_TO_END.iter().chain(PER_LAYER).find(|&&(n, _)| n == name)?;
        self.values.insert(name, value);
        Some(())
    }

    /// Every metric set so far.
    pub fn values(&self) -> impl Iterator<Item = (&'static str, f64)> + '_ {
        self.values.iter().map(|(&n, &v)| (n, v))
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.get(name).copied()
    }

    /// The result line: `correct`, `attempted`, `failed` and the
    /// metrics of the run's kind. A missing end-to-end metric or a
    /// non-finite value makes the run incorrect.
    pub fn render(&self, ops: &Ops, traced: bool) -> String {
        let table = if traced { PER_LAYER } else { END_TO_END };
        let mut correct = ops.failed == 0 && ops.attempted > 0;
        let mut body = String::new();
        for (i, &(name, unit)) in table.iter().enumerate() {
            let value = match self.get(name) {
                Some(v) if v.is_finite() => v,
                Some(_) | None if !traced => {
                    eprintln!("perfbench: metric {name} was not measured");
                    correct = false;
                    0.0
                }
                _ => 0.0,
            };
            let sep = if i == 0 { "" } else { ", " };
            write!(body, "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
                .expect("writing to a String cannot fail");
        }
        format!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{body}}}}}",
            ops.attempted, ops.failed
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_match_benchmark_json() {
        let json = include_str!("../../BENCHMARK.json");
        let mut seen = std::collections::HashSet::new();
        for &(name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(seen.insert(name), "{name} listed twice");
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        assert_eq!(json.matches("\"unit\"").count(), seen.len());
    }

    #[test]
    fn render_marks_missing_end_to_end_metrics() {
        let mut ops = Ops::default();
        ops.record("x", Ok(()));
        let mut r = Report::default();
        for &(name, _) in END_TO_END {
            r.set(name, 1.5);
        }
        let line = r.render(&ops, false);
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 1, \"failed\": 0,"));
        assert!(line.contains("\"pass_ms\": {\"value\": 1.5, \"unit\": \"ms\"}"));
        let mut partial = Report::default();
        partial.set("pass_ms", 2.0);
        assert!(partial.render(&ops, false).starts_with("{\"correct\": false"));
        // Per-layer metrics a workload does not touch read 0.
        assert!(partial
            .render(&ops, true)
            .contains("\"sim.run_ms\": {\"value\": 0, \"unit\": \"ms\"}"));
    }

    #[test]
    fn failures_make_the_run_incorrect() {
        let mut ops = Ops::default();
        ops.record("x", Err("bad".to_string()));
        assert!(Report::default()
            .render(&ops, true)
            .starts_with("{\"correct\": false, \"attempted\": 1, \"failed\": 1"));
    }
}
