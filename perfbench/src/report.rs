//! The metric catalog and the result line.
//!
//! Untraced runs report every end-to-end metric; traced runs report
//! every per-layer metric. A workload that does not exercise a layer
//! reports that layer's metrics as 0, so the predicted "no change" of a
//! layer on a workload that bypasses it is itself measured.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::trace::LAYERS;

/// End-to-end metrics: `(name, unit)`. Each is defined on every
/// workload (see the benchmark's README for the per-workload meaning).
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("throughput_per_s", "1/s"),
    ("latency_ms.p50", "ms"),
    ("latency_ms.p90", "ms"),
];

/// Per-layer metrics other than the layer shares: `(name, unit)`.
pub const PER_LAYER: [(&str, &str); 36] = [
    ("core.outcome.validate_ms", "ms"),
    ("core.stream.finish_ms", "ms"),
    ("core.stream.feed_ms", "ms"),
    ("oa.hull_updates", "count"),
    ("avr.delta_events", "count"),
    ("bench.stream.arrive_us.avrq.p50", "us"),
    ("bench.stream.arrive_us.avrq.p99", "us"),
    ("bench.stream.arrive_us.oaq.p50", "us"),
    ("bench.stream.arrive_us.oaq.p99", "us"),
    ("bench.stream.arrive_us.bkpq.p50", "us"),
    ("bench.stream.arrive_us.bkpq.p99", "us"),
    ("bkp.window_slides", "count"),
    ("bkp.intensity_queries", "count"),
    ("speed-scaling.yds.opt_ms", "ms"),
    ("yds.intervals_scanned", "count"),
    ("speed-scaling.multi.fw_lb_ms", "ms"),
    ("core.pipeline.run_ms.avrq-m", "ms"),
    ("core.pipeline.run_ms.avrq-m-nonmig", "ms"),
    ("core.pipeline.run_ms.oaq-m", "ms"),
    ("fw.iterations", "count"),
    ("fw.gradient_evals", "count"),
    ("bench.engine.overhead_frac", "ratio"),
    ("bench.engine.shard_imbalance", "ratio"),
    ("bench.engine.cache_hit_rate", "ratio"),
    ("cli.serve.handler_ms.evaluate", "ms"),
    ("cli.serve.handler_ms.sweep", "ms"),
    ("cli.serve.outside_handler_ms", "ms"),
    ("cli.serve.shed", "count"),
    ("instances.io.decode_us", "us"),
    ("instances.io.encode_us", "us"),
    ("bench.request.parse_us", "us"),
    ("core.pipeline.run_us", "us"),
    ("instances.gen.ms", "ms"),
    ("loadgen.late_ms.max", "ms"),
    ("telemetry.overhead_frac", "ratio"),
    ("trace.coverage_frac", "ratio"),
];

/// The work counters reported per traced pass (names as registered by
/// the program's `counter!` sites).
pub const COUNTERS: [&str; 7] = [
    "oa.hull_updates",
    "avr.delta_events",
    "bkp.window_slides",
    "bkp.intensity_queries",
    "yds.intervals_scanned",
    "fw.iterations",
    "fw.gradient_evals",
];

/// Name of the self-time share metric of `layer`.
pub fn share_name(layer: &str) -> String {
    format!("{layer}.self_share")
}

/// Every per-layer metric, `(name, unit)`, shares last.
pub fn per_layer() -> Vec<(String, &'static str)> {
    PER_LAYER
        .iter()
        .map(|&(n, u)| (n.to_string(), u))
        .chain(LAYERS.iter().map(|l| (share_name(l), "ratio")))
        .collect()
}

/// Every end-to-end metric, `(name, unit)`.
pub fn end_to_end() -> Vec<(String, &'static str)> {
    END_TO_END
        .iter()
        .map(|&(n, u)| (n.to_string(), u))
        .collect()
}

/// Whether `name` is a valid metric name: `[A-Za-z0-9_.-]+`, starting
/// with a letter or digit, at most 64 characters.
pub fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// The outcome of one run.
#[derive(Debug, Default)]
pub struct Report {
    /// Operations attempted (cells, events, requests).
    pub attempted: u64,
    /// Operations that failed or failed their output check.
    pub failed: u64,
    /// The first few failure messages.
    pub failures: Vec<String>,
    /// Metric values by name.
    pub values: BTreeMap<String, f64>,
    /// Human-readable detail, printed before the result line.
    pub lines: Vec<String>,
}

impl Report {
    /// Records one failed operation.
    pub fn fail(&mut self, msg: impl Into<String>) {
        self.failed += 1;
        if self.failures.len() < 10 {
            self.failures.push(msg.into());
        }
    }

    /// Sets a metric.
    pub fn set(&mut self, name: impl Into<String>, value: f64) {
        self.values.insert(name.into(), value);
    }

    /// Adds a detail line.
    pub fn note(&mut self, line: impl Into<String>) {
        self.lines.push(line.into());
    }

    /// `failed ÷ attempted`.
    pub fn failed_frac(&self) -> f64 {
        if self.attempted == 0 {
            1.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }

    /// Renders the human-readable block and the final JSON result line
    /// for the given catalog. Per-layer metrics a workload did not set
    /// read 0; a missing end-to-end metric or a non-finite value is an
    /// error.
    pub fn render(&self, traced: bool) -> Result<String, String> {
        let catalog = if traced { per_layer() } else { end_to_end() };
        let mut out = String::new();
        for line in &self.lines {
            let _ = writeln!(out, "{line}");
        }
        for msg in &self.failures {
            let _ = writeln!(out, "FAILED: {msg}");
        }
        let _ = writeln!(
            out,
            "failed_frac {} ({} failed of {} attempted)",
            self.failed_frac(),
            self.failed,
            self.attempted
        );
        let mut json = String::new();
        for (name, unit) in &catalog {
            let value = match self.values.get(name) {
                Some(&v) => v,
                None if traced => 0.0,
                None => return Err(format!("end-to-end metric `{name}` was not measured")),
            };
            if !value.is_finite() {
                return Err(format!("metric `{name}` is not finite: {value}"));
            }
            let _ = writeln!(out, "metric {name} = {value} {unit}");
            if !json.is_empty() {
                json.push_str(", ");
            }
            let _ = write!(
                json,
                "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            );
        }
        let _ = writeln!(
            out,
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{json}}}}}",
            self.failed == 0 && self.attempted > 0,
            self.attempted.max(1),
            self.failed
        );
        Ok(out)
    }
}
