//! The traced run's span recorder.
//!
//! Spans are recorded from the benchmark's own code, around each call
//! into a layer of the program, and kept in memory until the run ends.
//! A span's *self time* is its duration minus the part its child spans
//! cover; summed per layer, self times split the traced wall time into
//! layer shares. A disabled recorder runs the wrapped calls and records
//! nothing, which is how the untraced half of the overhead comparison
//! runs the same code.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// The program's layers, named after its modules. A span belongs to
/// the longest layer whose name prefixes the span's name.
pub const LAYERS: [&str; 13] = [
    "instances.gen",
    "instances.io",
    "bench.request",
    "bench.engine",
    "bench.stream",
    "core.pipeline",
    "core.stream",
    "core.outcome",
    "speed-scaling.yds",
    "speed-scaling.stream",
    "speed-scaling.multi",
    "cli.serve",
    "telemetry",
];

/// The layer a span name belongs to, if any.
pub fn layer_of(span: &str) -> Option<&'static str> {
    LAYERS
        .iter()
        .filter(|layer| {
            span.strip_prefix(**layer)
                .is_some_and(|rest| rest.is_empty() || rest.starts_with('.'))
        })
        .max_by_key(|layer| layer.len())
        .copied()
}

#[derive(Debug, Clone)]
struct Span {
    name: &'static str,
    parent: Option<usize>,
    start_ns: u64,
    end_ns: u64,
}

/// In-memory span recorder.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

/// Per-name totals: call count, total duration and self time (ns).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Totals {
    /// Completed spans of this name.
    pub calls: u64,
    /// Sum of their durations.
    pub total_ns: u64,
    /// Sum of their self times.
    pub self_ns: u64,
}

impl Tracer {
    /// A recorder; `enabled = false` records nothing.
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Runs `f` inside a span named `name`; spans opened inside `f`
    /// through the same recorder become its children.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        if !self.enabled {
            return f(self);
        }
        let id = self.spans.len();
        let parent = self.open.last().copied();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            parent,
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end_ns = self.now_ns();
        out
    }

    /// A leaf span around `f`.
    pub fn call<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.span(name, |_| f())
    }

    /// Number of recorded spans.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    fn self_times(&self) -> Vec<u64> {
        let mut self_ns: Vec<u64> = self
            .spans
            .iter()
            .map(|s| s.end_ns.saturating_sub(s.start_ns))
            .collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                self_ns[p] = self_ns[p].saturating_sub(s.end_ns.saturating_sub(s.start_ns));
            }
        }
        self_ns
    }

    /// Totals per span name.
    pub fn by_name(&self) -> BTreeMap<&'static str, Totals> {
        let mut out: BTreeMap<&'static str, Totals> = BTreeMap::new();
        for (s, self_ns) in self.spans.iter().zip(self.self_times()) {
            let t = out.entry(s.name).or_default();
            t.calls += 1;
            t.total_ns += s.end_ns.saturating_sub(s.start_ns);
            t.self_ns += self_ns;
        }
        out
    }

    /// Self time per layer (every layer present, unattributed names
    /// under `None`).
    pub fn by_layer(&self) -> (BTreeMap<&'static str, u64>, u64) {
        let mut layers: BTreeMap<&'static str, u64> = LAYERS.iter().map(|&l| (l, 0)).collect();
        let mut other = 0;
        for (s, self_ns) in self.spans.iter().zip(self.self_times()) {
            match layer_of(s.name) {
                Some(l) => *layers.get_mut(l).expect("every layer is pre-seeded") += self_ns,
                None => other += self_ns,
            }
        }
        (layers, other)
    }

    /// The spans as JSON lines (`name`, `id`, `parent`, `start_ns`,
    /// `end_ns`), for writing out once the run ends.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::with_capacity(self.spans.len() * 80);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s
                .parent
                .map_or_else(|| "null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\": {id}, \"parent\": {parent}, \"name\": \"{}\", \"start_ns\": {}, \
                 \"end_ns\": {}}}",
                s.name, s.start_ns, s.end_ns
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn layers_resolve_by_longest_prefix() {
        assert_eq!(layer_of("core.stream.arrive"), Some("core.stream"));
        assert_eq!(
            layer_of("speed-scaling.multi.fw_lb"),
            Some("speed-scaling.multi")
        );
        assert_eq!(layer_of("cli.serve"), Some("cli.serve"));
        assert_eq!(layer_of("core.streamer"), None);
        assert_eq!(layer_of("bench.glue"), None);
    }

    #[test]
    fn self_time_excludes_children() {
        let mut t = Tracer::new(true);
        t.span("bench.engine.sweep", |t| {
            t.call("core.outcome.validate", || {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
        });
        let names = t.by_name();
        let outer = names["bench.engine.sweep"];
        let inner = names["core.outcome.validate"];
        assert_eq!(outer.total_ns, outer.self_ns + inner.total_ns);
        let (layers, other) = t.by_layer();
        assert_eq!(layers["core.outcome"], inner.self_ns);
        assert_eq!(other, 0);
        assert_eq!(t.to_jsonl().lines().count(), 2);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        assert_eq!(t.call("core.stream.finish", || 7), 7);
        assert_eq!(t.len(), 0);
    }
}
