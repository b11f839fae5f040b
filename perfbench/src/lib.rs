//! The qbss benchmark: four workloads over the paper's online
//! algorithms, measured end to end (untraced runs) and layer by layer
//! (traced runs).
//!
//! It drives the program from outside: the sweeps and streaming
//! sessions call the library crates' public functions, and `serve-mixed`
//! drives a `qbss serve` child process over TCP. Inputs derive from the
//! seed alone (see [`inputs`]); every run checks the program's outputs
//! and counts failures against the operations attempted.

pub mod inputs;
pub mod report;
mod serve;
mod stats;
mod stream;
mod sweep;
mod trace;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use report::{Report, COUNTERS};
use trace::{Tracer, LAYERS};

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Closed-batch `run_sweep` over single-machine online instances.
    SweepOnline,
    /// `run_sweep` over the multi-machine algorithms with the
    /// Frank–Wolfe lower-bound certificate.
    SweepMulti,
    /// `StreamSession`s fed one arrival at a time.
    StreamSessions,
    /// Open-loop HTTP traffic against a `qbss serve` child.
    ServeMixed,
}

impl Workload {
    /// Every workload, in catalog order.
    pub const ALL: [Workload; 4] = [
        Workload::SweepOnline,
        Workload::SweepMulti,
        Workload::StreamSessions,
        Workload::ServeMixed,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::SweepOnline => "sweep-online",
            Workload::SweepMulti => "sweep-multi",
            Workload::StreamSessions => "stream-sessions",
            Workload::ServeMixed => "serve-mixed",
        }
    }

    /// Looks a workload up by name.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// One run's options.
#[derive(Debug, Clone)]
pub struct Opts {
    /// Which workload.
    pub workload: Workload,
    /// Input seed.
    pub seed: u64,
    /// Measurement window.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of untraced (end to end).
    pub trace: bool,
    /// Where a traced run writes its spans (JSON lines), if anywhere.
    pub spans_out: Option<PathBuf>,
    /// The `qbss` binary `serve-mixed` runs.
    pub qbss: Option<PathBuf>,
}

impl Opts {
    /// The end of the measurement window that starts now.
    pub fn deadline(&self) -> Instant {
        Instant::now() + Duration::from_secs_f64(self.seconds)
    }
}

/// Runs one workload and returns its report.
pub fn run(opts: &Opts) -> Result<Report, String> {
    match opts.workload {
        Workload::SweepOnline | Workload::SweepMulti => sweep::run(opts),
        Workload::StreamSessions => stream::run(opts),
        Workload::ServeMixed => serve::run(opts),
    }
}

/// Fewest set-ups per run; `setup_s` is their median.
const SETUP_MIN_REPEATS: usize = 5;
/// Most set-ups per run.
const SETUP_MAX_REPEATS: usize = 2001;
/// Past [`SETUP_MIN_REPEATS`], set-ups repeat until they have taken
/// this long in all (or [`SETUP_MAX_REPEATS`] ran): a set-up of a
/// fraction of a millisecond needs many repeats for a steady median.
const SETUP_BUDGET_S: f64 = 1.0;

/// Runs `setup` repeatedly (see [`SETUP_BUDGET_S`]) and returns the
/// last result with the median set-up time in seconds. Every
/// repetition must produce the same fingerprint — the inputs are a
/// function of the seed.
pub(crate) fn timed_setup<T>(
    report: &mut Report,
    mut setup: impl FnMut() -> Result<T, String>,
    fingerprint: impl Fn(&T) -> u64,
) -> Result<T, String> {
    let mut times: Vec<f64> = Vec::new();
    let mut first: Option<u64> = None;
    let mut last: Option<T> = None;
    while times.len() < SETUP_MIN_REPEATS
        || (times.len() < SETUP_MAX_REPEATS && times.iter().sum::<f64>() < SETUP_BUDGET_S)
    {
        // Drop the previous result first so set-ups that own processes
        // never overlap.
        drop(last.take());
        let t = Instant::now();
        let value = setup()?;
        times.push(t.elapsed().as_secs_f64());
        let fp = fingerprint(&value);
        match first {
            Some(f) if f != fp => {
                return Err(format!(
                    "set-up is not deterministic: fingerprint {f:016x} then {fp:016x}"
                ))
            }
            _ => first = Some(fp),
        }
        last = Some(value);
    }
    let value = last.expect("at least one set-up ran");
    let fp = first.expect("at least one set-up ran");
    let setup_s = stats::median(&times).expect("non-empty");
    report.set("setup_s", setup_s);
    report.note(format!("inputs fingerprint {fp:016x}"));
    report.note(format!("setup_s median of {}: {setup_s:.6} s", times.len()));
    Ok(value)
}

/// Worker threads the sweeps use (= available cores).
pub(crate) fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// Peak resident set size (`VmHWM`) of this process or of `pid`, in MB.
pub(crate) fn peak_rss_mb(pid: Option<u32>) -> Result<f64, String> {
    let path = pid.map_or_else(
        || "/proc/self/status".to_string(),
        |p| format!("/proc/{p}/status"),
    );
    let status = std::fs::read_to_string(&path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .ok_or_else(|| format!("no VmHWM line in {path}"))?;
    Ok(kb / 1024.0)
}

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("perfbench reads /proc and getrusage(2) as laid out on 64-bit Linux");

/// `struct timeval` on 64-bit Linux.
#[repr(C)]
struct Timeval {
    sec: i64,
    usec: i64,
}

/// `struct rusage` on 64-bit Linux: two `timeval`s, then fourteen `long`s.
#[repr(C)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    rest: [i64; 14],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
}

/// User + system CPU seconds from getrusage(2), at microsecond
/// resolution: `who` is `RUSAGE_SELF` (0) or `RUSAGE_CHILDREN` (−1).
fn rusage_cpu_seconds(who: i32) -> f64 {
    let zero = || Timeval { sec: 0, usec: 0 };
    let mut usage = Rusage {
        utime: zero(),
        stime: zero(),
        rest: [0; 14],
    };
    // SAFETY: getrusage(2) writes one `struct rusage` through the
    // pointer; `Rusage` mirrors its 64-bit Linux layout field for field
    // (checked by the `compile_error!` above) and the pointer refers to
    // a live, writable, aligned value.
    let rc = unsafe { getrusage(who, &mut usage) };
    assert_eq!(rc, 0, "getrusage fails only on a bad pointer or `who`");
    let secs = |t: &Timeval| t.sec as f64 + t.usec as f64 * 1e-6;
    secs(&usage.utime) + secs(&usage.stime)
}

/// CPU time this process has used, all threads including exited ones,
/// in seconds. The sweeps' worker threads exit with each sweep, so
/// per-thread clocks cannot see them.
pub(crate) fn process_cpu_seconds() -> f64 {
    rusage_cpu_seconds(0)
}

/// CPU time used by this process's children that have exited and been
/// waited for, in seconds. Unlike the tick-sampled `/proc/<pid>/stat`
/// times, which are off by ±10% for a server that runs in short bursts,
/// this is the kernel's exact runtime.
pub(crate) fn children_cpu_seconds() -> f64 {
    rusage_cpu_seconds(-1)
}

/// Machine-wide `(steal, total)` CPU ticks from `/proc/stat`: steal is
/// time the hypervisor gave this machine's virtual CPUs to someone else.
pub(crate) fn cpu_ticks() -> (u64, u64) {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let fields: Vec<u64> = stat
        .lines()
        .next()
        .unwrap_or("")
        .split_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    (fields.get(7).copied().unwrap_or(0), fields.iter().sum())
}

/// Notes the share of machine CPU time stolen by the hypervisor since
/// `before` (a [`cpu_ticks`] reading): on a shared virtual machine it
/// explains wall-clock slowdowns the program did not cause.
pub(crate) fn note_steal(report: &mut Report, before: (u64, u64)) {
    let after = cpu_ticks();
    let total = after.1.saturating_sub(before.1).max(1);
    let steal = after.0.saturating_sub(before.0);
    report.note(format!(
        "hypervisor steal during the run: {:.2}% of machine CPU time",
        100.0 * steal as f64 / total as f64
    ));
}

/// The process registry's counters (the program's work counters).
pub(crate) fn counters() -> BTreeMap<String, u64> {
    qbss_telemetry::metrics().counter_values()
}

/// Sets every catalogued work counter to its delta between snapshots.
pub(crate) fn set_counter_deltas(
    report: &mut Report,
    before: &BTreeMap<String, u64>,
    after: &BTreeMap<String, u64>,
) {
    for name in COUNTERS {
        let delta = after
            .get(name)
            .copied()
            .unwrap_or(0)
            .saturating_sub(before.get(name).copied().unwrap_or(0));
        report.set(name, delta as f64);
    }
}

/// Wall time of the traced and untraced replay passes.
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct ReplayWalls {
    /// Untraced passes, summed.
    pub untraced: Duration,
    /// Traced passes, summed.
    pub traced: Duration,
    /// Pairs run.
    pub passes: u32,
}

/// Alternates untraced and traced replay passes until `deadline` (at
/// least one pair), swapping which half of a pair runs first so warm-up
/// favours neither. The traced passes share `tracer`.
pub(crate) fn replay_pairs(
    deadline: Instant,
    tracer: &mut Tracer,
    mut pass: impl FnMut(&mut Tracer) -> Result<(), String>,
) -> Result<ReplayWalls, String> {
    let mut walls = ReplayWalls::default();
    loop {
        for traced in [walls.passes % 2 == 1, walls.passes % 2 == 0] {
            let t = Instant::now();
            if traced {
                pass(tracer)?;
                walls.traced += t.elapsed();
            } else {
                pass(&mut Tracer::new(false))?;
                walls.untraced += t.elapsed();
            }
        }
        walls.passes += 1;
        if Instant::now() >= deadline {
            return Ok(walls);
        }
    }
}

/// Mean duration of the spans named `name`, in `unit_ns` units (0 when
/// there are none).
fn span_mean(by_name: &BTreeMap<&'static str, trace::Totals>, name: &str, unit_ns: f64) -> f64 {
    by_name
        .get(name)
        .map_or(0.0, |t| t.total_ns as f64 / t.calls.max(1) as f64 / unit_ns)
}

/// The per-layer metrics every traced run derives from its spans: the
/// mean time of each layer call, each layer's share of the traced wall
/// time, the coverage check, and the tracing overhead. Writes the spans
/// out if asked.
pub(crate) fn finish_traced(
    opts: &Opts,
    report: &mut Report,
    tracer: &Tracer,
    walls: ReplayWalls,
) -> Result<(), String> {
    const MS: f64 = 1e6;
    const US: f64 = 1e3;
    let by_name = tracer.by_name();
    for (metric, span, unit) in [
        ("core.outcome.validate_ms", "core.outcome.validate", MS),
        ("core.stream.finish_ms", "core.stream.finish", MS),
        ("core.stream.feed_ms", "core.stream.feed", MS),
        ("speed-scaling.yds.opt_ms", "speed-scaling.yds.opt", MS),
        (
            "speed-scaling.multi.fw_lb_ms",
            "speed-scaling.multi.fw_lb",
            MS,
        ),
        (
            "core.pipeline.run_ms.avrq-m",
            "core.pipeline.run.avrq-m",
            MS,
        ),
        (
            "core.pipeline.run_ms.avrq-m-nonmig",
            "core.pipeline.run.avrq-m-nonmig",
            MS,
        ),
        ("core.pipeline.run_ms.oaq-m", "core.pipeline.run.oaq-m", MS),
        ("instances.gen.ms", "instances.gen", MS),
        ("instances.io.decode_us", "instances.io.decode", US),
        ("instances.io.encode_us", "instances.io.encode", US),
        ("bench.request.parse_us", "bench.request.parse", US),
        ("core.pipeline.run_us", "core.pipeline.run", US),
    ] {
        report.set(metric, span_mean(&by_name, span, unit));
    }
    let wall_ns = walls.traced.as_nanos() as f64;
    let (layers, unattributed) = tracer.by_layer();
    let mut covered = 0.0;
    for layer in LAYERS {
        let share = layers[layer] as f64 / wall_ns;
        covered += share;
        report.set(report::share_name(layer), share);
        report.note(format!(
            "layer {layer:<22} self share {:6.2}%",
            100.0 * share
        ));
    }
    report.set("trace.coverage_frac", covered);
    let overhead = walls.traced.as_secs_f64() / walls.untraced.as_secs_f64() - 1.0;
    report.set("telemetry.overhead_frac", overhead);
    report.note(format!(
        "traced wall {:.3} s over {} pass(es), {} spans; tracing overhead {:+.2}%",
        walls.traced.as_secs_f64(),
        walls.passes,
        tracer.len(),
        100.0 * overhead
    ));
    if covered >= 0.9 {
        report.note(format!(
            "coverage check passed: layers account for {:.2}% of the traced wall",
            100.0 * covered
        ));
    } else {
        report.note(format!(
            "coverage check FAILED: layers account for {:.2}%; {:.2}% is unattributed \
             ({:.2}% in spans outside every layer, the rest in benchmark code between calls)",
            100.0 * covered,
            100.0 * (1.0 - covered),
            100.0 * unattributed as f64 / wall_ns
        ));
    }
    if let Some(path) = &opts.spans_out {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)
                .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
        }
        std::fs::write(path, tracer.to_jsonl())
            .map_err(|e| format!("cannot write spans to {}: {e}", path.display()))?;
        report.note(format!("spans written to {}", path.display()));
    }
    Ok(())
}
