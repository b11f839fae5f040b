//! The observatory: one record → compare → gate → bless pipeline shared
//! by the three baseline kinds.
//!
//! | kind | module | what it holds | verdict |
//! |------|--------|---------------|---------|
//! | `perf` | [`crate::perf`] | wall time per scenario | noise-aware: median past `base + max(3×MAD, 25%·base)` |
//! | `quality` | [`crate::quality`] | Table 1 competitive ratios per group | exact: any worse max ratio or bound headroom |
//! | `complexity` | [`crate::complexity`] | work-counter curves over n-grids | exact: any higher op count, or exponent +0.05 |
//!
//! Every kind is a [`Gate`]: a pinned scenario table, a record run, a
//! canonical schema-tagged JSON baseline, and a comparison whose
//! [`GateReport`] lists the regressions and renders them (`--explain`
//! adds the kind's diagnosis). This module owns what the kinds share:
//! the baseline header (schema tag, [`BuildInfo`], [`EnvFingerprint`]),
//! the scenario registry ([`Scenario`], [`pick`]), the error type
//! ([`ObservatoryError`]), the work-counter bracket ([`work_delta`]) and
//! the bless switch ([`bless_requested`]); the two exact kinds share
//! [`ExactReport`].
//! `qbss perf|quality|complexity record|compare|gate` is one generic CLI
//! driver over [`Gate`].

use std::collections::BTreeMap;
use std::fmt;

use qbss_core::work::is_work_counter;
use qbss_telemetry::{json_escape, json_parse, JsonValue};

use crate::engine::EngineError;

// ---------------------------------------------------------------------
// Baseline header
// ---------------------------------------------------------------------

/// The build that produced an artifact: crate version plus a best-effort
/// `git describe` string. Embedded in quality and complexity baselines,
/// loadgen reports, and the serve plane's `/healthz` so a number on disk
/// can be traced back to the code that computed it. Informational only —
/// no gate compares fingerprints.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BuildInfo {
    /// Workspace crate version (`CARGO_PKG_VERSION`).
    pub version: String,
    /// `git describe --always --dirty --tags` output, or `"unknown"`
    /// outside a git checkout.
    pub git: String,
}

impl BuildInfo {
    /// Captures the current build's fingerprint.
    pub fn capture() -> Self {
        Self {
            version: env!("CARGO_PKG_VERSION").to_string(),
            git: command_output("git", &["describe", "--always", "--dirty", "--tags"]),
        }
    }

    /// One-line rendering, e.g. `qbss 0.1.0 (1fdad51)`.
    pub fn render(&self) -> String {
        format!("qbss {} ({})", self.version, self.git)
    }

    /// The `"build"` header block.
    pub fn to_json(&self) -> String {
        format!(
            "\"build\": {{\"version\": \"{}\", \"git\": \"{}\"}}",
            json_escape(&self.version),
            json_escape(&self.git)
        )
    }

    /// Reads a document's `"build"` block; absent fields read `"unknown"`.
    pub fn from_json(doc: &JsonValue) -> Self {
        let field = |key: &str| {
            doc.get("build")
                .and_then(|b| b.get(key))
                .and_then(JsonValue::as_str)
                .unwrap_or("unknown")
                .to_string()
        };
        Self { version: field("version"), git: field("git") }
    }
}

/// Where and how a perf baseline was recorded. Compared baselines from
/// different environments are still diffable — the fingerprint is
/// informational, surfaced in reports so cross-host noise is explicable.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EnvFingerprint {
    /// Hostname (best effort; `"unknown"` when undiscoverable).
    pub host: String,
    /// `std::env::consts::OS`.
    pub os: String,
    /// `std::env::consts::ARCH`.
    pub arch: String,
    /// Available cores at record time.
    pub cores: usize,
    /// `rustc --version` output (best effort).
    pub rustc: String,
}

impl EnvFingerprint {
    /// Captures the current environment.
    pub fn capture() -> Self {
        let host = std::env::var("HOSTNAME")
            .ok()
            .filter(|h| !h.is_empty())
            .or_else(|| {
                std::fs::read_to_string("/proc/sys/kernel/hostname")
                    .ok()
                    .map(|h| h.trim().to_string())
                    .filter(|h| !h.is_empty())
            })
            .unwrap_or_else(|| "unknown".to_string());
        Self {
            host,
            os: std::env::consts::OS.to_string(),
            arch: std::env::consts::ARCH.to_string(),
            cores: std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get),
            rustc: command_output("rustc", &["--version"]),
        }
    }

    /// The `"env"` header block.
    pub fn to_json(&self) -> String {
        format!(
            "\"env\": {{\"host\": \"{}\", \"os\": \"{}\", \"arch\": \"{}\", \
             \"cores\": {}, \"rustc\": \"{}\"}}",
            json_escape(&self.host),
            json_escape(&self.os),
            json_escape(&self.arch),
            self.cores,
            json_escape(&self.rustc),
        )
    }

    /// Reads a document's `"env"` block (required); absent fields read
    /// `"unknown"` (one core).
    pub fn from_json(doc: &JsonValue) -> Result<Self, String> {
        let env = doc.get("env").ok_or("missing `env`")?;
        let field = |key: &str| {
            env.get(key).and_then(JsonValue::as_str).unwrap_or("unknown").to_string()
        };
        Ok(Self {
            host: field("host"),
            os: field("os"),
            arch: field("arch"),
            cores: env.get("cores").and_then(JsonValue::as_u64).unwrap_or(1) as usize,
            rustc: field("rustc"),
        })
    }
}

/// The trimmed stdout of a successful `program args…`, or `"unknown"`.
fn command_output(program: &str, args: &[&str]) -> String {
    std::process::Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Opens a canonical baseline document: the schema tag, then one header
/// block (`"build"` or `"env"`).
pub fn open_document(schema: &str, header: &str) -> String {
    format!("{{\n  \"schema\": \"{}\",\n  {header},\n", json_escape(schema))
}

/// Canonical JSON rows, one per line, commas between them.
pub fn json_rows(rows: impl IntoIterator<Item = String>) -> String {
    let mut out = rows.into_iter().collect::<Vec<_>>().join(",\n");
    if !out.is_empty() {
        out.push('\n');
    }
    out
}

/// The members of the object at `doc[key]`, in source order.
pub fn object<'a>(doc: &'a JsonValue, key: &str) -> Result<&'a [(String, JsonValue)], String> {
    match doc.get(key) {
        Some(JsonValue::Obj(entries)) => Ok(entries),
        Some(_) => Err(format!("`{key}` must be an object")),
        None => Err(format!("missing `{key}`")),
    }
}

// ---------------------------------------------------------------------
// Errors, scenario lookup, the counter bracket, blessing
// ---------------------------------------------------------------------

/// Failures of every observatory kind.
#[derive(Debug)]
pub enum ObservatoryError {
    /// `--scenarios` named something that doesn't exist.
    UnknownScenario {
        /// The requested name.
        name: String,
        /// Every scenario of the kind, in canonical order.
        known: Vec<&'static str>,
    },
    /// A baseline file didn't match its kind's schema.
    Parse {
        /// The baseline kind ([`Gate::KIND`]).
        kind: &'static str,
        /// What was wrong.
        reason: String,
    },
    /// A record configuration the recorder refuses (e.g. zero repeats).
    Config(String),
    /// The engine rejected a scenario spec (a bug in the scenario table).
    Engine(EngineError),
    /// A direct-evaluation scenario cell failed (a bug in the scenario
    /// table).
    Cell(String),
    /// A scenario produced cell errors; statistics over a partially
    /// failed grid would silently shrink coverage.
    Dirty {
        /// The scenario whose grid did not evaluate cleanly.
        scenario: String,
        /// Number of failed cells.
        errors: usize,
    },
}

impl fmt::Display for ObservatoryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::UnknownScenario { name, known } => {
                write!(f, "unknown scenario `{name}` (expected one of: {})", known.join(", "))
            }
            Self::Parse { kind, reason } => write!(f, "invalid {kind} baseline: {reason}"),
            Self::Config(reason) => f.write_str(reason),
            Self::Engine(e) => write!(f, "scenario failed to run: {e}"),
            Self::Cell(reason) => write!(f, "scenario cell failed to run: {reason}"),
            Self::Dirty { scenario, errors } => {
                write!(f, "scenario `{scenario}` had {errors} failed cell(s)")
            }
        }
    }
}

impl std::error::Error for ObservatoryError {}

impl From<EngineError> for ObservatoryError {
    fn from(e: EngineError) -> Self {
        Self::Engine(e)
    }
}

/// A named, fully pinned workload of one kind: everything about it
/// (generator seeds, algorithm and α grids, n-grids) is deterministic.
/// `W` is what the kind runs.
#[derive(Debug, Clone, Copy)]
pub struct Scenario<W> {
    /// Stable name (the baseline JSON key and the `--scenarios` token).
    pub name: &'static str,
    /// What the kind runs.
    pub work: W,
}

/// Picks `names` (every scenario when empty) out of a kind's scenario
/// table, in request order.
pub fn pick<W: Clone>(
    all: Vec<Scenario<W>>,
    names: &[String],
) -> Result<Vec<Scenario<W>>, ObservatoryError> {
    if names.is_empty() {
        return Ok(all);
    }
    names
        .iter()
        .map(|n| {
            all.iter().find(|s| s.name == n).cloned().ok_or_else(|| {
                ObservatoryError::UnknownScenario {
                    name: n.clone(),
                    known: all.iter().map(|s| s.name).collect(),
                }
            })
        })
        .collect()
}

/// Runs `f` between two global-registry snapshots and returns its result
/// with the positive deltas of the catalogued work counters (see
/// [`qbss_core::work::WORK_COUNTERS`]) — the exact op counts `f` did.
/// Callers run one workload at a time, so the deltas attribute cleanly.
pub fn work_delta<T>(f: impl FnOnce() -> T) -> (T, BTreeMap<String, u64>) {
    let before = qbss_telemetry::metrics().counter_values();
    let out = f();
    let delta = qbss_telemetry::metrics()
        .counter_values()
        .into_iter()
        .filter(|(name, _)| is_work_counter(name))
        .map(|(name, v)| {
            let d = v - before.get(&name).copied().unwrap_or(0);
            (name, d)
        })
        .filter(|&(_, d)| d > 0)
        .collect();
    (out, delta)
}

/// Whether the caller asked to re-bless baselines and goldens: exactly
/// `QBSS_BLESS=1`. Any other value (`0`, empty) leaves them untouched.
pub fn bless_requested() -> bool {
    std::env::var("QBSS_BLESS").is_ok_and(|v| v == "1")
}

// ---------------------------------------------------------------------
// The gate protocol
// ---------------------------------------------------------------------

/// One baseline kind: how it records, serializes, and compares.
pub trait Gate: Sized {
    /// The kind's name: the CLI verb and the parse-error prefix.
    const KIND: &'static str;
    /// The on-disk schema tag; bump on incompatible baseline changes.
    const SCHEMA: &'static str;
    /// What a record run needs besides the scenario names.
    type Config;
    /// The result of [`Gate::compare`].
    type Report: GateReport;

    /// Records `names` (every scenario when empty) under `config`.
    fn record(names: &[String], config: &Self::Config) -> Result<Self, ObservatoryError>;
    /// The scenarios this baseline holds (what a gate re-measures).
    fn scenario_names(&self) -> Vec<String>;
    /// Canonical, human-diffable JSON (trailing newline included).
    fn to_json(&self) -> String;
    /// Reads the document body; the schema tag is already checked.
    fn from_json(doc: &JsonValue) -> Result<Self, String>;
    /// Diffs `new` against `base` under the kind's verdict rule.
    fn compare(base: &Self, new: &Self) -> Self::Report;

    /// Parses a baseline produced by [`Gate::to_json`].
    fn parse(input: &str) -> Result<Self, ObservatoryError> {
        let err = |reason: String| ObservatoryError::Parse { kind: Self::KIND, reason };
        let doc = json_parse(input).map_err(err)?;
        let schema = doc.get("schema").and_then(JsonValue::as_str).unwrap_or_default();
        if schema != Self::SCHEMA {
            return Err(err(format!("schema `{schema}` (expected `{}`)", Self::SCHEMA)));
        }
        Self::from_json(&doc).map_err(err)
    }
}

/// What a [`Gate::compare`] reports.
pub trait GateReport {
    /// One regression.
    type Finding;
    /// Every regression, in report order.
    fn regressions(&self) -> Vec<&Self::Finding>;
    /// The verdict line of a failed gate, e.g. `2 quality regression(s)`.
    fn verdict(&self) -> String;
    /// Human-readable summary: one line per finding plus a verdict.
    fn render(&self) -> String;
    /// The diagnostic rendering behind `gate --explain`.
    fn render_explain(&self) -> String;

    /// `true` when nothing regressed.
    fn is_clean(&self) -> bool {
        self.regressions().is_empty()
    }
}

/// One finding of an exact gate (quality, complexity), where every
/// difference in the worse direction is a regression.
pub trait ExactFinding {
    /// The kind, for the verdict lines.
    const KIND: &'static str;
    /// What [`ExactReport::checked`] counts, e.g. `group(s)`.
    const CHECKED: &'static str;
    /// The finding's line in [`GateReport::render`].
    fn line(&self) -> String;
    /// The finding's lines in [`GateReport::render_explain`].
    fn explain(&self) -> String;
}

/// The report of an exact gate.
#[derive(Debug, Clone, PartialEq)]
pub struct ExactReport<R> {
    /// Series checked (both sides present).
    pub checked: usize,
    /// Exact regressions, in scenario order.
    pub regressions: Vec<R>,
}

impl<R: ExactFinding> ExactReport<R> {
    /// One `line` per finding, then the verdict or the clean count
    /// (`rule` is appended to the count).
    fn rendered(&self, line: fn(&R) -> String, rule: &str) -> String {
        let mut out: String = self.regressions.iter().map(line).collect();
        out.push_str(&if self.is_clean() {
            format!("no {} regression ({} {} checked{rule})\n", R::KIND, self.checked, R::CHECKED)
        } else {
            format!("{}\n", self.verdict())
        });
        out
    }
}

impl<R> Default for ExactReport<R> {
    fn default() -> Self {
        Self { checked: 0, regressions: Vec::new() }
    }
}

impl<R: ExactFinding> GateReport for ExactReport<R> {
    type Finding = R;

    fn regressions(&self) -> Vec<&R> {
        self.regressions.iter().collect()
    }

    fn verdict(&self) -> String {
        format!("{} {} regression(s)", self.regressions.len(), R::KIND)
    }

    fn render(&self) -> String {
        self.rendered(R::line, "")
    }

    fn render_explain(&self) -> String {
        self.rendered(R::explain, ", exact comparison")
    }
}
