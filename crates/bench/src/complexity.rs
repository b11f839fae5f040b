//! The algorithmic work observatory: pinned scaling scenarios,
//! empirical complexity curves, and an **exact** asymptotic gate — the
//! `complexity` kind of the [observatory](crate::observatory).
//!
//! The perf kind ([`crate::perf`]) watches wall time, which on a noisy
//! CI box needs MAD slack of up to 25% — far too coarse to lock in (or
//! even detect) asymptotic wins. The solvers, however, have crisp
//! *work* profiles: YDS is interval scans, OA is hull pushes and pops,
//! BKP is window slides, Frank–Wolfe is gradient evaluations. Every hot
//! path increments a deterministic counter from the
//! [`qbss_core::work::WORK_COUNTERS`] catalog, counting algorithmic
//! progress only — never wall clock, shard layout, or log level — so
//! two runs of the same code produce *byte-identical* counts and the
//! gate can be exact, the way the quality gate already is.
//!
//! `qbss complexity record` sweeps each pinned scenario over its
//! n-grid, captures the per-cell counter deltas with the observatory's
//! [`work_delta`] bracket, fits a log-log least-squares slope per
//! counter (the empirical exponent, with R²), and serializes a
//! canonical `qbss-complexity-baseline/1` document — committed as
//! `BENCH_complexity.json`. The gate fails on **any** increased op count
//! at any grid point, any fitted-exponent increase beyond
//! [`EXPONENT_TOL`], or lost counter/scenario coverage; `--explain`
//! names the counter, grid point, and old → new counts.

use std::collections::BTreeMap;

use qbss_core::pipeline::Algorithm;
use qbss_instances::gen::{generate, GenConfig};
use qbss_telemetry::{json_escape, json_f64, JsonValue};
use speed_scaling::job::{Instance, Job};
use speed_scaling::multi::multi_opt_frank_wolfe;
use speed_scaling::stream::{release_ordered, AvrStream, BkpStream, OaStream};
use speed_scaling::yds::yds_profile;

use crate::engine::{run_sweep, EngineError, InstanceSource, SweepSpec};
use crate::observatory::{
    json_rows, object, open_document, pick, work_delta, BuildInfo, ExactFinding, ExactReport,
    Gate, ObservatoryError, Scenario,
};

/// The on-disk schema tag; bump on incompatible baseline changes.
pub const COMPLEXITY_SCHEMA: &str = "qbss-complexity-baseline/1";

/// Exact tolerance on fitted-exponent increases. Counts gate exactly;
/// the exponent is a *fit* over exact counts, so tiny grid-local wiggle
/// (a different constant term, not a different asymptotic class) is
/// allowed this much slack before it counts as a regression.
pub const EXPONENT_TOL: f64 = 0.05;

// ---------------------------------------------------------------------
// Scenarios
// ---------------------------------------------------------------------

/// A pinned scaling scenario. Everything (generator seeds, algorithm
/// parameters, grid) is pinned, so the counter deltas are a pure
/// function of the code under test.
pub type ComplexityScenario = Scenario<Scaling>;

/// What a scaling scenario runs: one workload at each size of an n-grid.
#[derive(Debug, Clone, Copy)]
pub struct Scaling {
    /// The n-grid this scenario sweeps.
    pub grid: &'static [usize],
    run: fn(usize) -> Result<(), EngineError>,
}

impl Scaling {
    /// Executes the pinned workload at size `n` (counter side effects
    /// land in the global registry; callers bracket with snapshots).
    pub fn run(&self, n: usize) -> Result<(), EngineError> {
        (self.run)(n)
    }
}

/// The shared instance family: the `online_default` generator keeps the
/// job *density* roughly constant as `n` grows (horizon scales with n,
/// window lengths don't), so the active set stays O(1) and per-arrival
/// asymptotics are visible instead of being drowned by a growing
/// frontier.
fn classical_online(n: usize, seed: u64) -> Instance {
    let q = generate(&GenConfig::online_default(n, seed));
    Instance::new(
        q.jobs
            .iter()
            .map(|j| Job::new(j.id, j.release, j.deadline, j.upper_bound))
            .collect(),
    )
}

fn run_yds(n: usize) -> Result<(), EngineError> {
    let _ = yds_profile(&classical_online(n, 0));
    Ok(())
}

fn run_avr(n: usize) -> Result<(), EngineError> {
    let mut s = AvrStream::new();
    for job in release_ordered(&classical_online(n, 0)) {
        s.on_arrival(job);
    }
    let _ = s.finish();
    Ok(())
}

fn run_oa(n: usize) -> Result<(), EngineError> {
    let mut s = OaStream::new();
    for job in release_ordered(&classical_online(n, 0)) {
        s.on_arrival(job);
    }
    let _ = s.finish();
    Ok(())
}

fn run_bkp(n: usize) -> Result<(), EngineError> {
    let mut s = BkpStream::new();
    for job in release_ordered(&classical_online(n, 0)) {
        s.on_arrival(job);
    }
    let _ = s.finish();
    Ok(())
}

fn run_fw(n: usize) -> Result<(), EngineError> {
    let _ = multi_opt_frank_wolfe(&classical_online(n, 0), 3, 3.0, 12);
    Ok(())
}

fn run_engine(n: usize) -> Result<(), EngineError> {
    // End-to-end through the engine: exercises the streaming core
    // (`solver.*`) and the OPT-energy memo (`cache.*`) on top of the
    // solver counters. Shards are pinned to 1 — counter *totals* are
    // shard-independent (see `work_counters.rs`), but the record path
    // stays maximally boring on purpose.
    let spec = SweepSpec {
        source: InstanceSource::Generated {
            base: GenConfig::online_default(n, 0),
            seeds: 0..3,
        },
        algorithms: vec![Algorithm::Avrq, Algorithm::Oaq],
        alphas: vec![3.0],
        opt_fw_iters: 0,
    };
    run_sweep(&spec, 1).map(|_| ())
}

/// Every named complexity scenario, in canonical order.
pub fn scenarios() -> Vec<ComplexityScenario> {
    vec![
        ComplexityScenario {
            name: "yds-offline",
            work: Scaling { grid: &[50, 100, 200, 400, 800], run: run_yds },
        },
        ComplexityScenario {
            name: "avr-stream",
            work: Scaling { grid: &[500, 1000, 2000, 4000], run: run_avr },
        },
        ComplexityScenario {
            name: "oa-stream",
            work: Scaling { grid: &[200, 400, 800, 1600], run: run_oa },
        },
        ComplexityScenario {
            name: "bkp-stream",
            work: Scaling { grid: &[50, 100, 200, 400], run: run_bkp },
        },
        ComplexityScenario {
            name: "fw-multi",
            work: Scaling { grid: &[8, 16, 32, 64], run: run_fw },
        },
        ComplexityScenario {
            name: "engine-online",
            work: Scaling { grid: &[40, 80, 160, 320], run: run_engine },
        },
    ]
}

// ---------------------------------------------------------------------
// Exponent fit
// ---------------------------------------------------------------------

/// A log-log least-squares fit over a counter's grid series: if
/// `count ≈ C·n^e`, the slope of `ln count` against `ln n` is the
/// empirical exponent `e` and R² says how well a pure power law
/// explains the series.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PowerFit {
    /// Fitted exponent (log-log slope).
    pub exponent: f64,
    /// Coefficient of determination of the fit, in `[0, 1]`.
    pub r2: f64,
}

/// Fits `counts[i] ≈ C·grid[i]^e` by least squares in log-log space.
/// Zero counts carry no slope information (`ln 0` is undefined) and are
/// skipped; fewer than two positive points means no fit.
pub fn fit_loglog(grid: &[usize], counts: &[u64]) -> Option<PowerFit> {
    let pts: Vec<(f64, f64)> = grid
        .iter()
        .zip(counts)
        .filter(|&(_, &c)| c > 0)
        .map(|(&n, &c)| ((n as f64).ln(), (c as f64).ln()))
        .collect();
    if pts.len() < 2 {
        return None;
    }
    let k = pts.len() as f64;
    let sx: f64 = pts.iter().map(|p| p.0).sum();
    let sy: f64 = pts.iter().map(|p| p.1).sum();
    let sxx: f64 = pts.iter().map(|p| p.0 * p.0).sum();
    let sxy: f64 = pts.iter().map(|p| p.0 * p.1).sum();
    let denom = k * sxx - sx * sx;
    if denom.abs() < 1e-12 {
        return None; // all points at the same n
    }
    let slope = (k * sxy - sx * sy) / denom;
    let intercept = (sy - slope * sx) / k;
    let mean_y = sy / k;
    let ss_tot: f64 = pts.iter().map(|p| (p.1 - mean_y).powi(2)).sum();
    let ss_res: f64 =
        pts.iter().map(|p| (p.1 - (intercept + slope * p.0)).powi(2)).sum();
    let r2 = if ss_tot <= 1e-12 { 1.0 } else { (1.0 - ss_res / ss_tot).max(0.0) };
    Some(PowerFit { exponent: slope, r2 })
}

// ---------------------------------------------------------------------
// Recording
// ---------------------------------------------------------------------

/// One counter's exact grid series inside a scenario, plus its fit.
#[derive(Debug, Clone, PartialEq)]
pub struct CounterSeries {
    /// Catalogued counter name (see [`qbss_core::work::WORK_COUNTERS`]).
    pub counter: String,
    /// Exact op count at each grid point, aligned with the scenario
    /// grid.
    pub counts: Vec<u64>,
    /// Log-log fit over the positive grid points, if ≥ 2 exist.
    pub fit: Option<PowerFit>,
}

/// One recorded scenario: its grid and the per-counter series (sorted
/// by counter name).
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioComplexity {
    /// The n-grid the scenario swept.
    pub grid: Vec<usize>,
    /// Per-counter series, sorted by counter name.
    pub counters: Vec<CounterSeries>,
}

/// A recorded complexity baseline. Serializes canonically; because
/// every input is pinned and the counters are deterministic, two
/// records of the same build are byte-identical.
#[derive(Debug, Clone, PartialEq)]
pub struct ComplexityBaseline {
    /// The build that produced these numbers (informational; the gate
    /// ignores it).
    pub build: BuildInfo,
    /// Series by scenario name (sorted).
    pub scenarios: BTreeMap<String, ScenarioComplexity>,
}

// ---------------------------------------------------------------------
// Serialization
// ---------------------------------------------------------------------

fn json_fit(fit: Option<PowerFit>) -> (String, String) {
    match fit {
        None => ("null".to_string(), "null".to_string()),
        Some(f) => (json_f64(f.exponent), json_f64(f.r2)),
    }
}

/// Reads the integer array at `v[key]` (`what` names it in errors).
fn u64_array(v: &JsonValue, key: &str, what: &str) -> Result<Vec<u64>, String> {
    let Some(JsonValue::Arr(items)) = v.get(key) else {
        return Err(format!("{what} must have a `{key}` array"));
    };
    items.iter().map(|x| x.as_u64().ok_or_else(|| format!("{what} has a non-integer entry"))).collect()
}

impl ComplexityBaseline {
    /// The `(scenario, n, counter, count)` grid as CSV, for offline
    /// plotting (`qbss complexity record --format csv`).
    pub fn to_csv(&self) -> String {
        let mut out = String::from("scenario,n,counter,count\n");
        for (name, s) in &self.scenarios {
            for c in &s.counters {
                for (&n, &count) in s.grid.iter().zip(&c.counts) {
                    out.push_str(&format!("{name},{n},{},{count}\n", c.counter));
                }
            }
        }
        out
    }
}

impl Gate for ComplexityBaseline {
    const KIND: &'static str = "complexity";
    const SCHEMA: &'static str = COMPLEXITY_SCHEMA;
    type Config = ();
    type Report = ComplexityCompare;

    /// Sweeps `names` (all scenarios when empty) over their n-grids and
    /// returns the recorded baseline. Each grid cell runs inside the
    /// [`work_delta`] bracket; cells run serially in one process, so the
    /// deltas attribute cleanly. Counters a scenario never moves are
    /// someone else's coverage and are left out.
    fn record(names: &[String], _: &()) -> Result<Self, ObservatoryError> {
        let mut out = BTreeMap::new();
        for sc in pick(scenarios(), names)? {
            let grid = sc.work.grid;
            let mut series: BTreeMap<String, Vec<u64>> = BTreeMap::new();
            for (i, &n) in grid.iter().enumerate() {
                let (run, delta) = work_delta(|| sc.work.run(n));
                run?;
                for (name, d) in delta {
                    series.entry(name).or_insert_with(|| vec![0; grid.len()])[i] = d;
                }
            }
            let counters = series
                .into_iter()
                .map(|(counter, counts)| {
                    let fit = fit_loglog(grid, &counts);
                    CounterSeries { counter, counts, fit }
                })
                .collect();
            out.insert(sc.name.to_string(), ScenarioComplexity { grid: grid.to_vec(), counters });
        }
        Ok(ComplexityBaseline { build: BuildInfo::capture(), scenarios: out })
    }

    fn scenario_names(&self) -> Vec<String> {
        self.scenarios.keys().cloned().collect()
    }

    fn to_json(&self) -> String {
        let mut out = open_document(COMPLEXITY_SCHEMA, &self.build.to_json());
        out.push_str("  \"scenarios\": {\n");
        out.push_str(&json_rows(self.scenarios.iter().map(|(name, s)| {
            let grid: Vec<String> = s.grid.iter().map(|g| g.to_string()).collect();
            let counters = json_rows(s.counters.iter().map(|c| {
                let counts: Vec<String> = c.counts.iter().map(|v| v.to_string()).collect();
                let (exponent, r2) = json_fit(c.fit);
                format!(
                    "      {{\"counter\": \"{}\", \"counts\": [{}], \
                     \"exponent\": {exponent}, \"r2\": {r2}}}",
                    json_escape(&c.counter),
                    counts.join(", "),
                )
            }));
            format!(
                "    \"{}\": {{\"grid\": [{}], \"counters\": [\n{counters}    ]}}",
                json_escape(name),
                grid.join(", ")
            )
        })));
        out.push_str("  }\n}\n");
        out
    }

    fn from_json(doc: &JsonValue) -> Result<Self, String> {
        let mut scenarios = BTreeMap::new();
        for (name, s) in object(doc, "scenarios")? {
            let grid: Vec<usize> = u64_array(s, "grid", &format!("scenario `{name}`"))?
                .into_iter()
                .map(|g| g as usize)
                .collect();
            let Some(JsonValue::Arr(raw_counters)) = s.get("counters") else {
                return Err(format!("scenario `{name}`: `counters` must be an array"));
            };
            let mut counters = Vec::with_capacity(raw_counters.len());
            for c in raw_counters {
                let counter = c
                    .get("counter")
                    .and_then(JsonValue::as_str)
                    .ok_or_else(|| format!("scenario `{name}`: series missing `counter`"))?
                    .to_string();
                let counts = u64_array(c, "counts", &format!("scenario `{name}`: `{counter}`"))?;
                if counts.len() != grid.len() {
                    return Err(format!(
                        "scenario `{name}`: `{counter}` has {} counts for {} grid points",
                        counts.len(),
                        grid.len()
                    ));
                }
                let fit = match (
                    c.get("exponent").and_then(JsonValue::as_f64),
                    c.get("r2").and_then(JsonValue::as_f64),
                ) {
                    (Some(exponent), Some(r2)) => Some(PowerFit { exponent, r2 }),
                    _ => None,
                };
                counters.push(CounterSeries { counter, counts, fit });
            }
            scenarios.insert(name.clone(), ScenarioComplexity { grid, counters });
        }
        Ok(ComplexityBaseline { build: BuildInfo::from_json(doc), scenarios })
    }

    fn compare(base: &Self, new: &Self) -> ComplexityCompare {
        compare(base, new)
    }
}

// ---------------------------------------------------------------------
// Comparison / gating
// ---------------------------------------------------------------------

/// One exact complexity regression.
#[derive(Debug, Clone, PartialEq)]
pub struct ComplexityRegression {
    /// Scenario name.
    pub scenario: String,
    /// Counter name (empty for scenario-level regressions).
    pub counter: String,
    /// What worsened: `"op count"`, `"exponent"`, `"scenario removed"`,
    /// `"counter removed"`, or `"grid changed"`.
    pub what: &'static str,
    /// The grid point (n) for op-count regressions.
    pub n: Option<usize>,
    /// The committed value.
    pub base: Option<f64>,
    /// The freshly measured value.
    pub new: Option<f64>,
}

/// Everything `qbss complexity compare` / `gate` reports: counter
/// series checked (both sides present, same grid) and the exact
/// regressions, in scenario/counter order.
pub type ComplexityCompare = ExactReport<ComplexityRegression>;

fn fmt_val(what: &str, v: Option<f64>) -> String {
    match v {
        None => "-".to_string(),
        Some(x) if what == "op count" => format!("{x:.0}"),
        Some(x) => format!("{x:.3}"),
    }
}

impl ExactFinding for ComplexityRegression {
    const KIND: &'static str = "complexity";
    const CHECKED: &'static str = "counter series";

    fn line(&self) -> String {
        let at = self.n.map_or(String::new(), |n| format!(" @ n={n}"));
        let counter = if self.counter.is_empty() { "-" } else { &self.counter };
        format!(
            "{}  {}  {}{}  {} -> {}  WORSE\n",
            self.scenario,
            counter,
            self.what,
            at,
            fmt_val(self.what, self.base),
            fmt_val(self.what, self.new)
        )
    }

    /// The regression with the counter, grid point, and old → new values
    /// spelled out.
    fn explain(&self) -> String {
        let (base, new) = (fmt_val(self.what, self.base), fmt_val(self.what, self.new));
        match self.what {
            "op count" => format!(
                "scenario `{}` counter `{}`: op count at n={} worsened {base} -> {new}\n",
                self.scenario,
                self.counter,
                self.n.map_or("-".to_string(), |n| n.to_string()),
            ),
            "exponent" => format!(
                "scenario `{}` counter `{}`: fitted exponent worsened {base} -> {new} \
                 (tolerance +{EXPONENT_TOL})\n",
                self.scenario, self.counter,
            ),
            _ => {
                let counter =
                    if self.counter.is_empty() { String::new() } else { format!(" `{}`", self.counter) };
                format!("scenario `{}`{}: {}\n", self.scenario, counter, self.what)
            }
        }
    }
}

/// Diffs `new` against `base`, exactly. Counters are deterministic, so
/// **any** increased op count at any grid point is a regression — no
/// noise threshold. Fitted exponents get [`EXPONENT_TOL`] slack (the
/// fit is derived, not measured). Dropped scenarios or counters, or a
/// changed grid, regress too: coverage must not silently shrink.
/// Series only present in `new` are informational.
pub fn compare(base: &ComplexityBaseline, new: &ComplexityBaseline) -> ComplexityCompare {
    let mut report = ComplexityCompare::default();
    for (name, b) in &base.scenarios {
        // Every worsened quantity of this scenario:
        // (counter, what, grid point, base, new).
        let mut worse = Vec::new();
        match new.scenarios.get(name) {
            None => worse.push(("", "scenario removed", None, None, None)),
            // Counts at different sizes don't compare.
            Some(n) if b.grid != n.grid => {
                let (bl, nl) = (b.grid.len() as f64, n.grid.len() as f64);
                worse.push(("", "grid changed", None, Some(bl), Some(nl)));
            }
            Some(n) => {
                for bc in &b.counters {
                    let c = bc.counter.as_str();
                    let Some(nc) = n.counters.iter().find(|x| x.counter == bc.counter) else {
                        worse.push((c, "counter removed", None, None, None));
                        continue;
                    };
                    report.checked += 1;
                    for ((&gn, &bv), &nv) in b.grid.iter().zip(&bc.counts).zip(&nc.counts) {
                        if nv > bv {
                            worse.push((c, "op count", Some(gn), Some(bv as f64), Some(nv as f64)));
                        }
                    }
                    if let (Some(bf), Some(nf)) = (bc.fit, nc.fit) {
                        if nf.exponent > bf.exponent + EXPONENT_TOL {
                            worse.push((c, "exponent", None, Some(bf.exponent), Some(nf.exponent)));
                        }
                    }
                }
            }
        }
        report.regressions.extend(worse.into_iter().map(|(counter, what, n, b, nv)| {
            ComplexityRegression {
                scenario: name.clone(),
                counter: counter.to_string(),
                what,
                n,
                base: b,
                new: nv,
            }
        }));
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::observatory::GateReport;

    fn scenario(name: &str) -> Option<ComplexityScenario> {
        pick(scenarios(), &[name.to_string()]).ok().map(|mut v| v.remove(0))
    }

    fn series(counter: &str, grid: &[usize], counts: &[u64]) -> CounterSeries {
        CounterSeries {
            counter: counter.to_string(),
            counts: counts.to_vec(),
            fit: fit_loglog(grid, counts),
        }
    }

    fn baseline(entries: &[(&str, Vec<usize>, Vec<CounterSeries>)]) -> ComplexityBaseline {
        ComplexityBaseline {
            build: BuildInfo { version: "0.0.0-test".into(), git: "deadbeef".into() },
            scenarios: entries
                .iter()
                .map(|(name, grid, counters)| {
                    (
                        name.to_string(),
                        ScenarioComplexity { grid: grid.clone(), counters: counters.clone() },
                    )
                })
                .collect(),
        }
    }

    #[test]
    fn scenario_table_is_well_formed() {
        let all = scenarios();
        assert!(all.len() >= 6);
        let mut names: Vec<&str> = all.iter().map(|s| s.name).collect();
        names.dedup();
        assert_eq!(names.len(), all.len(), "names must be unique");
        assert!(scenario("yds-offline").is_some());
        assert!(scenario("nope").is_none());
        for s in &all {
            assert!(s.work.grid.len() >= 2, "{}: need >= 2 grid points for a fit", s.name);
            assert!(s.work.grid.windows(2).all(|w| w[0] < w[1]), "{}: grid must grow", s.name);
        }
    }

    #[test]
    fn fit_recovers_exact_power_laws() {
        let grid = [100usize, 200, 400, 800];
        // counts = n^2 exactly.
        let quad: Vec<u64> = grid.iter().map(|&n| (n * n) as u64).collect();
        let f = fit_loglog(&grid, &quad).expect("fit");
        assert!((f.exponent - 2.0).abs() < 1e-9, "{f:?}");
        assert!(f.r2 > 0.999999, "{f:?}");
        // counts = 7n exactly.
        let lin: Vec<u64> = grid.iter().map(|&n| 7 * n as u64).collect();
        let f = fit_loglog(&grid, &lin).expect("fit");
        assert!((f.exponent - 1.0).abs() < 1e-9, "{f:?}");
        // A constant series fits slope 0 perfectly.
        let f = fit_loglog(&grid, &[5, 5, 5, 5]).expect("fit");
        assert!(f.exponent.abs() < 1e-9 && (f.r2 - 1.0).abs() < 1e-9, "{f:?}");
    }

    #[test]
    fn fit_skips_zeros_and_degenerate_series() {
        let grid = [100usize, 200, 400, 800];
        // Zeros are skipped, not treated as ln(0).
        let f = fit_loglog(&grid, &[0, 200, 400, 800]).expect("fit");
        assert!((f.exponent - 1.0).abs() < 1e-9, "{f:?}");
        // Fewer than two positive points: no fit.
        assert!(fit_loglog(&grid, &[0, 0, 0, 7]).is_none());
        assert!(fit_loglog(&grid, &[0, 0, 0, 0]).is_none());
    }

    #[test]
    fn baseline_round_trips_through_json() {
        let grid = vec![100usize, 200, 400];
        let b = baseline(&[
            (
                "a",
                grid.clone(),
                vec![
                    series("yds.intervals_scanned", &grid, &[100, 800, 6400]),
                    series("yds.density_evals", &grid, &[0, 0, 7]), // no fit
                ],
            ),
            ("b", vec![10, 20], vec![series("oa.hull_updates", &[10, 20], &[10, 20])]),
        ]);
        let json = b.to_json();
        let back = ComplexityBaseline::parse(&json).expect("round trip");
        assert_eq!(back, b);
        assert_eq!(back.to_json(), json, "canonical form is stable");
    }

    #[test]
    fn parse_rejects_foreign_or_broken_documents() {
        assert!(matches!(ComplexityBaseline::parse("{}"), Err(ObservatoryError::Parse { .. })));
        assert!(matches!(
            ComplexityBaseline::parse("not json"),
            Err(ObservatoryError::Parse { .. })
        ));
        let wrong = "{\"schema\": \"qbss-complexity-baseline/999\", \"scenarios\": {}}";
        let err = ComplexityBaseline::parse(wrong).expect_err("wrong schema");
        assert!(err.to_string().contains("schema"), "{err}");
    }

    #[test]
    fn csv_lists_every_grid_cell() {
        let grid = vec![10usize, 20];
        let b = baseline(&[("a", grid.clone(), vec![series("oa.hull_updates", &grid, &[11, 21])])]);
        let csv = b.to_csv();
        assert!(csv.starts_with("scenario,n,counter,count\n"), "{csv}");
        assert!(csv.contains("a,10,oa.hull_updates,11\n"), "{csv}");
        assert!(csv.contains("a,20,oa.hull_updates,21\n"), "{csv}");
    }

    #[test]
    fn identical_baselines_are_clean() {
        let grid = vec![100usize, 200];
        let b = baseline(&[("a", grid.clone(), vec![series("x.ops", &grid, &[5, 10])])]);
        let report = compare(&b, &b.clone());
        assert!(report.is_clean());
        assert_eq!(report.checked, 1);
        assert!(report.render().contains("no complexity regression"));
    }

    #[test]
    fn any_count_increase_is_a_regression() {
        let grid = vec![100usize, 200];
        let base = baseline(&[("a", grid.clone(), vec![series("x.ops", &grid, &[100, 200])])]);
        let new = baseline(&[("a", grid.clone(), vec![series("x.ops", &grid, &[100, 201])])]);
        let report = compare(&base, &new);
        assert_eq!(report.regressions.len(), 1, "{report:?}");
        let r = &report.regressions[0];
        assert_eq!((r.what, r.n), ("op count", Some(200)));
        let out = report.render_explain();
        assert!(out.contains("counter `x.ops`"), "{out}");
        assert!(out.contains("n=200"), "{out}");
        assert!(out.contains("200 -> 201"), "{out}");
        // A decrease is an improvement, not a regression.
        let better = baseline(&[("a", grid.clone(), vec![series("x.ops", &grid, &[90, 180])])]);
        assert!(compare(&base, &better).is_clean());
    }

    #[test]
    fn exponent_increase_beyond_tolerance_regresses() {
        let grid = vec![100usize, 200, 400];
        // Base is linear; new is quadratic — the exponent jumps by ~1,
        // and every count at every grid point also worsens.
        let base = baseline(&[("a", grid.clone(), vec![series("x.ops", &grid, &[100, 200, 400])])]);
        let new = baseline(&[(
            "a",
            grid.clone(),
            vec![series("x.ops", &grid, &[10000, 40000, 160000])],
        )]);
        let report = compare(&base, &new);
        assert!(report.regressions.iter().any(|r| r.what == "exponent"), "{report:?}");
        // Within tolerance: counts identical, exponent equal — clean.
        assert!(compare(&base, &base).is_clean());
    }

    #[test]
    fn lost_coverage_is_a_regression() {
        let grid = vec![100usize, 200];
        let base = baseline(&[
            (
                "a",
                grid.clone(),
                vec![series("x.ops", &grid, &[1, 2]), series("y.ops", &grid, &[3, 4])],
            ),
            ("gone", grid.clone(), vec![series("z.ops", &grid, &[5, 6])]),
        ]);
        let new = baseline(&[("a", grid.clone(), vec![series("x.ops", &grid, &[1, 2])])]);
        let report = compare(&base, &new);
        let whats: Vec<&str> = report.regressions.iter().map(|r| r.what).collect();
        assert!(whats.contains(&"scenario removed"), "{whats:?}");
        assert!(whats.contains(&"counter removed"), "{whats:?}");
        // A changed grid makes counts incomparable — also a regression.
        let regridded = baseline(&[
            ("a", vec![100, 300], vec![series("x.ops", &[100, 300], &[1, 2])]),
            ("gone", grid.clone(), vec![series("z.ops", &grid, &[5, 6])]),
        ]);
        let report = compare(&base, &regridded);
        assert!(report.regressions.iter().any(|r| r.what == "grid changed"), "{report:?}");
        // New-only series are informational, never regressions.
        let extra = baseline(&[
            (
                "a",
                grid.clone(),
                vec![
                    series("x.ops", &grid, &[1, 2]),
                    series("y.ops", &grid, &[3, 4]),
                    series("w.ops", &grid, &[9, 9]),
                ],
            ),
            ("gone", grid.clone(), vec![series("z.ops", &grid, &[5, 6])]),
        ]);
        assert!(compare(&base, &extra).is_clean());
    }

    #[test]
    fn unknown_scenario_is_rejected() {
        let err = ComplexityBaseline::record(&["bogus".to_string()], &()).expect_err("unknown scenario");
        assert!(matches!(err, ObservatoryError::UnknownScenario { .. }));
        assert!(err.to_string().contains("yds-offline"), "{err}");
    }
}
