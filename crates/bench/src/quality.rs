//! Quality baselines: pinned competitive-ratio scenarios and an
//! **exact** regression gate — the `quality` kind of the
//! [observatory](crate::observatory).
//!
//! The perf kind ([`crate::perf`]) watches wall time, which is noisy, so
//! its gate is statistical (MAD slack + a relative floor). Solution
//! quality is different: every quality scenario pins its generator seeds
//! and the engine's aggregates are byte-deterministic at any shard
//! count, so two runs of the same code produce *identical* ratio
//! statistics. That lets the quality gate be exact — **any** increase of
//! a group's max ALG/OPT ratio or of its bound headroom (measured max ÷
//! the proven Table 1 bound) against the committed `BENCH_quality.json`
//! is a regression, with no noise threshold to hide behind.
//!
//! `qbss quality record` evaluates the scenario table through
//! [`run_sweep`] and serializes per-group `max / mean / p95` energy
//! ratios, the proven bound, the headroom, and the reproducible worst
//! cell (seed, instance) into a canonical `qbss-quality-baseline/1`
//! document; `gate --explain` names the offending scenario, seed, and
//! instance.

use std::collections::BTreeMap;

use qbss_analysis::stats::percentile_sorted;
use qbss_core::pipeline::Algorithm;
use qbss_instances::gen::{Compressibility, GenConfig, QueryModel, TimeModel};
use qbss_telemetry::{json_escape, json_f64, JsonValue};

use crate::engine::{run_sweep, InstanceSource, SweepSpec, WorstCell};
use crate::observatory::{
    json_rows, object, open_document, pick, BuildInfo, ExactFinding, ExactReport, Gate,
    ObservatoryError, Scenario,
};

/// The on-disk schema tag; bump on incompatible baseline changes.
pub const QUALITY_SCHEMA: &str = "qbss-quality-baseline/1";

// ---------------------------------------------------------------------
// Scenarios
// ---------------------------------------------------------------------

/// A quality scenario: generator family × algorithm set × α grid × seed
/// range, as a pinned sweep spec, so the recorded statistics are a pure
/// function of the code under test.
pub type QualityScenario = Scenario<fn() -> SweepSpec>;

impl QualityScenario {
    /// The pinned sweep spec this scenario evaluates.
    pub fn spec(&self) -> SweepSpec {
        (self.work)()
    }
}

fn golden_common() -> SweepSpec {
    SweepSpec {
        source: InstanceSource::Generated {
            base: GenConfig::common_deadline(10, 8.0, 0),
            seeds: 0..50,
        },
        algorithms: vec![Algorithm::Crcd, Algorithm::Avrq, Algorithm::Bkpq],
        alphas: vec![2.0, 3.0],
        opt_fw_iters: 0,
    }
}

fn golden_online() -> SweepSpec {
    SweepSpec {
        source: InstanceSource::Generated {
            base: GenConfig::online_default(24, 0),
            seeds: 0..40,
        },
        algorithms: vec![Algorithm::Avrq, Algorithm::Bkpq, Algorithm::Oaq],
        alphas: vec![2.0, 3.0],
        opt_fw_iters: 0,
    }
}

/// Heavy-tailed compressibility: most payloads compress a lot, so the
/// query decision dominates the ratio — the family most sensitive to
/// changes in the golden-ratio query rule.
fn heavytail_online() -> SweepSpec {
    SweepSpec {
        source: InstanceSource::Generated {
            base: GenConfig {
                n: 16,
                seed: 0,
                time: TimeModel::Online { horizon: 4.0, min_len: 0.5, max_len: 4.0 },
                min_w: 0.5,
                max_w: 4.0,
                query: QueryModel::UniformFraction { lo: 0.1, hi: 0.6 },
                compress: Compressibility::HeavyTail,
            },
            seeds: 0..40,
        },
        algorithms: vec![Algorithm::Avrq, Algorithm::Bkpq],
        alphas: vec![2.0, 3.0],
        opt_fw_iters: 0,
    }
}

fn multi_machine() -> SweepSpec {
    SweepSpec {
        source: InstanceSource::Generated {
            base: GenConfig::online_default(12, 0),
            seeds: 0..16,
        },
        algorithms: vec![Algorithm::AvrqM { m: 3 }, Algorithm::AvrqMNonmig { m: 3 }],
        alphas: vec![3.0],
        opt_fw_iters: 4,
    }
}

/// Every named quality scenario, in canonical order.
pub fn scenarios() -> Vec<QualityScenario> {
    vec![
        QualityScenario { name: "golden-common", work: golden_common },
        QualityScenario { name: "golden-online", work: golden_online },
        QualityScenario { name: "heavytail-online", work: heavytail_online },
        QualityScenario { name: "multi-machine", work: multi_machine },
    ]
}

// ---------------------------------------------------------------------
// Recording
// ---------------------------------------------------------------------

/// Ratio statistics of one *(algorithm, α)* group of a scenario.
#[derive(Debug, Clone, PartialEq)]
pub struct GroupQuality {
    /// Canonical algorithm string.
    pub algorithm: String,
    /// The group's power exponent.
    pub alpha: f64,
    /// Max ALG/OPT energy ratio over the pinned seeds.
    pub max: f64,
    /// Mean energy ratio (canonical cell order).
    pub mean: f64,
    /// 95th percentile of the energy ratio.
    pub p95: f64,
    /// The proven Table 1 bound for this family at this α, if any.
    pub bound: Option<f64>,
    /// `max / bound` — how much of the proven bound the measured worst
    /// case consumes. `None` when no bound is proven for the family.
    pub headroom: Option<f64>,
    /// The reproducible argmax cell behind `max`.
    pub worst: Option<WorstCell>,
}

/// One recorded scenario: grid size plus per-group statistics.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioQuality {
    /// Total cells evaluated (`spec.n_cells()`).
    pub cells: usize,
    /// Per-group stats, in spec order (algorithms outer, alphas inner).
    pub groups: Vec<GroupQuality>,
}

/// A recorded quality baseline. Serializes canonically (sorted scenario
/// keys, fixed field order), and — because every input is pinned — two
/// records of the same build are byte-identical.
#[derive(Debug, Clone, PartialEq)]
pub struct QualityBaseline {
    /// The build that produced these numbers (informational; the gate
    /// ignores it, so re-records on another commit still byte-compare
    /// per scenario).
    pub build: BuildInfo,
    /// Stats by scenario name (sorted).
    pub scenarios: BTreeMap<String, ScenarioQuality>,
}

// ---------------------------------------------------------------------
// Serialization
// ---------------------------------------------------------------------

fn json_opt(v: Option<f64>) -> String {
    v.map_or_else(|| "null".to_string(), json_f64)
}

fn json_worst(w: Option<WorstCell>) -> String {
    match w {
        None => "null".to_string(),
        Some(w) => format!(
            "{{\"instance\": {}, \"seed\": {}, \"energy_ratio\": {}}}",
            w.instance,
            w.seed.map_or_else(|| "null".to_string(), |s| s.to_string()),
            json_f64(w.energy_ratio)
        ),
    }
}

/// Reads one group object of a scenario's `groups` array.
fn parse_group(name: &str, g: &JsonValue) -> Result<GroupQuality, String> {
    let need_f64 = |key: &str| {
        g.get(key)
            .and_then(JsonValue::as_f64)
            .ok_or_else(|| format!("scenario `{name}`: missing number `{key}`"))
    };
    let worst = match g.get("worst") {
        None | Some(JsonValue::Null) => None,
        Some(w) => Some(WorstCell {
            instance: w
                .get("instance")
                .and_then(JsonValue::as_u64)
                .ok_or_else(|| format!("scenario `{name}`: worst cell missing `instance`"))?
                as usize,
            seed: w.get("seed").and_then(JsonValue::as_u64),
            energy_ratio: w.get("energy_ratio").and_then(JsonValue::as_f64).unwrap_or(f64::NAN),
        }),
    };
    Ok(GroupQuality {
        algorithm: g
            .get("algorithm")
            .and_then(JsonValue::as_str)
            .ok_or_else(|| format!("scenario `{name}`: group missing `algorithm`"))?
            .to_string(),
        alpha: need_f64("alpha")?,
        max: need_f64("max")?,
        mean: need_f64("mean")?,
        p95: need_f64("p95")?,
        bound: g.get("bound").and_then(JsonValue::as_f64),
        headroom: g.get("headroom").and_then(JsonValue::as_f64),
        worst,
    })
}

impl Gate for QualityBaseline {
    const KIND: &'static str = "quality";
    const SCHEMA: &'static str = QUALITY_SCHEMA;
    /// Engine shard count (0 = all cores).
    type Config = usize;
    type Report = QualityCompare;

    /// Evaluates `names` (all scenarios when empty) through the engine and
    /// returns the recorded baseline. `shards = 0` uses all cores — the
    /// statistics are byte-identical either way.
    fn record(names: &[String], shards: &usize) -> Result<Self, ObservatoryError> {
        let mut out = BTreeMap::new();
        for sc in pick(scenarios(), names)? {
            let spec = sc.spec();
            let report = run_sweep(&spec, *shards)?;
            let n_alphas = spec.alphas.len();
            let mut groups = Vec::with_capacity(report.groups.len());
            for (gi, g) in report.groups.iter().enumerate() {
                let dirty = |errors| ObservatoryError::Dirty { scenario: sc.name.to_string(), errors };
                if g.errors > 0 {
                    return Err(dirty(g.errors));
                }
                let (alg_idx, alpha_idx) = (gi / n_alphas, gi % n_alphas);
                // p95 is not part of the engine digest; derive it from the
                // per-cell records the same canonical way the digest is.
                let mut ratios: Vec<f64> = report
                    .records
                    .iter()
                    .filter(|r| r.algorithm == alg_idx && r.alpha == alpha_idx)
                    .filter_map(|r| r.result.as_ref().ok().map(|m| m.energy_ratio))
                    .collect();
                ratios.sort_by(f64::total_cmp);
                let digest = g.energy_ratio.as_ref().ok_or_else(|| dirty(0))?;
                groups.push(GroupQuality {
                    algorithm: g.algorithm.clone(),
                    alpha: g.alpha,
                    max: digest.max,
                    mean: digest.mean,
                    p95: percentile_sorted(&ratios, 0.95),
                    bound: g.energy_bound,
                    headroom: g.energy_bound.map(|b| digest.max / b),
                    worst: g.worst_cell,
                });
            }
            out.insert(sc.name.to_string(), ScenarioQuality { cells: spec.n_cells(), groups });
        }
        Ok(QualityBaseline { build: BuildInfo::capture(), scenarios: out })
    }

    fn scenario_names(&self) -> Vec<String> {
        self.scenarios.keys().cloned().collect()
    }

    fn to_json(&self) -> String {
        let mut out = open_document(QUALITY_SCHEMA, &self.build.to_json());
        out.push_str("  \"scenarios\": {\n");
        out.push_str(&json_rows(self.scenarios.iter().map(|(name, s)| {
            let groups = json_rows(s.groups.iter().map(|g| {
                format!(
                    "      {{\"algorithm\": \"{}\", \"alpha\": {}, \"max\": {}, \
                     \"mean\": {}, \"p95\": {}, \"bound\": {}, \"headroom\": {}, \
                     \"worst\": {}}}",
                    json_escape(&g.algorithm),
                    json_f64(g.alpha),
                    json_f64(g.max),
                    json_f64(g.mean),
                    json_f64(g.p95),
                    json_opt(g.bound),
                    json_opt(g.headroom),
                    json_worst(g.worst),
                )
            }));
            format!(
                "    \"{}\": {{\"cells\": {}, \"groups\": [\n{groups}    ]}}",
                json_escape(name),
                s.cells
            )
        })));
        out.push_str("  }\n}\n");
        out
    }

    fn from_json(doc: &JsonValue) -> Result<Self, String> {
        let mut scenarios = BTreeMap::new();
        for (name, s) in object(doc, "scenarios")? {
            let Some(JsonValue::Arr(raw_groups)) = s.get("groups") else {
                return Err(format!("scenario `{name}`: `groups` must be an array"));
            };
            let groups = raw_groups.iter().map(|g| parse_group(name, g)).collect::<Result<_, _>>()?;
            let cells = s.get("cells").and_then(JsonValue::as_u64).unwrap_or(0) as usize;
            scenarios.insert(name.clone(), ScenarioQuality { cells, groups });
        }
        Ok(QualityBaseline { build: BuildInfo::from_json(doc), scenarios })
    }

    fn compare(base: &Self, new: &Self) -> QualityCompare {
        compare(base, new)
    }
}

// ---------------------------------------------------------------------
// Comparison / gating
// ---------------------------------------------------------------------

/// One exact quality regression: a group whose worst ratio or headroom
/// got worse, or coverage that silently disappeared.
#[derive(Debug, Clone, PartialEq)]
pub struct QualityRegression {
    /// Scenario name.
    pub scenario: String,
    /// Algorithm of the offending group (empty for scenario-level
    /// regressions).
    pub algorithm: String,
    /// α of the offending group (`None` for scenario-level regressions).
    pub alpha: Option<f64>,
    /// What worsened: `"max ratio"`, `"bound headroom"`, `"scenario
    /// removed"`, `"group removed"`, or `"bound removed"`.
    pub what: &'static str,
    /// The committed value.
    pub base: Option<f64>,
    /// The freshly measured value.
    pub new: Option<f64>,
    /// The new run's argmax cell — the seed/instance that exhibits the
    /// regression, reproducible via `qbss explain`.
    pub worst: Option<WorstCell>,
}

/// Everything `qbss quality compare` / `gate` reports: groups checked
/// (both sides present) and the exact regressions, in scenario/group
/// order.
pub type QualityCompare = ExactReport<QualityRegression>;

impl ExactFinding for QualityRegression {
    const KIND: &'static str = "quality";
    const CHECKED: &'static str = "group(s)";

    fn line(&self) -> String {
        let group = match self.alpha {
            Some(a) => format!("{} @ α={a}", self.algorithm),
            None => "-".to_string(),
        };
        let fmt = |v: Option<f64>| v.map_or("-".to_string(), |x| format!("{x:.6}"));
        format!(
            "{}  {}  {}  {} -> {}  WORSE\n",
            self.scenario,
            group,
            self.what,
            fmt(self.base),
            fmt(self.new)
        )
    }

    /// The regression with the reproducible worst cell (scenario, seed,
    /// instance), so the offending run can be regenerated and explained
    /// offline.
    fn explain(&self) -> String {
        let group = match self.alpha {
            Some(a) => format!("{} @ α={a}", self.algorithm),
            None => "(scenario)".to_string(),
        };
        let fmt = |v: Option<f64>| v.map_or("-".to_string(), |x| format!("{x:.9}"));
        let mut out = format!(
            "scenario `{}` {}: {} worsened {} -> {}\n",
            self.scenario,
            group,
            self.what,
            fmt(self.base),
            fmt(self.new)
        );
        if let Some(w) = self.worst {
            let seed = w.seed.map_or("-".to_string(), |s| s.to_string());
            out.push_str(&format!(
                "  worst cell: seed {seed}, instance {}, ratio {:.9}\n",
                w.instance, w.energy_ratio
            ));
        }
        out
    }
}

/// Diffs `new` against `base`, exactly. A group regresses on **any**
/// increase of its max ratio or headroom — seeds are pinned and
/// aggregates byte-deterministic, so equal code must produce equal
/// numbers and every difference is a real behavior change. Dropped
/// scenarios, groups, or bounds also regress (coverage must not
/// silently shrink); scenarios or groups only present in `new` are
/// informational.
pub fn compare(base: &QualityBaseline, new: &QualityBaseline) -> QualityCompare {
    let mut report = QualityCompare::default();
    for (name, b) in &base.scenarios {
        let Some(n) = new.scenarios.get(name) else {
            report.regressions.push(QualityRegression {
                scenario: name.clone(),
                algorithm: String::new(),
                alpha: None,
                what: "scenario removed",
                base: None,
                new: None,
                worst: None,
            });
            continue;
        };
        for bg in &b.groups {
            let found = n
                .groups
                .iter()
                .find(|g| g.algorithm == bg.algorithm && g.alpha.to_bits() == bg.alpha.to_bits());
            // Every worsened quantity of this group: (what, base, new).
            let mut worse = Vec::new();
            match found {
                None => worse.push(("group removed", Some(bg.max), None)),
                Some(ng) => {
                    report.checked += 1;
                    if ng.max > bg.max {
                        worse.push(("max ratio", Some(bg.max), Some(ng.max)));
                    }
                    match (bg.headroom, ng.headroom) {
                        (Some(bh), Some(nh)) if nh > bh => {
                            worse.push(("bound headroom", Some(bh), Some(nh)));
                        }
                        (Some(bh), None) => worse.push(("bound removed", Some(bh), None)),
                        _ => {}
                    }
                }
            }
            report.regressions.extend(worse.into_iter().map(|(what, b, n)| QualityRegression {
                scenario: name.clone(),
                algorithm: bg.algorithm.clone(),
                alpha: Some(bg.alpha),
                what,
                base: b,
                new: n,
                worst: found.and_then(|g| g.worst),
            }));
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::observatory::GateReport;

    fn scenario(name: &str) -> Option<QualityScenario> {
        pick(scenarios(), &[name.to_string()]).ok().map(|mut v| v.remove(0))
    }

    fn group(algorithm: &str, alpha: f64, max: f64, bound: Option<f64>) -> GroupQuality {
        GroupQuality {
            algorithm: algorithm.to_string(),
            alpha,
            max,
            mean: max * 0.8,
            p95: max * 0.95,
            bound,
            headroom: bound.map(|b| max / b),
            worst: Some(WorstCell { instance: 3, seed: Some(3), energy_ratio: max }),
        }
    }

    fn baseline(entries: &[(&str, Vec<GroupQuality>)]) -> QualityBaseline {
        QualityBaseline {
            build: BuildInfo { version: "0.0.0-test".into(), git: "deadbeef".into() },
            scenarios: entries
                .iter()
                .map(|(name, groups)| {
                    (name.to_string(), ScenarioQuality { cells: 10, groups: groups.clone() })
                })
                .collect(),
        }
    }

    #[test]
    fn scenario_table_is_well_formed() {
        let all = scenarios();
        assert!(all.len() >= 4);
        let mut names: Vec<&str> = all.iter().map(|s| s.name).collect();
        names.dedup();
        assert_eq!(names.len(), all.len(), "names must be unique");
        assert!(scenario("golden-common").is_some());
        assert!(scenario("nope").is_none());
        for s in &all {
            let spec = s.spec();
            assert!(spec.n_cells() > 0, "{}: empty grid", s.name);
            spec.validate().unwrap_or_else(|e| panic!("{}: {e}", s.name));
        }
    }

    #[test]
    fn baseline_round_trips_through_json() {
        let b = baseline(&[
            ("a", vec![group("avrq", 2.0, 2.1, Some(32.0)), group("oaq", 3.0, 3.4, None)]),
            ("b", vec![group("crcd", 2.0, 1.8, Some(4.0))]),
        ]);
        let json = b.to_json();
        let back = QualityBaseline::parse(&json).expect("round trip");
        assert_eq!(back, b);
        assert_eq!(back.to_json(), json, "canonical form is stable");
    }

    #[test]
    fn parse_rejects_foreign_or_broken_documents() {
        assert!(matches!(QualityBaseline::parse("{}"), Err(ObservatoryError::Parse { .. })));
        assert!(matches!(QualityBaseline::parse("not json"), Err(ObservatoryError::Parse { .. })));
        let wrong = "{\"schema\": \"qbss-quality-baseline/999\", \"scenarios\": {}}";
        let err = QualityBaseline::parse(wrong).expect_err("wrong schema");
        assert!(err.to_string().contains("schema"), "{err}");
    }

    #[test]
    fn identical_baselines_are_clean() {
        let b = baseline(&[("a", vec![group("avrq", 2.0, 2.1, Some(32.0))])]);
        let report = compare(&b, &b.clone());
        assert!(report.is_clean());
        assert_eq!(report.checked, 1);
        assert!(report.render().contains("no quality regression"));
    }

    #[test]
    fn any_increase_of_the_max_is_a_regression() {
        // The gate is exact: even a 1-ulp-ish increase regresses, with
        // no noise threshold to hide behind.
        let base = baseline(&[("a", vec![group("avrq", 2.0, 2.1, Some(32.0))])]);
        let new = baseline(&[("a", vec![group("avrq", 2.0, 2.1 + 1e-12, Some(32.0))])]);
        let report = compare(&base, &new);
        // Both the max and the headroom worsen (the bound is unchanged).
        assert_eq!(report.regressions.len(), 2, "{report:?}");
        assert_eq!(report.regressions[0].what, "max ratio");
        assert_eq!(report.regressions[1].what, "bound headroom");
        // A *decrease* is an improvement, not a regression.
        let better = baseline(&[("a", vec![group("avrq", 2.0, 2.0, Some(32.0))])]);
        assert!(compare(&base, &better).is_clean());
    }

    #[test]
    fn lost_coverage_is_a_regression() {
        let base = baseline(&[
            ("a", vec![group("avrq", 2.0, 2.1, Some(32.0)), group("bkpq", 2.0, 3.8, None)]),
            ("gone", vec![group("oaq", 3.0, 3.4, None)]),
        ]);
        let new = baseline(&[("a", vec![group("avrq", 2.0, 2.1, Some(32.0))])]);
        let report = compare(&base, &new);
        let whats: Vec<&str> = report.regressions.iter().map(|r| r.what).collect();
        assert!(whats.contains(&"scenario removed"), "{whats:?}");
        assert!(whats.contains(&"group removed"), "{whats:?}");
        // Losing a proven bound while keeping the group also regresses.
        let unbounded = baseline(&[
            ("a", vec![group("avrq", 2.0, 2.1, None), group("bkpq", 2.0, 3.8, None)]),
            ("gone", vec![group("oaq", 3.0, 3.4, None)]),
        ]);
        let report = compare(&base, &unbounded);
        assert!(report.regressions.iter().any(|r| r.what == "bound removed"), "{report:?}");
    }

    #[test]
    fn explain_names_the_scenario_seed_and_instance() {
        let base = baseline(&[("golden-online", vec![group("avrq", 2.0, 2.1, Some(32.0))])]);
        let new = baseline(&[("golden-online", vec![group("avrq", 2.0, 2.5, Some(32.0))])]);
        let out = compare(&base, &new).render_explain();
        for needle in ["scenario `golden-online`", "avrq @ α=2", "max ratio", "seed 3",
            "instance 3"]
        {
            assert!(out.contains(needle), "missing `{needle}` in:\n{out}");
        }
    }

    #[test]
    fn record_is_deterministic_and_within_proven_bounds() {
        // The smallest scenario, recorded twice at different shard
        // counts: statistics must be byte-identical, every bounded
        // group must sit inside its Table 1 bound (headroom ≤ 1), and
        // every group must carry a reproducible worst cell.
        let names = vec!["multi-machine".to_string()];
        let a = QualityBaseline::record(&names, &1).expect("record");
        let b = QualityBaseline::record(&names, &2).expect("record");
        assert_eq!(a.scenarios, b.scenarios, "shard count must not matter");
        let s = a.scenarios.get("multi-machine").expect("recorded");
        assert!(!s.groups.is_empty());
        for g in &s.groups {
            assert!(g.max >= 1.0 && g.max >= g.p95 && g.p95 >= 0.0, "{g:?}");
            if let Some(h) = g.headroom {
                assert!(h <= 1.0, "measured max exceeds the proven bound: {g:?}");
            }
            let w = g.worst.expect("worst cell recorded");
            assert_eq!(w.energy_ratio, g.max, "worst cell must carry the max");
            assert!(w.seed.is_some(), "generated sources pin seeds");
        }
        let err = QualityBaseline::record(&["bogus".to_string()], &1).expect_err("unknown scenario");
        assert!(matches!(err, ObservatoryError::UnknownScenario { .. }));
    }

    #[test]
    fn build_info_captures_something() {
        let b = BuildInfo::capture();
        assert_eq!(b.version, env!("CARGO_PKG_VERSION"));
        assert!(!b.git.is_empty());
        assert!(b.render().starts_with("qbss "));
    }
}
