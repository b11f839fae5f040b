//! The benchmark's own tests: seeded inputs, the metric catalog against
//! `BENCHMARK.json`, and a tiny smoke run of every workload in both
//! modes. The `serve-mixed` smoke runs need the `qbss` binary in the
//! same target directory (`python3 perfbench/run.py` builds both; so
//! does `cargo build --release --bin qbss` at the repository root with
//! the same `CARGO_TARGET_DIR`).

use qbss_instances::io;
use qbss_perfbench::report::{end_to_end, per_layer, valid_name, Report};
use qbss_perfbench::{inputs, run, Opts, Workload};
use qbss_telemetry::{json_parse, JsonValue};

fn json_bytes(pool: &[qbss_core::model::QbssInstance]) -> Vec<String> {
    pool.iter()
        .map(|i| io::to_json(i).expect("valid instance"))
        .collect()
}

#[test]
fn same_seed_gives_byte_identical_inputs() {
    for seed in [0, 7, u64::MAX] {
        assert_eq!(
            json_bytes(&inputs::sweep_online(seed)),
            json_bytes(&inputs::sweep_online(seed))
        );
        assert_eq!(
            json_bytes(&inputs::sweep_multi(seed)),
            json_bytes(&inputs::sweep_multi(seed))
        );
        let (a, b) = (inputs::stream_sessions(seed), inputs::stream_sessions(seed));
        assert_eq!(
            a.iter().map(|(alg, _)| *alg).collect::<Vec<_>>(),
            b.iter().map(|(alg, _)| *alg).collect::<Vec<_>>()
        );
        let insts =
            |v: &[(
                qbss_core::pipeline::Algorithm,
                qbss_core::model::QbssInstance,
            )]| { json_bytes(&v.iter().map(|(_, i)| i.clone()).collect::<Vec<_>>()) };
        assert_eq!(insts(&a), insts(&b));
        let (p, q) = (inputs::serve_pool(seed), inputs::serve_pool(seed));
        assert_eq!(p.evaluate, q.evaluate);
        assert_eq!(p.sweep, q.sweep);
        let (s, t) = (
            inputs::schedule(seed, 1, 100.0, 2.0),
            inputs::schedule(seed, 1, 100.0, 2.0),
        );
        assert_eq!(s, t);
        assert_eq!(inputs::schedule_hash(&p, &s), inputs::schedule_hash(&q, &t));
    }
    // Different seeds give different inputs and traffic.
    assert_ne!(
        json_bytes(&inputs::sweep_online(1)),
        json_bytes(&inputs::sweep_online(2))
    );
    assert_ne!(inputs::serve_pool(1).hash(), inputs::serve_pool(2).hash());
    let pool = inputs::serve_pool(1);
    assert_ne!(
        inputs::schedule_hash(&pool, &inputs::schedule(1, 1, 100.0, 2.0)),
        inputs::schedule_hash(&pool, &inputs::schedule(2, 1, 100.0, 2.0))
    );
}

#[test]
fn schedules_have_the_planned_rate_and_mix() {
    let s = inputs::schedule(3, 1, 100.0, 20.0);
    assert!((1800..2200).contains(&s.len()), "{} requests", s.len());
    assert!(s.windows(2).all(|w| w[0].due_us <= w[1].due_us));
    let sweeps = s.iter().filter(|p| p.sweep).count() as f64 / s.len() as f64;
    assert!((0.15..0.25).contains(&sweeps), "sweep share {sweeps}");
}

fn benchmark_json() -> JsonValue {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json sits at the repository root");
    json_parse(&text).expect("BENCHMARK.json is JSON")
}

fn catalog(doc: &JsonValue, key: &str) -> Vec<(String, String)> {
    let Some(JsonValue::Arr(items)) = doc.get(key) else {
        panic!("`{key}` is a list")
    };
    items
        .iter()
        .map(|m| match (m.get("name"), m.get("unit")) {
            (Some(JsonValue::Str(n)), Some(JsonValue::Str(u))) => (n.clone(), u.clone()),
            other => panic!("bad metric entry {other:?}"),
        })
        .collect()
}

#[test]
fn metric_catalog_matches_benchmark_json() {
    let doc = benchmark_json();
    let own = |v: Vec<(String, &str)>| {
        v.into_iter()
            .map(|(n, u)| (n, u.to_string()))
            .collect::<Vec<_>>()
    };
    assert_eq!(catalog(&doc, "end_to_end"), own(end_to_end()));
    assert_eq!(catalog(&doc, "per_layer"), own(per_layer()));
    let Some(JsonValue::Arr(workloads)) = doc.get("workloads") else {
        panic!("workloads")
    };
    let names: Vec<_> = workloads
        .iter()
        .map(|w| match w.get("name") {
            Some(JsonValue::Str(n)) => n.clone(),
            other => panic!("bad workload {other:?}"),
        })
        .collect();
    assert_eq!(
        names,
        Workload::ALL.iter().map(|w| w.name()).collect::<Vec<_>>()
    );
}

#[test]
fn every_metric_name_is_valid_unique_and_printed_with_its_unit() {
    let all: Vec<_> = end_to_end().into_iter().chain(per_layer()).collect();
    let mut seen = std::collections::BTreeSet::new();
    for (name, unit) in &all {
        assert!(valid_name(name), "{name}");
        assert!(seen.insert(name.clone()), "{name} listed twice");
        assert!(!unit.is_empty() && unit.len() <= 16, "{name}: unit {unit}");
    }
    for bad in ["", "_x", "a b", "a/b", &"x".repeat(65)] {
        assert!(!valid_name(bad), "{bad}");
    }
    for traced in [false, true] {
        let mut report = Report {
            attempted: 3,
            ..Report::default()
        };
        for (name, _) in &all {
            report.set(name.clone(), 1.5);
        }
        let text = report.render(traced).expect("renders");
        let catalog = if traced { per_layer() } else { end_to_end() };
        for (name, unit) in &catalog {
            assert!(
                text.contains(&format!("metric {name} = 1.5 {unit}\n")),
                "{name}"
            );
        }
        let last = text.lines().last().expect("a result line");
        let result = json_parse(last).expect("the last line is JSON");
        let Some(JsonValue::Obj(metrics)) = result.get("metrics") else {
            panic!("metrics")
        };
        assert_eq!(metrics.len(), catalog.len());
        assert!(matches!(result.get("correct"), Some(JsonValue::Bool(true))));
    }
    // An end-to-end metric that was never measured is an error, not a 0.
    assert!(Report {
        attempted: 1,
        ..Report::default()
    }
    .render(false)
    .is_err());
}

fn smoke(workload: Workload, trace: bool) {
    let opts = Opts {
        workload,
        seed: 11,
        seconds: 0.3,
        trace,
        spans_out: None,
        qbss: None,
    };
    let report = run(&opts).unwrap_or_else(|e| panic!("{} (trace {trace}): {e}", workload.name()));
    assert!(
        report.attempted > 0,
        "{}: nothing attempted",
        workload.name()
    );
    assert_eq!(
        report.failed,
        0,
        "{}: {:?}",
        workload.name(),
        report.failures
    );
    let text = report.render(trace).expect("renders");
    assert!(text
        .lines()
        .last()
        .is_some_and(|l| l.starts_with("{\"correct\": true")));
    if trace {
        let coverage = report.values["trace.coverage_frac"];
        assert!(
            coverage >= 0.9,
            "{}: traced coverage {coverage}",
            workload.name()
        );
    }
}

#[test]
fn smoke_sweep_online() {
    smoke(Workload::SweepOnline, false);
    smoke(Workload::SweepOnline, true);
}

#[test]
fn smoke_sweep_multi() {
    smoke(Workload::SweepMulti, false);
    smoke(Workload::SweepMulti, true);
}

#[test]
fn smoke_stream_sessions() {
    smoke(Workload::StreamSessions, false);
    smoke(Workload::StreamSessions, true);
}

#[test]
fn smoke_serve_mixed() {
    smoke(Workload::ServeMixed, false);
    smoke(Workload::ServeMixed, true);
}
