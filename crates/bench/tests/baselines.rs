//! The committed baselines are canonical documents: each one parses and
//! re-serializes byte for byte, so what `record` writes, what `gate`
//! reads and what a bless rewrites can never drift apart.

use qbss_bench::complexity::ComplexityBaseline;
use qbss_bench::observatory::Gate;
use qbss_bench::perf::Baseline;
use qbss_bench::quality::QualityBaseline;

fn assert_round_trips<G: Gate>(file: &str) {
    let path = format!("{}/../../{file}", env!("CARGO_MANIFEST_DIR"));
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
    let parsed = G::parse(&text).unwrap_or_else(|e| panic!("{file}: {e}"));
    assert!(parsed.to_json() == text, "{file} must re-serialize byte-identically");
}

#[test]
fn committed_baselines_round_trip_byte_identically() {
    assert_round_trips::<Baseline>("BENCH_baseline.json");
    assert_round_trips::<Baseline>("BENCH_perf.json");
    assert_round_trips::<QualityBaseline>("BENCH_quality.json");
    assert_round_trips::<ComplexityBaseline>("BENCH_complexity.json");
}
