//! Engine acceptance tests: shard-count-independent determinism, the
//! profile cache's bit-equality with cold recomputation, and a golden
//! aggregate the CI smoke job compares against.
//!
//! Bless the golden file after an intentional change with
//! `QBSS_BLESS=1 cargo test -p qbss-bench --test engine`.

use qbss_bench::engine::{run_sweep, InstanceSource, SweepSpec};
use qbss_core::pipeline::{run_evaluated, Algorithm};
use qbss_instances::gen::{generate, Compressibility, GenConfig};
use speed_scaling::multi::{multi_opt_frank_wolfe, opt_lower_bound};
use speed_scaling::yds::yds_profile;

/// The spec the committed golden aggregate was produced from. Touch it
/// only together with a re-bless.
fn golden_spec() -> SweepSpec {
    SweepSpec {
        source: InstanceSource::Generated {
            base: GenConfig {
                compress: Compressibility::Bimodal { p_compressible: 0.5 },
                ..GenConfig::common_deadline(10, 8.0, 0)
            },
            seeds: 0..12,
        },
        algorithms: Algorithm::all(2, 4),
        alphas: vec![2.0, 3.0],
        opt_fw_iters: 4,
    }
}

#[test]
fn aggregate_json_is_byte_identical_across_shard_counts() {
    let spec = golden_spec();
    let reference = run_sweep(&spec, 1).expect("shards=1").aggregate_json();
    for shards in [2, 8] {
        let json = run_sweep(&spec, shards).expect("valid spec").aggregate_json();
        assert_eq!(json, reference, "aggregate diverged at {shards} shards");
    }
}

#[test]
fn memoized_profiles_are_bit_equal_to_cold_runs() {
    // Every cached quantity the engine serves — per-α YDS energies, the
    // YDS peak speed, multi-machine OPT lower bounds — must be the
    // *same bits* a from-scratch evaluation produces.
    let spec = golden_spec();
    let rep = run_sweep(&spec, 4).expect("valid spec");
    let (algs, alphas) = (&spec.algorithms, &spec.alphas);
    for rec in &rep.records {
        let inst = match &spec.source {
            InstanceSource::Generated { base, seeds } => {
                generate(&GenConfig { seed: seeds.start + rec.instance as u64, ..*base })
            }
            InstanceSource::Explicit(v) => v[rec.instance].clone(),
        };
        let alg = algs[rec.algorithm];
        let alpha = alphas[rec.alpha];
        let cold = run_evaluated(&inst, alpha, alg);
        match (&rec.result, cold) {
            (Err(recorded), Err(cold)) => assert_eq!(recorded, &cold.to_string()),
            (Ok(m), Ok(ev)) => {
                assert_eq!(m.energy.to_bits(), ev.energy.to_bits(), "{alg} α={alpha}");
                assert_eq!(m.peak_speed.to_bits(), ev.max_speed.to_bits(), "{alg} α={alpha}");
                let clair = inst.clairvoyant_instance();
                let cold_ratio = if alg.machines() <= 1 {
                    let profile = yds_profile(&clair);
                    let opt_s = profile.max_speed();
                    let cold_speed =
                        if opt_s <= 0.0 { 1.0 } else { ev.max_speed / opt_s };
                    assert_eq!(
                        m.speed_ratio.expect("single-machine").to_bits(),
                        cold_speed.to_bits(),
                        "{alg} α={alpha}"
                    );
                    let opt_e = profile.energy(alpha);
                    if opt_e <= 0.0 { 1.0 } else { ev.energy / opt_e }
                } else {
                    let lb = opt_lower_bound(&clair, alg.machines(), alpha).max(
                        multi_opt_frank_wolfe(&clair, alg.machines(), alpha, spec.opt_fw_iters)
                            .lower_bound(),
                    );
                    if lb <= 0.0 { 1.0 } else { ev.energy / lb }
                };
                assert_eq!(
                    m.energy_ratio.to_bits(),
                    cold_ratio.to_bits(),
                    "{alg} α={alpha}: cached baseline drifted from cold recomputation"
                );
            }
            (recorded, cold) => {
                panic!("ok/err disagreement: recorded {recorded:?}, cold {:?}", cold.is_ok())
            }
        }
    }
    assert!(rep.instrumentation.cache_hit_rate() > 0.0, "sweep exercised the cache");
}

#[test]
fn golden_aggregate_matches() {
    let json = run_sweep(&golden_spec(), 2).expect("valid spec").aggregate_json();
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/sweep_smoke.json");
    if qbss_bench::observatory::bless_requested() {
        std::fs::write(path, &json).expect("write golden");
        eprintln!("blessed {path}");
        return;
    }
    let golden = std::fs::read_to_string(path)
        .expect("golden file missing — run with QBSS_BLESS=1 to create it");
    assert_eq!(
        json, golden,
        "aggregate diverged from the committed golden \
         (if intentional: QBSS_BLESS=1 cargo test -p qbss-bench --test engine)"
    );
}
