//! Extending the library: plug your own query policy into an online
//! algorithm.
//!
//! The paper's algorithms commit to a fixed rule (always / golden
//! ratio). Downstream users often have side information — say, a
//! per-job *predicted* compressibility from a cheap model. This example
//! implements a prediction-guided policy that decides each job from its
//! [`VisibleJob`] alone, in arrival order, runs AVR over the derived
//! jobs its decisions induce, and compares it with the paper's rules.
//! (With perfect predictions it approaches the clairvoyant query
//! decisions; with adversarial predictions it degrades gracefully to
//! the upper-bound workloads it actually executes.)
//!
//! Run with: `cargo run --release -p qbss-cli --example custom_policy`

use qbss_core::decision::{derived_instance, Decision};
use qbss_core::model::{QbssInstance, VisibleJob};
use qbss_core::policy::NoRandomness;
use qbss_core::stream::arrival_ordered;
use qbss_core::Strategy;
use qbss_instances::gen::{generate, Compressibility, GenConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use speed_scaling::avr::avr_profile;
use speed_scaling::SpeedProfile;

/// Queries iff the predicted executed load `c + ŵ*` beats `w`, where
/// `ŵ*` is an external prediction (here: the true `w*` perturbed by
/// noise — the classic "algorithms with predictions" setup).
struct PredictionPolicy {
    /// Predicted exact load per job id.
    predictions: Vec<(u32, f64)>,
}

impl PredictionPolicy {
    fn decide(&self, job: &VisibleJob) -> Decision {
        let predicted = self
            .predictions
            .iter()
            .find(|(id, _)| *id == job.id)
            .map(|(_, p)| *p)
            .unwrap_or(job.upper_bound);
        if job.query_load + predicted < job.upper_bound {
            midpoint_query(job)
        } else {
            Decision::no_query(job.id)
        }
    }
}

/// Queries `job` with the paper's equal-window split.
fn midpoint_query(job: &VisibleJob) -> Decision {
    Decision::query(job.id, 0.5 * (job.release + job.deadline))
}

/// Decides every job of `inst` from its visible part, in arrival order,
/// and returns the number of queries and the AVR profile of the derived
/// jobs. A policy never sees `w*`; the exact part of a queried job is
/// released at its split point, and AVR's speed at `t` depends only on
/// derived jobs released by `t`, so this is the profile an online run
/// executes.
fn run(
    inst: &QbssInstance,
    mut decide: impl FnMut(&VisibleJob) -> Decision,
) -> (usize, SpeedProfile) {
    let decisions: Vec<Decision> =
        arrival_ordered(inst).iter().map(|j| decide(&j.visible())).collect();
    let queries = decisions.iter().filter(|d| d.queried).count();
    (queries, avr_profile(&derived_instance(inst, &decisions)))
}

fn main() {
    let alpha = 3.0;
    let inst: QbssInstance = generate(&GenConfig {
        compress: Compressibility::Bimodal { p_compressible: 0.5 },
        ..GenConfig::online_default(40, 77)
    });

    println!("Prediction-guided queries vs the paper's fixed rules (AVR substrate, alpha = 3)\n");
    println!("{:<28} {:>10} {:>12}", "policy", "queries", "energy");

    let report = |name: &str, profile: &SpeedProfile, queries: usize| {
        println!("{name:<28} {queries:>7}/40 {:>12.2}", profile.energy(alpha));
    };

    // Paper rules on the same substrate (both split at the midpoint).
    for (name, strategy) in [
        ("always query (AVRQ)", Strategy::always_equal()),
        ("golden ratio", Strategy::golden_equal()),
    ] {
        let (q, profile) = run(&inst, |job| {
            if strategy.query.decide_visible(job.query_load, job.upper_bound, &mut NoRandomness) {
                midpoint_query(job)
            } else {
                Decision::no_query(job.id)
            }
        });
        report(name, &profile, q);
    }

    // Prediction-guided, with increasing noise.
    let mut rng = StdRng::seed_from_u64(1);
    for noise in [0.0, 0.25, 1.0] {
        let predictions: Vec<(u32, f64)> = inst
            .jobs
            .iter()
            .map(|j| {
                let eps: f64 = rng.gen_range(-noise..=noise);
                (j.id, (j.reveal_exact() * (1.0 + eps)).max(0.0))
            })
            .collect();
        let policy = PredictionPolicy { predictions };
        let (q, profile) = run(&inst, |job| policy.decide(job));
        report(&format!("predictions (noise ±{noise})"), &profile, q);
    }

    println!("\nNotes:");
    println!("  * a policy sees only the visible job and w* is revealed after the query");
    println!("    window, so even this custom policy cannot peek — predictions enter");
    println!("    from the outside;");
    println!("  * with exact predictions the policy queries exactly when the clairvoyant");
    println!("    optimum would; noise degrades it toward the fixed rules;");
    println!("  * the golden-ratio rule needs no predictions at all and is minimax-optimal");
    println!("    among thresholds (exp_ablation_threshold).");
}
