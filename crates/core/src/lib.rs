//! # qbss-core — Speed Scaling with Explorable Uncertainty
//!
//! A complete implementation of the **Query-Based Speed-Scaling (QBSS)**
//! model and algorithms of Bampis, Dogeas, Kononov, Lucarelli and
//! Pascual, *Speed Scaling with Explorable Uncertainty*, SPAA 2021.
//!
//! Each job is a quintuple `(r_j, d_j, c_j, w_j, w*_j)`: executing the
//! optional *query* of load `c_j` reveals the exact workload
//! `w*_j ≤ w_j`; without it the full upper bound `w_j` must run. All
//! work happens inside `(r_j, d_j]` on speed-scalable machines with
//! power `s^α`, minimizing energy or maximum speed.
//!
//! ## Algorithms
//!
//! Offline (common release; [`offline`]):
//! * [`offline::crcd()`](offline::crcd()) — common deadline; 2-approx (speed),
//!   `min{2^{α−1}φ^α, 2^α}` (energy).
//! * [`offline::crp2d()`](offline::crp2d()) — power-of-two deadlines; `(4φ)^α` (energy).
//! * [`offline::crad()`](offline::crad()) — arbitrary deadlines; `(8φ)^α` (energy).
//!
//! Online ([`online`]):
//! * [`online::avrq()`](online::avrq()) — query always; `2^{2α−1}α^α` (energy).
//! * [`online::bkpq()`](online::bkpq()) — golden-ratio rule;
//!   `(2+φ)^α·2(α/(α−1))^α e^α` (energy), `(2+φ)e` (max speed).
//! * [`online::oaq()`](online::oaq()) — OA-based extension (the paper's open question).
//! * [`online::avrq_m()`](online::avrq_m()) — `m` machines; `2^α(2^{α−1}α^α+1)` (energy).
//!
//! ## Information hiding
//!
//! The exact load is a private field read through
//! [`model::QJob::reveal_exact`]; outcome validation
//! ([`outcome::QbssOutcome::validate`]) structurally enforces that a
//! job's exact work is scheduled only after its query window, so no
//! algorithm can profit from peeking.
//!
//! ## Quick example
//!
//! ```
//! use qbss_core::model::{QJob, QbssInstance};
//! use qbss_core::online::bkpq;
//!
//! // A compressible job: querying (c = 0.2) reveals w* = 0.3 ≪ w = 2.
//! let inst = QbssInstance::new(vec![QJob::new(0, 0.0, 2.0, 0.2, 2.0, 0.3)]);
//! let out = bkpq(&inst);
//! out.validate(&inst).unwrap();
//! let alpha = 3.0;
//! assert!(out.energy_ratio(&inst, alpha) >= 1.0);
//! ```

#![warn(missing_docs)]
#![warn(clippy::unwrap_used)]
#![cfg_attr(test, allow(clippy::unwrap_used))]

pub mod attribution;
pub mod audit;
pub mod decision;
pub mod error;
pub mod model;
pub mod offline;
pub mod online;
pub mod oracle;
pub mod outcome;
pub mod pipeline;
pub mod policy;
pub mod stream;
pub mod work;

pub use attribution::{attribute, attribute_with_opt, Attribution, AttributionError, JobRow};
pub use audit::{AuditReport, AuditViolation, Auditor, AUDIT_SLACK};
pub use decision::Decision;
pub use error::{AlgorithmError, ModelError, ModelErrorKind, QbssError, ValidationError};
pub use model::{QJob, QbssInstance, VisibleJob};
pub use outcome::QbssOutcome;
pub use pipeline::{
    run_audited, run_checked, run_evaluated, run_for_request, Algorithm, Evaluated,
    ParseAlgorithmError,
};
pub use policy::{QueryRule, SplitRule, Strategy, INV_PHI, PHI};
pub use stream::{arrival_ordered, solver_for, SpeedDelta, StreamError, StreamingSolver};
pub use work::{is_work_counter, work_counter_names, WorkCounter, WORK_COUNTERS};

/// Step-by-step simulation of the online process: drives a
/// [`StreamingSolver`] through time, one elementary segment at a time,
/// and reads the live speed it runs from what it knows at that instant.
#[cfg(test)]
mod sim {
    use speed_scaling::time::dedup_times;

    use crate::model::QbssInstance;
    use crate::outcome::QbssOutcome;
    use crate::stream::{arrival_ordered, StreamingSolver};

    /// Feeds `inst` to `solver` in arrival order, advancing the clock to
    /// the midpoint of every segment between consecutive event times
    /// (releases, midpoint splits, deadlines). Returns each midpoint
    /// with the live speed there, and the finished outcome.
    fn stepped(mut solver: StreamingSolver, inst: &QbssInstance) -> (Vec<(f64, f64)>, QbssOutcome) {
        let jobs = arrival_ordered(inst);
        let times = dedup_times(
            jobs.iter()
                .flat_map(|j| [j.release, 0.5 * (j.release + j.deadline), j.deadline])
                .collect(),
        );
        let mut next = 0;
        let mut samples = Vec::new();
        for w in times.windows(2) {
            while next < jobs.len() && jobs[next].release <= w[0] {
                solver.on_arrival(jobs[next]).expect("in-order feed");
                next += 1;
            }
            let t = 0.5 * (w[0] + w[1]);
            solver.advance_to(t).expect("advance");
            samples.push((t, solver.speed()));
        }
        (samples, solver.finish().expect("outcome"))
    }

    mod tests {
        use super::*;
        use crate::model::QJob;
        use crate::online::{avrq_profile, bkpq_profile};

        fn instance() -> QbssInstance {
            QbssInstance::new(vec![
                QJob::new(0, 0.0, 4.0, 0.5, 2.0, 1.0),
                QJob::new(1, 1.0, 3.0, 0.9, 1.0, 0.0),
                QJob::new(2, 2.0, 6.0, 1.0, 3.0, 3.0),
            ])
        }

        #[test]
        fn stepped_avrq_equals_analytic_profile() {
            let inst = instance();
            let (samples, _) = stepped(StreamingSolver::avrq(), &inst);
            let analytic = avrq_profile(&inst);
            for (t, speed) in samples {
                let want = analytic.speed_at(t);
                assert!((speed - want).abs() < 1e-9, "t = {t}: stepped {speed}, analytic {want}");
            }
        }

        #[test]
        fn stepped_bkpq_equals_analytic_profile() {
            let inst = instance();
            let (samples, _) = stepped(StreamingSolver::bkpq(), &inst);
            let analytic = bkpq_profile(&inst);
            for (t, speed) in samples {
                let want = analytic.speed_at(t);
                assert!((speed - want).abs() < 1e-9, "t = {t}: stepped {speed}, analytic {want}");
            }
        }

        #[test]
        fn reveals_happen_at_splitting_points_only() {
            // Changing one job's w* is observable from its split point
            // on, and never for a job that is not queried.
            let inst = instance();
            let (base, outcome) = stepped(StreamingSolver::bkpq(), &inst);
            let queried: Vec<u32> =
                outcome.decisions.iter().filter(|d| d.queried).map(|d| d.job).collect();
            assert_eq!(queried, vec![0, 2]);
            for d in &outcome.decisions {
                let j = inst.job(d.job).unwrap();
                let w_star =
                    if j.reveal_exact() > 0.5 * j.upper_bound { 0.0 } else { j.upper_bound };
                let mut jobs = inst.jobs.clone();
                jobs.iter_mut().filter(|x| x.id == j.id).for_each(|x| {
                    *x = QJob::new(j.id, j.release, j.deadline, j.query_load, j.upper_bound, w_star)
                });
                let (changed, changed_outcome) =
                    stepped(StreamingSolver::bkpq(), &QbssInstance::new(jobs));
                let first_diff = base
                    .iter()
                    .zip(&changed)
                    .find(|(a, b)| a.1.to_bits() != b.1.to_bits())
                    .map(|(a, _)| a.0);
                match d.split {
                    Some(tau) => {
                        let expected = 0.5 * (j.release + j.deadline);
                        assert!((tau - expected).abs() < 1e-12, "job {} split at {tau}", j.id);
                        let next = base.iter().map(|s| s.0).find(|&t| t > tau);
                        assert_eq!(first_diff, next, "job {}: w* seen away from τ = {tau}", j.id);
                    }
                    None => {
                        assert_eq!(first_diff, None, "job {}: unqueried w* was seen", j.id);
                        assert_eq!(format!("{outcome:?}"), format!("{changed_outcome:?}"));
                    }
                }
            }
        }
    }
}
