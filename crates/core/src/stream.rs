//! Streaming arrival engine — the [`StreamingSolver`] (DESIGN.md §14).
//!
//! The online QBSS algorithms are, conceptually, event processors: a job
//! arrives, the algorithm decides its query and split on the spot, and
//! the speed plan reacts. This module makes that shape the *primary*
//! interface. A [`StreamingSolver`] consumes arrivals one at a time
//! ([`StreamingSolver::on_arrival`]), can be advanced through quiet
//! spans of time ([`StreamingSolver::advance_to`]), and produces the
//! same validated [`QbssOutcome`] as the batch entry points when
//! finished ([`StreamingSolver::finish`]).
//!
//! The batch entry points (`try_avrq`, `try_bkpq`, `try_oaq`) are thin
//! adapters over this engine: they feed the instance in canonical
//! arrival order ([`arrival_ordered`]) and finish. A session that feeds
//! the same jobs in the same order therefore produces a bit-identical
//! outcome *by construction* — there is only one code path.
//!
//! ## Event semantics
//!
//! * Arrivals must be fed in non-decreasing release order (ties in any
//!   order); the canonical order breaks release ties by job id.
//! * A queried job's derived *query part* `(r, τ, c)` enters the
//!   substrate immediately; its *exact part* `(τ, d, w*)` is withheld in
//!   a pending queue until the stream's clock reaches `τ` — the moment
//!   the query completes and `w*` becomes known. This is the structural
//!   information-hiding guarantee of the model, enforced at the
//!   streaming layer rather than by an offline argument.
//! * [`StreamingSolver::advance_to`] releases pending exact parts and (for
//!   OA) commits the planned profile up to `t`; time never flows
//!   backwards.

use std::collections::HashSet;

use speed_scaling::edf::{edf_schedule, EdfTask};
use speed_scaling::job::{Job, JobId};
use speed_scaling::profile::SpeedProfile;
use speed_scaling::stream::{AvrStream, BkpStream, OaStream};
use speed_scaling::time::EPS;

use crate::decision::{derived_instance, Decision};
use crate::error::{AlgorithmError, ModelError};
use crate::model::{QJob, QbssInstance};
use crate::outcome::QbssOutcome;
use crate::pipeline::Algorithm;
use crate::policy::{NoRandomness, SplitRule, Strategy};

/// The speed change caused by one arrival: the substrate's live speed
/// at the arrival instant, immediately before and after the event.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SpeedDelta {
    /// The arrival time the delta is sampled at.
    pub at: f64,
    /// Live speed just before the arrival was applied.
    pub before: f64,
    /// Live speed just after the arrival was applied.
    pub after: f64,
}

impl SpeedDelta {
    /// `after − before` — positive when the arrival raised the speed.
    pub fn change(&self) -> f64 {
        self.after - self.before
    }
}

/// A streaming event was rejected; the solver state is unchanged.
#[derive(Debug, Clone, PartialEq)]
pub enum StreamError {
    /// An event's time precedes the stream clock.
    OutOfOrder {
        /// Algorithm name.
        algorithm: &'static str,
        /// The stream clock (latest arrival or advance).
        last: f64,
        /// The offending event time.
        got: f64,
    },
    /// A job id was fed twice.
    DuplicateJob {
        /// Algorithm name.
        algorithm: &'static str,
        /// The repeated id.
        job: JobId,
    },
    /// `advance_to` was called with a NaN or infinite time.
    NonFiniteTime {
        /// Algorithm name.
        algorithm: &'static str,
        /// The offending time.
        t: f64,
    },
    /// The strategy's split point fell outside the job's open window.
    SplitOutsideWindow {
        /// Algorithm name.
        algorithm: &'static str,
        /// The job being split.
        job: JobId,
        /// The rejected split point.
        tau: f64,
    },
    /// The arriving job violates the QBSS model constraints.
    Model(ModelError),
}

impl std::fmt::Display for StreamError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StreamError::OutOfOrder { algorithm, last, got } => {
                write!(f, "{algorithm}: event at {got} precedes stream clock {last}")
            }
            StreamError::DuplicateJob { algorithm, job } => {
                write!(f, "{algorithm}: job {job} already arrived")
            }
            StreamError::NonFiniteTime { algorithm, t } => {
                write!(f, "{algorithm}: advance target {t} is not finite")
            }
            StreamError::SplitOutsideWindow { algorithm, job, tau } => {
                write!(f, "{algorithm}: split {tau} of job {job} falls outside its window")
            }
            StreamError::Model(e) => write!(f, "invalid job: {e}"),
        }
    }
}

impl std::error::Error for StreamError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StreamError::Model(e) => Some(e),
            _ => None,
        }
    }
}

impl From<ModelError> for StreamError {
    fn from(e: ModelError) -> Self {
        StreamError::Model(e)
    }
}

/// The classical substrate a [`StreamingSolver`] drives.
enum Substrate {
    Avr(AvrStream),
    Bkp(BkpStream),
    Oa(OaStream),
}

impl Substrate {
    fn on_arrival(&mut self, job: Job) {
        match self {
            Substrate::Avr(s) => s.on_arrival(job),
            Substrate::Bkp(s) => s.on_arrival(job),
            Substrate::Oa(s) => s.on_arrival(job),
        }
    }

    fn speed_after(&self, t: f64) -> f64 {
        match self {
            Substrate::Avr(s) => s.speed_after(t),
            Substrate::Bkp(s) => s.speed_after(t),
            Substrate::Oa(s) => s.planned_speed_after(t),
        }
    }

    fn advance_to(&mut self, t: f64) {
        // AVR and BKP speeds are pure functions of the arrived set; only
        // OA carries committed-execution state between events.
        if let Substrate::Oa(s) = self {
            s.advance_to(t);
        }
    }

    fn finish(&mut self) -> SpeedProfile {
        match self {
            Substrate::Avr(s) => s.finish(),
            Substrate::Bkp(s) => s.finish(),
            Substrate::Oa(s) => s.finish(),
        }
    }
}

/// The streaming engine behind AVRQ, BKPQ and OAQ: applies a
/// deterministic [`Strategy`] per arrival, drives the matching classical
/// substrate incrementally, and withholds each queried job's exact part
/// until its split point passes. [`solver_for`] builds the paper's
/// configuration of every streamable [`Algorithm`].
pub struct StreamingSolver {
    algorithm: Algorithm,
    strategy: Strategy,
    substrate: Substrate,
    /// Arrived jobs, in feed order.
    jobs: Vec<QJob>,
    /// One decision per arrived job, in feed order.
    decisions: Vec<Decision>,
    /// Exact parts of queried jobs whose split point is still ahead of
    /// the clock, sorted by (release, feed order).
    pending: Vec<Job>,
    seen: HashSet<JobId>,
    clock: f64,
    events: u64,
}

impl StreamingSolver {
    fn with(
        algorithm: Algorithm,
        strategy: Strategy,
        substrate: Substrate,
    ) -> Result<Self, AlgorithmError> {
        if strategy.query.is_randomized() {
            return Err(AlgorithmError::RandomizedRule { algorithm: algorithm.name() });
        }
        // The oracle split reads w* at arrival, before the query runs.
        if strategy.split == SplitRule::Oracle {
            return Err(AlgorithmError::UnsupportedStructure {
                algorithm: algorithm.name(),
                reason: "a split rule over visible data; the oracle split reads the hidden w*"
                    .into(),
            });
        }
        Ok(Self {
            algorithm,
            strategy,
            substrate,
            jobs: Vec::new(),
            decisions: Vec::new(),
            pending: Vec::new(),
            seen: HashSet::new(),
            clock: f64::NEG_INFINITY,
            events: 0,
        })
    }

    /// A streaming AVRQ solver with any deterministic strategy whose split
    /// reads only visible data (the ablation entry point; the paper's AVRQ
    /// is [`Self::avrq`]).
    pub fn avrq_with(strategy: Strategy) -> Result<Self, AlgorithmError> {
        Self::with(Algorithm::Avrq, strategy, Substrate::Avr(AvrStream::new()))
    }

    /// The paper's AVRQ: query always, split at the midpoint, AVR below.
    pub fn avrq() -> Self {
        Self::avrq_with(Strategy::always_equal()).unwrap_or_else(|e| panic!("{e}"))
    }

    /// A streaming BKPQ solver with any deterministic strategy whose split
    /// reads only visible data (the ablation entry point; the paper's BKPQ
    /// is [`Self::bkpq`]).
    pub fn bkpq_with(strategy: Strategy) -> Result<Self, AlgorithmError> {
        Self::with(Algorithm::Bkpq, strategy, Substrate::Bkp(BkpStream::new()))
    }

    /// The paper's BKPQ: golden-ratio rule, midpoint split, BKP below.
    pub fn bkpq() -> Self {
        Self::bkpq_with(Strategy::golden_equal()).unwrap_or_else(|e| panic!("{e}"))
    }

    /// A streaming OAQ solver with any deterministic strategy whose split
    /// reads only visible data.
    pub fn oaq_with(strategy: Strategy) -> Result<Self, AlgorithmError> {
        Self::with(Algorithm::Oaq, strategy, Substrate::Oa(OaStream::new()))
    }

    /// OAQ: golden-ratio rule, midpoint split, incremental OA below.
    pub fn oaq() -> Self {
        Self::oaq_with(Strategy::golden_equal()).unwrap_or_else(|e| panic!("{e}"))
    }

    /// The algorithm this solver runs.
    pub fn algorithm(&self) -> Algorithm {
        self.algorithm
    }

    /// The stream clock: the latest arrival or advance time seen
    /// (`−∞` before the first event).
    pub fn now(&self) -> f64 {
        self.clock
    }

    /// Number of events (arrivals and advances) processed so far.
    pub fn events(&self) -> u64 {
        self.events
    }

    /// The jobs fed so far, in feed order.
    pub fn jobs(&self) -> &[QJob] {
        &self.jobs
    }

    /// The substrate's live speed at the stream clock (0 before the
    /// first event).
    pub fn speed(&self) -> f64 {
        if self.clock.is_finite() {
            self.substrate.speed_after(self.clock)
        } else {
            0.0
        }
    }

    /// Releases pending exact parts whose split point has been reached.
    fn flush_pending(&mut self, t: f64) {
        let k = self.pending.partition_point(|p| p.release <= t + EPS);
        for part in self.pending.drain(..k) {
            self.substrate.on_arrival(part);
        }
    }

    /// Feeds one arriving job, applying the algorithm's query and split
    /// strategy on the spot. Arrivals must be fed in non-decreasing
    /// release order. Returns the speed change at the arrival instant;
    /// a rejected arrival leaves the solver unchanged.
    pub fn on_arrival(&mut self, job: QJob) -> Result<SpeedDelta, StreamError> {
        let algorithm = self.algorithm.name();
        job.validate()?;
        if job.release + EPS < self.clock {
            return Err(StreamError::OutOfOrder { algorithm, last: self.clock, got: job.release });
        }
        if self.seen.contains(&job.id) {
            return Err(StreamError::DuplicateJob { algorithm, job: job.id });
        }
        // Decide before touching any stream state so a rejected split
        // leaves the solver exactly as it was.
        let decision = if self.strategy.query.decide(&job, &mut NoRandomness) {
            let tau = self.strategy.split.split(&job);
            if !(tau > job.release + EPS && tau < job.deadline - EPS) {
                return Err(StreamError::SplitOutsideWindow { algorithm, job: job.id, tau });
            }
            Decision::query(job.id, tau)
        } else {
            Decision::no_query(job.id)
        };
        let t = job.release;
        qbss_telemetry::counter!("solver.events").inc();
        let _span = qbss_telemetry::span!("solver.event", {
            job = job.id,
            t = t,
            queried = decision.queried,
        });
        self.seen.insert(job.id);
        self.flush_pending(t);
        let before = self.substrate.speed_after(t);
        match decision.split {
            Some(tau) => {
                self.substrate.on_arrival(Job::new(job.id, t, tau, job.query_load));
                // The exact part exists only once the query completes at
                // τ — queue it; `flush_pending` releases it in
                // (release, feed-order) sequence.
                let exact = Job::new(job.id, tau, job.deadline, job.reveal_exact());
                let at = self.pending.partition_point(|p| p.release <= exact.release);
                self.pending.insert(at, exact);
            }
            None => {
                self.substrate.on_arrival(Job::new(job.id, t, job.deadline, job.upper_bound));
            }
        }
        let after = self.substrate.speed_after(t);
        self.clock = self.clock.max(t);
        self.events += 1;
        self.jobs.push(job);
        self.decisions.push(decision);
        Ok(SpeedDelta { at: t, before, after })
    }

    /// Advances the stream clock to `t` with no arrival: releases the
    /// exact parts of queries completing by `t` and commits the planned
    /// profile up to `t`. Time never flows backwards.
    pub fn advance_to(&mut self, t: f64) -> Result<(), StreamError> {
        let algorithm = self.algorithm.name();
        if !t.is_finite() {
            return Err(StreamError::NonFiniteTime { algorithm, t });
        }
        if t + EPS < self.clock {
            return Err(StreamError::OutOfOrder { algorithm, last: self.clock, got: t });
        }
        qbss_telemetry::counter!("solver.advances").inc();
        self.flush_pending(t);
        self.substrate.advance_to(t);
        self.clock = self.clock.max(t);
        self.events += 1;
        Ok(())
    }

    /// Finishes the stream: runs out the horizon and returns the same
    /// validated [`QbssOutcome`] the batch entry point would produce
    /// for the jobs fed so far.
    pub fn finish(mut self) -> Result<QbssOutcome, AlgorithmError> {
        let algorithm = self.algorithm.name();
        if self.jobs.is_empty() {
            return Err(AlgorithmError::EmptyInstance { algorithm });
        }
        self.flush_pending(f64::INFINITY);
        let profile = self.substrate.finish();
        let mut decisions = self.decisions;
        decisions.sort_by_key(|d| d.job);
        let inst = QbssInstance::new(self.jobs);
        // Splits and ids were checked at feed time, so the derived
        // instance cannot fail to build.
        let derived = derived_instance(&inst, &decisions);
        let schedule = edf_schedule(&EdfTask::from_instance(&derived), &profile, 0)
            .map_err(|source| AlgorithmError::Infeasible { algorithm, source })?;
        Ok(QbssOutcome { algorithm: algorithm.into(), decisions, schedule })
    }
}

/// Builds a streaming solver for `algorithm`.
///
/// Only the online single-machine algorithms stream: the offline
/// common-release family needs the whole instance up front, and the
/// multi-machine variants assign jobs globally. Those return
/// [`AlgorithmError::UnsupportedStructure`].
pub fn solver_for(algorithm: Algorithm) -> Result<StreamingSolver, AlgorithmError> {
    match algorithm {
        Algorithm::Avrq => Ok(StreamingSolver::avrq()),
        Algorithm::Bkpq => Ok(StreamingSolver::bkpq()),
        Algorithm::Oaq => Ok(StreamingSolver::oaq()),
        other => Err(AlgorithmError::UnsupportedStructure {
            algorithm: other.name(),
            reason: "the whole instance up front; only avrq, bkpq and oaq stream".into(),
        }),
    }
}

/// The canonical feed order: jobs sorted by release, ties by id. The
/// batch entry points feed this order; a session replaying it gets a
/// bit-identical outcome.
pub fn arrival_ordered(inst: &QbssInstance) -> Vec<QJob> {
    let mut jobs = inst.jobs.clone();
    jobs.sort_by(|a, b| {
        a.release
            .partial_cmp(&b.release)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then_with(|| a.id.cmp(&b.id))
    });
    jobs
}

/// Validates `inst`, feeds every job in canonical arrival order and
/// finishes — the adapter the batch `try_*` entry points are built on.
/// An empty instance finishes as [`AlgorithmError::EmptyInstance`].
pub fn batch_outcome(
    mut solver: StreamingSolver,
    inst: &QbssInstance,
) -> Result<QbssOutcome, AlgorithmError> {
    inst.validate()?;
    for job in arrival_ordered(inst) {
        solver.on_arrival(job).map_err(|e| match e {
            StreamError::Model(m) => AlgorithmError::InvalidInstance(m),
            other => unreachable!("sorted feed of a validated instance cannot fail: {other}"),
        })?;
    }
    solver.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::QJob;
    use crate::online::{try_avrq, try_bkpq, try_oaq};
    use crate::policy::{QueryRule, SplitRule};

    fn online_instance() -> QbssInstance {
        QbssInstance::new(vec![
            QJob::new(0, 0.0, 4.0, 0.5, 2.0, 1.0),
            QJob::new(1, 1.0, 3.0, 0.9, 1.0, 0.0),
            QJob::new(2, 2.0, 6.0, 1.0, 3.0, 3.0),
        ])
    }

    fn stream_outcome(algorithm: Algorithm, inst: &QbssInstance) -> QbssOutcome {
        let mut solver = solver_for(algorithm).expect("streamable");
        for job in arrival_ordered(inst) {
            solver.on_arrival(job).expect("in-order feed");
        }
        solver.finish().expect("outcome")
    }

    #[test]
    fn streaming_is_bit_identical_to_batch() {
        let inst = online_instance();
        for (algorithm, batch) in [
            (Algorithm::Avrq, try_avrq(&inst)),
            (Algorithm::Bkpq, try_bkpq(&inst)),
            (Algorithm::Oaq, try_oaq(&inst)),
        ] {
            let batch = batch.expect("batch outcome");
            let streamed = stream_outcome(algorithm, &inst);
            assert_eq!(format!("{batch:?}"), format!("{streamed:?}"), "{algorithm}");
        }
    }

    #[test]
    fn delta_reports_the_arrival_speed_change() {
        let mut s = StreamingSolver::oaq();
        let d = s.on_arrival(QJob::new(0, 0.0, 2.0, 0.5, 2.0, 1.0)).expect("feed");
        assert_eq!(d.at, 0.0);
        assert_eq!(d.before, 0.0);
        assert!(d.after > 0.0, "an arrival into an idle stream must raise the speed");
        assert!((d.change() - d.after).abs() < 1e-12);
    }

    #[test]
    fn exact_part_is_released_at_the_split_point() {
        // AVRQ on (0, 2], c = 0.5, w* = 1: density 0.5 on (0, 1] from
        // the query part, then 1.0 on (1, 2] once the query completes.
        let mut s = StreamingSolver::avrq();
        s.on_arrival(QJob::new(0, 0.0, 2.0, 0.5, 2.0, 1.0)).expect("feed");
        assert!((s.speed() - 0.5).abs() < 1e-12);
        s.advance_to(1.5).expect("advance");
        assert!((s.speed() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn exact_load_is_invisible_before_the_split() {
        // Job 0 is queried by every rule and splits at τ = 2; job 1
        // arrives before τ. The two streams differ only in job 0's w*.
        let stream = |algorithm, w_star| {
            let mut s = solver_for(algorithm).expect("streamable");
            s.on_arrival(QJob::new(0, 0.0, 4.0, 0.5, 2.0, w_star)).expect("feed");
            let mut before = vec![s.speed()];
            s.advance_to(0.5).expect("advance");
            before.push(s.speed());
            s.on_arrival(QJob::new(1, 1.0, 3.0, 0.9, 1.0, 0.5)).expect("feed");
            before.push(s.speed());
            s.advance_to(1.9).expect("advance");
            before.push(s.speed());
            s.advance_to(2.5).expect("advance");
            (before, s.speed())
        };
        for algorithm in [Algorithm::Avrq, Algorithm::Bkpq, Algorithm::Oaq] {
            let (before_low, after_low) = stream(algorithm, 0.0);
            let (before_high, after_high) = stream(algorithm, 2.0);
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&before_low), bits(&before_high), "{algorithm}: w* leaked before τ");
            // BKP's speed at an arrival instant counts no window yet.
            assert!(before_low[1..].iter().all(|&v| v > 0.0), "{algorithm}: idle before τ");
            assert!((after_low - after_high).abs() > 0.1, "{algorithm}: w* unused after τ");
        }
    }

    #[test]
    fn advance_to_between_arrivals_preserves_the_outcome() {
        let inst = online_instance();
        for algorithm in [Algorithm::Avrq, Algorithm::Bkpq, Algorithm::Oaq] {
            let batch = crate::pipeline::run_evaluated(&inst, 3.0, algorithm).expect("batch");
            let mut solver = solver_for(algorithm).expect("streamable");
            for job in arrival_ordered(&inst) {
                solver.advance_to(job.release).expect("advance");
                solver.on_arrival(job).expect("feed");
            }
            solver.advance_to(7.0).expect("advance past horizon");
            let streamed = solver.finish().expect("outcome");
            let e = streamed.energy(3.0);
            assert!(
                (e - batch.energy).abs() <= 1e-6 * batch.energy.max(1.0),
                "{algorithm}: streamed {e} vs batch {}",
                batch.energy
            );
        }
    }

    #[test]
    fn out_of_order_arrivals_are_rejected() {
        let mut s = StreamingSolver::avrq();
        s.on_arrival(QJob::new(0, 2.0, 4.0, 0.5, 1.0, 0.5)).expect("feed");
        let err = s.on_arrival(QJob::new(1, 0.5, 4.0, 0.5, 1.0, 0.5)).expect_err("must reject");
        assert!(matches!(err, StreamError::OutOfOrder { .. }));
        assert_eq!(s.events(), 1, "rejected events must not count");
    }

    #[test]
    fn duplicate_ids_are_rejected() {
        let mut s = StreamingSolver::bkpq();
        s.on_arrival(QJob::new(7, 0.0, 2.0, 0.5, 1.0, 0.5)).expect("feed");
        let err = s.on_arrival(QJob::new(7, 1.0, 3.0, 0.5, 1.0, 0.5)).expect_err("must reject");
        assert!(matches!(err, StreamError::DuplicateJob { job: 7, .. }));
    }

    #[test]
    fn malformed_jobs_are_rejected() {
        let mut s = StreamingSolver::bkpq();
        let bad = QJob::new_unchecked(0, 0.0, 2.0, 0.5, 2.0, f64::NAN);
        assert!(matches!(s.on_arrival(bad), Err(StreamError::Model(_))));
    }

    #[test]
    fn time_cannot_flow_backwards() {
        let mut s = StreamingSolver::oaq();
        s.on_arrival(QJob::new(0, 1.0, 3.0, 0.5, 2.0, 1.0)).expect("feed");
        s.advance_to(2.0).expect("advance");
        assert!(matches!(s.advance_to(1.0), Err(StreamError::OutOfOrder { .. })));
        assert!(matches!(s.advance_to(f64::NAN), Err(StreamError::NonFiniteTime { .. })));
    }

    #[test]
    fn empty_finish_reports_empty_instance() {
        let s = solver_for(Algorithm::Oaq).expect("streamable");
        let err = s.finish().expect_err("empty stream has no outcome");
        assert!(matches!(err, AlgorithmError::EmptyInstance { algorithm: "OAQ" }));
    }

    #[test]
    fn solver_for_rejects_batch_only_algorithms() {
        for algorithm in [
            Algorithm::Crcd,
            Algorithm::Crp2d,
            Algorithm::Crad,
            Algorithm::AvrqM { m: 2 },
        ] {
            assert!(
                matches!(solver_for(algorithm), Err(AlgorithmError::UnsupportedStructure { .. })),
                "{algorithm} must not stream"
            );
        }
    }

    #[test]
    fn oracle_split_is_rejected_online() {
        let s = Strategy { query: QueryRule::Always, split: SplitRule::Oracle };
        assert!(matches!(
            StreamingSolver::avrq_with(s),
            Err(AlgorithmError::UnsupportedStructure { algorithm: "AVRQ", .. })
        ));
    }

    #[test]
    fn randomized_strategies_cannot_stream() {
        let s = Strategy { query: QueryRule::Probabilistic(0.5), split: SplitRule::EqualWindow };
        assert!(matches!(
            StreamingSolver::bkpq_with(s),
            Err(AlgorithmError::RandomizedRule { algorithm: "BKPQ" })
        ));
    }
}
