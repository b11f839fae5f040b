//! Explicit schedules and the feasibility checker.
//!
//! A [`Schedule`] is a set of [`Slice`]s: "machine `m` runs job `j` at
//! speed `s` during `(start, end]`". Every algorithm in the workspace
//! returns an explicit schedule so that a *single* checker
//! ([`Schedule::check`]) can verify all of the model's constraints:
//!
//! 1. each slice lies inside the job's active window,
//! 2. each machine runs at most one job at a time,
//! 3. no job runs on two machines simultaneously (migration is allowed,
//!    parallelism is not),
//! 4. every job receives exactly its required work.
//!
//! Tests never trust an algorithm's self-reported energy: they recompute
//! it from the slices.
//!
//! ## Cost
//!
//! The overlap checks (2 and 3) sweep the midpoints of the elementary
//! segments of the slice-event grid with an index-ordered set of the
//! live slices, fed from start- and end-sorted cursors, so a segment
//! with `m` live slices costs O(m²) pairwise tests instead of a rescan
//! of all `S` slices. Window containment (1) and work conservation (4)
//! read the requirements and slices grouped by job. A schedule whose
//! machines never overlap checks in O((S + R) log(S + R)) for `R`
//! requirements. [`Schedule::machine_profile`] uses the same sweep. The
//! `schedule.live_visits` work counter records the live slices visited
//! and `schedule.segments` the grid segments swept.
//!
//! Both are bit-identical to the textbook formulations that filter every
//! slice per segment and per requirement (kept as test-only references):
//! the same `Result`, error payloads included, and the same profile
//! values, because live slices and each job's slices are visited and
//! summed in slice order.

use crate::job::JobId;
use crate::time::{dedup_times, Interval, EPS, REL_TOL};

/// One maximal run of a job on a machine at constant speed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Slice {
    /// Index of the original job this slice executes (see
    /// [`crate::job::JobId`] — derived jobs share the id of their origin).
    pub job: JobId,
    /// Machine index (0 for the single-machine algorithms).
    pub machine: usize,
    /// Start of the run.
    pub start: f64,
    /// End of the run.
    pub end: f64,
    /// Constant speed during the run.
    pub speed: f64,
}

impl Slice {
    /// The time interval of the slice.
    pub fn interval(&self) -> Interval {
        Interval::new(self.start, self.end)
    }

    /// Work executed by this slice.
    pub fn work(&self) -> f64 {
        (self.end - self.start).max(0.0) * self.speed
    }
}

/// An explicit (possibly multi-machine) preemptive schedule.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Schedule {
    /// All slices, in no particular order.
    pub slices: Vec<Slice>,
    /// Number of machines the schedule is allowed to use.
    pub machines: usize,
}

/// A requirement the checker verifies work-conservation against:
/// job `id` must receive `work` units inside `window`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WorkRequirement {
    /// Job identifier the requirement applies to.
    pub id: JobId,
    /// Window the work must be executed in.
    pub window: Interval,
    /// Amount of work required.
    pub work: f64,
}

impl WorkRequirement {
    /// Convenience constructor.
    pub fn new(id: JobId, window: Interval, work: f64) -> Self {
        Self { id, window, work }
    }
}

/// A violation found by [`Schedule::check`].
#[derive(Debug, Clone, PartialEq)]
pub enum ScheduleError {
    /// A slice refers to a machine index `>= machines`.
    BadMachine(Slice),
    /// A slice has a reversed interval or negative speed.
    MalformedSlice(Slice),
    /// A slice executes work of a job outside one of its requirement
    /// windows (job id, offending slice).
    OutsideWindow(JobId, Slice),
    /// Two slices overlap in time on the same machine.
    MachineOverlap(Slice, Slice),
    /// The same job runs simultaneously on two machines.
    JobParallelism(Slice, Slice),
    /// A job did not receive its required work (id, got, wanted).
    WrongWork(JobId, f64, f64),
}

impl std::fmt::Display for ScheduleError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::BadMachine(s) => write!(f, "slice on unknown machine: {s:?}"),
            Self::MalformedSlice(s) => write!(f, "malformed slice: {s:?}"),
            Self::OutsideWindow(id, s) => {
                write!(f, "job {id} executed outside its window by {s:?}")
            }
            Self::MachineOverlap(a, b) => write!(f, "machine overlap: {a:?} vs {b:?}"),
            Self::JobParallelism(a, b) => write!(f, "job parallelism: {a:?} vs {b:?}"),
            Self::WrongWork(id, got, want) => {
                write!(f, "job {id} got {got} work, required {want}")
            }
        }
    }
}

impl std::error::Error for ScheduleError {}

impl Schedule {
    /// An empty schedule on `machines` machines.
    pub fn empty(machines: usize) -> Self {
        Self { slices: Vec::new(), machines }
    }

    /// Adds a slice, silently dropping numerically empty ones (length or
    /// speed ≤ EPS·EPS region) — algorithms generate plenty of those at
    /// segment boundaries.
    pub fn push(&mut self, slice: Slice) {
        if slice.end - slice.start > EPS && slice.speed > 0.0 {
            self.slices.push(slice);
        }
    }

    /// Total energy `Σ len·speed^α` recomputed from the slices.
    pub fn energy(&self, alpha: f64) -> f64 {
        assert!(alpha > 1.0, "the power exponent must satisfy α > 1, got {alpha}");
        self.slices
            .iter()
            .map(|s| (s.end - s.start).max(0.0) * s.speed.powf(alpha))
            .sum()
    }

    /// Maximum speed over all slices.
    pub fn max_speed(&self) -> f64 {
        self.slices.iter().map(|s| s.speed).fold(0.0, f64::max)
    }

    /// Work delivered to job `id`.
    pub fn work_of(&self, id: JobId) -> f64 {
        self.slices.iter().filter(|s| s.job == id).map(Slice::work).sum()
    }

    /// The aggregate speed profile of machine `m` (0 where idle).
    pub fn machine_profile(&self, machine: usize) -> crate::profile::SpeedProfile {
        let mine: Vec<usize> =
            (0..self.slices.len()).filter(|&i| self.slices[i].machine == machine).collect();
        if mine.is_empty() {
            return crate::profile::SpeedProfile::zero();
        }
        let mut events: Vec<f64> = Vec::with_capacity(2 * mine.len());
        for &i in &mine {
            events.push(self.slices[i].start);
            events.push(self.slices[i].end);
        }
        let mut live = LiveSet::new(&self.slices, mine.into_iter());
        crate::profile::SpeedProfile::from_events(events, |t| {
            live.advance(t, |s| t <= s.end);
            live.iter().map(|s| s.speed).sum()
        })
    }

    /// Verifies the schedule against the model constraints listed in the
    /// module docs. `requirements` may contain several entries per job id
    /// (e.g. a query part and an exact-work part); work conservation is
    /// then checked per-entry *and* windows are the union of the entry
    /// windows for containment purposes.
    pub fn check(&self, requirements: &[WorkRequirement]) -> Result<(), ScheduleError> {
        // 0. Structural validity.
        for s in &self.slices {
            if s.machine >= self.machines {
                return Err(ScheduleError::BadMachine(*s));
            }
            if !(s.start.is_finite() && s.end.is_finite())
                || s.end < s.start - EPS
                || s.speed < 0.0
                || !s.speed.is_finite()
            {
                return Err(ScheduleError::MalformedSlice(*s));
            }
        }

        // 1. Window containment: every slice of a job must lie in the
        //    union of that job's requirement windows.
        let windows = ByJob::new(requirements.iter().map(|r| r.id));
        for s in &self.slices {
            let mut ws = windows.of(s.job).map(|i| requirements[i].window).peekable();
            if ws.peek().is_none() {
                return Err(ScheduleError::OutsideWindow(s.job, *s));
            }
            // The slice may straddle two adjacent windows of the same job
            // (query window followed by exact-work window), so check that
            // its interval is covered by the union.
            let iv = s.interval();
            let covered: f64 = ws.map(|w| w.overlap_len(&iv)).sum();
            if covered + EPS < iv.len() {
                return Err(ScheduleError::OutsideWindow(s.job, *s));
            }
        }

        // 2. Machine exclusivity & 3. no intra-job parallelism. Sweep the
        //    union event grid; within each elementary segment every slice
        //    is either fully present or absent, so the slices live at the
        //    segment midpoint are exactly those overlapping the segment.
        let mut events: Vec<f64> = Vec::with_capacity(2 * self.slices.len());
        for s in &self.slices {
            events.push(s.start);
            events.push(s.end);
        }
        let events = dedup_times(events);
        let mut live = LiveSet::new(&self.slices, 0..self.slices.len());
        let mut at: Vec<&Slice> = Vec::new();
        let (mut segments, mut live_visits) = (0_u64, 0_u64);
        let overlap = events.windows(2).find_map(|w| {
            if w[1] - w[0] <= EPS {
                return None;
            }
            segments += 1;
            let t = 0.5 * (w[0] + w[1]);
            live.advance(t, |s| t < s.end);
            at.clear();
            at.extend(live.iter());
            live_visits += at.len() as u64;
            for (i, a) in at.iter().enumerate() {
                for b in &at[i + 1..] {
                    if a.machine == b.machine {
                        return Some(ScheduleError::MachineOverlap(**a, **b));
                    }
                    if a.job == b.job {
                        return Some(ScheduleError::JobParallelism(**a, **b));
                    }
                }
            }
            None
        });
        qbss_telemetry::counter!("schedule.segments").add(segments);
        qbss_telemetry::counter!("schedule.live_visits").add(live_visits);
        if let Some(err) = overlap {
            return Err(err);
        }

        // 4. Work conservation, per requirement entry: the work delivered
        //    to job `id` within the entry's window must match. Each job's
        //    slices are summed in slice order.
        let slices = ByJob::new(self.slices.iter().map(|s| s.job));
        for req in requirements {
            let got: f64 = slices
                .of(req.id)
                .map(|i| {
                    let s = &self.slices[i];
                    s.interval().overlap_len(&req.window) * s.speed
                })
                .sum();
            let scale = req.work.abs().max(1.0);
            if (got - req.work).abs() > REL_TOL * scale {
                return Err(ScheduleError::WrongWork(req.id, got, req.work));
            }
        }
        Ok(())
    }

    /// Builds requirements straight from a classical instance (each job
    /// needs `w_j` inside `(r_j, d_j]`).
    pub fn requirements_of(instance: &crate::job::Instance) -> Vec<WorkRequirement> {
        instance
            .jobs
            .iter()
            .map(|j| WorkRequirement::new(j.id, j.window(), j.work))
            .collect()
    }
}

/// Positions of a list of records grouped by job id: sorted
/// `(id, position)` pairs, so each job's positions form one run in their
/// original order.
struct ByJob(Vec<(JobId, usize)>);

impl ByJob {
    fn new(ids: impl Iterator<Item = JobId>) -> Self {
        let mut keyed: Vec<(JobId, usize)> = ids.zip(0..).collect();
        keyed.sort_unstable();
        Self(keyed)
    }

    /// The positions of the records of job `id`, ascending.
    fn of(&self, id: JobId) -> impl Iterator<Item = usize> + '_ {
        let lo = self.0.partition_point(|&(j, _)| j < id);
        self.0[lo..].iter().take_while(move |&&(j, _)| j == id).map(|&(_, i)| i)
    }
}

/// The slices live at a probe time that only moves forward, kept in
/// slice-index order so that visiting them matches a filter over the
/// whole slice list. Members enter from a start-sorted cursor and leave
/// from an end-sorted one. The set is a sorted `Vec`: on a schedule that
/// passes the overlap checks it never holds more slices than machines.
struct LiveSet<'a> {
    slices: &'a [Slice],
    by_start: Vec<usize>,
    by_end: Vec<usize>,
    next_start: usize,
    next_end: usize,
    live: Vec<usize>,
}

impl<'a> LiveSet<'a> {
    /// A sweep over the slices at `members`. A NaN endpoint fails every
    /// comparison, so such a slice is never live and is left out.
    fn new(slices: &'a [Slice], members: impl Iterator<Item = usize>) -> Self {
        let mut by_start: Vec<usize> =
            members.filter(|&i| !(slices[i].start.is_nan() || slices[i].end.is_nan())).collect();
        let mut by_end = by_start.clone();
        by_start.sort_unstable_by(|&a, &b| slices[a].start.total_cmp(&slices[b].start));
        by_end.sort_unstable_by(|&a, &b| slices[a].end.total_cmp(&slices[b].end));
        Self { slices, by_start, by_end, next_start: 0, next_end: 0, live: Vec::new() }
    }

    /// Moves the probe forward to `t`: afterwards the set holds exactly
    /// the members with `start < t` that satisfy `ends_after` (which
    /// must test `s.end` against `t`, so it only turns false as `t`
    /// grows).
    fn advance(&mut self, t: f64, ends_after: impl Fn(&Slice) -> bool) {
        while let Some(&i) = self.by_start.get(self.next_start) {
            if self.slices[i].start >= t {
                break;
            }
            if ends_after(&self.slices[i]) {
                let at = self.live.partition_point(|&j| j < i);
                self.live.insert(at, i);
            }
            self.next_start += 1;
        }
        while let Some(&i) = self.by_end.get(self.next_end) {
            if ends_after(&self.slices[i]) {
                break;
            }
            if let Ok(at) = self.live.binary_search(&i) {
                self.live.remove(at);
            }
            self.next_end += 1;
        }
    }

    /// The live slices in slice-index order.
    fn iter(&self) -> impl Iterator<Item = &'a Slice> + '_ {
        self.live.iter().map(|&i| &self.slices[i])
    }
}

#[cfg(test)]
pub(crate) mod reference {
    use std::collections::HashMap;

    use super::*;
    use crate::profile::SpeedProfile;

    pub(crate) fn check(
        schedule: &Schedule,
        requirements: &[WorkRequirement],
    ) -> Result<(), ScheduleError> {
        // 0. Structural validity.
        for s in &schedule.slices {
            if s.machine >= schedule.machines {
                return Err(ScheduleError::BadMachine(*s));
            }
            if !(s.start.is_finite() && s.end.is_finite())
                || s.end < s.start - EPS
                || s.speed < 0.0
                || !s.speed.is_finite()
            {
                return Err(ScheduleError::MalformedSlice(*s));
            }
        }

        // 1. Window containment: every slice of a job must lie in the
        //    union of that job's requirement windows.
        let mut windows: HashMap<JobId, Vec<Interval>> = HashMap::new();
        for req in requirements {
            windows.entry(req.id).or_default().push(req.window);
        }
        for s in &schedule.slices {
            let Some(ws) = windows.get(&s.job) else {
                return Err(ScheduleError::OutsideWindow(s.job, *s));
            };
            // The slice may straddle two adjacent windows of the same job
            // (query window followed by exact-work window), so check that
            // its interval is covered by the union.
            let iv = s.interval();
            let covered: f64 = ws.iter().map(|w| w.overlap_len(&iv)).sum();
            if covered + EPS < iv.len() {
                return Err(ScheduleError::OutsideWindow(s.job, *s));
            }
        }

        // 2. Machine exclusivity & 3. no intra-job parallelism. Sweep the
        //    union event grid; within each elementary segment every slice
        //    is either fully present or absent.
        let mut events: Vec<f64> = Vec::with_capacity(2 * schedule.slices.len());
        for s in &schedule.slices {
            events.push(s.start);
            events.push(s.end);
        }
        let events = dedup_times(events);
        for w in events.windows(2) {
            if w[1] - w[0] <= EPS {
                continue;
            }
            let t = 0.5 * (w[0] + w[1]);
            let live: Vec<&Slice> =
                schedule.slices.iter().filter(|s| s.start < t && t < s.end).collect();
            for (i, a) in live.iter().enumerate() {
                for b in &live[i + 1..] {
                    if a.machine == b.machine {
                        return Err(ScheduleError::MachineOverlap(**a, **b));
                    }
                    if a.job == b.job {
                        return Err(ScheduleError::JobParallelism(**a, **b));
                    }
                }
            }
        }

        // 4. Work conservation, per requirement entry: the work delivered
        //    to job `id` within the entry's window must match.
        for req in requirements {
            let got: f64 = schedule
                .slices
                .iter()
                .filter(|s| s.job == req.id)
                .map(|s| s.interval().overlap_len(&req.window) * s.speed)
                .sum();
            let scale = req.work.abs().max(1.0);
            if (got - req.work).abs() > REL_TOL * scale {
                return Err(ScheduleError::WrongWork(req.id, got, req.work));
            }
        }
        Ok(())
    }

    pub(crate) fn machine_profile(schedule: &Schedule, machine: usize) -> SpeedProfile {
        let mine: Vec<&Slice> = schedule.slices.iter().filter(|s| s.machine == machine).collect();
        if mine.is_empty() {
            return SpeedProfile::zero();
        }
        let mut events: Vec<f64> = Vec::with_capacity(2 * mine.len());
        for s in &mine {
            events.push(s.start);
            events.push(s.end);
        }
        SpeedProfile::from_events(events, |t| {
            mine.iter()
                .filter(|s| s.start < t && t <= s.end)
                .map(|s| s.speed)
                .sum()
        })
    }
}

#[cfg(test)]
mod tests {
    use std::collections::HashMap;

    use super::*;
    use crate::job::{Instance, Job};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn slice(job: JobId, machine: usize, start: f64, end: f64, speed: f64) -> Slice {
        Slice { job, machine, start, end, speed }
    }

    #[test]
    fn valid_single_machine_schedule() {
        let inst = Instance::new(vec![Job::new(0, 0.0, 2.0, 2.0), Job::new(1, 0.0, 2.0, 2.0)]);
        let mut sched = Schedule::empty(1);
        sched.push(slice(0, 0, 0.0, 1.0, 2.0));
        sched.push(slice(1, 0, 1.0, 2.0, 2.0));
        let reqs = Schedule::requirements_of(&inst);
        assert!(sched.check(&reqs).is_ok());
        assert!((sched.energy(3.0) - 2.0 * 8.0).abs() < 1e-9);
        assert_eq!(sched.max_speed(), 2.0);
        assert!((sched.work_of(0) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn detects_machine_overlap() {
        let inst = Instance::new(vec![Job::new(0, 0.0, 2.0, 1.0), Job::new(1, 0.0, 2.0, 1.0)]);
        let mut sched = Schedule::empty(1);
        sched.push(slice(0, 0, 0.0, 1.0, 1.0));
        sched.push(slice(1, 0, 0.5, 1.5, 1.0));
        let err = sched.check(&Schedule::requirements_of(&inst)).unwrap_err();
        assert!(matches!(err, ScheduleError::MachineOverlap(_, _)));
    }

    #[test]
    fn detects_window_violation() {
        let inst = Instance::new(vec![Job::new(0, 1.0, 2.0, 1.0)]);
        let mut sched = Schedule::empty(1);
        sched.push(slice(0, 0, 0.5, 1.5, 1.0));
        let err = sched.check(&Schedule::requirements_of(&inst)).unwrap_err();
        assert!(matches!(err, ScheduleError::OutsideWindow(0, _)));
    }

    #[test]
    fn detects_missing_work() {
        let inst = Instance::new(vec![Job::new(0, 0.0, 2.0, 3.0)]);
        let mut sched = Schedule::empty(1);
        sched.push(slice(0, 0, 0.0, 1.0, 1.0));
        let err = sched.check(&Schedule::requirements_of(&inst)).unwrap_err();
        assert!(matches!(err, ScheduleError::WrongWork(0, _, _)));
    }

    #[test]
    fn detects_job_parallelism_across_machines() {
        let inst = Instance::new(vec![Job::new(0, 0.0, 2.0, 4.0)]);
        let mut sched = Schedule::empty(2);
        sched.push(slice(0, 0, 0.0, 2.0, 1.0));
        sched.push(slice(0, 1, 0.0, 2.0, 1.0));
        let err = sched.check(&Schedule::requirements_of(&inst)).unwrap_err();
        assert!(matches!(err, ScheduleError::JobParallelism(_, _)));
    }

    #[test]
    fn migration_without_parallelism_is_fine() {
        let inst = Instance::new(vec![Job::new(0, 0.0, 2.0, 2.0)]);
        let mut sched = Schedule::empty(2);
        sched.push(slice(0, 0, 0.0, 1.0, 1.0));
        sched.push(slice(0, 1, 1.0, 2.0, 1.0));
        assert!(sched.check(&Schedule::requirements_of(&inst)).is_ok());
    }

    #[test]
    fn bad_machine_index() {
        let inst = Instance::new(vec![Job::new(0, 0.0, 1.0, 1.0)]);
        let mut sched = Schedule::empty(1);
        sched.push(slice(0, 3, 0.0, 1.0, 1.0));
        let err = sched.check(&Schedule::requirements_of(&inst)).unwrap_err();
        assert!(matches!(err, ScheduleError::BadMachine(_)));
    }

    #[test]
    fn split_requirements_per_window() {
        // One job id with two requirement windows (query then work), as
        // the QBSS algorithms produce.
        let reqs = vec![
            WorkRequirement::new(7, Interval::new(0.0, 1.0), 1.0),
            WorkRequirement::new(7, Interval::new(1.0, 2.0), 3.0),
        ];
        let mut sched = Schedule::empty(1);
        sched.push(slice(7, 0, 0.0, 1.0, 1.0));
        sched.push(slice(7, 0, 1.0, 2.0, 3.0));
        assert!(sched.check(&reqs).is_ok());
        // Move work into the wrong half: per-window conservation fails.
        let mut bad = Schedule::empty(1);
        bad.push(slice(7, 0, 0.0, 1.0, 4.0));
        assert!(bad.check(&reqs).is_err());
    }

    #[test]
    fn machine_profile_reconstruction() {
        let mut sched = Schedule::empty(2);
        sched.push(slice(0, 0, 0.0, 1.0, 2.0));
        sched.push(slice(1, 0, 1.0, 2.0, 3.0));
        sched.push(slice(2, 1, 0.0, 2.0, 1.0));
        let p0 = sched.machine_profile(0);
        assert_eq!(p0.speed_at(0.5), 2.0);
        assert_eq!(p0.speed_at(1.5), 3.0);
        let p1 = sched.machine_profile(1);
        assert_eq!(p1.speed_at(1.0), 1.0);
        assert_eq!(sched.machine_profile(5).max_speed(), 0.0);
    }

    #[test]
    fn empty_slices_dropped() {
        let mut sched = Schedule::empty(1);
        sched.push(slice(0, 0, 1.0, 1.0, 5.0));
        sched.push(slice(0, 0, 1.0, 2.0, 0.0));
        assert!(sched.slices.is_empty());
    }

    /// A random instance with distinct ids; half the windows sit on an
    /// integer grid so releases and deadlines tie.
    fn random_instance(rng: &mut StdRng, n: usize) -> Instance {
        Instance::new(
            (0..n as u32)
                .map(|id| {
                    let (r, len) = if rng.gen_bool(0.5) {
                        (rng.gen_range(0..10u32) as f64, rng.gen_range(1..4u32) as f64)
                    } else {
                        (rng.gen_range(0.0..10.0), rng.gen_range(0.1..4.0))
                    };
                    Job::new(id, r, r + len, rng.gen_range(0.1..3.0))
                })
                .collect(),
        )
    }

    /// A valid schedule of `inst` from one of the substrates: EDF on one
    /// machine (AVR, YDS) or three machines (migratory and non-migratory
    /// AVR(m)).
    fn random_schedule(rng: &mut StdRng, inst: &Instance) -> Schedule {
        match rng.gen_range(0..4u32) {
            0 => crate::avr::avr(inst).schedule,
            1 => crate::yds::yds(inst).schedule,
            2 => crate::multi::avr_m::avr_m(inst, 3).schedule,
            _ => crate::multi::nonmig::avr_m_nonmig(inst, 3).schedule,
        }
    }

    /// Breaks `sched` towards one `ScheduleError` variant (the checker may
    /// still report an earlier one; both sides must agree on which).
    fn doctor(rng: &mut StdRng, sched: &mut Schedule) {
        if sched.slices.is_empty() {
            return;
        }
        let k = rng.gen_range(0..sched.slices.len());
        let mut s = sched.slices[k];
        match rng.gen_range(0..6u32) {
            0 => sched.slices[k].machine = sched.machines + rng.gen_range(0..2usize),
            1 => {
                match rng.gen_range(0..4u32) {
                    0 => s.end = s.start - 1.0,
                    1 => s.speed = -1.0,
                    2 => s.start = f64::NAN,
                    _ => s.speed = f64::INFINITY,
                }
                sched.slices[k] = s;
            }
            2 => {
                if rng.gen_bool(0.5) {
                    sched.slices[k].job = 9_999;
                } else {
                    let shift = rng.gen_range(2.0..6.0);
                    sched.slices[k].start += shift;
                    sched.slices[k].end += shift;
                }
            }
            3 => sched.slices.push(s),
            4 => {
                sched.machines = sched.machines.max(3);
                s.machine = (s.machine + rng.gen_range(1..3usize)) % sched.machines;
                sched.slices.push(s);
            }
            _ => {
                if rng.gen_bool(0.5) {
                    sched.slices[k].speed *= 1.5;
                } else {
                    sched.slices.remove(k);
                }
            }
        }
        // The slice order decides which offending pair is reported.
        if rng.gen_bool(0.3) {
            let j = rng.gen_range(0..sched.slices.len());
            sched.slices.swap(0, j);
        }
    }

    /// Whether `machine_profile(m)` is defined rather than a panic: finite
    /// slices at non-negative speed spanning two distinct times (or none).
    fn profile_defined(sched: &Schedule, m: usize) -> bool {
        let mine: Vec<&Slice> = sched.slices.iter().filter(|s| s.machine == m).collect();
        let events = mine.iter().flat_map(|s| [s.start, s.end]).collect();
        mine.iter().all(|s| {
            s.start.is_finite() && s.end.is_finite() && s.speed.is_finite() && s.speed >= 0.0
        })
            && (mine.is_empty() || dedup_times(events).len() >= 2)
    }

    /// Production and reference agree exactly (`Debug` prints every f64
    /// in shortest round-trip form, so equal strings mean equal bits),
    /// for `check` and, wherever it is defined, `machine_profile`.
    fn assert_matches_reference(sched: &Schedule, reqs: &[WorkRequirement]) -> String {
        let new = format!("{:?}", sched.check(reqs));
        let old = format!("{:?}", reference::check(sched, reqs));
        assert_eq!(new, old, "schedule {sched:?}");
        for m in (0..=sched.machines).filter(|&m| profile_defined(sched, m)) {
            assert_eq!(
                format!("{:?}", sched.machine_profile(m)),
                format!("{:?}", reference::machine_profile(sched, m)),
                "machine {m} of {sched:?}"
            );
        }
        // The outcome's name: `Ok` or the error variant.
        let name = new.strip_prefix("Err(").unwrap_or(&new);
        name.split('(').next().unwrap_or_default().to_string()
    }

    #[test]
    fn sweep_matches_reference_on_valid_and_doctored_schedules() {
        let mut seen: HashMap<String, usize> = HashMap::new();
        for case in 0..500u64 {
            let mut rng = StdRng::seed_from_u64(0x5C4E_D0CE ^ case);
            let n = rng.gen_range(1..25usize);
            let inst = random_instance(&mut rng, n);
            let mut sched = random_schedule(&mut rng, &inst);
            let reqs = Schedule::requirements_of(&inst);
            *seen.entry(assert_matches_reference(&sched, &reqs)).or_default() += 1;
            for _ in 0..rng.gen_range(1..3u32) {
                doctor(&mut rng, &mut sched);
            }
            *seen.entry(assert_matches_reference(&sched, &reqs)).or_default() += 1;
        }
        for kind in [
            "Ok",
            "BadMachine",
            "MalformedSlice",
            "OutsideWindow",
            "MachineOverlap",
            "JobParallelism",
            "WrongWork",
        ] {
            assert!(seen.get(kind).copied().unwrap_or(0) >= 5, "{kind} barely exercised: {seen:?}");
        }
    }

    #[test]
    fn sweep_matches_reference_on_edge_cases() {
        let iv = Interval::new;
        let reqs = vec![
            WorkRequirement::new(0, iv(0.0, 2.0), 2.0),
            WorkRequirement::new(1, iv(0.0, 2.0), 1.0),
            WorkRequirement::new(1, iv(2.0, 3.0), 1.0),
        ];
        let schedules = vec![
            // Slices meeting within EPS; a split job straddling windows.
            vec![slice(0, 0, 0.0, 1.0 + 0.5 * EPS, 2.0), slice(1, 0, 1.0, 3.0, 1.0)],
            // Three overlapping slices: the first offending pair in slice
            // order is reported, machine overlap before parallelism.
            vec![
                slice(1, 1, 0.5, 1.5, 1.0),
                slice(0, 0, 0.0, 2.0, 1.0),
                slice(1, 0, 1.0, 2.0, 1.0),
            ],
            // A slightly reversed slice (within EPS) is never live.
            vec![slice(0, 0, 1.0, 1.0 - 0.5 * EPS, 1.0), slice(0, 0, 0.0, 2.0, 1.0)],
            // Zero-speed and zero-length slices, raw (not via `push`).
            vec![
                slice(0, 0, 0.0, 2.0, 1.0),
                slice(1, 2, 0.5, 0.5, 3.0),
                slice(1, 1, 0.0, 3.0, 0.0),
            ],
            vec![],
        ];
        for slices in schedules {
            let sched = Schedule { slices, machines: 3 };
            assert_matches_reference(&sched, &reqs);
        }
        // Past 2^30 one ULP exceeds EPS, so a segment midpoint can round
        // onto a slice end: the open `t < end` test must match exactly.
        for a in [1.7e9, 1.7e9 + 2.0f64.powi(-22), 3.1e9] {
            let u = f64::from_bits(a.to_bits() + 1) - a;
            let reqs = vec![
                WorkRequirement::new(0, iv(a, a + 4.0 * u), u),
                WorkRequirement::new(1, iv(a, a + 4.0 * u), 2.0 * u),
            ];
            let slices = vec![slice(0, 0, a, a + u, 1.0), slice(1, 0, a, a + 2.0 * u, 1.0)];
            assert_matches_reference(&Schedule { slices, machines: 1 }, &reqs);
        }
    }
}
