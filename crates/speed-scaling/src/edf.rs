//! Earliest-Deadline-First execution under a given speed profile.
//!
//! Classical fact (used implicitly throughout the paper): on a single
//! machine whose speed over time is fixed to `s(t)`, the EDF order
//! completes every job within its window whenever *any* preemptive
//! schedule does. All single-machine algorithms in this workspace
//! therefore only compute a speed profile and delegate slice placement
//! to [`edf_schedule`].
//!
//! ## Cost
//!
//! [`edf_schedule`] sweeps the elementary segments of the event grid
//! (profile breakpoints plus task releases and deadlines) once. Released
//! tasks enter a min-heap keyed by `(deadline, task index)` from a
//! release-sorted cursor, finished and expired tasks leave it lazily, and
//! the deadline check at each segment end reads a deadline-sorted cursor.
//! With `n` tasks and `B` breakpoints a run costs O((n + B) log(n + B)). The
//! `edf.heap_ops` work counter records heap pushes plus pops and
//! `edf.segments` the grid segments walked.
//!
//! The sweep is bit-identical to the textbook formulation that rescans
//! every task at every step (kept as a test-only reference): the same
//! slices in the same order, and the same lowest-index deadline miss.

use std::cmp::{Ordering, Reverse};
use std::collections::BinaryHeap;

use crate::job::JobId;
use crate::profile::SpeedProfile;
use crate::schedule::{Schedule, Slice};
use crate::time::{dedup_times, Interval, EPS, REL_TOL};

/// A unit of work EDF has to place: `work` units inside `window`,
/// attributed to job `job` in the produced slices.
///
/// Distinct tasks may share a `job` id (a QBSS query part and exact-work
/// part of the same original job); EDF treats them as separate tasks.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EdfTask {
    /// Job id recorded on the produced slices.
    pub job: JobId,
    /// Window the work must be placed in.
    pub window: Interval,
    /// Amount of work.
    pub work: f64,
}

impl EdfTask {
    /// Convenience constructor.
    pub fn new(job: JobId, window: Interval, work: f64) -> Self {
        assert!(work >= 0.0 && work.is_finite(), "task work must be >= 0, got {work}");
        Self { job, window, work }
    }

    /// Builds one task per job of a classical instance.
    pub fn from_instance(instance: &crate::job::Instance) -> Vec<EdfTask> {
        instance
            .jobs
            .iter()
            .map(|j| EdfTask::new(j.id, j.window(), j.work))
            .collect()
    }
}

/// Failure of EDF to complete a task by its deadline — the profile does
/// not carry enough work in some window.
#[derive(Debug, Clone, PartialEq)]
pub struct EdfInfeasible {
    /// Job id of the first task that missed its deadline.
    pub job: JobId,
    /// The task's window.
    pub window: Interval,
    /// Work still missing at the deadline.
    pub missing: f64,
}

impl std::fmt::Display for EdfInfeasible {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "EDF infeasible: job {} misses deadline {} by {} work units",
            self.job, self.window.end, self.missing
        )
    }
}

impl std::error::Error for EdfInfeasible {}

/// Runs EDF under `profile` on machine `machine` and returns the explicit
/// schedule, or the first deadline miss.
///
/// The machine runs at exactly `profile.speed_at(t)` whenever at least
/// one task is pending and is idle otherwise (the unused speed is simply
/// not consumed; energy accounting is done on the schedule's slices, so
/// idling is free).
///
/// ```
/// use speed_scaling::edf::{edf_schedule, EdfTask};
/// use speed_scaling::profile::SpeedProfile;
/// use speed_scaling::time::Interval;
///
/// let tasks = vec![
///     EdfTask::new(0, Interval::new(0.0, 3.0), 2.0),
///     EdfTask::new(1, Interval::new(1.0, 2.0), 1.0), // tighter deadline
/// ];
/// let profile = SpeedProfile::new(vec![0.0, 3.0], vec![1.0]);
/// let sched = edf_schedule(&tasks, &profile, 0).unwrap();
/// // Job 1 preempts job 0 in (1, 2].
/// assert!((sched.work_of(1) - 1.0).abs() < 1e-9);
/// assert!((sched.work_of(0) - 2.0).abs() < 1e-9);
/// ```
pub fn edf_schedule(
    tasks: &[EdfTask],
    profile: &SpeedProfile,
    machine: usize,
) -> Result<Schedule, EdfInfeasible> {
    let mut ops = EdfWork::default();
    let result = sweep(tasks, profile, machine, &mut ops);
    qbss_telemetry::counter!("edf.heap_ops").add(ops.heap_ops);
    qbss_telemetry::counter!("edf.segments").add(ops.segments);
    result
}

/// Local accumulators of the EDF work counters (flushed once per call).
#[derive(Default)]
struct EdfWork {
    heap_ops: u64,
    segments: u64,
}

/// A ready task keyed by `(deadline, index)`: the heap minimum is the
/// task a first-index `min_by` over deadlines would pick.
#[derive(Clone, Copy)]
struct Ready {
    deadline: f64,
    index: usize,
}

impl Ord for Ready {
    fn cmp(&self, other: &Self) -> Ordering {
        self.deadline
            .partial_cmp(&other.deadline)
            .expect("finite deadlines")
            .then(self.index.cmp(&other.index))
    }
}

impl PartialOrd for Ready {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl PartialEq for Ready {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for Ready {}

/// Task indices sorted by `key`, ties in index order.
fn sorted_by(tasks: &[EdfTask], key: impl Fn(&EdfTask) -> f64) -> Vec<usize> {
    let mut order: Vec<usize> = (0..tasks.len()).collect();
    order.sort_unstable_by(|&a, &b| {
        key(&tasks[a]).partial_cmp(&key(&tasks[b])).expect("finite windows").then(a.cmp(&b))
    });
    order
}

fn sweep(
    tasks: &[EdfTask],
    profile: &SpeedProfile,
    machine: usize,
    ops: &mut EdfWork,
) -> Result<Schedule, EdfInfeasible> {
    let mut remaining: Vec<f64> = tasks.iter().map(|t| t.work).collect();
    let pending = |i: usize, remaining: &[f64]| remaining[i] > work_tolerance(tasks[i].work);

    let mut events: Vec<f64> = profile.breakpoints().to_vec();
    for t in tasks {
        events.push(t.window.start);
        events.push(t.window.end);
    }
    let events = dedup_times(events);

    let by_release = sorted_by(tasks, |t| t.window.start);
    let by_deadline = sorted_by(tasks, |t| t.window.end);
    let mut next_release = 0;
    // First deadline-sorted task whose deadline may still match a
    // segment end; every earlier one lies more than EPS in the past.
    let mut next_deadline = 0;
    let mut ready: BinaryHeap<Reverse<Ready>> = BinaryHeap::with_capacity(tasks.len());

    let mut schedule = Schedule::empty(machine + 1);

    for w in events.windows(2) {
        let (seg_start, seg_end) = (w[0], w[1]);
        if seg_end - seg_start <= EPS {
            continue;
        }
        ops.segments += 1;
        let speed = profile.speed_at(0.5 * (seg_start + seg_end));
        let mut now = seg_start;
        // Within the segment the released/active set is constant, but
        // tasks can complete mid-segment; loop until the segment is used
        // up or no runnable task remains.
        loop {
            // Admit every task released by `now`.
            while let Some(&i) = by_release.get(next_release) {
                if tasks[i].window.start > now + EPS {
                    break;
                }
                ready.push(Reverse(Ready { deadline: tasks[i].window.end, index: i }));
                ops.heap_ops += 1;
                next_release += 1;
            }
            // The earliest-deadline runnable task. Finished and expired
            // tasks can never run again, so they are dropped for good.
            let next = loop {
                let Some(&Reverse(top)) = ready.peek() else { break None };
                let i = top.index;
                if pending(i, &remaining) && tasks[i].window.end > now + EPS {
                    break Some(i);
                }
                ready.pop();
                ops.heap_ops += 1;
            };
            let Some(i) = next else { break };
            if speed <= EPS {
                break; // idle segment: no progress possible
            }
            let seg_left = seg_end - now;
            let finish_time = remaining[i] / speed;
            let run = seg_left.min(finish_time);
            schedule.push(Slice {
                job: tasks[i].job,
                machine,
                start: now,
                end: now + run,
                speed,
            });
            remaining[i] -= run * speed;
            now += run;
            if now >= seg_end - EPS {
                break;
            }
        }
        // Deadline check at the segment boundary: any task whose window
        // ends here must be done. The tasks within EPS of `seg_end` are a
        // contiguous run of the deadline order; report the lowest index.
        while let Some(&i) = by_deadline.get(next_deadline) {
            if tasks[i].window.end - seg_end >= -EPS {
                break;
            }
            next_deadline += 1;
        }
        let missed = by_deadline[next_deadline..]
            .iter()
            .copied()
            .take_while(|&i| tasks[i].window.end - seg_end <= EPS)
            .filter(|&i| pending(i, &remaining))
            .min();
        if let Some(i) = missed {
            let t = &tasks[i];
            return Err(EdfInfeasible { job: t.job, window: t.window, missing: remaining[i] });
        }
    }

    // Anything still unfinished had its deadline beyond the profile end.
    if let Some(i) = (0..tasks.len()).find(|&i| pending(i, &remaining)) {
        let t = &tasks[i];
        return Err(EdfInfeasible { job: t.job, window: t.window, missing: remaining[i] });
    }
    Ok(schedule)
}

/// Whether `profile` can complete all `tasks` (EDF succeeds).
pub fn is_feasible(tasks: &[EdfTask], profile: &SpeedProfile) -> bool {
    edf_schedule(tasks, profile, 0).is_ok()
}

#[inline]
fn work_tolerance(total: f64) -> f64 {
    REL_TOL * total.abs().max(1.0)
}

/// The textbook EDF that rescans every task at every step, O(n²) per
/// run: the oracle the production sweep must match bit for bit.
#[cfg(test)]
pub(crate) mod reference {
    use super::*;

    pub(crate) fn edf_schedule(
        tasks: &[EdfTask],
        profile: &SpeedProfile,
        machine: usize,
    ) -> Result<Schedule, EdfInfeasible> {
        let mut remaining: Vec<f64> = tasks.iter().map(|t| t.work).collect();

        let mut events: Vec<f64> = profile.breakpoints().to_vec();
        for t in tasks {
            events.push(t.window.start);
            events.push(t.window.end);
        }
        let events = dedup_times(events);

        let mut schedule = Schedule::empty(machine + 1);

        for w in events.windows(2) {
            let (seg_start, seg_end) = (w[0], w[1]);
            if seg_end - seg_start <= EPS {
                continue;
            }
            let speed = profile.speed_at(0.5 * (seg_start + seg_end));
            let mut now = seg_start;
            // Within the segment the released/active set is constant, but
            // tasks can complete mid-segment; loop until the segment is used
            // up or no runnable task remains.
            loop {
                // Pick the pending task with the earliest deadline.
                let next = (0..tasks.len())
                    .filter(|&i| {
                        remaining[i] > work_tolerance(tasks[i].work)
                            && tasks[i].window.start <= now + EPS
                            && tasks[i].window.end > now + EPS
                    })
                    .min_by(|&a, &b| {
                        tasks[a]
                            .window
                            .end
                            .partial_cmp(&tasks[b].window.end)
                            .expect("finite deadlines")
                    });
                let Some(i) = next else { break };
                if speed <= EPS {
                    break; // idle segment: no progress possible
                }
                let seg_left = seg_end - now;
                let finish_time = remaining[i] / speed;
                let run = seg_left.min(finish_time);
                schedule.push(Slice {
                    job: tasks[i].job,
                    machine,
                    start: now,
                    end: now + run,
                    speed,
                });
                remaining[i] -= run * speed;
                now += run;
                if now >= seg_end - EPS {
                    break;
                }
            }
            // Deadline check at the segment boundary: any task whose window
            // ends here must be done.
            for (i, t) in tasks.iter().enumerate() {
                if (t.window.end - seg_end).abs() <= EPS && remaining[i] > work_tolerance(t.work) {
                    return Err(EdfInfeasible {
                        job: t.job,
                        window: t.window,
                        missing: remaining[i],
                    });
                }
            }
        }

        // Anything still unfinished had its deadline beyond the profile end.
        for (i, t) in tasks.iter().enumerate() {
            if remaining[i] > work_tolerance(t.work) {
                return Err(EdfInfeasible { job: t.job, window: t.window, missing: remaining[i] });
            }
        }
        Ok(schedule)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::{Instance, Job};
    use crate::schedule::WorkRequirement;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn single_job_constant_speed() {
        let tasks = vec![EdfTask::new(0, Interval::new(0.0, 2.0), 4.0)];
        let profile = SpeedProfile::new(vec![0.0, 2.0], vec![2.0]);
        let sched = edf_schedule(&tasks, &profile, 0).expect("feasible");
        assert!((sched.work_of(0) - 4.0).abs() < 1e-9);
        let reqs = vec![WorkRequirement::new(0, Interval::new(0.0, 2.0), 4.0)];
        assert!(sched.check(&reqs).is_ok());
    }

    #[test]
    fn edf_prefers_earliest_deadline() {
        // Job 1's deadline is earlier; it must run first even though job
        // 0 is listed first.
        let tasks = vec![
            EdfTask::new(0, Interval::new(0.0, 4.0), 2.0),
            EdfTask::new(1, Interval::new(0.0, 1.0), 1.0),
        ];
        let profile = SpeedProfile::new(vec![0.0, 4.0], vec![1.0]);
        let sched = edf_schedule(&tasks, &profile, 0).expect("feasible");
        let first = sched
            .slices
            .iter()
            .min_by(|a, b| a.start.partial_cmp(&b.start).unwrap())
            .unwrap();
        assert_eq!(first.job, 1);
        assert!(sched
            .check(&[
                WorkRequirement::new(0, Interval::new(0.0, 4.0), 2.0),
                WorkRequirement::new(1, Interval::new(0.0, 1.0), 1.0),
            ])
            .is_ok());
    }

    #[test]
    fn infeasible_profile_detected() {
        let tasks = vec![EdfTask::new(0, Interval::new(0.0, 1.0), 2.0)];
        let profile = SpeedProfile::new(vec![0.0, 1.0], vec![1.0]);
        let err = edf_schedule(&tasks, &profile, 0).unwrap_err();
        assert_eq!(err.job, 0);
        assert!((err.missing - 1.0).abs() < 1e-9);
        assert!(!is_feasible(&tasks, &profile));
    }

    #[test]
    fn deadline_beyond_profile_support() {
        let tasks = vec![EdfTask::new(0, Interval::new(0.0, 10.0), 1.0)];
        let profile = SpeedProfile::new(vec![0.0, 0.5], vec![1.0]);
        assert!(edf_schedule(&tasks, &profile, 0).is_err());
    }

    #[test]
    fn preemption_across_segments() {
        // Long-deadline job is preempted by a later-released,
        // tighter-deadline job.
        let tasks = vec![
            EdfTask::new(0, Interval::new(0.0, 3.0), 2.0),
            EdfTask::new(1, Interval::new(1.0, 2.0), 1.0),
        ];
        let profile = SpeedProfile::new(vec![0.0, 3.0], vec![1.0]);
        let sched = edf_schedule(&tasks, &profile, 0).expect("feasible");
        // Job 0 runs in (0,1], job 1 in (1,2], job 0 again in (2,3].
        let mut zero_slices: Vec<&Slice> =
            sched.slices.iter().filter(|s| s.job == 0).collect();
        zero_slices.sort_by(|a, b| a.start.partial_cmp(&b.start).unwrap());
        assert_eq!(zero_slices.len(), 2);
        assert!((zero_slices[0].end - 1.0).abs() < 1e-9);
        assert!((zero_slices[1].start - 2.0).abs() < 1e-9);
    }

    #[test]
    fn zero_work_tasks_are_trivial() {
        let tasks = vec![EdfTask::new(0, Interval::new(0.0, 1.0), 0.0)];
        let profile = SpeedProfile::new(vec![0.0, 1.0], vec![0.0]);
        let sched = edf_schedule(&tasks, &profile, 0).expect("feasible");
        assert!(sched.slices.is_empty());
    }

    #[test]
    fn idle_speed_segments_are_skipped() {
        let tasks = vec![EdfTask::new(0, Interval::new(0.0, 3.0), 1.0)];
        let profile = SpeedProfile::new(vec![0.0, 1.0, 2.0, 3.0], vec![0.0, 1.0, 0.0]);
        let sched = edf_schedule(&tasks, &profile, 0).expect("feasible");
        assert!((sched.work_of(0) - 1.0).abs() < 1e-9);
        for s in &sched.slices {
            assert!(s.start >= 1.0 - 1e-9 && s.end <= 2.0 + 1e-9);
        }
    }

    #[test]
    fn from_instance_roundtrip() {
        let inst = Instance::new(vec![Job::new(0, 0.0, 1.0, 1.0), Job::new(1, 0.5, 2.0, 1.5)]);
        let tasks = EdfTask::from_instance(&inst);
        assert_eq!(tasks.len(), 2);
        assert_eq!(tasks[1].work, 1.5);
    }

    #[test]
    fn same_job_id_two_tasks() {
        // Query + exact-work parts of the same QBSS job share an id but
        // are independent EDF tasks.
        let tasks = vec![
            EdfTask::new(5, Interval::new(0.0, 1.0), 1.0),
            EdfTask::new(5, Interval::new(1.0, 2.0), 1.0),
        ];
        let profile = SpeedProfile::new(vec![0.0, 2.0], vec![1.0]);
        let sched = edf_schedule(&tasks, &profile, 0).expect("feasible");
        assert!((sched.work_of(5) - 2.0).abs() < 1e-9);
    }

    /// Random tasks mixing float windows with integer-grid windows (so
    /// deadlines tie), starts jittered within EPS of each other, some
    /// zero-work tasks, and job ids shared between tasks.
    pub(crate) fn random_tasks(rng: &mut StdRng, n: usize) -> Vec<EdfTask> {
        (0..n)
            .map(|_| {
                let (start, len) = if rng.gen_bool(0.5) {
                    (rng.gen_range(0..12u32) as f64, rng.gen_range(1..5u32) as f64)
                } else {
                    (rng.gen_range(0.0..12.0), rng.gen_range(0.05..4.0))
                };
                let jitter =
                    if rng.gen_bool(0.3) { rng.gen_range(0..3u32) as f64 * 0.4 * EPS } else { 0.0 };
                let work = if rng.gen_bool(0.1) { 0.0 } else { rng.gen_range(0.01..3.0) };
                let job = rng.gen_range(0..n as u32 / 2 + 1);
                EdfTask::new(job, Interval::new(start + jitter, start + jitter + len), work)
            })
            .collect()
    }

    /// The AVR-style density profile `Σ w/len` over the active tasks —
    /// always EDF-feasible.
    pub(crate) fn density_profile(tasks: &[EdfTask]) -> SpeedProfile {
        let events = tasks.iter().flat_map(|t| [t.window.start, t.window.end]).collect();
        SpeedProfile::from_events(events, |t| {
            tasks
                .iter()
                .filter(|k| k.window.start < t && t <= k.window.end)
                .map(|k| k.work / k.window.len())
                .sum()
        })
    }

    /// A random profile for `tasks`: feasible (density or tight YDS),
    /// scaled down towards infeasibility, or with idle (speed 0)
    /// segments punched in.
    fn random_profile(rng: &mut StdRng, tasks: &[EdfTask]) -> SpeedProfile {
        let density = density_profile(tasks);
        match rng.gen_range(0..5u32) {
            0 => density,
            1 => density.scale(rng.gen_range(0.5..0.999)),
            2 => {
                let jobs: Vec<Job> = tasks
                    .iter()
                    .filter(|t| t.work > 0.0)
                    .map(|t| Job::new(t.job, t.window.start, t.window.end, t.work))
                    .collect();
                if jobs.is_empty() {
                    density
                } else {
                    crate::yds::yds_profile(&Instance::new(jobs))
                }
            }
            _ => {
                let boost = rng.gen_range(1.0..2.0);
                let values = density
                    .values()
                    .iter()
                    .map(|v| if rng.gen_bool(0.25) { 0.0 } else { v * boost })
                    .collect();
                SpeedProfile::new(density.breakpoints().to_vec(), values)
            }
        }
    }

    /// Production and reference agree exactly: `Debug` prints every f64
    /// in shortest round-trip form, so equal strings mean equal bits.
    fn assert_matches_reference(tasks: &[EdfTask], profile: &SpeedProfile, machine: usize) -> bool {
        let new = edf_schedule(tasks, profile, machine);
        let old = reference::edf_schedule(tasks, profile, machine);
        assert_eq!(format!("{new:?}"), format!("{old:?}"), "tasks {tasks:?}\nprofile {profile:?}");
        new.is_ok()
    }

    #[test]
    fn sweep_matches_reference_on_random_task_sets() {
        let (mut feasible, mut infeasible) = (0, 0);
        for case in 0..600u64 {
            let mut rng = StdRng::seed_from_u64(0xEDF0 ^ case);
            let n = rng.gen_range(1..40usize);
            let tasks = random_tasks(&mut rng, n);
            let profile = random_profile(&mut rng, &tasks);
            let machine = if case % 7 == 0 { 2 } else { 0 };
            if assert_matches_reference(&tasks, &profile, machine) {
                feasible += 1;
            } else {
                infeasible += 1;
            }
        }
        assert!(
            feasible > 100 && infeasible > 100,
            "{feasible} feasible / {infeasible} infeasible"
        );
    }

    #[test]
    fn sweep_matches_reference_on_edge_cases() {
        let iv = Interval::new;
        let cases: Vec<(Vec<EdfTask>, SpeedProfile)> = vec![
            // Deadline ties: the lowest index runs first and misses first.
            (
                vec![
                    EdfTask::new(3, iv(0.0, 2.0), 1.5),
                    EdfTask::new(1, iv(0.0, 2.0), 1.5),
                    EdfTask::new(2, iv(0.5, 2.0), 1.0),
                ],
                SpeedProfile::new(vec![0.0, 2.0], vec![1.0]),
            ),
            // Starts within EPS of each other and of a breakpoint.
            (
                vec![
                    EdfTask::new(0, iv(1.0, 3.0), 1.0),
                    EdfTask::new(1, iv(1.0 + 0.4 * EPS, 2.0), 0.5),
                    EdfTask::new(2, iv(1.0 + 0.9 * EPS, 2.5), 0.5),
                ],
                SpeedProfile::new(vec![0.0, 1.0 + 0.5 * EPS, 3.0], vec![0.0, 1.0]),
            ),
            // Zero-work tasks only.
            (
                vec![EdfTask::new(0, iv(0.0, 1.0), 0.0), EdfTask::new(1, iv(0.5, 1.5), 0.0)],
                SpeedProfile::new(vec![0.0, 1.5], vec![0.0]),
            ),
            // An idle segment in the middle of a window, then a miss.
            (
                vec![EdfTask::new(0, iv(0.0, 3.0), 2.5), EdfTask::new(1, iv(1.0, 2.0), 0.5)],
                SpeedProfile::new(vec![0.0, 1.0, 2.0, 3.0], vec![1.0, 0.0, 1.0]),
            ),
            // Deadline past the profile end: caught by the final check.
            (
                vec![EdfTask::new(0, iv(0.0, 1.0), 0.5), EdfTask::new(1, iv(0.0, 9.0), 2.0)],
                SpeedProfile::new(vec![0.0, 1.0], vec![1.0]),
            ),
            // No tasks at all.
            (vec![], SpeedProfile::new(vec![0.0, 1.0], vec![1.0])),
        ];
        for (tasks, profile) in &cases {
            assert_matches_reference(tasks, profile, 0);
        }
    }

    #[test]
    fn heap_work_is_linear_in_tasks() {
        // Every task is pushed once and popped at most once.
        let mut rng = StdRng::seed_from_u64(11);
        let tasks = random_tasks(&mut rng, 200);
        let profile = density_profile(&tasks);
        let mut ops = EdfWork::default();
        sweep(&tasks, &profile, 0, &mut ops).expect("density profile is feasible");
        assert!(ops.heap_ops <= 2 * tasks.len() as u64, "{} heap ops", ops.heap_ops);
        assert!(ops.segments > 0);
    }
}
