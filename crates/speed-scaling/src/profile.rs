//! Piecewise-constant speed profiles.
//!
//! Every algorithm in this crate (and every QBSS algorithm built on top)
//! produces machine speeds that are piecewise constant: speeds can only
//! change at event times (releases, deadlines, splitting points). A
//! [`SpeedProfile`] stores the breakpoints and the speed on each open
//! segment, supports exact energy integration `∫ s(t)^α dt`, pointwise
//! evaluation, addition, scaling and comparison — everything the paper's
//! proofs do with speed functions.


use crate::time::{approx_eq, approx_le, dedup_times, Interval, EPS};

/// A piecewise-constant, non-negative speed function with bounded support.
///
/// Invariants (checked by [`SpeedProfile::new`]):
/// * `breakpoints` is strictly increasing and has `values.len() + 1`
///   entries;
/// * all values are finite and non-negative.
///
/// Outside `[breakpoints.first(), breakpoints.last()]` the speed is 0.
#[derive(Debug, Clone, PartialEq)]
pub struct SpeedProfile {
    breakpoints: Vec<f64>,
    values: Vec<f64>,
}

impl SpeedProfile {
    /// The identically-zero profile.
    pub fn zero() -> Self {
        Self { breakpoints: vec![0.0, 1.0], values: vec![0.0] }
    }

    /// Builds a profile from breakpoints `t_0 < t_1 < … < t_k` and segment
    /// speeds `v_1 … v_k` (speed `v_i` on `(t_{i-1}, t_i]`).
    ///
    /// Panics on inconsistent input — profiles are always machine-built.
    pub fn new(breakpoints: Vec<f64>, values: Vec<f64>) -> Self {
        assert!(
            breakpoints.len() == values.len() + 1 && !values.is_empty(),
            "profile needs k+1 breakpoints for k segments (got {} / {})",
            breakpoints.len(),
            values.len()
        );
        for w in breakpoints.windows(2) {
            assert!(w[0] < w[1] + EPS && w[1] > w[0], "breakpoints must increase: {w:?}");
        }
        for &v in &values {
            assert!(v.is_finite() && v >= 0.0, "speed must be finite and >= 0, got {v}");
        }
        Self { breakpoints, values }
    }

    /// Builds a profile by sampling `speed_at` on the grid induced by
    /// `events` (the speed is evaluated at each segment midpoint). This is
    /// the workhorse constructor of the event-driven online algorithms:
    /// they know their speed is constant between events and provide the
    /// pointwise rule. The rule is called once per segment, in increasing
    /// time order, so it may carry sweep state.
    pub fn from_events(events: Vec<f64>, mut speed_at: impl FnMut(f64) -> f64) -> Self {
        let bps = dedup_times(events);
        assert!(bps.len() >= 2, "need at least two distinct event times");
        let values = bps
            .windows(2)
            .map(|w| {
                let v = speed_at(0.5 * (w[0] + w[1]));
                assert!(v.is_finite() && v >= -EPS, "sampled speed must be >= 0, got {v}");
                v.max(0.0)
            })
            .collect();
        Self { breakpoints: bps, values }
    }

    /// The breakpoint grid.
    pub fn breakpoints(&self) -> &[f64] {
        &self.breakpoints
    }

    /// Segment speeds (speed `i` applies on
    /// `(breakpoints[i], breakpoints[i+1]]`).
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Iterates `(Interval, speed)` over the segments.
    pub fn segments(&self) -> impl Iterator<Item = (Interval, f64)> + '_ {
        self.breakpoints
            .windows(2)
            .zip(&self.values)
            .map(|(w, &v)| (Interval::new(w[0], w[1]), v))
    }

    /// Start of the support grid.
    pub fn start(&self) -> f64 {
        self.breakpoints[0]
    }

    /// End of the support grid.
    pub fn end(&self) -> f64 {
        *self.breakpoints.last().expect("non-empty")
    }

    /// Speed at time `t`. The profile is right-continuous from the left
    /// in the paper's `(a, b]` convention: `speed_at(t)` for `t` exactly
    /// on a breakpoint returns the value of the segment *ending* at `t`.
    /// Outside the support the speed is 0.
    pub fn speed_at(&self, t: f64) -> f64 {
        if approx_le(t, self.start()) || t > self.end() + EPS {
            // On `(a, b]` segments, at or before the grid start (and past
            // its end) the machine is idle.
            return 0.0;
        }
        // Binary search for the segment with breakpoints[i] < t <= breakpoints[i+1].
        let mut lo = 0usize;
        let mut hi = self.values.len();
        while lo < hi {
            let mid = (lo + hi) / 2;
            if self.breakpoints[mid + 1] + EPS >= t {
                hi = mid;
            } else {
                lo = mid + 1;
            }
        }
        self.values[lo.min(self.values.len() - 1)]
    }

    /// Total energy `∫ s(t)^α dt`.
    pub fn energy(&self, alpha: f64) -> f64 {
        assert!(alpha > 1.0, "the power exponent must satisfy α > 1, got {alpha}");
        self.segments().map(|(iv, s)| iv.len() * s.powf(alpha)).sum()
    }

    /// Maximum speed `max_t s(t)`.
    pub fn max_speed(&self) -> f64 {
        self.values.iter().copied().fold(0.0, f64::max)
    }

    /// Total work `∫ s(t) dt`.
    pub fn total_work(&self) -> f64 {
        self.segments().map(|(iv, s)| iv.len() * s).sum()
    }

    /// Work executed inside the interval `(a, b]`:
    /// `∫_a^b s(t) dt` (clipped to the support).
    pub fn work_in(&self, window: &Interval) -> f64 {
        self.segments().map(|(iv, s)| iv.overlap_len(window) * s).sum()
    }

    /// Pointwise sum of two profiles (the grid is the union of grids).
    pub fn add(&self, other: &SpeedProfile) -> SpeedProfile {
        let mut events: Vec<f64> = self.breakpoints.clone();
        events.extend_from_slice(&other.breakpoints);
        SpeedProfile::from_events(events, |t| self.speed_at(t) + other.speed_at(t))
    }

    /// Pointwise scaling by `factor >= 0`.
    pub fn scale(&self, factor: f64) -> SpeedProfile {
        assert!(factor.is_finite() && factor >= 0.0);
        SpeedProfile::new(
            self.breakpoints.clone(),
            self.values.iter().map(|v| v * factor).collect(),
        )
    }

    /// Checks the pointwise domination `self(t) <= factor * other(t)`
    /// (up to relative tolerance) on the union grid; returns the first
    /// violating time if any. This is how tests verify the paper's
    /// speed-comparison theorems (Theorem 5.2, Theorem 5.4, Theorem 6.3).
    pub fn dominated_by(&self, other: &SpeedProfile, factor: f64) -> Result<(), f64> {
        let mut events: Vec<f64> = self.breakpoints.clone();
        events.extend_from_slice(&other.breakpoints);
        let events = dedup_times(events);
        for w in events.windows(2) {
            let t = 0.5 * (w[0] + w[1]);
            let mine = self.speed_at(t);
            let theirs = other.speed_at(t);
            if mine > factor * theirs + crate::time::REL_TOL * (1.0 + mine.abs()) {
                return Err(t);
            }
        }
        Ok(())
    }

    /// Removes zero-length segments and merges adjacent segments with
    /// (numerically) equal speed. The result is semantically identical.
    pub fn simplify(&self) -> SpeedProfile {
        let mut bps = vec![self.breakpoints[0]];
        let mut vals: Vec<f64> = Vec::new();
        for (iv, v) in self.segments() {
            if iv.is_empty() {
                continue;
            }
            match vals.last() {
                Some(&last) if approx_eq(last, v) => {
                    *bps.last_mut().expect("non-empty") = iv.end;
                }
                _ => {
                    vals.push(v);
                    bps.push(iv.end);
                }
            }
        }
        if vals.is_empty() {
            return SpeedProfile::zero();
        }
        SpeedProfile { breakpoints: bps, values: vals }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn step() -> SpeedProfile {
        // Speed 2 on (0,1], speed 1 on (1,3].
        SpeedProfile::new(vec![0.0, 1.0, 3.0], vec![2.0, 1.0])
    }

    #[test]
    fn energy_and_work() {
        let p = step();
        // E = 1·2^2 + 2·1^2 = 6 for α = 2.
        assert!((p.energy(2.0) - 6.0).abs() < 1e-12);
        // E = 1·8 + 2·1 = 10 for α = 3.
        assert!((p.energy(3.0) - 10.0).abs() < 1e-12);
        assert!((p.total_work() - 4.0).abs() < 1e-12);
        assert_eq!(p.max_speed(), 2.0);
    }

    #[test]
    fn pointwise_evaluation() {
        let p = step();
        assert_eq!(p.speed_at(0.5), 2.0);
        assert_eq!(p.speed_at(1.0), 2.0); // (0,1] convention
        assert_eq!(p.speed_at(1.5), 1.0);
        assert_eq!(p.speed_at(3.0), 1.0);
        assert_eq!(p.speed_at(3.5), 0.0);
        assert_eq!(p.speed_at(0.0), 0.0);
        assert_eq!(p.speed_at(-1.0), 0.0);
    }

    #[test]
    fn work_in_window() {
        let p = step();
        assert!((p.work_in(&Interval::new(0.5, 2.0)) - (0.5 * 2.0 + 1.0)).abs() < 1e-12);
        assert_eq!(p.work_in(&Interval::new(10.0, 11.0)), 0.0);
    }

    #[test]
    fn add_profiles() {
        let p = step();
        let q = SpeedProfile::new(vec![0.5, 2.0], vec![3.0]);
        let sum = p.add(&q);
        assert!((sum.speed_at(0.75) - 5.0).abs() < 1e-12);
        assert!((sum.speed_at(1.5) - 4.0).abs() < 1e-12);
        assert!((sum.speed_at(2.5) - 1.0).abs() < 1e-12);
        assert!((sum.total_work() - (4.0 + 4.5)).abs() < 1e-12);
    }

    #[test]
    fn scale_profile() {
        let p = step().scale(2.0);
        assert_eq!(p.max_speed(), 4.0);
        assert!((p.total_work() - 8.0).abs() < 1e-12);
    }

    #[test]
    fn domination() {
        let p = step();
        assert!(p.dominated_by(&p, 1.0).is_ok());
        assert!(p.dominated_by(&p.scale(0.5), 2.0).is_ok());
        let err = p.dominated_by(&p.scale(0.5), 1.5);
        assert!(err.is_err());
    }

    #[test]
    fn simplify_merges() {
        let p = SpeedProfile::new(vec![0.0, 1.0, 2.0, 3.0], vec![1.0, 1.0, 2.0]);
        let s = p.simplify();
        assert_eq!(s.breakpoints(), &[0.0, 2.0, 3.0]);
        assert_eq!(s.values(), &[1.0, 2.0]);
        assert!((p.energy(3.0) - s.energy(3.0)).abs() < 1e-12);
    }

    #[test]
    fn from_events_dedups() {
        let p = SpeedProfile::from_events(vec![0.0, 1.0, 1.0, 2.0], |t| if t < 1.0 { 1.0 } else { 2.0 });
        assert_eq!(p.breakpoints().len(), 3);
        assert_eq!(p.speed_at(0.5), 1.0);
        assert_eq!(p.speed_at(1.5), 2.0);
    }

    #[test]
    #[should_panic(expected = "α > 1")]
    fn energy_requires_valid_alpha() {
        let _ = step().energy(1.0);
    }
}
