//! Order statistics over raw samples.
//!
//! Every percentile the benchmark reports is a nearest-rank percentile
//! of the raw samples — never an interpolation inside histogram
//! buckets — and travels with its sample count.

/// Nearest-rank percentile of an ascending slice: the smallest sample
/// with at least `p`% of the samples at or below it. `p` is clamped to
/// `(0, 100]`; an empty slice yields `None`.
pub fn nearest_rank(sorted: &[f64], p: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    let n = sorted.len();
    let rank = ((p.clamp(0.0, 100.0) / 100.0) * n as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, n) - 1])
}

/// The tail rule: the highest percentile that still has at least ten
/// samples beyond it, as `(percentile, value)`. With `n` samples that is
/// the sample of rank `n − 10`, i.e. the `100·(n − 10)/n`-th percentile.
/// `None` when there are ten samples or fewer.
pub fn tail(sorted: &[f64]) -> Option<(f64, f64)> {
    let n = sorted.len();
    if n <= 10 {
        return None;
    }
    let rank = n - 10;
    Some((100.0 * rank as f64 / n as f64, sorted[rank - 1]))
}

/// A latency distribution digested for reporting.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Sample count.
    pub n: usize,
    /// Median (nearest rank).
    pub p50: f64,
    /// 90th percentile (nearest rank): the gated tail.
    pub p90: f64,
    /// 99th percentile (nearest rank).
    pub p99: f64,
    /// The tail rule's `(percentile, value)` ([`tail`]), when defined.
    pub rule: Option<(f64, f64)>,
}

impl Summary {
    /// Digests `samples` (any order); `None` when empty.
    pub fn of(samples: &[f64]) -> Option<Summary> {
        let sorted = sorted(samples);
        Some(Summary {
            n: sorted.len(),
            p50: nearest_rank(&sorted, 50.0)?,
            p90: nearest_rank(&sorted, 90.0)?,
            p99: nearest_rank(&sorted, 99.0)?,
            rule: tail(&sorted),
        })
    }

    /// One human-readable line: median, p90, p99, the tail rule's
    /// percentile and the sample count.
    pub fn describe(&self, unit: &str) -> String {
        let rule = self.rule.map_or_else(
            || "tail rule: ≤10 samples".to_string(),
            |(p, v)| format!("tail rule p{p:.2} {v:.4} {unit} (10 samples beyond)"),
        );
        format!(
            "p50 {:.4} {unit}, p90 {:.4} {unit}, p99 {:.4} {unit}, {rule}, n={}",
            self.p50, self.p90, self.p99, self.n
        )
    }
}

/// Median of the samples (nearest rank); `None` when empty.
pub fn median(samples: &[f64]) -> Option<f64> {
    nearest_rank(&sorted(samples), 50.0)
}

/// Ascending copy; NaNs sort last.
fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_matches_the_textbook_definition() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(nearest_rank(&v, 50.0), Some(50.0));
        assert_eq!(nearest_rank(&v, 99.0), Some(99.0));
        assert_eq!(nearest_rank(&v, 100.0), Some(100.0));
        assert_eq!(nearest_rank(&v, 0.0), Some(1.0));
        let five = [15.0, 20.0, 35.0, 40.0, 50.0];
        assert_eq!(nearest_rank(&five, 30.0), Some(20.0));
        assert_eq!(nearest_rank(&five, 40.0), Some(20.0));
        assert_eq!(nearest_rank(&five, 50.0), Some(35.0));
        assert_eq!(nearest_rank(&[], 50.0), None);
    }

    #[test]
    fn tail_rule_keeps_ten_samples_beyond() {
        let v: Vec<f64> = (1..=200).map(f64::from).collect();
        let (p, x) = tail(&v).expect("defined");
        assert_eq!(p, 95.0);
        assert_eq!(x, 190.0);
        assert_eq!(v.iter().filter(|&&s| s > x).count(), 10);
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail(&v), Some((99.0, 990.0)));
        assert_eq!(tail(&v[..10]), None);
        assert_eq!(tail(&v[..11]), Some((100.0 / 11.0, 1.0)));
    }

    #[test]
    fn summary_sorts_its_input() {
        let s = Summary::of(&[3.0, 1.0, 2.0]).expect("non-empty");
        assert_eq!((s.n, s.p50, s.p90, s.p99, s.rule), (3, 2.0, 3.0, 3.0, None));
        assert!(Summary::of(&[]).is_none());
        assert_eq!(median(&[5.0, 1.0, 9.0, 7.0]), Some(5.0));
    }
}
