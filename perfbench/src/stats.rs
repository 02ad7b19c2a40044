//! The benchmark's own arithmetic: percentiles, the tail-percentile rule,
//! and open-loop due-time accounting. Pure functions, unit-tested below.

/// Tail percentiles considered, highest first. A run reports the highest
/// one that still has at least [`TAIL_MIN_BEYOND`] samples beyond it.
pub const TAIL_CANDIDATES: [f64; 3] = [99.9, 99.0, 90.0];

/// Samples that must lie beyond a reported tail percentile.
pub const TAIL_MIN_BEYOND: f64 = 10.0;

/// The `p`-th percentile (0–100) of `values`, linearly interpolated
/// between the two nearest ranks of the sorted samples.
///
/// # Panics
///
/// Panics if `values` is empty or holds a NaN.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    assert!(!values.is_empty(), "percentile of no samples");
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("samples are not NaN"));
    let rank = (p / 100.0).clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
}

/// The median of `values`.
///
/// # Panics
///
/// As [`percentile`].
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 50.0)
}

/// The highest percentile of [`TAIL_CANDIDATES`] with at least
/// [`TAIL_MIN_BEYOND`] of `n` samples beyond it, or `None` when even the
/// lowest candidate has too few (the sample supports a median only).
pub fn tail_percentile(n: usize) -> Option<f64> {
    // The epsilon absorbs rounding in `100 - p` (e.g. 100 - 99.9).
    TAIL_CANDIDATES.into_iter().find(|p| n as f64 * (100.0 - p) / 100.0 >= TAIL_MIN_BEYOND - 1e-9)
}

/// A latency sample summarised by the rule above: count, median and the
/// supported tail.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub p50: f64,
    pub tail: Option<(f64, f64)>,
}

impl Summary {
    /// Summarises `values` (`None` when there are no samples).
    pub fn of(values: &[f64]) -> Option<Summary> {
        if values.is_empty() {
            return None;
        }
        let tail = tail_percentile(values.len()).map(|p| (p, percentile(values, p)));
        Some(Summary { n: values.len(), p50: median(values), tail })
    }

    /// One human-readable line: `name n=… p50=… p99=…` (values in ms).
    pub fn line(&self, name: &str) -> String {
        let tail = match self.tail {
            Some((p, v)) => format!(" p{p}={v:.3}"),
            None => " (too few samples for a tail)".to_owned(),
        };
        format!("{name}: n={} p50={:.3}{tail}", self.n, self.p50)
    }
}

/// One open-loop request's timeline, in seconds since the measured phase
/// began: when it was due, when the generator actually submitted it, and
/// when its first and last tokens appeared.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OpenLoopTimes {
    pub due: f64,
    pub submitted: f64,
    pub first_token: f64,
    pub last_token: f64,
}

impl OpenLoopTimes {
    /// How late the generator submitted the request.
    pub fn lag(&self) -> f64 {
        self.submitted - self.due
    }

    /// Time to first token, counted from the due time so a stall that
    /// delays submission is charged to every request it delays.
    pub fn ttft(&self) -> f64 {
        self.first_token - self.due
    }

    /// Request latency from the due time to the last token.
    pub fn latency(&self) -> f64 {
        self.last_token - self.due
    }
}

/// Gaps between consecutive token times of one request.
pub fn inter_token_gaps(times: &[f64]) -> Vec<f64> {
    times.windows(2).map(|w| w[1] - w[0]).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_interpolates_between_middle_ranks() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(percentile(&[5.0], 90.0), 5.0);
        assert_eq!(percentile(&[0.0, 10.0], 90.0), 9.0);
    }

    #[test]
    fn tail_rule_needs_ten_samples_beyond_the_percentile() {
        assert_eq!(tail_percentile(0), None);
        assert_eq!(tail_percentile(99), None);
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(999), Some(90.0));
        assert_eq!(tail_percentile(1000), Some(99.0));
        assert_eq!(tail_percentile(9999), Some(99.0));
        assert_eq!(tail_percentile(10_000), Some(99.9));
    }

    #[test]
    fn summary_reports_the_supported_tail() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        let s = Summary::of(&v).expect("non-empty");
        assert_eq!(s.n, 100);
        assert_eq!(s.p50, 50.5);
        let (pct, tail) = s.tail.expect("100 samples support p90");
        assert_eq!(pct, 90.0);
        assert!((tail - 90.1).abs() < 1e-9, "{tail}");
        assert!(Summary::of(&v[..20]).expect("non-empty").tail.is_none());
        assert!(Summary::of(&[]).is_none());
    }

    #[test]
    fn open_loop_latency_runs_from_the_due_time() {
        // Due at 1.0 s, submitted 0.25 s late behind a stalled step,
        // first token at 1.5 s, last at 2.0 s.
        let t = OpenLoopTimes { due: 1.0, submitted: 1.25, first_token: 1.5, last_token: 2.0 };
        assert_eq!(t.lag(), 0.25);
        assert_eq!(t.ttft(), 0.5);
        assert_eq!(t.latency(), 1.0);
        // Submitted on time: no lag, latency unchanged by the rule.
        let on_time = OpenLoopTimes { submitted: 1.0, ..t };
        assert_eq!(on_time.lag(), 0.0);
        assert_eq!(on_time.ttft(), 0.5);
    }

    #[test]
    fn inter_token_gaps_are_consecutive_differences() {
        assert_eq!(inter_token_gaps(&[1.0, 1.5, 3.0]), vec![0.5, 1.5]);
        assert!(inter_token_gaps(&[1.0]).is_empty());
    }
}
