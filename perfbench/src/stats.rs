//! Order statistics for timing samples: median, quartiles and the tail
//! percentile rule the benchmark reports.

/// A sample's median, quartiles and tail, with its size.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    /// Number of samples.
    pub n: usize,
    /// The 0.5 quantile.
    pub median: f64,
    /// The 0.25 quantile.
    pub q1: f64,
    /// The 0.75 quantile.
    pub q3: f64,
    /// The highest order statistic with at least [`TAIL_BEYOND`] samples
    /// above it, or the median when the sample is too small for one
    /// above the median.
    pub tail: f64,
    /// The percentile (0–1) of [`Summary::tail`].
    pub tail_q: f64,
}

impl Summary {
    /// Every statistic multiplied by `k` (a unit change).
    pub fn scaled(self, k: f64) -> Self {
        Self {
            median: self.median * k,
            q1: self.q1 * k,
            q3: self.q3 * k,
            tail: self.tail * k,
            ..self
        }
    }
}

/// How many samples must lie beyond the reported tail percentile.
pub const TAIL_BEYOND: usize = 10;

/// The `q`-quantile of an ascending sample by linear interpolation between
/// the two nearest order statistics (position `q·(n − 1)`).
///
/// # Panics
///
/// Panics on an empty sample or `q` outside `[0, 1]`.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of an empty sample");
    assert!((0.0..=1.0).contains(&q), "quantile {q} outside [0, 1]");
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// Summarizes a sample. Returns `None` when it is empty.
pub fn summarize(samples: &[f64]) -> Option<Summary> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let median = quantile(&sorted, 0.5);
    // The (n − 10)-th smallest sample has exactly ten above it; below
    // 2·10 samples that statistic would sit under the median.
    let (tail, tail_q) = if n >= 2 * TAIL_BEYOND {
        (
            sorted[n - TAIL_BEYOND - 1],
            (n - TAIL_BEYOND) as f64 / n as f64,
        )
    } else {
        (median, 0.5)
    };
    Some(Summary {
        n,
        median,
        q1: quantile(&sorted, 0.25),
        q3: quantile(&sorted, 0.75),
        tail,
        tail_q,
    })
}

/// The median of a sample, or `None` when it is empty.
pub fn median(samples: &[f64]) -> Option<f64> {
    summarize(samples).map(|s| s.median)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantile_interpolates_between_order_statistics() {
        let s = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(quantile(&s, 0.0), 1.0);
        assert_eq!(quantile(&s, 1.0), 4.0);
        assert_eq!(quantile(&s, 0.5), 2.5);
        assert_eq!(quantile(&s, 0.25), 1.75);
        assert_eq!(quantile(&s, 0.75), 3.25);
        assert_eq!(quantile(&[7.0], 0.9), 7.0);
    }

    #[test]
    fn summary_sorts_its_input() {
        let s = summarize(&[5.0, 1.0, 3.0]).unwrap();
        assert_eq!(s.n, 3);
        assert_eq!(s.median, 3.0);
        assert_eq!(s.q1, 2.0);
        assert_eq!(s.q3, 4.0);
    }

    #[test]
    fn tail_is_the_median_below_twenty_samples() {
        let samples: Vec<f64> = (1..=19).map(f64::from).collect();
        let s = summarize(&samples).unwrap();
        assert_eq!(s.tail, s.median);
        assert_eq!(s.tail_q, 0.5);
    }

    #[test]
    fn tail_leaves_exactly_ten_samples_beyond() {
        for n in [20usize, 37, 100, 1000] {
            let samples: Vec<f64> = (1..=n).rev().map(|v| v as f64).collect();
            let s = summarize(&samples).unwrap();
            let beyond = samples.iter().filter(|&&v| v > s.tail).count();
            assert_eq!(beyond, TAIL_BEYOND, "n = {n}");
            assert_eq!(s.tail_q, (n - TAIL_BEYOND) as f64 / n as f64);
        }
    }

    #[test]
    fn empty_sample_has_no_summary() {
        assert!(summarize(&[]).is_none());
        assert!(median(&[]).is_none());
    }
}
