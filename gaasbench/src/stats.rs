//! Order statistics for timing samples: median, quartiles, and the tail
//! percentile that still has ten samples beyond it.
//!
//! Every timing the benchmark reports is a [`Summary`] of its samples, so
//! the sample count travels with the value. Best-of is deliberately
//! absent: the fastest sample describes the host on its best day, not the
//! code.

/// Percentiles tried, highest first, when choosing a tail to report.
const TAIL_PERCENTILES: [u32; 4] = [99, 95, 90, 50];

/// Samples that must lie beyond a percentile before it is reported.
const TAIL_BEYOND: usize = 10;

/// Median and spread of one set of samples.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Number of samples.
    pub n: usize,
    /// Median.
    pub median: f64,
    /// First quartile.
    pub q1: f64,
    /// Third quartile.
    pub q3: f64,
    /// The tail percentile chosen by [`tail_percentile`].
    pub tail_pct: u32,
    /// The sample at that percentile.
    pub tail: f64,
}

impl Summary {
    /// Summarises `samples` (any order).
    ///
    /// # Panics
    ///
    /// Panics if `samples` is empty or holds a NaN.
    pub fn of(samples: &[f64]) -> Summary {
        Summary::at_least(samples, samples.len())
    }

    /// Summarises `samples`, of which the caller guarantees `floor`: the
    /// tail percentile is the one [`tail_percentile`] picks for `floor`
    /// (or for fewer samples, if there are fewer), so it does not move
    /// with how many operations a run happened to fit in.
    ///
    /// # Panics
    ///
    /// Panics if `samples` is empty or holds a NaN.
    pub fn at_least(samples: &[f64], floor: usize) -> Summary {
        let sorted = sorted(samples);
        let (q1, median, q3) = quartiles_sorted(&sorted);
        let tail_pct = tail_percentile(floor.min(sorted.len()));
        Summary {
            n: sorted.len(),
            median,
            q1,
            q3,
            tail_pct,
            tail: percentile_sorted(&sorted, tail_pct),
        }
    }

    /// The summary of `f` applied to each sample; `f` must be monotone
    /// (increasing or decreasing), so order statistics map through it.
    pub fn map(&self, f: impl Fn(f64) -> f64) -> Summary {
        let (a, b) = (f(self.q1), f(self.q3));
        Summary {
            median: f(self.median),
            q1: a.min(b),
            q3: a.max(b),
            tail: f(self.tail),
            ..*self
        }
    }
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    assert!(!samples.is_empty(), "no samples to summarise");
    let mut v = samples.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("samples are not NaN"));
    v
}

/// Median of `samples` (mean of the middle two for an even count).
///
/// # Panics
///
/// Panics if `samples` is empty or holds a NaN.
pub fn median(samples: &[f64]) -> f64 {
    quartiles_sorted(&sorted(samples)).1
}

/// `(q1, median, q3)` of a sorted slice. The quartiles use the
/// exclusive method of Python's `statistics.quantiles(data, n=4)`, so a
/// spread printed here matches one recomputed from the same samples in
/// Python; one sample is its own quartiles.
fn quartiles_sorted(v: &[f64]) -> (f64, f64, f64) {
    let n = v.len();
    let mid = if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    };
    if n == 1 {
        return (v[0], v[0], v[0]);
    }
    let m = n + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    (cut(1), mid, cut(3))
}

/// The highest of p99/p95/p90 with at least ten samples beyond it in a
/// set of `n` samples, else p50: p50 at n = 20, p95 at n = 200.
pub fn tail_percentile(n: usize) -> u32 {
    TAIL_PERCENTILES
        .into_iter()
        .find(|&p| n - rank(n, p) >= TAIL_BEYOND)
        .unwrap_or(50)
}

/// 1-based nearest rank of percentile `p` among `n` samples.
fn rank(n: usize, p: u32) -> usize {
    (n * p as usize).div_ceil(100).max(1)
}

/// Nearest-rank percentile `p` of a sorted slice.
fn percentile_sorted(v: &[f64], p: u32) -> f64 {
    v[rank(v.len(), p) - 1]
}

/// Nearest-rank percentile `p` of `samples` (any order).
///
/// # Panics
///
/// Panics if `samples` is empty or holds a NaN.
pub fn percentile(samples: &[f64], p: u32) -> f64 {
    percentile_sorted(&sorted(samples), p)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: f64, b: f64) -> bool {
        (a - b).abs() < 1e-12
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let s = Summary::of(&(1..=10).map(f64::from).collect::<Vec<_>>());
        assert!(close(s.q1, 2.75) && close(s.median, 5.5) && close(s.q3, 8.25));
        // statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
        let s = Summary::of(&[3.0, 1.0, 2.0]);
        assert!(close(s.q1, 1.0) && close(s.q3, 3.0));
        // statistics.quantiles([1, 5], n=4) == [0.0, 3.0, 6.0]: with two
        // samples the exclusive method extrapolates.
        let s = Summary::of(&[5.0, 1.0]);
        assert!(close(s.q1, 0.0) && close(s.median, 3.0) && close(s.q3, 6.0));
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        let s = Summary::of(&[16.0, 1.0, 8.0, 2.0, 4.0]);
        assert!(close(s.q1, 1.5) && close(s.q3, 12.0));
    }

    #[test]
    fn tail_keeps_ten_samples_beyond_it() {
        assert_eq!(tail_percentile(20), 50);
        assert_eq!(tail_percentile(99), 50);
        assert_eq!(tail_percentile(100), 90);
        assert_eq!(tail_percentile(200), 95);
        assert_eq!(tail_percentile(999), 95);
        assert_eq!(tail_percentile(1000), 99);
        assert_eq!(tail_percentile(5), 50, "too few samples falls back to p50");
    }

    #[test]
    fn tail_sample_is_the_nearest_rank() {
        let v: Vec<f64> = (1..=200).map(f64::from).collect();
        let s = Summary::of(&v);
        assert_eq!((s.n, s.tail_pct, s.tail), (200, 95, 190.0));
        assert_eq!(v.iter().filter(|&&x| x > s.tail).count(), 10);
        let s = Summary::of(&v[..20]);
        assert_eq!((s.tail_pct, s.tail), (50, 10.0));
        let s = Summary::at_least(&v[..150], 20);
        assert_eq!((s.tail_pct, s.tail), (50, 75.0), "the floor, not n, picks p50");
        let s = Summary::at_least(&v[..150], 400);
        assert_eq!(s.tail_pct, 90, "fewer samples than the floor");
        assert_eq!(percentile(&[5.0, 1.0, 3.0], 50), 3.0);
    }

    #[test]
    fn map_keeps_quartiles_ordered_under_a_decreasing_map() {
        let s = Summary::of(&[1.0, 2.0, 4.0]).map(|x| 8.0 / x);
        assert_eq!(s.median, 4.0);
        assert!(s.q1 <= s.median && s.median <= s.q3);
    }
}
