//! Order statistics for timed samples.
//!
//! Every timed figure the benchmark reports comes from repeated
//! measurements taken after a warm-up that is thrown away (the first pass
//! over a cold index runs markedly slower than the steady state). Quartiles
//! use the same "exclusive" interpolation as Python's
//! `statistics.quantiles(values, n=4)`, so a figure printed here can be
//! compared directly with one computed over several runs.

/// Samples recorded in order, with the first `warmup` of them discarded.
#[derive(Debug, Clone)]
pub struct Series {
    warmup: usize,
    seen: usize,
    kept: Vec<f64>,
}

impl Series {
    /// A series that ignores its first `warmup` samples.
    pub fn new(warmup: usize) -> Self {
        Series {
            warmup,
            seen: 0,
            kept: Vec::new(),
        }
    }

    /// Records one sample (dropped while still inside the warm-up).
    pub fn push(&mut self, x: f64) {
        self.seen += 1;
        if self.seen > self.warmup {
            self.kept.push(x);
        }
    }

    /// Number of samples kept after the warm-up.
    pub fn len(&self) -> usize {
        self.kept.len()
    }

    /// The kept samples in recording order.
    pub fn samples(&self) -> &[f64] {
        &self.kept
    }

    /// Order statistics of the kept samples.
    pub fn summary(&self) -> Summary {
        Summary::of(&self.kept)
    }
}

/// Median, quartiles and the highest well-supported percentile of a sample.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Sample count.
    pub n: usize,
    /// Median (mean of the two middle values for an even count).
    pub median: f64,
    /// First quartile (exclusive method).
    pub q1: f64,
    /// Third quartile (exclusive method).
    pub q3: f64,
    /// The highest percentile of [`TAIL_PERCENTILES`] with at least
    /// [`TAIL_SUPPORT`] samples beyond it, or `None` when even the median
    /// lacks that support.
    pub tail: Option<(f64, f64)>,
}

/// Percentiles considered for [`Summary::tail`], highest first.
pub const TAIL_PERCENTILES: [f64; 7] = [99.99, 99.9, 99.0, 95.0, 90.0, 75.0, 50.0];

/// Samples a percentile needs beyond it before it is reported.
pub const TAIL_SUPPORT: usize = 10;

impl Summary {
    /// Summarises `samples` (any order). Panics on an empty or non-finite
    /// sample: a timing loop that recorded nothing is a benchmark bug.
    pub fn of(samples: &[f64]) -> Summary {
        assert!(!samples.is_empty(), "no samples to summarise");
        assert!(samples.iter().all(|x| x.is_finite()), "non-finite sample");
        let mut sorted = samples.to_vec();
        sorted.sort_by(f64::total_cmp);
        let (q1, median, q3) = quartiles(&sorted);
        let tail = TAIL_PERCENTILES
            .iter()
            .copied()
            .find(|&p| supports(sorted.len(), p))
            .map(|p| (p, percentile(&sorted, p)));
        Summary {
            n: sorted.len(),
            median,
            q1,
            q3,
            tail,
        }
    }

    /// `(q3 - q1) / median`: the relative spread.
    pub fn rel_iqr(&self) -> f64 {
        (self.q3 - self.q1) / self.median
    }
}

/// `true` when a sample of `n` has at least [`TAIL_SUPPORT`] values above
/// the nearest-rank `p`-th percentile.
pub fn supports(n: usize, p: f64) -> bool {
    n > 0 && n - nearest_rank(n, p) >= TAIL_SUPPORT
}

/// 1-based nearest rank of the `p`-th percentile in a sample of `n`.
fn nearest_rank(n: usize, p: f64) -> usize {
    // The epsilon keeps e.g. 99% of 1000 at rank 990 despite 0.99 * 1000
    // rounding to 990.0000000000001.
    ((p / 100.0 * n as f64) - 1e-9).ceil().clamp(1.0, n as f64) as usize
}

/// Nearest-rank percentile of an ascending sample.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    sorted[nearest_rank(sorted.len(), p) - 1]
}

/// The `p`-th percentile of each window of `window` consecutive samples
/// (a short remainder joins the last window). `None` when there is no full
/// window or a window is too small to support `p`.
pub fn window_percentiles(samples: &[f64], window: usize, p: f64) -> Option<Vec<f64>> {
    if window == 0 || samples.len() < window || !supports(window, p) {
        return None;
    }
    let count = samples.len() / window;
    Some(
        (0..count)
            .map(|w| {
                let end = if w + 1 == count {
                    samples.len()
                } else {
                    (w + 1) * window
                };
                let mut chunk = samples[w * window..end].to_vec();
                chunk.sort_by(f64::total_cmp);
                percentile(&chunk, p)
            })
            .collect(),
    )
}

/// The interquartile mean: the mean of the middle half of the sample
/// (ranks `n/4 .. n - n/4`). Outliers at either end drop out as they do
/// for a median, but when a run spans two speeds of a shared host the
/// result lies between them in proportion to the time spent in each,
/// where a median would jump to whichever speed held the majority.
pub fn interquartile_mean(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "no samples to average");
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let trim = sorted.len() / 4;
    let middle = &sorted[trim..sorted.len() - trim];
    middle.iter().sum::<f64>() / middle.len() as f64
}

/// `(q1, median, q3)` of an ascending sample, by Python's exclusive
/// method (`statistics.quantiles(..., n=4)`). A single sample is its own
/// quartiles.
fn quartiles(sorted: &[f64]) -> (f64, f64, f64) {
    let len = sorted.len();
    if len == 1 {
        return (sorted[0], sorted[0], sorted[0]);
    }
    let m = len + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, len - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
    };
    (cut(1), cut(2), cut(3))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let s = Summary::of(&(1..=10).map(f64::from).collect::<Vec<_>>());
        assert_eq!((s.q1, s.median, s.q3), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        let s = Summary::of(&[3.0, 1.0, 2.0]);
        assert_eq!((s.q1, s.median, s.q3), (1.0, 2.0, 3.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        let s = Summary::of(&[2.0, 1.0]);
        assert_eq!((s.q1, s.median, s.q3), (0.75, 1.5, 2.25));
        assert_eq!(s.n, 2);
    }

    #[test]
    fn single_sample_is_its_own_summary() {
        let s = Summary::of(&[4.0]);
        assert_eq!((s.q1, s.median, s.q3, s.n), (4.0, 4.0, 4.0, 1));
        assert_eq!(s.tail, None);
    }

    #[test]
    fn tail_is_the_highest_percentile_with_ten_samples_beyond() {
        // 1000 samples: p99 leaves exactly 10 above it, p99.9 only 1.
        let xs: Vec<f64> = (1..=1000).map(f64::from).collect();
        let s = Summary::of(&xs);
        assert_eq!(s.tail, Some((99.0, 990.0)));
        // 999 samples: p99 would leave 9, so p95 is the highest supported.
        let s = Summary::of(&xs[..999]);
        assert_eq!(s.tail, Some((95.0, 950.0)));
        // 100 000 samples reach p99.99.
        let xs: Vec<f64> = (1..=100_000).map(f64::from).collect();
        assert_eq!(Summary::of(&xs).tail, Some((99.99, 99_990.0)));
        // Fewer than 20 samples support no percentile at all.
        assert_eq!(Summary::of(&xs[..19]).tail, None);
        assert_eq!(Summary::of(&xs[..20]).tail, Some((50.0, 10.0)));
    }

    #[test]
    fn supports_counts_samples_beyond_the_rank() {
        assert!(supports(1000, 99.0));
        assert!(!supports(999, 99.0));
        assert!(!supports(0, 50.0));
    }

    #[test]
    fn window_percentiles_isolate_a_burst() {
        // Three windows of 1000; the middle one is a burst ten times slower.
        let mut xs: Vec<f64> = (1..=1000).map(f64::from).collect();
        xs.extend((1..=1000).map(|x| f64::from(x) * 10.0));
        xs.extend((1..=1000).map(f64::from));
        assert_eq!(
            window_percentiles(&xs, 1000, 99.0),
            Some(vec![990.0, 9_900.0, 990.0])
        );
        // The pooled p99 is dragged into the burst.
        let mut pooled = xs.clone();
        pooled.sort_by(f64::total_cmp);
        assert_eq!(percentile(&pooled, 99.0), 9_700.0);
        // A remainder joins the last window.
        assert_eq!(
            window_percentiles(&xs[..2500], 1000, 50.0).map(|w| w.len()),
            Some(2)
        );
        // Too few samples per window for p99, or no full window.
        assert_eq!(window_percentiles(&xs, 999, 99.0), None);
        assert_eq!(window_percentiles(&xs[..10], 1000, 50.0), None);
    }

    #[test]
    fn interquartile_mean_drops_the_outer_quarters() {
        assert_eq!(
            interquartile_mean(&[8.0, 1.0, 7.0, 2.0, 6.0, 3.0, 5.0, 4.0]),
            4.5
        );
        assert_eq!(interquartile_mean(&[1.0, 2.0, 3.0, 4.0, 100.0]), 3.0);
        assert_eq!(interquartile_mean(&[5.0]), 5.0);
        assert_eq!(interquartile_mean(&[1.0, 3.0]), 2.0);
        // Two speeds, 60% slow: the median jumps to the slow one, the
        // interquartile mean lies between them.
        let mut xs = vec![10.0; 60];
        xs.extend(vec![5.0; 40]);
        assert_eq!(Summary::of(&xs).median, 10.0);
        let iqm = interquartile_mean(&xs);
        assert!(iqm > 5.0 && iqm < 10.0, "{iqm}");
    }

    #[test]
    fn series_discards_the_warmup() {
        let mut s = Series::new(2);
        for x in [100.0, 50.0, 1.0, 2.0, 3.0] {
            s.push(x);
        }
        assert_eq!(s.samples(), &[1.0, 2.0, 3.0]);
        assert_eq!(s.len(), 3);
        assert_eq!(s.summary().median, 2.0);
    }

    #[test]
    fn rel_iqr_is_spread_over_median() {
        let s = Summary::of(&(1..=10).map(f64::from).collect::<Vec<_>>());
        assert!((s.rel_iqr() - (8.25 - 2.75) / 5.5).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "no samples")]
    fn empty_sample_is_a_bug() {
        Summary::of(&[]);
    }
}
