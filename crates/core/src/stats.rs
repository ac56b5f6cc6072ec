//! Streaming statistics for Monte-Carlo replication sweeps.
//!
//! A [`Welford`] accumulator folds a stream of samples into count, mean,
//! variance, min and max in one pass without storing the samples —
//! numerically stable even for thousands of replications whose values
//! differ only in the low digits (Welford's online algorithm). A finished
//! accumulator summarizes into [`SummaryStats`], the per-cell record the
//! Monte-Carlo report writers serialize.

/// Welford's online mean/variance accumulator, plus running min/max.
///
/// Folding is deterministic: pushing the same samples in the same order
/// always produces bit-identical statistics, which is what lets the
/// Monte-Carlo report stay byte-identical across worker counts (workers
/// evaluate days in parallel; the fold happens serially in seed order).
///
/// # Non-finite samples
///
/// A single NaN or ±∞ sample **poisons** the accumulator: from that
/// sample on, `mean`, `variance`, `stddev`, `ci95`, `min` and `max` all
/// return NaN, while
/// `count` keeps counting every pushed sample. Without the explicit flag
/// the failure would be half-silent — NaN loses every float comparison,
/// so `min`/`max` would freeze at their pre-NaN values while mean/m2 went
/// NaN, and the `.max(0.0)` cancellation guard in `variance` would then
/// *heal* the NaN back to 0.0. One poisoned replication must read as "this
/// statistic is invalid", not as a plausible number — see
/// `docs/backends.md`.
///
/// # Examples
///
/// ```
/// use corridor_core::stats::Welford;
///
/// let mut acc = Welford::new();
/// for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
///     acc.push(x);
/// }
/// assert_eq!(acc.count(), 8);
/// assert!((acc.mean() - 5.0).abs() < 1e-12);
/// // sample (n-1) standard deviation
/// assert!((acc.stddev() - 2.138089935299395).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Welford {
    count: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
    poisoned: bool,
}

impl Welford {
    /// An empty accumulator.
    pub fn new() -> Self {
        Welford {
            count: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
            poisoned: false,
        }
    }

    /// Folds one sample in. A non-finite sample poisons the accumulator
    /// (see the type-level docs).
    pub fn push(&mut self, x: f64) {
        self.count += 1;
        if !x.is_finite() {
            self.poisoned = true;
        }
        let delta = x - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Number of samples folded so far (poisoned or not).
    pub fn count(&self) -> u64 {
        self.count
    }

    /// The running mean (`0.0` while empty, NaN once poisoned).
    pub fn mean(&self) -> f64 {
        if self.poisoned {
            f64::NAN
        } else if self.count == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// The unbiased sample variance (n−1 denominator; `0.0` for fewer
    /// than two samples, NaN once poisoned).
    pub fn variance(&self) -> f64 {
        if self.poisoned {
            f64::NAN
        } else if self.count < 2 {
            0.0
        } else {
            // guard the tiny negative m2 that cancellation can leave
            // (safe here: f64::max(NaN, 0.0) would heal a NaN m2 to 0.0,
            // but the poisoned branch above has already returned)
            (self.m2 / (self.count - 1) as f64).max(0.0)
        }
    }

    /// The sample standard deviation (NaN once poisoned).
    pub fn stddev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Half-width of the 95 % confidence interval on the mean,
    /// `t · s / √n` with the Student-t critical value for `n − 1`
    /// degrees of freedom (`0.0` for fewer than two samples, NaN once
    /// poisoned).
    ///
    /// The fixed normal quantile 1.96 this method used to apply
    /// understates the interval for small replication counts (at n = 10
    /// the factor is 2.262, a 15 % wider interval); [`t_critical95`]
    /// looks the proper factor up and converges to 1.96 for large n —
    /// see `docs/backends.md` for when to trust a CI.
    pub fn ci95(&self) -> f64 {
        if self.poisoned {
            f64::NAN
        } else if self.count < 2 {
            0.0
        } else {
            t_critical95(self.count - 1) * self.stddev() / (self.count as f64).sqrt()
        }
    }

    /// Smallest sample seen (`0.0` while empty, NaN once poisoned).
    pub fn min(&self) -> f64 {
        if self.poisoned {
            f64::NAN
        } else if self.count == 0 {
            0.0
        } else {
            self.min
        }
    }

    /// Largest sample seen (`0.0` while empty, NaN once poisoned).
    pub fn max(&self) -> f64 {
        if self.poisoned {
            f64::NAN
        } else if self.count == 0 {
            0.0
        } else {
            self.max
        }
    }

    /// Freezes the accumulator into a serializable summary.
    pub fn summary(&self) -> SummaryStats {
        SummaryStats {
            n: self.count(),
            mean: self.mean(),
            stddev: self.stddev(),
            ci95: self.ci95(),
            min: self.min(),
            max: self.max(),
        }
    }
}

impl Default for Welford {
    /// Returns [`Welford::new`].
    fn default() -> Self {
        Welford::new()
    }
}

/// Two-sided 95 % Student-t critical value for `df` degrees of freedom.
///
/// Exact table values for df ≤ 30, then the standard 40/60/120 rows
/// applied as a step function that always uses the *largest tabulated
/// df at or below* the actual one — i.e. the returned factor is never
/// below the true quantile in the tabulated range. Beyond df = 1000 the
/// normal 1.96 applies (the true quantile there is 1.962, a 0.1 %
/// difference). `df = 0` (a single sample) supports no interval at all
/// and returns 0.0.
///
/// # Examples
///
/// ```
/// use corridor_core::stats::t_critical95;
///
/// assert_eq!(t_critical95(9), 2.262);    // n = 10 replications
/// assert_eq!(t_critical95(1), 12.706);   // n = 2: enormous interval
/// assert_eq!(t_critical95(500), 1.98);   // 120-row bracket
/// assert_eq!(t_critical95(5000), 1.96);  // large n: normal quantile
/// ```
pub fn t_critical95(df: u64) -> f64 {
    // standard two-sided 0.05 table (df 1..=30)
    const TABLE: [f64; 30] = [
        12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262, 2.228, 2.201, 2.179, 2.160,
        2.145, 2.131, 2.120, 2.110, 2.101, 2.093, 2.086, 2.080, 2.074, 2.069, 2.064, 2.060, 2.056,
        2.052, 2.048, 2.045, 2.042,
    ];
    match df {
        0 => 0.0,
        1..=30 => TABLE[df as usize - 1],
        31..=39 => 2.042,
        40..=59 => 2.021,
        60..=119 => 2.000,
        120..=1000 => 1.98,
        _ => 1.96,
    }
}

/// The frozen statistics of one metric over a set of replications.
///
/// # Examples
///
/// ```
/// use corridor_core::stats::Welford;
///
/// let mut acc = Welford::new();
/// (1..=100).for_each(|i| acc.push(i as f64));
/// let s = acc.summary();
/// assert_eq!(s.n, 100);
/// assert_eq!(s.min, 1.0);
/// assert_eq!(s.max, 100.0);
/// // the CI half-width brackets the mean
/// assert!(s.mean - s.ci95 < 50.5 && 50.5 < s.mean + s.ci95);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SummaryStats {
    /// Number of replications.
    pub n: u64,
    /// Sample mean.
    pub mean: f64,
    /// Unbiased sample standard deviation.
    pub stddev: f64,
    /// Half-width of the 95 % confidence interval on the mean.
    pub ci95: f64,
    /// Smallest sample.
    pub min: f64,
    /// Largest sample.
    pub max: f64,
}

impl SummaryStats {
    /// True if `value` lies inside the 95 % confidence interval
    /// `[mean − ci95, mean + ci95]`.
    pub fn ci_covers(&self, value: f64) -> bool {
        (value - self.mean).abs() <= self.ci95
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_accumulator_is_all_zero() {
        let acc = Welford::new();
        assert_eq!(acc.count(), 0);
        assert_eq!(acc.mean(), 0.0);
        assert_eq!(acc.variance(), 0.0);
        assert_eq!(acc.ci95(), 0.0);
        assert_eq!(acc.min(), 0.0);
        assert_eq!(acc.max(), 0.0);
        assert_eq!(Welford::default(), acc);
    }

    #[test]
    fn single_sample_has_zero_spread() {
        let mut acc = Welford::new();
        acc.push(42.0);
        assert_eq!(acc.mean(), 42.0);
        assert_eq!(acc.stddev(), 0.0);
        assert_eq!(acc.ci95(), 0.0);
        assert_eq!(acc.min(), 42.0);
        assert_eq!(acc.max(), 42.0);
    }

    #[test]
    fn matches_two_pass_formulas() {
        let samples: Vec<f64> = (0..500).map(|i| ((i * 37) % 113) as f64 * 0.25).collect();
        let mut acc = Welford::new();
        samples.iter().for_each(|&x| acc.push(x));

        let n = samples.len() as f64;
        let mean = samples.iter().sum::<f64>() / n;
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (n - 1.0);
        assert!((acc.mean() - mean).abs() < 1e-9);
        assert!((acc.variance() - var).abs() < 1e-9);
        assert_eq!(acc.min(), samples.iter().cloned().fold(f64::MAX, f64::min));
        assert_eq!(acc.max(), samples.iter().cloned().fold(f64::MIN, f64::max));
    }

    #[test]
    fn constant_stream_is_numerically_exact() {
        // the textbook two-pass failure case: large offset, zero spread
        let mut acc = Welford::new();
        (0..10_000).for_each(|_| acc.push(1e9 + 0.5));
        assert_eq!(acc.variance(), 0.0);
        assert_eq!(acc.mean(), 1e9 + 0.5);
    }

    #[test]
    fn ci_shrinks_with_sample_count() {
        // same underlying spread, 16x the samples -> 4x tighter CI
        // (modulated by the Student-t factors of the two sample sizes)
        let wave = |i: u64| ((i % 7) as f64) - 3.0;
        let mut small = Welford::new();
        (0..70).for_each(|i| small.push(wave(i)));
        let mut large = Welford::new();
        (0..70 * 16).for_each(|i| large.push(wave(i)));
        let ratio = small.ci95() / large.ci95();
        let expected = 4.0 * t_critical95(69) / t_critical95(70 * 16 - 1);
        assert!((ratio - expected).abs() < 0.1, "ratio {ratio}");
    }

    #[test]
    fn small_replication_counts_use_student_t() {
        // n = 10 samples of unit stddev: the half-width must carry the
        // t factor 2.262, not the normal 1.96 the old code applied
        let mut acc = Welford::new();
        (0..10).for_each(|i| acc.push(if i % 2 == 0 { 1.0 } else { -1.0 }));
        let expected = 2.262 * acc.stddev() / 10f64.sqrt();
        assert!((acc.ci95() - expected).abs() < 1e-12);
        assert!(acc.ci95() > 1.96 * acc.stddev() / 10f64.sqrt());
    }

    #[test]
    fn t_table_is_monotone_and_converges_to_normal() {
        let mut last = f64::INFINITY;
        for df in 1..=2000 {
            let t = t_critical95(df);
            assert!(t <= last, "df={df}: {t} > {last}");
            assert!(t >= 1.96, "df={df}: {t} below the normal quantile");
            last = t;
        }
        assert_eq!(t_critical95(0), 0.0);
        assert_eq!(t_critical95(2000), 1.96);
    }

    #[test]
    fn non_finite_sample_poisons_every_statistic() {
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let mut acc = Welford::new();
            acc.push(1.0);
            acc.push(3.0);
            assert!(acc.mean().is_finite());
            acc.push(bad);
            acc.push(5.0); // later good samples cannot un-poison
            assert_eq!(acc.count(), 4, "count still tracks every sample");
            assert!(acc.mean().is_nan(), "mean for {bad}");
            assert!(acc.variance().is_nan(), "variance for {bad}");
            assert!(acc.stddev().is_nan(), "stddev for {bad}");
            assert!(acc.ci95().is_nan(), "ci95 for {bad}");
            // the headline bug: min/max used to freeze at 1.0/3.0
            assert!(acc.min().is_nan(), "min for {bad}");
            assert!(acc.max().is_nan(), "max for {bad}");
            let s = acc.summary();
            assert_eq!(s.n, 4);
            assert!(s.mean.is_nan() && s.min.is_nan() && s.max.is_nan());
        }
    }

    #[test]
    fn finite_streams_never_poison() {
        let mut acc = Welford::new();
        (0..1000).for_each(|i| acc.push((i as f64) * 1e10 - 5e12));
        assert!(acc.mean().is_finite());
        assert!(acc.stddev().is_finite());
    }

    #[test]
    fn summary_and_coverage() {
        let mut acc = Welford::new();
        [9.0, 10.0, 11.0].iter().for_each(|&x| acc.push(x));
        let s = acc.summary();
        assert_eq!(s.n, 3);
        assert_eq!(s.mean, 10.0);
        assert!(s.ci_covers(10.0));
        assert!(s.ci_covers(10.0 + s.ci95));
        assert!(!s.ci_covers(10.0 + s.ci95 + 1e-9));
    }
}
