//! Sampled coverage profiles along the track.

use corridor_propagation::PathLoss;
use corridor_units::{Db, Dbm, Meters};

use crate::{SnrModel, ThroughputModel};

/// One sampled point of a [`CoverageProfile`].
#[derive(Debug, Clone, Copy, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct ProfileSample {
    /// Track position of the sample.
    pub position: Meters,
    /// Total received signal power (all sources combined).
    pub signal: Dbm,
    /// Total noise power (terminal + repeater noise).
    pub noise: Dbm,
    /// Signal-to-noise ratio.
    pub snr: Db,
    /// Spectral efficiency in bps/Hz from the throughput model.
    pub spectral_efficiency: f64,
}

/// A coverage profile: SNR and throughput sampled at regular intervals
/// along a track segment, with summary statistics.
///
/// This is the quantity plotted in the paper's Fig. 3 and the input to the
/// maximum-ISD search of Section V.
///
/// # Examples
///
/// ```
/// use corridor_link::{CoverageProfile, NrCarrier, SignalSource, SnrModel, ThroughputModel};
/// use corridor_propagation::CalibratedFriis;
/// use corridor_units::{Db, Dbm, Hertz, Meters};
///
/// let hp = CalibratedFriis::new(Hertz::from_ghz(3.7), Db::new(33.0));
/// let model = SnrModel::new(NrCarrier::paper_100mhz())
///     .with_source(SignalSource::new(Meters::ZERO, Dbm::new(28.8), hp))
///     .with_source(SignalSource::new(Meters::new(500.0), Dbm::new(28.8), hp));
/// let profile = CoverageProfile::sample(
///     &model,
///     Meters::new(500.0),
///     Meters::new(1.0),
///     &ThroughputModel::nr_default(),
/// );
/// assert!(profile.min_snr().unwrap().value() > 29.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct CoverageProfile {
    samples: Vec<ProfileSample>,
    step: Meters,
}

impl CoverageProfile {
    /// Samples `model` from 0 to `length` (inclusive) in steps of `step`,
    /// evaluating spectral efficiency with `throughput`.
    ///
    /// # Panics
    ///
    /// Panics if `step` is not strictly positive, if `length` is negative,
    /// or if `model` has no sources.
    pub fn sample<M: PathLoss>(
        model: &SnrModel<M>,
        length: Meters,
        step: Meters,
        throughput: &ThroughputModel,
    ) -> Self {
        assert!(step.value() > 0.0, "sample step must be positive");
        assert!(length.value() >= 0.0, "length must be non-negative");
        assert!(
            !model.sources().is_empty(),
            "cannot profile a model with no sources"
        );
        let n = (length.value() / step.value()).round() as usize;
        let mut samples = Vec::with_capacity(n + 1);
        for i in 0..=n {
            let position = Meters::new((i as f64) * step.value()).min(length);
            // corridor-lint: allow(no-panic, reason = "guarded by the sources-nonempty assert at the top of this function")
            let signal = model.total_signal_at(position).expect("model has sources");
            let noise = model.total_noise_at(position);
            let snr = signal - noise;
            samples.push(ProfileSample {
                position,
                signal,
                noise,
                snr,
                spectral_efficiency: throughput.spectral_efficiency(snr),
            });
        }
        CoverageProfile { samples, step }
    }

    /// The sampled points.
    pub fn samples(&self) -> &[ProfileSample] {
        &self.samples
    }

    /// The sampling step.
    pub fn step(&self) -> Meters {
        self.step
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// True if the profile holds no samples.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Minimum SNR over the profile.
    pub fn min_snr(&self) -> Option<Db> {
        self.samples
            .iter()
            .map(|s| s.snr)
            .min_by(|a, b| a.total_cmp(b))
    }

    /// The sample with the lowest SNR.
    pub fn worst_sample(&self) -> Option<&ProfileSample> {
        self.samples.iter().min_by(|a, b| a.snr.total_cmp(&b.snr))
    }

    /// Mean spectral efficiency over the profile, bps/Hz.
    pub fn mean_spectral_efficiency(&self) -> Option<f64> {
        if self.samples.is_empty() {
            return None;
        }
        let sum: f64 = self.samples.iter().map(|s| s.spectral_efficiency).sum();
        Some(sum / self.samples.len() as f64)
    }

    /// Fraction of samples at the peak rate of `throughput`.
    pub fn fraction_at_peak(&self, throughput: &ThroughputModel) -> f64 {
        if self.samples.is_empty() {
            return 0.0;
        }
        let peak = self
            .samples
            .iter()
            .filter(|s| throughput.is_peak(s.snr))
            .count();
        peak as f64 / self.samples.len() as f64
    }

    /// The minimum over all train positions of the mean spectral efficiency
    /// seen across a train of length `window` (sliding-window mean).
    ///
    /// A train occupies many metres of track at once; terminals are spread
    /// along it, so the capacity delivered *to the train* is closer to a
    /// windowed average than to the point-wise SNR. Returns `None` if the
    /// window is longer than the profile.
    pub fn min_windowed_mean_se(&self, window: Meters) -> Option<f64> {
        let w = (window.value() / self.step.value()).round() as usize;
        if w == 0 || w > self.samples.len() {
            return None;
        }
        let se: Vec<f64> = self.samples.iter().map(|s| s.spectral_efficiency).collect();
        let mut sum: f64 = se[..w].iter().sum();
        let mut min_mean = sum / w as f64;
        for i in w..se.len() {
            sum += se[i] - se[i - w];
            min_mean = min_mean.min(sum / w as f64);
        }
        Some(min_mean)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{NrCarrier, SignalSource};
    use corridor_propagation::CalibratedFriis;
    use corridor_units::Hertz;

    fn model(isd: f64) -> SnrModel<CalibratedFriis> {
        let hp = CalibratedFriis::new(Hertz::from_ghz(3.7), Db::new(33.0));
        SnrModel::new(NrCarrier::paper_100mhz())
            .with_source(SignalSource::new(Meters::ZERO, Dbm::new(28.81), hp))
            .with_source(SignalSource::new(Meters::new(isd), Dbm::new(28.81), hp))
    }

    fn profile(isd: f64, step: f64) -> CoverageProfile {
        CoverageProfile::sample(
            &model(isd),
            Meters::new(isd),
            Meters::new(step),
            &ThroughputModel::nr_default(),
        )
    }

    #[test]
    fn sample_count_and_endpoints() {
        let p = profile(500.0, 1.0);
        assert_eq!(p.len(), 501);
        assert!(!p.is_empty());
        assert_eq!(p.samples()[0].position, Meters::ZERO);
        assert_eq!(p.samples()[500].position, Meters::new(500.0));
        assert_eq!(p.step(), Meters::new(1.0));
    }

    #[test]
    fn worst_point_is_midpoint_for_symmetric_pair() {
        let p = profile(500.0, 1.0);
        let worst = p.worst_sample().unwrap();
        assert!((worst.position.value() - 250.0).abs() <= 1.0);
        assert_eq!(p.min_snr().unwrap(), worst.snr);
    }

    #[test]
    fn conventional_isd_is_all_peak() {
        let p = profile(500.0, 1.0);
        assert_eq!(p.fraction_at_peak(&ThroughputModel::nr_default()), 1.0);
        assert!((p.mean_spectral_efficiency().unwrap() - 5.84).abs() < 1e-12);
    }

    #[test]
    fn overstretched_isd_loses_peak() {
        let p = profile(3000.0, 5.0);
        assert!(p.fraction_at_peak(&ThroughputModel::nr_default()) < 1.0);
        assert!(p.mean_spectral_efficiency().unwrap() < 5.84);
    }

    #[test]
    fn windowed_mean_between_min_and_max() {
        let p = profile(3000.0, 5.0);
        let windowed = p.min_windowed_mean_se(Meters::new(400.0)).unwrap();
        let min = p
            .samples()
            .iter()
            .map(|s| s.spectral_efficiency)
            .fold(f64::INFINITY, f64::min);
        let mean = p.mean_spectral_efficiency().unwrap();
        assert!(windowed >= min - 1e-12);
        assert!(windowed <= mean + 1e-12 || windowed <= 5.84);
    }

    #[test]
    fn windowed_mean_none_when_window_too_long() {
        let p = profile(500.0, 1.0);
        assert!(p.min_windowed_mean_se(Meters::new(1000.0)).is_none());
    }

    #[test]
    #[should_panic(expected = "no sources")]
    fn profiling_empty_model_panics() {
        let empty: SnrModel<CalibratedFriis> = SnrModel::new(NrCarrier::paper_100mhz());
        let _ = CoverageProfile::sample(
            &empty,
            Meters::new(100.0),
            Meters::new(1.0),
            &ThroughputModel::nr_default(),
        );
    }

    #[test]
    #[should_panic(expected = "step must be positive")]
    fn zero_step_panics() {
        let _ = CoverageProfile::sample(
            &model(500.0),
            Meters::new(100.0),
            Meters::ZERO,
            &ThroughputModel::nr_default(),
        );
    }

    #[test]
    fn nan_snr_sample_does_not_win_the_minimum() {
        // regression: min_snr / worst_sample
        // used partial_cmp + expect and panicked on NaN. total_cmp orders
        // NaN after +inf, so a NaN sample loses every min search.
        let sample = |snr: f64, se: f64| ProfileSample {
            position: Meters::ZERO,
            signal: Dbm::new(-80.0),
            noise: Dbm::new(-100.0),
            snr: Db::new(snr),
            spectral_efficiency: se,
        };
        let profile = CoverageProfile {
            samples: vec![
                sample(20.0, 5.0),
                sample(f64::NAN, f64::NAN),
                sample(12.0, 3.5),
            ],
            step: Meters::new(1.0),
        };
        assert_eq!(profile.min_snr(), Some(Db::new(12.0)));
        assert_eq!(profile.worst_sample().map(|s| s.snr), Some(Db::new(12.0)));
    }
}
