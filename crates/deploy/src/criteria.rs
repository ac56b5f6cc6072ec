//! Capacity criteria for "maintaining the cell's throughput".

use core::fmt;

use corridor_link::{CoverageProfile, ThroughputModel};
use corridor_units::{Db, Meters};

/// What it means for a stretched segment to still "maintain the same data
/// capacity" as the conventional deployment.
///
/// The paper registers the maximum ISD "with which the throughput still
/// matches the peak throughput of 5G NR at an SNR > 29 dB" — i.e. the
/// *minimum* SNR along the track stays at or above 29 dB
/// ([`CoverageCriterion::paper_default`]). Alternative readings are
/// provided for the ablation bench.
///
/// # Examples
///
/// ```
/// use corridor_deploy::{CorridorLayout, CoverageCriterion, LinkBudget, PlacementPolicy};
/// use corridor_units::Meters;
///
/// let budget = LinkBudget::paper_default();
/// let conventional =
///     CorridorLayout::with_policy(Meters::new(500.0), 0, &PlacementPolicy::paper_default())?;
/// let profile = conventional.coverage_profile(&budget, Meters::new(5.0));
/// assert!(CoverageCriterion::paper_default().is_satisfied(&profile, budget.throughput()));
/// # Ok::<(), corridor_deploy::PlacementError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub enum CoverageCriterion {
    /// Minimum SNR along the track at or above the threshold.
    MinSnr(Db),
    /// Peak throughput everywhere: minimum SNR at or above the throughput
    /// model's exact cap crossover (≈29.3 dB for the paper's parameters).
    PeakEverywhere,
    /// Mean spectral efficiency along the track at or above a bps/Hz floor.
    MeanSpectralEfficiency(f64),
    /// The capacity delivered to a train of the given length — the minimum
    /// over train positions of the windowed mean spectral efficiency — at
    /// or above a bps/Hz floor.
    TrainWindowed {
        /// Train length used as the sliding window.
        window: Meters,
        /// Minimum windowed-mean spectral efficiency, bps/Hz.
        min_se: f64,
    },
}

impl CoverageCriterion {
    /// The paper's criterion: minimum SNR ≥ 29 dB.
    pub fn paper_default() -> Self {
        CoverageCriterion::MinSnr(Db::new(29.0))
    }

    /// Evaluates the criterion on a sampled profile.
    pub fn is_satisfied(&self, profile: &CoverageProfile, throughput: &ThroughputModel) -> bool {
        match *self {
            CoverageCriterion::MinSnr(threshold) => {
                profile.min_snr().is_some_and(|snr| snr >= threshold)
            }
            CoverageCriterion::PeakEverywhere => {
                profile.min_snr().is_some_and(|snr| throughput.is_peak(snr))
            }
            CoverageCriterion::MeanSpectralEfficiency(min_se) => profile
                .mean_spectral_efficiency()
                .is_some_and(|se| se >= min_se),
            CoverageCriterion::TrainWindowed { window, min_se } => profile
                .min_windowed_mean_se(window)
                .is_some_and(|se| se >= min_se),
        }
    }
}

impl Default for CoverageCriterion {
    /// Returns [`CoverageCriterion::paper_default`].
    fn default() -> Self {
        CoverageCriterion::paper_default()
    }
}

impl fmt::Display for CoverageCriterion {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoverageCriterion::MinSnr(t) => write!(f, "min SNR ≥ {t}"),
            CoverageCriterion::PeakEverywhere => f.write_str("peak throughput everywhere"),
            CoverageCriterion::MeanSpectralEfficiency(se) => {
                write!(f, "mean SE ≥ {se:.2} bps/Hz")
            }
            CoverageCriterion::TrainWindowed { window, min_se } => {
                write!(f, "train-windowed ({window}) SE ≥ {min_se:.2} bps/Hz")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CorridorLayout, LinkBudget, PlacementPolicy};

    fn profile(isd: f64, n: usize) -> CoverageProfile {
        let layout =
            CorridorLayout::with_policy(Meters::new(isd), n, &PlacementPolicy::paper_default())
                .unwrap();
        layout.coverage_profile(&LinkBudget::paper_default(), Meters::new(5.0))
    }

    #[test]
    fn paper_criterion_on_conventional() {
        let thr = ThroughputModel::nr_default();
        let crit = CoverageCriterion::paper_default();
        assert!(crit.is_satisfied(&profile(500.0, 0), &thr));
        assert!(!crit.is_satisfied(&profile(2400.0, 0), &thr));
    }

    #[test]
    fn paper_criterion_on_fig3_scenario() {
        let thr = ThroughputModel::nr_default();
        let crit = CoverageCriterion::paper_default();
        assert!(crit.is_satisfied(&profile(2400.0, 8), &thr));
    }

    #[test]
    fn peak_everywhere_stricter_than_29db() {
        let thr = ThroughputModel::nr_default();
        // exact cap is 29.3 dB: a profile with min SNR between 29.0 and
        // 29.3 satisfies MinSnr(29) but not PeakEverywhere.
        let p = profile(2400.0, 8);
        let min = p.min_snr().unwrap().value();
        if (29.0..29.3).contains(&min) {
            assert!(CoverageCriterion::MinSnr(Db::new(29.0)).is_satisfied(&p, &thr));
            assert!(!CoverageCriterion::PeakEverywhere.is_satisfied(&p, &thr));
        } else {
            // placement changes could move the minimum; the ordering still
            // holds: PeakEverywhere implies MinSnr(29).
            let peak_ok = CoverageCriterion::PeakEverywhere.is_satisfied(&p, &thr);
            let min29_ok = CoverageCriterion::MinSnr(Db::new(29.0)).is_satisfied(&p, &thr);
            assert!(!peak_ok || min29_ok);
        }
    }

    #[test]
    fn mean_se_criterion() {
        let thr = ThroughputModel::nr_default();
        let p = profile(500.0, 0);
        assert!(CoverageCriterion::MeanSpectralEfficiency(5.83).is_satisfied(&p, &thr));
        assert!(!CoverageCriterion::MeanSpectralEfficiency(5.85).is_satisfied(&p, &thr));
    }

    #[test]
    fn train_windowed_criterion_more_forgiving_than_min() {
        let thr = ThroughputModel::nr_default();
        // stretch until the point-wise criterion fails
        let p = profile(2600.0, 8);
        let min_fails = !CoverageCriterion::MinSnr(Db::new(29.0)).is_satisfied(&p, &thr);
        let windowed = CoverageCriterion::TrainWindowed {
            window: Meters::new(400.0),
            min_se: 5.8,
        };
        if min_fails {
            // windowed averaging over 400 m smooths the dip
            assert!(windowed.is_satisfied(&p, &thr));
        }
    }

    #[test]
    fn display() {
        assert_eq!(
            CoverageCriterion::paper_default().to_string(),
            "min SNR ≥ 29.00 dB"
        );
        assert_eq!(
            CoverageCriterion::PeakEverywhere.to_string(),
            "peak throughput everywhere"
        );
    }
}
