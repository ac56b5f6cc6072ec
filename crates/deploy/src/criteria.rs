//! The capacity criterion for "maintaining the cell's throughput".

use corridor_link::CoverageProfile;
use corridor_units::Db;

/// What it means for a stretched segment to still "maintain the same data
/// capacity" as the conventional deployment.
///
/// The paper registers the maximum ISD "with which the throughput still
/// matches the peak throughput of 5G NR at an SNR > 29 dB" — i.e. the
/// *minimum* SNR along the track stays at or above 29 dB.
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
/// assert!(CoverageCriterion::paper_default().is_satisfied(&profile));
/// # Ok::<(), corridor_deploy::PlacementError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct CoverageCriterion;

impl CoverageCriterion {
    /// The minimum SNR along the track.
    const MIN_SNR: Db = Db::new(29.0);

    /// The paper's criterion: minimum SNR ≥ 29 dB.
    pub fn paper_default() -> Self {
        CoverageCriterion
    }

    /// Evaluates the criterion on a sampled profile.
    pub fn is_satisfied(&self, profile: &CoverageProfile) -> bool {
        profile.min_snr().is_some_and(|snr| snr >= Self::MIN_SNR)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CorridorLayout, LinkBudget, PlacementPolicy};
    use corridor_units::Meters;

    fn profile(isd: f64, n: usize) -> CoverageProfile {
        let layout =
            CorridorLayout::with_policy(Meters::new(isd), n, &PlacementPolicy::paper_default())
                .unwrap();
        layout.coverage_profile(&LinkBudget::paper_default(), Meters::new(5.0))
    }

    #[test]
    fn paper_criterion_on_conventional() {
        let crit = CoverageCriterion::paper_default();
        assert!(crit.is_satisfied(&profile(500.0, 0)));
        assert!(!crit.is_satisfied(&profile(2400.0, 0)));
    }

    #[test]
    fn paper_criterion_on_fig3_scenario() {
        let crit = CoverageCriterion::paper_default();
        assert!(crit.is_satisfied(&profile(2400.0, 8)));
    }
}
