//! One inter-site segment of the corridor.

use corridor_link::{CoverageProfile, SignalSource, SnrModel};
use corridor_propagation::CalibratedFriis;
use corridor_units::Meters;

use crate::{LinkBudget, PlacementError, PlacementPolicy};

/// The geometry of one corridor segment: high-power masts at `0` and `isd`,
/// low-power repeater service nodes in between.
///
/// # Examples
///
/// ```
/// use corridor_deploy::{CorridorLayout, LinkBudget, PlacementPolicy};
/// use corridor_units::Meters;
///
/// // the paper's Fig. 3 scenario: ISD 2400 m, 8 repeaters
/// let layout = CorridorLayout::with_policy(
///     Meters::new(2400.0), 8, &PlacementPolicy::paper_default())?;
/// assert_eq!(layout.repeater_positions().len(), 8);
/// let model = layout.snr_model(&LinkBudget::paper_default());
/// assert_eq!(model.sources().len(), 10); // 2 masts + 8 repeaters
/// # Ok::<(), corridor_deploy::PlacementError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct CorridorLayout {
    isd: Meters,
    repeaters: Vec<Meters>,
}

impl CorridorLayout {
    /// A segment with `n` repeaters placed by `policy`.
    ///
    /// # Errors
    ///
    /// Returns [`PlacementError`] if the policy cannot place `n` nodes in
    /// the segment.
    pub fn with_policy(
        isd: Meters,
        n: usize,
        policy: &PlacementPolicy,
    ) -> Result<Self, PlacementError> {
        let repeaters = policy.positions(n, isd)?;
        Ok(CorridorLayout { isd, repeaters })
    }

    /// Repeater positions, sorted along the track.
    pub fn repeater_positions(&self) -> &[Meters] {
        &self.repeaters
    }

    /// Builds the segment's [`SnrModel`] under `budget`: two high-power
    /// sources at the masts and one low-power source (with re-emitted
    /// noise) per repeater.
    pub fn snr_model(&self, budget: &LinkBudget) -> SnrModel<CalibratedFriis> {
        let hp = budget.hp_path_loss();
        let lp = budget.lp_path_loss();
        let mut model = SnrModel::new(*budget.carrier())
            .with_noise_floor(budget.noise_floor())
            .with_source(SignalSource::new(Meters::ZERO, budget.hp_rstp(), hp))
            .with_source(SignalSource::new(self.isd, budget.hp_rstp(), hp));
        for &pos in &self.repeaters {
            model.add_source(
                SignalSource::new(pos, budget.lp_rstp(), lp)
                    .with_emitted_noise(budget.repeater_emitted_noise()),
            );
        }
        model
    }

    /// Samples the coverage profile of this segment under `budget`.
    pub fn coverage_profile(&self, budget: &LinkBudget, step: Meters) -> CoverageProfile {
        CoverageProfile::sample(&self.snr_model(budget), self.isd, step, budget.throughput())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A segment with no repeaters.
    fn conventional(isd: f64) -> CorridorLayout {
        CorridorLayout::with_policy(Meters::new(isd), 0, &PlacementPolicy::paper_default()).unwrap()
    }

    #[test]
    fn conventional_layout() {
        let l = conventional(500.0);
        assert_eq!(l.isd, Meters::new(500.0));
        assert!(l.repeater_positions().is_empty());
        let model = l.snr_model(&LinkBudget::paper_default());
        assert_eq!(model.sources().len(), 2);
    }

    #[test]
    fn repeater_sources_carry_noise() {
        let l =
            CorridorLayout::with_policy(Meters::new(1250.0), 1, &PlacementPolicy::paper_default())
                .unwrap();
        let model = l.snr_model(&LinkBudget::paper_default());
        let at = Meters::new(600.0);
        let repeater = &model.sources()[2];
        assert!(repeater.received_noise_at(at).is_some());
        // masts carry no re-emitted noise
        assert!(model.sources()[0].received_noise_at(at).is_none());
        assert!(model.sources()[1].received_noise_at(at).is_none());
    }

    #[test]
    fn profile_of_conventional_500m_is_peak_everywhere() {
        let l = conventional(500.0);
        let p = l.coverage_profile(&LinkBudget::paper_default(), Meters::new(1.0));
        assert!(p.min_snr().unwrap().value() > 29.0);
    }

    #[test]
    fn fig3_scenario_keeps_signal_above_minus_100dbm() {
        // the paper's Fig. 3: ISD 2400 m, 8 repeaters keep the total signal
        // above -100 dBm along the whole track
        let l =
            CorridorLayout::with_policy(Meters::new(2400.0), 8, &PlacementPolicy::paper_default())
                .unwrap();
        let p = l.coverage_profile(&LinkBudget::paper_default(), Meters::new(5.0));
        for s in p.samples() {
            assert!(
                s.signal.value() > -100.0,
                "signal {:?} at {}",
                s.signal,
                s.position
            );
        }
    }

    #[test]
    fn repeaters_fill_the_coverage_hole() {
        let budget = LinkBudget::paper_default();
        let bare = conventional(2400.0).coverage_profile(&budget, Meters::new(5.0));
        let with_nodes =
            CorridorLayout::with_policy(Meters::new(2400.0), 8, &PlacementPolicy::paper_default())
                .unwrap()
                .coverage_profile(&budget, Meters::new(5.0));
        assert!(with_nodes.min_snr().unwrap() > bare.min_snr().unwrap());
        assert!(bare.min_snr().unwrap().value() < 29.0);
        assert!(with_nodes.min_snr().unwrap().value() > 29.0);
    }
}
