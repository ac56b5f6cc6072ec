//! Maximum-ISD optimization (paper Section V).

use corridor_units::Meters;

use crate::{CorridorLayout, CoverageCriterion, IsdTable, LinkBudget, PlacementPolicy};

/// Finds, for each repeater count, the largest inter-site distance that
/// still satisfies the paper's [`CoverageCriterion`] (minimum SNR ≥ 29 dB)
/// — the paper's 50 m-step sweep over 100 m – 4000 m.
///
/// The search exploits that stretching a segment only ever worsens its
/// worst-served point (for the supported placement policies both the
/// mast-to-cluster gap and the inter-node gaps are non-decreasing in the
/// ISD), so a binary search over the ISD grid finds the boundary; the
/// result is verified against the criterion before being returned.
///
/// # Examples
///
/// ```
/// use corridor_deploy::{IsdOptimizer, LinkBudget};
/// use corridor_units::Meters;
///
/// let optimizer = IsdOptimizer::new(LinkBudget::paper_default());
/// let max = optimizer.max_isd(1).unwrap();
/// // paper: one repeater extends the ISD to 1250 m
/// assert_eq!(max, Meters::new(1250.0));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct IsdOptimizer {
    budget: LinkBudget,
    placement: PlacementPolicy,
    sample_step: Meters,
}

impl IsdOptimizer {
    const ISD_STEP: Meters = Meters::new(50.0);
    const MIN_ISD: Meters = Meters::new(100.0);
    const MAX_ISD: Meters = Meters::new(4000.0);

    /// An optimizer with the paper's setup: 50 m ISD grid, 200 m fixed
    /// repeater spacing, min-SNR-29 dB criterion, search range
    /// 100 m – 4000 m, 5 m profile sampling.
    pub fn new(budget: LinkBudget) -> Self {
        IsdOptimizer {
            budget,
            placement: PlacementPolicy::paper_default(),
            sample_step: Meters::new(5.0),
        }
    }

    /// Overrides the placement policy.
    #[must_use]
    pub fn with_placement(mut self, placement: PlacementPolicy) -> Self {
        self.placement = placement;
        self
    }

    /// Overrides the profile sampling step.
    ///
    /// # Panics
    ///
    /// Panics if `step` is not strictly positive.
    #[must_use]
    pub fn with_sample_step(mut self, step: Meters) -> Self {
        assert!(step.value() > 0.0, "sample step must be positive");
        self.sample_step = step;
        self
    }

    /// One uncached grid-point probe, in the shared skeleton's
    /// vocabulary.
    fn probe(&self, n: usize, isd: Meters) -> crate::search::Probe {
        let Ok(layout) = CorridorLayout::with_policy(isd, n, &self.placement) else {
            return crate::search::Probe::PlacementInfeasible;
        };
        let profile = layout.coverage_profile(&self.budget, self.sample_step);
        if CoverageCriterion::paper_default().is_satisfied(&profile) {
            crate::search::Probe::Satisfied
        } else {
            crate::search::Probe::CriterionFailed
        }
    }

    /// The largest grid ISD for which `n` repeaters satisfy the criterion,
    /// or `None` if even the smallest feasible ISD fails.
    ///
    /// Every probe samples a fresh coverage profile under the
    /// optimizer's own budget, so this is also the search for an
    /// overridden noise floor. Layered searches under the paper budget
    /// should probe a shared [`CoverageCache`](crate::CoverageCache)
    /// through
    /// [`CoverageCache::max_feasible_isd`](crate::CoverageCache::max_feasible_isd),
    /// whose results this uncached search reproduces.
    pub fn max_isd(&self, n: usize) -> Option<Meters> {
        crate::search::max_feasible_on_grid(Self::MIN_ISD, Self::MAX_ISD, Self::ISD_STEP, |isd| {
            self.probe(n, isd)
        })
    }

    /// Sweeps `n = 0..=max_nodes` and collects the results in an
    /// [`IsdTable`].
    pub fn sweep(&self, max_nodes: usize) -> IsdTable {
        IsdTable::from_max_isds((0..=max_nodes).map(|n| self.max_isd(n)).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use corridor_units::Dbm;

    fn optimizer() -> IsdOptimizer {
        // coarser sampling keeps debug-mode tests quick; the boundary ISDs
        // are insensitive to 5 m vs 10 m sampling at a 50 m grid
        IsdOptimizer::new(LinkBudget::paper_default()).with_sample_step(Meters::new(10.0))
    }

    #[test]
    fn paper_anchor_points() {
        let opt = optimizer();
        // the model reproduces the paper's first two entries exactly
        assert_eq!(opt.max_isd(1), Some(Meters::new(1250.0)));
        assert_eq!(opt.max_isd(2), Some(Meters::new(1450.0)));
    }

    #[test]
    fn monotone_in_node_count() {
        let opt = optimizer();
        let table = opt.sweep(4);
        let mut last = Meters::ZERO;
        for n in 0..=4 {
            let isd = table.isd_for(n).expect("every n solvable");
            assert!(isd >= last, "n={n}: {isd} < {last}");
            last = isd;
        }
    }

    #[test]
    fn boundary_is_tight() {
        let opt = optimizer();
        let isd = opt.max_isd(1).unwrap();
        assert_eq!(opt.probe(1, isd), crate::search::Probe::Satisfied);
        assert_ne!(
            opt.probe(1, isd + Meters::new(50.0)),
            crate::search::Probe::Satisfied
        );
    }

    #[test]
    fn conventional_beats_500m_under_model() {
        // the model's N=0 bound exceeds the 500 m "typical deployment"
        // (the paper's 500 m comes from real-world constraints, not from
        // this link budget)
        let opt = optimizer();
        let isd = opt.max_isd(0).unwrap();
        assert!(isd >= Meters::new(500.0));
        assert_eq!(
            opt.probe(0, Meters::new(500.0)),
            crate::search::Probe::Satisfied
        );
    }

    #[test]
    fn noisier_budget_shrinks_isd() {
        let opt = optimizer();
        let noisy =
            IsdOptimizer::new(LinkBudget::paper_default().with_noise_floor(Dbm::new(-129.0)))
                .with_sample_step(Meters::new(10.0));
        assert!(noisy.max_isd(2).unwrap() < opt.max_isd(2).unwrap());
    }

    proptest::proptest! {
        /// At noise floors within ±2 dB of the paper's, a second node
        /// never shortens the supported ISD.
        #[test]
        fn more_nodes_never_worse(offset in -2.0..2.0f64) {
            let budget = LinkBudget::paper_default().with_noise_floor(Dbm::new(-132.0 + offset));
            let opt = IsdOptimizer::new(budget).with_sample_step(Meters::new(20.0));
            match (opt.max_isd(1), opt.max_isd(2)) {
                (Some(a), Some(b)) => proptest::prop_assert!(b >= a),
                (Some(_), None) => proptest::prop_assert!(false, "two nodes unsolvable but one solvable"),
                _ => {}
            }
        }
    }

    #[test]
    fn unreachable_criterion_returns_none() {
        let opt = IsdOptimizer::new(LinkBudget::paper_default().with_noise_floor(Dbm::new(-60.0)))
            .with_sample_step(Meters::new(10.0));
        assert_eq!(opt.max_isd(1), None);
    }

    #[test]
    fn capped_at_search_range() {
        // a near-noiseless budget satisfies every ISD; the 4 km ceiling
        // of the search range caps it
        let opt = IsdOptimizer::new(LinkBudget::paper_default().with_noise_floor(Dbm::new(-250.0)))
            .with_sample_step(Meters::new(10.0));
        assert_eq!(opt.max_isd(1), Some(Meters::new(4000.0)));
    }
}
