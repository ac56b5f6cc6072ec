//! Maximum-ISD optimization (paper Section V).

use corridor_units::Meters;

use crate::{CorridorLayout, CoverageCriterion, IsdTable, LinkBudget, PlacementPolicy};

/// Finds, for each repeater count, the largest inter-site distance that
/// still satisfies a coverage criterion — the paper's 50 m-step sweep.
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
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct IsdOptimizer {
    budget: LinkBudget,
    placement: PlacementPolicy,
    criterion: CoverageCriterion,
    isd_step: Meters,
    sample_step: Meters,
    min_isd: Meters,
    max_isd: Meters,
}

impl IsdOptimizer {
    /// An optimizer with the paper's setup: 50 m ISD grid, 200 m fixed
    /// repeater spacing, min-SNR-29 dB criterion, search range
    /// 100 m – 4000 m, 5 m profile sampling.
    pub fn new(budget: LinkBudget) -> Self {
        IsdOptimizer {
            budget,
            placement: PlacementPolicy::paper_default(),
            criterion: CoverageCriterion::paper_default(),
            isd_step: Meters::new(50.0),
            sample_step: Meters::new(5.0),
            min_isd: Meters::new(100.0),
            max_isd: Meters::new(4000.0),
        }
    }

    /// Overrides the placement policy.
    #[must_use]
    pub fn with_placement(mut self, placement: PlacementPolicy) -> Self {
        self.placement = placement;
        self
    }

    /// Overrides the coverage criterion.
    #[must_use]
    pub fn with_criterion(mut self, criterion: CoverageCriterion) -> Self {
        self.criterion = criterion;
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

    /// Overrides the search range `[min, max]`.
    ///
    /// # Panics
    ///
    /// Panics if the range is empty or non-positive.
    #[must_use]
    pub fn with_search_range(mut self, min: Meters, max: Meters) -> Self {
        assert!(min.value() > 0.0 && max >= min, "invalid search range");
        self.min_isd = min;
        self.max_isd = max;
        self
    }

    /// The link budget in use.
    pub fn budget(&self) -> &LinkBudget {
        &self.budget
    }

    /// The placement policy in use.
    pub fn placement(&self) -> &PlacementPolicy {
        &self.placement
    }

    /// The criterion in use.
    pub fn criterion(&self) -> CoverageCriterion {
        self.criterion
    }

    /// True if a segment of `isd` with `n` repeaters satisfies the
    /// criterion (placement failures count as unsatisfied).
    pub fn satisfies(&self, n: usize, isd: Meters) -> bool {
        self.probe(n, isd) == crate::search::Probe::Satisfied
    }

    /// One uncached grid-point probe, in the shared skeleton's
    /// vocabulary.
    fn probe(&self, n: usize, isd: Meters) -> crate::search::Probe {
        let Ok(layout) = CorridorLayout::with_policy(isd, n, &self.placement) else {
            return crate::search::Probe::PlacementInfeasible;
        };
        let profile = layout.coverage_profile(&self.budget, self.sample_step);
        if self
            .criterion
            .is_satisfied(&profile, self.budget.throughput())
        {
            crate::search::Probe::Satisfied
        } else {
            crate::search::Probe::CriterionFailed
        }
    }

    /// The largest grid ISD for which `n` repeaters satisfy the criterion,
    /// or `None` if even the smallest feasible ISD fails.
    ///
    /// Every probe samples a fresh coverage profile; layered searches
    /// should probe a shared [`CoverageCache`](crate::CoverageCache)
    /// through
    /// [`CoverageCache::max_feasible_isd`](crate::CoverageCache::max_feasible_isd).
    pub fn max_isd(&self, n: usize) -> Option<Meters> {
        crate::search::max_feasible_on_grid(self.min_isd, self.max_isd, self.isd_step, |isd| {
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
    use corridor_units::Db;

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
        assert!(opt.satisfies(1, isd));
        assert!(!opt.satisfies(1, isd + Meters::new(50.0)));
    }

    #[test]
    fn conventional_beats_500m_under_model() {
        // the model's N=0 bound exceeds the 500 m "typical deployment"
        // (the paper's 500 m comes from real-world constraints, not from
        // this link budget)
        let opt = optimizer();
        let isd = opt.max_isd(0).unwrap();
        assert!(isd >= Meters::new(500.0));
        assert!(opt.satisfies(0, Meters::new(500.0)));
    }

    #[test]
    fn stricter_criterion_shrinks_isd() {
        let opt = optimizer();
        let strict = optimizer().with_criterion(CoverageCriterion::MinSnr(Db::new(32.0)));
        assert!(strict.max_isd(2).unwrap() < opt.max_isd(2).unwrap());
    }

    #[test]
    fn impossible_criterion_returns_none() {
        let opt = optimizer().with_criterion(CoverageCriterion::MinSnr(Db::new(90.0)));
        assert_eq!(opt.max_isd(1), None);
    }

    #[test]
    fn capped_at_search_range() {
        let opt = optimizer().with_search_range(Meters::new(100.0), Meters::new(800.0));
        // n=1 could reach 1250 m but the range caps it
        assert_eq!(opt.max_isd(1), Some(Meters::new(800.0)));
    }

    #[test]
    fn accessors() {
        let opt = optimizer();
        assert_eq!(opt.criterion(), CoverageCriterion::paper_default());
        assert_eq!(opt.placement(), &PlacementPolicy::paper_default());
        assert_eq!(opt.budget(), &LinkBudget::paper_default());
    }
}
