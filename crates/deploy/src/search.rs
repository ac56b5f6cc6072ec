//! The shared monotone grid-search skeleton behind the maximum-ISD
//! searches.
//!
//! Both [`IsdOptimizer::max_isd`](crate::IsdOptimizer::max_isd)
//! (uncached, any noise floor, the paper's 29 dB criterion on the paper's
//! 50 m grid) and
//! [`CoverageCache::max_feasible_isd`](crate::CoverageCache::max_feasible_isd)
//! (memoized, the paper budget, any SNR threshold and grid) search the
//! same structure: stretching a segment only ever worsens its
//! worst-served point, so feasibility is monotone in the ISD once
//! placement succeeds. Keeping the skeleton in
//! one place means the two searches cannot silently drift apart.

use corridor_units::Meters;

/// What one grid-point probe observed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Probe {
    /// The placement policy cannot fit the nodes at this ISD (only
    /// happens below the cluster span — keep scanning upward).
    PlacementInfeasible,
    /// Placement fits but the coverage criterion fails; by monotonicity
    /// every larger ISD fails too.
    CriterionFailed,
    /// Placement fits and the criterion holds.
    Satisfied,
}

/// The largest grid ISD (stepping by `step` from `min` up to and
/// including `max`) whose probe reports [`Probe::Satisfied`], or `None`
/// if no grid point does.
///
/// Linear scan for the first point past the placement span, then
/// binary search over the monotone feasibility boundary.
///
/// # Panics
///
/// Panics if `step` is not strictly positive or the range is empty or
/// non-positive.
pub(crate) fn max_feasible_on_grid(
    min: Meters,
    max: Meters,
    step: Meters,
    mut probe: impl FnMut(Meters) -> Probe,
) -> Option<Meters> {
    assert!(step.value() > 0.0, "ISD step must be positive");
    assert!(min.value() > 0.0 && max >= min, "invalid search range");
    let grid_len = ((max - min) / step).floor() as u64;
    let grid = |i: u64| min + step * i as f64;
    // find the first feasible grid point (placement may be too tight
    // below the cluster span)
    let mut lo = None;
    for i in 0..=grid_len {
        match probe(grid(i)) {
            Probe::PlacementInfeasible => continue,
            Probe::Satisfied => {
                lo = Some(i);
                break;
            }
            Probe::CriterionFailed => return None,
        }
    }
    let mut lo = lo?;
    let mut hi = grid_len;
    if probe(grid(hi)) == Probe::Satisfied {
        return Some(grid(hi));
    }
    // invariant: grid(lo) satisfies, grid(hi) does not
    while hi - lo > 1 {
        let mid = lo + (hi - lo) / 2;
        if probe(grid(mid)) == Probe::Satisfied {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    Some(grid(lo))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn m(v: f64) -> Meters {
        Meters::new(v)
    }

    /// Probe with a placement span and a feasibility boundary.
    fn fake(span: f64, boundary: f64) -> impl FnMut(Meters) -> Probe {
        move |isd| {
            if isd.value() < span {
                Probe::PlacementInfeasible
            } else if isd.value() <= boundary {
                Probe::Satisfied
            } else {
                Probe::CriterionFailed
            }
        }
    }

    #[test]
    fn finds_the_boundary_grid_point() {
        let found = max_feasible_on_grid(m(100.0), m(4000.0), m(50.0), fake(0.0, 1270.0));
        assert_eq!(found, Some(m(1250.0)));
    }

    #[test]
    fn skips_the_placement_span() {
        let found = max_feasible_on_grid(m(100.0), m(4000.0), m(50.0), fake(1400.0, 2400.0));
        assert_eq!(found, Some(m(2400.0)));
    }

    #[test]
    fn nothing_feasible_is_none() {
        assert_eq!(
            max_feasible_on_grid(m(100.0), m(4000.0), m(50.0), fake(0.0, 50.0)),
            None
        );
        // placement never fits at all
        assert_eq!(
            max_feasible_on_grid(m(100.0), m(4000.0), m(50.0), fake(1e9, 2e9)),
            None
        );
    }

    #[test]
    fn whole_range_feasible_caps_at_max() {
        let found = max_feasible_on_grid(m(100.0), m(800.0), m(50.0), fake(0.0, 1e9));
        assert_eq!(found, Some(m(800.0)));
    }

    #[test]
    #[should_panic(expected = "ISD step must be positive")]
    fn zero_step_rejected() {
        let _ = max_feasible_on_grid(m(100.0), m(800.0), m(0.0), fake(0.0, 1e9));
    }
}
