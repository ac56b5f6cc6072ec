//! Repeater placement policies.

use core::fmt;

use corridor_units::Meters;

/// Where the `n` low-power repeater nodes go between two high-power masts
/// at 0 and `isd`.
///
/// Repeaters mount on existing catenary masts, which stand roughly every
/// 50 m — so any position on a 50 m grid is realizable. Policies:
///
/// * [`FixedSpacing`](PlacementPolicy::FixedSpacing) — a cluster centered
///   in the segment with a fixed node-to-node distance (the paper's
///   Table III uses 200 m);
/// * [`Custom`](PlacementPolicy::Custom) — explicit positions (the
///   survivors of a fixed-spacing cluster after some repeaters sleep).
///
/// # Examples
///
/// ```
/// use corridor_deploy::PlacementPolicy;
/// use corridor_units::Meters;
///
/// let policy = PlacementPolicy::paper_default(); // 200 m fixed spacing
/// let positions = policy.positions(3, Meters::new(1600.0))?;
/// let values: Vec<f64> = positions.iter().map(|p| p.value()).collect();
/// assert_eq!(values, vec![600.0, 800.0, 1000.0]);
/// # Ok::<(), corridor_deploy::PlacementError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub enum PlacementPolicy {
    /// A centered cluster with the given spacing between adjacent nodes.
    FixedSpacing(Meters),
    /// Explicit positions (must lie strictly inside `(0, isd)`).
    Custom(Vec<Meters>),
}

impl PlacementPolicy {
    /// The paper's Table III policy: fixed 200 m spacing, centered.
    pub fn paper_default() -> Self {
        PlacementPolicy::FixedSpacing(Meters::new(200.0))
    }

    /// Computes the repeater positions for `n` nodes in a segment of length
    /// `isd`.
    ///
    /// # Errors
    ///
    /// Returns [`PlacementError`] if the nodes do not fit (`FixedSpacing`
    /// cluster wider than the segment), if a custom position falls outside
    /// `(0, isd)`, or if a custom list has the wrong length.
    pub fn positions(&self, n: usize, isd: Meters) -> Result<Vec<Meters>, PlacementError> {
        if isd.value() <= 0.0 {
            return Err(PlacementError::InvalidIsd { isd });
        }
        match self {
            PlacementPolicy::FixedSpacing(spacing) => {
                if spacing.value() <= 0.0 {
                    return Err(PlacementError::InvalidSpacing { spacing: *spacing });
                }
                if n == 0 {
                    return Ok(Vec::new());
                }
                let span = *spacing * (n - 1) as f64;
                if span >= isd {
                    return Err(PlacementError::ClusterTooWide { span, isd });
                }
                let first = (isd - span) / 2.0;
                Ok((0..n).map(|i| first + *spacing * i as f64).collect())
            }
            PlacementPolicy::Custom(positions) => {
                if positions.len() != n {
                    return Err(PlacementError::WrongCount {
                        expected: n,
                        got: positions.len(),
                    });
                }
                for &p in positions {
                    if p.value() <= 0.0 || p >= isd {
                        return Err(PlacementError::OutOfSegment { position: p, isd });
                    }
                }
                Ok(positions.clone())
            }
        }
    }
}

/// Error computing repeater positions.
#[derive(Debug, Clone, PartialEq)]
pub enum PlacementError {
    /// The inter-site distance is not strictly positive.
    InvalidIsd {
        /// The offending ISD.
        isd: Meters,
    },
    /// The fixed spacing is not strictly positive.
    InvalidSpacing {
        /// The offending spacing.
        spacing: Meters,
    },
    /// A fixed-spacing cluster is wider than the segment.
    ClusterTooWide {
        /// Width of the node cluster.
        span: Meters,
        /// Segment length.
        isd: Meters,
    },
    /// A custom position lies outside the open segment.
    OutOfSegment {
        /// The offending position.
        position: Meters,
        /// Segment length.
        isd: Meters,
    },
    /// A custom list's length does not match the requested node count.
    WrongCount {
        /// Requested number of nodes.
        expected: usize,
        /// Length of the provided list.
        got: usize,
    },
}

impl fmt::Display for PlacementError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PlacementError::InvalidIsd { isd } => {
                write!(f, "inter-site distance {isd} is not positive")
            }
            PlacementError::InvalidSpacing { spacing } => {
                write!(f, "node spacing {spacing} is not positive")
            }
            PlacementError::ClusterTooWide { span, isd } => {
                write!(
                    f,
                    "node cluster of width {span} does not fit in segment of {isd}"
                )
            }
            PlacementError::OutOfSegment { position, isd } => {
                write!(
                    f,
                    "position {position} lies outside the open segment (0, {isd})"
                )
            }
            PlacementError::WrongCount { expected, got } => {
                write!(f, "expected {expected} custom positions, got {got}")
            }
        }
    }
}

impl std::error::Error for PlacementError {}

#[cfg(test)]
mod tests {
    use super::*;

    fn values(positions: &[Meters]) -> Vec<f64> {
        positions.iter().map(|p| p.value()).collect()
    }

    #[test]
    fn fixed_spacing_centered() {
        let p = PlacementPolicy::paper_default();
        // Fig. 3 scenario: 8 nodes, 2400 m -> 500..1900 step 200
        let pos = p.positions(8, Meters::new(2400.0)).unwrap();
        assert_eq!(
            values(&pos),
            vec![500.0, 700.0, 900.0, 1100.0, 1300.0, 1500.0, 1700.0, 1900.0]
        );
    }

    #[test]
    fn single_node_centered() {
        let p = PlacementPolicy::paper_default();
        assert_eq!(
            values(&p.positions(1, Meters::new(1250.0)).unwrap()),
            vec![625.0]
        );
    }

    #[test]
    fn zero_nodes_empty() {
        let p = PlacementPolicy::paper_default();
        assert!(p.positions(0, Meters::new(500.0)).unwrap().is_empty());
    }

    #[test]
    fn custom_positions_validated() {
        let ok = PlacementPolicy::Custom(vec![Meters::new(300.0), Meters::new(900.0)]);
        assert_eq!(
            values(&ok.positions(2, Meters::new(1200.0)).unwrap()),
            vec![300.0, 900.0]
        );
        let outside = PlacementPolicy::Custom(vec![Meters::new(1300.0)]);
        assert!(matches!(
            outside.positions(1, Meters::new(1200.0)),
            Err(PlacementError::OutOfSegment { .. })
        ));
        let miscount = PlacementPolicy::Custom(vec![Meters::new(300.0)]);
        assert!(matches!(
            miscount.positions(2, Meters::new(1200.0)),
            Err(PlacementError::WrongCount {
                expected: 2,
                got: 1
            })
        ));
    }

    #[test]
    fn cluster_must_fit() {
        let p = PlacementPolicy::FixedSpacing(Meters::new(200.0));
        // 6 nodes need 1000 m of span; a 900 m segment cannot host them
        assert!(matches!(
            p.positions(6, Meters::new(900.0)),
            Err(PlacementError::ClusterTooWide { .. })
        ));
    }

    #[test]
    fn invalid_inputs() {
        let p = PlacementPolicy::paper_default();
        assert!(matches!(
            p.positions(1, Meters::ZERO),
            Err(PlacementError::InvalidIsd { .. })
        ));
        let bad = PlacementPolicy::FixedSpacing(Meters::ZERO);
        assert!(matches!(
            bad.positions(1, Meters::new(1000.0)),
            Err(PlacementError::InvalidSpacing { .. })
        ));
    }

    #[test]
    fn positions_sorted_and_inside() {
        for n in 1..=10 {
            let isd = Meters::new(2650.0);
            let pos = PlacementPolicy::paper_default().positions(n, isd).unwrap();
            assert_eq!(pos.len(), n);
            for w in pos.windows(2) {
                assert!(w[0] < w[1]);
            }
            assert!(pos[0].value() > 0.0);
            assert!(pos[n - 1] < isd);
        }
    }

    #[test]
    fn error_messages() {
        let err = PlacementError::WrongCount {
            expected: 3,
            got: 1,
        };
        assert_eq!(err.to_string(), "expected 3 custom positions, got 1");
        fn assert_err<E: std::error::Error + Send + Sync>() {}
        assert_err::<PlacementError>();
    }
}
