//! The ISD table: maximum inter-site distance per repeater count.

use core::fmt;

use corridor_units::Meters;

/// Maximum achievable inter-site distance for each repeater count
/// `n = 0, 1, 2, …`.
///
/// Two sources of truth exist side by side:
///
/// * [`IsdTable::paper`] — the sequence published in the paper's Section V
///   (conventional 500 m; then 1250…2650 m for 1–10 nodes), used to
///   regenerate Fig. 4 on identical footing;
/// * [`IsdOptimizer::sweep`](crate::IsdOptimizer::sweep) — the sequence
///   computed by this crate's model, which matches the paper at n = 1, 2
///   and tracks it within ~5–15 % beyond (the paper's exact placement and
///   frequency are unstated).
///
/// # Examples
///
/// ```
/// use corridor_deploy::IsdTable;
/// use corridor_units::Meters;
///
/// let table = IsdTable::paper();
/// assert_eq!(table.isd_for(0), Some(Meters::new(500.0)));
/// assert_eq!(table.isd_for(8), Some(Meters::new(2400.0)));
/// assert_eq!(table.max_nodes(), 10);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct IsdTable {
    max_isd_by_n: Vec<Option<Meters>>,
}

impl IsdTable {
    /// The paper's published sequence: 500 m conventional, then
    /// {1250, 1450, 1600, 1800, 1950, 2100, 2250, 2400, 2500, 2650} m for
    /// one to ten repeater nodes.
    pub fn paper() -> Self {
        let isds = [
            500.0, 1250.0, 1450.0, 1600.0, 1800.0, 1950.0, 2100.0, 2250.0, 2400.0, 2500.0, 2650.0,
        ];
        IsdTable {
            max_isd_by_n: isds.iter().map(|&v| Some(Meters::new(v))).collect(),
        }
    }

    /// Builds a table from per-`n` results (index = node count).
    pub fn from_max_isds(max_isd_by_n: Vec<Option<Meters>>) -> Self {
        IsdTable { max_isd_by_n }
    }

    /// Maximum ISD for `n` repeater nodes, if solvable.
    pub fn isd_for(&self, n: usize) -> Option<Meters> {
        self.max_isd_by_n.get(n).copied().flatten()
    }

    /// The largest node count in the table.
    pub fn max_nodes(&self) -> usize {
        self.max_isd_by_n.len().saturating_sub(1)
    }

    /// Iterates `(n, max_isd)` pairs for solvable entries.
    pub fn iter(&self) -> impl Iterator<Item = (usize, Meters)> + '_ {
        self.max_isd_by_n
            .iter()
            .enumerate()
            .filter_map(|(n, isd)| isd.map(|i| (n, i)))
    }
}

impl fmt::Display for IsdTable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "{:>5}  {:>10}", "nodes", "max ISD")?;
        for (n, isd) in self.iter() {
            writeln!(f, "{n:>5}  {:>10.0} m", isd.value())?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_table_values() {
        let t = IsdTable::paper();
        let expected = [
            500.0, 1250.0, 1450.0, 1600.0, 1800.0, 1950.0, 2100.0, 2250.0, 2400.0, 2500.0, 2650.0,
        ];
        for (n, &isd) in expected.iter().enumerate() {
            assert_eq!(t.isd_for(n), Some(Meters::new(isd)), "n={n}");
        }
        assert_eq!(t.max_nodes(), 10);
        assert_eq!(t.isd_for(11), None);
    }

    #[test]
    fn paper_table_is_monotone() {
        let t = IsdTable::paper();
        let isds: Vec<Meters> = t.iter().map(|(_, isd)| isd).collect();
        for w in isds.windows(2) {
            assert!(w[1] > w[0]);
        }
    }

    #[test]
    fn unsolvable_entries_skipped() {
        let t = IsdTable::from_max_isds(vec![
            Some(Meters::new(500.0)),
            None,
            Some(Meters::new(1450.0)),
        ]);
        assert_eq!(t.isd_for(1), None);
        assert_eq!(t.iter().count(), 2);
    }

    #[test]
    fn display_renders_rows() {
        let s = IsdTable::paper().to_string();
        assert!(s.contains("nodes"));
        assert!(s.contains("2650 m"));
    }
}
