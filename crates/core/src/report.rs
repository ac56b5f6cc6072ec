//! Minimal fixed-width table rendering for the reproduction binaries.

use core::fmt::Write as _;

/// A fixed-width text table with a header row.
///
/// # Examples
///
/// ```
/// use corridor_core::report::TextTable;
/// let mut t = TextTable::new(vec!["n".into(), "ISD [m]".into()]);
/// t.add_row(vec!["1".into(), "1250".into()]);
/// let rendered = t.render();
/// assert!(rendered.contains("ISD [m]"));
/// assert!(rendered.contains("1250"));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TextTable {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl TextTable {
    /// Creates a table with the given column headers.
    ///
    /// # Panics
    ///
    /// Panics if `header` is empty.
    pub fn new(header: Vec<String>) -> Self {
        assert!(!header.is_empty(), "table needs at least one column");
        TextTable {
            header,
            rows: Vec::new(),
        }
    }

    /// Appends a row.
    ///
    /// # Panics
    ///
    /// Panics if the row's length differs from the header's.
    pub fn add_row(&mut self, row: Vec<String>) {
        assert_eq!(
            row.len(),
            self.header.len(),
            "row width does not match header"
        );
        self.rows.push(row);
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True if the table holds no data rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Renders the table with right-aligned columns and a separator line.
    pub fn render(&self) -> String {
        let columns = self.header.len();
        let mut widths: Vec<usize> = self.header.iter().map(String::len).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        let write_row = |out: &mut String, cells: &[String]| {
            for (i, cell) in cells.iter().enumerate() {
                if i > 0 {
                    out.push_str("  ");
                }
                let _ = write!(out, "{cell:>width$}", width = widths[i]);
            }
            out.push('\n');
        };
        write_row(&mut out, &self.header);
        let total: usize = widths.iter().sum::<usize>() + 2 * (columns - 1);
        out.push_str(&"-".repeat(total));
        out.push('\n');
        for row in &self.rows {
            write_row(&mut out, row);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned_columns() {
        let mut t = TextTable::new(vec!["a".into(), "bbbb".into()]);
        t.add_row(vec!["100".into(), "2".into()]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 3);
        assert_eq!(lines[0], "  a  bbbb");
        assert_eq!(lines[2], "100     2");
        assert!(lines[1].chars().all(|c| c == '-'));
    }

    #[test]
    fn len_and_empty() {
        let mut t = TextTable::new(vec!["x".into()]);
        assert!(t.is_empty());
        t.add_row(vec!["1".into()]);
        assert_eq!(t.len(), 1);
        assert!(!t.is_empty());
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn mismatched_row_rejected() {
        let mut t = TextTable::new(vec!["a".into(), "b".into()]);
        t.add_row(vec!["1".into()]);
    }

    #[test]
    #[should_panic(expected = "at least one column")]
    fn empty_header_rejected() {
        let _ = TextTable::new(Vec::new());
    }
}
