//! Fixture: stdout goes through a fallible writer; stderr may print.

use std::io::{self, Write};

fn report(out: &mut impl Write, rows: &[String]) -> io::Result<()> {
    eprintln!("writing {} rows", rows.len());
    for row in rows {
        write!(out, "{row}")?;
    }
    writeln!(out, "done")
}
