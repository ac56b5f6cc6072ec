//! Fixture: a report printed with the panicking stdout macros.

fn report(rows: &[String]) {
    println!("{} rows", rows.len());
    for row in rows {
        print!("{row}");
    }
}
