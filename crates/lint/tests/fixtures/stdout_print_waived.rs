//! Fixture: a reasoned waiver suppresses the stdout-print rule.

fn banner() {
    // corridor-lint: allow(stdout-print, reason = "one-shot banner of a tool no pipeline reads")
    println!("demo");
}
