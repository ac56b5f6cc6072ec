//! Fixture: a reasoned waiver keeps an item that only a test names.

/// Searches run so far.
// corridor-lint: allow(unused-pub, reason = "tests::counts reads the counter the live search bumps")
pub fn searches() -> u64 {
    0
}
