//! Fixture: public library items that no other site names.

/// Named only by its own declaration.
pub fn orphan() -> u32 {
    7
}

/// Named only by a test, which is not a use.
pub const TESTED_ONLY: u32 = 3;

#[cfg(test)]
mod tests {
    #[test]
    fn pins() {
        assert_eq!(super::TESTED_ONLY, 3);
    }
}
