//! Fixture: public items that another file, or this file's own code, names.

pub const LIMIT: u32 = 4;

pub struct Budget {
    pub limit: u32,
}

impl Budget {
    pub fn new() -> Self {
        Budget { limit: LIMIT }
    }
}

pub(crate) fn internal() {}

pub fn entry() -> Budget {
    internal();
    Budget::new()
}
