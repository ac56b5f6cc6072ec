//! Fixture: a getter named like its field and like a local, called only
//! by a test.

pub struct Budget {
    limit: u32,
}

impl Budget {
    pub fn with_limit(limit: u32) -> Budget {
        Budget { limit }
    }

    /// Named by the field it reads and by the local below, but called
    /// only under `#[cfg(test)]`.
    pub fn limit(&self) -> u32 {
        self.limit
    }
}

pub fn doubled(budget: &Budget) -> u32 {
    let limit = budget.limit * 2;
    limit
}

#[cfg(test)]
mod tests {
    #[test]
    fn reads_the_limit() {
        assert_eq!(super::Budget::with_limit(3).limit(), 3);
    }
}
