//! Fixture: one getter called as `.name()`, another passed as
//! `Type::name`.

pub struct Budget {
    limit: u32,
    spent: u32,
}

impl Budget {
    pub fn new(limit: u32) -> Budget {
        Budget { limit, spent: 0 }
    }

    pub fn limit(&self) -> u32 {
        self.limit
    }

    pub fn spent(&self) -> u32 {
        self.spent
    }
}

pub fn headroom(budgets: &[Budget]) -> u32 {
    let spent: u32 = budgets.iter().map(Budget::spent).sum();
    budgets[0].limit() - spent
}
