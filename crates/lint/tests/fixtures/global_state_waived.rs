//! Fixture: a reasoned waiver suppresses the global-state rule.

use std::collections::BTreeMap;
use std::sync::{Mutex, OnceLock};

fn memo() -> &'static Mutex<BTreeMap<u64, u64>> {
    // corridor-lint: allow(global-state, reason = "read-only after first use; audited in review")
    static MEMO: OnceLock<Mutex<BTreeMap<u64, u64>>> = OnceLock::new();
    MEMO.get_or_init(Mutex::default)
}
