//! Fixture: process-wide memos in library code.

use std::collections::BTreeMap;
use std::sync::{Mutex, OnceLock};

fn memo() -> &'static Mutex<BTreeMap<u64, u64>> {
    static MEMO: OnceLock<Mutex<BTreeMap<u64, u64>>> = OnceLock::new();
    MEMO.get_or_init(Mutex::default)
}

thread_local! {
    static SCRATCH: std::cell::RefCell<Vec<u64>> = std::cell::RefCell::new(Vec::new());
}
