//! Fixture: the memo lives in a context the caller owns and passes down.

use std::collections::BTreeMap;
use std::sync::atomic::AtomicU64;
use std::sync::Mutex;

static NAMES: [&str; 2] = ["Mutex", "OnceLock"];
static RUNS: AtomicU64 = AtomicU64::new(0);

pub struct Context {
    memo: Mutex<BTreeMap<u64, u64>>,
}

pub fn name(context: &'static Context) -> &'static str {
    let _ = &context.memo;
    NAMES[0]
}
