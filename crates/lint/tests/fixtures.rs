//! Fixture tests: every rule is pinned by a triggering, a waived and a
//! clean source file under `tests/fixtures/`, so a matcher regression
//! (rule stops firing, waiver stops suppressing, clean code starts
//! flagging) fails `cargo test` immediately. The waiver hygiene rules
//! (`unknown-rule`, `missing-reason`, `bad-waiver`) get their own
//! fixtures at the bottom. The workspace-level `unused-pub` rule needs
//! several files at once, so its fixtures go through [`check_tree`]
//! under workspace-relative paths instead of the per-file `CASES` table.

use corridor_lint::rules::Scope;
use corridor_lint::{check_source, check_tree};

/// Rule ids of every diagnostic in `src` under the given scope.
fn ids(src: &str, scope: Scope) -> Vec<&'static str> {
    check_source("fixture.rs", src, scope)
        .diagnostics
        .iter()
        .map(|d| d.rule_id)
        .collect()
}

/// `(rule id, trigger fixture, waived fixture, clean fixture)` — one row
/// per rule in the catalogue.
const CASES: [(&str, &str, &str, &str); 8] = [
    (
        "float-ord",
        include_str!("fixtures/float_ord_trigger.rs"),
        include_str!("fixtures/float_ord_waived.rs"),
        include_str!("fixtures/float_ord_clean.rs"),
    ),
    (
        "no-panic",
        include_str!("fixtures/no_panic_trigger.rs"),
        include_str!("fixtures/no_panic_waived.rs"),
        include_str!("fixtures/no_panic_clean.rs"),
    ),
    (
        "hash-order",
        include_str!("fixtures/hash_order_trigger.rs"),
        include_str!("fixtures/hash_order_waived.rs"),
        include_str!("fixtures/hash_order_clean.rs"),
    ),
    (
        "wall-clock",
        include_str!("fixtures/wall_clock_trigger.rs"),
        include_str!("fixtures/wall_clock_waived.rs"),
        include_str!("fixtures/wall_clock_clean.rs"),
    ),
    (
        "unsafe-code",
        include_str!("fixtures/unsafe_code_trigger.rs"),
        include_str!("fixtures/unsafe_code_waived.rs"),
        include_str!("fixtures/unsafe_code_clean.rs"),
    ),
    (
        "float-key-cast",
        include_str!("fixtures/float_key_cast_trigger.rs"),
        include_str!("fixtures/float_key_cast_waived.rs"),
        include_str!("fixtures/float_key_cast_clean.rs"),
    ),
    (
        "global-state",
        include_str!("fixtures/global_state_trigger.rs"),
        include_str!("fixtures/global_state_waived.rs"),
        include_str!("fixtures/global_state_clean.rs"),
    ),
    (
        "stdout-print",
        include_str!("fixtures/stdout_print_trigger.rs"),
        include_str!("fixtures/stdout_print_waived.rs"),
        include_str!("fixtures/stdout_print_clean.rs"),
    ),
];

#[test]
fn every_rule_fires_on_its_trigger_fixture() {
    for (rule, trigger, _, _) in CASES {
        let found = ids(trigger, Scope::Library);
        assert!(
            found.contains(&rule),
            "{rule}: trigger fixture produced {found:?}"
        );
    }
}

#[test]
fn every_rule_is_suppressed_by_a_reasoned_waiver() {
    for (rule, _, waived, _) in CASES {
        let findings = check_source("fixture.rs", waived, Scope::Library);
        assert!(
            findings.diagnostics.is_empty(),
            "{rule}: waived fixture still produced {:?}",
            findings.diagnostics
        );
        assert_eq!(findings.waivers.len(), 1, "{rule}: expected one waiver");
        assert!(findings.waivers[0].used, "{rule}: waiver went unused");
        assert!(
            findings.waivers[0].reason.is_some(),
            "{rule}: waiver lost its reason"
        );
    }
}

#[test]
fn every_rule_stays_silent_on_its_clean_fixture() {
    for (rule, _, _, clean) in CASES {
        let found = ids(clean, Scope::Library);
        assert!(found.is_empty(), "{rule}: clean fixture produced {found:?}");
    }
}

#[test]
fn harness_scope_skips_panic_and_clock_rules_but_keeps_determinism() {
    // Timing harnesses may panic and read the clock...
    let (_, no_panic_trigger, _, _) = CASES[1];
    let (_, wall_clock_trigger, _, _) = CASES[3];
    assert!(ids(no_panic_trigger, Scope::Harness).is_empty());
    assert!(ids(wall_clock_trigger, Scope::Harness).is_empty());
    // ...but determinism rules still apply to them.
    let (_, hash_trigger, _, _) = CASES[2];
    assert_eq!(ids(hash_trigger, Scope::Harness), vec!["hash-order"]);
}

#[test]
fn global_state_flags_the_static_memo_and_the_thread_local_in_library_code_only() {
    let (_, trigger, _, _) = CASES[6];
    let lines: Vec<usize> = check_source("fixture.rs", trigger, Scope::Library)
        .diagnostics
        .iter()
        .map(|d| d.line)
        .collect();
    assert_eq!(lines, vec![7, 11]);
    // a harness process may keep its own global state
    assert!(ids(trigger, Scope::Harness).is_empty());
}

#[test]
fn waiver_naming_an_unknown_rule_is_an_error() {
    let found = ids(include_str!("fixtures/unknown_rule.rs"), Scope::Library);
    assert_eq!(found, vec!["unknown-rule"]);
}

#[test]
fn waiver_without_a_reason_is_an_error_and_suppresses_nothing() {
    let found = ids(include_str!("fixtures/missing_reason.rs"), Scope::Library);
    assert!(found.contains(&"missing-reason"), "{found:?}");
    assert!(found.contains(&"no-panic"), "{found:?}");
}

#[test]
fn malformed_directive_is_an_error() {
    let found = ids(include_str!("fixtures/bad_waiver.rs"), Scope::Library);
    assert_eq!(found, vec!["bad-waiver"]);
}

#[test]
fn diagnostics_carry_file_line_and_snippet() {
    let findings = check_source(
        "crates/demo/src/lib.rs",
        include_str!("fixtures/no_panic_trigger.rs"),
        Scope::Library,
    );
    assert_eq!(findings.diagnostics.len(), 1);
    let d = &findings.diagnostics[0];
    assert_eq!(d.file, "crates/demo/src/lib.rs");
    assert_eq!(d.line, 4);
    assert!(d.snippet.contains("unwrap"), "{}", d.snippet);
    assert_eq!(
        d.to_string(),
        format!("crates/demo/src/lib.rs:4: [no-panic] {}", d.snippet)
    );
}

/// Rule ids and lines of every diagnostic of a multi-file tree.
fn tree_hits(files: &[(&str, &str)]) -> Vec<(String, usize, &'static str)> {
    check_tree(files)
        .diagnostics
        .iter()
        .map(|d| (d.file.clone(), d.line, d.rule_id))
        .collect()
}

const LIB: &str = "crates/demo/src/lib.rs";

#[test]
fn unused_pub_fires_on_items_named_only_by_themselves_or_tests() {
    let found = tree_hits(&[(LIB, include_str!("fixtures/unused_pub_trigger.rs"))]);
    assert_eq!(
        found,
        vec![
            (LIB.to_string(), 4, "unused-pub"),
            (LIB.to_string(), 9, "unused-pub"),
        ]
    );
}

#[test]
fn unused_pub_is_suppressed_by_a_reasoned_waiver() {
    let findings = check_tree(&[(LIB, include_str!("fixtures/unused_pub_waived.rs"))]);
    assert!(
        findings.diagnostics.is_empty(),
        "{:?}",
        findings.diagnostics
    );
    assert_eq!(findings.waivers.len(), 1);
    assert!(findings.waivers[0].used, "waiver went unused");
    assert!(findings.waivers[0].reason.is_some());
}

#[test]
fn unused_pub_stays_silent_when_another_file_names_the_item() {
    let clean = include_str!("fixtures/unused_pub_clean.rs");
    let consumer = "fn main() {\n    let budget = demo::entry();\n    let _ = budget.limit;\n}\n";
    let found = tree_hits(&[(LIB, clean), ("crates/bench/src/bin/demo.rs", consumer)]);
    assert!(found.is_empty(), "{found:?}");
    // without the consumer, `entry` is the one item nothing names
    let alone = tree_hits(&[(LIB, clean)]);
    assert_eq!(alone, vec![(LIB.to_string(), 17, "unused-pub")]);
}

#[test]
fn unused_pub_does_not_count_a_type_named_only_by_its_own_impls() {
    let found = tree_hits(&[(LIB, include_str!("fixtures/unused_pub_impl_trigger.rs"))]);
    // the type (its constructor and trait impl name it) and the
    // constructor (no caller); the trait counts through its impl
    assert_eq!(
        found,
        vec![
            (LIB.to_string(), 8, "unused-pub"),
            (LIB.to_string(), 13, "unused-pub"),
        ]
    );
}

#[test]
fn unused_pub_counts_a_trait_impl_for_another_type_and_a_type_named_outside_its_impls() {
    let clean = include_str!("fixtures/unused_pub_impl_clean.rs");
    let consumer = "fn main() {\n    let _ = demo::corridor_loss(1.0);\n}\n";
    let found = tree_hits(&[(LIB, clean), ("crates/bench/src/bin/demo.rs", consumer)]);
    assert!(found.is_empty(), "{found:?}");
}

#[test]
fn unused_pub_counts_a_method_only_where_it_is_called() {
    let trigger = include_str!("fixtures/unused_pub_method_trigger.rs");
    let consumer = "fn main() {\n    let budget = demo::Budget::with_limit(3);\n    let _ = demo::doubled(&budget);\n}\n";
    let found = tree_hits(&[(LIB, trigger), ("crates/bench/src/bin/demo.rs", consumer)]);
    // the field read `budget.limit` and the local `limit` share the
    // getter's name, but neither calls it; the test's call does not count
    assert_eq!(found, vec![(LIB.to_string(), 15, "unused-pub")]);
}

#[test]
fn unused_pub_counts_a_method_call_and_a_method_passed_by_path() {
    let clean = include_str!("fixtures/unused_pub_method_clean.rs");
    let consumer = "fn main() {\n    let _ = demo::headroom(&[demo::Budget::new(4)]);\n}\n";
    let found = tree_hits(&[(LIB, clean), ("crates/bench/src/bin/demo.rs", consumer)]);
    assert!(found.is_empty(), "{found:?}");
}

#[test]
fn a_name_used_only_by_the_benchmark_helper_counts_as_used() {
    let lib = "pub fn probe() -> u64 {\n    0\n}\n";
    let caller = "fn main() {\n    let _ = demo::probe();\n}\n";
    assert!(tree_hits(&[(LIB, lib), ("perfbench/src/main.rs", caller)]).is_empty());
    // the same caller in a test directory is not production code
    assert_eq!(
        tree_hits(&[(LIB, lib), ("crates/demo/tests/probe.rs", caller)]),
        vec![(LIB.to_string(), 1, "unused-pub")]
    );
}

#[test]
fn a_name_on_a_pub_use_line_only_does_not_count_as_used() {
    let inner = "crates/demo/src/inner.rs";
    let item = "pub fn reexported() {}\n";
    for reexport in [
        "pub mod inner;\npub use inner::reexported;\n",
        "pub mod inner;\npub use inner::{\n    reexported,\n};\n",
    ] {
        assert_eq!(
            tree_hits(&[(LIB, reexport), (inner, item)]),
            vec![(inner.to_string(), 1, "unused-pub")],
            "{reexport}"
        );
    }
    // a call through the re-export is a use
    let caller = "fn main() {\n    demo::reexported();\n}\n";
    let found = tree_hits(&[
        (LIB, "pub mod inner;\npub use inner::reexported;\n"),
        (inner, item),
        ("examples/demo.rs", caller),
    ]);
    assert!(found.is_empty(), "{found:?}");
}

#[test]
fn unused_pub_leaves_harness_items_alone() {
    let bin = "pub fn helper() {}\nfn main() {}\n";
    assert!(tree_hits(&[("crates/bench/src/bin/demo.rs", bin)]).is_empty());
}
