//! Fixture tests: every rule is pinned by a triggering, a waived and a
//! clean source file under `tests/fixtures/`, so a matcher regression
//! (rule stops firing, waiver stops suppressing, clean code starts
//! flagging) fails `cargo test` immediately. The waiver hygiene rules
//! (`unknown-rule`, `missing-reason`, `bad-waiver`) get their own
//! fixtures at the bottom.

use corridor_lint::check_source;
use corridor_lint::rules::Scope;

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
