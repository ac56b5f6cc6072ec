//! The rule set: each rule encodes one workspace invariant.
//!
//! Rules scan the masked text (see [`crate::sanitize`]) line by line
//! with word-boundary token matching — no regular expressions, no
//! parser, no dependencies. Matching is deliberately conservative: a
//! rule fires on the *token pattern* of a hazard, and genuinely safe
//! sites carry an inline waiver whose reason string documents the
//! safety argument (the waiver is part of the code review surface).

use std::collections::BTreeMap;

use crate::sanitize::Sanitized;

/// A lint rule identifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Rule {
    /// NaN-unsafe float ordering: any `partial_cmp` call or
    /// implementation in scanned code. Library code must order floats
    /// with `f64::total_cmp`, the `total_cmp` helpers on the unit
    /// newtypes, or the `corridor_core::pareto` dominance helpers.
    FloatOrd,
    /// Panic-family calls in non-test library code: `.unwrap()`,
    /// `.expect(…)`, `panic!`, `unreachable!`, `todo!`,
    /// `unimplemented!`. Library crates surface typed errors
    /// (`ScenarioError` / `NetworkError`) instead.
    NoPanic,
    /// `HashMap` / `HashSet` at an import or fully-qualified use site.
    /// Hash iteration order is nondeterministic across processes, so
    /// any map that could feed a report, sink or CSV path must be a
    /// `BTreeMap` — or carry a waiver whose reason is the order-safety
    /// argument (key-probed only, no iteration escapes).
    HashOrder,
    /// Wall-clock reads (`Instant::now`, `SystemTime`) outside the
    /// bench/timing crates. Simulation and report code must be
    /// time-independent or byte-determinism cannot hold.
    WallClock,
    /// `unsafe` blocks/functions and `static mut` items. The workspace
    /// compiles entirely in safe Rust; crate roots carry
    /// `#![forbid(unsafe_code)]` and this rule catches the gap before
    /// the compiler attribute is edited away.
    UnsafeCode,
    /// `as` integer casts inside sort-key code (closures passed to
    /// `sort_by_key`-family methods and bodies of `fn …sort_key…`).
    /// A float→int `as` cast saturates and collapses NaN to 0, which
    /// silently reorders; sort keys must use `to_bits`-style exact
    /// encodings.
    FloatKeyCast,
    /// Process-wide state in library code: a `static` item whose type
    /// holds a `Mutex`, `RwLock`, `OnceLock`, `HashMap` or `BTreeMap`,
    /// or a `thread_local!` block. Such state outlives every engine run,
    /// grows without a visible bound and makes cold versus warm
    /// implicit; memos belong in an explicit, bounded context that the
    /// run passes down (`corridor_sim::EvalContext`).
    GlobalState,
    /// `print!` / `println!` in scanned code. They panic when stdout is
    /// closed; every binary writes stdout through the one fallible
    /// writer of `corridor_bench::args`, which ends the run with exit
    /// status 2 instead. `eprint!` / `eprintln!` stay allowed.
    StdoutPrint,
    /// A `pub` item of a library crate (`fn`, `const`, `static`,
    /// `struct`, `enum`, `trait` or `type`) whose name appears nowhere
    /// else in the non-test code of the workspace or the benchmark
    /// helper. Imports do not count as uses, and neither does a type's
    /// name inside its own `impl` blocks (`impl T`, `impl Trait for T`),
    /// so a type that only its own constructors name is caught; a
    /// trait's name in its impls for other types still counts.
    /// Workspace-level: it fires only when [`scan`] is given the name
    /// index of every file, which [`crate::check_tree`] builds.
    UnusedPub,
}

impl Rule {
    /// Every content rule, in report order.
    pub const ALL: [Rule; 9] = [
        Rule::FloatOrd,
        Rule::NoPanic,
        Rule::HashOrder,
        Rule::WallClock,
        Rule::UnsafeCode,
        Rule::FloatKeyCast,
        Rule::GlobalState,
        Rule::StdoutPrint,
        Rule::UnusedPub,
    ];

    /// The stable kebab-case id used in diagnostics and waivers.
    pub fn id(self) -> &'static str {
        match self {
            Rule::FloatOrd => "float-ord",
            Rule::NoPanic => "no-panic",
            Rule::HashOrder => "hash-order",
            Rule::WallClock => "wall-clock",
            Rule::UnsafeCode => "unsafe-code",
            Rule::FloatKeyCast => "float-key-cast",
            Rule::GlobalState => "global-state",
            Rule::StdoutPrint => "stdout-print",
            Rule::UnusedPub => "unused-pub",
        }
    }

    /// One-line description for `lint --list-rules` and the JSON report.
    pub fn summary(self) -> &'static str {
        match self {
            Rule::FloatOrd => "NaN-unsafe float ordering (partial_cmp); use total_cmp or pareto helpers",
            Rule::NoPanic => "panic-family call in non-test library code; use typed errors",
            Rule::HashOrder => "HashMap/HashSet (nondeterministic iteration order); use BTreeMap or waive with an order-safety argument",
            Rule::WallClock => "wall-clock read outside bench/timing code",
            Rule::UnsafeCode => "unsafe code or static mut",
            Rule::FloatKeyCast => "`as` integer cast in sort-key code; use exact bit encodings",
            Rule::GlobalState => "static lock/once-cell/map or thread_local! in library code; keep state in an explicit, bounded context",
            Rule::StdoutPrint => "print!/println! (panics on a closed stdout); write through a fallible stdout writer",
            Rule::UnusedPub => "pub library item named nowhere else in non-test code; delete it or waive it naming the test that needs it",
        }
    }

    /// Parses a waiver's rule id; `None` for unknown ids.
    pub fn parse(id: &str) -> Option<Rule> {
        Rule::ALL.into_iter().find(|r| r.id() == id)
    }
}

/// What part of the workspace a file belongs to, deciding which rules
/// apply.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scope {
    /// Library crates and the umbrella crate: every rule applies.
    Library,
    /// The bench/CLI harness and the offline dependency shims: the
    /// determinism rules apply, but panics are acceptable in binaries,
    /// wall-clock timing is what the harness binaries are for, and a
    /// process is free to keep its own global state.
    Harness,
}

impl Scope {
    /// Whether `rule` is enforced in this scope.
    pub fn enforces(self, rule: Rule) -> bool {
        match self {
            Scope::Library => true,
            Scope::Harness => !matches!(
                rule,
                Rule::NoPanic | Rule::WallClock | Rule::GlobalState | Rule::UnusedPub
            ),
        }
    }
}

/// One raw rule hit, before waiver resolution.
#[derive(Debug, Clone)]
pub struct Hit {
    /// 1-based source line.
    pub line: usize,
    /// The rule that fired.
    pub rule: Rule,
}

/// Runs every rule enforced in `scope` over the sanitized file and
/// returns the raw hits in (line, rule) order. `unused-pub` needs the
/// workspace's name and call-site indexes (see [`index_names`]);
/// without them it does not fire.
pub fn scan(sanitized: &Sanitized, scope: Scope, index: Option<(&Counts, &Counts)>) -> Vec<Hit> {
    let masked = &sanitized.masked;
    let test_spans = test_line_spans(masked);
    let key_spans = sort_key_line_spans(masked);
    let state_lines = stateful_static_lines(masked);
    let unused_lines = index.map_or_else(Vec::new, |(names, calls)| {
        unused_pub_lines(masked, names, calls)
    });
    let mut hits = Vec::new();

    for (idx, line) in masked.lines().enumerate() {
        let lineno = idx + 1;
        if in_spans(&test_spans, lineno) {
            continue;
        }
        for rule in Rule::ALL {
            if !scope.enforces(rule) {
                continue;
            }
            let fired = match rule {
                Rule::FloatOrd => has_word(line, "partial_cmp"),
                Rule::NoPanic => {
                    has_macro(line, "panic")
                        || has_macro(line, "unreachable")
                        || has_macro(line, "todo")
                        || has_macro(line, "unimplemented")
                        || has_method(line, "unwrap")
                        || has_method(line, "expect")
                }
                Rule::HashOrder => hash_import(line),
                Rule::WallClock => wall_clock(line),
                Rule::UnsafeCode => has_word(line, "unsafe") || static_mut(line),
                Rule::FloatKeyCast => in_spans(&key_spans, lineno) && int_cast(line),
                Rule::GlobalState => {
                    state_lines.contains(&lineno) || has_macro(line, "thread_local")
                }
                Rule::StdoutPrint => has_macro(line, "print") || has_macro(line, "println"),
                Rule::UnusedPub => unused_lines.contains(&lineno),
            };
            if fired {
                hits.push(Hit { line: lineno, rule });
            }
        }
    }
    hits
}

/// How many times each name occurs, by name.
pub(crate) type Counts<'a> = BTreeMap<&'a str, usize>;

/// Counts every identifier of the masked text into `names`, and each
/// call-shaped one (`.name(`, `.name::<`, `::name`) into `calls` as
/// well, skipping `#[cfg(test)]` items, `use` declarations (an import
/// names an item without using it) and a type's name inside its own
/// `impl` blocks (a type its own impls alone name is not used).
pub fn index_names<'a>(masked: &'a str, names: &mut Counts<'a>, calls: &mut Counts<'a>) {
    let test_spans = test_line_spans(masked);
    let imports = use_spans(masked);
    let impls = impl_spans(masked);
    let (mut line, mut counted) = (1, 0);
    for (at, name) in identifiers(masked) {
        line += masked[counted..at].bytes().filter(|&b| b == b'\n').count();
        counted = at;
        let in_import = imports.iter().any(|&(a, b)| at >= a && at <= b);
        let in_own_impl = impls
            .iter()
            .any(|&(a, b, own)| own == name && at >= a && at <= b);
        if !in_import && !in_own_impl && !in_spans(&test_spans, line) {
            *names.entry(name).or_insert(0) += 1;
            if call_shaped(masked, at, name.len()) {
                *calls.entry(name).or_insert(0) += 1;
            }
        }
    }
}

/// True when the identifier at `at` (`len` bytes) is a method call
/// (`.name(`, `.name::<`) or a path segment (`::name`, which also
/// covers `Type::name` passed as a function). A bare `name` — a field,
/// a local, a declaration — is not.
fn call_shaped(masked: &str, at: usize, len: usize) -> bool {
    let before = masked[..at].trim_end();
    if before.ends_with("::") {
        return true;
    }
    let after = masked[at + len..].trim_start();
    before.ends_with('.')
        && !before.ends_with("..")
        && (after.starts_with('(') || after.starts_with("::<"))
}

/// Inclusive byte spans of `impl` items (the `impl` keyword through the
/// closing brace), each with its self type's name: the last path
/// segment after `for` in a trait impl, or after the generics in an
/// inherent one. Only an `impl` that opens its line (after an optional
/// `unsafe`) is an item; `-> impl Trait` and `x: impl Trait` are not.
fn impl_spans(masked: &str) -> Vec<(usize, usize, &str)> {
    let bytes = masked.as_bytes();
    word_offsets(masked, "impl")
        .filter(|&at| {
            let line_start = masked[..at].rfind('\n').map_or(0, |n| n + 1);
            matches!(masked[line_start..at].trim(), "" | "unsafe")
        })
        .filter_map(|at| {
            let header_end = at + bytes[at..].iter().position(|&b| b == b'{' || b == b';')?;
            let own = impl_self_name(&masked[at + "impl".len()..header_end])?;
            let end = delimited_span(bytes, header_end, b'{', b'}')?;
            Some((at, end, own))
        })
        .collect()
}

/// The self type's name of an `impl` header (the text between `impl`
/// and its `{`): `Foo` for `<T> Foo<T>`, `fmt::Display for Foo` and
/// `Trait for crate::m::Foo where …`. `None` for references, slices and
/// other unnamed types.
fn impl_self_name(header: &str) -> Option<&str> {
    let mut rest = header.trim_start();
    if rest.starts_with('<') {
        rest = &rest[angle_end(rest)?..];
    }
    // `for<'a>` is a higher-ranked bound, not the trait-impl keyword
    if let Some(at) = word_offsets(rest, "for")
        .find(|&at| !rest[at + "for".len()..].trim_start().starts_with('<'))
    {
        rest = &rest[at + "for".len()..];
    }
    let mut name = leading_ident(rest)?;
    rest = &rest.trim_start()[name.len()..];
    while let Some(tail) = rest.strip_prefix("::") {
        name = leading_ident(tail)?;
        rest = &tail.trim_start()[name.len()..];
    }
    Some(name)
}

/// The byte offset just past the `>` that closes the generics `text`
/// starts with (`->` arrows inside them are skipped).
fn angle_end(text: &str) -> Option<usize> {
    let bytes = text.as_bytes();
    let mut depth = 0usize;
    for (i, &b) in bytes.iter().enumerate() {
        match b {
            b'<' => depth += 1,
            b'>' if i > 0 && bytes[i - 1] == b'-' => {}
            b'>' => {
                depth = depth.checked_sub(1)?;
                if depth == 0 {
                    return Some(i + 1);
                }
            }
            _ => {}
        }
    }
    None
}

/// Lines of the masked text that open a `pub` item nothing else uses:
/// a `pub fn` inside an `impl` block whose name `calls` never counts,
/// or any other item whose name `names` counts no more than once (the
/// declaration itself).
fn unused_pub_lines(masked: &str, names: &Counts, calls: &Counts) -> Vec<usize> {
    let impls = impl_spans(masked);
    word_offsets(masked, "pub")
        .filter(|&at| {
            pub_item_name(&masked[at + "pub".len()..]).is_some_and(|(keyword, name)| {
                let method = keyword == "fn" && impls.iter().any(|&(a, b, _)| at > a && at < b);
                if method {
                    !calls.contains_key(name)
                } else {
                    names.get(name).copied().unwrap_or(0) < 2
                }
            })
        })
        .map(|at| line_of(masked, at))
        .collect()
}

/// The item keyword and name an unrestricted `pub` declares when it
/// opens a `fn`, `const`, `static`, `struct`, `enum`, `trait` or `type`
/// item (after any `const`/`unsafe`/`async`/`extern` qualifiers). `None`
/// for `pub(crate)`, fields, modules, re-exports and macro
/// metavariables.
fn pub_item_name(rest: &str) -> Option<(&str, &str)> {
    let mut rest = rest;
    let keyword = loop {
        let word = leading_ident(rest)?;
        rest = &rest.trim_start()[word.len()..];
        match word {
            // `pub const NAME`, but `pub const fn name` is a function
            "const" if !matches!(leading_ident(rest), Some("fn" | "unsafe")) => break word,
            "const" | "unsafe" | "async" | "extern" => {}
            "static" => {
                if leading_ident(rest) == Some("mut") {
                    rest = &rest.trim_start()["mut".len()..];
                }
                break word;
            }
            "fn" | "struct" | "enum" | "trait" | "type" => break word,
            _ => return None,
        }
    };
    leading_ident(rest)
        .filter(|name| *name != "_")
        .map(|name| (keyword, name))
}

/// The identifier that `text` starts with (leading whitespace skipped).
fn leading_ident(text: &str) -> Option<&str> {
    let text = text.trim_start();
    let len = text.bytes().take_while(|&b| is_ident(b)).count();
    let word = &text[..len];
    word.bytes()
        .next()
        .is_some_and(|b| !b.is_ascii_digit())
        .then_some(word)
}

/// Every identifier of the masked text with its byte offset (number
/// literals are skipped whole).
fn identifiers(masked: &str) -> impl Iterator<Item = (usize, &str)> {
    let bytes = masked.as_bytes();
    let mut i = 0;
    std::iter::from_fn(move || {
        while i < bytes.len() {
            let start = i;
            if !is_ident(bytes[i]) {
                i += 1;
                continue;
            }
            while i < bytes.len() && is_ident(bytes[i]) {
                i += 1;
            }
            if !bytes[start].is_ascii_digit() {
                return Some((start, &masked[start..i]));
            }
        }
        None
    })
}

/// Inclusive byte spans of `use` declarations: a line that starts with
/// `use` (or `pub use`, `pub(…) use`) through the `;` that ends it.
fn use_spans(masked: &str) -> Vec<(usize, usize)> {
    let bytes = masked.as_bytes();
    word_offsets(masked, "use")
        .filter(|&at| {
            let line_start = masked[..at].rfind('\n').map_or(0, |n| n + 1);
            let head = masked[line_start..at].trim();
            head.is_empty() || head == "pub" || (head.starts_with("pub(") && head.ends_with(')'))
        })
        .map(|at| {
            let end = bytes[at..]
                .iter()
                .position(|&b| b == b';')
                .map_or(bytes.len(), |p| at + p);
            (at, end)
        })
        .collect()
}

/// True when `c` can be part of an identifier.
fn is_ident(c: u8) -> bool {
    c.is_ascii_alphanumeric() || c == b'_'
}

/// Iterates over the byte offsets where `word` occurs with identifier
/// boundaries on both sides.
fn word_offsets<'a>(line: &'a str, word: &'a str) -> impl Iterator<Item = usize> + 'a {
    let bytes = line.as_bytes();
    let wlen = word.len();
    line.match_indices(word).filter_map(move |(at, _)| {
        let before_ok = at == 0 || !is_ident(bytes[at - 1]);
        let after_ok = at + wlen >= bytes.len() || !is_ident(bytes[at + wlen]);
        (before_ok && after_ok).then_some(at)
    })
}

fn has_word(line: &str, word: &str) -> bool {
    word_offsets(line, word).next().is_some()
}

/// `word!` — a macro invocation (whitespace allowed before `!`).
fn has_macro(line: &str, word: &str) -> bool {
    let bytes = line.as_bytes();
    word_offsets(line, word).any(|at| {
        let rest = &bytes[at + word.len()..];
        first_non_ws(rest) == Some(b'!')
    })
}

/// `.word(` — a method call: a `.` before (whitespace allowed) and a
/// `(` after (whitespace allowed).
fn has_method(line: &str, word: &str) -> bool {
    let bytes = line.as_bytes();
    word_offsets(line, word).any(|at| {
        let before = &bytes[..at];
        let after = &bytes[at + word.len()..];
        last_non_ws(before) == Some(b'.') && first_non_ws(after) == Some(b'(')
    })
}

fn first_non_ws(bytes: &[u8]) -> Option<u8> {
    bytes.iter().copied().find(|b| !b.is_ascii_whitespace())
}

fn last_non_ws(bytes: &[u8]) -> Option<u8> {
    bytes
        .iter()
        .rev()
        .copied()
        .find(|b| !b.is_ascii_whitespace())
}

/// `HashMap`/`HashSet` at a choke point: an import line, or a
/// fully-qualified `collections::HashMap` path anywhere.
fn hash_import(line: &str) -> bool {
    for name in ["HashMap", "HashSet"] {
        for at in word_offsets(line, name) {
            let import_line = has_word(line, "use") && line.contains("collections");
            let qualified = line[..at].trim_end().ends_with("collections::");
            if import_line || qualified {
                return true;
            }
        }
    }
    false
}

/// `Instant::now` (whitespace-tolerant) or any `SystemTime` mention.
fn wall_clock(line: &str) -> bool {
    if has_word(line, "SystemTime") {
        return true;
    }
    word_offsets(line, "Instant").any(|at| {
        let rest = line[at + "Instant".len()..].trim_start();
        rest.strip_prefix("::")
            .map(str::trim_start)
            .is_some_and(|r| starts_with_word(r, "now"))
    })
}

/// `static mut` — two adjacent keywords.
fn static_mut(line: &str) -> bool {
    word_offsets(line, "static")
        .any(|at| starts_with_word(line[at + "static".len()..].trim_start(), "mut"))
}

/// 1-based lines of `static` items whose name and type (the text up to
/// the first `=` or `;`, however many lines it spans) mention a lock, a
/// once-cell or a map. A `'static` lifetime is not an item.
fn stateful_static_lines(masked: &str) -> Vec<usize> {
    const HOLDERS: [&str; 5] = ["Mutex", "RwLock", "OnceLock", "HashMap", "BTreeMap"];
    let bytes = masked.as_bytes();
    word_offsets(masked, "static")
        .filter(|&at| at == 0 || bytes[at - 1] != b'\'')
        .filter(|&at| {
            let rest = &masked[at..];
            let decl = &rest[..rest.find(['=', ';']).unwrap_or(rest.len())];
            HOLDERS.iter().any(|holder| has_word(decl, holder))
        })
        .map(|at| line_of(masked, at))
        .collect()
}

/// True when `rest` begins with `word` at an identifier boundary.
fn starts_with_word(rest: &str, word: &str) -> bool {
    rest.starts_with(word)
        && rest[word.len()..]
            .bytes()
            .next()
            .is_none_or(|b| !is_ident(b))
}

/// `as` followed by a bare integer type.
fn int_cast(line: &str) -> bool {
    const INT_TYPES: [&str; 12] = [
        "u8", "u16", "u32", "u64", "u128", "usize", "i8", "i16", "i32", "i64", "i128", "isize",
    ];
    word_offsets(line, "as").any(|at| {
        let rest = line[at + "as".len()..].trim_start();
        INT_TYPES.iter().any(|ty| starts_with_word(rest, ty))
    })
}

/// Inclusive 1-based line spans of `#[cfg(test)]` items (the attribute
/// line through the closing brace of the item it gates).
fn test_line_spans(masked: &str) -> Vec<(usize, usize)> {
    spans_after_marker(masked, "#[cfg(test)]", b'{', b'}')
}

/// Inclusive 1-based line spans of sort-key code: the parenthesized
/// arguments of `sort_by_key`-family calls and the brace bodies of
/// functions whose name contains `sort_key`.
fn sort_key_line_spans(masked: &str) -> Vec<(usize, usize)> {
    const CALLS: [&str; 5] = [
        "sort_by_key",
        "sort_unstable_by_key",
        "min_by_key",
        "max_by_key",
        "binary_search_by_key",
    ];
    let mut spans = Vec::new();
    let bytes = masked.as_bytes();
    for call in CALLS {
        for at in word_offsets(masked, call) {
            if let Some(span) = delimited_span(bytes, at + call.len(), b'(', b')') {
                spans.push(to_lines(masked, at, span));
            }
        }
    }
    // `fn name_with_sort_key(...) { ... }`
    for at in word_offsets(masked, "fn") {
        let rest = masked[at + 2..].trim_start();
        let name: String = rest
            .bytes()
            .take_while(|&b| is_ident(b))
            .map(char::from)
            .collect();
        if name.contains("sort_key") {
            if let Some(span) = delimited_span(bytes, at + 2, b'{', b'}') {
                spans.push(to_lines(masked, at, span));
            }
        }
    }
    spans
}

/// Spans opened by `marker`: from the marker through the matching close
/// of the first `open` delimiter after it.
fn spans_after_marker(masked: &str, marker: &str, open: u8, close: u8) -> Vec<(usize, usize)> {
    let bytes = masked.as_bytes();
    let mut spans = Vec::new();
    for (at, _) in masked.match_indices(marker) {
        if let Some(end) = delimited_span(bytes, at + marker.len(), open, close) {
            spans.push(to_lines(masked, at, end));
        } else {
            // unterminated (EOF): gate the rest of the file
            spans.push((line_of(masked, at), masked.lines().count().max(1)));
        }
    }
    spans
}

/// Finds the first `open` delimiter at or after `from` and returns the
/// byte offset of its matching `close`.
fn delimited_span(bytes: &[u8], from: usize, open: u8, close: u8) -> Option<usize> {
    let start = bytes[from.min(bytes.len())..]
        .iter()
        .position(|&b| b == open)
        .map(|p| from + p)?;
    let mut depth = 0usize;
    for (i, &b) in bytes.iter().enumerate().skip(start) {
        if b == open {
            depth += 1;
        } else if b == close {
            depth -= 1;
            if depth == 0 {
                return Some(i);
            }
        }
    }
    None
}

/// 1-based line number of byte offset `at`.
fn line_of(masked: &str, at: usize) -> usize {
    masked.as_bytes()[..at]
        .iter()
        .filter(|&&b| b == b'\n')
        .count()
        + 1
}

fn to_lines(masked: &str, start: usize, end: usize) -> (usize, usize) {
    (line_of(masked, start), line_of(masked, end))
}

fn in_spans(spans: &[(usize, usize)], line: usize) -> bool {
    spans.iter().any(|&(a, b)| line >= a && line <= b)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sanitize::sanitize;

    fn hits(src: &str, scope: Scope) -> Vec<(usize, Rule)> {
        scan(&sanitize(src), scope, None)
            .into_iter()
            .map(|h| (h.line, h.rule))
            .collect()
    }

    #[test]
    fn partial_cmp_fires_and_total_cmp_does_not() {
        let got = hits("let o = a.partial_cmp(&b);\n", Scope::Library);
        assert_eq!(got, vec![(1, Rule::FloatOrd)]);
        assert!(hits("let o = a.total_cmp(&b);\n", Scope::Library).is_empty());
    }

    #[test]
    fn unwrap_expect_and_panic_macros_fire() {
        let src = "let a = x.unwrap();\nlet b = y.expect( );\npanic!( );\nunreachable!( );\n";
        let got = hits(src, Scope::Library);
        assert_eq!(got.len(), 4);
        assert!(got.iter().all(|(_, r)| *r == Rule::NoPanic));
    }

    #[test]
    fn unwrap_or_variants_do_not_fire() {
        let src = "let a = x.unwrap_or(0);\nlet b = x.unwrap_or_else(f);\nlet c = x.unwrap_or_default();\nlet d = x.expect_something(1);\n";
        assert!(hits(src, Scope::Library).is_empty());
    }

    #[test]
    fn cfg_test_modules_are_exempt() {
        let src = "fn lib() {}\n#[cfg(test)]\nmod tests {\n    fn t() { x.unwrap(); }\n}\n";
        assert!(hits(src, Scope::Library).is_empty());
    }

    #[test]
    fn code_after_a_test_module_is_still_scanned() {
        let src =
            "#[cfg(test)]\nmod tests {\n    fn t() { x.unwrap(); }\n}\nfn lib() { y.unwrap(); }\n";
        assert_eq!(hits(src, Scope::Library), vec![(5, Rule::NoPanic)]);
    }

    #[test]
    fn hash_imports_fire_but_btreemap_does_not() {
        assert_eq!(
            hits("use std::collections::HashMap;\n", Scope::Library),
            vec![(1, Rule::HashOrder)]
        );
        assert_eq!(
            hits("let m: collections::HashSet<u8> = x;\n", Scope::Library),
            vec![(1, Rule::HashOrder)]
        );
        assert!(hits("use std::collections::BTreeMap;\n", Scope::Library).is_empty());
        // a type *mention* away from the import choke point is not
        // re-flagged (the import already was)
        assert!(hits("fn f(m: &HashMap<u8, u8>) {}\n", Scope::Library).is_empty());
    }

    #[test]
    fn wall_clock_fires_in_library_but_not_harness() {
        let src = "let t = Instant::now();\nlet s = SystemTime::UNIX_EPOCH;\n";
        assert_eq!(hits(src, Scope::Library).len(), 2);
        assert!(hits(src, Scope::Harness).is_empty());
    }

    #[test]
    fn unsafe_fires_everywhere_but_the_forbid_attribute_does_not() {
        assert_eq!(
            hits(
                "unsafe { std::hint::unreachable_unchecked() }\n",
                Scope::Harness
            ),
            vec![(1, Rule::UnsafeCode)]
        );
        assert_eq!(
            hits("static mut COUNTER: u64 = 0;\n", Scope::Library),
            vec![(1, Rule::UnsafeCode)]
        );
        assert!(hits("#![forbid(unsafe_code)]\n", Scope::Library).is_empty());
    }

    #[test]
    fn int_casts_fire_only_inside_sort_key_code() {
        let in_key = "v.sort_by_key(|x| x.f as u64);\n";
        assert_eq!(hits(in_key, Scope::Library), vec![(1, Rule::FloatKeyCast)]);
        let in_fn = "fn sort_key(&self) -> u64 {\n    self.f as u64\n}\n";
        assert_eq!(hits(in_fn, Scope::Library), vec![(2, Rule::FloatKeyCast)]);
        let outside = "let n = x.f as u64;\n";
        assert!(hits(outside, Scope::Library).is_empty());
        let bits = "v.sort_by_key(|x| x.f.to_bits());\n";
        assert!(hits(bits, Scope::Library).is_empty());
    }

    #[test]
    fn multiline_sort_key_closure_is_covered() {
        let src = "v.sort_by_key(|x| {\n    let k = x.f as i64;\n    k\n});\n";
        assert_eq!(hits(src, Scope::Library), vec![(2, Rule::FloatKeyCast)]);
    }

    #[test]
    fn stateful_statics_and_thread_locals_fire_only_in_library_code() {
        let src = "static A: OnceLock<Mutex<u8>> = OnceLock::new();\n\
                   pub(crate) static B:\n    RwLock<\n        BTreeMap<u8, u8>,\n    > = RwLock::new(BTreeMap::new());\n\
                   thread_local! { static C: Cell<u8> = Cell::new(0); }\n";
        let got = hits(src, Scope::Library);
        assert_eq!(
            got,
            vec![
                (1, Rule::GlobalState),
                (2, Rule::GlobalState),
                (6, Rule::GlobalState)
            ]
        );
        assert!(hits(src, Scope::Harness).is_empty());
    }

    #[test]
    fn lifetimes_plain_statics_and_fields_do_not_fire_global_state() {
        let src = "fn cache() -> &'static Mutex<Cache> { build() }\n\
                   static NAMES: [&str; 1] = [\"Mutex\"];\n\
                   static COUNT: AtomicU64 = AtomicU64::new(0);\n\
                   struct Memo { slots: Mutex<BTreeMap<u8, u8>> }\n\
                   static EMPTY: Vec<u8> = Vec::new(); fn f() -> Mutex<u8> { g() }\n";
        assert!(hits(src, Scope::Library).is_empty());
    }

    #[test]
    fn stdout_prints_fire_in_every_scope_but_stderr_and_writers_do_not() {
        let src = "print!(\"a\");\nprintln! (\"b\");\n";
        let want = vec![(1, Rule::StdoutPrint), (2, Rule::StdoutPrint)];
        assert_eq!(hits(src, Scope::Library), want);
        assert_eq!(hits(src, Scope::Harness), want);
        let src = "eprint!(\"a\");\neprintln!(\"b\");\nwriteln!(out, \"c\")?;\nlet print = 1;\n";
        assert!(hits(src, Scope::Harness).is_empty());
    }

    #[test]
    fn forbidden_tokens_in_comments_and_strings_do_not_fire() {
        let src = "// a partial_cmp in prose\nlet m = \"calls .unwrap() and panic!\";\n";
        assert!(hits(src, Scope::Library).is_empty());
    }

    #[test]
    fn pub_item_names_follow_qualifiers_and_skip_everything_else() {
        assert_eq!(pub_item_name(" fn f()"), Some(("fn", "f")));
        assert_eq!(pub_item_name(" const fn g()"), Some(("fn", "g")));
        assert_eq!(
            pub_item_name(" const LIMIT: u32 = 1;"),
            Some(("const", "LIMIT"))
        );
        assert_eq!(
            pub_item_name(" static mut S: u8 = 0;"),
            Some(("static", "S"))
        );
        assert_eq!(pub_item_name(" unsafe extern   fn h()"), Some(("fn", "h")));
        assert_eq!(
            pub_item_name(" struct Budget {"),
            Some(("struct", "Budget"))
        );
        assert_eq!(pub_item_name("(crate) fn f()"), None);
        assert_eq!(pub_item_name(" limit: u32,"), None);
        assert_eq!(pub_item_name(" mod inner;"), None);
        assert_eq!(pub_item_name(" use inner::f;"), None);
        assert_eq!(pub_item_name(" fn $name()"), None);
        assert_eq!(pub_item_name(" const _: () = ();"), None);
    }

    #[test]
    fn call_shapes_are_method_calls_turbofish_and_path_segments() {
        let shaped = |src: &str, name: &str| {
            let at = word_offsets(src, name).next().expect("the name occurs");
            call_shaped(src, at, name.len())
        };
        assert!(shaped("x.len()", "len"));
        assert!(shaped("x\n    .len ()", "len"));
        assert!(shaped("x.parse::<u8>()", "parse"));
        assert!(shaped("Budget::new()", "new"));
        assert!(shaped("v.iter().map(Budget::limit)", "limit"));
        // a field, a local, a declaration and a range are not calls
        assert!(!shaped("x.limit + 1", "limit"));
        assert!(!shaped("let limit = 3;", "limit"));
        assert!(!shaped("fn limit(&self)", "limit"));
        assert!(!shaped("0..limit(3)", "limit"));
    }

    #[test]
    fn impl_self_names_follow_generics_paths_and_the_trait_for() {
        assert_eq!(impl_self_name(" LogDistance "), Some("LogDistance"));
        assert_eq!(impl_self_name("<T: Ord> Memo<T> "), Some("Memo"));
        assert_eq!(
            impl_self_name(" fmt::Display for Battery "),
            Some("Battery")
        );
        assert_eq!(
            impl_self_name("<'a, F: Fn() -> u8> Iterator for crate::m::Walk<'a, F> where F: Copy "),
            Some("Walk")
        );
        assert_eq!(
            impl_self_name("<F> Apply for Step<F> where F: for<'a> Fn(&'a u8) "),
            Some("Step")
        );
        assert_eq!(impl_self_name(" Trait for &Thing "), None);
        // an `impl` in return or argument position opens no item
        let src = "fn f() -> impl Iterator<Item = u8> {\n    0..1\n}\nimpl Own {\n}\n";
        let spans: Vec<&str> = impl_spans(src).iter().map(|&(_, _, own)| own).collect();
        assert_eq!(spans, vec!["Own"]);
    }

    #[test]
    fn harness_scope_still_enforces_determinism_rules() {
        let src = "use std::collections::HashMap;\nlet o = a.partial_cmp(&b);\n";
        let got = hits(src, Scope::Harness);
        assert_eq!(got, vec![(1, Rule::HashOrder), (2, Rule::FloatOrd)]);
    }
}
