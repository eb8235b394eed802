//! The per-file rule families.
//!
//! Every rule works on the masked view produced by [`crate::lexer`], so
//! comments and string literals can never trigger a finding. The engine in
//! [`crate::engine`] runs the cross-file checks and the budget afterwards.

use std::collections::{BTreeMap, BTreeSet};

use crate::lexer::{find_from, LexedFile};
use crate::report::{Finding, Rule};

/// The crate a `crates/<name>/src/**` path belongs to; `None` for every
/// other file (benches, integration tests, root `src/`, `tests/`,
/// `examples/`).
pub fn crate_src(path: &str) -> Option<&str> {
    let mut parts = path.split('/');
    match (parts.next(), parts.next(), parts.next()) {
        (Some("crates"), Some(name), Some("src")) => Some(name),
        _ => None,
    }
}

fn is_ident(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_'
}

/// Finds word-boundary occurrences of `word` in `masked`, returning byte
/// offsets.
fn word_occurrences(masked: &str, word: &str) -> Vec<usize> {
    let bytes = masked.as_bytes();
    let needle = word.as_bytes();
    let mut out = Vec::new();
    let mut from = 0usize;
    while let Some(pos) = find_from(bytes, needle, from) {
        from = pos + 1;
        let before_ok = pos == 0 || !is_ident(bytes[pos - 1]);
        let after = pos + needle.len();
        let after_ok = after >= bytes.len() || !is_ident(bytes[after]);
        if before_ok && after_ok {
            out.push(pos);
        }
    }
    out
}

/// The clippy lints whose waivers the budget counts, each with the family
/// it counts under: the panic audit's six, which the [`PANIC_AUDITED_CRATES`]
/// deny in their `lib.rs`, and the determinism ban, which `clippy.toml`
/// sets for the whole workspace.
pub const AUDITED_LINTS: [(&str, Rule); 7] = [
    ("clippy::unwrap_used", Rule::Panic),
    ("clippy::expect_used", Rule::Panic),
    ("clippy::panic", Rule::Panic),
    ("clippy::unreachable", Rule::Panic),
    ("clippy::todo", Rule::Panic),
    ("clippy::unimplemented", Rule::Panic),
    ("clippy::disallowed_types", Rule::Determinism),
];

/// The production crates whose `lib.rs` must deny the panic audit's lints.
pub const PANIC_AUDITED_CRATES: [&str; 3] = ["core", "cluster", "lsm"];

/// The lint levels the rules read: the two that waive and the one that
/// switches the panic audit on.
const LINT_LEVELS: [&str; 3] = ["allow", "expect", "deny"];

/// One lint-level list of an attribute: the `allow(a, b, reason = "…")` of
/// `#[allow(…)]`, `#![deny(…)]` or `#[cfg_attr(…, expect(…))]`.
#[derive(Debug)]
pub struct LintAttr {
    /// `allow`, `expect` or `deny`.
    pub level: &'static str,
    /// True for an inner attribute (`#![…]`), which covers its whole module.
    pub inner: bool,
    /// The lint paths it names; a `reason = …` is not one.
    pub lints: Vec<String>,
    /// The line of the attribute's `#`.
    pub line: usize,
}

/// Every lint-level list in the file's attributes.
pub fn lint_attrs(lexed: &LexedFile) -> Vec<LintAttr> {
    let masked = lexed.masked.as_str();
    let mut out = Vec::new();
    for (pos, _) in masked.match_indices('#') {
        let rest = masked[pos + 1..].trim_start();
        let inner = rest.starts_with('!');
        let Some(body) = rest.trim_start_matches('!').trim_start().strip_prefix('[') else {
            continue;
        };
        let body = &body[..attr_end(body)];
        for level in LINT_LEVELS {
            for at in word_occurrences(body, level) {
                let Some(args) = body[at + level.len()..].trim_start().strip_prefix('(') else {
                    continue;
                };
                let args = &args[..args.find(')').unwrap_or(args.len())];
                let lints = args
                    .split(',')
                    .map(|arg| arg.split_whitespace().collect::<String>())
                    .filter(|arg| !arg.is_empty() && !arg.contains('='))
                    .collect();
                out.push(LintAttr {
                    level,
                    inner,
                    lints,
                    line: lexed.line_of(pos),
                });
            }
        }
    }
    out
}

/// The length of an attribute body up to its closing `]`.
fn attr_end(body: &str) -> usize {
    let mut depth = 0usize;
    for (i, b) in body.bytes().enumerate() {
        match b {
            b'[' => depth += 1,
            b']' if depth == 0 => return i,
            b']' => depth -= 1,
            _ => {}
        }
    }
    body.len()
}

/// The waivers of the audited lints: each `#[expect]` or `#[allow]` that
/// names one counts once against the budget of its family.
/// Clippy fails an `#[expect]` that nothing triggers and one without a
/// reason, but not an unused `#[allow]`, so an `#[allow]` is a `waiver`
/// finding as well.
pub fn lint_waivers(path: &str, attrs: &[LintAttr]) -> (Vec<Finding>, BTreeMap<Rule, usize>) {
    let mut findings = Vec::new();
    let mut counts = BTreeMap::new();
    for attr in attrs
        .iter()
        .filter(|a| matches!(a.level, "allow" | "expect"))
    {
        let rules: BTreeSet<Rule> = attr
            .lints
            .iter()
            .filter_map(|lint| AUDITED_LINTS.iter().find(|(l, _)| l == lint))
            .map(|(_, rule)| *rule)
            .collect();
        for rule in rules {
            *counts.entry(rule).or_insert(0) += 1;
            if attr.level == "allow" {
                findings.push(Finding::new(
                    Rule::Waiver,
                    path,
                    attr.line,
                    format!(
                        "`#[allow]` of an audited `{rule}` lint — waive it with \
                         `#[expect(<lint>, reason = \"…\")]`, which clippy fails when nothing \
                         triggers it"
                    ),
                ));
            }
        }
    }
    (findings, counts)
}

/// The metadata rule's source half: an audited crate's `lib.rs` must deny the
/// panic audit's six lints crate-wide, so switching the audit off fails the
/// check.
pub fn panic_deny(path: &str, attrs: &[LintAttr]) -> Option<Finding> {
    let name = crate_src(path).filter(|name| PANIC_AUDITED_CRATES.contains(name))?;
    if path != format!("crates/{name}/src/lib.rs") {
        return None;
    }
    let denied = |lint: &str| {
        attrs
            .iter()
            .any(|a| a.inner && a.level == "deny" && a.lints.iter().any(|l| l == lint))
    };
    let missing: Vec<&str> = AUDITED_LINTS
        .iter()
        .filter(|(lint, rule)| *rule == Rule::Panic && !denied(lint))
        .map(|(lint, _)| *lint)
        .collect();
    (!missing.is_empty()).then(|| {
        Finding::new(
            Rule::Metadata,
            path,
            0,
            format!(
                "the panic audit is off: `#![deny(…)]` does not name {}",
                missing.join(", ")
            ),
        )
    })
}

/// The interior-mutability / lock primitives the lock-order manifest ranks.
pub const LOCK_PRIMITIVES: [&str; 3] = ["Mutex", "RwLock", "RefCell"];

/// Write-once cells take no rank (nothing is held across a call); the
/// manifest lists each use, with the rule its init closure keeps (no ranked
/// primitive acquired, no way back into the cell), in a table of its own.
pub const WRITE_ONCE_CELLS: [&str; 2] = ["OnceLock", "OnceCell"];

/// One use of a lock primitive in a file.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct LockUse {
    /// Relative path of the file.
    pub file: String,
    /// Primitive name (`Mutex`, `RwLock`, `RefCell`, `OnceLock`, `OnceCell`).
    pub primitive: String,
    /// First line the primitive appears on.
    pub line: usize,
}

/// Rule family 4 (collection half): every lock primitive and write-once
/// cell a file mentions. The engine cross-checks the collected set against
/// `LOCK_ORDER.md`.
pub fn collect_lock_uses(path: &str, lexed: &LexedFile) -> Vec<LockUse> {
    let mut out = Vec::new();
    for primitive in LOCK_PRIMITIVES.into_iter().chain(WRITE_ONCE_CELLS) {
        if let Some(&pos) = word_occurrences(&lexed.masked, primitive).first() {
            out.push(LockUse {
                file: path.to_string(),
                primitive: primitive.to_string(),
                line: lexed.line_of(pos),
            });
        }
    }
    out
}

/// The crates whose public surface `dead-pub` holds to "some run reaches
/// it". `lint` is left out: its `pub` items are this tool's own library API.
pub const DEAD_PUB_CRATES: [&str; 5] = ["lsm", "core", "cluster", "tpch", "bench"];

/// One `pub` / `pub(…)` item definition `dead-pub` collected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PubDef {
    /// Relative path of the defining file.
    pub file: String,
    /// Line of the item's name.
    pub line: usize,
    /// `fn`, `struct`, `enum`, `type`, `const` or `trait`.
    pub kind: &'static str,
    /// The item's identifier.
    pub name: String,
}

/// What one file contributes to the cross-file `dead-pub` check.
#[derive(Debug, Default)]
pub struct PubItems {
    /// `pub` items defined outside `#[cfg(test)]` in a [`DEAD_PUB_CRATES`]
    /// source file.
    pub defs: Vec<PubDef>,
    /// Every identifier the file's code names, other than at a definition.
    pub uses: BTreeSet<String>,
}

const ITEM_KEYWORDS: [&str; 6] = ["fn", "struct", "enum", "type", "const", "trait"];
const FN_QUALIFIERS: [&str; 4] = ["const", "unsafe", "async", "extern"];

/// Rule family 5 (collection half): the file's `pub` item definitions and
/// the identifiers it uses. A use is any identifier in the masked view
/// (comments and strings never count) that is not the name of a `fn` or of
/// a `pub` item being defined, and — in a `crates/*/src` file — not inside
/// a `#[cfg(test)]` item: an in-file unit test keeps nothing alive, while
/// integration tests, examples and the benchmark do.
pub fn collect_pub_items(path: &str, lexed: &LexedFile) -> PubItems {
    let defines = crate_src(path).is_some_and(|name| DEAD_PUB_CRATES.contains(&name));
    let skip_tests = crate_src(path).is_some();
    let masked = lexed.masked.as_str();
    let bytes = masked.as_bytes();
    let mut items = PubItems::default();
    // The identifier before the current one, when only whitespace separates them.
    let mut prev: Option<(usize, &str)> = None;
    let mut i = 0usize;
    while i < bytes.len() {
        if !is_ident(bytes[i]) {
            if !bytes[i].is_ascii_whitespace() {
                prev = None;
            }
            i += 1;
            continue;
        }
        let start = i;
        while i < bytes.len() && is_ident(bytes[i]) {
            i += 1;
        }
        let word = &masked[start..i];
        let keyword = prev.take();
        if bytes[start].is_ascii_digit() {
            continue;
        }
        let line = lexed.line_of(start);
        if skip_tests && lexed.is_test_line(line) {
            continue;
        }
        prev = Some((start, word));
        // `kind` is set when `word` is the name of an item being defined:
        // any `fn`, or a `pub` item of another kind (`pub const fn` is a `fn`).
        let kind = keyword.and_then(|(pos, kw)| {
            let kind = ITEM_KEYWORDS.into_iter().find(|k| *k == kw)?;
            let public = declared_pub(masked, pos);
            let is_name = word != "fn" && !FN_QUALIFIERS.contains(&word);
            (is_name && (public || kind == "fn")).then_some((kind, public))
        });
        match kind {
            Some((kind, true)) if defines => items.defs.push(PubDef {
                file: path.to_string(),
                line,
                kind,
                name: word.to_string(),
            }),
            Some(_) => {}
            None if items.uses.contains(word) => {}
            None => {
                items.uses.insert(word.to_string());
            }
        }
    }
    items
}

/// True when the item keyword at `pos` carries a `pub` / `pub(…)`
/// visibility, looking back over `const` / `unsafe` / `async` / `extern`.
fn declared_pub(masked: &str, pos: usize) -> bool {
    let mut head = masked[..pos].trim_end();
    while let Some(rest) = FN_QUALIFIERS
        .iter()
        .find_map(|q| head.strip_suffix(q).filter(|r| !ends_in_ident(r)))
    {
        head = rest.trim_end();
    }
    if head.ends_with(')') {
        head = head[..head.rfind('(').unwrap_or(0)].trim_end();
    }
    head.strip_suffix("pub").is_some_and(|r| !ends_in_ident(r))
}

fn ends_in_ident(s: &str) -> bool {
    s.as_bytes().last().is_some_and(|b| is_ident(*b))
}

/// Rule family 5 (cross-check half): a collected `pub` item whose name no
/// file uses is a finding.
///
/// The rule is name-based, so it is conservative — it never flags an item
/// some run reaches — and blind where names collide: a dead method that
/// shares its name with a live one (or with any other identifier: a field,
/// a local, a re-export in a `pub use`) is not seen, and neither are dead
/// struct fields, enum variants, or items no `pub` marks. It says what it
/// can prove and guesses at nothing else.
pub fn dead_pub(defs: &[PubDef], uses: &BTreeSet<String>) -> Vec<Finding> {
    defs.iter()
        .filter(|def| !uses.contains(&def.name))
        .map(|def| {
            Finding::new(
                Rule::DeadPub,
                &def.file,
                def.line,
                format!(
                    "`pub {} {}` is named by no code outside `#[cfg(test)]` items of \
                     `crates/*/src` — nothing a figure, soak, benchmark, example or \
                     integration test runs reaches it; delete it or make it private",
                    def.kind, def.name
                ),
            )
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lex(src: &str) -> LexedFile {
        LexedFile::lex(src)
    }

    #[test]
    fn crate_src_names_only_crate_source_files() {
        assert_eq!(crate_src("crates/core/src/plan.rs"), Some("core"));
        assert_eq!(crate_src("crates/bench/benches/rebalance.rs"), None);
        assert_eq!(crate_src("tests/end_to_end.rs"), None);
    }

    #[test]
    fn lint_attrs_read_outer_inner_and_cfg_attr_lists() {
        let src = lex(concat!(
            "#![deny(clippy::unwrap_used, clippy::panic)]\n",
            "#[expect(\n    clippy::expect_used,\n    reason = \"why (it holds)\"\n)]\n",
            "#[cfg_attr(test, allow(dead_code))]\n",
            "#[derive(Debug)] // #[allow(clippy::todo)]\n",
            "const S: &str = \"#[allow(clippy::todo)]\";\n",
        ));
        let attrs: Vec<(&str, bool, Vec<String>, usize)> = lint_attrs(&src)
            .into_iter()
            .map(|a| (a.level, a.inner, a.lints, a.line))
            .collect();
        let lints = |names: &[&str]| names.iter().map(|n| n.to_string()).collect();
        assert_eq!(
            attrs,
            [
                (
                    "deny",
                    true,
                    lints(&["clippy::unwrap_used", "clippy::panic"]),
                    1
                ),
                ("expect", false, lints(&["clippy::expect_used"]), 2),
                ("allow", false, lints(&["dead_code"]), 6),
            ]
        );
    }

    #[test]
    fn an_audited_lib_rs_without_the_deny_is_a_metadata_finding() {
        let deny = "#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic, \
                    clippy::unreachable, clippy::todo, clippy::unimplemented)]\n";
        let attrs = lint_attrs(&lex(deny));
        assert!(panic_deny("crates/lsm/src/lib.rs", &attrs).is_none());
        let partial = lint_attrs(&lex("#![deny(clippy::unwrap_used)]\n"));
        let finding = panic_deny("crates/lsm/src/lib.rs", &partial).expect("a finding");
        assert_eq!(finding.rule, Rule::Metadata);
        assert!(
            finding.message.contains("clippy::unimplemented"),
            "{finding:?}"
        );
        // an outer `#[deny]` covers one item, not the crate
        let outer = lint_attrs(&lex(&deny.replace("#!", "#")));
        assert!(panic_deny("crates/core/src/lib.rs", &outer).is_some());
        assert!(panic_deny("crates/core/src/plan.rs", &[]).is_none());
        assert!(panic_deny("crates/tpch/src/lib.rs", &[]).is_none());
    }

    #[test]
    fn pub_items_are_collected_and_definitions_are_not_uses() {
        let src = lex(concat!(
            "pub fn a() { helper(); }\n",
            "pub(crate) const unsafe fn b() {}\n",
            "pub const LIMIT: u32 = 1;\n",
            "pub(in crate::x) struct S;\n",
            "fn helper() {}\n",
            "impl T for S { fn a(&self) {} }\n",
            "pub use other::Thing;\n",
            "#[cfg(test)]\nmod tests { pub fn t() { a(); LIMIT; } }\n",
        ));
        let items = collect_pub_items("crates/core/src/x.rs", &src);
        let defs: Vec<(&str, &str, usize)> = items
            .defs
            .iter()
            .map(|d| (d.kind, d.name.as_str(), d.line))
            .collect();
        assert_eq!(
            defs,
            [
                ("fn", "a", 1),
                ("fn", "b", 2),
                ("const", "LIMIT", 3),
                ("struct", "S", 4)
            ]
        );
        // `S` is used by the impl header, `Thing` by the re-export, `helper`
        // by its call; no `fn` name, `pub` item name or test line is a use.
        for used in ["helper", "S", "T", "Thing"] {
            assert!(items.uses.contains(used), "{used}");
        }
        for unused in ["a", "b", "LIMIT", "t"] {
            assert!(!items.uses.contains(unused), "{unused}");
        }
        let dead = dead_pub(&items.defs, &items.uses);
        let lines: Vec<usize> = dead.iter().map(|f| f.line).collect();
        assert_eq!(lines, [1, 2, 3]);

        // outside the five crates nothing is defined, and test lines count
        let root = collect_pub_items("tests/t.rs", &src);
        assert!(root.defs.is_empty());
        assert!(root.uses.contains("LIMIT"));
    }

    #[test]
    fn lock_uses_are_collected_once_per_primitive() {
        let src = lex("use std::sync::Mutex;\nstatic A: Mutex<u8> = Mutex::new(0);\n");
        let uses = collect_lock_uses("crates/cluster/src/x.rs", &src);
        assert_eq!(uses.len(), 1);
        assert_eq!(uses[0].primitive, "Mutex");
        assert_eq!(uses[0].line, 1);
        let src = lex("struct S {\n    view: std::sync::OnceLock<u8>,\n}\n");
        let uses = collect_lock_uses("crates/lsm/src/x.rs", &src);
        assert_eq!((uses[0].primitive.as_str(), uses[0].line), ("OnceLock", 2));
    }
}
