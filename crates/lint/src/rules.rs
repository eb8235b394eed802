//! The per-file rule families.
//!
//! Every rule works on the masked view produced by [`crate::lexer`], so
//! comments and string literals can never trigger a finding. Each function
//! returns raw findings; the engine in [`crate::engine`] applies waivers and
//! the budget afterwards.

use std::collections::BTreeSet;

use crate::lexer::{find_from, LexedFile};
use crate::report::{Finding, Rule};

/// Where a file sits in the workspace, derived from its relative path.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FileScope {
    /// `crates/<name>/src/**`
    CrateSrc(String),
    /// `crates/<name>/**` outside `src` (benches, tests, bins).
    CrateOther(String),
    /// Root `src/`, `tests/`, or `examples/` — umbrella-level code.
    Root,
}

impl FileScope {
    /// Classifies a forward-slash relative path.
    pub fn of(path: &str) -> FileScope {
        let parts: Vec<&str> = path.split('/').collect();
        if parts.len() >= 3 && parts[0] == "crates" {
            let name = parts[1].to_string();
            if parts[2] == "src" {
                return FileScope::CrateSrc(name);
            }
            return FileScope::CrateOther(name);
        }
        FileScope::Root
    }

    /// The enclosing crate directory name, if any.
    pub fn crate_name(&self) -> Option<&str> {
        match self {
            FileScope::CrateSrc(n) | FileScope::CrateOther(n) => Some(n),
            FileScope::Root => None,
        }
    }
}

/// The workspace layering: which `dynahash_*` crates each crate may reach.
/// `None` means the crate directory is not part of the known layering (the
/// rule stays silent rather than guessing).
pub fn allowed_deps(crate_dir: &str) -> Option<&'static [&'static str]> {
    match crate_dir {
        "lsm" => Some(&[]),
        "core" => Some(&["lsm"]),
        "cluster" => Some(&["core", "lsm"]),
        "tpch" => Some(&["core", "lsm", "cluster"]),
        "bench" => Some(&["core", "lsm", "cluster", "tpch"]),
        "lint" => Some(&[]),
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

/// Rule family 1 (source half): `use dynahash_*` / qualified `dynahash_*::`
/// references must respect the layering. The manifest half lives in
/// [`crate::manifest`].
pub fn layering_use(path: &str, scope: &FileScope, lexed: &LexedFile) -> Vec<Finding> {
    let Some(crate_dir) = scope.crate_name() else {
        return Vec::new(); // umbrella code may use every crate
    };
    let Some(allowed) = allowed_deps(crate_dir) else {
        return Vec::new();
    };
    let mut findings = Vec::new();
    for pos in word_prefix_occurrences(&lexed.masked, "dynahash_") {
        let bytes = lexed.masked.as_bytes();
        let mut end = pos + "dynahash_".len();
        while end < bytes.len() && is_ident(bytes[end]) {
            end += 1;
        }
        let referenced = &lexed.masked[pos + "dynahash_".len()..end];
        if allowed_deps(referenced).is_none() {
            continue; // not a workspace crate — a local `dynahash_*` identifier
        }
        if referenced == crate_dir {
            continue; // a crate may name itself (bins, benches, doc paths)
        }
        if !allowed.contains(&referenced) {
            findings.push(Finding {
                rule: Rule::Layering,
                file: path.to_string(),
                line: lexed.line_of(pos),
                message: format!(
                    "crate `{crate_dir}` must not reach `dynahash_{referenced}` \
                     (layering is lsm ← core ← cluster ← {{tpch, bench}})"
                ),
                waived: false,
            });
        }
    }
    findings
}

/// Occurrences of identifiers *starting with* `prefix` (word boundary before
/// the prefix only).
fn word_prefix_occurrences(masked: &str, prefix: &str) -> Vec<usize> {
    let bytes = masked.as_bytes();
    let needle = prefix.as_bytes();
    let mut out = Vec::new();
    let mut from = 0usize;
    while let Some(pos) = find_from(bytes, needle, from) {
        from = pos + 1;
        if pos == 0 || !is_ident(bytes[pos - 1]) {
            out.push(pos);
        }
    }
    out
}

/// The demoted raw accessors of rule family 2.
const RAW_ACCESSORS: [&str; 3] = [".partition(", ".partition_mut(", ".route_key("];

/// Rule family 2: outside `crates/cluster`, the raw partition accessors are
/// reserved for the `cluster.admin()` escape hatch. A call passes when the
/// enclosing statement mentions `admin` (either a chained `.admin()` call or
/// a local binding produced by one); raw `cluster.ingest(…)` is flagged the
/// same way, while session/loader `ingest` stays untouched.
pub fn session_discipline(path: &str, scope: &FileScope, lexed: &LexedFile) -> Vec<Finding> {
    if scope.crate_name() == Some("cluster") {
        return Vec::new(); // the cluster crate implements the accessors
    }
    let mut findings = Vec::new();
    let masked = &lexed.masked;
    for accessor in RAW_ACCESSORS {
        let mut from = 0usize;
        while let Some(pos) = find_from(masked.as_bytes(), accessor.as_bytes(), from) {
            from = pos + 1;
            if !statement_prefix(masked, pos).contains("admin") {
                findings.push(Finding {
                    rule: Rule::Session,
                    file: path.to_string(),
                    line: lexed.line_of(pos),
                    message: format!(
                        "raw accessor `{}` outside crates/cluster must be reached \
                         via `cluster.admin()` in the same statement",
                        accessor.trim_start_matches('.').trim_end_matches('(')
                    ),
                    waived: false,
                });
            }
        }
    }
    // Raw ingest: flag only `cluster.ingest(…)`-shaped receivers; sessions,
    // loaders, and feeds own `ingest` legitimately.
    let mut from = 0usize;
    while let Some(pos) = find_from(masked.as_bytes(), b".ingest(", from) {
        from = pos + 1;
        let receiver = receiver_ident(masked, pos);
        let raw_receiver = receiver == "cluster" || receiver.ends_with("_cluster");
        if raw_receiver && !statement_prefix(masked, pos).contains("admin") {
            findings.push(Finding {
                rule: Rule::Session,
                file: path.to_string(),
                line: lexed.line_of(pos),
                message: "raw `cluster.ingest(…)` outside crates/cluster — go through \
                          `cluster.session(ds)` or `cluster.admin()`"
                    .to_string(),
                waived: false,
            });
        }
    }
    findings
}

/// The text of the statement enclosing `pos`, from the previous `;`, `{`,
/// or `}` up to `pos`.
fn statement_prefix(masked: &str, pos: usize) -> &str {
    let bytes = masked.as_bytes();
    let mut start = pos;
    while start > 0 {
        match bytes[start - 1] {
            b';' | b'{' | b'}' => break,
            _ => start -= 1,
        }
    }
    &masked[start..pos]
}

/// The identifier immediately preceding the `.` of a method call at `pos`
/// (empty when the receiver is a chained call or expression).
fn receiver_ident(masked: &str, dot_pos: usize) -> &str {
    let bytes = masked.as_bytes();
    let mut end = dot_pos;
    while end > 0 && bytes[end - 1].is_ascii_whitespace() {
        end -= 1;
    }
    let mut start = end;
    while start > 0 && is_ident(bytes[start - 1]) {
        start -= 1;
    }
    &masked[start..end]
}

/// The production crates covered by the panic audit.
pub const PANIC_AUDITED_CRATES: [&str; 3] = ["core", "cluster", "lsm"];

const PANIC_TOKENS: [&str; 6] = [
    ".unwrap()",
    ".expect(",
    "panic!",
    "unreachable!",
    "todo!",
    "unimplemented!",
];

/// Rule family 3: panics in the production crates must carry a waiver
/// naming the invariant that makes the site unreachable. `#[cfg(test)]`
/// items are exempt.
pub fn panic_audit(path: &str, scope: &FileScope, lexed: &LexedFile) -> Vec<Finding> {
    let audited = matches!(scope, FileScope::CrateSrc(name)
        if PANIC_AUDITED_CRATES.contains(&name.as_str()));
    if !audited {
        return Vec::new();
    }
    let mut findings = Vec::new();
    for token in PANIC_TOKENS {
        for pos in token_occurrences(&lexed.masked, token) {
            let line = lexed.line_of(pos);
            if lexed.is_test_line(line) {
                continue;
            }
            findings.push(Finding {
                rule: Rule::Panic,
                file: path.to_string(),
                line,
                message: format!(
                    "`{}` in production code — propagate a Result or waive with the \
                     invariant that makes this unreachable",
                    token.trim_start_matches('.').trim_end_matches('(')
                ),
                waived: false,
            });
        }
    }
    findings
}

/// Occurrences of a token whose leading character must sit on a word
/// boundary when it is alphanumeric (so `panic!` does not match
/// `should_panic!`-style longer identifiers).
fn token_occurrences(masked: &str, token: &str) -> Vec<usize> {
    let bytes = masked.as_bytes();
    let needle = token.as_bytes();
    let mut out = Vec::new();
    let mut from = 0usize;
    while let Some(pos) = find_from(bytes, needle, from) {
        from = pos + 1;
        let boundary_needed = is_ident(needle[0]);
        if !boundary_needed || pos == 0 || !is_ident(bytes[pos - 1]) {
            out.push(pos);
        }
    }
    out
}

/// The single module allowed to read the wall clock.
pub const TIMING_MODULE: &str = "crates/bench/src/timing.rs";

/// Files where unordered iteration would feed the deterministic wave
/// scheduler or the event log's golden trace; `HashMap`/`HashSet` are
/// banned there outright.
pub const ORDERING_SENSITIVE_FILES: [&str; 7] = [
    "crates/core/src/plan.rs",
    "crates/core/src/directory.rs",
    "crates/cluster/src/job.rs",
    "crates/cluster/src/fault.rs",
    "crates/cluster/src/control.rs",
    "crates/cluster/src/repair.rs",
    "crates/cluster/src/obs.rs",
];

/// Rule family 4: sim-time determinism. `SystemTime`/`Instant` belong to
/// `dynahash_bench::timing` alone, and the scheduler-feeding files must use
/// ordered collections.
pub fn determinism(path: &str, lexed: &LexedFile) -> Vec<Finding> {
    let mut findings = Vec::new();
    if path != TIMING_MODULE {
        for word in ["SystemTime", "Instant"] {
            for pos in word_occurrences(&lexed.masked, word) {
                findings.push(Finding {
                    rule: Rule::Determinism,
                    file: path.to_string(),
                    line: lexed.line_of(pos),
                    message: format!(
                        "`{word}` outside {TIMING_MODULE} breaks sim-time determinism — \
                         use dynahash_bench::timing or the sim clock"
                    ),
                    waived: false,
                });
            }
        }
    }
    if ORDERING_SENSITIVE_FILES.contains(&path) {
        for word in ["HashMap", "HashSet"] {
            for pos in word_occurrences(&lexed.masked, word) {
                findings.push(Finding {
                    rule: Rule::Determinism,
                    file: path.to_string(),
                    line: lexed.line_of(pos),
                    message: format!(
                        "`{word}` in ordering-sensitive scheduler code — iteration order \
                         feeds the deterministic wave schedule; use BTreeMap/BTreeSet"
                    ),
                    waived: false,
                });
            }
        }
    }
    findings
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

/// Rule family 5 (collection half): every lock primitive and write-once
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

/// Rule family 6 (collection half): the file's `pub` item definitions and
/// the identifiers it uses. A use is any identifier in the masked view
/// (comments and strings never count) that is not the name of a `fn` or of
/// a `pub` item being defined, and — in a `crates/*/src` file — not inside
/// a `#[cfg(test)]` item: an in-file unit test keeps nothing alive, while
/// integration tests, examples and the benchmark do.
pub fn collect_pub_items(path: &str, scope: &FileScope, lexed: &LexedFile) -> PubItems {
    let defines = matches!(scope, FileScope::CrateSrc(name)
        if DEAD_PUB_CRATES.contains(&name.as_str()));
    let skip_tests = matches!(scope, FileScope::CrateSrc(_));
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

/// Rule family 6 (cross-check half): a collected `pub` item whose name no
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
        .map(|def| Finding {
            rule: Rule::DeadPub,
            file: def.file.clone(),
            line: def.line,
            message: format!(
                "`pub {} {}` is named by no code outside `#[cfg(test)]` items of \
                 `crates/*/src` — nothing a figure, soak, benchmark, example or \
                 integration test runs reaches it; delete it or make it private",
                def.kind, def.name
            ),
            waived: false,
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
    fn scope_classification() {
        assert_eq!(
            FileScope::of("crates/core/src/plan.rs"),
            FileScope::CrateSrc("core".into())
        );
        assert_eq!(
            FileScope::of("crates/bench/benches/rebalance.rs"),
            FileScope::CrateOther("bench".into())
        );
        assert_eq!(FileScope::of("tests/end_to_end.rs"), FileScope::Root);
    }

    #[test]
    fn layering_flags_upward_reach() {
        let lexed = lex("use dynahash_cluster::Cluster;\n");
        let scope = FileScope::CrateSrc("core".into());
        let f = layering_use("crates/core/src/bad.rs", &scope, &lexed);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, Rule::Layering);
    }

    #[test]
    fn layering_allows_downward_and_self() {
        let lexed = lex("use dynahash_lsm::Bytes;\nuse dynahash_core::Scheme;\n");
        let scope = FileScope::CrateSrc("cluster".into());
        assert!(layering_use("crates/cluster/src/ok.rs", &scope, &lexed).is_empty());
        let lexed = lex("use dynahash_bench::timing;\n");
        let scope = FileScope::CrateOther("bench".into());
        assert!(layering_use("crates/bench/benches/b.rs", &scope, &lexed).is_empty());
    }

    #[test]
    fn session_rule_requires_admin_in_statement() {
        let scope = FileScope::Root;
        let bad = lex("let p = cluster.partition(id);\n");
        assert_eq!(session_discipline("tests/t.rs", &scope, &bad).len(), 1);
        let good = lex("let p = cluster.admin().partition(id);\n");
        assert!(session_discipline("tests/t.rs", &scope, &good).is_empty());
        let bound = lex("let admin = cluster.admin();\nlet p = admin.partition(id);\n");
        assert!(session_discipline("tests/t.rs", &scope, &bound).is_empty());
    }

    #[test]
    fn session_rule_spares_session_ingest_flags_cluster_ingest() {
        let scope = FileScope::Root;
        let ok = lex("session.ingest(&mut cluster, records)?;\n");
        assert!(session_discipline("tests/t.rs", &scope, &ok).is_empty());
        let bad = lex("cluster.ingest(ds, records)?;\n");
        assert_eq!(session_discipline("tests/t.rs", &scope, &bad).len(), 1);
        let admin_ok = lex("cluster.admin().ingest(ds, records)?;\n");
        assert!(session_discipline("tests/t.rs", &scope, &admin_ok).is_empty());
    }

    #[test]
    fn session_rule_exempts_cluster_crate() {
        let scope = FileScope::CrateSrc("cluster".into());
        let src = lex("let p = self.cluster.partition(id);\n");
        assert!(session_discipline("crates/cluster/src/feed.rs", &scope, &src).is_empty());
    }

    #[test]
    fn panic_audit_fires_in_production_not_tests() {
        let scope = FileScope::CrateSrc("core".into());
        let src =
            lex("fn f() { x.unwrap(); }\n#[cfg(test)]\nmod tests { fn t() { y.unwrap(); } }\n");
        let f = panic_audit("crates/core/src/x.rs", &scope, &src);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].line, 1);
    }

    #[test]
    fn panic_audit_only_covers_production_crates() {
        let scope = FileScope::CrateSrc("tpch".into());
        let src = lex("fn f() { x.unwrap(); }\n");
        assert!(panic_audit("crates/tpch/src/x.rs", &scope, &src).is_empty());
    }

    #[test]
    fn determinism_flags_instant_and_hashmap() {
        let src = lex("let t = std::time::Instant::now();\n");
        assert_eq!(determinism("crates/core/src/x.rs", &src).len(), 1);
        assert!(determinism(TIMING_MODULE, &src).is_empty());
        let src = lex("use std::collections::HashMap;\n");
        assert_eq!(determinism("crates/core/src/plan.rs", &src).len(), 1);
        assert!(determinism("crates/core/src/scheme.rs", &src).is_empty());
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
        let scope = FileScope::CrateSrc("core".into());
        let items = collect_pub_items("crates/core/src/x.rs", &scope, &src);
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
        let root = collect_pub_items("tests/t.rs", &FileScope::Root, &src);
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
