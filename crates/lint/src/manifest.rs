//! Manifest-level checks: `Cargo.toml` layering and metadata, the
//! `LOCK_ORDER.md` lock hierarchy, and the `LINT_BUDGET.toml` waiver ratchet.
//!
//! The TOML reader below is deliberately minimal — sections, `key = value`
//! pairs (dotted keys verbatim), inline tables as raw strings, and one-level
//! multi-line arrays. That subset covers every manifest in this workspace,
//! and keeping it in-tree preserves the zero-dependency constraint the
//! layering rule itself enforces.

use std::collections::BTreeMap;
use std::path::Path;

use crate::report::{Finding, Rule};
use crate::rules::{allowed_deps, LockUse, WRITE_ONCE_CELLS};

/// A parsed (enough) TOML document: section name → key → raw value.
#[derive(Debug, Default)]
pub struct TomlDoc {
    sections: BTreeMap<String, Vec<(String, String)>>,
}

impl TomlDoc {
    /// Parses the TOML subset used by this workspace's manifests.
    pub fn parse(text: &str) -> TomlDoc {
        let mut doc = TomlDoc::default();
        let mut section = String::new();
        let mut lines = text.lines().peekable();
        while let Some(raw) = lines.next() {
            let line = strip_toml_comment(raw).trim().to_string();
            if line.is_empty() {
                continue;
            }
            if line.starts_with('[') && line.ends_with(']') {
                section = line.trim_matches(['[', ']']).trim().to_string();
                doc.sections.entry(section.clone()).or_default();
                continue;
            }
            let Some(eq) = line.find('=') else { continue };
            let key = line[..eq].trim().to_string();
            let mut value = line[eq + 1..].trim().to_string();
            // Multi-line array: keep consuming until brackets balance.
            while value.starts_with('[') && value.matches('[').count() > value.matches(']').count()
            {
                let Some(next) = lines.next() else { break };
                value.push(' ');
                value.push_str(strip_toml_comment(next).trim());
            }
            doc.sections
                .entry(section.clone())
                .or_default()
                .push((key, value));
        }
        doc
    }

    /// The raw value of `key` in `section`, if present.
    pub fn get(&self, section: &str, key: &str) -> Option<&str> {
        self.sections
            .get(section)?
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    /// True when the section exists.
    pub fn has_section(&self, section: &str) -> bool {
        self.sections.contains_key(section)
    }

    /// All `(key, raw value)` pairs of a section.
    pub fn entries(&self, section: &str) -> &[(String, String)] {
        self.sections.get(section).map(Vec::as_slice).unwrap_or(&[])
    }
}

fn strip_toml_comment(line: &str) -> &str {
    let mut in_str = false;
    for (i, c) in line.char_indices() {
        match c {
            '"' => in_str = !in_str,
            '#' if !in_str => return &line[..i],
            _ => {}
        }
    }
    line
}

fn unquote(v: &str) -> &str {
    v.trim().trim_matches('"')
}

/// Checks one member crate's `Cargo.toml`: layering of path dependencies,
/// the zero-registry-dependency constraint, and workspace metadata
/// inheritance.
pub fn check_crate_manifest(rel_path: &str, text: &str) -> Vec<Finding> {
    let mut findings = Vec::new();
    let doc = TomlDoc::parse(text);
    let crate_dir = rel_path.split('/').nth(1).unwrap_or_default().to_string();

    // Layering + no-registry on every dependency section.
    for section in ["dependencies", "dev-dependencies", "build-dependencies"] {
        for (name, value) in doc.entries(section) {
            findings.extend(check_dependency(rel_path, &crate_dir, name, value));
        }
    }

    // Workspace metadata inheritance (satellite: manifest consistency).
    for key in [
        "version.workspace",
        "edition.workspace",
        "license.workspace",
    ] {
        if doc.get("package", key).map(str::trim) != Some("true") {
            findings.push(Finding::file_level(
                Rule::Metadata,
                rel_path,
                format!("package must inherit `{key} = true` from the workspace"),
            ));
        }
    }
    if doc
        .get("package", "description")
        .map(unquote)
        .unwrap_or("")
        .is_empty()
    {
        findings.push(Finding::file_level(
            Rule::Metadata,
            rel_path,
            "package needs a non-empty `description`".to_string(),
        ));
    }
    if doc.get("lints", "workspace").map(str::trim) != Some("true") {
        findings.push(Finding::file_level(
            Rule::Metadata,
            rel_path,
            "package must inherit the workspace lint table (`[lints] workspace = true`)"
                .to_string(),
        ));
    }
    findings
}

/// Checks a single dependency entry against the layering and the
/// no-registry constraint. `crate_dir` is empty for the root package (which
/// may depend on every workspace crate).
fn check_dependency(rel_path: &str, crate_dir: &str, name: &str, value: &str) -> Vec<Finding> {
    let mut findings = Vec::new();
    let Some(dep_dir) = name.strip_prefix("dynahash-") else {
        findings.push(Finding::file_level(
            Rule::Layering,
            rel_path,
            format!(
                "registry dependency `{name}` — the workspace is zero-dependency/offline \
                 by construction; vendor an in-tree equivalent instead"
            ),
        ));
        return findings;
    };
    if !value.contains("path") {
        findings.push(Finding::file_level(
            Rule::Layering,
            rel_path,
            format!("dependency `{name}` must be a path dependency, not a registry version"),
        ));
    }
    if !crate_dir.is_empty() {
        match allowed_deps(crate_dir) {
            Some(allowed) if !allowed.contains(&dep_dir) => {
                findings.push(Finding::file_level(
                    Rule::Layering,
                    rel_path,
                    format!(
                        "crate `{crate_dir}` must not depend on `{name}` \
                         (layering is lsm ← core ← cluster ← {{tpch, bench}})"
                    ),
                ));
            }
            _ => {}
        }
    }
    findings
}

/// Checks the workspace root `Cargo.toml`: repository metadata and the root
/// package's own dependencies.
pub fn check_workspace_manifest(text: &str) -> Vec<Finding> {
    let mut findings = Vec::new();
    let doc = TomlDoc::parse(text);
    if !doc.has_section("workspace") {
        return findings; // not a workspace root — nothing to verify here
    }
    match doc.get("workspace.package", "repository").map(unquote) {
        None => findings.push(Finding::file_level(
            Rule::Metadata,
            "Cargo.toml",
            "workspace.package needs a `repository` URL".to_string(),
        )),
        Some(url) if !url.starts_with("https://") || url.contains("example.invalid") => {
            findings.push(Finding::file_level(
                Rule::Metadata,
                "Cargo.toml",
                format!("workspace.package repository `{url}` is a placeholder"),
            ));
        }
        Some(_) => {}
    }
    if doc.get("workspace.lints.rust", "unsafe_code").map(unquote) != Some("forbid") {
        findings.push(Finding::file_level(
            Rule::Metadata,
            "Cargo.toml",
            "workspace lint table must carry `unsafe_code = \"forbid\"`".to_string(),
        ));
    }
    for (name, value) in doc.entries("dependencies") {
        findings.extend(check_dependency("Cargo.toml", "", name, value));
    }
    if doc.has_section("package") && doc.get("lints", "workspace").map(str::trim) != Some("true") {
        findings.push(Finding::file_level(
            Rule::Metadata,
            "Cargo.toml",
            "the root package must inherit the workspace lint table".to_string(),
        ));
    }
    findings
}

/// One row of `LOCK_ORDER.md`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LockEntry {
    /// Acquisition rank — locks may only be taken in increasing rank order.
    /// `None` for a row of the write-once table, which has no rank column.
    pub rank: Option<u32>,
    /// Relative path of the file declaring the primitive.
    pub file: String,
    /// Primitive name (`Mutex`, `RwLock`, `RefCell`, `OnceLock`, `OnceCell`).
    pub primitive: String,
}

/// Parses the `LOCK_ORDER.md` manifest tables. Ranked rows look like
/// `| 10 | crates/cluster/src/node.rs | Mutex | guards node state |`,
/// write-once rows like
/// `| crates/lsm/src/component.rs | OnceLock | what it caches | init rule |`.
pub fn parse_lock_order(text: &str) -> (Vec<LockEntry>, Vec<Finding>) {
    let mut entries = Vec::new();
    let mut findings = Vec::new();
    for (idx, line) in text.lines().enumerate() {
        let line = line.trim();
        if !line.starts_with('|') {
            continue;
        }
        let cells: Vec<&str> = line.trim_matches('|').split('|').map(str::trim).collect();
        if cells.len() < 3 {
            continue;
        }
        // Skip the header and separator rows.
        let header = matches!(cells[0].to_ascii_lowercase().as_str(), "rank" | "file");
        if header || cells[0].chars().all(|c| c == '-' || c == ':') {
            continue;
        }
        let (rank, file, primitive) = match cells[0].parse::<u32>() {
            Ok(rank) => (Some(rank), cells[1], cells[2]),
            Err(_) if WRITE_ONCE_CELLS.contains(&cells[1]) => (None, cells[0], cells[1]),
            Err(_) => {
                findings.push(Finding {
                    rule: Rule::LockOrder,
                    file: "LOCK_ORDER.md".to_string(),
                    line: idx + 1,
                    message: format!("rank `{}` is not an integer", cells[0]),
                    waived: false,
                });
                continue;
            }
        };
        entries.push(LockEntry {
            rank,
            file: file.to_string(),
            primitive: primitive.to_string(),
        });
    }
    findings.extend(duplicate_rank_findings(&entries));
    (entries, findings)
}

fn duplicate_rank_findings(entries: &[LockEntry]) -> Vec<Finding> {
    let mut findings = Vec::new();
    for (i, a) in entries.iter().enumerate() {
        let Some(rank) = a.rank else { continue };
        if entries[..i].iter().any(|b| b.rank == a.rank) {
            findings.push(Finding::file_level(
                Rule::LockOrder,
                "LOCK_ORDER.md",
                format!("duplicate acquisition rank {rank} (`{}`)", a.file),
            ));
        }
    }
    findings
}

/// Cross-checks collected lock uses against the manifest: every primitive a
/// file mentions needs a ranked entry, and every entry must still match
/// real code.
pub fn check_lock_order(manifest: Option<&str>, uses: &[LockUse]) -> Vec<Finding> {
    let (entries, mut findings) = match manifest {
        Some(text) => parse_lock_order(text),
        None if uses.is_empty() => return Vec::new(),
        None => {
            return uses
                .iter()
                .map(|u| Finding {
                    rule: Rule::LockOrder,
                    file: u.file.clone(),
                    line: u.line,
                    message: format!(
                        "`{}` declared but the workspace has no LOCK_ORDER.md — create the \
                         manifest and register an acquisition rank",
                        u.primitive
                    ),
                    waived: false,
                })
                .collect();
        }
    };
    for u in uses {
        let registered = entries
            .iter()
            .any(|e| e.file == u.file && e.primitive == u.primitive);
        if !registered {
            findings.push(Finding {
                rule: Rule::LockOrder,
                file: u.file.clone(),
                line: u.line,
                message: format!(
                    "`{}` is not registered in LOCK_ORDER.md — every lock/interior-mutability \
                     primitive needs an acquisition rank (a write-once cell: a row in the \
                     write-once table) before the threaded runtime lands",
                    u.primitive
                ),
                waived: false,
            });
        }
    }
    for e in &entries {
        let live = uses
            .iter()
            .any(|u| u.file == e.file && u.primitive == e.primitive);
        if !live {
            findings.push(Finding::file_level(
                Rule::LockOrder,
                "LOCK_ORDER.md",
                format!(
                    "stale entry: `{}` in `{}` no longer appears in the code — remove the row",
                    e.primitive, e.file
                ),
            ));
        }
    }
    findings
}

/// Enforces the waiver-budget ratchet: the committed `LINT_BUDGET.toml`
/// must match the used-waiver counts exactly. Adding a waiver forces a
/// visible budget bump in the diff; removing one forces the budget down, so
/// drift in either direction fails the check.
pub fn check_budget(budget_text: Option<&str>, used: &[(Rule, usize)]) -> Vec<Finding> {
    let mut findings = Vec::new();
    let budget: BTreeMap<String, usize> = match budget_text {
        Some(text) => {
            let doc = TomlDoc::parse(text);
            doc.entries("waivers")
                .iter()
                .filter_map(|(k, v)| Some((k.clone(), v.trim().parse::<usize>().ok()?)))
                .collect()
        }
        None => {
            if used.iter().all(|(_, n)| *n == 0) {
                return findings;
            }
            findings.push(Finding::file_level(
                Rule::Waiver,
                "LINT_BUDGET.toml",
                "waivers are in use but LINT_BUDGET.toml is missing — commit the budget"
                    .to_string(),
            ));
            return findings;
        }
    };
    for rule in crate::report::Rule::all() {
        let actual = used
            .iter()
            .find(|(r, _)| *r == rule)
            .map(|(_, n)| *n)
            .unwrap_or(0);
        let budgeted = budget.get(rule.name()).copied().unwrap_or(0);
        if actual != budgeted {
            findings.push(Finding::file_level(
                Rule::Waiver,
                "LINT_BUDGET.toml",
                format!(
                    "budget drift for `{rule}`: {actual} waiver(s) in use, budget says \
                     {budgeted} — the budget must track reality and may only ratchet down"
                ),
            ));
        }
    }
    for key in budget.keys() {
        if Rule::from_name(key).is_none() {
            findings.push(Finding::file_level(
                Rule::Waiver,
                "LINT_BUDGET.toml",
                format!("unknown rule `{key}` in budget"),
            ));
        }
    }
    findings
}

/// Reads a file as UTF-8, returning `None` when it does not exist.
pub fn read_optional(path: &Path) -> Option<String> {
    std::fs::read_to_string(path).ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn toml_subset_parses_sections_and_dotted_keys() {
        let doc = TomlDoc::parse(
            "[package]\nname = \"x\" # comment\nversion.workspace = true\n\n[deps]\na = { path = \"../a\" }\n",
        );
        assert_eq!(doc.get("package", "name"), Some("\"x\""));
        assert_eq!(doc.get("package", "version.workspace"), Some("true"));
        assert!(doc.get("deps", "a").unwrap().contains("path"));
    }

    #[test]
    fn toml_multiline_arrays_fold() {
        let doc = TomlDoc::parse("[workspace]\nmembers = [\n  \"a\",\n  \"b\",\n]\n");
        let members = doc.get("workspace", "members").unwrap();
        assert!(members.contains("\"a\"") && members.contains("\"b\""));
    }

    #[test]
    fn registry_dependency_is_flagged() {
        let text = "[package]\nname = \"dynahash-core\"\ndescription = \"d\"\nversion.workspace = true\nedition.workspace = true\nlicense.workspace = true\n[lints]\nworkspace = true\n[dependencies]\nserde = \"1\"\n";
        let findings = check_crate_manifest("crates/core/Cargo.toml", text);
        assert!(
            findings
                .iter()
                .any(|f| f.rule == Rule::Layering
                    && f.message.contains("registry dependency `serde`"))
        );
    }

    #[test]
    fn layering_violation_in_manifest_is_flagged() {
        let text = "[package]\ndescription = \"d\"\nversion.workspace = true\nedition.workspace = true\nlicense.workspace = true\n[lints]\nworkspace = true\n[dependencies]\ndynahash-cluster = { path = \"../cluster\" }\n";
        let findings = check_crate_manifest("crates/core/Cargo.toml", text);
        assert!(findings
            .iter()
            .any(|f| f.rule == Rule::Layering && f.message.contains("dynahash-cluster")));
    }

    #[test]
    fn missing_metadata_inheritance_is_flagged() {
        let text = "[package]\nname = \"dynahash-core\"\nversion = \"0.1.0\"\n";
        let findings = check_crate_manifest("crates/core/Cargo.toml", text);
        assert!(findings.iter().filter(|f| f.rule == Rule::Metadata).count() >= 3);
    }

    #[test]
    fn placeholder_repository_is_flagged() {
        let text = "[workspace]\nmembers = []\n[workspace.package]\nrepository = \"https://example.invalid/x\"\n[workspace.lints.rust]\nunsafe_code = \"forbid\"\n";
        let findings = check_workspace_manifest(text);
        assert!(findings
            .iter()
            .any(|f| f.rule == Rule::Metadata && f.message.contains("placeholder")));
    }

    #[test]
    fn lock_order_round_trip() {
        let manifest = "# Locks\n| rank | file | primitive | guards |\n|---|---|---|---|\n| 1 | a.rs | Mutex | state |\n";
        let uses = vec![LockUse {
            file: "a.rs".into(),
            primitive: "Mutex".into(),
            line: 3,
        }];
        assert!(check_lock_order(Some(manifest), &uses).is_empty());
        // Unregistered use.
        let extra = vec![LockUse {
            file: "b.rs".into(),
            primitive: "RefCell".into(),
            line: 9,
        }];
        let findings = check_lock_order(Some(manifest), &extra);
        assert!(findings.iter().any(|f| f.file == "b.rs"));
        // Stale entry.
        assert!(check_lock_order(Some(manifest), &[])
            .iter()
            .any(|f| f.message.contains("stale")));
        // Write-once cells: listed without a rank, checked both ways.
        let cells = "| file | cell | caches | init rule |\n|---|---|---|---|\n| c.rs | OnceLock | a view | takes no lock |\n";
        let both = format!("{manifest}\n{cells}");
        let cell_use = LockUse {
            file: "c.rs".into(),
            primitive: "OnceLock".into(),
            line: 5,
        };
        let all = [uses[0].clone(), cell_use];
        assert!(check_lock_order(Some(&both), &all).is_empty());
        let unlisted = check_lock_order(Some(manifest), &all);
        assert!(unlisted.iter().any(|f| f.file == "c.rs"));
        assert!(check_lock_order(Some(&both), &uses)
            .iter()
            .any(|f| f.message.contains("stale")));
        // No manifest at all.
        assert!(check_lock_order(None, &extra)
            .iter()
            .any(|f| f.message.contains("no LOCK_ORDER.md")));
        assert!(check_lock_order(None, &[]).is_empty());
    }

    #[test]
    fn budget_ratchet_flags_drift_both_ways() {
        let budget = "[waivers]\npanic = 2\n";
        assert!(check_budget(Some(budget), &[(Rule::Panic, 2)]).is_empty());
        assert!(!check_budget(Some(budget), &[(Rule::Panic, 3)]).is_empty());
        assert!(!check_budget(Some(budget), &[(Rule::Panic, 1)]).is_empty());
        assert!(!check_budget(None, &[(Rule::Panic, 1)]).is_empty());
        assert!(check_budget(None, &[]).is_empty());
    }
}
