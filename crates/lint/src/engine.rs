//! The check driver: walks a root, runs every rule family, and enforces the
//! lock-order manifest and the waiver budget.

use std::collections::BTreeMap;
use std::fs;
use std::path::{Path, PathBuf};

use crate::lexer::LexedFile;
use crate::manifest;
use crate::report::{Finding, Report, Rule};
use crate::rules::{self, LockUse, PubItems};

/// Directory names the walker never descends into. `fixtures` holds the
/// lint's own negative test inputs — intentionally dirty files that must
/// not count against the real tree.
const SKIP_DIRS: [&str; 5] = ["target", ".git", ".github", ".claude", "fixtures"];

/// The committed waiver-budget file at the checked root.
pub const BUDGET_FILE: &str = "LINT_BUDGET.toml";
/// The committed lock-order manifest at the checked root.
pub const LOCK_ORDER_FILE: &str = "LOCK_ORDER.md";

/// Runs the full check rooted at `root` and returns the report.
pub fn check_root(root: &Path) -> std::io::Result<Report> {
    let mut report = Report::default();
    let mut lock_uses: Vec<LockUse> = Vec::new();
    let mut pub_items = PubItems::default();

    let mut rs_files = Vec::new();
    let mut manifests = Vec::new();
    walk(root, root, &mut rs_files, &mut manifests)?;
    rs_files.sort();
    manifests.sort();

    for rel in &rs_files {
        let text = fs::read_to_string(root.join(rel))?;
        let rel_str = rel.to_string_lossy().replace('\\', "/");
        let mut file = check_source(&rel_str, &text);
        report.files_scanned += 1;
        lock_uses.extend(file.lock_uses);
        for (rule, n) in file.waivers {
            *report.waivers_used.entry(rule).or_insert(0) += n;
        }
        report.findings.append(&mut file.findings);
        pub_items.defs.append(&mut file.pub_items.defs);
        pub_items.uses.append(&mut file.pub_items.uses);
    }

    for rel in &manifests {
        let text = fs::read_to_string(root.join(rel))?;
        let rel_str = rel.to_string_lossy().replace('\\', "/");
        if rel_str == "Cargo.toml" {
            report
                .findings
                .extend(manifest::check_workspace_manifest(&text));
        } else {
            report
                .findings
                .extend(manifest::check_crate_manifest(&rel_str, &text));
        }
    }

    lock_uses.sort();
    let lock_manifest = manifest::read_optional(&root.join(LOCK_ORDER_FILE));
    report.findings.extend(manifest::check_lock_order(
        lock_manifest.as_deref(),
        &lock_uses,
    ));

    report
        .findings
        .extend(rules::dead_pub(&pub_items.defs, &pub_items.uses));

    let budget = manifest::read_optional(&root.join(BUDGET_FILE));
    report.findings.extend(manifest::check_budget(
        budget.as_deref(),
        &report.waivers_used,
    ));

    report
        .findings
        .sort_by(|a, b| (&a.file, a.line).cmp(&(&b.file, b.line)));
    Ok(report)
}

/// What [`check_source`] found in one file.
#[derive(Debug, Default)]
pub struct SourceCheck {
    /// The per-file findings.
    pub findings: Vec<Finding>,
    /// Lock primitives the file mentions, for the `LOCK_ORDER.md` cross-check.
    pub lock_uses: Vec<LockUse>,
    /// The file's waivers of audited lints, counted per rule family.
    pub waivers: BTreeMap<Rule, usize>,
    /// `pub` definitions and identifier uses, for the `dead-pub` cross-check.
    pub pub_items: PubItems,
}

/// Runs every source-level rule family on one file; the two cross-file
/// rules (lock order, `dead-pub`) only collect here. Exposed so tests can
/// drive single files without a filesystem tree.
pub fn check_source(rel_path: &str, text: &str) -> SourceCheck {
    let lexed = LexedFile::lex(text);
    let attrs = rules::lint_attrs(&lexed);
    let (mut findings, waivers) = rules::lint_waivers(rel_path, &attrs);
    findings.extend(rules::panic_deny(rel_path, &attrs));
    SourceCheck {
        findings,
        lock_uses: rules::collect_lock_uses(rel_path, &lexed),
        waivers,
        pub_items: rules::collect_pub_items(rel_path, &lexed),
    }
}

/// Recursively collects `.rs` files and `Cargo.toml` manifests under
/// `dir`, as paths relative to `root`.
fn walk(
    root: &Path,
    dir: &Path,
    rs_files: &mut Vec<PathBuf>,
    manifests: &mut Vec<PathBuf>,
) -> std::io::Result<()> {
    let mut entries: Vec<_> = fs::read_dir(dir)?.collect::<Result<_, _>>()?;
    entries.sort_by_key(|e| e.file_name());
    for entry in entries {
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if SKIP_DIRS.contains(&name.as_ref()) {
                continue;
            }
            walk(root, &path, rs_files, manifests)?;
        } else if name.ends_with(".rs") || name == "Cargo.toml" {
            let rel = path.strip_prefix(root).unwrap_or(&path).to_path_buf();
            if name == "Cargo.toml" {
                manifests.push(rel);
            } else {
                rs_files.push(rel);
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn an_expect_of_an_audited_lint_counts_against_its_family() {
        let src = concat!(
            "#[expect(clippy::expect_used, reason = \"the key was inserted above\")]\n",
            "fn f() { x.expect(\"present\") }\n",
            "#[expect(clippy::disallowed_types, reason = \"a fixed hasher\")]\n",
            "type T = std::collections::HashMap<u8, u8, H>;\n",
            "#[expect(clippy::too_many_arguments, reason = \"not audited\")]\n",
            "fn g() {}\n",
        );
        let file = check_source("crates/lsm/src/x.rs", src);
        assert!(file.findings.is_empty(), "{:?}", file.findings);
        let counts = BTreeMap::from([(Rule::Panic, 1), (Rule::Determinism, 1)]);
        assert_eq!(file.waivers, counts);
    }

    #[test]
    fn an_allow_of_an_audited_lint_is_a_waiver_finding() {
        let src = concat!(
            "#[allow(clippy::unwrap_used, reason = \"the key was inserted above\")]\n",
            "fn f() { x.unwrap() }\n",
        );
        let file = check_source("crates/core/src/x.rs", src);
        assert_eq!(file.findings.len(), 1);
        assert_eq!(
            (file.findings[0].rule, file.findings[0].line),
            (Rule::Waiver, 1)
        );
        assert_eq!(file.waivers, BTreeMap::from([(Rule::Panic, 1)]));
    }
}
