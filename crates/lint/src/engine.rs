//! The check driver: walks a root, runs every rule family, applies waivers,
//! and enforces the lock-order manifest and the waiver budget.

use std::fs;
use std::path::{Path, PathBuf};

use crate::lexer::LexedFile;
use crate::manifest;
use crate::report::{Finding, Report, Rule};
use crate::rules::{self, FileScope, LockUse, PubItems};
use crate::waivers::{self, Waiver};

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
    let mut used_waivers: Vec<(Rule, usize)> = Vec::new();
    let mut pub_items = PubItems::default();
    let mut dead_pub_waivers: Vec<(String, Vec<Waiver>)> = Vec::new();

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
        merge_counts(&mut used_waivers, file.used_waivers);
        report.findings.append(&mut file.findings);
        pub_items.defs.append(&mut file.pub_items.defs);
        pub_items.uses.append(&mut file.pub_items.uses);
        if !file.dead_pub_waivers.is_empty() {
            dead_pub_waivers.push((rel_str, file.dead_pub_waivers));
        }
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

    let mut dead = rules::dead_pub(&pub_items.defs, &pub_items.uses);
    for (file, file_waivers) in &dead_pub_waivers {
        let (unused, used) = waivers::apply_waivers(file, file_waivers, &mut dead);
        report.findings.extend(unused);
        merge_counts(&mut used_waivers, used);
    }
    report.findings.append(&mut dead);

    let budget = manifest::read_optional(&root.join(BUDGET_FILE));
    report
        .findings
        .extend(manifest::check_budget(budget.as_deref(), &used_waivers));
    report.waivers_used = used_waivers;

    report
        .findings
        .sort_by(|a, b| (&a.file, a.line).cmp(&(&b.file, b.line)));
    Ok(report)
}

/// What [`check_source`] found in one file.
#[derive(Debug, Default)]
pub struct SourceCheck {
    /// The per-file findings, waivers applied.
    pub findings: Vec<Finding>,
    /// Lock primitives the file mentions, for the `LOCK_ORDER.md` cross-check.
    pub lock_uses: Vec<LockUse>,
    /// Used-waiver counts of the per-file rules.
    pub used_waivers: Vec<(Rule, usize)>,
    /// `pub` definitions and identifier uses, for the `dead-pub` cross-check.
    pub pub_items: PubItems,
    /// The file's `dead-pub` waivers, applied by [`check_root`] once the
    /// cross-check has decided which definitions are findings.
    pub dead_pub_waivers: Vec<Waiver>,
}

/// Runs every source-level rule family on one file and applies its
/// waivers; the two cross-file rules (lock order, `dead-pub`) only collect
/// here. Exposed so tests can drive single files without a filesystem tree.
pub fn check_source(rel_path: &str, text: &str) -> SourceCheck {
    let lexed = LexedFile::lex(text);
    let scope = FileScope::of(rel_path);

    let mut findings = Vec::new();
    findings.extend(rules::layering_use(rel_path, &scope, &lexed));
    findings.extend(rules::session_discipline(rel_path, &scope, &lexed));
    findings.extend(rules::panic_audit(rel_path, &scope, &lexed));
    findings.extend(rules::determinism(rel_path, &lexed));

    let mut file_waivers = waivers::collect_waivers(rel_path, &lexed);
    let mut dead_pub_waivers = file_waivers.waivers.clone();
    dead_pub_waivers.retain(|w| w.rule == Rule::DeadPub);
    file_waivers.waivers.retain(|w| w.rule != Rule::DeadPub);
    let (unused, used_waivers) =
        waivers::apply_waivers(rel_path, &file_waivers.waivers, &mut findings);
    findings.extend(unused);
    findings.extend(file_waivers.malformed);
    SourceCheck {
        findings,
        lock_uses: rules::collect_lock_uses(rel_path, &lexed),
        used_waivers,
        pub_items: rules::collect_pub_items(rel_path, &scope, &lexed),
        dead_pub_waivers,
    }
}

fn merge_counts(into: &mut Vec<(Rule, usize)>, from: Vec<(Rule, usize)>) {
    for (rule, n) in from {
        match into.iter_mut().find(|(r, _)| *r == rule) {
            Some((_, total)) => *total += n,
            None => into.push((rule, n)),
        }
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
    fn check_source_waives_and_counts() {
        let src =
            "fn f() {\n    x.unwrap() // dhlint: allow(panic) — key inserted two lines up\n}\n";
        let file = check_source("crates/core/src/x.rs", src);
        assert_eq!(file.findings.len(), 1);
        assert!(file.findings[0].waived);
        assert_eq!(file.used_waivers, vec![(Rule::Panic, 1)]);
    }

    #[test]
    fn check_source_reports_unwaived() {
        let src = "fn f() { x.unwrap() }\n";
        let file = check_source("crates/lsm/src/x.rs", src);
        assert_eq!(file.findings.len(), 1);
        assert!(!file.findings[0].waived);
        assert!(file.used_waivers.is_empty());
    }
}
