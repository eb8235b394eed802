//! Finding types, text rendering, and `--json` output.

use std::fmt;

/// The rule families dhlint enforces. Each maps to one name usable in a
/// waiver comment and in the waiver budget file.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Rule {
    /// Crate layering (`lsm ← core ← cluster ← {tpch,bench}`) and the
    /// zero-registry-dependency constraint, from both `Cargo.toml` and
    /// `use dynahash_*` statements.
    Layering,
    /// Raw partition accessors outside `crates/cluster` must go through
    /// `cluster.admin()`.
    Session,
    /// `unwrap()` / `expect()` / `panic!` / `unreachable!` in production
    /// crates must carry a waiver naming the invariant.
    Panic,
    /// Wall-clock reads outside `dynahash_bench::timing` and unordered
    /// `HashMap`/`HashSet` in ordering-sensitive scheduler files.
    Determinism,
    /// Every `Mutex`/`RwLock`/`RefCell` must be registered with an
    /// acquisition rank in `LOCK_ORDER.md`, every `OnceLock`/`OnceCell`
    /// listed in its write-once table.
    LockOrder,
    /// A `pub` item of a production crate that nothing outside its own
    /// file's `#[cfg(test)]` code names (cross-file, name-based).
    DeadPub,
    /// Workspace-package metadata consistency across crate manifests.
    Metadata,
    /// Waiver hygiene: unknown rules, unused waivers, budget drift.
    Waiver,
}

impl Rule {
    /// The rule name as written in waiver comments and the budget file.
    pub fn name(self) -> &'static str {
        match self {
            Rule::Layering => "layering",
            Rule::Session => "session",
            Rule::Panic => "panic",
            Rule::Determinism => "determinism",
            Rule::LockOrder => "lock-order",
            Rule::DeadPub => "dead-pub",
            Rule::Metadata => "metadata",
            Rule::Waiver => "waiver",
        }
    }

    /// Parses a rule name from a waiver comment or the budget file.
    pub fn from_name(name: &str) -> Option<Rule> {
        Some(match name {
            "layering" => Rule::Layering,
            "session" => Rule::Session,
            "panic" => Rule::Panic,
            "determinism" => Rule::Determinism,
            "lock-order" => Rule::LockOrder,
            "dead-pub" => Rule::DeadPub,
            "metadata" => Rule::Metadata,
            "waiver" => Rule::Waiver,
            _ => return None,
        })
    }

    /// Every rule family, in reporting order.
    pub fn all() -> [Rule; 8] {
        [
            Rule::Layering,
            Rule::Session,
            Rule::Panic,
            Rule::Determinism,
            Rule::LockOrder,
            Rule::DeadPub,
            Rule::Metadata,
            Rule::Waiver,
        ]
    }

    /// True when an inline `// dhlint: allow(...)` comment may waive a
    /// finding of this family. Manifest-level families have no source line
    /// to hang a waiver on and must be fixed instead.
    pub fn waivable(self) -> bool {
        !matches!(self, Rule::Metadata | Rule::Waiver)
    }
}

impl fmt::Display for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One finding produced by a rule.
#[derive(Debug, Clone)]
pub struct Finding {
    /// The rule family that fired.
    pub rule: Rule,
    /// Path relative to the checked root (`-` for root-level findings).
    pub file: String,
    /// 1-based line, or 0 for file-level findings.
    pub line: usize,
    /// Human-readable description.
    pub message: String,
    /// True when an inline waiver covers this finding. Waived findings are
    /// reported but do not fail the check (the budget file bounds them).
    pub waived: bool,
}

impl Finding {
    /// A file-level finding (no meaningful line number).
    pub fn file_level(rule: Rule, file: &str, message: String) -> Finding {
        Finding {
            rule,
            file: file.to_string(),
            line: 0,
            message,
            waived: false,
        }
    }
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let status = if self.waived { "waived" } else { "error" };
        if self.line == 0 {
            write!(
                f,
                "{}: [{}] {}: {}",
                status, self.rule, self.file, self.message
            )
        } else {
            write!(
                f,
                "{}: [{}] {}:{}: {}",
                status, self.rule, self.file, self.line, self.message
            )
        }
    }
}

/// The result of one full check run.
#[derive(Debug, Default)]
pub struct Report {
    /// All findings, waived and unwaived, in path/line order.
    pub findings: Vec<Finding>,
    /// Number of `.rs` files scanned.
    pub files_scanned: usize,
    /// Used-waiver counts per rule family, as enforced against the budget.
    pub waivers_used: Vec<(Rule, usize)>,
}

impl Report {
    /// True when the check passes: no unwaived findings.
    pub fn is_clean(&self) -> bool {
        self.findings.iter().all(|f| f.waived)
    }

    /// The unwaived findings.
    pub fn errors(&self) -> impl Iterator<Item = &Finding> {
        self.findings.iter().filter(|f| !f.waived)
    }

    /// Unwaived finding count for one rule family.
    pub fn error_count(&self, rule: Rule) -> usize {
        self.errors().filter(|f| f.rule == rule).count()
    }

    /// Renders the human-readable report.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        for f in &self.findings {
            out.push_str(&f.to_string());
            out.push('\n');
        }
        let errors = self.errors().count();
        let waived = self.findings.len() - errors;
        out.push_str(&format!(
            "dhlint: {} file(s) scanned, {} error(s), {} waived finding(s)\n",
            self.files_scanned, errors, waived
        ));
        out
    }

    /// Renders the machine-readable `--json` report.
    pub fn render_json(&self) -> String {
        let mut out = String::from("{\n  \"findings\": [\n");
        for (i, f) in self.findings.iter().enumerate() {
            out.push_str(&format!(
                "    {{\"rule\": \"{}\", \"file\": \"{}\", \"line\": {}, \"waived\": {}, \"message\": \"{}\"}}{}\n",
                f.rule,
                escape_json(&f.file),
                f.line,
                f.waived,
                escape_json(&f.message),
                if i + 1 < self.findings.len() { "," } else { "" }
            ));
        }
        out.push_str("  ],\n");
        out.push_str(&format!("  \"files_scanned\": {},\n", self.files_scanned));
        out.push_str("  \"waivers_used\": {");
        for (i, (rule, count)) in self.waivers_used.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            out.push_str(&format!("\"{rule}\": {count}"));
        }
        out.push_str("},\n");
        out.push_str(&format!("  \"clean\": {}\n}}\n", self.is_clean()));
        out
    }
}

/// Escapes a string for embedding in a JSON literal.
pub fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rule_names_round_trip() {
        for rule in Rule::all() {
            assert_eq!(Rule::from_name(rule.name()), Some(rule));
        }
        assert_eq!(Rule::from_name("nope"), None);
    }

    #[test]
    fn waived_findings_keep_the_report_clean() {
        let mut report = Report::default();
        report.findings.push(Finding {
            rule: Rule::Panic,
            file: "a.rs".into(),
            line: 3,
            message: "x".into(),
            waived: true,
        });
        assert!(report.is_clean());
        report.findings.push(Finding::file_level(
            Rule::Metadata,
            "Cargo.toml",
            "missing".into(),
        ));
        assert!(!report.is_clean());
        assert_eq!(report.error_count(Rule::Metadata), 1);
    }

    #[test]
    fn json_escapes_specials() {
        assert_eq!(escape_json("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
    }
}
