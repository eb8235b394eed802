//! Inline waivers and the committed waiver budget.
//!
//! A finding can be waived where it occurs with
//!
//! ```text
//! some_option.expect("…") // dhlint: allow(panic) — directory keys are pre-seeded
//! ```
//!
//! or, for multi-line statements, with a comment line directly above the
//! offending line:
//!
//! ```text
//! // dhlint: allow(determinism) — bench harness measures wall-clock by design
//! let start = Instant::now();
//! ```
//!
//! Every waiver must carry a reason after the rule — the reason is the
//! documentation trail naming the invariant that justifies the exception.
//! Unused waivers and waivers naming unknown rules are findings themselves
//! (family `waiver`), so the set of waivers can only shrink or be justified.
//!
//! The total number of *used* waivers per rule family is bounded by the
//! committed budget file (`LINT_BUDGET.toml`); see [`crate::manifest`] for
//! the ratchet check.

use crate::lexer::LexedFile;
use crate::report::{Finding, Rule};

/// One parsed waiver comment.
#[derive(Debug, Clone)]
pub struct Waiver {
    /// The rule family it waives.
    pub rule: Rule,
    /// The 1-based source line the waiver *covers* (the comment's own line
    /// for trailing waivers; the next code line for own-line waivers).
    pub target_line: usize,
    /// The line the comment itself sits on.
    pub comment_line: usize,
    /// The justification text after the rule name.
    pub reason: String,
}

/// The result of scanning one file for waivers.
#[derive(Debug, Default)]
pub struct FileWaivers {
    /// Parsed waivers, in source order.
    pub waivers: Vec<Waiver>,
    /// Malformed waiver comments (unknown rule, missing reason), reported
    /// as `waiver` findings.
    pub malformed: Vec<Finding>,
}

const MARKER: &str = "dhlint:";

/// Extracts the waivers declared in `lexed`'s line comments.
pub fn collect_waivers(path: &str, lexed: &LexedFile) -> FileWaivers {
    let mut out = FileWaivers::default();
    for comment in &lexed.comments {
        let text = comment.text.trim_start_matches('/').trim();
        let Some(rest) = text.strip_prefix(MARKER) else {
            continue;
        };
        match parse_allow(rest.trim(), text) {
            Ok((rule, reason)) => out.waivers.push(Waiver {
                rule,
                target_line: if comment.own_line {
                    next_code_line(lexed, comment.line)
                } else {
                    comment.line
                },
                comment_line: comment.line,
                reason,
            }),
            Err(message) => {
                let finding = Finding::new(Rule::Waiver, path, comment.line, message);
                out.malformed.push(finding);
            }
        }
    }
    out
}

/// Parses the `allow(<rule>) — <reason>` after the marker of the comment
/// `text`: the rule and its reason, or why the waiver is malformed.
fn parse_allow(args: &str, text: &str) -> Result<(Rule, String), String> {
    let args = args.strip_prefix("allow(").ok_or_else(|| {
        format!("malformed dhlint comment (expected `dhlint: allow(<rule>) — <reason>`): `{text}`")
    })?;
    let close = args.find(')').ok_or("unclosed `allow(` in dhlint waiver")?;
    let rule_name = args[..close].trim();
    let reason = args[close + 1..]
        .trim()
        .trim_start_matches(['—', '-', ':'])
        .trim()
        .to_string();
    let rule = Rule::from_name(rule_name)
        .ok_or_else(|| format!("unknown rule `{rule_name}` in dhlint waiver"))?;
    if !rule.waivable() {
        return Err(format!(
            "rule `{rule_name}` cannot be waived inline — fix the finding"
        ));
    }
    if reason.len() < 4 {
        return Err(format!(
            "dhlint waiver for `{rule_name}` needs a reason naming the invariant"
        ));
    }
    Ok((rule, reason))
}

/// For an own-line waiver comment, the line it covers: the next line that
/// carries code (skipping blank, comment-only, and attribute-only lines).
fn next_code_line(lexed: &LexedFile, comment_line: usize) -> usize {
    let mut line = comment_line + 1;
    while line <= lexed.line_count() {
        let text = lexed.masked_line(line).trim();
        if !text.is_empty() && !text.starts_with("#[") {
            return line;
        }
        line += 1;
    }
    comment_line + 1
}

/// Marks findings covered by a waiver as waived and returns `waiver`
/// findings for waivers that covered nothing.
pub fn apply_waivers(
    path: &str,
    waivers: &[Waiver],
    findings: &mut [Finding],
) -> (Vec<Finding>, Vec<(Rule, usize)>) {
    let mut unused = Vec::new();
    let mut used_counts: Vec<(Rule, usize)> = Vec::new();
    for waiver in waivers {
        let mut used = false;
        for finding in findings.iter_mut() {
            if finding.rule == waiver.rule
                && finding.file == path
                && finding.line == waiver.target_line
            {
                finding.waived = true;
                used = true;
            }
        }
        if used {
            match used_counts.iter_mut().find(|(r, _)| *r == waiver.rule) {
                Some((_, n)) => *n += 1,
                None => used_counts.push((waiver.rule, 1)),
            }
        } else {
            unused.push(Finding::new(
                Rule::Waiver,
                path,
                waiver.comment_line,
                format!(
                    "unused dhlint waiver for `{}` (no matching finding on line {})",
                    waiver.rule, waiver.target_line
                ),
            ));
        }
    }
    (unused, used_counts)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lex(src: &str) -> LexedFile {
        LexedFile::lex(src)
    }

    #[test]
    fn trailing_waiver_targets_its_own_line() {
        let lexed = lex("x.unwrap(); // dhlint: allow(panic) — key was inserted above\n");
        let w = collect_waivers("f.rs", &lexed);
        assert_eq!(w.waivers.len(), 1);
        assert_eq!(w.waivers[0].target_line, 1);
        assert_eq!(w.waivers[0].rule, Rule::Panic);
        assert!(w.waivers[0].reason.contains("inserted"));
    }

    #[test]
    fn own_line_waiver_targets_next_code_line() {
        let lexed = lex("// dhlint: allow(determinism) — wall-clock is the point\n\n#[inline]\nlet t = now();\n");
        let w = collect_waivers("f.rs", &lexed);
        assert_eq!(w.waivers.len(), 1);
        assert_eq!(w.waivers[0].target_line, 4);
    }

    #[test]
    fn unknown_rule_and_missing_reason_are_malformed() {
        let lexed = lex(
            "// dhlint: allow(bogus) — reason here\nx();\n// dhlint: allow(panic)\ny();\n\
             // dhlint: allow(lock-order) — registered elsewhere\nz();\n",
        );
        let w = collect_waivers("f.rs", &lexed);
        assert!(w.waivers.is_empty());
        assert_eq!(w.malformed.len(), 3);
        assert!(w.malformed[2].message.contains("cannot be waived inline"));
    }

    #[test]
    fn unused_waivers_are_reported() {
        let lexed = lex("let a = 1; // dhlint: allow(panic) — nothing actually here\n");
        let w = collect_waivers("f.rs", &lexed);
        let mut findings = vec![];
        let (unused, used) = apply_waivers("f.rs", &w.waivers, &mut findings);
        assert_eq!(unused.len(), 1);
        assert!(used.is_empty());
    }

    #[test]
    fn matching_waiver_marks_finding() {
        let lexed = lex("x.unwrap(); // dhlint: allow(panic) — invariant documented\n");
        let w = collect_waivers("f.rs", &lexed);
        let mut findings = vec![Finding::new(Rule::Panic, "f.rs", 1, "unwrap".into())];
        let (unused, used) = apply_waivers("f.rs", &w.waivers, &mut findings);
        assert!(unused.is_empty());
        assert!(findings[0].waived);
        assert_eq!(used, vec![(Rule::Panic, 1)]);
    }
}
