//! End-to-end checks of `dhlint` against the committed fixture trees.
//!
//! Each fixture under `fixtures/` is a miniature workspace mimicking the
//! real `crates/<name>/src` layout so the path-scoped rules fire exactly as
//! they would on the real tree. Negative fixtures must produce an error of
//! the expected rule family; clean fixtures must pass.

use std::path::PathBuf;
use std::process::Command;

use dynahash_lint::{check_root, Report, Rule};

fn fixture(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("fixtures")
        .join(name)
}

fn check(name: &str) -> Report {
    check_root(&fixture(name)).expect("fixture readable")
}

fn has_error(report: &Report, rule: Rule) -> bool {
    report.findings.iter().any(|f| f.rule == rule)
}

#[test]
fn layering_violation_is_flagged() {
    let r = check("layering_bad");
    assert!(has_error(&r, Rule::Layering), "{r:?}");
}

#[test]
fn layering_respects_the_allowed_dag() {
    let r = check("layering_clean");
    assert!(r.is_clean(), "{r:?}");
}

#[test]
fn registry_dependency_is_flagged() {
    let r = check("layering_registry");
    assert!(has_error(&r, Rule::Layering), "{r:?}");
}

#[test]
fn unregistered_lock_is_flagged() {
    let r = check("lock_order_bad");
    assert!(has_error(&r, Rule::LockOrder), "{r:?}");
}

#[test]
fn registered_lock_passes() {
    let r = check("lock_order_ok");
    assert!(r.is_clean(), "{r:?}");
}

#[test]
fn stale_lock_order_row_is_flagged() {
    let r = check("lock_order_stale");
    assert!(has_error(&r, Rule::LockOrder), "{r:?}");
}

#[test]
fn budget_ratchets_in_both_directions() {
    let over = check("budget_over");
    assert!(
        has_error(&over, Rule::Waiver),
        "more waivers than budget: {over:?}"
    );
    let stale = check("budget_stale");
    assert!(
        has_error(&stale, Rule::Waiver),
        "budget above actual use: {stale:?}"
    );
}

#[test]
fn a_pub_item_only_its_own_unit_test_or_a_comment_or_a_string_names_is_dead() {
    let r = check("dead_pub_bad");
    let dead: Vec<(&str, usize)> = r
        .findings
        .iter()
        .filter(|f| f.rule == Rule::DeadPub)
        .map(|f| (f.file.as_str(), f.line))
        .collect();
    // `only_unit_tested` (called from its file's `#[cfg(test)] mod`, named in
    // a string elsewhere) and `OnlyMentioned` (named in a `///` comment and a
    // string) — and nothing else.
    assert_eq!(
        dead,
        [("crates/core/src/lib.rs", 1), ("crates/core/src/lib.rs", 5)],
        "{r:?}"
    );
}

#[test]
fn uses_from_other_crates_integration_tests_and_the_benchmark_keep_an_item_alive() {
    // Also the documented blind spot: `Dead::touch` has no caller, but shares
    // its name with `Live::touch`, which has one.
    let r = check("dead_pub_clean");
    assert!(r.findings.is_empty(), "{r:?}");
}

#[test]
fn placeholder_repository_is_flagged() {
    let r = check("metadata_bad");
    assert!(has_error(&r, Rule::Metadata), "{r:?}");
}

#[test]
fn switching_the_clippy_audits_off_is_a_metadata_finding() {
    let r = check("metadata_bad");
    let metadata: Vec<(&str, &str)> = r
        .findings
        .iter()
        .filter(|f| f.rule == Rule::Metadata)
        .map(|f| (f.file.as_str(), f.message.as_str()))
        .collect();
    assert!(
        metadata.iter().any(|(file, message)| *file == "Cargo.toml"
            && message.contains("allow_attributes_without_reason")),
        "a workspace without the reason lint: {r:?}"
    );
    assert!(
        metadata
            .iter()
            .any(|(file, message)| *file == "crates/lsm/src/lib.rs"
                && message.contains("clippy::expect_used")),
        "an audited lib.rs without the six-lint deny: {r:?}"
    );
}

#[test]
fn binary_exits_nonzero_on_negative_fixtures() {
    for name in [
        "layering_bad",
        "lock_order_bad",
        "metadata_bad",
        "dead_pub_bad",
        "budget_over",
        "budget_stale",
    ] {
        let status = Command::new(env!("CARGO_BIN_EXE_dhlint"))
            .args(["--check"])
            .arg(fixture(name))
            .arg("--quiet")
            .status()
            .expect("run dhlint");
        assert_eq!(status.code(), Some(1), "fixture {name}");
    }
}

#[test]
fn binary_exits_zero_on_clean_fixtures() {
    for name in ["layering_clean", "lock_order_ok", "dead_pub_clean"] {
        let status = Command::new(env!("CARGO_BIN_EXE_dhlint"))
            .args(["--check"])
            .arg(fixture(name))
            .arg("--quiet")
            .status()
            .expect("run dhlint");
        assert_eq!(status.code(), Some(0), "fixture {name}");
    }
}
