//! The tree must pass its own static analysis: `dhlint --check .` at HEAD
//! has zero findings, and every `#[expect]` of an audited clippy lint is
//! accounted for by the committed `LINT_BUDGET.toml`. The audits themselves
//! (panics, wall-clock and hash-ordered types) are clippy's, in CI's clippy
//! step.

use std::path::Path;

#[test]
fn workspace_passes_dhlint() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let report = dynahash_lint::check_root(root).expect("workspace readable");
    assert!(
        report.is_clean(),
        "dhlint found findings:\n{}",
        report.render_text()
    );
}
