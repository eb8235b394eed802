//! The figure harness from outside the crate: the `Table` contract, the
//! driver's exit statuses, and the byte-identity of every simulated cell.

use std::sync::atomic::{AtomicUsize, Ordering};

use dynahash_bench::json::Json;
use dynahash_bench::table::Table;
use dynahash_bench::{
    json_document, run_figures, table_row, ExperimentConfig, Figure, Study, Violation, FIGURES,
};

table_row! {
    /// A row exercising every cell kind.
    pub struct Sample {
        /// Text.
        pub label: &'static str => col("name", "label"),
        /// Integer.
        pub count: usize => col("count", "n"),
        /// Number.
        pub ratio: f64 => col("ratio", "ratio (x)", 2),
        /// Boolean.
        pub ok: bool => col("ok", "ok"),
    }
}

fn sample() -> Table {
    let row = Sample {
        label: "a",
        count: 3,
        ratio: 1.23456,
        ok: true,
    };
    Table::of("sample", &[row])
}

#[test]
fn markdown_and_json_render_the_same_cells() {
    let t = sample();
    assert_eq!(
        t.markdown(),
        "| label | n | ratio (x) | ok |\n\
         |---|---|---|---|\n\
         | a | 3 | 1.23 | true |\n"
    );
    assert_eq!(
        t.json().render(),
        r#"[{"name":"a","count":3,"ratio":1.23456,"ok":true}]"#
    );
}

// ------------------------------------------------------------ the driver

fn violation(message: &str) -> Violation {
    Violation {
        message: message.to_string(),
    }
}

fn stub(name: &'static str, run: fn(&ExperimentConfig) -> Study) -> Figure {
    Figure {
        name,
        title: "a stub figure",
        run,
        gate_note: Some("stub gate"),
    }
}

fn study(violations: Vec<Violation>) -> Study {
    Study {
        tables: vec![sample()],
        violations,
    }
}

#[test]
fn an_unknown_figure_runs_nothing_and_exits_2() {
    static RUNS: AtomicUsize = AtomicUsize::new(0);
    let registry = [stub("ok", |_| {
        RUNS.fetch_add(1, Ordering::SeqCst);
        study(vec![])
    })];
    let cfg = ExperimentConfig::quick();
    let (status, out) = run_figures(&registry, Some("nosuch"), &cfg);
    assert_eq!((status, out.tables.len()), (2, 0));
    assert_eq!(RUNS.load(Ordering::SeqCst), 0);
    // a known name is matched case-insensitively, runs once and exits 0
    let (status, out) = run_figures(&registry, Some("OK"), &cfg);
    assert_eq!((status, out.tables.len()), (0, 1));
    assert_eq!(RUNS.load(Ordering::SeqCst), 1);
}

#[test]
fn a_deterministic_violation_exits_1_without_a_second_run() {
    static RUNS: AtomicUsize = AtomicUsize::new(0);
    let registry = [
        stub("passes", |_| study(vec![])),
        stub("fails", |_| {
            RUNS.fetch_add(1, Ordering::SeqCst);
            study(vec![violation("wrong answer"), violation("wrong contents")])
        }),
    ];
    let (status, out) = run_figures(&registry, None, &ExperimentConfig::quick());
    assert_eq!(status, 1);
    assert_eq!(RUNS.load(Ordering::SeqCst), 1, "a failure is final");
    assert_eq!((out.tables.len(), out.violations.len()), (2, 2));
}

// ------------------------------------------------------------- the golden

/// Every simulated cell of every figure at the `--quick` scale, byte for
/// byte. A change that moves one updates `golden/figures_quick.json` in the
/// same commit (the failure message says where the new document is), which
/// is what "name every cell" means.
#[test]
fn the_quick_figures_match_the_golden_document() {
    let cfg = ExperimentConfig::quick();
    let (_, out) = run_figures(FIGURES, None, &cfg);
    assert!(
        out.violations.is_empty(),
        "gate violations: {:?}",
        out.violations
    );

    let doc: Json = json_document(&cfg, true, &out.tables);
    let actual = doc.render() + "\n";
    let golden = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/golden/figures_quick.json"
    );
    let expected = std::fs::read_to_string(golden).expect("read the golden document");
    if actual != expected {
        let at = actual
            .bytes()
            .zip(expected.bytes())
            .position(|(a, e)| a != e)
            .unwrap_or(actual.len().min(expected.len()));
        let new = concat!(env!("CARGO_TARGET_TMPDIR"), "/figures_quick.json");
        std::fs::write(new, &actual).expect("write the new document");
        let context = |s: &str| {
            let bytes = &s.as_bytes()[at.saturating_sub(120)..(at + 80).min(s.len())];
            String::from_utf8_lossy(bytes).into_owned()
        };
        panic!(
            "a simulated cell moved (first difference at byte {at}).\n  golden: …{}…\n  actual: \
             …{}…\nif the change is intended, name the cells in CHANGES.md and copy {new} over \
             {golden}",
            context(&expected),
            context(&actual)
        );
    }
}
