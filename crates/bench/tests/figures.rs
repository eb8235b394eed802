//! The figure harness from outside the crate: the `Table` contract, the
//! figure selection of `run_figures`, and the byte-identity of every
//! simulated cell.

use std::sync::atomic::{AtomicUsize, Ordering};

use dynahash_bench::json::Json;
use dynahash_bench::table::Table;
use dynahash_bench::{json_document, run_figures, table_row, ExperimentConfig, Figure, FIGURES};

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

/// `experiments` exits 2 when `run_figures` returns `None`.
#[test]
fn an_unknown_figure_runs_nothing_and_exits_2() {
    static RUNS: AtomicUsize = AtomicUsize::new(0);
    let registry = [Figure {
        name: "ok",
        title: "a stub figure",
        run: |_| {
            RUNS.fetch_add(1, Ordering::SeqCst);
            vec![sample()]
        },
    }];
    let cfg = ExperimentConfig::quick();
    assert!(run_figures(&registry, Some("nosuch"), &cfg).is_none());
    assert_eq!(RUNS.load(Ordering::SeqCst), 0);
    // a known name is matched case-insensitively and runs once
    let tables = run_figures(&registry, Some("OK"), &cfg).expect("a known figure");
    assert_eq!(tables.len(), 1);
    assert_eq!(RUNS.load(Ordering::SeqCst), 1);
}

// ------------------------------------------------------------- the golden

/// Every simulated cell of every figure at the `--quick` scale, byte for
/// byte. A change that moves one updates `golden/figures_quick.json` in the
/// same commit (the failure message says where the new document is), which
/// is what "name every cell" means.
#[test]
fn the_quick_figures_match_the_golden_document() {
    let cfg = ExperimentConfig::quick();
    let tables = run_figures(FIGURES, None, &cfg).expect("every figure");
    let doc: Json = json_document(&cfg, true, &tables);
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
