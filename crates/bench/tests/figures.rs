//! The figure harness from outside the crate: the `Table` contract, the
//! driver's exit statuses, and the byte-identity of every simulated cell.

use std::sync::atomic::{AtomicUsize, Ordering};

use dynahash_bench::json::Json;
use dynahash_bench::table::{Hex, Table};
use dynahash_bench::{
    json_document, run_figures, table_row, ExperimentConfig, Figure, Study, Violation, FIGURES,
};
use dynahash_cluster::SimDuration;

table_row! {
    /// A row exercising every cell kind.
    pub struct Sample {
        /// Text.
        pub label: &'static str => col("name", "label"),
        /// Integer.
        pub count: usize => col("count", "n"),
        /// Read by a gate only: not a column.
        pub hidden: u64,
        /// Number.
        pub ratio: f64 => col("ratio", "ratio (x)", 2),
        /// Wall-clock number.
        pub ns: f64 => wall("ns_per_op", "ns/op", 1),
        /// Boolean.
        pub ok: bool => col("ok", "ok"),
        /// Checksum.
        pub sum: Hex => col("checksum", "checksum"),
        /// Simulated time.
        pub took: SimDuration => col("makespan_ns", "makespan (ms)"),
    }
}

fn sample() -> Table {
    let row = Sample {
        label: "a",
        count: 3,
        hidden: 9,
        ratio: 1.23456,
        ns: 17.25,
        ok: true,
        sum: Hex(0xbeef),
        took: SimDuration::from_nanos(4_171_000),
    };
    assert_eq!(row.hidden, 9);
    Table::of("sample", &[row])
}

#[test]
fn markdown_and_json_render_the_same_cells() {
    let t = sample();
    assert_eq!(
        t.markdown(),
        "| label | n | ratio (x) | ns/op | ok | checksum | makespan (ms) |\n\
         |---|---|---|---|---|---|---|\n\
         | a | 3 | 1.23 | 17.2 | true | 000000000000beef | 4.171 |\n"
    );
    assert_eq!(
        t.json(true).render(),
        r#"[{"name":"a","count":3,"ratio":1.23456,"ns_per_op":17.25,"ok":true,"checksum":"000000000000beef","makespan_ns":4171000}]"#
    );
    // a wall-clock column can be left out of the JSON; nothing else moves
    assert_eq!(
        t.json(false).render(),
        r#"[{"name":"a","count":3,"ratio":1.23456,"ok":true,"checksum":"000000000000beef","makespan_ns":4171000}]"#
    );
}

// ------------------------------------------------------------ the driver

fn violation(message: &str, wall_clock: bool) -> Violation {
    Violation {
        message: message.to_string(),
        wall_clock,
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
            study(vec![
                violation("slow", true),
                violation("wrong contents", false),
            ])
        }),
    ];
    let (status, out) = run_figures(&registry, None, &ExperimentConfig::quick());
    assert_eq!(status, 1);
    assert_eq!(RUNS.load(Ordering::SeqCst), 1, "a mixed failure is final");
    assert_eq!((out.tables.len(), out.violations.len()), (2, 2));
}

#[test]
fn wall_clock_violations_are_remeasured_at_most_twice() {
    static ALWAYS: AtomicUsize = AtomicUsize::new(0);
    static ONCE: AtomicUsize = AtomicUsize::new(0);
    let cfg = ExperimentConfig::quick();
    let always_slow = [stub("slow", |_| {
        ALWAYS.fetch_add(1, Ordering::SeqCst);
        study(vec![violation("over the bound", true)])
    })];
    let (status, out) = run_figures(&always_slow, None, &cfg);
    assert_eq!((status, out.violations.len()), (1, 1));
    assert_eq!(ALWAYS.load(Ordering::SeqCst), 3, "one run and two re-runs");

    let slow_once = [stub("noisy", |_| {
        let first = ONCE.fetch_add(1, Ordering::SeqCst) == 0;
        study(if first {
            vec![violation("over the bound", true)]
        } else {
            vec![]
        })
    })];
    let (status, out) = run_figures(&slow_once, None, &cfg);
    assert_eq!((status, out.violations.len()), (0, 0));
    assert_eq!(ONCE.load(Ordering::SeqCst), 2, "the re-measurement passed");
}

// ------------------------------------------------------------- the golden

/// Every simulated cell of every figure at the `--quick` scale, byte for
/// byte. A change that moves one updates `golden/figures_quick.json` in the
/// same commit (the failure message says where the new document is), which
/// is what "name every cell" means. Wall-clock columns are left out; a
/// wall-clock gate may trip on a loaded machine, a deterministic one may not.
#[test]
fn the_quick_figures_match_the_golden_document() {
    let cfg = ExperimentConfig::quick();
    let (_, out) = run_figures(FIGURES, None, &cfg);
    let deterministic: Vec<&Violation> = out.violations.iter().filter(|v| !v.wall_clock).collect();
    assert!(
        deterministic.is_empty(),
        "gate violations: {deterministic:?}"
    );

    let doc: Json = json_document(&cfg, true, &out.tables, false);
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
