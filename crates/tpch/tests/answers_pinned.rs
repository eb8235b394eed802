//! The 22 TPC-H answers and what the simulation charged for them, pinned.
//!
//! Both files under `golden/` were recorded at commit `1df6fe1`, the last one
//! whose query programs materialised their tables: one line per scheme ×
//! cluster state × query, holding the answer and the whole [`QueryReport`]
//! (elapsed, coordinator, every node's busy time, in simulated nanoseconds).
//! `answers_pinned.txt` is `TpchScale::tiny()`, where nine selective queries
//! answer zero; `answers_pinned_nonzero.txt` is the smallest database found
//! (4 000 orders, seed 975) on which all 22 answer something, so a predicate
//! that went wrong in a rewrite cannot hide behind an empty result.
//! Answers are compared at 1e-9 relative — a fold may associate a float sum
//! differently, never change it — and the report exactly: a `charge_*` call
//! dropped, doubled or fed a different record count shows up here, named by
//! query, before it shows up as a moved cell of the figure golden. Every
//! scheme and state must also give one answer per query (1e-6): where the
//! records live never changes what a query returns.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use dynahash_cluster::{Cluster, QueryExecutor, RebalanceOptions};
use dynahash_core::{NodeId, Scheme};
use dynahash_tpch::{load_tpch, run_query, TpchScale, TpchTables, NUM_QUERIES};

const TINY: &str = include_str!("golden/answers_pinned.txt");
const NONZERO: &str = include_str!("golden/answers_pinned_nonzero.txt");

fn datasets(t: &TpchTables) -> [dynahash_cluster::DatasetId; 8] {
    [
        t.lineitem, t.orders, t.customer, t.part, t.supplier, t.partsupp, t.nation, t.region,
    ]
}

/// One line per query: `<scheme> <state> qNN <answer> <elapsed> <coordinator>
/// <node>:<ns>,…`.
fn run_suite(out: &mut String, scheme: &str, state: &str, cluster: &mut Cluster, t: &TpchTables) {
    for n in 1..=NUM_QUERIES {
        let mut exec = QueryExecutor::new(cluster);
        let answer = run_query(n, &mut exec, t).unwrap();
        let report = exec.finish();
        let nodes: Vec<String> = (report.per_node.iter())
            .map(|(node, busy)| format!("{}:{}", node.0, busy.as_nanos()))
            .collect();
        writeln!(
            out,
            "{scheme} {state} q{n:02} {answer:?} {} {} {}",
            report.elapsed.as_nanos(),
            report.coordinator.as_nanos(),
            nodes.join(",")
        )
        .unwrap();
    }
}

/// Every scheme, freshly loaded on two nodes and again after the cluster
/// grew to three nodes and shrank back (moved buckets, reference components,
/// lazily-invalidated index entries, a deferred secondary rebuild to warm).
fn render(scale: TpchScale) -> String {
    let mut out = String::new();
    for (name, scheme) in [
        ("hashing", Scheme::Hashing),
        ("statichash16", Scheme::StaticHash { num_buckets: 16 }),
        ("dynahash", Scheme::dynahash(32 * 1024, 8)),
    ] {
        let mut cluster = Cluster::new(2);
        let (tables, _, _) = load_tpch(&mut cluster, scheme, scale).unwrap();
        run_suite(&mut out, name, "fresh", &mut cluster, &tables);

        let added = cluster.add_node().unwrap();
        assert_eq!(added, NodeId(2));
        let three = cluster.topology().clone();
        let two = cluster.topology_without(added);
        for target in [&three, &two] {
            for ds in datasets(&tables) {
                cluster
                    .rebalance(ds, target, RebalanceOptions::none())
                    .unwrap();
            }
        }
        cluster.decommission_node(added).unwrap();
        run_suite(&mut out, name, "cycled", &mut cluster, &tables);
    }
    out
}

/// Compares a run at `scale` with its pinned one; on a mismatch, names the
/// lines and leaves the run in the target directory as `file`.
fn check(golden: &str, scale: TpchScale, file: &str) -> String {
    let now = render(scale);
    let mut wrong = Vec::new();
    // what the first scheme answered, per query: placement never changes it
    let mut first = BTreeMap::new();
    for (want, got) in golden.lines().zip(now.lines()) {
        let (w, g): (Vec<&str>, Vec<&str>) = (
            want.split_whitespace().collect(),
            got.split_whitespace().collect(),
        );
        let (a, b): (f64, f64) = (w[3].parse().unwrap(), g[3].parse().unwrap());
        let answer_holds = (a - b).abs() <= 1e-9 * a.abs().max(1.0);
        let everywhere: f64 = *first.entry(g[2]).or_insert(b);
        let scheme_independent = (everywhere - b).abs() <= 1e-6 * b.abs().max(1.0);
        if !(answer_holds && scheme_independent && w[..3] == g[..3] && w[4..] == g[4..]) {
            wrong.push(format!("pinned: {want}\n   now: {got}"));
        }
    }
    if wrong.is_empty() && golden.lines().count() == now.lines().count() {
        return now;
    }
    let path = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join(file);
    std::fs::write(&path, &now).unwrap();
    panic!(
        "{} of {} pinned lines differ (this run written to {}):\n{}",
        wrong.len(),
        golden.lines().count(),
        path.display(),
        wrong.join("\n")
    );
}

#[test]
fn answers_and_query_reports_match_the_pinned_run() {
    check(TINY, TpchScale::tiny(), "answers_pinned.txt");
}

#[test]
fn every_query_matches_a_pinned_answer_that_is_not_zero() {
    let scale = TpchScale {
        orders: 4_000,
        seed: 975,
    };
    let now = check(NONZERO, scale, "answers_pinned_nonzero.txt");
    for line in now.lines() {
        let answer: f64 = line.split_whitespace().nth(3).unwrap().parse().unwrap();
        assert!(answer != 0.0, "an empty answer pins nothing: {line}");
    }
}
