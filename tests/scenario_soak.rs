//! Integration tests of the scenario fleet: hand-written declarative
//! scripts and bounded seeded soak runs (the million-key profile runs as
//! `cargo run --release --bin soak -- --quick` in CI).
//!
//! A failing soak prints its seed and the executed-op trace; replay it by
//! rerunning `run_soak` with the same config (the script and every random
//! choice derive from the seed alone).

mod common;

use common::{check_seeded_cases, CASES};
use dynahash::bench::scenario::{
    generate_scenario, run_scenario, run_soak, ScenarioOp, SoakConfig, SOAK_DATASETS,
};

/// The seeded property: bounded smoke-profile soaks across [`CASES`] seeds
/// must complete with zero invariant violations.
#[test]
fn prop_smoke_soaks_hold_every_invariant() {
    check_seeded_cases(
        "smoke soak",
        0x50a6_1000,
        CASES / 3, // each case is a whole soak run; keep the suite fast
        |seed, _rng| SoakConfig::smoke(seed),
        |_seed, cfg| {
            let report = run_soak(cfg);
            assert!(report.passed(), "{}", report.failure_banner());
            let counters = report.counters();
            assert!(counters.records_ingested >= cfg.target_ingest);
            assert!(counters.churn_events >= cfg.churn_events);
            assert_eq!(counters.rebalances, counters.churn_events * SOAK_DATASETS);
        },
    );
}

/// A hand-written declarative script exercising every op kind, including
/// the explicit add/remove steps the generator does not emit.
#[test]
fn hand_written_scenario_script_runs_clean() {
    let mut cfg = SoakConfig::smoke(0x5c21_0001);
    cfg.steps = 0; // the script below replaces the generated one
    let script = [
        ScenarioOp::Ingest {
            dataset: 0,
            records: 4_000,
        },
        ScenarioOp::Ingest {
            dataset: 1,
            records: 3_000,
        },
        ScenarioOp::Queries {
            dataset: 0,
            ops: 200,
        },
        ScenarioOp::AddNode { max_moves: 4 },
        ScenarioOp::Queries {
            dataset: 1,
            ops: 100,
        },
        ScenarioOp::CrashRecover,
        ScenarioOp::WarmIndexes,
        ScenarioOp::ChurnStorm {
            rounds: 2,
            max_moves: 3,
            feed: 150,
        },
        ScenarioOp::RemoveNode { max_moves: 4 },
        ScenarioOp::Queries {
            dataset: 0,
            ops: 200,
        },
    ];
    let report = run_scenario(&cfg, &script);
    assert!(report.passed(), "{}", report.failure_banner());
    assert_eq!(report.steps_run, script.len());
    let counters = report.counters();
    // AddNode + 2 storm rounds + RemoveNode, each rebalancing every dataset
    assert_eq!(counters.churn_events, 4);
    assert_eq!(counters.rebalances, 4 * SOAK_DATASETS);
    assert!(counters.crashes >= 1, "CrashRecover must crash a node");
    assert!(counters.records_ingested >= 7_000);
}

/// Bound ops (AddNode at the ceiling, RemoveNode at the floor) skip instead
/// of failing, so hand-written scripts cannot wedge a cluster.
#[test]
fn explicit_churn_ops_respect_cluster_bounds() {
    let mut cfg = SoakConfig::smoke(0x5c21_0002);
    cfg.nodes = 2;
    cfg.max_nodes = 2; // AddNode is immediately at the ceiling
    cfg.steps = 0;
    let script = [
        ScenarioOp::Ingest {
            dataset: 0,
            records: 2_000,
        },
        ScenarioOp::Ingest {
            dataset: 1,
            records: 1_000,
        },
        ScenarioOp::AddNode { max_moves: 2 }, // skipped: at max_nodes
        ScenarioOp::RemoveNode { max_moves: 2 }, // skipped: at the floor
        ScenarioOp::Queries {
            dataset: 0,
            ops: 100,
        },
    ];
    let report = run_scenario(&cfg, &script);
    assert!(report.passed(), "{}", report.failure_banner());
    let counters = report.counters();
    assert_eq!(counters.churn_events, 0, "both bound ops must skip");
    assert_eq!(counters.final_nodes, 2);
}

/// The generator is a pure function of the config: same seed, same script;
/// different seeds, different scripts.
#[test]
fn generated_scripts_are_seed_deterministic() {
    let a = generate_scenario(&SoakConfig::smoke(1));
    let b = generate_scenario(&SoakConfig::smoke(1));
    let c = generate_scenario(&SoakConfig::smoke(2));
    assert_eq!(format!("{a:?}"), format!("{b:?}"));
    assert_ne!(format!("{a:?}"), format!("{c:?}"));
}
