//! Seeded soak driver: a long-running scenario fleet interleaving every
//! cluster operation — Zipfian ingest, point/range/index queries, churn
//! storms with concurrent per-dataset rebalances, crash/recovery — with
//! invariants checked continuously between steps.
//!
//! Usage:
//!
//! ```text
//! soak --quick                 # the CI profile: >= 1M records, 12 nodes,
//!                              # Zipfian s = 1.1, >= 3 churn events
//! soak --full                  # the nightly profile: 16 nodes, 4M records
//! soak --chaos                 # layer the seeded fault plane on top:
//!                              # transient ship failures absorbed by retry,
//!                              # slow nodes absorbed by straggler
//!                              # speculation, plus a permanent node loss per
//!                              # grow event — alternating the fresh node
//!                              # (re-planned, zero data loss) with an
//!                              # established one whose lost buckets serve
//!                              # typed degraded errors until repair
//! soak --seed 0xdead           # replay a failing run exactly
//! soak --json soak.json        # machine-readable report
//! ```
//!
//! Exits 0 on a clean run. On any invariant violation it prints the seed
//! and the executed-op trace (replay by rerunning with `--seed`) and
//! exits 1.

use dynahash_bench::json::Json;
use dynahash_bench::scenario::{run_soak, SoakConfig, SoakReport};

struct Args {
    quick: bool,
    full: bool,
    chaos: bool,
    seed: u64,
    json: Option<String>,
}

fn parse_args() -> Args {
    let mut args = Args {
        quick: false,
        full: false,
        chaos: false,
        seed: 0x50a6_2026,
        json: None,
    };
    let mut iter = std::env::args().skip(1);
    while let Some(a) = iter.next() {
        match a.as_str() {
            "--quick" => args.quick = true,
            "--full" => args.full = true,
            "--chaos" => args.chaos = true,
            "--seed" => {
                let raw = iter.next().unwrap_or_default();
                let parsed = if let Some(hex) = raw.strip_prefix("0x") {
                    u64::from_str_radix(hex, 16)
                } else {
                    raw.parse()
                };
                match parsed {
                    Ok(s) => args.seed = s,
                    Err(_) => {
                        eprintln!("--seed requires a u64 (decimal or 0x-hex)");
                        std::process::exit(2);
                    }
                }
            }
            "--json" => {
                args.json = iter.next();
                if args.json.is_none() {
                    eprintln!("--json requires a path");
                    std::process::exit(2);
                }
            }
            "--help" | "-h" => {
                eprintln!(
                    "usage: soak [--quick | --full] [--chaos] [--seed <u64>] [--json <path>]"
                );
                std::process::exit(0);
            }
            other => {
                eprintln!("unknown argument: {other}");
                std::process::exit(2);
            }
        }
    }
    args
}

fn report_json(cfg: &SoakConfig, report: &SoakReport) -> Json {
    Json::obj([
        (
            "config",
            Json::obj([
                ("seed", Json::str(format!("{:#x}", cfg.seed))),
                ("nodes", Json::Int(cfg.nodes as u64)),
                ("datasets", Json::Int(cfg.datasets as u64)),
                ("key_universe", Json::Int(cfg.key_universe)),
                ("target_ingest", Json::Int(cfg.target_ingest)),
                ("zipf_s", Json::Num(cfg.zipf_s)),
                ("steps", Json::Int(cfg.steps as u64)),
                ("churn_events", Json::Int(cfg.churn_events as u64)),
            ]),
        ),
        ("passed", Json::Bool(report.passed())),
        ("steps_run", Json::Int(report.steps_run as u64)),
        ("records_ingested", Json::Int(report.records_ingested)),
        ("live_records", Json::Int(report.live_records)),
        ("queries_run", Json::Int(report.queries_run)),
        ("deletes", Json::Int(report.deletes)),
        ("churn_events", Json::Int(report.churn_events as u64)),
        ("rebalances", Json::Int(report.rebalances as u64)),
        ("crashes", Json::Int(report.crashes as u64)),
        ("chaos", Json::Bool(cfg.chaos)),
        ("transient_faults", Json::Int(report.transient_faults)),
        ("fault_retries", Json::Int(report.fault_retries)),
        ("reroutes", Json::Int(report.reroutes)),
        ("reshipped", Json::Int(report.reshipped)),
        ("lost_nodes", Json::Int(report.lost_nodes as u64)),
        (
            "established_losses",
            Json::Int(report.established_losses as u64),
        ),
        ("speculated", Json::Int(report.speculated)),
        ("speculation_wins", Json::Int(report.speculation_wins)),
        ("repairs", Json::Int(report.repairs)),
        ("repaired_buckets", Json::Int(report.repaired_buckets)),
        ("degraded_reads", Json::Int(report.degraded_reads)),
        ("degraded_writes", Json::Int(report.degraded_writes)),
        (
            "degraded",
            Json::Arr(report.degraded.iter().map(Json::str).collect()),
        ),
        ("redirects", Json::Int(report.redirects)),
        ("final_nodes", Json::Int(report.final_nodes as u64)),
        ("control", Json::Bool(cfg.control)),
        ("auto_triggers", Json::Int(report.auto_triggers)),
        ("auto_commits", Json::Int(report.auto_commits)),
        ("hot_splits", Json::Int(report.hot_splits)),
        ("suppressed", Json::Int(report.suppressed)),
        (
            "violations",
            Json::Arr(report.violations.iter().map(Json::str).collect()),
        ),
    ])
}

fn main() {
    let args = parse_args();
    if args.quick && args.full {
        eprintln!("--quick and --full are mutually exclusive");
        std::process::exit(2);
    }
    let mut cfg = if args.full {
        SoakConfig::full(args.seed)
    } else {
        // --quick is also the default profile
        SoakConfig::quick(args.seed)
    };
    cfg.chaos = args.chaos;

    println!(
        "soak: seed {:#x}, {} nodes, {} datasets, {} target records, \
         Zipfian s={}, {} steps, {} churn events",
        cfg.seed,
        cfg.nodes,
        cfg.datasets,
        cfg.target_ingest,
        cfg.zipf_s,
        cfg.steps,
        cfg.churn_events
    );
    let report = run_soak(&cfg);
    println!(
        "ran {} steps: {} records ingested ({} live), {} queries, {} deletes, \
         {} churn events, {} rebalances, {} crashes, {} session redirects, \
         {} nodes at the end",
        report.steps_run,
        report.records_ingested,
        report.live_records,
        report.queries_run,
        report.deletes,
        report.churn_events,
        report.rebalances,
        report.crashes,
        report.redirects,
        report.final_nodes
    );
    if cfg.chaos {
        println!(
            "fault plane: {} transients injected ({} retries absorbed them), \
             {} nodes lost, {} moves rerouted/canceled, {} buckets re-shipped",
            report.transient_faults,
            report.fault_retries,
            report.lost_nodes,
            report.reroutes,
            report.reshipped
        );
        println!(
            "recovery plane: {} established-node losses, {} legs speculated \
             ({} backups won), {} repairs restored {} buckets, {} degraded \
             reads and {} degraded writes served typed errors",
            report.established_losses,
            report.speculated,
            report.speculation_wins,
            report.repairs,
            report.repaired_buckets,
            report.degraded_reads,
            report.degraded_writes
        );
    }
    if cfg.control {
        println!(
            "control plane: {} auto-triggers ({} committed), {} hot-bucket \
             splits, {} decisions suppressed by hysteresis/cooldown",
            report.auto_triggers, report.auto_commits, report.hot_splits, report.suppressed
        );
    }

    if let Some(path) = &args.json {
        let doc = report_json(&cfg, &report);
        if let Err(e) = std::fs::write(path, doc.render() + "\n") {
            eprintln!("failed to write {path}: {e}");
            std::process::exit(1);
        }
        println!("machine-readable report written to {path}");
    }

    if !report.passed() {
        eprintln!("{}", report.failure_banner());
        std::process::exit(1);
    }
    if cfg.chaos {
        // The chaos gates: faults must actually have been injected, every
        // transient absorbed by a retry (never an abort — an abort would
        // have failed the run above), and every loss re-planned.
        if report.transient_faults == 0 || report.lost_nodes == 0 {
            eprintln!(
                "chaos soak injected nothing (transients {}, losses {}) — \
                 the profile is too small to exercise the fault plane",
                report.transient_faults, report.lost_nodes
            );
            std::process::exit(1);
        }
        if report.transient_faults != report.fault_retries {
            eprintln!(
                "chaos soak: {} transients but {} retries — a transient \
                 escaped the retry budget",
                report.transient_faults, report.fault_retries
            );
            std::process::exit(1);
        }
        if report.reroutes == 0 {
            eprintln!("chaos soak: a node was lost but nothing was re-planned");
            std::process::exit(1);
        }
        // The recovery gates: chaos alternates its losses, so any profile
        // with at least two grow events must have killed an established
        // node, degraded its resident buckets, and repaired every one of
        // them before the final invariant battery.
        if report.established_losses == 0 || report.repaired_buckets == 0 {
            eprintln!(
                "chaos soak never exercised the repair plane (established \
                 losses {}, repaired buckets {})",
                report.established_losses, report.repaired_buckets
            );
            std::process::exit(1);
        }
        if !report.degraded.is_empty() {
            eprintln!(
                "chaos soak ended with degraded datasets: {:?}",
                report.degraded
            );
            std::process::exit(1);
        }
    }
    if cfg.control {
        // The control gate: the spliced query hotspots must have pushed the
        // armed plane through at least one full decision cycle.
        if report.auto_triggers == 0 || report.auto_commits == 0 {
            eprintln!(
                "control soak: the hotspot never drove the plane through a \
                 decision cycle (triggers {}, commits {})",
                report.auto_triggers, report.auto_commits
            );
            std::process::exit(1);
        }
    }
    println!("soak passed: zero invariant violations");
}
