//! Seeded soak driver: a long-running scenario fleet interleaving every
//! cluster operation — Zipfian ingest, point/range/index queries, churn
//! storms with concurrent per-dataset rebalances, crash/recovery — with
//! invariants checked continuously between steps.
//!
//! Usage:
//!
//! ```text
//! soak --quick                 # the one profile (also the default):
//!                              # >= 1M records, 12 nodes, Zipfian
//!                              # s = 1.1, >= 3 churn events
//! soak --chaos                 # layer the seeded fault plane on top:
//!                              # transient ship failures absorbed by retry,
//!                              # plus a permanent node loss per grow
//!                              # event — alternating the fresh node
//!                              # (re-planned, zero data loss) with an
//!                              # established one whose lost buckets serve
//!                              # typed degraded errors until repair
//! soak --seed 0xdead           # replay a failing run exactly
//! soak --json soak.json        # machine-readable report
//! ```
//!
//! Prints the run's counters as one markdown row (`SoakReport::table`) and
//! exits 0 on a clean run. On an invariant violation, or a failed chaos or
//! control gate (`SoakReport::gates`), it prints the seed and the
//! executed-op trace (replay by rerunning with `--seed`) and exits 1; a
//! usage error exits 2.

use dynahash_bench::scenario::{run_soak, SoakConfig};

const USAGE: &str = "usage: soak [--quick] [--chaos] [--seed <u64>] [--json <path>]";

/// Reports a usage error and exits 2.
fn usage_error(msg: &str) -> ! {
    eprintln!("{msg}\n{USAGE}");
    std::process::exit(2)
}

/// The configuration the flags select, and where the JSON report goes.
fn parse_args() -> (SoakConfig, Option<String>) {
    let mut chaos = false;
    let (mut seed, mut json) = (0x50a6_2026, None);
    let mut iter = std::env::args().skip(1);
    while let Some(a) = iter.next() {
        match a.as_str() {
            "--quick" => {}
            "--chaos" => chaos = true,
            "--seed" => {
                let raw = iter.next().unwrap_or_default();
                let parsed = match raw.strip_prefix("0x") {
                    Some(hex) => u64::from_str_radix(hex, 16),
                    None => raw.parse(),
                };
                let msg = "--seed requires a u64 (decimal or 0x-hex)";
                seed = parsed.unwrap_or_else(|_| usage_error(msg));
            }
            "--json" => {
                json = iter
                    .next()
                    .or_else(|| usage_error("--json requires a path"))
            }
            "--help" | "-h" => {
                eprintln!("{USAGE}");
                std::process::exit(0);
            }
            other => usage_error(&format!("unknown argument: {other}")),
        }
    }
    let cfg = SoakConfig {
        chaos,
        ..SoakConfig::quick(seed)
    };
    (cfg, json)
}

fn main() {
    let (cfg, json) = parse_args();
    println!("soak: seed {:#x}, {cfg:?}\n", cfg.seed);
    let report = run_soak(&cfg);
    let counters = report.table().markdown();
    println!("ran {} steps\n\n{counters}", report.steps_run);

    if let Some(path) = &json {
        if let Err(e) = std::fs::write(path, report.json().render() + "\n") {
            eprintln!("failed to write {path}: {e}");
            std::process::exit(1);
        }
        println!("machine-readable report written to {path}");
    }

    if !report.passed() {
        eprintln!("{}", report.failure_banner());
        std::process::exit(1);
    }
    if let Err(gate) = report.gates() {
        eprintln!("{}gate failed: {gate}", report.failure_banner());
        std::process::exit(1);
    }
    println!("soak passed: zero invariant violations");
}
