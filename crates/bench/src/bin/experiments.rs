//! Regenerates every figure of the DynaHash paper and prints the results as
//! markdown tables.
//!
//! ```text
//! experiments                     # every figure, every gate, default scale
//! experiments --quick             # smaller scale, fewer cluster sizes
//! experiments --figure 7a         # run a single figure
//! experiments --json results.json # also emit machine-readable results
//! ```
//!
//! The figures and their gates are the `dynahash_bench::FIGURES` registry
//! (`--help` lists the names). Exit status: 0 when every gate passed, 1 on
//! any gate violation, 2 on a usage error — an unknown figure included, so a
//! misspelt CI step cannot pass by running nothing.

use dynahash_bench::{figure_names, json_document, run_figures, ExperimentConfig, FIGURES};

fn usage() -> String {
    format!(
        "usage: experiments [--quick] [--json <path>] [--figure <name>]\nfigures: {}",
        figure_names(FIGURES)
    )
}

fn main() {
    let (mut quick, mut figure, mut json) = (false, None, None);
    let mut iter = std::env::args().skip(1);
    while let Some(a) = iter.next() {
        match a.as_str() {
            "--quick" => quick = true,
            "--figure" | "--json" => {
                let Some(value) = iter.next() else {
                    eprintln!("{a} requires a value\n{}", usage());
                    std::process::exit(2);
                };
                if a == "--figure" {
                    figure = Some(value);
                } else {
                    json = Some(value);
                }
            }
            "--help" | "-h" => {
                eprintln!("{}", usage());
                return;
            }
            other => {
                eprintln!("unknown argument: {other}\n{}", usage());
                std::process::exit(2);
            }
        }
    }
    let cfg = if quick {
        ExperimentConfig::quick()
    } else {
        ExperimentConfig::default()
    };

    let (status, study) = run_figures(FIGURES, figure.as_deref(), &cfg);
    if status == 2 {
        std::process::exit(2);
    }
    if let Some(path) = &json {
        let doc = json_document(&cfg, quick, &study.tables);
        if let Err(e) = std::fs::write(path, doc.render() + "\n") {
            eprintln!("failed to write {path}: {e}");
            std::process::exit(1);
        }
        println!("machine-readable results written to {path}");
    }
    std::process::exit(status);
}
