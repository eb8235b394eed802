//! The `dhlint` command-line entry point.
//!
//! ```text
//! dhlint --check <root> [--json <path>] [--quiet]
//! ```
//!
//! Exits 0 when the tree is finding-free (its waivers match
//! `LINT_BUDGET.toml`), 1 when any finding remains, and 2 on usage or I/O
//! errors.

use std::path::PathBuf;
use std::process::ExitCode;

use dynahash_lint::check_root;

struct Args {
    root: PathBuf,
    json: Option<PathBuf>,
    quiet: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut root = None;
    let mut json = None;
    let mut quiet = false;
    let mut argv = std::env::args().skip(1);
    while let Some(arg) = argv.next() {
        match arg.as_str() {
            "--check" => {
                let path = argv.next().ok_or("--check needs a path")?;
                root = Some(PathBuf::from(path));
            }
            "--json" => {
                let path = argv.next().ok_or("--json needs a path")?;
                json = Some(PathBuf::from(path));
            }
            "--quiet" | "-q" => quiet = true,
            "--help" | "-h" => {
                return Err("usage: dhlint --check <root> [--json <path>] [--quiet]".to_string())
            }
            other if !other.starts_with('-') && root.is_none() => {
                root = Some(PathBuf::from(other));
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(Args {
        root: root.unwrap_or_else(|| PathBuf::from(".")),
        json,
        quiet,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::from(2);
        }
    };
    let report = match check_root(&args.root) {
        Ok(report) => report,
        Err(err) => {
            eprintln!("dhlint: failed to scan {}: {err}", args.root.display());
            return ExitCode::from(2);
        }
    };
    if let Some(path) = &args.json {
        if let Err(err) = std::fs::write(path, report.render_json()) {
            eprintln!("dhlint: failed to write {}: {err}", path.display());
            return ExitCode::from(2);
        }
    }
    if !args.quiet {
        print!("{}", report.render_text());
    }
    if report.is_clean() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
