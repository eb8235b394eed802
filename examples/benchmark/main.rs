//! dynabench: the wall-clock benchmark of the DynaHash reproduction.
//!
//! ```text
//! dynabench --workload <name|all> --seed <u64> --seconds <n> --trace <0|1>
//!           [--trace-out <path>] [--json <path>] [--smoke]
//!           [--check-determinism] [--repeat <n> [--check-noise]]
//! dynabench --describe
//! ```
//!
//! One process, one thread, one operation in flight. A run prints every
//! metric by name with its unit and ends with one JSON line; the exit code
//! is non-zero when an operation failed. See `README.md` next to this file.

mod metrics;
mod phases;
mod probe;
mod spec;
mod stats;
mod trace;
mod world;

use std::collections::BTreeMap;
use std::process::{Command, ExitCode};

use dynahash_bench::json::Json;

use crate::metrics::{layer_value, END_TO_END, PER_LAYER};
use crate::phases::{run_workload, Outcome};
use crate::spec::{workloads, Spec, REFERENCE_SECONDS};
use crate::stats::{median, quartiles};
use crate::trace::Tracer;

#[derive(Debug, Clone)]
struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    trace_out: Option<String>,
    json: Option<String>,
    smoke: bool,
    check_determinism: bool,
    repeat: usize,
    check_noise: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: REFERENCE_SECONDS,
        trace: false,
        trace_out: None,
        json: None,
        smoke: false,
        check_determinism: false,
        repeat: 0,
        check_noise: false,
    };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    let value = |i: &mut usize, flag: &str| -> Result<String, String> {
        *i += 1;
        argv.get(*i)
            .cloned()
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    while i < argv.len() {
        let flag = argv[i].as_str();
        match flag {
            "--workload" => args.workload = value(&mut i, flag)?,
            "--seed" => {
                args.seed = value(&mut i, flag)?
                    .parse()
                    .map_err(|_| "--seed takes a whole number".to_string())?
            }
            "--seconds" => {
                args.seconds = value(&mut i, flag)?
                    .parse()
                    .ok()
                    .filter(|s| (1..=600).contains(s))
                    .ok_or("--seconds takes a whole number from 1 to 600")?
            }
            // `--trace 1`, `--trace 0`, or a bare `--trace`.
            "--trace" => match argv.get(i + 1).map(String::as_str) {
                Some("0") => {
                    i += 1;
                    args.trace = false;
                }
                Some("1") => {
                    i += 1;
                    args.trace = true;
                }
                _ => args.trace = true,
            },
            "--trace-out" => args.trace_out = Some(value(&mut i, flag)?),
            "--json" => args.json = Some(value(&mut i, flag)?),
            "--smoke" => args.smoke = true,
            "--check-determinism" => args.check_determinism = true,
            "--repeat" => {
                args.repeat = value(&mut i, flag)?
                    .parse()
                    .ok()
                    .filter(|n| (2..=100).contains(n))
                    .ok_or("--repeat takes a whole number from 2 to 100")?
            }
            "--check-noise" => args.check_noise = true,
            other => return Err(format!("unknown argument {other}")),
        }
        i += 1;
    }
    if args.workload.is_empty() {
        if args.smoke {
            args.workload = "all".to_string();
        } else {
            return Err("--workload <name|all> is required".to_string());
        }
    }
    Ok(args)
}

/// The allocator settings every measurement is taken under: glibc keeps the
/// memory the program frees and serves large requests from the heap instead
/// of mapping and unmapping them. With the defaults, whether a scan's result
/// vector is mapped afresh (and page-faulted in, 4 KiB at a time) depends on
/// what was freed before it, which made the same query suite cost 0.61 s or
/// 0.77 s from one run to the next; see `README.md`, *Noise*.
const ALLOCATOR_ENV: [(&str, &str); 2] = [
    ("MALLOC_TRIM_THRESHOLD_", "4000000000"),
    ("MALLOC_MMAP_MAX_", "0"),
];

/// Runs this program again with [`ALLOCATOR_ENV`] set, which glibc only
/// reads at start-up, waits for it and returns its exit code.
fn rerun_with_allocator_env() -> ExitCode {
    let status = std::env::current_exe().and_then(|exe| {
        Command::new(exe)
            .args(std::env::args_os().skip(1))
            .envs(ALLOCATOR_ENV)
            .status()
    });
    match status {
        Ok(s) => ExitCode::from(s.code().map_or(1, |c| c as u8)),
        Err(e) => {
            eprintln!("dynabench: cannot start itself again: {e}");
            ExitCode::FAILURE
        }
    }
}

/// `--describe`: the contents of `BENCHMARK.json`, from the catalogue the
/// runs report against, so the two cannot drift apart.
fn describe() -> Json {
    let named = |name: &str, unit: &str, better: &str| {
        vec![
            ("name".to_string(), Json::str(name)),
            ("unit".to_string(), Json::str(unit)),
            ("better".to_string(), Json::str(better)),
        ]
    };
    Json::obj([
        (
            "command",
            Json::Arr(
                [
                    "cargo",
                    "run",
                    "--release",
                    "--offline",
                    "--quiet",
                    "--manifest-path",
                    "examples/benchmark/Cargo.toml",
                    "--",
                ]
                .map(Json::str)
                .to_vec(),
            ),
        ),
        ("paths", Json::Arr(vec![Json::str("examples/benchmark")])),
        ("run_seconds", Json::Int(REFERENCE_SECONDS)),
        (
            "workloads",
            Json::Arr(
                workloads(REFERENCE_SECONDS, false)
                    .iter()
                    .map(|w| Json::obj([("name", Json::str(w.name)), ("why", Json::str(w.why))]))
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Json::Arr(
                END_TO_END
                    .iter()
                    .map(|m| {
                        let mut fields = named(m.name, m.unit, m.better);
                        fields.push(("bound".to_string(), Json::Num(m.bound)));
                        Json::Obj(fields)
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Json::Arr(
                PER_LAYER
                    .iter()
                    .map(|m| Json::Obj(named(m.name, m.unit, m.better)))
                    .collect(),
            ),
        ),
    ])
}

/// What one run reports, traced or not.
struct Report {
    outcome: Outcome,
    /// `(name, unit, value)` of every metric of the run's kind.
    metrics: Vec<(&'static str, &'static str, f64)>,
}

impl Report {
    fn correct(&self) -> bool {
        self.outcome.tally.failed == 0 && self.outcome.fatal.is_none()
    }

    fn json(&self) -> Json {
        Json::obj([
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::Int(self.outcome.tally.attempted.max(1))),
            ("failed", Json::Int(self.outcome.tally.failed)),
            (
                "metrics",
                Json::Obj(
                    self.metrics
                        .iter()
                        .map(|(name, unit, value)| {
                            (
                                name.to_string(),
                                Json::obj([
                                    ("value", Json::Num(*value)),
                                    ("unit", Json::str(*unit)),
                                ]),
                            )
                        })
                        .collect(),
                ),
            ),
        ])
    }
}

/// One untraced run: the end-to-end metrics.
fn run_untraced(spec: &Spec, seed: u64) -> Report {
    let outcome = run_workload(spec, seed, &mut Tracer::new(false));
    let metrics = END_TO_END
        .iter()
        .map(|m| {
            (
                m.name,
                m.unit,
                outcome.end_to_end.get(m.name).copied().unwrap_or(0.0),
            )
        })
        .collect();
    Report { outcome, metrics }
}

/// One traced run: the per-layer metrics. The same workload runs untraced
/// first, so that the tracing overhead is a measured ratio of two runs.
fn run_traced(spec: &Spec, seed: u64, trace_out: Option<&str>) -> Report {
    let untraced_s = run_workload(spec, seed, &mut Tracer::new(false)).phases_s;
    let mut tracer = Tracer::new(true);
    let mut outcome = run_workload(spec, seed, &mut tracer);
    outcome
        .layer
        .insert("trace_overhead_ratio", outcome.phases_s / untraced_s);

    let table = tracer.layer_table();
    println!(
        "{:<34} {:>9} {:>12} {:>12} {:>12}",
        "span", "spans", "count", "total_ms", "self_ms"
    );
    let mut self_ns = 0.0;
    for (name, row) in &table {
        self_ns += row.self_ns;
        println!(
            "{name:<34} {:>9} {:>12} {:>12.3} {:>12.3}",
            row.spans,
            row.count,
            row.total_ns / 1e6,
            row.self_ns / 1e6
        );
    }
    println!(
        "self times sum to {:.3} s of {:.3} s traced ({:.1} %)",
        self_ns / 1e9,
        outcome.timed_s,
        100.0 * self_ns / 1e9 / outcome.timed_s
    );
    let mean_ms = |span: &str| {
        table
            .get(span)
            .map_or(0.0, |r| r.total_ns / r.spans.max(1) as f64 / 1e6)
    };
    println!(
        "write-blocked window {:.3} ms per job = prepare {:.3} + decide {:.3} + commit {:.3} ms",
        mean_ms("cluster.write_blocked"),
        mean_ms("cluster.job_prepare"),
        mean_ms("cluster.job_decide"),
        mean_ms("cluster.job_commit")
    );
    println!(
        "tracing overhead: {:.3} s traced over {untraced_s:.3} s untraced, {} spans",
        outcome.phases_s,
        tracer.spans().len()
    );
    if let Some(path) = trace_out {
        if let Err(e) = tracer.dump(path) {
            outcome.fatal.get_or_insert(format!("{path}: {e}"));
        }
    }
    let metrics = PER_LAYER
        .iter()
        .map(|m| (m.name, m.unit, layer_value(m, &table, &outcome.layer)))
        .collect();
    Report { outcome, metrics }
}

fn print_report(spec: &Spec, args: &Args, report: &Report) {
    println!(
        "== {} seed {} seconds {} {}",
        spec.name,
        args.seed,
        args.seconds,
        if args.trace { "traced" } else { "untraced" }
    );
    for (i, (name, unit, value)) in report.metrics.iter().enumerate() {
        // A traced run lists, next to each layer metric, the end-to-end
        // metric it is expected to move.
        let moves = if args.trace { PER_LAYER[i].moves } else { "" };
        println!("{name:<36} {value:>18.6} {unit:<6} {moves}");
    }
    for note in &report.outcome.notes {
        println!("# {note}");
    }
    println!(
        "ops_attempted {}  ops_failed {}  timed {:.2} s",
        report.outcome.tally.attempted, report.outcome.tally.failed, report.outcome.timed_s
    );
    if !report.outcome.tally.first_failures.is_empty() {
        println!("first failures: {:?}", report.outcome.tally.first_failures);
    }
    if let Some(e) = &report.outcome.fatal {
        println!("FATAL: {e}");
    }
}

/// Runs one workload in this process and prints its result line last.
fn run_one(spec: &Spec, args: &Args) -> bool {
    let report = if args.trace {
        run_traced(spec, args.seed, args.trace_out.as_deref())
    } else {
        run_untraced(spec, args.seed)
    };
    let mut ok = report.correct();
    print_report(spec, args, &report);
    if args.check_determinism && !args.trace {
        let again = run_untraced(spec, args.seed);
        for m in END_TO_END.iter().filter(|m| m.deterministic) {
            let (a, b) = (
                report.outcome.end_to_end.get(m.name),
                again.outcome.end_to_end.get(m.name),
            );
            let same = a == b;
            println!(
                "determinism {:<20} {:?} vs {:?} {}",
                m.name,
                a,
                b,
                if same { "same" } else { "DIFFERENT" }
            );
            ok &= same;
        }
    }
    let line = report.json().render();
    if let Some(path) = &args.json {
        if let Err(e) = std::fs::write(path, format!("{line}\n")) {
            println!("FATAL: {path}: {e}");
            ok = false;
        }
    }
    println!("{line}");
    ok
}

/// The number after `"<name>":{"value":` in a result line this program
/// printed (the only JSON it ever reads back).
fn metric_in(line: &str, name: &str) -> Option<f64> {
    let at = line.find(&format!("\"{name}\":{{\"value\":"))?;
    let rest = &line[at + name.len() + 12..];
    let end = rest.find([',', '}'])?;
    rest[..end].parse().ok()
}

/// `--repeat`: runs the workload in `n` fresh processes, seeds `seed..`, and
/// reports median, quartiles and spread of every end-to-end metric. With
/// `--check-noise` it fails when the two halves of the runs disagree by more
/// than half a metric's bound.
fn repeat(spec: &Spec, args: &Args) -> bool {
    let exe = match std::env::current_exe() {
        Ok(p) => p,
        Err(e) => {
            println!("FATAL: cannot find this executable: {e}");
            return false;
        }
    };
    let mut ok = true;
    let mut values: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    for i in 0..args.repeat {
        let seed = args.seed + i as u64;
        let mut cmd = Command::new(&exe);
        cmd.args(["--workload", spec.name, "--trace", "0"])
            .args(["--seed", &seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()]);
        if args.smoke {
            cmd.arg("--smoke");
        }
        // `output` waits for the child to end.
        let out = match cmd.output() {
            Ok(o) => o,
            Err(e) => {
                println!("FATAL: run {i}: {e}");
                return false;
            }
        };
        let stdout = String::from_utf8_lossy(&out.stdout);
        let line = stdout.lines().last().unwrap_or("");
        if !out.status.success() || !line.contains("\"correct\":true") {
            println!("run {i} (seed {seed}) failed: {line}");
            ok = false;
            continue;
        }
        for m in &END_TO_END {
            if let Some(v) = metric_in(line, m.name) {
                values.entry(m.name).or_default().push(v);
            }
        }
        println!("run {i} (seed {seed}) done");
    }
    println!(
        "== {} x{} seeds {}..{}",
        spec.name,
        args.repeat,
        args.seed,
        args.seed + args.repeat as u64 - 1
    );
    println!(
        "{:<26} {:>14} {:>14} {:>14} {:>8} {:>8} {:>9}",
        "metric", "q1", "median", "q3", "spread", "bound", "halves"
    );
    let mut medians = Vec::new();
    for m in &END_TO_END {
        let v = values.get(m.name).map(Vec::as_slice).unwrap_or(&[]);
        if v.len() < 2 {
            continue;
        }
        let [q1, q2, q3] = quartiles(v);
        let spread = if q2 == 0.0 { 0.0 } else { (q3 - q1) / q2 };
        let (first, second) = v.split_at(v.len() / 2);
        let (a, b) = (median(first), median(second));
        let halves = if a == 0.0 { 0.0 } else { (b - a).abs() / a };
        let noisy = halves > m.bound / 2.0;
        println!(
            "{:<26} {q1:>14.4} {q2:>14.4} {q3:>14.4} {:>7.2}% {:>7.1}% {:>8.2}%{}",
            m.name,
            100.0 * spread,
            100.0 * m.bound,
            100.0 * halves,
            if noisy { "  NOISY" } else { "" }
        );
        let runs: Vec<String> = v.iter().map(|x| format!("{x:.4}")).collect();
        println!("    runs: {}", runs.join(" "));
        if args.check_noise && noisy {
            ok = false;
        }
        medians.push((
            m.name.to_string(),
            Json::obj([
                ("median", Json::Num(q2)),
                ("q1", Json::Num(q1)),
                ("q3", Json::Num(q3)),
                ("unit", Json::str(m.unit)),
            ]),
        ));
    }
    if let Some(path) = &args.json {
        let doc = Json::obj([
            ("workload", Json::str(spec.name)),
            ("runs", Json::Int(args.repeat as u64)),
            ("first_seed", Json::Int(args.seed)),
            ("seconds", Json::Int(args.seconds)),
            ("end_to_end", Json::Obj(medians)),
        ]);
        if let Err(e) = std::fs::write(path, format!("{}\n", doc.render())) {
            println!("FATAL: {path}: {e}");
            ok = false;
        }
    }
    ok
}

fn main() -> ExitCode {
    if std::env::args().nth(1).as_deref() == Some("--describe") {
        println!("{}", describe().render());
        return ExitCode::SUCCESS;
    }
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("dynabench: {e}");
            return ExitCode::from(2);
        }
    };
    let specs: Vec<Spec> = workloads(args.seconds, args.smoke)
        .into_iter()
        .filter(|s| args.workload == "all" || s.name == args.workload)
        .collect();
    if specs.is_empty() {
        eprintln!("dynabench: unknown workload {}", args.workload);
        return ExitCode::from(2);
    }
    if ALLOCATOR_ENV
        .iter()
        .any(|(name, value)| std::env::var(name).as_deref() != Ok(*value))
    {
        return rerun_with_allocator_env();
    }
    let mut ok = true;
    for spec in &specs {
        println!("# {}: {}", spec.name, spec.why);
        ok &= if args.repeat > 0 {
            repeat(spec, &args)
        } else {
            run_one(spec, &args)
        };
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
