//! `bench_e2e`: the repo's benchmark. File-to-first-use and four more named
//! workloads, end-to-end metrics from an untraced run, per-layer metrics and
//! a harness-side trace from a traced one. See `README.md` beside this file.
//!
//! ```text
//! bench_e2e --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//! bench_e2e --all [--seed N] [--seconds S] [--traced] [--out FILE]
//! bench_e2e --compare A B
//! ```
//!
//! A run prints every metric by name and unit and, as its last line, one JSON
//! object `{"correct", "attempted", "failed", "metrics"}`.

mod compare;
mod harness;
mod host;
mod inputs;
mod json;
mod stats;
mod trace;
mod workloads;

use std::path::PathBuf;
use std::process::{Command, ExitCode};

use harness::{RunConfig, RunResult};

/// How long one run measures unless `--seconds` says otherwise; the
/// `run_seconds` of `BENCHMARK.json`.
const DEFAULT_SECONDS: f64 = 10.0;

struct Args {
    workload: Option<String>,
    all: bool,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: Option<PathBuf>,
    compare: Option<(PathBuf, PathBuf)>,
}

fn usage() -> String {
    let names: Vec<&str> = workloads::WORKLOADS.iter().map(|w| w.0).collect();
    format!(
        "usage: bench_e2e --workload NAME [--seed N] [--seconds S] [--trace 0|1]\n\
         \x20      bench_e2e --all [--seed N] [--seconds S] [--traced] [--out FILE]\n\
         \x20      bench_e2e --compare A B\n\
         workloads: {}",
        names.join(", ")
    )
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        all: false,
        seed: 1,
        seconds: DEFAULT_SECONDS,
        trace: false,
        out: None,
        compare: None,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value"))
                .cloned()
        };
        match flag.as_str() {
            "--workload" => args.workload = Some(value()?),
            "--all" => args.all = true,
            "--seed" => {
                args.seed = value()?
                    .parse()
                    .map_err(|_| "--seed needs a whole number")?
            }
            "--seconds" => {
                args.seconds = value()?
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s >= 0.0)
                    .ok_or("--seconds needs a number of seconds")?
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace needs 0 or 1".to_string()),
                }
            }
            "--traced" => args.trace = true,
            "--out" => args.out = Some(PathBuf::from(value()?)),
            "--compare" => args.compare = Some((PathBuf::from(value()?), PathBuf::from(value()?))),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let modes = args.workload.is_some() as u8 + args.all as u8 + args.compare.is_some() as u8;
    if modes != 1 {
        return Err("give exactly one of --workload, --all and --compare".to_string());
    }
    Ok(args)
}

/// Where the run may write: `bench_e2e/` under the build's target directory,
/// which is inside the checkout and ignored by git.
fn work_dir() -> PathBuf {
    let target =
        std::env::var_os("CARGO_TARGET_DIR").map_or_else(|| "target".into(), PathBuf::from);
    target.join("bench_e2e")
}

/// The result line: `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`.
fn result_json(r: &RunResult) -> String {
    let metrics: Vec<String> = r
        .metrics
        .iter()
        .map(|(def, value)| {
            let value = if value.is_finite() { *value } else { 0.0 };
            format!(
                "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                def.name, def.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        r.failed == 0,
        r.attempted,
        r.failed,
        metrics.join(", ")
    )
}

fn run_one(args: &Args, workload: &str) -> Result<(), String> {
    let dir = work_dir();
    std::fs::create_dir_all(&dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    let result = harness::run(&RunConfig {
        workload,
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        dir: &dir,
        smoke: false,
    })?;
    // One word for all inputs: equal across runs of one seed.
    let inputs = result
        .input_checksums
        .iter()
        .fold(0u64, |h, c| h.rotate_left(5) ^ c);
    println!(
        "bench_e2e {workload}: seed {} (inputs {inputs:016x}), T = {}, {} passes in {} s, {} calls, {} failed{}",
        args.seed,
        harness::pool_threads(),
        result.passes,
        args.seconds,
        result.attempted,
        result.failed,
        if result.rss_reset || args.trace {
            ""
        } else {
            " (peak_rss_mib covers the whole process: clear_refs refused the reset)"
        }
    );
    for (def, value) in &result.metrics {
        // A traced run lists only what this workload measured.
        if !args.trace || *value != 0.0 {
            println!("  {:<44} {value:>16.6} {}", def.name, def.unit);
        }
    }
    if args.trace {
        let path = dir.join(format!("{workload}.trace.json"));
        std::fs::write(&path, trace::render(workload, args.seed, &result.spans))
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        println!(
            "  trace: {} spans in {}",
            result.spans.len(),
            path.display()
        );
    }
    println!("  routes: {}", result.routes.join(" | "));
    println!("{}", result_json(&result));
    Ok(())
}

/// `--all`: one child process per workload, one after another; with `--out`,
/// one record per workload is appended to the result file `--compare` reads.
fn run_all(args: &Args) -> Result<(), String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find this binary: {e}"))?;
    let host = host::record_json(harness::pool_threads());
    let mut records = String::new();
    for (workload, _) in workloads::WORKLOADS {
        let output = Command::new(&exe)
            .args(["--workload", workload])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .output()
            .map_err(|e| format!("cannot run {workload}: {e}"))?;
        let stdout = String::from_utf8_lossy(&output.stdout);
        print!("{stdout}");
        eprint!("{}", String::from_utf8_lossy(&output.stderr));
        if !output.status.success() {
            return Err(format!("{workload} exited with {}", output.status));
        }
        let result = stdout.lines().last().unwrap_or("null");
        records.push_str(&format!(
            "{{\"workload\": \"{workload}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"host\": {host}, \"result\": {result}}}\n",
            args.seed, args.seconds, args.trace
        ));
    }
    if let Some(path) = &args.out {
        use std::io::Write;
        let mut file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .map_err(|e| format!("cannot open {}: {e}", path.display()))?;
        file.write_all(records.as_bytes())
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    }
    Ok(())
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("bench_e2e: {e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    let outcome = if let Some((a, b)) = &args.compare {
        compare::run(a, b)
    } else if args.all {
        run_all(&args).map(|()| true)
    } else {
        let workload = args
            .workload
            .as_deref()
            .expect("parse_args checked the mode");
        run_one(&args, workload).map(|()| true)
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("bench_e2e: {e}");
            ExitCode::FAILURE
        }
    }
}
