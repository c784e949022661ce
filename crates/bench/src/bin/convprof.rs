//! `convprof` — per-phase conversion profiler over the observability layer.
//!
//! Runs one format pair through [`ConversionService::convert_traced`] on a
//! synthetic workload and prints a flame-style per-phase breakdown (the span
//! tree recorded by `conv-obs`, one row per phase, bar width proportional to
//! its share of the total) followed by the machine-readable JSON
//! `ConversionReport`.
//!
//! Usage: `convprof [OPTIONS] SOURCE TARGET`
//!
//! `SOURCE`/`TARGET` are parsed by `Format::from_str`: stock names (`COO`,
//! `CSR`, `COO3`, `CSF`, ...), mode-ordered names (`CSF@2,0,1`), or full
//! spec strings. Order-3 pairs profile over a uniform-random tensor,
//! order-2 pairs over an irregular (circuit-like) matrix.
//!
//! Options:
//!
//! * `--smoke` — tiny workload for CI (equivalent to `PROF_SCALE=0.05`),
//! * `--validate` — check the emitted JSON against the documented report
//!   schema (required keys, non-negative durations, phase sum ≤ total) and
//!   exit nonzero on violation,
//! * `--json-out PATH` — additionally write the JSON report to `PATH`,
//! * `--route POLICY` — routing policy (`auto|direct|multi-hop`, default
//!   `auto`); the planned path is printed in the report header.
//!
//! Environment variables: `PROF_SCALE` (workload size relative to the
//! default, default 1.0), `PROF_THREADS` (service pool width, default: the
//! machine), `PROF_SEED` (workload seed, default 42). A malformed value, or a
//! zero scale or thread count, is an error (exit status 2).

use conv_bench::{env_f64, env_usize};
use conv_runtime::{ConversionService, RoutingPolicy, ServiceConfig, WorkerPool};
use conv_workloads::{irregular, tensor3_uniform};
use obs::{validate_json, ConversionReport, PhaseReport};
use sparse_conv::convert::AnyTensor;
use sparse_conv::Format;
use sparse_formats::{CooMatrix, CooTensor};
use sparse_tensor::SparseTriples;

struct Options {
    smoke: bool,
    validate: bool,
    json_out: Option<String>,
    routing: RoutingPolicy,
    source: Format,
    target: Format,
}

fn usage() -> ! {
    eprintln!(
        "usage: convprof [--smoke] [--validate] [--json-out PATH] [--route POLICY] SOURCE TARGET"
    );
    std::process::exit(2);
}

fn parse_args() -> Options {
    let mut smoke = false;
    let mut validate = false;
    let mut json_out = None;
    let mut formats: Vec<Format> = Vec::new();
    let (routing, args) = conv_bench::routing_from_cli(std::env::args().skip(1));
    let mut args = args.into_iter();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--smoke" => smoke = true,
            "--validate" => validate = true,
            "--json-out" => match args.next() {
                Some(path) => json_out = Some(path),
                None => usage(),
            },
            "--help" | "-h" => usage(),
            name => match name.parse::<Format>() {
                Ok(f) => formats.push(f),
                Err(e) => {
                    eprintln!("error: cannot parse format {name:?}: {e}");
                    std::process::exit(2);
                }
            },
        }
    }
    if formats.len() != 2 {
        usage();
    }
    let target = formats.pop().expect("two formats");
    let source = formats.pop().expect("two formats");
    Options {
        smoke,
        validate,
        json_out,
        routing,
        source,
        target,
    }
}

/// Synthesises the workload for the pair: an order-3 uniform tensor when
/// either side is order 3, otherwise an irregular order-2 matrix.
fn workload(order: usize, scale: f64, seed: u64) -> SparseTriples {
    let s = |n: usize| ((n as f64 * scale).round() as usize).max(4);
    if order == 3 {
        let dims = [s(256), s(256), s(256)];
        let cells: usize = dims.iter().product();
        let nnz = ((300_000_f64 * scale * scale).round().max(64.0) as usize).min(cells);
        tensor3_uniform(dims, nnz, seed).expect("uniform tensor parameters are valid")
    } else {
        let (rows, cols) = (s(2048), s(2048));
        let nnz = ((600_000_f64 * scale * scale).round().max(64.0) as usize).min(rows * cols / 2);
        let max_row = cols.min((2 * nnz / rows).max(4));
        irregular(rows, cols, nnz, max_row, seed).expect("irregular matrix parameters are valid")
    }
}

/// Prints one phase row (indented by depth) and recurses into its children.
fn print_phase(phase: &PhaseReport, total_ns: u64, depth: usize) {
    const BAR_WIDTH: usize = 32;
    let share = if total_ns == 0 {
        0.0
    } else {
        phase.duration_ns as f64 / total_ns as f64
    };
    let filled = ((share * BAR_WIDTH as f64).round() as usize).min(BAR_WIDTH);
    let label = format!("{:indent$}{}", "", phase.name, indent = 2 * depth);
    println!(
        "  {label:<28} {:>10.1} µs {:>5.1}%  |{:<BAR_WIDTH$}|  spans {:>3}  items {:>9}  bytes {:>11}",
        phase.duration_ns as f64 / 1e3,
        share * 100.0,
        "#".repeat(filled),
        phase.spans,
        phase.count,
        phase.bytes,
    );
    for child in &phase.children {
        print_phase(child, total_ns, depth + 1);
    }
}

fn print_report(report: &ConversionReport) {
    let path = if report.path.is_empty() {
        format!("{} -> {}", report.source, report.target)
    } else {
        report.path.join(" -> ")
    };
    println!(
        "\n{} -> {}  [route {} ({path}), plan cache {}, {} thread(s), {}]",
        report.source,
        report.target,
        report.route,
        if report.plan_cache_hit { "hit" } else { "miss" },
        report.threads,
        if report.parallel_kernel {
            "parallel kernel"
        } else {
            "sequential engine"
        },
    );
    println!(
        "  total {:.1} µs, phases cover {:.1} µs, {} bytes moved",
        report.total_ns as f64 / 1e3,
        report.phase_sum_ns() as f64 / 1e3,
        report.bytes_moved,
    );
    for phase in &report.phases {
        print_phase(phase, report.total_ns, 0);
    }
}

fn main() {
    let opts = parse_args();
    let scale = if opts.smoke {
        0.05
    } else {
        env_f64("PROF_SCALE", 1.0, f64::INFINITY)
    };
    let threads = env_usize("PROF_THREADS", WorkerPool::machine_sized().threads(), 1);
    let seed = env_usize("PROF_SEED", 42, 0) as u64;

    let order = opts.source.order().max(opts.target.order());
    let triples = workload(order, scale, seed);
    println!(
        "convprof: {} -> {} over {} ({} nnz, scale {scale}, {threads} thread(s))",
        opts.source,
        opts.target,
        triples.shape(),
        triples.nnz(),
    );

    let base = if order == 3 {
        AnyTensor::Coo3(CooTensor::from_triples(&triples))
    } else {
        AnyTensor::Coo(CooMatrix::from_triples(&triples))
    };
    // Materialise the source instance with the sequential engine, so the
    // profiled conversion starts from the requested format.
    let src = if base.format() == opts.source {
        base
    } else {
        match sparse_conv::convert(&base, &opts.source) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("error: cannot build a {} source: {e}", opts.source);
                std::process::exit(1);
            }
        }
    };

    let service = ConversionService::new(ServiceConfig {
        routing: opts.routing,
        ..ServiceConfig::with_threads(threads)
    });
    // Warm-up pass: plans the pair (so the profiled run reports a cache hit)
    // and pages the input in. The profiled run is the second conversion.
    if let Err(e) = service.convert(&src, opts.target.clone()) {
        eprintln!("error: conversion failed: {e}");
        std::process::exit(1);
    }
    let report = match service.convert_traced(&src, opts.target.clone()) {
        Ok((_, report)) => report,
        Err(e) => {
            eprintln!("error: conversion failed: {e}");
            std::process::exit(1);
        }
    };

    print_report(&report);
    let json = report.to_json();
    println!("\n{json}");

    if let Some(path) = &opts.json_out {
        if let Err(e) = std::fs::write(path, format!("{json}\n")) {
            eprintln!("error: cannot write {path}: {e}");
            std::process::exit(1);
        }
        println!("wrote {path}");
    }
    if opts.validate {
        if let Err(e) = report.validate().and_then(|()| validate_json(&json)) {
            eprintln!("schema validation FAILED: {e}");
            std::process::exit(1);
        }
        println!("schema validation passed");
    }
}
