//! Regenerates Table 2 (structural statistics of the evaluation matrices)
//! and benchmarks the conversion service on representative rows, emitting
//! the machine-readable `BENCH_conversions.json` the perf-trajectory tooling
//! tracks.
//!
//! Usage: `table2 [--route=POLICY] [FORMAT ...]` — the optional positional
//! arguments are conversion *target* formats parsed by `Format::from_str`:
//! stock names (e.g. `CSR CSC BCSR4x4`), registered custom format names, or
//! full spec strings (`NAME:REMAP:DIMS:LEVELS`, e.g.
//! `DCSR:(i,j)->(i,j):i,j:compressed,compressed`) for user-defined formats.
//! The default is the paper's evaluated set (CSR, CSC, DIA, ELL) plus
//! BCSR4x4, whose shuffled-COO rows exercise the planner's multi-hop
//! `COO → CSR → BCSR` route. Each target is converted to from COO and CSR
//! sources through `conv_runtime::ConversionService` at one thread and at
//! `BENCH_THREADS` threads; every emitted row records the spec fingerprint
//! and the route the service took next to the format name.
//!
//! `--route=` overrides the routing policy
//! (`auto|legacy|direct|via-coo|multi-hop`, default `auto` = the planner's
//! cost model). Online calibration is disabled so routing is a
//! deterministic function of the static model and row sets stay comparable
//! across machines.
//!
//! Environment variables:
//!
//! * `TABLE_SCALE` — matrix scale relative to the paper's sizes (default 0.05),
//! * `TABLE_REPS` — repetitions per measurement, median reported (default 3),
//! * `BENCH_THREADS` — pool width of the parallel measurement (default: the
//!   machine's available parallelism),
//! * `BENCH_JSON` — output path (default `BENCH_conversions.json`).

use conv_bench::{env_f64, env_usize, render_bench_json, suite, BenchInputs, BenchRecord};
use conv_runtime::{ConversionService, ServiceConfig, WorkerPool};
use sparse_conv::convert::{evaluated_formats, AnyTensor, FormatId};
use sparse_conv::Format;
use sparse_tensor::MatrixStats;

/// The rows benchmarked by default: one banded stencil, one FEM-like blocked
/// matrix, one irregular matrix (same picks as the criterion benches).
const BENCH_MATRICES: [&str; 3] = ["jnlbrng1", "cant", "scircuit"];

fn target_formats_from_cli(args: Vec<String>) -> Vec<Format> {
    if args.is_empty() {
        let mut formats: Vec<Format> = evaluated_formats()
            .into_iter()
            .filter(|f| *f != FormatId::Coo)
            .map(Format::stock)
            .collect();
        // BCSR4x4 is the pair where the planner's multi-hop route pays off:
        // shuffled COO sources go COO -> CSR -> BCSR instead of direct.
        formats.push("BCSR4x4".parse().expect("stock BCSR4x4 parses"));
        formats
    } else {
        let mut formats = Vec::new();
        for arg in args {
            match arg.parse::<Format>() {
                Ok(f) if f.spec().is_none() => {
                    eprintln!("skipping {f}: it is supported only as a conversion source")
                }
                Ok(f) if f.order() != 2 => {
                    eprintln!("skipping {f}: table2 benchmarks order-2 (matrix) targets only")
                }
                Ok(f) => formats.push(f),
                Err(e) => {
                    eprintln!("error: {e}");
                    std::process::exit(2);
                }
            }
        }
        if formats.is_empty() {
            eprintln!("error: no benchmarkable target format in the requested set");
            std::process::exit(2);
        }
        formats
    }
}

fn admissible(target: &Format, stats: &MatrixStats) -> bool {
    match target.id() {
        Some(FormatId::Dia) => stats.dia_admissible(),
        Some(FormatId::Ell) => stats.ell_admissible(),
        _ => true,
    }
}

fn main() {
    let scale = env_f64("TABLE_SCALE", 0.05);
    let reps = env_usize("TABLE_REPS", 3);
    let threads = env_usize("BENCH_THREADS", WorkerPool::machine_sized().threads());
    let json_path =
        std::env::var("BENCH_JSON").unwrap_or_else(|_| "BENCH_conversions.json".to_string());
    let (routing, args) = conv_bench::routing_from_cli(std::env::args().skip(1));
    let targets = target_formats_from_cli(args);

    println!("Table 2 reproduction (synthetic stand-ins at scale {scale})");
    println!(
        "{:<18} {:>12} {:>10} {:>10} {:>9} | {:>12} {:>10} {:>10} {:>9}",
        "Matrix",
        "paper dims",
        "paper nnz",
        "paper diag",
        "paper mr",
        "gen dims",
        "gen nnz",
        "gen diag",
        "gen mr"
    );
    let mut measured = Vec::new();
    for spec in suite(None) {
        let matrix = spec.generate(scale);
        let stats = MatrixStats::compute(&matrix);
        println!(
            "{:<18} {:>12} {:>10} {:>10} {:>9} | {:>12} {:>10} {:>10} {:>9}",
            spec.name,
            format!("{}x{}", spec.dim, spec.dim),
            spec.nnz,
            spec.nonzero_diagonals,
            spec.max_nnz_per_row,
            format!("{}x{}", stats.rows, stats.cols),
            stats.nnz,
            stats.nonzero_diagonals,
            stats.max_nnz_per_row,
        );
        if BENCH_MATRICES.contains(&spec.name) {
            measured.push((BenchInputs::from_triples(spec, &matrix), stats));
        }
    }
    println!();
    println!("Columns: dims, number of nonzeros, number of nonzero diagonals, max nonzeros/row.");
    println!("Set TABLE_SCALE=1.0 for paper-sized matrices (slow for the largest rows).");

    // Conversion-service benchmark on the representative rows.
    // Always measure the 1- and 2-thread points plus the configured pool, so
    // rows stay comparable across documents generated under different
    // BENCH_THREADS settings.
    let mut thread_counts: Vec<usize> = vec![1, 2, threads];
    thread_counts.sort_unstable();
    thread_counts.dedup();
    thread_counts.retain(|&t| t <= threads.max(1));
    let target_names: Vec<String> = targets.iter().map(|t| t.to_string()).collect();
    println!();
    println!(
        "Conversion benchmark ({} reps, median; targets: {}; {} thread pool(s))",
        reps,
        target_names.join(", "),
        thread_counts.len()
    );
    let mut records: Vec<BenchRecord> = Vec::new();
    for (inputs, stats) in &measured {
        let sources = [
            AnyTensor::Coo(inputs.coo.clone()),
            AnyTensor::Csr(inputs.csr.clone()),
        ];
        for &threads in &thread_counts {
            // Calibration stays off so the route is a deterministic function
            // of the static cost model and rows compare across regenerations.
            let service = ConversionService::new(ServiceConfig {
                threads,
                parallel_nnz_threshold: 0,
                routing,
                online_calibration: false,
            });
            for src in &sources {
                for target in &targets {
                    if *target == src.format() || !admissible(target, stats) {
                        continue;
                    }
                    // Warm the plan cache so the measurement sees the steady
                    // state the service is designed for.
                    if service.convert(src, target).is_err() {
                        continue;
                    }
                    let route = service.last_report().map(|r| r.route).unwrap_or_default();
                    let median = conv_bench::median_time(reps, || {
                        service
                            .convert(src, target)
                            .expect("warmed conversion")
                            .nnz()
                    });
                    println!(
                        "  {:<10} {:>4} -> {:<8} {} thread(s): {:>12} ns  [{}]",
                        inputs.spec.name,
                        src.format(),
                        target.to_string(),
                        threads,
                        median.as_nanos(),
                        route,
                    );
                    records.push(
                        BenchRecord::for_pair(
                            inputs.spec.name,
                            &src.format(),
                            target,
                            src.nnz() as u64,
                            threads,
                            scale,
                            median.as_nanos(),
                        )
                        .with_route(&route),
                    );
                }
            }
        }
    }

    let json = render_bench_json(scale, reps, &records);
    match std::fs::write(&json_path, &json) {
        Ok(()) => println!("\nwrote {} entries to {json_path}", records.len()),
        Err(e) => eprintln!("\nfailed to write {json_path}: {e}"),
    }
}
