//! Benchmarks the order-3 tensor conversions (the paper's Table 4-style
//! COO→CSF sorting/packing evaluation) through the conversion service, and
//! appends machine-readable rows to the `BENCH_conversions.json` document
//! that `table2` starts (falling back to a fresh document when none
//! exists).
//!
//! Usage: `table4 [--route=POLICY] [FORMAT ...]` — the optional positional
//! arguments are conversion *target* formats parsed by `Format::from_str`:
//! the stock tensor formats (`COO3`, `CSF`), a registered custom format
//! name, or a full spec string (`NAME:REMAP:DIMS:LEVELS`) describing an
//! order-3 format. The default benchmarks both stock directions: COO3→CSF
//! and CSF→COO3, each from synthetic order-3 tensors at one thread and at
//! `BENCH_THREADS` threads; every emitted row records the spec fingerprint
//! and the route taken next to the format name. `--route=` overrides the
//! routing policy (`auto|legacy|direct|via-coo|multi-hop`); online
//! calibration is off so routing stays deterministic.
//!
//! Environment variables:
//!
//! * `TENSOR_SCALE` — tensor size relative to the default (default 1.0; CI
//!   smoke mode uses a small fraction),
//! * `TABLE_REPS` — repetitions per measurement, median reported (default 3),
//! * `BENCH_THREADS` — pool width of the parallel measurement (default: the
//!   machine's available parallelism),
//! * `BENCH_JSON` — output path (default `BENCH_conversions.json`).

use conv_bench::{env_f64, env_usize, merge_bench_json, render_bench_json, BenchRecord};
use conv_runtime::{ConversionService, ServiceConfig, WorkerPool};
use conv_workloads::{tensor3_fibered, tensor3_uniform};
use sparse_conv::convert::{AnyTensor, FormatId};
use sparse_conv::Format;
use sparse_formats::CooTensor;
use sparse_tensor::SparseTriples;

/// Synthesises the benchmark tensors at the given scale: one uniform-random
/// tensor (unstructured, fiber-heavy) and one mode-1-fibered tensor (skewed,
/// factorisation-style).
fn tensors(scale: f64) -> Vec<(&'static str, SparseTriples)> {
    let s = |n: usize| ((n as f64 * scale).round() as usize).max(2);
    let uniform_dims = [s(256), s(256), s(256)];
    // Clamp to the cell count so extreme smoke-mode scales stay valid.
    let uniform_nnz = ((200_000_f64 * scale * scale).round().max(16.0) as usize)
        .min(uniform_dims.iter().product());
    vec![
        (
            "uniform3d",
            tensor3_uniform(uniform_dims, uniform_nnz, 42)
                .expect("uniform tensor parameters are valid"),
        ),
        (
            "fibered3d",
            tensor3_fibered(
                [s(512), s(256), s(128)],
                s(16).min(s(256)),
                s(24).min(s(128)),
                7,
            )
            .expect("fibered tensor parameters are valid"),
        ),
    ]
}

fn target_formats_from_cli(args: Vec<String>) -> Vec<Format> {
    if args.is_empty() {
        return vec![Format::csf(), Format::coo3()];
    }
    let mut formats = Vec::new();
    for arg in args {
        match arg.parse::<Format>() {
            Ok(f) if f.spec().is_some() && f.order() == 3 => formats.push(f),
            Ok(f) => eprintln!("skipping {f}: table4 benchmarks order-3 tensor targets only"),
            Err(e) => {
                eprintln!("error: {e}");
                std::process::exit(2);
            }
        }
    }
    if formats.is_empty() {
        eprintln!("error: no benchmarkable tensor target in the requested set");
        std::process::exit(2);
    }
    formats
}

fn main() {
    let scale = env_f64("TENSOR_SCALE", 1.0);
    let reps = env_usize("TABLE_REPS", 3);
    let threads = env_usize("BENCH_THREADS", WorkerPool::machine_sized().threads());
    let json_path =
        std::env::var("BENCH_JSON").unwrap_or_else(|_| "BENCH_conversions.json".to_string());
    let (routing, args) = conv_bench::routing_from_cli(std::env::args().skip(1));
    let targets = target_formats_from_cli(args);

    // Always measure the 1- and 2-thread points plus the configured pool, so
    // rows stay comparable across documents generated under different
    // BENCH_THREADS settings.
    let mut thread_counts: Vec<usize> = vec![1, 2, threads];
    thread_counts.sort_unstable();
    thread_counts.dedup();
    thread_counts.retain(|&t| t <= threads.max(1));
    let target_names: Vec<String> = targets.iter().map(|t| t.to_string()).collect();
    println!(
        "Tensor conversion benchmark (order-3, scale {scale}, {reps} reps, median; \
         targets: {}; {} thread pool(s))",
        target_names.join(", "),
        thread_counts.len()
    );
    let mut records: Vec<BenchRecord> = Vec::new();
    for (name, triples) in tensors(scale) {
        let coo3 = AnyTensor::Coo3(CooTensor::from_triples(&triples));
        println!(
            "  {:<10} {} dims, {} nnz",
            name,
            triples.shape(),
            triples.nnz()
        );
        for &threads in &thread_counts {
            let service = ConversionService::new(ServiceConfig {
                threads,
                parallel_nnz_threshold: 0,
                routing,
                online_calibration: false,
            });
            // CSF sources are derived once per pool.
            let csf = service
                .convert(&coo3, FormatId::Csf)
                .expect("COO3 converts to CSF");
            for target in &targets {
                // CSF targets are fed from COO3; COO3 (and custom) targets
                // from the packed CSF (resp. COO3) source.
                let sources: Vec<&AnyTensor> = match target.id() {
                    Some(FormatId::Csf) => vec![&coo3],
                    Some(_) => vec![&csf],
                    None => vec![&coo3],
                };
                for src in sources {
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
                        "  {:<10} {:>4} -> {:<4} {} thread(s): {:>12} ns  [{}]",
                        name,
                        src.format(),
                        target.to_string(),
                        threads,
                        median.as_nanos(),
                        route,
                    );
                    records.push(
                        BenchRecord::for_pair(
                            name,
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

    let json = match std::fs::read_to_string(&json_path)
        .ok()
        .and_then(|existing| merge_bench_json(&existing, &records))
    {
        Some(merged) => merged,
        None => render_bench_json(scale, reps, &records),
    };
    match std::fs::write(&json_path, &json) {
        Ok(()) => println!("\nappended {} entries to {json_path}", records.len()),
        Err(e) => eprintln!("\nfailed to write {json_path}: {e}"),
    }
}
