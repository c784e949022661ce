//! Benchmarks the streaming conversion pipeline against the in-memory
//! service on the same inputs, and appends rows to the
//! `BENCH_conversions.json` document the other table binaries write.
//!
//! Three variants are measured per input/target pair, distinguished by a
//! matrix-name suffix so the regression gate can track each separately:
//!
//! * `<name>` — the in-memory `ConversionService::convert` baseline,
//! * `<name>+stream` — `convert_stream` under a budget everything fits in
//!   (the in-memory fast case: pipeline overhead only, no disk),
//! * `<name>+spill` — `convert_stream` under a budget ~1/8 the input's
//!   working set, forcing external merge sort spills.
//!
//! Environment variables:
//!
//! * `STREAM_SCALE` — input size relative to the default (default 1.0; CI
//!   smoke mode uses a small fraction),
//! * `TABLE_REPS` — repetitions per measurement, median reported (default 3),
//! * `BENCH_THREADS` — pool width (default: machine parallelism),
//! * `BENCH_JSON` — output path (default `BENCH_conversions.json`).

use conv_bench::{env_f64, env_usize, merge_bench_json, render_bench_json, BenchRecord};
use conv_runtime::{ConversionService, ServiceConfig, StreamOptions, WorkerPool};
use conv_stream::{entry_bytes, CooBlockStream, MemoryBudget};
use conv_workloads::{irregular, tensor3_uniform};
use sparse_conv::convert::{AnyTensor, FormatId};
use sparse_conv::Format;
use sparse_formats::{CooMatrix, CooTensor};

struct Input {
    name: &'static str,
    source: AnyTensor,
    target: FormatId,
    block_nnz: usize,
}

fn inputs(scale: f64) -> Vec<Input> {
    let s = |n: usize| ((n as f64 * scale).round() as usize).max(4);
    let rows = s(20_000);
    let nnz = s(400_000);
    // Cap the row length so every scale keeps target_nnz feasible.
    let max_row = ((2 * nnz) / rows + 1).min(rows);
    let matrix =
        irregular(rows, rows, nnz, max_row, 11).expect("irregular matrix parameters are valid");
    let dims = [s(128), s(128), s(128)];
    let t_nnz = ((100_000_f64 * scale).round().max(16.0) as usize).min(dims.iter().product());
    let tensor = tensor3_uniform(dims, t_nnz, 23).expect("uniform tensor parameters are valid");
    vec![
        Input {
            name: "irregular2d",
            source: AnyTensor::Coo(CooMatrix::from_triples(&matrix)),
            target: FormatId::Csr,
            block_nnz: 1 << 12,
        },
        Input {
            name: "uniform3d",
            source: AnyTensor::Coo3(CooTensor::from_triples(&tensor)),
            target: FormatId::Csf,
            block_nnz: 1 << 12,
        },
    ]
}

fn stream_of(src: &AnyTensor, block_nnz: usize) -> CooBlockStream {
    match src {
        AnyTensor::Coo(m) => CooBlockStream::from_matrix(m, block_nnz),
        AnyTensor::Coo3(t) => CooBlockStream::new(t.clone(), block_nnz),
        _ => unreachable!("streaming benchmarks start from COO sources"),
    }
}

fn main() {
    let scale = env_f64("STREAM_SCALE", 1.0);
    let reps = env_usize("TABLE_REPS", 3);
    let threads = env_usize("BENCH_THREADS", WorkerPool::machine_sized().threads());
    let json_path =
        std::env::var("BENCH_JSON").unwrap_or_else(|_| "BENCH_conversions.json".to_string());

    println!(
        "Streaming conversion benchmark (scale {scale}, {reps} reps, median, {threads} thread(s))"
    );
    let service = ConversionService::new(ServiceConfig {
        threads,
        parallel_nnz_threshold: 0,
        ..ServiceConfig::default()
    });
    let mut records: Vec<BenchRecord> = Vec::new();
    for input in inputs(scale) {
        let nnz = input.source.nnz();
        let order = input.source.shape().order();
        let working_set = entry_bytes(order) * nnz;
        let target: Format = input.target.into();
        // The spilling variant gets ~1/8 of the input's sort working set.
        let tight = MemoryBudget::bytes((working_set / 8).max(1024));
        let roomy = MemoryBudget::bytes(working_set.max(1024) * 4);
        println!(
            "  {:<12} {} nnz, {} KiB working set, spill budget {} KiB",
            input.name,
            nnz,
            working_set / 1024,
            tight.bytes / 1024
        );
        let variants: [(&str, Option<MemoryBudget>); 3] = [
            ("", None),
            ("+stream", Some(roomy)),
            ("+spill", Some(tight)),
        ];
        for (suffix, budget) in variants {
            let median = match budget {
                None => conv_bench::median_time(reps, || {
                    service
                        .convert(&input.source, input.target)
                        .expect("in-memory conversion")
                        .nnz()
                }),
                Some(budget) => {
                    let opts = StreamOptions::with_budget(budget);
                    conv_bench::median_time(reps, || {
                        service
                            .convert_stream(
                                stream_of(&input.source, input.block_nnz),
                                input.target,
                                &opts,
                            )
                            .expect("streamed conversion")
                            .tensor
                            .nnz()
                    })
                }
            };
            let label = format!("{}{}", input.name, suffix);
            println!(
                "  {:<20} -> {:<4} {:>12} ns",
                label,
                target.to_string(),
                median.as_nanos()
            );
            records.push(BenchRecord::for_pair(
                &label,
                &input.source.format(),
                &target,
                nnz as u64,
                threads,
                scale,
                median.as_nanos(),
            ));
        }
    }

    let json = match std::fs::read_to_string(&json_path)
        .ok()
        .and_then(|existing| merge_bench_json(&existing, &records))
    {
        Some(merged) => merged,
        None => render_bench_json(scale, reps, &records),
    };
    std::fs::write(&json_path, json).expect("write benchmark JSON");
    println!("wrote {} entries to {json_path}", records.len());
}
