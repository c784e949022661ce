//! The five workloads. Each fixes its sizes here in code (never a flag or an
//! environment variable), builds its inputs from the seed, and runs its cases
//! through the measuring loop in `harness`.

use std::path::Path;

use conv_runtime::{ConversionService, Route, ServiceConfig, ServiceStats};
use conv_stream::{CooSink, TensorSink, TensorStream};
use conv_workloads::io::{MtxStream, DEFAULT_BLOCK_NNZ};
use sparse_conv::{AnyTensor, ConvertError, Format};
use sparse_formats::{spmv, CooMatrix, CooTensor};

use crate::harness::Workload;
use crate::stats::ratio;

mod convert_large;
mod convert_small;
mod custom_format;
mod file_first_use;
mod stream_spill;

/// Workload names with the reason each exists (the `why` of `BENCHMARK.json`).
pub const WORKLOADS: [(&str, &str); 5] = [
    (
        "file_first_use",
        "file to first SpMV on a fresh service: loader and TensorProfile do most of the work, the conversion a few percent",
    ),
    (
        "convert_large",
        "warm service, large in-memory sources: parallel kernels, engine and radix sort do the work; loader, profile and generic driver none",
    ),
    (
        "convert_small",
        "thousands of 2k-nnz requests, one at a time and batched: per-request cost (plan cache, route_for, dispatch, pool) shows, inputs fit in L2",
    ),
    (
        "custom_format",
        "builder-defined formats through the generic driver and generated code through the IR interpreter: the generated-vs-hand-written gap",
    ),
    (
        "stream_spill",
        "convert_stream from files under 1/8 of the sort working set: small blocks, per-run sorts, spills; memory is the point",
    ),
];

/// Builds the named workload from the seed. `dir` is where it may write.
pub fn build(
    name: &str,
    seed: u64,
    threads: usize,
    dir: &Path,
    smoke: bool,
) -> Result<Box<dyn Workload>, String> {
    let built: Result<Box<dyn Workload>, ConvertError> = match name {
        "file_first_use" => file_first_use::build(seed, threads, dir, smoke),
        "convert_large" => convert_large::build(seed, threads, smoke),
        "convert_small" => convert_small::build(seed, threads, smoke),
        "custom_format" => custom_format::build(seed, threads, smoke),
        "stream_spill" => stream_spill::build(seed, threads, dir, smoke),
        other => return Err(format!("unknown workload {other}")),
    };
    built.map_err(|e| format!("set-up of {name} failed: {e}"))
}

/// The service every workload uses: pool width `T`, everything else default,
/// online calibration off so routes are a function of the input only.
fn service(threads: usize) -> ConversionService {
    ConversionService::new(ServiceConfig {
        threads,
        online_calibration: false,
        ..ServiceConfig::default()
    })
}

fn parse_format(s: &str) -> Result<Format, ConvertError> {
    s.parse()
        .map_err(|e| ConvertError::Unsupported(format!("{e}")))
}

/// Pulls a whole stream into an in-memory COO tensor, in arrival order.
fn drain<S: TensorStream>(mut stream: S) -> Result<CooTensor, ConvertError> {
    let mut sink = CooSink::new(stream.shape().clone());
    while let Some(block) = stream.next_block()? {
        sink.push_block(block)?;
    }
    Ok(sink.into_tensor())
}

/// Loads an `.mtx` file as a COO matrix: `MtxStream` → `CooSink` → `AnyTensor`.
fn load_mtx(path: &Path) -> Result<AnyTensor, ConvertError> {
    let t = drain(MtxStream::open(path, DEFAULT_BLOCK_NNZ)?)?;
    let coo = CooMatrix::from_parts(
        t.shape().dim(0),
        t.shape().dim(1),
        t.crd(0).to_vec(),
        t.crd(1).to_vec(),
        t.values().to_vec(),
    )
    .map_err(ConvertError::Structure)?;
    Ok(AnyTensor::Coo(coo))
}

fn io_error(e: std::io::Error) -> ConvertError {
    ConvertError::Io(e.to_string())
}

/// `y = A x` with the kernel of the format `a` is stored in; `None` for a
/// format without an SpMV kernel.
fn spmv_any(a: &AnyTensor, x: &[f64]) -> Option<Vec<f64>> {
    Some(match a {
        AnyTensor::Coo(m) => spmv::spmv_coo(m, x),
        AnyTensor::Csr(m) => spmv::spmv_csr(m, x),
        AnyTensor::Csc(m) => spmv::spmv_csc(m, x),
        AnyTensor::Dia(m) => spmv::spmv_dia(m, x),
        AnyTensor::Ell(m) => spmv::spmv_ell(m, x),
        AnyTensor::Bcsr(m) => spmv::spmv_bcsr(m, x),
        _ => return None,
    })
}

fn multi_hop_share(routes: &[Route]) -> f64 {
    ratio(
        routes
            .iter()
            .filter(|r| matches!(r, Route::MultiHop(_)))
            .count() as f64,
        routes.len() as f64,
    )
}

/// Routes as the result lines print them: `direct`, `via-coo`, or the
/// formats of a multi-hop chain joined by `>`.
fn route_names(routes: &[Route]) -> Vec<String> {
    routes
        .iter()
        .map(|r| match r {
            Route::Direct => "direct".to_string(),
            Route::ViaCoo => "via-coo".to_string(),
            Route::MultiHop(path) => {
                let hops: Vec<String> = path.iter().map(Format::to_string).collect();
                hops.join(">")
            }
        })
        .collect()
}

fn hit_ratio(stats: &[ServiceStats]) -> f64 {
    let hits: u64 = stats.iter().map(|s| s.plan_hits).sum();
    let misses: u64 = stats.iter().map(|s| s.plan_misses).sum();
    ratio(hits as f64, (hits + misses) as f64)
}

fn parallel_share(stats: &[ServiceStats]) -> f64 {
    let parallel: u64 = stats.iter().map(|s| s.parallel_kernels).sum();
    let all: u64 = stats.iter().map(|s| s.conversions).sum();
    ratio(parallel as f64, all as f64)
}
