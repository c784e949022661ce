//! Out-of-core streaming conversion quickstart: convert a Matrix Market
//! file to CSR, and a FROSTT tensor file to CSF, under a memory budget a
//! fraction of the input's size — without ever materialising the input.
//!
//! Run with `cargo run --release --example stream_convert`. The example
//! writes its own input files to a temp directory, so it needs no external
//! data.

use taco_conversion_repro::conv::{AnyTensor, Format};
use taco_conversion_repro::formats::{CooMatrix, CooTensor};
use taco_conversion_repro::obs::PhaseReport;
use taco_conversion_repro::runtime::{ConversionService, ServiceConfig, StreamOptions};
use taco_conversion_repro::stream::MemoryBudget;
use taco_conversion_repro::tensor::Shape;
use taco_conversion_repro::workloads::io::{tns_dims, write_mtx, write_tns, MtxStream, TnsStream};

/// Prints the conversion's per-phase span tree (recorded by `conv-obs`),
/// indented by depth.
fn print_phases(phases: &[PhaseReport], depth: usize) {
    for phase in phases {
        println!(
            "  {:indent$}{:<20} {:>9.1} µs  ({} items)",
            "",
            phase.name,
            phase.duration_ns as f64 / 1e3,
            phase.count,
            indent = 2 * depth
        );
        print_phases(&phase.children, depth + 1);
    }
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let dir = std::env::temp_dir().join(format!("stream-convert-{}", std::process::id()));
    std::fs::create_dir_all(&dir)?;
    let service = ConversionService::new(ServiceConfig::with_threads(4));

    // --- Matrix Market -> CSR under an 8 KiB budget ---------------------
    // 4000 entries as 16 B sort records = ~62 KiB of sort working set: ~8x
    // the budget, so the external sort must spill runs to disk.
    let mtx_path = dir.join("example.mtx");
    let mut matrix = CooMatrix::new(512, 512);
    for p in 0..4000usize {
        matrix.push((p * 37) % 512, (p * 101) % 512, p as f64 * 0.25);
    }
    write_mtx(&mtx_path, &matrix)?;

    let budget = MemoryBudget::kib(8);
    let opts = StreamOptions {
        budget,
        channel_blocks: 2,
        spill_dir: Some(dir.clone()),
    };
    // Small blocks keep each parse job's reservation (its text, columns and
    // sort records) inside the budget's headroom quarter.
    let stream = MtxStream::open(&mtx_path, 8)?;
    let result = service.convert_stream(stream, Format::csr(), &opts)?;
    println!(
        "{} -> CSR: {} nnz via {} blocks, {} spill runs ({} KiB), peak working set {} B (budget {} B){}",
        mtx_path.display(),
        result.tensor.nnz(),
        result.stats.blocks,
        result.stats.spilled_runs,
        result.stats.spilled_bytes / 1024,
        result.stats.peak_tracked_bytes,
        budget.bytes,
        if result.stats.in_memory { " [in-memory]" } else { "" },
    );
    assert!(result.stats.peak_tracked_bytes < budget.bytes);
    // The observability layer recorded where the time went.
    let report = &result.report;
    println!(
        "  report: route {}, {} thread(s), total {:.1} µs, {} spill runs",
        report.route,
        report.threads,
        report.total_ns as f64 / 1e3,
        report.spilled_runs
    );
    print_phases(&report.phases, 1);
    // The streamed result is byte-identical to the in-memory conversion.
    let in_memory = service.convert(&AnyTensor::Coo(matrix), Format::csr())?;
    assert_eq!(result.tensor, in_memory);
    println!("  byte-identical to the in-memory conversion");

    // --- FROSTT .tns -> CSF under the same budget ------------------------
    let tns_path = dir.join("example.tns");
    let mut tensor = CooTensor::new(Shape::tensor3(64, 64, 64));
    for p in 0..3000usize {
        tensor.push(&[(p * 7) % 64, (p * 31) % 64, (p * 13) % 64], p as f64);
    }
    write_tns(&tns_path, &tensor)?;

    // FROSTT files carry no dimensions; one streaming scan discovers them.
    let (shape, nnz) = tns_dims(&tns_path)?;
    println!(
        "{} -> CSF: scanned shape {} with {} nnz",
        tns_path.display(),
        shape,
        nnz
    );
    let stream = TnsStream::open(&tns_path, shape, 8)?;
    let result = service.convert_stream(stream, Format::csf(), &opts)?;
    println!(
        "  {} nnz packed, {} spill runs, peak working set {} B{}",
        result.tensor.nnz(),
        result.stats.spilled_runs,
        result.stats.peak_tracked_bytes,
        if result.stats.in_memory {
            " [in-memory]"
        } else {
            ""
        },
    );
    assert!(result.stats.peak_tracked_bytes < budget.bytes);
    let in_memory = service.convert(&AnyTensor::Coo3(tensor), Format::csf())?;
    assert_eq!(result.tensor, in_memory);
    println!("  byte-identical to the in-memory conversion");

    let stats = service.stats();
    println!(
        "service: {} streams, {} spill runs, {} KiB spilled, peak {} B",
        stats.streams,
        stats.stream_spilled_runs,
        stats.stream_spilled_bytes / 1024,
        stats.stream_peak_bytes
    );
    std::fs::remove_dir_all(&dir)?;
    Ok(())
}
