//! The motivating pipeline of Section 1: import a matrix in COO, convert it
//! to a compute-friendly format, and run SpMV repeatedly. Conversion cost
//! must be low for the format switch to pay off, which is exactly what the
//! paper's generated routines provide.
//!
//! Run with `cargo run --release --example spmv_pipeline`.

use std::time::Instant;

use taco_conversion_repro::conv::engine;
use taco_conversion_repro::formats::{spmv, CooMatrix};
use taco_conversion_repro::workloads::table2;

fn main() {
    // A banded stencil matrix (the `denormal` stand-in from Table 2) at a
    // laptop-friendly scale.
    let spec = table2()
        .into_iter()
        .find(|s| s.name == "denormal")
        .expect("in suite");
    let triples = spec.generate(0.05);
    let coo = CooMatrix::from_triples(&triples);
    let x: Vec<f64> = (0..coo.cols()).map(|j| (j % 10) as f64).collect();

    // Convert once with the generated routines.
    let start = Instant::now();
    let csr = engine::to_csr(&coo, 1).expect("CSR conversion");
    let csr_conv = start.elapsed();
    let start = Instant::now();
    let dia = engine::to_dia(&coo).expect("DIA conversion");
    let dia_conv = start.elapsed();

    // Run SpMV in each format.
    let reps = 20;
    let time_spmv = |f: &dyn Fn() -> Vec<f64>| {
        let start = Instant::now();
        let mut y = Vec::new();
        for _ in 0..reps {
            y = f();
        }
        (start.elapsed() / reps, y)
    };
    let (coo_time, y_coo) = time_spmv(&|| spmv::spmv_coo(&coo, &x));
    let (csr_time, y_csr) = time_spmv(&|| spmv::spmv_csr(&csr, &x));
    let (dia_time, y_dia) = time_spmv(&|| spmv::spmv_dia(&dia, &x));
    // The formats accumulate in different orders, so allow floating-point
    // rounding differences.
    let close = |a: &[f64], b: &[f64]| a.iter().zip(b).all(|(x, y)| (x - y).abs() < 1e-9);
    assert!(close(&y_coo, &y_csr));
    assert!(close(&y_coo, &y_dia));

    println!(
        "matrix: {} stand-in, {} rows, {} nonzeros",
        spec.name,
        coo.rows(),
        coo.nnz()
    );
    println!("conversion COO->CSR: {csr_conv:?}   COO->DIA: {dia_conv:?}");
    println!("SpMV per iteration: COO {coo_time:?}   CSR {csr_time:?}   DIA {dia_time:?}");
    let fastest = csr_time.min(dia_time);
    if fastest < coo_time {
        let break_even =
            dia_conv.min(csr_conv).as_secs_f64() / (coo_time.as_secs_f64() - fastest.as_secs_f64());
        println!("conversion pays for itself after ~{break_even:.1} SpMV iterations");
    } else {
        println!("(timings too noisy on this run to estimate the break-even point)");
    }
}
