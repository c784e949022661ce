//! Ablation benchmarks for the design decisions called out in DESIGN.md:
//!
//! * engine path (monomorphised, the analogue of generated C) vs. the
//!   dynamic spec-driven converter vs. executing generated IR through the
//!   interpreter,
//! * the scalar-counter optimisation (CSR→ELL) vs. the counter array that an
//!   unordered source forces (COO→ELL),
//! * answering the CSR row-count query from the `pos` array vs. recomputing
//!   it with a histogram pass (the `simplify-width-count` rewrite's payoff).

use criterion::{criterion_group, criterion_main, Criterion};
use std::time::Duration;

use conv_bench::{env_f64, BenchInputs};
use conv_workloads::{table2, tensor3_fibered};
use sparse_conv::select::{auto_select, ORDER3_MODE_ORDERS};
use sparse_conv::source::SourceMatrix;
use sparse_conv::{codegen, engine, generic};
use sparse_conv::{AnyTensor, Format};
use sparse_formats::CooTensor;

fn inputs() -> BenchInputs {
    let scale = env_f64("BENCH_SCALE", 0.02, 1.0);
    let spec = table2()
        .into_iter()
        .find(|s| s.name == "denormal")
        .expect("denormal is part of the Table 2 suite");
    BenchInputs::build(&spec, scale)
}

fn bench_execution_paths(c: &mut Criterion) {
    let inputs = inputs();
    let coo_any = AnyTensor::Coo(inputs.coo.clone());
    let csr = Format::csr();
    let csr_spec = csr.spec().expect("CSR has a stock spec");

    let mut group = c.benchmark_group("execution_paths/coo_to_csr");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(200))
        .measurement_time(Duration::from_millis(600));
    group.bench_function("engine (monomorphised)", |b| {
        b.iter(|| engine::to_csr(&inputs.coo, 1).unwrap().nnz())
    });
    group.bench_function("dynamic spec-driven", |b| {
        b.iter(|| {
            generic::convert_with_spec(&coo_any, csr_spec)
                .unwrap()
                .vals
                .len()
        })
    });
    group.bench_function("generated IR + interpreter", |b| {
        b.iter(|| codegen::execute_format(&coo_any, &csr).unwrap().nnz())
    });
    group.finish();
}

fn bench_counter_strategies(c: &mut Criterion) {
    let inputs = inputs();
    let mut group = c.benchmark_group("counters/to_ell");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(200))
        .measurement_time(Duration::from_millis(600));
    group.bench_function("scalar counter (CSR source)", |b| {
        b.iter(|| engine::to_ell(&inputs.csr).slices())
    });
    group.bench_function("counter array (COO source)", |b| {
        b.iter(|| engine::to_ell(&inputs.coo).slices())
    });
    group.finish();
}

fn bench_query_fast_path(c: &mut Criterion) {
    let inputs = inputs();
    let mut group = c.benchmark_group("analysis/row_counts");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(200))
        .measurement_time(Duration::from_millis(600));
    group.bench_function("csr pos differencing", |b| {
        b.iter(|| SourceMatrix::row_counts(&inputs.csr).len())
    });
    group.bench_function("histogram over nonzeros", |b| {
        b.iter(|| SourceMatrix::row_counts(&inputs.coo).len())
    });
    group.finish();
}

fn bench_mode_orders(c: &mut Criterion) {
    // A fibered tensor is exactly the workload where the mode order matters:
    // rooting the fiber tree along the skewed mode collapses the interior
    // fiber count, so the six sort-then-pack times diverge.
    let scale = env_f64("BENCH_SCALE", 0.02, 1.0);
    let dims = [
        (64.0 * (scale * 50.0).max(0.2)) as usize + 2,
        64,
        (128.0 * (scale * 50.0).max(0.2)) as usize + 2,
    ];
    let triples =
        tensor3_fibered(dims, 16, 24, 42).expect("fibered generator parameters are valid");
    let coo3 = CooTensor::from_triples(&triples);
    let src = AnyTensor::Coo3(coo3.clone());

    let mut group = c.benchmark_group("mode_orders/coo3_to_csf");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(200))
        .measurement_time(Duration::from_millis(600));
    for order in ORDER3_MODE_ORDERS {
        let label = format!("CSF@{},{},{}", order[0], order[1], order[2]);
        group.bench_function(&label, |b| {
            b.iter(|| engine::to_csf_ordered(&coo3, &order).nnz())
        });
    }
    group.bench_function("auto_select (stats only)", |b| {
        b.iter(|| auto_select(&src).name().len())
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_execution_paths,
    bench_counter_strategies,
    bench_query_fast_path,
    bench_mode_orders
);
criterion_main!(benches);
