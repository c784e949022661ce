//! Criterion benchmarks for the seven Table 3 conversions, comparing the
//! generated routines against the SPARSKIT-style, MKL-style, and
//! taco-without-extensions baselines on representative Table 2 matrices.
//!
//! One benchmark group per conversion; within a group, one benchmark per
//! (matrix, implementation) pair, so criterion's reports show the same
//! comparisons as Table 3.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::time::Duration;

use conv_bench::{env_f64, BenchInputs, Conversion, Impl};
use conv_workloads::table2;

fn representative_inputs() -> Vec<BenchInputs> {
    let scale = env_f64("BENCH_SCALE", 0.02, 1.0);
    // One banded stencil, one FEM-like blocked matrix, one irregular matrix.
    let picks = ["jnlbrng1", "cant", "scircuit"];
    table2()
        .into_iter()
        .filter(|s| picks.contains(&s.name))
        .map(|s| BenchInputs::build(&s, scale))
        .collect()
}

fn bench_conversions(c: &mut Criterion) {
    let inputs = representative_inputs();
    for conversion in Conversion::all() {
        let mut group = c.benchmark_group(conversion.label());
        group
            .sample_size(10)
            .warm_up_time(Duration::from_millis(200))
            .measurement_time(Duration::from_millis(600));
        for input in &inputs {
            if !conversion.reported_for(&input.spec) {
                continue;
            }
            for implementation in [Impl::Generated, Impl::Sparskit, Impl::Mkl, Impl::TacoNoExt] {
                if !implementation.supports(conversion) {
                    continue;
                }
                let id = BenchmarkId::new(implementation.label(), input.spec.name);
                group.bench_with_input(id, input, |b, input| {
                    b.iter(|| conv_bench::run_conversion(input, conversion, implementation));
                });
            }
        }
        group.finish();
    }
}

criterion_group!(benches, bench_conversions);
criterion_main!(benches);
