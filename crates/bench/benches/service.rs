//! Throughput benchmarks for the `conv-runtime` conversion service:
//!
//! * the three parallel kernels at one thread vs. `BENCH_THREADS` threads on
//!   the largest Table 2 matrix (the paper's heaviest input, synthesised at
//!   `BENCH_SCALE`),
//! * `convert_batch` scheduling a mixed workload across the pool, with the
//!   plan cache asserted warm — zero plans are built during measurement.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::time::Duration;

use conv_bench::{env_f64, env_usize, BenchInputs};
use conv_runtime::{ConversionService, ServiceConfig, WorkerPool};
use conv_workloads::generators::tensor3_uniform;
use sparse_conv::{AnyTensor, Format};
use sparse_formats::{CooTensor, SortStrategy};

fn thread_counts() -> Vec<usize> {
    let default = WorkerPool::machine_sized().threads().max(4);
    let max = env_usize("BENCH_THREADS", default, 1);
    if max > 1 {
        vec![1, max]
    } else {
        vec![1]
    }
}

fn heaviest_inputs() -> BenchInputs {
    let scale = env_f64("BENCH_SCALE", 0.02, 1.0);
    BenchInputs::build(&conv_bench::largest_spec(), scale)
}

fn bench_parallel_kernels(c: &mut Criterion) {
    let inputs = heaviest_inputs();
    let coo = AnyTensor::Coo(inputs.coo.clone());
    let csr = AnyTensor::Csr(inputs.csr.clone());
    let cases: [(&str, &AnyTensor, Format); 3] = [
        ("coo_to_csr", &coo, Format::csr()),
        ("csr_to_csc", &csr, Format::csc()),
        ("csr_to_bcsr", &csr, Format::bcsr(4, 4)),
    ];
    for (name, src, target) in cases {
        let mut group = c.benchmark_group(format!("service/{name}"));
        group
            .sample_size(10)
            .warm_up_time(Duration::from_millis(200))
            .measurement_time(Duration::from_millis(600));
        for threads in thread_counts() {
            let service = ConversionService::new(ServiceConfig {
                threads,
                parallel_nnz_threshold: 0,
                ..ServiceConfig::default()
            });
            service.convert(src, &target).expect("warm-up conversion");
            group.bench_function(BenchmarkId::new("threads", threads), |b| {
                b.iter(|| service.convert(src, &target).expect("conversion").nnz());
            });
        }
        group.finish();
    }
}

fn bench_batch_throughput(c: &mut Criterion) {
    let inputs = heaviest_inputs();
    let coo = AnyTensor::Coo(inputs.coo.clone());
    let csr = AnyTensor::Csr(inputs.csr.clone());
    let jobs: Vec<(AnyTensor, Format)> = vec![
        (coo.clone(), Format::csr()),
        (csr.clone(), Format::csc()),
        (coo.clone(), Format::jad()),
        (csr.clone(), Format::bcsr(4, 4)),
        (coo, Format::csc()),
        (csr, Format::coo()),
    ];
    let mut group = c.benchmark_group("service/convert_batch");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(200))
        .measurement_time(Duration::from_millis(600));
    for threads in thread_counts() {
        let service = ConversionService::new(ServiceConfig {
            threads,
            parallel_nnz_threshold: usize::MAX, // batch is the parallel axis
            ..ServiceConfig::default()
        });
        // Warm the plan cache, then require that measurement builds no plan.
        for result in service.convert_batch(&jobs) {
            result.expect("warm-up batch");
        }
        let warm_misses = service.stats().plan_misses;
        group.bench_function(BenchmarkId::new("threads", threads), |b| {
            b.iter(|| {
                service
                    .convert_batch(&jobs)
                    .into_iter()
                    .map(|r| r.expect("batch conversion").nnz())
                    .sum::<usize>()
            });
        });
        assert_eq!(
            service.stats().plan_misses,
            warm_misses,
            "plan cache must build zero plans after warm-up"
        );
    }
    group.finish();
}

fn bench_sort_strategies(c: &mut Criterion) {
    // Ablation for the packed-key radix path: the COO3→CSF kernel with the
    // span-sort strategy pinned to radix / comparison / counting, at one
    // thread and at the pool width. The input is a uniform-random tensor
    // (unstructured, so the sort dominates the conversion) at five times
    // `BENCH_SCALE`: 26^3 cells and 2000 nonzeros at the default.
    let scale = 5.0 * env_f64("BENCH_SCALE", 0.02, 1.0);
    let s = |n: usize| ((n as f64 * scale).round() as usize).max(2);
    let dims = [s(256), s(256), s(256)];
    let nnz = ((200_000_f64 * scale * scale).round().max(16.0) as usize).min(dims.iter().product());
    let triples = tensor3_uniform(dims, nnz, 42).expect("uniform tensor parameters are valid");
    let mut coo = CooTensor::from_triples(&triples);
    let mut state = 0x9e3779b97f4a7c15u64;
    coo.shuffle_with(|bound| {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state as usize) % bound
    });
    let strategies = [
        ("radix", SortStrategy::Radix),
        ("comparison", SortStrategy::Comparison),
        ("counting", SortStrategy::Counting),
    ];
    let threads = *thread_counts().last().expect("at least one thread count");
    let mut group = c.benchmark_group("service/sort_strategies");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(200))
        .measurement_time(Duration::from_millis(600));
    for (name, strategy) in strategies {
        for t in [1, threads] {
            group.bench_function(BenchmarkId::new(name, t), |b| {
                b.iter(|| {
                    sparse_conv::kernels::coo_to_csf_ordered_with(&coo, &[0, 1, 2], t, strategy)
                        .expect("no worker panics")
                        .nnz()
                });
            });
            if threads == 1 {
                break;
            }
        }
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_parallel_kernels,
    bench_batch_throughput,
    bench_sort_strategies
);
criterion_main!(benches);
