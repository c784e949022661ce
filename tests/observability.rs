//! Integration tests for the observability layer: traced conversions
//! produce structurally valid per-phase reports, parallel kernel spans nest
//! under their kernel phase, streamed conversions surface spill counts, and
//! the exported JSON passes the documented schema check.

#![cfg(feature = "conv-obs")]

use taco_conversion_repro::conv::generic::convert_with_spec;
use taco_conversion_repro::conv::{codegen, convert_with, AnyTensor, Format, TensorProfile};
use taco_conversion_repro::formats::{CooMatrix, CooTensor};
use taco_conversion_repro::obs::{validate_json, Collector, PhaseReport, Registry, Span};
use taco_conversion_repro::runtime::{ConversionService, ServiceConfig, StreamOptions};
use taco_conversion_repro::stream::{
    CooBlockStream, CooSink, MemoryBudget, TensorSink, TensorStream,
};
use taco_conversion_repro::workloads::io::{tns_dims, write_mtx, write_tns, MtxStream, TnsStream};
use taco_conversion_repro::workloads::{irregular, tensor3_uniform};

fn service(threads: usize) -> ConversionService {
    ConversionService::new(ServiceConfig {
        threads,
        parallel_nnz_threshold: 0,
        ..ServiceConfig::default()
    })
}

fn matrix_source() -> AnyTensor {
    let t = irregular(256, 256, 20_000, 256, 7).expect("valid generator parameters");
    AnyTensor::Coo(CooMatrix::from_triples(&t))
}

#[test]
fn traced_conversions_report_route_cache_and_phases() {
    let svc = service(1);
    let src = matrix_source();
    let (out, first) = svc.convert_traced(&src, Format::csr()).unwrap();
    assert_eq!(out.format(), Format::csr());
    assert_eq!(first.source, "COO");
    assert_eq!(first.target, "CSR");
    assert_eq!(first.route, "direct");
    assert!(!first.plan_cache_hit, "first conversion builds the plan");
    assert!(first.in_memory && !first.streamed);

    let (_, second) = svc.convert_traced(&src, Format::csr()).unwrap();
    assert!(
        second.plan_cache_hit,
        "second conversion hits the plan cache"
    );
    second.validate().expect("structurally valid report");
    assert!(second.total_ns > 0, "the collector measured the conversion");
    assert!(second.phase_sum_ns() <= second.total_ns);
    let execute = second.phase("service.execute").expect("execute phase");
    assert!(execute.duration_ns > 0);
    assert!(
        !execute.children.is_empty(),
        "the engine recorded sub-phases under the dispatch"
    );
    // The report the service stored last is the report it returned last.
    assert_eq!(svc.last_report().unwrap(), second);
    // The JSON export satisfies its own documented schema.
    validate_json(&second.to_json()).expect("schema-valid JSON");
    assert!(second.to_prometheus().contains("conversion_total_ns"));
}

/// Sums the span widths of every phase named `name` in the tree.
fn spans_named(phases: &[PhaseReport], name: &str) -> u64 {
    phases
        .iter()
        .map(|p| {
            let own = if p.name == name { p.spans } else { 0 };
            own + spans_named(&p.children, name)
        })
        .sum()
}

#[test]
fn parallel_kernel_spans_nest_under_the_kernel_phases() {
    let threads = 4;
    let svc = service(threads);
    let src = matrix_source();
    let (_, report) = svc.convert_traced(&src, Format::csr()).unwrap();
    assert!(report.parallel_kernel, "threshold 0 forces the kernel");
    assert_eq!(report.threads, threads);
    let execute = report.phase("service.execute").expect("execute phase");
    let analysis = execute
        .children
        .iter()
        .find(|p| p.name == "kernel.analysis")
        .expect("kernel analysis phase under the dispatch");
    // Each worker's span lands as a child of the phase that spawned it, so
    // the per-thread spans are structurally inside the parent kernel span.
    let histograms = analysis
        .children
        .iter()
        .find(|p| p.name == "chunk_histogram")
        .expect("per-thread histogram spans under kernel.analysis");
    assert_eq!(histograms.spans as usize, threads);
    assert_eq!(histograms.count as usize, src.nnz());
    assert_eq!(
        spans_named(&report.phases, "chunk_scatter") as usize,
        threads
    );
}

#[test]
fn streamed_conversions_report_spills_and_mirror_the_registry() {
    let t = tensor3_uniform([48, 48, 48], 6_000, 11).expect("valid generator parameters");
    let svc = service(2);
    let dir = std::env::temp_dir().join(format!("obs-stream-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let opts = StreamOptions {
        budget: MemoryBudget::kib(16),
        channel_blocks: 2,
        spill_dir: Some(dir.clone()),
    };
    let stream = CooBlockStream::new(CooTensor::from_triples(&t), 64);
    let result = svc.convert_stream(stream, Format::csf(), &opts).unwrap();
    assert!(result.stats.spilled_runs > 0, "the budget forces spills");

    let report = svc.last_report().expect("stream stored a report");
    assert_eq!(report.route, "stream");
    assert!(report.streamed);
    assert!(!report.in_memory);
    assert_eq!(report.source, "stream");
    assert_eq!(report.target, "CSF");
    assert_eq!(report.spilled_runs, result.stats.spilled_runs);
    assert_eq!(report.spilled_bytes, result.stats.spilled_bytes);
    assert_eq!(report.threads, 2);
    assert!(report.phase("stream.pump").is_some());
    assert!(report.phase("stream.assemble").is_some());
    validate_json(&report.to_json()).expect("schema-valid JSON");

    // The sorter mirrored its stats into the global metrics registry.
    let snapshot = Registry::global().snapshot();
    assert!(snapshot.counters["stream.spilled_runs"] >= result.stats.spilled_runs);
    assert!(snapshot.counters["stream.spilled_bytes"] >= result.stats.spilled_bytes);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Generated code reports its four phases, in order, under the caller's span.
#[test]
fn generated_code_records_generate_bind_run_unpack() {
    let src = matrix_source();
    let root = Span::enter_traced("test.codegen");
    let trace = root.handle().trace_id();
    codegen::execute_format(&src, &Format::csr()).unwrap();
    drop(root);
    let records = Collector::global().take_trace(trace);
    let root = records.iter().find(|r| r.name == "test.codegen").unwrap();
    let mut children: Vec<_> = records
        .iter()
        .filter(|r| r.parent == Some(root.id))
        .collect();
    children.sort_by_key(|r| r.start_ns);
    let names: Vec<&str> = children.iter().map(|r| r.name).collect();
    assert_eq!(
        names,
        [
            "codegen.generate",
            "codegen.bind",
            "ir.run",
            "codegen.unpack"
        ]
    );
    assert_eq!(children[2].items, src.nnz() as u64);
}

/// The generic driver records its three phases, in order, each counting
/// the nonzeros it handled.
#[test]
fn the_generic_driver_records_remap_analyse_assemble() {
    let src = matrix_source();
    let format: Format = "MYBCSR:(i,j)->(i/4,j/4,i%4,j%4):bi,bj,ii,jj:dense,compressed,dense,dense"
        .parse()
        .unwrap();
    let root = Span::enter_traced("test.generic");
    let trace = root.handle().trace_id();
    convert_with_spec(&src, format.spec().unwrap()).unwrap();
    drop(root);
    let records = Collector::global().take_trace(trace);
    let root = records.iter().find(|r| r.name == "test.generic").unwrap();
    let mut children: Vec<_> = records
        .iter()
        .filter(|r| r.parent == Some(root.id))
        .collect();
    children.sort_by_key(|r| r.start_ns);
    let named: Vec<(&str, u64)> = children.iter().map(|r| (r.name, r.items)).collect();
    let nnz = src.nnz() as u64;
    assert_eq!(
        named,
        [
            ("generic.remap", nnz),
            ("generic.analyse", nnz),
            ("generic.assemble", nnz)
        ]
    );
}

#[test]
fn reset_stats_isolates_measurement_from_warm_up() {
    let svc = service(1);
    let src = matrix_source();
    svc.convert(&src, Format::csr()).unwrap();
    assert_eq!(svc.stats().conversions, 1);
    assert_eq!(svc.stats().plan_misses, 1);
    svc.reset_stats();
    let stats = svc.stats();
    assert_eq!(stats.conversions, 0);
    assert_eq!((stats.plan_hits, stats.plan_misses), (0, 0));
    assert_eq!(stats.cached_plans, 1, "reset keeps the cached plans");
    // The next conversion is a plan hit against the preserved cache.
    let (_, report) = svc.convert_traced(&src, Format::csr()).unwrap();
    assert!(report.plan_cache_hit);
    assert_eq!(svc.stats().conversions, 1);
}

/// The inline path really is inline: a one-chunk run opens the same
/// `chunk_*` worker spans as a four-chunk one, but every one of them on the
/// thread that asked for the conversion.
#[test]
fn one_chunk_runs_record_their_chunk_spans_on_the_calling_thread() {
    let src = matrix_source();
    let chunk_threads = |threads: usize| {
        let root = Span::enter_traced("test.convert");
        let trace = root.handle().trace_id();
        convert_with(&src, Format::csr(), threads).unwrap();
        drop(root);
        let records = Collector::global().take_trace(trace);
        let caller = records
            .iter()
            .find(|r| r.name == "test.convert")
            .expect("the root recorded itself")
            .thread;
        let chunks: Vec<u64> = records
            .iter()
            .filter(|r| r.name.starts_with("chunk_"))
            .map(|r| r.thread)
            .collect();
        (caller, chunks)
    };
    let (caller, chunks) = chunk_threads(1);
    assert_eq!(
        chunks,
        vec![caller; 2],
        "one histogram, one scatter, inline"
    );
    let (caller, chunks) = chunk_threads(4);
    assert_eq!(chunks.len(), 8);
    assert!(chunks.iter().all(|&thread| thread != caller));
}

fn drain(mut stream: impl TensorStream) -> CooTensor {
    let mut sink = CooSink::new(stream.shape().clone());
    while let Some(block) = stream.next_block().unwrap() {
        sink.push_block(block).unwrap();
    }
    sink.into_tensor()
}

/// The loaders and the profile record their own spans: `io.parse_block` per
/// block counting its entries, `io.tns_dims` counting the entries it
/// scanned, and `select.profile` counting the nonzeros it profiled.
#[test]
fn loaders_and_the_profile_record_their_spans() {
    let dir = std::env::temp_dir().join(format!("obs-io-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let AnyTensor::Coo(m) = matrix_source() else {
        unreachable!("the matrix source is COO")
    };
    let t = CooTensor::from_triples(&tensor3_uniform([16, 16, 16], 3_000, 5).unwrap());
    let (mtx, tns) = (dir.join("m.mtx"), dir.join("t.tns"));
    write_mtx(&mtx, &m).unwrap();
    write_tns(&tns, &t).unwrap();

    let root = Span::enter_traced("test.load");
    let trace = root.handle().trace_id();
    let loaded = drain(MtxStream::open(&mtx, 4096).unwrap());
    let (shape, entries) = tns_dims(&tns).unwrap();
    let loaded3 = drain(TnsStream::open(&tns, shape, 1000).unwrap());
    let profile = TensorProfile::compute(&AnyTensor::Coo3(loaded3));
    drop(root);
    std::fs::remove_dir_all(&dir).unwrap();

    let records = Collector::global().take_trace(trace);
    let named = |name: &str| -> Vec<u64> {
        records
            .iter()
            .filter(|r| r.name == name)
            .map(|r| r.items)
            .collect()
    };
    // The call that finds the end of the `.tns` file parses no entries.
    let blocks: Vec<u64> = named("io.parse_block")
        .into_iter()
        .filter(|&n| n > 0)
        .collect();
    assert_eq!(
        blocks.len(),
        m.nnz().div_ceil(4096) + t.nnz().div_ceil(1000)
    );
    assert_eq!(blocks.iter().sum::<u64>() as usize, loaded.nnz() + t.nnz());
    assert_eq!(named("io.tns_dims"), [entries]);
    assert_eq!(named("select.profile"), [profile.nnz as u64]);
    assert_eq!(profile.nnz, t.nnz());
}
