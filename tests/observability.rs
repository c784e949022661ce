//! Integration tests for the observability layer: traced conversions
//! produce structurally valid per-phase reports, parallel kernel spans nest
//! under their kernel phase, streamed conversions surface spill counts, and
//! the exported JSON passes the documented schema check.

#![cfg(feature = "conv-obs")]

use taco_conversion_repro::conv::generic::convert_with_spec;
use taco_conversion_repro::conv::tunables::PARSE_CHUNK_BYTES;
use taco_conversion_repro::conv::{
    codegen, convert_with, AnyTensor, ConvertError, Format, TensorProfile,
};
use taco_conversion_repro::formats::{CooMatrix, CooTensor};
use taco_conversion_repro::obs::{validate_json, Collector, PhaseReport, Span};
use taco_conversion_repro::runtime::{ConversionService, ServiceConfig, StreamOptions};
use taco_conversion_repro::stream::run::record_bytes;
use taco_conversion_repro::stream::{
    CooBlockStream, CooSink, CoordBlock, MemoryBudget, ParseJob, TensorSink, TensorStream,
};
use taco_conversion_repro::tensor::Shape;
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
    // The JSON export satisfies its own documented schema.
    validate_json(&second.to_json()).expect("schema-valid JSON");
}

/// A plain `convert` inside a caller's traced root opens no root of its
/// own: its `convert` span and the `service.*` phases under it land in the
/// caller's trace, beside the caller's own records.
#[test]
fn untraced_conversions_nest_in_the_callers_trace() {
    let svc = service(1);
    let src = matrix_source();
    let root = Span::enter_traced("test.caller");
    let trace = root.handle().trace_id();
    drop(Span::enter("test.before"));
    svc.convert(&src, Format::csr()).unwrap();
    drop(root);
    let records = Collector::global().take_trace(trace);
    let find = |name: &str| {
        records
            .iter()
            .find(|r| r.name == name)
            .unwrap_or_else(|| panic!("{name} in the caller's trace"))
    };
    let caller = find("test.caller");
    assert_eq!(find("test.before").parent, Some(caller.id));
    let convert = find("convert");
    assert_eq!(convert.parent, Some(caller.id));
    for phase in ["service.plan", "service.route", "service.execute"] {
        assert_eq!(find(phase).parent, Some(convert.id), "{phase}");
    }
    assert!(records.iter().all(|r| r.root == trace));
}

/// `convert_traced` and `convert_stream` open a traced root of their own
/// wherever they are called: under a caller's plain span each still returns
/// its full phase tree, and under a caller's traced root it also leaves the
/// caller's records in the caller's trace.
#[test]
fn traced_requests_inside_a_callers_span_report_their_own_tree() {
    let svc = service(1);
    let src = matrix_source();
    let AnyTensor::Coo(m) = &src else {
        unreachable!("the matrix source is COO")
    };
    let opts = StreamOptions::with_budget(MemoryBudget::kib(1024));
    let requests = || {
        let (_, report) = svc.convert_traced(&src, Format::csr()).unwrap();
        assert!(report.phase("service.execute").is_some());
        let stream = CooBlockStream::from_matrix(m, 1024);
        let streamed = svc.convert_stream(stream, Format::csr(), &opts).unwrap();
        assert!(streamed.report.phase("stream.assemble").is_some());
    };
    let plain = Span::enter("test.plain");
    requests();
    drop(plain);
    let caller = Span::enter_traced("test.caller");
    let trace = caller.handle().trace_id();
    drop(Span::enter("test.before"));
    requests();
    drop(caller);
    let mut names: Vec<_> = Collector::global()
        .take_trace(trace)
        .iter()
        .map(|r| r.name)
        .collect();
    names.sort_unstable();
    assert_eq!(names, ["test.before", "test.caller"]);
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

/// The phase tree as `(depth, name, spans, items)` rows, in report order.
fn tree(phases: &[PhaseReport], depth: usize, out: &mut Vec<(usize, String, u64, u64)>) {
    for p in phases {
        out.push((depth, p.name.clone(), p.spans, p.count));
        tree(&p.children, depth + 1, out);
    }
}

/// COO3→CSF's kernel, pinned at one and two threads: the layout pass, the
/// keys (a gather at one chunk, the bucket-by-root step at two), and under
/// every `chunk_sort_pack` its radix sort beside its pack, each with the
/// chunk's nonzeros as items.
#[test]
fn coo3_to_csf_attributes_sort_and_pack_per_chunk() {
    let t = tensor3_uniform([48, 48, 48], 6_000, 5).expect("valid generator parameters");
    let src = AnyTensor::Coo3(CooTensor::from_triples(&t));
    let n = src.nnz() as u64;
    let phases = |threads: usize| {
        let (_, report) = service(threads)
            .convert_traced(&src, Format::csf())
            .unwrap();
        let execute = report.phase("service.execute").expect("execute phase");
        let mut rows = Vec::new();
        tree(&execute.children, 0, &mut rows);
        rows
    };
    let row = |depth, name: &str, spans, items| (depth, name.to_string(), spans, items);
    assert_eq!(
        phases(1),
        vec![
            row(0, "kernel.layout", 1, n),
            row(0, "kernel.gather", 1, n),
            row(0, "kernel.sort_pack", 1, 0),
            row(1, "chunk_sort_pack", 1, n),
            row(2, "kernel.radix_sort", 1, n),
            row(2, "kernel.pack", 1, n),
        ]
    );
    assert_eq!(
        phases(2),
        vec![
            row(0, "kernel.layout", 1, n),
            row(0, "kernel.analysis", 1, 0),
            row(1, "chunk_histogram", 2, n),
            row(0, "kernel.merge", 1, 0),
            row(0, "kernel.scatter", 1, 0),
            row(1, "chunk_scatter", 2, n),
            row(0, "kernel.sort_pack", 1, 0),
            row(1, "chunk_sort_pack", 2, n),
            row(2, "kernel.radix_sort", 2, n),
            row(2, "kernel.pack", 2, n),
            row(0, "kernel.stitch", 1, 2),
        ]
    );
}

#[test]
fn streamed_conversions_report_spills() {
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

    let report = &result.report;
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
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A spilling stream's phase tree: under `stream.pump`, one `pool.run`
/// holds the consumer and the workers, each a `pool.worker`; the workers
/// pre-sort every job and the consumer spills full buffers; any budget wait
/// is the producer's, directly under the pump. Then the assembly spills the
/// residue and merges the runs. Every nonzero is pre-sorted, spilled and
/// merged exactly once, and the spilled bytes are one header plus one packed
/// record per entry per run.
#[test]
fn streamed_span_tree_attributes_presort_spills_and_merge() {
    let t = tensor3_uniform([48, 48, 48], 6_000, 11).expect("valid generator parameters");
    let n = t.nnz() as u64;
    let svc = service(2);
    let opts = StreamOptions::with_budget(MemoryBudget::kib(16));
    let stream = CooBlockStream::new(CooTensor::from_triples(&t), 64);
    let result = svc.convert_stream(stream, Format::csf(), &opts).unwrap();
    let (stats, report) = (result.stats, result.report);
    let runs = stats.spilled_runs;
    assert!(runs > 1, "the budget forces spills mid-stream");
    let mut rows = Vec::new();
    tree(&report.phases, 0, &mut rows);
    rows.retain(|r| r.1 != "stream.budget_wait");
    let row = |depth, name: &str, spans, items| (depth, name.to_string(), spans, items);
    let stages = report
        .phase("stream.pump")
        .and_then(|p| p.child("pool.run"))
        .and_then(|p| p.child("pool.worker"))
        .expect("the pump's stages");
    let presort = stages.child("stream.presort").expect("workers pre-sort");
    let mid_stream = stages
        .child("stream.spill_write")
        .expect("the consumer spills")
        .count;
    // One worker span per stage: the consumer and the two workers.
    let mut want = vec![
        row(0, "stream.pump", 1, 0),
        row(1, "pool.run", 1, 0),
        row(2, "pool.worker", 3, 0),
        row(3, "stream.presort", presort.spans, n),
        row(3, "stream.spill_write", runs - 1, mid_stream),
        row(0, "stream.assemble", 1, n),
        row(1, "stream.spill_write", 1, n - mid_stream),
        row(1, "stream.merge_spills", 1, n),
    ];
    want.sort();
    rows.sort();
    assert_eq!(rows, want);
    let waits = |phases: &[PhaseReport]| {
        let mut all = Vec::new();
        tree(phases, 0, &mut all);
        all.iter().filter(|r| r.1 == "stream.budget_wait").count()
    };
    let pump = report.phase("stream.pump").expect("the pump");
    let direct = usize::from(pump.child("stream.budget_wait").is_some());
    assert_eq!(
        waits(&report.phases),
        direct,
        "budget waits sit under the pump"
    );
    let record = record_bytes::<u64>() as u64;
    assert_eq!(record, 16);
    assert_eq!(report.spilled_bytes, 8 * runs + n * record);
    assert_eq!(report.spilled_bytes, stats.spilled_bytes);
}

/// A producer that cannot admit its next job waits, and the wait is a
/// `stream.budget_wait` span directly under `stream.pump`: here every job
/// takes a few milliseconds and the budget holds one job's reservation, so
/// the producer waits for each job before queuing the next.
#[test]
fn budget_waits_are_the_producers_under_the_pump() {
    /// Blocks of an inner stream, each parsed slowly.
    struct Slow(CooBlockStream);
    impl TensorStream for Slow {
        fn shape(&self) -> &Shape {
            self.0.shape()
        }
        fn next_block(&mut self) -> Result<Option<CoordBlock>, ConvertError> {
            self.0.next_block()
        }
        fn next_job(&mut self, _: usize) -> Result<Option<ParseJob>, ConvertError> {
            Ok(self.0.next_block()?.map(|block| {
                ParseJob::new(block.nnz(), 0, move || {
                    std::thread::sleep(std::time::Duration::from_millis(2));
                    Ok(block)
                })
            }))
        }
    }
    let mut m = CooMatrix::new(64, 64);
    for p in 0..640usize {
        m.push((p * 13) % 64, (p * 7) % 64, p as f64);
    }
    let svc = service(2);
    // A 64-entry job reserves 64 × 56 B = 3584 B, so no two fit 4 KiB.
    let opts = StreamOptions::with_budget(MemoryBudget::kib(4));
    let got = svc
        .convert_stream(
            Slow(CooBlockStream::from_matrix(&m, 64)),
            Format::csr(),
            &opts,
        )
        .unwrap();
    assert_eq!(got.stats.entries, 640);
    let wait = got
        .report
        .phase("stream.pump")
        .and_then(|p| p.child("stream.budget_wait"))
        .expect("the producer waited under the pump");
    assert!(wait.spans >= 1);
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

/// `ir.run` has exactly one child span, `ir.compiled`, which opens nothing
/// inside it. A builder format's target has no container and is refused
/// before anything runs: no `ir.run` at all.
#[test]
fn ir_run_records_one_tier_span_and_nothing_inside_it() {
    let src = matrix_source();
    let my_csr: Format = "OBS-TEST-MYCSR:(r,c)->(r,c):r,c:dense,compressed"
        .parse()
        .unwrap();
    for (target, tier) in [
        (Format::csr(), Some("ir.compiled")),
        (Format::dia(), Some("ir.compiled")),
        (my_csr, None),
    ] {
        let root = Span::enter_traced("test.tier");
        let trace = root.handle().trace_id();
        let result = codegen::execute_format(&src, &target);
        drop(root);
        let records = Collector::global().take_trace(trace);
        let children = |id| records.iter().filter(move |r| r.parent == Some(id));
        let runs: Vec<_> = records.iter().filter(|r| r.name == "ir.run").collect();
        let Some(tier) = tier else {
            assert!(
                matches!(result, Err(ConvertError::Unsupported(_))),
                "{target}: {result:?}"
            );
            assert!(runs.is_empty(), "{target}");
            continue;
        };
        assert!(result.is_ok(), "{target}: {result:?}");
        assert_eq!(runs.len(), 1, "{target}");
        let tiers: Vec<_> = children(runs[0].id).collect();
        assert_eq!(tiers.len(), 1, "{target}");
        assert_eq!(tiers[0].name, tier, "{target}");
        assert_eq!(children(tiers[0].id).count(), 0, "{target}");
    }
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

/// A block read in several parse chunks is still one `io.parse_block` span
/// counting its entries; the per-chunk `io.parse_chunk` worker spans nest
/// under it and their items add up to the same count, and no span is opened
/// per line.
#[test]
fn a_chunked_parse_is_one_block_span_over_its_chunk_spans() {
    let dir = std::env::temp_dir().join(format!("obs-chunks-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("m.mtx");
    let t = irregular(4096, 4096, 80_000, 64, 11).expect("valid generator parameters");
    let m = CooMatrix::from_triples(&t);
    write_mtx(&path, &m).unwrap();
    let bytes = std::fs::metadata(&path).unwrap().len() as usize;
    assert!(bytes > 2 * PARSE_CHUNK_BYTES, "{bytes} bytes");

    let root = Span::enter_traced("test.parse");
    let trace = root.handle().trace_id();
    let mut stream = MtxStream::open(&path, m.nnz()).unwrap();
    let block = stream.next_block().unwrap().unwrap();
    assert_eq!(stream.next_block(), Ok(None));
    drop(root);
    std::fs::remove_dir_all(&dir).unwrap();

    let records = Collector::global().take_trace(trace);
    let blocks: Vec<_> = records
        .iter()
        .filter(|r| r.name == "io.parse_block")
        .collect();
    assert_eq!(blocks.len(), 1);
    assert_eq!(blocks[0].items as usize, m.nnz());
    assert_eq!(block.nnz(), m.nnz());
    let parent = |id: u64| records.iter().find(|r| r.id == id).and_then(|r| r.parent);
    let under_block = |mut id: u64| loop {
        match parent(id) {
            Some(p) if p == blocks[0].id => return true,
            Some(p) => id = p,
            None => return false,
        }
    };
    let chunks: Vec<_> = records
        .iter()
        .filter(|r| r.name == "io.parse_chunk")
        .collect();
    assert!(!chunks.is_empty());
    assert!(chunks.iter().all(|r| under_block(r.id)));
    assert_eq!(
        chunks.iter().map(|r| r.items).sum::<u64>() as usize,
        m.nnz()
    );
    // The root, the block, then one `io.parse` phase per window and its
    // chunks: a handful per PARSE_CHUNK_BYTES of text, never one per line.
    let most = 2 + 2 * (bytes / PARSE_CHUNK_BYTES + 1);
    assert!(records.len() <= most, "{} spans", records.len());
    assert!(most * 100 < m.nnz());
}
