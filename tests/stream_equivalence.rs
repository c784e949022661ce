//! Streamed conversions are byte-identical to the in-memory paths.
//!
//! The streaming pipeline (chunked blocks → parallel pre-sort → external
//! merge sort with disk spills → pack) must reproduce the in-memory engine's
//! output *exactly* — same arrays, same duplicate order, same value bits —
//! for every chunk size (1, a prime, larger than the input) and every
//! budget (never spilling, spilling once mid-stream, spilling constantly).
//! A deterministic acceptance test converts inputs several times larger
//! than the budget and checks the tracked working set stayed under it, and
//! a width sweep pins shapes whose packed records are 63, 64, 65, 128 and
//! 129 bits (the last materialises), comparing values as bits.

use std::fs::File;
use std::io::BufReader;

use proptest::prelude::*;

use taco_conversion_repro::conv::{AnyTensor, ConvertError, Format};
use taco_conversion_repro::formats::{CooMatrix, CooTensor};
use taco_conversion_repro::runtime::{ConversionService, ServiceConfig, StreamOptions};
use taco_conversion_repro::stream::sorter::record_bits;
use taco_conversion_repro::stream::{
    CooBlockStream, CoordBlock, MemoryBudget, ParseJob, TensorSink, TensorStream,
};
use taco_conversion_repro::tensor::Shape;
use taco_conversion_repro::workloads::io::{MtxStream, TnsStream};

fn service() -> ConversionService {
    ConversionService::new(ServiceConfig {
        threads: 3,
        parallel_nnz_threshold: 0,
        ..ServiceConfig::default()
    })
}

/// Chunk sizes the equivalence sweep exercises: single-entry blocks, a prime
/// stride, and one block holding the whole input.
const CHUNKS: [usize; 3] = [1, 7, 1 << 20];

/// Budgets from "everything fits" down to "spill constantly".
fn budgets() -> [MemoryBudget; 3] {
    [
        MemoryBudget::mib(1),
        MemoryBudget::bytes(512),
        MemoryBudget::bytes(96),
    ]
}

/// Random matrices *with* duplicate coordinates — duplicates are stored
/// verbatim by COO→CSR, so they stress the stability of the external sort.
fn arb_matrix() -> impl Strategy<Value = CooMatrix> {
    (1usize..12, 1usize..12).prop_flat_map(|(rows, cols)| {
        proptest::collection::vec(((0..rows), (0..cols), -100i32..100), 0..80).prop_map(
            move |entries| {
                let mut m = CooMatrix::new(rows, cols);
                for (i, j, v) in entries {
                    m.push(i, j, v as f64);
                }
                m
            },
        )
    })
}

/// Random order-3 tensors with duplicates, for plain CSF.
fn arb_tensor3() -> impl Strategy<Value = CooTensor> {
    (1usize..8, 1usize..8, 1usize..8).prop_flat_map(|(d0, d1, d2)| {
        proptest::collection::vec(((0..d0), (0..d1), (0..d2), -100i32..100), 0..80).prop_map(
            move |entries| {
                let mut t = CooTensor::new(Shape::tensor3(d0, d1, d2));
                for (i, j, k, v) in entries {
                    t.push(&[i, j, k], v as f64);
                }
                t
            },
        )
    })
}

/// Duplicate-free order-3 tensors: the `CSF@...` registry wrapper rejects
/// duplicate coordinates on every path, streamed or not.
fn arb_tensor3_dedup() -> impl Strategy<Value = CooTensor> {
    arb_tensor3().prop_map(|t| {
        let mut seen = std::collections::HashSet::new();
        let mut out = CooTensor::new(t.shape().clone());
        for p in 0..t.nnz() {
            let coord = [t.crd(0)[p], t.crd(1)[p], t.crd(2)[p]];
            if seen.insert(coord) {
                out.push(&coord, t.values()[p]);
            }
        }
        out
    })
}

proptest! {
    // 32 cases by default; CI's PROPTEST_CASES=1024 sweep runs 128.
    #![proptest_config(ProptestConfig::with_cases(ProptestConfig::default().cases / 8))]

    /// Streamed COO→CSR equals the in-memory conversion for every chunk
    /// size and budget, bit for bit.
    #[test]
    fn streamed_csr_is_byte_identical(m in arb_matrix()) {
        let svc = service();
        let want = svc
            .convert(&AnyTensor::Coo(m.clone()), Format::csr())
            .expect("in-memory COO→CSR");
        for chunk in CHUNKS {
            for budget in budgets() {
                let stream = CooBlockStream::from_matrix(&m, chunk);
                let got = svc
                    .convert_stream(stream, Format::csr(), &StreamOptions::with_budget(budget))
                    .expect("streamed COO→CSR");
                prop_assert_eq!(&got.tensor, &want, "chunk={} budget={}", chunk, budget.bytes);
                prop_assert_eq!(got.stats.entries, m.nnz() as u64);
                if budget.bytes >= 1 << 20 {
                    prop_assert!(got.stats.in_memory, "1 MiB budget never spills here");
                }
                if got.stats.spilled_runs == 0 {
                    prop_assert!(got.stats.in_memory);
                }
            }
        }
    }

    /// Streamed COO3→CSF equals the in-memory conversion for every chunk
    /// size and budget.
    #[test]
    fn streamed_csf_is_byte_identical(t in arb_tensor3()) {
        let svc = service();
        let want = svc
            .convert(&AnyTensor::Coo3(t.clone()), Format::csf())
            .expect("in-memory COO3→CSF");
        for chunk in CHUNKS {
            for budget in budgets() {
                let stream = CooBlockStream::new(t.clone(), chunk);
                let got = svc
                    .convert_stream(stream, Format::csf(), &StreamOptions::with_budget(budget))
                    .expect("streamed COO3→CSF");
                prop_assert_eq!(&got.tensor, &want, "chunk={} budget={}", chunk, budget.bytes);
            }
        }
    }

    /// Streamed COO3→CSF@perm (mode-permuted registry targets) equals the
    /// in-memory conversion; the permutation is applied by remapping the
    /// sort key, not by materialising a permuted tensor.
    #[test]
    fn streamed_permuted_csf_is_byte_identical(t in arb_tensor3_dedup()) {
        let svc = service();
        for order_name in ["CSF@2,0,1", "CSF@1,2,0"] {
            let target: taco_conversion_repro::conv::Format = order_name.parse().unwrap();
            let want = svc
                .convert(&AnyTensor::Coo3(t.clone()), target.clone())
                .expect("in-memory COO3→CSF@perm");
            for chunk in [1usize, 7, 1 << 20] {
                let stream = CooBlockStream::new(t.clone(), chunk);
                let got = svc
                    .convert_stream(
                        stream,
                        target.clone(),
                        &StreamOptions::with_budget(MemoryBudget::bytes(96)),
                    )
                    .expect("streamed COO3→CSF@perm");
                prop_assert_eq!(&got.tensor, &want, "{} chunk={}", order_name, chunk);
            }
        }
    }
}

/// Values the records must carry bit for bit: signed zeros, NaNs with
/// payload bits (quiet and signalling, both signs), and ordinary numbers.
const SPECIAL_VALUES: [u64; 6] = [
    0x0000_0000_0000_0000, // 0.0
    0x8000_0000_0000_0000, // -0.0
    0x7ff8_0000_dead_beef, // quiet NaN, payload
    0xfff0_0000_0000_0001, // negative signalling NaN
    0x3ff8_0000_0000_0000, // 1.5
    0xc000_0000_0000_0000, // -2.0
];

/// A tensor's structure and its value *bits*: `==` on containers compares
/// values as floats, so it can neither tell −0.0 from 0.0 nor match a NaN.
fn bits(t: &AnyTensor) -> (String, Vec<u64>) {
    let (structure, values) = match t {
        AnyTensor::Csr(m) => (format!("{:?} {:?}", m.pos(), m.crd()), m.values()),
        AnyTensor::Csf(c) => {
            let levels: Vec<_> = (0..c.order())
                .map(|l| (c.crd(l), (l + 1 < c.order()).then(|| c.pos(l))))
                .collect();
            (format!("{levels:?}"), c.values())
        }
        AnyTensor::Custom(c) => (format!("{:?}", c.levels), &c.vals[..]),
        other => panic!("unexpected container {other:?}"),
    };
    (structure, values.iter().map(|v| v.to_bits()).collect())
}

/// A COO tensor whose mode `d` has extent `2^widths[d]` (so its records
/// are `Σ widths` bits wide), `nnz` nonzeros drawn from `distinct`
/// coordinate tuples (tuple 0 is the largest coordinate of every mode), and
/// values cycling through [`SPECIAL_VALUES`]. With `distinct ≥ nnz` no
/// tuple repeats.
fn wide_coo(widths: &[u32], nnz: usize, distinct: usize, seed: u64) -> CooTensor {
    let mut state = seed | 1;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state as usize
    };
    let max = |w: u32| usize::MAX >> (usize::BITS - w);
    let mut pool: Vec<Vec<usize>> = (0..distinct)
        .map(|t| {
            let tuple = widths
                .iter()
                .map(|&w| if t == 0 { max(w) } else { next() & max(w) });
            tuple.collect()
        })
        .collect();
    pool.sort();
    pool.dedup();
    let shape = Shape::new(widths.iter().map(|&w| max(w) + 1).collect());
    let mut coo = CooTensor::new(shape);
    for p in 0..nnz {
        let tuple = if distinct >= nnz {
            &pool[(p * 7919) % pool.len()]
        } else {
            &pool[next() % pool.len()]
        };
        coo.push(
            tuple,
            f64::from_bits(SPECIAL_VALUES[p % SPECIAL_VALUES.len()]),
        );
    }
    coo
}

/// The streamed conversion of `src` to `target`, for every chunk size and
/// budget, equals the in-memory one bit for bit; budgets under the input
/// spill whenever blocks are smaller than it. Returns the requests that
/// materialised instead of streaming.
fn assert_streams_bit_for_bit(svc: &ConversionService, src: &CooTensor, target: &Format) -> u64 {
    let as_any = |t: CooTensor| {
        if t.order() != 2 {
            return AnyTensor::Coo3(t);
        }
        let mut m = CooMatrix::new(t.shape().dim(0), t.shape().dim(1));
        for p in 0..t.nnz() {
            m.push(t.crd(0)[p], t.crd(1)[p], t.values()[p]);
        }
        AnyTensor::Coo(m)
    };
    let want = bits(
        &svc.convert(&as_any(src.clone()), target.clone())
            .expect("in memory"),
    );
    let before = svc.stats().materialized;
    for chunk in CHUNKS {
        for budget in budgets() {
            let stream = CooBlockStream::new(src.clone(), chunk);
            let got = svc
                .convert_stream(stream, target.clone(), &StreamOptions::with_budget(budget))
                .expect("streamed");
            let label = format!(
                "{target} {} chunk={chunk} budget={}",
                src.shape(),
                budget.bytes
            );
            assert_eq!(bits(&got.tensor), want, "{label}");
            assert_eq!(got.stats.entries, src.nnz() as u64, "{label}");
            let materialized = svc.stats().materialized > before;
            if !materialized && budget.bytes < 1024 && chunk < src.nnz() {
                assert!(got.stats.spilled_runs > 0, "{label} spills");
            }
            if budget.bytes >= 1 << 20 {
                assert_eq!(got.stats.spilled_runs, 0, "{label} fits");
            }
        }
    }
    svc.stats().materialized - before
}

/// Records of 63 and 64 bits take `u64` words, 65 and 128 bits `u128`, and
/// 129 bits fit no word, so that stream materialises; every one matches the
/// in-memory conversion bit for bit — duplicates in arrival order, −0.0 and
/// NaN payloads intact — across chunk sizes and budgets forcing no, a few
/// and many spills.
#[test]
fn packed_record_widths_match_the_in_memory_path() {
    let svc = service();
    let permuted: Format = "CSF@2,0,1".parse().unwrap();
    let cases: [(&[u32], bool); 8] = [
        (&[2, 61], false),      // 63-bit CSR
        (&[2, 62], false),      // 64
        (&[3, 62], false),      // 65
        (&[21, 21, 21], false), // 63-bit CSF
        (&[22, 21, 21], false), // 64
        (&[22, 22, 21], false), // 65
        (&[43, 43, 42], false), // 128
        (&[43, 43, 43], true),  // 129: materialised
    ];
    for (n, (widths, wider)) in cases.into_iter().enumerate() {
        let total: u32 = widths.iter().sum();
        let with_dups = wide_coo(widths, 150, 40, 0x5eed + n as u64);
        assert_eq!(record_bits(with_dups.shape()), total);
        let target = if widths.len() == 2 {
            Format::csr()
        } else {
            Format::csf()
        };
        let materialized = assert_streams_bit_for_bit(&svc, &with_dups, &target);
        assert_eq!(materialized > 0, wider, "{total} bits");
        if widths.len() == 3 {
            // The registry wrapper rejects duplicate coordinates.
            let distinct = wide_coo(widths, 150, 150, 0xfeed + n as u64);
            let materialized = assert_streams_bit_for_bit(&svc, &distinct, &permuted);
            assert_eq!(materialized > 0, wider, "{total} bits along 2,0,1");
        }
    }
}

/// CSR keeps arrival order within a row across blocks and spills: three
/// rows, 300 entries with distinct values, so any reordering inside a row
/// shows.
#[test]
fn duplicate_rows_keep_arrival_order_across_blocks_and_spills() {
    let mut m = CooTensor::new(Shape::matrix(3, 1000));
    for p in 0..300usize {
        m.push(&[(p * 7) % 3, (p * 389) % 1000], p as f64 - 150.0);
    }
    let svc = service();
    assert_eq!(assert_streams_bit_for_bit(&svc, &m, &Format::csr()), 0);
}

/// The budget dial works as specified: a roomy budget never spills, a
/// mid-size budget spills once mid-stream (plus the final buffer flush), a
/// tiny budget spills on every other block.
#[test]
fn budgets_control_spill_counts() {
    let mut m = CooMatrix::new(64, 64);
    for p in 0..100usize {
        m.push((p * 13) % 64, (p * 7) % 64, p as f64);
    }
    let svc = service();
    let want = svc
        .convert(&AnyTensor::Coo(m.clone()), Format::csr())
        .unwrap();
    // (budget bytes, expected spilled runs): 100 entries as 16 B records
    // (a u64 key word plus the value bits) in 5-entry blocks of 80 B each.
    // 1 MiB holds everything; 2 KiB (threshold 1536) overflows once at 19
    // runs, and the drain flushes the remainder as a second run; 256 B
    // (threshold 192) holds two runs, so the third push and every second
    // one after it spill (9 spills), and the drain flushes the last two
    // runs as a tenth.
    for (budget, expect) in [
        (MemoryBudget::mib(1), 0u64),
        (MemoryBudget::bytes(2048), 2),
        (MemoryBudget::bytes(256), 10),
    ] {
        let got = svc
            .convert_stream(
                CooBlockStream::from_matrix(&m, 5),
                Format::csr(),
                &StreamOptions::with_budget(budget),
            )
            .unwrap();
        assert_eq!(got.tensor, want, "budget={}", budget.bytes);
        assert_eq!(got.stats.spilled_runs, expect, "budget={}", budget.bytes);
        assert_eq!(got.stats.in_memory, expect == 0);
        if expect > 0 {
            assert_eq!(got.stats.merged_entries, 100, "all entries re-read");
            assert!(got.stats.spilled_bytes > 0);
        }
    }
    let stats = svc.stats();
    assert_eq!(stats.streams, 3);
    assert!(stats.stream_spilled_runs >= 12);
    assert!(stats.stream_peak_bytes > 0);
}

/// Acceptance: inputs ≥ 4× the memory budget convert COO→CSR and COO3→CSF
/// with the tracked working set staying under the budget, spill counters
/// moving, and output identical to the in-memory path.
#[test]
fn oversized_inputs_convert_under_budget() {
    let budget = MemoryBudget::bytes(8 * 1024);
    let opts = StreamOptions {
        budget,
        channel_blocks: 1,
        spill_dir: None,
    };
    let svc = ConversionService::new(ServiceConfig {
        threads: 2,
        parallel_nnz_threshold: 0,
        ..ServiceConfig::default()
    });

    // COO→CSR: 1400 entries * 24 B ≈ 33 KiB ≈ 4.1× the 8 KiB budget.
    let mut m = CooMatrix::new(128, 128);
    for p in 0..1400usize {
        m.push((p * 31) % 128, (p * 17) % 128, p as f64 * 0.5);
    }
    assert!(1400 * 24 >= 4 * budget.bytes, "input is ≥ 4× the budget");
    let want = svc
        .convert(&AnyTensor::Coo(m.clone()), Format::csr())
        .unwrap();
    let got = svc
        .convert_stream(CooBlockStream::from_matrix(&m, 10), Format::csr(), &opts)
        .unwrap();
    assert_eq!(got.tensor, want);
    assert!(got.stats.spilled_runs > 0, "the budget forced spills");
    assert!(
        got.stats.peak_tracked_bytes < budget.bytes,
        "peak working set {} stayed under the {} budget",
        got.stats.peak_tracked_bytes,
        budget.bytes
    );

    // COO3→CSF: 1100 entries * 32 B ≈ 34 KiB ≈ 4.3× the budget.
    let mut t = CooTensor::new(Shape::tensor3(32, 32, 32));
    for p in 0..1100usize {
        t.push(&[(p * 29) % 32, (p * 13) % 32, (p * 7) % 32], p as f64);
    }
    assert!(1100 * 32 >= 4 * budget.bytes, "input is ≥ 4× the budget");
    let want = svc
        .convert(&AnyTensor::Coo3(t.clone()), Format::csf())
        .unwrap();
    let got = svc
        .convert_stream(CooBlockStream::new(t.clone(), 8), Format::csf(), &opts)
        .unwrap();
    assert_eq!(got.tensor, want);
    assert!(got.stats.spilled_runs > 0);
    assert!(got.stats.peak_tracked_bytes < budget.bytes);

    let stats = svc.stats();
    assert_eq!(stats.streams, 2);
    assert!(stats.stream_spilled_bytes > 0);
    assert!(stats.stream_peak_bytes < budget.bytes);
    assert_eq!(stats.materialized, 0);
}

/// Targets without a streamed packer fall back to materialising the stream
/// and converting in memory, and the service counts the fallback.
#[test]
fn unstreamed_targets_materialize_and_match() {
    let mut m = CooMatrix::new(10, 10);
    for p in 0..30usize {
        m.push((p * 3) % 10, (p * 7) % 10, p as f64);
    }
    let svc = service();
    let want = svc
        .convert(&AnyTensor::Coo(m.clone()), Format::ell())
        .unwrap();
    let got = svc
        .convert_stream(
            CooBlockStream::from_matrix(&m, 4),
            Format::ell(),
            &StreamOptions::default(),
        )
        .unwrap();
    assert_eq!(got.tensor, want);
    assert!(got.stats.in_memory);
    assert_eq!(got.stats.entries, 30);
    assert_eq!(svc.stats().materialized, 1);
}

/// A source that panics mid-stream costs that conversion a typed error, not
/// the process: the producer thread's panic is reported as
/// `WorkerPanicked`, counted once in `ServiceStats::worker_panics`, and the
/// same service converts the next request.
#[test]
fn a_panicking_source_is_a_typed_error_and_the_service_keeps_serving() {
    /// Yields two blocks of a real stream, then panics.
    struct Exploding {
        inner: CooBlockStream,
        served: usize,
    }
    impl TensorStream for Exploding {
        fn shape(&self) -> &Shape {
            self.inner.shape()
        }
        fn next_block(&mut self) -> Result<Option<CoordBlock>, ConvertError> {
            if self.served == 2 {
                panic!("the source dies mid-stream (expected by this test)");
            }
            self.served += 1;
            self.inner.next_block()
        }
    }

    let mut m = CooMatrix::new(10, 10);
    for p in 0..30usize {
        m.push((p * 3) % 10, (p * 7) % 10, p as f64);
    }
    let svc = service();
    let exploding = Exploding {
        inner: CooBlockStream::from_matrix(&m, 4),
        served: 0,
    };
    let err = svc
        .convert_stream(exploding, Format::csr(), &StreamOptions::default())
        .unwrap_err();
    assert_eq!(
        err,
        ConvertError::WorkerPanicked {
            phase: "stream.producer"
        }
    );
    assert_eq!(svc.stats().worker_panics, 1);
    let csr = svc
        .convert(&AnyTensor::Coo(m.clone()), Format::csr())
        .unwrap();
    assert!(csr.to_triples().same_values(&m.to_triples()));
    let streamed = svc
        .convert_stream(
            CooBlockStream::from_matrix(&m, 4),
            Format::csr(),
            &StreamOptions::default(),
        )
        .unwrap();
    assert_eq!(streamed.tensor, csr);
    assert_eq!(svc.stats().worker_panics, 1, "successes are not counted");
}

/// Runs `f` on its own thread and fails the test instead of hanging when it
/// has not returned within a minute.
fn within_a_minute<T: Send + 'static>(f: impl FnOnce() -> T + Send + 'static) -> T {
    let (tx, rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || tx.send(f()).unwrap());
    rx.recv_timeout(std::time::Duration::from_secs(60))
        .expect("the streamed conversion finished instead of deadlocking")
}

/// A `.mtx` file's text, written by hand for the fields `write_mtx` does
/// not write: `pattern` drops the values, `symmetric` keeps the lower
/// triangle (the loader mirrors it back).
fn mtx_text(field: &str, symmetry: &str, m: &CooMatrix) -> String {
    let lines: Vec<String> = m
        .iter()
        .filter(|&(i, j, _)| symmetry == "general" || i >= j)
        .map(|(i, j, v)| match field {
            "pattern" => format!("{} {}", i + 1, j + 1),
            _ => format!("{} {} {v}", i + 1, j + 1),
        })
        .collect();
    let (rows, cols, nnz) = (m.rows(), m.cols(), lines.len());
    let header =
        format!("%%MatrixMarket matrix coordinate {field} {symmetry}\n{rows} {cols} {nnz}");
    format!("{header}\n% entries\n{}\n", lines.join("\n"))
}

/// Either file loader, forwarding its own jobs.
enum Loader {
    Mtx(MtxStream<BufReader<File>>),
    Tns(TnsStream<BufReader<File>>),
}

impl TensorStream for Loader {
    fn shape(&self) -> &Shape {
        match self {
            Loader::Mtx(s) => s.shape(),
            Loader::Tns(s) => s.shape(),
        }
    }
    fn next_block(&mut self) -> Result<Option<CoordBlock>, ConvertError> {
        match self {
            Loader::Mtx(s) => s.next_block(),
            Loader::Tns(s) => s.next_block(),
        }
    }
    fn next_job(&mut self, entries: usize) -> Result<Option<ParseJob>, ConvertError> {
        match self {
            Loader::Mtx(s) => s.next_job(entries),
            Loader::Tns(s) => s.next_job(entries),
        }
    }
}

/// Real loaders under real budgets: `.mtx` files (general, symmetric,
/// pattern) and a `.tns` file, each streamed through its parse jobs at
/// budgets forcing no spill, two spills and many, at 1, 2 and 4 threads,
/// and under a budget whose headroom holds one job, so the producer
/// admits one job at a time once the sort buffer fills. Every run equals
/// `service.convert` of the loaded tensor, values compared as bits, and
/// keeps its tracked working set under the budget.
#[test]
fn real_loaders_stream_jobs_under_real_budgets() {
    use taco_conversion_repro::stream::CooSink;
    use taco_conversion_repro::workloads::io::{write_mtx, write_tns};

    let dir = std::env::temp_dir().join(format!("stream-loaders-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let mut m = CooMatrix::new(200, 200);
    let mut t = CooTensor::new(Shape::tensor3(20, 30, 40));
    for p in 0..3000usize {
        let v = f64::from_bits(SPECIAL_VALUES[p % 4 + 2]) * (p % 97) as f64;
        m.push((p * 37) % 200, (p * 101 + p / 7) % 200, v);
        t.push(&[(p * 7) % 20, (p * 31) % 30, (p * 13 + p / 5) % 40], v);
    }
    write_mtx(dir.join("general.mtx"), &m).unwrap();
    for (name, field, symmetry) in [
        ("symmetric.mtx", "real", "symmetric"),
        ("pattern.mtx", "pattern", "general"),
    ] {
        std::fs::write(dir.join(name), mtx_text(field, symmetry, &m)).unwrap();
    }
    write_tns(dir.join("t.tns"), &t).unwrap();

    // Blocks small next to the tightest budget's headroom: an 8-line job
    // reserves at most 8 × 2 × 56 B (a mirrored `.mtx` line is two entries).
    const BLOCK: usize = 8;
    let open = |name: &str, block: usize| {
        let path = dir.join(name);
        match name {
            "t.tns" => Loader::Tns(TnsStream::open(path, t.shape().clone(), block).unwrap()),
            _ => Loader::Mtx(MtxStream::open(path, block).unwrap()),
        }
    };
    for name in ["general.mtx", "symmetric.mtx", "pattern.mtx", "t.tns"] {
        let (target, order) = match name {
            "t.tns" => (Format::csf(), 3),
            _ => (Format::csr(), 2),
        };
        // The reference: the loaded tensor, converted in memory.
        let mut loaded = open(name, BLOCK);
        let mut sink = CooSink::new(loaded.shape().clone());
        while let Some(block) = loaded.next_block().unwrap() {
            sink.push_block(block).unwrap();
        }
        let coo = sink.into_tensor();
        let nnz = coo.nnz();
        let source = if order == 2 {
            let mut matrix = CooMatrix::new(coo.shape().dim(0), coo.shape().dim(1));
            for p in 0..nnz {
                matrix.push(coo.crd(0)[p], coo.crd(1)[p], coo.values()[p]);
            }
            AnyTensor::Coo(matrix)
        } else {
            AnyTensor::Coo3(coo)
        };
        let want = bits(&service().convert(&source, target.clone()).unwrap());
        // Records are 16 B: `records` fits; 3/4 of it spills once, then
        // the drain flushes the rest; an eighth of it spills many times.
        let records = 16 * nnz;
        // A 64-line job reserves its columns plus two records per entry (its
        // text is smaller); a quarter of `one_job` holds 1.25 such jobs.
        let per_line = if name == "symmetric.mtx" { 2 } else { 1 };
        let job = 64 * per_line * ((order + 1) * 8 + 32);
        let one_job = 4 * (job + job / 4);
        let cases = [
            (MemoryBudget::mib(4), BLOCK, 0..=0),
            (MemoryBudget::bytes(records), BLOCK, 2..=2),
            (MemoryBudget::bytes(records / 8), BLOCK, 5..=u64::MAX),
            (MemoryBudget::bytes(one_job), 64, 2..=u64::MAX),
        ];
        for threads in [1, 2, 4] {
            for (budget, block, spills) in cases.clone() {
                let label = format!("{name} T={threads} budget={}", budget.bytes);
                let stream = open(name, block);
                let target = target.clone();
                let got = within_a_minute(move || {
                    let svc = ConversionService::new(ServiceConfig {
                        threads,
                        parallel_nnz_threshold: 0,
                        ..ServiceConfig::default()
                    });
                    svc.convert_stream(stream, target, &StreamOptions::with_budget(budget))
                });
                let got = got.unwrap_or_else(|e| panic!("{label}: {e}"));
                assert_eq!(bits(&got.tensor), want, "{label}");
                assert_eq!(got.stats.entries, nnz as u64, "{label}");
                assert!(spills.contains(&got.stats.spilled_runs), "{label}");
                assert!(
                    got.stats.peak_tracked_bytes < budget.bytes,
                    "{label}: peak {} over the budget",
                    got.stats.peak_tracked_bytes
                );
            }
        }
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A parse job that panics on a worker is `WorkerPanicked`, counted once,
/// and the same service streams the next request.
#[test]
fn a_panicking_job_is_a_typed_error_and_the_service_keeps_serving() {
    /// The blocks of a real stream as jobs; the third job panics.
    struct PanickingJob {
        inner: CooBlockStream,
        cut: usize,
    }
    impl TensorStream for PanickingJob {
        fn shape(&self) -> &Shape {
            self.inner.shape()
        }
        fn next_block(&mut self) -> Result<Option<CoordBlock>, ConvertError> {
            self.inner.next_block()
        }
        fn next_job(&mut self, _: usize) -> Result<Option<ParseJob>, ConvertError> {
            self.cut += 1;
            if self.cut == 3 {
                return Ok(Some(ParseJob::new(1, 0, || {
                    panic!("a parse job dies on a worker (expected by this test)")
                })));
            }
            Ok(self.inner.next_block()?.map(ParseJob::ready))
        }
    }

    let mut m = CooMatrix::new(10, 10);
    for p in 0..30usize {
        m.push((p * 3) % 10, (p * 7) % 10, p as f64);
    }
    let svc = service();
    let panicking = PanickingJob {
        inner: CooBlockStream::from_matrix(&m, 4),
        cut: 0,
    };
    let err = svc
        .convert_stream(panicking, Format::csr(), &StreamOptions::default())
        .unwrap_err();
    assert!(matches!(err, ConvertError::WorkerPanicked { .. }), "{err}");
    assert_eq!(svc.stats().worker_panics, 1);
    let want = svc
        .convert(&AnyTensor::Coo(m.clone()), Format::csr())
        .unwrap();
    let streamed = svc
        .convert_stream(
            CooBlockStream::from_matrix(&m, 4),
            Format::csr(),
            &StreamOptions::default(),
        )
        .unwrap();
    assert_eq!(streamed.tensor, want);
    assert_eq!(svc.stats().worker_panics, 1, "successes are not counted");
}

/// Errors come back in file order: when job 1 fails after job 2 already
/// has, or fails while job 2 is still running, the stream returns job 1's
/// error, and every stage stops.
#[test]
fn the_first_failing_job_in_file_order_wins() {
    /// Jobs of one entry each; job 1 fails after `slow_fail`, job 2 after
    /// `slow_next`, with parse errors at their own line numbers.
    struct Failing {
        shape: Shape,
        cut: u64,
        slow_fail: u64,
        slow_next: u64,
    }
    impl TensorStream for Failing {
        fn shape(&self) -> &Shape {
            &self.shape
        }
        fn next_block(&mut self) -> Result<Option<CoordBlock>, ConvertError> {
            unreachable!("the pump cuts jobs")
        }
        fn next_job(&mut self, _: usize) -> Result<Option<ParseJob>, ConvertError> {
            let (line, shape) = (self.cut, self.shape.clone());
            self.cut += 1;
            let delay = match line {
                1 => self.slow_fail,
                2 => self.slow_next,
                _ => 0,
            };
            Ok(Some(ParseJob::new(1, 0, move || {
                std::thread::sleep(std::time::Duration::from_millis(delay));
                if line == 1 || line == 2 {
                    let message = format!("job {line} fails");
                    return Err(ConvertError::Parse { line, message });
                }
                CoordBlock::from_columns(shape, vec![vec![0], vec![0]], vec![1.0])
            })))
        }
    }

    for (slow_fail, slow_next) in [(50, 0), (0, 50)] {
        let got = within_a_minute(move || {
            let failing = Failing {
                shape: Shape::matrix(4, 4),
                cut: 0,
                slow_fail,
                slow_next,
            };
            service().convert_stream(failing, Format::csr(), &StreamOptions::default())
        });
        let message = "job 1 fails".to_string();
        assert_eq!(got.unwrap_err(), ConvertError::Parse { line: 1, message });
    }
}

/// When the consumer fails mid-stream (here the first spill cannot create
/// its file), the conversion returns that error, the producer stops
/// cutting jobs, and the workers exit.
#[test]
fn a_consumer_failure_stops_the_producer_and_the_workers() {
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    /// Counts the jobs cut from an inner stream.
    struct Counted(CooBlockStream, Arc<AtomicUsize>);
    impl TensorStream for Counted {
        fn shape(&self) -> &Shape {
            self.0.shape()
        }
        fn next_block(&mut self) -> Result<Option<CoordBlock>, ConvertError> {
            self.1.fetch_add(1, Ordering::Relaxed);
            self.0.next_block()
        }
    }

    let mut m = CooMatrix::new(100, 100);
    for p in 0..20_000usize {
        m.push((p * 37) % 100, (p * 11) % 100, p as f64);
    }
    let blocks = 20_000 / 8;
    let cut = Arc::new(AtomicUsize::new(0));
    let stream = Counted(CooBlockStream::from_matrix(&m, 8), cut.clone());
    let opts = StreamOptions {
        budget: MemoryBudget::kib(8),
        channel_blocks: 0,
        spill_dir: Some(
            std::env::temp_dir()
                .join("no-such-dir-for-spills")
                .join("x"),
        ),
    };
    let err = within_a_minute(move || {
        service()
            .convert_stream(stream, Format::csr(), &opts)
            .unwrap_err()
    });
    assert!(matches!(err, ConvertError::Io(_)), "{err}");
    let cut = cut.load(Ordering::Relaxed);
    assert!(
        cut < blocks / 2,
        "the producer stopped after {cut} of {blocks} jobs"
    );
}
