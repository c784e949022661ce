//! Streamed conversions are byte-identical to the in-memory paths.
//!
//! The streaming pipeline (chunked blocks → parallel pre-sort → external
//! merge sort with disk spills → pack) must reproduce the in-memory engine's
//! output *exactly* — same arrays, same duplicate order, same value bits —
//! for every chunk size (1, a prime, larger than the input) and every
//! budget (never spilling, spilling once mid-stream, spilling constantly).
//! A deterministic acceptance test converts inputs several times larger
//! than the budget and checks the tracked working set stayed under it.

use proptest::prelude::*;

use taco_conversion_repro::conv::{AnyTensor, ConvertError, Format};
use taco_conversion_repro::formats::{CooMatrix, CooTensor};
use taco_conversion_repro::runtime::{ConversionService, ServiceConfig, StreamOptions};
use taco_conversion_repro::stream::{CooBlockStream, CoordBlock, MemoryBudget, TensorStream};
use taco_conversion_repro::tensor::Shape;

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
    #![proptest_config(ProptestConfig::with_cases(32))]

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

/// The budget dial works as specified: a roomy budget never spills, a
/// mid-size budget spills once mid-stream (plus the final buffer flush), a
/// tiny budget spills on almost every block.
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
    // (budget bytes, expected spilled runs): 100 entries * 24 B in 5-entry
    // blocks of 120 B each. 1 MiB holds everything; 2 KiB (threshold 1536)
    // overflows once at 13 runs, and the drain flushes the remainder as a
    // second run; 256 B (threshold 192) spills on every push after the
    // first.
    for (budget, expect) in [
        (MemoryBudget::mib(1), 0u64),
        (MemoryBudget::bytes(2048), 2),
        (MemoryBudget::bytes(256), 20),
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
    assert!(stats.stream_spilled_runs >= 22);
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
