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

use proptest::prelude::*;

use taco_conversion_repro::conv::{AnyTensor, ConvertError, Format};
use taco_conversion_repro::formats::{CooMatrix, CooTensor};
use taco_conversion_repro::runtime::{ConversionService, ServiceConfig, StreamOptions};
use taco_conversion_repro::stream::sorter::record_bits;
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
