//! Radix-path equivalence suite.
//!
//! The packed-key LSD radix sort and the blocked transpose are pure
//! performance rewrites: every path must be *bit-identical* to the stable
//! comparison-sort baseline. Three layers pin that down:
//!
//! * raw index sorts — [`radix::sort_perm`] against the comparison
//!   [`lex_sort_perm`] over random columns whose per-dimension bit widths
//!   sweep across the u64 / u128 / comparison-fallback boundaries,
//! * the COO3→CSF kernels — every sort strategy, all six mode orderings,
//!   at 1 / 2 / 4 threads, against the sequential engine,
//! * CSR→CSC — the transpose's blocked write-combining scatter (what a
//!   large chunk of a wide CSR source takes) against its direct scatter, at
//!   one chunk and at many, on an input large and wide enough to cross the
//!   blocking cutoffs.

use proptest::prelude::*;

use taco_conversion_repro::conv::engine;
use taco_conversion_repro::conv::kernels;
use taco_conversion_repro::conv::select::ORDER3_MODE_ORDERS;
use taco_conversion_repro::formats::csf::lex_sort_perm;
use taco_conversion_repro::formats::radix::{self, SortPath, SortStrategy};
use taco_conversion_repro::formats::{CooTensor, CsrMatrix};
use taco_conversion_repro::tensor::{Shape, SparseTriples};

/// Random coordinate columns with per-dimension bit widths drawn so the
/// packed key's total width sweeps the interesting regions: comfortably
/// inside u64, straddling 64, inside u128, and past 128 (comparison
/// fallback).
fn arb_columns() -> impl Strategy<Value = Vec<Vec<usize>>> {
    (1usize..5, 1usize..50, 0usize..200).prop_flat_map(|(dims, bits, n)| {
        proptest::collection::vec(
            proptest::collection::vec(0usize..(1usize << bits), n..n + 1),
            dims..dims + 1,
        )
    })
}

proptest! {
    /// The radix permutation equals the stable comparison permutation for
    /// any key width, including the fallback regions.
    #[test]
    fn radix_perm_matches_comparison_perm(columns in arb_columns()) {
        prop_assert_eq!(radix::sort_perm(&columns), lex_sort_perm(&columns));
    }
}

/// Pinned width boundaries: exactly 64 bits packs into u64, 65 spills to
/// u128, beyond 128 falls back to the comparison sort — and all three agree
/// with the baseline.
#[test]
fn width_boundaries_agree_with_the_comparison_sort() {
    let mut state = 0xdeadbeefcafef00du64;
    let mut next = move |bound: usize| {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state as usize) % bound
    };
    // (per-dim widths, expected path) — widths are realised by planting one
    // maximal value per column so the layout sees the full width.
    let cases: [(&[u32], SortPath); 4] = [
        (&[32, 31], SortPath::Radix64),        // 63 bits
        (&[32, 32], SortPath::Radix64),        // exactly 64
        (&[33, 32], SortPath::Radix128),       // 65
        (&[50, 50, 50], SortPath::Comparison), // 150: fallback
    ];
    for (widths, expected) in cases {
        let n = 300;
        let columns: Vec<Vec<usize>> = widths
            .iter()
            .map(|&w| {
                let max = if w >= 64 {
                    usize::MAX
                } else {
                    (1usize << w) - 1
                };
                let mut col: Vec<usize> = (0..n).map(|_| next(max)).collect();
                col[n / 2] = max; // pin the width the layout derives
                col
            })
            .collect();
        let mut span: Vec<usize> = (0..n).collect();
        let path = radix::sort_index_span(&columns, &mut span);
        assert_eq!(path, expected, "widths {widths:?}");
        assert_eq!(span, lex_sort_perm(&columns), "widths {widths:?}");
    }
}

/// Small random order-3 tensors plus a shuffle seed, so COO3 inputs arrive
/// in arbitrary storage order.
fn arb_tensor3() -> impl Strategy<Value = (SparseTriples, u64)> {
    (1usize..10, 1usize..10, 1usize..10).prop_flat_map(|(d0, d1, d2)| {
        let max_nnz = (d0 * d1 * d2).min(64);
        (
            proptest::collection::vec(((0..d0), (0..d1), (0..d2), -100i32..100), 0..max_nnz),
            1u64..u64::MAX,
        )
            .prop_map(move |(entries, seed)| {
                let mut t = SparseTriples::new(Shape::tensor3(d0, d1, d2));
                for (i, j, k, v) in entries {
                    let coord = vec![i as i64, j as i64, k as i64];
                    if v != 0 && t.get(&coord) == 0.0 {
                        t.push(coord, v as f64).expect("in bounds");
                    }
                }
                (t, seed)
            })
    })
}

fn shuffled_coo3(t: &SparseTriples, seed: u64) -> CooTensor {
    let mut coo = CooTensor::from_triples(t);
    let mut state = seed;
    coo.shuffle_with(|bound| {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state as usize) % bound
    });
    coo
}

proptest! {
    // Each case runs 6 orders x 3 strategies x 3 thread counts = 54
    // conversions, so take a quarter of the configured case count (the
    // `PROPTEST_CASES` boost still scales it).
    #![proptest_config(ProptestConfig::with_cases(ProptestConfig::default().cases / 4))]

    /// Every sort strategy, all six CSF mode orderings, 1 / 2 / 4 threads:
    /// bit-identical to the sequential engine.
    #[test]
    fn csf_kernels_are_strategy_and_thread_invariant((t, seed) in arb_tensor3()) {
        let coo = shuffled_coo3(&t, seed);
        let strategies = [
            SortStrategy::Radix,
            SortStrategy::Comparison,
            SortStrategy::Counting,
        ];
        for order in ORDER3_MODE_ORDERS {
            let reference = engine::to_csf_ordered(&coo, &order);
            for strategy in strategies {
                for threads in [1, 2, 4] {
                    let got = kernels::coo_to_csf_ordered_with(&coo, &order, threads, strategy)
                        .expect("no worker panics");
                    prop_assert_eq!(
                        &got, &reference,
                        "{:?} with {:?} at {} threads", order, strategy, threads
                    );
                }
            }
        }
        // The canonical kernel too (it shares the radix span sorts).
        let reference = engine::to_csf(&coo);
        for threads in [1, 2, 4] {
            let got = kernels::coo_to_csf(&coo, threads).expect("no worker panics");
            prop_assert_eq!(&got, &reference);
        }
    }
}

/// Both scatter strategies of the one transpose routine — the direct one and
/// the blocked write-combining one a large chunk of a wide CSR source takes —
/// are bit-identical, at one chunk and at many, on an input wide and dense
/// enough to cross the tile cutoffs (cols > 4096; ≥ 2^15 nonzeros per chunk
/// at one and two chunks, fewer from three up).
/// A COO source is never known to transpose, so it always scatters directly
/// and, replaying the CSR's order, is the reference.
#[test]
fn blocked_transpose_paths_match_the_naive_transpose() {
    let rows = 256;
    let cols = 3 * 4096 + 17;
    let mut pos = vec![0usize];
    let mut crd = Vec::new();
    let mut vals = Vec::new();
    for i in 0..rows {
        let mut row: Vec<usize> = (0..300).map(|k| (i * 31 + k * 97 + k * k) % cols).collect();
        row.sort_unstable();
        row.dedup();
        for (n, &j) in row.iter().enumerate() {
            crd.push(j);
            vals.push((i * 7 + n) as f64 * 0.25 - 3.0);
        }
        pos.push(crd.len());
    }
    let csr = CsrMatrix::from_parts(rows, cols, pos, crd, vals).expect("valid CSR");
    assert!(
        csr.nnz() >= 1 << 16,
        "input must cross the blocking cutoffs"
    );
    let direct = engine::to_csc(&engine::to_coo(&csr), 1).expect("one chunk runs inline");
    for threads in [1, 2, 3, 4, 9] {
        let blocked = engine::to_csc(&csr, threads).expect("no worker panics");
        assert_eq!(blocked.pos(), direct.pos(), "{threads} threads");
        assert_eq!(blocked.crd(), direct.crd(), "{threads} threads");
        assert_eq!(blocked.values(), direct.values(), "{threads} threads");
    }
}
